//! Trace persistence: configure a custom generator, write the event log
//! to disk in the checksummed v2 text format, read it back, and verify
//! the round-trip.
//!
//! ```sh
//! cargo run --release --example trace_io
//! ```

use multiscale_osn::genstream::{DipWindow, GrowthConfig, TraceConfig, TraceGenerator};
use multiscale_osn::graph::io::{read_log, write_log_v2};

fn main() {
    // A custom configuration: a single network (no merge), one holiday
    // dip, heavier-tailed budgets.
    let mut cfg = TraceConfig::tiny();
    cfg.merge = None;
    cfg.growth = GrowthConfig {
        initial_nodes: 2,
        final_nodes: 1_200,
        beta: 0.65,
        dips: vec![DipWindow {
            start_day: 40,
            len: 10,
            factor: 0.3,
        }],
        daily_jitter: 0.05,
    };
    cfg.behavior.budget_alpha = 1.3;
    cfg.seed = 2026;

    let log = TraceGenerator::new(cfg).generate();
    println!(
        "generated {} nodes / {} edges over {} days",
        log.num_nodes(),
        log.num_edges(),
        log.end_day() + 1
    );

    let path = std::env::temp_dir().join("multiscale_osn_trace.events");
    let file = std::fs::File::create(&path).expect("create trace file");
    write_log_v2(&log, file).expect("write trace");
    let bytes = std::fs::metadata(&path).expect("stat").len();
    println!(
        "wrote {} ({:.1} KiB)",
        path.display(),
        bytes as f64 / 1024.0
    );

    let file = std::fs::File::open(&path).expect("open trace file");
    let back = read_log(file).expect("parse trace");
    assert_eq!(back.num_nodes(), log.num_nodes());
    assert_eq!(back.num_edges(), log.num_edges());
    assert_eq!(back.events().len(), log.events().len());
    println!(
        "read back {} events — round-trip verified",
        back.events().len()
    );
    std::fs::remove_file(&path).ok();
}
