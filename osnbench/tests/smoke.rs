//! Every workload end to end on small inputs and short runs: untraced
//! and traced, no failed operation, no failed check, and every metric
//! `BENCHMARK.json` lists is printed. `analyze`, `ingest` and
//! `serve-read` run on `TraceConfig::tiny()`; `write`'s traced run needs
//! 100 WAL appends for a supported tail, so it runs on the serve-read
//! trace.

use osn_genstream::TraceConfig;
use osnbench::{analyze, ingest, result_line, serve_read, write, Outcome, END_TO_END, PER_LAYER};

/// Metric names of one `BENCHMARK.json` section, in file order.
fn listed(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| {
            s.trim()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap()
                .to_string()
        })
        .collect()
}

fn check(workload: &str, traced: bool, mut out: Outcome) {
    if !traced {
        // Set by the binary for the whole process.
        out.set("peak_rss_mb", osnbench::peak_rss_mb().expect("VmHWM"));
    }
    let (line, correct) = result_line(&mut out, traced);
    assert!(
        correct,
        "{workload} (traced: {traced}) failed {}/{}: {:?}",
        out.failed, out.attempted, out.problems
    );
    let section = if traced { "per_layer" } else { "end_to_end" };
    for name in listed(section) {
        assert!(
            line.contains(&format!("\"{name}\":{{\"value\":")),
            "{workload} (traced: {traced}) does not print {name}: {line}"
        );
    }
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let names = |defs: &[(&str, &str)]| defs.iter().map(|d| d.0.to_string()).collect::<Vec<_>>();
    assert_eq!(listed("end_to_end"), names(END_TO_END));
    assert_eq!(listed("per_layer"), names(PER_LAYER));
}

#[test]
fn every_workload_runs_clean_on_small_inputs() {
    let tiny = TraceConfig::tiny();
    let write_trace = serve_read::trace(tiny.seed);
    for traced in [false, true] {
        check("analyze", traced, analyze::run(&tiny, 0.2, traced));
        check("ingest", traced, ingest::run(&tiny, 0.2, traced));
        check("serve-read", traced, serve_read::run(&tiny, 2.5, traced));
        check("write", traced, write::run(&write_trace, 5.0, traced));
    }
}
