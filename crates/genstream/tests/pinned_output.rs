//! Pins what the generators emit. Each value is the event count and the
//! `EventLog::fingerprint` (FNV-1a over every event) of one seeded run, so
//! a change to how the generators keep or sample the graph built so far
//! must leave every generated event as it was.

use osn_genstream::{forest_fire, mixed_attachment, BaselineConfig, TraceConfig, TraceGenerator};
use osn_graph::EventLog;

fn id(log: &EventLog) -> (usize, u64) {
    (log.events().len(), log.fingerprint())
}

fn small(seed: u64) -> TraceConfig {
    TraceConfig {
        seed,
        ..TraceConfig::small()
    }
}

/// The paper configuration grown to ≈4K nodes.
fn paper_4k(seed: u64) -> TraceConfig {
    let mut cfg = TraceConfig {
        seed,
        ..TraceConfig::default_paper()
    };
    cfg.growth.final_nodes = 4_000;
    cfg
}

#[test]
fn trace_generator_output_is_pinned() {
    for (name, cfg, want) in [
        (
            "small, seed 42",
            small(42),
            (126_558, 0x1b39_1b20_02d9_2d07),
        ),
        ("small, seed 7", small(7), (126_495, 0x5f64_0d33_4565_7046)),
        (
            "paper 4K, seed 42",
            paper_4k(42),
            (64_224, 0x16fe_db97_e340_5e7c),
        ),
        (
            "paper 4K, seed 7",
            paper_4k(7),
            (64_083, 0x8d87_60d8_3afe_8b2c),
        ),
    ] {
        let got = id(&TraceGenerator::new(cfg).generate());
        assert_eq!(got, want, "{name}: got ({}, {:#x})", got.0, got.1);
    }
}

#[test]
fn baseline_output_is_pinned() {
    let cfg = BaselineConfig {
        nodes: 3_000,
        edges_per_node: 4,
        days: 300,
        seed: 11,
    };
    let got = id(&forest_fire(&cfg, 0.35));
    assert_eq!(got, (7_902, 0x32c5_5c91_ca67_d578), "forest fire: {got:x?}");
    let got = id(&mixed_attachment(&cfg, 0.5));
    assert_eq!(
        got,
        (14_990, 0xe176_4051_ae4d_e5e5),
        "mixed attachment: {got:x?}"
    );
}
