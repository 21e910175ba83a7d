//! Differential tests: the incremental engine must be indistinguishable
//! from the batch oracle, byte for byte, on arbitrary event logs — not
//! just the generator's — and must quarantine the same days under
//! injected faults. This suite is the only place production metrics are
//! compared against the oracle; the case count follows
//! `PROPTEST_CASES` (64 by default).

use osn_core::network::{metric_series_supervised_with, MetricSeriesConfig};
use osn_graph::{EventLog, EventLogBuilder, NodeId, Origin, Time};
use osn_metrics::engine::EngineKind;
use osn_metrics::supervisor::RunPolicy;
use osn_metrics::supervisor::{ChaosAction, ChaosTaskPlan};
use proptest::prelude::*;

/// Deterministically grow a log from a proptest-chosen script: per day,
/// a few joins and a few attachment attempts among existing nodes
/// (self-loops and duplicates skipped, as the builder would reject
/// them). The script space covers empty days, edge-free prefixes, and
/// bursts — shapes the trace generator never emits.
fn build_log(days: u64, script: &[(u8, Vec<(u16, u16)>)]) -> EventLog {
    let mut b = EventLogBuilder::new();
    let mut nodes: Vec<NodeId> = Vec::new();
    for day in 0..days {
        let (joins, attempts) = script.get(day as usize).cloned().unwrap_or((1, Vec::new()));
        for k in 0..joins {
            let t = Time::from_days(day).plus_seconds(k as u64);
            nodes.push(b.add_node(t, Origin::Core).unwrap());
        }
        for (i, &(a, c)) in attempts.iter().enumerate() {
            if nodes.len() < 2 {
                break;
            }
            let u = nodes[a as usize % nodes.len()];
            let v = nodes[c as usize % nodes.len()];
            let t = Time::from_days(day).plus_seconds(1000 + i as u64);
            if u != v && !b.has_edge(u, v) {
                b.add_edge(t, u, v).unwrap();
            }
        }
    }
    b.build()
}

fn run_engine(log: &EventLog, cfg: &MetricSeriesConfig, engine: EngineKind) -> String {
    let (series, failures) = metric_series_supervised_with(log, cfg, &RunPolicy::default(), engine);
    assert!(failures.is_empty(), "{engine:?}: unexpected failures");
    series.to_table().to_csv()
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Random event logs through both engines produce identical metric
    /// tables — sampled kernels included, since both derive their RNG
    /// from the same per-day seed.
    #[test]
    fn engines_agree_on_random_logs(
        days in 1u64..16,
        script in prop::collection::vec(
            (0u8..4, prop::collection::vec((any::<u16>(), any::<u16>()), 0..6)),
            0..16,
        ),
        stride in 1u32..5,
        first_day in 0u32..3,
        path_every in 1usize..4,
        seed in 0u64..4,
    ) {
        let log = build_log(days, &script);
        let cfg = MetricSeriesConfig {
            stride,
            first_day,
            path_every,
            path_sample: 8,
            clustering_sample: 16,
            workers: 2,
            seed,
        };
        let batch = run_engine(&log, &cfg, EngineKind::Batch);
        let incremental = run_engine(&log, &cfg, EngineKind::Incremental);
        prop_assert_eq!(batch, incremental);
    }
}

/// Under injected chaos (the same plan `OSN_CHAOS` parses into), both
/// engines quarantine exactly the same days with the same failure kind,
/// and the surviving tables are byte-identical.
#[test]
fn chaos_quarantines_identically_in_both_engines() {
    let script: Vec<(u8, Vec<(u16, u16)>)> = (0..14)
        .map(|d| (2, vec![(d, d + 3), (d + 1, d + 7), (0, d + 5)]))
        .collect();
    let log = build_log(14, &script);
    let cfg = MetricSeriesConfig {
        stride: 2,
        first_day: 0,
        path_sample: 8,
        clustering_sample: 16,
        ..Default::default()
    };
    // Same spec string the CLI accepts via OSN_CHAOS.
    let plan = ChaosTaskPlan::from_spec("panic@4,transient@8").unwrap();
    assert!(matches!(plan.action_for(4, 1), ChaosAction::Panic(_)));
    let policy = RunPolicy {
        chaos: Some(plan),
        ..Default::default()
    };

    let mut outcomes = Vec::new();
    for engine in [EngineKind::Batch, EngineKind::Incremental] {
        let (series, failures) = metric_series_supervised_with(&log, &cfg, &policy, engine);
        let quarantined: Vec<(u32, &'static str)> = failures
            .iter()
            .map(|f| (f.day, f.failure.kind.as_str()))
            .collect();
        outcomes.push((quarantined, series.to_table().to_csv()));
    }
    assert_eq!(outcomes[0], outcomes[1], "engines diverged under chaos");
    let (quarantined, _) = &outcomes[0];
    assert_eq!(
        quarantined,
        &vec![(4, "panicked"), (8, "transient-exhausted")],
        "chaos plan must hit the expected days"
    );
}
