//! How often a checkpointed communities run rewrites `communities.ckpt`,
//! counted through telemetry. The counter is process-wide, so this test
//! has a binary of its own.

use osn_core::checkpoint::track_checkpointed;
use osn_core::communities::{track, CommunityAnalysisConfig};
use osn_genstream::{TraceConfig, TraceGenerator};

fn saves() -> u64 {
    osn_obs::counter!("checkpoint.communities.saves").value()
}

/// A run of n ≥ 100 snapshots saves its state O(log n) times — at most
/// 8·⌈log₂ n⌉, where one save per snapshot would be n — and still
/// returns what a run without a checkpoint returns.
#[test]
fn long_runs_save_the_state_logarithmically_often() {
    osn_obs::set_enabled(true);
    let log = TraceGenerator::new(TraceConfig::tiny()).generate();
    let cfg = CommunityAnalysisConfig {
        first_day: 10,
        stride: 1,
        min_size: 8,
        delta: 0.01,
        seed: 1,
    };
    let dir = std::env::temp_dir().join(format!("osn-ckpt-cadence-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let before = saves();
    let (summaries, out) = track_checkpointed(&log, &cfg, &dir).unwrap();
    let (n, saved) = (summaries.len(), saves() - before);
    assert!(n >= 100, "only {n} snapshots");
    let bound = 8 * u64::from(n.ilog2() + 1);
    assert!(
        saved >= 1 && saved <= bound,
        "{saved} saves for {n} snapshots (bound {bound})"
    );

    let (direct, direct_out) = track(&log, &cfg);
    assert_eq!(summaries.len(), direct.len());
    for (a, b) in summaries.iter().zip(&direct) {
        assert_eq!(
            (a.day, a.modularity.to_bits()),
            (b.day, b.modularity.to_bits())
        );
        assert_eq!(a.sizes, b.sizes);
    }
    assert_eq!(out.events, direct_out.events);
    assert_eq!(out.final_membership, direct_out.final_membership);

    // The run ends with a save that holds every summary, so a rerun
    // resumes past the last snapshot and observes nothing.
    let state = std::fs::read_to_string(dir.join("communities.ckpt")).unwrap();
    assert_eq!(
        state.lines().nth(1),
        Some(format!("summaries {n}").as_str())
    );
    let before = saves();
    let (again, _) = track_checkpointed(&log, &cfg, &dir).unwrap();
    assert_eq!(again.len(), n);
    assert_eq!(saves(), before);
    std::fs::remove_dir_all(&dir).unwrap();
}
