//! Telemetry integration: counters and histograms recorded concurrently
//! from `try_par_map` worker threads must add up exactly, and the sampled
//! kernels record their time under global names.
//!
//! Every test takes `osn_obs::test_gate()` first: the registry is global,
//! so a test running beside another would see its counts.

use osn_graph::CsrGraph;
use osn_metrics::supervisor::{try_par_map, SupervisorConfig, TaskError};
use osn_metrics::{average_clustering, avg_path_length_sampled, effective_diameter};
use osn_stats::rng_from_seed;
use std::time::Duration;

#[test]
fn concurrent_workers_count_exactly() {
    let _gate = osn_obs::test_gate();
    osn_obs::set_enabled(true);
    let before_attempts = osn_obs::counter("supervisor.attempts").value();
    let before_ok = osn_obs::counter("supervisor.tasks_ok").value();
    let before_hist = osn_obs::histogram("supervisor.task_us").snapshot().count;
    let shared = osn_obs::counter("test.telemetry.worker_incs");
    let before_shared = shared.value();

    const TASKS: u64 = 200;
    const INCS_PER_TASK: u64 = 50;
    let cfg = SupervisorConfig {
        workers: 8,
        ..SupervisorConfig::default()
    };
    let out = try_par_map(0..TASKS, &cfg, |_, _| {
        // Hammer one shared counter from every worker thread; the final
        // value must be exact, not approximate.
        let handle = osn_obs::counter("test.telemetry.worker_incs");
        for _ in 0..INCS_PER_TASK {
            handle.inc();
        }
        Ok(())
    });
    assert!(out.iter().all(Result::is_ok));

    assert_eq!(shared.value() - before_shared, TASKS * INCS_PER_TASK);
    assert_eq!(
        osn_obs::counter("supervisor.attempts").value() - before_attempts,
        TASKS,
        "each task succeeds on its first attempt"
    );
    assert_eq!(
        osn_obs::counter("supervisor.tasks_ok").value() - before_ok,
        TASKS
    );
    let hist = osn_obs::histogram("supervisor.task_us").snapshot();
    assert_eq!(hist.count - before_hist, TASKS);
}

#[test]
fn retries_and_failures_are_counted() {
    let _gate = osn_obs::test_gate();
    osn_obs::set_enabled(true);
    let before_retries = osn_obs::counter("supervisor.retries").value();
    let before_failed = osn_obs::counter("supervisor.tasks_failed").value();
    let cfg = SupervisorConfig {
        workers: 2,
        retries: 1,
        backoff_base: Duration::from_millis(1),
        ..SupervisorConfig::default()
    };
    // Every task fails its transient budget: 2 attempts each, 1 retry.
    let out = try_par_map(0..6u64, &cfg, |_, &x| -> Result<(), TaskError> {
        Err(TaskError::Transient(format!("flaky {x}")))
    });
    assert!(out.iter().all(Result::is_err));
    assert_eq!(
        osn_obs::counter("supervisor.retries").value() - before_retries,
        6
    );
    assert_eq!(
        osn_obs::counter("supervisor.tasks_failed").value() - before_failed,
        6
    );
    // Kind-specific counter accumulated too.
    assert!(osn_obs::counter("supervisor.failed.transient-exhausted").value() >= 6);
}

#[test]
fn kernels_record_time_and_sources() {
    let _gate = osn_obs::test_gate();
    osn_obs::set_enabled(true);
    let paths = || osn_obs::histogram("kernel.paths_us").snapshot().count;
    let clustering = || osn_obs::histogram("kernel.clustering_us").snapshot().count;
    let sources = || osn_obs::counter("kernel.path_sources").value();
    let (paths_before, clustering_before, sources_before) = (paths(), clustering(), sources());

    // A 100-node ring is one component, so every requested source is drawn.
    let edges: Vec<(u32, u32)> = (0..100).map(|i| (i, (i + 1) % 100)).collect();
    let g = CsrGraph::from_edges(100, &edges);
    let mut rng = rng_from_seed(5);
    assert!(avg_path_length_sampled(&g, 70, &mut rng).is_some());
    assert!(effective_diameter(&g, 0.9, 30, &mut rng).is_some());
    average_clustering(&g, 40, &mut rng);
    // Larger than the graph: the exact average, still one kernel call.
    average_clustering(&g, 400, &mut rng);

    assert_eq!(paths() - paths_before, 2, "one record per path kernel call");
    assert_eq!(sources() - sources_before, 100);
    assert_eq!(clustering() - clustering_before, 2);
}
