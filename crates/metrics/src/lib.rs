//! # osn-metrics — whole-graph metrics over snapshots
//!
//! Implements every first-order graph metric the paper monitors over the
//! lifetime of the network (Figure 1) plus the distance machinery used by
//! the merge analysis (Figure 9c):
//!
//! * [`degree`] — average degree and degree distributions.
//! * [`components`] — connected components via union-find, largest
//!   component extraction.
//! * [`clustering`] — exact and sampled average clustering coefficient.
//! * [`paths`] — BFS, a bit-parallel multi-source BFS (64 sources per
//!   batch) giving the hop-distance histogram, sampled average
//!   shortest-path length (the paper samples 1000 nodes of the giant
//!   component), and early-exit distance to a node group.
//! * [`diameter`] — sampled effective (90th-percentile) diameter, the
//!   robust diameter of the graphs-over-time literature.
//! * [`kcore`] — linear-time k-core decomposition (Batagelj–Zaversnik).
//! * [`engine`] — the delta-driven snapshot engine: one evolving graph
//!   with per-metric incremental state (degree histogram, live
//!   union-find components, wedge/triangle counters, cached CCDF) and a
//!   parallel day-sweep; byte-identical to the batch path and the
//!   default under `osn metrics`.
//! * [`rewire`] — degree-preserving double-edge-swap rewiring, the
//!   configuration-model null for modularity-significance claims.
//! * [`assortativity`] — degree assortativity as the Pearson correlation
//!   over edge-endpoint degrees.
//! * [`parallel`] — the one worker pool (`pool_map`: bounded memory,
//!   input order, per-worker state, `std::thread::scope`) that the day
//!   sweep and the supervised map both run on, plus the infallible
//!   [`par_map`].
//! * [`supervisor`] — supervised task execution: per-task panic
//!   isolation (`catch_unwind` → typed [`TaskFailure`]), transient-error
//!   retries with capped backoff, soft deadlines checked as each attempt
//!   returns (a late task is quarantined while the run continues), and
//!   the deterministic [`ChaosTaskPlan`] fault injection.

pub mod assortativity;
pub mod clustering;
pub mod components;
pub mod degree;
pub mod diameter;
pub mod engine;
pub mod kcore;
pub mod parallel;
pub mod paths;
pub mod rewire;
pub mod supervisor;

pub use assortativity::degree_assortativity;
pub use clustering::{average_clustering, local_clustering};
pub use components::{component_sizes, largest_component};
pub use degree::{average_degree, degree_ccdf, degree_distribution};
pub use diameter::effective_diameter;
pub use engine::{day_sweep, EngineConfig, EngineKind, EngineState};
pub use kcore::{core_numbers, core_profile, degeneracy};
pub use parallel::par_map;
pub use paths::{
    avg_path_length_over_component, avg_path_length_sampled, bfs_distances, distance_to_group,
};
pub use rewire::degree_preserving_shuffle;
pub use supervisor::{
    chaos_gate, supervised_call, try_par_map, try_par_map_labeled, ChaosAction, ChaosRates,
    ChaosTaskPlan, FailureKind, RunPolicy, SupervisorConfig, TaskAttempt, TaskError, TaskFailure,
    TaskResult,
};
