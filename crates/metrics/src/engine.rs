//! Delta-driven snapshot engine.
//!
//! The batch oracle (`osn_core::network::metric_series_supervised_with`
//! with [`EngineKind::Batch`], kept for differential tests) replays the
//! event log and **freezes a CSR snapshot per day**, paying `O(N + E)`
//! per snapshot before any metric runs. Day-over-day deltas in OSN traces
//! are tiny relative to the accumulated graph, so this module maintains
//! **one evolving graph** and per-metric incremental state instead:
//!
//! * degree histogram — `O(1)` per edge event;
//! * connected components — a live [`UnionFind`] updated per edge, so the
//!   giant component costs an `O(N α)` scan per snapshot instead of an
//!   `O(E α)` rebuild;
//! * wedge/triangle counters — one sorted-adjacency intersection per edge
//!   (optional: off unless a consumer asks, since the Figure 1 series
//!   doesn't need them), giving `O(1)` global transitivity;
//! * degree CCDF — cached, invalidated by any delta, rebuilt from the
//!   histogram on demand.
//!
//! Sampled kernels (BFS path length, clustering, assortativity) run
//! directly on the live [`DynamicGraph`] through
//! [`GraphView`](osn_graph::GraphView) — same code, same traversal order,
//! bit-identical results to the frozen-snapshot path, with the freeze
//! skipped entirely.
//!
//! [`day_sweep`] adds a parallel sweep on `parallel::pool_map`: the day range is
//! split into contiguous chunks that workers take in order, and each
//! worker keeps one [`EngineState`] that only ever moves forward, so its
//! first chunk replays the event prefix through the delta observer
//! (incremental state cannot be reconstructed any other way). The
//! parallel win is in the per-day metric work — BFS sampling,
//! clustering, assortativity — not the replay itself.

use crate::components::largest_component_of;
use crate::parallel::{default_workers, pool_map};
use osn_graph::dynamic::DeltaObserver;
use osn_graph::{
    CheckpointError, Day, DynamicGraph, EventLog, NodeId, Origin, ReplayCheckpoint, Replayer, Time,
    UnionFind,
};

/// Which snapshot engine drives a per-day metric sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Freeze a CSR snapshot per day and recompute everything on it.
    /// Slower, trivially correct — kept only as the oracle the
    /// incremental engine is differentially tested against.
    Batch,
    /// Maintain one evolving graph plus per-metric incremental state;
    /// never freezes a snapshot. The only production engine.
    #[default]
    Incremental,
}

/// Tuning knobs for [`day_sweep`].
///
/// Construct via [`EngineConfig::builder`]; the struct is
/// `#[non_exhaustive]` so new knobs can land without breaking callers.
#[derive(Debug, Clone, Copy, Default)]
#[non_exhaustive]
pub struct EngineConfig {
    /// Worker threads for the day sweep (0 = auto).
    pub workers: usize,
    /// Maintain the wedge/triangle counters while replaying. Costs one
    /// sorted-adjacency intersection per edge event; the Figure 1 series
    /// doesn't need it, so sweeps leave it off unless asked.
    pub track_triangles: bool,
}

impl EngineConfig {
    /// Start building a config from the defaults.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            cfg: EngineConfig::default(),
        }
    }
}

/// Builder for [`EngineConfig`].
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    cfg: EngineConfig,
}

impl EngineConfigBuilder {
    /// Worker threads for the day sweep (0 = auto).
    pub fn workers(mut self, workers: usize) -> Self {
        self.cfg.workers = workers;
        self
    }

    /// Maintain wedge/triangle counters while replaying.
    pub fn track_triangles(mut self, on: bool) -> Self {
        self.cfg.track_triangles = on;
        self
    }

    /// Finish building.
    pub fn build(self) -> EngineConfig {
        self.cfg
    }
}

/// Per-metric incremental state, fed by the replay's
/// [`DeltaObserver`] hook.
#[derive(Debug)]
pub struct MetricDeltas {
    /// `hist[d]` = number of nodes with degree `d`.
    degree_hist: Vec<u64>,
    /// Live connected components (sized for the whole log up front;
    /// not-yet-arrived nodes are untouched singletons).
    uf: UnionFind,
    /// Exact triangle count (only meaningful when `track_triangles`).
    triangles: u64,
    /// Σ deg·(deg−1)/2 — connected triples (ditto).
    triples: u64,
    track_triangles: bool,
    /// Cached CCDF, invalidated by any delta.
    ccdf: Option<Vec<(f64, f64)>>,
}

impl MetricDeltas {
    fn new(total_nodes: usize, track_triangles: bool) -> Self {
        MetricDeltas {
            degree_hist: vec![0; 1],
            uf: UnionFind::new(total_nodes),
            triangles: 0,
            triples: 0,
            track_triangles,
            ccdf: None,
        }
    }
}

impl DeltaObserver for MetricDeltas {
    fn node_added(&mut self, _graph: &DynamicGraph, _node: NodeId, _origin: Origin, _time: Time) {
        self.degree_hist[0] += 1;
        self.ccdf = None;
    }

    fn edge_added(&mut self, graph: &DynamicGraph, u: NodeId, v: NodeId) {
        let (du, dv) = (graph.degree(u), graph.degree(v));
        if self.track_triangles {
            // Triangles closed by this edge = |N(u) ∩ N(v)| before insert;
            // each endpoint's degree bump adds `deg` new connected triples.
            self.triangles += crate::clustering::sorted_intersection_count(
                graph.neighbors(u),
                graph.neighbors(v),
            );
            self.triples += (du + dv) as u64;
        }
        if self.degree_hist.len() <= du.max(dv) + 1 {
            self.degree_hist.resize(du.max(dv) + 2, 0);
        }
        self.degree_hist[du] -= 1;
        self.degree_hist[dv] -= 1;
        self.degree_hist[du + 1] += 1;
        self.degree_hist[dv + 1] += 1;
        self.uf.union(u.0, v.0);
        self.ccdf = None;
    }
}

/// One evolving graph plus incremental metric state over an event log —
/// the incremental engine's shard state.
#[derive(Debug)]
pub struct EngineState<'a> {
    replayer: Replayer<'a>,
    deltas: MetricDeltas,
}

impl<'a> EngineState<'a> {
    /// Fresh engine state at the beginning of `log`.
    pub fn new(log: &'a EventLog) -> Self {
        Self::with_config(log, &EngineConfig::default())
    }

    /// Fresh engine state honouring `cfg.track_triangles`.
    pub fn with_config(log: &'a EventLog, cfg: &EngineConfig) -> Self {
        EngineState {
            replayer: Replayer::new(log),
            deltas: MetricDeltas::new(log.num_nodes() as usize, cfg.track_triangles),
        }
    }

    /// Engine state seeded from a day-boundary [`ReplayCheckpoint`]
    /// (see [`day_checkpoint`]): the event prefix is replayed through the
    /// delta observer, because incremental state cannot be reconstructed
    /// from the position alone. Refuses checkpoints from another trace or
    /// not on a day boundary.
    pub fn seed(
        log: &'a EventLog,
        cp: &ReplayCheckpoint,
        cfg: &EngineConfig,
    ) -> Result<Self, CheckpointError> {
        if cp.fingerprint != log.fingerprint() {
            return Err(CheckpointError::FingerprintMismatch {
                recorded: cp.fingerprint,
                actual: log.fingerprint(),
            });
        }
        let mut state = Self::with_config(log, cfg);
        state.advance_through_day(cp.day);
        if state.replayer.position() != cp.pos {
            return Err(CheckpointError::Malformed(format!(
                "checkpoint pos {} is not the day-{} boundary (expected {})",
                cp.pos,
                cp.day,
                state.replayer.position()
            )));
        }
        Ok(state)
    }

    /// Apply all events up to and including `day`, updating every delta.
    pub fn advance_through_day(&mut self, day: Day) -> usize {
        self.replayer
            .advance_through_day_with(day, &mut self.deltas)
    }

    /// The live graph as of the last applied event.
    pub fn graph(&self) -> &DynamicGraph {
        self.replayer.graph()
    }

    /// Node ids of the largest connected component from the live
    /// union-find — `O(N α)` per call, no per-day rebuild. Bit-identical
    /// to [`crate::components::largest_component`] on a frozen snapshot
    /// of the same instant (the tie-break depends only on the partition).
    pub fn giant_component(&mut self) -> Vec<u32> {
        let n = self.graph().num_nodes();
        largest_component_of(&mut self.deltas.uf, n)
    }

    /// `hist[d]` = number of nodes with current degree `d`.
    pub fn degree_histogram(&self) -> &[u64] {
        &self.deltas.degree_hist
    }

    /// Complementary CDF of the degree distribution, `(d, P(deg ≥ d))`
    /// for every occurring degree `d ≥ 1` — same points as
    /// [`crate::degree::degree_ccdf`] on a frozen snapshot. Cached until
    /// the next delta.
    pub fn degree_ccdf(&mut self) -> &[(f64, f64)] {
        if self.deltas.ccdf.is_none() {
            osn_obs::counter!("engine.ccdf_rebuilds").inc();
            self.deltas.ccdf = Some(ccdf_from_histogram(&self.deltas.degree_hist));
        }
        self.deltas.ccdf.as_deref().unwrap_or(&[])
    }

    /// Exact triangle count.
    ///
    /// # Panics
    /// Panics unless the state was built with `track_triangles`.
    pub fn triangles(&self) -> u64 {
        assert!(
            self.deltas.track_triangles,
            "engine state was built without track_triangles"
        );
        self.deltas.triangles
    }

    /// Global transitivity `3△ / triples` in `O(1)` (0 when no triples).
    ///
    /// # Panics
    /// Panics unless the state was built with `track_triangles`.
    pub fn transitivity(&self) -> f64 {
        assert!(
            self.deltas.track_triangles,
            "engine state was built without track_triangles"
        );
        if self.deltas.triples == 0 {
            0.0
        } else {
            3.0 * self.deltas.triangles as f64 / self.deltas.triples as f64
        }
    }
}

fn ccdf_from_histogram(hist: &[u64]) -> Vec<(f64, f64)> {
    let n: u64 = hist.iter().sum();
    if n == 0 {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut at_least = n;
    for (d, &count) in hist.iter().enumerate() {
        if count > 0 && d > 0 {
            out.push((d as f64, at_least as f64 / n as f64));
        }
        at_least -= count;
    }
    out
}

/// The [`ReplayCheckpoint`] at the end of `day`: position of the first
/// event past the day boundary, from which [`EngineState::seed`] builds
/// engine state.
pub fn day_checkpoint(log: &EventLog, day: Day) -> ReplayCheckpoint {
    let boundary = Time::day_end(day);
    let pos = log.events().partition_point(|e| e.time < boundary);
    ReplayCheckpoint {
        pos,
        day,
        fingerprint: log.fingerprint(),
    }
}

/// Parallel incremental day-sweep.
///
/// Runs `f(state, index, day)` for every day in `days` (which must be
/// ascending), with the engine state already advanced through that day.
/// Results come back in `days` order.
///
/// With one worker the sweep runs inline on a single shard. With more,
/// the day list is split into contiguous chunks of about
/// `days / (4 × workers)` days that the pool's workers take in
/// order; each worker owns one shard ([`EngineState`]), which only moves
/// forward, so the expensive per-day kernels (BFS sampling, clustering,
/// assortativity) run in parallel across shards.
///
/// `f` is responsible for its own supervision (the metric pipelines wrap
/// it in `supervised_call` to quarantine failed days); a panic escaping
/// `f` is re-raised by the sweep once the other workers finish.
pub fn day_sweep<'a, T, F>(log: &'a EventLog, days: &[Day], cfg: &EngineConfig, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut EngineState<'a>, usize, Day) -> T + Sync,
{
    debug_assert!(days.windows(2).all(|w| w[0] < w[1]), "days must ascend");
    let _sweep = osn_obs::span!("engine.sweep");
    osn_obs::counter!("engine.days").add(days.len() as u64);
    let workers = match cfg.workers {
        0 => default_workers(),
        n => n,
    };
    let chunk_days = match workers {
        0 | 1 => days.len(),
        n => days.len().div_ceil(n * 4),
    }
    .max(1);
    let chunks = days.chunks(chunk_days);
    osn_obs::counter!("engine.chunks").add(chunks.len() as u64);
    let per_chunk = pool_map(
        chunks,
        workers,
        || EngineState::with_config(log, cfg),
        |state, chunk_index, chunk| {
            let base = chunk_index * chunk_days;
            (chunk.iter().enumerate())
                .map(|(off, &day)| {
                    state.advance_through_day(day);
                    f(state, base + off, day)
                })
                .collect::<Vec<T>>()
        },
    );
    per_chunk.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::transitivity;
    use crate::components::largest_component;
    use crate::degree::{degree_ccdf, degree_distribution};
    use osn_graph::{EventLogBuilder, GraphView};

    /// A small multi-day log: a growing ring plus chords, two islands.
    fn multi_day_log() -> EventLog {
        let mut b = EventLogBuilder::new();
        let mut nodes = Vec::new();
        for d in 0..12u64 {
            for k in 0..3 {
                let n = b
                    .add_node(Time::from_days(d).plus_seconds(k), Origin::Core)
                    .unwrap();
                nodes.push(n);
            }
            let t = Time::from_days(d).plus_seconds(100);
            let n = nodes.len();
            // ring-ish growth with chords; leave the last island alone
            if n >= 6 {
                b.add_edge(t, nodes[n - 1], nodes[n - 4]).unwrap();
                b.add_edge(t, nodes[n - 2], nodes[n - 5]).unwrap();
                if d % 2 == 0 {
                    b.add_edge(t, nodes[n - 1], nodes[n - 5]).unwrap();
                }
                if d % 3 == 0 {
                    b.add_edge(t, nodes[0], nodes[n - 3]).unwrap();
                }
            }
        }
        b.build()
    }

    #[test]
    fn deltas_match_batch_on_every_day() {
        let log = multi_day_log();
        let cfg = EngineConfig::builder().track_triangles(true).build();
        let mut state = EngineState::with_config(&log, &cfg);
        for day in 0..=log.end_day() {
            state.advance_through_day(day);
            let frozen = state.graph().freeze();
            // degree histogram vs batch distribution
            let batch_dist = degree_distribution(&frozen);
            let hist = state.degree_histogram();
            assert_eq!(&hist[..batch_dist.len()], &batch_dist[..], "day {day}");
            assert!(hist[batch_dist.len()..].iter().all(|&c| c == 0));
            // cached CCDF vs batch
            assert_eq!(state.degree_ccdf(), degree_ccdf(&frozen), "day {day}");
            // giant component via live union-find vs batch rebuild
            assert_eq!(
                state.giant_component(),
                largest_component(&frozen),
                "day {day}"
            );
            // triangles and transitivity from the counters vs batch
            assert_eq!(state.triangles(), batch_triangles(&frozen), "day {day}");
            assert!(
                (state.transitivity() - transitivity(&frozen)).abs() < 1e-12,
                "day {day}"
            );
        }
    }

    /// Triangles of a frozen snapshot, each counted once.
    fn batch_triangles(g: &osn_graph::CsrGraph) -> u64 {
        let mut t3 = 0;
        for u in 0..g.num_nodes() as u32 {
            let nb = g.neighbors(u);
            for (i, &a) in nb.iter().enumerate() {
                t3 += crate::clustering::sorted_intersection_count(g.neighbors(a), &nb[i + 1..]);
            }
        }
        t3 / 3
    }

    /// `n` nodes at time 0, then one edge per `(day, u, v)`.
    fn triangle_log(n: u32, edges: impl IntoIterator<Item = (u64, u32, u32)>) -> EventLog {
        let mut b = EventLogBuilder::new();
        for _ in 0..n {
            b.add_node(Time(0), Origin::Core).unwrap();
        }
        for (day, u, v) in edges {
            b.add_edge(Time::from_days(day), NodeId(u), NodeId(v))
                .unwrap();
        }
        b.build()
    }

    fn triangle_state(log: &EventLog) -> EngineState<'_> {
        EngineState::with_config(log, &EngineConfig::builder().track_triangles(true).build())
    }

    #[test]
    fn triangle_counter_builds_k4_edge_by_edge() {
        // One edge per day, closing 0, 0, 1, 1, 2 and 4 triangles in turn.
        let edges = [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3)];
        let log = triangle_log(4, (0..).zip(edges).map(|(day, (u, v))| (day, u, v)));
        let mut state = triangle_state(&log);
        for (day, want) in [0, 0, 1, 1, 2, 4].into_iter().enumerate() {
            state.advance_through_day(day as Day);
            assert_eq!(state.triangles(), want, "day {day}");
        }
        assert_eq!(state.transitivity(), 1.0, "K4 is fully transitive");
    }

    #[test]
    fn triangle_counter_matches_batch_on_random_growth() {
        use rand::Rng;
        let mut rng = osn_stats::rng_from_seed(42);
        let mut seen = std::collections::HashSet::new();
        let edges = (0..900u64)
            .map(|step| (step / 120, rng.gen_range(0..120), rng.gen_range(0..120)))
            .filter(|&(_, u, v): &(u64, u32, u32)| u != v && seen.insert((u.min(v), u.max(v))));
        let log = triangle_log(120, edges);
        let mut state = triangle_state(&log);
        for day in 0..=log.end_day() {
            state.advance_through_day(day);
            let g = state.graph().freeze();
            assert_eq!(state.triangles(), batch_triangles(&g), "day {day}");
            assert!((state.transitivity() - transitivity(&g)).abs() < 1e-9);
        }
        assert!(state.triangles() > 100);
    }

    #[test]
    fn ccdf_cache_survives_quiet_days_and_invalidates_on_deltas() {
        let log = multi_day_log();
        let mut state = EngineState::new(&log);
        state.advance_through_day(3);
        let first = state.degree_ccdf().to_vec();
        assert_eq!(state.degree_ccdf(), &first[..], "cached read is stable");
        state.advance_through_day(7);
        assert_ne!(state.degree_ccdf(), &first[..], "deltas invalidate");
    }

    #[test]
    fn seed_matches_fresh_advance() {
        let log = multi_day_log();
        let cfg = EngineConfig::default();
        let cp = day_checkpoint(&log, 5);
        let mut seeded = EngineState::seed(&log, &cp, &cfg).unwrap();
        let mut fresh = EngineState::new(&log);
        fresh.advance_through_day(5);
        assert_eq!(seeded.degree_histogram(), fresh.degree_histogram());
        assert_eq!(seeded.giant_component(), fresh.giant_component());
        // Both continue in lockstep.
        seeded.advance_through_day(9);
        fresh.advance_through_day(9);
        assert_eq!(seeded.degree_histogram(), fresh.degree_histogram());
        assert_eq!(seeded.giant_component(), fresh.giant_component());
    }

    #[test]
    fn seed_rejects_wrong_trace() {
        let log = multi_day_log();
        let mut other_b = EventLogBuilder::new();
        other_b.add_node(Time(0), Origin::Core).unwrap();
        let other = other_b.build();
        let cp = day_checkpoint(&log, 2);
        assert!(matches!(
            EngineState::seed(&other, &cp, &EngineConfig::default()),
            Err(CheckpointError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn day_sweep_parallel_matches_sequential() {
        let log = multi_day_log();
        let days: Vec<Day> = (0..=log.end_day()).collect();
        let probe = |state: &mut EngineState, idx: usize, day: Day| {
            let g = state.graph();
            (
                idx,
                day,
                GraphView::num_nodes(g),
                g.num_edges(),
                state.giant_component().len(),
            )
        };
        let sequential = day_sweep(&log, &days, &EngineConfig::default(), probe);
        let parallel = day_sweep(
            &log,
            &days,
            &EngineConfig::builder().workers(3).build(),
            probe,
        );
        assert_eq!(sequential, parallel);
        assert_eq!(sequential.len(), days.len());
        for (idx, (i, day, nodes, ..)) in sequential.iter().enumerate() {
            assert_eq!(*i, idx);
            assert_eq!(*day, days[idx]);
            assert!(*nodes > 0);
        }
    }
}
