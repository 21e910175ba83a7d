//! §2 — network-level analysis (Figure 1).
//!
//! Daily growth curves and the evolution of four first-order graph
//! metrics over per-day snapshots: average degree, sampled average path
//! length, average clustering coefficient, degree assortativity.

use osn_graph::{Day, EventKind, EventLog, EventLogBuilder, NodeId, Origin, Time};
use osn_metrics::engine::{day_sweep, EngineConfig, EngineKind, EngineState};
use osn_metrics::parallel::par_map;
use osn_metrics::supervisor::{
    chaos_gate, supervised_call, try_par_map_labeled, RunPolicy, TaskFailure,
};
use osn_metrics::{
    average_clustering, avg_path_length_over_component, avg_path_length_sampled,
    degree_assortativity,
};
use osn_stats::sampling::derive_seed;
use osn_stats::{rng_from_seed, Series, Table};

/// Re-stamp a two-network trace the way the paper's dataset was laid
/// out: the competitor's pre-merge history is invisible until the merge
/// day, when all of its accounts and internal edges are bulk-imported in
/// a single instant (Renren imported 5Q's databases on 2006-12-12, which
/// is why every Figure 1 metric jumps on day 386).
///
/// Competitor node/edge events with `time < merge_day` are buffered and
/// re-emitted at the first instant of the merge day, in their original
/// relative order; all other events pass through unchanged. Node ids are
/// renumbered to stay dense in (new) arrival order, so the returned log
/// is self-consistent but its ids do **not** match the input log's.
pub fn import_view(log: &EventLog, merge_day: Day) -> EventLog {
    let merge_t = Time::day_start(merge_day);
    let mut b = EventLogBuilder::with_capacity(log.num_nodes() as usize, log.num_edges() as usize);
    let mut id_map: Vec<Option<NodeId>> = vec![None; log.num_nodes() as usize];
    // Buffered competitor history: node arrivals (old ids) and edges.
    let mut pending_nodes: Vec<NodeId> = Vec::new();
    let mut pending_edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut imported = false;

    for e in log.events() {
        if !imported && e.time >= merge_t {
            // Bulk import: all competitor accounts, then their edges.
            for &old in &pending_nodes {
                let new = b.add_node(merge_t, Origin::Competitor).expect("monotone");
                id_map[old.index()] = Some(new);
            }
            for &(u, v) in &pending_edges {
                let (nu, nv) = (
                    id_map[u.index()].expect("imported"),
                    id_map[v.index()].expect("imported"),
                );
                b.add_edge(merge_t, nu, nv).expect("validated input");
            }
            imported = true;
        }
        match e.kind {
            EventKind::AddNode { node, origin } => {
                if origin == Origin::Competitor && e.time < merge_t {
                    pending_nodes.push(node);
                } else {
                    let new = b.add_node(e.time, origin).expect("monotone");
                    id_map[node.index()] = Some(new);
                }
            }
            EventKind::AddEdge { u, v } => {
                if e.time < merge_t
                    && log.origin(u) == Origin::Competitor
                    && log.origin(v) == Origin::Competitor
                {
                    pending_edges.push((u, v));
                } else {
                    let (nu, nv) = (
                        id_map[u.index()].expect("endpoint seen"),
                        id_map[v.index()].expect("endpoint seen"),
                    );
                    b.add_edge(e.time, nu, nv).expect("validated input");
                }
            }
        }
    }
    if !imported {
        // Merge day beyond the trace end: import at the tail.
        for &old in &pending_nodes {
            let t = log.end_time();
            let new = b.add_node(t, Origin::Competitor).expect("monotone");
            id_map[old.index()] = Some(new);
        }
        for &(u, v) in &pending_edges {
            let (nu, nv) = (
                id_map[u.index()].expect("imported"),
                id_map[v.index()].expect("imported"),
            );
            b.add_edge(log.end_time(), nu, nv).expect("validated input");
        }
    }
    b.build()
}

/// Figure 1(a): absolute numbers of nodes and edges added per day.
pub fn growth_series(log: &EventLog) -> Table {
    let (nodes, edges) = log.daily_counts();
    let mut t = Table::new("day");
    t.push(Series::from_points(
        "nodes_per_day",
        nodes
            .iter()
            .enumerate()
            .map(|(d, &n)| (d as f64, n as f64))
            .collect(),
    ));
    t.push(Series::from_points(
        "edges_per_day",
        edges
            .iter()
            .enumerate()
            .map(|(d, &n)| (d as f64, n as f64))
            .collect(),
    ));
    t
}

/// Figure 1(b): daily growth as a percentage of the size at the end of
/// the previous day. Days where the previous total is zero are skipped.
pub fn relative_growth(log: &EventLog) -> Table {
    let (nodes, edges) = log.daily_counts();
    let mut node_total = 0u64;
    let mut edge_total = 0u64;
    let mut node_series = Series::new("new_nodes_pct");
    let mut edge_series = Series::new("new_edges_pct");
    for d in 0..nodes.len() {
        if node_total > 0 {
            node_series.push(d as f64, 100.0 * nodes[d] as f64 / node_total as f64);
        }
        if edge_total > 0 {
            edge_series.push(d as f64, 100.0 * edges[d] as f64 / edge_total as f64);
        }
        node_total += nodes[d];
        edge_total += edges[d];
    }
    Table::new("day").with(node_series).with(edge_series)
}

/// Parameters for the Figure 1(c)–(f) metric sweep.
#[derive(Debug, Clone, Copy)]
pub struct MetricSeriesConfig {
    /// Snapshot stride in days (1 = every day, like the paper).
    pub stride: Day,
    /// First snapshot day.
    pub first_day: Day,
    /// BFS sources for sampled average path length (paper: 1000).
    pub path_sample: usize,
    /// Compute path length only on every `path_every`-th snapshot
    /// (the paper computes it every 3 days).
    pub path_every: usize,
    /// Node sample for average clustering coefficient.
    pub clustering_sample: usize,
    /// Worker threads (0 = auto).
    pub workers: usize,
    /// RNG seed for the samplers.
    pub seed: u64,
}

impl Default for MetricSeriesConfig {
    fn default() -> Self {
        MetricSeriesConfig {
            stride: 3,
            first_day: 1,
            path_sample: 300,
            path_every: 2,
            clustering_sample: 1500,
            workers: 0,
            seed: 0,
        }
    }
}

/// The Figure 1(c)–(f) output: one series per metric, x = day.
#[derive(Debug, Clone)]
pub struct MetricSeries {
    /// Figure 1(c): average node degree.
    pub avg_degree: Series,
    /// Figure 1(d): sampled average path length over the giant component.
    pub path_length: Series,
    /// Figure 1(e): average clustering coefficient.
    pub clustering: Series,
    /// Figure 1(f): degree assortativity.
    pub assortativity: Series,
}

impl MetricSeries {
    /// Bundle everything into one table (shared day axis).
    pub fn to_table(&self) -> Table {
        Table::new("day")
            .with(self.avg_degree.clone())
            .with(self.path_length.clone())
            .with(self.clustering.clone())
            .with(self.assortativity.clone())
    }
}

/// A per-day snapshot task the supervisor could not complete.
#[derive(Debug, Clone)]
pub struct DayFailure {
    /// Snapshot day the failed task was analysing.
    pub day: Day,
    /// Typed failure (kind, attempts, elapsed, payload).
    pub failure: TaskFailure,
}

/// One finished snapshot row of the Figure 1(c)–(f) sweep. The direct
/// and the checkpointed run both produce it; the checkpoint store
/// persists it keyed by day.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MetricRow {
    pub(crate) avg_degree: f64,
    pub(crate) path_length: Option<f64>,
    pub(crate) clustering: f64,
    pub(crate) assortativity: Option<f64>,
}

impl MetricSeries {
    /// The series of `rows`, given in ascending day order.
    pub(crate) fn from_rows(rows: impl IntoIterator<Item = (Day, MetricRow)>) -> MetricSeries {
        let mut out = MetricSeries {
            avg_degree: Series::new("avg_degree"),
            path_length: Series::new("avg_path_length"),
            clustering: Series::new("avg_clustering"),
            assortativity: Series::new("assortativity"),
        };
        for (day, r) in rows {
            let d = day as f64;
            out.avg_degree.push(d, r.avg_degree);
            if let Some(p) = r.path_length {
                out.path_length.push(d, p);
            }
            out.clustering.push(d, r.clustering);
            if let Some(a) = r.assortativity {
                out.assortativity.push(d, a);
            }
        }
        out
    }
}

/// The snapshot days of the sweep: every `stride` days from `first_day`
/// through the trace's last day, as `DailySnapshots` visits them.
pub(crate) fn snapshot_days(log: &EventLog, first_day: Day, stride: Day) -> Vec<Day> {
    assert!(stride > 0, "stride must be positive");
    (first_day..=log.end_day())
        .step_by(stride as usize)
        .collect()
}

/// The supervised per-day task of the sweep, on engine state already
/// advanced through `day`. `idx` is the day's position in the full
/// snapshot day list, which decides whether the path length is sampled.
///
/// Supervision is per day (panic isolation, retries, chaos injection,
/// post-hoc deadline); [`day_sweep`] handles parallelism itself, so the
/// supervisor runs inline on the sweep worker.
pub(crate) fn metric_row(
    state: &mut EngineState<'_>,
    idx: usize,
    day: Day,
    cfg: &MetricSeriesConfig,
    policy: &RunPolicy,
) -> Result<MetricRow, TaskFailure> {
    let scfg = policy.supervisor_config(1);
    supervised_call(&format!("day-{day}"), &scfg, |attempt| {
        chaos_gate(policy.chaos.as_ref(), day as u64, attempt)?;
        let mut rng = rng_from_seed(derive_seed(cfg.seed, day as u64));
        let path_length = if idx.is_multiple_of(cfg.path_every.max(1)) {
            // Giant component from the live union-find (no BFS labelling
            // pass), then the same sampled-BFS kernel the batch oracle
            // runs inside `avg_path_length_sampled`.
            let giant = state.giant_component();
            avg_path_length_over_component(state.graph(), &giant, cfg.path_sample, &mut rng)
        } else {
            None
        };
        let g = state.graph();
        Ok(MetricRow {
            avg_degree: g.average_degree(),
            path_length,
            clustering: average_clustering(g, cfg.clustering_sample, &mut rng),
            assortativity: degree_assortativity(g),
        })
    })
}

/// Batch oracle: materialise a frozen CSR per snapshot day and fan the
/// days out to the supervised parallel map. O(N+E) per snapshot; kept
/// only as the reference `crates/core/tests/engine_differential.rs`
/// compares the incremental sweep against.
fn sweep_batch(
    log: &EventLog,
    cfg: &MetricSeriesConfig,
    policy: &RunPolicy,
) -> Vec<Result<MetricRow, TaskFailure>> {
    let snaps = osn_graph::DailySnapshots::new(log, cfg.first_day, cfg.stride);
    let path_every = cfg.path_every.max(1);
    let seed = cfg.seed;
    let path_sample = cfg.path_sample;
    let clustering_sample = cfg.clustering_sample;
    let chaos = policy.chaos.as_ref();

    let scfg = policy.supervisor_config(cfg.workers);
    try_par_map_labeled(
        snaps.enumerate(),
        &scfg,
        |_, (_, snap)| format!("day-{}", snap.day),
        move |att, (idx, snap)| {
            chaos_gate(chaos, snap.day as u64, att.attempt)?;
            let g = &snap.graph;
            let mut rng = rng_from_seed(derive_seed(seed, snap.day as u64));
            let path_length = if idx % path_every == 0 {
                avg_path_length_sampled(g, path_sample, &mut rng)
            } else {
                None
            };
            Ok(MetricRow {
                avg_degree: g.average_degree(),
                path_length,
                clustering: average_clustering(g, clustering_sample, &mut rng),
                assortativity: degree_assortativity(g),
            })
        },
    )
}

/// Compute the four Figure 1(c)–(f) metrics over per-day snapshots with
/// the incremental engine: one evolving graph per shard, metric state
/// updated per edge event, no per-day CSR freeze, the day range split
/// across worker threads by [`day_sweep`].
///
/// Days whose task fails (panic, fatal error, exhausted retries, or
/// deadline overrun, per `policy`) are *quarantined*: they are absent
/// from the returned series and reported in the second tuple element so
/// callers can record them instead of silently blending a gap. Worker
/// count and supervision policy never affect the values of successful
/// days.
pub fn metric_series_supervised(
    log: &EventLog,
    cfg: &MetricSeriesConfig,
    policy: &RunPolicy,
) -> (MetricSeries, Vec<DayFailure>) {
    metric_series_supervised_with(log, cfg, policy, EngineKind::Incremental)
}

/// [`metric_series_supervised`] on an explicit snapshot engine, for the
/// differential tests: `EngineKind::Batch` runs the frozen-CSR oracle,
/// which yields the same rows and the same quarantine decisions under
/// the same chaos plan.
pub fn metric_series_supervised_with(
    log: &EventLog,
    cfg: &MetricSeriesConfig,
    policy: &RunPolicy,
    engine: EngineKind,
) -> (MetricSeries, Vec<DayFailure>) {
    let days = snapshot_days(log, cfg.first_day, cfg.stride);
    let verdicts = match engine {
        EngineKind::Batch => sweep_batch(log, cfg, policy),
        EngineKind::Incremental => {
            let ecfg = EngineConfig::builder().workers(cfg.workers).build();
            day_sweep(log, &days, &ecfg, |state, idx, day| {
                metric_row(state, idx, day, cfg, policy)
            })
        }
    };
    let mut rows = Vec::with_capacity(days.len());
    let mut failures = Vec::new();
    for (day, verdict) in days.into_iter().zip(verdicts) {
        match verdict {
            Ok(row) => rows.push((day, row)),
            Err(failure) => failures.push(DayFailure { day, failure }),
        }
    }
    (MetricSeries::from_rows(rows), failures)
}

/// Compute the four Figure 1(c)–(f) metrics over per-day snapshots,
/// fanning snapshots out to worker threads.
///
/// Infallible facade over [`metric_series_supervised`]: no retries, no
/// deadline, and any task failure is re-raised as a panic carrying the
/// failed day and original payload.
pub fn metric_series(log: &EventLog, cfg: &MetricSeriesConfig) -> MetricSeries {
    let (series, failures) = metric_series_supervised(log, cfg, &RunPolicy::default());
    if let Some(df) = failures.first() {
        panic!("metric sweep failed on day {}: {}", df.day, df.failure);
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_genstream::{TraceConfig, TraceGenerator};

    fn tiny_log() -> EventLog {
        TraceGenerator::new(TraceConfig::tiny()).generate()
    }

    #[test]
    fn import_view_defers_competitor_history() {
        let cfg = TraceConfig::tiny();
        let merge_day = cfg.merge.as_ref().unwrap().merge_day;
        let log = TraceGenerator::new(cfg).generate();
        let view = import_view(&log, merge_day);
        // Same totals, different layout.
        assert_eq!(view.num_nodes(), log.num_nodes());
        assert_eq!(view.num_edges(), log.num_edges());
        // No competitor events before the merge day in the view.
        let merge_t = osn_graph::Time::day_start(merge_day);
        for e in view.events() {
            if let EventKind::AddNode { origin, .. } = e.kind {
                if origin == Origin::PostMerge {
                    assert!(e.time >= merge_t);
                }
                if origin == Origin::Competitor {
                    assert!(e.time >= merge_t, "competitor node before merge in view");
                }
            }
        }
        // The merge day shows a bulk jump in daily node counts.
        let (nodes, _) = view.daily_counts();
        let md = merge_day as usize;
        let before = nodes[md - 5..md].iter().copied().max().unwrap_or(0);
        assert!(
            nodes[md] > before * 3,
            "no import spike: {} vs {}",
            nodes[md],
            before
        );
    }

    #[test]
    fn import_view_noop_without_competitor() {
        let mut cfg = TraceConfig::tiny();
        cfg.merge = None;
        let log = TraceGenerator::new(cfg).generate();
        let view = import_view(&log, 80);
        assert_eq!(view.num_nodes(), log.num_nodes());
        assert_eq!(view.num_edges(), log.num_edges());
        for (a, b) in view.events().iter().zip(log.events()) {
            assert_eq!(a.time, b.time);
        }
    }

    #[test]
    fn growth_series_totals_match_log() {
        let log = tiny_log();
        let t = growth_series(&log);
        let nodes: f64 = t.series[0].points.iter().map(|&(_, y)| y).sum();
        let edges: f64 = t.series[1].points.iter().map(|&(_, y)| y).sum();
        assert_eq!(nodes as u64, log.num_nodes() as u64);
        assert_eq!(edges as u64, log.num_edges());
    }

    #[test]
    fn relative_growth_is_positive_and_settles() {
        let log = tiny_log();
        let t = relative_growth(&log);
        let nodes = &t.series[0];
        assert!(!nodes.is_empty());
        assert!(nodes.points.iter().all(|&(_, y)| y >= 0.0));
        // Early relative growth exceeds late relative growth.
        let early: f64 = nodes.points.iter().take(20).map(|&(_, y)| y).sum::<f64>() / 20.0;
        let n = nodes.len();
        let late: f64 = nodes.points[n - 20..].iter().map(|&(_, y)| y).sum::<f64>() / 20.0;
        assert!(early > late, "early {early} late {late}");
    }

    #[test]
    fn metric_series_shapes() {
        let log = tiny_log();
        let cfg = MetricSeriesConfig {
            stride: 10,
            first_day: 5,
            path_sample: 50,
            path_every: 2,
            clustering_sample: 200,
            workers: 2,
            seed: 1,
        };
        let m = metric_series(&log, &cfg);
        assert!(!m.avg_degree.is_empty());
        // avg degree grows overall
        let first = m.avg_degree.points.first().unwrap().1;
        let last = m.avg_degree.last_y().unwrap();
        assert!(last > first, "degree did not grow: {first} -> {last}");
        // clustering is a valid coefficient
        assert!(m
            .clustering
            .points
            .iter()
            .all(|&(_, y)| (0.0..=1.0).contains(&y)));
        // path length sensible (small world)
        assert!(m
            .path_length
            .points
            .iter()
            .all(|&(_, y)| (1.0..20.0).contains(&y)));
        // assortativity in [-1, 1]
        assert!(m
            .assortativity
            .points
            .iter()
            .all(|&(_, y)| (-1.0..=1.0).contains(&y)));
        // path length computed on half the snapshots
        assert!(m.path_length.len() <= m.avg_degree.len() / 2 + 1);
        // table bundles four series
        assert_eq!(m.to_table().series.len(), 4);
    }

    #[test]
    fn supervised_sweep_quarantines_poisoned_day() {
        use osn_metrics::supervisor::{ChaosAction, ChaosTaskPlan};
        use osn_metrics::supervisor::{FailureKind, RunPolicy};
        let log = tiny_log();
        let cfg = MetricSeriesConfig {
            stride: 20,
            workers: 3,
            path_sample: 30,
            path_every: 1,
            clustering_sample: 100,
            ..Default::default()
        };
        let clean = metric_series(&log, &cfg);
        // Poison the third snapshot (day = first_day + 2 * stride).
        let bad_day = cfg.first_day + 2 * cfg.stride;
        let policy = RunPolicy {
            chaos: Some(ChaosTaskPlan::default().with_rule(
                bad_day as u64,
                None,
                ChaosAction::Panic("poisoned snapshot".into()),
            )),
            ..RunPolicy::default()
        };
        let (series, failures) = metric_series_supervised(&log, &cfg, &policy);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].day, bad_day);
        assert_eq!(failures[0].failure.kind, FailureKind::Panicked);
        assert_eq!(failures[0].failure.label, format!("day-{bad_day}"));
        // The quarantined day is absent; every other day is bit-identical
        // to the clean run (supervision never perturbs survivors).
        let expect: Vec<(f64, f64)> = clean
            .avg_degree
            .points
            .iter()
            .copied()
            .filter(|&(d, _)| d != bad_day as f64)
            .collect();
        assert_eq!(series.avg_degree.points, expect);
        assert!(!series
            .clustering
            .points
            .iter()
            .any(|&(d, _)| d == bad_day as f64));
    }

    #[test]
    fn deterministic() {
        let log = tiny_log();
        let cfg = MetricSeriesConfig {
            stride: 20,
            workers: 3,
            path_sample: 30,
            clustering_sample: 100,
            ..Default::default()
        };
        let a = metric_series(&log, &cfg);
        let b = metric_series(&log, &cfg);
        assert_eq!(a.avg_degree.points, b.avg_degree.points);
        assert_eq!(a.path_length.points, b.path_length.points);
        assert_eq!(a.clustering.points, b.clustering.points);
    }

    #[test]
    fn engines_are_byte_identical() {
        let log = tiny_log();
        let cfg = MetricSeriesConfig {
            stride: 15,
            first_day: 3,
            path_sample: 40,
            path_every: 2,
            clustering_sample: 120,
            workers: 3,
            seed: 9,
        };
        let policy = RunPolicy::default();
        let (batch, bf) = metric_series_supervised_with(&log, &cfg, &policy, EngineKind::Batch);
        let (inc, inf) =
            metric_series_supervised_with(&log, &cfg, &policy, EngineKind::Incremental);
        assert!(bf.is_empty() && inf.is_empty());
        // Byte-level: the rendered CSVs must match, not just be close.
        assert_eq!(batch.to_table().to_csv(), inc.to_table().to_csv());
    }

    #[test]
    fn engines_quarantine_identically_under_chaos() {
        use osn_metrics::supervisor::{ChaosAction, ChaosTaskPlan};
        let log = tiny_log();
        let cfg = MetricSeriesConfig {
            stride: 20,
            workers: 2,
            path_sample: 30,
            path_every: 1,
            clustering_sample: 100,
            ..Default::default()
        };
        let bad_day = cfg.first_day + 3 * cfg.stride;
        let policy = RunPolicy {
            chaos: Some(ChaosTaskPlan::default().with_rule(
                bad_day as u64,
                None,
                ChaosAction::Panic("poisoned snapshot".into()),
            )),
            ..RunPolicy::default()
        };
        let (batch, bf) = metric_series_supervised_with(&log, &cfg, &policy, EngineKind::Batch);
        let (inc, inf) =
            metric_series_supervised_with(&log, &cfg, &policy, EngineKind::Incremental);
        assert_eq!(bf.len(), 1);
        assert_eq!(inf.len(), 1);
        assert_eq!(bf[0].day, bad_day);
        assert_eq!(inf[0].day, bad_day);
        assert_eq!(bf[0].failure.kind, inf[0].failure.kind);
        assert_eq!(batch.to_table().to_csv(), inc.to_table().to_csv());
    }
}

/// Densification law (Leskovec et al., the paper's \[21\]): fit
/// `E(t) ∝ N(t)^a` over daily snapshots. Returns the per-day `(N, E)`
/// points and the fitted densification exponent `a` (1 = constant
/// average degree; Renren-like networks measure 1.1–1.3).
pub fn densification(log: &EventLog) -> (Series, Option<f64>) {
    let (nodes, edges) = log.daily_counts();
    let mut n_total = 0u64;
    let mut e_total = 0u64;
    let mut points = Vec::new();
    for d in 0..nodes.len() {
        n_total += nodes[d];
        e_total += edges[d];
        if n_total >= 10 && e_total >= 10 {
            points.push((n_total as f64, e_total as f64));
        }
    }
    let xs: Vec<f64> = points.iter().map(|&(x, _)| x).collect();
    let ys: Vec<f64> = points.iter().map(|&(_, y)| y).collect();
    let exponent = osn_stats::powerlaw_fit(&xs, &ys).map(|f| f.exponent);
    (Series::from_points("edges_vs_nodes", points), exponent)
}

/// Effective-diameter time series: the sampled 90th-percentile pairwise
/// hop distance over the giant component, every `stride` days from
/// `first_day`. Complements Figure 1(d) with the robust diameter the
/// graphs-over-time literature tracks.
pub fn effective_diameter_series(
    log: &EventLog,
    first_day: Day,
    stride: Day,
    sample: usize,
    workers: usize,
    seed: u64,
) -> Series {
    let snaps = osn_graph::DailySnapshots::new(log, first_day, stride);
    let rows: Vec<(Day, Option<f64>)> = par_map(snaps, workers.max(1), move |snap| {
        let mut rng = rng_from_seed(derive_seed(seed, snap.day as u64 ^ 0xd1a));
        (
            snap.day,
            osn_metrics::effective_diameter(&snap.graph, 0.9, sample, &mut rng),
        )
    });
    let mut s = Series::new("effective_diameter_90");
    for (day, v) in rows {
        if let Some(d) = v {
            s.push(day as f64, d);
        }
    }
    s
}

#[cfg(test)]
mod extended_tests {
    use super::*;
    use osn_genstream::{TraceConfig, TraceGenerator};

    #[test]
    fn densification_exponent_superlinear() {
        let log = TraceGenerator::new(TraceConfig::tiny()).generate();
        let (points, exponent) = densification(&log);
        assert!(points.len() > 50);
        let a = exponent.expect("fit");
        // densification: more than one edge per node, growing
        assert!(a > 0.9 && a < 2.0, "densification exponent {a}");
    }

    #[test]
    fn effective_diameter_series_small_world() {
        let log = TraceGenerator::new(TraceConfig::tiny()).generate();
        let s = effective_diameter_series(&log, 40, 40, 60, 2, 1);
        assert!(!s.is_empty());
        for &(_, d) in &s.points {
            assert!((1.0..12.0).contains(&d), "effective diameter {d}");
        }
    }
}
