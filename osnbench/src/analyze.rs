//! `analyze`: what `osn metrics` and `osn communities` do, from v2 trace
//! bytes in memory to rendered CSVs, on the paper configuration grown to
//! 12K nodes.
//!
//! Kernel-bound: BFS sampling dominates the metric sweep and Louvain the
//! community tracking, while parsing and replay are a small share, so an
//! ingest gain should predict little change here.

use crate::reference::Reference;
use crate::stats::{median, Samples};
use crate::trace::Recorder;
use crate::{digest, json_opt, Outcome};
use osn_community::{CommunityTracker, LouvainConfig, TrackerConfig};
use osn_core::communities::{track, CommunityAnalysisConfig};
use osn_core::network::{
    growth_series, metric_series_supervised_with, MetricSeries, MetricSeriesConfig,
};
use osn_core::query::communities_table;
use osn_genstream::{TraceConfig, TraceGenerator};
use osn_graph::io::read_log;
use osn_graph::{Day, EventLog, Replayer};
use osn_metrics::assortativity::degree_assortativity;
use osn_metrics::clustering::average_clustering;
use osn_metrics::engine::{day_checkpoint, EngineConfig, EngineKind, EngineState};
use osn_metrics::paths::avg_path_length_over_component;
use osn_metrics::supervisor::RunPolicy;
use osn_stats::sampling::{derive_seed, rng_from_seed};
use osn_stats::Series;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Snapshot stride of both analyses: 35 days instead of the CLI's 7, so
/// that one pass takes about a second; every snapshot still runs every
/// kernel.
const STRIDE: Day = 35;

/// The paper configuration (771 days, the merge, the growth dips) grown
/// to 12K final nodes: ≈12K nodes, 177K edges, 3.9 MB of v2 text. A pass
/// takes about a second, so a run holds enough passes for a steady
/// median (see `BENCHMARK.md`).
pub fn trace(seed: u64) -> TraceConfig {
    let mut trace = TraceConfig {
        seed,
        ..TraceConfig::default_paper()
    };
    trace.growth.final_nodes = 12_000;
    trace
}

fn metrics_config() -> MetricSeriesConfig {
    MetricSeriesConfig {
        stride: STRIDE,
        ..MetricSeriesConfig::default()
    }
}

fn communities_config() -> CommunityAnalysisConfig {
    CommunityAnalysisConfig {
        stride: STRIDE,
        ..CommunityAnalysisConfig::default()
    }
}

/// `osn generate`: the trace as v2 bytes.
fn setup(trace: &TraceConfig) -> (EventLog, Vec<u8>) {
    let log = TraceGenerator::new(trace.clone()).generate();
    let mut bytes = Vec::new();
    osn_graph::io::write_log_v2(&log, &mut bytes).expect("serialise to memory");
    (log, bytes)
}

/// What one pass produced.
struct Pass {
    metrics_s: f64,
    communities_s: f64,
    digest: u64,
    metric_days: usize,
    community_days: usize,
}

/// One `osn metrics` + `osn communities` pass through the public entry
/// points the CLI calls.
fn pass(bytes: &[u8]) -> Result<Pass, String> {
    let t0 = Instant::now();
    let log = read_log(bytes).map_err(|e| format!("read: {e}"))?;
    let (m, failures) = metric_series_supervised_with(
        &log,
        &metrics_config(),
        &RunPolicy::default(),
        EngineKind::default(),
    );
    if let Some(f) = failures.first() {
        return Err(format!("day {} quarantined: {}", f.day, f.failure));
    }
    let growth_csv = growth_series(&log).to_csv();
    let metrics_csv = m.to_table().to_csv();
    let t1 = Instant::now();
    let log = read_log(bytes).map_err(|e| format!("read: {e}"))?;
    let (summaries, _) = track(&log, &communities_config());
    let communities_csv = communities_table(&summaries).to_csv();
    let t2 = Instant::now();
    Ok(Pass {
        metrics_s: (t1 - t0).as_secs_f64(),
        communities_s: (t2 - t1).as_secs_f64(),
        digest: digest([
            growth_csv.as_bytes(),
            metrics_csv.as_bytes(),
            communities_csv.as_bytes(),
        ]),
        metric_days: m.avg_degree.len(),
        community_days: summaries.len(),
    })
}

/// One metric row, as the incremental sweep computes it.
struct Row {
    day: Day,
    avg_degree: f64,
    path_length: Option<f64>,
    clustering: f64,
    assortativity: Option<f64>,
}

/// The per-day kernels of the incremental sweep, each in its own span.
fn kernels(
    state: &mut EngineState<'_>,
    idx: usize,
    day: Day,
    mcfg: &MetricSeriesConfig,
    rec: &Recorder,
    parent: Option<u64>,
    sources: &AtomicUsize,
) -> Row {
    let req = day as u64;
    let mut rng = rng_from_seed(derive_seed(mcfg.seed, day as u64));
    let path_length = if idx.is_multiple_of(mcfg.path_every.max(1)) {
        let giant = rec.time("metrics.components.giant", parent, req, || {
            state.giant_component()
        });
        if giant.len() >= 2 {
            sources.fetch_add(mcfg.path_sample.min(giant.len()), Ordering::Relaxed);
        }
        rec.time("metrics.paths.bfs", parent, req, || {
            avg_path_length_over_component(state.graph(), &giant, mcfg.path_sample, &mut rng)
        })
    } else {
        None
    };
    let g = state.graph();
    let clustering = rec.time("metrics.clustering.sample", parent, req, || {
        average_clustering(g, mcfg.clustering_sample, &mut rng)
    });
    let assortativity = rec.time("metrics.assortativity", parent, req, || {
        degree_assortativity(g)
    });
    Row {
        day,
        avg_degree: g.average_degree(),
        path_length,
        clustering,
        assortativity,
    }
}

/// The incremental day sweep re-composed from `EngineState`: the same
/// contiguous chunks claimed from a shared cursor, one shard per worker
/// seeded at its first chunk's boundary, with spans around the replay
/// and every kernel.
fn sweep(
    log: &EventLog,
    days: &[Day],
    mcfg: &MetricSeriesConfig,
    rec: &Recorder,
    parent: Option<u64>,
    sources: &AtomicUsize,
) -> Vec<Row> {
    let workers = osn_metrics::parallel::default_workers();
    let ecfg = EngineConfig::builder().workers(workers).build();
    let chunk_days = if workers <= 1 {
        days.len().max(1)
    } else {
        days.len().div_ceil(workers * 4).max(1)
    };
    let chunks: Vec<(usize, &[Day])> = days
        .chunks(chunk_days)
        .enumerate()
        .map(|(i, c)| (i * chunk_days, c))
        .collect();
    let next = AtomicUsize::new(0);
    let rows: Mutex<Vec<Option<Row>>> = Mutex::new((0..days.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers.min(chunks.len()) {
            scope.spawn(|| {
                let mut shard: Option<EngineState<'_>> = None;
                while let Some(&(base, chunk)) = chunks.get(next.fetch_add(1, Ordering::SeqCst)) {
                    let state =
                        shard.get_or_insert_with(|| {
                            rec.time("metrics.engine.replay", parent, chunk[0] as u64, || {
                                match chunk[0].checked_sub(1) {
                                    None => EngineState::with_config(log, &ecfg),
                                    Some(prev) => {
                                        EngineState::seed(log, &day_checkpoint(log, prev), &ecfg)
                                            .expect("seed from the log's own checkpoint")
                                    }
                                }
                            })
                        });
                    let mut produced = Vec::with_capacity(chunk.len());
                    for (off, &day) in chunk.iter().enumerate() {
                        rec.time("metrics.engine.replay", parent, day as u64, || {
                            state.advance_through_day(day)
                        });
                        produced.push(kernels(state, base + off, day, mcfg, rec, parent, sources));
                    }
                    let mut slots = rows.lock().expect("a sweep worker panicked");
                    for (off, row) in produced.into_iter().enumerate() {
                        slots[base + off] = Some(row);
                    }
                }
            });
        }
    });
    rows.into_inner()
        .expect("a sweep worker panicked")
        .into_iter()
        .map(|r| r.expect("every day produced"))
        .collect()
}

/// The pass re-composed from the layers' public calls, as
/// `metric_series_supervised_with` and `track` compose them, with spans.
/// Returns the same digest as [`pass`].
fn traced_pass(bytes: &[u8], rec: &Recorder, sources: &AtomicUsize) -> Result<u64, String> {
    let mcfg = metrics_config();
    let (growth_csv, metrics_csv) = {
        let root = rec.enter("analyze.metrics", None, 0);
        let log = rec
            .time("graph.io.read", root.id(), 0, || read_log(bytes))
            .map_err(|e| format!("read: {e}"))?;
        let days: Vec<Day> = (mcfg.first_day..=log.end_day())
            .step_by(mcfg.stride as usize)
            .collect();
        let mut m = MetricSeries {
            avg_degree: Series::new("avg_degree"),
            path_length: Series::new("avg_path_length"),
            clustering: Series::new("avg_clustering"),
            assortativity: Series::new("assortativity"),
        };
        for r in sweep(&log, &days, &mcfg, rec, root.id(), sources) {
            let d = r.day as f64;
            m.avg_degree.push(d, r.avg_degree);
            if let Some(p) = r.path_length {
                m.path_length.push(d, p);
            }
            m.clustering.push(d, r.clustering);
            if let Some(a) = r.assortativity {
                m.assortativity.push(d, a);
            }
        }
        rec.time("stats.table.render", root.id(), 0, || {
            (growth_series(&log).to_csv(), m.to_table().to_csv())
        })
    };
    let communities_csv = {
        let root = rec.enter("analyze.communities", None, 0);
        let log = rec
            .time("graph.io.read", root.id(), 0, || read_log(bytes))
            .map_err(|e| format!("read: {e}"))?;
        let ccfg = communities_config();
        let mut tracker = CommunityTracker::new(TrackerConfig {
            min_size: ccfg.min_size,
            louvain: LouvainConfig {
                delta: ccfg.delta,
                seed: ccfg.seed,
                ..LouvainConfig::default()
            },
        });
        let mut replayer = Replayer::new(&log);
        let mut summaries = Vec::new();
        let mut day = ccfg.first_day;
        while day <= log.end_day() {
            let req = day as u64;
            rec.time("graph.snapshots.replay", root.id(), req, || {
                replayer.advance_through_day(day)
            });
            let g = rec.time("graph.snapshots.freeze", root.id(), req, || {
                replayer.freeze()
            });
            summaries.push(rec.time("community.tracker.observe", root.id(), req, || {
                tracker.observe(day, &g)
            }));
            day += ccfg.stride;
        }
        rec.time("stats.table.render", root.id(), 0, || {
            communities_table(&summaries).to_csv()
        })
    };
    Ok(digest([
        growth_csv.as_bytes(),
        metrics_csv.as_bytes(),
        communities_csv.as_bytes(),
    ]))
}

/// Run the workload on `trace` for `seconds`; `traced` selects the
/// per-layer run.
pub fn run(trace: &TraceConfig, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    if traced {
        let (_, bytes) = setup(trace);
        let t0 = Instant::now();
        let plain = pass(&bytes);
        let untraced_s = t0.elapsed().as_secs_f64();
        let rec = Recorder::new(true);
        let sources = AtomicUsize::new(0);
        let t1 = Instant::now();
        let replica = traced_pass(&bytes, &rec, &sources);
        let traced_s = t1.elapsed().as_secs_f64();
        out.op(plain.is_ok());
        out.op(replica.is_ok());
        match (plain, replica) {
            (Ok(p), Ok(d)) => {
                if p.digest != d {
                    out.problem(format!(
                        "traced re-composition digest {d:016x} != untraced {:016x}",
                        p.digest
                    ));
                }
                out.digest = Some(p.digest);
            }
            (Err(e), _) | (_, Err(e)) => out.problem(e),
        }
        out.set("trace_overhead", traced_s / untraced_s);
        out.set(
            "metrics.paths.sources",
            sources.load(Ordering::Relaxed) as f64,
        );
        out.finish_trace(&rec, &format!("analyze-seed{}", trace.seed));
        return out;
    }

    let mut reference = Reference::new();
    let ((log, bytes), setup_times) =
        crate::repeat_setup(false, &mut reference, |_| setup(trace), drop);
    let (passes, error) = crate::repeat_passes(seconds, || {
        let p = pass(&bytes)?;
        Ok((p, reference.time_ms()))
    });
    passes.iter().for_each(|_| out.op(true));
    if let Some(e) = error {
        out.op(false);
        out.problem(e);
    }
    if let Some((first, _)) = passes.first() {
        if passes.iter().any(|(p, _)| p.digest != first.digest) {
            out.problem("passes over the same trace produced different CSVs");
        }
        out.digest = Some(first.digest);
    }
    // The warm-up pass is checked but not timed.
    let timed = passes.get(1..).unwrap_or_default();
    let scaled = |f: fn(&Pass) -> f64| {
        Samples::new(
            timed
                .iter()
                .map(|(p, ref_ms)| Reference::scale(f(p), *ref_ms))
                .collect(),
        )
    };
    let pass_s = scaled(|p| p.metrics_s + p.communities_s);
    let days = passes
        .first()
        .map_or(0, |(p, _)| p.metric_days + p.community_days);
    out.set(
        "setup_s",
        median(&setup_times).expect("at least one set-up"),
    );
    if let Some(pass_s) = pass_s.median() {
        out.set("latency_ms", pass_s * 1e3);
        out.set("rate_per_s", days as f64 / pass_s);
    }
    out.detail("passes", pass_s.len());
    out.detail("pass_p90_s", pass_s.percentile_json(90.0));
    out.detail(
        "raw_pass_s",
        json_opt(median(
            &timed
                .iter()
                .map(|(p, _)| p.metrics_s + p.communities_s)
                .collect::<Vec<_>>(),
        )),
    );
    out.detail(
        "reference_ms",
        json_opt(median(&timed.iter().map(|(_, r)| *r).collect::<Vec<_>>())),
    );
    out.detail("metrics_s", json_opt(scaled(|p| p.metrics_s).median()));
    out.detail(
        "communities_s",
        json_opt(scaled(|p| p.communities_s).median()),
    );
    out.detail("snapshot_days", days);
    out.detail("nodes", log.num_nodes());
    out.detail("edges", log.num_edges());
    out.detail("trace_mb", bytes.len() as f64 / 1e6);
    out.detail("stride", STRIDE);
    out
}
