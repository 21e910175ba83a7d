//! Streaming vs snapshot metric computation: the ablation for the
//! engine's incremental triangle and wedge counters. The streaming pass
//! computes a weekly transitivity series in one sweep; the snapshot
//! approach re-counts triangles per snapshot.

use criterion::{criterion_group, criterion_main, Criterion};
use osn_genstream::{TraceConfig, TraceGenerator};
use osn_graph::{EventLog, Replayer};
use osn_metrics::clustering::transitivity;
use osn_metrics::{EngineConfig, EngineState};

fn small_log() -> EventLog {
    let mut cfg = TraceConfig::small();
    cfg.growth.final_nodes = 4_000;
    TraceGenerator::new(cfg).generate()
}

fn bench_streaming_vs_snapshots(c: &mut Criterion) {
    let log = small_log();
    let mut group = c.benchmark_group("incremental/weekly_transitivity");
    group.sample_size(10);
    let cfg = EngineConfig::builder().track_triangles(true).build();
    group.bench_function("streaming_one_pass", |b| {
        b.iter(|| {
            let mut state = EngineState::with_config(&log, &cfg);
            let mut out = Vec::new();
            let mut day = 0u32;
            while day <= log.end_day() {
                state.advance_through_day(day);
                out.push(state.transitivity());
                day += 7;
            }
            out
        })
    });
    group.bench_function("snapshot_recompute", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            let mut r = Replayer::new(&log);
            let mut day = 0u32;
            while day <= log.end_day() {
                r.advance_through_day(day);
                out.push(transitivity(&r.freeze()));
                day += 7;
            }
            out
        })
    });
    group.finish();
}

criterion_group!(benches, bench_streaming_vs_snapshots);
criterion_main!(benches);
