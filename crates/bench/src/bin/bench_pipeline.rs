//! Pipeline throughput bench: generate → serialize → ingest → metric
//! snapshots, timed end to end per iteration.
//!
//! The trace is generated once and serialized once (v2, in memory);
//! each iteration then runs the hot read path — checksummed ingest and
//! a supervised metric-series pass — exactly as `osn metrics` does.
//! Per-iteration latency lands in an `osn_obs` histogram; throughput is
//! ingested events per second across the whole run. Results are one
//! JSON line in the unified bench schema (default `BENCH_pipeline.json`,
//! written atomically) so `bench_gate` can compare them against the
//! committed baseline.
//!
//! ```text
//! bench_pipeline [--iters N] [--stride D] [--out FILE]
//! ```

use osn_bench::unified_fields;
use osn_core::network::{metric_series_supervised, MetricSeriesConfig};
use osn_genstream::{TraceConfig, TraceGenerator};
use osn_graph::io::{read_log, write_log_v2};
use osn_metrics::supervisor::RunPolicy;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    iters: usize,
    stride: u32,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        iters: 5,
        stride: 40,
        out: "BENCH_pipeline.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--iters" => args.iters = value()?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--stride" => args.stride = value()?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--out" => args.out = value()?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.iters == 0 {
        return Err("--iters must be at least 1".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: bench_pipeline [--iters N] [--stride D] [--out FILE]");
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    // The iteration latency histogram is an owned instance, but record()
    // is gated on the global telemetry flag like every other sink.
    osn_obs::set_enabled(true);

    let gen_started = Instant::now();
    let log = TraceGenerator::new(TraceConfig::tiny()).generate();
    let gen_ms = gen_started.elapsed().as_millis() as u64;
    let mut bytes: Vec<u8> = Vec::new();
    write_log_v2(&log, &mut bytes).expect("serialize trace to memory");
    let events_per_iter = log.num_edges();

    let metrics_cfg = MetricSeriesConfig {
        stride: args.stride,
        path_sample: 30,
        clustering_sample: 100,
        ..Default::default()
    };
    let policy = RunPolicy::default();

    let latency = osn_obs::Histogram::new();
    let run_started = Instant::now();
    for _ in 0..args.iters {
        let iter_started = Instant::now();
        let log = read_log(std::io::Cursor::new(&bytes[..])).expect("reread serialized trace");
        // The sweep does its own replay, so the iteration is ingest +
        // sweep only.
        let (series, failures) = metric_series_supervised(&log, &metrics_cfg, &policy);
        assert!(failures.is_empty(), "bench tasks must not fail");
        assert!(series.avg_degree.last_y().is_some());
        latency.record_duration(iter_started.elapsed());
    }
    let elapsed = run_started.elapsed();

    let total_events = events_per_iter * args.iters as u64;
    let throughput = total_events as f64 / elapsed.as_secs_f64();
    let lat = latency.snapshot();
    let json = format!(
        "{{{},\"iters\":{},\"stride\":{},\"gen_ms\":{},\
         \"events_per_iter\":{},\"total_events\":{},\"elapsed_ms\":{}}}",
        unified_fields("pipeline", throughput, &lat),
        args.iters,
        args.stride,
        gen_ms,
        events_per_iter,
        total_events,
        elapsed.as_millis(),
    );
    if let Err(e) =
        osn_graph::atomicfile::write_bytes_atomic(std::path::Path::new(&args.out), json.as_bytes())
    {
        eprintln!("error: write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("{json}");
    println!(
        "pipeline bench: {} iterations over {total_events} events in {:.2?} → {throughput:.0} events/s, p99 {}us",
        args.iters,
        elapsed,
        lat.p99()
    );
    ExitCode::SUCCESS
}
