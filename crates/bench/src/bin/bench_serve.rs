//! Serving-plane throughput bench for the `osn serve` daemon.
//!
//! Starts the snapshot query server in-process on an ephemeral port,
//! floods it from a pool of closed-loop HTTP clients, and reports
//! requests/sec plus the shed rate (the fraction of requests answered
//! with a load-shedding 503). The numbers land in a single-line JSON
//! file (default `BENCH_serve.json`, written atomically) so CI can
//! archive them per commit.
//!
//! ```text
//! bench_serve [--clients N] [--requests N] [--workers N] [--shards N]
//!             [--queue-depth N] [--connection-close] [--gzip]
//!             [--ingest-rate R] [--out FILE] [--telemetry-out FILE]
//! ```
//!
//! Clients speak HTTP/1.1 keep-alive by default — one connection per
//! client thread, reused for every request, reconnecting when the
//! server closes it (shed, cull). `--connection-close` restores the
//! old one-connection-per-request flood for comparison. `--gzip` adds
//! `Accept-Encoding: gzip` to every request and decompresses (and
//! validates) each gzip-encoded answer client-side, so the measured
//! latency includes the decode the real consumer would pay. `--shards`
//! sets the server's shard count, one `poll(2)` loop each (0 = auto), and
//! `--telemetry-out FILE` snapshots the whole osn-obs registry —
//! including the per-shard `http.shard.*` queue/shed series — after
//! the flood, for CI to archive next to the bench JSON.
//!
//! Both numbers matter: requests/sec says how fast the materialised
//! answers come off the wire, and the shed rate says how the daemon
//! behaves when the closed-loop clients outpace the worker pool (sheds
//! are counted as correct, fast answers — not errors). Any hard error
//! or an unclean drain fails the bench.
//!
//! With `--ingest-rate R` the bench switches to the **ingest-vs-query
//! interference** mode (bench name `serve_ingest`): instead of
//! pre-materialising, a writer thread appends the trace to a temp file
//! in `R` paced slices per second while the live-ingest head
//! (`osn_core::live`) tails it, and the same client flood runs against
//! the growing head. The JSON then adds the ingest side of the
//! interference: `ingest_lag_p50_ms`/`ingest_lag_p99_ms` (sampled
//! snapshot staleness while the writer is active — the bounded-staleness
//! number queries actually observe) next to the unified query
//! `p50_us`/`p99_us`. Report-only: write it to its own `--out` file so
//! the regression gate keeps judging the steady-state numbers.
//!
//! With `--write-rate R` the bench switches to the **write-plane
//! interference** mode (bench name `serve_write`): the server starts
//! with `POST /v1/events` enabled over a temp WAL, a writer client
//! streams the generated trace through the write plane in paced,
//! idempotency-keyed batches at `R` batches per second (re-sending
//! every eighth key to exercise dedup), and the read flood runs against
//! the live head fed by those accepted writes. The JSON adds the write
//! side: accepted/duplicate/shed batch counts, write `p50/p99`, and the
//! WAL's group-commit fsync count. Report-only, like `--ingest-rate`.

use osn_core::communities::CommunityAnalysisConfig;
use osn_core::live::{run_follow, IngestHealth, LiveHeadConfig, LiveQuery};
use osn_core::network::MetricSeriesConfig;
use osn_core::query::SnapshotQuery;
use osn_genstream::{TraceConfig, TraceGenerator};
use osn_graph::gzip::gzip_decompress;
use osn_graph::io::RecoveryPolicy;
use osn_graph::testutil::{http_get, HttpClient};
use osn_server::{Server, ServerConfig};
use std::io::Write;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    clients: usize,
    requests: usize,
    workers: usize,
    shards: usize,
    queue_depth: usize,
    keepalive: bool,
    gzip: bool,
    ingest_rate: Option<f64>,
    write_rate: Option<f64>,
    out: String,
    telemetry_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        clients: 16,
        requests: 200,
        workers: 2,
        shards: 1,
        queue_depth: 32,
        keepalive: true,
        gzip: false,
        ingest_rate: None,
        write_rate: None,
        out: "BENCH_serve.json".to_string(),
        telemetry_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--clients" => args.clients = value()?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--requests" => args.requests = value()?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--workers" => args.workers = value()?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--shards" => args.shards = value()?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--connection-close" => args.keepalive = false,
            "--gzip" => args.gzip = true,
            "--telemetry-out" => args.telemetry_out = Some(value()?),
            "--queue-depth" => {
                args.queue_depth = value()?.parse().map_err(|e| format!("{a}: {e}"))?
            }
            "--ingest-rate" => {
                let rate: f64 = value()?.parse().map_err(|e| format!("{a}: {e}"))?;
                if !(rate > 0.0 && rate.is_finite()) {
                    return Err(format!("{a} must be a positive number, got {rate}"));
                }
                args.ingest_rate = Some(rate);
            }
            "--write-rate" => {
                let rate: f64 = value()?.parse().map_err(|e| format!("{a}: {e}"))?;
                if !(rate > 0.0 && rate.is_finite()) {
                    return Err(format!("{a} must be a positive number, got {rate}"));
                }
                args.write_rate = Some(rate);
            }
            "--out" => args.out = value()?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.ingest_rate.is_some() && args.write_rate.is_some() {
        return Err("--ingest-rate and --write-rate are mutually exclusive".into());
    }
    if args.gzip && !args.keepalive {
        return Err("--gzip needs keep-alive clients (drop --connection-close)".into());
    }
    Ok(args)
}

/// Last entry of `"metric_days":[...]` in a `/v1/days` body, if any.
fn latest_metric_day(days_json: &str) -> Option<String> {
    let list = days_json
        .split("\"metric_days\":[")
        .nth(1)?
        .split(']')
        .next()?;
    let last = list.rsplit(',').next()?.trim();
    (!last.is_empty() && last.bytes().all(|b| b.is_ascii_digit())).then(|| last.to_string())
}

/// Integer value of `"key":N` in a one-line JSON body, 0 when absent.
fn json_u64(body: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    match body.find(&needle) {
        None => 0,
        Some(i) => body[i + needle.len()..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect::<String>()
            .parse()
            .unwrap_or(0),
    }
}

/// Everything the interference mode spins up next to the server.
struct Interference {
    writer: std::thread::JoinHandle<()>,
    head: std::thread::JoinHandle<Result<osn_core::live::FollowReport, osn_core::live::LiveError>>,
    sampler: std::thread::JoinHandle<(osn_obs::HistSnapshot, Option<u64>)>,
    stop: Arc<AtomicBool>,
    trace: std::path::PathBuf,
}

/// Start the follow head over a growing temp trace plus the paced
/// writer and the staleness sampler. The first slice is on disk before
/// the head starts, so it never races an empty file.
fn start_interference(
    log: &osn_graph::EventLog,
    query_cfg: osn_core::query::SnapshotQueryConfig,
    live: Arc<LiveQuery>,
    rate: f64,
) -> Interference {
    let mut bytes = Vec::new();
    osn_graph::io::write_log_v2_chunked(log, &mut bytes, 256).expect("serialise trace");
    let trace =
        std::env::temp_dir().join(format!("bench_serve_ingest_{}.events", std::process::id()));
    const SLICES: usize = 128;
    let slice_len = bytes.len().div_ceil(SLICES);
    std::fs::write(&trace, &bytes[..slice_len]).expect("write first trace slice");

    let head_cfg = LiveHeadConfig {
        policy: RecoveryPolicy::Skip {
            max_errors: usize::MAX,
        },
        query: query_cfg,
        poll_interval: Duration::from_millis(2),
        ..LiveHeadConfig::new(&trace)
    };
    let stop = Arc::new(AtomicBool::new(false));
    let head = {
        let live = Arc::clone(&live);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || run_follow(&head_cfg, &live, &stop))
    };
    let writer = {
        let trace = trace.clone();
        let pause = Duration::from_secs_f64(1.0 / rate);
        std::thread::spawn(move || {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&trace)
                .unwrap();
            for slice in bytes[slice_len..].chunks(slice_len) {
                std::thread::sleep(pause);
                f.write_all(slice).unwrap();
                f.flush().unwrap();
            }
        })
    };
    // Staleness of the served snapshot, sampled while ingest is live:
    // the age a query answered *right now* would observe.
    let sampler = {
        let live = Arc::clone(&live);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let started = Instant::now();
            let lag = osn_obs::Histogram::new();
            let mut first_publish_ms = None;
            while !stop.load(Ordering::Relaxed) && live.health() != IngestHealth::Complete {
                if live.is_published() {
                    first_publish_ms.get_or_insert_with(|| started.elapsed().as_millis() as u64);
                    lag.record(json_u64(&live.head_json(), "staleness_ms"));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            (lag.snapshot(), first_publish_ms)
        })
    };
    Interference {
        writer,
        head,
        sampler,
        stop,
        trace,
    }
}

/// Everything the write-plane mode spins up next to the server: the
/// WAL the server appends to, the live head tailing the WAL's trace,
/// and the batches the paced writer will POST once the port is known.
struct WriteFlood {
    head: std::thread::JoinHandle<Result<osn_core::live::FollowReport, osn_core::live::LiveError>>,
    stop: Arc<AtomicBool>,
    trace: std::path::PathBuf,
    wal: Arc<osn_graph::wal::Wal>,
    batches: Vec<String>,
    rate: f64,
}

/// Outcome counters from the paced writer client.
struct WriteOutcome {
    accepted: u64,
    duplicates: u64,
    shed: u64,
    errors: u64,
    latency: osn_obs::HistSnapshot,
}

const WRITE_TOKEN: &str = "bench-token";

/// Per-client flood outcome, merged across the pool at the end.
#[derive(Default)]
struct ClientOutcome {
    ok: u64,
    shed: u64,
    errors: u64,
    gzip_hits: u64,
    reconnects: u64,
    latency: osn_obs::HistSnapshot,
}

/// One closed-loop client: `requests` round trips over the rotating
/// path mix. Keep-alive mode holds a single connection for the whole
/// run and redials (retrying the request once) when the server hangs
/// up on it — a shed, a keep-alive cull, or a drain all look like that
/// from here. Close mode opens a fresh connection per request, which
/// is what the flood did before the serve plane learned keep-alive.
fn run_client(
    addr: &str,
    paths: &[String],
    first: usize,
    requests: usize,
    keepalive: bool,
    gzip: bool,
) -> ClientOutcome {
    const TIMEOUT: Duration = Duration::from_secs(30);
    let latency = osn_obs::Histogram::new();
    let mut out = ClientOutcome::default();
    let mut latest: Option<String> = None;
    let mut conn: Option<HttpClient> = None;
    let accept: &[(&str, &str)] = if gzip {
        &[("Accept-Encoding", "gzip")]
    } else {
        &[]
    };
    for i in 0..requests {
        let slot = &paths[(first + i) % paths.len()];
        let path = if slot == "@metrics-latest" {
            match &latest {
                Some(d) => format!("/v1/metrics/{d}"),
                // Nothing seen yet: learn a day instead.
                None => "/v1/days".to_string(),
            }
        } else {
            slot.clone()
        };
        let sent = Instant::now();
        let resp = if keepalive {
            let reused = conn.as_mut().map(|c| c.get_with(&path, accept, TIMEOUT));
            match reused {
                Some(Ok(r)) => Ok(r),
                reused => {
                    // No live connection, or the reused one died under
                    // us: dial fresh and retry this request once.
                    if reused.is_some() {
                        out.reconnects += 1;
                    }
                    conn = None;
                    HttpClient::connect(addr).and_then(|mut c| {
                        let r = c.get_with(&path, accept, TIMEOUT);
                        conn = Some(c);
                        r
                    })
                }
            }
        } else {
            http_get(addr, &path, TIMEOUT)
        };
        latency.record_duration(sent.elapsed());
        match resp {
            Ok(resp) => {
                if resp.header("connection") == Some("close") {
                    conn = None;
                }
                let body = if resp.header("content-encoding") == Some("gzip") {
                    out.gzip_hits += 1;
                    match gzip_decompress(&resp.body) {
                        Ok(b) => b,
                        Err(_) => {
                            out.errors += 1;
                            continue;
                        }
                    }
                } else {
                    resp.body
                };
                match resp.status {
                    200 => {
                        out.ok += 1;
                        if path == "/v1/days" {
                            let text = String::from_utf8_lossy(&body);
                            latest = latest_metric_day(&text).or(latest);
                        }
                    }
                    503 => out.shed += 1,
                    _ => out.errors += 1,
                }
            }
            Err(_) => out.errors += 1,
        }
    }
    out.latency = latency.snapshot();
    out
}

/// Open a fresh WAL over a temp trace, start the follow head over that
/// trace, and pre-slice the generated log's payload into POST bodies.
/// Returns the server-side write config plus the bench-side state.
fn start_write_flood(
    log: &osn_graph::EventLog,
    query_cfg: osn_core::query::SnapshotQueryConfig,
    live: Arc<LiveQuery>,
    rate: f64,
) -> (osn_server::WritePlaneConfig, WriteFlood) {
    let mut bytes = Vec::new();
    osn_graph::io::write_log_v2_chunked(log, &mut bytes, 256).expect("serialise trace");
    let batches: Vec<String> = String::from_utf8(bytes)
        .expect("v2 traces are utf-8")
        .lines()
        .filter(|l| l.starts_with("N ") || l.starts_with("E "))
        .collect::<Vec<_>>()
        .chunks(64)
        .map(|c| {
            let mut s = c.join("\n");
            s.push('\n');
            s
        })
        .collect();

    let trace =
        std::env::temp_dir().join(format!("bench_serve_write_{}.events", std::process::id()));
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_dir_all(osn_graph::wal::wal_dir_for(&trace));
    let (wal, _report) =
        osn_graph::wal::Wal::open_default(&trace, Default::default()).expect("open bench WAL");
    let wal = Arc::new(wal);

    // Generous admission: the bench measures throughput under paced
    // load, so the rate budget sits well above the offered rate and
    // shed batches come from the durability valves, not the bucket.
    let mut write_cfg =
        osn_server::WritePlaneConfig::new(Arc::clone(&wal), vec![WRITE_TOKEN.to_string()]);
    write_cfg.rate_limit = rate * 4.0;
    write_cfg.rate_burst = rate * 8.0;

    let head_cfg = LiveHeadConfig {
        policy: RecoveryPolicy::Strict,
        query: query_cfg,
        poll_interval: Duration::from_millis(2),
        ..LiveHeadConfig::new(&trace)
    };
    let stop = Arc::new(AtomicBool::new(false));
    let head = {
        let live = Arc::clone(&live);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || run_follow(&head_cfg, &live, &stop))
    };
    (
        write_cfg,
        WriteFlood {
            head,
            stop,
            trace,
            wal,
            batches,
            rate,
        },
    )
}

/// POST every batch at the paced rate, re-sending every eighth key to
/// exercise the idempotency window.
fn run_writer(addr: &str, batches: &[String], rate: f64) -> WriteOutcome {
    let auth = format!("Bearer {WRITE_TOKEN}");
    let pause = Duration::from_secs_f64(1.0 / rate);
    let latency = osn_obs::Histogram::new();
    let mut out = WriteOutcome {
        accepted: 0,
        duplicates: 0,
        shed: 0,
        errors: 0,
        latency: osn_obs::HistSnapshot::default(),
    };
    let post = |key: &str, body: &str, out: &mut WriteOutcome| {
        let sent = Instant::now();
        let resp = osn_graph::testutil::http_post(
            addr,
            "/v1/events",
            &[("Authorization", &auth), ("Idempotency-Key", key)],
            body.as_bytes(),
            Duration::from_secs(30),
        );
        latency.record_duration(sent.elapsed());
        match resp {
            Ok(r) if r.status == 201 => out.accepted += 1,
            Ok(r) if r.status == 200 => out.duplicates += 1,
            Ok(r) if r.status == 429 || r.status == 503 => out.shed += 1,
            _ => out.errors += 1,
        }
    };
    for (i, body) in batches.iter().enumerate() {
        std::thread::sleep(pause);
        let key = format!("bench-{i}");
        post(&key, body, &mut out);
        if i % 8 == 0 {
            // Idempotent retry of the batch just sent: must dedup, not
            // double-apply — the duplicate count proves the window held.
            post(&key, body, &mut out);
        }
    }
    out.latency = latency.snapshot();
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: bench_serve [--clients N] [--requests N] [--workers N] [--shards N] [--queue-depth N] [--connection-close] [--gzip] [--ingest-rate R] [--write-rate R] [--out FILE] [--telemetry-out FILE]");
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let build_started = Instant::now();
    let log = TraceGenerator::new(TraceConfig::tiny()).generate();
    // In gzip mode the metric series is denser: the daemon only serves
    // a gzip variant when it is actually smaller than the plain body,
    // and the tiny fixture's default answers sit under the ~130-byte
    // gzip envelope break-even, so a sparse series would measure a
    // flood of identity fallbacks instead of the decode path.
    let metrics_stride = if args.gzip { 8 } else { 40 };
    let builder = SnapshotQuery::builder()
        .metrics(MetricSeriesConfig {
            stride: metrics_stride,
            path_sample: 30,
            clustering_sample: 100,
            ..Default::default()
        })
        .communities(CommunityAnalysisConfig {
            stride: 80,
            ..Default::default()
        });

    // Per-request access lines would swamp stderr at bench rates; keep
    // the counters, drop the lines.
    let mut server_cfg = ServerConfig {
        workers: args.workers,
        shards: args.shards,
        queue_depth: args.queue_depth,
        access_log: osn_server::AccessLog::to_sink(Box::new(std::io::sink())),
        ..ServerConfig::default()
    };
    let mut interference = None;
    let mut write_flood = None;
    let (server, paths) = if let Some(rate) = args.ingest_rate {
        let live = LiveQuery::for_follow();
        let server =
            Server::start_live(server_cfg, Arc::clone(&live)).expect("bind ephemeral port");
        interference = Some(start_interference(
            &log,
            builder.config().clone(),
            live,
            rate,
        ));
        // Worker-plane-heavy mix against the moving head;
        // "@metrics-latest" resolves per client to the newest metric day
        // that client has seen in a `/v1/days` answer.
        let paths: Vec<String> = ["@metrics-latest", "/v1/days", "@metrics-latest", "/v1/head"]
            .map(String::from)
            .to_vec();
        (server, paths)
    } else if let Some(rate) = args.write_rate {
        let live = LiveQuery::for_follow();
        let (write_cfg, flood) =
            start_write_flood(&log, builder.config().clone(), Arc::clone(&live), rate);
        server_cfg.write = Some(write_cfg);
        let server =
            Server::start_live(server_cfg, Arc::clone(&live)).expect("bind ephemeral port");
        write_flood = Some(flood);
        // Same moving-head read mix as ingest mode: the question is
        // whether reads stay fast while the write plane is hot.
        let paths: Vec<String> = ["@metrics-latest", "/v1/days", "/v1/head", "/healthz"]
            .map(String::from)
            .to_vec();
        (server, paths)
    } else {
        let query = Arc::new(builder.build(&log));
        let server = Server::start(server_cfg, Arc::clone(&query)).expect("bind ephemeral port");
        // Each client rotates over every materialised answer plus the
        // two fast-path probes, so the mix exercises both planes.
        let mut paths: Vec<String> = Vec::new();
        for d in query.metric_days() {
            paths.push(format!("/v1/metrics/{d}"));
        }
        for d in query.community_days() {
            paths.push(format!("/v1/communities/{d}"));
        }
        paths.push("/v1/days".to_string());
        paths.push("/healthz".to_string());
        (server, paths)
    };
    let mut build_ms = build_started.elapsed().as_millis() as u64;
    let addr = server.local_addr().to_string();
    let paths = Arc::new(paths);

    // Client-side latency histograms are per-thread and merged at the
    // end; recording is gated on the global telemetry flag (which
    // Server::start enabled already, but say so explicitly).
    osn_obs::set_enabled(true);
    let writer = write_flood.as_ref().map(|f| {
        let addr = addr.clone();
        let batches = f.batches.clone();
        let rate = f.rate;
        std::thread::spawn(move || run_writer(&addr, &batches, rate))
    });
    let flood_started = Instant::now();
    let clients: Vec<_> = (0..args.clients)
        .map(|c| {
            let addr = addr.clone();
            let paths = Arc::clone(&paths);
            let requests = args.requests;
            let (keepalive, gzip) = (args.keepalive, args.gzip);
            std::thread::spawn(move || run_client(&addr, &paths, c, requests, keepalive, gzip))
        })
        .collect();
    let mut flood = ClientOutcome::default();
    let mut latency = osn_obs::HistSnapshot::default();
    for c in clients {
        let out = c.join().expect("client thread");
        flood.ok += out.ok;
        flood.shed += out.shed;
        flood.errors += out.errors;
        flood.gzip_hits += out.gzip_hits;
        flood.reconnects += out.reconnects;
        latency.merge(&out.latency);
    }
    let (ok, shed, errors) = (flood.ok, flood.shed, flood.errors);
    let elapsed = flood_started.elapsed();

    // In interference mode, let the ingest side run to completion (the
    // writer finishes the file, the head reads the footer) while the
    // server is still up, then collect the lag numbers.
    let mut ingest_fields = String::new();
    if let Some(intf) = interference.take() {
        intf.writer.join().expect("writer thread");
        let head = intf
            .head
            .join()
            .expect("head thread")
            .expect("follow head failed");
        intf.stop.store(true, Ordering::Relaxed);
        let (lag, first_publish_ms) = intf.sampler.join().expect("sampler thread");
        let _ = std::fs::remove_file(&intf.trace);
        // The interference analogue of materialisation time: how long
        // queries had to wait for the first published snapshot.
        if let Some(ms) = first_publish_ms {
            build_ms = ms;
        }
        ingest_fields = format!(
            concat!(
                ",\"ingest_rate\":{},\"ingest_lag_p50_ms\":{},",
                "\"ingest_lag_p99_ms\":{},\"ingest_publishes\":{},",
                "\"ingest_completed\":{}"
            ),
            args.ingest_rate.unwrap(),
            lag.p50(),
            lag.p99(),
            head.publishes,
            head.completed,
        );
    }

    // In write mode, let the writer stream the whole trace through the
    // write plane, seal the WAL (which stamps the trace footer so the
    // head runs to completion), and collect the write-side numbers.
    let mut write_fields = String::new();
    let mut write_errors = 0u64;
    if let Some(flood) = write_flood.take() {
        let w = writer
            .expect("writer spawned with flood")
            .join()
            .expect("writer thread");
        flood.wal.seal().expect("seal bench WAL");
        let head = flood
            .head
            .join()
            .expect("head thread")
            .expect("follow head failed");
        flood.stop.store(true, Ordering::Relaxed);
        let stats = flood.wal.stats();
        let _ = std::fs::remove_file(&flood.trace);
        let _ = std::fs::remove_dir_all(osn_graph::wal::wal_dir_for(&flood.trace));
        write_errors = w.errors;
        write_fields = format!(
            concat!(
                ",\"write_rate\":{},\"write_accepted\":{},",
                "\"write_duplicates\":{},\"write_shed\":{},",
                "\"write_errors\":{},\"write_p50_us\":{},\"write_p99_us\":{},",
                "\"wal_fsyncs\":{},\"wal_last_seq\":{},",
                "\"head_publishes\":{},\"head_completed\":{}"
            ),
            flood.rate,
            w.accepted,
            w.duplicates,
            w.shed,
            w.errors,
            w.latency.p50(),
            w.latency.p99(),
            stats.fsyncs,
            stats.last_seq,
            head.publishes,
            head.completed,
        );
    }

    // Snapshot the whole telemetry registry — server counters, latency
    // histograms, and the per-shard `http.shard.*` queue/shed series —
    // while the server is still up, so the shard gauges reflect the
    // post-flood steady state rather than the drained zeros.
    if let Some(path) = &args.telemetry_out {
        if let Err(e) = osn_obs::snapshot().write_json_atomic(std::path::Path::new(path)) {
            eprintln!("error: write telemetry snapshot {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    server.request_shutdown();
    let report = server.join();

    let total = ok + shed + errors;
    let rps = total as f64 / elapsed.as_secs_f64();
    let shed_rate = shed as f64 / total as f64;
    let bench_name = if args.ingest_rate.is_some() {
        "serve_ingest"
    } else if args.write_rate.is_some() {
        "serve_write"
    } else if args.gzip {
        "serve_gzip"
    } else {
        "serve"
    };
    let json = format!(
        concat!(
            "{{{},\"clients\":{},\"requests_per_client\":{},",
            "\"workers\":{},\"shards\":{},\"queue_depth\":{},",
            "\"keepalive\":{},\"gzip\":{},\"build_ms\":{},",
            "\"total_requests\":{},\"ok\":{},\"shed\":{},\"errors\":{},",
            "\"gzip_hits\":{},\"reconnects\":{},",
            "\"elapsed_ms\":{},\"requests_per_sec\":{:.1},\"shed_rate\":{:.4},",
            "\"drain_clean\":{}{}{}}}"
        ),
        osn_bench::unified_fields(bench_name, rps, &latency),
        args.clients,
        args.requests,
        args.workers,
        args.shards,
        args.queue_depth,
        args.keepalive,
        args.gzip,
        build_ms,
        total,
        ok,
        shed,
        errors,
        flood.gzip_hits,
        flood.reconnects,
        elapsed.as_millis(),
        rps,
        shed_rate,
        report.clean(),
        ingest_fields,
        write_fields,
    );
    if let Err(e) =
        osn_graph::atomicfile::write_bytes_atomic(std::path::Path::new(&args.out), json.as_bytes())
    {
        eprintln!("error: write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("{json}");
    println!(
        "serve bench: {total} requests in {:.2?} → {rps:.0} req/s, {:.1}% shed, {errors} errors",
        elapsed,
        shed_rate * 100.0
    );
    if args.gzip && flood.gzip_hits == 0 {
        // A gzip bench that only ever measured identity fallbacks is
        // not measuring the decode path; fail loudly instead.
        eprintln!("error: --gzip flood never saw a gzip-encoded answer");
        return ExitCode::FAILURE;
    }
    if errors > 0 || write_errors > 0 || !report.clean() {
        eprintln!(
            "error: flood produced {errors} read + {write_errors} write hard errors (drain clean: {})",
            report.clean()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
