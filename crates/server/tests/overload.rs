//! In-process robustness drills for the snapshot query daemon.
//!
//! These are the deterministic overload/chaos scenarios from the design
//! runbook: a connection flood against a deliberately tiny worker pool,
//! injected handler panics, slow-loris and header-flood clients, and
//! graceful-drain success and abort. Everything runs in-process so the
//! drills can assert on the server's own counters, not just on wire
//! behaviour.

use osn_core::communities::CommunityAnalysisConfig;
use osn_core::live::{run_follow, LiveHeadConfig, LiveQuery};
use osn_core::network::MetricSeriesConfig;
use osn_core::query::SnapshotQuery;
use osn_genstream::{TraceConfig, TraceGenerator};
use osn_graph::testutil::{
    header_flood, http_get, http_get_half_close, slow_loris, ChaosHttpOutcome,
};
use osn_metrics::supervisor::{ChaosAction, ChaosTaskPlan};
use osn_server::{Server, ServerConfig};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The analyses are pure functions of the trace, so every drill shares
/// one pre-built engine (building it dominates test wall time).
fn query() -> Arc<SnapshotQuery> {
    static Q: OnceLock<Arc<SnapshotQuery>> = OnceLock::new();
    Arc::clone(Q.get_or_init(|| {
        let log = TraceGenerator::new(TraceConfig::tiny()).generate();
        let q = SnapshotQuery::builder()
            .metrics(MetricSeriesConfig {
                stride: 40,
                path_sample: 30,
                clustering_sample: 100,
                workers: 2,
                ..Default::default()
            })
            .communities(CommunityAnalysisConfig {
                stride: 80,
                ..Default::default()
            })
            .build(&log);
        Arc::new(q)
    }))
}

fn start(cfg: ServerConfig) -> Server {
    Server::start(cfg, query()).expect("server starts")
}

const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

#[test]
fn serves_bytes_identical_to_the_query_engine() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr().to_string();
    let q = query();

    let day = q.metric_days()[0];
    let resp = http_get(&addr, &format!("/v1/metrics/{day}"), CLIENT_TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("content-type"), Some("text/csv; charset=utf-8"));
    assert_eq!(resp.body, q.metrics_row_csv(day).unwrap().into_bytes());

    let cday = q.community_days()[0];
    let resp = http_get(&addr, &format!("/v1/communities/{cday}"), CLIENT_TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, q.communities_row_csv(cday).unwrap().into_bytes());

    let resp = http_get(&addr, "/v1/days", CLIENT_TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, q.days_json().into_bytes());

    // /v1/meta is loop-answered and reports the trace identity plus the
    // server's own version.
    let resp = http_get(&addr, "/v1/meta", CLIENT_TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);
    let body = resp.body_str().to_string();
    let meta = q.meta_json("");
    assert!(body.starts_with(meta.trim_end_matches("\"}")), "{body}");

    let resp = http_get(&addr, "/readyz", CLIENT_TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body_str().contains("\"ready\":true"));

    // 404 for a day with no snapshot, 400 for a non-day, 405 for POST.
    assert_eq!(
        http_get(&addr, "/v1/metrics/99999", CLIENT_TIMEOUT)
            .unwrap()
            .status,
        404
    );
    assert_eq!(
        http_get(&addr, "/v1/metrics/xyz", CLIENT_TIMEOUT)
            .unwrap()
            .status,
        400
    );
    let resp = osn_graph::testutil::http_request_raw(
        &addr,
        b"POST /healthz HTTP/1.1\r\nHost: a\r\nConnection: close\r\n\r\n",
        CLIENT_TIMEOUT,
    )
    .unwrap();
    assert_eq!(resp.status, 405);

    server.request_shutdown();
    assert!(server.join().clean());
}

#[test]
fn overload_drill_sheds_fast_and_keeps_health_green() {
    let q = query();
    let day = q.metric_days()[0];
    // Two workers, a queue of four, and a 25ms handler delay: a 64-way
    // flood must overflow the work queue and shed.
    let server = start(ServerConfig {
        workers: 2,
        queue_depth: 4,
        chaos: Some(ChaosTaskPlan::default().with_rule(day as u64, None, ChaosAction::Delay(25))),
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();

    // Health prober runs for the whole flood: /healthz must stay 200.
    let health_addr = addr.clone();
    let prober = std::thread::spawn(move || {
        let mut greens = 0u32;
        for _ in 0..20 {
            let resp = http_get(&health_addr, "/healthz", CLIENT_TIMEOUT)
                .expect("health probe must never hang or be refused");
            assert_eq!(resp.status, 200, "/healthz degraded under flood");
            greens += 1;
            std::thread::sleep(Duration::from_millis(5));
        }
        greens
    });

    let path = format!("/v1/metrics/{day}");
    let clients: Vec<_> = (0..64)
        .map(|_| {
            let addr = addr.clone();
            let path = path.clone();
            std::thread::spawn(move || {
                let started = Instant::now();
                let resp = http_get(&addr, &path, CLIENT_TIMEOUT).expect("no hung sockets");
                (resp, started.elapsed())
            })
        })
        .collect();

    let mut ok = 0u32;
    let mut shed = 0u32;
    for c in clients {
        let (resp, elapsed) = c.join().unwrap();
        match resp.status {
            200 => ok += 1,
            503 => {
                shed += 1;
                // Sheds must be fast (no queue-camping) and advisory.
                assert_eq!(resp.header("retry-after"), Some("1"));
                assert!(elapsed < Duration::from_secs(5), "slow shed: {elapsed:?}");
            }
            other => panic!("flood produced status {other}"),
        }
    }
    assert_eq!(ok + shed, 64);
    assert!(ok > 0, "nothing was served");
    assert!(shed > 0, "nothing was shed — queue bound not enforced");
    assert_eq!(prober.join().unwrap(), 20);

    let stats = server.stats();
    assert_eq!(stats.ok as u32, ok + 20, "stats disagree with clients");
    assert!(stats.shed >= u64::from(shed));
    assert_eq!(stats.panicked, 0);

    server.request_shutdown();
    assert!(server.join().clean());
}

#[test]
fn stats_endpoint_agrees_with_the_access_log_after_overload() {
    use osn_server::AccessLog;
    use std::io::Write;
    use std::sync::Mutex;

    // Capture the access log so the drill can audit it afterwards.
    #[derive(Clone, Default)]
    struct Buf(Arc<Mutex<Vec<u8>>>);
    impl Write for Buf {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let buf = Buf::default();

    let q = query();
    let day = q.metric_days()[0];
    // The shard shed counters live in the global telemetry registry
    // (shared by every server in this test process), so the drill
    // asserts on deltas.
    let shard_shed_base = osn_obs::counter("http.shard.0.shed").value();
    let server = start(ServerConfig {
        workers: 2,
        queue_depth: 4,
        chaos: Some(ChaosTaskPlan::default().with_rule(day as u64, None, ChaosAction::Delay(25))),
        access_log: AccessLog::to_sink(Box::new(buf.clone())),
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();

    // Overload: more concurrent clients than queue + workers can absorb.
    let path = format!("/v1/metrics/{day}");
    let clients: Vec<_> = (0..32)
        .map(|_| {
            let addr = addr.clone();
            let path = path.clone();
            std::thread::spawn(move || http_get(&addr, &path, CLIENT_TIMEOUT).unwrap().status)
        })
        .collect();
    for c in clients {
        let status = c.join().unwrap();
        assert!(status == 200 || status == 503, "unexpected status {status}");
    }

    // The live endpoint must answer mid-run with both document sections.
    let resp = http_get(&addr, "/v1/stats", CLIENT_TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);
    let doc = osn_obs::json::parse(resp.body_str()).expect("stats JSON parses");
    let srv = doc.get("server").expect("server section");
    assert!(
        srv.get("accepted")
            .and_then(osn_obs::json::Json::as_f64)
            .unwrap()
            >= 32.0
    );
    // The per-shard queue section is part of the document now: one
    // entry per shard (a default server has one), each with queue
    // depths and its shed counter.
    let shards = doc
        .get("shards")
        .and_then(osn_obs::json::Json::as_arr)
        .expect("shards section");
    assert_eq!(shards.len(), 1, "a default server has one shard");
    for key in ["triage", "work", "parked", "shed"] {
        assert!(shards[0].get(key).is_some(), "shard entry missing {key}");
    }
    let telemetry = doc.get("telemetry").expect("telemetry section");
    let hist = telemetry
        .get("histograms")
        .and_then(|h| h.get("http.latency_us.metrics"))
        .expect("per-route latency histogram present");
    assert!(
        hist.get("count")
            .and_then(osn_obs::json::Json::as_f64)
            .unwrap()
            >= 1.0
    );

    // The Prometheus rendering answers too and carries the same families.
    let prom = http_get(&addr, "/metrics", CLIENT_TIMEOUT).unwrap();
    assert_eq!(prom.status, 200);
    let prom_text = prom.body_str().to_string();
    assert!(prom_text.contains("# TYPE osn_server_accepted counter"));
    assert!(prom_text.contains("# TYPE osn_http_latency_us_metrics histogram"));

    // Let the stats/metrics requests' own finish() land (the response is
    // written before the access line), then freeze the counters.
    std::thread::sleep(Duration::from_millis(150));
    let stats = server.stats();
    server.request_shutdown();
    assert!(server.join().clean());

    // Every *response* has exactly one access line (with keep-alive one
    // accepted connection may carry many), and re-classifying those
    // lines must reproduce the server's own counters. These clients all
    // send `Connection: close`, so requests and accepts coincide here.
    let log_text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = log_text
        .lines()
        .filter(|l| l.starts_with("access "))
        .collect();
    assert_eq!(lines.len() as u64, stats.requests, "one line per response");
    assert_eq!(stats.requests, stats.accepted, "close-framed clients");

    let field = |line: &str, key: &str| -> String {
        line.split_whitespace()
            .find_map(|tok| tok.strip_prefix(&format!("{key}=")).map(str::to_string))
            .unwrap_or_else(|| panic!("no {key}= in {line}"))
    };
    let (mut ok, mut client_error, mut server_error, mut shed) = (0u64, 0u64, 0u64, 0u64);
    for line in &lines {
        let status: u16 = field(line, "status").parse().unwrap();
        let reason = field(line, "reason");
        let load_shed = matches!(
            reason.as_str(),
            "shed" | "timed-out" | "transient-exhausted"
        );
        match status {
            200..=299 => ok += 1,
            400..=499 => client_error += 1,
            _ if load_shed => shed += 1,
            _ => server_error += 1,
        }
    }
    assert_eq!(ok, stats.ok, "2xx lines vs stats.ok");
    assert_eq!(client_error, stats.client_error);
    assert_eq!(server_error, stats.server_error);
    assert_eq!(shed, stats.shed, "shed lines vs stats.shed");

    // Sheds are also attributed per shard. The registry is global to
    // the process (other drills' servers share shard 0), so the summed
    // delta bounds this server's count from above.
    let shard_shed_delta = osn_obs::counter("http.shard.0.shed").value() - shard_shed_base;
    assert!(
        shard_shed_delta >= stats.shed,
        "summed shard sheds ({shard_shed_delta}) lost track of stats.shed ({})",
        stats.shed
    );
}

#[test]
fn handler_panic_is_a_500_not_a_dead_process() {
    let q = query();
    let day = q.metric_days()[0];
    let server = start(ServerConfig {
        workers: 1,
        chaos: Some(ChaosTaskPlan::default().with_rule(
            day as u64,
            None,
            ChaosAction::Panic("injected handler bug".into()),
        )),
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();

    let resp = http_get(&addr, &format!("/v1/metrics/{day}"), CLIENT_TIMEOUT).unwrap();
    assert_eq!(resp.status, 500);
    assert!(resp.body_str().contains("panicked"));

    // The worker that caught the panic must still be alive and serving:
    // an unpoisoned day and the poisoned day again both get answers.
    let other_day = q.metric_days()[1];
    let resp = http_get(&addr, &format!("/v1/metrics/{other_day}"), CLIENT_TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);
    let resp = http_get(&addr, &format!("/v1/metrics/{day}"), CLIENT_TIMEOUT).unwrap();
    assert_eq!(resp.status, 500);

    let stats = server.stats();
    assert_eq!(stats.panicked, 2);
    assert_eq!(stats.server_error, 2);

    server.request_shutdown();
    assert!(server.join().clean());
}

#[test]
fn slow_loris_is_cut_at_the_header_deadline() {
    let server = start(ServerConfig {
        header_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();

    let started = Instant::now();
    let out = slow_loris(
        &addr,
        Duration::from_millis(20),
        64 * 1024,
        Duration::from_secs(30),
    )
    .unwrap();
    let elapsed = started.elapsed();
    assert!(
        out.server_terminated(),
        "slow-loris outlived the server: {out:?}"
    );
    if let ChaosHttpOutcome::Answered { response, .. } = &out {
        assert_eq!(response.status, 408);
    }
    assert!(
        elapsed < Duration::from_secs(10),
        "cutoff took {elapsed:?}, header deadline is not being enforced"
    );

    // The loris never got a thread pinned: normal service continues.
    assert_eq!(
        http_get(&addr, "/healthz", CLIENT_TIMEOUT).unwrap().status,
        200
    );
    assert!(server.stats().bad_heads >= 1);

    server.request_shutdown();
    assert!(server.join().clean());
}

#[test]
fn header_flood_is_refused_not_buffered() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr().to_string();

    // ~70 bytes per junk header line; 1000 lines ≫ the 8 KiB head cap.
    let out = header_flood(&addr, 1000, Duration::from_secs(10)).unwrap();
    assert!(out.server_terminated(), "flood was swallowed: {out:?}");
    if let ChaosHttpOutcome::Answered { response, .. } = &out {
        assert_eq!(response.status, 431);
    }
    assert_eq!(
        http_get(&addr, "/healthz", CLIENT_TIMEOUT).unwrap().status,
        200
    );

    server.request_shutdown();
    assert!(server.join().clean());
}

#[test]
fn half_closed_client_still_gets_its_bytes() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr().to_string();
    let q = query();
    let day = q.metric_days()[0];
    let resp = http_get_half_close(&addr, &format!("/v1/metrics/{day}"), CLIENT_TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, q.metrics_row_csv(day).unwrap().into_bytes());
    server.request_shutdown();
    assert!(server.join().clean());
}

#[test]
fn follow_mode_degrades_before_first_publish_then_serves() {
    // An empty live handle: the daemon is up but nothing is published.
    let live = LiveQuery::for_follow();
    let server = Server::start_live(ServerConfig::default(), live.clone()).expect("server starts");
    let addr = server.local_addr().to_string();

    // Probes and head state answer; data endpoints degrade with 503 +
    // Retry-After (never 500, never a hang).
    assert_eq!(
        http_get(&addr, "/healthz", CLIENT_TIMEOUT).unwrap().status,
        200
    );
    let head = http_get(&addr, "/v1/head", CLIENT_TIMEOUT).unwrap();
    assert_eq!(head.status, 200);
    let head_body = head.body_str().to_string();
    assert!(head_body.contains("\"published\":false"), "{head_body}");
    assert!(head_body.contains("\"follow\":true"), "{head_body}");
    let ready = http_get(&addr, "/readyz", CLIENT_TIMEOUT).unwrap();
    assert_eq!(ready.status, 503);
    assert!(ready.body_str().contains("\"ready\":false"));
    for path in ["/v1/days", "/v1/metrics/0", "/v1/meta"] {
        let resp = http_get(&addr, path, CLIENT_TIMEOUT).unwrap();
        assert_eq!(resp.status, 503, "{path} before first publish");
        assert_eq!(resp.header("retry-after"), Some("1"), "{path}");
    }

    // Run a head over a complete trace file; once it finishes, the same
    // server must serve engine-identical bytes without restarting.
    let dir = std::env::temp_dir().join(format!("osn-follow-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.events");
    let log = TraceGenerator::new(TraceConfig::tiny()).generate();
    let mut bytes = Vec::new();
    osn_graph::io::write_log_v2_chunked(&log, &mut bytes, 256).unwrap();
    std::fs::write(&trace, &bytes).unwrap();

    let cfg = LiveHeadConfig {
        poll_interval: Duration::from_millis(1),
        query: SnapshotQuery::builder()
            .metrics(MetricSeriesConfig {
                stride: 40,
                path_sample: 30,
                clustering_sample: 100,
                workers: 2,
                ..Default::default()
            })
            .communities(CommunityAnalysisConfig {
                stride: 80,
                ..Default::default()
            })
            .config()
            .clone(),
        ..LiveHeadConfig::new(&trace)
    };
    let report = run_follow(&cfg, &live, &std::sync::atomic::AtomicBool::new(false)).unwrap();
    assert!(report.completed);

    let batch = SnapshotQuery::build(&log, &cfg.query);
    let day = batch.metric_days()[0];
    let resp = http_get(&addr, &format!("/v1/metrics/{day}"), CLIENT_TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, batch.metrics_row_csv(day).unwrap().into_bytes());
    let ready = http_get(&addr, "/readyz", CLIENT_TIMEOUT).unwrap();
    assert_eq!(ready.status, 200);
    let head = http_get(&addr, "/v1/head", CLIENT_TIMEOUT).unwrap();
    assert!(
        head.body_str().contains("\"health\":\"complete\""),
        "{}",
        head.body_str()
    );

    server.request_shutdown();
    assert!(server.join().clean());
}

#[test]
fn graceful_drain_finishes_in_flight_work() {
    let q = query();
    let day = q.metric_days()[0];
    // One worker with a 150ms handler: requests sent just before
    // shutdown are in flight when the drain starts and must complete.
    let server = start(ServerConfig {
        workers: 1,
        chaos: Some(ChaosTaskPlan::default().with_rule(day as u64, None, ChaosAction::Delay(150))),
        drain_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();

    let path = format!("/v1/metrics/{day}");
    let in_flight: Vec<_> = (0..3)
        .map(|_| {
            let addr = addr.clone();
            let path = path.clone();
            std::thread::spawn(move || http_get(&addr, &path, CLIENT_TIMEOUT).unwrap().status)
        })
        .collect();
    // Let the requests reach the pipeline before draining.
    std::thread::sleep(Duration::from_millis(50));
    server.request_shutdown();
    let report = server.join();
    assert!(
        report.clean(),
        "drain aborted {} request(s)",
        report.aborted
    );
    for c in in_flight {
        assert_eq!(c.join().unwrap(), 200, "in-flight request lost in drain");
    }
}

#[test]
fn drain_deadline_abandons_stuck_work_and_reports_it() {
    let q = query();
    let day = q.metric_days()[0];
    // Handler sleeps 3s; drain deadline is 200ms: the drain must give
    // up and report the stuck request instead of hanging.
    let server = start(ServerConfig {
        workers: 1,
        chaos: Some(ChaosTaskPlan::default().with_rule(
            day as u64,
            None,
            ChaosAction::Delay(3_000),
        )),
        drain_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();

    let path = format!("/v1/metrics/{day}");
    let stuck = {
        let addr = addr.clone();
        std::thread::spawn(move || http_get(&addr, &path, CLIENT_TIMEOUT))
    };
    std::thread::sleep(Duration::from_millis(100));
    server.request_shutdown();
    let started = Instant::now();
    let report = server.join();
    assert!(!report.clean(), "a 3s handler cannot drain in 200ms");
    assert!(report.aborted >= 1);
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "drain deadline not enforced"
    );
    // The stuck client eventually gets its (late) answer from the
    // abandoned worker — the abort is about the drain contract, not
    // about resetting sockets out from under handlers.
    let _ = stuck.join().unwrap();
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    use osn_graph::testutil::HttpClient;

    let server = start(ServerConfig::default());
    let addr = server.local_addr().to_string();
    let q = query();
    let day = q.metric_days()[0];
    let expected = q.metrics_row_csv(day).unwrap().into_bytes();

    let mut client = HttpClient::connect(&addr).unwrap();
    // Mixed fast-path and data requests on the same socket, every body
    // byte-identical to the engine (the second data hit comes from the
    // response cache and must not differ).
    for _ in 0..3 {
        let resp = client
            .get(&format!("/v1/metrics/{day}"), CLIENT_TIMEOUT)
            .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, expected);
        let resp = client.get("/healthz", CLIENT_TIMEOUT).unwrap();
        assert_eq!(resp.status, 200);
    }
    let resp = client.get("/v1/days", CLIENT_TIMEOUT).unwrap();
    assert_eq!(resp.body, q.days_json().into_bytes());
    drop(client);

    // Give the server a beat to observe the hangup, then check the
    // books: one accept, many requests, nothing miscounted as an error.
    std::thread::sleep(Duration::from_millis(100));
    let stats = server.stats();
    assert_eq!(stats.accepted, 1, "keep-alive must reuse the connection");
    assert_eq!(stats.requests, 7);
    assert_eq!(stats.ok, 7);
    assert_eq!(
        stats.bad_heads, 0,
        "clean hangup must not count as a bad head"
    );

    server.request_shutdown();
    assert!(server.join().clean());
}

#[test]
fn pipelined_requests_answer_in_order() {
    use osn_graph::testutil::HttpClient;

    let server = start(ServerConfig::default());
    let addr = server.local_addr().to_string();
    let q = query();
    let days: Vec<u32> = q.metric_days().iter().take(3).copied().collect();
    assert!(days.len() >= 2, "need at least two days to prove ordering");

    // One burst carrying every request back-to-back; responses must come
    // back in request order with intact bodies.
    let mut burst = String::new();
    for day in &days {
        burst.push_str(&format!(
            "GET /v1/metrics/{day} HTTP/1.1\r\nHost: osn\r\n\r\n"
        ));
    }
    let mut client = HttpClient::connect(&addr).unwrap();
    client.send_raw(burst.as_bytes()).unwrap();
    for day in &days {
        let resp = client.read_response(CLIENT_TIMEOUT).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.body,
            q.metrics_row_csv(*day).unwrap().into_bytes(),
            "response out of order or torn for day {day}"
        );
    }

    server.request_shutdown();
    assert!(server.join().clean());
}

#[test]
fn gzip_responses_decompress_to_identical_bytes() {
    use osn_graph::gzip::gzip_decompress;
    use osn_graph::testutil::HttpClient;

    // The shared fixture's bodies are all under ~130 bytes, where the
    // gzip envelope inflates instead of shrinking; a dense metric-day
    // stride gives this drill a day listing long enough to compress.
    let log = TraceGenerator::new(TraceConfig::tiny()).generate();
    let q = Arc::new(
        SnapshotQuery::builder()
            .metrics(MetricSeriesConfig {
                stride: 2,
                path_sample: 10,
                clustering_sample: 20,
                workers: 2,
                ..Default::default()
            })
            .communities(CommunityAnalysisConfig {
                stride: 80,
                ..Default::default()
            })
            .build(&log),
    );
    let server = Server::start(ServerConfig::default(), Arc::clone(&q)).expect("server starts");
    let addr = server.local_addr().to_string();
    let day = q.metric_days()[0];
    let expected = q.metrics_row_csv(day).unwrap().into_bytes();

    let mut client = HttpClient::connect(&addr).unwrap();
    // Warm the cache with a plain request, then ask for gzip. The days
    // listing is the compressible body here (the per-day CSV rows are
    // tiny enough that gzip would inflate them — covered below).
    let days_json = q.days_json().into_bytes();
    let plain = client.get("/v1/days", CLIENT_TIMEOUT).unwrap();
    assert_eq!(plain.body, days_json);
    assert_eq!(plain.header("content-encoding"), None);

    let gz = client
        .get_with("/v1/days", &[("Accept-Encoding", "gzip")], CLIENT_TIMEOUT)
        .unwrap();
    assert_eq!(gz.status, 200);
    assert_eq!(gz.header("content-encoding"), Some("gzip"));
    assert!(
        gz.body.len() < days_json.len(),
        "gzip did not shrink the body"
    );
    assert_eq!(gzip_decompress(&gz.body).unwrap(), days_json);

    // A body the compressor cannot shrink is served as identity even
    // when the client accepts gzip — never pay to inflate.
    let small = client
        .get_with(
            &format!("/v1/metrics/{day}"),
            &[("Accept-Encoding", "gzip")],
            CLIENT_TIMEOUT,
        )
        .unwrap();
    assert_eq!(small.header("content-encoding"), None);
    assert_eq!(small.body, expected);

    // A client that does not accept gzip keeps getting identity bytes.
    let plain_again = client.get("/v1/days", CLIENT_TIMEOUT).unwrap();
    assert_eq!(plain_again.body, days_json);

    server.request_shutdown();
    assert!(server.join().clean());
}

#[test]
fn multi_shard_server_serves_all_routes_and_reports_per_shard_state() {
    let server = start(ServerConfig {
        shards: 3,
        workers: 3,
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();
    let q = query();
    let day = q.metric_days()[0];
    let expected = q.metrics_row_csv(day).unwrap().into_bytes();

    // Spray connections so every shard sees traffic (reuseport hashes by
    // 4-tuple; 24 distinct source ports cover 3 shards comfortably).
    let clients: Vec<_> = (0..24)
        .map(|_| {
            let addr = addr.clone();
            let path = format!("/v1/metrics/{day}");
            std::thread::spawn(move || http_get(&addr, &path, CLIENT_TIMEOUT).unwrap())
        })
        .collect();
    for c in clients {
        let resp = c.join().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, expected, "shard served different bytes");
    }

    // Per-shard state is visible on both surfaces.
    let stats = http_get(&addr, "/v1/stats", CLIENT_TIMEOUT).unwrap();
    let doc = osn_obs::json::parse(stats.body_str()).unwrap();
    let shards = doc
        .get("shards")
        .and_then(osn_obs::json::Json::as_arr)
        .expect("shards section");
    assert_eq!(shards.len(), 3);

    let prom = http_get(&addr, "/metrics", CLIENT_TIMEOUT).unwrap();
    let text = prom.body_str().to_string();
    for shard in 0..3 {
        for queue in ["triage", "work", "parked"] {
            assert!(
                text.contains(&format!(
                    "osn_http_queue_depth{{shard=\"{shard}\",queue=\"{queue}\"}}"
                )),
                "missing labeled gauge for shard {shard}/{queue}"
            );
        }
        assert!(text.contains(&format!("osn_http_shard_shed{{shard=\"{shard}\"}}")));
    }

    server.request_shutdown();
    assert!(server.join().clean());
}

#[test]
fn idle_keep_alive_connections_park_wake_and_cull() {
    use osn_graph::testutil::HttpClient;

    let server = start(ServerConfig {
        keepalive_timeout: Duration::from_millis(400),
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();

    // Idle well past the worker linger (so the connection goes back to
    // its shard loop), then send again: the loop must serve it again.
    let mut client = HttpClient::connect(&addr).unwrap();
    assert_eq!(client.get("/healthz", CLIENT_TIMEOUT).unwrap().status, 200);
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(client.get("/v1/meta", CLIENT_TIMEOUT).unwrap().status, 200);

    // Idle past the keep-alive budget: the server must close the parked
    // connection, and the close must be silent (no error counters).
    std::thread::sleep(Duration::from_millis(900));
    let err = client
        .send_get("/healthz", &[])
        .err()
        .or_else(|| client.read_response(Duration::from_secs(2)).err());
    assert!(
        err.is_some(),
        "idle connection survived the keep-alive cull"
    );

    let stats = server.stats();
    assert_eq!(stats.bad_heads, 0, "cull must not be scored as a bad head");
    assert_eq!(stats.accepted, 1);

    server.request_shutdown();
    assert!(server.join().clean());
}

#[test]
fn silent_peers_and_loris_drips_do_not_delay_probes() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr().to_string();
    let q = query();
    let path = format!("/v1/metrics/{}", q.metric_days()[0]);
    // Warm the response cache: the data probe below is a hit.
    assert_eq!(http_get(&addr, &path, CLIENT_TIMEOUT).unwrap().status, 200);

    // Eight connections that never send a byte and four that drip one
    // header byte every 20 ms, all inside their 2 s header window.
    let silent: Vec<std::net::TcpStream> = (0..8)
        .map(|_| std::net::TcpStream::connect(&addr).unwrap())
        .collect();
    let lorises: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                slow_loris(
                    &addr,
                    Duration::from_millis(20),
                    64 * 1024,
                    Duration::from_secs(30),
                )
                .unwrap()
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(200));

    for probe in ["/healthz", path.as_str()] {
        let started = Instant::now();
        let resp = http_get(&addr, probe, CLIENT_TIMEOUT).unwrap();
        let waited = started.elapsed();
        assert_eq!(resp.status, 200, "{probe}");
        assert!(
            waited < Duration::from_millis(250),
            "{probe} waited {waited:?} behind peers that send nothing"
        );
    }
    for loris in lorises {
        let out = loris.join().unwrap();
        assert!(
            out.server_terminated(),
            "a loris outlived the server: {out:?}"
        );
        if let ChaosHttpOutcome::Answered { response, .. } = &out {
            assert_eq!(response.status, 408);
        }
    }
    drop(silent);
    server.request_shutdown();
    assert!(server.join().clean());
}

#[test]
fn pipeliners_that_never_read_do_not_delay_probes() {
    use osn_graph::testutil::HttpClient;
    use osn_server::AccessLog;
    use std::io::Write;

    let server = start(ServerConfig {
        access_log: AccessLog::to_sink(Box::new(std::io::sink())),
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();

    // Two peers pipeline 100,000 probes each and never read an answer:
    // their answers back up until the server stops taking requests from
    // them. The peers stay connected until the probes are done.
    let burst = "GET /healthz HTTP/1.1\r\nHost: osn\r\n\r\n".repeat(100_000);
    let hogs: Vec<std::net::TcpStream> = (0..2)
        .map(|_| std::net::TcpStream::connect(&addr).unwrap())
        .collect();
    let writers: Vec<_> = hogs
        .iter()
        .map(|hog| {
            let mut stream = hog.try_clone().unwrap();
            let burst = burst.clone();
            std::thread::spawn(move || {
                let _ = stream.write_all(burst.as_bytes());
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(300));

    let mut client = HttpClient::connect(&addr).unwrap();
    for _ in 0..3 {
        let started = Instant::now();
        let resp = client.get("/healthz", CLIENT_TIMEOUT).unwrap();
        let waited = started.elapsed();
        assert_eq!(resp.status, 200);
        assert!(
            waited < Duration::from_millis(250),
            "/healthz waited {waited:?} behind peers that never read"
        );
        std::thread::sleep(Duration::from_millis(500));
    }
    drop(client);
    for hog in &hogs {
        let _ = hog.shutdown(std::net::Shutdown::Both);
    }
    for writer in writers {
        writer.join().unwrap();
    }
    drop(hogs);
    server.request_shutdown();
    assert!(server.join().clean());
}
