//! Corking drills: pipelined answers leave in one socket write per
//! burst, but never wait behind work that blocks — a cache miss, a
//! `POST /v1/events` body, a drain.
//!
//! The drills hold one lock each: the write count is the process-wide
//! `http.writes` counter, so no other server in this binary may write
//! while it is read.

use osn_core::communities::CommunityAnalysisConfig;
use osn_core::network::MetricSeriesConfig;
use osn_core::query::SnapshotQuery;
use osn_genstream::{TraceConfig, TraceGenerator};
use osn_graph::testutil::HttpClient;
use osn_graph::wal::{Wal, WalOptions};
use osn_metrics::supervisor::{ChaosAction, ChaosTaskPlan};
use osn_server::{Server, ServerConfig, WritePlaneConfig};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

fn query() -> Arc<SnapshotQuery> {
    static Q: OnceLock<Arc<SnapshotQuery>> = OnceLock::new();
    Arc::clone(Q.get_or_init(|| {
        let log = TraceGenerator::new(TraceConfig::tiny()).generate();
        let q = SnapshotQuery::builder()
            .metrics(MetricSeriesConfig {
                stride: 20,
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

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn start(cfg: ServerConfig) -> Server {
    Server::start(cfg, query()).expect("server starts")
}

fn get(path: &str) -> String {
    format!("GET {path} HTTP/1.1\r\nHost: osn\r\n\r\n")
}

fn writes() -> u64 {
    osn_obs::counter("http.writes").value()
}

#[test]
fn pipelined_gets_leave_in_one_write() {
    let _serial = serial();
    let server = start(ServerConfig::default());
    let addr = server.local_addr().to_string();
    let q = query();
    let metric_days = q.metric_days();
    let days: Vec<u32> = (0..16)
        .map(|i| metric_days[i % metric_days.len()])
        .collect();
    let burst: String = days
        .iter()
        .map(|d| get(&format!("/v1/metrics/{d}")))
        .collect();

    let mut client = HttpClient::connect(&addr).unwrap();
    // First pass fills the response cache: a miss flushes before its
    // handler runs, so only hits can share a write.
    client.send_raw(burst.as_bytes()).unwrap();
    for _ in &days {
        assert_eq!(client.read_response(CLIENT_TIMEOUT).unwrap().status, 200);
    }

    let before = writes();
    client.send_raw(burst.as_bytes()).unwrap();
    for day in &days {
        let resp = client.read_response(CLIENT_TIMEOUT).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, q.metrics_row_csv(*day).unwrap().into_bytes());
    }
    let used = writes() - before;
    assert!(
        (1..=2).contains(&used),
        "16 pipelined answers took {used} socket writes"
    );

    drop(client);
    server.request_shutdown();
    assert!(server.join().clean());
}

#[test]
fn pipelined_hits_after_an_idle_spell_leave_in_one_write() {
    let _serial = serial();
    let server = start(ServerConfig::default());
    let addr = server.local_addr().to_string();
    let q = query();
    let metric_days = q.metric_days();
    let days: Vec<u32> = (0..16)
        .map(|i| metric_days[i % metric_days.len()])
        .collect();
    let burst: String = days
        .iter()
        .map(|d| get(&format!("/v1/metrics/{d}")))
        .collect();

    let mut client = HttpClient::connect(&addr).unwrap();
    client.send_raw(burst.as_bytes()).unwrap();
    for _ in &days {
        assert_eq!(client.read_response(CLIENT_TIMEOUT).unwrap().status, 200);
    }
    // Idle well past the worker linger: the burst below reaches a
    // connection no worker holds any more.
    std::thread::sleep(Duration::from_millis(20));

    let before = writes();
    client.send_raw(burst.as_bytes()).unwrap();
    for day in &days {
        let resp = client.read_response(CLIENT_TIMEOUT).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, q.metrics_row_csv(*day).unwrap().into_bytes());
    }
    let used = writes() - before;
    assert!(
        (1..=2).contains(&used),
        "16 pipelined answers after an idle spell took {used} socket writes"
    );

    drop(client);
    server.request_shutdown();
    assert!(server.join().clean());
}

#[test]
fn answer_ahead_of_a_slow_cache_miss_is_not_held() {
    let _serial = serial();
    let q = query();
    let (fast, slow) = (q.metric_days()[0], q.metric_days()[1]);
    let server = start(ServerConfig {
        workers: 1,
        chaos: Some(ChaosTaskPlan::default().with_rule(
            u64::from(slow),
            None,
            ChaosAction::Delay(1_500),
        )),
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();

    let mut client = HttpClient::connect(&addr).unwrap();
    let sent = Instant::now();
    let burst = get(&format!("/v1/metrics/{fast}")) + &get(&format!("/v1/metrics/{slow}"));
    client.send_raw(burst.as_bytes()).unwrap();
    let first = client.read_response(CLIENT_TIMEOUT).unwrap();
    let waited = sent.elapsed();
    assert_eq!(first.body, q.metrics_row_csv(fast).unwrap().into_bytes());
    assert!(
        waited < Duration::from_millis(750),
        "the first answer waited {waited:?} behind the slow handler"
    );
    let second = client.read_response(CLIENT_TIMEOUT).unwrap();
    assert_eq!(second.body, q.metrics_row_csv(slow).unwrap().into_bytes());

    drop(client);
    server.request_shutdown();
    assert!(server.join().clean());
}

#[test]
fn answer_ahead_of_a_withheld_post_body_is_not_held() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("osn-corking-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let opts = WalOptions {
        fsync: false,
        ..WalOptions::default()
    };
    let (wal, _) = Wal::open_default(&dir.join("trace.events"), opts).unwrap();
    let server = start(ServerConfig {
        write: Some(WritePlaneConfig::new(Arc::new(wal), vec!["t".into()])),
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();
    let q = query();
    let day = q.metric_days()[0];

    let body = b"N 0 core\n";
    let mut client = HttpClient::connect(&addr).unwrap();
    let burst = get(&format!("/v1/metrics/{day}"))
        + &format!(
            "POST /v1/events HTTP/1.1\r\nHost: osn\r\nAuthorization: Bearer t\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        );
    client.send_raw(burst.as_bytes()).unwrap();
    // The body is still withheld: the GET's answer must not wait for it.
    let first = client.read_response(Duration::from_secs(2)).unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(first.body, q.metrics_row_csv(day).unwrap().into_bytes());
    client.send_raw(body).unwrap();
    let ack = client.read_response(CLIENT_TIMEOUT).unwrap();
    assert_eq!(ack.status, 201, "{}", ack.body_str());

    drop(client);
    server.request_shutdown();
    assert!(server.join().clean());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn answers_corked_when_drain_starts_still_reach_the_peer() {
    let _serial = serial();
    let q = query();
    let day = q.metric_days()[0];
    // The drain starts while the worker is inside the slow handler; its
    // answer is corked (the next head is buffered), and the connection
    // is then closed instead of serving the next request.
    let server = start(ServerConfig {
        workers: 1,
        chaos: Some(ChaosTaskPlan::default().with_rule(
            u64::from(day),
            None,
            ChaosAction::Delay(300),
        )),
        drain_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();

    let mut client = HttpClient::connect(&addr).unwrap();
    let burst = get(&format!("/v1/metrics/{day}")) + &get("/healthz");
    client.send_raw(burst.as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    server.request_shutdown();
    let first = client.read_response(CLIENT_TIMEOUT).unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(first.body, q.metrics_row_csv(day).unwrap().into_bytes());
    assert!(server.join().clean());
}
