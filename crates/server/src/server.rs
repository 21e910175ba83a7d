//! The daemon: one `poll(2)` loop per shard → bounded per-shard work
//! queues → handler workers with keep-alive continuation, explicit load
//! shedding at every hand-off, and a deadline-bounded graceful drain.
//!
//! ```text
//!   shard 0..N  (one SO_REUSEPORT listener each, else clones of one)
//!        │
//!   loop (1 thread per shard): one poll(2) over its listener and every
//!   connection no worker holds; nonblocking reads and corked writes
//!   - accept; 128 connections awaiting a first head ⇒ raw 503, no read
//!   - header window over ⇒ 408 (slow-loris cutoff); idle past
//!     --keepalive-timeout ⇒ close; answers untaken for 5 s ⇒ close
//!   - answered HERE, never queued: /healthz, /readyz, /v1/meta,
//!     /v1/stats, /v1/head, /metrics, response-cache hits, 4xx,
//!     write-admission rejections — so probes stay green while the
//!     work queue burns
//!        │  cache misses + admitted POST /v1/events
//!        │  try_send ── full ⇒ 503 + Retry-After
//!        ▼
//!   work queue (bounded, --queue-depth per shard)
//!        │
//!   handler workers (--workers split across shards)
//!   - per-request soft deadline net of queue wait
//!   - catch_unwind panic isolation via the shared supervisor
//!   - keep-alive continuation: pipelined requests on the same
//!     connection are answered in arrival order without re-queueing,
//!     up to a fairness burst; after it, or 1 ms without a next
//!     request, the connection goes back to its loop
//!   - answers are corked: one socket write per burst (`http::Conn`)
//! ```
//!
//! Shutdown: flip the shared flag → loops stop accepting and close idle
//! connections, answer or queue what they still hold (heads still
//! arriving keep their header window) and exit once they hold nothing;
//! workers drain their queue and close kept-alive connections after the
//! current response. The coordinator waits up to the drain deadline;
//! whatever is still unanswered after that is *aborted* (reported, and
//! mapped to exit 4 by the CLI).

use crate::accesslog::{AccessLog, ServerStats, StatsSnapshot};
use crate::cache::{CacheKind, ResponseCache};
use crate::handlers::{handle, Handled, HandlerPolicy};
use crate::http::{
    Conn, ConnProgress, HeadError, RequestHead, Response, MAX_CORKED_BYTES, RAW_SHED_503,
};
use crate::net::{bind_shard_listeners, wake_pair, PollSet, WakeRx, Waker};
use crate::router::{route, Route};
use crate::write::{WritePlaneConfig, WriteState};
use osn_core::live::LiveQuery;
use osn_core::query::SnapshotQuery;
use osn_metrics::supervisor::ChaosTaskPlan;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{
    channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError,
};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hard cap on auto-detected shards: beyond this more loops stop
/// paying for themselves on the workloads this daemon sees.
const MAX_AUTO_SHARDS: usize = 8;

/// Connections a loop holds that still await their first head. Past it
/// a new connection gets a raw 503 without a read, so a connect flood
/// hits a hard wall instead of growing fds without bound.
const ACCEPT_BACKLOG: usize = 128;

/// Socket write timeout for a worker's responses; in a loop, how long
/// answers may wait for the peer to take them before the connection is
/// closed.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// How long a worker lingers on a kept-alive connection waiting for the
/// next pipelined request before handing it back to its loop.
/// Closed-loop clients answer well inside this.
const WORKER_LINGER: Duration = Duration::from_millis(1);

/// Requests a worker answers on one connection before handing it back
/// to its loop, so one chatty pipeliner cannot pin a worker while other
/// connections queue.
const WORKER_BURST: u64 = 64;

/// Longest wait in a loop's poll or a worker's dequeue: how often they
/// re-check deadlines and the shutdown flag. Bounds drain latency, not
/// request latency.
const STAGE_TICK: Duration = Duration::from_millis(20);
/// Everything `Server::start` needs. `Default` gives the classic
/// single-shard values; tests override the knobs they are drilling.
/// `osn serve` also runs one shard unless `--shards` says otherwise;
/// `--shards 0` asks for one per core.
#[derive(Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Handler worker threads, split across shards; 0 = all cores minus
    /// one, at least one per shard.
    pub workers: usize,
    /// Bound on each shard's work queue; beyond it requests are shed.
    pub queue_depth: usize,
    /// Per-request soft deadline, covering queue wait plus handling.
    pub request_timeout: Duration,
    /// Budget for reading one request head, counted from accept for the
    /// first request and re-armed per request on kept-alive connections.
    pub header_timeout: Duration,
    /// How long a drain may take before in-flight work is abandoned.
    pub drain_timeout: Duration,
    /// Transient handler retries before a 503.
    pub retries: u32,
    /// Deterministic fault injection for the serving plane (drills
    /// only). Keys are snapshot days. Also disables the response cache:
    /// chaos drills rely on every request reaching a handler.
    pub chaos: Option<ChaosTaskPlan>,
    /// Access-line sink.
    pub access_log: AccessLog,
    /// Durable write plane (`POST /v1/events`). `None` — the default —
    /// keeps the daemon read-only: the route answers `403`.
    pub write: Option<WritePlaneConfig>,
    /// Loop/queue shards. 1 = one loop; 0 = one shard per core
    /// (capped); N = exactly N shards, each with its own `SO_REUSEPORT`
    /// listener, loop, work queue and workers.
    pub shards: usize,
    /// Idle keep-alive connections are closed after this long with no
    /// request bytes.
    pub keepalive_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_depth: 64,
            request_timeout: Duration::from_secs(5),
            header_timeout: Duration::from_secs(2),
            drain_timeout: Duration::from_secs(5),
            retries: 0,
            chaos: None,
            access_log: AccessLog::default(),
            write: None,
            shards: 1,
            keepalive_timeout: Duration::from_secs(5),
        }
    }
}
/// What happened to in-flight work when the server went down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Connections still unanswered when the drain deadline expired.
    /// `0` means a clean drain.
    pub aborted: usize,
}

impl DrainReport {
    /// True when every in-flight request finished before the deadline.
    pub fn clean(&self) -> bool {
        self.aborted == 0
    }
}

/// Per-shard observability: queue-depth gauges and a shed counter, all
/// registered in `osn-obs` under `http.shard.{i}.*` so they surface in
/// the `/v1/stats` telemetry document, plus rendered with a `shard`
/// label on `/metrics`.
#[derive(Debug)]
struct ShardStats {
    triage_depth: Arc<osn_obs::Gauge>,
    work_depth: Arc<osn_obs::Gauge>,
    parked: Arc<osn_obs::Gauge>,
    shed: Arc<osn_obs::Counter>,
}

impl ShardStats {
    fn new(shard: usize) -> ShardStats {
        ShardStats {
            triage_depth: osn_obs::gauge(&format!("http.shard.{shard}.triage_depth")),
            work_depth: osn_obs::gauge(&format!("http.shard.{shard}.work_depth")),
            parked: osn_obs::gauge(&format!("http.shard.{shard}.parked")),
            shed: osn_obs::counter(&format!("http.shard.{shard}.shed")),
        }
    }
}

/// Decrements `in_flight` when the connection is dropped, however it is
/// dropped — answered, shed, culled as idle, or abandoned by a
/// panicking stage.
#[derive(Debug)]
struct Ticket(Arc<Shared>);

impl Drop for Ticket {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::Release);
    }
}

/// One accepted connection moving through the shard pipeline.
#[derive(Debug)]
struct Flow {
    conn: Conn,
    _ticket: Ticket,
}

/// A parsed request waiting for a handler worker.
struct Job {
    flow: Flow,
    head: RequestHead,
    route: Route,
    /// When this request's budget opened: accept time for a fresh
    /// connection, parse time for a kept-alive continuation.
    started: Instant,
}
/// Shared state every stage touches.
#[derive(Debug)]
struct Shared {
    live: Arc<LiveQuery>,
    stats: ServerStats,
    log: AccessLog,
    shutdown: AtomicBool,
    /// Connections accepted but not yet answered-and-closed (includes
    /// idle keep-alive connections).
    in_flight: AtomicU64,
    /// Loop and worker threads still running.
    live_threads: AtomicUsize,
    request_timeout: Duration,
    header_timeout: Duration,
    keepalive_timeout: Duration,
    retries: u32,
    chaos: Option<ChaosTaskPlan>,
    write: Option<WriteState>,
    cache: Option<ResponseCache>,
    shards: Vec<ShardStats>,
}

impl Shared {
    fn finish(
        &self,
        shard: usize,
        method: &str,
        path: &str,
        status: u16,
        since: Instant,
        reason: &str,
    ) {
        let elapsed = since.elapsed();
        let load_shed =
            reason == "shed" || reason == "timed-out" || reason == "transient-exhausted";
        self.stats
            .count_response(status, load_shed, reason == "panicked");
        if load_shed && !(200..=499).contains(&status) {
            // Mirror of `count_response`'s shed classification, kept
            // per shard so the drills can sum shard sheds to the global.
            self.shards[shard].shed.inc();
        }
        record_http_telemetry(path, status, elapsed, load_shed);
        self.log.record(method, path, status, elapsed, reason);
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }
}

/// Per-route latency histograms plus shed/status counters. The route
/// label set is closed, so every handle resolves through a cached
/// per-call-site lookup — no allocation on the request path.
fn record_http_telemetry(path: &str, status: u16, elapsed: Duration, load_shed: bool) {
    if !osn_obs::enabled() {
        return;
    }
    let hist = match path {
        "/healthz" => osn_obs::histogram!("http.latency_us.healthz"),
        "/readyz" => osn_obs::histogram!("http.latency_us.readyz"),
        "/v1/meta" => osn_obs::histogram!("http.latency_us.meta"),
        "/v1/days" => osn_obs::histogram!("http.latency_us.days"),
        "/v1/stats" => osn_obs::histogram!("http.latency_us.stats"),
        "/v1/head" => osn_obs::histogram!("http.latency_us.head"),
        "/v1/events" => osn_obs::histogram!("http.latency_us.events"),
        "/metrics" => osn_obs::histogram!("http.latency_us.prometheus"),
        p if p.starts_with("/v1/metrics/") => osn_obs::histogram!("http.latency_us.metrics"),
        p if p.starts_with("/v1/communities/") => {
            osn_obs::histogram!("http.latency_us.communities")
        }
        "-" => osn_obs::histogram!("http.latency_us.unparsed"),
        _ => osn_obs::histogram!("http.latency_us.other"),
    };
    hist.record_duration(elapsed);
    osn_obs::counter!("http.responses").inc();
    if load_shed {
        osn_obs::counter!("http.shed").inc();
    }
    match status {
        408 => osn_obs::counter!("http.status.408").inc(),
        431 => osn_obs::counter!("http.status.431").inc(),
        500 => osn_obs::counter!("http.status.500").inc(),
        503 => osn_obs::counter!("http.status.503").inc(),
        _ => {}
    }
}
/// A running daemon. In batch mode ([`Server::start`]) startup is
/// all-or-nothing: the trace analyses were already materialised into the
/// [`SnapshotQuery`] before `start`, so by the time `start` returns the
/// server answers every endpoint. In follow mode ([`Server::start_live`])
/// the snapshot behind the [`LiveQuery`] may still be empty or stale;
/// data endpoints answer `503` + `Retry-After` until the first publish,
/// and `/v1/head` reports staleness throughout.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    drain_timeout: Duration,
}

impl Server {
    /// Bind, spawn the shards, and return once the listeners are live.
    /// Serves one frozen snapshot (batch mode).
    pub fn start(cfg: ServerConfig, query: Arc<SnapshotQuery>) -> io::Result<Server> {
        Server::start_live(cfg, LiveQuery::fixed(query))
    }

    /// Bind and serve whatever the [`LiveQuery`] currently publishes —
    /// the follow-mode entry point, where an ingest head keeps swapping
    /// fresher snapshots in behind this handle.
    pub fn start_live(cfg: ServerConfig, live: Arc<LiveQuery>) -> io::Result<Server> {
        // The daemon always runs instrumented: `/v1/stats` and `/metrics`
        // must answer with live numbers, and the per-record cost is one
        // relaxed atomic add on paths that already take a mutex.
        osn_obs::set_enabled(true);
        let shards = if cfg.shards == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .clamp(1, MAX_AUTO_SHARDS)
        } else {
            cfg.shards
        };
        let workers_total = if cfg.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get().saturating_sub(1))
                .unwrap_or(1)
                .max(1)
        } else {
            cfg.workers
        };
        let workers_per_shard = (workers_total / shards).max(1);

        let (listeners, addr) = bind_shard_listeners(&cfg.addr, shards)?;

        let shared = Arc::new(Shared {
            live,
            stats: ServerStats::default(),
            log: cfg.access_log,
            shutdown: AtomicBool::new(false),
            in_flight: AtomicU64::new(0),
            live_threads: AtomicUsize::new(shards * (1 + workers_per_shard)),
            request_timeout: cfg.request_timeout,
            header_timeout: cfg.header_timeout,
            keepalive_timeout: cfg.keepalive_timeout,
            retries: cfg.retries,
            chaos: cfg.chaos.clone(),
            write: cfg.write.map(WriteState::new),
            cache: cfg.chaos.is_none().then(ResponseCache::default),
            shards: (0..shards).map(ShardStats::new).collect(),
        });

        let mut threads = Vec::with_capacity(shards * (1 + workers_per_shard));
        for (shard, listener) in listeners.into_iter().enumerate() {
            // The loop owns the only sender: once it exits and the queue
            // is drained, the workers see the channel disconnect.
            let (work_tx, work_rx) = sync_channel::<Job>(cfg.queue_depth);
            let (back_tx, back_rx) = channel::<Flow>();
            let (wake_rx, waker) = wake_pair()?;
            let work_rx = Arc::new(Mutex::new(work_rx));
            for i in 0..workers_per_shard {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&work_rx);
                let home = Home {
                    tx: back_tx.clone(),
                    waker: waker.clone(),
                };
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("osn-worker-{shard}-{i}"))
                        .spawn(move || worker_loop(&shared, shard, &rx, &home))?,
                );
            }
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("osn-loop-{shard}"))
                    .spawn(move || {
                        shard_loop(&shared, shard, &listener, &wake_rx, &back_rx, &work_tx)
                    })?,
            );
        }

        Ok(Server {
            addr,
            shared,
            threads,
            drain_timeout: cfg.drain_timeout,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Begin a graceful drain: stop accepting, finish in-flight work.
    /// Idempotent; does not block — follow with [`Server::join`].
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
    }

    /// Wait for shutdown (someone must call [`Server::request_shutdown`]
    /// or this blocks forever), then drain: every thread finishes what
    /// it already holds, bounded by the drain deadline. Whatever is still
    /// unanswered at the deadline is abandoned and reported.
    pub fn join(self) -> DrainReport {
        while !self.shared.shutting_down() {
            std::thread::sleep(STAGE_TICK);
        }
        let deadline = Instant::now() + self.drain_timeout;
        loop {
            if self.shared.live_threads.load(Ordering::Acquire) == 0 {
                for h in self.threads {
                    let _ = h.join();
                }
                return DrainReport { aborted: 0 };
            }
            if Instant::now() >= deadline {
                // Stuck threads stay detached; the process exit (or the
                // test harness) reclaims them. Their connections count
                // as aborted.
                return DrainReport {
                    aborted: self.shared.in_flight.load(Ordering::Acquire) as usize,
                };
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// Decrement a live-count even if a thread panics.
struct CountGuard<'a>(&'a AtomicUsize);

impl Drop for CountGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

/// `503` for data requests that arrive before the live head has
/// published its first snapshot: a degradation, not an error — the
/// client backs off and retries, and `/v1/head` explains the state.
fn not_ready_response(shared: &Shared) -> Response {
    let mut r = Response::text(
        503,
        &format!(
            "no snapshot published yet (ingest {})\n",
            shared.live.health().as_str()
        ),
    );
    r.retry_after = Some(1);
    r
}

/// Inline responses for routes that must not depend on worker capacity.
fn fast_response(shared: &Shared, r: Route) -> Response {
    match r {
        Route::Health => Response::text(200, "ok\n"),
        Route::Ready => match shared.live.get() {
            Some(query) => {
                let meta = query.meta();
                Response::json(
                    200,
                    format!(
                        "{{\"ready\":true,\"days\":{},\"nodes\":{},\"fingerprint\":\"{:016x}\"}}",
                        meta.num_days, meta.num_nodes, meta.fingerprint
                    ),
                )
            }
            // Follow mode before the first publish: alive but not ready.
            None => {
                let mut r = Response::json(
                    503,
                    format!(
                        "{{\"ready\":false,\"ingest\":\"{}\"}}",
                        shared.live.health().as_str()
                    ),
                );
                r.retry_after = Some(1);
                r
            }
        },
        Route::Meta => match shared.live.get() {
            Some(query) => Response::json(200, query.meta_json(env!("CARGO_PKG_VERSION"))),
            None => not_ready_response(shared),
        },
        Route::Head => Response::json(200, shared.live.head_json()),
        Route::Stats => {
            // Serving-plane counters, per-shard queue state, and the
            // full telemetry snapshot in one document; all renderings
            // are single-line JSON.
            let mut shards_json = String::from("[");
            for (i, s) in shared.shards.iter().enumerate() {
                if i > 0 {
                    shards_json.push(',');
                }
                shards_json.push_str(&format!(
                    "{{\"triage\":{},\"work\":{},\"parked\":{},\"shed\":{}}}",
                    s.triage_depth.value(),
                    s.work_depth.value(),
                    s.parked.value(),
                    s.shed.value(),
                ));
            }
            shards_json.push(']');
            let cache_json = match &shared.cache {
                Some(cache) => {
                    let (m, c, d) = cache.sizes();
                    format!("{{\"enabled\":true,\"metrics\":{m},\"communities\":{c},\"days\":{d}}}")
                }
                None => "{\"enabled\":false}".to_string(),
            };
            let body = format!(
                "{{\"server\":{},\"shards\":{},\"cache\":{},\"telemetry\":{}}}",
                shared.stats.snapshot().to_json(),
                shards_json,
                cache_json,
                osn_obs::snapshot().to_json()
            );
            Response::json(200, body)
        }
        Route::Prometheus => {
            let s = shared.stats.snapshot();
            let mut body = String::new();
            for (name, v) in [
                ("osn_server_accepted", s.accepted),
                ("osn_server_requests", s.requests),
                ("osn_server_ok", s.ok),
                ("osn_server_client_error", s.client_error),
                ("osn_server_server_error", s.server_error),
                ("osn_server_shed", s.shed),
                ("osn_server_panicked", s.panicked),
                ("osn_server_bad_heads", s.bad_heads),
            ] {
                body.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
            }
            // Per-shard queue state as one labeled gauge family (the
            // global `osn_http_queue_depth` of the unsharded daemon),
            // plus per-shard shed counters.
            body.push_str("# TYPE osn_http_queue_depth gauge\n");
            for (i, sh) in shared.shards.iter().enumerate() {
                for (queue, v) in [
                    ("triage", sh.triage_depth.value()),
                    ("work", sh.work_depth.value()),
                    ("parked", sh.parked.value()),
                ] {
                    body.push_str(&format!(
                        "osn_http_queue_depth{{shard=\"{i}\",queue=\"{queue}\"}} {v}\n"
                    ));
                }
            }
            body.push_str("# TYPE osn_http_shard_shed counter\n");
            for (i, sh) in shared.shards.iter().enumerate() {
                body.push_str(&format!(
                    "osn_http_shard_shed{{shard=\"{i}\"}} {}\n",
                    sh.shed.value()
                ));
            }
            // Live-head freshness as first-class gauges, so scrapers do
            // not have to parse the `/v1/head` JSON. `published_day` is
            // -1 until the first publish (Prometheus has no null).
            let day = shared.live.published_day().map(|d| d as i64).unwrap_or(-1);
            for (name, v) in [
                ("osn_head_published", i64::from(shared.live.is_published())),
                ("osn_head_published_day", day),
                ("osn_head_lag_events", shared.live.lag_events() as i64),
                ("osn_head_lag_bytes", shared.live.lag_bytes() as i64),
                ("osn_head_staleness_ms", shared.live.staleness_ms() as i64),
            ] {
                body.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
            }
            if let Some(write) = &shared.write {
                let w = write.wal().stats();
                for (name, v) in [
                    ("osn_wal_appends", w.appends),
                    ("osn_wal_duplicates", w.duplicates),
                    ("osn_wal_fsyncs", w.fsyncs),
                    ("osn_wal_last_seq", w.last_seq),
                ] {
                    body.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
                }
                body.push_str(&format!(
                    "# TYPE osn_wal_sync_queue gauge\nosn_wal_sync_queue {}\n",
                    write.wal().sync_queue_depth()
                ));
            }
            body.push_str(&osn_obs::snapshot().to_prometheus());
            Response::text(200, &body)
        }
        Route::BadDay => Response::text(400, "day must be a non-negative integer\n"),
        Route::NotFound => Response::text(404, "no such endpoint\n"),
        Route::MethodNotAllowed => Response::text(405, "only GET is supported\n"),
        work => unreachable!("work route {work:?} is not fast-path"),
    }
}

/// What to do with the connection after a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Disposition {
    KeepAlive,
    Close,
}

/// Answer a head-read failure. `HeadError::Closed` (clean keep-alive
/// hangup) is silent; everything else gets a best-effort closing
/// response plus an access line.
fn fail_head(shared: &Shared, shard: usize, conn: &mut Conn, err: HeadError) {
    if err == HeadError::Closed {
        return;
    }
    let since = request_start(conn);
    shared.stats.bad_heads.fetch_add(1, Ordering::Relaxed);
    let status = match err {
        HeadError::TimedOut => Some(408),
        HeadError::TooLarge => Some(431),
        HeadError::Malformed => Some(400),
        // Peer vanished: nobody is listening for a response.
        HeadError::ConnectionLost | HeadError::Closed => None,
    };
    if let Some(status) = status {
        let resp = Response::text(status, &format!("{}\n", err.as_str()));
        let _ = conn.write_response(&resp, WRITE_TIMEOUT, true);
    }
    shared.finish(shard, "-", "-", status.unwrap_or(0), since, err.as_str());
}

/// When `conn`'s current request started: accept time for the first
/// one, the opening of its window for a kept-alive continuation.
fn request_start(conn: &Conn) -> Instant {
    if conn.served == 0 {
        conn.accepted
    } else {
        conn.anchor()
    }
}

/// Serve one cacheable data route, consulting the hot-day cache when a
/// consistent (generation-stable) snapshot view is available and the
/// loop has not `checked` it already. Without a `policy` (a loop) a miss
/// returns `None`; with one, it flushes `conn`'s corked answers and runs
/// the handler.
fn handle_data(
    shared: &Shared,
    conn: &mut Conn,
    head: &RequestHead,
    route: Route,
    checked: bool,
    policy: Option<&HandlerPolicy>,
) -> Option<Handled> {
    // Read the generation on both sides of the snapshot fetch: equal
    // means the Arc belongs to that generation and cache entries may be
    // keyed to it; unequal means a publish raced us, so skip the cache
    // for this request rather than risk filing a body under the wrong
    // generation.
    let g1 = shared.live.generation();
    let query = shared.live.get();
    let generation = (shared.live.generation() == g1).then_some(g1);
    let Some(query) = query else {
        return Some(Handled {
            response: not_ready_response(shared),
            reason: "not-ready",
        });
    };
    let (kind, day) = match route {
        Route::Days => (CacheKind::Days, 0),
        Route::Metrics(day) => (CacheKind::Metrics, day),
        Route::Communities(day) => (CacheKind::Communities, day),
        other => unreachable!("non-data route {other:?} in handle_data"),
    };
    let cache = shared.cache.as_ref().zip(generation);
    if let Some((cache, generation)) = cache.filter(|_| !checked) {
        // Days strictly below the latest published day are immutable
        // history: entries for them survive publishes.
        let frozen_below = query.meta().num_days.saturating_sub(1);
        if let Some(hit) = cache.lookup(kind, day, generation, frozen_below) {
            let content_type = match kind {
                CacheKind::Days => "application/json",
                _ => "text/csv; charset=utf-8",
            };
            return Some(Handled {
                response: cached_response(content_type, hit, head.accept_gzip),
                reason: "-",
            });
        }
    }
    let policy = policy?;
    let _ = conn.flush();
    let mut handled = handle(&query, route, policy);
    if handled.response.status == 200 {
        if let Some((cache, generation)) = cache {
            let content_type = handled.response.content_type;
            let body = std::mem::replace(
                &mut handled.response.body,
                crate::http::Body::Owned(Vec::new()),
            )
            .into_vec();
            let stored = cache.store(kind, day, generation, body);
            handled.response = cached_response(content_type, stored, head.accept_gzip);
        }
    }
    Some(handled)
}

fn cached_response(
    content_type: &'static str,
    body: crate::cache::CachedBody,
    accept_gzip: bool,
) -> Response {
    if accept_gzip && body.gzip.len() < body.plain.len() {
        Response::cached(content_type, body.gzip, true)
    } else {
        Response::cached(content_type, body.plain, false)
    }
}

/// Write admission for `POST /v1/events`: auth, rate budget, and the
/// fsync/lag valves, all cheap header-only checks that run before the
/// request can hold a queue slot or a worker, so a write flood cannot
/// starve queued reads. `Some` is the rejection and its access reason.
fn admit_post(shared: &Shared, head: &RequestHead) -> Option<(Response, &'static str)> {
    match &shared.write {
        None => Some((
            Response::text(403, "write plane disabled (start with --accept-writes)\n"),
            "denied",
        )),
        Some(w) => w.admit(head, &shared.live).map(|resp| {
            let reason = match resp.status {
                429 | 503 => "shed",
                _ => "denied",
            };
            (resp, reason)
        }),
    }
}

/// Answer one parsed request: fast path, write plane, or cached and
/// supervised data handling. Writes the response and the access line,
/// and returns the keep-alive verdict.
///
/// `checked` says a loop already ran this request's write admission or
/// cache lookup. Without a `policy` (a loop) nothing blocks or computes:
/// `None` means the request needs a worker.
#[allow(clippy::too_many_arguments)]
fn respond(
    shared: &Shared,
    shard: usize,
    conn: &mut Conn,
    head: &RequestHead,
    route: Route,
    started: Instant,
    checked: bool,
    policy: Option<&mut HandlerPolicy>,
) -> Option<Disposition> {
    let (handled, mut disposition) = if route.is_fast_path() {
        (
            Handled {
                response: fast_response(shared, route),
                reason: "-",
            },
            Disposition::KeepAlive,
        )
    } else if matches!(route, Route::PostEvents) {
        let rejection = if checked {
            None
        } else {
            admit_post(shared, head)
        };
        match rejection {
            // The body was never read: the connection cannot be reused
            // (the unread body would be parsed as the next head).
            Some((response, reason)) => (Handled { response, reason }, Disposition::Close),
            None => {
                // A loop queues an admitted write for a worker.
                policy?;
                let write = shared.write.as_ref().expect("admitted with a write plane");
                // The body read and the group-commit wait block: corked
                // answers go out first.
                let _ = conn.flush();
                let handled = write.handle_post(conn, head, started + shared.request_timeout);
                // Only a 2xx proves the body was consumed in full.
                let disposition = if handled.response.status < 300 {
                    Disposition::KeepAlive
                } else {
                    Disposition::Close
                };
                (handled, disposition)
            }
        }
    } else {
        let handled = match policy {
            None => handle_data(shared, conn, head, route, checked, None)?,
            Some(policy) => match shared.request_timeout.checked_sub(started.elapsed()) {
                // The request's whole budget evaporated in the queue: shed
                // it now instead of doing work nobody is waiting for.
                None => Handled {
                    response: Response::shed("expired-in-queue"),
                    reason: "timed-out",
                },
                Some(budget) => {
                    policy.deadline = Some(budget);
                    handle_data(shared, conn, head, route, checked, Some(&*policy))?
                }
            },
        };
        (handled, Disposition::KeepAlive)
    };
    if head.wants_close {
        disposition = Disposition::Close;
    }
    // A request body only ever gets consumed on the write-plane path; a
    // body on any other route is left sitting in the socket, where it
    // would be parsed as the next request head. Close instead.
    if head.content_length.unwrap_or(0) > 0 && !matches!(route, Route::PostEvents) {
        disposition = Disposition::Close;
    }
    let status = handled.response.status;
    let close = disposition == Disposition::Close;
    let write_ok = conn
        .write_response(&handled.response, WRITE_TIMEOUT, close)
        .is_ok();
    shared.finish(
        shard,
        &head.method,
        &head.path,
        status,
        started,
        handled.reason,
    );
    conn.served += 1;
    Some(if write_ok {
        disposition
    } else {
        Disposition::Close
    })
}

/// A worker's way back to its shard loop.
struct Home {
    tx: Sender<Flow>,
    waker: Waker,
}

impl Home {
    /// Hand a kept-alive connection back to the loop, buffered bytes and
    /// corked answers included. Once the loop has exited (drain), the
    /// connection closes instead.
    fn give_back(&self, flow: Flow) {
        if self.tx.send(flow).is_ok() {
            self.waker.wake();
        }
    }
}

/// After a response on a kept-alive connection: answer already-buffered
/// pipelined requests inline (in order, same thread — responses can
/// never interleave), linger briefly for the next one, then give the
/// connection back to its loop.
fn continue_conn(
    shared: &Shared,
    shard: usize,
    mut flow: Flow,
    home: &Home,
    policy: &mut HandlerPolicy,
) {
    for _ in 1..WORKER_BURST {
        if shared.shutting_down() {
            // Drain: close instead of waiting for a next request that
            // may never come (dropping the connection flushes what the
            // burst corked).
            return;
        }
        if !flow.conn.head_ready() {
            match flow.conn.await_request(WORKER_LINGER) {
                ConnProgress::HeadReady => {}
                ConnProgress::Closed => return,
                ConnProgress::Idle => break,
            }
        }
        let started = Instant::now();
        let head = match flow.conn.read_head(shared.header_timeout) {
            Ok(head) => head,
            Err(err) => {
                fail_head(shared, shard, &mut flow.conn, err);
                return;
            }
        };
        let r = route(&head);
        let disposition = respond(
            shared,
            shard,
            &mut flow.conn,
            &head,
            r,
            started,
            false,
            Some(policy),
        );
        if disposition != Some(Disposition::KeepAlive) {
            return;
        }
    }
    home.give_back(flow);
}

fn worker_loop(shared: &Arc<Shared>, shard: usize, rx: &Mutex<Receiver<Job>>, home: &Home) {
    let _threads = CountGuard(&shared.live_threads);
    let mut policy = HandlerPolicy {
        retries: shared.retries,
        deadline: None,
        chaos: shared.chaos.clone(),
    };
    loop {
        // Hold the lock only for the dequeue, never across socket I/O.
        let job = match rx.lock() {
            Ok(rx) => rx.recv_timeout(STAGE_TICK),
            Err(_) => return,
        };
        let Job {
            mut flow,
            head,
            route,
            started,
        } = match job {
            Ok(job) => job,
            Err(RecvTimeoutError::Timeout) => continue,
            // The loop has exited and the queue is drained.
            Err(RecvTimeoutError::Disconnected) => return,
        };
        shared.shards[shard].work_depth.sub(1);
        // Blocking while a worker holds it: body reads, the linger and
        // a stalled peer run on the socket's own timeouts.
        let _ = flow.conn.set_nonblocking(false);
        let disposition = respond(
            shared,
            shard,
            &mut flow.conn,
            &head,
            route,
            started,
            true,
            Some(&mut policy),
        );
        if disposition == Some(Disposition::KeepAlive) {
            continue_conn(shared, shard, flow, home, &mut policy);
        }
    }
}

/// A connection a shard loop holds: every connection no worker holds.
struct Held {
    flow: Flow,
    /// When the connection last came in, got an answer or came back from
    /// a worker; idle connections are closed `keepalive_timeout` after.
    since: Instant,
    /// Since when answers have waited for the peer to take them.
    stalled: Option<Instant>,
    /// This turn's readiness.
    readable: bool,
    writable: bool,
    /// The peer closed its side.
    eof: bool,
    /// The last answer closes the connection once it is written.
    closing: bool,
}

impl Held {
    fn new(flow: Flow) -> Held {
        Held {
            flow,
            since: Instant::now(),
            stalled: None,
            // A new connection may hold bytes and answers already.
            readable: true,
            writable: true,
            eof: false,
            closing: false,
        }
    }
}

/// A connection still open for requests that has no complete head yet
/// but owes one: its first, or one partly buffered. Its header window
/// runs.
fn awaits_head(conn: &Conn, closing: bool) -> bool {
    !closing && (conn.served == 0 || conn.has_buffered()) && !conn.head_ready()
}

/// What a loop does with a connection after driving it.
enum Next {
    Keep,
    Close,
    /// The parsed request needs a worker.
    Queue(RequestHead, Route, Instant),
}

/// One shard's loop: a `poll(2)` over the wake fd, the listener and every
/// held connection, then accept, take back what workers return, and
/// drive each connection as far as it goes without blocking.
fn shard_loop(
    shared: &Arc<Shared>,
    shard: usize,
    listener: &TcpListener,
    wake: &WakeRx,
    back: &Receiver<Flow>,
    work_tx: &SyncSender<Job>,
) {
    let _threads = CountGuard(&shared.live_threads);
    let stats = &shared.shards[shard];
    let mut held: Vec<Held> = Vec::new();
    let mut set = PollSet::default();
    loop {
        let accepting = !shared.shutting_down();
        set.clear();
        set.push(wake, true, false);
        set.push(listener, accepting, false);
        for h in &held {
            let conn = &h.flow.conn;
            let read = !h.eof && !h.closing && conn.unwritten() < MAX_CORKED_BYTES;
            set.push(conn.stream(), read, conn.unwritten() > 0);
        }
        let _ = set.wait(STAGE_TICK.as_millis() as i32);
        if set.readable(0) {
            wake.drain();
        }
        for (i, h) in held.iter_mut().enumerate() {
            h.readable = set.readable(i + 2);
            h.writable = set.writable(i + 2);
        }
        if accepting && set.readable(1) {
            accept_ready(shared, shard, listener, &mut held);
        }
        while let Ok(mut flow) = back.try_recv() {
            if flow.conn.set_nonblocking(true).is_ok() {
                held.push(Held::new(flow));
            }
        }
        let mut i = 0;
        while i < held.len() {
            match drive(shared, shard, &mut held[i]) {
                Next::Keep => i += 1,
                Next::Close => drop(held.swap_remove(i)),
                Next::Queue(head, route, started) => {
                    let h = held.swap_remove(i);
                    if let Some(h) = queue(shared, shard, h, head, route, started, work_tx) {
                        held.push(h);
                    }
                }
            }
        }
        let awaiting = held
            .iter()
            .filter(|h| awaits_head(&h.flow.conn, h.closing))
            .count();
        let idle = held
            .iter()
            .filter(|h| !h.closing && h.flow.conn.served > 0 && !h.flow.conn.has_buffered())
            .count();
        stats.triage_depth.set(awaiting as i64);
        stats.parked.set(idle as i64);
        if !accepting && held.is_empty() {
            return;
        }
    }
}

/// Accept until the listener would block. Past [`ACCEPT_BACKLOG`]
/// connections awaiting a first head, a new one gets a canned 503
/// without a read — one best-effort nonblocking write, so the reject
/// path costs nothing a flood can amplify.
fn accept_ready(shared: &Arc<Shared>, shard: usize, listener: &TcpListener, held: &mut Vec<Held>) {
    let mut fresh = held
        .iter()
        .filter(|h| !h.closing && h.flow.conn.served == 0)
        .count();
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            // Transient accept failures (EMFILE under flood): back off a
            // beat instead of spinning.
            Err(_) => {
                std::thread::sleep(Duration::from_millis(5));
                return;
            }
        };
        shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
        if fresh >= ACCEPT_BACKLOG {
            let since = Instant::now();
            let _ = stream.set_nonblocking(true);
            let _ = (&stream).write(RAW_SHED_503);
            shared.finish(shard, "-", "-", 503, since, "shed");
            continue;
        }
        shared.in_flight.fetch_add(1, Ordering::Release);
        let mut flow = Flow {
            conn: Conn::new(stream),
            _ticket: Ticket(Arc::clone(shared)),
        };
        if flow.conn.set_nonblocking(true).is_ok() {
            held.push(Held::new(flow));
            fresh += 1;
        }
    }
}

/// Move one held connection on as far as it goes without blocking:
/// write what the peer takes, read what it sent, answer every complete
/// head that needs no handler, and enforce the deadlines.
fn drive(shared: &Shared, shard: usize, h: &mut Held) -> Next {
    let conn = &mut h.flow.conn;
    let unwritten = conn.unwritten();
    if h.writable && conn.flush().is_err() {
        return Next::Close;
    }
    if conn.unwritten() < unwritten {
        // The peer is taking answers: its write timeout starts over.
        h.stalled = None;
    }
    if h.readable && !h.eof && !h.closing {
        // A read error leaves nobody to answer either.
        h.eof = conn.read_ready().unwrap_or(true);
    }
    // Answers cork while further heads are buffered; only a peer that
    // leaves MAX_CORKED_BYTES untaken stops the answering.
    while !h.closing && conn.head_ready() && conn.unwritten() < MAX_CORKED_BYTES {
        let started = request_start(conn);
        let head = match conn.read_head(shared.header_timeout) {
            Ok(head) => head,
            Err(err) => {
                fail_head(shared, shard, conn, err);
                h.closing = true;
                break;
            }
        };
        let r = route(&head);
        match respond(shared, shard, conn, &head, r, started, false, None) {
            None => return Next::Queue(head, r, started),
            Some(Disposition::KeepAlive) => h.since = Instant::now(),
            Some(Disposition::Close) => h.closing = true,
        }
    }
    if h.eof && !h.closing && !conn.head_ready() {
        // The peer is gone with nothing left to answer; a hangup between
        // requests is clean, anything else lost its connection.
        let err = if conn.served == 0 || conn.has_buffered() {
            HeadError::ConnectionLost
        } else {
            HeadError::Closed
        };
        fail_head(shared, shard, conn, err);
        h.closing = true;
    }
    let now = Instant::now();
    if awaits_head(conn, h.closing) {
        if now >= conn.anchor() + shared.header_timeout {
            fail_head(shared, shard, conn, HeadError::TimedOut);
            h.closing = true;
        }
    } else if !h.closing
        && conn.unwritten() == 0
        && (shared.shutting_down() || now.duration_since(h.since) >= shared.keepalive_timeout)
    {
        // Idle between requests: nothing to answer and nothing to log.
        return Next::Close;
    }
    if conn.unwritten() == 0 {
        return if h.closing { Next::Close } else { Next::Keep };
    }
    let stalled = *h.stalled.get_or_insert(now);
    if now.duration_since(stalled) >= WRITE_TIMEOUT {
        Next::Close
    } else {
        Next::Keep
    }
}

/// Hand a request that needs a handler to the shard's workers, with its
/// connection. A full queue answers `503` instead and returns the
/// connection, to be held until that answer is written.
fn queue(
    shared: &Shared,
    shard: usize,
    mut h: Held,
    head: RequestHead,
    route: Route,
    started: Instant,
    work_tx: &SyncSender<Job>,
) -> Option<Held> {
    // The request may wait in the queue: corked answers start out first.
    let _ = h.flow.conn.flush();
    // add-before-send: the worker's matching `sub` can run the instant
    // the job lands, and a decrement racing ahead of this increment
    // would show a negative depth in /v1/stats.
    shared.shards[shard].work_depth.add(1);
    let job = Job {
        flow: h.flow,
        head,
        route,
        started,
    };
    match work_tx.try_send(job) {
        Ok(()) => None,
        Err(TrySendError::Full(job) | TrySendError::Disconnected(job)) => {
            shared.shards[shard].work_depth.sub(1);
            h.flow = job.flow;
            let resp = Response::shed("queue-full");
            let _ = h.flow.conn.write_response(&resp, WRITE_TIMEOUT, true);
            shared.finish(
                shard,
                &job.head.method,
                &job.head.path,
                503,
                started,
                "shed",
            );
            h.closing = true;
            Some(h)
        }
    }
}
