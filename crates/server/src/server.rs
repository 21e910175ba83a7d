//! The daemon: sharded acceptors → per-shard triage → bounded per-shard
//! work queues → handler workers with keep-alive continuation, explicit
//! load shedding at every hand-off, and a deadline-bounded graceful
//! drain.
//!
//! ```text
//!   shard 0..N  (SO_REUSEPORT listeners; single-dispatch fallback)
//!        │ accept (nonblocking poll)
//!        │  try_send ── full ⇒ raw 503, no read
//!        ▼
//!   triage queue (bounded, per shard)
//!        │
//!   triage (1–2 threads per shard)
//!   - read head under the per-request header window (slow-loris cutoff)
//!   - /healthz, /readyz, 4xx: answered HERE, never queued,
//!     so probes stay green while the work queue burns
//!        │  try_send ── full ⇒ 503 + Retry-After
//!        ▼
//!   work queue (bounded, --queue-depth per shard)
//!        │
//!   handler workers (--workers split across shards)
//!   - per-request soft deadline net of queue wait
//!   - catch_unwind panic isolation via the shared supervisor
//!   - keep-alive continuation: pipelined requests on the same
//!     connection are answered in arrival order without re-queueing,
//!     up to a fairness burst, then the connection is recycled
//!   - answers are corked: one socket write per burst (`http::Conn`)
//!        │ idle keep-alive connections
//!        ▼
//!   parker (1 thread per shard): poll(2) readiness sweep, wakes
//!   connections back into triage, culls idlers at --keepalive-timeout
//! ```
//!
//! Shutdown: flip the shared flag → acceptors stop, each stage drains
//! what it already holds on its next tick and exits, the parker closes
//! every idle connection, and in-flight keep-alive connections are
//! closed after their current response. The coordinator waits up to the
//! drain deadline; whatever is still unanswered after that is *aborted*
//! (reported, and mapped to exit 4 by the CLI).

use crate::accesslog::{AccessLog, ServerStats, StatsSnapshot};
use crate::cache::{CacheKind, ResponseCache};
use crate::handlers::{handle, HandlerPolicy};
use crate::http::{Conn, ConnProgress, HeadError, RequestHead, Response, RAW_SHED_503};
use crate::net::{bind_shard_listeners, AcceptMode};
use crate::router::{route, Route};
use crate::write::{WritePlaneConfig, WriteState};
use osn_core::live::LiveQuery;
use osn_core::query::SnapshotQuery;
use osn_graph::testutil::ChaosTaskPlan;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{
    channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError,
};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Triage threads per shard. Two in the classic single-shard layout so
/// one hostile slow peer cannot serialise everyone behind it; one per
/// shard once sharding already provides that isolation.
fn triage_threads(shards: usize) -> usize {
    if shards == 1 {
        2
    } else {
        1
    }
}

/// Hard cap on auto-detected shards: beyond this the acceptor fan-in
/// stops paying for itself on the workloads this daemon sees.
const MAX_AUTO_SHARDS: usize = 8;

/// Socket write timeout for responses.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// How long a worker lingers on a kept-alive connection waiting for the
/// next pipelined request before handing it to the parker. Closed-loop
/// clients answer well inside this; anything slower parks.
const WORKER_LINGER: Duration = Duration::from_millis(1);

/// Requests a worker answers on one connection before recycling it
/// through the triage queue, so one chatty pipeliner cannot pin a
/// worker while other connections queue.
const WORKER_BURST: u64 = 64;

/// Fast-path requests triage answers inline on one connection before
/// recycling it, bounding how long a probe pipeliner can camp on a
/// triage thread.
const TRIAGE_BURST: u64 = 32;

/// Idle tick for stage loops: how often a blocked dequeue re-checks the
/// shutdown flag. Bounds drain latency, not request latency.
const STAGE_TICK: Duration = Duration::from_millis(20);

/// Everything `Server::start` needs. `Default` gives the classic
/// single-shard values; tests override the knobs they are drilling and
/// the CLI asks for `shards: 0` (one per core).
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
    /// Bound on each shard's accept→triage queue. Triage drains in
    /// microseconds per parsed head, so this can sit well above
    /// `queue_depth` without creating real backlog — it exists so health
    /// probes keep flowing while the work queue sheds, yet a connect
    /// flood still hits a hard wall (raw 503, no read) instead of
    /// unbounded fd growth.
    pub accept_backlog: usize,
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
    /// Acceptor/queue shards. 1 = the classic single-acceptor layout;
    /// 0 = one shard per core (capped); N = exactly N shards, each with
    /// its own `SO_REUSEPORT` listener, queues, workers, and parker.
    pub shards: usize,
    /// Idle keep-alive connections are closed after this long parked
    /// with no request bytes.
    pub keepalive_timeout: Duration,
    /// Hot-day response cache (pre-rendered CSV + precompressed gzip).
    /// Forced off when `chaos` is set.
    pub response_cache: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_depth: 64,
            accept_backlog: 128,
            request_timeout: Duration::from_secs(5),
            header_timeout: Duration::from_secs(2),
            drain_timeout: Duration::from_secs(5),
            retries: 0,
            chaos: None,
            access_log: AccessLog::default(),
            write: None,
            shards: 1,
            keepalive_timeout: Duration::from_secs(5),
            response_cache: true,
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
/// dropped — answered, shed, culled by the parker, or abandoned by a
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

/// The channel ends a shard's stages share.
#[derive(Clone)]
struct ShardChannels {
    triage_tx: SyncSender<Flow>,
    work_tx: SyncSender<Job>,
    park_tx: Sender<Flow>,
}

/// Shared state every stage touches.
#[derive(Debug)]
struct Shared {
    live: Arc<LiveQuery>,
    stats: ServerStats,
    log: AccessLog,
    shutdown: AtomicBool,
    /// Connections accepted but not yet answered-and-closed (includes
    /// parked keep-alive connections).
    in_flight: AtomicU64,
    /// Triage + worker + parker threads still running.
    live_threads: AtomicUsize,
    /// Triage threads still running — workers drain out only after the
    /// last triage thread can no longer feed them.
    triage_live: AtomicUsize,
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
    acceptors: Vec<JoinHandle<()>>,
    stage_handles: Vec<JoinHandle<()>>,
    drain_timeout: Duration,
}

impl Server {
    /// Bind, spawn the pipeline, and return once the listeners are live.
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
        let triage_per_shard = triage_threads(shards);

        let (listeners, addr, mode) = bind_shard_listeners(&cfg.addr, shards)?;

        let shared = Arc::new(Shared {
            live,
            stats: ServerStats::default(),
            log: cfg.access_log,
            shutdown: AtomicBool::new(false),
            in_flight: AtomicU64::new(0),
            live_threads: AtomicUsize::new(shards * (triage_per_shard + workers_per_shard + 1)),
            triage_live: AtomicUsize::new(shards * triage_per_shard),
            request_timeout: cfg.request_timeout,
            header_timeout: cfg.header_timeout,
            keepalive_timeout: cfg.keepalive_timeout,
            retries: cfg.retries,
            chaos: cfg.chaos.clone(),
            write: cfg.write.map(WriteState::new),
            cache: (cfg.response_cache && cfg.chaos.is_none()).then(ResponseCache::default),
            shards: (0..shards).map(ShardStats::new).collect(),
        });

        let mut stage_handles =
            Vec::with_capacity(shards * (triage_per_shard + workers_per_shard + 1));
        let mut shard_channels = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (triage_tx, triage_rx) = sync_channel::<Flow>(cfg.accept_backlog.max(1));
            let (work_tx, work_rx) = sync_channel::<Job>(cfg.queue_depth);
            let (park_tx, park_rx) = channel::<Flow>();
            let chans = ShardChannels {
                triage_tx,
                work_tx,
                park_tx,
            };
            let triage_rx = Arc::new(Mutex::new(triage_rx));
            let work_rx = Arc::new(Mutex::new(work_rx));
            for i in 0..triage_per_shard {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&triage_rx);
                let chans = chans.clone();
                stage_handles.push(
                    std::thread::Builder::new()
                        .name(format!("osn-triage-{shard}-{i}"))
                        .spawn(move || triage_loop(&shared, shard, &rx, &chans))?,
                );
            }
            for i in 0..workers_per_shard {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&work_rx);
                let chans = chans.clone();
                stage_handles.push(
                    std::thread::Builder::new()
                        .name(format!("osn-worker-{shard}-{i}"))
                        .spawn(move || worker_loop(&shared, shard, &rx, &chans))?,
                );
            }
            {
                let shared = Arc::clone(&shared);
                let chans = chans.clone();
                stage_handles.push(
                    std::thread::Builder::new()
                        .name(format!("osn-parker-{shard}"))
                        .spawn(move || parker_loop(&shared, shard, &park_rx, &chans))?,
                );
            }
            shard_channels.push(chans);
        }

        let mut acceptors = Vec::with_capacity(listeners.len());
        match mode {
            AcceptMode::ReusePort => {
                for (shard, listener) in listeners.into_iter().enumerate() {
                    let shared = Arc::clone(&shared);
                    let targets = vec![(shard, shard_channels[shard].triage_tx.clone())];
                    acceptors.push(
                        std::thread::Builder::new()
                            .name(format!("osn-acceptor-{shard}"))
                            .spawn(move || accept_loop(&shared, &listener, &targets))?,
                    );
                }
            }
            AcceptMode::SingleDispatch => {
                let listener = listeners.into_iter().next().expect("one listener");
                let shared = Arc::clone(&shared);
                let targets: Vec<(usize, SyncSender<Flow>)> = shard_channels
                    .iter()
                    .enumerate()
                    .map(|(i, c)| (i, c.triage_tx.clone()))
                    .collect();
                acceptors.push(
                    std::thread::Builder::new()
                        .name("osn-acceptor".to_string())
                        .spawn(move || accept_loop(&shared, &listener, &targets))?,
                );
            }
        }
        drop(shard_channels);

        Ok(Server {
            addr,
            shared,
            acceptors,
            stage_handles,
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
    /// or this blocks forever), then drain: every stage finishes what it
    /// already holds, bounded by the drain deadline. Whatever is still
    /// unanswered at the deadline is abandoned and reported.
    pub fn join(self) -> DrainReport {
        for a in self.acceptors {
            let _ = a.join();
        }
        let deadline = Instant::now() + self.drain_timeout;
        loop {
            if self.shared.live_threads.load(Ordering::Acquire) == 0 {
                for h in self.stage_handles {
                    let _ = h.join();
                }
                return DrainReport { aborted: 0 };
            }
            if Instant::now() >= deadline {
                // Stuck stages stay detached; the process exit (or the
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

/// Decrement a live-count even if a stage loop panics.
struct CountGuard<'a>(&'a AtomicUsize);

impl Drop for CountGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

fn accept_loop(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    targets: &[(usize, SyncSender<Flow>)],
) {
    let mut next = 0usize;
    while !shared.shutting_down() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Accepted sockets must be blocking regardless of what
                // they inherited from the nonblocking listener.
                let _ = stream.set_nonblocking(false);
                shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
                shared.in_flight.fetch_add(1, Ordering::Release);
                let flow = Flow {
                    conn: Conn::new(stream),
                    _ticket: Ticket(Arc::clone(shared)),
                };
                // Round-robin across shards (a reuseport acceptor has
                // exactly one target), failing over once around before
                // shedding.
                let mut rejected = Some(flow);
                for attempt in 0..targets.len() {
                    let (shard, tx) = &targets[(next + attempt) % targets.len()];
                    // Gauge up *before* the send: the receiver's
                    // matching `sub` can run the instant the flow lands,
                    // and a decrement racing ahead of this increment
                    // would show a negative depth in /v1/stats.
                    shared.shards[*shard].triage_depth.add(1);
                    match tx.try_send(rejected.take().expect("flow present")) {
                        Ok(()) => break,
                        Err(TrySendError::Full(f) | TrySendError::Disconnected(f)) => {
                            shared.shards[*shard].triage_depth.sub(1);
                            rejected = Some(f)
                        }
                    }
                }
                if let Some(flow) = rejected {
                    // Every triage queue is backed up: answer with a
                    // canned 503 without reading a byte, so the reject
                    // path costs nothing a flood can amplify.
                    let accepted = flow.conn.accepted;
                    let _ = flow
                        .conn
                        .stream()
                        .set_write_timeout(Some(Duration::from_millis(200)));
                    let _ = raw_shed(flow.conn.stream());
                    let shard = targets[next % targets.len()].0;
                    shared.finish(shard, "-", "-", 503, accepted, "shed");
                }
                next = next.wrapping_add(1);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Transient accept failures (EMFILE under flood): back off a
            // beat instead of spinning or dying.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn raw_shed(mut stream: &TcpStream) -> io::Result<()> {
    stream.write_all(RAW_SHED_503)
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
            // global `osn_http_queue_depth` of the single-acceptor era),
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

/// Answer a head-read failure. Returns `Close` always; `HeadError::
/// Closed` (clean keep-alive hangup) is silent, everything else gets a
/// best-effort response plus an access line.
fn fail_head(shared: &Shared, shard: usize, flow: &mut Flow, err: HeadError, since: Instant) {
    if err == HeadError::Closed {
        return;
    }
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
        let _ = flow.conn.write_response(&resp, WRITE_TIMEOUT, true);
    }
    shared.finish(shard, "-", "-", status.unwrap_or(0), since, err.as_str());
}

/// Serve one cacheable data route, consulting the hot-day cache when a
/// consistent (generation-stable) snapshot view is available. A miss
/// flushes `conn`'s corked answers before the handler computes.
fn handle_data(
    shared: &Shared,
    conn: &mut Conn,
    head: &RequestHead,
    route: Route,
    policy: &HandlerPolicy,
) -> crate::handlers::Handled {
    // Read the generation on both sides of the snapshot fetch: equal
    // means the Arc belongs to that generation and cache entries may be
    // keyed to it; unequal means a publish raced us, so skip the cache
    // for this request rather than risk filing a body under the wrong
    // generation.
    let g1 = shared.live.generation();
    let query = shared.live.get();
    let generation = (shared.live.generation() == g1).then_some(g1);
    let Some(query) = query else {
        return crate::handlers::Handled {
            response: not_ready_response(shared),
            reason: "not-ready",
        };
    };
    let (kind, day) = match route {
        Route::Days => (CacheKind::Days, 0),
        Route::Metrics(day) => (CacheKind::Metrics, day),
        Route::Communities(day) => (CacheKind::Communities, day),
        other => unreachable!("non-data route {other:?} in handle_data"),
    };
    let cache = shared.cache.as_ref().zip(generation);
    if let Some((cache, generation)) = cache {
        // Days strictly below the latest published day are immutable
        // history: entries for them survive publishes.
        let frozen_below = query.meta().num_days.saturating_sub(1);
        if let Some(hit) = cache.lookup(kind, day, generation, frozen_below) {
            let content_type = match kind {
                CacheKind::Days => "application/json",
                _ => "text/csv; charset=utf-8",
            };
            return crate::handlers::Handled {
                response: cached_response(content_type, hit, head.accept_gzip),
                reason: "-",
            };
        }
    }
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
    handled
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

/// Fully answer one parsed request on a worker (or a triage/worker
/// continuation): fast path, write plane (with inline admission when the
/// request did not pass triage), or cached/supervised data handling.
/// Writes the response and the access line; returns the keep-alive
/// verdict.
#[allow(clippy::too_many_arguments)]
fn respond(
    shared: &Shared,
    shard: usize,
    flow: &mut Flow,
    head: &RequestHead,
    route: Route,
    started: Instant,
    admitted: bool,
    policy: &mut HandlerPolicy,
) -> Disposition {
    let (handled, mut disposition) = if route.is_fast_path() {
        (
            crate::handlers::Handled {
                response: fast_response(shared, route),
                reason: "-",
            },
            Disposition::KeepAlive,
        )
    } else if matches!(route, Route::PostEvents) {
        let rejection = if admitted {
            None
        } else {
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
        };
        match rejection {
            // The body was never read: the connection cannot be reused
            // (the unread body would be parsed as the next head).
            Some((response, reason)) => (
                crate::handlers::Handled { response, reason },
                Disposition::Close,
            ),
            None => match &shared.write {
                Some(write) => {
                    // The body read and the group-commit wait block:
                    // corked answers go out first.
                    let _ = flow.conn.flush();
                    let handled =
                        write.handle_post(&mut flow.conn, head, started + shared.request_timeout);
                    // Only a 2xx proves the body was consumed in full.
                    let disp = if handled.response.status < 300 {
                        Disposition::KeepAlive
                    } else {
                        Disposition::Close
                    };
                    (handled, disp)
                }
                // Unreachable when admitted (triage only admits with a
                // write plane); kept for defence in depth.
                None => (
                    crate::handlers::Handled {
                        response: Response::text(403, "write plane disabled\n"),
                        reason: "denied",
                    },
                    Disposition::Close,
                ),
            },
        }
    } else {
        let waited = started.elapsed();
        match shared.request_timeout.checked_sub(waited) {
            // The request's whole budget evaporated in the queue: shed
            // it now instead of doing work nobody is waiting for.
            None => (
                crate::handlers::Handled {
                    response: Response::shed("expired-in-queue"),
                    reason: "timed-out",
                },
                Disposition::KeepAlive,
            ),
            Some(budget) => {
                policy.deadline = Some(budget);
                (
                    handle_data(shared, &mut flow.conn, head, route, policy),
                    Disposition::KeepAlive,
                )
            }
        }
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
    let write_ok = flow
        .conn
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
    flow.conn.served += 1;
    if !write_ok {
        return Disposition::Close;
    }
    disposition
}

/// After a response on a kept-alive connection: answer already-buffered
/// pipelined requests inline (in order, same thread — responses can
/// never interleave), linger briefly for the next one, then park or
/// recycle. `fast_only` is the triage variant: data routes are queued
/// rather than handled inline.
#[allow(clippy::too_many_arguments)]
fn continue_conn(
    shared: &Shared,
    shard: usize,
    mut flow: Flow,
    chans: &ShardChannels,
    burst_limit: u64,
    fast_only: bool,
    policy: &mut HandlerPolicy,
) {
    let mut burst: u64 = 0;
    loop {
        if shared.shutting_down() {
            // Drain: close instead of waiting for a next request that
            // may never come (dropping the connection flushes what the
            // burst corked).
            return;
        }
        burst += 1;
        if burst >= burst_limit {
            recycle_or_park(shared, shard, flow, chans);
            return;
        }
        if !flow.conn.head_ready() {
            match flow.conn.await_request(WORKER_LINGER) {
                ConnProgress::HeadReady => {}
                ConnProgress::Closed => return,
                ConnProgress::Idle => {
                    park(flow, chans);
                    return;
                }
            }
        }
        let started = Instant::now();
        let head = match flow.conn.read_head(shared.header_timeout) {
            Ok(head) => head,
            Err(err) => {
                fail_head(shared, shard, &mut flow, err, started);
                return;
            }
        };
        let r = route(&head);
        if fast_only && !r.is_fast_path() {
            // Triage continuation met a data request: admission +
            // enqueue exactly like a fresh parse.
            enqueue_work(shared, shard, flow, head, r, started, chans);
            return;
        }
        match respond(shared, shard, &mut flow, &head, r, started, false, policy) {
            Disposition::Close => return,
            Disposition::KeepAlive => {}
        }
    }
}

/// Hand a kept-alive connection to its shard parker (never with
/// buffered bytes — the parker only wakes on *new* socket readability)
/// once its answers are out. A failed flush or send (the parker is
/// draining) closes the connection.
fn park(mut flow: Flow, chans: &ShardChannels) {
    debug_assert!(!flow.conn.has_buffered());
    if flow.conn.flush_and_release().is_ok() {
        let _ = chans.park_tx.send(flow);
    }
}

/// Re-queue a connection with a pipelined request already buffered
/// through triage, giving other connections a turn.
fn recycle_or_park(shared: &Shared, shard: usize, mut flow: Flow, chans: &ShardChannels) {
    if !flow.conn.has_buffered() {
        park(flow, chans);
        return;
    }
    let _ = flow.conn.flush();
    flow.conn.rearm();
    // add-before-send: see the acceptor's gauge ordering note.
    shared.shards[shard].triage_depth.add(1);
    match chans.triage_tx.try_send(flow) {
        Ok(()) => {}
        Err(TrySendError::Full(mut f) | TrySendError::Disconnected(mut f)) => {
            shared.shards[shard].triage_depth.sub(1);
            let resp = Response::shed("recycle-queue-full");
            let _ = f.conn.write_response(&resp, WRITE_TIMEOUT, true);
            shared.finish(shard, "-", "-", 503, Instant::now(), "shed");
        }
    }
}

/// Write admission + work-queue handoff for one parsed data request.
fn enqueue_work(
    shared: &Shared,
    shard: usize,
    mut flow: Flow,
    head: RequestHead,
    r: Route,
    started: Instant,
    chans: &ShardChannels,
) {
    // The request may wait in the queue: corked answers go out first.
    let _ = flow.conn.flush();
    // Write admission runs before the request can hold a queue slot or
    // a worker: auth, rate budget, and the fsync/lag valves are all
    // cheap header-only checks, and rejecting here keeps a write flood
    // from starving queued reads.
    if matches!(r, Route::PostEvents) {
        let rejection = match &shared.write {
            None => Some(Response::text(
                403,
                "write plane disabled (start with --accept-writes)\n",
            )),
            Some(w) => w.admit(&head, &shared.live),
        };
        if let Some(resp) = rejection {
            let status = resp.status;
            let reason = match status {
                429 | 503 => "shed",
                _ => "denied",
            };
            // Body unread: the connection cannot be reused.
            let _ = flow.conn.write_response(&resp, WRITE_TIMEOUT, true);
            shared.finish(shard, &head.method, &head.path, status, started, reason);
            return;
        }
    }
    // add-before-send: see the acceptor's gauge ordering note.
    shared.shards[shard].work_depth.add(1);
    match chans.work_tx.try_send(Job {
        flow,
        head,
        route: r,
        started,
    }) {
        Ok(()) => {}
        Err(TrySendError::Full(job) | TrySendError::Disconnected(job)) => {
            shared.shards[shard].work_depth.sub(1);
            let Job { mut flow, head, .. } = job;
            let resp = Response::shed("queue-full");
            let _ = flow.conn.write_response(&resp, WRITE_TIMEOUT, true);
            shared.finish(shard, &head.method, &head.path, 503, started, "shed");
        }
    }
}

fn triage_loop(
    shared: &Arc<Shared>,
    shard: usize,
    rx: &Mutex<Receiver<Flow>>,
    chans: &ShardChannels,
) {
    let _threads = CountGuard(&shared.live_threads);
    let _triage = CountGuard(&shared.triage_live);
    let mut policy = HandlerPolicy {
        retries: shared.retries,
        deadline: None,
        chaos: shared.chaos.clone(),
    };
    loop {
        // Hold the lock only for the dequeue, never across socket I/O.
        let flow = match rx.lock() {
            Ok(rx) => rx.recv_timeout(STAGE_TICK),
            Err(_) => return,
        };
        let mut flow = match flow {
            Ok(flow) => flow,
            Err(RecvTimeoutError::Timeout) => {
                if shared.shutting_down() {
                    // Acceptors are gone; drain the stragglers and exit.
                    loop {
                        let flow = match rx.lock() {
                            Ok(rx) => rx.try_recv(),
                            Err(_) => return,
                        };
                        match flow {
                            Ok(flow) => triage_one(shared, shard, flow, chans, &mut policy),
                            Err(_) => return,
                        }
                    }
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => return,
        };
        shared.shards[shard].triage_depth.sub(1);
        // Fresh connections anchor their header window at accept; woken
        // and recycled ones were re-armed by whoever sent them here.
        let started = if flow.conn.served == 0 {
            flow.conn.accepted
        } else {
            Instant::now()
        };
        match flow.conn.read_head(shared.header_timeout) {
            Err(err) => fail_head(shared, shard, &mut flow, err, started),
            Ok(head) => triage_route(shared, shard, flow, head, started, chans, &mut policy),
        }
    }
}

fn triage_one(
    shared: &Arc<Shared>,
    shard: usize,
    mut flow: Flow,
    chans: &ShardChannels,
    policy: &mut HandlerPolicy,
) {
    shared.shards[shard].triage_depth.sub(1);
    let started = if flow.conn.served == 0 {
        flow.conn.accepted
    } else {
        Instant::now()
    };
    match flow.conn.read_head(shared.header_timeout) {
        Err(err) => fail_head(shared, shard, &mut flow, err, started),
        Ok(head) => triage_route(shared, shard, flow, head, started, chans, policy),
    }
}

fn triage_route(
    shared: &Shared,
    shard: usize,
    mut flow: Flow,
    head: RequestHead,
    started: Instant,
    chans: &ShardChannels,
    policy: &mut HandlerPolicy,
) {
    let r = route(&head);
    if r.is_fast_path() {
        match respond(shared, shard, &mut flow, &head, r, started, false, policy) {
            Disposition::Close => {}
            Disposition::KeepAlive => {
                continue_conn(shared, shard, flow, chans, TRIAGE_BURST, true, policy)
            }
        }
    } else {
        enqueue_work(shared, shard, flow, head, r, started, chans);
    }
}

fn worker_loop(
    shared: &Arc<Shared>,
    shard: usize,
    rx: &Mutex<Receiver<Job>>,
    chans: &ShardChannels,
) {
    let _threads = CountGuard(&shared.live_threads);
    let mut policy = HandlerPolicy {
        retries: shared.retries,
        deadline: None,
        chaos: shared.chaos.clone(),
    };
    loop {
        let job = match rx.lock() {
            Ok(rx) => rx.recv_timeout(STAGE_TICK),
            Err(_) => return,
        };
        let job = match job {
            Ok(job) => job,
            Err(RecvTimeoutError::Timeout) => {
                if shared.shutting_down() && shared.triage_live.load(Ordering::Acquire) == 0 {
                    // Nothing can feed this queue anymore; drain it.
                    loop {
                        let job = match rx.lock() {
                            Ok(rx) => rx.try_recv(),
                            Err(_) => return,
                        };
                        match job {
                            Ok(job) => work_one(shared, shard, job, chans, &mut policy),
                            Err(_) => return,
                        }
                    }
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => return,
        };
        work_one(shared, shard, job, chans, &mut policy);
    }
}

fn work_one(
    shared: &Shared,
    shard: usize,
    job: Job,
    chans: &ShardChannels,
    policy: &mut HandlerPolicy,
) {
    let Job {
        mut flow,
        head,
        route,
        started,
    } = job;
    shared.shards[shard].work_depth.sub(1);
    match respond(
        shared, shard, &mut flow, &head, route, started, true, policy,
    ) {
        Disposition::Close => {}
        Disposition::KeepAlive => {
            continue_conn(shared, shard, flow, chans, WORKER_BURST, false, policy)
        }
    }
}

/// One parked keep-alive connection.
struct Parked {
    flow: Flow,
    since: Instant,
}

fn parker_loop(shared: &Arc<Shared>, shard: usize, rx: &Receiver<Flow>, chans: &ShardChannels) {
    let _threads = CountGuard(&shared.live_threads);
    let mut parked: Vec<Parked> = Vec::new();
    let mut disconnected = false;
    loop {
        if shared.shutting_down() {
            // Idle connections have no in-flight request; drain closes
            // them immediately.
            shared.shards[shard].parked.sub(parked.len() as i64);
            return;
        }
        // Intake: block briefly when idle, otherwise just sweep up
        // whatever accumulated while polling.
        if parked.is_empty() && !disconnected {
            match rx.recv_timeout(STAGE_TICK) {
                Ok(flow) => admit_parked(shared, shard, flow, &mut parked, chans),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => disconnected = true,
            }
        }
        while let Ok(flow) = rx.try_recv() {
            admit_parked(shared, shard, flow, &mut parked, chans);
        }
        if parked.is_empty() {
            if disconnected {
                return;
            }
            continue;
        }
        // Readiness sweep: wake anything readable (or hung up) back
        // into triage with a fresh header window.
        for idx in sweep_ready(&parked).into_iter().rev() {
            let mut entry = parked.swap_remove(idx);
            shared.shards[shard].parked.sub(1);
            entry.flow.conn.rearm();
            // add-before-send: see the acceptor's gauge ordering note.
            shared.shards[shard].triage_depth.add(1);
            match chans.triage_tx.try_send(entry.flow) {
                Ok(()) => {}
                Err(TrySendError::Full(mut f) | TrySendError::Disconnected(mut f)) => {
                    shared.shards[shard].triage_depth.sub(1);
                    let resp = Response::shed("wake-queue-full");
                    let _ = f.conn.write_response(&resp, WRITE_TIMEOUT, true);
                    shared.finish(shard, "-", "-", 503, Instant::now(), "shed");
                }
            }
        }
        // Cull idlers past the keep-alive window (silent close: between
        // requests there is nothing to answer and nothing to log).
        let keepalive = shared.keepalive_timeout;
        let before = parked.len();
        parked.retain(|p| p.since.elapsed() < keepalive);
        let culled = before - parked.len();
        if culled > 0 {
            shared.shards[shard].parked.sub(culled as i64);
        }
    }
}

fn admit_parked(
    shared: &Shared,
    shard: usize,
    flow: Flow,
    parked: &mut Vec<Parked>,
    chans: &ShardChannels,
) {
    if flow.conn.has_buffered() {
        // Never park buffered bytes — the poll sweep only sees *new*
        // socket data. Straight back to triage (add-before-send: see
        // the acceptor's gauge ordering note).
        shared.shards[shard].triage_depth.add(1);
        match chans.triage_tx.try_send(flow) {
            Ok(()) => {}
            Err(TrySendError::Full(mut f) | TrySendError::Disconnected(mut f)) => {
                shared.shards[shard].triage_depth.sub(1);
                let resp = Response::shed("wake-queue-full");
                let _ = f.conn.write_response(&resp, WRITE_TIMEOUT, true);
                shared.finish(shard, "-", "-", 503, Instant::now(), "shed");
            }
        }
        return;
    }
    shared.shards[shard].parked.add(1);
    parked.push(Parked {
        flow,
        since: Instant::now(),
    });
}

/// Indices of parked connections with pending socket data (or a hangup).
#[cfg(unix)]
fn sweep_ready(parked: &[Parked]) -> Vec<usize> {
    use std::os::fd::AsRawFd;
    let fds: Vec<i32> = parked
        .iter()
        .map(|p| p.flow.conn.stream().as_raw_fd())
        .collect();
    crate::net::poll_readable(&fds, 5).unwrap_or_default()
}

#[cfg(not(unix))]
fn sweep_ready(parked: &[Parked]) -> Vec<usize> {
    // No poll(2): a nonblocking 1-byte peek per connection, plus a nap
    // to keep the sweep from spinning.
    std::thread::sleep(Duration::from_millis(5));
    let mut ready = Vec::new();
    for (i, p) in parked.iter().enumerate() {
        let stream = p.flow.conn.stream();
        if stream.set_nonblocking(true).is_err() {
            ready.push(i);
            continue;
        }
        let mut byte = [0u8; 1];
        match stream.peek(&mut byte) {
            Ok(_) => ready.push(i),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(_) => ready.push(i),
        }
        let _ = stream.set_nonblocking(false);
    }
    ready
}
