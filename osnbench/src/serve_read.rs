//! `serve-read`: pipelined reads against `osn serve` at its defaults.
//!
//! One generator thread sends pages of [`PAGE_LEN`] pipelined GETs drawn
//! from the read mix over one keep-alive connection, one write per
//! page, [`PAGE_RATE`] pages per second on a fixed schedule. A page's
//! latency runs from when it was *due* to the last byte of its last
//! answer, so a stall delays every later page and shows (wrk2-style).
//! Between pages the connection sits idle past the daemon's linger (see
//! [`PAGE_RATE`]), so every page takes the daemon's wake path once
//! (parker, triage, worker) and then its pipelined path: a page's
//! latency is one hand-off plus [`PAGE_LEN`] requests' service time, and
//! the service time is most of it.
//!
//! The workload's rate is requests answered per second of daemon CPU
//! time: what one core of the serve plane sustains, which only cheaper
//! per-request work raises. It is taken from the daemon's CPU time per
//! request over each page, at the median, as the latency is. After each
//! page the generator runs the [`Reference`] work on its own CPU and on
//! the daemon's, and both of the page's numbers are scaled by it. Pages
//! sent during the first [`WARM_UP_S`] are checked but not timed.
//!
//! The generator runs on a CPU of its own and the daemon on the others
//! ([`CpuSplit`]), and it polls and acknowledges at once instead of
//! sleeping in `read` (see [`crate::http`]). Every answer is checked
//! against the snapshot. Every answer is pre-materialised, so a kernel
//! gain predicts no change here except in `setup_s`.

use crate::http::{Client, Response as HttpResponse};
use crate::load::{daemon_cpu_ns, reference_ms, wait_until, CpuSplit, Oracle};
use crate::mix::{Mix, Target};
use crate::reference::Reference;
use crate::stats::{median, Samples};
use crate::trace::Recorder;
use crate::{Outcome, WorkDir};
use osn_core::communities::CommunityAnalysisConfig;
use osn_core::live::LiveQuery;
use osn_core::network::MetricSeriesConfig;
use osn_core::query::{SnapshotQuery, SnapshotQueryConfig};
use osn_genstream::{TraceConfig, TraceGenerator};
use osn_graph::io::read_log_with_policy;
use osn_graph::{Day, RecoveryPolicy};
use osn_server::cache::{CacheKind, ResponseCache};
use osn_server::handlers::{handle, HandlerPolicy};
use osn_server::router::route;
use osn_server::{AccessLog, Conn, Response, Route, Server, ServerConfig};
use osn_stats::sampling::derive_seed;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pages per second: 20 ms apart, so each page finds its connection
/// parked. The daemon's worker lingers on a connection for the next
/// request 1 ms by its constant but 4–8 ms in practice, since a socket
/// read timeout rounds up to whole timer ticks.
const PAGE_RATE: f64 = 50.0;

/// Pipelined GETs per page: enough that the requests' service time, not
/// the one hand-off, is most of a page's latency, and fewer than the 64
/// a worker answers on one connection before recycling it.
const PAGE_LEN: usize = 48;

/// Requests the traced run replays in-process per second of `seconds`
/// (once untraced, once traced).
const REPLAY_PER_SECOND: f64 = 2_000.0;

/// Seconds of pages sent before the timed ones: the daemon's response
/// cache fills with the hot days, as it has on a daemon that has been
/// serving for a while.
const WARM_UP_S: f64 = 1.0;

/// `osn serve` analysis defaults: metrics and communities every 7 days.
pub fn serve_query_config() -> SnapshotQueryConfig {
    SnapshotQuery::builder()
        .metrics(MetricSeriesConfig {
            stride: 7,
            ..MetricSeriesConfig::default()
        })
        .communities(CommunityAnalysisConfig {
            stride: 7,
            ..CommunityAnalysisConfig::default()
        })
        .config()
        .clone()
}

/// `TraceConfig::small()` grown to 4,000 final nodes (≈4.1K nodes, 60K
/// edges, 771 days): serving cost depends on the number of days and the
/// body sizes, not on graph size, and a smaller trace keeps set-up short.
pub fn trace(seed: u64) -> TraceConfig {
    let mut trace = TraceConfig {
        seed,
        ..TraceConfig::small()
    };
    trace.growth.final_nodes = 4_000;
    trace
}

/// A running daemon and what it serves.
struct Serving {
    server: Server,
    query: Arc<SnapshotQuery>,
}

/// What `osn serve FILE` does before it answers: generate the trace
/// file, preflight-read it, materialise every answer, bind.
fn setup(trace: &TraceConfig, dir: &Path, rec: &Recorder) -> Result<Serving, String> {
    let path = dir.join("trace.events");
    let log = TraceGenerator::new(trace.clone()).generate();
    osn_graph::io::save_log_v2(&log, &path).map_err(|e| format!("write trace: {e}"))?;
    let file = std::fs::File::open(&path).map_err(|e| format!("open trace: {e}"))?;
    let (log, report) = rec
        .time("graph.io.read", None, 0, || {
            read_log_with_policy(
                std::io::BufReader::new(file),
                &RecoveryPolicy::Skip {
                    max_errors: usize::MAX,
                },
            )
        })
        .map_err(|e| format!("preflight: {e}"))?;
    if !report.is_clean() {
        return Err(format!("preflight: {}", report.summary()));
    }
    let query = Arc::new(rec.time("core.query.build", None, 0, || {
        SnapshotQuery::build(&log, &serve_query_config())
    }));
    let server = Server::start(
        ServerConfig {
            access_log: AccessLog::to_sink(Box::new(std::io::sink())),
            ..ServerConfig::default()
        },
        Arc::clone(&query),
    )
    .map_err(|e| format!("bind: {e}"))?;
    Ok(Serving { server, query })
}

fn teardown(s: Serving) -> bool {
    s.server.request_shutdown();
    s.server.join().clean()
}

/// What the pages measured, each page scaled by the reference run
/// after it ([`Reference::scale`]).
struct Pages {
    latency_ms: Samples,
    /// Per page: the daemon's CPU time since the previous page ended,
    /// per request answered.
    cpu_us_per_request: Samples,
    /// Unscaled page latencies.
    raw_latency_ms: Samples,
    /// The reference time after each page.
    reference_ms: Samples,
    /// Daemon CPU time while the pages ran.
    daemon_cpu_s: f64,
}

/// The generator: one spinning connection, the read mix, and the
/// tally of every answer it checked.
struct Load<'a> {
    addr: SocketAddr,
    client: Option<Client>,
    oracle: &'a Oracle,
    days: (Vec<Day>, Vec<Day>),
    mix: Mix,
    sent: u64,
    failed: u64,
    errors: Vec<String>,
}

impl<'a> Load<'a> {
    fn new(addr: SocketAddr, query: &SnapshotQuery, oracle: &'a Oracle, seed: u64) -> Load<'a> {
        Load {
            addr,
            client: None,
            oracle,
            days: (query.metric_days(), query.community_days()),
            mix: Mix::new(derive_seed(seed, 1)),
            sent: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// The next page of the mix: its targets and its pipelined bytes.
    fn page(&mut self) -> (Vec<Target>, Vec<u8>) {
        let mut targets = Vec::with_capacity(PAGE_LEN);
        let mut bytes = Vec::with_capacity(PAGE_LEN * 80);
        for _ in 0..PAGE_LEN {
            let req = self.mix.next(&self.days.0, &self.days.1);
            targets.push(req.target);
            bytes.extend_from_slice(&req.bytes());
        }
        (targets, bytes)
    }

    fn fail(&mut self, n: usize, e: String) {
        self.failed += n as u64;
        if self.errors.len() < 5 {
            self.errors.push(e);
        }
    }

    /// Send `bytes` (reconnecting once if the daemon hung up) and read
    /// `answers` responses.
    fn round_trip(&mut self, bytes: &[u8], answers: usize) -> Result<Vec<HttpResponse>, String> {
        for attempt in 0..2 {
            if self.client.is_none() {
                let c = Client::connect_spinning(self.addr).map_err(|e| format!("connect: {e}"))?;
                self.client = Some(c);
            }
            let c = self.client.as_mut().expect("connected above");
            let got = c
                .send(bytes)
                .map_err(|e| format!("send: {e}"))
                .and_then(|_| {
                    (0..answers)
                        .map(|_| c.recv().map_err(|e| format!("recv: {e}")))
                        .collect::<Result<Vec<_>, _>>()
                });
            match got {
                Ok(resps) => {
                    if resps.iter().any(|r| r.close) {
                        self.client = None;
                    }
                    return Ok(resps);
                }
                Err(e) if attempt == 1 => return Err(e),
                Err(_) => self.client = None,
            }
        }
        unreachable!("the second attempt returns")
    }

    /// Send pages for `secs`, each followed by a reference run on both
    /// CPUs.
    fn pages(
        &mut self,
        secs: f64,
        cpus: Option<&CpuSplit>,
        reference: &mut Reference,
    ) -> Result<Pages, String> {
        let n = (PAGE_RATE * secs).round().max(1.0) as usize;
        let interval = Duration::from_secs_f64(1.0 / PAGE_RATE);
        let mut latency_ms = Vec::with_capacity(n);
        let mut cpu_us_per_request = Vec::with_capacity(n);
        let mut raw_latency_ms = Vec::with_capacity(n);
        let mut refs_ms = Vec::with_capacity(n);
        let cpu_ns = || daemon_cpu_ns().map_err(|e| format!("daemon CPU time: {e}"));
        let cpu0 = cpu_ns()?;
        let mut cpu_before = cpu0;
        let start = Instant::now();
        for k in 0..n {
            // Build the page before it is due: only sending and
            // receiving count.
            let (targets, bytes) = self.page();
            let due = start + interval * k as u32;
            wait_until(due, Duration::from_micros(500));
            self.sent += PAGE_LEN as u64;
            match self.round_trip(&bytes, PAGE_LEN) {
                Ok(resps) => {
                    let page_ms = due.elapsed().as_secs_f64() * 1e3;
                    let cpu = cpu_ns()?;
                    let cpu_us = cpu.saturating_sub(cpu_before) as f64 / 1e3 / resps.len() as f64;
                    for (&target, resp) in targets.iter().zip(&resps) {
                        if let Err(e) = self.oracle.judge(target, resp) {
                            self.fail(1, e);
                        }
                    }
                    let ref_ms = reference_ms(cpus, reference);
                    latency_ms.push(Reference::scale(page_ms, ref_ms));
                    cpu_us_per_request.push(Reference::scale(cpu_us, ref_ms));
                    raw_latency_ms.push(page_ms);
                    refs_ms.push(ref_ms);
                    // The reference ran on the daemon's CPU too: whatever
                    // the daemon did meanwhile counts towards the next page.
                    cpu_before = cpu;
                }
                Err(e) => self.fail(PAGE_LEN, e),
            }
        }
        let cpu1 = cpu_ns()?;
        Ok(Pages {
            latency_ms: Samples::new(latency_ms),
            cpu_us_per_request: Samples::new(cpu_us_per_request),
            raw_latency_ms: Samples::new(raw_latency_ms),
            reference_ms: Samples::new(refs_ms),
            daemon_cpu_s: cpu1.saturating_sub(cpu0) as f64 / 1e9,
        })
    }
}

/// Replay `n` requests of the mix through the daemon's public parse,
/// route, cache, handler and write calls over one loopback connection,
/// with spans around each; wrong answers add to `failures`. Returns the
/// wall time in seconds.
fn replay(
    seed: u64,
    n: usize,
    query: &Arc<SnapshotQuery>,
    oracle: &Oracle,
    rec: &Recorder,
    failures: &mut u64,
) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let mut client = Client::connect(listener.local_addr().map_err(|e| e.to_string())?)
        .map_err(|e| format!("connect: {e}"))?;
    let (stream, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut conn = Conn::new(stream);
    let live = LiveQuery::fixed(Arc::clone(query));
    let cache = ResponseCache::default();
    let policy = HandlerPolicy::default();
    let frozen_below = query.meta().num_days.saturating_sub(1);
    let days = (query.metric_days(), query.community_days());
    let mut mix = Mix::new(derive_seed(seed, 3));
    let started = Instant::now();
    for i in 0..n as u64 {
        let req = mix.next(&days.0, &days.1);
        client
            .send(&req.bytes())
            .map_err(|e| format!("send: {e}"))?;
        {
            let root = rec.enter("server.request", None, i);
            let head = rec
                .time("server.http.read_head", root.id(), i, || {
                    conn.read_head(Duration::from_secs(2))
                })
                .map_err(|e| format!("read_head: {e:?}"))?;
            let r = rec.time("server.router.route", root.id(), i, || route(&head));
            let kind = match r {
                Route::Days => Some((CacheKind::Days, 0)),
                Route::Metrics(d) => Some((CacheKind::Metrics, d)),
                Route::Communities(d) => Some((CacheKind::Communities, d)),
                _ => None,
            };
            let resp = match kind {
                // Triage-answered routes, rendered as the daemon's
                // fast path renders them.
                None => rec.time("server.handlers.handle", root.id(), i, || match r {
                    Route::Health => Response::text(200, "ok\n"),
                    Route::Meta => Response::json(200, query.meta_json("replay")),
                    Route::Head => Response::json(200, live.head_json()),
                    _ => Response::text(404, "no such endpoint\n"),
                }),
                Some((kind, day)) => {
                    let generation = live.generation();
                    let content_type = if kind == CacheKind::Days {
                        "application/json"
                    } else {
                        "text/csv; charset=utf-8"
                    };
                    let hit = rec.time("server.cache.lookup", root.id(), i, || {
                        cache.lookup(kind, day, generation, frozen_below)
                    });
                    let body = match hit {
                        Some(b) => Some(b),
                        None => {
                            let handled = rec.time("server.handlers.handle", root.id(), i, || {
                                handle(query, r, &policy)
                            });
                            (handled.response.status == 200).then(|| {
                                let bytes = handled.response.body.into_vec();
                                rec.time("server.cache.store", root.id(), i, || {
                                    cache.store(kind, day, generation, bytes)
                                })
                            })
                        }
                    };
                    match body {
                        Some(b) if head.accept_gzip && b.gzip.len() < b.plain.len() => {
                            Response::cached(content_type, b.gzip, true)
                        }
                        Some(b) => Response::cached(content_type, b.plain, false),
                        None => Response::text(500, "handler failed\n"),
                    }
                }
            };
            rec.time("server.http.write", root.id(), i, || {
                conn.write_response(&resp, Duration::from_secs(5), false)
            })
            .map_err(|e| format!("write: {e}"))?;
        }
        let answer = client.recv().map_err(|e| format!("recv: {e}"))?;
        if oracle.judge(req.target, &answer).is_err() {
            *failures += 1;
        }
    }
    Ok(started.elapsed().as_secs_f64())
}

fn counter(name: &str) -> u64 {
    osn_obs::counter(name).value()
}

/// The per-layer part of the traced run: the mix replayed in-process,
/// untraced and traced, and the layer means and wait estimate from it.
/// `page_ms` is the real daemon's median page.
fn replay_layers(
    out: &mut Outcome,
    seed: u64,
    n: usize,
    query: &Arc<SnapshotQuery>,
    oracle: &Oracle,
    rec: &Recorder,
    page_ms: Option<f64>,
) {
    let mut failures = 0;
    let plain = replay(seed, n, query, oracle, &Recorder::new(false), &mut failures);
    let traced_wall = replay(seed, n, query, oracle, rec, &mut failures);
    out.attempted += 2 * n as u64;
    out.failed += failures;
    match (plain, traced_wall) {
        (Ok(p), Ok(t)) => out.set("trace_overhead", t / p),
        (Err(e), _) | (_, Err(e)) => out.problem(format!("in-process replay: {e}")),
    }
    let spans = rec.spans();
    for (metric, layer) in [
        ("server.http.read_head_us", "server.http.read_head"),
        ("server.router.route_us", "server.router.route"),
        ("server.cache.lookup_us", "server.cache.lookup"),
        ("server.cache.store_us", "server.cache.store"),
        ("server.handlers.handle_us", "server.handlers.handle"),
        ("server.http.write_us", "server.http.write"),
    ] {
        let total: u64 = crate::trace::self_ns_by_request(&spans, layer)
            .values()
            .sum();
        out.set(metric, total as f64 / n as f64 / 1e3);
    }
    let requests: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "server.request")
        .map(|s| s.duration_ns())
        .collect();
    let service_us = requests.iter().sum::<u64>() as f64 / requests.len().max(1) as f64 / 1e3;
    out.set("server.service_us", service_us);
    if let Some(page_ms) = page_ms {
        out.set(
            "server.wait_us",
            page_ms * 1e3 - PAGE_LEN as f64 * service_us,
        );
    }
}

pub fn run(trace: &TraceConfig, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let dir = match WorkDir::new("serve-read") {
        Ok(d) => d,
        Err(e) => {
            out.op(false);
            out.problem(format!("work dir: {e}"));
            return out;
        }
    };
    let rec = Recorder::new(traced);
    let cpus = CpuSplit::new();
    let mut reference = Reference::new();
    let mut drains_clean = true;
    let (serving, setup_times) = crate::repeat_setup(
        traced,
        &mut reference,
        |_| {
            if let Some(c) = &cpus {
                c.daemon_side();
            }
            setup(trace, dir.path(), &rec)
        },
        |s| drains_clean &= s.map_or(true, teardown),
    );
    if let Some(c) = &cpus {
        c.generator_side();
    }
    let serving = match serving {
        Ok(s) => s,
        Err(e) => {
            out.op(false);
            out.problem(e);
            return out;
        }
    };
    let query = Arc::clone(&serving.query);
    out.digest = Some(crate::digest([
        query.metrics_csv().as_bytes(),
        query.communities_csv().as_bytes(),
    ]));

    let oracle = Oracle::new(&query, false);
    let counters = || {
        [
            counter("http.cache.hits"),
            counter("http.cache.misses"),
            counter("http.shed"),
        ]
    };
    let mut load = Load::new(serving.server.local_addr(), &query, &oracle, trace.seed);
    let warm_up = load.pages(WARM_UP_S, cpus.as_ref(), &mut reference);
    let before = counters();
    let pages = warm_up.and_then(|_| load.pages(seconds, cpus.as_ref(), &mut reference));
    let after = counters();
    // Hang up rather than leave the connection parked in the daemon.
    load.client = None;
    let [hits, misses, shed] = [0, 1, 2].map(|i| after[i] - before[i]);
    drains_clean &= teardown(serving);
    out.attempted += load.sent;
    out.failed += load.failed;
    load.errors.into_iter().for_each(|e| out.problem(e));
    if !drains_clean {
        out.problem("server drain was not clean");
    }
    let pages = match pages {
        Ok(p) => p,
        Err(e) => {
            out.problem(e);
            return out;
        }
    };
    let latency = &pages.latency_ms;

    if traced {
        out.set("server.shed", shed as f64);
        out.set(
            "server.cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        let n = (REPLAY_PER_SECOND * seconds).round().max(1.0) as usize;
        replay_layers(
            &mut out,
            trace.seed,
            n,
            &query,
            &oracle,
            &rec,
            latency.median(),
        );
        out.finish_trace(&rec, &format!("serve-read-seed{}", trace.seed));
        return out;
    }

    out.set(
        "setup_s",
        median(&setup_times).expect("at least one set-up"),
    );
    match (latency.median(), pages.cpu_us_per_request.median()) {
        (Some(page_ms), Some(cpu_us)) if cpu_us > 0.0 => {
            out.set("latency_ms", page_ms);
            out.set("rate_per_s", 1e6 / cpu_us);
        }
        _ => out.problem("no page was answered"),
    }
    out.detail("page_len", PAGE_LEN);
    out.detail("page_p50_ms", latency.percentile_json(50.0));
    out.detail("page_p90_ms", latency.percentile_json(90.0));
    out.detail("page_p99_ms", latency.percentile_json(99.0));
    out.detail(
        "raw_page_p50_ms",
        pages.raw_latency_ms.percentile_json(50.0),
    );
    out.detail("reference_ms", pages.reference_ms.percentile_json(50.0));
    out.detail("daemon_cpu_s", pages.daemon_cpu_s);
    out.detail(
        "daemon_cpu_us_per_request_p50",
        pages.cpu_us_per_request.percentile_json(50.0),
    );
    out.detail("cpu_split", cpus.is_some());
    out.detail("server_shed", shed);
    out.detail("server_workers", crate::nproc().saturating_sub(1).max(1));
    out.detail("server_shards", 1);
    out
}
