//! `write`: the trace streamed through `POST /v1/events` into a fresh
//! WAL while a follow head tails the WAL's trace and reads run beside
//! the writes.
//!
//! One client on one keep-alive connection, ticking on a fixed schedule
//! that spreads the trace over the run, at most [`MAX_TICK_RATE`] ticks
//! per second. Each tick it POSTs a page of the next [`PAGE_BATCHES`]
//! 64-event batches, pipelined, and the page's first key again (it must
//! come back as a duplicate: the idempotency window), then reads one
//! answer of the read mix from the live head (read-your-writes).
//!
//! * Each page is timed from when it was due to its last ack: the
//!   workload's latency, at the median.
//! * Batches acked per second of daemon CPU time is its rate: what one
//!   core of the write plane sustains, which only a cheaper write path
//!   raises. It is taken from the daemon's CPU time per acked batch over
//!   each tick, at the median, as the latency is.
//! * After each tick the client runs the [`Reference`] work on its own
//!   CPU and on the daemon's, and scales the tick's latency and CPU time
//!   by it.
//! * Between ticks the client samples when each acked batch becomes
//!   visible: the live head has published the day of its last event.
//!
//! The daemon (server and WAL) runs on CPUs of its own and the client
//! on another ([`CpuSplit`]). The follow head shares the client's CPU at
//! the lowest priority: it rebuilds the whole prefix at every publish
//! and so keeps a CPU busy for the whole run, and on the daemon's CPU
//! whether a worker waited for the rest of the head's time slice split
//! pages into two latencies, in shares that moved from run to run. The
//! client sleeps between ticks, which is when the head runs, and spins
//! from [`WAKE_MARGIN`] before each tick until its read is answered. The
//! WAL does not wait for fsync (see [`open_plane`]). At the end the WAL is
//! sealed, the head runs to `Complete`, and the served CSVs must equal
//! `SnapshotQuery::build` of the generated log; every read must agree
//! with it too. Every publish rebuilds the whole prefix, so visibility
//! is publish-bound.

use crate::http::{post_events, Client, Response};
use crate::load::{daemon_cpu_ns, reference_ms, wait_until, CpuSplit};
use crate::mix::{expect, Mix, Target};
use crate::reference::Reference;
use crate::serve_read::serve_query_config;
use crate::stats::{median, Samples};
use crate::trace::Recorder;
use crate::{json_opt, Outcome, WorkDir};
use osn_core::live::{
    run_follow, FollowReport, IngestHealth, LiveError, LiveHeadConfig, LiveQuery,
};
use osn_core::query::SnapshotQuery;
use osn_genstream::{TraceConfig, TraceGenerator};
use osn_graph::wal::{Wal, WalEvent, WalOptions, WalStats};
use osn_graph::{Day, EventLog, Time};
use osn_server::{AccessLog, Server, ServerConfig, WritePlaneConfig};
use osn_stats::sampling::derive_seed;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const TOKEN: &str = "osnbench";

/// Highest tick rate: ticks at least 100 ms apart. After an answer the
/// daemon's worker lingers on the connection for the next request, 1 ms
/// by its constant but 4–8 ms in practice (a socket read timeout rounds
/// up to whole timer ticks); ticks this far apart always find the
/// connection parked, so every page takes the same path. 10 pages of 17
/// POSTs a second also stay below the write plane's 200 batches/s per
/// token.
const MAX_TICK_RATE: f64 = 10.0;

/// Events per POST.
const BATCH_EVENTS: usize = 64;

/// How long before a tick the client stops sleeping and spins: more than
/// one scheduler tick (4 ms), the longest a wake-up waits while the head
/// runs out its time slice on the client's CPU.
const WAKE_MARGIN: Duration = Duration::from_millis(6);

/// Batches per page: each tick POSTs this many batches pipelined in one
/// write, then the page's first key again. The page is timed as one
/// request, so its latency is many batches' work rather than one
/// fsync's, which the host's scheduling would swamp. Part of a page's
/// time is hand-offs between the daemon's threads, which the
/// [`Reference`] does not track, and the more batches a page holds the
/// smaller that part's share (`BENCHMARK.md` has the measurements).
const PAGE_BATCHES: usize = 16;

/// The serve-read trace configuration grown to 13,000 final nodes:
/// ≈200K events, ≈3,100 batches, ≈200 ticks, twenty seconds of ticks at
/// [`MAX_TICK_RATE`]. A tick is one sample of latency and of daemon CPU
/// time, and a run's median rests on all of them.
pub fn trace(seed: u64) -> TraceConfig {
    let mut trace = crate::serve_read::trace(seed);
    trace.growth.final_nodes = 13_000;
    trace
}

/// One POST body and the day of its last event.
#[derive(Debug, Clone)]
struct Batch {
    body: String,
    last_day: Day,
}

/// The generated trace as write batches, in order.
fn batches(log: &EventLog, per_batch: usize) -> Vec<Batch> {
    let mut bytes = Vec::new();
    osn_graph::io::write_log_v2(log, &mut bytes).expect("serialise to memory");
    let text = String::from_utf8(bytes).expect("v2 traces are UTF-8");
    let lines: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("N ") || l.starts_with("E "))
        .collect();
    lines
        .chunks(per_batch.max(1))
        .map(|c| {
            let secs: u64 = c[c.len() - 1]
                .split(' ')
                .nth(1)
                .and_then(|t| t.parse().ok())
                .expect("event lines carry a timestamp");
            Batch {
                body: c.iter().flat_map(|l| [*l, "\n"]).collect(),
                last_day: Time(secs).day(),
            }
        })
        .collect()
}

type Head = JoinHandle<Result<FollowReport, LiveError>>;

/// The write plane: daemon, WAL and follow head.
struct Plane {
    server: Server,
    wal: Arc<Wal>,
    live: Arc<LiveQuery>,
    stop: Arc<AtomicBool>,
    head: Head,
}

impl Plane {
    /// Stop serving and following; the head's report, if it finished.
    fn shutdown(self) -> (bool, Option<FollowReport>) {
        self.server.request_shutdown();
        let clean = self.server.join().clean();
        self.stop.store(true, Ordering::Release);
        let report = self.head.join().ok().and_then(Result::ok);
        (clean, report)
    }
}

/// `osn serve FILE --follow --accept-writes --no-wal-fsync`: the WAL
/// acknowledges a batch once it is written, without waiting for the
/// disk. On a shared virtual disk one fdatasync takes 0.2–0.3 ms and
/// moves by ±15% from run to run, which would swamp the write path's
/// own work; the traced run times appends with fsync on.
/// `head_pin` places the head's thread (see the module docs).
fn open_plane(trace: &Path, head_pin: Option<impl Fn() + Send + 'static>) -> Result<Plane, String> {
    let opts = WalOptions {
        fsync: false,
        ..WalOptions::default()
    };
    let (wal, _) = Wal::open_default(trace, opts).map_err(|e| format!("open WAL: {e}"))?;
    let wal = Arc::new(wal);
    let live = LiveQuery::for_follow();
    let head_cfg = LiveHeadConfig {
        query: serve_query_config(),
        ..LiveHeadConfig::new(trace)
    };
    let stop = Arc::new(AtomicBool::new(false));
    let head = {
        let (live, stop) = (Arc::clone(&live), Arc::clone(&stop));
        std::thread::spawn(move || {
            if let Some(pin) = head_pin {
                pin();
                crate::load::lowest_priority();
            }
            run_follow(&head_cfg, &live, &stop)
        })
    };
    let server = Server::start_live(
        ServerConfig {
            access_log: AccessLog::to_sink(Box::new(std::io::sink())),
            write: Some(WritePlaneConfig::new(
                Arc::clone(&wal),
                vec![TOKEN.to_string()],
            )),
            ..ServerConfig::default()
        },
        Arc::clone(&live),
    );
    match server {
        Ok(server) => Ok(Plane {
            server,
            wal,
            live,
            stop,
            head,
        }),
        Err(e) => {
            stop.store(true, Ordering::Release);
            let _ = head.join();
            Err(format!("bind: {e}"))
        }
    }
}

/// What the client saw. Latencies and CPU costs are per tick, scaled by
/// the reference run after it ([`Reference::scale`]).
#[derive(Debug, Default)]
struct Traffic {
    /// Ack latencies, from when each send was due.
    ack_ms: Vec<f64>,
    /// Unscaled ack latencies.
    raw_ack_ms: Vec<f64>,
    /// The reference time after each tick.
    reference_ms: Vec<f64>,
    visible_s: Vec<f64>,
    /// Acked batches still invisible when the writer finished (they
    /// become visible only when the seal completes the last day).
    invisible: usize,
    sent: u64,
    failed: u64,
    shed: u64,
    /// Batches acked on their first send.
    acked: u64,
    /// Read latencies, and every answer, checked after the run against
    /// the final snapshot.
    read_ms: Vec<f64>,
    answers: Vec<(Target, Result<Response, String>)>,
    /// Per tick: the daemon's CPU time since the previous tick ended
    /// (its page, its read, and whatever ran between), per batch acked.
    cpu_us_per_batch: Vec<f64>,
    /// Daemon CPU time while the client ran.
    daemon_cpu_s: f64,
    errors: Vec<String>,
}

/// Send `request` (one or several pipelined requests) on `client` and
/// read `answers` responses; on failure, or when the daemon closes, the
/// connection is replaced.
fn exchange(
    client: &mut Option<Client>,
    addr: std::net::SocketAddr,
    request: &[u8],
    answers: usize,
) -> Result<Vec<Response>, String> {
    let resps = client
        .as_mut()
        .ok_or_else(|| "no connection".to_string())
        .and_then(|c| {
            c.send(request).map_err(|e| format!("send: {e}"))?;
            (0..answers)
                .map(|_| c.recv().map_err(|e| format!("recv: {e}")))
                .collect::<Result<Vec<_>, _>>()
        });
    if resps.as_ref().map_or(true, |rs| rs.iter().any(|r| r.close)) {
        *client = Client::connect_spinning(addr).ok();
    }
    resps
}

/// The client, on the calling thread: every tick one page of batches,
/// then one read, then a reference run on both CPUs.
fn client_load(
    seconds: f64,
    seed: u64,
    addr: std::net::SocketAddr,
    batches: &[Batch],
    live: &LiveQuery,
    cpus: Option<&CpuSplit>,
    reference: &mut Reference,
) -> Traffic {
    let mut t = Traffic::default();
    let mut client = match Client::connect_spinning(addr) {
        Ok(c) => Some(c),
        Err(e) => {
            t.errors.push(format!("connect: {e}"));
            None
        }
    };
    let mut mix = Mix::new(derive_seed(seed, 4));
    let pages = batches.len().div_ceil(PAGE_BATCHES).max(1);
    let interval = Duration::from_secs_f64((seconds / pages as f64).max(1.0 / MAX_TICK_RATE));
    let mut pending: VecDeque<(Day, Instant)> = VecDeque::new();
    let sample_visibility = |pending: &mut VecDeque<(Day, Instant)>, t: &mut Traffic| {
        let Some(published) = live.published_day() else {
            return;
        };
        while pending.front().is_some_and(|&(d, _)| d <= published) {
            let (_, acked) = pending.pop_front().expect("front checked");
            t.visible_s.push(acked.elapsed().as_secs_f64());
        }
    };
    let mut cpu_before = daemon_cpu_ns();
    let start = Instant::now();
    for (p, page) in batches.chunks(PAGE_BATCHES).enumerate() {
        let acked_before = t.acked;
        // The page: its batches under fresh keys (201), then its first
        // key again (200, a duplicate).
        let first = p * PAGE_BATCHES;
        let mut request = Vec::new();
        let mut want = Vec::with_capacity(page.len() + 1);
        for (j, batch) in page.iter().chain(&page[..1]).enumerate() {
            let key = format!("b-{}", first + j % page.len());
            request.extend(post_events(TOKEN, &key, &batch.body));
            want.push(if j < page.len() { 201 } else { 200 });
        }
        let due = start + interval * p as u32;
        while due.saturating_duration_since(Instant::now()) > WAKE_MARGIN {
            sample_visibility(&mut pending, &mut t);
            std::thread::sleep(Duration::from_millis(1));
        }
        wait_until(due, WAKE_MARGIN);
        t.sent += want.len() as u64;
        let mut ack_ms = None;
        match exchange(&mut client, addr, &request, want.len()) {
            Ok(resps) => {
                ack_ms = Some(due.elapsed().as_secs_f64() * 1e3);
                let acked = Instant::now();
                for (j, (r, &want)) in resps.iter().zip(&want).enumerate() {
                    if r.status == want {
                        if let Some(batch) = page.get(j).filter(|_| want == 201) {
                            pending.push_back((batch.last_day, acked));
                            t.acked += 1;
                        }
                        continue;
                    }
                    t.failed += 1;
                    if r.status == 429 || r.status == 503 {
                        t.shed += 1;
                    }
                    if t.errors.len() < 5 {
                        t.errors.push(format!(
                            "POST b-{}: status {} (want {want})",
                            first + j % page.len(),
                            r.status
                        ));
                    }
                }
            }
            Err(e) => {
                t.failed += want.len() as u64;
                if t.errors.len() < 5 {
                    t.errors.push(format!("POST page {p}: {e}"));
                }
            }
        }
        if let Some(snapshot) = live.get() {
            let req = mix.next(&snapshot.metric_days(), &snapshot.community_days());
            let sent = Instant::now();
            let resp = exchange(&mut client, addr, &req.bytes(), 1).map(|mut rs| rs.remove(0));
            t.read_ms.push(sent.elapsed().as_secs_f64() * 1e3);
            t.answers.push((req.target, resp));
        }
        let cpu = daemon_cpu_ns();
        let ref_ms = reference_ms(cpus, reference);
        if let Some(ms) = ack_ms {
            t.ack_ms.push(Reference::scale(ms, ref_ms));
            t.raw_ack_ms.push(ms);
            t.reference_ms.push(ref_ms);
        }
        match (&cpu_before, &cpu) {
            (Ok(c0), Ok(c1)) => {
                let used_ns = c1.saturating_sub(*c0);
                t.daemon_cpu_s += used_ns as f64 / 1e9;
                let acked = t.acked - acked_before;
                if acked > 0 {
                    let us = used_ns as f64 / 1e3 / acked as f64;
                    t.cpu_us_per_batch.push(Reference::scale(us, ref_ms));
                }
            }
            (Err(e), _) | (_, Err(e)) if t.errors.len() < 5 => {
                t.errors.push(format!("daemon CPU time: {e}"))
            }
            _ => {}
        }
        // Whatever the daemon did during the reference run counts
        // towards the next tick.
        cpu_before = cpu;
    }
    sample_visibility(&mut pending, &mut t);
    t.invisible = pending.len();
    t
}

/// The `"name":[...]` day list of a `/v1/days` body.
fn day_list(body: &str, name: &str) -> Option<Vec<Day>> {
    let list = body
        .split(&format!("\"{name}\":["))
        .nth(1)?
        .split(']')
        .next()?;
    if list.is_empty() {
        return Some(Vec::new());
    }
    list.split(',').map(|d| d.trim().parse().ok()).collect()
}

/// Check one answer the reader got from a prefix snapshot against the
/// final snapshot: rows are immutable once published, day lists are
/// prefixes, the rest has its fixed shape.
fn check_answer(
    reference: &SnapshotQuery,
    target: Target,
    resp: &crate::http::Response,
) -> Result<(), String> {
    if resp.status != 200 {
        return Err(format!("{}: status {}", target.path(), resp.status));
    }
    let body = resp.decoded_body()?;
    let ok = match target {
        Target::Days => {
            let text = String::from_utf8_lossy(&body);
            let prefix_of = |name: &str, full: Vec<Day>| {
                day_list(&text, name).is_some_and(|got| full.starts_with(&got))
            };
            prefix_of("metric_days", reference.metric_days())
                && prefix_of("community_days", reference.community_days())
        }
        Target::Meta => body.starts_with(b"{\"nodes\":") && body.ends_with(b"}"),
        other => expect(reference, other, true).is_some_and(|e| e.accepts(&body)),
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{}: answer disagrees with the final snapshot: {:?}",
            target.path(),
            String::from_utf8_lossy(&body[..body.len().min(120)])
        ))
    }
}

/// The counters the traced run reads around the write phase.
fn counters() -> [u64; 4] {
    [
        osn_obs::counter("write.accepted").value(),
        osn_obs::counter("write.duplicates").value(),
        osn_obs::counter("ingest.tail_polls").value(),
        osn_obs::counter("head.publishes").value(),
    ]
}

/// Append every batch straight to a fresh WAL with fsync on (the
/// default), back to back with one outstanding, each page followed by
/// its first key again, as the client sends them; spans around each
/// append. Returns the wall time and the WAL's counters.
fn direct_appends(
    batches: &[Batch],
    trace: &Path,
    rec: &Recorder,
) -> Result<(f64, WalStats), String> {
    let events: Vec<Vec<WalEvent>> = batches
        .iter()
        .map(|b| b.body.lines().map(WalEvent::parse_line).collect())
        .collect::<Result<_, _>>()?;
    let (wal, _) =
        Wal::open_default(trace, WalOptions::default()).map_err(|e| format!("open WAL: {e}"))?;
    let start = Instant::now();
    for (p, page) in events.chunks(PAGE_BATCHES).enumerate() {
        let first = p * PAGE_BATCHES;
        for (j, batch) in page.iter().chain(&page[..1]).enumerate() {
            let i = first + j % page.len();
            let key = format!("b-{i}");
            rec.time("graph.wal.append", None, i as u64, || {
                wal.append(Some(&key), batch)
            })
            .map_err(|e| format!("append {key}: {e}"))?;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let stats = wal.stats();
    wal.seal().map_err(|e| format!("seal: {e}"))?;
    Ok((wall, stats))
}

pub fn run(trace: &TraceConfig, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let dir = match WorkDir::new("write") {
        Ok(d) => d,
        Err(e) => {
            out.op(false);
            out.problem(format!("work dir: {e}"));
            return out;
        }
    };
    let cpus = CpuSplit::new();
    let mut speed = Reference::new();
    let mut drains_clean = true;
    let (plane, setup_times) = crate::repeat_setup(
        traced,
        &mut speed,
        |i| {
            if let Some(c) = &cpus {
                c.daemon_side();
            }
            // `osn generate`, then open the write plane on a fresh WAL.
            let log = TraceGenerator::new(trace.clone()).generate();
            let work = batches(&log, BATCH_EVENTS);
            let head_pin = cpus.as_ref().map(CpuSplit::generator_pin);
            open_plane(&dir.path().join(format!("trace-{i}.events")), head_pin)
                .map(|p| (p, work, log))
        },
        |p| drains_clean &= p.map_or(true, |(p, _, _)| p.shutdown().0),
    );
    if let Some(c) = &cpus {
        c.generator_side();
    }
    let (plane, work, log) = match plane {
        Ok(p) => p,
        Err(e) => {
            out.op(false);
            out.problem(e);
            return out;
        }
    };
    // What the daemon must serve once the trace is in, built before the
    // run so that its working memory never adds to the head's.
    let reference = SnapshotQuery::build(&log, &serve_query_config());
    drop(log);
    let addr = plane.server.local_addr();
    let before = counters();
    let publish_ms_before = osn_obs::histogram("head.publish_ms").snapshot();

    let traffic = client_load(
        seconds,
        trace.seed,
        addr,
        &work,
        &plane.live,
        cpus.as_ref(),
        &mut speed,
    );
    let after = counters();
    let wal_stats = plane.wal.stats();

    // Seal: the trace gets its footer and the head runs to completion.
    if let Err(e) = plane.wal.seal() {
        out.problem(format!("seal: {e}"));
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    while plane.live.health() != IngestHealth::Complete && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let publish_ms = {
        let mut now = osn_obs::histogram("head.publish_ms").snapshot();
        now.count -= publish_ms_before.count;
        now.sum -= publish_ms_before.sum;
        now
    };
    match plane.live.get() {
        Some(served) if plane.live.health() == IngestHealth::Complete => {
            if served.metrics_csv() != reference.metrics_csv()
                || served.communities_csv() != reference.communities_csv()
            {
                out.problem("served CSVs differ from SnapshotQuery::build of the generated log");
            }
        }
        _ => out.problem(format!(
            "head did not complete after the seal (health {})",
            plane.live.health().as_str()
        )),
    }
    out.digest = Some(crate::digest([
        reference.metrics_csv().as_bytes(),
        reference.communities_csv().as_bytes(),
    ]));
    let (clean, report) = plane.shutdown();
    drains_clean &= clean;
    if !drains_clean {
        out.problem("server drain was not clean");
    }

    out.attempted += traffic.sent;
    out.failed += traffic.failed;
    traffic.errors.iter().for_each(|e| out.problem(e.clone()));
    let mut read_errors = Vec::new();
    for (target, resp) in &traffic.answers {
        let verdict = resp
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|r| check_answer(&reference, *target, r));
        out.op(verdict.is_ok());
        if let Err(e) = verdict {
            if read_errors.len() < 5 {
                read_errors.push(e);
            }
        }
    }
    read_errors.into_iter().for_each(|e| out.problem(e));

    let ack_ms = Samples::new(traffic.ack_ms);
    let cpu_us_per_batch = Samples::new(traffic.cpu_us_per_batch);
    let visible_s = Samples::new(traffic.visible_s);
    let read_ms = Samples::new(traffic.read_ms);

    if traced {
        let [acc0, dup0, polls0, pubs0] = before;
        let [acc1, dup1, polls1, pubs1] = after;
        out.set("server.write.accepted", (acc1 - acc0) as f64);
        out.set("server.write.duplicates", (dup1 - dup0) as f64);
        out.set("server.write.shed", traffic.shed as f64);
        out.set("graph.tail.polls", (polls1 - polls0) as f64);
        out.set("core.live.publishes", (pubs1 - pubs0) as f64);
        out.set("core.live.publish_ms_mean", publish_ms.mean());
        let rec = Recorder::new(true);
        let plain = direct_appends(
            &work,
            &dir.path().join("direct-0.events"),
            &Recorder::new(false),
        );
        let spanned = direct_appends(&work, &dir.path().join("direct-1.events"), &rec);
        match (plain, spanned) {
            (Ok((p, _)), Ok((t, stats))) => {
                out.set("trace_overhead", t / p);
                out.set("graph.wal.fsyncs", stats.fsyncs as f64);
                out.set(
                    "graph.wal.batches_per_fsync",
                    stats.appends as f64 / stats.fsyncs.max(1) as f64,
                );
            }
            (Err(e), _) | (_, Err(e)) => out.problem(format!("direct appends: {e}")),
        }
        let append_us = Samples::new(
            rec.spans()
                .iter()
                .map(|s| s.duration_ns() as f64 / 1e3)
                .collect(),
        );
        if let (Some(p50), Some((_, tail))) = (append_us.median(), append_us.tail()) {
            out.set("graph.wal.append_p50_us", p50);
            out.set("graph.wal.append_tail_us", tail);
        }
        out.finish_trace(&rec, &format!("write-seed{}", trace.seed));
        return out;
    }

    out.set(
        "setup_s",
        median(&setup_times).expect("at least one set-up"),
    );
    match (ack_ms.median(), cpu_us_per_batch.median()) {
        (Some(page_ms), Some(cpu_us)) if cpu_us > 0.0 => {
            out.set("latency_ms", page_ms);
            out.set("rate_per_s", 1e6 / cpu_us);
        }
        _ => out.problem("no page was acknowledged"),
    }
    out.detail("write_ack_p50_ms", ack_ms.percentile_json(50.0));
    out.detail("write_ack_p90_ms", ack_ms.percentile_json(90.0));
    out.detail("write_ack_p99_ms", ack_ms.percentile_json(99.0));
    out.detail("write_visible_p99_s", visible_s.percentile_json(99.0));
    out.detail("write_visible_p50_s", visible_s.percentile_json(50.0));
    out.detail("write_read_p99_ms", read_ms.percentile_json(99.0));
    out.detail(
        "raw_ack_p50_ms",
        Samples::new(traffic.raw_ack_ms).percentile_json(50.0),
    );
    out.detail(
        "reference_ms",
        Samples::new(traffic.reference_ms).percentile_json(50.0),
    );
    out.detail("batches", work.len());
    out.detail("daemon_cpu_s", traffic.daemon_cpu_s);
    out.detail(
        "daemon_cpu_us_per_batch_p50",
        cpu_us_per_batch.percentile_json(50.0),
    );
    out.detail("invisible_at_writer_end", traffic.invisible);
    out.detail("wal_appends", wal_stats.appends);
    out.detail(
        "head_publishes",
        json_opt(report.map(|r| r.publishes as f64)),
    );
    out.detail("write_shed", traffic.shed);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_lists_parse_from_days_json() {
        let body = "{\"nodes\":3,\"metric_days\":[1,8,15],\"community_days\":[]}";
        assert_eq!(day_list(body, "metric_days"), Some(vec![1, 8, 15]));
        assert_eq!(day_list(body, "community_days"), Some(vec![]));
        assert_eq!(day_list(body, "other"), None);
    }

    #[test]
    fn batches_cover_the_log_in_order() {
        let log = TraceGenerator::new(TraceConfig::tiny()).generate();
        let b = batches(&log, 64);
        let lines: usize = b.iter().map(|b| b.body.lines().count()).sum();
        assert_eq!(lines, log.events().len());
        assert!(b.windows(2).all(|w| w[0].last_day <= w[1].last_day));
        assert_eq!(b.last().unwrap().last_day, log.end_day());
    }
}
