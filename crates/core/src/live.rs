//! The live ingest head: bounded-staleness serving over a growing trace.
//!
//! `osn serve --follow` runs [`run_follow`] on a dedicated thread. It
//! tails an append-only v2 trace with [`osn_graph::TailReader`] (torn
//! tails are pending, mid-file corruption quarantines per policy),
//! accumulates the committed events, and — each time a new *complete*
//! day becomes final — rebuilds the analysis over that day-prefix and
//! publishes the resulting [`SnapshotQuery`] into a shared [`LiveQuery`]
//! behind an atomic `Arc` swap. Query workers clone the `Arc` per
//! request, so every request sees one internally consistent snapshot
//! and the head never blocks the serving plane.
//!
//! ## Staleness model
//!
//! A day is *final* once a later-day event (or the `#%end` footer) has
//! been committed — until then its events may still be arriving, so the
//! newest publishable prefix is always `day(last committed event) - 1`.
//! Once the footer verifies, the full log is published; because that
//! final publish runs the very same [`SnapshotQuery::build`] over the
//! very same completed [`EventLog`] a batch run would load, follow-mode
//! final state is **byte-identical to batch replay by construction**.
//! [`LiveQuery::head_json`] reports the published day, applied event
//! count, ingest lag (committed-but-unpublished events, uncommitted
//! tail bytes) and health, so clients can bound the staleness of any
//! answer.
//!
//! ## Crash resume
//!
//! After every publish the head writes a
//! [`ReplayCheckpoint`] (`head.ckpt`, atomic tmp+rename) whose `pos` is
//! the published day-boundary event position and whose fingerprint is
//! the published prefix's [`EventLog::fingerprint`]. On restart the
//! head re-reads the trace from byte zero — the committed event
//! sequence is a pure function of the file bytes, so the rebuilt state
//! is byte-identical to the pre-kill run — validates the checkpointed
//! fingerprint against the re-read prefix (refusing a swapped trace),
//! and suppresses intermediate publishes below the checkpointed day so
//! catch-up costs one build, not one per day.
//!
//! ## Degradation
//!
//! The publish step runs under [`osn_metrics::supervisor`] panic
//! isolation with deterministic retries. If a build fails, the tailed
//! file disappears, ingest stops committing for longer than the
//! watchdog, or the stream turns out corrupt under `Strict`, queries
//! keep being answered from the last published snapshot with
//! [`IngestHealth`] (`wedged` / `missing`) and staleness reported —
//! the serving plane never turns ingest trouble into 500s.

use crate::query::{SnapshotQuery, SnapshotQueryConfig};
use osn_graph::atomicfile::write_bytes_atomic;
use osn_graph::{
    Day, EventLog, EventLogBuilder, RecoveryPolicy, ReplayCheckpoint, TailError, TailEvent,
    TailReader, Time,
};
use osn_metrics::supervisor::{supervised_call, RunPolicy, TaskError};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Ingest health as reported by `/v1/head`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestHealth {
    /// Tailing normally (including quietly waiting for appends).
    Ok,
    /// The tailed file does not currently exist; serving the last
    /// published snapshot until it (re)appears.
    Missing,
    /// Ingest or publishing is stuck (corruption under `Strict`, a
    /// deterministic build failure, no progress past the watchdog);
    /// serving the last published snapshot.
    Wedged,
    /// The trace footer verified: the stream is complete and the final
    /// snapshot is published.
    Complete,
}

impl IngestHealth {
    /// Stable lower-case token for JSON and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            IngestHealth::Ok => "ok",
            IngestHealth::Missing => "missing",
            IngestHealth::Wedged => "wedged",
            IngestHealth::Complete => "complete",
        }
    }

    fn from_u8(v: u8) -> IngestHealth {
        match v {
            1 => IngestHealth::Missing,
            2 => IngestHealth::Wedged,
            3 => IngestHealth::Complete,
            _ => IngestHealth::Ok,
        }
    }
}

const RESUMED_NONE: u32 = u32::MAX;

/// The shared handle between the ingest head and the serving plane: the
/// current snapshot behind an atomic swap, plus the head-state gauges
/// `/v1/head` reports.
///
/// Readers call [`LiveQuery::get`] once per request and keep the
/// returned `Arc` for the request's lifetime — a concurrent publish
/// never mutates a snapshot in place, so a request's view is always
/// internally consistent (bounded staleness, no torn reads).
#[derive(Debug)]
pub struct LiveQuery {
    current: RwLock<Option<Arc<SnapshotQuery>>>,
    epoch: Instant,
    follow: bool,
    health: AtomicU8,
    published: AtomicBool,
    day: AtomicU32,
    events_applied: AtomicU64,
    published_pos: AtomicU64,
    committed_events: AtomicU64,
    committed_bytes: AtomicU64,
    pending_bytes: AtomicU64,
    last_publish_ms: AtomicU64,
    resumed_from: AtomicU32,
    /// Bumped on every snapshot install; response caches key the one
    /// mutable published day (and the day list) to this, so a publish
    /// invalidates exactly what it can have changed.
    generation: AtomicU64,
}

impl LiveQuery {
    fn empty(follow: bool, health: IngestHealth) -> LiveQuery {
        LiveQuery {
            current: RwLock::new(None),
            epoch: Instant::now(),
            follow,
            health: AtomicU8::new(health as u8),
            published: AtomicBool::new(false),
            day: AtomicU32::new(0),
            events_applied: AtomicU64::new(0),
            published_pos: AtomicU64::new(0),
            committed_events: AtomicU64::new(0),
            committed_bytes: AtomicU64::new(0),
            pending_bytes: AtomicU64::new(0),
            last_publish_ms: AtomicU64::new(0),
            resumed_from: AtomicU32::new(RESUMED_NONE),
            generation: AtomicU64::new(0),
        }
    }

    /// A follow-mode handle with nothing published yet. The head fills
    /// it in as days become final.
    pub fn for_follow() -> Arc<LiveQuery> {
        Arc::new(LiveQuery::empty(true, IngestHealth::Ok))
    }

    /// A frozen handle over a finished trace — the batch `osn serve`
    /// path. Health is `complete` and the snapshot never changes.
    pub fn fixed(query: Arc<SnapshotQuery>) -> Arc<LiveQuery> {
        let live = LiveQuery::empty(false, IngestHealth::Complete);
        let meta = query.meta();
        let events = meta.num_nodes as u64 + meta.num_edges;
        live.install_arc(query, meta.num_days.saturating_sub(1), events, events);
        Arc::new(live)
    }

    /// The snapshot to answer this request from, or `None` when nothing
    /// has been published yet (fresh follow on an empty trace).
    pub fn get(&self) -> Option<Arc<SnapshotQuery>> {
        self.current.read().ok()?.clone()
    }

    /// Current ingest health.
    pub fn health(&self) -> IngestHealth {
        IngestHealth::from_u8(self.health.load(Ordering::Relaxed))
    }

    /// Whether at least one snapshot is available to serve.
    pub fn is_published(&self) -> bool {
        self.published.load(Ordering::Relaxed)
    }

    /// Monotone publish generation: 0 before the first install, bumped
    /// on every snapshot swap. Read it around [`LiveQuery::get`] (equal
    /// before and after) to key caches to one consistent snapshot.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The last published (final) day, if any.
    pub fn published_day(&self) -> Option<Day> {
        self.is_published()
            .then(|| self.day.load(Ordering::Relaxed))
    }

    /// Committed-but-not-yet-published events: they belong to a day that
    /// is not final yet. The write-plane admission controller sheds
    /// writes when this exceeds its bound.
    pub fn lag_events(&self) -> u64 {
        self.committed_events
            .load(Ordering::Relaxed)
            .saturating_sub(self.published_pos.load(Ordering::Relaxed))
    }

    /// Uncommitted bytes at the tail (a chunk mid-append).
    pub fn lag_bytes(&self) -> u64 {
        self.pending_bytes.load(Ordering::Relaxed)
    }

    /// Milliseconds since the last snapshot publish (since construction
    /// when nothing has been published yet).
    pub fn staleness_ms(&self) -> u64 {
        self.now_ms()
            .saturating_sub(self.last_publish_ms.load(Ordering::Relaxed))
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Swap in a freshly built snapshot. `pos` is the committed-event
    /// position the snapshot covers (for lag math); `applied` is the
    /// event count the log actually kept after policy skips.
    fn install(&self, query: SnapshotQuery, day: Day, pos: u64, applied: u64) {
        self.install_arc(Arc::new(query), day, pos, applied);
    }

    fn install_arc(&self, query: Arc<SnapshotQuery>, day: Day, pos: u64, applied: u64) {
        if let Ok(mut cur) = self.current.write() {
            *cur = Some(query);
            // Bumped while the swap lock is held, so a reader seeing the
            // same generation before and after `get` is guaranteed the
            // snapshot it got belongs to that generation.
            self.generation.fetch_add(1, Ordering::Release);
        }
        self.day.store(day, Ordering::Relaxed);
        self.events_applied.store(applied, Ordering::Relaxed);
        self.published_pos.store(pos, Ordering::Relaxed);
        self.last_publish_ms.store(self.now_ms(), Ordering::Relaxed);
        self.published.store(true, Ordering::Relaxed);
        osn_obs::counter!("head.publishes").inc();
        osn_obs::gauge!("head.day").set(day as i64);
        osn_obs::gauge!("head.events_applied").set(applied as i64);
    }

    fn set_health(&self, health: IngestHealth) {
        self.health.store(health as u8, Ordering::Relaxed);
        osn_obs::gauge!("head.health").set(health as u8 as i64);
    }

    fn record_tail(&self, committed_bytes: u64, committed_events: u64, pending_bytes: u64) {
        self.committed_bytes
            .store(committed_bytes, Ordering::Relaxed);
        self.committed_events
            .store(committed_events, Ordering::Relaxed);
        self.pending_bytes.store(pending_bytes, Ordering::Relaxed);
        osn_obs::gauge!("head.lag_bytes").set(pending_bytes as i64);
        osn_obs::gauge!("head.committed_events").set(committed_events as i64);
    }

    fn set_resumed(&self, day: Day) {
        self.resumed_from.store(day, Ordering::Relaxed);
    }

    /// `/v1/head` body: one JSON line with the published day, applied
    /// event count, lag estimates, staleness, and ingest health.
    ///
    /// `lag_events` is committed-but-not-yet-published events (they
    /// belong to a day that is not final yet); `lag_bytes` is
    /// uncommitted bytes at the tail (a chunk mid-append). `day` is
    /// `null` until the first publish.
    pub fn head_json(&self) -> String {
        let published = self.is_published();
        let day = self.day.load(Ordering::Relaxed);
        let committed = self.committed_events.load(Ordering::Relaxed);
        let staleness = self.staleness_ms();
        let resumed = self.resumed_from.load(Ordering::Relaxed);
        let mut out = String::with_capacity(256);
        out.push('{');
        out.push_str(&format!("\"follow\":{}", self.follow));
        out.push_str(&format!(",\"health\":\"{}\"", self.health().as_str()));
        out.push_str(&format!(",\"published\":{published}"));
        if published {
            out.push_str(&format!(",\"day\":{day}"));
        } else {
            out.push_str(",\"day\":null");
        }
        out.push_str(&format!(
            ",\"events_applied\":{}",
            self.events_applied.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(",\"committed_events\":{committed}"));
        out.push_str(&format!(",\"lag_events\":{}", self.lag_events()));
        out.push_str(&format!(",\"lag_bytes\":{}", self.lag_bytes()));
        out.push_str(&format!(
            ",\"committed_bytes\":{}",
            self.committed_bytes.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(",\"staleness_ms\":{staleness}"));
        if resumed == RESUMED_NONE {
            out.push_str(",\"resumed_from_day\":null");
        } else {
            out.push_str(&format!(",\"resumed_from_day\":{resumed}"));
        }
        out.push('}');
        out
    }
}

/// Configuration of the follow loop.
#[derive(Debug, Clone)]
pub struct LiveHeadConfig {
    /// The v2 trace file to tail.
    pub path: PathBuf,
    /// Framing recovery policy (same vocabulary as the batch reader).
    pub policy: RecoveryPolicy,
    /// Analysis configuration for every published snapshot.
    pub query: SnapshotQueryConfig,
    /// Directory for `head.ckpt` (crash resume); `None` disables
    /// checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Base delay between polls that made no progress; backs off
    /// exponentially (capped at 8×) while the tail stays torn or quiet.
    pub poll_interval: Duration,
    /// With uncommitted bytes pending and no commit progress for this
    /// long, health degrades to [`IngestHealth::Wedged`] (the tail keeps
    /// being retried — a recovering writer heals it back to `ok`).
    pub watchdog: Duration,
    /// Supervision (retries, timeout, chaos) for the publish step.
    pub run_policy: RunPolicy,
}

impl LiveHeadConfig {
    /// Follow `path` with default pacing: 25ms polls, 30s watchdog,
    /// `Skip`-with-unlimited-budget recovery, default analysis config.
    pub fn new(path: impl Into<PathBuf>) -> LiveHeadConfig {
        LiveHeadConfig {
            path: path.into(),
            policy: RecoveryPolicy::Skip {
                max_errors: usize::MAX,
            },
            query: SnapshotQueryConfig::default(),
            checkpoint_dir: None,
            poll_interval: Duration::from_millis(25),
            watchdog: Duration::from_secs(30),
            run_policy: RunPolicy::default(),
        }
    }
}

/// Why the follow loop gave up (it only gives up on non-recoverable
/// states; torn tails, missing files and build failures degrade instead).
#[derive(Debug)]
pub enum LiveError {
    /// Filesystem failure on the checkpoint path.
    Io(io::Error),
    /// Non-recoverable tail failure: not a v2 trace, corruption under
    /// `Strict`, error budget exhausted, or the file shrank beneath the
    /// committed prefix.
    Tail(TailError),
    /// `head.ckpt` is unusable or contradicts the re-read trace.
    Checkpoint(String),
}

impl fmt::Display for LiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiveError::Io(e) => write!(f, "head checkpoint I/O error: {e}"),
            LiveError::Tail(e) => write!(f, "live ingest failed: {e}"),
            LiveError::Checkpoint(r) => write!(f, "head checkpoint rejected: {r}"),
        }
    }
}

impl std::error::Error for LiveError {}

impl From<io::Error> for LiveError {
    fn from(e: io::Error) -> Self {
        LiveError::Io(e)
    }
}

impl From<TailError> for LiveError {
    fn from(e: TailError) -> Self {
        LiveError::Tail(e)
    }
}

/// What a finished (or drained) follow run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FollowReport {
    /// Last published day, if anything was published.
    pub published_day: Option<Day>,
    /// Events in the last published snapshot (after policy skips).
    pub events_applied: u64,
    /// Total committed events, published or not.
    pub committed_events: u64,
    /// Snapshot publishes performed.
    pub publishes: u64,
    /// True when the trace footer verified (stream complete), false on
    /// a shutdown drain mid-stream.
    pub completed: bool,
}

/// The checkpoint file inside a head checkpoint directory.
pub fn head_checkpoint_path(dir: &Path) -> PathBuf {
    dir.join("head.ckpt")
}

/// Build an [`EventLog`] from a committed-event prefix, applying the
/// log's validity invariants under the same policy split as the batch
/// reader: `Strict` refuses an invalid event, anything else skips it.
/// Returns the log plus how many events were skipped.
fn build_prefix(
    events: &[TailEvent],
    strict: bool,
) -> Result<(EventLog, u64), osn_graph::LogError> {
    let mut b = EventLogBuilder::new();
    let mut skipped = 0u64;
    for e in events {
        let outcome = match *e {
            TailEvent::Node { time, origin } => b.add_node(time, origin).map(|_| ()),
            TailEvent::Edge { time, u, v } => b.add_edge(time, u, v),
        };
        if let Err(err) = outcome {
            if strict {
                return Err(err);
            }
            skipped += 1;
        }
    }
    Ok((b.build(), skipped))
}

/// Load and sanity-check `head.ckpt`, if present.
fn load_checkpoint(dir: &Path) -> Result<Option<ReplayCheckpoint>, LiveError> {
    let path = head_checkpoint_path(dir);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    ReplayCheckpoint::from_text(&text)
        .map(Some)
        .map_err(|e| LiveError::Checkpoint(format!("{}: {e}", path.display())))
}

/// Tail `cfg.path` until the stream completes or `shutdown` is raised,
/// publishing every newly final day-prefix into `live`. See the module
/// docs for the staleness, resume and degradation contracts.
///
/// Returns `Ok` with a [`FollowReport`] on completion or drain; `Err`
/// only for non-recoverable states (after setting health to `wedged`,
/// so an embedding server keeps answering from the last snapshot).
pub fn run_follow(
    cfg: &LiveHeadConfig,
    live: &LiveQuery,
    shutdown: &AtomicBool,
) -> Result<FollowReport, LiveError> {
    let mut tail = TailReader::new(&cfg.path, cfg.policy.clone());
    let strict = matches!(cfg.policy, RecoveryPolicy::Strict);
    let scfg = cfg.run_policy.supervisor_config(1);
    let chaos = cfg.run_policy.chaos.as_ref();

    // Crash resume: validate once the re-read prefix reaches cp.pos, and
    // suppress publishes below cp.day so catch-up costs one build.
    let mut resume = match &cfg.checkpoint_dir {
        Some(dir) => load_checkpoint(dir)?,
        None => None,
    };
    if let Some(cp) = &resume {
        live.set_resumed(cp.day);
        osn_obs::counter!("head.resumes").inc();
    }

    let mut events: Vec<TailEvent> = Vec::new();
    let mut report = FollowReport {
        published_day: None,
        events_applied: 0,
        committed_events: 0,
        publishes: 0,
        completed: false,
    };
    let mut failed_at: Option<usize> = None;
    let mut backoff = PollBackoff::new();
    let mut last_progress = Instant::now();

    loop {
        if shutdown.load(Ordering::Acquire) {
            break;
        }
        let batch = match tail.poll() {
            Ok(b) => b,
            Err(TailError::Missing) => {
                live.set_health(IngestHealth::Missing);
                osn_obs::counter!("head.file_missing_polls").inc();
                sleep_interruptible(backoff.on_poll(false, cfg.poll_interval), shutdown);
                continue;
            }
            Err(e) => {
                // Non-recoverable: surface it, but leave the last good
                // snapshot being served with health = wedged.
                live.set_health(IngestHealth::Wedged);
                return Err(e.into());
            }
        };

        let progressed = !batch.events.is_empty() || batch.footer.is_some();
        events.extend(batch.events);
        report.committed_events = events.len() as u64;
        live.record_tail(
            tail.committed_offset(),
            report.committed_events,
            batch.pending_bytes,
        );
        if progressed {
            last_progress = Instant::now();
        }

        // Checkpoint validation: the re-read prefix at cp.pos must carry
        // the recorded fingerprint, or the trace was swapped.
        if let Some(cp) = resume {
            let reached = events.len() >= cp.pos;
            if reached || tail.finished() {
                if !reached {
                    live.set_health(IngestHealth::Wedged);
                    return Err(LiveError::Checkpoint(format!(
                        "trace ended after {} events but head.ckpt was taken at {}",
                        events.len(),
                        cp.pos
                    )));
                }
                let (prefix, _) = build_prefix(&events[..cp.pos], false)
                    .expect("non-strict prefix build cannot fail");
                if prefix.fingerprint() != cp.fingerprint {
                    live.set_health(IngestHealth::Wedged);
                    return Err(LiveError::Checkpoint(format!(
                        "fingerprint mismatch at event {} (recorded {:016x}, trace has {:016x})",
                        cp.pos,
                        cp.fingerprint,
                        prefix.fingerprint()
                    )));
                }
                resume = None;
            }
        }

        // Newest publishable prefix: everything before the last committed
        // event's day (that day may still be receiving events), or the
        // whole log once the footer verified.
        let min_day = resume.as_ref().map(|cp| cp.day);
        let (want_pos, want_day) = publish_target(&events, tail.finished(), min_day);
        let already = live.published_pos.load(Ordering::Relaxed) as usize;
        if want_pos > already && failed_at != Some(want_pos) {
            let label = format!("head-publish-day-{want_day}");
            let t0 = Instant::now();
            let built = supervised_call(&label, &scfg, |attempt| {
                osn_metrics::supervisor::chaos_gate(chaos, want_day as u64, attempt)?;
                let (log, skipped) = build_prefix(&events[..want_pos], strict)
                    .map_err(|e| TaskError::Fatal(format!("invalid event stream: {e}")))?;
                let query = SnapshotQuery::build(&log, &cfg.query);
                Ok((log.fingerprint(), log.events().len() as u64, skipped, query))
            });
            match built {
                Ok((fingerprint, applied, skipped, query)) => {
                    if skipped > 0 {
                        osn_obs::counter!("head.events_skipped").add(skipped);
                    }
                    live.install(query, want_day, want_pos as u64, applied);
                    live.set_health(if tail.finished() {
                        IngestHealth::Complete
                    } else {
                        IngestHealth::Ok
                    });
                    osn_obs::histogram!("head.publish_ms").record(t0.elapsed().as_millis() as u64);
                    report.published_day = Some(want_day);
                    report.events_applied = applied;
                    report.publishes += 1;
                    failed_at = None;
                    if let Some(dir) = &cfg.checkpoint_dir {
                        std::fs::create_dir_all(dir)?;
                        let cp = ReplayCheckpoint {
                            pos: want_pos,
                            day: want_day,
                            fingerprint,
                        };
                        write_bytes_atomic(&head_checkpoint_path(dir), cp.to_text().as_bytes())?;
                        osn_obs::counter!("head.checkpoints").inc();
                    }
                }
                Err(failure) => {
                    // Keep serving the last snapshot; retry this position
                    // only once more data arrives (a deterministic failure
                    // would just repeat).
                    osn_obs::counter!("head.build_failures").inc();
                    live.set_health(IngestHealth::Wedged);
                    failed_at = Some(want_pos);
                    eprintln!(
                        "head: publish of day {want_day} failed ({}): {} — serving last snapshot",
                        failure.kind.as_str(),
                        failure.payload
                    );
                }
            }
        }

        if tail.finished() {
            report.completed = true;
            if failed_at.is_none() {
                live.set_health(IngestHealth::Complete);
            }
            break;
        }

        // Watchdog: bytes are pending but nothing has committed for too
        // long — the writer died mid-chunk or the file is stuck.
        if batch.tail_pending && last_progress.elapsed() >= cfg.watchdog {
            live.set_health(IngestHealth::Wedged);
            osn_obs::counter!("head.watchdog_trips").inc();
        } else if (!matches!(live.health(), IngestHealth::Wedged) || progressed)
            && failed_at.is_none()
        {
            live.set_health(IngestHealth::Ok);
        }

        sleep_interruptible(backoff.on_poll(progressed, cfg.poll_interval), shutdown);
    }
    Ok(report)
}

/// The newest publishable `(position, day)` in the committed events:
/// the whole log once finished, otherwise the prefix of days strictly
/// before the last committed event's day, clamped up to `min_day` while
/// resuming. `(0, _)` means nothing to publish.
fn publish_target(events: &[TailEvent], finished: bool, min_day: Option<Day>) -> (usize, Day) {
    let Some(last) = events.last() else {
        return (0, 0);
    };
    if finished {
        return (events.len(), last.time().day());
    }
    let Some(day) = last.time().day().checked_sub(1) else {
        return (0, 0);
    };
    if let Some(min) = min_day {
        if day < min {
            return (0, 0);
        }
    }
    let pos = events.partition_point(|e| e.time() < Time::day_end(day));
    (pos, day)
}

/// Exponential poll pacing for the follow loop: every poll that makes no
/// progress doubles the delay, capped at 8× the base interval; any
/// progress (committed events, a verified footer) resets to the base.
/// Extracted so the schedule is testable without a real clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PollBackoff {
    level: u32,
}

impl PollBackoff {
    /// Highest doubling level: delays cap at `base * 2^MAX_LEVEL` = 8×.
    pub const MAX_LEVEL: u32 = 3;

    pub fn new() -> Self {
        PollBackoff { level: 0 }
    }

    /// Record one poll outcome and return the delay before the next poll.
    pub fn on_poll(&mut self, progressed: bool, base: Duration) -> Duration {
        if progressed {
            self.level = 0;
        } else {
            self.level = (self.level + 1).min(Self::MAX_LEVEL);
        }
        base * (1 << self.level)
    }

    /// Current doubling level (0 = base interval).
    pub fn level(&self) -> u32 {
        self.level
    }
}

/// Sleep in small slices so a shutdown request interrupts promptly.
fn sleep_interruptible(total: Duration, shutdown: &AtomicBool) {
    let slice = Duration::from_millis(10);
    let mut remaining = total;
    while !remaining.is_zero() && !shutdown.load(Ordering::Acquire) {
        let step = remaining.min(slice);
        std::thread::sleep(step);
        remaining -= step;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::communities::CommunityAnalysisConfig;
    use crate::network::MetricSeriesConfig;
    use osn_genstream::{TraceConfig, TraceGenerator};
    use osn_graph::io::write_log_v2_chunked;
    use std::fs::OpenOptions;
    use std::io::Write as _;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("osn-live-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tiny_log() -> EventLog {
        TraceGenerator::new(TraceConfig::tiny()).generate()
    }

    fn fast_query_cfg() -> SnapshotQueryConfig {
        SnapshotQuery::builder()
            .metrics(MetricSeriesConfig {
                stride: 25,
                path_sample: 20,
                clustering_sample: 50,
                workers: 2,
                ..Default::default()
            })
            .communities(CommunityAnalysisConfig {
                stride: 50,
                ..Default::default()
            })
            .config()
            .clone()
    }

    fn head_cfg(path: &Path) -> LiveHeadConfig {
        LiveHeadConfig {
            poll_interval: Duration::from_millis(1),
            query: fast_query_cfg(),
            ..LiveHeadConfig::new(path)
        }
    }

    #[test]
    fn poll_backoff_schedule_caps_at_8x_and_resets_on_progress() {
        let base = Duration::from_millis(10);
        let mut bo = PollBackoff::new();
        assert_eq!(bo.level(), 0);
        // No-progress polls double the delay: 2×, 4×, 8×, then stay capped.
        assert_eq!(bo.on_poll(false, base), base * 2);
        assert_eq!(bo.on_poll(false, base), base * 4);
        assert_eq!(bo.on_poll(false, base), base * 8);
        assert_eq!(bo.on_poll(false, base), base * 8);
        assert_eq!(bo.on_poll(false, base), base * 8);
        assert_eq!(bo.level(), PollBackoff::MAX_LEVEL);
        // Any progress drops straight back to the base interval.
        assert_eq!(bo.on_poll(true, base), base);
        assert_eq!(bo.level(), 0);
        assert_eq!(bo.on_poll(false, base), base * 2);
    }

    #[test]
    fn tail_pending_survives_pause_longer_than_backoff_cap_then_commits() {
        use osn_graph::crc32::Crc32;
        use osn_graph::io::FORMAT_V2_MAGIC;
        use osn_graph::testutil::SlowAppendWriter;

        let dir = scratch("slow-writer");
        let path = dir.join("trace.events");
        std::fs::write(&path, format!("{FORMAT_V2_MAGIC}\n")).unwrap();

        let mut chunk = String::new();
        let mut crc = Crc32::new();
        for line in ["N 0 core", "N 10 core", "E 20 0 1"] {
            chunk.push_str(line);
            chunk.push('\n');
            crc.update(line.as_bytes());
            crc.update(b"\n");
        }
        chunk.push_str(&format!("#%chunk lines=3 crc={:08x}\n", crc.finalize()));

        let file = OpenOptions::new().append(true).open(&path).unwrap();
        let mut w = SlowAppendWriter::new(file, Duration::ZERO);
        let split = w.append_torn(chunk.as_bytes()).unwrap();

        let mut tail = TailReader::new(
            &path,
            RecoveryPolicy::Skip {
                max_errors: usize::MAX,
            },
        );
        let base = Duration::from_millis(2);
        let cap = base * (1 << PollBackoff::MAX_LEVEL);
        let mut bo = PollBackoff::new();
        let mut delays = Vec::new();
        // The writer stays paused for several multiples of the capped
        // delay; every poll sees the same torn tail and never an error.
        let pause_until = Instant::now() + cap * 3;
        while Instant::now() < pause_until {
            let b = tail.poll().unwrap();
            assert!(b.events.is_empty(), "torn chunk must not emit events");
            assert!(b.tail_pending && b.pending_bytes > 0);
            assert_eq!(b.chunks_dropped, 0, "a slow writer is not corruption");
            let d = bo.on_poll(false, base);
            delays.push(d);
            std::thread::sleep(d);
        }
        assert!(delays.len() >= 4, "several polls happened during the pause");
        assert_eq!(delays[0], base * 2);
        assert_eq!(delays[1], base * 4);
        assert_eq!(delays[2], base * 8);
        assert!(
            delays[2..].iter().all(|d| *d == cap),
            "delay stays at the cap while the pause outlasts it"
        );
        assert_eq!(bo.level(), PollBackoff::MAX_LEVEL);

        // Writer resumes: the next poll commits the whole chunk and the
        // backoff resets to the base interval.
        w.complete(chunk.as_bytes(), split).unwrap();
        let b = tail.poll().unwrap();
        assert_eq!(b.events.len(), 3);
        assert_eq!(b.chunks_verified, 1);
        assert!(!b.tail_pending);
        assert_eq!(bo.on_poll(true, base), base);
        assert_eq!(bo.level(), 0);
        assert_eq!(w.flushes(), 2);
    }

    #[test]
    fn follow_over_complete_trace_is_byte_identical_to_batch() {
        let dir = scratch("differential");
        let path = dir.join("trace.events");
        let log = tiny_log();
        let mut bytes = Vec::new();
        write_log_v2_chunked(&log, &mut bytes, 64).unwrap();
        std::fs::write(&path, &bytes).unwrap();

        let cfg = head_cfg(&path);
        let live = LiveQuery::for_follow();
        let report = run_follow(&cfg, &live, &AtomicBool::new(false)).unwrap();
        assert!(report.completed);
        assert_eq!(report.published_day, Some(log.end_day()));
        assert_eq!(report.events_applied, log.events().len() as u64);
        assert_eq!(live.health(), IngestHealth::Complete);

        let followed = live.get().expect("published");
        let batch = SnapshotQuery::build(&log, &cfg.query);
        assert_eq!(followed.metrics_csv(), batch.metrics_csv());
        assert_eq!(followed.communities_csv(), batch.communities_csv());
        assert_eq!(followed.days_json(), batch.days_json());
    }

    #[test]
    fn growing_trace_publishes_only_final_days_then_completes() {
        let dir = scratch("growing");
        let path = dir.join("trace.events");
        let log = tiny_log();
        let mut bytes = Vec::new();
        write_log_v2_chunked(&log, &mut bytes, 64).unwrap();
        // First instalment: roughly the first half of the file.
        let split = bytes.len() / 2;
        std::fs::write(&path, &bytes[..split]).unwrap();

        let cfg = head_cfg(&path);
        let live = LiveQuery::for_follow();
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = shutdown.clone();
        let live2 = live.clone();
        let cfg2 = cfg.clone();
        let head = std::thread::spawn(move || run_follow(&cfg2, &live2, &stop));

        // Wait for the head to publish something from the half trace.
        let deadline = Instant::now() + Duration::from_secs(120);
        while live.published_day().is_none() {
            assert!(Instant::now() < deadline, "no publish from half trace");
            std::thread::sleep(Duration::from_millis(10));
        }
        let mid_day = live.published_day().unwrap();
        assert!(
            mid_day < log.end_day(),
            "a half-written trace must publish a strictly earlier day"
        );
        // The half-trace state serves immediately and reports staleness.
        let json = live.head_json();
        assert!(json.contains("\"follow\":true"), "{json}");
        assert!(json.contains("\"published\":true"), "{json}");

        // Finish the file; the head must reach the footer and complete.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&bytes[split..]).unwrap();
        drop(f);
        let report = head.join().unwrap().unwrap();
        assert!(report.completed);
        assert_eq!(report.published_day, Some(log.end_day()));
        let followed = live.get().unwrap();
        let batch = SnapshotQuery::build(&log, &cfg.query);
        assert_eq!(followed.metrics_csv(), batch.metrics_csv());
    }

    #[test]
    fn drain_then_resume_reaches_batch_identical_state() {
        let dir = scratch("resume");
        let path = dir.join("trace.events");
        let ckpt = dir.join("ckpt");
        let log = tiny_log();
        let mut bytes = Vec::new();
        write_log_v2_chunked(&log, &mut bytes, 64).unwrap();
        let split = bytes.len() / 2;
        std::fs::write(&path, &bytes[..split]).unwrap();

        let mut cfg = head_cfg(&path);
        cfg.checkpoint_dir = Some(ckpt.clone());

        // Phase one: ingest the half trace, then drain via shutdown.
        let live = LiveQuery::for_follow();
        let shutdown = Arc::new(AtomicBool::new(false));
        let (stop, live2, cfg2) = (shutdown.clone(), live.clone(), cfg.clone());
        let head = std::thread::spawn(move || run_follow(&cfg2, &live2, &stop));
        let deadline = Instant::now() + Duration::from_secs(120);
        while live.published_day().is_none() {
            assert!(Instant::now() < deadline, "no publish before drain");
            std::thread::sleep(Duration::from_millis(10));
        }
        shutdown.store(true, Ordering::Release);
        let drained = head.join().unwrap().unwrap();
        assert!(!drained.completed, "drained mid-stream");
        let day1 = drained.published_day.unwrap();
        assert!(
            head_checkpoint_path(&ckpt).exists(),
            "drain must leave the head checkpoint on disk"
        );

        // Phase two: complete the file, restart from the checkpoint.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&bytes[split..]).unwrap();
        drop(f);
        let live_b = LiveQuery::for_follow();
        let report = run_follow(&cfg, &live_b, &AtomicBool::new(false)).unwrap();
        assert!(report.completed);
        assert_eq!(report.published_day, Some(log.end_day()));
        let json = live_b.head_json();
        assert!(
            json.contains(&format!("\"resumed_from_day\":{day1}")),
            "{json}"
        );
        let followed = live_b.get().unwrap();
        let batch = SnapshotQuery::build(&log, &cfg.query);
        assert_eq!(followed.metrics_csv(), batch.metrics_csv());
        assert_eq!(followed.communities_csv(), batch.communities_csv());
    }

    #[test]
    fn checkpoint_from_a_different_trace_is_refused() {
        let dir = scratch("swap");
        let path = dir.join("trace.events");
        let ckpt = dir.join("ckpt");
        std::fs::create_dir_all(&ckpt).unwrap();
        let log = tiny_log();
        let mut bytes = Vec::new();
        write_log_v2_chunked(&log, &mut bytes, 64).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        // A checkpoint whose fingerprint matches nothing.
        let fake = ReplayCheckpoint {
            pos: 10,
            day: 0,
            fingerprint: 0xdead_beef,
        };
        std::fs::write(head_checkpoint_path(&ckpt), fake.to_text()).unwrap();

        let mut cfg = head_cfg(&path);
        cfg.checkpoint_dir = Some(ckpt);
        let live = LiveQuery::for_follow();
        let err = run_follow(&cfg, &live, &AtomicBool::new(false)).unwrap_err();
        assert!(matches!(err, LiveError::Checkpoint(_)), "{err}");
        assert_eq!(live.health(), IngestHealth::Wedged);
    }

    #[test]
    fn empty_trace_completes_without_publishing() {
        let dir = scratch("empty");
        let path = dir.join("trace.events");
        let empty = EventLogBuilder::new().build();
        let mut bytes = Vec::new();
        write_log_v2_chunked(&empty, &mut bytes, 64).unwrap();
        std::fs::write(&path, &bytes).unwrap();

        let cfg = head_cfg(&path);
        let live = LiveQuery::for_follow();
        let report = run_follow(&cfg, &live, &AtomicBool::new(false)).unwrap();
        assert!(report.completed);
        assert_eq!(report.published_day, None);
        assert!(live.get().is_none(), "nothing to serve yet");
        let json = live.head_json();
        assert!(json.contains("\"published\":false"), "{json}");
        assert!(json.contains("\"day\":null"), "{json}");
    }

    #[test]
    fn strict_corruption_wedges_but_does_not_panic() {
        let dir = scratch("wedge");
        let path = dir.join("trace.events");
        std::fs::write(
            &path,
            "#%osn-events v2\nN 0 core\n#%chunk lines=1 crc=00000000\n",
        )
        .unwrap();
        let mut cfg = head_cfg(&path);
        cfg.policy = RecoveryPolicy::Strict;
        let live = LiveQuery::for_follow();
        let err = run_follow(&cfg, &live, &AtomicBool::new(false)).unwrap_err();
        assert!(
            matches!(err, LiveError::Tail(TailError::Corrupt { .. })),
            "{err}"
        );
        assert_eq!(live.health(), IngestHealth::Wedged);
    }

    #[test]
    fn fixed_handle_reports_complete_and_serves() {
        let log = tiny_log();
        let cfg = fast_query_cfg();
        let q = Arc::new(SnapshotQuery::build(&log, &cfg));
        let live = LiveQuery::fixed(q);
        assert_eq!(live.health(), IngestHealth::Complete);
        assert_eq!(live.published_day(), Some(log.end_day()));
        assert!(live.get().is_some());
        let json = live.head_json();
        assert!(json.contains("\"follow\":false"), "{json}");
        assert!(json.contains("\"health\":\"complete\""), "{json}");
        assert!(
            json.contains(&format!("\"day\":{}", log.end_day())),
            "{json}"
        );
    }
}
