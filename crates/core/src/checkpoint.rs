//! Checkpointed, resumable analysis pipelines.
//!
//! A checkpoint directory lets a killed `osn metrics` / `osn communities`
//! run resume from its last save instead of starting over. Metrics rows
//! are saved every `2 × workers` days; the communities state, which holds
//! every summary so far, once an eighth of the snapshots observed are
//! unsaved. Both save at the end of a run.
//! Every file in the directory is written atomically (tmp + rename, see
//! `osn_graph::atomicfile`), so a `kill -9` at any instant leaves either
//! the previous complete state or the new one — never a torn file — and a
//! resumed run produces **byte-identical** output to an uninterrupted one
//! (`f64` results are persisted as the hex of their IEEE-754 bits).
//!
//! Directory layout:
//!
//! | file | contents |
//! |---|---|
//! | `meta.txt` | trace fingerprint + every result-affecting config field |
//! | `rows.txt` | (metrics) one line per completed snapshot day |
//! | `communities.ckpt` | (communities) summaries + full tracker state |
//! | `quarantine.txt` | days whose task the supervisor gave up on |
//!
//! `meta.txt` is compared verbatim on resume: a checkpoint taken from a
//! different trace or with different parameters is refused with
//! [`CheckpointStoreError::Mismatch`] rather than silently mixing results.
//! Worker-thread count and supervision policy (retries, deadlines) are
//! deliberately *not* recorded — they do not affect the values successful
//! days produce. A resumed run replays the event prefix of the days it
//! still has to compute, so no replay position is stored; a
//! `replay.ckpt` left by an older version is ignored.
//!
//! ## Supervised (degraded) runs
//!
//! The `_supervised` pipeline variants run every snapshot task under
//! [`osn_metrics::supervisor`]: a panicking, fatally-failing, retry-
//! exhausted or deadline-overrunning day is **quarantined** — recorded in
//! `quarantine.txt` with its failure kind, attempt count and reason — and
//! the run continues with the remaining days. Quarantined days are
//! excluded from the returned series (never silently blended as zeros)
//! and are *not* retried on resume, so a killed-and-resumed degraded run
//! still produces byte-identical output to the same degraded run left
//! uninterrupted.

use crate::communities::{observe_supervised, CommunityAnalysisConfig};
use crate::network::{metric_row, snapshot_days, MetricRow, MetricSeries, MetricSeriesConfig};
use osn_community::{CommunityTracker, SnapshotSummary, TrackerOutput, TrackerState};
use osn_graph::atomicfile::write_bytes_atomic;
use osn_graph::{Day, EventLog, Replayer};
use osn_metrics::engine::{day_sweep, EngineConfig};
use osn_metrics::supervisor::{FailureKind, RunPolicy, TaskFailure};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Errors from the checkpoint store.
#[derive(Debug)]
pub enum CheckpointStoreError {
    /// Filesystem failure reading or writing checkpoint files.
    Io(io::Error),
    /// A checkpoint file exists but does not parse.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What failed to parse.
        reason: String,
    },
    /// The checkpoint belongs to a different trace or configuration.
    Mismatch(String),
}

impl fmt::Display for CheckpointStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointStoreError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointStoreError::Corrupt { path, reason } => {
                write!(f, "corrupt checkpoint file {}: {reason}", path.display())
            }
            CheckpointStoreError::Mismatch(r) => write!(f, "checkpoint mismatch: {r}"),
        }
    }
}

impl std::error::Error for CheckpointStoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointStoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointStoreError {
    fn from(e: io::Error) -> Self {
        CheckpointStoreError::Io(e)
    }
}

fn corrupt(path: &Path, reason: impl Into<String>) -> CheckpointStoreError {
    CheckpointStoreError::Corrupt {
        path: path.to_path_buf(),
        reason: reason.into(),
    }
}

fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn opt_f64_hex(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), f64_hex)
}

fn parse_f64_hex(s: &str) -> Result<f64, String> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("bad f64 bits '{s}'"))
}

fn parse_opt_f64_hex(s: &str) -> Result<Option<f64>, String> {
    if s == "-" {
        Ok(None)
    } else {
        parse_f64_hex(s).map(Some)
    }
}

/// Read a file that may legitimately not exist yet.
fn read_optional(path: &Path) -> io::Result<Option<String>> {
    match std::fs::read_to_string(path) {
        Ok(s) => Ok(Some(s)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Compare the stored meta file against `expected`, writing it on first
/// use. Any difference — different trace, different parameters — refuses
/// the directory.
fn check_or_init_meta(dir: &Path, expected: &str) -> Result<(), CheckpointStoreError> {
    let path = dir.join("meta.txt");
    match read_optional(&path)? {
        Some(found) if found == expected => Ok(()),
        Some(found) => Err(CheckpointStoreError::Mismatch(format!(
            "{} was written by a different run (trace or parameters changed).\n\
             recorded:\n{found}\nthis run:\n{expected}",
            path.display()
        ))),
        None => {
            write_bytes_atomic(&path, expected.as_bytes())?;
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// Quarantine records (shared by both pipelines)
// ---------------------------------------------------------------------------

const QUARANTINE_MAGIC: &str = "#%osn-quarantine v1";

/// A snapshot-day task the supervisor gave up on. The day is excluded
/// from the run's output, recorded here, and not retried on resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedTask {
    /// The snapshot day whose task failed.
    pub day: Day,
    /// Failure class (panic, fatal, exhausted retries, deadline).
    pub kind: FailureKind,
    /// Attempts made before giving up.
    pub attempts: u32,
    /// Wall-clock time spent on the task, in milliseconds.
    pub elapsed_ms: u64,
    /// Panic payload or error message.
    pub reason: String,
}

impl QuarantinedTask {
    /// Record a supervisor [`TaskFailure`] against the snapshot day it
    /// was analysing.
    pub fn from_failure(day: Day, f: &TaskFailure) -> Self {
        QuarantinedTask {
            day,
            kind: f.kind,
            attempts: f.attempts,
            elapsed_ms: f.elapsed.as_millis() as u64,
            reason: f.payload.clone(),
        }
    }
}

fn render_quarantine(q: &BTreeMap<Day, QuarantinedTask>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{QUARANTINE_MAGIC}");
    for (day, t) in q {
        let reason = t
            .reason
            .replace('\\', "\\\\")
            .replace('\n', "\\n")
            .replace('\r', "\\r");
        let _ = writeln!(
            out,
            "q {day} {} {} {} {reason}",
            t.kind.as_str(),
            t.attempts,
            t.elapsed_ms
        );
    }
    out
}

fn load_quarantine(path: &Path) -> Result<BTreeMap<Day, QuarantinedTask>, CheckpointStoreError> {
    let Some(text) = read_optional(path)? else {
        return Ok(BTreeMap::new());
    };
    let mut lines = text.lines();
    if lines.next().map(str::trim) != Some(QUARANTINE_MAGIC) {
        return Err(corrupt(path, "bad header"));
    }
    let mut out = BTreeMap::new();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let f: Vec<&str> = line.splitn(6, ' ').collect();
        if f.len() < 5 || f[0] != "q" {
            return Err(corrupt(path, format!("bad quarantine line '{line}'")));
        }
        let day: Day = f[1]
            .parse()
            .map_err(|_| corrupt(path, format!("bad day '{}'", f[1])))?;
        let task = QuarantinedTask {
            day,
            kind: FailureKind::parse(f[2]).map_err(|r| corrupt(path, r))?,
            attempts: f[3]
                .parse()
                .map_err(|_| corrupt(path, format!("bad attempts '{}'", f[3])))?,
            elapsed_ms: f[4]
                .parse()
                .map_err(|_| corrupt(path, format!("bad elapsed '{}'", f[4])))?,
            reason: f
                .get(5)
                .map(|r| {
                    r.replace("\\r", "\r")
                        .replace("\\n", "\n")
                        .replace("\\\\", "\\")
                })
                .unwrap_or_default(),
        };
        if out.insert(day, task).is_some() {
            return Err(corrupt(path, format!("duplicate quarantined day {day}")));
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Metrics (Figure 1c–f)
// ---------------------------------------------------------------------------

const ROWS_MAGIC: &str = "#%osn-rows v1";

fn metrics_meta_text(log: &EventLog, cfg: &MetricSeriesConfig) -> String {
    format!(
        "#%osn-meta v1\nkind metrics\nfingerprint {:016x}\nstride {}\nfirst_day {}\n\
         path_sample {}\npath_every {}\nclustering_sample {}\nseed {}\n",
        log.fingerprint(),
        cfg.stride,
        cfg.first_day,
        cfg.path_sample,
        cfg.path_every.max(1),
        cfg.clustering_sample,
        cfg.seed
    )
}

fn render_rows(rows: &BTreeMap<Day, MetricRow>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{ROWS_MAGIC}");
    for (day, r) in rows {
        let _ = writeln!(
            out,
            "row {day} {} {} {} {}",
            f64_hex(r.avg_degree),
            opt_f64_hex(r.path_length),
            f64_hex(r.clustering),
            opt_f64_hex(r.assortativity)
        );
    }
    out
}

fn load_rows(path: &Path) -> Result<BTreeMap<Day, MetricRow>, CheckpointStoreError> {
    let Some(text) = read_optional(path)? else {
        return Ok(BTreeMap::new());
    };
    let mut lines = text.lines();
    if lines.next().map(str::trim) != Some(ROWS_MAGIC) {
        return Err(corrupt(path, "bad header"));
    }
    let mut rows = BTreeMap::new();
    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 6 || f[0] != "row" {
            return Err(corrupt(path, format!("bad row line '{line}'")));
        }
        let day: Day = f[1]
            .parse()
            .map_err(|_| corrupt(path, format!("bad day '{}'", f[1])))?;
        let row = MetricRow {
            avg_degree: parse_f64_hex(f[2]).map_err(|r| corrupt(path, r))?,
            path_length: parse_opt_f64_hex(f[3]).map_err(|r| corrupt(path, r))?,
            clustering: parse_f64_hex(f[4]).map_err(|r| corrupt(path, r))?,
            assortativity: parse_opt_f64_hex(f[5]).map_err(|r| corrupt(path, r))?,
        };
        if rows.insert(day, row).is_some() {
            return Err(corrupt(path, format!("duplicate day {day}")));
        }
    }
    Ok(rows)
}

/// Compute the Figure 1(c)–(f) metric series with checkpoint/resume
/// support: completed snapshot days are persisted to `dir` as the sweep
/// goes, and a rerun (same log, same config) computes only the days
/// `rows.txt` does not hold yet, producing byte-identical results to an
/// uninterrupted [`metric_series`](crate::network::metric_series) run.
///
/// Infallible with respect to task failures: runs with a default
/// [`RunPolicy`] and re-raises the first quarantined day as a panic. Use
/// [`metric_series_checkpointed_supervised`] to survive failures.
pub fn metric_series_checkpointed(
    log: &EventLog,
    cfg: &MetricSeriesConfig,
    dir: &Path,
) -> Result<MetricSeries, CheckpointStoreError> {
    let (series, quarantined) =
        metric_series_checkpointed_supervised(log, cfg, dir, &RunPolicy::default())?;
    if let Some(q) = quarantined.first() {
        panic!(
            "metric sweep failed on day {}: {} after {} attempt(s): {}",
            q.day, q.kind, q.attempts, q.reason
        );
    }
    Ok(series)
}

/// [`metric_series_checkpointed`] under a supervision policy: failed days
/// are quarantined (recorded in `quarantine.txt`, excluded from the
/// series, reported in the second tuple element) and the run keeps going.
/// Quarantined days are not retried on resume, so a resumed degraded run
/// is byte-identical to the same run left uninterrupted.
pub fn metric_series_checkpointed_supervised(
    log: &EventLog,
    cfg: &MetricSeriesConfig,
    dir: &Path,
    policy: &RunPolicy,
) -> Result<(MetricSeries, Vec<QuarantinedTask>), CheckpointStoreError> {
    let out = run_metrics(log, cfg, dir, usize::MAX, policy)?;
    Ok(out.expect("unlimited run always completes"))
}

/// The rows and quarantine records of a metrics run, and how many days
/// completed since they were last written.
struct MetricProgress {
    rows: BTreeMap<Day, MetricRow>,
    quarantined: BTreeMap<Day, QuarantinedTask>,
    unsaved: usize,
}

impl MetricProgress {
    fn record(&mut self, day: Day, verdict: Result<MetricRow, TaskFailure>) {
        match verdict {
            Ok(row) => {
                self.rows.insert(day, row);
            }
            Err(failure) => {
                self.quarantined
                    .insert(day, QuarantinedTask::from_failure(day, &failure));
            }
        }
        self.unsaved += 1;
    }

    /// Write `rows.txt` (and `quarantine.txt`, once a day is quarantined)
    /// atomically to `dir`.
    fn save(&mut self, dir: &Path) -> Result<(), CheckpointStoreError> {
        write_bytes_atomic(&dir.join("rows.txt"), render_rows(&self.rows).as_bytes())?;
        if !self.quarantined.is_empty() {
            write_bytes_atomic(
                &dir.join("quarantine.txt"),
                render_quarantine(&self.quarantined).as_bytes(),
            )?;
        }
        self.unsaved = 0;
        Ok(())
    }
}

/// Worker for [`metric_series_checkpointed_supervised`]: the direct run's
/// [`day_sweep`] over the snapshot days that are neither in `rows.txt`
/// nor quarantined, each computed at its index in the full day list.
/// Rows and quarantine records are saved every `2 × workers`
/// completions and at the end. Computes at most `limit_new` missing
/// rows, then returns `None` if snapshots remain (used by tests to
/// simulate an interrupted run).
pub(crate) fn run_metrics(
    log: &EventLog,
    cfg: &MetricSeriesConfig,
    dir: &Path,
    limit_new: usize,
    policy: &RunPolicy,
) -> Result<Option<(MetricSeries, Vec<QuarantinedTask>)>, CheckpointStoreError> {
    std::fs::create_dir_all(dir)?;
    check_or_init_meta(dir, &metrics_meta_text(log, cfg))?;
    let rows_path = dir.join("rows.txt");
    let progress = MetricProgress {
        rows: load_rows(&rows_path)?,
        quarantined: load_quarantine(&dir.join("quarantine.txt"))?,
        unsaved: 0,
    };
    let days = snapshot_days(log, cfg.first_day, cfg.stride);
    let mut todo: Vec<(usize, Day)> = (days.iter().copied().enumerate())
        .filter(|(_, d)| !progress.rows.contains_key(d) && !progress.quarantined.contains_key(d))
        .collect();
    let interrupted = todo.len() > limit_new;
    todo.truncate(limit_new);

    let workers = match cfg.workers {
        0 => osn_metrics::parallel::default_workers(),
        n => n,
    };
    let save_every = 2 * workers;
    let todo_days: Vec<Day> = todo.iter().map(|&(_, day)| day).collect();
    let progress = Mutex::new(progress);
    let ecfg = EngineConfig::builder().workers(cfg.workers).build();
    let saves = day_sweep(log, &todo_days, &ecfg, |state, i, day| {
        let verdict = metric_row(state, todo[i].0, day, cfg, policy);
        let mut progress = progress
            .lock()
            .expect("a sweep worker panicked while saving");
        progress.record(day, verdict);
        if progress.unsaved >= save_every {
            progress.save(dir)
        } else {
            Ok(())
        }
    });
    let mut progress = progress
        .into_inner()
        .expect("a sweep worker panicked while saving");
    saves.into_iter().collect::<Result<(), _>>()?;
    if progress.unsaved > 0 {
        progress.save(dir)?;
    }
    if interrupted {
        return Ok(None);
    }

    let MetricProgress {
        rows, quarantined, ..
    } = progress;
    let mut kept = Vec::with_capacity(days.len());
    for day in days.into_iter().filter(|d| !quarantined.contains_key(d)) {
        let row = rows
            .get(&day)
            .ok_or_else(|| corrupt(&rows_path, format!("missing day {day}")))?;
        kept.push((day, *row));
    }
    Ok(Some((
        MetricSeries::from_rows(kept),
        quarantined.into_values().collect(),
    )))
}

// ---------------------------------------------------------------------------
// Communities (Figures 4–6)
// ---------------------------------------------------------------------------

const COMMUNITIES_MAGIC: &str = "#%osn-communities v1";

fn communities_meta_text(log: &EventLog, cfg: &CommunityAnalysisConfig) -> String {
    format!(
        "#%osn-meta v1\nkind communities\nfingerprint {:016x}\nfirst_day {}\nstride {}\n\
         min_size {}\ndelta {}\nseed {}\n",
        log.fingerprint(),
        cfg.first_day,
        cfg.stride,
        cfg.min_size,
        f64_hex(cfg.delta),
        cfg.seed
    )
}

fn render_communities_state(summaries: &[SnapshotSummary], state: &TrackerState) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{COMMUNITIES_MAGIC}");
    let _ = writeln!(out, "summaries {}", summaries.len());
    for s in summaries {
        let sizes = if s.sizes.is_empty() {
            "-".to_string()
        } else {
            s.sizes
                .iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let _ = writeln!(
            out,
            "summary {} {} {} {} {} {sizes}",
            s.day,
            f64_hex(s.modularity),
            s.num_tracked,
            opt_f64_hex(s.avg_similarity),
            f64_hex(s.top5_coverage)
        );
    }
    out.push_str(&state.to_text());
    out
}

fn parse_communities_state(
    path: &Path,
    text: &str,
) -> Result<(Vec<SnapshotSummary>, TrackerState), CheckpointStoreError> {
    let mut lines = text.lines();
    if lines.next().map(str::trim) != Some(COMMUNITIES_MAGIC) {
        return Err(corrupt(path, "bad header"));
    }
    let count_line = lines.next().unwrap_or_default().trim();
    let count: usize = count_line
        .strip_prefix("summaries ")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| corrupt(path, format!("bad summaries line '{count_line}'")))?;
    // The count comes from the file: grow as summary lines parse, so a
    // damaged count fails on a missing line instead of reserving memory.
    let mut summaries = Vec::new();
    for _ in 0..count {
        let line = lines.next().unwrap_or_default().trim();
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 7 || f[0] != "summary" {
            return Err(corrupt(path, format!("bad summary line '{line}'")));
        }
        let sizes = if f[6] == "-" {
            Vec::new()
        } else {
            f[6].split(',')
                .map(|t| t.parse::<u32>())
                .collect::<Result<Vec<_>, _>>()
                .map_err(|_| corrupt(path, format!("bad sizes '{}'", f[6])))?
        };
        summaries.push(SnapshotSummary {
            day: f[1]
                .parse()
                .map_err(|_| corrupt(path, format!("bad day '{}'", f[1])))?,
            modularity: parse_f64_hex(f[2]).map_err(|r| corrupt(path, r))?,
            num_tracked: f[3]
                .parse()
                .map_err(|_| corrupt(path, format!("bad num_tracked '{}'", f[3])))?,
            avg_similarity: parse_opt_f64_hex(f[4]).map_err(|r| corrupt(path, r))?,
            top5_coverage: parse_f64_hex(f[5]).map_err(|r| corrupt(path, r))?,
            sizes,
        });
    }
    let rest: Vec<&str> = lines.collect();
    let state = TrackerState::from_text(&rest.join("\n")).map_err(|r| corrupt(path, r))?;
    Ok((summaries, state))
}

/// Run the community tracker with checkpoint/resume support: the
/// summaries and full tracker state are written atomically to `dir` once
/// the snapshots observed since the last write reach an eighth of all
/// observed so far (so O(log n) times over n snapshots), and after the
/// last one; a rerun (same log, same config) resumes from the last saved
/// snapshot, producing results identical to an uninterrupted
/// [`track`](crate::communities::track) run.
pub fn track_checkpointed(
    log: &EventLog,
    cfg: &CommunityAnalysisConfig,
    dir: &Path,
) -> Result<(Vec<SnapshotSummary>, TrackerOutput), CheckpointStoreError> {
    let (out, quarantined) = track_checkpointed_supervised(log, cfg, dir, &RunPolicy::default())?;
    if let Some(q) = quarantined.first() {
        panic!(
            "community tracking failed on day {}: {} after {} attempt(s): {}",
            q.day, q.kind, q.attempts, q.reason
        );
    }
    Ok(out)
}

/// [`track_checkpointed`] under a supervision policy: a snapshot whose
/// observation fails is quarantined (recorded in `quarantine.txt`), the
/// tracker keeps its state from the last good snapshot, and tracking
/// continues with the next one — the same per-day supervision as
/// [`track_supervised`](crate::communities::track_supervised), with the
/// same results. Quarantined days are not retried on resume, so a
/// resumed degraded run matches the same run left uninterrupted.
pub fn track_checkpointed_supervised(
    log: &EventLog,
    cfg: &CommunityAnalysisConfig,
    dir: &Path,
    policy: &RunPolicy,
) -> Result<SupervisedTrackResult, CheckpointStoreError> {
    let out = run_communities(log, cfg, dir, usize::MAX, policy)?;
    Ok(out.expect("unlimited run always completes"))
}

/// What a supervised communities run produces: the tracking output plus
/// the snapshot days that had to be quarantined.
pub type SupervisedTrackResult = ((Vec<SnapshotSummary>, TrackerOutput), Vec<QuarantinedTask>);

/// Worker for [`track_checkpointed_supervised`]: observes at most
/// `limit_new` new snapshots, then returns `None` if snapshots remain
/// (used by tests to simulate an interrupted run).
pub(crate) fn run_communities(
    log: &EventLog,
    cfg: &CommunityAnalysisConfig,
    dir: &Path,
    limit_new: usize,
    policy: &RunPolicy,
) -> Result<Option<SupervisedTrackResult>, CheckpointStoreError> {
    std::fs::create_dir_all(dir)?;
    check_or_init_meta(dir, &communities_meta_text(log, cfg))?;

    let state_path = dir.join("communities.ckpt");
    let quarantine_path = dir.join("quarantine.txt");
    let mut quarantined = load_quarantine(&quarantine_path)?;
    let days = snapshot_days(log, cfg.first_day, cfg.stride);

    let mut replayer = Replayer::new(log);
    let (mut tracker, mut summaries, start) = match read_optional(&state_path)? {
        Some(text) => {
            let (summaries, state) = parse_communities_state(&state_path, &text)?;
            let start = days
                .iter()
                .position(|&d| d == state.last_day)
                .map(|i| i + 1)
                .ok_or_else(|| {
                    corrupt(
                        &state_path,
                        format!("day {} is not a snapshot day", state.last_day),
                    )
                })?;
            // Quarantined days never produced a summary, so the summary
            // count must match the *non-quarantined* prefix.
            let expected = days[..start]
                .iter()
                .filter(|d| !quarantined.contains_key(d))
                .count();
            if summaries.len() != expected
                || summaries.last().map(|s| s.day) != Some(state.last_day)
            {
                return Err(corrupt(
                    &state_path,
                    "summaries do not line up with the tracker state",
                ));
            }
            replayer.advance_through_day(state.last_day);
            let tracker = CommunityTracker::restore(cfg.tracker_config(), state, replayer.freeze())
                .map_err(|r| corrupt(&state_path, r))?;
            (tracker, summaries, start)
        }
        None => (CommunityTracker::new(cfg.tracker_config()), Vec::new(), 0),
    };

    let save = |summaries: &[SnapshotSummary], tracker: &CommunityTracker| {
        let state = tracker.export_state().expect("state after observe");
        osn_obs::counter!("checkpoint.communities.saves").inc();
        write_bytes_atomic(
            &state_path,
            render_communities_state(summaries, &state).as_bytes(),
        )
    };
    let (mut new_snaps, mut unsaved) = (0usize, 0usize);
    for &day in days[start..].iter() {
        if quarantined.contains_key(&day) {
            // Quarantined by a previous run: deterministically skipped.
            replayer.advance_through_day(day);
            continue;
        }
        if new_snaps >= limit_new {
            return Ok(None);
        }
        new_snaps += 1;
        replayer.advance_through_day(day);
        match observe_supervised(&mut tracker, day, &replayer.freeze(), policy) {
            Ok(summary) => {
                summaries.push(summary);
                unsaved += 1;
                // The file holds every summary, so rewriting it per
                // snapshot costs O(n²) bytes over a run; saving once an
                // eighth of those observed are unsaved costs O(n log n).
                if unsaved >= summaries.len().div_ceil(8) {
                    save(&summaries, &tracker)?;
                    unsaved = 0;
                }
            }
            Err(failure) => {
                quarantined.insert(day, QuarantinedTask::from_failure(day, &failure));
                write_bytes_atomic(&quarantine_path, render_quarantine(&quarantined).as_bytes())?;
            }
        }
    }
    if unsaved > 0 {
        save(&summaries, &tracker)?;
    }
    Ok(Some((
        (summaries, tracker.finish()),
        quarantined.into_values().collect(),
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::communities::track;
    use crate::network::metric_series;
    use osn_genstream::{TraceConfig, TraceGenerator};

    fn tiny_log() -> EventLog {
        TraceGenerator::new(TraceConfig::tiny()).generate()
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("osn_ckpt_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn metric_cfg() -> MetricSeriesConfig {
        MetricSeriesConfig {
            stride: 20,
            first_day: 5,
            path_sample: 40,
            path_every: 2,
            clustering_sample: 150,
            workers: 2,
            seed: 3,
        }
    }

    fn assert_series_eq(a: &MetricSeries, b: &MetricSeries) {
        for (x, y) in [
            (&a.avg_degree, &b.avg_degree),
            (&a.path_length, &b.path_length),
            (&a.clustering, &b.clustering),
            (&a.assortativity, &b.assortativity),
        ] {
            assert_eq!(x.points.len(), y.points.len(), "{} length", x.name);
            for (p, q) in x.points.iter().zip(&y.points) {
                assert_eq!(p.0.to_bits(), q.0.to_bits(), "{} x", x.name);
                assert_eq!(p.1.to_bits(), q.1.to_bits(), "{} y", x.name);
            }
        }
    }

    #[test]
    fn checkpointed_metrics_match_direct_run() {
        let log = tiny_log();
        let cfg = metric_cfg();
        let dir = tmp_dir("metrics_direct");
        let direct = metric_series(&log, &cfg);
        let ckpt = metric_series_checkpointed(&log, &cfg, &dir).unwrap();
        assert_series_eq(&ckpt, &direct);
        // Second run is a pure cache read and still identical.
        let again = metric_series_checkpointed(&log, &cfg, &dir).unwrap();
        assert_series_eq(&again, &direct);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupted_metrics_resume_identically() {
        let log = tiny_log();
        let cfg = metric_cfg();
        let dir = tmp_dir("metrics_resume");
        // Stop after 3 new rows — like a kill mid-run.
        let partial = run_metrics(&log, &cfg, &dir, 3, &RunPolicy::default()).unwrap();
        assert!(partial.is_none(), "run should have been interrupted");
        assert!(dir.join("rows.txt").exists());
        let resumed = metric_series_checkpointed(&log, &cfg, &dir).unwrap();
        assert_series_eq(&resumed, &metric_series(&log, &cfg));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn metrics_checkpoint_refuses_other_config() {
        let log = tiny_log();
        let cfg = metric_cfg();
        let dir = tmp_dir("metrics_mismatch");
        metric_series_checkpointed(&log, &cfg, &dir).unwrap();
        let mut other = cfg;
        other.seed += 1;
        let err = metric_series_checkpointed(&log, &other, &dir).unwrap_err();
        assert!(matches!(err, CheckpointStoreError::Mismatch(_)), "{err}");
        // Changing only the worker count is fine: results are unaffected.
        let mut more_workers = cfg;
        more_workers.workers = 1;
        assert!(metric_series_checkpointed(&log, &more_workers, &dir).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_rows_file_is_reported() {
        let log = tiny_log();
        let cfg = metric_cfg();
        let dir = tmp_dir("metrics_corrupt");
        metric_series_checkpointed(&log, &cfg, &dir).unwrap();
        std::fs::write(dir.join("rows.txt"), "#%osn-rows v1\nrow nonsense\n").unwrap();
        let err = metric_series_checkpointed(&log, &cfg, &dir).unwrap_err();
        assert!(matches!(err, CheckpointStoreError::Corrupt { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_summaries_count_is_reported() {
        let log = tiny_log();
        let cfg = comm_cfg();
        let dir = tmp_dir("comm_corrupt_count");
        track_checkpointed(&log, &cfg, &dir).unwrap();
        let path = dir.join("communities.ckpt");
        let text = std::fs::read_to_string(&path).unwrap();
        let count_line = text.lines().nth(1).unwrap().to_string();
        assert!(count_line.starts_with("summaries "), "{count_line}");
        std::fs::write(
            &path,
            text.replacen(&count_line, "summaries 1000000000000", 1),
        )
        .unwrap();
        let err = track_checkpointed(&log, &cfg, &dir).unwrap_err();
        assert!(matches!(err, CheckpointStoreError::Corrupt { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn comm_cfg() -> CommunityAnalysisConfig {
        CommunityAnalysisConfig {
            first_day: 40,
            stride: 40,
            min_size: 8,
            delta: 0.01,
            seed: 1,
        }
    }

    fn assert_outputs_eq(
        a: &(Vec<SnapshotSummary>, TrackerOutput),
        b: &(Vec<SnapshotSummary>, TrackerOutput),
    ) {
        assert_eq!(a.0.len(), b.0.len());
        for (x, y) in a.0.iter().zip(&b.0) {
            assert_eq!(x.day, y.day);
            assert_eq!(x.modularity.to_bits(), y.modularity.to_bits());
            assert_eq!(x.num_tracked, y.num_tracked);
            assert_eq!(x.sizes, y.sizes);
            assert_eq!(
                x.avg_similarity.map(f64::to_bits),
                y.avg_similarity.map(f64::to_bits)
            );
            assert_eq!(x.top5_coverage.to_bits(), y.top5_coverage.to_bits());
        }
        assert_eq!(a.1.events, b.1.events);
        assert_eq!(a.1.records, b.1.records);
        assert_eq!(a.1.final_membership, b.1.final_membership);
        assert_eq!(a.1.final_sizes, b.1.final_sizes);
        assert_eq!(a.1.last_day, b.1.last_day);
    }

    #[test]
    fn checkpointed_communities_match_direct_run() {
        let log = tiny_log();
        let cfg = comm_cfg();
        let dir = tmp_dir("comm_direct");
        let direct = track(&log, &cfg);
        let ckpt = track_checkpointed(&log, &cfg, &dir).unwrap();
        assert_outputs_eq(&ckpt, &direct);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupted_communities_resume_identically() {
        let log = tiny_log();
        let cfg = comm_cfg();
        let dir = tmp_dir("comm_resume");
        let partial = run_communities(&log, &cfg, &dir, 2, &RunPolicy::default()).unwrap();
        assert!(partial.is_none(), "run should have been interrupted");
        assert!(dir.join("communities.ckpt").exists());
        let resumed = track_checkpointed(&log, &cfg, &dir).unwrap();
        assert_outputs_eq(&resumed, &track(&log, &cfg));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

        /// A metrics run interrupted after an arbitrary number of strides
        /// (possibly several times) and then resumed produces results
        /// bit-identical to an uninterrupted run — for arbitrary
        /// result-affecting configuration.
        #[test]
        fn interrupted_metrics_resume_bit_identical(
            limit in 1usize..5,
            stride in 15u32..45,
            seed in 0u64..4,
            path_every in 1usize..4,
        ) {
            let log = tiny_log();
            let cfg = MetricSeriesConfig {
                stride,
                seed,
                path_every,
                path_sample: 30,
                clustering_sample: 100,
                workers: 2,
                ..MetricSeriesConfig::default()
            };
            let dir = tmp_dir(&format!("prop_{limit}_{stride}_{seed}_{path_every}"));
            // Interrupt twice at the same budget, then finish.
            let _ = run_metrics(&log, &cfg, &dir, limit, &RunPolicy::default()).unwrap();
            let _ = run_metrics(&log, &cfg, &dir, limit, &RunPolicy::default()).unwrap();
            let resumed = metric_series_checkpointed(&log, &cfg, &dir).unwrap();
            let direct = metric_series(&log, &cfg);
            assert_series_eq(&resumed, &direct);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Quarantine records minus `elapsed_ms` (wall-clock time is the one
    /// field that legitimately differs between identical runs).
    fn quarantine_facts(q: &[QuarantinedTask]) -> Vec<(Day, FailureKind, u32, String)> {
        q.iter()
            .map(|t| (t.day, t.kind, t.attempts, t.reason.clone()))
            .collect()
    }

    fn panic_plan(day: Day) -> RunPolicy {
        use osn_metrics::supervisor::{ChaosAction, ChaosTaskPlan};
        RunPolicy {
            chaos: Some(ChaosTaskPlan::default().with_rule(
                day as u64,
                None,
                ChaosAction::Panic(format!("injected panic on day {day}")),
            )),
            ..RunPolicy::default()
        }
    }

    #[test]
    fn metrics_chaos_quarantine_recorded_and_resume_bit_identical() {
        let log = tiny_log();
        let cfg = metric_cfg();
        let days = snapshot_days(&log, cfg.first_day, cfg.stride);
        let bad_day = days[2];
        let policy = panic_plan(bad_day);

        // Uninterrupted degraded run.
        let dir_a = tmp_dir("metrics_chaos_a");
        let (series_a, quar_a) =
            metric_series_checkpointed_supervised(&log, &cfg, &dir_a, &policy).unwrap();
        assert_eq!(quar_a.len(), 1);
        assert_eq!(quar_a[0].day, bad_day);
        assert_eq!(quar_a[0].kind, FailureKind::Panicked);
        assert_eq!(quar_a[0].attempts, 1);
        assert!(quar_a[0].reason.contains("injected panic"));
        assert!(dir_a.join("quarantine.txt").exists());
        // All other days match the non-checkpointed supervised sweep.
        let (direct, direct_failures) =
            crate::network::metric_series_supervised(&log, &cfg, &policy);
        assert_eq!(direct_failures.len(), 1);
        assert_series_eq(&series_a, &direct);
        assert!(!series_a
            .avg_degree
            .points
            .iter()
            .any(|&(d, _)| d == bad_day as f64));

        // Kill-and-resume: interrupt twice, then finish. The quarantined
        // day must not be retried, and the output must be bit-identical.
        let dir_b = tmp_dir("metrics_chaos_b");
        assert!(run_metrics(&log, &cfg, &dir_b, 2, &policy)
            .unwrap()
            .is_none());
        assert!(run_metrics(&log, &cfg, &dir_b, 2, &policy)
            .unwrap()
            .is_none());
        // Resume without chaos: a retried quarantined day would now
        // *succeed*, so identical output proves it was skipped.
        let (series_b, quar_b) =
            metric_series_checkpointed_supervised(&log, &cfg, &dir_b, &RunPolicy::default())
                .unwrap();
        assert_series_eq(&series_b, &series_a);
        assert_eq!(quarantine_facts(&quar_b), quarantine_facts(&quar_a));

        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn parallel_resume_with_quarantine_is_byte_identical() {
        let log = tiny_log();
        let cfg = MetricSeriesConfig {
            stride: 10,
            workers: 3,
            ..metric_cfg()
        };
        let days = snapshot_days(&log, cfg.first_day, cfg.stride);
        // Cut after an odd number of rows, short of one save cadence
        // (2 × 3), with a poisoned day past the cut.
        let cut = 5;
        let bad_day = days[cut + 2];
        let policy = panic_plan(bad_day);
        let dir = tmp_dir("metrics_parallel_resume");
        assert!(run_metrics(&log, &cfg, &dir, cut, &policy)
            .unwrap()
            .is_none());
        let saved = load_rows(&dir.join("rows.txt")).unwrap();
        assert_eq!(saved.keys().copied().collect::<Vec<_>>(), days[..cut]);
        assert!(!dir.join("quarantine.txt").exists());

        let (resumed, quarantined) =
            metric_series_checkpointed_supervised(&log, &cfg, &dir, &policy).unwrap();
        let (direct, failures) = crate::network::metric_series_supervised(&log, &cfg, &policy);
        assert_eq!(resumed.to_table().to_csv(), direct.to_table().to_csv());
        assert_eq!(quarantined.len(), 1);
        assert_eq!(quarantined[0].day, bad_day);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].day, bad_day);
        assert!(!dir.join("replay.ckpt").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn metrics_chaos_transient_healed_by_retry() {
        use osn_metrics::supervisor::{ChaosAction, ChaosTaskPlan};
        let log = tiny_log();
        let cfg = metric_cfg();
        let days = snapshot_days(&log, cfg.first_day, cfg.stride);
        let flaky_day = days[1];
        let policy = RunPolicy {
            retries: 1,
            chaos: Some(ChaosTaskPlan::default().with_rule(
                flaky_day as u64,
                Some(1),
                ChaosAction::Transient("flaky first attempt".into()),
            )),
            ..RunPolicy::default()
        };
        let dir = tmp_dir("metrics_chaos_retry");
        let (series, quarantined) =
            metric_series_checkpointed_supervised(&log, &cfg, &dir, &policy).unwrap();
        assert!(quarantined.is_empty(), "one retry must heal the fault");
        assert!(!dir.join("quarantine.txt").exists());
        // The healed run is bit-identical to a clean run: retries never
        // perturb results.
        assert_series_eq(&series, &metric_series(&log, &cfg));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn communities_chaos_quarantine_and_resume() {
        let log = tiny_log();
        let cfg = comm_cfg();
        let days = snapshot_days(&log, cfg.first_day, cfg.stride);
        let bad_day = days[1];
        let policy = panic_plan(bad_day);

        let dir_a = tmp_dir("comm_chaos_a");
        let ((summaries_a, out_a), quar_a) =
            track_checkpointed_supervised(&log, &cfg, &dir_a, &policy).unwrap();
        assert_eq!(quar_a.len(), 1);
        assert_eq!(quar_a[0].day, bad_day);
        assert_eq!(quar_a[0].kind, FailureKind::Panicked);
        // The quarantined day produced no summary; every other day did.
        assert_eq!(summaries_a.len(), days.len() - 1);
        assert!(!summaries_a.iter().any(|s| s.day == bad_day));

        // Kill right after the quarantined day, then resume (chaos off on
        // resume: identical output proves the day was skipped, not
        // retried).
        let dir_b = tmp_dir("comm_chaos_b");
        assert!(run_communities(&log, &cfg, &dir_b, 2, &policy)
            .unwrap()
            .is_none());
        let ((summaries_b, out_b), quar_b) =
            track_checkpointed_supervised(&log, &cfg, &dir_b, &RunPolicy::default()).unwrap();
        assert_eq!(quarantine_facts(&quar_b), quarantine_facts(&quar_a));
        assert_outputs_eq(&(summaries_b, out_b), &(summaries_a, out_a));

        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn supervised_tracking_matches_checkpointed_under_the_same_plans() {
        use crate::communities::track_supervised;
        use osn_metrics::supervisor::{ChaosAction, ChaosTaskPlan};
        use std::time::Duration;
        let log = tiny_log();
        let cfg = comm_cfg();
        let days = snapshot_days(&log, cfg.first_day, cfg.stride);
        let day = days[1];
        let plan =
            |attempt, action| Some(ChaosTaskPlan::default().with_rule(day as u64, attempt, action));
        let policies = [
            RunPolicy {
                chaos: plan(None, ChaosAction::Panic("poisoned snapshot".into())),
                ..RunPolicy::default()
            },
            RunPolicy {
                retries: 1,
                chaos: plan(Some(1), ChaosAction::Transient("flaky first try".into())),
                ..RunPolicy::default()
            },
            // Every observation takes milliseconds; the delayed one
            // finishes, but past its deadline.
            RunPolicy {
                task_timeout: Some(Duration::from_secs(2)),
                chaos: plan(None, ChaosAction::Delay(2_500)),
                ..RunPolicy::default()
            },
        ];
        let runs: Vec<_> = policies
            .iter()
            .enumerate()
            .map(|(i, policy)| {
                let (direct, failures) = track_supervised(&log, &cfg, policy);
                let dir = tmp_dir(&format!("comm_parity_{i}"));
                let (ckpt, quarantined) =
                    track_checkpointed_supervised(&log, &cfg, &dir, policy).unwrap();
                std::fs::remove_dir_all(&dir).unwrap();
                assert_outputs_eq(&direct, &ckpt);
                let direct_failures: Vec<QuarantinedTask> = failures
                    .iter()
                    .map(|f| QuarantinedTask::from_failure(f.day, &f.failure))
                    .collect();
                assert_eq!(
                    quarantine_facts(&direct_failures),
                    quarantine_facts(&quarantined),
                    "policy {i}"
                );
                let kinds: Vec<(Day, FailureKind)> =
                    quarantined.iter().map(|q| (q.day, q.kind)).collect();
                (direct, kinds)
            })
            .collect();

        let [panicked, healed, late] = &runs[..] else {
            unreachable!()
        };
        assert_eq!(panicked.1, [(day, FailureKind::Panicked)]);
        assert_eq!(panicked.0 .0.len(), days.len() - 1);
        assert!(!panicked.0 .0.iter().any(|s| s.day == day));
        assert!(healed.1.is_empty(), "one retry heals an attempt-1 fault");
        assert_outputs_eq(&healed.0, &track(&log, &cfg));
        // The late observation was computed in full but never committed:
        // the run equals the one where that day never got to observe.
        assert_eq!(late.1, [(day, FailureKind::TimedOut)]);
        assert_outputs_eq(&late.0, &panicked.0);
    }

    #[test]
    fn communities_checkpoint_refuses_other_trace() {
        let log = tiny_log();
        let cfg = comm_cfg();
        let dir = tmp_dir("comm_mismatch");
        run_communities(&log, &cfg, &dir, 1, &RunPolicy::default()).unwrap();
        let mut gen_cfg = TraceConfig::tiny();
        gen_cfg.seed ^= 0xfeed;
        let other = TraceGenerator::new(gen_cfg).generate();
        let err = track_checkpointed(&other, &cfg, &dir).unwrap_err();
        assert!(matches!(err, CheckpointStoreError::Mismatch(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
