//! Subcommand implementations and flag parsing.

use crate::error::CliError;
use osn_core::checkpoint::{
    metric_series_checkpointed_supervised, track_checkpointed_supervised, QuarantinedTask,
};
use osn_core::communities::{track_supervised, CommunityAnalysisConfig};
use osn_core::network::{growth_series, metric_series_supervised, MetricSeriesConfig};
use osn_core::preferential::{alpha_series, AlphaConfig, DestinationRule};
use osn_core::report::{write_csv, write_run_manifest, ManifestEntry};
use osn_genstream::{TraceConfig, TraceGenerator};
use osn_graph::io::{read_log, read_log_with_policy, save_log_v2, RecoveryPolicy};
use osn_graph::{EventLog, Origin, Replayer};
use osn_metrics::supervisor::RunPolicy;
use osn_stats::Table;
use std::path::{Path, PathBuf};

/// Top-level usage text.
pub const USAGE: &str = "\
osn — synthetic OSN traces and the IMC'12 multi-scale analyses

USAGE:
  osn generate [--scale tiny|small|paper] [--seed N] [--nodes N] [--days D]
               [--no-merge] --out trace.events
  osn inspect  trace.events
  osn verify   trace.events [--policy strict|skip|repair] [--max-errors N]
               [--window SECONDS] [--json] [--allow-truncated-tail]
  osn verify   --wal DIR [--json]
  osn metrics  trace.events [--stride D] [--seed N] [--out DIR]
               [--checkpoint DIR] [--workers N] [--retries N]
               [--task-timeout SECS] [--strict]
  osn communities trace.events [--delta X] [--stride D] [--min-size K]
               [--seed N] [--out DIR] [--checkpoint DIR] [--retries N]
               [--task-timeout SECS] [--strict]
  osn alpha    trace.events [--window E] [--out DIR]
  osn compare  a.events b.events
  osn serve    trace.events [--addr HOST] [--port P] [--workers N]
               [--queue-depth N] [--shards N] [--keepalive-timeout SECS]
               [--request-timeout SECS] [--header-timeout SECS]
               [--drain-timeout SECS] [--retries N] [--stride D]
               [--community-stride D] [--seed N] [--build-workers N]
               [--delta X] [--min-size K] [--follow]
               [--checkpoint DIR] [--poll-interval SECS] [--watchdog SECS]
               [--accept-writes] [--wal DIR] [--token TOK]...
               [--write-rate R] [--write-burst B] [--max-body-bytes N]
               [--max-write-lag N] [--max-sync-queue N] [--no-wal-fsync]

Every command also accepts --telemetry FILE (or the OSN_TELEMETRY env
var; the flag wins): the in-process telemetry registry (counters,
gauges, histograms, spans) is enabled and a JSON snapshot is written
to FILE on exit — atomically, on every exit path, including degraded
runs (exit 4) and serve drains that abandoned in-flight requests.

Traces are written in the checksummed v2 format; v1 traces stay readable.
With --checkpoint DIR, a killed metrics/communities run resumes from the
last completed snapshot and produces byte-identical output.

Each command takes exactly the flags listed above; any other --flag is a
usage error (exit 2). Output-path flags are uniform across commands:
--out PATH (primary output: a file for generate, a directory for the
analyses), --telemetry FILE, --checkpoint DIR. serve's --workers sizes
the HTTP worker pool; --build-workers the metric sweep, like metrics'
--workers.

metrics/communities run every snapshot task under a supervisor: a panic,
a deadline overrun (--task-timeout) or exhausted retries (--retries)
quarantines that snapshot while the run continues. Quarantined tasks are
listed in <out>/run_manifest.csv and the process exits 4 (degraded);
--strict promotes a degraded run to a hard failure (exit 1). Worker
count (--workers / OSN_WORKERS) never affects results, only speed.

serve answers GET /healthz /readyz /v1/meta /v1/days /v1/metrics/{day}
/v1/communities/{day} with the same bytes the batch commands write,
plus live observability at /v1/stats (JSON counters + telemetry
snapshot), /metrics (Prometheus text exposition) and /v1/head (ingest
head state); see API.md for the generated HTTP reference.
It sheds load (503 + Retry-After) when its bounded queues fill, cuts
slow-loris clients at --header-timeout, isolates handler panics (500,
process stays up), and drains on SIGTERM/SIGINT: exit 0 if every
in-flight request finished, exit 4 if --drain-timeout expired first.

serve --follow tails a trace a live writer is still appending: each
newly *complete* day is analysed and atomically published, queries
answer from the latest published snapshot (staleness reported at
/v1/head), torn tails are retried rather than treated as corruption,
and with --checkpoint DIR the head survives kill -9: the restarted
process resumes from the last published day and converges on state
byte-identical to a batch run over the finished trace. If ingest
wedges (corruption under the policy, vanished file, watchdog trip)
the daemon keeps answering from the last good snapshot and /v1/head
reports health wedged/missing — ingest trouble never turns into 500s.

serve --follow --accept-writes opens the durable write plane: POST
/v1/events appends CSV or JSON event batches to a write-ahead log that
feeds the tailed trace (group-commit fsync; kill -9 at any byte leaves
a recoverable tail, never corruption). Requests need Authorization:
Bearer <token> (--token, repeatable, or OSN_WRITE_TOKENS, comma-
separated); an Idempotency-Key header makes at-least-once retries safe
(a re-sent batch acks 200 duplicate instead of double-applying).
Admission control sheds writes with 429/503 + Retry-After when the
per-token budget (--write-rate/--write-burst), the fsync queue
(--max-sync-queue) or head lag (--max-write-lag) exceeds bounds, so
reads stay alive under write floods. On clean shutdown the trace is
sealed back to a strict-clean batch log; osn verify --wal DIR runs the
checks the WAL's open runs on the retained segments (and on the trace,
for a DIR named <trace>.wal beside it).";

/// Each command's value flags and switches. [`Flags::parse`] rejects
/// any other `--key`; every command also takes `--telemetry FILE`.
/// `USAGE` lists exactly these sets (checked by a unit test).
const COMMAND_FLAGS: &[(&str, &str, &str)] = &[
    ("generate", "scale seed nodes days out", "no-merge"),
    ("inspect", "", ""),
    (
        "verify",
        "policy max-errors window wal",
        "json allow-truncated-tail",
    ),
    (
        "metrics",
        "stride seed out checkpoint workers retries task-timeout",
        "strict",
    ),
    (
        "communities",
        "delta stride min-size seed out checkpoint retries task-timeout",
        "strict",
    ),
    ("alpha", "window out", ""),
    ("compare", "", ""),
    (
        "serve",
        "addr port workers queue-depth shards keepalive-timeout request-timeout \
         header-timeout drain-timeout retries stride community-stride seed build-workers \
         delta min-size checkpoint poll-interval watchdog wal token write-rate write-burst \
         max-body-bytes max-write-lag max-sync-queue",
        "follow accept-writes no-wal-fsync",
    ),
];

/// Minimal flag parser: `--key value` pairs plus positional arguments.
#[derive(Debug)]
pub(crate) struct Flags {
    positional: Vec<String>,
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    /// Parse `args` against `command`'s entry in [`COMMAND_FLAGS`].
    pub(crate) fn parse(command: &str, args: &[String]) -> Result<Flags, CliError> {
        let (_, values, switches) = COMMAND_FLAGS
            .iter()
            .find(|(name, ..)| *name == command)
            .expect("every command has a flag set");
        let mut out = Flags {
            positional: Vec::new(),
            pairs: Vec::new(),
            switches: Vec::new(),
        };
        let listed = |set: &str, key: &str| set.split_whitespace().any(|f| f == key);
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if listed(switches, key) {
                    out.switches.push(key.to_string());
                } else if listed(values, key) || key == "telemetry" {
                    // A following `--flag` is never a value: `--out --strict`
                    // must not write into a directory named `--strict`.
                    let value = it
                        .next()
                        .filter(|v| !v.starts_with("--"))
                        .ok_or_else(|| CliError::Usage(format!("flag --{key} needs a value")))?;
                    out.pairs.push((key.to_string(), value.clone()));
                } else {
                    return Err(CliError::Usage(format!(
                        "unknown flag --{key} for `osn {command}` (see `osn help`)"
                    )));
                }
            } else {
                out.positional.push(a.clone());
            }
        }
        Ok(out)
    }

    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Every occurrence of a repeatable flag, in argument order
    /// (`--token a --token b` → `["a", "b"]`).
    pub(crate) fn get_all(&self, key: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    pub(crate) fn get_parsed<T: std::str::FromStr>(
        &self,
        key: &str,
    ) -> Result<Option<T>, CliError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| CliError::Usage(format!("bad value '{v}' for --{key}"))),
        }
    }

    pub(crate) fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    pub(crate) fn trace_arg(&self, cmd: &str) -> Result<&str, CliError> {
        self.positional
            .first()
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage(format!("{cmd} requires a trace file")))
    }
}

/// Write-on-drop telemetry snapshot. When `--telemetry FILE` (or the
/// `OSN_TELEMETRY` env var; the flag wins) names a path, the global
/// `osn_obs` registry is enabled and its JSON snapshot is written there
/// when the command returns. Dropping on every exit path — including
/// degraded runs (exit 4) and a serve drain that abandoned in-flight
/// work — is the point: the snapshot from a *bad* run is the one you
/// want to read.
pub(crate) struct TelemetryGuard {
    path: Option<PathBuf>,
}

impl TelemetryGuard {
    pub(crate) fn from_flags(flags: &Flags) -> TelemetryGuard {
        let path = flags
            .get("telemetry")
            .map(PathBuf::from)
            .or_else(|| std::env::var_os("OSN_TELEMETRY").map(PathBuf::from))
            .filter(|p| !p.as_os_str().is_empty());
        if path.is_some() {
            osn_obs::set_enabled(true);
        }
        TelemetryGuard { path }
    }
}

impl Drop for TelemetryGuard {
    fn drop(&mut self) {
        if let Some(path) = &self.path {
            if let Err(e) = osn_obs::snapshot().write_json_atomic(path) {
                eprintln!(
                    "warning: failed to write telemetry snapshot {}: {e}",
                    path.display()
                );
            }
        }
    }
}

fn load_log(path: &str) -> Result<EventLog, CliError> {
    let file = std::fs::File::open(path).map_err(|e| CliError::io(format!("open {path}"), e))?;
    read_log(std::io::BufReader::new(file)).map_err(|e| CliError::Trace {
        path: PathBuf::from(path),
        source: e,
    })
}

fn out_dir(flags: &Flags) -> PathBuf {
    PathBuf::from(flags.get("out").unwrap_or("osn-out"))
}

fn checkpoint_dir(flags: &Flags) -> Option<PathBuf> {
    flags.get("checkpoint").map(PathBuf::from)
}

/// Build the supervision policy from `--retries` / `--task-timeout` and
/// the `OSN_CHAOS` fault-injection hook (a `ChaosTaskPlan` spec such as
/// `panic@12` — test/drill use only; see `osn_metrics::supervisor`).
pub(crate) fn run_policy(flags: &Flags) -> Result<RunPolicy, CliError> {
    let retries = flags.get_parsed::<u32>("retries")?.unwrap_or(0);
    let task_timeout = flags
        .get_parsed::<f64>("task-timeout")?
        .map(|secs| {
            if secs > 0.0 && secs.is_finite() {
                Ok(std::time::Duration::from_secs_f64(secs))
            } else {
                Err(CliError::Usage(format!(
                    "--task-timeout must be a positive number of seconds, got {secs}"
                )))
            }
        })
        .transpose()?;
    let chaos = match std::env::var("OSN_CHAOS") {
        Ok(spec) if !spec.trim().is_empty() => Some(
            osn_metrics::supervisor::ChaosTaskPlan::from_spec(spec.trim())
                .map_err(|e| CliError::Usage(format!("bad OSN_CHAOS spec: {e}")))?,
        ),
        _ => None,
    };
    Ok(RunPolicy {
        retries,
        task_timeout,
        chaos,
    })
}

/// Render quarantined snapshot tasks as manifest rows plus one summary
/// row for the command itself, write `<dir>/run_manifest.csv`, and turn a
/// non-empty quarantine into the degraded (or, with `--strict`, failed)
/// exit path.
fn finish_supervised_run(
    dir: &Path,
    command: &str,
    quarantined: &[QuarantinedTask],
    elapsed_ms: u64,
    strict: bool,
) -> Result<(), CliError> {
    let mut entries: Vec<ManifestEntry> = quarantined
        .iter()
        .map(|q| {
            ManifestEntry::failed(
                format!("{command}/day-{}", q.day),
                "quarantined",
                q.attempts,
                q.elapsed_ms,
                format!("{}: {}", q.kind, q.reason),
            )
        })
        .collect();
    if quarantined.is_empty() {
        entries.push(ManifestEntry::ok(command, 1, elapsed_ms));
    } else {
        entries.push(ManifestEntry::failed(
            command,
            "degraded",
            1,
            elapsed_ms,
            format!("{} snapshot task(s) quarantined", quarantined.len()),
        ));
    }
    let path =
        write_run_manifest(dir, &entries).map_err(|e| CliError::io("write run_manifest.csv", e))?;
    println!("wrote {}", path.display());
    if quarantined.is_empty() {
        Ok(())
    } else {
        for q in quarantined {
            eprintln!(
                "warning: quarantined day {} ({} after {} attempt(s)): {}",
                q.day, q.kind, q.attempts, q.reason
            );
        }
        Err(CliError::Degraded {
            quarantined: quarantined.len(),
            strict,
        })
    }
}

/// `osn generate`
pub fn generate(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse("generate", args)?;
    let _telemetry = TelemetryGuard::from_flags(&flags);
    let mut cfg = match flags.get("scale").unwrap_or("small") {
        "tiny" => TraceConfig::tiny(),
        "small" => TraceConfig::small(),
        "paper" => TraceConfig::default_paper(),
        other => {
            return Err(CliError::Usage(format!(
                "unknown scale '{other}' (tiny|small|paper)"
            )))
        }
    };
    if let Some(seed) = flags.get_parsed::<u64>("seed")? {
        cfg.seed = seed;
    }
    if let Some(nodes) = flags.get_parsed::<u32>("nodes")? {
        cfg.growth.final_nodes = nodes;
    }
    if let Some(days) = flags.get_parsed::<u32>("days")? {
        cfg.days = days;
        if let Some(m) = &cfg.merge {
            if m.merge_day >= days {
                return Err(CliError::Usage(format!(
                    "merge day {} is outside a {days}-day trace; pass --no-merge or more days",
                    m.merge_day
                )));
            }
        }
    }
    if flags.has("no-merge") {
        cfg.merge = None;
    }
    let out = flags
        .get("out")
        .ok_or_else(|| CliError::Usage("generate requires --out <file>".to_string()))?
        .to_string();
    let log = TraceGenerator::new(cfg).generate();
    // Checksummed v2, written atomically: a crash mid-generate leaves
    // either no file or the previous one, never a torn trace.
    save_log_v2(&log, &out).map_err(|e| CliError::io(format!("write {out}"), e))?;
    println!(
        "wrote {} nodes / {} edges over {} days to {out} (format v2)",
        log.num_nodes(),
        log.num_edges(),
        log.end_day() + 1
    );
    Ok(())
}

/// `osn inspect`
pub fn inspect(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse("inspect", args)?;
    let _telemetry = TelemetryGuard::from_flags(&flags);
    let path = flags.trace_arg("inspect")?;
    let log = load_log(path)?;
    println!("trace: {path}");
    println!("  nodes: {}", log.num_nodes());
    println!("  edges: {}", log.num_edges());
    println!("  days:  {}", log.end_day() + 1);
    println!("  fingerprint: {:016x}", log.fingerprint());
    let mut by_origin = [0u32; 3];
    for &o in log.origins() {
        let i = match o {
            Origin::Core => 0,
            Origin::Competitor => 1,
            Origin::PostMerge => 2,
        };
        by_origin[i] += 1;
    }
    println!(
        "  origins: core {} / competitor {} / post-merge {}",
        by_origin[0], by_origin[1], by_origin[2]
    );
    let mut replayer = Replayer::new(&log);
    replayer.advance_to_end();
    let g = replayer.freeze();
    println!("  average degree: {:.2}", g.average_degree());
    println!("  max degree: {}", osn_metrics::degree::max_degree(&g));
    let comps = osn_metrics::component_sizes(&g);
    println!(
        "  components: {} (largest {})",
        comps.len(),
        comps.first().copied().unwrap_or(0)
    );
    println!("  degeneracy: {}", osn_metrics::degeneracy(&g));
    Ok(())
}

/// `osn verify` — check a trace's checksums and event-stream invariants,
/// print the ingest report, and exit non-zero when anything is wrong.
/// With `--json`, print the report as one machine-readable JSON line
/// instead (same exit-code contract), for CI and the `osn serve`
/// startup preflight. With `--allow-truncated-tail`, a v2 stream whose
/// only problem is an unfinished tail (a live writer mid-append; the
/// report's `tail_pending` field) exits 0 instead of 3 — mid-file
/// corruption still fails.
pub fn verify(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse("verify", args)?;
    let _telemetry = TelemetryGuard::from_flags(&flags);
    // `--wal DIR` switches to write-ahead-log mode: verify every
    // retained segment instead of a trace file.
    if let Some(dir) = flags.get("wal") {
        return verify_wal(Path::new(dir), flags.has("json"));
    }
    let path = flags.trace_arg("verify")?;
    // Strict turns a pending tail into a hard parse error before any
    // report exists, so --allow-truncated-tail defaults to skip; an
    // explicit --policy still wins. Non-tail problems exit 3 either way.
    let default_policy = if flags.has("allow-truncated-tail") {
        "skip"
    } else {
        "strict"
    };
    let policy = match flags.get("policy").unwrap_or(default_policy) {
        "strict" => RecoveryPolicy::Strict,
        "skip" => RecoveryPolicy::Skip {
            max_errors: flags
                .get_parsed::<usize>("max-errors")?
                .unwrap_or(usize::MAX),
        },
        "repair" => RecoveryPolicy::Repair {
            window: flags.get_parsed::<u64>("window")?.unwrap_or(86_400),
        },
        other => {
            return Err(CliError::Usage(format!(
                "unknown policy '{other}' (strict|skip|repair)"
            )))
        }
    };
    let file = std::fs::File::open(path).map_err(|e| CliError::io(format!("open {path}"), e))?;
    let (log, report) =
        read_log_with_policy(std::io::BufReader::new(file), &policy).map_err(|e| {
            CliError::Trace {
                path: PathBuf::from(path),
                source: e,
            }
        })?;
    if flags.has("json") {
        println!("{}", report.to_json());
    } else {
        println!("{path}:");
        print!("{}", report.summary());
        println!(
            "  log: {} nodes, {} edges, {} days, fingerprint {:016x}",
            log.num_nodes(),
            log.num_edges(),
            log.end_day() + 1,
            log.fingerprint()
        );
    }
    let problems = report.problem_count();
    if report.is_clean() {
        if !flags.has("json") {
            println!("  verdict: clean");
        }
        Ok(())
    } else if flags.has("allow-truncated-tail") && report.tail_pending() {
        // A live writer hasn't finished this file yet; nothing verified
        // so far is wrong. The JSON report carries tail_pending:true.
        if !flags.has("json") {
            println!("  verdict: clean so far (tail pending — writer still appending)");
        }
        Ok(())
    } else {
        if !flags.has("json") {
            println!("  verdict: NOT clean ({problems} problem(s) — see above)");
        }
        Err(CliError::Corrupt {
            path: PathBuf::from(path),
            problems,
        })
    }
}

/// `osn verify --wal DIR` — judge every retained WAL segment with the
/// segment check [`osn_graph::wal::Wal::open`] runs and, when DIR is
/// `<trace>.wal` beside its trace (the default layout), the trace with
/// open's trace checks too, so verify fails whenever open would refuse
/// to start; with another layout it says the trace was not checked. Two
/// more things fail here that open tolerates: a segment before the last
/// without its footer, and a last segment whose tail failed verification
/// (open truncates it as torn). An unfinished final append is only
/// pending. Exit codes match trace verification: 0 clean, 3 corrupt.
fn verify_wal(dir: &Path, json: bool) -> Result<(), CliError> {
    use osn_graph::wal::{check_segments, check_trace, SegmentState};
    let trace = (dir.file_name())
        .and_then(|name| name.to_str()?.strip_suffix(".wal"))
        .map(|name| dir.with_file_name(name))
        .filter(|trace| trace.is_file());
    let (verdicts, trace_verdict) = match &trace {
        Some(trace) => check_trace(trace, dir),
        None => check_segments(dir).map(|v| (v, None)),
    }
    .map_err(|e| CliError::io(format!("check WAL in {}", dir.display()), e))?;
    let (mut events, mut chunks, mut problems, mut tail_pending) = (0, 0, 0usize, false);
    // One line per file; in JSON mode only the problems, on stderr.
    let mut judge = |what: String, verdict: String, clean: bool| {
        problems += usize::from(!clean);
        if !json {
            println!("  {what}: {verdict}");
        } else if !clean {
            eprintln!("{what}: {verdict}");
        }
    };
    for v in &verdicts {
        events += v.events;
        chunks += v.chunks;
        let (verdict, clean) = match &v.state {
            SegmentState::Sealed => ("clean".to_string(), true),
            SegmentState::Active { damage: None, .. } => {
                tail_pending = true;
                ("active (tail pending)".to_string(), true)
            }
            SegmentState::Active {
                damage: Some(why), ..
            } => (format!("DAMAGED TAIL ({why})"), false),
            SegmentState::Unfinished => ("UNFINISHED (not the active segment)".to_string(), false),
            SegmentState::Corrupt(e) => (format!("CORRUPT ({e})"), false),
        };
        let counts = format!("{} event(s), {} chunk(s)", v.events, v.chunks);
        judge(
            format!("seg-{:06}", v.index),
            format!("{counts}, {verdict}"),
            clean,
        );
    }
    let trace_checked = trace_verdict.is_some();
    match (&trace, trace_verdict) {
        (Some(trace), Some(verdict)) => {
            let (verdict, clean) = match verdict {
                Ok(()) => ("clean".to_string(), true),
                Err(e) => (format!("CORRUPT ({e})"), false),
            };
            judge(format!("trace {}", trace.display()), verdict, clean);
        }
        _ if json => {}
        (None, _) => println!("  trace: not checked (DIR is not <trace>.wal beside a trace)"),
        _ if (verdicts.iter()).any(|v| matches!(v.state, SegmentState::Corrupt(_))) => {
            println!("  trace: not checked (a segment is corrupt)")
        }
        _ => println!("  trace: not checked (the WAL rotated during every attempt; rerun)"),
    }
    if json {
        println!(
            "{{\"wal\":\"{}\",\"segments\":{},\"events\":{events},\"chunks\":{chunks},\
             \"problems\":{problems},\"tail_pending\":{tail_pending},\
             \"trace_checked\":{trace_checked}}}",
            dir.display(),
            verdicts.len()
        );
    } else {
        println!(
            "{}: {} segment(s), {events} event(s), {chunks} chunk(s)",
            dir.display(),
            verdicts.len()
        );
        if problems == 0 {
            println!("  verdict: clean");
        } else {
            println!("  verdict: NOT clean ({problems} problem(s) — see above)");
        }
    }
    if problems == 0 {
        Ok(())
    } else {
        Err(CliError::Corrupt {
            path: dir.to_path_buf(),
            problems: problems as u64,
        })
    }
}

/// `osn metrics`
pub fn metrics(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse("metrics", args)?;
    let _telemetry = TelemetryGuard::from_flags(&flags);
    let path = flags.trace_arg("metrics")?;
    let log = load_log(path)?;
    let stride = flags.get_parsed::<u32>("stride")?.unwrap_or(7);
    let dir = out_dir(&flags);
    let cfg = MetricSeriesConfig {
        stride,
        seed: flags.get_parsed::<u64>("seed")?.unwrap_or(0),
        workers: flags.get_parsed::<usize>("workers")?.unwrap_or(0),
        ..Default::default()
    };
    let policy = run_policy(&flags)?;
    let started = std::time::Instant::now();
    let (m, quarantined) = match checkpoint_dir(&flags) {
        Some(ckpt) => {
            let out = metric_series_checkpointed_supervised(&log, &cfg, &ckpt, &policy)?;
            println!("checkpoint: {}", ckpt.display());
            out
        }
        None => {
            let (m, failures) = metric_series_supervised(&log, &cfg, &policy);
            let quarantined = failures
                .iter()
                .map(|f| QuarantinedTask::from_failure(f.day, &f.failure))
                .collect();
            (m, quarantined)
        }
    };
    write_and_report(&dir, "growth", &growth_series(&log))?;
    write_and_report(&dir, "metrics", &m.to_table())?;
    println!(
        "final: degree {:.2}, clustering {:.3}, assortativity {}",
        m.avg_degree.last_y().unwrap_or(0.0),
        m.clustering.last_y().unwrap_or(0.0),
        m.assortativity
            .last_y()
            .map(|v| format!("{v:.3}"))
            .unwrap_or_else(|| "-".into())
    );
    finish_supervised_run(
        &dir,
        "metrics",
        &quarantined,
        started.elapsed().as_millis() as u64,
        flags.has("strict"),
    )
}

/// `osn communities`
pub fn communities(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse("communities", args)?;
    let _telemetry = TelemetryGuard::from_flags(&flags);
    let path = flags.trace_arg("communities")?;
    let log = load_log(path)?;
    let cfg = CommunityAnalysisConfig {
        stride: flags.get_parsed::<u32>("stride")?.unwrap_or(7),
        delta: flags.get_parsed::<f64>("delta")?.unwrap_or(0.04),
        min_size: flags.get_parsed::<u32>("min-size")?.unwrap_or(10),
        seed: flags.get_parsed::<u64>("seed")?.unwrap_or(0),
        ..Default::default()
    };
    let policy = run_policy(&flags)?;
    let started = std::time::Instant::now();
    let ((summaries, output), quarantined) = match checkpoint_dir(&flags) {
        Some(ckpt) => {
            let out = track_checkpointed_supervised(&log, &cfg, &ckpt, &policy)?;
            println!("checkpoint: {}", ckpt.display());
            out
        }
        None => {
            let (out, failures) = track_supervised(&log, &cfg, &policy);
            let quarantined = failures
                .iter()
                .map(|f| QuarantinedTask::from_failure(f.day, &f.failure))
                .collect();
            (out, quarantined)
        }
    };
    // Shared with `osn serve` (osn_core::query) so the daemon's answers
    // are byte-identical to this batch output.
    let table = osn_core::query::communities_table(&summaries);
    let dir = out_dir(&flags);
    write_and_report(&dir, "communities", &table)?;
    // Evolution-event log as CSV for external tooling.
    {
        use osn_community::EvolutionEvent;
        let mut csv = String::from(
            "day,event,community,size,partner
",
        );
        for e in &output.events {
            use std::fmt::Write as _;
            match e {
                EvolutionEvent::Birth {
                    id,
                    day,
                    size,
                    split_from,
                } => {
                    let partner = split_from.map(|p| p.to_string()).unwrap_or_default();
                    let _ = writeln!(csv, "{day},birth,{id},{size},{partner}");
                }
                EvolutionEvent::Death {
                    id,
                    day,
                    size,
                    merged_into,
                    ..
                } => {
                    let partner = merged_into.map(|p| p.to_string()).unwrap_or_default();
                    let kind = if merged_into.is_some() {
                        "merge_death"
                    } else {
                        "death"
                    };
                    let _ = writeln!(csv, "{day},{kind},{id},{size},{partner}");
                }
                EvolutionEvent::Split {
                    parent,
                    day,
                    largest,
                    second,
                } => {
                    let _ = writeln!(csv, "{day},split,{parent},{largest},{second}");
                }
                EvolutionEvent::Merge {
                    dest,
                    day,
                    largest,
                    second,
                } => {
                    let _ = writeln!(csv, "{day},merge,{dest},{largest},{second}");
                }
            }
        }
        let path = dir.join("community_events.csv");
        osn_graph::atomicfile::write_bytes_atomic(&path, csv.as_bytes())
            .map_err(|e| CliError::io(format!("write {}", path.display()), e))?;
        println!("wrote {}", path.display());
    }
    let deaths = output
        .records
        .iter()
        .filter(|r| r.death_day.is_some())
        .count();
    println!(
        "{} snapshots tracked; {} community identities ({} died), {} evolution events",
        summaries.len(),
        output.records.len(),
        deaths,
        output.events.len()
    );
    finish_supervised_run(
        &dir,
        "communities",
        &quarantined,
        started.elapsed().as_millis() as u64,
        flags.has("strict"),
    )
}

/// `osn alpha`
pub fn alpha(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse("alpha", args)?;
    let _telemetry = TelemetryGuard::from_flags(&flags);
    let path = flags.trace_arg("alpha")?;
    let log = load_log(path)?;
    let cfg = AlphaConfig {
        window: flags.get_parsed::<u64>("window")?.unwrap_or(5_000),
        ..Default::default()
    };
    let hi = alpha_series(&log, DestinationRule::HigherDegree, &cfg);
    let lo = alpha_series(&log, DestinationRule::Random, &cfg);
    let table = Table::new("edge_count")
        .with(hi.to_series())
        .with(lo.to_series());
    let dir = out_dir(&flags);
    write_and_report(&dir, "alpha", &table)?;
    if let (Some(first), Some(last)) = (hi.points.first(), hi.points.last()) {
        println!(
            "α (higher-degree rule): {:.2} at {} edges → {:.2} at {} edges",
            first.alpha, first.edge_count, last.alpha, last.edge_count
        );
    }
    Ok(())
}

/// `osn compare` — two-sample Kolmogorov–Smirnov tests between two
/// traces, over the degree distribution and the per-user inter-arrival
/// distribution. Useful for checking whether two seeds (or two
/// configurations) are statistically distinguishable.
pub fn compare(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse("compare", args)?;
    let _telemetry = TelemetryGuard::from_flags(&flags);
    let [pa, pb] = flags.positional.as_slice() else {
        return Err(CliError::Usage(
            "compare requires exactly two trace files".into(),
        ));
    };
    let a = load_log(pa)?;
    let b = load_log(pb)?;
    let degrees = |log: &EventLog| {
        let mut replayer = Replayer::new(log);
        replayer.advance_to_end();
        let g = replayer.freeze();
        osn_stats::Cdf::from_samples(
            (0..g.num_nodes() as u32)
                .map(|u| g.degree(u) as f64)
                .collect(),
        )
    };
    let gaps = |log: &EventLog| {
        let times = osn_core::edges::per_node_edge_times(log);
        let mut out = Vec::new();
        for list in &times {
            for w in list.windows(2) {
                out.push(w[1].since(w[0]).as_days_f64());
            }
        }
        osn_stats::Cdf::from_samples(out)
    };
    for (label, ca, cb) in [
        ("degree distribution", degrees(&a), degrees(&b)),
        ("edge inter-arrival", gaps(&a), gaps(&b)),
    ] {
        match (
            osn_stats::ks_statistic(&ca, &cb),
            osn_stats::ks_pvalue(&ca, &cb),
        ) {
            (Some(d), Some(p)) => println!(
                "{label}: KS D = {d:.4}, p ≈ {p:.3} ({})",
                if p < 0.01 {
                    "distinguishable"
                } else {
                    "consistent"
                }
            ),
            _ => println!("{label}: not enough samples"),
        }
    }
    Ok(())
}

fn write_and_report(dir: &Path, name: &str, table: &Table) -> Result<(), CliError> {
    let path =
        write_csv(dir, name, table).map_err(|e| CliError::io(format!("write {name}.csv"), e))?;
    println!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_pairs_switches_positionals() {
        let args: Vec<String> = ["file.events", "--seed", "7", "--no-merge", "--out", "x"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = Flags::parse("generate", &args).unwrap();
        assert_eq!(f.positional, vec!["file.events"]);
        assert_eq!(f.get("seed"), Some("7"));
        assert_eq!(f.get_parsed::<u64>("seed").unwrap(), Some(7));
        assert!(f.has("no-merge"));
        assert_eq!(f.get("out"), Some("x"));
        assert_eq!(f.get("missing"), None);
    }

    #[test]
    fn get_all_returns_repeated_flags_in_order() {
        let args: Vec<String> = ["--token", "a", "--seed", "1", "--token", "b"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = Flags::parse("serve", &args).unwrap();
        assert_eq!(f.get_all("token"), vec!["a", "b"]);
        assert_eq!(f.get("token"), Some("b"), "get keeps last-wins semantics");
        assert!(f.get_all("missing").is_empty());
    }

    /// Build a WAL of six keyed batches (`k0` to `k5`) over several
    /// segments in the default layout, sealed or not; damage it with
    /// `damage(trace, segments)`; return the exit code of `verify --wal`
    /// (the same with `--json`) and whether `Wal::open` then refuses it.
    fn verify_damaged_wal(tag: &str, seal: bool, damage: impl FnOnce(&Path, &[Seg])) -> (u8, bool) {
        use osn_graph::wal::{list_segments, wal_dir_for, Wal, WalEvent, WalOptions};
        let dir = std::env::temp_dir().join(format!("osn_cli_wal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.events");
        let wal_dir = wal_dir_for(&trace);
        let opts = WalOptions {
            fsync: false,
            rotate_bytes: 128,
            ..WalOptions::default()
        };
        let (wal, _) = Wal::open(&trace, &wal_dir, opts.clone()).unwrap();
        for i in 0..6 {
            let node = |t| WalEvent::node(t, osn_graph::Origin::Core);
            wal.append(Some(&format!("k{i}")), &[node(2 * i), node(2 * i + 1)])
                .unwrap();
        }
        if seal {
            wal.seal().unwrap();
        }
        drop(wal);
        let segments = list_segments(&wal_dir).unwrap();
        assert!(segments.len() > 2, "rotation should have produced segments");
        damage(&trace, &segments);
        let w = wal_dir.to_str().unwrap().to_string();
        let exit = |json: &[&str]| {
            let args: Vec<String> = ["--wal", &w]
                .iter()
                .chain(json)
                .map(|a| a.to_string())
                .collect();
            verify(&args).map_or_else(|e| e.exit_code(), |()| 0)
        };
        let code = exit(&[]);
        assert_eq!(exit(&["--json"]), code);
        let refused = Wal::open(&trace, &wal_dir, opts).is_err();
        std::fs::remove_dir_all(&dir).ok();
        (code, refused)
    }

    /// A WAL segment as `list_segments` lists it.
    type Seg = (u64, PathBuf);

    fn edit(path: &Path, f: impl FnOnce(String) -> String) {
        let text = std::fs::read_to_string(path).unwrap();
        std::fs::write(path, f(text)).unwrap();
    }

    #[test]
    fn verify_wal_checks_segments_and_flags_corruption() {
        // Rotated segments verify clean, the active one tail-allowed.
        assert_eq!(verify_damaged_wal("clean", false, |_, _| {}), (0, false));
        // One payload byte flipped in the first (sealed) segment.
        let flip = |_: &Path, segs: &[Seg]| edit(&segs[0].1, |t| t.replacen("N ", "E ", 1));
        assert_eq!(verify_damaged_wal("flip", false, flip), (3, true));
    }

    #[test]
    fn verify_wal_rejects_a_chunk_whose_marker_fails_its_checksum() {
        let marker =
            |_: &Path, segs: &[Seg]| edit(&segs[0].1, |t| t.replacen("key=k0", "key=z", 1));
        assert_eq!(verify_damaged_wal("badmark", false, marker), (3, true));
    }

    #[test]
    fn verify_wal_rejects_a_comment_after_the_footer() {
        let note =
            |_: &Path, segs: &[Seg]| edit(&segs.last().unwrap().1, |t| t + "# trailing note\n");
        assert_eq!(verify_damaged_wal("afterfooter", true, note), (3, true));
    }

    #[test]
    fn verify_wal_rejects_a_final_chunk_with_a_wrong_crc() {
        let crc = |_: &Path, segs: &[Seg]| {
            edit(&segs.last().unwrap().1, |t| {
                let at = t.rfind("crc=").unwrap() + 4;
                let digit = if &t[at..=at] == "0" { "1" } else { "0" };
                format!("{}{digit}{}", &t[..at], &t[at + 1..])
            })
        };
        // Open truncates this tail as torn; verify reports the damage.
        assert_eq!(verify_damaged_wal("badcrc", false, crc).0, 3);
    }

    #[test]
    fn verify_wal_checks_the_trace_beside_it() {
        // The trace lost bytes the checkpoint records as applied.
        let cut = |trace: &Path, _: &[Seg]| edit(trace, |t| t[..20].to_string());
        assert_eq!(verify_damaged_wal("trace", true, cut), (3, true));
    }

    #[test]
    fn verify_wal_accepts_an_unfinished_final_append() {
        let torn = |_: &Path, segs: &[Seg]| {
            edit(&segs.last().unwrap().1, |t| {
                t + "# batch seq=7 key=c events=1\nN 20"
            })
        };
        assert_eq!(verify_damaged_wal("pending", false, torn), (0, false));
    }

    #[test]
    fn unknown_flags_are_usage_errors_naming_flag_and_command() {
        let dir = std::env::temp_dir().join(format!("osn_cli_flags_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let trace = dir.join("t.events");
        let t = trace.to_str().unwrap().to_string();
        generate(&["--scale".into(), "tiny".into(), "--out".into(), t.clone()]).unwrap();
        let out = dir.join("out").to_str().unwrap().to_string();
        let run = |command: &str, extra: &[&str]| {
            let mut args = vec![t.clone(), "--out".to_string(), out.clone()];
            if command == "serve" {
                args.truncate(1);
            }
            args.extend(extra.iter().map(|a| a.to_string()));
            match command {
                "metrics" => metrics(&args),
                "communities" => communities(&args),
                _ => crate::serve::serve(&args),
            }
        };
        for (command, extra) in [
            ("metrics", ["--strid", "3"]),
            ("metrics", ["--output", "d"]),
            ("metrics", ["--engine", "batch"]),
            ("communities", ["--engine", "batch"]),
            ("communities", ["--workers", "2"]),
            ("serve", ["--engine", "batch"]),
            ("serve", ["--trace", "t.events"]),
        ] {
            let err = run(command, &extra).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{command} {extra:?}: {err}");
            let msg = err.to_string();
            assert!(msg.contains(extra[0]), "{msg}");
            assert!(msg.contains(&format!("`osn {command}`")), "{msg}");
        }
        let err = run("serve", &["--no-response-cache"]).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(!dir.join("d").exists() && !dir.join("out").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn usage_lists_exactly_each_commands_flags() {
        for (command, values, switches) in COMMAND_FLAGS {
            let mut listed: Vec<&str> = Vec::new();
            let mut inside = false;
            for line in USAGE.lines() {
                if let Some(rest) = line.strip_prefix("  osn ") {
                    inside = rest.split_whitespace().next() == Some(*command);
                } else if !line.starts_with("      ") {
                    inside = false;
                }
                if inside {
                    listed.extend(
                        line.split(['[', ']', ' '])
                            .filter_map(|w| w.strip_prefix("--")),
                    );
                }
            }
            let mut expected: Vec<&str> = values
                .split_whitespace()
                .chain(switches.split_whitespace())
                .collect();
            expected.sort_unstable();
            listed.sort_unstable();
            listed.dedup();
            assert_eq!(listed, expected, "USAGE for `osn {command}`");
        }
    }

    #[test]
    fn flags_reject_missing_value() {
        for args in [&["--seed"][..], &["--out", "--no-merge"]] {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let err = Flags::parse("generate", &args).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)));
            assert_eq!(err.exit_code(), 2);
        }
    }

    #[test]
    fn flags_reject_bad_parse() {
        let args: Vec<String> = ["--seed", "abc"].iter().map(|s| s.to_string()).collect();
        let f = Flags::parse("generate", &args).unwrap();
        assert!(f.get_parsed::<u64>("seed").is_err());
    }

    #[test]
    fn generate_and_inspect_roundtrip() {
        let dir = std::env::temp_dir().join("osn_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.events");
        let args: Vec<String> = [
            "--scale",
            "tiny",
            "--seed",
            "5",
            "--out",
            trace.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        generate(&args).unwrap();
        assert!(trace.exists());
        // v2 header present on disk
        let head = std::fs::read_to_string(&trace).unwrap();
        assert!(head.starts_with("#%osn-events v2"));
        let args: Vec<String> = vec![trace.to_str().unwrap().to_string()];
        inspect(&args).unwrap();
        verify(&args).unwrap();
        // --json keeps the same exit-code contract on a clean trace.
        verify(&[args[0].clone(), "--json".into()]).unwrap();
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn generate_creates_missing_parent_dirs() {
        let dir = std::env::temp_dir().join("osn_cli_parents/deep/nested");
        let _ = std::fs::remove_dir_all(std::env::temp_dir().join("osn_cli_parents"));
        let trace = dir.join("t.events");
        generate(&[
            "--scale".into(),
            "tiny".into(),
            "--out".into(),
            trace.to_str().unwrap().into(),
        ])
        .unwrap();
        assert!(trace.exists());
        std::fs::remove_dir_all(std::env::temp_dir().join("osn_cli_parents")).ok();
    }

    #[test]
    fn generate_rejects_merge_beyond_days() {
        let args: Vec<String> = ["--scale", "tiny", "--days", "40", "--out", "/tmp/x.events"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = generate(&args).unwrap_err();
        assert!(err.to_string().contains("merge day"), "{err}");
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn verify_flags_corruption_with_exit_code_3() {
        let dir = std::env::temp_dir().join("osn_cli_verify");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.events");
        generate(&[
            "--scale".into(),
            "tiny".into(),
            "--out".into(),
            trace.to_str().unwrap().into(),
        ])
        .unwrap();
        // Flip a byte in the middle of the payload.
        let mut bytes = std::fs::read(&trace).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&trace, &bytes).unwrap();
        let args = vec![trace.to_str().unwrap().to_string()];
        // Strict: typed parse error.
        let err = verify(&args).unwrap_err();
        assert!(
            matches!(err, CliError::Trace { .. }),
            "strict verify should fail on corruption: {err}"
        );
        // Skip: recovers, but reports the problems and exits 3.
        let err = verify(&[args[0].clone(), "--policy".into(), "skip".into()]).unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
        // --json keeps the exit-code contract on a dirty trace too.
        let err = verify(&[
            args[0].clone(),
            "--policy".into(),
            "skip".into(),
            "--json".into(),
        ])
        .unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_allow_truncated_tail_accepts_growing_file_not_corruption() {
        let dir = std::env::temp_dir().join("osn_cli_tailpend");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.events");
        generate(&[
            "--scale".into(),
            "tiny".into(),
            "--out".into(),
            trace.to_str().unwrap().into(),
        ])
        .unwrap();
        // A writer mid-append: cut the file inside the last chunk.
        let bytes = std::fs::read(&trace).unwrap();
        std::fs::write(&trace, &bytes[..bytes.len() - 200]).unwrap();
        let t = trace.to_str().unwrap().to_string();
        // Without the flag the pending tail is a problem (exit 3 under
        // skip; a parse error under the strict default).
        let err = verify(&[t.clone(), "--policy".into(), "skip".into()]).unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
        // With the flag it's an acceptable in-progress file.
        verify(&[t.clone(), "--allow-truncated-tail".into()]).unwrap();
        verify(&[t.clone(), "--allow-truncated-tail".into(), "--json".into()]).unwrap();
        // Mid-file corruption is NOT excused by the flag.
        let mut bytes = std::fs::read(&trace).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&trace, &bytes).unwrap();
        let err = verify(&[t.clone(), "--allow-truncated-tail".into()]).unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compare_distinguishes_configs_not_seeds() {
        let dir = std::env::temp_dir().join("osn_cli_cmp");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.events");
        let b = dir.join("b.events");
        for (path, seed) in [(&a, "1"), (&b, "2")] {
            generate(&[
                "--scale".into(),
                "tiny".into(),
                "--seed".into(),
                seed.into(),
                "--out".into(),
                path.to_str().unwrap().into(),
            ])
            .unwrap();
        }
        compare(&[a.to_str().unwrap().into(), b.to_str().unwrap().into()]).unwrap();
        assert!(compare(&[a.to_str().unwrap().into()]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analysis_commands_run_on_generated_trace() {
        let dir = std::env::temp_dir().join("osn_cli_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.events");
        let out = dir.join("out");
        generate(&[
            "--scale".into(),
            "tiny".into(),
            "--out".into(),
            trace.to_str().unwrap().into(),
        ])
        .unwrap();
        let t = trace.to_str().unwrap().to_string();
        let o = out.to_str().unwrap().to_string();
        metrics(&[
            t.clone(),
            "--stride".into(),
            "30".into(),
            "--out".into(),
            o.clone(),
        ])
        .unwrap();
        communities(&[
            t.clone(),
            "--stride".into(),
            "30".into(),
            "--out".into(),
            o.clone(),
        ])
        .unwrap();
        alpha(&[
            t.clone(),
            "--window".into(),
            "2000".into(),
            "--out".into(),
            o.clone(),
        ])
        .unwrap();
        assert!(out.join("metrics.csv").exists());
        assert!(out.join("communities.csv").exists());
        assert!(out.join("community_events.csv").exists());
        let events = std::fs::read_to_string(out.join("community_events.csv")).unwrap();
        assert!(events.starts_with("day,event,community,size,partner"));
        assert!(out.join("alpha.csv").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn telemetry_flag_writes_snapshot_with_pipeline_counters() {
        let dir = std::env::temp_dir().join("osn_cli_telemetry");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.events");
        generate(&[
            "--scale".into(),
            "tiny".into(),
            "--out".into(),
            trace.to_str().unwrap().into(),
        ])
        .unwrap();
        let snap = dir.join("telemetry.json");
        metrics(&[
            trace.to_str().unwrap().into(),
            "--stride".into(),
            "30".into(),
            "--out".into(),
            dir.join("out").to_str().unwrap().into(),
            "--telemetry".into(),
            snap.to_str().unwrap().into(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&snap).unwrap();
        let json = osn_obs::json::parse(text.trim()).unwrap();
        let counters = json.get("counters").expect("counters section");
        let events = counters
            .get("ingest.events")
            .and_then(|v| v.as_f64())
            .expect("ingest.events counter");
        assert!(events > 0.0, "ingest.events must be non-zero: {text}");
        let task_us = json
            .get("histograms")
            .and_then(|h| h.get("supervisor.task_us"))
            .expect("supervisor.task_us histogram");
        let count = task_us.get("count").and_then(|v| v.as_f64()).unwrap();
        assert!(count > 0.0, "supervisor.task_us must have samples: {text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_with_checkpoint_dir_resumes() {
        let dir = std::env::temp_dir().join("osn_cli_ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.events");
        generate(&[
            "--scale".into(),
            "tiny".into(),
            "--out".into(),
            trace.to_str().unwrap().into(),
        ])
        .unwrap();
        let t = trace.to_str().unwrap().to_string();
        let o = dir.join("out").to_str().unwrap().to_string();
        let c = dir.join("ckpt").to_str().unwrap().to_string();
        let args = vec![
            t.clone(),
            "--stride".into(),
            "40".into(),
            "--out".into(),
            o.clone(),
            "--checkpoint".into(),
            c.clone(),
        ];
        metrics(&args).unwrap();
        let first = std::fs::read(dir.join("out/metrics.csv")).unwrap();
        // Rerun: everything cached, output byte-identical.
        metrics(&args).unwrap();
        let second = std::fs::read(dir.join("out/metrics.csv")).unwrap();
        assert_eq!(first, second);
        assert!(dir.join("ckpt/rows.txt").exists());
        assert!(dir.join("ckpt/meta.txt").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
