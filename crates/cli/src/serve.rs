//! `osn serve` — the overload-tolerant snapshot query daemon.
//!
//! Startup is a strict pipeline: **preflight** (the trace must pass the
//! same verification as `osn verify`, reported as one JSON line),
//! **materialise** (build the shared `SnapshotQuery` engine — the same
//! code path as `osn metrics` / `osn communities`, so served bytes are
//! identical to batch output), **serve** (bounded pipeline with load
//! shedding), **drain** (SIGTERM/SIGINT stop the accept loop and
//! in-flight work gets `--drain-timeout` seconds to finish).
//!
//! With `--follow` the materialise step moves onto a supervised ingest
//! head (`osn_core::live`): the daemon comes up immediately, tails the
//! growing trace, publishes each newly complete day behind an atomic
//! snapshot swap, and reports lag + health at `/v1/head`. The preflight
//! then tolerates a pending tail (`osn verify --allow-truncated-tail`
//! semantics) — mid-file corruption still refuses to start. With
//! `--checkpoint DIR` the head persists a replay checkpoint at every
//! publish, so a `kill -9` + restart resumes instead of recomputing
//! from scratch and converges on batch-identical state.
//!
//! Exit codes: `0` clean shutdown, `2` usage error, `3` trace failed
//! preflight (or the followed stream turned out corrupt), `4` drain
//! deadline expired with requests still in flight (degraded drain),
//! `1` anything else.

use crate::commands::{Flags, TelemetryGuard};
use crate::error::CliError;
use osn_core::communities::CommunityAnalysisConfig;
use osn_core::live::{run_follow, LiveError, LiveHeadConfig, LiveQuery};
use osn_core::network::MetricSeriesConfig;
use osn_core::query::SnapshotQuery;
use osn_graph::io::{read_log_with_policy, RecoveryPolicy};
use osn_graph::wal::{wal_dir_for, Wal, WalError, WalOptions};
use osn_metrics::supervisor::RunPolicy;
use osn_server::{Server, ServerConfig, WritePlaneConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Set from the signal handler; polled by the serve loop.
    pub static SIGNALLED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_sig: i32) {
        // Only async-signal-safe work here: one atomic store.
        SIGNALLED.store(true, Ordering::SeqCst);
    }

    /// Route SIGINT and SIGTERM to the flag. Uses libc's `signal`
    /// directly (std already links libc) to stay dependency-free.
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as extern "C" fn(i32) as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

#[cfg(not(unix))]
mod signals {
    use std::sync::atomic::AtomicBool;

    pub static SIGNALLED: AtomicBool = AtomicBool::new(false);

    pub fn install() {}
}

fn duration_flag(flags: &Flags, key: &str, default: Duration) -> Result<Duration, CliError> {
    match flags.get_parsed::<f64>(key)? {
        None => Ok(default),
        Some(secs) if secs > 0.0 && secs.is_finite() => Ok(Duration::from_secs_f64(secs)),
        Some(secs) => Err(CliError::Usage(format!(
            "--{key} must be a positive number of seconds, got {secs}"
        ))),
    }
}

/// Verify the trace the way `osn verify --policy skip --json` does, print
/// the report line, and refuse to come up on anything unclean. A daemon
/// that would serve answers derived from a corrupt trace should die here,
/// with the same exit-3 contract as `osn verify`. (Skip rather than
/// Strict so recoverable corruption is *reported* instead of surfacing as
/// an opaque parse error — the daemon still refuses to start either way.)
fn preflight(path: &str, allow_tail: bool) -> Result<osn_graph::EventLog, CliError> {
    let file = std::fs::File::open(path).map_err(|e| CliError::io(format!("open {path}"), e))?;
    let policy = RecoveryPolicy::Skip {
        max_errors: usize::MAX,
    };
    let (log, report) =
        read_log_with_policy(std::io::BufReader::new(file), &policy).map_err(|e| {
            CliError::Trace {
                path: PathBuf::from(path),
                source: e,
            }
        })?;
    println!("preflight: {}", report.to_json());
    if report.is_clean() || (allow_tail && report.tail_pending()) {
        Ok(log)
    } else {
        Err(CliError::Corrupt {
            path: PathBuf::from(path),
            problems: report.problem_count(),
        })
    }
}

/// Map a follow-head failure onto the CLI's exit-code contract: a
/// corrupt stream is the same verdict preflight would have given
/// (exit 3); checkpoint/I/O trouble is a runtime failure (exit 1).
fn head_error(path: &str, err: LiveError) -> CliError {
    match err {
        LiveError::Tail(e) => {
            eprintln!("error: live ingest failed: {e}");
            CliError::Corrupt {
                path: PathBuf::from(path),
                problems: 1,
            }
        }
        LiveError::Io(e) => CliError::io("live ingest head", e),
        LiveError::Checkpoint(reason) => {
            CliError::io("head checkpoint", std::io::Error::other(reason))
        }
    }
}

/// Map a WAL open failure onto the CLI's exit-code contract: corruption
/// the recovery machinery refuses to repair is the preflight verdict
/// (exit 3); anything else is an I/O failure (exit 1).
fn wal_error(path: &str, err: WalError) -> CliError {
    match err {
        WalError::Corrupt { .. } => {
            eprintln!("error: write-ahead log is corrupt: {err}");
            CliError::Corrupt {
                path: PathBuf::from(path),
                problems: 1,
            }
        }
        WalError::Io(e) => CliError::io("open write-ahead log", e),
        other => CliError::io(
            "open write-ahead log",
            std::io::Error::other(other.to_string()),
        ),
    }
}

/// Parse the `--accept-writes` flag family into a [`WritePlaneConfig`],
/// opening (and, after a crash, recovering) the WAL. Must run before
/// preflight: recovery may repair the trace's tail and unseal it.
fn write_plane(
    flags: &Flags,
    path: &str,
) -> Result<Option<(Arc<Wal>, WritePlaneConfig)>, CliError> {
    if !flags.has("accept-writes") {
        return Ok(None);
    }
    if !flags.has("follow") {
        return Err(CliError::Usage(
            "--accept-writes requires --follow (accepted writes become visible \
             through the live ingest head)"
                .to_string(),
        ));
    }
    let mut tokens: Vec<String> = flags
        .get_all("token")
        .iter()
        .map(|t| t.to_string())
        .collect();
    if let Ok(env) = std::env::var("OSN_WRITE_TOKENS") {
        tokens.extend(
            env.split(',')
                .map(str::trim)
                .filter(|t| !t.is_empty())
                .map(str::to_string),
        );
    }
    if tokens.is_empty() {
        return Err(CliError::Usage(
            "--accept-writes needs at least one --token (or OSN_WRITE_TOKENS)".to_string(),
        ));
    }
    let dir = flags
        .get("wal")
        .map(PathBuf::from)
        .unwrap_or_else(|| wal_dir_for(Path::new(path)));
    let opts = WalOptions {
        fsync: !flags.has("no-wal-fsync"),
        ..WalOptions::default()
    };
    let (wal, report) = Wal::open(Path::new(path), &dir, opts).map_err(|e| wal_error(path, e))?;
    println!("wal: {} ({})", dir.display(), report.summary());
    let wal = Arc::new(wal);
    let mut cfg = WritePlaneConfig::new(Arc::clone(&wal), tokens);
    if let Some(rate) = flags.get_parsed::<f64>("write-rate")? {
        if !(rate > 0.0 && rate.is_finite()) {
            return Err(CliError::Usage(format!(
                "--write-rate must be a positive number, got {rate}"
            )));
        }
        cfg.rate_limit = rate;
        cfg.rate_burst = rate * 2.0;
    }
    if let Some(burst) = flags.get_parsed::<f64>("write-burst")? {
        cfg.rate_burst = burst;
    }
    if let Some(n) = flags.get_parsed::<u64>("max-body-bytes")? {
        cfg.max_body_bytes = n;
    }
    if let Some(n) = flags.get_parsed::<u64>("max-write-lag")? {
        cfg.max_lag_events = n;
    }
    if let Some(n) = flags.get_parsed::<u64>("max-sync-queue")? {
        cfg.max_sync_queue = n;
    }
    Ok(Some((wal, cfg)))
}

/// `osn serve`
pub fn serve(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse("serve", args)?;
    // Constructed before preflight so ingest counters land in the
    // snapshot, and dropped on *every* return — the clean-drain Ok, the
    // exit-4 `CliError::Drain` when the deadline abandons in-flight
    // work, and preflight failures alike all flush telemetry.
    let _telemetry = TelemetryGuard::from_flags(&flags);
    let path = flags.trace_arg("serve")?.to_string();

    let host = flags.get("addr").unwrap_or("127.0.0.1");
    let port = flags.get_parsed::<u16>("port")?.unwrap_or(0);

    // Analysis knobs mirror the batch commands (same defaults), so a
    // batch run with the same flags produces byte-identical CSV.
    let query_builder = SnapshotQuery::builder()
        .metrics(MetricSeriesConfig {
            stride: flags.get_parsed::<u32>("stride")?.unwrap_or(7),
            seed: flags.get_parsed::<u64>("seed")?.unwrap_or(0),
            workers: flags.get_parsed::<usize>("build-workers")?.unwrap_or(0),
            ..Default::default()
        })
        .communities(CommunityAnalysisConfig {
            stride: flags.get_parsed::<u32>("community-stride")?.unwrap_or(7),
            delta: flags.get_parsed::<f64>("delta")?.unwrap_or(0.04),
            min_size: flags.get_parsed::<u32>("min-size")?.unwrap_or(10),
            seed: flags.get_parsed::<u64>("seed")?.unwrap_or(0),
            ..Default::default()
        });

    let chaos = match std::env::var("OSN_CHAOS") {
        Ok(spec) if !spec.trim().is_empty() => Some(
            osn_metrics::supervisor::ChaosTaskPlan::from_spec(spec.trim())
                .map_err(|e| CliError::Usage(format!("bad OSN_CHAOS spec: {e}")))?,
        ),
        _ => None,
    };
    // Opening the WAL must precede preflight: recovery re-applies any
    // durable chunks the trace is missing and unseals a footered trace
    // so the live head can tail it.
    let write = write_plane(&flags, &path)?;
    let wal = write.as_ref().map(|(w, _)| Arc::clone(w));
    let server_cfg = ServerConfig {
        addr: format!("{host}:{port}"),
        workers: flags.get_parsed::<usize>("workers")?.unwrap_or(0),
        queue_depth: flags.get_parsed::<usize>("queue-depth")?.unwrap_or(64),
        request_timeout: duration_flag(&flags, "request-timeout", Duration::from_secs(5))?,
        header_timeout: duration_flag(&flags, "header-timeout", Duration::from_secs(2))?,
        drain_timeout: duration_flag(&flags, "drain-timeout", Duration::from_secs(5))?,
        retries: flags.get_parsed::<u32>("retries")?.unwrap_or(0),
        chaos,
        write: write.map(|(_, cfg)| cfg),
        // 0 = one shard per core (capped); the default single shard is
        // the pre-sharding layout.
        shards: flags.get_parsed::<usize>("shards")?.unwrap_or(1),
        keepalive_timeout: duration_flag(&flags, "keepalive-timeout", Duration::from_secs(5))?,
        ..ServerConfig::default()
    };

    let follow = flags.has("follow");
    let log = preflight(&path, follow)?;

    signals::install();
    let (server, head) = if follow {
        // The head owns materialisation: the daemon comes up with nothing
        // published (data endpoints degrade with 503 + Retry-After) and
        // catches up as complete days are committed.
        let head_cfg = LiveHeadConfig {
            policy: RecoveryPolicy::Skip {
                max_errors: usize::MAX,
            },
            query: query_builder.config().clone(),
            checkpoint_dir: flags.get("checkpoint").map(PathBuf::from),
            poll_interval: duration_flag(&flags, "poll-interval", Duration::from_millis(25))?,
            watchdog: duration_flag(&flags, "watchdog", Duration::from_secs(30))?,
            run_policy: RunPolicy {
                retries: flags.get_parsed::<u32>("retries")?.unwrap_or(0),
                ..RunPolicy::default()
            },
            ..LiveHeadConfig::new(&path)
        };
        if let Some(dir) = &head_cfg.checkpoint_dir {
            println!("following {path} (checkpoint: {})", dir.display());
        } else {
            println!("following {path} (no checkpoint — restart recomputes from scratch)");
        }
        let live = LiveQuery::for_follow();
        let server = Server::start_live(server_cfg, live.clone())
            .map_err(|e| CliError::io("bind server socket", e))?;
        let head = std::thread::Builder::new()
            .name("osn-head".to_string())
            .spawn(move || run_follow(&head_cfg, &live, &signals::SIGNALLED))
            .map_err(|e| CliError::io("spawn ingest head", e))?;
        (server, Some(head))
    } else {
        let started = Instant::now();
        let query = Arc::new(query_builder.build(&log));
        println!(
            "materialised {} metric day(s), {} community day(s) in {:.1?}",
            query.metric_days().len(),
            query.community_days().len(),
            started.elapsed()
        );
        let server =
            Server::start(server_cfg, query).map_err(|e| CliError::io("bind server socket", e))?;
        (server, None)
    };
    // Machine-parseable: tests and scripts read the port from this line.
    println!("listening on http://{}", server.local_addr());

    while !signals::SIGNALLED.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(25));
    }
    eprintln!("signal received: draining");
    server.request_shutdown();
    let stats_before = server.stats();
    let report = server.join();
    eprintln!(
        "served {} ok / {} client-error / {} server-error, shed {}, panics {}",
        stats_before.ok,
        stats_before.client_error,
        stats_before.server_error,
        stats_before.shed,
        stats_before.panicked,
    );
    // The head polls the same shutdown flag, so by now it has stopped
    // tailing; its last checkpoint was already flushed at publish time.
    let head_outcome = head.map(|h| h.join());
    match head_outcome {
        None => {}
        Some(Ok(Ok(r))) => eprintln!(
            "ingest head: {} event(s) committed, {} publish(es), last day {}, {}",
            r.committed_events,
            r.publishes,
            r.published_day
                .map(|d| d.to_string())
                .unwrap_or_else(|| "-".into()),
            if r.completed {
                "stream complete"
            } else {
                "drained mid-stream"
            }
        ),
        Some(Ok(Err(e))) => return Err(head_error(&path, e)),
        Some(Err(_)) => {
            return Err(CliError::io(
                "ingest head",
                std::io::Error::other("head thread panicked"),
            ))
        }
    }
    // Seal last, after the head has stopped tailing: fsync the active
    // segment, flush every accepted batch into the trace, and write the
    // v2 footer so the trace is a strict-clean batch log again. A crash
    // before this point is fine — the next --accept-writes open replays
    // the WAL — but a *clean* shutdown that cannot seal is a durability
    // failure worth a non-zero exit.
    if let Some(wal) = &wal {
        wal.seal().map_err(|e| {
            CliError::io("seal write-ahead log", std::io::Error::other(e.to_string()))
        })?;
        let s = wal.stats();
        eprintln!(
            "wal sealed: {} append(s) ({} duplicate(s) deduplicated), {} fsync(s), last seq {}",
            s.appends, s.duplicates, s.fsyncs, s.last_seq
        );
    }
    if report.clean() {
        println!("drain complete");
        Ok(())
    } else {
        Err(CliError::Drain {
            aborted: report.aborted,
        })
    }
}
