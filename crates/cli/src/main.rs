//! `osn` — command-line interface to the multiscale-osn workspace.
//!
//! ```text
//! osn generate [--scale tiny|small|paper] [--seed N] [--nodes N] [--days D]
//!              [--no-merge] --out trace.events
//! osn inspect  trace.events
//! osn verify   trace.events [--policy strict|skip|repair] [--allow-truncated-tail]
//! osn metrics  trace.events [--stride D] [--seed N] [--out DIR]
//!              [--checkpoint DIR] [--workers N] [--retries N]
//!              [--task-timeout SECS] [--strict]
//! osn communities trace.events [--delta X] [--stride D] [--min-size K]
//!              [--seed N] [--out DIR] [--checkpoint DIR] [--retries N]
//!              [--task-timeout SECS] [--strict]
//! osn alpha    trace.events [--window E] [--out DIR]
//! osn serve    trace.events [--addr HOST] [--port P] [--workers N] ...
//! ```
//!
//! `osn help` prints every command's full flag set; any flag outside it
//! is a usage error (exit 2).
//!
//! Traces are the checksummed v2 event format of `osn_graph::io` (v1 files
//! remain readable), so anything generated here can be re-analysed later or
//! consumed by external tools.
//!
//! The analysis commands run each snapshot task under a supervisor
//! (`osn_metrics::supervisor`): a panic, deadline overrun, or exhausted
//! retry budget quarantines that snapshot while the run continues, and
//! `<out>/run_manifest.csv` records what happened to every task.
//!
//! `osn serve` turns a verified trace into a long-running snapshot query
//! daemon (std-only HTTP/1.1) with bounded queues, load shedding, and a
//! graceful drain on SIGTERM/SIGINT; see `osn_server` for the pipeline.
//! It exposes its live counters and latency histograms at `/v1/stats`
//! (JSON) and `/metrics` (Prometheus text). With `--follow` it tails a
//! trace that is still being written, publishing each completed day
//! behind an atomic snapshot swap and reporting ingest lag and health
//! at `/v1/head`; `--checkpoint DIR` makes the live head crash-resumable
//! (see `osn_core::live`).
//!
//! Every command accepts `--telemetry FILE` (env `OSN_TELEMETRY`) to
//! enable the `osn_obs` registry and write a JSON snapshot of all
//! counters/gauges/histograms to FILE on exit, whatever the exit path.
//!
//! Exit codes: `0` success, `1` runtime failure (including degraded runs
//! promoted by `--strict`), `2` usage error, `3` trace failed
//! `osn verify`, `4` degraded run (some tasks quarantined, all other
//! outputs produced) or a drain that abandoned in-flight requests.

mod commands;
mod error;
mod serve;

use error::CliError;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{}", commands::USAGE);
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "generate" => commands::generate(rest),
        "inspect" => commands::inspect(rest),
        "verify" => commands::verify(rest),
        "metrics" => commands::metrics(rest),
        "communities" => commands::communities(rest),
        "alpha" => commands::alpha(rest),
        "compare" => commands::compare(rest),
        "serve" => serve::serve(rest),
        "help" | "--help" | "-h" => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command '{other}'\n{}",
            commands::USAGE
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
