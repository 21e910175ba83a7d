//! `osnbench --workload <analyze|ingest|serve-read|write> --seed N
//! --seconds S --trace <0|1>`
//!
//! Runs one workload and prints two JSON lines on stdout: a detail line
//! (sample counts, resolved worker counts, digests, every check that
//! failed), then the result line `{"correct","attempted","failed",
//! "metrics"}` with the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). Exits 1 when any output check
//! fails, 2 on bad usage.

use osnbench::{analyze, ingest, json_str, serve_read, write, Outcome};
use std::process::ExitCode;

/// Expected output digests per workload and seed (`digests.txt`).
const DIGESTS: &str = include_str!("../digests.txt");

const WORKLOADS: [&str; 4] = ["analyze", "ingest", "serve-read", "write"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {}", args.seconds));
    }
    Ok(args)
}

/// The committed digest for `(workload, seed)`, if that seed is listed.
fn expected_digest(workload: &str, seed: u64) -> Option<u64> {
    DIGESTS
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            Some((f.next()?, f.next()?.parse::<u64>().ok()?, f.next()?))
        })
        .find(|&(w, s, _)| w == workload && s == seed)
        .and_then(|(_, _, d)| u64::from_str_radix(d, 16).ok())
}

/// The commit the benchmark was built from, when the checkout is a git
/// work tree.
fn git_rev() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r)).unwrap_or_default(),
        None => head,
    };
    match rev.trim() {
        "" => "unknown".to_string(),
        r => r.to_string(),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "usage: osnbench --workload <{}> --seed N --seconds S --trace <0|1>",
                WORKLOADS.join("|")
            );
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // Both change what the program does under measurement: a pinned
    // worker count or injected faults would make runs incomparable.
    for var in ["OSN_WORKERS", "OSN_CHAOS"] {
        if std::env::var_os(var).is_some() {
            eprintln!("error: {var} is set; unset it to benchmark the defaults");
            return ExitCode::from(2);
        }
    }

    let (seed, secs) = (args.seed, args.seconds);
    let mut out: Outcome = match args.workload.as_str() {
        "analyze" => analyze::run(&analyze::trace(seed), secs, args.trace),
        "ingest" => ingest::run(&ingest::trace(seed), secs, args.trace),
        "serve-read" => serve_read::run(&serve_read::trace(seed), secs, args.trace),
        "write" => write::run(&write::trace(seed), secs, args.trace),
        other => unreachable!("workload {other} was validated"),
    };

    let expected = expected_digest(&args.workload, seed);
    match (out.digest, expected) {
        (Some(got), Some(want)) if got != want => out.problem(format!(
            "output digest {got:016x} != committed {want:016x} for seed {seed}"
        )),
        (None, _) => out.problem("no output digest"),
        _ => {}
    }
    if !args.trace {
        match osnbench::peak_rss_mb() {
            Some(mb) => out.set("peak_rss_mb", mb),
            None => out.problem("VmHWM unavailable"),
        }
    }
    let (result, correct) = osnbench::result_line(&mut out, args.trace);

    let mut detail = vec![
        ("workload".to_string(), json_str(&args.workload)),
        ("seed".to_string(), seed.to_string()),
        ("seconds".to_string(), secs.to_string()),
        ("trace".to_string(), args.trace.to_string()),
        ("nproc".to_string(), osnbench::nproc().to_string()),
        (
            "analysis_workers".to_string(),
            osn_metrics::parallel::default_workers().to_string(),
        ),
        ("git_rev".to_string(), json_str(&git_rev())),
        (
            "digest".to_string(),
            json_str(&out.digest.map_or(String::new(), |d| format!("{d:016x}"))),
        ),
        (
            "committed_digest".to_string(),
            expected.map_or("null".to_string(), |d| json_str(&format!("{d:016x}"))),
        ),
        (
            "problems".to_string(),
            format!(
                "[{}]",
                out.problems
                    .iter()
                    .map(|p| json_str(p))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
    ];
    detail.append(&mut out.details);
    println!(
        "{{{}}}",
        detail
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k)))
            .collect::<Vec<_>>()
            .join(",")
    );
    for p in &out.problems {
        eprintln!("check failed: {p}");
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
