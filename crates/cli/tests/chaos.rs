//! End-to-end degraded-run tests of the `osn` binary: a seeded injected
//! failure in exactly one snapshot task must leave the run completing,
//! every other output produced, the quarantined task recorded in
//! `run_manifest.csv`, and the documented exit codes (4 degraded,
//! 1 with `--strict`).

use std::path::{Path, PathBuf};
use std::process::Command;

fn osn() -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_osn"));
    // Never inherit chaos/worker settings from the test environment.
    c.env_remove("OSN_CHAOS").env_remove("OSN_WORKERS");
    c
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("osn_chaos_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn generate(trace: &Path) {
    let status = osn()
        .args(["generate", "--scale", "tiny", "--seed", "9", "--out"])
        .arg(trace)
        .status()
        .unwrap();
    assert!(status.success());
}

fn metrics_cmd(trace: &Path, out: &Path, ckpt: Option<&Path>) -> Command {
    let mut c = osn();
    c.args(["metrics"])
        .arg(trace)
        .args(["--stride", "15", "--out"])
        .arg(out);
    if let Some(ckpt) = ckpt {
        c.arg("--checkpoint").arg(ckpt);
    }
    c
}

#[test]
fn injected_panic_degrades_but_completes_metrics() {
    let dir = scratch("metrics");
    let trace = dir.join("t.events");
    generate(&trace);

    // Clean reference run: exit 0, manifest records the command as ok.
    let out_ref = dir.join("ref_out");
    let status = metrics_cmd(&trace, &out_ref, None).status().unwrap();
    assert!(status.success());
    let manifest = std::fs::read_to_string(out_ref.join("run_manifest.csv")).unwrap();
    assert!(manifest.starts_with("task,status,attempts,duration_ms,reason"));
    assert!(manifest.contains("metrics,ok,"), "{manifest}");

    // Poison exactly one snapshot task (day 31 with stride 15). The run
    // must still complete: every other output produced, exit code 4.
    let out = dir.join("out");
    let res = metrics_cmd(&trace, &out, None)
        .env("OSN_CHAOS", "panic@31")
        .output()
        .unwrap();
    assert_eq!(
        res.status.code(),
        Some(4),
        "stderr: {}",
        String::from_utf8_lossy(&res.stderr)
    );
    assert!(out.join("metrics.csv").exists());
    assert!(out.join("growth.csv").exists());
    let manifest = std::fs::read_to_string(out.join("run_manifest.csv")).unwrap();
    let day_row = manifest
        .lines()
        .find(|l| l.starts_with("metrics/day-31,"))
        .unwrap_or_else(|| panic!("no quarantine row for day 31 in manifest:\n{manifest}"));
    assert!(day_row.contains("quarantined"), "{day_row}");
    assert!(day_row.contains("panicked"), "{day_row}");
    assert!(
        day_row.contains("injected panic for task key 31"),
        "{day_row}"
    );
    assert!(manifest.contains("metrics,degraded,"), "{manifest}");
    let stderr = String::from_utf8_lossy(&res.stderr);
    assert!(stderr.contains("quarantined day 31"), "{stderr}");
    assert!(stderr.contains("run degraded"), "{stderr}");

    // The degraded series must equal the clean one minus the poisoned
    // day's row — the quarantined day is excluded, never blended.
    let clean = std::fs::read_to_string(out_ref.join("metrics.csv")).unwrap();
    let degraded = std::fs::read_to_string(out.join("metrics.csv")).unwrap();
    let expected: Vec<&str> = clean.lines().filter(|l| !l.starts_with("31,")).collect();
    assert_eq!(degraded.lines().collect::<Vec<_>>(), expected);

    // --strict promotes degraded to a hard failure (exit 1).
    let strict = metrics_cmd(&trace, &dir.join("strict_out"), None)
        .arg("--strict")
        .env("OSN_CHAOS", "panic@31")
        .output()
        .unwrap();
    assert_eq!(strict.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&strict.stderr).contains("--strict"));

    // A retry budget heals a first-attempt transient: exit 0, no
    // quarantine rows.
    let healed = metrics_cmd(&trace, &dir.join("healed_out"), None)
        .args(["--retries", "1"])
        .env("OSN_CHAOS", "transient@31#1")
        .output()
        .unwrap();
    assert_eq!(
        healed.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&healed.stderr)
    );
    let manifest = std::fs::read_to_string(dir.join("healed_out/run_manifest.csv")).unwrap();
    assert!(manifest.contains("metrics,ok,"), "{manifest}");
    assert!(!manifest.contains("quarantined"), "{manifest}");
    assert_eq!(
        std::fs::read_to_string(dir.join("healed_out/metrics.csv")).unwrap(),
        clean
    );

    // A bad chaos spec is a usage error, not a panic.
    let bad = metrics_cmd(&trace, &dir.join("bad_out"), None)
        .env("OSN_CHAOS", "explode@oops")
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(2));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpointed_quarantine_persists_across_resume() {
    let dir = scratch("resume");
    let trace = dir.join("t.events");
    generate(&trace);

    // Degraded checkpointed run: day 31 quarantined, exit 4.
    let out = dir.join("out");
    let ckpt = dir.join("ckpt");
    let res = metrics_cmd(&trace, &out, Some(&ckpt))
        .env("OSN_CHAOS", "panic@31")
        .output()
        .unwrap();
    assert_eq!(
        res.status.code(),
        Some(4),
        "stderr: {}",
        String::from_utf8_lossy(&res.stderr)
    );
    assert!(ckpt.join("quarantine.txt").exists());
    let first = std::fs::read(out.join("metrics.csv")).unwrap();

    // Rerun against the same checkpoint with chaos disabled: the
    // quarantined day stays quarantined (it is not silently retried), so
    // the run is still degraded and byte-identical.
    let res = metrics_cmd(&trace, &out, Some(&ckpt)).output().unwrap();
    assert_eq!(res.status.code(), Some(4));
    assert_eq!(std::fs::read(out.join("metrics.csv")).unwrap(), first);
    let manifest = std::fs::read_to_string(out.join("run_manifest.csv")).unwrap();
    assert!(
        manifest.contains("metrics/day-31,quarantined"),
        "{manifest}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn communities_checkpointed_chaos_degrades_but_completes() {
    let dir = scratch("comm");
    let trace = dir.join("t.events");
    generate(&trace);

    let out = dir.join("out");
    let ckpt = dir.join("ckpt");
    let res = osn()
        .args(["communities"])
        .arg(&trace)
        .args(["--stride", "30", "--min-size", "8", "--out"])
        .arg(&out)
        .arg("--checkpoint")
        .arg(&ckpt)
        .env("OSN_CHAOS", "panic@80")
        .output()
        .unwrap();
    assert_eq!(
        res.status.code(),
        Some(4),
        "stderr: {}",
        String::from_utf8_lossy(&res.stderr)
    );
    assert!(out.join("communities.csv").exists());
    assert!(out.join("community_events.csv").exists());
    let manifest = std::fs::read_to_string(out.join("run_manifest.csv")).unwrap();
    assert!(
        manifest.contains("communities/day-80,quarantined"),
        "{manifest}"
    );
    assert!(manifest.contains("communities,degraded,"), "{manifest}");
    // The quarantined snapshot is excluded from the series.
    let csv = std::fs::read_to_string(out.join("communities.csv")).unwrap();
    assert!(!csv.lines().any(|l| l.starts_with("80,")), "{csv}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn communities_chaos_without_checkpoint_matches_checkpointed_run() {
    let dir = scratch("comm_direct");
    let trace = dir.join("t.events");
    generate(&trace);

    let run = |out: &Path, ckpt: Option<&Path>| {
        let mut c = osn();
        c.args(["communities"])
            .arg(&trace)
            .args(["--stride", "30", "--min-size", "8", "--out"])
            .arg(out)
            .env("OSN_CHAOS", "panic@80");
        if let Some(ckpt) = ckpt {
            c.arg("--checkpoint").arg(ckpt);
        }
        let res = c.output().unwrap();
        assert_eq!(
            res.status.code(),
            Some(4),
            "stderr: {}",
            String::from_utf8_lossy(&res.stderr)
        );
    };
    let direct = dir.join("direct");
    run(&direct, None);
    let manifest = std::fs::read_to_string(direct.join("run_manifest.csv")).unwrap();
    assert!(
        manifest.contains("communities/day-80,quarantined"),
        "{manifest}"
    );
    assert!(manifest.contains("communities,degraded,"), "{manifest}");

    // The same poisoned day under the checkpoint store: same bytes.
    let stored = dir.join("stored");
    run(&stored, Some(&dir.join("ckpt")));
    for file in ["communities.csv", "community_events.csv"] {
        let a = std::fs::read(direct.join(file)).unwrap();
        let b = std::fs::read(stored.join(file)).unwrap();
        assert!(a == b, "{file} differs between the two runs");
    }

    std::fs::remove_dir_all(&dir).ok();
}
