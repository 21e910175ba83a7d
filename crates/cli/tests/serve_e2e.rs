//! End-to-end tests of `osn serve` against the real binary: startup
//! preflight, byte-for-byte parity with the batch CSV outputs, injected
//! handler panics, and the SIGTERM drain contract (exit 0 clean, exit 4
//! when the drain deadline abandons in-flight work).

#![cfg(unix)]

use osn_graph::testutil::http_get;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// Chaos key the `/v1/days` route is supervised under (`u64::MAX`), so
/// tests can poison a route without knowing which snapshot days exist.
const DAYS_KEY: &str = "18446744073709551615";

fn osn() -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_osn"));
    c.env_remove("OSN_CHAOS")
        .env_remove("OSN_WORKERS")
        .env_remove("OSN_TELEMETRY");
    c
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("osn_serve_{name}_{}", std::process::id()));
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

/// Spawn `osn serve`, wait for its "listening on http://ADDR" line, and
/// hand back the child plus the address and the still-open stdout reader
/// (drain messages arrive on it after SIGTERM). Every caller `wait()`s
/// the child — reaping is part of the drain contract under test.
#[allow(clippy::zombie_processes)]
fn spawn_serve(
    trace: &Path,
    extra: &[&str],
    chaos: Option<&str>,
) -> (Child, String, BufReader<ChildStdout>) {
    let mut c = osn();
    c.arg("serve")
        .arg(trace)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    if let Some(spec) = chaos {
        c.env("OSN_CHAOS", spec);
    }
    let mut child = c.spawn().unwrap();
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let mut seen = String::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap() == 0 {
            let mut err = String::new();
            child
                .stderr
                .take()
                .unwrap()
                .read_to_string(&mut err)
                .unwrap();
            panic!("serve exited before listening\nstdout:\n{seen}\nstderr:\n{err}");
        }
        seen.push_str(&line);
        if let Some(addr) = line.trim().strip_prefix("listening on http://") {
            assert!(
                seen.contains("preflight: {"),
                "no preflight report before listening:\n{seen}"
            );
            return (child, addr.to_string(), reader);
        }
    }
}

fn sigterm(child: &Child) {
    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(status.success());
}

fn read_rest(mut reader: BufReader<ChildStdout>) -> String {
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();
    rest
}

/// Header + the row for `day`, exactly as the daemon serves them: two
/// newline-terminated lines sliced out of the batch CSV file.
fn csv_answer(csv_path: &Path, day_field: &str) -> String {
    let csv = std::fs::read_to_string(csv_path).unwrap();
    let mut lines = csv.lines();
    let header = lines.next().unwrap();
    let row = lines
        .find(|l| l.starts_with(&format!("{day_field},")))
        .unwrap_or_else(|| panic!("no row for day {day_field} in {}", csv_path.display()));
    format!("{header}\n{row}\n")
}

fn last_day(csv_path: &Path) -> String {
    let csv = std::fs::read_to_string(csv_path).unwrap();
    let last = csv.lines().last().unwrap();
    last.split(',').next().unwrap().to_string()
}

#[test]
fn served_rows_are_byte_identical_to_batch_csv_and_drain_is_clean() {
    let dir = scratch("parity");
    let trace = dir.join("t.events");
    generate(&trace);

    // Batch reference outputs with explicit strides.
    let out = dir.join("out");
    assert!(osn()
        .args(["metrics"])
        .arg(&trace)
        .args(["--stride", "20", "--out"])
        .arg(&out)
        .status()
        .unwrap()
        .success());
    assert!(osn()
        .args(["communities"])
        .arg(&trace)
        .args(["--stride", "40", "--out"])
        .arg(&out)
        .status()
        .unwrap()
        .success());

    let telemetry = dir.join("telemetry.json");
    let (child, addr, reader) = spawn_serve(
        &trace,
        &[
            "--stride",
            "20",
            "--community-stride",
            "40",
            "--telemetry",
            telemetry.to_str().unwrap(),
        ],
        None,
    );

    assert_eq!(
        http_get(&addr, "/healthz", CLIENT_TIMEOUT).unwrap().status,
        200
    );

    let mday = last_day(&out.join("metrics.csv"));
    let expected = csv_answer(&out.join("metrics.csv"), &mday);
    let resp = http_get(&addr, &format!("/v1/metrics/{mday}"), CLIENT_TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.body,
        expected.as_bytes(),
        "served metrics row differs from the batch CSV"
    );

    let cday = last_day(&out.join("communities.csv"));
    let expected = csv_answer(&out.join("communities.csv"), &cday);
    let resp = http_get(&addr, &format!("/v1/communities/{cday}"), CLIENT_TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.body,
        expected.as_bytes(),
        "served communities row differs from the batch CSV"
    );

    let resp = http_get(&addr, "/v1/days", CLIENT_TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);
    let days = resp.body_str().to_string();
    assert!(days.contains("\"metric_days\":"), "{days}");
    assert!(days.contains(&mday), "{days}");

    sigterm(&child);
    let mut child = child;
    let status = child.wait().unwrap();
    assert_eq!(status.code(), Some(0), "clean drain must exit 0");
    assert!(read_rest(reader).contains("drain complete"));

    // The drain flushed a telemetry snapshot covering both the startup
    // ingest and the requests served above.
    let snap = std::fs::read_to_string(&telemetry).unwrap();
    assert!(snap.contains("\"ingest.lines\""), "{snap}");
    assert!(snap.contains("\"http.responses\""), "{snap}");
    assert!(snap.contains("\"http.writes\""), "{snap}");
    assert!(snap.contains("\"http.latency_us.healthz\""), "{snap}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn keep_alive_gzip_and_shards_preserve_batch_parity() {
    use osn_graph::gzip::gzip_decompress;
    use osn_graph::testutil::HttpClient;

    let dir = scratch("gzip");
    let trace = dir.join("t.events");
    generate(&trace);

    let out = dir.join("out");
    assert!(osn()
        .args(["metrics"])
        .arg(&trace)
        .args(["--stride", "20", "--out"])
        .arg(&out)
        .status()
        .unwrap()
        .success());

    let (child, addr, reader) = spawn_serve(
        &trace,
        &[
            "--stride",
            "20",
            "--community-stride",
            "40",
            "--shards",
            "2",
        ],
        None,
    );

    let mday = last_day(&out.join("metrics.csv"));
    let expected = csv_answer(&out.join("metrics.csv"), &mday);
    let path = format!("/v1/metrics/{mday}");

    // One keep-alive connection: identity request (fills the cache),
    // then a gzip request for the same day, then /v1/days with gzip —
    // every body must decode to exactly the batch bytes.
    let mut client = HttpClient::connect(&addr).unwrap();
    let plain = client.get(&path, CLIENT_TIMEOUT).unwrap();
    assert_eq!(plain.status, 200);
    assert_eq!(plain.body, expected.as_bytes());

    let gz = client
        .get_with(&path, &[("Accept-Encoding", "gzip")], CLIENT_TIMEOUT)
        .unwrap();
    assert_eq!(gz.status, 200);
    let body = match gz.header("content-encoding") {
        Some("gzip") => gzip_decompress(&gz.body).unwrap(),
        // Tiny rows may be served identity (gzip would inflate them);
        // parity must hold either way.
        _ => gz.body.clone(),
    };
    assert_eq!(
        body,
        expected.as_bytes(),
        "gzip response does not decompress to the batch CSV"
    );

    let days = client
        .get_with("/v1/days", &[("Accept-Encoding", "gzip")], CLIENT_TIMEOUT)
        .unwrap();
    assert_eq!(days.status, 200);
    let days_body = match days.header("content-encoding") {
        Some("gzip") => gzip_decompress(&days.body).unwrap(),
        _ => days.body.clone(),
    };
    assert!(String::from_utf8(days_body)
        .unwrap()
        .contains("\"metric_days\":"));
    drop(client);

    // Both shards are reported on the stats surface.
    let stats = http_get(&addr, "/v1/stats", CLIENT_TIMEOUT).unwrap();
    assert_eq!(stats.status, 200);
    let doc = stats.body_str().to_string();
    assert!(doc.contains("\"shards\":["), "{doc}");

    sigterm(&child);
    let mut child = child;
    let status = child.wait().unwrap();
    assert_eq!(status.code(), Some(0), "clean drain must exit 0");
    assert!(read_rest(reader).contains("drain complete"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_panic_is_a_500_and_the_daemon_drains_clean() {
    let dir = scratch("panic");
    let trace = dir.join("t.events");
    generate(&trace);

    let (child, addr, reader) = spawn_serve(
        &trace,
        &["--stride", "40", "--community-stride", "80"],
        Some(&format!("panic@{DAYS_KEY}")),
    );

    // The poisoned route answers 500, twice, and the process stays up.
    for _ in 0..2 {
        let resp = http_get(&addr, "/v1/days", CLIENT_TIMEOUT).unwrap();
        assert_eq!(resp.status, 500);
        assert!(resp.body_str().contains("panicked"), "{}", resp.body_str());
    }
    assert_eq!(
        http_get(&addr, "/healthz", CLIENT_TIMEOUT).unwrap().status,
        200
    );
    assert_eq!(
        http_get(&addr, "/readyz", CLIENT_TIMEOUT).unwrap().status,
        200
    );

    sigterm(&child);
    let mut child = child;
    let status = child.wait().unwrap();
    assert_eq!(status.code(), Some(0));
    assert!(read_rest(reader).contains("drain complete"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drain_deadline_overrun_exits_4() {
    let dir = scratch("drain4");
    let trace = dir.join("t.events");
    generate(&trace);

    // One worker, a 3s injected handler delay, and a 0.2s drain budget:
    // SIGTERM while a request is in flight must abandon it and exit 4.
    let telemetry = dir.join("telemetry.json");
    let (child, addr, _reader) = spawn_serve(
        &trace,
        &[
            "--stride",
            "40",
            "--community-stride",
            "80",
            "--workers",
            "1",
            "--request-timeout",
            "10",
            "--drain-timeout",
            "0.2",
            "--telemetry",
            telemetry.to_str().unwrap(),
        ],
        Some(&format!("delay:3000@{DAYS_KEY}")),
    );

    let stuck = {
        let addr = addr.clone();
        std::thread::spawn(move || http_get(&addr, "/v1/days", CLIENT_TIMEOUT))
    };
    std::thread::sleep(Duration::from_millis(300));
    sigterm(&child);
    let out = child.wait_with_output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(4),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("drain degraded"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The bugfix under test: even an abandoned drain (exit 4) must flush
    // the telemetry snapshot on its way out. Startup ingest counters are
    // always present, whatever the in-flight request's fate.
    let snap = std::fs::read_to_string(&telemetry)
        .expect("telemetry snapshot must exist after an abandoned drain");
    assert!(snap.trim_start().starts_with('{'), "{snap}");
    assert!(snap.contains("\"counters\""), "{snap}");
    assert!(snap.contains("\"ingest.lines\""), "{snap}");
    let _ = stuck.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_trace_fails_preflight_with_exit_3() {
    let dir = scratch("preflight");
    let trace = dir.join("t.events");
    generate(&trace);
    let mut bytes = std::fs::read(&trace).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&trace, &bytes).unwrap();

    let out = osn().arg("serve").arg(&trace).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("preflight: {") && stdout.contains("\"clean\":false"),
        "preflight report missing: {stdout}"
    );
    assert!(
        !stdout.contains("listening on"),
        "daemon came up on a corrupt trace"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verify_json_is_one_machine_readable_line() {
    let dir = scratch("verifyjson");
    let trace = dir.join("t.events");
    generate(&trace);

    let out = osn()
        .args(["verify"])
        .arg(&trace)
        .arg("--json")
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let line = stdout.trim();
    assert!(!line.contains('\n'), "more than one line: {stdout}");
    assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    assert!(line.contains("\"clean\":true"), "{line}");
    assert!(line.contains("\"format_version\":2"), "{line}");
    std::fs::remove_dir_all(&dir).ok();
}
