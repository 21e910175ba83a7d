//! `osnbench`: the end-to-end and per-layer benchmark of this workspace.
//!
//! Four workloads, each run in its own process:
//!
//! * `analyze` — what `osn metrics` + `osn communities` do, on the
//!   paper configuration at 12K nodes (kernel-bound);
//! * `ingest` — batch read, tail-follow and replay of a trace (parse,
//!   CRC and replay-bound, no kernels);
//! * `serve-read` — pages of pipelined HTTP reads against `osn serve`
//!   on a fixed schedule (serve plane only; every answer is
//!   pre-materialised);
//! * `write` — paced pages of `POST /v1/events` through the WAL, each
//!   followed by a read, while a follow head publishes.
//!
//! The untraced run (`--trace 0`) reports the end-to-end metrics
//! ([`END_TO_END`]); the traced run (`--trace 1`) re-composes each
//! workload from the crates' public calls with spans around every layer
//! and reports [`PER_LAYER`]. End-to-end times and costs are scaled to a
//! fixed host speed by [`reference::Reference`], run beside every sample.
//! See `BENCHMARK.md` next to this crate.

pub mod analyze;
pub mod http;
pub mod ingest;
pub mod load;
pub mod mix;
pub mod reference;
pub mod serve_read;
pub mod stats;
pub mod trace;
pub mod write;

use reference::Reference;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A reported metric: name and unit, as listed in `BENCHMARK.json`.
pub type MetricDef = (&'static str, &'static str);

/// End-to-end metrics, printed by every workload's untraced run. What
/// "operation" and "work" mean per workload is stated in `BENCHMARK.md`.
pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_ms", "ms"),
    ("rate_per_s", "1/s"),
];

/// Per-layer metrics, printed by every workload's traced run. A layer
/// the workload never reaches reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    ("graph.io.read_s", "s"),
    ("graph.crc32.mb_per_s", "MB/s"),
    ("graph.log.build_s", "s"),
    ("graph.tail.poll_s", "s"),
    ("graph.tail.polls", "count"),
    ("graph.snapshots.replay_s", "s"),
    ("graph.snapshots.freeze_s", "s"),
    ("metrics.engine.replay_s", "s"),
    ("metrics.components.giant_s", "s"),
    ("metrics.paths.bfs_s", "s"),
    ("metrics.paths.sources", "count"),
    ("metrics.clustering.sample_s", "s"),
    ("metrics.assortativity_s", "s"),
    ("community.tracker.observe_s", "s"),
    ("stats.table.render_s", "s"),
    ("core.query.build_s", "s"),
    ("core.live.publishes", "count"),
    ("core.live.publish_ms_mean", "ms"),
    ("server.http.read_head_us", "us"),
    ("server.http.write_us", "us"),
    ("server.router.route_us", "us"),
    ("server.cache.lookup_us", "us"),
    ("server.cache.store_us", "us"),
    ("server.cache.hit_ratio", "ratio"),
    ("server.handlers.handle_us", "us"),
    ("server.service_us", "us"),
    ("server.wait_us", "us"),
    ("server.shed", "count"),
    ("graph.wal.append_p50_us", "us"),
    ("graph.wal.append_tail_us", "us"),
    ("graph.wal.fsyncs", "count"),
    ("graph.wal.batches_per_fsync", "ratio"),
    ("server.write.accepted", "count"),
    ("server.write.duplicates", "count"),
    ("server.write.shed", "count"),
    ("trace_overhead", "ratio"),
    ("trace.spans", "count"),
];

/// An untraced run sets up at least this many times, and again while
/// its set-ups total less than [`SETUP_SECONDS`], up to [`SETUP_MAX`]
/// times; `setup_s` is their median. A cheap set-up is repeated more, so
/// its median rests on more samples. A traced run sets up once.
pub const SETUP_MIN: usize = 3;

/// See [`SETUP_MIN`].
pub const SETUP_SECONDS: f64 = 1.5;

/// See [`SETUP_MIN`].
pub const SETUP_MAX: usize = 15;

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (passes, requests, batches).
    pub attempted: u64,
    /// Operations that failed: hard errors, wrong answers, refusals in
    /// fixed-rate phases.
    pub failed: u64,
    /// Every correctness check that did not hold.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Extra facts for the detail line: key → JSON value.
    pub details: Vec<(String, String)>,
    /// Digest of the workload's outputs, compared with the committed
    /// digests for the seeds listed there.
    pub digest: Option<u64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn detail(&mut self, key: &str, json: impl ToString) {
        self.details.push((key.to_string(), json.to_string()));
    }

    /// Record a failed check: it fails the run's `correct` verdict.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Count one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Fold per-span layer totals into the per-layer seconds metrics
    /// whose name is `<layer>_s`.
    pub fn set_layer_seconds(&mut self, totals: &BTreeMap<&'static str, trace::LayerTotals>) {
        for &(name, unit) in PER_LAYER {
            if unit != "s" {
                continue;
            }
            if let Some(t) = name.strip_suffix("_s").and_then(|layer| totals.get(layer)) {
                self.set(name, t.self_ns as f64 / 1e9);
            }
        }
    }

    /// Store the recorded spans: layer metrics, the per-layer table on
    /// stderr, and the spans themselves under `out/`.
    pub fn finish_trace(&mut self, rec: &trace::Recorder, file_stem: &str) {
        let spans = rec.spans();
        let totals = trace::layer_totals(&spans);
        self.set_layer_seconds(&totals);
        self.set("trace.spans", spans.len() as f64);
        eprint!("{}", trace::render_layers(&totals));
        let path = out_dir().join(format!("{file_stem}.spans.jsonl"));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|_| std::fs::File::create(&path))
            .and_then(|f| {
                let mut w = std::io::BufWriter::new(f);
                trace::write_jsonl(&spans, &mut w)?;
                std::io::Write::flush(&mut w)
            });
        match written {
            Ok(()) => self.detail("spans_file", json_str(&path.display().to_string())),
            Err(e) => self.problem(format!("write {}: {e}", path.display())),
        }
    }
}

/// The result line `{"correct","attempted","failed","metrics"}`: every
/// end-to-end metric (untraced) or every per-layer metric (traced), each
/// with its unit. A per-layer metric the workload never reached reads 0;
/// an end-to-end metric that was not measured is a failed check. Returns
/// the line and the `correct` verdict.
pub fn result_line(out: &mut Outcome, traced: bool) -> (String, bool) {
    let defs = if traced { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(defs.len());
    for &(name, unit) in defs {
        let value = match out.values.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                out.problem(format!("{name} is {v}"));
                0.0
            }
            None if traced => 0.0,
            None => {
                out.problem(format!("{name} was not measured"));
                0.0
            }
        };
        metrics.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    let correct = out.problems.is_empty() && out.failed == 0 && out.attempted > 0;
    let line = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
    (line, correct)
}

/// Quote a string for JSON.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number, or `null` for a value that was not measured.
pub fn json_opt(v: Option<f64>) -> String {
    v.map_or("null".to_string(), |v| v.to_string())
}

/// FNV-1a over a sequence of byte strings: the output digest.
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in part {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator, so ("ab","c") and ("a","bc") differ.
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Where the benchmark keeps its files: inside this crate's directory
/// of the checkout it was built from, listed in the root `.gitignore`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory under [`out_dir`], removed on drop.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(label: &str) -> std::io::Result<WorkDir> {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = out_dir().join(format!("work-{label}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run `setup` as often as [`SETUP_MIN`] says (once when `traced`),
/// timing each and running `reference` right after it on the same
/// thread; every result but the last goes to `teardown` (untimed).
/// Returns the last result and the timings in seconds, each scaled to
/// the reference box's speed ([`Reference::scale`]).
pub fn repeat_setup<T>(
    traced: bool,
    reference: &mut Reference,
    mut setup: impl FnMut(usize) -> T,
    mut teardown: impl FnMut(T),
) -> (T, Vec<f64>) {
    let mut raw_s = 0.0;
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.is_empty()
        || !traced && times.len() < SETUP_MAX && (times.len() < SETUP_MIN || raw_s < SETUP_SECONDS)
    {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let t0 = Instant::now();
        let value = setup(times.len());
        let s = t0.elapsed().as_secs_f64();
        raw_s += s;
        times.push(Reference::scale(s, reference.time_ms()));
        last = Some(value);
    }
    (last.expect("at least one set-up"), times)
}

/// Call `pass` once to warm caches and the allocator, then again until
/// `seconds` have elapsed since the warm-up ended (at least once more).
/// Returns every result in order, the warm-up's first, and the error
/// that stopped the loop, if any.
pub fn repeat_passes<T>(
    seconds: f64,
    mut pass: impl FnMut() -> Result<T, String>,
) -> (Vec<T>, Option<String>) {
    let mut done = Vec::new();
    let mut started = None;
    loop {
        match pass() {
            Ok(p) => done.push(p),
            Err(e) => return (done, Some(e)),
        }
        let started = *started.get_or_insert_with(Instant::now);
        if done.len() >= 2 && started.elapsed().as_secs_f64() >= seconds {
            return (done, None);
        }
    }
}

/// Logical CPUs visible to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\u000ad\"");
    }

    #[test]
    fn digest_separates_parts() {
        assert_ne!(digest([&b"ab"[..], b"c"]), digest([&b"a"[..], b"bc"]));
        assert_eq!(digest([&b"x"[..]]), digest([&b"x"[..]]));
    }

    #[test]
    fn setup_repeats_and_tears_down_all_but_the_last() {
        let mut torn = Vec::new();
        let r = &mut Reference::new();
        let (last, times) = repeat_setup(true, r, |i| i, |v| torn.push(v));
        assert_eq!((last, times.len(), torn.len()), (0, 1, 0));
        // Instant set-ups never reach SETUP_SECONDS: repeated SETUP_MAX times.
        let (last, times) = repeat_setup(false, r, |i| i, |v| torn.push(v));
        assert_eq!((last, times.len()), (SETUP_MAX - 1, SETUP_MAX));
        assert_eq!(torn, (0..SETUP_MAX - 1).collect::<Vec<_>>());
        // Slow set-ups stop at SETUP_MIN, however long the reference takes.
        let slow = std::time::Duration::from_secs_f64(SETUP_SECONDS / 2.0);
        let (_, times) = repeat_setup(false, r, |_| std::thread::sleep(slow), drop);
        assert_eq!(times.len(), SETUP_MIN);
        assert!(times.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn passes_warm_up_then_repeat_until_an_error() {
        let (done, err) = repeat_passes(0.0, {
            let mut n = 0;
            move || {
                n += 1;
                Ok::<_, String>(n)
            }
        });
        assert_eq!((done, err), (vec![1, 2], None));
        let (done, err) = repeat_passes(60.0, {
            let mut n = 0;
            move || {
                n += 1;
                if n < 4 {
                    Ok(n)
                } else {
                    Err("broke".to_string())
                }
            }
        });
        assert_eq!((done, err), (vec![1, 2, 3], Some("broke".to_string())));
    }

    #[test]
    fn layer_seconds_map_to_per_layer_names() {
        let mut o = Outcome::default();
        let mut totals = BTreeMap::new();
        totals.insert(
            "metrics.paths.bfs",
            trace::LayerTotals {
                count: 2,
                total_ns: 3_000_000_000,
                self_ns: 2_000_000_000,
            },
        );
        o.set_layer_seconds(&totals);
        assert_eq!(o.values.get("metrics.paths.bfs_s"), Some(&2.0));
        assert_eq!(o.values.len(), 1);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
        }
    }
}
