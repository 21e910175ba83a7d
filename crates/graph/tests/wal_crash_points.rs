//! Crash points of the write-ahead log.
//!
//! Random short histories — batches of 1 to 6 events under no key, a
//! fresh key or a repeated one, small segments, retention 0 to 2, reopens
//! after random appends — are checked after every reopen and the final
//! seal: the next seq is one past the last acknowledged batch, the trace
//! holds every acknowledged batch once and in seq order, and a key
//! repeated while its batch is in the idempotency window acks that batch.
//! Then the final record is cut at every byte, as a crash mid-append
//! leaves it: in the active segment (with the trace cut back to before
//! the record), and in the trace (with the segment intact). Every cut
//! must read as a pending tail, never as corruption, and, once the batch
//! is sent again, seal into a trace that a strict read verifies.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

use osn_graph::wal::{check_segments, list_segments, SegmentState, Wal, WalEvent, WalEventKind};
use osn_graph::wal::{WalOpenReport, WalOptions};
use osn_graph::Origin;
use proptest::prelude::*;

/// Valid events from one seed: time never goes back, edges join two
/// distinct known nodes and never repeat.
#[derive(Clone)]
struct Events {
    state: u64,
    time: u64,
    nodes: u32,
    edges: HashSet<(u32, u32)>,
}

impl Events {
    /// splitmix64, below `n`.
    fn below(&mut self, n: u64) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }

    fn batch(&mut self, len: usize) -> Vec<WalEvent> {
        (0..len)
            .map(|_| {
                self.time += self.below(40);
                if self.nodes >= 2 && self.below(2) == 0 {
                    let u = self.below(u64::from(self.nodes)) as u32;
                    let v = self.below(u64::from(self.nodes)) as u32;
                    if u != v && self.edges.insert((u.min(v), u.max(v))) {
                        return WalEvent::edge(self.time, u, v);
                    }
                }
                self.nodes += 1;
                let origins = [Origin::Core, Origin::Competitor, Origin::PostMerge];
                WalEvent::node(self.time, origins[self.below(3) as usize])
            })
            .collect()
    }
}

/// The payload lines a batch must leave in the trace.
fn lines_of(events: &[WalEvent]) -> Vec<String> {
    let line = |e: &WalEvent| match e.kind {
        WalEventKind::Node(o) => format!("N {} {}", e.time, o.label()),
        WalEventKind::Edge(u, v) => format!("E {} {} {}", e.time, u.min(v), u.max(v)),
    };
    events.iter().map(line).collect()
}

fn trace_lines(trace: &Path) -> Vec<String> {
    let text = fs::read_to_string(trace).unwrap();
    let payload = text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'));
    payload.map(str::to_string).collect()
}

/// The window open rebuilds from the markers of the segments on disk
/// (it prunes only after loading them): key → (seq, events).
fn window_on_disk(wal_dir: &Path) -> HashMap<String, (u64, u64)> {
    let mut window = HashMap::new();
    for (_, path) in list_segments(wal_dir).unwrap() {
        for marker in fs::read_to_string(path).unwrap().lines() {
            let Some(body) = marker.strip_prefix("# batch ") else {
                continue;
            };
            let field = |name| body.split(' ').find_map(|f| f.strip_prefix(name)).unwrap();
            if field("key=") != "-" {
                let (seq, n) = (field("seq=").parse(), field("events=").parse());
                window.insert(field("key=").to_string(), (seq.unwrap(), n.unwrap()));
            }
        }
    }
    window
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("osn-wal-crash-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(dir.join("wal")).unwrap();
    dir
}

/// The trace (first) and every WAL file under `root`, by relative path.
fn snapshot(root: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = vec![(PathBuf::from("t.events"), Vec::new())];
    for entry in fs::read_dir(root.join("wal")).unwrap() {
        let path = entry.unwrap().path();
        files.push((path.strip_prefix(root).unwrap().to_path_buf(), Vec::new()));
    }
    for (rel, bytes) in &mut files {
        *bytes = fs::read(root.join(rel)).unwrap();
    }
    files
}

/// Lay `files` out under a fresh `root`, cutting `cut.0` to `cut.1` bytes.
fn restore(root: &Path, files: &[(PathBuf, Vec<u8>)], cut: (&Path, usize)) {
    let _ = fs::remove_dir_all(root);
    fs::create_dir_all(root.join("wal")).unwrap();
    for (rel, bytes) in files {
        let len = if rel == cut.0 { cut.1 } else { bytes.len() };
        fs::write(root.join(rel), &bytes[..len]).unwrap();
    }
}

/// What `osn verify --wal` accepts: sealed segments, and at most a
/// pending tail on the active one.
fn pending_at_most(wal_dir: &Path) -> bool {
    let ok = |s: &SegmentState| {
        matches!(
            s,
            SegmentState::Sealed | SegmentState::Active { damage: None, .. }
        )
    };
    check_segments(wal_dir)
        .unwrap()
        .iter()
        .all(|v| ok(&v.state))
}

/// Seal `wal` and read its trace strictly: every chunk's CRC and the
/// footer's totals verify, over `events` events.
fn seal_and_read(wal: Wal, trace: &Path, events: usize) -> Result<(), TestCaseError> {
    wal.seal().unwrap();
    let log = osn_graph::io::read_log(fs::File::open(trace).unwrap()).unwrap();
    prop_assert_eq!(log.events().len(), events);
    Ok(())
}

fn check_open(
    report: &WalOpenReport,
    trace: &Path,
    last_seq: u64,
    window: &HashMap<String, (u64, u64)>,
    lines: &[String],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(report.next_seq, last_seq + 1);
    prop_assert_eq!(report.keys_loaded, window.len());
    prop_assert_eq!(trace_lines(trace), lines);
    Ok(())
}

proptest! {
    #[test]
    fn every_crash_point_recovers_the_acked_batches(
        plan in prop::collection::vec((1usize..7, 0u8..3, 0u8..4), 2..13),
        seed in any::<u64>(),
        rotate_bytes in 150u64..2001,
        retain_segments in 0usize..3,
    ) {
        let root = scratch("history");
        let (trace, wal_dir) = (root.join("t.events"), root.join("wal"));
        let opts = WalOptions { fsync: false, rotate_bytes, retain_segments, ..WalOptions::default() };
        let mut events = Events { state: seed, time: 0, nodes: 0, edges: HashSet::new() };
        let (mut lines, mut last_seq) = (Vec::new(), 0);
        let mut window = HashMap::new();
        let mut keys: Vec<String> = Vec::new();
        let (mut wal, report) = Wal::open(&trace, &wal_dir, opts.clone()).unwrap();
        check_open(&report, &trace, last_seq, &window, &lines)?;

        // Every batch but the last, reopening after some of them.
        let (last, body) = plan.split_last().unwrap();
        for (i, &(len, key_kind, reopen)) in body.iter().enumerate() {
            let key = match key_kind {
                0 => None,
                2 if !keys.is_empty() => Some(keys[events.below(keys.len() as u64) as usize].clone()),
                _ => Some(format!("k{i}")),
            };
            let before = events.clone();
            let batch = events.batch(len);
            let ack = wal.append(key.as_deref(), &batch).unwrap();
            if let Some(&(seq, n)) = key.as_ref().and_then(|k| window.get(k)) {
                prop_assert_eq!((ack.seq, ack.events, ack.duplicate), (seq, n, true));
                events = before; // nothing was written
            } else {
                prop_assert_eq!((ack.seq, ack.duplicate), (last_seq + 1, false));
                last_seq = ack.seq;
                lines.extend(lines_of(&batch));
                if let Some(k) = key {
                    window.insert(k.clone(), (ack.seq, len as u64));
                    keys.push(k);
                }
            }
            if reopen == 0 {
                drop(wal);
                window = window_on_disk(&wal_dir);
                let (reopened, report) = Wal::open(&trace, &wal_dir, opts.clone()).unwrap();
                wal = reopened;
                check_open(&report, &trace, last_seq, &window, &lines)?;
            }
        }

        // The final record, under a fresh key so that it is written.
        let final_batch = events.batch(last.0);
        let trace_before = fs::metadata(&trace).unwrap().len() as usize;
        let ack = wal.append(Some("final"), &final_batch).unwrap();
        prop_assert_eq!((ack.seq, ack.duplicate), (last_seq + 1, false));
        drop(wal);
        let files = snapshot(&root);
        let (_, active) = list_segments(&wal_dir).unwrap().pop().unwrap();
        let active = active.strip_prefix(&root).unwrap();
        let seg = &files.iter().find(|(rel, _)| rel == active).unwrap().1;
        let record = seg.windows(12).rposition(|w| w == b"# batch seq=").unwrap();
        // The marker line commits on its own, as a comment.
        let marker_end = record + seg[record..].iter().position(|&b| b == b'\n').unwrap() + 1;
        let crash = scratch("crash");
        let (ctrace, cwal) = (crash.join("t.events"), crash.join("wal"));

        // Cut in the segment: the record never verified, so the batch is
        // gone, its seq is free and its key unknown.
        let mut cut_files = files.clone();
        cut_files[0].1.truncate(trace_before);
        for cut in record..seg.len() {
            restore(&crash, &cut_files, (active, cut));
            prop_assert!(pending_at_most(&cwal), "segment cut at {}", cut);
            let (w, report) = Wal::open(&ctrace, &cwal, opts.clone()).unwrap();
            prop_assert_eq!(report.next_seq, ack.seq, "segment cut at {}", cut);
            let committed = if cut >= marker_end { marker_end } else { record };
            prop_assert_eq!(report.wal_truncated_bytes, (cut - committed) as u64);
            prop_assert_eq!(trace_lines(&ctrace), lines.clone());
            let again = w.append(Some("final"), &final_batch).unwrap();
            prop_assert_eq!((again.seq, again.duplicate), (ack.seq, false));
            seal_and_read(w, &ctrace, lines.len() + final_batch.len())?;
        }

        // Cut in the trace: the segment is durable, so open replays the
        // chunk and the key acks the replayed batch.
        last_seq = ack.seq;
        lines.extend(lines_of(&final_batch));
        for cut in trace_before..files[0].1.len() {
            restore(&crash, &files, (Path::new("t.events"), cut));
            prop_assert!(pending_at_most(&cwal), "trace cut at {}", cut);
            let (w, report) = Wal::open(&ctrace, &cwal, opts.clone()).unwrap();
            let replayed = (report.replayed_chunks, report.replayed_events);
            prop_assert_eq!(replayed, (1, final_batch.len() as u64), "trace cut at {}", cut);
            prop_assert_eq!(report.trace_truncated_bytes, (cut - trace_before) as u64);
            prop_assert_eq!(report.next_seq, last_seq + 1);
            prop_assert_eq!(trace_lines(&ctrace), lines.clone());
            let again = w.append(Some("final"), &final_batch).unwrap();
            prop_assert_eq!((again.seq, again.duplicate), (ack.seq, true));
            seal_and_read(w, &ctrace, lines.len())?;
        }

        // The intact directory seals into a strict-clean trace and reopens
        // where it left off.
        let (wal, _) = Wal::open(&trace, &wal_dir, opts.clone()).unwrap();
        seal_and_read(wal, &trace, lines.len())?;
        window = window_on_disk(&wal_dir);
        let (_wal, report) = Wal::open(&trace, &wal_dir, opts).unwrap();
        check_open(&report, &trace, last_seq, &window, &lines)?;
        let _ = fs::remove_dir_all(&root);
        let _ = fs::remove_dir_all(&crash);
    }
}
