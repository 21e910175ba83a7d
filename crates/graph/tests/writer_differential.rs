//! The v2 writers and the write-ahead log against the `core::fmt`
//! spelling their encoder replaced, byte for byte, plus pinned bytes and
//! the footer's own check.
//!
//! * `write_log_v2_chunked` and `LogAppender` on random logs and chunk
//!   sizes equal an oracle writer built from `format!` and one-pass CRCs.
//! * Random `Wal::append` histories (keys, retried keys, edges in either
//!   endpoint order, segment rotation) leave segment and trace bytes
//!   equal to the oracle's, before and after `seal`.
//! * A WAL after a few keyed appends is pinned by length and CRC-32.
//! * Footer-only corruption: a payload edit whose chunk directive is
//!   recomputed passes every chunk check, so only the footer's running
//!   CRC can see it; every strict reader must still refuse the file.
//!
//! The encoder's own property against the oracle (every width of time
//! and id) needs crate-private items and lives in the unit tests of
//! `osn_graph`'s framing module.

use osn_graph::crc32::crc32;
use osn_graph::io::{
    read_log, write_log_v2, write_log_v2_chunked, LogAppender, RecoveryPolicy, FORMAT_V2_MAGIC,
};
use osn_graph::wal::{list_segments, Wal, WalEvent, WalEventKind, WalOptions};
use osn_graph::{EventKind, EventLog, EventLogBuilder, NodeId, Origin, TailReader, Time};
use proptest::prelude::*;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// SplitMix64: one seed drives every choice of a case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const ORIGINS: [Origin; 3] = [Origin::Core, Origin::Competitor, Origin::PostMerge];

/// A valid log whose times and ids span several decimal widths.
fn random_log(rng: &mut Rng) -> EventLog {
    let mut b = EventLogBuilder::new();
    let mut t = [0, 7, 86_400, 1 << 33][rng.below(4)];
    let nodes = 1 + rng.below(150);
    for i in 0..nodes as u32 {
        t += rng.below(3) as u64 * rng.below(1_000_000) as u64;
        b.add_node(Time(t), ORIGINS[rng.below(3)]).unwrap();
        for _ in 0..rng.below(4) {
            let u = NodeId(rng.below(i as usize + 1) as u32);
            if u != NodeId(i) && !b.has_edge(u, NodeId(i)) {
                let (a, c) = if rng.below(2) == 0 {
                    (u, NodeId(i))
                } else {
                    (NodeId(i), u)
                };
                b.add_edge(Time(t), a, c).unwrap();
            }
        }
    }
    b.build()
}

/// The oracle's payload line for one event, `\n` included.
fn fmt_line(out: &mut String, time: u64, kind: WalEventKind) {
    match kind {
        WalEventKind::Node(o) => writeln!(out, "N {time} {}", o.label()),
        WalEventKind::Edge(u, v) => writeln!(out, "E {time} {u} {v}"),
    }
    .unwrap();
}

fn wal_event(e: &osn_graph::Event) -> WalEvent {
    match e.kind {
        EventKind::AddNode { origin, .. } => WalEvent::node(e.time.seconds(), origin),
        EventKind::AddEdge { u, v } => WalEvent::edge(e.time.seconds(), u.0, v.0),
    }
}

/// A v2 stream in the oracle's spelling: its running payload, for the
/// footer, and the text written so far.
#[derive(Default)]
struct Oracle {
    text: String,
    payload: Vec<u8>,
    events: usize,
}

impl Oracle {
    fn start() -> Oracle {
        Oracle {
            text: format!("{FORMAT_V2_MAGIC}\n"),
            ..Oracle::default()
        }
    }

    fn chunk(&mut self, events: impl IntoIterator<Item = WalEvent>) {
        let (mut payload, mut lines) = (String::new(), 0);
        for ev in events {
            fmt_line(&mut payload, ev.time, ev.kind);
            lines += 1;
        }
        let crc = crc32(payload.as_bytes());
        self.text.push_str(&payload);
        writeln!(self.text, "#%chunk lines={lines} crc={crc:08x}").unwrap();
        self.payload.extend_from_slice(payload.as_bytes());
        self.events += lines;
    }

    fn footer(&mut self) {
        let crc = crc32(&self.payload);
        writeln!(self.text, "#%end events={} crc={crc:08x}", self.events).unwrap();
    }
}

fn oracle_log(log: &EventLog, chunk_lines: usize) -> String {
    let mut o = Oracle::start();
    let (nodes, edges, days) = (log.num_nodes(), log.num_edges(), log.end_day() + 1);
    writeln!(
        o.text,
        "# multiscale-osn event log: {nodes} nodes, {edges} edges, {days} days"
    )
    .unwrap();
    for events in log.events().chunks(chunk_lines.max(1)) {
        o.chunk(events.iter().map(wal_event));
    }
    o.footer();
    o.text
}

fn scratch(tag: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "osn-writer-diff-{tag}-{}-{seed:016x}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn no_fsync() -> WalOptions {
    WalOptions {
        fsync: false,
        ..WalOptions::default()
    }
}

/// The segment files of `dir`, in order, as text.
fn segments(dir: &Path) -> Vec<String> {
    (list_segments(dir).unwrap().into_iter())
        .map(|(_, p)| std::fs::read_to_string(p).unwrap())
        .collect()
}

/// One batch of a WAL history: events valid after `nodes` known nodes
/// at or after time `t`, some edges spelled larger endpoint first.
fn random_batch(rng: &mut Rng, nodes: &mut u32, t: &mut u64) -> Vec<WalEvent> {
    let mut batch = Vec::new();
    for _ in 0..1 + rng.below(70) {
        *t += rng.below(2) as u64 * rng.below(100_000) as u64;
        if *nodes < 2 || rng.below(3) == 0 {
            batch.push(WalEvent::node(*t, ORIGINS[rng.below(3)]));
            *nodes += 1;
        } else {
            let u = rng.below(*nodes as usize) as u32;
            let v = (u + 1 + rng.below(*nodes as usize - 1) as u32) % *nodes;
            batch.push(WalEvent::edge(*t, u, v));
        }
    }
    batch
}

/// The WAL's segment record for a batch: marker, then the chunk with
/// each edge's smaller endpoint first.
fn oracle_record(
    seg: &mut Oracle,
    trace: &mut Oracle,
    seq: u64,
    key: Option<&str>,
    batch: &[WalEvent],
) {
    let body = format!(
        "seq={seq} key={} events={}",
        key.unwrap_or("-"),
        batch.len()
    );
    writeln!(
        seg.text,
        "# batch {body} mark={:08x}",
        crc32(body.as_bytes())
    )
    .unwrap();
    let lines = batch.iter().map(|e| match e.kind {
        WalEventKind::Edge(u, v) => WalEvent::edge(e.time, u.min(v), u.max(v)),
        WalEventKind::Node(_) => *e,
    });
    let lines: Vec<WalEvent> = lines.collect();
    seg.chunk(lines.iter().copied());
    trace.chunk(lines);
}

proptest! {
    /// `write_log_v2_chunked` writes the oracle's bytes for random logs
    /// and chunk sizes; `LogAppender`, fed the same chunks, writes them
    /// without the header comment.
    #[test]
    fn v2_writers_match_the_fmt_oracle(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let log = random_log(&mut rng);
        let chunk_lines = [1, 2, 7, 64, 1024][rng.below(5)];
        let mut got = Vec::new();
        write_log_v2_chunked(&log, &mut got, chunk_lines).unwrap();
        prop_assert_eq!(String::from_utf8(got).unwrap(), oracle_log(&log, chunk_lines));

        let mut app = LogAppender::new(Vec::new()).unwrap();
        let mut want = Oracle::start();
        let mut rest = log.events();
        while !rest.is_empty() {
            let n = (1 + rng.below(40)).min(rest.len());
            app.append_chunk(&rest[..n]).unwrap();
            want.chunk(rest[..n].iter().map(wal_event));
            rest = &rest[n..];
        }
        want.footer();
        let got = String::from_utf8(app.finish().unwrap()).unwrap();
        prop_assert_eq!(got, want.text);
    }

    /// Random append histories leave every segment and the trace equal
    /// to the oracle's bytes, before and after `seal`; a retried key
    /// writes nothing.
    #[test]
    fn wal_appends_match_the_fmt_oracle(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let dir = scratch("wal", seed);
        let trace = dir.join("t.events");
        let rotate_bytes = [1 << 10, 4 << 10, 4 << 20][rng.below(3)];
        let opts = WalOptions { rotate_bytes, retain_segments: 1000, ..no_fsync() };
        let (wal, _) = Wal::open(&trace, &dir.join("wal"), opts).unwrap();
        let (mut segs, mut tr) = (vec![Oracle::start()], Oracle::start());
        let (mut nodes, mut t, mut seq) = (0u32, rng.next() % 1_000_000, 0u64);
        let mut keys = Vec::new();
        for _ in 0..1 + rng.below(40) {
            if !keys.is_empty() && rng.below(6) == 0 {
                let k: &String = &keys[rng.below(keys.len())];
                let ack = wal.append(Some(k), &[WalEvent::node(t, Origin::Core)]).unwrap();
                prop_assert!(ack.duplicate);
                continue;
            }
            let batch = random_batch(&mut rng, &mut nodes, &mut t);
            let key = (rng.below(4) != 0).then(|| format!("k-{seed:x}-{}", keys.len()));
            if segs.last().unwrap().text.len() as u64 >= rotate_bytes {
                let full = segs.last_mut().unwrap();
                full.footer();
                segs.push(Oracle::start());
            }
            seq += 1;
            oracle_record(segs.last_mut().unwrap(), &mut tr, seq, key.as_deref(), &batch);
            let ack = wal.append(key.as_deref(), &batch).unwrap();
            prop_assert_eq!((ack.seq, ack.duplicate), (seq, false));
            keys.extend(key);
        }
        let texts = |segs: &[Oracle]| segs.iter().map(|s| s.text.clone()).collect::<Vec<_>>();
        prop_assert_eq!(segments(&dir.join("wal")), texts(&segs));
        prop_assert_eq!(std::fs::read_to_string(&trace).unwrap(), tr.text.clone());
        wal.seal().unwrap();
        segs.last_mut().unwrap().footer();
        tr.footer();
        prop_assert_eq!(segments(&dir.join("wal")), texts(&segs));
        prop_assert_eq!(std::fs::read_to_string(&trace).unwrap(), tr.text);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A fixed WAL history: keyed and unkeyed batches, a retried key, edges
/// spelled larger endpoint first, then `seal`.
fn pinned_history(dir: &Path) -> PathBuf {
    let trace = dir.join("t.events");
    let (wal, _) = Wal::open(&trace, &dir.join("wal"), no_fsync()).unwrap();
    let n = |t, o| WalEvent::node(t, o);
    let e = WalEvent::edge;
    let batches: [(Option<&str>, Vec<WalEvent>); 5] = [
        (
            Some("alpha"),
            vec![n(0, Origin::Core), n(5, Origin::Competitor), e(9, 1, 0)],
        ),
        (
            None,
            vec![n(86_400, Origin::Core), e(86_400, 2, 1), e(90_000, 0, 2)],
        ),
        (
            Some("beta-2"),
            vec![n(4_294_967_296, Origin::PostMerge), e(4_294_967_296, 3, 0)],
        ),
        (Some("alpha"), vec![n(4_294_967_297, Origin::Core)]),
        (
            Some("gamma"),
            vec![
                n(18_446_744_073_709_551_615, Origin::Core),
                e(18_446_744_073_709_551_615, 4, 3),
            ],
        ),
    ];
    for (key, batch) in &batches {
        wal.append(*key, batch).unwrap();
    }
    wal.seal().unwrap();
    trace
}

/// The bytes of a fixed WAL history, pinned by length and CRC-32 as the
/// `core::fmt` encoder wrote them.
#[test]
fn wal_bytes_are_pinned() {
    let dir = scratch("pinned", 0);
    let trace = pinned_history(&dir);
    let seg = std::fs::read(dir.join("wal/seg-000001.log")).unwrap();
    let tr = std::fs::read(&trace).unwrap();
    assert_eq!(
        (seg.len(), crc32(&seg)),
        (SEGMENT_LEN, SEGMENT_CRC),
        "{}",
        String::from_utf8_lossy(&seg)
    );
    assert_eq!(
        (tr.len(), crc32(&tr)),
        (TRACE_LEN, TRACE_CRC),
        "{}",
        String::from_utf8_lossy(&tr)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

const SEGMENT_LEN: usize = 510;
const SEGMENT_CRC: u32 = 0xf1d0_f13d;
const TRACE_LEN: usize = 325;
const TRACE_CRC: u32 = 0x10eb_4041;

/// Swap the endpoints of one edge in the first chunk past the first
/// `skip` chunks that holds an edge, and recompute that chunk's
/// directive: the chunk verifies, so only the footer can tell.
fn edit_chunk_and_recompute(text: &str, skip: usize) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let mut start = 0;
    for (chunk, end) in (0..lines.len())
        .filter(|&i| lines[i].starts_with("#%chunk "))
        .enumerate()
        .collect::<Vec<_>>()
    {
        let edge = (start..end).find(|&i| lines[i].starts_with("E "));
        if let (true, Some(at)) = (chunk >= skip, edge) {
            let f: Vec<&str> = lines[at].split(' ').collect();
            lines[at] = format!("E {} {} {}", f[1], f[3], f[2]);
            let payload: Vec<&String> = lines[start..end]
                .iter()
                .filter(|l| !l.starts_with('#'))
                .collect();
            let bytes: String = payload.iter().map(|l| format!("{l}\n")).collect();
            lines[end] = format!(
                "#%chunk lines={} crc={:08x}",
                payload.len(),
                crc32(bytes.as_bytes())
            );
            return lines.iter().map(|l| format!("{l}\n")).collect();
        }
        start = end + 1;
    }
    panic!("no chunk past {skip} holds an edge");
}

/// A payload edit that leaves every chunk verifying is still refused by
/// each strict reader, through the footer's running CRC alone.
#[test]
fn footer_only_corruption_is_refused_everywhere() {
    let mut rng = Rng(11);
    let log = loop {
        let log = random_log(&mut rng);
        if log.num_edges() >= 20 {
            break log;
        }
    };
    let dir = scratch("footer", 0);
    let mut clean = Vec::new();
    write_log_v2_chunked(&log, &mut clean, 8).unwrap();
    let clean = String::from_utf8(clean).unwrap();
    let bad = edit_chunk_and_recompute(&clean, 1);
    assert_ne!(bad, clean);

    // Batch reader.
    assert!(read_log(clean.as_bytes()).is_ok());
    let err = read_log(bad.as_bytes()).unwrap_err().to_string();
    assert!(err.contains("footer mismatch"), "{err}");
    // The same bytes with the footer cut off read clean but truncated:
    // every chunk passed.
    let unfootered = &bad[..bad.rfind("#%end").unwrap()];
    let (_, report) = osn_graph::io::read_log_with_policy(
        unfootered.as_bytes(),
        &RecoveryPolicy::Skip { max_errors: 0 },
    )
    .unwrap();
    assert_eq!(report.chunks_dropped, 0);

    // Tailer.
    let path = dir.join("bad.events");
    std::fs::write(&path, &bad).unwrap();
    let mut tail = TailReader::new(&path, RecoveryPolicy::Strict);
    let err = tail.poll().unwrap_err().to_string();
    assert!(err.contains("footer mismatch"), "{err}");

    // The WAL, on a sealed trace and on a sealed segment.
    for target in ["trace", "segment"] {
        let wdir = dir.join(target);
        std::fs::create_dir_all(&wdir).unwrap();
        let trace = pinned_history(&wdir);
        let file = match target {
            "trace" => trace.clone(),
            _ => wdir.join("wal/seg-000001.log"),
        };
        let text = std::fs::read_to_string(&file).unwrap();
        std::fs::write(&file, edit_chunk_and_recompute(&text, 1)).unwrap();
        let err = Wal::open(&trace, &wdir.join("wal"), no_fsync())
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("footer verification failed"),
            "{target}: {err}"
        );
    }

    // The same writer's output round-trips untouched.
    let mut again = Vec::new();
    write_log_v2(&read_log(clean.as_bytes()).unwrap(), &mut again).unwrap();
    assert_eq!(
        read_log(&again[..]).unwrap().fingerprint(),
        log.fingerprint()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
