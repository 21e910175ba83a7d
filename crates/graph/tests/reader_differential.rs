//! Reader properties: the CRC against a table-free reference, and both v2
//! readers — the batch reader behind a short-reading, interrupting
//! [`ChaosReader`], the tailer behind random-size appends — against the
//! log a trace was written from, with every line spelled non-canonically
//! so that none of it takes the parser's fast path.
//!
//! The parser's own fast-path-versus-grammar property needs crate-private
//! items and lives in the unit tests of `osn_graph`'s framing module.

use osn_graph::crc32::{crc32, Crc32};
use osn_graph::io::{read_log_with_policy, RecoveryPolicy, FORMAT_V2_MAGIC};
use osn_graph::testutil::{ChaosReader, ChaosReaderConfig};
use osn_graph::{
    EventKind, EventLog, EventLogBuilder, NodeId, Origin, TailEvent, TailReader, Time,
};
use proptest::prelude::*;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::PathBuf;

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

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// Bit-at-a-time CRC-32 (IEEE, reflected), with no table.
fn crc32_reference(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

fn random_log(rng: &mut Rng) -> EventLog {
    let mut b = EventLogBuilder::new();
    let mut t = 0u64;
    let nodes = 1 + rng.below(120);
    for i in 0..nodes as u32 {
        t += rng.below(3) as u64 * rng.below(90_000) as u64;
        let origin = [Origin::Core, Origin::Competitor, Origin::PostMerge][rng.below(3)];
        b.add_node(Time(t), origin).unwrap();
        for _ in 0..rng.below(3) {
            let u = NodeId(rng.below(i as usize + 1) as u32);
            if u != NodeId(i) && !b.has_edge(u, NodeId(i)) {
                b.add_edge(Time(t), u, NodeId(i)).unwrap();
            }
        }
    }
    b.build()
}

/// Whitespace the grammar separates tokens with (not VT, which is not
/// ASCII whitespace).
const SPACE: &[&str] = &[" ", "  ", "\t", "\x0c", "\r", " \t"];

/// A number spelled with a sign and/or leading zeros.
fn respell_number(rng: &mut Rng, n: u64) -> String {
    let sign = rng.pick(&["", "+"]);
    let zeros = "0".repeat(rng.below(3));
    format!("{sign}{zeros}{n}")
}

/// The event's line in a spelling no writer emits: whitespace around and
/// between the tokens, signs and leading zeros on the numbers. Returns
/// the line without its terminator.
fn respell_event(rng: &mut Rng, kind: EventKind, time: Time) -> String {
    let lead = rng.pick(&["", " ", "\t", "\r", " \x0c"]);
    let trail = rng.pick(&["", " ", "\t", "\r", "\x0c "]);
    let mut fields = vec![respell_number(rng, time.seconds())];
    let tag = match kind {
        EventKind::AddNode { origin, .. } => {
            fields.push(origin.label().to_string());
            "N"
        }
        EventKind::AddEdge { u, v } => {
            fields.push(respell_number(rng, u64::from(u.0)));
            fields.push(respell_number(rng, u64::from(v.0)));
            "E"
        }
    };
    let mut line = format!("{lead}{tag}");
    // At least one field is guaranteed to be non-canonical: the first
    // separator is never a single space.
    line.push_str(rng.pick(&["  ", "\t", "\x0c", " \r", "\t "]));
    for (i, f) in fields.iter().enumerate() {
        if i > 0 {
            line.push_str(rng.pick(SPACE));
        }
        line.push_str(f);
    }
    line.push_str(trail);
    line
}

/// The trimmed bytes a directive's CRC covers for one payload line.
fn checksummed(line: &str) -> &str {
    line.trim_matches(|c: char| c.is_ascii_whitespace())
}

fn hex(rng: &mut Rng, crc: u32) -> String {
    if rng.below(2) == 0 {
        format!("{crc:08x}")
    } else {
        format!("{crc:08X}")
    }
}

/// A v2 rendering of `log` with random chunk sizes, respelled lines and
/// directives, comments and blanks inside chunks, and one comment longer
/// than the readers' 64 KiB block. The final line (the footer) lacks its
/// `\n` when `unterminated`.
fn render(rng: &mut Rng, log: &EventLog, unterminated: bool) -> Vec<u8> {
    let mut out = format!("{FORMAT_V2_MAGIC}{}\n", rng.pick(&["", " ", "\r", "\t "]));
    out.push_str("# respelled trace\n");
    let events = log.events();
    let long_at = rng.below(events.len());
    let mut total = Crc32::new();
    let mut i = 0;
    while i < events.len() {
        let n = 1 + rng.below(9).min(events.len() - i - 1);
        let mut chunk = Crc32::new();
        for (k, e) in events[i..i + n].iter().enumerate() {
            if i + k == long_at {
                out.push_str("# ");
                out.push_str(&"x".repeat(70_000 + rng.below(70_000)));
                out.push('\n');
            }
            match rng.below(6) {
                0 => out.push_str("#\tcomment inside a chunk\n"),
                1 => out.push_str(rng.pick(&["\n", " \t\n", "\r\n"])),
                _ => {}
            }
            let line = respell_event(rng, e.kind, e.time);
            let payload = format!("{}\n", checksummed(&line));
            chunk.update(payload.as_bytes());
            total.update(payload.as_bytes());
            out.push_str(&line);
            out.push('\n');
        }
        let crc = hex(rng, chunk.finalize());
        let (s1, s2) = (rng.pick(&["", " ", "\t"]), rng.pick(SPACE));
        out.push_str(&format!("#%chunk {s1}lines={n}{s2}crc={crc}\n"));
        i += n;
    }
    let crc = hex(rng, total.finalize());
    let lead = rng.pick(&["", " ", "\t"]);
    out.push_str(&format!("{lead}#%end events={} crc={crc}", events.len()));
    if !unterminated {
        out.push('\n');
    }
    out.into_bytes()
}

fn build_from(events: &[TailEvent]) -> EventLog {
    let mut b = EventLogBuilder::new();
    for e in events {
        match *e {
            TailEvent::Node { time, origin } => {
                b.add_node(time, origin).unwrap();
            }
            TailEvent::Edge { time, u, v } => b.add_edge(time, u, v).unwrap(),
        }
    }
    b.build()
}

fn scratch_file(seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("osn-reader-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{seed:016x}.events"));
    let _ = std::fs::remove_file(&path);
    path
}

proptest! {
    /// Slicing-by-8 equals the bitwise reference on random bytes fed in
    /// random pieces (short and long, aligned and not).
    #[test]
    fn crc32_matches_bitwise_reference(seed in any::<u64>(), len in 0usize..600) {
        let mut rng = Rng(seed);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        let mut h = Crc32::new();
        let mut rest = &bytes[..];
        while !rest.is_empty() {
            let n = 1 + rng.below(rest.len().min(40));
            h.update(&rest[..n]);
            rest = &rest[n..];
        }
        let want = crc32_reference(&bytes);
        prop_assert_eq!(h.finalize(), want);
        prop_assert_eq!(crc32(&bytes), want);
    }

    /// The batch reader, fed through short reads and EINTR, returns the
    /// log a respelled trace was written from, and the report is clean.
    #[test]
    fn batch_reader_reads_respelled_traces(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let log = random_log(&mut rng);
        let unterminated = rng.below(2) == 0;
        let bytes = render(&mut rng, &log, unterminated);
        let cfg = ChaosReaderConfig {
            interrupt_one_in: 3,
            short_read_max: [1, 7, 4096, 100_000][rng.below(4)],
            ..ChaosReaderConfig::default()
        };
        let reader = ChaosReader::new(&bytes[..], seed, cfg);
        let (back, report) = read_log_with_policy(reader, &RecoveryPolicy::Strict)
            .map_err(|e| TestCaseError::Fail(format!("strict read failed: {e}")))?;
        prop_assert!(report.is_clean(), "{}", report.summary());
        prop_assert_eq!(report.bytes_read, bytes.len() as u64);
        prop_assert_eq!(back.fingerprint(), log.fingerprint());
    }

    /// The tailer, polled after every random-size append of the same
    /// trace, commits exactly the log's events; the footer commits only
    /// once its line is terminated.
    #[test]
    fn tail_reader_follows_respelled_appends(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let log = random_log(&mut rng);
        let unterminated = rng.below(2) == 0;
        let bytes = render(&mut rng, &log, unterminated);
        let path = scratch_file(seed);
        std::fs::File::create(&path).unwrap();
        let mut tail = TailReader::new(&path, RecoveryPolicy::Strict);
        let mut events = Vec::new();
        let mut at = 0;
        let mut last = None;
        while at < bytes.len() {
            let n = 1 + rng.below((bytes.len() - at).min(40_000));
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&bytes[at..at + n]).unwrap();
            at += n;
            let batch = tail
                .poll()
                .map_err(|e| TestCaseError::Fail(format!("poll failed at {at}: {e}")))?;
            events.extend(batch.events.iter().copied());
            last = Some(batch);
        }
        let _ = std::fs::remove_file(&path);
        let last = last.unwrap();
        prop_assert_eq!(tail.problems(), 0);
        prop_assert_eq!(build_from(&events).fingerprint(), log.fingerprint());
        if unterminated {
            prop_assert!(last.tail_pending && last.footer.is_none());
        } else {
            prop_assert_eq!(last.footer, Some(true));
            prop_assert_eq!(last.committed_offset, bytes.len() as u64);
        }
    }
}
