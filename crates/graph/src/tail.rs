//! Tail-tolerant reading of a *growing* v2 trace: the consumer side of
//! live ingest.
//!
//! [`TailReader`] follows an append-only v2 file while a writer is still
//! appending to it. It verifies framing through the same core as
//! [`crate::io::read_log_with_policy`]; the crucial distinction it adds
//! is at end-of-file: a chunk whose `#%chunk` directive has not arrived
//! yet — or whose final line has no terminator — is **pending**, not
//! truncated. The reader keeps its committed offset before the partial
//! data, reports
//! [`TailBatch::tail_pending`], and the next [`TailReader::poll`] simply
//! rescans the unfinished region; a torn tail is never an error and
//! never a quarantine. A chunk whose directive *is* present but whose
//! CRC or line count mismatches is genuine mid-file corruption and is
//! handled per the same [`RecoveryPolicy`] vocabulary as the batch
//! reader: `Strict` surfaces an error, `Skip` drops the chunk against
//! its error budget (one unit per chunk, as in the batch reader),
//! `Repair` degrades to an unbounded `Skip` (repairs need whole-file
//! context a tailer does not have).
//!
//! Commit semantics: the committed offset only ever advances past a
//! *verified* framing boundary (the magic, a chunk directive, the
//! footer, or standalone comment/blank lines). Everything after it is
//! provisional and is re-read on the next poll, so a `kill -9` between
//! polls loses nothing and replaying the same file always commits the
//! same events in the same order — the property the live head's
//! checkpoint/resume machinery is built on.
//!
//! The reader verifies framing (CRCs, counts, the footer); it does *not*
//! apply [`crate::log::EventLog`] invariants (dense ids, duplicate
//! edges…). Consumers feed committed [`TailEvent`]s into an
//! [`crate::log::EventLogBuilder`] and apply their own policy to
//! invariant violations, mirroring the batch reader's split between
//! framing and log validation.

use crate::event::Origin;
use crate::frame::{parse_payload, Frame, Framer, Lines, WalEvent, WalEventKind};
use crate::io::{RecoveryPolicy, FORMAT_V2_MAGIC};
use std::fmt;
use std::fs::File;
use std::io::{self, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::time::{NodeId, Time};

/// One committed event from a tailed trace, in file order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailEvent {
    /// A node arrival (`N <secs> <origin>`); ids are implicit and dense,
    /// assigned by the consumer in commit order.
    Node {
        /// Arrival time.
        time: Time,
        /// Origin network.
        origin: Origin,
    },
    /// An edge arrival (`E <secs> <u> <v>`).
    Edge {
        /// Arrival time.
        time: Time,
        /// One endpoint, as written.
        u: NodeId,
        /// The other endpoint, as written.
        v: NodeId,
    },
}

impl TailEvent {
    /// The event's timestamp.
    pub fn time(&self) -> Time {
        match self {
            TailEvent::Node { time, .. } | TailEvent::Edge { time, .. } => *time,
        }
    }
}

/// Why a poll failed. A torn tail is *not* here by design — it is a
/// normal [`TailBatch::tail_pending`] outcome.
#[derive(Debug)]
pub enum TailError {
    /// The tailed file does not (currently) exist. Often transient: the
    /// writer may not have created it yet, or it is being rotated.
    Missing,
    /// The file is shorter than the already-committed prefix — it was
    /// replaced or truncated underneath us, so all committed state is
    /// invalid. Not recoverable by retrying against the same reader.
    Shrunk {
        /// Bytes previously committed.
        committed: u64,
        /// Current file length.
        len: u64,
    },
    /// The first line is not the v2 magic; only v2 traces can be tailed
    /// (v1 has no framing to distinguish a torn tail from corruption).
    NotV2,
    /// Underlying I/O failure.
    Io(io::Error),
    /// Corruption surfaced under [`RecoveryPolicy::Strict`].
    Corrupt {
        /// 1-based line number of the failed check.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// The cumulative error budget of [`RecoveryPolicy::Skip`] was
    /// exceeded across the lifetime of this reader.
    TooManyErrors {
        /// Problems seen so far.
        errors: usize,
        /// The configured budget.
        limit: usize,
    },
}

impl fmt::Display for TailError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TailError::Missing => write!(f, "tailed file does not exist"),
            TailError::Shrunk { committed, len } => write!(
                f,
                "tailed file shrank below the committed prefix ({committed} bytes committed, \
                 file is now {len} bytes): it was truncated or replaced"
            ),
            TailError::NotV2 => write!(f, "not a v2 trace: only v2 framing can be tailed"),
            TailError::Io(e) => write!(f, "io error: {e}"),
            TailError::Corrupt { line, reason } => write!(f, "line {line}: corrupt: {reason}"),
            TailError::TooManyErrors { errors, limit } => {
                write!(f, "tail gave up: {errors} errors exceed budget of {limit}")
            }
        }
    }
}

impl std::error::Error for TailError {}

impl From<io::Error> for TailError {
    fn from(e: io::Error) -> Self {
        TailError::Io(e)
    }
}

/// What one [`TailReader::poll`] committed and observed.
#[derive(Debug, Default)]
pub struct TailBatch {
    /// Events committed by this poll, in file order.
    pub events: Vec<TailEvent>,
    /// Chunks whose checksum verified this poll.
    pub chunks_verified: u64,
    /// Chunks dropped this poll (mid-file corruption, quarantined).
    pub chunks_dropped: u64,
    /// Payload lines skipped this poll (malformed lines inside verified
    /// chunks, junk directives).
    pub lines_skipped: u64,
    /// True when uncommitted bytes remain at EOF: an in-progress append
    /// (partial line or chunk without its directive). Retry later.
    pub tail_pending: bool,
    /// How many uncommitted bytes trail the committed offset.
    pub pending_bytes: u64,
    /// `Some(verified)` once the `#%end` footer has been processed; the
    /// stream is complete and further polls return immediately.
    pub footer: Option<bool>,
    /// Byte offset of the committed prefix after this poll.
    pub committed_offset: u64,
}

/// Follows an append-only v2 trace file, committing only verified chunks.
///
/// The reader is a pure function of the file's byte prefix: polling a
/// file twice, or polling it from a fresh reader after a crash, commits
/// identical event sequences. See the module docs for the torn-tail /
/// corruption distinction.
#[derive(Debug)]
pub struct TailReader {
    path: PathBuf,
    policy: RecoveryPolicy,
    /// The format magic has been consumed.
    started: bool,
    committed_offset: u64,
    /// 1-based number of the last committed line.
    committed_lineno: usize,
    /// The shared v2 framing state: the provisional chunk and the
    /// footer's running count and CRC of committed payload lines.
    framer: Framer,
    footer: Option<bool>,
    /// Cumulative problems (dropped chunks + skipped lines) for the
    /// `Skip` error budget.
    problems: usize,
}

impl TailReader {
    /// Tail the v2 trace at `path` under `policy`.
    pub fn new<P: AsRef<Path>>(path: P, policy: RecoveryPolicy) -> TailReader {
        TailReader {
            path: path.as_ref().to_path_buf(),
            policy,
            started: false,
            committed_offset: 0,
            committed_lineno: 0,
            framer: Framer::default(),
            footer: None,
            problems: 0,
        }
    }

    /// Byte offset of the verified, committed prefix.
    pub fn committed_offset(&self) -> u64 {
        self.committed_offset
    }

    /// Whether the `#%end` footer has been seen (stream complete).
    pub fn finished(&self) -> bool {
        self.footer.is_some()
    }

    /// Cumulative problems (dropped chunks + skipped lines) so far.
    pub fn problems(&self) -> usize {
        self.problems
    }

    /// Error budget for quarantining; `Repair` degrades to unbounded
    /// `Skip` (see module docs).
    fn budget(&self) -> usize {
        match self.policy {
            RecoveryPolicy::Strict => 0,
            RecoveryPolicy::Skip { max_errors } => max_errors,
            RecoveryPolicy::Repair { .. } => usize::MAX,
        }
    }

    /// Read the file once from the committed offset, committing every
    /// verified framing boundary encountered. Returns what was committed
    /// plus whether an in-progress append (torn tail) remains at EOF.
    pub fn poll(&mut self) -> Result<TailBatch, TailError> {
        osn_obs::counter!("ingest.tail_polls").inc();
        // Only pay for the timestamp when telemetry is on.
        let started = osn_obs::enabled().then(Instant::now);
        let result = self.poll_once();
        if let Some(t0) = started {
            osn_obs::histogram!("ingest.poll_us").record_duration(t0.elapsed());
        }
        result
    }

    fn poll_once(&mut self) -> Result<TailBatch, TailError> {
        let mut batch = TailBatch {
            committed_offset: self.committed_offset,
            footer: self.footer,
            ..TailBatch::default()
        };
        if self.footer.is_some() {
            return Ok(batch);
        }
        let mut file = match File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(TailError::Missing),
            Err(e) => return Err(e.into()),
        };
        let len = file.metadata()?.len();
        if len < self.committed_offset {
            return Err(TailError::Shrunk {
                committed: self.committed_offset,
                len,
            });
        }
        file.seek(SeekFrom::Start(self.committed_offset))?;
        let mut lines = Lines::new(file);

        // The shared v2 framer reports each line; what remains here are
        // the commit-offset and torn-tail rules.
        let strict = matches!(self.policy, RecoveryPolicy::Strict);
        let budget = self.budget();
        // Scan state: everything since the last commit point is one
        // provisional region, thrown away (and re-read next poll) unless
        // a framing boundary commits it.
        self.framer.discard_open();
        let mut scan_pos = self.committed_offset;
        let mut lineno = self.committed_lineno;
        let mut region_junk: usize = 0;
        let mut partial_tail = false;

        while let Some(raw) = lines.next_line()? {
            scan_pos += raw.len() as u64;
            if raw.last() != Some(&b'\n') {
                // Unterminated final line: the writer is mid-append.
                partial_tail = true;
                break;
            }
            lineno += 1;
            let t = raw.trim_ascii();

            if !self.started {
                if t != FORMAT_V2_MAGIC.as_bytes() {
                    return Err(TailError::NotV2);
                }
                self.started = true;
                self.commit(scan_pos, lineno, &mut batch);
                continue;
            }

            let footer = match self.framer.feed(lineno, t) {
                Frame::Comment => {
                    // Not checksummed: commit it only when nothing
                    // provisional precedes it.
                    if self.framer.pending() == 0 && region_junk == 0 {
                        self.commit(scan_pos, lineno, &mut batch);
                    }
                    continue;
                }
                // Payload is provisional until its chunk verifies. (The
                // tail stops at the footer, so nothing comes after it.)
                Frame::Buffered | Frame::AfterFooter => continue,
                // Unknown, repeated-magic, or malformed directive: junk.
                Frame::Bad(_) => {
                    if strict {
                        let shown = std::str::from_utf8(t).unwrap_or("<non-utf8>");
                        return Err(TailError::Corrupt {
                            line: lineno,
                            reason: format!("bad directive '{shown}'"),
                        });
                    }
                    if self.framer.pending() == 0 {
                        batch.lines_skipped += 1;
                        spend(&mut self.problems, budget, 1)?;
                        self.commit(scan_pos, lineno, &mut batch);
                    } else {
                        region_junk += 1;
                    }
                    continue;
                }
                Frame::Verified(chunk) => {
                    batch.chunks_verified += 1;
                    osn_obs::counter!("ingest.chunks_verified").inc();
                    for (ln, line) in chunk {
                        match parse_payload(line, ln) {
                            Ok(ev) => batch.events.push(convert(ev)),
                            Err(_) if strict => {
                                return Err(TailError::Corrupt {
                                    line: ln,
                                    reason: "unparseable payload line in verified chunk"
                                        .to_string(),
                                });
                            }
                            Err(_) => {
                                batch.lines_skipped += 1;
                                spend(&mut self.problems, budget, 1)?;
                            }
                        }
                    }
                    None
                }
                Frame::Dropped(reason) => {
                    self.drop_chunk(lineno, reason, &mut batch)?;
                    None
                }
                Frame::Footer { dropped, verdict } => {
                    if let Some(reason) = dropped {
                        self.drop_chunk(lineno, reason, &mut batch)?;
                    }
                    match verdict {
                        Err(reason) if strict => {
                            return Err(TailError::Corrupt {
                                line: lineno,
                                reason,
                            })
                        }
                        verdict => Some(verdict.is_ok()),
                    }
                }
            };
            // A chunk directive or the footer closes the provisional
            // region: the junk directives inside it are charged now.
            batch.lines_skipped += region_junk as u64;
            spend(&mut self.problems, budget, std::mem::take(&mut region_junk))?;
            self.commit(scan_pos, lineno, &mut batch);
            if footer.is_some() {
                // Anything after the footer is out of band; stop here
                // for good (`finished()` short-circuits future polls).
                self.footer = footer;
                batch.footer = footer;
                break;
            }
        }

        batch.tail_pending = self.footer.is_none()
            && (partial_tail || self.framer.pending() > 0 || region_junk > 0 || !self.started);
        batch.pending_bytes = scan_pos.saturating_sub(self.committed_offset);
        batch.committed_offset = self.committed_offset;
        if batch.tail_pending {
            osn_obs::counter!("ingest.torn_tail_polls").inc();
        }
        osn_obs::counter!("ingest.events").add(batch.events.len() as u64);
        osn_obs::counter!("ingest.lines_skipped").add(batch.lines_skipped);
        Ok(batch)
    }

    fn commit(&mut self, pos: u64, lineno: usize, batch: &mut TailBatch) {
        osn_obs::counter!("ingest.bytes").add(pos.saturating_sub(self.committed_offset));
        osn_obs::counter!("ingest.lines").add((lineno - self.committed_lineno) as u64);
        self.committed_offset = pos;
        self.committed_lineno = lineno;
        batch.committed_offset = pos;
    }

    /// Account for a chunk the framer dropped: fatal under `Strict`,
    /// otherwise one unit of the error budget however many lines it held
    /// — the same charge as the batch reader's.
    fn drop_chunk(
        &mut self,
        lineno: usize,
        reason: String,
        batch: &mut TailBatch,
    ) -> Result<(), TailError> {
        if matches!(self.policy, RecoveryPolicy::Strict) {
            return Err(TailError::Corrupt {
                line: lineno,
                reason,
            });
        }
        batch.chunks_dropped += 1;
        osn_obs::counter!("ingest.chunks_dropped").inc();
        let budget = self.budget();
        spend(&mut self.problems, budget, 1)
    }
}

/// Count `n` problems against the `Skip` budget.
fn spend(problems: &mut usize, budget: usize, n: usize) -> Result<(), TailError> {
    *problems += n;
    if *problems > budget {
        return Err(TailError::TooManyErrors {
            errors: *problems,
            limit: budget,
        });
    }
    Ok(())
}

fn convert(ev: WalEvent) -> TailEvent {
    match ev.kind {
        WalEventKind::Node(origin) => TailEvent::Node {
            time: Time(ev.time),
            origin,
        },
        WalEventKind::Edge(u, v) => TailEvent::Edge {
            time: Time(ev.time),
            u: NodeId(u),
            v: NodeId(v),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc32::Crc32;
    use crate::io::{read_log_with_policy, write_log_v2_chunked, LogAppender};
    use crate::log::{EventLog, EventLogBuilder};
    use crate::testutil::SlowAppendWriter;
    use std::fs::OpenOptions;
    use std::io::Write;
    use std::time::Duration;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("osn-tail-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tiny_log(days: u64) -> EventLog {
        let mut b = EventLogBuilder::new();
        let mut ids = Vec::new();
        for d in 0..days {
            let t = Time::from_days(d);
            let id = b.add_node(t, Origin::Core).unwrap();
            ids.push(id);
            if ids.len() >= 2 {
                b.add_edge(t.plus_seconds(10), ids[ids.len() - 2], id)
                    .unwrap();
            }
        }
        b.build()
    }

    fn append(path: &Path, bytes: &[u8]) {
        let mut f = OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)
            .unwrap();
        f.write_all(bytes).unwrap();
        f.flush().unwrap();
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

    fn skip() -> RecoveryPolicy {
        RecoveryPolicy::Skip {
            max_errors: usize::MAX,
        }
    }

    #[test]
    fn torn_tail_is_pending_never_quarantined() {
        let dir = scratch("torn");
        let path = dir.join("trace.events");
        append(&path, format!("{FORMAT_V2_MAGIC}\n").as_bytes());
        let mut tail = TailReader::new(&path, skip());

        // Header alone: committed, nothing pending.
        let b = tail.poll().unwrap();
        assert!(b.events.is_empty() && !b.tail_pending && b.chunks_dropped == 0);

        // Payload without its chunk directive: pending, zero drops.
        append(&path, b"N 0 core\nN 10 core\n");
        let b = tail.poll().unwrap();
        assert!(
            b.events.is_empty(),
            "uncommitted chunk must not emit events"
        );
        assert!(b.tail_pending && b.pending_bytes > 0);
        assert_eq!(b.chunks_dropped, 0, "a torn tail is not corruption");

        // Partial *line* at EOF: still pending.
        append(&path, b"E 20 0");
        let b = tail.poll().unwrap();
        assert!(b.tail_pending && b.events.is_empty() && b.chunks_dropped == 0);

        // Finish the line and terminate the chunk: everything commits.
        let mut crc = Crc32::new();
        for line in ["N 0 core", "N 10 core", "E 20 0 1"] {
            crc.update(line.as_bytes());
            crc.update(b"\n");
        }
        append(
            &path,
            format!(" 1\n#%chunk lines=3 crc={:08x}\n", crc.finalize()).as_bytes(),
        );
        let b = tail.poll().unwrap();
        assert_eq!(b.events.len(), 3);
        assert_eq!(b.chunks_verified, 1);
        assert!(!b.tail_pending);
        assert_eq!(tail.problems(), 0);
    }

    #[test]
    fn torn_chunk_directive_is_pending() {
        let dir = scratch("torn-directive");
        let path = dir.join("trace.events");
        append(
            &path,
            format!("{FORMAT_V2_MAGIC}\nN 0 core\n#%chunk lin").as_bytes(),
        );
        let mut tail = TailReader::new(&path, skip());
        let b = tail.poll().unwrap();
        assert!(b.tail_pending && b.events.is_empty() && b.chunks_dropped == 0);
        // The directive completes with the right checksum.
        let crc = crate::crc32::crc32(b"N 0 core\n");
        append(&path, format!("es=1 crc={crc:08x}\n").as_bytes());
        let b = tail.poll().unwrap();
        assert_eq!(b.events.len(), 1);
        assert!(!b.tail_pending);
    }

    #[test]
    fn mid_file_corruption_is_quarantined_and_strict_errors() {
        let dir = scratch("corrupt");
        let path = dir.join("trace.events");
        let good1 = "N 0 core";
        let bad = "N 5 core"; // will be checksummed as something else
        let good2 = "N 20 core";
        let mut text = format!("{FORMAT_V2_MAGIC}\n");
        let chunk = |line: &str| {
            format!(
                "{line}\n#%chunk lines=1 crc={:08x}\n",
                crate::crc32::crc32(format!("{line}\n").as_bytes())
            )
        };
        text.push_str(&chunk(good1));
        // Corrupt: directive present, CRC of different bytes.
        text.push_str(&format!(
            "{bad}\n#%chunk lines=1 crc={:08x}\n",
            crate::crc32::crc32(b"N 6 core\n")
        ));
        text.push_str(&chunk(good2));
        append(&path, text.as_bytes());

        let mut tail = TailReader::new(&path, skip());
        let b = tail.poll().unwrap();
        assert_eq!(b.chunks_dropped, 1, "mid-file CRC failure must quarantine");
        assert_eq!(b.chunks_verified, 2);
        assert_eq!(b.events.len(), 2);
        assert!(!b.tail_pending);
        assert!(tail.problems() > 0);

        let mut strict = TailReader::new(&path, RecoveryPolicy::Strict);
        match strict.poll() {
            Err(TailError::Corrupt { .. }) => {}
            other => panic!("strict tail must fail on corruption, got {other:?}"),
        }
    }

    #[test]
    fn skip_budget_is_enforced() {
        let dir = scratch("budget");
        let path = dir.join("trace.events");
        let mut text = format!("{FORMAT_V2_MAGIC}\n");
        text.push_str("N 0 core\n#%chunk lines=1 crc=00000000\n"); // wrong crc
        append(&path, text.as_bytes());
        let mut tail = TailReader::new(&path, RecoveryPolicy::Skip { max_errors: 0 });
        match tail.poll() {
            Err(TailError::TooManyErrors { .. }) => {}
            other => panic!("budget must trip, got {other:?}"),
        }
    }

    #[test]
    fn dropped_chunk_costs_one_budget_unit_like_the_batch_reader() {
        // Six nodes in 3-line chunks; one line of the second chunk is
        // altered, so that chunk fails its CRC and is dropped whole.
        let dir = scratch("drop-charge");
        let path = dir.join("trace.events");
        let mut b = EventLogBuilder::new();
        for i in 0..6 {
            b.add_node(Time(10 * i), Origin::Core).unwrap();
        }
        let mut bytes = Vec::new();
        write_log_v2_chunked(&b.build(), &mut bytes, 3).unwrap();
        let text = String::from_utf8(bytes)
            .unwrap()
            .replace("N 40 core", "N 41 core");
        append(&path, text.as_bytes());
        let policy = RecoveryPolicy::Skip { max_errors: 2 };

        let (log, report) = read_log_with_policy(text.as_bytes(), &policy).unwrap();
        assert_eq!(log.events().len(), 3);
        assert_eq!(report.chunks_dropped, 1);
        assert_eq!(report.skipped.len(), 1, "the batch reader charges one");

        let mut tail = TailReader::new(&path, policy);
        let b = tail
            .poll()
            .expect("a dropped chunk must cost one unit, not one per line");
        assert_eq!(b.events.len(), 3);
        assert_eq!(b.chunks_dropped, 1);
        assert_eq!(b.footer, Some(false));
        assert_eq!(tail.problems(), 1);
    }

    #[test]
    fn each_poll_is_timed_while_telemetry_is_on() {
        let _gate = osn_obs::test_gate();
        let dir = scratch("poll-us");
        let path = dir.join("trace.events");
        append(&path, format!("{FORMAT_V2_MAGIC}\n").as_bytes());
        let mut tail = TailReader::new(&path, skip());
        let hist = osn_obs::histogram("ingest.poll_us");

        osn_obs::set_enabled(false);
        let before = hist.snapshot().count;
        tail.poll().unwrap();
        assert_eq!(hist.snapshot().count, before, "no timing while off");

        osn_obs::set_enabled(true);
        let before = hist.snapshot().count;
        for _ in 0..3 {
            tail.poll().unwrap();
        }
        assert!(tail.poll().is_ok());
        // Other tests in this binary may poll concurrently while the gate
        // is open, so only a lower bound is exact.
        assert!(hist.snapshot().count - before >= 4);
        osn_obs::set_enabled(false);
    }

    #[test]
    fn footer_completes_the_stream() {
        let dir = scratch("footer");
        let path = dir.join("trace.events");
        let log = tiny_log(4);
        let mut bytes = Vec::new();
        write_log_v2_chunked(&log, &mut bytes, 3).unwrap();
        append(&path, &bytes);
        let mut tail = TailReader::new(&path, skip());
        let b = tail.poll().unwrap();
        assert_eq!(b.footer, Some(true));
        assert_eq!(b.events.len(), log.events().len());
        assert!(tail.finished());
        // Completed streams answer immediately without re-reading.
        let again = tail.poll().unwrap();
        assert!(again.events.is_empty() && again.footer == Some(true));
    }

    #[test]
    fn missing_and_shrunk_files_are_distinct_errors() {
        let dir = scratch("missing");
        let path = dir.join("trace.events");
        let mut tail = TailReader::new(&path, skip());
        assert!(matches!(tail.poll(), Err(TailError::Missing)));

        // A footer-less file (writer still active) that later shrinks
        // below the committed prefix: committed state is invalid.
        let line = "N 0 core";
        append(
            &path,
            format!(
                "{FORMAT_V2_MAGIC}\n{line}\n#%chunk lines=1 crc={:08x}\n",
                crate::crc32::crc32(format!("{line}\n").as_bytes())
            )
            .as_bytes(),
        );
        let b = tail.poll().unwrap();
        assert_eq!(b.events.len(), 1);
        std::fs::write(&path, format!("{FORMAT_V2_MAGIC}\n").as_bytes()).unwrap();
        assert!(matches!(tail.poll(), Err(TailError::Shrunk { .. })));
    }

    #[test]
    fn tailed_events_match_batch_reader() {
        let dir = scratch("differential");
        let path = dir.join("trace.events");
        let log = tiny_log(12);
        let mut bytes = Vec::new();
        write_log_v2_chunked(&log, &mut bytes, 5).unwrap();

        // Feed the file to the tailer in awkward byte-sized increments.
        let mut tail = TailReader::new(&path, skip());
        let mut events = Vec::new();
        for piece in bytes.chunks(37) {
            append(&path, piece);
            events.extend(tail.poll().unwrap().events);
        }
        let rebuilt = build_from(&events);
        let (batch, report) = read_log_with_policy(&bytes[..], &RecoveryPolicy::Strict).unwrap();
        assert!(report.is_clean());
        assert_eq!(rebuilt.fingerprint(), batch.fingerprint());
        assert_eq!(rebuilt.num_nodes(), log.num_nodes());
        assert_eq!(rebuilt.num_edges(), log.num_edges());
        assert_eq!(tail.problems(), 0);
    }

    #[test]
    fn log_appender_output_reads_back_clean() {
        let dir = scratch("appender");
        let path = dir.join("trace.events");
        let log = tiny_log(9);
        let file = File::create(&path).unwrap();
        let mut app = LogAppender::new(file).unwrap();
        app.append_comment("grown incrementally").unwrap();
        for day_events in log.events().chunks(4) {
            app.append_chunk(day_events).unwrap();
        }
        assert_eq!(app.events_written(), log.events().len() as u64);
        app.finish().unwrap();

        let bytes = std::fs::read(&path).unwrap();
        let (read, report) = read_log_with_policy(&bytes[..], &RecoveryPolicy::Strict).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(read.fingerprint(), log.fingerprint());
    }

    #[test]
    fn slow_append_exposes_the_torn_window_deterministically() {
        let dir = scratch("slow");
        let path = dir.join("trace.events");
        append(&path, format!("{FORMAT_V2_MAGIC}\n").as_bytes());

        let line = "N 0 core";
        let chunk = format!(
            "{line}\n#%chunk lines=1 crc={:08x}\n",
            crate::crc32::crc32(format!("{line}\n").as_bytes())
        );
        let file = OpenOptions::new().append(true).open(&path).unwrap();
        let mut w = SlowAppendWriter::new(file, Duration::from_millis(0));

        // Phase one: only the first half of the chunk is on disk.
        let split = w.append_torn(chunk.as_bytes()).unwrap();
        assert!(split > 0 && split < chunk.len());
        let mut tail = TailReader::new(&path, skip());
        let b = tail.poll().unwrap();
        assert!(b.tail_pending, "half-written chunk must read as pending");
        assert_eq!(
            b.chunks_dropped, 0,
            "zero quarantines from an in-progress append"
        );
        assert!(b.events.is_empty());

        // Phase two: the writer finishes its flush; the chunk commits.
        w.complete(chunk.as_bytes(), split).unwrap();
        let b = tail.poll().unwrap();
        assert_eq!(b.events.len(), 1);
        assert_eq!(b.chunks_verified, 1);
        assert!(!b.tail_pending);
        assert_eq!(tail.problems(), 0);
    }
}
