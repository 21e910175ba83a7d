//! Plain-text (de)serialisation of event logs.
//!
//! # Format v1
//!
//! One event per line:
//!
//! ```text
//! # comment lines start with '#'
//! N <seconds> <origin>        # node arrival; ids are implicit (dense)
//! E <seconds> <u> <v>         # edge arrival
//! ```
//!
//! The format is deliberately trivial: it exists so generated traces can be
//! cached on disk and re-analysed without re-running the generator, and so
//! external tools (gnuplot, pandas) can consume them. Origins are encoded
//! as `core`, `competitor`, `postmerge`.
//!
//! # Format v2
//!
//! v2 keeps the event lines byte-identical but frames them with integrity
//! metadata so truncation and bit-flips are detected instead of silently
//! producing a wrong (or differently wrong) analysis:
//!
//! ```text
//! #%osn-events v2
//! # multiscale-osn event log: 3 nodes, 2 edges, 1 days
//! N 0 core
//! E 10 0 1
//! #%chunk lines=2 crc=1a2b3c4d
//! ...more chunks...
//! #%end events=5 crc=5e6f7a8b
//! ```
//!
//! * The first line is the magic [`FORMAT_V2_MAGIC`].
//! * Event lines are grouped into chunks; each chunk is terminated by a
//!   `#%chunk` directive carrying the line count and the CRC-32 of the
//!   chunk's payload (each line's trimmed bytes followed by `\n`).
//! * The `#%end` footer carries the total event count and the CRC-32 over
//!   every payload line in the file. A missing footer means the file was
//!   truncated.
//!
//! Because every directive starts with `#`, a v1 reader that skips
//! comments parses a v2 file correctly (it just cannot verify it), and
//! this module's reader accepts both versions transparently.
//!
//! This reader, [`crate::tail::TailReader`] and the write-ahead log's
//! open-time scan split lines, classify directives, verify chunks and
//! check the footer through one shared framing core; each keeps only its
//! own policy and error wording. The writers here and in
//! [`crate::wal`] write every line through the same core's encoder.
//!
//! # Recovery
//!
//! [`read_log_with_policy`] ingests a stream under a [`RecoveryPolicy`]:
//! `Strict` fails on the first problem (this is what [`read_log`] does),
//! `Skip` drops bad lines and corrupt chunks up to an error budget, and
//! `Repair` additionally re-sorts events that were displaced within a
//! bounded time window and drops self-loops / duplicate edges. All
//! recovery modes return an [`IngestReport`] describing exactly what was
//! kept, skipped, and repaired.

use crate::event::{Event, EventKind, Origin};
use crate::frame::{
    encode_chunk, encode_footer, encode_magic, parse_payload, BadDirective, Frame, Framer, Lines,
    Totals, WalEvent, WalEventKind,
};
use crate::log::{EventLog, EventLogBuilder, LogError};
use crate::time::{NodeId, Time};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use std::io::{self, BufWriter, Read, Write};

pub use crate::frame::{push_decimal, FORMAT_V2_MAGIC};

/// Default number of event lines per v2 chunk.
pub const DEFAULT_CHUNK_LINES: usize = 1024;

/// Errors raised while parsing a textual event log.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line could not be parsed.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// Description of what went wrong.
        reason: String,
    },
    /// The parsed events violated an [`EventLog`] invariant.
    Invalid(LogError),
    /// A v2 integrity check failed (checksum mismatch, missing footer,
    /// bad directive).
    Corrupt {
        /// 1-based line number of the failed check.
        line: usize,
        /// Description of what went wrong.
        reason: String,
    },
    /// Recovery under [`RecoveryPolicy::Skip`] exceeded its error budget.
    TooManyErrors {
        /// Number of errors encountered.
        errors: usize,
        /// The configured budget.
        limit: usize,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "io error: {e}"),
            ParseError::Malformed { line, reason } => write!(f, "line {line}: {reason}"),
            ParseError::Invalid(e) => write!(f, "invalid log: {e}"),
            ParseError::Corrupt { line, reason } => write!(f, "line {line}: corrupt: {reason}"),
            ParseError::TooManyErrors { errors, limit } => {
                write!(
                    f,
                    "recovery gave up: {errors} errors exceed budget of {limit}"
                )
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

impl From<LogError> for ParseError {
    fn from(e: LogError) -> Self {
        ParseError::Invalid(e)
    }
}

/// How [`read_log_with_policy`] responds to malformed, invariant-breaking,
/// or corrupt input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Fail on the first problem. This is [`read_log`]'s behaviour.
    Strict,
    /// Drop bad lines and corrupt chunks, failing only if more than
    /// `max_errors` problems accumulate.
    Skip {
        /// Error budget before giving up with [`ParseError::TooManyErrors`].
        max_errors: usize,
    },
    /// Like `Skip` without an error budget, and additionally: re-sort
    /// events displaced by at most `window` seconds back into time order,
    /// and drop self-loops, duplicate edges, and edges whose endpoints
    /// never materialise.
    Repair {
        /// Maximum displacement (seconds) the reorder buffer absorbs.
        window: u64,
    },
}

/// Why a line was dropped during recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SkipReason {
    /// The line did not parse.
    Malformed(String),
    /// The event broke an [`EventLog`] invariant.
    Invariant(String),
    /// The line belonged to a chunk whose checksum failed.
    CorruptChunk(String),
    /// The line sat in an unterminated chunk at end of stream.
    TruncatedTail,
    /// The line appeared after the `#%end` footer.
    AfterFooter,
}

impl fmt::Display for SkipReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkipReason::Malformed(r) => write!(f, "malformed: {r}"),
            SkipReason::Invariant(r) => write!(f, "invariant: {r}"),
            SkipReason::CorruptChunk(r) => write!(f, "corrupt chunk: {r}"),
            SkipReason::TruncatedTail => write!(f, "unterminated chunk at end of stream"),
            SkipReason::AfterFooter => write!(f, "content after footer"),
        }
    }
}

/// A dropped input line and the reason it was dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedLine {
    /// 1-based line number.
    pub line: usize,
    /// Why it was dropped.
    pub reason: SkipReason,
}

/// A transformation [`RecoveryPolicy::Repair`] applied to keep the log valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairKind {
    /// The event was moved relative to its file position to restore time
    /// order.
    Reordered,
    /// An edge connecting a node to itself was dropped.
    DroppedSelfLoop,
    /// A second copy of an undirected edge was dropped.
    DroppedDuplicateEdge,
    /// An edge referencing a node id that never materialised was dropped.
    DroppedUnknownEndpoint,
    /// The event was displaced further than the reorder window and had to
    /// be dropped.
    DroppedOutOfWindow,
}

impl fmt::Display for RepairKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RepairKind::Reordered => "reordered into time order",
            RepairKind::DroppedSelfLoop => "dropped self-loop",
            RepairKind::DroppedDuplicateEdge => "dropped duplicate edge",
            RepairKind::DroppedUnknownEndpoint => "dropped edge with unknown endpoint",
            RepairKind::DroppedOutOfWindow => "dropped event displaced beyond repair window",
        };
        f.write_str(s)
    }
}

/// A single repair action, anchored to the input line it affected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairAction {
    /// 1-based line number of the affected event.
    pub line: usize,
    /// What was done.
    pub kind: RepairKind,
}

/// What [`read_log_with_policy`] kept, skipped, and repaired.
#[derive(Debug, Clone, Default)]
pub struct IngestReport {
    /// Detected format version (1 or 2).
    pub format_version: u8,
    /// Total lines read from the stream (including comments/directives).
    pub lines_read: u64,
    /// Total bytes read from the stream (including line terminators).
    pub bytes_read: u64,
    /// Events that made it into the returned [`EventLog`].
    pub events_kept: u64,
    /// v2 chunks whose checksum verified.
    pub chunks_verified: u64,
    /// v2 chunks dropped because their checksum or line count mismatched.
    pub chunks_dropped: u64,
    /// Whether the v2 footer was present and its count/CRC matched the
    /// committed payload. Always `false` for v1 input.
    pub footer_verified: bool,
    /// Whether the stream ended before the v2 footer (file truncated).
    pub truncated: bool,
    /// Lines dropped, with reasons.
    pub skipped: Vec<SkippedLine>,
    /// Repairs applied (Repair policy only).
    pub repairs: Vec<RepairAction>,
}

impl IngestReport {
    /// True when the input was ingested without dropping or altering
    /// anything, and (for v2) its footer verified.
    pub fn is_clean(&self) -> bool {
        self.skipped.is_empty()
            && self.repairs.is_empty()
            && self.chunks_dropped == 0
            && !self.truncated
            && (self.format_version < 2 || self.footer_verified)
    }

    /// True when the *only* problems are a growing-file tail: the v2
    /// stream ended before its `#%end` footer and every skipped line was
    /// skipped for [`SkipReason::TruncatedTail`] — i.e. the bytes a live
    /// writer has simply not finished appending yet. Mid-file corruption
    /// (dropped chunks, repairs, any other skip reason) disqualifies.
    /// `osn verify --allow-truncated-tail` and the `osn serve --follow`
    /// preflight treat such a report as acceptable.
    pub fn tail_pending(&self) -> bool {
        self.format_version >= 2
            && self.truncated
            && self.chunks_dropped == 0
            && self.repairs.is_empty()
            && self
                .skipped
                .iter()
                .all(|s| matches!(s.reason, SkipReason::TruncatedTail))
    }

    /// Number of problems the ingest surfaced: skipped lines, applied
    /// repairs, dropped chunks, truncation, and (for v2 input) a footer
    /// that failed to verify. `0` iff [`Self::is_clean`].
    pub fn problem_count(&self) -> u64 {
        self.skipped.len() as u64
            + self.repairs.len() as u64
            + self.chunks_dropped
            + u64::from(self.truncated)
            + u64::from(self.format_version >= 2 && !self.footer_verified && !self.truncated)
    }

    /// Single-line machine-readable JSON rendering (hand-rolled; every
    /// field is a number or boolean, so no string escaping is needed).
    /// Consumed by CI and by the `osn serve` startup preflight.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"format_version\":{},\"lines_read\":{},\"bytes_read\":{},\
             \"events_kept\":{},\
             \"chunks_verified\":{},\"chunks_dropped\":{},\"footer_verified\":{},\
             \"truncated\":{},\"tail_pending\":{},\"lines_skipped\":{},\
             \"repairs_applied\":{},\
             \"problems\":{},\"clean\":{}}}",
            self.format_version,
            self.lines_read,
            self.bytes_read,
            self.events_kept,
            self.chunks_verified,
            self.chunks_dropped,
            self.footer_verified,
            self.truncated,
            self.tail_pending(),
            self.skipped.len(),
            self.repairs.len(),
            self.problem_count(),
            self.is_clean(),
        )
    }

    /// Multi-line human-readable summary (used by `osn verify`).
    pub fn summary(&self) -> String {
        use fmt::Write as _;
        const DETAIL_CAP: usize = 10;
        let mut s = String::new();
        let _ = writeln!(s, "format: v{}", self.format_version);
        let _ = writeln!(s, "lines read: {}", self.lines_read);
        let _ = writeln!(s, "bytes read: {}", self.bytes_read);
        let _ = writeln!(s, "events kept: {}", self.events_kept);
        if self.format_version >= 2 {
            let _ = writeln!(
                s,
                "chunks: {} verified, {} dropped",
                self.chunks_verified, self.chunks_dropped
            );
            let footer = if self.truncated {
                "missing (stream truncated)"
            } else if self.footer_verified {
                "verified"
            } else {
                "MISMATCH"
            };
            let _ = writeln!(s, "footer: {footer}");
        }
        let _ = writeln!(s, "lines skipped: {}", self.skipped.len());
        for sk in self.skipped.iter().take(DETAIL_CAP) {
            let _ = writeln!(s, "  line {}: {}", sk.line, sk.reason);
        }
        if self.skipped.len() > DETAIL_CAP {
            let _ = writeln!(s, "  ... and {} more", self.skipped.len() - DETAIL_CAP);
        }
        let _ = writeln!(s, "repairs applied: {}", self.repairs.len());
        for r in self.repairs.iter().take(DETAIL_CAP) {
            let _ = writeln!(s, "  line {}: {}", r.line, r.kind);
        }
        if self.repairs.len() > DETAIL_CAP {
            let _ = writeln!(s, "  ... and {} more", self.repairs.len() - DETAIL_CAP);
        }
        s
    }
}

/// Write a log in the checksummed v2 format with the default chunk size.
pub fn write_log_v2<W: Write>(log: &EventLog, writer: W) -> io::Result<()> {
    write_log_v2_chunked(log, writer, DEFAULT_CHUNK_LINES)
}

/// Write a log in the checksummed v2 format, `chunk_lines` events per chunk.
pub fn write_log_v2_chunked<W: Write>(
    log: &EventLog,
    writer: W,
    chunk_lines: usize,
) -> io::Result<()> {
    let chunk_lines = chunk_lines.max(1);
    let mut w = BufWriter::new(writer);
    let mut buf = Vec::new();
    encode_magic(&mut buf);
    writeln!(
        buf,
        "# multiscale-osn event log: {} nodes, {} edges, {} days",
        log.num_nodes(),
        log.num_edges(),
        log.end_day() + 1
    )?;
    w.write_all(&buf)?;
    let mut totals = Totals::default();
    for events in log.events().chunks(chunk_lines) {
        buf.clear();
        totals.add(encode_chunk(&mut buf, events.iter().map(line_of)));
        w.write_all(&buf)?;
    }
    buf.clear();
    encode_footer(&mut buf, &totals);
    w.write_all(&buf)?;
    w.flush()
}

/// The payload line `e` is written as.
fn line_of(e: &Event) -> WalEvent {
    match e.kind {
        EventKind::AddNode { origin, .. } => WalEvent::node(e.time.seconds(), origin),
        EventKind::AddEdge { u, v } => WalEvent::edge(e.time.seconds(), u.0, v.0),
    }
}

/// Atomically save a log at `path` in the checksummed v2 format.
pub fn save_log_v2<P: AsRef<std::path::Path>>(log: &EventLog, path: P) -> io::Result<()> {
    crate::atomicfile::write_atomic(path.as_ref(), |w| write_log_v2(log, w))
}

/// Incremental writer for the checksummed v2 format: the append-only
/// producer side of live ingest.
///
/// [`write_log_v2_chunked`] serialises a finished log in one pass; this
/// type produces the identical framing one chunk at a time, so a trace
/// can be grown on disk while `osn serve --follow` tails it. Each
/// appended chunk (payload lines + its `#%chunk` directive) is written
/// with a single `write_all` and flushed, so a tailing reader observes
/// either none of the chunk or all of it — unless the underlying writer
/// itself tears the write, which the torn-tail chaos tests do on purpose
/// via `testutil::SlowAppendWriter`.
#[derive(Debug)]
pub struct LogAppender<W: Write> {
    w: W,
    totals: Totals,
    /// The chunk being appended, reused across calls.
    buf: Vec<u8>,
}

impl<W: Write> LogAppender<W> {
    /// Start a new v2 stream: writes the format magic and flushes.
    pub fn new(mut w: W) -> io::Result<Self> {
        let mut buf = Vec::new();
        encode_magic(&mut buf);
        w.write_all(&buf)?;
        w.flush()?;
        Ok(LogAppender {
            w,
            totals: Totals::default(),
            buf,
        })
    }

    /// Append one comment line (not checksummed; v1 readers skip it too).
    pub fn append_comment(&mut self, text: &str) -> io::Result<()> {
        self.w.write_all(format!("# {text}\n").as_bytes())?;
        self.w.flush()
    }

    /// Append `events` as one checksummed chunk. Empty input is a no-op.
    /// The caller is responsible for overall time-ordering across calls
    /// (readers validate it, exactly as they do for batch-written files).
    pub fn append_chunk(&mut self, events: &[Event]) -> io::Result<()> {
        if events.is_empty() {
            return Ok(());
        }
        self.buf.clear();
        self.totals
            .add(encode_chunk(&mut self.buf, events.iter().map(line_of)));
        self.w.write_all(&self.buf)?;
        self.w.flush()
    }

    /// Events appended so far.
    pub fn events_written(&self) -> u64 {
        self.totals.lines()
    }

    /// Terminate the stream with the `#%end` footer and return the inner
    /// writer. A stream left unfinished reads back as truncated (tail
    /// pending), which is exactly what a live reader expects mid-write.
    pub fn finish(mut self) -> io::Result<W> {
        self.buf.clear();
        encode_footer(&mut self.buf, &self.totals);
        self.w.write_all(&self.buf)?;
        self.w.flush()?;
        Ok(self.w)
    }
}

/// Read a log in either format, strictly (first problem aborts).
pub fn read_log<R: Read>(reader: R) -> Result<EventLog, ParseError> {
    read_log_with_policy(reader, &RecoveryPolicy::Strict).map(|(log, _)| log)
}

/// Read a log in either format under a [`RecoveryPolicy`], returning the
/// events that survived plus an [`IngestReport`] describing what happened.
pub fn read_log_with_policy<R: Read>(
    reader: R,
    policy: &RecoveryPolicy,
) -> Result<(EventLog, IngestReport), ParseError> {
    let _span = osn_obs::span!("ingest.read");
    let result = read_log_with_policy_inner(reader, policy);
    if let Ok((_, report)) = &result {
        osn_obs::counter!("ingest.lines").add(report.lines_read);
        osn_obs::counter!("ingest.bytes").add(report.bytes_read);
        osn_obs::counter!("ingest.events").add(report.events_kept);
        osn_obs::counter!("ingest.chunks_verified").add(report.chunks_verified);
        osn_obs::counter!("ingest.chunks_dropped").add(report.chunks_dropped);
        osn_obs::counter!("ingest.lines_skipped").add(report.skipped.len() as u64);
        osn_obs::counter!("ingest.repairs").add(report.repairs.len() as u64);
    }
    result
}

fn read_log_with_policy_inner<R: Read>(
    reader: R,
    policy: &RecoveryPolicy,
) -> Result<(EventLog, IngestReport), ParseError> {
    let mut lines = Lines::new(reader);
    let mut ing = Ingestor::new(policy);
    let Some(first) = lines.next_line()? else {
        ing.report.format_version = 1;
        return ing.finish();
    };
    ing.report.lines_read = 1;
    ing.report.bytes_read = first.len() as u64;
    let t = first.trim_ascii();
    if t == FORMAT_V2_MAGIC.as_bytes() {
        ing.report.format_version = 2;
        read_v2(lines, ing)
    } else {
        ing.report.format_version = 1;
        ing.v1_line(1, t)?;
        read_v1(lines, ing)
    }
}

fn read_v1<R: Read>(
    mut lines: Lines<R>,
    mut ing: Ingestor<'_>,
) -> Result<(EventLog, IngestReport), ParseError> {
    let mut lineno = 1;
    while let Some(raw) = lines.next_line()? {
        lineno += 1;
        ing.report.lines_read += 1;
        ing.report.bytes_read += raw.len() as u64;
        ing.v1_line(lineno, raw.trim_ascii())?;
    }
    ing.finish()
}

/// Apply the recovery policy to what the shared v2 [`Framer`] reports
/// line by line; lines after the footer are this reader's own concern.
fn read_v2<R: Read>(
    mut lines: Lines<R>,
    mut ing: Ingestor<'_>,
) -> Result<(EventLog, IngestReport), ParseError> {
    let mut framer = Framer::default();
    let mut lineno = 1usize; // the magic line
    while let Some(raw) = lines.next_line()? {
        lineno += 1;
        ing.report.lines_read += 1;
        ing.report.bytes_read += raw.len() as u64;
        match framer.feed(lineno, raw.trim_ascii()) {
            Frame::Comment | Frame::Buffered => {}
            Frame::AfterFooter => ing.after_footer(lineno)?,
            Frame::Verified(chunk) => {
                ing.report.chunks_verified += 1;
                for (ln, line) in chunk {
                    ing.payload_line(ln, line)?;
                }
            }
            Frame::Dropped(reason) => ing.drop_chunk(lineno, reason)?,
            Frame::Footer { dropped, verdict } => {
                if let Some(reason) = dropped {
                    ing.drop_chunk(lineno, reason)?;
                }
                match verdict {
                    Err(reason) if matches!(ing.policy, RecoveryPolicy::Strict) => {
                        return Err(ParseError::Corrupt {
                            line: lineno,
                            reason,
                        });
                    }
                    verdict => ing.report.footer_verified = verdict.is_ok(),
                }
            }
            Frame::Bad(bad) => {
                let reason = match bad {
                    BadDirective::NotUtf8 => "directive is not valid utf-8".to_string(),
                    BadDirective::Chunk(d) => format!("bad chunk directive '{d}'"),
                    BadDirective::End(d) => format!("bad end directive '{d}'"),
                    BadDirective::Magic => "repeated format magic".to_string(),
                    BadDirective::Unknown(d) => format!("unknown directive '{d}'"),
                };
                ing.corrupt(lineno, reason)?;
            }
        }
    }
    if !framer.footer_seen() {
        ing.report.truncated = true;
        if matches!(ing.policy, RecoveryPolicy::Strict) {
            return Err(ParseError::Corrupt {
                line: lineno,
                reason: "stream truncated: missing #%end footer".to_string(),
            });
        }
        for ln in framer.pending_lines() {
            ing.skip(ln, SkipReason::TruncatedTail)?;
        }
    }
    ing.finish()
}

/// An event buffered in the Repair reorder heap. Ordered by `(time, seq)`
/// so ties keep their original file order (stable sort).
#[derive(Debug, Clone, Copy)]
struct Pending {
    time: u64,
    seq: u64,
    lineno: usize,
    kind: PendingKind,
}

#[derive(Debug, Clone, Copy)]
enum PendingKind {
    Node { origin: Origin, raw_id: u32 },
    Edge { u: u32, v: u32 },
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Applies a [`RecoveryPolicy`] to the parsed event stream.
///
/// Under `Repair`, node ids need care: the on-disk format gives nodes
/// implicit dense ids in *file* order, so re-sorting `N` lines changes the
/// ids later `E` lines refer to. The ingestor therefore assigns each `N`
/// line a *raw* id at read time and remaps raw ids to the post-sort dense
/// ids as nodes are committed; edges whose endpoints have not materialised
/// by the time the edge is committed are dropped and reported.
struct Ingestor<'p> {
    policy: &'p RecoveryPolicy,
    builder: EventLogBuilder,
    report: IngestReport,
    errors: usize,
    // Repair state.
    heap: BinaryHeap<std::cmp::Reverse<Pending>>,
    remap: Vec<Option<NodeId>>,
    max_time: u64,
    seq: u64,
    max_seq_applied: Option<u64>,
    last_applied_time: u64,
}

impl<'p> Ingestor<'p> {
    fn new(policy: &'p RecoveryPolicy) -> Self {
        Ingestor {
            policy,
            builder: EventLogBuilder::new(),
            report: IngestReport::default(),
            errors: 0,
            heap: BinaryHeap::new(),
            remap: Vec::new(),
            max_time: 0,
            seq: 0,
            max_seq_applied: None,
            last_applied_time: 0,
        }
    }

    /// Record a dropped line, enforcing `Skip`'s error budget.
    fn skip(&mut self, line: usize, reason: SkipReason) -> Result<(), ParseError> {
        self.report.skipped.push(SkippedLine { line, reason });
        self.errors += 1;
        if let RecoveryPolicy::Skip { max_errors } = *self.policy {
            if self.errors > max_errors {
                return Err(ParseError::TooManyErrors {
                    errors: self.errors,
                    limit: max_errors,
                });
            }
        }
        Ok(())
    }

    /// Handle a v2 framing problem: fatal under Strict, recorded otherwise.
    fn corrupt(&mut self, line: usize, reason: String) -> Result<(), ParseError> {
        if matches!(self.policy, RecoveryPolicy::Strict) {
            return Err(ParseError::Corrupt { line, reason });
        }
        self.skip(line, SkipReason::CorruptChunk(reason))
    }

    /// Account for a chunk the framer dropped (checksum or line-count
    /// mismatch, or no directive before the footer): one problem.
    fn drop_chunk(&mut self, marker_line: usize, reason: String) -> Result<(), ParseError> {
        if matches!(self.policy, RecoveryPolicy::Strict) {
            return Err(ParseError::Corrupt {
                line: marker_line,
                reason,
            });
        }
        self.report.chunks_dropped += 1;
        self.skip(marker_line, SkipReason::CorruptChunk(reason))
    }

    fn after_footer(&mut self, line: usize) -> Result<(), ParseError> {
        if matches!(self.policy, RecoveryPolicy::Strict) {
            return Err(ParseError::Corrupt {
                line,
                reason: "event line after #%end footer".to_string(),
            });
        }
        self.skip(line, SkipReason::AfterFooter)
    }

    /// A trimmed v1 line: comments and blanks are skipped, anything else
    /// is a payload line.
    fn v1_line(&mut self, lineno: usize, t: &[u8]) -> Result<(), ParseError> {
        if t.is_empty() || t[0] == b'#' {
            return Ok(());
        }
        self.payload_line(lineno, t)
    }

    /// Ingest one committed payload line under the active policy.
    fn payload_line(&mut self, lineno: usize, bytes: &[u8]) -> Result<(), ParseError> {
        let raw = match parse_payload(bytes, lineno) {
            Ok(raw) => raw,
            Err(err) => return self.parse_failure(lineno, err),
        };
        match self.policy {
            RecoveryPolicy::Strict => self.apply_direct(lineno, raw),
            RecoveryPolicy::Skip { .. } => match self.apply_direct(lineno, raw) {
                Ok(()) => Ok(()),
                Err(ParseError::Invalid(e)) => {
                    self.skip(lineno, SkipReason::Invariant(e.to_string()))
                }
                Err(e) => Err(e),
            },
            RecoveryPolicy::Repair { window } => {
                let window = *window;
                self.buffer_for_repair(lineno, raw);
                self.drain_ready(window)
            }
        }
    }

    fn parse_failure(&mut self, lineno: usize, err: ParseError) -> Result<(), ParseError> {
        match self.policy {
            RecoveryPolicy::Strict => Err(err),
            _ => self.skip(lineno, SkipReason::Malformed(err.to_string())),
        }
    }

    /// Strict/Skip path: feed the builder immediately.
    fn apply_direct(&mut self, _lineno: usize, raw: WalEvent) -> Result<(), ParseError> {
        match raw.kind {
            WalEventKind::Node(origin) => {
                self.builder.add_node(Time(raw.time), origin)?;
            }
            WalEventKind::Edge(u, v) => {
                self.builder
                    .add_edge(Time(raw.time), NodeId(u), NodeId(v))?;
            }
        }
        Ok(())
    }

    /// Repair path: stamp the event with a sequence number (and nodes with
    /// their raw file-order id) and push it into the reorder heap.
    fn buffer_for_repair(&mut self, lineno: usize, raw: WalEvent) {
        let kind = match raw.kind {
            WalEventKind::Node(origin) => {
                let raw_id = self.remap.len() as u32;
                self.remap.push(None);
                PendingKind::Node { origin, raw_id }
            }
            WalEventKind::Edge(u, v) => PendingKind::Edge { u, v },
        };
        let p = Pending {
            time: raw.time,
            seq: self.seq,
            lineno,
            kind,
        };
        self.seq += 1;
        self.max_time = self.max_time.max(raw.time);
        self.heap.push(std::cmp::Reverse(p));
    }

    /// Release buffered events that can no longer be displaced by future
    /// input (their time is more than `window` behind the newest seen).
    fn drain_ready(&mut self, window: u64) -> Result<(), ParseError> {
        while let Some(std::cmp::Reverse(top)) = self.heap.peek().copied() {
            if top.time.saturating_add(window) >= self.max_time {
                break;
            }
            self.heap.pop();
            self.apply_repaired(top)?;
        }
        Ok(())
    }

    /// Commit one event popped from the reorder heap, remapping node ids
    /// and dropping whatever would break an [`EventLog`] invariant.
    fn apply_repaired(&mut self, p: Pending) -> Result<(), ParseError> {
        if let Some(max_seq) = self.max_seq_applied {
            if p.seq < max_seq {
                self.report.repairs.push(RepairAction {
                    line: p.lineno,
                    kind: RepairKind::Reordered,
                });
            }
        }
        self.max_seq_applied = Some(self.max_seq_applied.map_or(p.seq, |m| m.max(p.seq)));
        if p.time < self.last_applied_time {
            // Displaced further than the reorder window could absorb.
            self.report.repairs.push(RepairAction {
                line: p.lineno,
                kind: RepairKind::DroppedOutOfWindow,
            });
            return Ok(());
        }
        match p.kind {
            PendingKind::Node { origin, raw_id } => {
                let id = self.builder.add_node(Time(p.time), origin)?;
                self.remap[raw_id as usize] = Some(id);
            }
            PendingKind::Edge { u, v } => {
                let u_new = self.remap.get(u as usize).copied().flatten();
                let v_new = self.remap.get(v as usize).copied().flatten();
                let (u_new, v_new) = match (u_new, v_new) {
                    (Some(a), Some(b)) => (a, b),
                    _ => {
                        self.report.repairs.push(RepairAction {
                            line: p.lineno,
                            kind: RepairKind::DroppedUnknownEndpoint,
                        });
                        return Ok(());
                    }
                };
                if u_new == v_new {
                    self.report.repairs.push(RepairAction {
                        line: p.lineno,
                        kind: RepairKind::DroppedSelfLoop,
                    });
                    return Ok(());
                }
                if self.builder.has_edge(u_new, v_new) {
                    self.report.repairs.push(RepairAction {
                        line: p.lineno,
                        kind: RepairKind::DroppedDuplicateEdge,
                    });
                    return Ok(());
                }
                self.builder.add_edge(Time(p.time), u_new, v_new)?;
            }
        }
        self.last_applied_time = p.time;
        Ok(())
    }

    fn finish(mut self) -> Result<(EventLog, IngestReport), ParseError> {
        // Drain whatever the reorder window still holds, in (time, seq)
        // order.
        while let Some(std::cmp::Reverse(p)) = self.heap.pop() {
            self.apply_repaired(p)?;
        }
        self.report.events_kept = self.builder.num_nodes() as u64 + self.builder.num_edges();
        let log = self.builder.build();
        let mut report = self.report;
        if report.format_version == 0 {
            report.format_version = 1;
        }
        Ok((log, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn ingest_report_json_is_single_line_and_tracks_problems() {
        let clean = IngestReport {
            format_version: 2,
            lines_read: 10,
            events_kept: 8,
            chunks_verified: 2,
            footer_verified: true,
            ..IngestReport::default()
        };
        assert!(clean.is_clean());
        assert_eq!(clean.problem_count(), 0);
        let json = clean.to_json();
        assert!(!json.contains('\n'), "must be a single line: {json}");
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"format_version\":2"));
        assert!(json.contains("\"events_kept\":8"));
        assert!(json.contains("\"clean\":true"));
        assert!(json.contains("\"problems\":0"));

        let dirty = IngestReport {
            format_version: 2,
            lines_read: 10,
            events_kept: 5,
            chunks_dropped: 1,
            truncated: true,
            skipped: vec![SkippedLine {
                line: 3,
                reason: SkipReason::TruncatedTail,
            }],
            ..IngestReport::default()
        };
        assert_eq!(dirty.problem_count(), 3);
        let json = dirty.to_json();
        assert!(json.contains("\"clean\":false"));
        assert!(json.contains("\"problems\":3"));
        assert!(json.contains("\"truncated\":true"));

        // A v2 stream whose footer failed (not truncated) is one problem.
        let bad_footer = IngestReport {
            format_version: 2,
            ..IngestReport::default()
        };
        assert_eq!(bad_footer.problem_count(), 1);
    }

    fn sample() -> EventLog {
        let mut b = EventLogBuilder::new();
        let a = b.add_node(Time(0), Origin::Core).unwrap();
        let c = b.add_node(Time(5), Origin::Competitor).unwrap();
        let d = b.add_node(Time(9), Origin::PostMerge).unwrap();
        b.add_edge(Time(10), a, c).unwrap();
        b.add_edge(Time(12), d, a).unwrap();
        b.build()
    }

    fn assert_logs_equal(a: &EventLog, b: &EventLog) {
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.events().len(), b.events().len());
        for (x, y) in a.events().iter().zip(b.events()) {
            assert_eq!(x.time, y.time);
            match (x.kind, y.kind) {
                (EventKind::AddNode { origin: oa, .. }, EventKind::AddNode { origin: ob, .. }) => {
                    assert_eq!(oa, ob)
                }
                (EventKind::AddEdge { u: ua, v: va }, EventKind::AddEdge { u: ub, v: vb }) => {
                    assert_eq!((ua, va), (ub, vb))
                }
                _ => panic!("kind mismatch"),
            }
        }
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "# header\n\nN 0 core\nN 1 core\nE 2 0 1\n";
        let log = read_log(text.as_bytes()).unwrap();
        assert_eq!(log.num_nodes(), 2);
        assert_eq!(log.num_edges(), 1);
    }

    #[test]
    fn bad_tag_rejected() {
        let err = read_log("X 0 core\n".as_bytes()).unwrap_err();
        assert!(matches!(err, ParseError::Malformed { line: 1, .. }));
    }

    #[test]
    fn bad_origin_rejected() {
        let err = read_log("N 0 martian\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("unknown origin"));
    }

    #[test]
    fn invalid_log_rejected() {
        // edge before nodes exist
        let err = read_log("E 0 0 1\n".as_bytes()).unwrap_err();
        assert!(matches!(err, ParseError::Invalid(_)));
    }

    #[test]
    fn trailing_tokens_rejected() {
        let err = read_log("N 0 core extra\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("trailing"));
    }

    // ---- v2 format ----

    #[test]
    fn v2_roundtrip() {
        let log = sample();
        let mut buf = Vec::new();
        write_log_v2(&log, &mut buf).unwrap();
        let (parsed, report) = read_log_with_policy(&buf[..], &RecoveryPolicy::Strict).unwrap();
        assert_logs_equal(&parsed, &log);
        assert_eq!(report.format_version, 2);
        assert!(report.footer_verified);
        assert!(report.is_clean());
        assert_eq!(report.events_kept, 5);
    }

    #[test]
    fn v2_roundtrip_small_chunks() {
        let log = sample();
        let mut buf = Vec::new();
        write_log_v2_chunked(&log, &mut buf, 2).unwrap();
        let (parsed, report) = read_log_with_policy(&buf[..], &RecoveryPolicy::Strict).unwrap();
        assert_logs_equal(&parsed, &log);
        assert_eq!(report.chunks_verified, 3);
    }

    #[test]
    fn v2_readable_by_v1_semantics() {
        // Directives all start with '#', so treating them as comments must
        // yield the same events. (This is the backward-compat guarantee.)
        let log = sample();
        let mut buf = Vec::new();
        write_log_v2(&log, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let stripped: String = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| format!("{l}\n"))
            .collect();
        let (parsed, report) =
            read_log_with_policy(stripped.as_bytes(), &RecoveryPolicy::Strict).unwrap();
        assert_eq!(report.format_version, 1);
        assert_logs_equal(&parsed, &log);
    }

    #[test]
    fn v2_truncation_detected() {
        let log = sample();
        let mut buf = Vec::new();
        write_log_v2(&log, &mut buf).unwrap();
        // Cut the footer off.
        let text = String::from_utf8(buf).unwrap();
        let cut = text.rfind("#%end").unwrap();
        let err = read_log(&text.as_bytes()[..cut]).unwrap_err();
        assert!(matches!(err, ParseError::Corrupt { .. }), "got {err}");
        assert!(err.to_string().contains("truncated"));
    }

    #[test]
    fn v2_bit_flip_detected_strict() {
        let log = sample();
        let mut buf = Vec::new();
        write_log_v2(&log, &mut buf).unwrap();
        // Corrupt a digit inside an event line ("E 10 0 1" -> "E 10 0 2"):
        // still parseable, so only the checksum can catch it.
        let text = String::from_utf8(buf)
            .unwrap()
            .replace("E 10 0 1", "E 10 0 2");
        let err = read_log(text.as_bytes()).unwrap_err();
        assert!(matches!(err, ParseError::Corrupt { .. }), "got {err}");
        assert!(err.to_string().contains("checksum"));
    }

    #[test]
    fn v2_footer_event_count_is_checked() {
        // The CRC still matches: only the declared count is wrong.
        let log = sample();
        let mut buf = Vec::new();
        write_log_v2(&log, &mut buf).unwrap();
        let text = String::from_utf8(buf)
            .unwrap()
            .replace("#%end events=5 ", "#%end events=6 ");
        let err = read_log(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("footer mismatch"), "got {err}");
        let (_, report) =
            read_log_with_policy(text.as_bytes(), &RecoveryPolicy::Skip { max_errors: 0 }).unwrap();
        assert!(!report.footer_verified && !report.is_clean());
    }

    #[test]
    fn v2_corrupt_chunk_dropped_under_skip() {
        let log = sample();
        let mut buf = Vec::new();
        write_log_v2_chunked(&log, &mut buf, 1).unwrap();
        let text = String::from_utf8(buf)
            .unwrap()
            .replace("E 10 0 1", "E 10 0 2");
        let (parsed, report) =
            read_log_with_policy(text.as_bytes(), &RecoveryPolicy::Skip { max_errors: 8 }).unwrap();
        // The corrupted chunk held one edge; everything else survives.
        assert_eq!(parsed.num_nodes(), 3);
        assert_eq!(parsed.num_edges(), 1);
        assert_eq!(report.chunks_dropped, 1);
        assert_eq!(report.chunks_verified, 4);
        assert!(
            !report.footer_verified,
            "dropped payload cannot match footer crc"
        );
        assert!(!report.is_clean());
    }

    #[test]
    fn skip_budget_enforced() {
        let text = "N 0 core\nX 1 junk\nX 2 junk\nX 3 junk\n";
        let err = read_log_with_policy(text.as_bytes(), &RecoveryPolicy::Skip { max_errors: 2 })
            .unwrap_err();
        assert!(matches!(
            err,
            ParseError::TooManyErrors {
                errors: 3,
                limit: 2
            }
        ));
        let (log, report) =
            read_log_with_policy(text.as_bytes(), &RecoveryPolicy::Skip { max_errors: 3 }).unwrap();
        assert_eq!(log.num_nodes(), 1);
        assert_eq!(report.skipped.len(), 3);
    }

    #[test]
    fn skip_drops_invariant_violations() {
        // Self-loop and duplicate edge are invariant errors, not parse
        // errors.
        let text = "N 0 core\nN 0 core\nE 1 0 0\nE 2 0 1\nE 3 0 1\n";
        let (log, report) =
            read_log_with_policy(text.as_bytes(), &RecoveryPolicy::Skip { max_errors: 4 }).unwrap();
        assert_eq!(log.num_nodes(), 2);
        assert_eq!(log.num_edges(), 1);
        assert_eq!(report.skipped.len(), 2);
        assert!(report
            .skipped
            .iter()
            .all(|s| matches!(s.reason, SkipReason::Invariant(_))));
    }

    /// A refused event never happened, so it cannot move the clock: the
    /// lines after a refused edge are checked against the last accepted
    /// line, not against it.
    #[test]
    fn a_refused_edge_leaves_the_clock_alone() {
        let text = "N 0 core\nN 0 core\nE 500 0 7\nE 100 0 1\nN 200 core\n";
        let (log, report) =
            read_log_with_policy(text.as_bytes(), &RecoveryPolicy::Skip { max_errors: 4 }).unwrap();
        assert_eq!((log.num_nodes(), log.num_edges()), (3, 1));
        assert_eq!(report.skipped.len(), 1, "{:?}", report.skipped);
        assert_eq!(report.skipped[0].line, 3);
        assert_eq!(log.end_time(), Time(200));
    }

    #[test]
    fn repair_reorders_within_window() {
        // The two nodes arrive out of time order; a 10-second window
        // restores them. Note ids remap: the t=0 node becomes id 0.
        let text = "N 5 competitor\nN 0 core\nE 6 0 1\n";
        let (log, report) =
            read_log_with_policy(text.as_bytes(), &RecoveryPolicy::Repair { window: 10 }).unwrap();
        assert_eq!(log.num_nodes(), 2);
        assert_eq!(log.num_edges(), 1);
        assert_eq!(log.origin(NodeId(0)), Origin::Core);
        assert_eq!(log.origin(NodeId(1)), Origin::Competitor);
        assert_eq!(log.join_time(NodeId(0)), Time(0));
        assert!(report
            .repairs
            .iter()
            .any(|r| r.kind == RepairKind::Reordered));
        // The edge "E 6 0 1" referred to raw ids (file order): raw 0 is the
        // competitor node, raw 1 the core node. After remap it connects the
        // same two actual nodes.
        let edges: Vec<_> = log.edge_events().collect();
        assert_eq!(edges, vec![(Time(6), NodeId(0), NodeId(1))]);
    }

    #[test]
    fn repair_drops_self_loops_and_duplicates() {
        let text = "N 0 core\nN 1 core\nE 2 0 0\nE 3 0 1\nE 4 1 0\n";
        let (log, report) =
            read_log_with_policy(text.as_bytes(), &RecoveryPolicy::Repair { window: 0 }).unwrap();
        assert_eq!(log.num_edges(), 1);
        let kinds: Vec<_> = report.repairs.iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&RepairKind::DroppedSelfLoop));
        assert!(kinds.contains(&RepairKind::DroppedDuplicateEdge));
    }

    #[test]
    fn repair_drops_unknown_endpoints() {
        let text = "N 0 core\nE 1 0 7\n";
        let (log, report) =
            read_log_with_policy(text.as_bytes(), &RecoveryPolicy::Repair { window: 0 }).unwrap();
        assert_eq!(log.num_edges(), 0);
        assert!(report
            .repairs
            .iter()
            .any(|r| r.kind == RepairKind::DroppedUnknownEndpoint));
    }

    #[test]
    fn repair_drops_beyond_window() {
        // The t=0 node is displaced 100s but the window only absorbs 5s.
        let text = "N 50 core\nN 100 core\nN 200 core\nN 0 core\nN 300 core\n";
        let (log, report) =
            read_log_with_policy(text.as_bytes(), &RecoveryPolicy::Repair { window: 5 }).unwrap();
        assert_eq!(log.num_nodes(), 4);
        assert!(report
            .repairs
            .iter()
            .any(|r| r.kind == RepairKind::DroppedOutOfWindow));
    }

    #[test]
    fn repair_on_clean_input_is_identity() {
        let log = sample();
        let mut buf = Vec::new();
        write_log_v2(&log, &mut buf).unwrap();
        let (parsed, report) =
            read_log_with_policy(&buf[..], &RecoveryPolicy::Repair { window: 60 }).unwrap();
        assert_logs_equal(&parsed, &log);
        assert!(
            report.is_clean(),
            "clean input should need no repairs: {report:?}"
        );
    }

    #[test]
    fn report_summary_mentions_key_facts() {
        let text = "N 0 core\nX 1 junk\n";
        let (_, report) =
            read_log_with_policy(text.as_bytes(), &RecoveryPolicy::Skip { max_errors: 5 }).unwrap();
        let s = report.summary();
        assert!(s.contains("format: v1"));
        assert!(s.contains("events kept: 1"));
        assert!(s.contains("lines skipped: 1"));
        assert!(s.contains("unknown record tag"));
    }

    #[test]
    fn empty_input_is_empty_log() {
        let (log, report) = read_log_with_policy(&b""[..], &RecoveryPolicy::Strict).unwrap();
        assert_eq!(log.num_nodes(), 0);
        assert_eq!(report.lines_read, 0);
    }

    #[test]
    fn interrupted_reads_are_retried() {
        struct Stutter<'a> {
            data: &'a [u8],
            pos: usize,
            tick: u32,
        }
        impl Read for Stutter<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.tick += 1;
                if self.tick % 2 == 1 {
                    return Err(io::Error::new(io::ErrorKind::Interrupted, "signal"));
                }
                let n = 3.min(self.data.len() - self.pos).min(buf.len());
                buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }
        let log = sample();
        let mut buf = Vec::new();
        write_log_v2(&log, &mut buf).unwrap();
        let r = Stutter {
            data: &buf,
            pos: 0,
            tick: 0,
        };
        let (parsed, report) = read_log_with_policy(r, &RecoveryPolicy::Strict).unwrap();
        assert_logs_equal(&parsed, &log);
        assert!(report.is_clean());
    }
}
