//! Write-ahead log for the durable write plane.
//!
//! A [`Wal`] owns one v2 trace file (the file `osn serve --follow` tails)
//! plus a sidecar directory of WAL *segments*. Every accepted batch is:
//!
//! 1. serialised as one v2 chunk (payload lines + `#%chunk` directive) and
//!    appended to the active segment in a single `write(2)`, preceded by a
//!    self-checksummed *batch marker* comment that records the sequence
//!    number and idempotency key;
//! 2. made durable by a **group-commit** `fdatasync` — concurrent appenders
//!    elect a leader that syncs once for every batch written so far;
//! 3. only then applied to the trace file (same chunk bytes, no marker), so
//!    the trace never contains a chunk the WAL could lose. The live head
//!    picks the chunk up through the ordinary [`crate::tail::TailReader`]
//!    poll path — the write plane needs no new ingest machinery.
//!
//! A `kill -9` at any byte therefore leaves: a torn segment tail (truncated
//! on reopen; the batch was never acknowledged), a WAL chunk missing from
//! the trace (re-applied on reopen from the segment), or a torn trace tail
//! (truncated on reopen; re-applied from the segment). In every case the
//! client's retry with the same `Idempotency-Key` is deduplicated against
//! the marker window rebuilt from the retained segments, so at-least-once
//! clients never double-apply and acknowledged events are never lost.
//!
//! On clean shutdown [`Wal::seal`] writes `#%end` footers to both the
//! segment and the trace, leaving the trace a strict-clean batch-readable
//! merged log; the next `open` *unseals* the trace (drops the footer) so
//! tailing and appending can resume.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::atomicfile::write_bytes_atomic;
use crate::crc32::crc32;
use crate::frame::{
    encode_chunk, encode_directive, encode_footer, encode_magic, parse_payload, push_decimal,
    push_hex8, BadDirective, Frame, Framer, Lines, Totals, FORMAT_V2_MAGIC,
};

pub use crate::frame::{WalEvent, WalEventKind};

/// Tuning knobs for a [`Wal`].
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// `fdatasync` segments before acknowledging (group-commit). Disable
    /// only for benchmarks and tests; without it a crash can lose
    /// acknowledged batches.
    pub fsync: bool,
    /// Rotate the active segment once it grows past this many bytes.
    pub rotate_bytes: u64,
    /// Keep this many sealed segments behind the active one; older
    /// fully-applied segments are pruned. The idempotency window only
    /// covers retained segments.
    pub retain_segments: usize,
    /// Maximum number of idempotency keys remembered in memory.
    pub idem_window: usize,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            fsync: true,
            rotate_bytes: 4 << 20,
            retain_segments: 4,
            idem_window: 65_536,
        }
    }
}

/// Errors from the write-ahead log.
#[derive(Debug)]
pub enum WalError {
    Io(io::Error),
    /// Mid-file damage (not a torn tail). The WAL refuses to open; a torn
    /// tail can only ever be the *last* region of a file.
    Corrupt {
        path: PathBuf,
        line: usize,
        reason: String,
    },
    /// The log was sealed (clean shutdown in progress).
    Sealed,
    /// Batch violates the global time order.
    OutOfOrder {
        time: u64,
        last: u64,
    },
    /// Batch contains an invalid event.
    BadEvent {
        index: usize,
        reason: String,
    },
    /// Idempotency key is malformed (whitespace / too long / non-ASCII).
    BadKey(String),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Corrupt { path, line, reason } => {
                write!(f, "wal corrupt: {}:{line}: {reason}", path.display())
            }
            WalError::Sealed => write!(f, "wal is sealed"),
            WalError::OutOfOrder { time, last } => write!(
                f,
                "batch out of order: event time {time} precedes log end {last}"
            ),
            WalError::BadEvent { index, reason } => {
                write!(f, "bad event at index {index}: {reason}")
            }
            WalError::BadKey(k) => write!(f, "bad idempotency key {k:?}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Acknowledgement for an accepted (or deduplicated) batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalAck {
    /// Sequence number assigned when the batch was first committed.
    pub seq: u64,
    /// Events in the batch.
    pub events: u64,
    /// True when the batch was already committed under the same
    /// idempotency key and nothing was written.
    pub duplicate: bool,
}

/// What [`Wal::open`] found and repaired.
#[derive(Debug, Clone, Default)]
pub struct WalOpenReport {
    /// Torn bytes truncated from the trace tail.
    pub trace_truncated_bytes: u64,
    /// Torn bytes truncated from the active segment tail.
    pub wal_truncated_bytes: u64,
    /// The trace had a `#%end` footer that was removed so appends and
    /// tailing can resume.
    pub trace_unsealed: bool,
    /// Segments retained on disk after recovery.
    pub segments: usize,
    /// Durable WAL chunks that were missing from the trace and re-applied.
    pub replayed_chunks: u64,
    /// Events re-applied to the trace.
    pub replayed_events: u64,
    /// Idempotency keys rebuilt from segment markers.
    pub keys_loaded: usize,
    /// Next sequence number that will be assigned.
    pub next_seq: u64,
}

impl WalOpenReport {
    /// One-line human summary for the serve preflight banner.
    pub fn summary(&self) -> String {
        format!(
            "wal: {} segment(s), next seq {}, {} key(s) in window, replayed {} chunk(s)/{} event(s){}{}",
            self.segments,
            self.next_seq,
            self.keys_loaded,
            self.replayed_chunks,
            self.replayed_events,
            if self.trace_unsealed {
                ", unsealed trace"
            } else {
                ""
            },
            if self.trace_truncated_bytes + self.wal_truncated_bytes > 0 {
                ", truncated torn tail"
            } else {
                ""
            },
        )
    }
}

/// Point-in-time counters for admission control and `/metrics`.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalStats {
    pub appends: u64,
    pub duplicates: u64,
    pub fsyncs: u64,
    pub sync_waiters: u64,
    pub last_seq: u64,
}

/// Default WAL directory for a trace: `<trace>.wal/`.
pub fn wal_dir_for(trace: &Path) -> PathBuf {
    let mut os = trace.as_os_str().to_os_string();
    os.push(".wal");
    PathBuf::from(os)
}

fn segment_name(index: u64) -> String {
    format!("seg-{index:06}.log")
}

/// Segment files in `dir`, sorted by index.
pub fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = match name.to_str() {
            Some(n) => n,
            None => continue,
        };
        if let Some(idx) = name
            .strip_prefix("seg-")
            .and_then(|r| r.strip_suffix(".log"))
            .and_then(|r| r.parse::<u64>().ok())
        {
            out.push((idx, entry.path()));
        }
    }
    out.sort_by_key(|(i, _)| *i);
    Ok(out)
}

/// Maximum accepted idempotency-key length.
pub const MAX_KEY_LEN: usize = 128;

/// Validate a client-supplied idempotency key: printable ASCII, no
/// whitespace (keys are embedded in space-delimited marker comments).
pub fn validate_key(key: &str) -> Result<(), WalError> {
    if key.is_empty()
        || key.len() > MAX_KEY_LEN
        || key == "-"
        || !key.bytes().all(|b| b.is_ascii_graphic())
    {
        return Err(WalError::BadKey(key.to_string()));
    }
    Ok(())
}

/// Append `# batch seq=<n> key=<k> events=<n> mark=<crc>` — the marker
/// comment written immediately before each segment chunk, in the same
/// `write(2)`. The `mark` CRC (of the text between `# batch ` and
/// ` mark=`) makes the marker self-checking: a torn or damaged marker is
/// indistinguishable from an ordinary comment and is ignored.
fn encode_marker(buf: &mut Vec<u8>, seq: u64, key: Option<&str>, events: u64) {
    buf.extend_from_slice(b"# batch ");
    let body = buf.len();
    buf.extend_from_slice(b"seq=");
    push_decimal(buf, seq);
    buf.extend_from_slice(b" key=");
    buf.extend_from_slice(key.unwrap_or("-").as_bytes());
    buf.extend_from_slice(b" events=");
    push_decimal(buf, events);
    let mark = crc32(&buf[body..]);
    buf.extend_from_slice(b" mark=");
    push_hex8(buf, mark);
    buf.push(b'\n');
}

/// Parse a trimmed comment line as a batch marker; `None` when it is an
/// ordinary comment (including damaged markers — the CRC must match).
fn parse_marker(t: &str) -> Option<(u64, Option<String>, u64)> {
    let rest = t.strip_prefix("# batch ")?;
    let (body, mark) = rest.rsplit_once(" mark=")?;
    let mark = u32::from_str_radix(mark, 16).ok()?;
    if crc32(body.as_bytes()) != mark {
        return None;
    }
    let mut it = body.split_ascii_whitespace();
    let seq = it.next()?.strip_prefix("seq=")?.parse().ok()?;
    let key = it.next()?.strip_prefix("key=")?;
    let events = it.next()?.strip_prefix("events=")?.parse().ok()?;
    if it.next().is_some() {
        return None;
    }
    let key = if key == "-" {
        None
    } else {
        Some(key.to_string())
    };
    Some((seq, key, events))
}

/// One verified chunk found by [`scan_stream`].
#[derive(Debug)]
struct ScannedChunk {
    /// Byte offset just past the chunk's `#%chunk` directive line.
    end_offset: u64,
    /// Valid batch marker preceding the chunk, if any.
    marker: Option<(u64, Option<String>, u64)>,
    /// The payload as its CRC covers it, every line followed by `\n`
    /// (only when scanning segments for replay).
    payload: Vec<u8>,
    lines: u64,
    /// `N` lines in the chunk.
    nodes: u64,
    /// Timestamp of the chunk's last line.
    last_time: Option<u64>,
}

impl ScannedChunk {
    /// Carry a running node count and last event time past this chunk.
    fn advance(&self, nodes: &mut u64, last_time: &mut u64) {
        *nodes += self.nodes;
        if let Some(t) = self.last_time {
            *last_time = t;
        }
    }
}

/// Result of scanning one v2 stream (trace or segment) from byte zero.
#[derive(Debug, Default)]
struct StreamScan {
    /// Verified prefix length, excluding any footer line.
    committed: u64,
    /// Bytes the scan read: the file's length, or more than its length
    /// at open when a writer appended during the scan.
    file_len: u64,
    /// The verified payload's line count and CRC.
    totals: Totals,
    /// Verified `#%end` footer (byte offset where the footer line starts).
    footer_at: Option<u64>,
    /// The failure that ended the verified prefix, when it ended at a
    /// line that failed rather than at an unfinished one.
    failure: Option<(usize, String)>,
    chunks: Vec<ScannedChunk>,
}

impl StreamScan {
    /// Bytes past the verified prefix that are not a footer — i.e. the
    /// torn tail a reopen truncates. A footered stream has none.
    fn torn_bytes(&self) -> u64 {
        if self.footer_at.is_some() {
            0
        } else {
            self.file_len - self.committed
        }
    }
}

/// Scan a v2 stream from the start through the shared framer, with the
/// WAL's rules on top. A failure — a non-UTF-8 line, a chunk directive
/// that does not parse or verify, a footer inside a chunk, any other `#%`
/// line — ends the verified prefix: a torn write at the tail, mid-file
/// damage ([`WalError::Corrupt`]) if framed data follows. A bad footer,
/// anything after a good one and an unparseable verified line are
/// always corrupt.
fn scan_stream(path: &Path, keep_payload: bool) -> Result<StreamScan, WalError> {
    let corrupt = |line: usize, reason: String| WalError::Corrupt {
        path: path.to_path_buf(),
        line,
        reason,
    };
    let mut scan = StreamScan::default();
    let mut lines = Lines::new(File::open(path)?);
    let mut framer = Framer::default();
    let (mut pos, mut lineno, mut started) = (0u64, 0usize, false);
    let mut marker = None;
    while let Some(raw) = lines.next_line()? {
        lineno += 1;
        let line_start = pos;
        pos += raw.len() as u64;
        if raw.last() != Some(&b'\n') {
            // Unterminated final line: torn tail, never counts as framing.
            break;
        }
        let t = raw.trim_ascii();
        if let Some((line, reason)) = &scan.failure {
            // After a failure we only look for later framed data, which
            // upgrades the failure from "torn tail" to "corrupt".
            if t.starts_with(b"#%") {
                return Err(corrupt(*line, reason.clone()));
            }
            continue;
        }
        let Ok(text) = std::str::from_utf8(t) else {
            scan.failure = Some((lineno, "non-utf8 line".to_string()));
            continue;
        };
        if !started {
            if text != FORMAT_V2_MAGIC {
                return Err(corrupt(lineno, format!("missing v2 magic, got {text:?}")));
            }
            started = true;
            scan.committed = pos;
            continue;
        }
        if framer.footer_seen() {
            return Err(corrupt(lineno, "data after #%end footer".to_string()));
        }
        let buffered = framer.pending() > 0;
        let failure = match framer.feed(lineno, t) {
            // Comments inside a chunk commit only with it, and only a
            // marker outside one belongs to the next chunk.
            Frame::Comment if buffered => continue,
            Frame::Comment => {
                if let Some(m) = parse_marker(text) {
                    marker = Some(m);
                }
                scan.committed = pos;
                continue;
            }
            Frame::Buffered | Frame::AfterFooter => continue,
            Frame::Verified(chunk) => {
                let mut c = ScannedChunk {
                    end_offset: pos,
                    marker: marker.take(),
                    payload: if keep_payload {
                        chunk.payload().to_vec()
                    } else {
                        Vec::new()
                    },
                    lines: 0,
                    nodes: 0,
                    last_time: None,
                };
                for (ln, line) in chunk {
                    let ev = parse_payload(line, ln).map_err(|e| corrupt(lineno, e.to_string()))?;
                    c.lines += 1;
                    c.nodes += u64::from(matches!(ev.kind, WalEventKind::Node(_)));
                    c.last_time = Some(ev.time);
                }
                scan.chunks.push(c);
                scan.committed = pos;
                continue;
            }
            Frame::Footer {
                dropped: None,
                verdict: Ok(()),
            } => {
                scan.footer_at = Some(line_start);
                continue;
            }
            Frame::Footer { .. } | Frame::Bad(BadDirective::End(_)) if buffered => {
                "footer inside unterminated chunk".to_string()
            }
            Frame::Footer { .. } | Frame::Bad(BadDirective::End(_)) => {
                return Err(corrupt(lineno, "footer verification failed".to_string()));
            }
            Frame::Dropped(_) | Frame::Bad(BadDirective::Chunk(_)) => {
                "chunk directive verification failed".to_string()
            }
            // A second magic or any other directive (the line is UTF-8).
            Frame::Bad(_) => format!("unknown directive {text:?}"),
        };
        scan.failure = Some((lineno, failure));
    }
    scan.file_len = pos;
    scan.totals = *framer.totals();
    Ok(scan)
}

/// A verified segment chunk with its batch marker.
#[derive(Debug)]
struct Batch {
    seq: u64,
    key: Option<String>,
    chunk: ScannedChunk,
}

/// How [`check_segments`] judged one WAL segment.
#[derive(Debug)]
pub enum SegmentState {
    /// Ends in a verified `#%end` footer.
    Sealed,
    /// The last segment, without a footer. Open truncates the
    /// `torn_bytes` past its verified prefix; `damage` says why the
    /// prefix ended there when they are not an unfinished append.
    Active {
        torn_bytes: u64,
        damage: Option<String>,
    },
    /// An earlier segment without its footer, ending at a chunk: open
    /// accepts it, though a crash only ever leaves the last unfinished.
    Unfinished,
    /// [`Wal::open`] refuses to start, with this error.
    Corrupt(WalError),
}

/// One WAL segment as the open-time segment check judged it.
#[derive(Debug)]
pub struct SegmentVerdict {
    pub index: u64,
    pub path: PathBuf,
    /// Verified chunks in the segment and the events they hold.
    pub chunks: u64,
    pub events: u64,
    pub state: SegmentState,
    /// The segment's batches, for replay at open.
    batches: Vec<Batch>,
    scan: StreamScan,
}

/// The segment pass of [`Wal::open`], one verdict per segment in `dir`,
/// in order. Each segment is scanned; every verified chunk must follow a
/// batch marker that declares its event count; batch seqs increase
/// across segments; and only the last segment may end in torn bytes.
/// Open refuses to start on the first [`SegmentState::Corrupt`] verdict
/// and `osn verify --wal` prints them all. Only I/O errors fail the pass;
/// a segment that vanishes once listed was pruned and is left out.
pub fn check_segments(dir: &Path) -> io::Result<Vec<SegmentVerdict>> {
    let segs = list_segments(dir)?;
    let last = segs.len().saturating_sub(1);
    let mut prev_seq = None;
    let mut out = Vec::with_capacity(segs.len());
    for (i, (index, path)) in segs.into_iter().enumerate() {
        let mut v = SegmentVerdict {
            index,
            path,
            chunks: 0,
            events: 0,
            state: SegmentState::Unfinished,
            batches: Vec::new(),
            scan: StreamScan::default(),
        };
        v.state = match scan_stream(&v.path, true) {
            // Pruned since the listing by a running writer: applied.
            Err(WalError::Io(e)) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(WalError::Io(e)) => return Err(e),
            Err(corrupt) => SegmentState::Corrupt(corrupt),
            Ok(scan) => {
                v.chunks = scan.chunks.len() as u64;
                v.events = scan.chunks.iter().map(|c| c.lines).sum();
                v.scan = scan;
                (v.check(i == last, &mut prev_seq)).unwrap_or_else(SegmentState::Corrupt)
            }
        };
        out.push(v);
    }
    Ok(out)
}

impl SegmentVerdict {
    /// Open's rules for a scanned segment, moving its chunks into batches.
    fn check(&mut self, last: bool, prev_seq: &mut Option<u64>) -> Result<SegmentState, WalError> {
        let corrupt = |reason: String| WalError::Corrupt {
            path: self.path.clone(),
            line: 0,
            reason,
        };
        let torn_bytes = self.scan.torn_bytes();
        if torn_bytes > 0 && !last {
            return Err(corrupt("sealed segment has a torn tail".to_string()));
        }
        for mut chunk in self.scan.chunks.drain(..) {
            let Some((seq, key, declared)) = chunk.marker.take() else {
                return Err(corrupt("segment chunk without a batch marker".to_string()));
            };
            if declared != chunk.lines {
                return Err(corrupt(format!(
                    "marker declares {declared} events, chunk has {}",
                    chunk.lines
                )));
            }
            if let Some(prev) = *prev_seq {
                if seq <= prev {
                    return Err(corrupt(format!(
                        "non-increasing batch seq {seq} after {prev}"
                    )));
                }
            }
            *prev_seq = Some(seq);
            self.batches.push(Batch { seq, key, chunk });
        }
        Ok(if self.scan.footer_at.is_some() {
            SegmentState::Sealed
        } else if last {
            SegmentState::Active {
                torn_bytes,
                damage: (self.scan.failure.as_ref())
                    .map(|(line, reason)| format!("line {line}: {reason}")),
            }
        } else {
            SegmentState::Unfinished
        })
    }
}

/// The trace side of [`check_trace`]: the error [`Wal::open`] would
/// refuse the trace with, if any, or `None` when the trace was not
/// checked — a segment is corrupt (open refuses on that first), or the
/// writer rotated during every attempt.
pub type TraceCheck = Option<Result<(), WalError>>;

/// The segment verdicts of `dir` ([`check_segments`]) and the trace side
/// of [`Wal::open`]'s checks, run without writing.
///
/// The files are read in the order that keeps the result exact beside a
/// running writer: the `applied.ckpt` sidecar, the trace, then the
/// segments. A batch reaches its segment before the trace, so every trace
/// chunk read is in a segment read after it. A rotation in between may
/// prune segments holding batches past the sidecar read first, so a
/// check during which the sidecar moves starts again, up to four times.
pub fn check_trace(trace_path: &Path, dir: &Path) -> io::Result<(Vec<SegmentVerdict>, TraceCheck)> {
    for _ in 0..4 {
        let sidecar = read_sidecar(dir)?;
        let tscan = scan_stream(trace_path, false);
        let segments = check_segments(dir)?;
        if read_sidecar(dir)? != sidecar {
            continue;
        }
        if (segments.iter()).any(|v| matches!(v.state, SegmentState::Corrupt(_))) {
            return Ok((segments, None));
        }
        let seqs: Vec<u64> = (segments.iter())
            .flat_map(|v| v.batches.iter().map(|b| b.seq))
            .collect();
        let verdict = match tscan {
            Err(WalError::Io(e)) => return Err(e),
            Err(corrupt) => Err(corrupt),
            Ok(tscan) => reconcile(trace_path, dir, sidecar, &tscan, &seqs).map(|_| ()),
        };
        return Ok((segments, Some(verdict)));
    }
    Ok((check_segments(dir)?, None))
}

/// Open's checkpoint rules: once segments hold batches (`seqs`, in
/// order) the `applied.ckpt` sidecar (its `(trace offset, seq)` pair)
/// must exist, it must not claim trace bytes that are gone, and every
/// trace chunk past it must be one of the batches after it. Returns the
/// seq the sidecar records and the last seq the trace already holds.
fn reconcile(
    trace_path: &Path,
    dir: &Path,
    sidecar: Option<(u64, u64)>,
    tscan: &StreamScan,
    seqs: &[u64],
) -> Result<(u64, u64), WalError> {
    if sidecar.is_none() && !seqs.is_empty() {
        // The sidecar is written on every open; losing it while
        // segments hold batches means the directory was tampered with,
        // and guessing risks double-applying batches to the trace.
        return Err(WalError::Corrupt {
            path: dir.join(SIDECAR_NAME),
            line: 0,
            reason: "applied.ckpt missing but segments hold batches".to_string(),
        });
    }
    // Without a sidecar the whole verified trace counts as applied.
    let (side_off, side_seq) = sidecar.unwrap_or((tscan.committed, 0));
    if side_off > tscan.committed {
        // The checkpoint claims durably-applied trace bytes that are not
        // there. The sidecar is only ever written after the trace is
        // fsynced, so this means the trace was truncated or replaced
        // outside the write plane — and the batches the checkpoint
        // covers may already be pruned from the segments. Refuse rather
        // than silently resume with acknowledged events missing.
        return Err(WalError::Corrupt {
            path: trace_path.to_path_buf(),
            line: 0,
            reason: format!(
                "applied.ckpt records trace offset {side_off} but only {} verified byte(s) \
                 exist; the trace lost durably-applied data",
                tscan.committed
            ),
        });
    }
    let extra_trace = tscan
        .chunks
        .iter()
        .filter(|c| c.end_offset > side_off)
        .count();
    let wal_after: Vec<u64> = seqs.iter().copied().filter(|&s| s > side_seq).collect();
    if extra_trace > wal_after.len() {
        return Err(WalError::Corrupt {
            path: trace_path.to_path_buf(),
            line: 0,
            reason: format!(
                "trace has {extra_trace} chunk(s) past the checkpoint but the wal only \
                 records {}; the trace was modified outside the write plane",
                wal_after.len()
            ),
        });
    }
    let applied_seq = match extra_trace {
        0 => side_seq,
        n => wal_after[n - 1],
    };
    Ok((side_seq, applied_seq))
}

/// Create (or empty) `path` as a v2 stream holding only the format magic,
/// durably; returns its length.
fn start_stream(path: &Path) -> io::Result<u64> {
    let mut magic = Vec::new();
    encode_magic(&mut magic);
    let mut f = File::create(path)?;
    f.write_all(&magic)?;
    f.sync_data()?;
    Ok(magic.len() as u64)
}

/// Cut the file at `path` down to `len` bytes, durably.
fn truncate(path: &Path, len: u64) -> io::Result<()> {
    let f = OpenOptions::new().write(true).open(path)?;
    f.set_len(len)?;
    f.sync_data()
}

const SIDECAR_NAME: &str = "applied.ckpt";

/// The `applied.ckpt` sidecar records a (trace length, last applied seq)
/// pair from which recovery counts forward. It is only advanced at open,
/// rotation and seal — staleness is fine, it just means more counting.
fn write_sidecar(dir: &Path, trace_offset: u64, seq: u64) -> io::Result<()> {
    let body = format!("wal-applied v1\ntrace_offset {trace_offset}\nseq {seq}\n");
    write_bytes_atomic(&dir.join(SIDECAR_NAME), body.as_bytes())
}

fn read_sidecar(dir: &Path) -> io::Result<Option<(u64, u64)>> {
    let raw = match fs::read_to_string(dir.join(SIDECAR_NAME)) {
        Ok(r) => r,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut lines = raw.lines();
    if lines.next() != Some("wal-applied v1") {
        return Ok(None);
    }
    let off = lines
        .next()
        .and_then(|l| l.strip_prefix("trace_offset "))
        .and_then(|v| v.parse().ok());
    let seq = lines
        .next()
        .and_then(|l| l.strip_prefix("seq "))
        .and_then(|v| v.parse().ok());
    Ok(off.zip(seq))
}

fn fsync_dir(dir: &Path) {
    // Directory fsync is best-effort and unix-only; rotation is repaired
    // by open() anyway if the new segment's dirent is lost.
    #[cfg(unix)]
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    #[cfg(not(unix))]
    let _ = dir;
}

/// A batch's segment record, awaiting its WAL fsync before its chunk
/// (`record[chunk..]`, the record without its marker) may be applied to
/// the trace.
struct PendingApply {
    seq: u64,
    record: Vec<u8>,
    chunk: usize,
}

struct Inner {
    trace: File,
    trace_len: u64,
    seg: File,
    seg_index: u64,
    seg_bytes: u64,
    /// Running totals for the segment footer written at rotation.
    seg_totals: Totals,
    next_seq: u64,
    applied_seq: u64,
    /// Running totals for the trace footer written at seal time.
    trace_totals: Totals,
    node_count: u64,
    last_time: u64,
    sealed: bool,
    pending: VecDeque<PendingApply>,
    /// The idempotency window: `(seq, events)` per key, and the keys in
    /// the order they leave it. Both share each key's one allocation.
    idem: HashMap<Arc<str>, (u64, u64)>,
    idem_order: VecDeque<Arc<str>>,
}

impl Inner {
    fn remember_key(&mut self, key: &str, seq: u64, events: u64, window: usize) {
        if window == 0 {
            return;
        }
        while self.idem_order.len() >= window {
            if let Some(old) = self.idem_order.pop_front() {
                self.idem.remove(&old);
            }
        }
        let key: Arc<str> = Arc::from(key);
        self.idem.insert(Arc::clone(&key), (seq, events));
        self.idem_order.push_back(key);
    }

    /// Append every pending batch with `seq <= upto` to the trace. Called
    /// only after those batches are durable in the WAL.
    fn apply_pending(&mut self, upto: u64) -> io::Result<()> {
        let mut wrote = false;
        while let Some(front) = self.pending.front() {
            if front.seq > upto {
                break;
            }
            let p = self.pending.pop_front().unwrap();
            let chunk = &p.record[p.chunk..];
            self.trace.write_all(chunk)?;
            self.trace_len += chunk.len() as u64;
            self.applied_seq = p.seq;
            wrote = true;
        }
        if wrote {
            self.trace.flush()?;
        }
        Ok(())
    }
}

struct SyncState {
    synced_seq: u64,
    syncing: bool,
}

/// Durable, idempotent, group-committed write-ahead log. See the module
/// docs for the crash-safety argument. All methods take `&self`; the log
/// is shared across server worker threads behind an `Arc`.
pub struct Wal {
    trace_path: PathBuf,
    dir: PathBuf,
    opts: WalOptions,
    inner: Mutex<Inner>,
    sync: Mutex<SyncState>,
    synced_cv: Condvar,
    written_seq: AtomicU64,
    sync_waiters: AtomicU64,
    appends: AtomicU64,
    duplicates: AtomicU64,
    fsyncs: AtomicU64,
}

impl fmt::Debug for Wal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Wal")
            .field("trace", &self.trace_path)
            .field("dir", &self.dir)
            .field("written_seq", &self.written_seq.load(Ordering::Relaxed))
            .finish()
    }
}

impl Wal {
    /// Open (creating or recovering as needed) the WAL for `trace_path`
    /// with segments under `dir`. Repairs torn tails, re-applies durable
    /// chunks the trace is missing, unseals a footered trace, rebuilds the
    /// idempotency window and prunes stale segments.
    pub fn open(
        trace_path: &Path,
        dir: &Path,
        opts: WalOptions,
    ) -> Result<(Wal, WalOpenReport), WalError> {
        fs::create_dir_all(dir)?;
        let mut report = WalOpenReport::default();

        // -- Trace: create, scan, repair tail, unseal. --------------------
        if !trace_path.exists() {
            start_stream(trace_path)?;
        }
        let tscan = scan_stream(trace_path, false)?;
        let mut trace_len = tscan.committed;
        report.trace_unsealed = tscan.footer_at.is_some();
        report.trace_truncated_bytes = tscan.torn_bytes();
        if tscan.file_len > trace_len {
            // Drop the torn tail and/or footer in place.
            truncate(trace_path, trace_len)?;
        }
        if trace_len == 0 {
            // Empty file or torn magic line: start a fresh v2 stream.
            trace_len = start_stream(trace_path)?;
        }

        // -- Segments: check each, repair the active tail. ----------------
        if list_segments(dir)?.is_empty() {
            start_stream(&dir.join(segment_name(1)))?;
            fsync_dir(dir);
        }
        let mut batches: Vec<Batch> = Vec::new();
        let mut active = None;
        for v in check_segments(dir)? {
            match v.state {
                SegmentState::Corrupt(e) => return Err(e),
                SegmentState::Active { torn_bytes, .. } => {
                    if torn_bytes > 0 {
                        report.wal_truncated_bytes = torn_bytes;
                        truncate(&v.path, v.scan.committed)?;
                    }
                    if v.scan.committed == 0 {
                        // Empty, or a torn magic line: a crash between
                        // creating the segment and writing its magic.
                        start_stream(&v.path)?;
                    }
                }
                SegmentState::Sealed | SegmentState::Unfinished => {}
            }
            batches.extend(v.batches);
            active = Some((v.index, v.path, v.scan));
        }
        let (mut seg_index, mut seg_path, active_scan) = active.expect("at least one segment");

        // -- Reconcile: count trace chunks past the sidecar, replay the
        //    rest of the WAL into the trace. ------------------------------
        let seqs: Vec<u64> = batches.iter().map(|b| b.seq).collect();
        let (side_seq, applied_seq) =
            reconcile(trace_path, dir, read_sidecar(dir)?, &tscan, &seqs)?;
        let mut trace_totals = tscan.totals;
        let (mut node_count, mut last_time) = (0, 0);
        for c in &tscan.chunks {
            c.advance(&mut node_count, &mut last_time);
        }
        // Seqs never go back, not even once every batch has been pruned
        // (the checkpoint still records the last one).
        let max_seq = batches.last().map_or(0, |b| b.seq).max(side_seq);
        if applied_seq < max_seq {
            // The segment chunks verified at open go back out byte for
            // byte, each closed by its directive.
            let mut trace = OpenOptions::new().append(true).open(trace_path)?;
            let mut buf = Vec::new();
            for b in batches.iter().filter(|b| b.seq > applied_seq) {
                buf.clear();
                buf.extend_from_slice(&b.chunk.payload);
                trace_totals.add(encode_directive(&mut buf, 0, b.chunk.lines as usize));
                trace.write_all(&buf)?;
                trace_len += buf.len() as u64;
                b.chunk.advance(&mut node_count, &mut last_time);
                report.replayed_chunks += 1;
                report.replayed_events += b.chunk.lines;
            }
            trace.flush()?;
            trace.sync_data()?;
        }

        // -- Active segment handle (rotate immediately if it is sealed). --
        let mut seg_totals = active_scan.totals;
        if active_scan.footer_at.is_some() {
            seg_index += 1;
            seg_path = dir.join(segment_name(seg_index));
            start_stream(&seg_path)?;
            fsync_dir(dir);
            seg_totals = Totals::default();
        }
        let seg = OpenOptions::new().append(true).open(&seg_path)?;
        let seg_bytes = seg.metadata()?.len();
        let trace = OpenOptions::new().append(true).open(trace_path)?;

        let next_seq = max_seq + 1;
        report.next_seq = next_seq;
        // Invariant: the sidecar never claims trace bytes that are not
        // durable. The scanned prefix may still be dirty page cache from a
        // crashed predecessor in this boot, so sync before checkpointing.
        trace.sync_data()?;
        write_sidecar(dir, trace_len, max_seq)?;

        let mut inner = Inner {
            trace,
            trace_len,
            seg,
            seg_index,
            seg_bytes,
            seg_totals,
            next_seq,
            applied_seq: max_seq,
            trace_totals,
            node_count,
            last_time,
            sealed: false,
            pending: VecDeque::new(),
            idem: HashMap::new(),
            idem_order: VecDeque::new(),
        };
        // -- Idempotency window from retained markers. --------------------
        for b in batches {
            if let Some(key) = b.key {
                inner.remember_key(&key, b.seq, b.chunk.lines, opts.idem_window);
            }
        }
        report.keys_loaded = inner.idem.len();

        let wal = Wal {
            trace_path: trace_path.to_path_buf(),
            dir: dir.to_path_buf(),
            opts,
            inner: Mutex::new(inner),
            sync: Mutex::new(SyncState {
                synced_seq: max_seq,
                syncing: false,
            }),
            synced_cv: Condvar::new(),
            written_seq: AtomicU64::new(max_seq),
            sync_waiters: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
        };
        wal.prune_segments(max_seq)?;
        report.segments = list_segments(dir)?.len();
        Ok((wal, report))
    }

    /// Open with the default directory layout (`<trace>.wal/`).
    pub fn open_default(
        trace_path: &Path,
        opts: WalOptions,
    ) -> Result<(Wal, WalOpenReport), WalError> {
        let dir = wal_dir_for(trace_path);
        Wal::open(trace_path, &dir, opts)
    }

    pub fn trace_path(&self) -> &Path {
        &self.trace_path
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appenders currently blocked on a group-commit fsync — the admission
    /// controller sheds writes when this exceeds its bound.
    pub fn sync_queue_depth(&self) -> u64 {
        self.sync_waiters.load(Ordering::Relaxed)
    }

    pub fn stats(&self) -> WalStats {
        WalStats {
            appends: self.appends.load(Ordering::Relaxed),
            duplicates: self.duplicates.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            sync_waiters: self.sync_waiters.load(Ordering::Relaxed),
            last_seq: self.written_seq.load(Ordering::Relaxed),
        }
    }

    /// Append one batch. Validates against the running log state, writes
    /// marker + chunk to the active segment in one `write(2)`, group-commits
    /// the fsync, then applies the same chunk to the trace. Returns after
    /// the batch is durable; a duplicate key returns `duplicate = true`,
    /// also only once the original batch's fsync horizon is reached.
    pub fn append(&self, key: Option<&str>, events: &[WalEvent]) -> Result<WalAck, WalError> {
        if events.is_empty() {
            return Err(WalError::BadEvent {
                index: 0,
                reason: "empty batch".to_string(),
            });
        }
        if let Some(k) = key {
            validate_key(k)?;
        }
        let seq;
        {
            let mut inner = self.inner.lock().unwrap();
            if inner.sealed {
                return Err(WalError::Sealed);
            }
            if let Some(k) = key {
                if let Some(&(dup_seq, n)) = inner.idem.get(k) {
                    self.duplicates.fetch_add(1, Ordering::Relaxed);
                    drop(inner);
                    // The key is registered at write time, so the original
                    // batch may still be waiting on its group-commit fsync.
                    // A duplicate ack claims the batch is committed — block
                    // until its seq is past the durability horizon, or a
                    // retry racing the original could be acked as durable
                    // right before a crash loses both.
                    self.group_commit(dup_seq)?;
                    return Ok(WalAck {
                        seq: dup_seq,
                        events: n,
                        duplicate: true,
                    });
                }
            }
            // Validate the whole batch before writing a byte.
            let mut running = inner.last_time;
            let mut nodes = inner.node_count;
            for (i, e) in events.iter().enumerate() {
                if e.time < running {
                    return Err(WalError::OutOfOrder {
                        time: e.time,
                        last: running,
                    });
                }
                running = e.time;
                match e.kind {
                    WalEventKind::Node(_) => nodes += 1,
                    WalEventKind::Edge(u, v) => {
                        if u == v {
                            return Err(WalError::BadEvent {
                                index: i,
                                reason: format!("self-loop on node {u}"),
                            });
                        }
                        if u.max(v) as u64 >= nodes {
                            return Err(WalError::BadEvent {
                                index: i,
                                reason: format!(
                                    "edge endpoint {} beyond known nodes ({nodes})",
                                    u.max(v)
                                ),
                            });
                        }
                    }
                }
            }

            if inner.seg_bytes >= self.opts.rotate_bytes {
                self.rotate_locked(&mut inner)?;
            }

            seq = inner.next_seq;
            inner.next_seq += 1;

            // Segment record: marker + payload + directive, one write,
            // into a buffer sized for a typical line per event so that it
            // is not regrown. The trace gets the same chunk without the
            // marker (`record[chunk..]`); edges are written with their
            // smaller endpoint first. The chunk is checksummed once, for
            // both footers' running totals.
            let mut record = Vec::with_capacity(128 + 32 * events.len());
            encode_marker(&mut record, seq, key, events.len() as u64);
            let chunk = record.len();
            let lines = events.iter().map(|e| match e.kind {
                WalEventKind::Edge(u, v) => WalEvent::edge(e.time, u.min(v), u.max(v)),
                WalEventKind::Node(_) => *e,
            });
            let sum = encode_chunk(&mut record, lines);
            inner.seg.write_all(&record)?;
            inner.seg.flush()?;
            inner.seg_bytes += record.len() as u64;
            inner.seg_totals.add(sum);
            inner.trace_totals.add(sum);
            inner.node_count = nodes;
            inner.last_time = running;
            inner.pending.push_back(PendingApply { seq, record, chunk });
            if let Some(k) = key {
                let window = self.opts.idem_window;
                inner.remember_key(k, seq, events.len() as u64, window);
            }
            self.written_seq.store(seq, Ordering::Release);
            self.appends.fetch_add(1, Ordering::Relaxed);

            if !self.opts.fsync {
                // Durable as far as this log promises: the group commit
                // below returns at once.
                inner.apply_pending(seq)?;
                drop(inner);
                self.mark_synced(seq);
            }
        }
        self.group_commit(seq)?;
        Ok(WalAck {
            seq,
            events: events.len() as u64,
            duplicate: false,
        })
    }

    /// Group-commit protocol: the first waiter past the synced horizon
    /// becomes the leader, fsyncs everything written so far, applies the
    /// now-durable batches to the trace, publishes the new horizon and
    /// wakes the followers.
    fn group_commit(&self, seq: u64) -> Result<(), WalError> {
        loop {
            let mut sync = self.sync.lock().unwrap();
            loop {
                if sync.synced_seq >= seq {
                    return Ok(());
                }
                if !sync.syncing {
                    sync.syncing = true;
                    break;
                }
                self.sync_waiters.fetch_add(1, Ordering::Relaxed);
                sync = self.synced_cv.wait(sync).unwrap();
                self.sync_waiters.fetch_sub(1, Ordering::Relaxed);
            }
            drop(sync);

            // Leader: capture the horizon, sync, apply, publish.
            let upto = self.written_seq.load(Ordering::Acquire);
            let result: Result<(), WalError> = (|| {
                let seg = {
                    let inner = self.inner.lock().unwrap();
                    inner.seg.try_clone()?
                };
                seg.sync_data()?;
                self.fsyncs.fetch_add(1, Ordering::Relaxed);
                let mut inner = self.inner.lock().unwrap();
                inner.apply_pending(upto)?;
                Ok(())
            })();
            let mut sync = self.sync.lock().unwrap();
            sync.syncing = false;
            if result.is_ok() {
                sync.synced_seq = sync.synced_seq.max(upto);
            }
            drop(sync);
            self.synced_cv.notify_all();
            result?;
            if self.sync.lock().unwrap().synced_seq >= seq {
                return Ok(());
            }
            // Raced with appends after our capture — loop and wait/lead
            // again (rare).
        }
    }

    /// Seal the active segment and create the next one. Caller holds the
    /// inner lock. Everything written so far is made durable first so the
    /// sealed segment can be pruned once applied.
    fn rotate_locked(&self, inner: &mut Inner) -> Result<(), WalError> {
        inner.seg.sync_data()?;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        let upto = self.written_seq.load(Ordering::Acquire);
        inner.apply_pending(upto)?;
        // The sidecar below advances applied_seq and may unlock pruning of
        // the segments holding these batches, so the trace bytes must be
        // durable first — apply_pending only writes into page cache.
        inner.trace.sync_data()?;
        self.mark_synced(upto);
        let mut footer = Vec::new();
        encode_footer(&mut footer, &inner.seg_totals);
        inner.seg.write_all(&footer)?;
        inner.seg.sync_data()?;
        inner.seg_index += 1;
        let path = self.dir.join(segment_name(inner.seg_index));
        let len = start_stream(&path)?;
        fsync_dir(&self.dir);
        inner.seg = OpenOptions::new().append(true).open(&path)?;
        inner.seg_bytes = len;
        inner.seg_totals = Totals::default();
        write_sidecar(&self.dir, inner.trace_len, inner.applied_seq)?;
        self.prune_segments(inner.applied_seq)?;
        Ok(())
    }

    /// Remove sealed segments beyond the retention window whose batches
    /// are all applied to the trace. Never touches the active segment.
    fn prune_segments(&self, applied_seq: u64) -> Result<(), WalError> {
        let segs = list_segments(&self.dir)?;
        if segs.len() <= self.opts.retain_segments + 1 {
            return Ok(());
        }
        let keep_from = segs.len() - (self.opts.retain_segments + 1);
        for (i, (_, path)) in segs.iter().enumerate() {
            if i >= keep_from {
                break;
            }
            // Only prune when the segment's last marker seq is applied.
            let sscan = match scan_stream(path, false) {
                Ok(s) => s,
                Err(_) => continue,
            };
            let max_seq = sscan
                .chunks
                .iter()
                .filter_map(|c| c.marker.as_ref().map(|(s, _, _)| *s))
                .max()
                .unwrap_or(0);
            if sscan.footer_at.is_some() && max_seq <= applied_seq {
                let _ = fs::remove_file(path);
            }
        }
        Ok(())
    }

    /// Clean shutdown: drain pending applies, footer the active segment
    /// and the trace, persist the sidecar. Afterwards the trace is a
    /// strict-clean batch-readable merged log and further appends return
    /// [`WalError::Sealed`]. Call only after the live head has stopped.
    pub fn seal(&self) -> Result<(), WalError> {
        // Wait out any in-flight leader so we do not race the fsync.
        {
            let mut sync = self.sync.lock().unwrap();
            while sync.syncing {
                self.sync_waiters.fetch_add(1, Ordering::Relaxed);
                sync = self.synced_cv.wait(sync).unwrap();
                self.sync_waiters.fetch_sub(1, Ordering::Relaxed);
            }
        }
        let mut inner = self.inner.lock().unwrap();
        if inner.sealed {
            return Ok(());
        }
        inner.sealed = true;
        inner.seg.sync_data()?;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        let upto = self.written_seq.load(Ordering::Acquire);
        inner.apply_pending(upto)?;
        let mut footer = Vec::new();
        encode_footer(&mut footer, &inner.seg_totals);
        inner.seg.write_all(&footer)?;
        inner.seg.sync_data()?;
        footer.clear();
        encode_footer(&mut footer, &inner.trace_totals);
        inner.trace.write_all(&footer)?;
        inner.trace.flush()?;
        inner.trace.sync_data()?;
        write_sidecar(&self.dir, inner.trace_len, inner.applied_seq)?;
        self.mark_synced(upto);
        Ok(())
    }

    /// Publish every batch through `upto` as durable and wake the waiters.
    fn mark_synced(&self, upto: u64) {
        let mut sync = self.sync.lock().unwrap();
        sync.synced_seq = sync.synced_seq.max(upto);
        drop(sync);
        self.synced_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Origin;
    use crate::io::{read_log, read_log_with_policy, save_log_v2, RecoveryPolicy};
    use crate::log::EventLogBuilder;
    use crate::time::{NodeId, Time};
    use std::sync::Arc;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "osn-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn base_log() -> crate::log::EventLog {
        let mut b = EventLogBuilder::new();
        b.add_node(Time(0), Origin::Core).unwrap();
        b.add_node(Time(10), Origin::Core).unwrap();
        b.add_edge(Time(20), NodeId(0), NodeId(1)).unwrap();
        b.build()
    }

    fn opts_nosync() -> WalOptions {
        WalOptions {
            fsync: false,
            ..WalOptions::default()
        }
    }

    fn batch_a() -> Vec<WalEvent> {
        vec![
            WalEvent::node(30, Origin::Competitor),
            WalEvent::edge(40, 1, 2),
        ]
    }

    fn batch_b() -> Vec<WalEvent> {
        vec![WalEvent::node(50, Origin::Core), WalEvent::edge(60, 0, 3)]
    }

    #[test]
    fn append_then_seal_yields_a_strict_clean_merged_trace() {
        let dir = scratch("seal");
        let trace = dir.join("t.events");
        save_log_v2(&base_log(), &trace).unwrap();
        let (wal, report) = Wal::open(&trace, &dir.join("wal"), opts_nosync()).unwrap();
        assert!(report.trace_unsealed, "save_log_v2 writes a footer");
        let a1 = wal.append(Some("k1"), &batch_a()).unwrap();
        assert_eq!((a1.seq, a1.events, a1.duplicate), (1, 2, false));
        let a2 = wal.append(None, &batch_b()).unwrap();
        assert_eq!(a2.seq, 2);
        wal.seal().unwrap();
        assert!(matches!(
            wal.append(None, &batch_b()),
            Err(WalError::Sealed)
        ));
        // Strict read succeeds: the sealed trace is a clean batch trace.
        let log = read_log(File::open(&trace).unwrap()).unwrap();
        assert_eq!(log.events().len(), 3 + 4);
        assert_eq!(log.num_nodes(), 4);
        assert_eq!(log.end_time().seconds(), 60);
    }

    #[test]
    fn reopen_after_seal_unseals_and_continues_the_sequence() {
        let dir = scratch("reopen");
        let trace = dir.join("t.events");
        save_log_v2(&base_log(), &trace).unwrap();
        let wdir = dir.join("wal");
        {
            let (wal, _) = Wal::open(&trace, &wdir, opts_nosync()).unwrap();
            wal.append(Some("k1"), &batch_a()).unwrap();
            wal.seal().unwrap();
        }
        let (wal, report) = Wal::open(&trace, &wdir, opts_nosync()).unwrap();
        assert!(report.trace_unsealed);
        assert_eq!(report.next_seq, 2);
        assert_eq!(report.keys_loaded, 1);
        let ack = wal.append(Some("k2"), &batch_b()).unwrap();
        assert_eq!(ack.seq, 2);
        wal.seal().unwrap();
        let log = read_log(File::open(&trace).unwrap()).unwrap();
        assert_eq!(log.events().len(), 7);
    }

    #[test]
    fn duplicate_key_is_deduplicated_across_reopen() {
        let dir = scratch("dedupe");
        let trace = dir.join("t.events");
        let wdir = dir.join("wal");
        let first;
        {
            let (wal, _) = Wal::open(&trace, &wdir, opts_nosync()).unwrap();
            wal.append(None, &[WalEvent::node(0, Origin::Core)])
                .unwrap();
            first = wal.append(Some("batch-7"), &batch_onto_one()).unwrap();
            let dup = wal.append(Some("batch-7"), &batch_onto_one()).unwrap();
            assert!(dup.duplicate);
            assert_eq!(dup.seq, first.seq);
        }
        // No seal: simulates a crash after the ack. Reopen and retry.
        let (wal, report) = Wal::open(&trace, &wdir, opts_nosync()).unwrap();
        assert_eq!(report.keys_loaded, 1);
        let dup = wal.append(Some("batch-7"), &batch_onto_one()).unwrap();
        assert!(dup.duplicate);
        assert_eq!(dup.seq, first.seq);
        assert_eq!(dup.events, first.events);
        wal.seal().unwrap();
        let log = read_log(File::open(&trace).unwrap()).unwrap();
        assert_eq!(log.events().len(), 3, "batch applied exactly once");
    }

    fn batch_onto_one() -> Vec<WalEvent> {
        vec![WalEvent::node(5, Origin::Core), WalEvent::edge(6, 0, 1)]
    }

    #[test]
    fn rotation_seals_segments_and_prunes_beyond_retention() {
        let dir = scratch("rotate");
        let trace = dir.join("t.events");
        let wdir = dir.join("wal");
        let opts = WalOptions {
            fsync: false,
            rotate_bytes: 96,
            retain_segments: 2,
            ..WalOptions::default()
        };
        let (wal, _) = Wal::open(&trace, &wdir, opts.clone()).unwrap();
        for i in 0..20u64 {
            wal.append(
                Some(&format!("k{i}")),
                &[WalEvent::node(i * 10, Origin::Core)],
            )
            .unwrap();
        }
        let segs = list_segments(&wdir).unwrap();
        assert!(
            segs.len() <= opts.retain_segments + 1,
            "pruned to retention window, got {}",
            segs.len()
        );
        assert!(segs.last().unwrap().0 >= 5, "rotated several times");
        // All but the active segment end with a verified footer.
        for (idx, path) in &segs[..segs.len() - 1] {
            let s = scan_stream(path, false).unwrap();
            assert!(s.footer_at.is_some(), "segment {idx} sealed");
        }
        // Reopen still works and the sequence continues.
        drop(wal);
        let (wal, report) = Wal::open(&trace, &wdir, opts).unwrap();
        assert_eq!(report.next_seq, 21);
        wal.append(Some("k20"), &[WalEvent::node(500, Origin::Core)])
            .unwrap();
        wal.seal().unwrap();
        let log = read_log(File::open(&trace).unwrap()).unwrap();
        assert_eq!(log.events().len(), 21);
    }

    #[test]
    fn invalid_batches_are_rejected_without_writing() {
        let dir = scratch("invalid");
        let trace = dir.join("t.events");
        let (wal, _) = Wal::open(&trace, &dir.join("wal"), opts_nosync()).unwrap();
        wal.append(None, &[WalEvent::node(100, Origin::Core)])
            .unwrap();
        assert!(matches!(
            wal.append(None, &[WalEvent::node(50, Origin::Core)]),
            Err(WalError::OutOfOrder { .. })
        ));
        assert!(matches!(
            wal.append(None, &[WalEvent::edge(100, 0, 0)]),
            Err(WalError::BadEvent { .. })
        ));
        assert!(matches!(
            wal.append(None, &[WalEvent::edge(100, 0, 9)]),
            Err(WalError::BadEvent { .. })
        ));
        assert!(matches!(
            wal.append(None, &[]),
            Err(WalError::BadEvent { .. })
        ));
        assert!(matches!(
            wal.append(Some("has space"), &[WalEvent::node(100, Origin::Core)]),
            Err(WalError::BadKey(_))
        ));
        wal.seal().unwrap();
        let log = read_log(File::open(&trace).unwrap()).unwrap();
        assert_eq!(log.events().len(), 1, "nothing extra was applied");
    }

    #[test]
    fn trace_truncated_below_checkpoint_refuses_to_open() {
        let dir = scratch("ckpt");
        let trace = dir.join("t.events");
        save_log_v2(&base_log(), &trace).unwrap();
        let wdir = dir.join("wal");
        {
            let (wal, _) = Wal::open(&trace, &wdir, opts_nosync()).unwrap();
            wal.append(Some("k1"), &batch_a()).unwrap();
            wal.seal().unwrap();
        }
        // Chop the trace below the durable checkpoint: recovery must refuse
        // rather than trust applied.ckpt and silently drop acked batches.
        let f = OpenOptions::new().write(true).open(&trace).unwrap();
        f.set_len(20).unwrap();
        drop(f);
        match Wal::open(&trace, &wdir, opts_nosync()) {
            Err(WalError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_hit_with_fsync_enabled_acks_committed_batch() {
        let dir = scratch("dupsync");
        let trace = dir.join("t.events");
        let opts = WalOptions {
            fsync: true,
            ..WalOptions::default()
        };
        let (wal, _) = Wal::open(&trace, &dir.join("wal"), opts).unwrap();
        let first = wal
            .append(Some("d1"), &[WalEvent::node(0, Origin::Core)])
            .unwrap();
        // The duplicate path goes through group_commit: it must return the
        // original ack only once that seq is durable.
        let dup = wal
            .append(Some("d1"), &[WalEvent::node(0, Origin::Core)])
            .unwrap();
        assert!(dup.duplicate);
        assert_eq!(dup.seq, first.seq);
        assert!(wal.stats().fsyncs >= 1);
        wal.seal().unwrap();
        let log = read_log(File::open(&trace).unwrap()).unwrap();
        assert_eq!(log.events().len(), 1);
    }

    #[test]
    fn midfile_segment_corruption_refuses_to_open() {
        let dir = scratch("midfile");
        let trace = dir.join("t.events");
        let wdir = dir.join("wal");
        {
            let (wal, _) = Wal::open(&trace, &wdir, opts_nosync()).unwrap();
            wal.append(Some("a"), &[WalEvent::node(0, Origin::Core)])
                .unwrap();
            wal.append(Some("b"), &[WalEvent::node(10, Origin::Core)])
                .unwrap();
        }
        let seg = list_segments(&wdir).unwrap().pop().unwrap().1;
        let mut bytes = fs::read(&seg).unwrap();
        // Flip a payload byte in the FIRST chunk: damage with later framing.
        let idx = bytes
            .windows(4)
            .position(|w| w == b"N 0 ")
            .expect("payload line present");
        bytes[idx] = b'X';
        fs::write(&seg, &bytes).unwrap();
        match Wal::open(&trace, &wdir, opts_nosync()) {
            Err(WalError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_appends_group_commit_and_all_land_once() {
        let dir = scratch("group");
        let trace = dir.join("t.events");
        let wdir = dir.join("wal");
        let opts = WalOptions {
            fsync: true,
            ..WalOptions::default()
        };
        let (wal, _) = Wal::open(&trace, &wdir, opts).unwrap();
        let wal = Arc::new(wal);
        // Seed a node so edges have endpoints.
        wal.append(None, &[WalEvent::node(0, Origin::Core)])
            .unwrap();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    for i in 0..4u64 {
                        let key = format!("t{t}-{i}");
                        // Same timestamp everywhere keeps ordering valid
                        // under any interleaving.
                        wal.append(Some(&key), &[WalEvent::node(100, Origin::Core)])
                            .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = wal.stats();
        assert_eq!(stats.appends, 33);
        assert!(stats.fsyncs >= 1);
        assert_eq!(stats.last_seq, 33);
        wal.seal().unwrap();
        let log = read_log(File::open(&trace).unwrap()).unwrap();
        assert_eq!(log.events().len(), 33);
        assert_eq!(log.num_nodes(), 33);
    }

    #[test]
    fn check_trace_beside_a_running_writer_finds_nothing_wrong() {
        // Batches land, and segments rotate and are pruned, while the
        // check reads: none of it may look like damage.
        let dir = scratch("livecheck");
        let (trace, wdir) = (dir.join("t.events"), dir.join("wal"));
        let opts = WalOptions {
            fsync: false,
            rotate_bytes: 2_000,
            retain_segments: 0,
            ..WalOptions::default()
        };
        let (wal, _) = Wal::open(&trace, &wdir, opts).unwrap();
        let done = std::sync::atomic::AtomicBool::new(false);
        let checked = std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..20_000 {
                    wal.append(None, &[WalEvent::node(i, Origin::Core)])
                        .unwrap();
                }
                done.store(true, Ordering::Release);
            });
            let mut checked = 0;
            while !done.load(Ordering::Acquire) {
                let (segments, verdict) = check_trace(&trace, &wdir).unwrap();
                for v in &segments {
                    let ok = matches!(
                        v.state,
                        SegmentState::Sealed | SegmentState::Active { damage: None, .. }
                    );
                    assert!(ok, "{:?}: {:?}", v.path, v.state);
                }
                assert!(!matches!(verdict, Some(Err(_))), "{verdict:?}");
                checked += usize::from(verdict.is_some());
            }
            checked
        });
        assert!(checked > 0, "every check overlapped a rotation");
    }

    #[test]
    fn unsealed_trace_reads_with_tail_policy_while_wal_is_live() {
        let dir = scratch("live");
        let trace = dir.join("t.events");
        let (wal, _) = Wal::open(&trace, &dir.join("wal"), opts_nosync()).unwrap();
        wal.append(None, &[WalEvent::node(0, Origin::Core)])
            .unwrap();
        // No footer yet: strict read fails, Skip policy succeeds.
        assert!(read_log(File::open(&trace).unwrap()).is_err());
        let (log, report) = read_log_with_policy(
            File::open(&trace).unwrap(),
            &RecoveryPolicy::Skip { max_errors: 0 },
        )
        .unwrap();
        assert_eq!(log.events().len(), 1);
        assert!(report.tail_pending());
    }

    fn marker_line(seq: u64, key: Option<&str>, events: u64) -> String {
        let mut buf = Vec::new();
        encode_marker(&mut buf, seq, key, events);
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn marker_roundtrip_and_damage_detection() {
        let m = marker_line(7, Some("abc-123"), 42);
        // The spelling every segment written so far carries.
        let body = "seq=7 key=abc-123 events=42";
        let want = format!("# batch {body} mark={:08x}\n", crc32(body.as_bytes()));
        assert_eq!(m, want);
        let t = m.trim();
        assert_eq!(parse_marker(t), Some((7, Some("abc-123".to_string()), 42)));
        let m2 = marker_line(9, None, 1);
        assert_eq!(
            m2,
            format!(
                "# batch seq=9 key=- events=1 mark={:08x}\n",
                crc32(b"seq=9 key=- events=1")
            )
        );
        assert_eq!(parse_marker(m2.trim()), Some((9, None, 1)));
        // Any flipped byte kills the mark CRC → treated as plain comment.
        let damaged = t.replace("seq=7", "seq=8");
        assert_eq!(parse_marker(&damaged), None);
        assert_eq!(parse_marker("# just a comment"), None);
    }

    #[test]
    fn wal_dir_for_appends_extension() {
        assert_eq!(
            wal_dir_for(Path::new("/x/t.events")),
            PathBuf::from("/x/t.events.wal")
        );
    }
}
