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
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use crate::atomicfile::write_bytes_atomic;
use crate::crc32::Crc32;
use crate::event::Origin;
use crate::frame::{parse_directive, parse_event_line, RawKind};
use crate::io::FORMAT_V2_MAGIC;

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

/// One event submitted to the write plane. Node ids are implicit (dense,
/// in arrival order), matching the v2 line format where `N` lines carry
/// only a timestamp and origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalEvent {
    pub time: u64,
    pub kind: WalEventKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalEventKind {
    Node(Origin),
    Edge(u32, u32),
}

impl WalEvent {
    pub fn node(time: u64, origin: Origin) -> Self {
        WalEvent {
            time,
            kind: WalEventKind::Node(origin),
        }
    }

    pub fn edge(time: u64, u: u32, v: u32) -> Self {
        WalEvent {
            time,
            kind: WalEventKind::Edge(u, v),
        }
    }

    /// Parse one `N`/`E` payload line (the same grammar the trace reader
    /// accepts).
    pub fn parse_line(line: &str) -> Result<WalEvent, String> {
        let raw = parse_event_line(line, 1).map_err(|e| e.to_string())?;
        Ok(match raw.kind {
            RawKind::Node(origin) => WalEvent::node(raw.time, origin),
            RawKind::Edge(u, v) => WalEvent::edge(raw.time, u, v),
        })
    }

    fn format_line(&self) -> String {
        match self.kind {
            WalEventKind::Node(origin) => format!("N {} {}", self.time, origin.label()),
            WalEventKind::Edge(u, v) => format!("E {} {} {}", self.time, u, v),
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

/// `# batch seq=<n> key=<k> events=<n> mark=<crc>` — the marker comment
/// written immediately before each segment chunk, in the same `write(2)`.
/// The `mark` CRC makes the marker self-checking: a torn or damaged marker
/// is indistinguishable from an ordinary comment and is ignored.
fn marker_line(seq: u64, key: Option<&str>, events: u64) -> String {
    let body = format!("seq={seq} key={} events={events}", key.unwrap_or("-"));
    let mut c = Crc32::new();
    c.update(body.as_bytes());
    format!("# batch {body} mark={:08x}\n", c.finalize())
}

/// Parse a trimmed comment line as a batch marker; `None` when it is an
/// ordinary comment (including damaged markers — the CRC must match).
fn parse_marker(t: &str) -> Option<(u64, Option<String>, u64)> {
    let rest = t.strip_prefix("# batch ")?;
    let (body, mark) = rest.rsplit_once(" mark=")?;
    let mark = u32::from_str_radix(mark, 16).ok()?;
    let mut c = Crc32::new();
    c.update(body.as_bytes());
    if c.finalize() != mark {
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
struct ScannedChunk {
    /// Byte offset just past the chunk's `#%chunk` directive line.
    end_offset: u64,
    /// Valid batch marker preceding the chunk, if any.
    marker: Option<(u64, Option<String>, u64)>,
    /// Payload lines (only when scanning segments for replay).
    payload: Vec<String>,
}

/// Result of scanning one v2 stream (trace or segment) from byte zero.
struct StreamScan {
    /// Verified prefix length, excluding any footer line.
    committed: u64,
    /// Total file length.
    file_len: u64,
    /// Payload lines inside the verified prefix.
    payload_lines: u64,
    /// Running CRC over the verified payload.
    total_crc: Crc32,
    /// `N` lines in the verified prefix.
    node_lines: u64,
    /// Timestamp of the last verified payload line.
    last_time: u64,
    /// Verified `#%end` footer (byte offset where the footer line starts).
    footer_at: Option<u64>,
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

/// Scan a v2 stream, verifying framing from the start. A verification
/// failure that is followed by *more* framed data is mid-file damage and
/// returns [`WalError::Corrupt`]; a failure at the physical tail is an
/// ordinary torn write and simply ends the verified prefix.
fn scan_stream(path: &Path, collect_payload: bool) -> Result<StreamScan, WalError> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut r = BufReader::new(file);
    let mut scan = StreamScan {
        committed: 0,
        file_len,
        payload_lines: 0,
        total_crc: Crc32::new(),
        node_lines: 0,
        last_time: 0,
        footer_at: None,
        chunks: Vec::new(),
    };
    let mut pos = 0u64;
    let mut lineno = 0usize;
    let mut started = false;
    // Provisional (unverified) region since the last committed boundary.
    let mut region_lines: Vec<String> = Vec::new();
    let mut region_crc = Crc32::new();
    let mut pending_marker: Option<(u64, Option<String>, u64)> = None;
    // First framing failure seen; fatal only if framed data follows.
    let mut failure: Option<(usize, String)> = None;

    let corrupt = |line: usize, reason: String| WalError::Corrupt {
        path: path.to_path_buf(),
        line,
        reason,
    };

    let mut raw = Vec::new();
    loop {
        raw.clear();
        let n = r.read_until(b'\n', &mut raw)?;
        if n == 0 {
            break;
        }
        lineno += 1;
        let line_start = pos;
        pos += n as u64;
        if raw.last() != Some(&b'\n') {
            // Unterminated final line: torn tail, never counts as framing.
            break;
        }
        if let Some((line, reason)) = &failure {
            // After a failure we only look for later framed data, which
            // upgrades the failure from "torn tail" to "corrupt".
            let t = raw.trim_ascii();
            if t.starts_with(b"#%") {
                return Err(corrupt(*line, reason.clone()));
            }
            continue;
        }
        let t = match std::str::from_utf8(raw.trim_ascii()) {
            Ok(t) => t,
            Err(_) => {
                failure = Some((lineno, "non-utf8 line".to_string()));
                continue;
            }
        };
        if !started {
            if t == FORMAT_V2_MAGIC {
                started = true;
                scan.committed = pos;
                continue;
            }
            return Err(corrupt(lineno, format!("missing v2 magic, got {t:?}")));
        }
        if scan.footer_at.is_some() {
            return Err(corrupt(lineno, "data after #%end footer".to_string()));
        }
        if t.is_empty() || (t.starts_with('#') && !t.starts_with("#%")) {
            if region_lines.is_empty() {
                if let Some(m) = parse_marker(t) {
                    pending_marker = Some(m);
                }
                scan.committed = pos;
            }
            // Comments inside a provisional region are legal but commit
            // only with their chunk.
            continue;
        }
        if let Some(rest) = t.strip_prefix("#%chunk ") {
            match parse_directive(rest, "lines=") {
                Some((lines, crc))
                    if lines == region_lines.len() && crc == region_crc.clone().finalize() =>
                {
                    for (i, l) in region_lines.iter().enumerate() {
                        let ev = parse_event_line(l, lineno.saturating_sub(region_lines.len() - i))
                            .map_err(|e| corrupt(lineno, e.to_string()))?;
                        if let RawKind::Node(_) = ev.kind {
                            scan.node_lines += 1;
                        }
                        scan.last_time = ev.time;
                        scan.total_crc.update(l.as_bytes());
                        scan.total_crc.update(b"\n");
                    }
                    scan.payload_lines += region_lines.len() as u64;
                    scan.chunks.push(ScannedChunk {
                        end_offset: pos,
                        marker: pending_marker.take(),
                        payload: if collect_payload {
                            std::mem::take(&mut region_lines)
                        } else {
                            Vec::new()
                        },
                    });
                    region_lines.clear();
                    region_crc = Crc32::new();
                    scan.committed = pos;
                }
                _ => {
                    failure = Some((lineno, "chunk directive verification failed".to_string()));
                }
            }
            continue;
        }
        if let Some(rest) = t.strip_prefix("#%end ") {
            if !region_lines.is_empty() {
                failure = Some((lineno, "footer inside unterminated chunk".to_string()));
                continue;
            }
            match parse_directive(rest, "events=") {
                Some((events, crc))
                    if events as u64 == scan.payload_lines
                        && crc == scan.total_crc.clone().finalize() =>
                {
                    scan.footer_at = Some(line_start);
                }
                _ => {
                    return Err(corrupt(lineno, "footer verification failed".to_string()));
                }
            }
            continue;
        }
        if t.starts_with("#%") {
            failure = Some((lineno, format!("unknown directive {t:?}")));
            continue;
        }
        // Payload line: provisionally part of the current region.
        region_crc.update(t.as_bytes());
        region_crc.update(b"\n");
        region_lines.push(t.to_string());
    }
    Ok(scan)
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

/// A batch serialised for the trace, awaiting its WAL fsync before it may
/// be applied.
struct PendingApply {
    seq: u64,
    bytes: Vec<u8>,
}

struct Inner {
    trace: File,
    trace_len: u64,
    seg: File,
    seg_index: u64,
    seg_bytes: u64,
    seg_payload: u64,
    seg_crc: Crc32,
    next_seq: u64,
    applied_seq: u64,
    // Running totals for the trace footer written at seal time.
    total_crc: Crc32,
    payload_lines: u64,
    node_count: u64,
    last_time: u64,
    sealed: bool,
    pending: VecDeque<PendingApply>,
    idem: HashMap<String, (u64, u64)>,
    idem_order: VecDeque<String>,
}

impl Inner {
    fn remember_key(&mut self, key: String, seq: u64, events: u64, window: usize) {
        if window == 0 {
            return;
        }
        while self.idem_order.len() >= window {
            if let Some(old) = self.idem_order.pop_front() {
                self.idem.remove(&old);
            }
        }
        self.idem.insert(key.clone(), (seq, events));
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
            self.trace.write_all(&p.bytes)?;
            self.trace_len += p.bytes.len() as u64;
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
            let mut f = File::create(trace_path)?;
            writeln!(f, "{FORMAT_V2_MAGIC}")?;
            f.sync_data()?;
        }
        let tscan = scan_stream(trace_path, false)?;
        let mut trace_len = tscan.committed;
        report.trace_unsealed = tscan.footer_at.is_some();
        report.trace_truncated_bytes = tscan.torn_bytes();
        if tscan.file_len > trace_len {
            // Drop the torn tail and/or footer in place.
            let f = OpenOptions::new().write(true).open(trace_path)?;
            f.set_len(trace_len)?;
            f.sync_data()?;
        }
        if trace_len == 0 {
            // Empty file or torn magic line: start a fresh v2 stream.
            let mut f = OpenOptions::new().write(true).open(trace_path)?;
            writeln!(f, "{FORMAT_V2_MAGIC}")?;
            f.sync_data()?;
            trace_len = fs::metadata(trace_path)?.len();
        }

        // -- Segments: scan each, repair the active tail. -----------------
        let mut segs = list_segments(dir)?;
        if segs.is_empty() {
            let path = dir.join(segment_name(1));
            let mut f = File::create(&path)?;
            writeln!(f, "{FORMAT_V2_MAGIC}")?;
            f.sync_data()?;
            fsync_dir(dir);
            segs.push((1, path));
        }
        // A crash between "create next segment" and "write its magic" can
        // leave a final empty segment: reset it.
        if let Some((_, last_path)) = segs.last() {
            if fs::metadata(last_path)?.len() == 0 {
                let mut f = OpenOptions::new().write(true).open(last_path)?;
                f.set_len(0)?;
                writeln!(f, "{FORMAT_V2_MAGIC}")?;
                f.sync_data()?;
            }
        }
        let mut chunks: Vec<(u64, Option<String>, Vec<String>)> = Vec::new();
        let mut active_scan: Option<StreamScan> = None;
        let last_index = segs.last().map(|(i, _)| *i).unwrap_or(1);
        for (idx, path) in &segs {
            let mut sscan = scan_stream(path, true)?;
            let torn = sscan.torn_bytes();
            if torn > 0 {
                if *idx != last_index {
                    return Err(WalError::Corrupt {
                        path: path.clone(),
                        line: 0,
                        reason: "sealed segment has a torn tail".to_string(),
                    });
                }
                report.wal_truncated_bytes = torn;
                let f = OpenOptions::new().write(true).open(path)?;
                f.set_len(sscan.committed)?;
                f.sync_data()?;
                if sscan.committed == 0 {
                    // Torn magic line: restart the segment stream.
                    let mut f = OpenOptions::new().write(true).open(path)?;
                    writeln!(f, "{FORMAT_V2_MAGIC}")?;
                    f.sync_data()?;
                }
            }
            for c in sscan.chunks.drain(..) {
                let (seq, key, declared) = match c.marker {
                    Some(m) => m,
                    None => {
                        return Err(WalError::Corrupt {
                            path: path.clone(),
                            line: 0,
                            reason: "segment chunk without a batch marker".to_string(),
                        })
                    }
                };
                if declared != c.payload.len() as u64 {
                    return Err(WalError::Corrupt {
                        path: path.clone(),
                        line: 0,
                        reason: format!(
                            "marker declares {declared} events, chunk has {}",
                            c.payload.len()
                        ),
                    });
                }
                if let Some((prev, _, _)) = chunks.last() {
                    if seq <= *prev {
                        return Err(WalError::Corrupt {
                            path: path.clone(),
                            line: 0,
                            reason: format!("non-increasing batch seq {seq} after {prev}"),
                        });
                    }
                }
                chunks.push((seq, key, c.payload));
            }
            if *idx == last_index {
                active_scan = Some(sscan);
            }
        }
        let active_scan = active_scan.expect("at least one segment");

        // -- Reconcile: count trace chunks past the sidecar, replay the
        //    rest of the WAL into the trace. ------------------------------
        let sidecar = read_sidecar(dir)?;
        if sidecar.is_none() && !chunks.is_empty() {
            // The sidecar is written on every open; losing it while
            // segments hold batches means the directory was tampered with,
            // and guessing risks double-applying batches to the trace.
            return Err(WalError::Corrupt {
                path: dir.join(SIDECAR_NAME),
                line: 0,
                reason: "applied.ckpt missing but segments hold batches".to_string(),
            });
        }
        let (side_off, side_seq) = sidecar.unwrap_or((trace_len, 0));
        if sidecar.is_some() && side_off > tscan.committed {
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
            .count() as u64;
        let wal_after: Vec<&(u64, Option<String>, Vec<String>)> =
            chunks.iter().filter(|(s, _, _)| *s > side_seq).collect();
        if extra_trace > wal_after.len() as u64 {
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
        let applied_seq = if extra_trace > 0 {
            wal_after[extra_trace as usize - 1].0
        } else {
            side_seq
        };
        let mut total_crc = tscan.total_crc.clone();
        let mut payload_lines = tscan.payload_lines;
        let mut node_count = tscan.node_lines;
        let mut last_time = tscan.last_time;
        let max_seq = chunks.last().map(|(s, _, _)| *s).unwrap_or(0);
        if applied_seq < max_seq {
            let mut trace = OpenOptions::new().append(true).open(trace_path)?;
            for (_, _, payload) in chunks.iter().filter(|(s, _, _)| *s > applied_seq) {
                let bytes = serialize_chunk(payload.iter().map(|s| s.as_str()));
                trace.write_all(&bytes)?;
                trace_len += bytes.len() as u64;
                for l in payload {
                    let ev = parse_event_line(l, 1).map_err(|e| WalError::Corrupt {
                        path: trace_path.to_path_buf(),
                        line: 0,
                        reason: e.to_string(),
                    })?;
                    if let RawKind::Node(_) = ev.kind {
                        node_count += 1;
                    }
                    last_time = ev.time;
                    total_crc.update(l.as_bytes());
                    total_crc.update(b"\n");
                }
                payload_lines += payload.len() as u64;
                report.replayed_chunks += 1;
                report.replayed_events += payload.len() as u64;
            }
            trace.flush()?;
            trace.sync_data()?;
        }

        // -- Idempotency window from retained markers. --------------------
        let mut idem = HashMap::new();
        let mut idem_order = VecDeque::new();
        for (seq, key, payload) in &chunks {
            if let Some(k) = key {
                if opts.idem_window > 0 {
                    while idem_order.len() >= opts.idem_window {
                        if let Some(old) = idem_order.pop_front() {
                            idem.remove(&old);
                        }
                    }
                    idem.insert(k.clone(), (*seq, payload.len() as u64));
                    idem_order.push_back(k.clone());
                }
            }
        }
        report.keys_loaded = idem.len();

        // -- Active segment handle (rotate immediately if it is sealed). --
        let (mut seg_index, mut seg_path) = segs.last().cloned().expect("segment");
        let mut seg_payload = active_scan.payload_lines;
        let mut seg_crc = active_scan.total_crc.clone();
        if active_scan.footer_at.is_some() {
            seg_index += 1;
            seg_path = dir.join(segment_name(seg_index));
            let mut f = File::create(&seg_path)?;
            writeln!(f, "{FORMAT_V2_MAGIC}")?;
            f.sync_data()?;
            fsync_dir(dir);
            seg_payload = 0;
            seg_crc = Crc32::new();
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

        let wal = Wal {
            trace_path: trace_path.to_path_buf(),
            dir: dir.to_path_buf(),
            opts,
            inner: Mutex::new(Inner {
                trace,
                trace_len,
                seg,
                seg_index,
                seg_bytes,
                seg_payload,
                seg_crc,
                next_seq,
                applied_seq: max_seq,
                total_crc,
                payload_lines,
                node_count,
                last_time,
                sealed: false,
                pending: VecDeque::new(),
                idem,
                idem_order,
            }),
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
            let mut lines = Vec::with_capacity(events.len());
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
                        let (a, b) = (u.min(v), u.max(v));
                        lines.push(WalEvent::edge(e.time, a, b).format_line());
                        continue;
                    }
                }
                lines.push(e.format_line());
            }

            if inner.seg_bytes >= self.opts.rotate_bytes {
                self.rotate_locked(&mut inner)?;
            }

            seq = inner.next_seq;
            inner.next_seq += 1;

            // Segment record: marker + payload + directive, one write.
            let mut rec = marker_line(seq, key, events.len() as u64).into_bytes();
            let chunk = serialize_chunk(lines.iter().map(|s| s.as_str()));
            rec.extend_from_slice(&chunk);
            inner.seg.write_all(&rec)?;
            inner.seg.flush()?;
            inner.seg_bytes += rec.len() as u64;
            inner.seg_payload += lines.len() as u64;
            for l in &lines {
                inner.seg_crc.update(l.as_bytes());
                inner.seg_crc.update(b"\n");
                inner.total_crc.update(l.as_bytes());
                inner.total_crc.update(b"\n");
            }
            inner.payload_lines += lines.len() as u64;
            inner.node_count = nodes;
            inner.last_time = running;
            inner.pending.push_back(PendingApply { seq, bytes: chunk });
            if let Some(k) = key {
                let window = self.opts.idem_window;
                inner.remember_key(k.to_string(), seq, events.len() as u64, window);
            }
            self.written_seq.store(seq, Ordering::Release);
            self.appends.fetch_add(1, Ordering::Relaxed);

            if !self.opts.fsync {
                inner.apply_pending(seq)?;
                drop(inner);
                let mut sync = self.sync.lock().unwrap();
                sync.synced_seq = sync.synced_seq.max(seq);
                drop(sync);
                self.synced_cv.notify_all();
                return Ok(WalAck {
                    seq,
                    events: events.len() as u64,
                    duplicate: false,
                });
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
        {
            let mut sync = self.sync.lock().unwrap();
            sync.synced_seq = sync.synced_seq.max(upto);
        }
        self.synced_cv.notify_all();
        let footer = format!(
            "#%end events={} crc={:08x}\n",
            inner.seg_payload,
            inner.seg_crc.clone().finalize()
        );
        inner.seg.write_all(footer.as_bytes())?;
        inner.seg.sync_data()?;
        inner.seg_index += 1;
        let path = self.dir.join(segment_name(inner.seg_index));
        let mut f = File::create(&path)?;
        writeln!(f, "{FORMAT_V2_MAGIC}")?;
        f.sync_data()?;
        fsync_dir(&self.dir);
        inner.seg = OpenOptions::new().append(true).open(&path)?;
        inner.seg_bytes = fs::metadata(&path)?.len();
        inner.seg_payload = 0;
        inner.seg_crc = Crc32::new();
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
        let footer = format!(
            "#%end events={} crc={:08x}\n",
            inner.seg_payload,
            inner.seg_crc.clone().finalize()
        );
        inner.seg.write_all(footer.as_bytes())?;
        inner.seg.sync_data()?;
        let tfooter = format!(
            "#%end events={} crc={:08x}\n",
            inner.payload_lines,
            inner.total_crc.clone().finalize()
        );
        inner.trace.write_all(tfooter.as_bytes())?;
        inner.trace.flush()?;
        inner.trace.sync_data()?;
        write_sidecar(&self.dir, inner.trace_len, inner.applied_seq)?;
        {
            let mut sync = self.sync.lock().unwrap();
            sync.synced_seq = sync.synced_seq.max(upto);
        }
        self.synced_cv.notify_all();
        Ok(())
    }
}

/// Serialise payload lines as one v2 chunk: every line plus the `#%chunk`
/// directive, ready for a single `write(2)`.
fn serialize_chunk<'a>(lines: impl Iterator<Item = &'a str>) -> Vec<u8> {
    let mut crc = Crc32::new();
    let mut body = String::new();
    let mut n = 0usize;
    for l in lines {
        crc.update(l.as_bytes());
        crc.update(b"\n");
        body.push_str(l);
        body.push('\n');
        n += 1;
    }
    body.push_str(&format!("#%chunk lines={n} crc={:08x}\n", crc.finalize()));
    body.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn torn_segment_tail_is_truncated_and_batch_is_resendable() {
        let dir = scratch("torn");
        let trace = dir.join("t.events");
        let wdir = dir.join("wal");
        {
            let (wal, _) = Wal::open(&trace, &wdir, opts_nosync()).unwrap();
            wal.append(Some("ok"), &[WalEvent::node(0, Origin::Core)])
                .unwrap();
        }
        // Simulate kill -9 mid-write: half a marker+chunk at the tail.
        let seg = list_segments(&wdir).unwrap().pop().unwrap().1;
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(b"# batch seq=2 key=torn events=1 mark=0000\nN 10 core\n#%chu")
            .unwrap();
        drop(f);
        let (wal, report) = Wal::open(&trace, &wdir, opts_nosync()).unwrap();
        assert!(report.wal_truncated_bytes > 0);
        assert_eq!(report.next_seq, 2, "torn batch was never committed");
        let ack = wal
            .append(Some("torn"), &[WalEvent::node(10, Origin::Core)])
            .unwrap();
        assert!(!ack.duplicate);
        wal.seal().unwrap();
        let log = read_log(File::open(&trace).unwrap()).unwrap();
        assert_eq!(log.events().len(), 2);
    }

    #[test]
    fn wal_chunk_missing_from_trace_is_replayed_on_open() {
        let dir = scratch("replay");
        let trace = dir.join("t.events");
        let wdir = dir.join("wal");
        let before;
        {
            let (wal, _) = Wal::open(&trace, &wdir, opts_nosync()).unwrap();
            wal.append(None, &[WalEvent::node(0, Origin::Core)])
                .unwrap();
            before = fs::metadata(&trace).unwrap().len();
            wal.append(Some("lost"), &batch_onto_one_node()).unwrap();
        }
        // Simulate a crash between WAL fsync and trace apply: the chunk is
        // durable in the segment but missing from the trace.
        let f = OpenOptions::new().write(true).open(&trace).unwrap();
        f.set_len(before).unwrap();
        drop(f);
        let (wal, report) = Wal::open(&trace, &wdir, opts_nosync()).unwrap();
        assert_eq!(report.replayed_chunks, 1);
        assert_eq!(report.replayed_events, 2);
        let dup = wal.append(Some("lost"), &batch_onto_one_node()).unwrap();
        assert!(dup.duplicate, "replayed batch still deduplicates");
        wal.seal().unwrap();
        let log = read_log(File::open(&trace).unwrap()).unwrap();
        assert_eq!(log.events().len(), 3);
    }

    fn batch_onto_one_node() -> Vec<WalEvent> {
        vec![WalEvent::node(5, Origin::Core), WalEvent::edge(7, 0, 1)]
    }

    #[test]
    fn torn_trace_tail_is_repaired_from_the_wal() {
        let dir = scratch("torntrace");
        let trace = dir.join("t.events");
        let wdir = dir.join("wal");
        {
            let (wal, _) = Wal::open(&trace, &wdir, opts_nosync()).unwrap();
            wal.append(None, &[WalEvent::node(0, Origin::Core)])
                .unwrap();
            wal.append(Some("t2"), &batch_onto_one_node()).unwrap();
        }
        // Tear the trace mid-chunk (drop the last 10 bytes).
        let len = fs::metadata(&trace).unwrap().len();
        let f = OpenOptions::new().write(true).open(&trace).unwrap();
        f.set_len(len - 10).unwrap();
        drop(f);
        let (wal, report) = Wal::open(&trace, &wdir, opts_nosync()).unwrap();
        assert!(report.trace_truncated_bytes > 0);
        assert_eq!(report.replayed_chunks, 1);
        wal.seal().unwrap();
        let log = read_log(File::open(&trace).unwrap()).unwrap();
        assert_eq!(log.events().len(), 3);
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

    #[test]
    fn marker_roundtrip_and_damage_detection() {
        let m = marker_line(7, Some("abc-123"), 42);
        let t = m.trim();
        assert_eq!(parse_marker(t), Some((7, Some("abc-123".to_string()), 42)));
        let m2 = marker_line(9, None, 1);
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
