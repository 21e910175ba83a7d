//! v2 framing: every spelling of the format, in one place. The batch
//! reader ([`crate::io::read_log_with_policy`]), the tailer
//! ([`crate::tail::TailReader`]) and the write-ahead log's scan
//! ([`crate::wal`]) drive the same parts and keep only their policies:
//!
//! * [`Lines`] splits a byte stream into lines over one reused 64 KiB
//!   block, with no allocation per line. It finds each `\n` eight bytes
//!   a step, with a zero-byte test on `u64` words ([`find_newline`]):
//!   over the 3.8 MB trace of osnbench `analyze` that scan took 1.6 ms
//!   against 4.6 ms a byte at a time, and the CRC 3.4 ms (DESIGN.md,
//!   *Performance, honestly*).
//! * [`Framer`] classifies each trimmed line and holds the open chunk's
//!   payload lines back to back — exactly the bytes its CRC covers — so
//!   the line count, the chunk CRC and the footer are verified here and
//!   nowhere else.
//! * [`parse_payload`] parses a committed payload line into a
//!   [`WalEvent`], with a fast path for the exact spelling the writers
//!   emit; [`parse_event_line`] stays the one definition of the grammar
//!   and its error messages.
//! * The CRC itself is [`crate::crc32`].
//!
//! Every writer appends through the encoder ([`encode_magic`],
//! [`encode_chunk`], [`encode_directive`], [`encode_footer`]) and keeps
//! the footer's running count and CRC in a [`Totals`], the type the
//! [`Framer`] checks footers against. Each chunk's payload is checksummed
//! once, on write by [`encode_directive`] and on read by the [`Framer`];
//! a [`Totals`] folds that [`ChunkSum`] into the footer's CRC with
//! [`crc32_combine`] instead of reading the payload again.
//!
//! A dropped chunk (count or CRC mismatch, or no directive before the
//! footer) is one problem however many lines it held: both readers
//! charge it as one unit of a `Skip` error budget.

use crate::crc32::{crc32, crc32_combine};
use crate::event::Origin;
use crate::io::ParseError;
use std::io::{self, Read};

/// First line of a v2 trace file.
pub const FORMAT_V2_MAGIC: &str = "#%osn-events v2";

/// Size of the [`Lines`] block buffer. A longer line grows the buffer.
const BLOCK: usize = 64 * 1024;

/// Splits a reader into lines over one reused block buffer.
pub(crate) struct Lines<R> {
    r: R,
    buf: Vec<u8>,
    /// Unconsumed bytes are `buf[start..end]`.
    start: usize,
    end: usize,
    eof: bool,
}

impl<R: Read> Lines<R> {
    pub(crate) fn new(r: R) -> Self {
        Lines {
            r,
            buf: vec![0; BLOCK],
            start: 0,
            end: 0,
            eof: false,
        }
    }

    /// The next line including its `\n` (absent only on a final
    /// unterminated line), or `None` at end of stream. Interrupted reads
    /// are retried, so a signal never aborts a read mid-trace.
    pub(crate) fn next_line(&mut self) -> io::Result<Option<&[u8]>> {
        let mut scanned = self.start;
        loop {
            if let Some(i) = find_newline(&self.buf[scanned..self.end]) {
                let line = self.start..scanned + i + 1;
                self.start = line.end;
                return Ok(Some(&self.buf[line]));
            }
            if self.eof {
                if self.start == self.end {
                    return Ok(None);
                }
                let line = self.start..self.end;
                self.start = self.end;
                return Ok(Some(&self.buf[line]));
            }
            scanned = self.end - self.start;
            self.fill()?;
        }
    }

    /// Move the unconsumed bytes to the front, grow the buffer if they
    /// fill it, and read once more.
    fn fill(&mut self) -> io::Result<()> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            self.buf.resize(2 * self.buf.len(), 0);
        }
        let n = loop {
            match self.r.read(&mut self.buf[self.end..]) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                read => break read?,
            }
        };
        self.end += n;
        self.eof = n == 0;
        Ok(())
    }
}

/// Index of the first `\n` in `bytes`, eight bytes a step. A word holds a
/// `\n` exactly where `x = word ^ 0x0A0A…` holds a zero byte, and
/// `(x - 0x0101…) & !x & 0x8080…` sets the top bit of every zero byte of
/// `x`. It can also set the top bit of a byte above a zero byte, which
/// the borrow out of that zero byte reaches, but never of one below the
/// lowest, so in little-endian order the lowest set bit is the first
/// match.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_le_bytes([b'\n'; 8]);
    let mut words = bytes.chunks_exact(8);
    for (i, word) in (&mut words).enumerate() {
        let x = u64::from_le_bytes(word.try_into().expect("chunks of eight")) ^ NEWLINES;
        let zeros = x.wrapping_sub(ONES) & !x & HIGHS;
        if zeros != 0 {
            return Some(8 * i + (zeros.trailing_zeros() / 8) as usize);
        }
    }
    let tail = words.remainder();
    let at = bytes.len() - tail.len();
    tail.iter().position(|&b| b == b'\n').map(|i| at + i)
}

/// A `#%` line that is neither a well-formed chunk directive nor a
/// well-formed footer. Each reader words its own error from it.
pub(crate) enum BadDirective<'a> {
    /// The line is not valid UTF-8.
    NotUtf8,
    /// `#%chunk …` whose fields do not parse; carries the whole line.
    Chunk(&'a str),
    /// `#%end …` whose fields do not parse; carries the whole line.
    End(&'a str),
    /// A second format magic.
    Magic,
    /// Any other directive; carries the whole line.
    Unknown(&'a str),
}

/// What one line of a v2 stream did to the framing state.
pub(crate) enum Frame<'a> {
    /// A blank line or an ordinary `#` comment: not checksummed.
    Comment,
    /// A payload line, buffered until its chunk directive.
    Buffered,
    /// A payload line after the footer (not buffered).
    AfterFooter,
    /// A chunk directive whose line count and CRC verified. Its lines now
    /// count towards the footer; parse them in order.
    Verified(Chunk<'a>),
    /// A chunk directive whose line count or CRC did not match: the chunk
    /// is dropped, for this reason.
    Dropped(String),
    /// A well-formed footer. `dropped` is set when buffered lines had no
    /// chunk directive (they are dropped first); `verdict` says whether
    /// the footer's count and CRC match the committed payload.
    Footer {
        dropped: Option<String>,
        verdict: Result<(), String>,
    },
    /// Any other `#%` line. The open chunk is left as it was.
    Bad(BadDirective<'a>),
}

/// The v2 framing state: the open chunk and the footer's running totals.
#[derive(Debug, Default)]
pub(crate) struct Framer {
    /// The open chunk's trimmed payload lines, each followed by `\n`.
    open: Vec<u8>,
    /// `(line number, end offset in open)` per buffered line.
    open_lines: Vec<(usize, usize)>,
    /// The last verified chunk, handed out as a [`Chunk`].
    done: Vec<u8>,
    done_lines: Vec<(usize, usize)>,
    /// Every committed payload line (the footer's `events=` includes
    /// lines a policy later discards as malformed).
    totals: Totals,
    footer_seen: bool,
}

impl Framer {
    /// Line numbers of the open chunk's buffered payload lines.
    pub(crate) fn pending_lines(&self) -> impl Iterator<Item = usize> + '_ {
        self.open_lines.iter().map(|&(ln, _)| ln)
    }

    /// Number of buffered payload lines in the open chunk.
    pub(crate) fn pending(&self) -> usize {
        self.open_lines.len()
    }

    /// Forget the open chunk's buffered lines.
    pub(crate) fn discard_open(&mut self) {
        self.open.clear();
        self.open_lines.clear();
    }

    /// Whether a well-formed footer has been fed.
    pub(crate) fn footer_seen(&self) -> bool {
        self.footer_seen
    }

    /// The footer's running totals over the verified chunks so far.
    pub(crate) fn totals(&self) -> &Totals {
        &self.totals
    }

    /// Feed line `lineno`, already trimmed.
    pub(crate) fn feed<'a>(&'a mut self, lineno: usize, t: &'a [u8]) -> Frame<'a> {
        match t {
            [] => Frame::Comment,
            [b'#', b'%', ..] => self.directive(t),
            [b'#', ..] => Frame::Comment,
            _ if self.footer_seen => Frame::AfterFooter,
            _ => {
                self.open.extend_from_slice(t);
                self.open.push(b'\n');
                self.open_lines.push((lineno, self.open.len()));
                Frame::Buffered
            }
        }
    }

    fn directive<'a>(&'a mut self, t: &'a [u8]) -> Frame<'a> {
        let Ok(directive) = std::str::from_utf8(t) else {
            return Frame::Bad(BadDirective::NotUtf8);
        };
        if let Some(rest) = directive.strip_prefix("#%chunk ") {
            match parse_directive(rest, "lines=") {
                Some((lines, crc)) => self.close_chunk(lines, crc),
                None => Frame::Bad(BadDirective::Chunk(directive)),
            }
        } else if let Some(rest) = directive.strip_prefix("#%end ") {
            match parse_directive(rest, "events=") {
                Some((events, crc)) => self.footer(events, crc),
                None => Frame::Bad(BadDirective::End(directive)),
            }
        } else if directive == FORMAT_V2_MAGIC {
            Frame::Bad(BadDirective::Magic)
        } else {
            Frame::Bad(BadDirective::Unknown(directive))
        }
    }

    fn close_chunk(&mut self, lines: usize, crc: u32) -> Frame<'_> {
        // Only pay for the timestamp when telemetry is on.
        let started = osn_obs::enabled().then(std::time::Instant::now);
        let read = self.open_lines.len();
        let verdict = if lines != read {
            Err(format!("chunk declares {lines} lines but {read} were read"))
        } else {
            let sum = ChunkSum::of(&self.open, read);
            if crc == sum.crc {
                Ok(sum)
            } else {
                Err(format!(
                    "chunk checksum mismatch: expected {crc:08x}, got {:08x}",
                    sum.crc
                ))
            }
        };
        if let Some(t0) = started {
            osn_obs::histogram!("ingest.chunk_verify_us").record_duration(t0.elapsed());
        }
        match verdict {
            Ok(sum) => {
                self.totals.add(sum);
                std::mem::swap(&mut self.open, &mut self.done);
                std::mem::swap(&mut self.open_lines, &mut self.done_lines);
                self.discard_open();
                Frame::Verified(Chunk {
                    bytes: &self.done,
                    lines: self.done_lines.iter(),
                    start: 0,
                })
            }
            Err(reason) => {
                self.discard_open();
                Frame::Dropped(reason)
            }
        }
    }

    fn footer(&mut self, events: usize, crc: u32) -> Frame<'_> {
        let dropped = (!self.open_lines.is_empty()).then(|| {
            self.discard_open();
            "unterminated chunk before footer".to_string()
        });
        let got = self.totals.crc;
        let verdict = if events as u64 == self.totals.lines && crc == got {
            Ok(())
        } else {
            Err(format!(
                "footer mismatch: declared {events} events crc {crc:08x}, \
                 committed {} events crc {got:08x}",
                self.totals.lines
            ))
        };
        self.footer_seen = true;
        Frame::Footer { dropped, verdict }
    }
}

/// The lines of a verified chunk: `(line number, trimmed bytes)`.
pub(crate) struct Chunk<'a> {
    bytes: &'a [u8],
    lines: std::slice::Iter<'a, (usize, usize)>,
    start: usize,
}

impl<'a> Chunk<'a> {
    /// The chunk's payload as its CRC covers it: every line, each
    /// followed by `\n`.
    pub(crate) fn payload(&self) -> &'a [u8] {
        self.bytes
    }
}

impl<'a> Iterator for Chunk<'a> {
    type Item = (usize, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        let &(lineno, end) = self.lines.next()?;
        let line = &self.bytes[self.start..end - 1];
        self.start = end;
        Some((lineno, line))
    }
}

/// One closed chunk: its payload's CRC, byte length and line count —
/// everything a [`Totals`] needs to fold it in.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChunkSum {
    crc: u32,
    len: u64,
    lines: u64,
}

impl ChunkSum {
    /// Checksum `payload`, `lines` lines each followed by `\n`: the one
    /// pass over a chunk's bytes.
    fn of(payload: &[u8], lines: usize) -> ChunkSum {
        ChunkSum {
            crc: crc32(payload),
            len: payload.len() as u64,
            lines: lines as u64,
        }
    }
}

/// The footer's running totals: how many payload lines are committed and
/// the CRC over them. The [`Framer`] checks a footer against its totals;
/// the writers keep one per stream to write theirs.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Totals {
    lines: u64,
    /// `crc32` of every committed payload byte (0 for none).
    crc: u32,
}

impl Totals {
    /// Fold in one chunk, as if its payload were fed after everything
    /// committed so far.
    pub(crate) fn add(&mut self, sum: ChunkSum) {
        self.crc = crc32_combine(self.crc, sum.crc, sum.len);
        self.lines += sum.lines;
    }

    /// Payload lines committed so far.
    pub(crate) fn lines(&self) -> u64 {
        self.lines
    }
}

/// Append `n` in decimal, as `{n}` formats it, without `core::fmt`.
pub fn push_decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Append `crc` as eight lower-case hex digits, as `{crc:08x}` formats it.
pub(crate) fn push_hex8(out: &mut Vec<u8>, crc: u32) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    for shift in (0..32).step_by(4).rev() {
        out.push(HEX[((crc >> shift) & 0xF) as usize]);
    }
}

/// Append `<prefix><n> crc=<crc>\n`, the shape of both directives.
fn push_directive(out: &mut Vec<u8>, prefix: &[u8], n: u64, crc: u32) {
    out.extend_from_slice(prefix);
    push_decimal(out, n);
    out.extend_from_slice(b" crc=");
    push_hex8(out, crc);
    out.push(b'\n');
}

/// Append the format magic line.
pub(crate) fn encode_magic(buf: &mut Vec<u8>) {
    buf.extend_from_slice(FORMAT_V2_MAGIC.as_bytes());
    buf.push(b'\n');
}

/// Append `events` as one chunk — their payload lines, in the spelling
/// [`parse_payload`]'s fast path reads, then the chunk directive. Returns
/// the chunk for the stream's [`Totals`].
pub(crate) fn encode_chunk(
    buf: &mut Vec<u8>,
    events: impl IntoIterator<Item = WalEvent>,
) -> ChunkSum {
    let start = buf.len();
    let mut lines = 0;
    for ev in events {
        match ev.kind {
            WalEventKind::Node(origin) => {
                buf.extend_from_slice(b"N ");
                push_decimal(buf, ev.time);
                buf.push(b' ');
                buf.extend_from_slice(origin.label().as_bytes());
            }
            WalEventKind::Edge(u, v) => {
                buf.extend_from_slice(b"E ");
                push_decimal(buf, ev.time);
                buf.push(b' ');
                push_decimal(buf, u64::from(u));
                buf.push(b' ');
                push_decimal(buf, u64::from(v));
            }
        }
        buf.push(b'\n');
        lines += 1;
    }
    encode_directive(buf, start, lines)
}

/// Close the chunk whose `lines` payload lines are `buf[start..]`:
/// checksum the payload and append its directive.
pub(crate) fn encode_directive(buf: &mut Vec<u8>, start: usize, lines: usize) -> ChunkSum {
    let sum = ChunkSum::of(&buf[start..], lines);
    push_directive(buf, b"#%chunk lines=", sum.lines, sum.crc);
    sum
}

/// Append the `#%end` footer that `totals` verify.
pub(crate) fn encode_footer(buf: &mut Vec<u8>, totals: &Totals) {
    push_directive(buf, b"#%end events=", totals.lines, totals.crc);
}

/// Parse a directive's fields, `<key><n> crc=<hex>` (`key` is `lines=`
/// for a chunk, `events=` for the footer); returns `(n, crc)`.
fn parse_directive(rest: &str, key: &str) -> Option<(usize, u32)> {
    let mut it = rest.split_ascii_whitespace();
    let n = it.next()?.strip_prefix(key)?.parse().ok()?;
    let crc = u32::from_str_radix(it.next()?.strip_prefix("crc=")?, 16).ok()?;
    if it.next().is_some() {
        return None;
    }
    Some((n, crc))
}

/// One event line: what the parsers return and what the encoder and the
/// write plane take. Node ids are implicit (dense, in arrival order), as
/// `N` lines carry only a timestamp and origin.
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

    /// Parse one `N`/`E` payload line (the same grammar, and the same
    /// parser, the trace readers use). An error is the reason alone, for
    /// the caller to place: only it knows where the line sat.
    pub fn parse_line(line: &str) -> Result<WalEvent, String> {
        parse_payload(line.as_bytes(), 0).map_err(|e| match e {
            ParseError::Malformed { reason, .. } => reason,
            other => other.to_string(),
        })
    }
}

/// Parse one trimmed payload line as [`parse_event_line`] would, trying
/// the canonical spelling first.
pub(crate) fn parse_payload(line: &[u8], lineno: usize) -> Result<WalEvent, ParseError> {
    if let Some(ev) = parse_canonical(line) {
        return Ok(ev);
    }
    match std::str::from_utf8(line) {
        Ok(text) => parse_event_line(text, lineno),
        Err(_) => Err(ParseError::Malformed {
            line: lineno,
            reason: "line is not valid utf-8".to_string(),
        }),
    }
}

/// The exact spelling the writers emit — `N <secs> <origin>` or
/// `E <secs> <u> <v>`, single spaces, plain digits — or `None`, leaving
/// every other spelling and every error to [`parse_event_line`].
fn parse_canonical(line: &[u8]) -> Option<WalEvent> {
    let (&tag, rest) = line.split_first()?;
    let (time, rest) = digits(rest.strip_prefix(b" ")?)?;
    let rest = rest.strip_prefix(b" ")?;
    let kind = match tag {
        b'N' => WalEventKind::Node(origin_named(rest)?),
        b'E' => {
            let (u, rest) = digits(rest)?;
            let (v, rest) = digits(rest.strip_prefix(b" ")?)?;
            if !rest.is_empty() {
                return None;
            }
            WalEventKind::Edge(u32::try_from(u).ok()?, u32::try_from(v).ok()?)
        }
        _ => return None,
    };
    Some(WalEvent { time, kind })
}

/// A run of 1 to 19 ASCII digits (always fits a `u64`) at the start of
/// `s`, and the bytes after it.
fn digits(s: &[u8]) -> Option<(u64, &[u8])> {
    let mut value = 0u64;
    let mut len = 0;
    while let Some(&b) = s.get(len) {
        if !b.is_ascii_digit() {
            break;
        }
        if len == 19 {
            return None;
        }
        value = value * 10 + u64::from(b - b'0');
        len += 1;
    }
    (len > 0).then(|| (value, &s[len..]))
}

/// The origin whose [`Origin::label`] — the word the writers emit — is
/// `tok`.
fn origin_named(tok: &[u8]) -> Option<Origin> {
    [Origin::Core, Origin::Competitor, Origin::PostMerge]
        .into_iter()
        .find(|o| o.label().as_bytes() == tok)
}

fn parse_origin(tok: &str, line: usize) -> Result<Origin, ParseError> {
    origin_named(tok.as_bytes()).ok_or_else(|| ParseError::Malformed {
        line,
        reason: format!("unknown origin '{tok}'"),
    })
}

/// Parse one payload line. This is the grammar of an event line and the
/// wording of its errors; [`parse_payload`]'s fast path must agree with
/// it exactly.
pub(crate) fn parse_event_line(line: &str, lineno: usize) -> Result<WalEvent, ParseError> {
    let mut parts = line.split_ascii_whitespace();
    let tag = parts.next().unwrap_or_default();
    let malformed = |reason: &str| ParseError::Malformed {
        line: lineno,
        reason: reason.to_string(),
    };
    let secs: u64 = parts
        .next()
        .ok_or_else(|| malformed("missing timestamp"))?
        .parse()
        .map_err(|_| malformed("bad timestamp"))?;
    let kind = match tag {
        "N" => {
            let origin = parse_origin(
                parts.next().ok_or_else(|| malformed("missing origin"))?,
                lineno,
            )?;
            WalEventKind::Node(origin)
        }
        "E" => {
            let u: u32 = parts
                .next()
                .ok_or_else(|| malformed("missing endpoint u"))?
                .parse()
                .map_err(|_| malformed("bad endpoint u"))?;
            let v: u32 = parts
                .next()
                .ok_or_else(|| malformed("missing endpoint v"))?
                .parse()
                .map_err(|_| malformed("bad endpoint v"))?;
            WalEventKind::Edge(u, v)
        }
        other => {
            return Err(malformed(&format!("unknown record tag '{other}'")));
        }
    };
    if parts.next().is_some() {
        return Err(malformed("trailing tokens"));
    }
    Ok(WalEvent { time: secs, kind })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// What `parse_payload` must return for `line`: the general parser,
    /// errors compared by their text.
    fn oracle(line: &[u8], lineno: usize) -> Result<WalEvent, String> {
        match std::str::from_utf8(line) {
            Ok(text) => parse_event_line(text, lineno).map_err(|e| e.to_string()),
            Err(_) => Err(format!("line {lineno}: line is not valid utf-8")),
        }
    }

    fn fast_or_fallback(line: &[u8], lineno: usize) -> Result<WalEvent, String> {
        parse_payload(line, lineno).map_err(|e| e.to_string())
    }

    /// Pieces of the random lines: the canonical tokens plus every
    /// spelling the general parser treats differently from them.
    const TOKENS: &[&[u8]] = &[
        b"N",
        b"E",
        b"X",
        b"n",
        b"NE",
        b" ",
        b" ",
        b" ",
        b"  ",
        b"\t",
        b"\r",
        b"\x0c",
        b"\x0b",
        b"+",
        b"-",
        b"0",
        b"00",
        b"007",
        b"42",
        b"86400",
        b"4294967295",
        b"4294967296",
        b"1234567890123456789",
        b"9999999999999999999",
        b"12345678901234567890",
        b"18446744073709551615",
        b"18446744073709551616",
        b"core",
        b"competitor",
        b"postmerge",
        b"martian",
        b"Core",
        b"cor",
        b"\xff",
        b"\xc3\x28",
        "\u{e9}".as_bytes(),
    ];

    proptest! {
        /// Lines drawn from `TOKENS`: fast path plus fallback equals the
        /// general parser, error strings included.
        #[test]
        fn random_lines_parse_like_the_general_parser(
            toks in prop::collection::vec(0usize..TOKENS.len(), 0..9),
            lineno in 1usize..10_000,
        ) {
            let line: Vec<u8> = toks.iter().flat_map(|&i| TOKENS[i].iter().copied()).collect();
            prop_assert_eq!(fast_or_fallback(&line, lineno), oracle(&line, lineno));
        }

        /// Canonical lines take the fast path; one inserted, deleted or
        /// replaced byte anywhere still parses exactly as the general
        /// parser says.
        #[test]
        fn near_canonical_lines_parse_like_the_general_parser(
            edge in any::<bool>(),
            raw in any::<u64>(),
            width in 0u32..20,
            ends in (any::<u32>(), any::<u32>(), 0u32..10),
            origin in 0usize..3,
            edit in 0usize..4,
            at in any::<usize>(),
            tok in 0usize..TOKENS.len(),
        ) {
            // Timestamps of every width from 1 to 20 digits.
            let time = if width == 19 { raw } else { raw % 10u64.pow(width + 1) };
            let (u, v) = (ends.0 % 10u32.pow(ends.2), ends.1);
            let mut line = if edge {
                format!("E {time} {u} {v}").into_bytes()
            } else {
                let o = [Origin::Core, Origin::Competitor, Origin::PostMerge][origin];
                format!("N {time} {}", o.label()).into_bytes()
            };
            // Timestamps of 20 digits are left to the general parser.
            prop_assert_eq!(parse_canonical(&line).is_some(), time < 10_000_000_000_000_000_000);
            let at = at % (line.len() + 1);
            match edit {
                0 => {}
                1 => {
                    line.splice(at..at, TOKENS[tok].iter().copied());
                }
                2 if at < line.len() => {
                    line.remove(at);
                }
                _ if at < line.len() => line[at] = TOKENS[tok][0],
                _ => {}
            }
            prop_assert_eq!(fast_or_fallback(&line, 3), oracle(&line, 3));
        }
    }

    /// Bytes other than `\n` that the stream around a match is made of.
    const NOT_NEWLINE: &[u8] = b"E 7\x0b\x8a\x00\xff";

    /// The bytes placed right before and after a `\n`: a second `\n`, and
    /// bytes one bit or one borrow away from it.
    const AROUND: &[u8] = b"\n\x0b\x8a\x00\xff";

    proptest! {
        /// The word search finds the first `\n` where a byte scan does:
        /// every length to 96 at every start offset within a word, with no
        /// `\n` at all and with one at every place, flanked by `AROUND`.
        #[test]
        fn newline_search_matches_a_byte_scan(
            fill in prop::collection::vec(0usize..NOT_NEWLINE.len(), 1 + 8 + 96 + 1),
            before in 0usize..AROUND.len(),
            after in 0usize..AROUND.len(),
        ) {
            let base: Vec<u8> = fill.iter().map(|&i| NOT_NEWLINE[i]).collect();
            for offset in 1..1 + 8 {
                for len in 0..=96 {
                    let end = offset + len;
                    prop_assert_eq!(find_newline(&base[offset..end]), None);
                    for at in offset..end {
                        let mut buf = base.clone();
                        buf[at - 1] = AROUND[before];
                        buf[at + 1] = AROUND[after];
                        buf[at] = b'\n';
                        let hay = &buf[offset..end];
                        prop_assert_eq!(
                            find_newline(hay),
                            hay.iter().position(|&b| b == b'\n'),
                            "offset {} len {} at {}", offset, len, at
                        );
                    }
                }
            }
        }
    }

    /// A reader that hands out one byte per read.
    struct ByteAtATime<'a>(&'a [u8]);

    impl Read for ByteAtATime<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match (self.0.split_first(), buf.first_mut()) {
                (Some((&b, rest)), Some(slot)) => {
                    *slot = b;
                    self.0 = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    fn all_lines(text: &[u8]) -> Vec<Vec<u8>> {
        let mut lines = Lines::new(ByteAtATime(text));
        let mut got = Vec::new();
        while let Some(line) = lines.next_line().expect("in-memory reader") {
            got.push(line.to_vec());
        }
        got
    }

    fn split_lines(text: &[u8]) -> Vec<Vec<u8>> {
        text.split_inclusive(|&b| b == b'\n')
            .map(<[u8]>::to_vec)
            .collect()
    }

    proptest! {
        /// `Lines` over a reader that returns one byte per read splits as
        /// `split_inclusive` does, the final unterminated line included.
        #[test]
        fn lines_from_one_byte_reads_split_like_split_inclusive(
            picks in prop::collection::vec(0usize..AROUND.len() + NOT_NEWLINE.len(), 0..300),
        ) {
            let text: Vec<u8> = picks
                .iter()
                .map(|&i| AROUND.get(i).copied().unwrap_or_else(|| NOT_NEWLINE[i - AROUND.len()]))
                .collect();
            prop_assert_eq!(all_lines(&text), split_lines(&text));
        }
    }

    #[test]
    fn a_line_longer_than_the_block_arrives_whole_from_one_byte_reads() {
        let mut text = vec![b'E'; BLOCK + 1000];
        text.extend_from_slice(b"\n\nN 1 core\nE 2 0");
        assert_eq!(all_lines(&text), split_lines(&text));
    }

    /// The `core::fmt` spelling the encoder replaced, kept as its oracle:
    /// the bytes of every v2 file and WAL segment written before it.
    fn fmt_chunk(buf: &mut Vec<u8>, events: &[WalEvent]) {
        use std::io::Write;
        let start = buf.len();
        for ev in events {
            match ev.kind {
                WalEventKind::Node(o) => writeln!(buf, "N {} {}", ev.time, o.label()).unwrap(),
                WalEventKind::Edge(u, v) => writeln!(buf, "E {} {u} {v}", ev.time).unwrap(),
            }
        }
        let crc = crc32(&buf[start..]);
        writeln!(buf, "#%chunk lines={} crc={crc:08x}", events.len()).unwrap();
    }

    fn fmt_footer(buf: &mut Vec<u8>, events: usize, payload: &[u8]) {
        use std::io::Write;
        writeln!(buf, "#%end events={events} crc={:08x}", crc32(payload)).unwrap();
    }

    /// `raw` cut to at most `width` decimal digits and capped at `max`;
    /// widths 0 and 1 give the extremes, 0 and `max`.
    fn spread(raw: u64, width: u32, max: u64) -> u64 {
        match width {
            0 => 0,
            1 => max,
            w if w >= 20 => raw % max.saturating_add(1).max(1),
            w => (raw % 10u64.pow(w)).min(max),
        }
    }

    /// Raw draws for one event: time, two ids, a kind (0–2 a node of that
    /// origin, else an edge) and a width for each number.
    type RawEvent = (u64, u64, u64, u8, (u32, u32, u32));

    fn raw_events(max: usize) -> impl Strategy<Value = Vec<RawEvent>> {
        let widths = (0u32..22, 0u32..12, 0u32..12);
        prop::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u64>(), 0u8..6, widths),
            1..max,
        )
    }

    /// Events with times over `0..=u64::MAX`, ids over `0..=u32::MAX`,
    /// every origin, and numbers of every width.
    fn events_from(raw: &[RawEvent]) -> Vec<WalEvent> {
        let origins = [Origin::Core, Origin::Competitor, Origin::PostMerge];
        (raw.iter())
            .map(|&(t, u, v, kind, (wt, wu, wv))| {
                let time = spread(t, wt, u64::MAX);
                let id = |raw, w| spread(raw, w, u64::from(u32::MAX)) as u32;
                match kind {
                    0..=2 => WalEvent::node(time, origins[kind as usize]),
                    _ => WalEvent::edge(time, id(u, wu), id(v, wv)),
                }
            })
            .collect()
    }

    proptest! {
        /// `encode_chunk` writes exactly the `core::fmt` oracle's bytes,
        /// and returns the CRC, length and line count of its payload.
        #[test]
        fn encoder_matches_the_fmt_oracle(
            raw in raw_events(48),
            prefix in 0usize..3,
        ) {
            let events = events_from(&raw);
            // Appending after earlier bytes, as every caller does.
            let lead = &b"#%osn-events v2\n# batch seq=1\n"[..[0, 16, 30][prefix]];
            let (mut got, mut want) = (lead.to_vec(), lead.to_vec());
            let sum = encode_chunk(&mut got, events.iter().copied());
            fmt_chunk(&mut want, &events);
            prop_assert_eq!(String::from_utf8_lossy(&got), String::from_utf8_lossy(&want));
            let payload_end = got.len() - (got.iter().rev().skip(1).position(|&b| b == b'\n').unwrap() + 1);
            let payload = &got[lead.len()..payload_end];
            prop_assert_eq!(sum.crc, crc32(payload));
            prop_assert_eq!(sum.len, payload.len() as u64);
            prop_assert_eq!(sum.lines, events.len() as u64);
            for (line, ev) in payload.split(|&b| b == b'\n').zip(&events) {
                prop_assert_eq!(parse_payload(line, 1).ok(), Some(*ev));
            }
        }

        /// A `Totals` folded chunk by chunk holds the one-pass CRC of the
        /// whole payload, and its footer is the oracle's.
        #[test]
        fn totals_fold_to_the_whole_payload_crc(
            raw in raw_events(200),
            cuts in prop::collection::vec(1usize..40, 1..12),
        ) {
            let events = events_from(&raw);
            let (mut totals, mut payload, mut rest) = (Totals::default(), Vec::new(), &events[..]);
            let mut cut = cuts.iter().cycle();
            while !rest.is_empty() {
                let n = (*cut.next().unwrap()).min(rest.len());
                let mut buf = Vec::new();
                totals.add(encode_chunk(&mut buf, rest[..n].iter().copied()));
                let body = buf.len() - (buf.iter().rev().skip(1).position(|&b| b == b'\n').unwrap() + 1);
                payload.extend_from_slice(&buf[..body]);
                rest = &rest[n..];
            }
            prop_assert_eq!(totals.crc, crc32(&payload));
            prop_assert_eq!(totals.lines(), events.len() as u64);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            encode_footer(&mut got, &totals);
            fmt_footer(&mut want, events.len(), &payload);
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn decimal_and_hex_match_fmt_at_the_edges() {
        let powers = (0..20).map(|k| 10u64.pow(k));
        let nines = (1..20).map(|k| 10u64.pow(k) - 1);
        let extremes = [0, u64::from(u32::MAX), u64::MAX - 1, u64::MAX];
        for n in powers.chain(nines).chain(extremes) {
            let mut buf = Vec::new();
            push_decimal(&mut buf, n);
            assert_eq!(buf, n.to_string().into_bytes());
        }
        for crc in [0, 1, 0xF, 0x10, 0xDEAD_BEEF, 0x0123_4567, u32::MAX] {
            let mut buf = Vec::new();
            push_hex8(&mut buf, crc);
            assert_eq!(buf, format!("{crc:08x}").into_bytes());
        }
    }

    #[test]
    fn digit_run_limits_match_the_general_parser() {
        for line in [
            "N 9999999999999999999 core",
            "N 10000000000000000000 core",
            "N 18446744073709551616 core",
            "N 00000000000000000001 core",
            "E 0 4294967295 4294967295",
            "E 0 4294967296 1",
            "E 0 1 99999999999",
            "E 0 1 2 3",
            "N +5 core",
            "N 5 core ",
        ] {
            assert_eq!(
                fast_or_fallback(line.as_bytes(), 9),
                oracle(line.as_bytes(), 9),
                "{line}"
            );
        }
    }
}
