//! Deterministic fault injection for I/O and HTTP robustness tests.
//!
//! [`ChaosReader`] and [`ChaosWriter`] wrap any `Read`/`Write` and inject
//! the failure modes real storage exhibits — short reads, `EINTR`
//! ([`std::io::ErrorKind::Interrupted`]), mid-stream truncation, bit
//! corruption, and write failures partway through — driven by a seeded
//! deterministic generator so every failing test case replays exactly.
//!
//! The compute-plane analogue, `ChaosTaskPlan`, lives next to the
//! executor it drives, in `osn_metrics::supervisor`.
//!
//! The module is compiled for this crate's own tests and, through the
//! `testutil` feature, for the integration tests of other crates and for
//! the `bench_serve` load generator; no library or CLI code uses it, so
//! the libraries build without it.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

/// SplitMix64: small, seedable, and good enough to schedule faults.
#[derive(Debug, Clone)]
struct Splitmix {
    state: u64,
}

impl Splitmix {
    fn new(seed: u64) -> Self {
        Splitmix { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// True with probability `1 / one_in` (never for `one_in == 0`).
    fn one_in(&mut self, one_in: u32) -> bool {
        one_in > 0 && self.next_u64().is_multiple_of(one_in as u64)
    }

    /// Uniform value in `1..=max`.
    fn upto(&mut self, max: usize) -> usize {
        1 + (self.next_u64() as usize) % max
    }
}

/// Fault plan for a [`ChaosReader`].
#[derive(Debug, Clone, Default)]
pub struct ChaosReaderConfig {
    /// Return `ErrorKind::Interrupted` roughly one call in this many
    /// (0 disables).
    pub interrupt_one_in: u32,
    /// Cap each read at a random length in `1..=short_read_max`
    /// (0 disables short reads).
    pub short_read_max: usize,
    /// Flip one random bit per read call roughly one call in this many
    /// (0 disables corruption).
    pub corrupt_one_in: u32,
    /// Report end-of-stream after this many bytes, simulating a truncated
    /// file.
    pub truncate_at: Option<u64>,
}

impl ChaosReaderConfig {
    /// Interrupt-heavy, short-read-heavy plan with intact data — a reader
    /// that retries correctly must survive this unchanged.
    pub fn flaky() -> Self {
        ChaosReaderConfig {
            interrupt_one_in: 3,
            short_read_max: 7,
            ..Self::default()
        }
    }
}

/// A `Read` adapter that injects deterministic faults.
#[derive(Debug)]
pub struct ChaosReader<R> {
    inner: R,
    cfg: ChaosReaderConfig,
    rng: Splitmix,
    offset: u64,
}

impl<R: Read> ChaosReader<R> {
    /// Wrap `inner` with the given fault plan; equal seeds give equal
    /// fault schedules.
    pub fn new(inner: R, seed: u64, cfg: ChaosReaderConfig) -> Self {
        ChaosReader {
            inner,
            cfg,
            rng: Splitmix::new(seed),
            offset: 0,
        }
    }
}

impl<R: Read> Read for ChaosReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        if let Some(limit) = self.cfg.truncate_at {
            if self.offset >= limit {
                return Ok(0);
            }
        }
        if self.rng.one_in(self.cfg.interrupt_one_in) {
            return Err(io::Error::new(io::ErrorKind::Interrupted, "injected EINTR"));
        }
        let mut len = buf.len();
        if self.cfg.short_read_max > 0 {
            len = len.min(self.rng.upto(self.cfg.short_read_max));
        }
        if let Some(limit) = self.cfg.truncate_at {
            len = len.min((limit - self.offset) as usize);
        }
        let n = self.inner.read(&mut buf[..len])?;
        if n > 0 && self.rng.one_in(self.cfg.corrupt_one_in) {
            let byte = self.rng.next_u64() as usize % n;
            let bit = self.rng.next_u64() % 8;
            buf[byte] ^= 1 << bit;
        }
        self.offset += n as u64;
        Ok(n)
    }
}

/// Fault plan for a [`ChaosWriter`].
#[derive(Debug, Clone, Default)]
pub struct ChaosWriterConfig {
    /// Return `ErrorKind::Interrupted` roughly one call in this many
    /// (0 disables).
    pub interrupt_one_in: u32,
    /// Cap each write at a random length in `1..=short_write_max`
    /// (0 disables short writes).
    pub short_write_max: usize,
    /// Fail every write after this many bytes went through, simulating a
    /// full disk or a crashed process mid-write.
    pub fail_after: Option<u64>,
}

/// A `Write` adapter that injects deterministic faults.
#[derive(Debug)]
pub struct ChaosWriter<W> {
    inner: W,
    cfg: ChaosWriterConfig,
    rng: Splitmix,
    written: u64,
}

impl<W: Write> ChaosWriter<W> {
    /// Wrap `inner` with the given fault plan; equal seeds give equal
    /// fault schedules.
    pub fn new(inner: W, seed: u64, cfg: ChaosWriterConfig) -> Self {
        ChaosWriter {
            inner,
            cfg,
            rng: Splitmix::new(seed),
            written: 0,
        }
    }

    /// Bytes successfully written so far.
    pub fn bytes_written(&self) -> u64 {
        self.written
    }

    /// Unwrap the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for ChaosWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        if let Some(limit) = self.cfg.fail_after {
            if self.written >= limit {
                return Err(io::Error::other("injected write failure (disk full)"));
            }
        }
        if self.rng.one_in(self.cfg.interrupt_one_in) {
            return Err(io::Error::new(io::ErrorKind::Interrupted, "injected EINTR"));
        }
        let mut len = buf.len();
        if self.cfg.short_write_max > 0 {
            len = len.min(self.rng.upto(self.cfg.short_write_max));
        }
        if let Some(limit) = self.cfg.fail_after {
            len = len.min((limit - self.written) as usize).max(1);
        }
        let n = self.inner.write(&buf[..len])?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// The `slow_append` chaos mode: a writer that lands every append in
/// **two** flushes with a pause in between, deterministically exposing
/// the torn-tail window a live reader must treat as "not yet written".
///
/// Two styles of use:
///
/// * Threaded drills call [`SlowAppendWriter::append_slow`], which
///   flushes the first half, sleeps the configured pause (giving a
///   concurrently polling reader time to observe the torn state), then
///   flushes the rest.
/// * Deterministic unit tests call [`SlowAppendWriter::append_torn`] and
///   [`SlowAppendWriter::complete`] themselves, polling the reader in
///   between with no timing dependence at all.
///
/// The split point is a pure function of the buffer length (its
/// midpoint), so equal inputs tear identically on every run.
#[derive(Debug)]
pub struct SlowAppendWriter<W> {
    inner: W,
    pause: Duration,
    flushes: u64,
}

impl<W: Write> SlowAppendWriter<W> {
    /// Wrap `inner`; `pause` is the torn-window duration for
    /// [`append_slow`](SlowAppendWriter::append_slow).
    pub fn new(inner: W, pause: Duration) -> Self {
        SlowAppendWriter {
            inner,
            pause,
            flushes: 0,
        }
    }

    /// Where a buffer of this length tears: its midpoint.
    pub fn split_point(len: usize) -> usize {
        len / 2
    }

    /// Write and flush only the first half of `buf`, leaving the file in
    /// the torn state. Returns the split offset to pass to
    /// [`complete`](SlowAppendWriter::complete).
    pub fn append_torn(&mut self, buf: &[u8]) -> io::Result<usize> {
        let split = Self::split_point(buf.len());
        self.inner.write_all(&buf[..split])?;
        self.inner.flush()?;
        self.flushes += 1;
        Ok(split)
    }

    /// Write and flush the remainder of a previously torn append.
    pub fn complete(&mut self, buf: &[u8], split: usize) -> io::Result<()> {
        self.inner.write_all(&buf[split..])?;
        self.inner.flush()?;
        self.flushes += 1;
        Ok(())
    }

    /// One full append as two flushes separated by the configured pause.
    pub fn append_slow(&mut self, buf: &[u8]) -> io::Result<()> {
        let split = self.append_torn(buf)?;
        if !self.pause.is_zero() {
            std::thread::sleep(self.pause);
        }
        self.complete(buf, split)
    }

    /// How many flushes have landed (two per completed append).
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Unwrap the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

// ---------------------------------------------------------------------------
// Chaos HTTP clients — misbehaving peers for exercising `osn serve`.
//
// These are the network-plane analogue of [`ChaosReader`]: deliberately
// hostile or broken HTTP/1.1 clients (slow-loris writers, half-closed
// sockets, header floods) plus one honest blocking client, all built on
// `std::net::TcpStream` so server tests need no extra dependencies.
// ---------------------------------------------------------------------------

/// A parsed HTTP/1.1 response from one of the chaos clients.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Header `(name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Everything after the blank line (responses here always close the
    /// connection, so the body is read to EOF).
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (empty string if it is not valid UTF-8).
    pub fn body_str(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

fn parse_response(raw: &[u8]) -> io::Result<HttpResponse> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no header terminator in response"))?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| bad("non-UTF-8 response head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty response"))?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            headers.push((k.trim().to_string(), v.trim().to_string()));
        }
    }
    Ok(HttpResponse {
        status,
        headers,
        body: raw[head_end + 4..].to_vec(),
    })
}

/// Read from `stream` until EOF or `deadline`, whichever comes first,
/// returning whatever arrived. Timeouts are treated as end-of-data, not
/// errors, so callers can inspect partial responses from a server that
/// cut them off.
fn read_until_eof_or_deadline(stream: &TcpStream, deadline: Instant) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut s = stream;
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            break;
        }
        // set_read_timeout(Some(0)) is an error, so clamp upward.
        let _ = stream.set_read_timeout(Some(remaining.max(Duration::from_millis(1))));
        match s.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::TimedOut => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    buf
}

/// Send `raw` to `addr` and parse whatever comes back before `timeout`.
///
/// This is the honest client: one burst, then read to EOF. Errors only
/// on connect failure or a response too mangled to parse.
pub fn http_request_raw(addr: &str, raw: &[u8], timeout: Duration) -> io::Result<HttpResponse> {
    let deadline = Instant::now() + timeout;
    let mut stream = TcpStream::connect(addr)?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(raw)?;
    let _ = stream.flush();
    let bytes = read_until_eof_or_deadline(&stream, deadline);
    if bytes.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::ConnectionAborted,
            "server closed without responding",
        ));
    }
    parse_response(&bytes)
}

/// Plain `GET path` with `Connection: close`.
pub fn http_get(addr: &str, path: &str, timeout: Duration) -> io::Result<HttpResponse> {
    let req = format!("GET {path} HTTP/1.1\r\nHost: osn\r\nConnection: close\r\n\r\n");
    http_request_raw(addr, req.as_bytes(), timeout)
}

/// `POST path` with a body, `Connection: close`, and arbitrary extra
/// headers (`("Authorization", "Bearer t")`-style pairs). The write-plane
/// analogue of [`http_get`], for drills against `POST /v1/events`.
pub fn http_post(
    addr: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
    timeout: Duration,
) -> io::Result<HttpResponse> {
    let mut req = format!("POST {path} HTTP/1.1\r\nHost: osn\r\nConnection: close\r\n");
    for (k, v) in headers {
        req.push_str(&format!("{k}: {v}\r\n"));
    }
    req.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    let mut raw = req.into_bytes();
    raw.extend_from_slice(body);
    http_request_raw(addr, &raw, timeout)
}

/// `GET path`, then immediately half-close the write side (`shutdown(Write)`)
/// before reading. A robust server must still answer: FIN on the client's
/// send direction is not an abort.
pub fn http_get_half_close(addr: &str, path: &str, timeout: Duration) -> io::Result<HttpResponse> {
    let deadline = Instant::now() + timeout;
    let mut stream = TcpStream::connect(addr)?;
    stream.set_write_timeout(Some(timeout))?;
    let req = format!("GET {path} HTTP/1.1\r\nHost: osn\r\nConnection: close\r\n\r\n");
    stream.write_all(req.as_bytes())?;
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Write);
    let bytes = read_until_eof_or_deadline(&stream, deadline);
    if bytes.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::ConnectionAborted,
            "server closed without responding",
        ));
    }
    parse_response(&bytes)
}

/// A persistent (keep-alive) HTTP/1.1 client: many requests per
/// connection, responses framed by `Content-Length` instead of EOF.
/// Drives the server's pipelining, parking, and response-cache paths;
/// the `Connection: close` helpers above cannot reach them.
#[derive(Debug)]
pub struct HttpClient {
    stream: TcpStream,
    /// Bytes read past the end of the last parsed response (the head of
    /// the next pipelined response).
    buf: Vec<u8>,
}

impl HttpClient {
    /// Open a persistent connection.
    pub fn connect(addr: &str) -> io::Result<HttpClient> {
        Ok(HttpClient {
            stream: TcpStream::connect(addr)?,
            buf: Vec::new(),
        })
    }

    /// Write raw bytes (for pipelining several requests in one burst, or
    /// splitting a request across arbitrary chunk boundaries).
    pub fn send_raw(&mut self, raw: &[u8]) -> io::Result<()> {
        self.stream.write_all(raw)?;
        self.stream.flush()
    }

    /// Send `GET path` with optional extra headers, keeping the
    /// connection open.
    pub fn send_get(&mut self, path: &str, headers: &[(&str, &str)]) -> io::Result<()> {
        let mut req = format!("GET {path} HTTP/1.1\r\nHost: osn\r\n");
        for (k, v) in headers {
            req.push_str(&format!("{k}: {v}\r\n"));
        }
        req.push_str("\r\n");
        self.send_raw(req.as_bytes())
    }

    /// Send `POST path` with a body, keeping the connection open.
    pub fn send_post(
        &mut self,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<()> {
        let mut req = format!("POST {path} HTTP/1.1\r\nHost: osn\r\n");
        for (k, v) in headers {
            req.push_str(&format!("{k}: {v}\r\n"));
        }
        req.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
        let mut raw = req.into_bytes();
        raw.extend_from_slice(body);
        self.send_raw(&raw)
    }

    /// Read exactly one response, framed by its `Content-Length` header.
    /// Bytes past the response (the next pipelined response) stay
    /// buffered for the next call.
    pub fn read_response(&mut self, timeout: Duration) -> io::Result<HttpResponse> {
        let deadline = Instant::now() + timeout;
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        // Head first.
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            self.fill(deadline)?;
        };
        let head = parse_response(&self.buf[..head_end + 4])?;
        let len: usize = head
            .header("Content-Length")
            .ok_or_else(|| bad("response without Content-Length on a keep-alive connection"))?
            .parse()
            .map_err(|_| bad("unparseable Content-Length"))?;
        let total = head_end + 4 + len;
        while self.buf.len() < total {
            self.fill(deadline)?;
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(HttpResponse { body, ..head })
    }

    /// One round trip: `GET path`, read the framed response.
    pub fn get(&mut self, path: &str, timeout: Duration) -> io::Result<HttpResponse> {
        self.get_with(path, &[], timeout)
    }

    /// One round trip with extra request headers (e.g.
    /// `("Accept-Encoding", "gzip")`).
    pub fn get_with(
        &mut self,
        path: &str,
        headers: &[(&str, &str)],
        timeout: Duration,
    ) -> io::Result<HttpResponse> {
        self.send_get(path, headers)?;
        self.read_response(timeout)
    }

    /// Half-close the write side (tests of server-side hangup handling).
    pub fn shutdown_write(&self) {
        let _ = self.stream.shutdown(Shutdown::Write);
    }

    fn fill(&mut self, deadline: Instant) -> io::Result<()> {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "deadline while reading response",
            ));
        }
        self.stream
            .set_read_timeout(Some(remaining.max(Duration::from_millis(1))))?;
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "server closed mid-response",
            )),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// What became of a deliberately hostile connection.
#[derive(Debug)]
pub enum ChaosHttpOutcome {
    /// The server cut the connection (or timed it out) after the client
    /// had sent this many bytes, without sending a response.
    Cut {
        /// Bytes the client managed to send first.
        bytes_sent: usize,
    },
    /// The server answered (an error status, typically) and closed.
    Answered {
        /// Bytes the client managed to send first.
        bytes_sent: usize,
        /// The parsed response.
        response: HttpResponse,
    },
    /// The client gave up first: it hit its own byte budget without the
    /// server ever cutting it off. For a slow-loris drill this outcome
    /// means the server's header deadline is NOT working.
    Exhausted {
        /// Bytes sent before giving up.
        bytes_sent: usize,
    },
}

impl ChaosHttpOutcome {
    /// True unless the client exhausted its budget — i.e. the server
    /// terminated the exchange one way or another.
    pub fn server_terminated(&self) -> bool {
        !matches!(self, ChaosHttpOutcome::Exhausted { .. })
    }
}

/// Drain any server bytes already buffered on `stream` and classify.
fn finish_chaos(stream: &TcpStream, bytes_sent: usize, deadline: Instant) -> ChaosHttpOutcome {
    let bytes = read_until_eof_or_deadline(stream, deadline);
    match parse_response(&bytes) {
        Ok(response) => ChaosHttpOutcome::Answered {
            bytes_sent,
            response,
        },
        Err(_) => ChaosHttpOutcome::Cut { bytes_sent },
    }
}

/// Slow-loris attacker: trickle a syntactically endless request head one
/// byte every `pause`, up to `max_bytes`, and report how the server
/// reacted. A hardened server cuts the connection at its header deadline
/// no matter how steadily the bytes drip in.
pub fn slow_loris(
    addr: &str,
    pause: Duration,
    max_bytes: usize,
    timeout: Duration,
) -> io::Result<ChaosHttpOutcome> {
    let deadline = Instant::now() + timeout;
    let mut stream = TcpStream::connect(addr)?;
    stream.set_write_timeout(Some(timeout))?;
    let mut script: Vec<u8> = b"GET /v1/days HTTP/1.1\r\n".to_vec();
    while script.len() < max_bytes {
        script.extend_from_slice(b"X-Drip: aaaaaaaa\r\n");
    }
    let mut sent = 0usize;
    for &b in script.iter().take(max_bytes) {
        if Instant::now() >= deadline {
            break;
        }
        if stream.write_all(&[b]).is_err() {
            // Reset/EPIPE: the server gave up on us mid-drip.
            return Ok(finish_chaos(&stream, sent, deadline));
        }
        sent += 1;
        // Did the server respond or hang up while we were dripping?
        let _ = stream.set_read_timeout(Some(pause.max(Duration::from_millis(1))));
        let mut probe = [0u8; 512];
        match (&stream).read(&mut probe) {
            Ok(_) => {
                // 0 = clean close, n = an early error response: either way
                // the server has terminated the exchange.
                return Ok(finish_chaos(&stream, sent, deadline));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == io::ErrorKind::TimedOut => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Ok(finish_chaos(&stream, sent, deadline)),
        }
    }
    if Instant::now() >= deadline {
        return Ok(finish_chaos(&stream, sent, deadline));
    }
    Ok(ChaosHttpOutcome::Exhausted { bytes_sent: sent })
}

/// Header flood: a single burst carrying `lines` junk header lines. The
/// server should refuse (431/400) or cut the connection once its header
/// budget is exceeded, never buffer without bound.
pub fn header_flood(addr: &str, lines: usize, timeout: Duration) -> io::Result<ChaosHttpOutcome> {
    let deadline = Instant::now() + timeout;
    let mut stream = TcpStream::connect(addr)?;
    stream.set_write_timeout(Some(timeout))?;
    let mut req = String::from("GET /v1/days HTTP/1.1\r\nHost: osn\r\n");
    for i in 0..lines {
        req.push_str(&format!("X-Flood-{i}: {:0>64}\r\n", i));
    }
    req.push_str("Connection: close\r\n\r\n");
    let mut sent = 0usize;
    for chunk in req.as_bytes().chunks(4096) {
        match stream.write(chunk) {
            Ok(n) => sent += n,
            // Server already slammed the door mid-flood.
            Err(_) => return Ok(finish_chaos(&stream, sent, deadline)),
        }
    }
    let _ = stream.flush();
    Ok(finish_chaos(&stream, sent, deadline))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_reader_is_deterministic() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let cfg = ChaosReaderConfig {
            interrupt_one_in: 4,
            short_read_max: 5,
            corrupt_one_in: 9,
            truncate_at: Some(1000),
        };
        let run = |seed| {
            let mut r = ChaosReader::new(&data[..], seed, cfg.clone());
            let mut out = Vec::new();
            let mut buf = [0u8; 64];
            loop {
                match r.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => out.extend_from_slice(&buf[..n]),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            out
        };
        assert_eq!(run(7), run(7), "same seed must replay the same faults");
        assert_eq!(run(7).len(), 1000, "truncation point is exact");
    }

    #[test]
    fn flaky_reader_preserves_data() {
        let data = b"the quick brown fox".repeat(100);
        let mut r = ChaosReader::new(&data[..], 11, ChaosReaderConfig::flaky());
        let mut out = Vec::new();
        let mut buf = [0u8; 32];
        loop {
            match r.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => out.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(out, data, "interrupts and short reads must not lose bytes");
    }

    #[test]
    fn chaos_writer_fails_after_limit() {
        let mut sink = Vec::new();
        let mut w = ChaosWriter::new(
            &mut sink,
            3,
            ChaosWriterConfig {
                fail_after: Some(10),
                ..ChaosWriterConfig::default()
            },
        );
        let mut wrote = 0usize;
        let err = loop {
            match w.write(b"abcdef") {
                Ok(n) => wrote += n,
                Err(e) => break e,
            }
        };
        assert!(wrote <= 12, "at most one write may straddle the limit");
        assert!(err.to_string().contains("disk full"));
    }

    #[test]
    fn slow_append_tears_every_write_in_two() {
        let mut w = SlowAppendWriter::new(Vec::new(), Duration::ZERO);
        let payload = b"0123456789";
        let split = w.append_torn(payload).unwrap();
        assert_eq!(split, 5, "split point is the deterministic midpoint");
        assert_eq!(w.into_inner(), b"01234", "only the first half is flushed");

        let mut w = SlowAppendWriter::new(Vec::new(), Duration::ZERO);
        w.append_slow(payload).unwrap();
        w.append_slow(b"ab").unwrap();
        assert_eq!(w.flushes(), 4, "two flushes per append");
        assert_eq!(
            w.into_inner(),
            b"0123456789ab",
            "no bytes lost or reordered"
        );
    }

    /// One-shot canned server: accepts a single connection, optionally
    /// reads the request, writes `reply`, closes. Returns its address.
    fn canned_server(reply: &'static [u8], read_first: bool) -> String {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            if let Ok((mut s, _)) = listener.accept() {
                if read_first {
                    let mut buf = [0u8; 4096];
                    let _ = s.read(&mut buf);
                }
                let _ = s.write_all(reply);
            }
        });
        addr
    }

    #[test]
    fn http_get_parses_status_headers_and_body() {
        let addr = canned_server(
            b"HTTP/1.1 200 OK\r\nContent-Type: text/csv\r\nRetry-After: 1\r\n\r\nday,x\n1,2\n",
            true,
        );
        let resp = http_get(&addr, "/v1/days", Duration::from_secs(2)).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("content-type"), Some("text/csv"));
        assert_eq!(resp.header("RETRY-AFTER"), Some("1"));
        assert_eq!(resp.body_str(), "day,x\n1,2\n");
    }

    #[test]
    fn half_close_client_still_reads_the_response() {
        let addr = canned_server(b"HTTP/1.1 204 No Content\r\n\r\n", true);
        let resp = http_get_half_close(&addr, "/healthz", Duration::from_secs(2)).unwrap();
        assert_eq!(resp.status, 204);
        assert!(resp.body.is_empty());
    }

    #[test]
    fn chaos_outcomes_classify_cut_and_answer() {
        // A server that answers the flood with 431.
        let addr = canned_server(
            b"HTTP/1.1 431 Request Header Fields Too Large\r\n\r\n",
            true,
        );
        let out = header_flood(&addr, 50, Duration::from_secs(2)).unwrap();
        assert!(out.server_terminated());
        match out {
            ChaosHttpOutcome::Answered { response, .. } => assert_eq!(response.status, 431),
            other => panic!("expected Answered, got {other:?}"),
        }
        // A server that hangs up without a word.
        let addr = canned_server(b"", false);
        let out = header_flood(&addr, 50, Duration::from_secs(2)).unwrap();
        assert!(matches!(out, ChaosHttpOutcome::Cut { .. }), "{out:?}");
    }

    #[test]
    fn slow_loris_gives_up_against_a_patient_server() {
        // A listener that accepts and then reads forever without ever
        // closing: the client must exhaust its own byte budget and say so.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let t = std::thread::spawn(move || {
            if let Ok((mut s, _)) = listener.accept() {
                let mut buf = [0u8; 1024];
                while matches!(s.read(&mut buf), Ok(n) if n > 0) {}
            }
        });
        let out = slow_loris(&addr, Duration::from_millis(1), 64, Duration::from_secs(5)).unwrap();
        assert!(
            matches!(out, ChaosHttpOutcome::Exhausted { bytes_sent: 64 }),
            "{out:?}"
        );
        assert!(!out.server_terminated());
        t.join().unwrap();
    }
}
