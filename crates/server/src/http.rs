//! Minimal HTTP/1.1 plumbing: buffered keep-alive connections with
//! deadline-bounded request-head and body reading, and corked response
//! writing over a raw `TcpStream`.
//!
//! Only the sliver of HTTP the daemon needs is implemented — `GET`/`POST`
//! with a path, the handful of headers the serve and write planes
//! consume, `Connection: keep-alive` with request pipelining — but the
//! *failure* surface is handled in full: a peer that drips one header
//! byte per second, floods megabytes of header lines, half-closes its
//! send direction, or posts a body slower than the deadline allows must
//! never pin a thread past the configured budget. The loris budget is
//! re-armed *per request*: it is anchored at the moment the current
//! request's first byte arrives (or at accept, for the first request),
//! so a kept-alive connection gets a fresh header window for every
//! request but can never stretch a single head beyond one window.

use osn_graph::io::push_decimal;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard cap on request-head bytes; beyond this the peer gets a 431.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Corked answers go out once this many bytes are pending, whatever
/// else holds.
pub const MAX_CORKED_BYTES: usize = 64 * 1024;

/// A nonblocking [`Conn::read_ready`] stops reading once this many
/// request bytes are buffered.
const MAX_READ_AHEAD: usize = 64 * 1024;

/// The parsed request line plus the handful of headers the serve and
/// write planes consume (all other headers are read, enforced against
/// the byte budget, and discarded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestHead {
    /// HTTP method, verbatim (`GET`, `POST`, ...).
    pub method: String,
    /// Request target with any `?query` suffix stripped.
    pub path: String,
    /// `Content-Length`, when present and numeric.
    pub content_length: Option<u64>,
    /// `Content-Type`, lower-cased.
    pub content_type: Option<String>,
    /// `Authorization`, verbatim.
    pub authorization: Option<String>,
    /// `Idempotency-Key`, verbatim.
    pub idempotency_key: Option<String>,
    /// The peer asked for the connection to be closed after this
    /// response (`Connection: close`, or HTTP/1.0 without an explicit
    /// `keep-alive`).
    pub wants_close: bool,
    /// `Accept-Encoding` listed `gzip` — the response may be served from
    /// the precompressed cache variant.
    pub accept_gzip: bool,
}

impl RequestHead {
    /// A bare head with no headers — router tests and synthetic requests.
    pub fn new(method: &str, path: &str) -> RequestHead {
        RequestHead {
            method: method.to_string(),
            path: path.to_string(),
            content_length: None,
            content_type: None,
            authorization: None,
            idempotency_key: None,
            wants_close: false,
            accept_gzip: false,
        }
    }
}

/// Why a request head could not be read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadError {
    /// Header deadline expired before the blank line arrived
    /// (slow-loris or a stalled peer).
    TimedOut,
    /// More than [`MAX_HEAD_BYTES`] of head without a blank line
    /// (header flood).
    TooLarge,
    /// Not parseable as an HTTP/1.x request line.
    Malformed,
    /// The peer vanished before completing the head.
    ConnectionLost,
    /// A kept-alive peer closed cleanly between requests — not an error,
    /// just the end of the connection (no access line, no counter).
    Closed,
}

impl HeadError {
    /// Reason token for the access log (mirrors the supervisor's
    /// `FailureKind::as_str` naming style).
    pub fn as_str(self) -> &'static str {
        match self {
            HeadError::TimedOut => "header-timeout",
            HeadError::TooLarge => "header-flood",
            HeadError::Malformed => "malformed",
            HeadError::ConnectionLost => "connection-lost",
            HeadError::Closed => "closed",
        }
    }
}

/// What [`Conn::await_request`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnProgress {
    /// A complete request head (or an oversize one, which
    /// [`Conn::read_head`] will turn into a 431) is buffered —
    /// `read_head` will not block.
    HeadReady,
    /// Nothing arrived within the wait window; the connection is idle.
    Idle,
    /// The peer closed (EOF with no pending request bytes).
    Closed,
}

/// One accepted connection: the socket plus whatever request bytes have
/// been read but not yet consumed. Keep-alive lives here — after a head
/// (and body) is consumed, leftover bytes are the start of the next
/// pipelined request.
///
/// Answers are corked: [`Conn::write_response`] encodes into an output
/// buffer that goes out in one write when no complete next head is
/// buffered, when the answer closes the connection, or when
/// [`MAX_CORKED_BYTES`] are pending. Every blocking socket read flushes
/// first, and so does dropping the connection; callers flush ([`Conn::flush`])
/// before anything else that blocks or computes. On a nonblocking socket
/// ([`Conn::set_nonblocking`]) a flush writes what the socket takes and
/// keeps the rest for the next one.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Encoded answers not yet written.
    out: Vec<u8>,
    /// The `SO_SNDTIMEO` last set on the socket.
    write_timeout: Option<Duration>,
    /// The socket is in nonblocking mode.
    nonblocking: bool,
    /// When the connection was accepted.
    pub accepted: Instant,
    /// Requests fully answered on this connection so far.
    pub served: u64,
    /// When the current request window opened: accept time for the
    /// first request, then re-armed whenever a new request starts
    /// arriving (first byte into an empty buffer, or a pipelined head
    /// already waiting when the previous request completed). The header
    /// deadline is always `anchor + header_timeout`.
    anchor: Instant,
}

impl Conn {
    /// Wrap a freshly accepted stream. Turns Nagle off: answers are
    /// already coalesced here, and Nagle would only hold a burst's
    /// second write until the peer's delayed ACK.
    pub fn new(stream: TcpStream) -> Conn {
        let _ = stream.set_nodelay(true);
        let now = Instant::now();
        Conn {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            write_timeout: None,
            nonblocking: false,
            accepted: now,
            served: 0,
            anchor: now,
        }
    }

    /// The underlying socket (peer address, raw fd for a poll set).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Switch the socket between blocking and nonblocking mode.
    pub fn set_nonblocking(&mut self, nonblocking: bool) -> io::Result<()> {
        self.stream.set_nonblocking(nonblocking)?;
        self.nonblocking = nonblocking;
        Ok(())
    }

    /// True when `read_head` can make a verdict without blocking: a
    /// complete head is buffered, or the buffer already blew the 431 cap.
    pub fn head_ready(&self) -> bool {
        find_head_end(&self.buf).is_some() || self.buf.len() >= MAX_HEAD_BYTES
    }

    /// True when unconsumed request bytes are buffered.
    pub fn has_buffered(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Encoded answers the socket has not taken yet.
    pub fn unwritten(&self) -> usize {
        self.out.len()
    }

    /// When the current request's window opened; its head is due within
    /// `header_timeout` of this.
    pub fn anchor(&self) -> Instant {
        self.anchor
    }

    /// Append freshly read bytes, re-arming the anchor when they open a
    /// new request window (first bytes after an empty buffer).
    fn fill(&mut self, bytes: &[u8]) {
        if self.buf.is_empty() {
            self.anchor = Instant::now();
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Read what a nonblocking socket holds until it would block, the
    /// peer closes, or 64 KiB of request bytes are buffered. `Ok(true)`
    /// means the peer closed its side.
    pub fn read_ready(&mut self) -> io::Result<bool> {
        let mut chunk = [0u8; 16 * 1024];
        while self.buf.len() < MAX_READ_AHEAD {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(true),
                Ok(n) => self.fill(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(false)
    }

    /// Read one request head, giving up at `anchor + header_timeout`.
    ///
    /// The socket read timeout is re-armed to the *remaining* budget
    /// before every read, so a peer trickling one byte per timeout
    /// window cannot extend its welcome — wall time for one head is
    /// bounded no matter how the bytes arrive. Consumed bytes are
    /// drained from the buffer; anything past the blank line (a body, or
    /// the next pipelined request) stays buffered.
    pub fn read_head(&mut self, header_timeout: Duration) -> Result<RequestHead, HeadError> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(head_end) = find_head_end(&self.buf) {
                let head = parse_head(&self.buf[..head_end])?;
                self.buf.drain(..head_end);
                if !self.buf.is_empty() {
                    // The next pipelined request is already here; its
                    // window opens when this parse completes, not when
                    // its bytes happened to arrive behind a busy server.
                    self.anchor = Instant::now();
                }
                return Ok(head);
            }
            if self.buf.len() >= MAX_HEAD_BYTES {
                return Err(HeadError::TooLarge);
            }
            let deadline = self.anchor + header_timeout;
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(HeadError::TimedOut);
            }
            if self.flush().is_err()
                || self
                    .stream
                    .set_read_timeout(Some(remaining.max(Duration::from_millis(1))))
                    .is_err()
            {
                return Err(HeadError::ConnectionLost);
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    // EOF between requests on a kept-alive connection is
                    // a clean hangup, not a protocol failure.
                    return if self.buf.is_empty() && self.served > 0 {
                        Err(HeadError::Closed)
                    } else {
                        Err(HeadError::ConnectionLost)
                    };
                }
                Ok(n) => self.fill(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Err(HeadError::TimedOut),
                Err(e) if e.kind() == io::ErrorKind::TimedOut => return Err(HeadError::TimedOut),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(HeadError::ConnectionLost),
            }
        }
    }

    /// Wait up to `wait` for the next pipelined request. Returns as soon
    /// as a complete head is buffered, the peer hangs up, or the window
    /// elapses — a worker lingers here briefly after a response before
    /// handing the connection back to its shard loop.
    ///
    /// The wait is a `poll(2)`, not a socket read timeout: the kernel
    /// rounds `SO_RCVTIMEO` up to whole timer ticks (4 ms at
    /// `CONFIG_HZ=250`), while `poll` keeps a 1 ms linger near 1 ms.
    pub fn await_request(&mut self, wait: Duration) -> ConnProgress {
        if self.flush().is_err() {
            return ConnProgress::Closed;
        }
        let deadline = Instant::now() + wait;
        let mut chunk = [0u8; 4096];
        loop {
            if self.head_ready() {
                return ConnProgress::HeadReady;
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return ConnProgress::Idle;
            }
            match crate::net::wait_readable(&self.stream, remaining) {
                Ok(true) => {}
                Ok(false) => continue,
                Err(_) => return ConnProgress::Closed,
            }
            // Readable: this read returns at once (bytes, EOF or error).
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        ConnProgress::Closed
                    } else {
                        // Half-closed with a partial request buffered:
                        // let read_head classify it (connection-lost).
                        ConnProgress::HeadReady
                    };
                }
                Ok(n) => self.fill(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                Err(_) => return ConnProgress::Closed,
            }
        }
    }

    /// Read exactly `Content-Length` body bytes, starting from whatever
    /// is already buffered, giving up at `deadline`. The same re-armed
    /// timeout discipline as [`Conn::read_head`] applies: a client
    /// dripping body bytes cannot hold the thread past the deadline.
    pub fn read_body(
        &mut self,
        head: &RequestHead,
        max_bytes: u64,
        deadline: Instant,
    ) -> Result<Vec<u8>, BodyError> {
        let len = head.content_length.ok_or(BodyError::LengthRequired)?;
        if len > max_bytes {
            return Err(BodyError::TooLarge);
        }
        let len = len as usize;
        let take = self.buf.len().min(len);
        let mut body: Vec<u8> = self.buf.drain(..take).collect();
        body.reserve(len.saturating_sub(body.len()));
        if !self.buf.is_empty() {
            // Pipelined bytes beyond this body: the next request's
            // window opens once this body is complete.
            self.anchor = Instant::now();
        }
        let mut chunk = [0u8; 4096];
        while body.len() < len {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(BodyError::TimedOut);
            }
            if self.flush().is_err()
                || self
                    .stream
                    .set_read_timeout(Some(remaining.max(Duration::from_millis(1))))
                    .is_err()
            {
                return Err(BodyError::ConnectionLost);
            }
            let want = (len - body.len()).min(chunk.len());
            match self.stream.read(&mut chunk[..want]) {
                Ok(0) => return Err(BodyError::ConnectionLost),
                Ok(n) => body.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Err(BodyError::TimedOut),
                Err(e) if e.kind() == io::ErrorKind::TimedOut => return Err(BodyError::TimedOut),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(BodyError::ConnectionLost),
            }
        }
        Ok(body)
    }

    /// Encode `resp` into the output buffer, and flush the buffer unless
    /// the next answer can join it: a complete next head is buffered,
    /// `close` is false, and fewer than [`MAX_CORKED_BYTES`] are
    /// pending. Every response carries an explicit `Content-Length` and
    /// a `Connection:` verdict, so a keep-alive peer can frame the next
    /// response without sniffing. `close` selects that verdict; the
    /// caller drops the `Conn` to actually close.
    ///
    /// `timeout` becomes the socket's write timeout, set again only when
    /// a caller passes a different one. A write error surfaces from
    /// whichever call flushes, and the unwritten answers are dropped
    /// with it: a peer that hung up is its own problem. On a nonblocking
    /// socket a full send buffer is no error: the rest waits in
    /// [`Conn::unwritten`].
    pub fn write_response(
        &mut self,
        resp: &Response,
        timeout: Duration,
        close: bool,
    ) -> io::Result<()> {
        if self.write_timeout != Some(timeout) {
            let _ = self.stream.set_write_timeout(Some(timeout));
            self.write_timeout = Some(timeout);
        }
        encode_response(&mut self.out, resp, close);
        if close || !self.head_ready() || self.out.len() >= MAX_CORKED_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    /// Write every corked answer, in one `write` when the socket takes
    /// it all. A no-op when nothing is pending; counted in
    /// `http.writes` otherwise. A nonblocking socket that would block
    /// keeps what it did not take for the next flush.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        osn_obs::counter!("http.writes").inc();
        let mut done = 0;
        let written = loop {
            match self.stream.write(&self.out[done..]) {
                Ok(0) => break Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    done += n;
                    if done == self.out.len() {
                        break Ok(());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock && self.nonblocking => {
                    self.out.drain(..done);
                    return Ok(());
                }
                Err(e) => break Err(e),
            }
        };
        self.out.clear();
        written
    }
}

impl Drop for Conn {
    /// Corked answers still reach the peer when a connection is let go
    /// without an explicit flush (drain, an unwinding stage).
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Byte offset just past the request line's terminating CRLF once the
/// full head (`\r\n\r\n`) has arrived.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

fn parse_head(head: &[u8]) -> Result<RequestHead, HeadError> {
    let text = std::str::from_utf8(head).map_err(|_| HeadError::Malformed)?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts.next().filter(|m| !m.is_empty());
    let target = parts.next();
    let version = parts.next();
    let (mut out, http10) = match (method, target, version) {
        (Some(method), Some(target), Some(version)) if version.starts_with("HTTP/1") => {
            let path = target.split('?').next().unwrap_or(target);
            (RequestHead::new(method, path), version == "HTTP/1.0")
        }
        _ => return Err(HeadError::Malformed),
    };
    let mut keep_alive_token = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            out.content_length = value.parse().ok();
        } else if name.eq_ignore_ascii_case("content-type") {
            out.content_type = Some(value.to_ascii_lowercase());
        } else if name.eq_ignore_ascii_case("authorization") {
            out.authorization = Some(value.to_string());
        } else if name.eq_ignore_ascii_case("idempotency-key") {
            out.idempotency_key = Some(value.to_string());
        } else if name.eq_ignore_ascii_case("connection") {
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    out.wants_close = true;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    keep_alive_token = true;
                }
            }
        } else if name.eq_ignore_ascii_case("accept-encoding") {
            out.accept_gzip |= value
                .split(',')
                .map(|t| t.trim())
                .map(|t| t.split(';').next().unwrap_or(t).trim())
                .any(|t| t.eq_ignore_ascii_case("gzip"));
        }
    }
    // HTTP/1.0 defaults to close unless the peer opts in.
    if http10 && !keep_alive_token {
        out.wants_close = true;
    }
    Ok(out)
}

/// Why a request body could not be read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyError {
    /// No (or unparseable) `Content-Length` — the daemon does not accept
    /// chunked bodies.
    LengthRequired,
    /// Declared length exceeds the configured cap.
    TooLarge,
    /// The deadline expired with body bytes still outstanding.
    TimedOut,
    /// The peer vanished mid-body.
    ConnectionLost,
}

impl BodyError {
    /// Reason token for the access log.
    pub fn as_str(self) -> &'static str {
        match self {
            BodyError::LengthRequired => "length-required",
            BodyError::TooLarge => "body-too-large",
            BodyError::TimedOut => "body-timeout",
            BodyError::ConnectionLost => "connection-lost",
        }
    }
}

/// A response body: owned bytes for one-off answers, or a shared slice
/// out of the hot-day response cache (pre-rendered CSV and its
/// precompressed gzip twin are `Arc`s cloned per response — zero copies
/// on the cache hit path).
#[derive(Debug, Clone)]
pub enum Body {
    /// Freshly rendered for this request.
    Owned(Vec<u8>),
    /// Served out of the response cache.
    Shared(Arc<Vec<u8>>),
}

impl Body {
    /// The bytes to put on the wire.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Body::Owned(v) => v,
            Body::Shared(v) => v,
        }
    }

    /// Body length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when the body is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Owned copy (clones only for `Shared`).
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            Body::Owned(v) => v,
            Body::Shared(v) => Arc::try_unwrap(v).unwrap_or_else(|v| (*v).clone()),
        }
    }
}

impl From<Vec<u8>> for Body {
    fn from(v: Vec<u8>) -> Body {
        Body::Owned(v)
    }
}

/// A response ready to serialise.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Body,
    /// Optional `Retry-After` (seconds) — set on load-shed 503s so
    /// well-behaved clients back off instead of hammering.
    pub retry_after: Option<u32>,
    /// `Content-Encoding` header, when the body is precompressed
    /// (`Some("gzip")` for cache hits negotiated via `Accept-Encoding`).
    pub content_encoding: Option<&'static str>,
}

impl Response {
    /// Plain-text response.
    pub fn text(status: u16, body: &str) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: Body::Owned(body.as_bytes().to_vec()),
            retry_after: None,
            content_encoding: None,
        }
    }

    /// CSV response.
    pub fn csv(body: String) -> Response {
        Response {
            status: 200,
            content_type: "text/csv; charset=utf-8",
            body: Body::Owned(body.into_bytes()),
            retry_after: None,
            content_encoding: None,
        }
    }

    /// Single-line JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: Body::Owned(body.into_bytes()),
            retry_after: None,
            content_encoding: None,
        }
    }

    /// A 200 straight out of the response cache: a shared pre-rendered
    /// body, optionally the precompressed gzip variant.
    pub fn cached(content_type: &'static str, body: Arc<Vec<u8>>, gzip: bool) -> Response {
        Response {
            status: 200,
            content_type,
            body: Body::Shared(body),
            retry_after: None,
            content_encoding: gzip.then_some("gzip"),
        }
    }

    /// Load-shed 503 with a `Retry-After` hint.
    pub fn shed(reason: &str) -> Response {
        Response {
            status: 503,
            content_type: "text/plain; charset=utf-8",
            body: Body::Owned(format!("overloaded: {reason}\n").into_bytes()),
            retry_after: Some(1),
            content_encoding: None,
        }
    }
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        401 => "Unauthorized",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Append `resp`'s status line, headers and body to `out`.
fn encode_response(out: &mut Vec<u8>, resp: &Response, close: bool) {
    let body = resp.body.as_slice();
    out.extend_from_slice(b"HTTP/1.1 ");
    push_decimal(out, u64::from(resp.status));
    out.push(b' ');
    out.extend_from_slice(reason_phrase(resp.status).as_bytes());
    out.extend_from_slice(b"\r\nContent-Type: ");
    out.extend_from_slice(resp.content_type.as_bytes());
    out.extend_from_slice(b"\r\nContent-Length: ");
    push_decimal(out, body.len() as u64);
    out.extend_from_slice(if close {
        b"\r\nConnection: close\r\n".as_slice()
    } else {
        b"\r\nConnection: keep-alive\r\n".as_slice()
    });
    if let Some(encoding) = resp.content_encoding {
        out.extend_from_slice(b"Content-Encoding: ");
        out.extend_from_slice(encoding.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    if let Some(secs) = resp.retry_after {
        out.extend_from_slice(b"Retry-After: ");
        push_decimal(out, u64::from(secs));
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
}

/// Pre-serialised 503 for the accept path: while a shard loop already
/// holds its limit of connections awaiting a first head, it writes this
/// to a new one without reading a single request byte.
pub const RAW_SHED_503: &[u8] = b"HTTP/1.1 503 Service Unavailable\r\n\
Content-Type: text/plain; charset=utf-8\r\nContent-Length: 19\r\n\
Retry-After: 1\r\nConnection: close\r\n\r\noverloaded: accept\n";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_line_and_strips_query() {
        let head = parse_head(b"GET /v1/metrics/12?x=1 HTTP/1.1\r\nHost: a\r\n").unwrap();
        assert_eq!(head.method, "GET");
        assert_eq!(head.path, "/v1/metrics/12");
        assert!(parse_head(b"garbage").is_err());
        assert!(parse_head(b"GET /x SPDY/3\r\n").is_err());
        assert!(parse_head(b"GET\r\n").is_err());
    }

    #[test]
    fn parses_write_plane_headers_case_insensitively() {
        let head = parse_head(
            b"POST /v1/events HTTP/1.1\r\n\
              content-length: 42\r\n\
              CONTENT-TYPE: Application/JSON\r\n\
              Authorization: Bearer s3cret\r\n\
              idempotency-KEY: batch-9\r\n",
        )
        .unwrap();
        assert_eq!(head.method, "POST");
        assert_eq!(head.content_length, Some(42));
        assert_eq!(head.content_type.as_deref(), Some("application/json"));
        assert_eq!(head.authorization.as_deref(), Some("Bearer s3cret"));
        assert_eq!(head.idempotency_key.as_deref(), Some("batch-9"));
        // Absent headers stay None.
        let bare = parse_head(b"GET / HTTP/1.1\r\nHost: x\r\n").unwrap();
        assert_eq!(bare.content_length, None);
        assert_eq!(bare.authorization, None);
    }

    #[test]
    fn connection_and_encoding_negotiation() {
        // HTTP/1.1 defaults to keep-alive.
        let h = parse_head(b"GET / HTTP/1.1\r\nHost: x\r\n").unwrap();
        assert!(!h.wants_close);
        assert!(!h.accept_gzip);
        let h = parse_head(b"GET / HTTP/1.1\r\nConnection: Close\r\n").unwrap();
        assert!(h.wants_close);
        let h = parse_head(b"GET / HTTP/1.1\r\nConnection: upgrade, close\r\n").unwrap();
        assert!(h.wants_close);
        // HTTP/1.0 defaults to close unless the peer opts in.
        let h = parse_head(b"GET / HTTP/1.0\r\nHost: x\r\n").unwrap();
        assert!(h.wants_close);
        let h = parse_head(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n").unwrap();
        assert!(!h.wants_close);
        // Accept-Encoding token parsing, with q-values and noise.
        let h = parse_head(b"GET / HTTP/1.1\r\nAccept-Encoding: GZIP\r\n").unwrap();
        assert!(h.accept_gzip);
        let h = parse_head(b"GET / HTTP/1.1\r\nAccept-Encoding: br, gzip;q=0.8\r\n").unwrap();
        assert!(h.accept_gzip);
        let h = parse_head(b"GET / HTTP/1.1\r\nAccept-Encoding: gzipped\r\n").unwrap();
        assert!(!h.accept_gzip);
    }

    #[test]
    fn body_error_reasons_are_stable() {
        assert_eq!(BodyError::LengthRequired.as_str(), "length-required");
        assert_eq!(BodyError::TooLarge.as_str(), "body-too-large");
        assert_eq!(BodyError::TimedOut.as_str(), "body-timeout");
        assert_eq!(BodyError::ConnectionLost.as_str(), "connection-lost");
    }

    #[test]
    fn raw_shed_content_length_matches_body() {
        let text = std::str::from_utf8(RAW_SHED_503).unwrap();
        let body = text.split("\r\n\r\n").nth(1).unwrap();
        let len: usize = text
            .split("Content-Length: ")
            .nth(1)
            .unwrap()
            .split("\r\n")
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(body.len(), len);
    }

    #[test]
    fn head_error_reasons_are_stable() {
        assert_eq!(HeadError::TimedOut.as_str(), "header-timeout");
        assert_eq!(HeadError::TooLarge.as_str(), "header-flood");
        assert_eq!(HeadError::Malformed.as_str(), "malformed");
        assert_eq!(HeadError::ConnectionLost.as_str(), "connection-lost");
        assert_eq!(HeadError::Closed.as_str(), "closed");
    }

    /// A server-side `Conn` and the client end of its loopback socket.
    fn conn_pair() -> (Conn, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        (Conn::new(server_side), client)
    }

    /// Bytes the peer can read without waiting.
    fn drain_ready(client: &mut TcpStream) -> Vec<u8> {
        client.set_nonblocking(true).unwrap();
        let mut got = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            match client.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => got.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("read: {e}"),
            }
        }
        client.set_nonblocking(false).unwrap();
        got
    }

    #[test]
    fn accepted_sockets_have_nagle_off() {
        let (conn, _client) = conn_pair();
        assert!(conn.stream().nodelay().unwrap());
    }

    #[test]
    fn one_millisecond_linger_lasts_about_one_millisecond() {
        let (mut conn, _client) = conn_pair();
        let mut waits: Vec<Duration> = (0..10)
            .map(|_| {
                let start = Instant::now();
                assert_eq!(
                    conn.await_request(Duration::from_millis(1)),
                    ConnProgress::Idle
                );
                start.elapsed()
            })
            .collect();
        waits.sort();
        assert!(waits[5] < Duration::from_millis(3), "{waits:?}");
    }

    #[test]
    fn answers_cork_until_no_next_head_is_buffered() {
        let (mut conn, mut client) = conn_pair();
        let timeout = Duration::from_secs(5);
        client
            .write_all(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n")
            .unwrap();
        let ok = Response::text(200, "ok\n");
        let a = conn.read_head(timeout).unwrap();
        assert_eq!(a.path, "/a");
        // The next head is buffered: the answer waits for it.
        conn.write_response(&ok, timeout, false).unwrap();
        assert!(drain_ready(&mut client).is_empty());
        let b = conn.read_head(timeout).unwrap();
        assert_eq!(b.path, "/b");
        // Nothing left buffered: both answers go out together.
        conn.write_response(&ok, timeout, false).unwrap();
        let one = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\n\
                    Content-Length: 3\r\nConnection: keep-alive\r\n\r\nok\n";
        let mut got = Vec::new();
        while got.len() < 2 * one.len() {
            let mut chunk = [0u8; 4096];
            let n = client.read(&mut chunk).unwrap();
            assert!(n > 0, "early EOF");
            got.extend_from_slice(&chunk[..n]);
        }
        assert_eq!(got, [one.as_slice(), one.as_slice()].concat());

        // With further heads buffered, a closing answer still goes out
        // at once, and so does a full cork.
        client
            .write_all(b"GET /c HTTP/1.1\r\n\r\nGET /d HTTP/1.1\r\n\r\nGET /e HTTP/1.1\r\n\r\n")
            .unwrap();
        conn.read_head(timeout).unwrap();
        conn.write_response(&Response::shed("x"), timeout, true)
            .unwrap();
        let shed = b"HTTP/1.1 503 Service Unavailable\r\n\
                     Content-Type: text/plain; charset=utf-8\r\nContent-Length: 14\r\n\
                     Connection: close\r\nRetry-After: 1\r\n\r\noverloaded: x\n";
        let mut got = vec![0u8; shed.len()];
        client.read_exact(&mut got).unwrap();
        assert_eq!(got, shed.as_slice());
        conn.read_head(timeout).unwrap();
        assert!(conn.head_ready());
        let big = "x".repeat(MAX_CORKED_BYTES);
        conn.write_response(&Response::csv(big.clone()), timeout, false)
            .unwrap();
        let mut got = Vec::new();
        while !got.ends_with(big.as_bytes()) {
            let mut chunk = [0u8; 65536];
            let n = client.read(&mut chunk).unwrap();
            assert!(n > 0, "early EOF");
            got.extend_from_slice(&chunk[..n]);
        }
    }

    #[test]
    fn shared_bodies_expose_the_same_bytes() {
        let shared = Arc::new(b"day,value\n1,2\n".to_vec());
        let resp = Response::cached("text/csv; charset=utf-8", Arc::clone(&shared), true);
        assert_eq!(resp.body.as_slice(), shared.as_slice());
        assert_eq!(resp.content_encoding, Some("gzip"));
        assert_eq!(resp.body.clone().into_vec(), *shared);
        let owned: Body = b"x".to_vec().into();
        assert_eq!(owned.len(), 1);
        assert!(!owned.is_empty());
    }
}
