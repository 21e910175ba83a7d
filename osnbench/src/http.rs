//! Minimal keep-alive HTTP/1.1 client for the load generator.
//!
//! One [`Client`] is one connection with `TCP_NODELAY` set, so a request
//! leaves in one segment the moment it is written and pipelined requests
//! can be written in a single call. Responses are framed by
//! `Content-Length` (the daemon always sends it).
//!
//! Every client acknowledges each read at once (`TCP_QUICKACK`): the
//! daemon leaves Nagle's algorithm on, so each pipelined answer after
//! the first waits in the daemon's socket until the one before it is
//! acknowledged, and a client that delays its ACKs (Linux waits up to
//! 40 ms) would time those waits instead of the daemon's work.
//!
//! A *spinning* client polls its non-blocking socket instead of
//! sleeping in `read`, so the daemon's writes never have to wake the
//! generator thread.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Upper bound on one response head; the daemon's are a few hundred bytes.
const MAX_HEAD: usize = 16 * 1024;

/// How long one read or write may wait for the daemon.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// A parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub gzip: bool,
    pub close: bool,
    pub body: Vec<u8>,
}

impl Response {
    /// The body with any gzip content-encoding removed.
    pub fn decoded_body(&self) -> Result<Vec<u8>, String> {
        if self.gzip {
            osn_graph::gzip::gzip_decompress(&self.body).map_err(|e| format!("gzip: {e}"))
        } else {
            Ok(self.body.clone())
        }
    }
}

/// One keep-alive connection.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    spinning: bool,
    /// Received bytes; `buf[pos..]` is not yet parsed.
    buf: Vec<u8>,
    pos: usize,
}

impl Client {
    /// A client whose reads and writes block.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        Client::open(addr, false)
    }

    /// A spinning client (module docs).
    pub fn connect_spinning(addr: SocketAddr) -> io::Result<Client> {
        Client::open(addr, true)
    }

    fn open(addr: SocketAddr, spinning: bool) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        if spinning {
            stream.set_nonblocking(true)?;
        } else {
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
        }
        Ok(Client {
            stream,
            spinning,
            buf: Vec::with_capacity(64 * 1024),
            pos: 0,
        })
    }

    /// Write raw request bytes (one or several pipelined requests).
    pub fn send(&mut self, mut bytes: &[u8]) -> io::Result<()> {
        let deadline = Instant::now() + IO_TIMEOUT;
        while !bytes.is_empty() {
            match self.stream.write(bytes) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => bytes = &bytes[n..],
                Err(e) if self.would_spin(&e, deadline)? => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Whether `e` means "try again": an interrupted call, or a
    /// spinning socket with nothing to do yet, which times out past
    /// `deadline`. The spin does not yield the CPU (see
    /// [`crate::load::wait_until`]).
    fn would_spin(&self, e: &io::Error, deadline: Instant) -> io::Result<bool> {
        if !(self.spinning && e.kind() == io::ErrorKind::WouldBlock) {
            return Ok(e.kind() == io::ErrorKind::Interrupted);
        }
        if Instant::now() > deadline {
            return Err(io::ErrorKind::TimedOut.into());
        }
        std::hint::spin_loop();
        Ok(true)
    }

    /// Read the next complete response.
    pub fn recv(&mut self) -> io::Result<Response> {
        // Drop the parsed prefix once it is all there is, or once it
        // outweighs what is left to parse.
        if self.pos > 0 && 2 * self.pos >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        let head_end = loop {
            let pending = &self.buf[self.pos..];
            if let Some(p) = pending.windows(4).position(|w| w == b"\r\n\r\n") {
                break self.pos + p + 4;
            }
            if pending.len() > MAX_HEAD {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "oversized head"));
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[self.pos..head_end])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let (mut len, mut gzip, mut close) = (None, false, false);
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                len = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("content-encoding") {
                gzip = value.eq_ignore_ascii_case("gzip");
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let len =
            len.ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no Content-Length"))?;
        while self.buf.len() < head_end + len {
            self.fill()?;
        }
        let body = self.buf[head_end..head_end + len].to_vec();
        self.pos = head_end + len;
        Ok(Response {
            status,
            gzip,
            close,
            body,
        })
    }

    /// Append whatever the socket has (at least one byte) to the buffer.
    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let deadline = Instant::now() + IO_TIMEOUT;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    quickack(&self.stream)?;
                    return Ok(());
                }
                Err(e) if self.would_spin(&e, deadline)? => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Acknowledge what has arrived on `stream` now rather than after the
/// delayed-ACK timer. Linux clears the flag again on its own, so it is
/// set after every read.
fn quickack(stream: &TcpStream) -> io::Result<()> {
    use std::os::fd::AsRawFd;
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    let one: i32 = 1;
    // SAFETY: `one` outlives the call and its size is passed with it.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            &one,
            std::mem::size_of::<i32>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Bytes of one `GET` request.
pub fn get(path: &str, gzip: bool) -> Vec<u8> {
    let accept = if gzip {
        "Accept-Encoding: gzip\r\n"
    } else {
        ""
    };
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n{accept}\r\n").into_bytes()
}

/// Bytes of one authenticated, keyed `POST /v1/events` with a CSV body.
pub fn post_events(token: &str, key: &str, body: &str) -> Vec<u8> {
    let mut req = format!(
        "POST /v1/events HTTP/1.1\r\nHost: bench\r\nAuthorization: Bearer {token}\r\n\
         Idempotency-Key: {key}\r\nContent-Type: text/csv\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body.as_bytes());
    req
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn parses_pipelined_responses_split_across_reads() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for _ in 0..2 {
                let (mut s, _) = listener.accept().unwrap();
                let mut req = [0u8; 256];
                let _ = s.read(&mut req).unwrap();
                let two = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nok\nHTTP/1.1 404 Not Found\r\n\
                            Content-Encoding: gzip\r\nConnection: close\r\nContent-Length: 2\r\n\r\nno";
                // Split inside the first head, then inside the second
                // body, after the first answer has been parsed.
                let cuts = [0, 20, two.len() - 1, two.len()];
                for w in cuts.windows(2) {
                    s.write_all(&two[w[0]..w[1]]).unwrap();
                    s.flush().unwrap();
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        });
        for spinning in [false, true] {
            let mut c = Client::open(addr, spinning).unwrap();
            c.send(&get("/healthz", false)).unwrap();
            let a = c.recv().unwrap();
            assert_eq!(
                (a.status, a.gzip, a.close, &a.body[..]),
                (200, false, false, &b"ok\n"[..])
            );
            let b = c.recv().unwrap();
            assert_eq!(
                (b.status, b.gzip, b.close, &b.body[..]),
                (404, true, true, &b"no"[..])
            );
        }
        server.join().unwrap();
    }

    #[test]
    fn request_bytes() {
        assert_eq!(
            get("/v1/days", true),
            b"GET /v1/days HTTP/1.1\r\nHost: bench\r\nAccept-Encoding: gzip\r\n\r\n".to_vec()
        );
        let post = String::from_utf8(post_events("t", "k-1", "N 1 core\n")).unwrap();
        assert!(post.ends_with("Content-Length: 9\r\n\r\nN 1 core\n"));
        assert!(post.contains("Idempotency-Key: k-1\r\n"));
    }
}
