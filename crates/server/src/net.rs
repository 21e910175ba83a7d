//! Raw-libc socket plumbing for the sharded accept path: `SO_REUSEPORT`
//! listener binding, and `poll(2)` readiness waits for parked keep-alive
//! connections and a worker's linger.
//!
//! Declared by hand in the same style as the CLI's signal FFI — the
//! workspace takes no libc crate dependency, and the daemon only needs
//! two calls beyond what `std::net` offers: a socket option `std` does
//! not expose, and a multi-fd readiness wait. Platforms where
//! `SO_REUSEPORT` is unavailable fall back to a single acceptor
//! dispatching round-robin across shards ([`bind_shard_listeners`]
//! reports which mode it got), and the parker falls back to a per-socket
//! non-blocking sweep.

use std::io;
use std::net::{SocketAddr, TcpListener};

#[cfg(unix)]
pub use unix::{bind_reuseport, poll_readable, wait_readable, POLL_SUPPORTED, REUSEPORT_SUPPORTED};

#[cfg(not(unix))]
pub use fallback::{
    bind_reuseport, poll_readable, wait_readable, POLL_SUPPORTED, REUSEPORT_SUPPORTED,
};

/// How the shard listeners were bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptMode {
    /// One `SO_REUSEPORT` listener per shard — the kernel spreads
    /// connections across acceptors.
    ReusePort,
    /// One shared listener; a single acceptor dispatches round-robin to
    /// the per-shard queues.
    SingleDispatch,
}

/// Bind one listener per shard on `addr` via `SO_REUSEPORT`, falling
/// back to a single shared listener where the option is unsupported.
/// Returns the listeners (all nonblocking), the resolved local address
/// (port 0 is resolved by the first bind and reused by the rest), and
/// the mode actually obtained.
pub fn bind_shard_listeners(
    addr: &str,
    shards: usize,
) -> io::Result<(Vec<TcpListener>, SocketAddr, AcceptMode)> {
    let shards = shards.max(1);
    if shards > 1 && REUSEPORT_SUPPORTED {
        // On failure, fall through: v6-mapped or exotic addresses take
        // the dispatch path rather than failing startup.
        if let Ok((listeners, local)) = try_bind_reuseport_set(addr, shards) {
            return Ok((listeners, local, AcceptMode::ReusePort));
        }
    }
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    Ok((vec![listener], local, AcceptMode::SingleDispatch))
}

fn try_bind_reuseport_set(addr: &str, shards: usize) -> io::Result<(Vec<TcpListener>, SocketAddr)> {
    let requested: SocketAddr = addr
        .parse()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("{addr}: {e}")))?;
    let first = bind_reuseport(&requested)?;
    first.set_nonblocking(true)?;
    let local = first.local_addr()?;
    let mut listeners = vec![first];
    for _ in 1..shards {
        // Port 0 was resolved by the first bind; siblings join it.
        let l = bind_reuseport(&local)?;
        l.set_nonblocking(true)?;
        listeners.push(l);
    }
    Ok((listeners, local))
}

#[cfg(unix)]
mod unix {
    use std::io;
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::os::fd::{AsRawFd, FromRawFd, RawFd};
    use std::time::Duration;

    /// `SO_REUSEPORT` binds work here.
    pub const REUSEPORT_SUPPORTED: bool = true;
    /// Multi-fd `poll(2)` works here.
    pub const POLL_SUPPORTED: bool = true;

    // Linux x86-64/aarch64 values; BSDs differ on the option numbers but
    // the workspace only targets Linux in CI, and the caller falls back
    // cleanly when a call is rejected.
    const AF_INET: i32 = 2;
    const AF_INET6: i32 = 10;
    const SOCK_STREAM: i32 = 1;
    const SOCK_CLOEXEC: i32 = 0x80000;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;
    const SO_REUSEPORT: i32 = 15;
    const SOMAXCONN: i32 = 128;

    pub const POLLIN: i16 = 0x001;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    #[repr(C)]
    struct SockAddrIn {
        sin_family: u16,
        sin_port: u16,
        sin_addr: u32,
        sin_zero: [u8; 8],
    }

    #[repr(C)]
    struct SockAddrIn6 {
        sin6_family: u16,
        sin6_port: u16,
        sin6_flowinfo: u32,
        sin6_addr: [u8; 16],
        sin6_scope_id: u32,
    }

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
        fn bind(fd: i32, addr: *const u8, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
    }

    fn last_error(fd: i32) -> io::Error {
        let err = io::Error::last_os_error();
        if fd >= 0 {
            unsafe { close(fd) };
        }
        err
    }

    /// Bind a `SOCK_STREAM` listener with `SO_REUSEADDR | SO_REUSEPORT`
    /// set before `bind`, so sibling shards can share the port.
    pub fn bind_reuseport(addr: &SocketAddr) -> io::Result<TcpListener> {
        let domain = match addr {
            SocketAddr::V4(_) => AF_INET,
            SocketAddr::V6(_) => AF_INET6,
        };
        let fd = unsafe { socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let one: i32 = 1;
        for opt in [SO_REUSEADDR, SO_REUSEPORT] {
            let rc =
                unsafe { setsockopt(fd, SOL_SOCKET, opt, &one, std::mem::size_of::<i32>() as u32) };
            if rc != 0 {
                return Err(last_error(fd));
            }
        }
        let rc = match addr {
            SocketAddr::V4(v4) => {
                let sa = SockAddrIn {
                    sin_family: AF_INET as u16,
                    sin_port: v4.port().to_be(),
                    sin_addr: u32::from_ne_bytes(v4.ip().octets()),
                    sin_zero: [0; 8],
                };
                unsafe {
                    bind(
                        fd,
                        (&sa as *const SockAddrIn).cast(),
                        std::mem::size_of::<SockAddrIn>() as u32,
                    )
                }
            }
            SocketAddr::V6(v6) => {
                let sa = SockAddrIn6 {
                    sin6_family: AF_INET6 as u16,
                    sin6_port: v6.port().to_be(),
                    sin6_flowinfo: v6.flowinfo(),
                    sin6_addr: v6.ip().octets(),
                    sin6_scope_id: v6.scope_id(),
                };
                unsafe {
                    bind(
                        fd,
                        (&sa as *const SockAddrIn6).cast(),
                        std::mem::size_of::<SockAddrIn6>() as u32,
                    )
                }
            }
        };
        if rc != 0 {
            return Err(last_error(fd));
        }
        if unsafe { listen(fd, SOMAXCONN) } != 0 {
            return Err(last_error(fd));
        }
        Ok(unsafe { TcpListener::from_raw_fd(fd) })
    }

    /// One `poll(2)` sweep over `fds` asking for readability. Returns
    /// the indices that are readable, hung up, or errored — everything a
    /// parked connection should be woken for.
    pub fn poll_readable(fds: &[RawFd], timeout_ms: i32) -> io::Result<Vec<usize>> {
        if fds.is_empty() {
            return Ok(Vec::new());
        }
        let mut pollfds: Vec<PollFd> = fds
            .iter()
            .map(|&fd| PollFd {
                fd,
                events: POLLIN,
                revents: 0,
            })
            .collect();
        let rc = unsafe { poll(pollfds.as_mut_ptr(), pollfds.len() as u64, timeout_ms) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(Vec::new());
            }
            return Err(err);
        }
        Ok(pollfds
            .iter()
            .enumerate()
            .filter(|(_, p)| p.revents & (POLLIN | POLLERR | POLLHUP) != 0)
            .map(|(i, _)| i)
            .collect())
    }

    /// Wait up to `timeout`, rounded up to whole milliseconds, for
    /// `stream` to turn readable (bytes, EOF or an error pending).
    /// `false` when the wait ran out or a signal cut it short.
    pub fn wait_readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
        let ms = timeout.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32;
        Ok(!poll_readable(&[stream.as_raw_fd()], ms)?.is_empty())
    }
}

#[cfg(not(unix))]
mod fallback {
    use std::io;
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::time::Duration;

    pub const REUSEPORT_SUPPORTED: bool = false;
    pub const POLL_SUPPORTED: bool = false;
    pub type RawFd = i32;

    pub fn bind_reuseport(_addr: &SocketAddr) -> io::Result<TcpListener> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "SO_REUSEPORT unavailable on this platform",
        ))
    }

    pub fn poll_readable(_fds: &[RawFd], _timeout_ms: i32) -> io::Result<Vec<usize>> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "poll unavailable",
        ))
    }

    /// A one-byte peek under a read timeout, which the platform may
    /// round up.
    pub fn wait_readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
        stream.set_read_timeout(Some(timeout))?;
        match stream.peek(&mut [0u8; 1]) {
            Ok(_) => Ok(true),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    #[test]
    fn reuseport_siblings_share_one_port_and_both_accept() {
        let (listeners, local, mode) = bind_shard_listeners("127.0.0.1:0", 2).unwrap();
        if mode != AcceptMode::ReusePort {
            // Platform without SO_REUSEPORT: the fallback contract is a
            // single dispatch listener.
            assert_eq!(listeners.len(), 1);
            return;
        }
        assert_eq!(listeners.len(), 2);
        assert_ne!(local.port(), 0);
        for l in &listeners {
            assert_eq!(l.local_addr().unwrap().port(), local.port());
            l.set_nonblocking(false).unwrap();
        }
        // The kernel picks the accepting listener per connection; drive
        // enough connections that the test holds whichever way it hashes.
        let stop = std::sync::atomic::AtomicBool::new(false);
        let served = std::thread::scope(|s| {
            let mut handles = Vec::new();
            for l in &listeners {
                let stop = &stop;
                handles.push(s.spawn(move || {
                    let mut served = 0;
                    l.set_nonblocking(true).unwrap();
                    while !stop.load(std::sync::atomic::Ordering::Acquire) {
                        match l.accept() {
                            Ok((mut stream, _)) => {
                                let mut b = [0u8; 4];
                                let _ = stream.read(&mut b);
                                let _ = stream.write_all(b"pong");
                                served += 1;
                            }
                            Err(_) => std::thread::sleep(std::time::Duration::from_millis(1)),
                        }
                    }
                    served
                }));
            }
            let mut answered = 0;
            for _ in 0..16 {
                let mut c = TcpStream::connect(local).unwrap();
                c.write_all(b"ping").unwrap();
                let mut buf = [0u8; 4];
                if c.read_exact(&mut buf).is_ok() {
                    answered += 1;
                }
            }
            stop.store(true, std::sync::atomic::Ordering::Release);
            assert_eq!(answered, 16);
            handles.into_iter().map(|h| h.join().unwrap()).sum::<u32>()
        });
        assert_eq!(served, 16);
    }

    #[cfg(unix)]
    #[test]
    fn poll_reports_readable_and_quiet_sockets() {
        use std::os::fd::AsRawFd;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let quiet = TcpStream::connect(addr).unwrap();
        let (quiet_side, _) = listener.accept().unwrap();

        // Nothing written yet: a zero-timeout sweep sees nothing.
        let fds = [server_side.as_raw_fd(), quiet_side.as_raw_fd()];
        assert!(poll_readable(&fds, 0).unwrap().is_empty());

        client.write_all(b"x").unwrap();
        let ready = poll_readable(&fds, 1000).unwrap();
        assert_eq!(ready, vec![0]);

        // A hangup wakes the sweep too.
        drop(client);
        let ready = poll_readable(&fds, 1000).unwrap();
        assert!(ready.contains(&0));
        drop(quiet);
    }
}
