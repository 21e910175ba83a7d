//! Raw-libc socket plumbing for the shard loops: `SO_REUSEPORT` listener
//! binding, and `poll(2)` readiness waits for a loop's sockets and a
//! worker's linger.
//!
//! Declared by hand in the same style as the CLI's signal FFI — the
//! workspace takes no libc crate dependency, and the daemon only needs
//! two calls beyond what `std::net` offers: a socket option `std` does
//! not expose, and a multi-fd readiness wait. Where `SO_REUSEPORT` is
//! unavailable every shard polls a clone of one shared listener
//! ([`bind_shard_listeners`]). Off unix, `PollSet::wait` naps for at
//! most 1 ms and reports every socket ready, and a `Waker` does
//! nothing.

use std::io;
use std::net::{SocketAddr, TcpListener};

#[cfg(unix)]
pub use unix::{bind_reuseport, poll_readable, wait_readable, wake_pair, PollSet, WakeRx, Waker};

#[cfg(not(unix))]
pub use fallback::{bind_reuseport, wait_readable, wake_pair, PollSet, WakeRx, Waker};

/// Bind one listener per shard on `addr` via `SO_REUSEPORT`, so the
/// kernel spreads connections across the shards. Where that bind fails,
/// every shard gets a clone of one shared listener and takes whichever
/// connection it accepts first. Returns the listeners (all nonblocking)
/// and the resolved local address (port 0 is resolved by the first bind
/// and reused by the rest).
pub fn bind_shard_listeners(
    addr: &str,
    shards: usize,
) -> io::Result<(Vec<TcpListener>, SocketAddr)> {
    let shards = shards.max(1);
    if shards > 1 {
        // On failure, fall through: v6-mapped or exotic addresses share
        // one listener rather than failing startup.
        if let Ok(bound) = try_bind_reuseport_set(addr, shards) {
            return Ok(bound);
        }
    }
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let mut listeners = Vec::with_capacity(shards);
    for _ in 1..shards {
        listeners.push(listener.try_clone()?);
    }
    listeners.push(listener);
    Ok((listeners, local))
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
    use std::io::{self, Read, Write};
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::os::fd::{AsRawFd, FromRawFd, RawFd};
    use std::os::unix::net::UnixStream;
    use std::sync::Arc;
    use std::time::Duration;

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

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    #[repr(C)]
    #[derive(Debug)]
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

    /// The sockets one `poll(2)` call waits on, kept from turn to turn.
    /// Entries are addressed by the order they were pushed in.
    #[derive(Debug, Default)]
    pub struct PollSet {
        fds: Vec<PollFd>,
    }

    impl PollSet {
        /// Forget every entry, keeping the allocation.
        pub fn clear(&mut self) {
            self.fds.clear();
        }

        /// Add `socket`: wait for bytes or an EOF when `read` is set,
        /// and for room to write when `write` is. An error or a hangup
        /// ends the wait either way.
        pub fn push(&mut self, socket: &impl AsRawFd, read: bool, write: bool) {
            let events = if read { POLLIN } else { 0 } | if write { POLLOUT } else { 0 };
            self.fds.push(PollFd {
                fd: socket.as_raw_fd(),
                events,
                revents: 0,
            });
        }

        /// One `poll(2)` over every entry, for up to `timeout_ms`. A
        /// signal that cuts the wait short reports nothing ready.
        pub fn wait(&mut self, timeout_ms: i32) -> io::Result<()> {
            // SAFETY: `fds` is an exclusively borrowed array of exactly
            // `len` `#[repr(C)]` pollfd records, and poll(2) reads and
            // writes only within it.
            let rc = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as u64, timeout_ms) };
            if rc < 0 {
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
            Ok(())
        }

        /// Entry `i` has bytes, an EOF or an error to read.
        pub fn readable(&self, i: usize) -> bool {
            self.fds[i].revents & (POLLIN | POLLERR | POLLHUP) != 0
        }

        /// Entry `i` can take more output, or has an error to report.
        pub fn writable(&self, i: usize) -> bool {
            self.fds[i].revents & (POLLOUT | POLLERR | POLLHUP) != 0
        }
    }

    /// One `poll(2)` sweep over `fds` asking for readability. Returns
    /// the indices that are readable, hung up, or errored.
    pub fn poll_readable(fds: &[RawFd], timeout_ms: i32) -> io::Result<Vec<usize>> {
        let mut set = PollSet::default();
        for fd in fds {
            set.push(fd, true, false);
        }
        set.wait(timeout_ms)?;
        Ok((0..fds.len()).filter(|&i| set.readable(i)).collect())
    }

    /// Wait up to `timeout`, rounded up to whole milliseconds, for
    /// `stream` to turn readable (bytes, EOF or an error pending).
    /// `false` when the wait ran out or a signal cut it short.
    pub fn wait_readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
        let ms = timeout.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32;
        Ok(!poll_readable(&[stream.as_raw_fd()], ms)?.is_empty())
    }

    /// A loop's end of its wake channel: readable once a [`Waker`] fired.
    #[derive(Debug)]
    pub struct WakeRx(UnixStream);

    /// Ends a loop's [`PollSet::wait`] from another thread.
    #[derive(Debug, Clone)]
    pub struct Waker(Arc<UnixStream>);

    /// A connected wake channel, both ends nonblocking.
    pub fn wake_pair() -> io::Result<(WakeRx, Waker)> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok((WakeRx(rx), Waker(Arc::new(tx))))
    }

    impl Waker {
        /// Make the loop's current or next wait return. A write that
        /// would block finds the channel full of wake-ups already.
        pub fn wake(&self) {
            let _ = (&*self.0).write(&[1]);
        }
    }

    impl WakeRx {
        /// Consume every pending wake-up.
        pub fn drain(&self) {
            let mut buf = [0u8; 64];
            while matches!((&self.0).read(&mut buf), Ok(n) if n > 0) {}
        }
    }

    impl AsRawFd for WakeRx {
        fn as_raw_fd(&self) -> RawFd {
            self.0.as_raw_fd()
        }
    }
}

#[cfg(not(unix))]
mod fallback {
    use std::io;
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::time::Duration;

    pub fn bind_reuseport(_addr: &SocketAddr) -> io::Result<TcpListener> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "SO_REUSEPORT unavailable on this platform",
        ))
    }

    /// No `poll(2)`: a nap of at most 1 ms, after which every entry
    /// counts as ready.
    #[derive(Debug, Default)]
    pub struct PollSet;

    impl PollSet {
        pub fn clear(&mut self) {}

        pub fn push<T>(&mut self, _socket: &T, _read: bool, _write: bool) {}

        pub fn wait(&mut self, timeout_ms: i32) -> io::Result<()> {
            std::thread::sleep(Duration::from_millis(timeout_ms.clamp(0, 1) as u64));
            Ok(())
        }

        pub fn readable(&self, _i: usize) -> bool {
            true
        }

        pub fn writable(&self, _i: usize) -> bool {
            true
        }
    }

    /// No wake fd: the loop's 1 ms nap stands in for it.
    #[derive(Debug)]
    pub struct WakeRx;

    #[derive(Debug, Clone)]
    pub struct Waker;

    pub fn wake_pair() -> io::Result<(WakeRx, Waker)> {
        Ok((WakeRx, Waker))
    }

    impl Waker {
        pub fn wake(&self) {}
    }

    impl WakeRx {
        pub fn drain(&self) {}
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
        let (listeners, local) = bind_shard_listeners("127.0.0.1:0", 2).unwrap();
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
