//! Structured access logging and serving-plane counters.
//!
//! One line per request (a keep-alive connection writes one per request
//! it carries), plus one, with method and path `-`, for a head that
//! fails to read or a connection shed at accept. Lines mirror the
//! `run_manifest.csv` semantics of the batch pipelines: a stable
//! `status=` verdict plus a `reason=` token drawn from the same
//! vocabulary (`panicked`, `timed-out`, `transient-exhausted`, plus the
//! serving-plane additions `shed`, `header-timeout`, `header-flood`,
//! `malformed`, `connection-lost`, and `-` for clean requests).

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Where access lines go. Defaults to stderr; tests inject a buffer.
pub struct AccessLog {
    sink: Mutex<Box<dyn Write + Send>>,
}

impl Default for AccessLog {
    fn default() -> Self {
        AccessLog {
            sink: Mutex::new(Box::new(std::io::stderr())),
        }
    }
}

impl std::fmt::Debug for AccessLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AccessLog")
    }
}

impl AccessLog {
    /// Log into an arbitrary sink (tests).
    pub fn to_sink(sink: Box<dyn Write + Send>) -> AccessLog {
        AccessLog {
            sink: Mutex::new(sink),
        }
    }

    /// Emit one access line. `method`/`path` may be `"-"` when the
    /// request head never parsed (shed at accept, header timeout).
    pub fn record(&self, method: &str, path: &str, status: u16, elapsed: Duration, reason: &str) {
        let line = format!(
            "access method={method} path={path} status={status} duration_ms={} reason={reason}\n",
            elapsed.as_millis()
        );
        if let Ok(mut sink) = self.sink.lock() {
            let _ = sink.write_all(line.as_bytes());
            let _ = sink.flush();
        }
    }
}

/// Monotone serving-plane counters, shared across all server threads.
/// Everything here is observational — the control decisions (shedding,
/// deadlines) are made against the bounded queues, not these numbers.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted (including ones later shed).
    pub accepted: AtomicU64,
    /// Responses written, across every request on every connection.
    /// Equals `accepted` only when clients send `Connection: close`;
    /// with keep-alive one accepted connection carries many requests.
    pub requests: AtomicU64,
    /// Responses with 2xx status.
    pub ok: AtomicU64,
    /// Responses with 4xx status.
    pub client_error: AtomicU64,
    /// Responses with 5xx status other than load-shed 503s.
    pub server_error: AtomicU64,
    /// Load-shed 503s (accept overflow, queue overflow, deadline
    /// exceeded while queued).
    pub shed: AtomicU64,
    /// Requests whose handler panicked (also counted in `server_error`).
    pub panicked: AtomicU64,
    /// Connections dropped during head read (slow-loris cutoffs,
    /// floods, malformed requests, vanished peers).
    pub bad_heads: AtomicU64,
}

/// A point-in-time copy of [`ServerStats`], for reports and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// See [`ServerStats::accepted`].
    pub accepted: u64,
    /// See [`ServerStats::requests`].
    pub requests: u64,
    /// See [`ServerStats::ok`].
    pub ok: u64,
    /// See [`ServerStats::client_error`].
    pub client_error: u64,
    /// See [`ServerStats::server_error`].
    pub server_error: u64,
    /// See [`ServerStats::shed`].
    pub shed: u64,
    /// See [`ServerStats::panicked`].
    pub panicked: u64,
    /// See [`ServerStats::bad_heads`].
    pub bad_heads: u64,
}

impl StatsSnapshot {
    /// Single-line JSON rendering (all fields numeric, no escaping
    /// needed). The `/v1/stats` endpoint embeds this verbatim.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"accepted\":{},\"requests\":{},\"ok\":{},\"client_error\":{},\
             \"server_error\":{},\"shed\":{},\"panicked\":{},\"bad_heads\":{}}}",
            self.accepted,
            self.requests,
            self.ok,
            self.client_error,
            self.server_error,
            self.shed,
            self.panicked,
            self.bad_heads,
        )
    }
}

impl ServerStats {
    /// Classify a finished response into the right counter.
    pub fn count_response(&self, status: u16, load_shed: bool, panicked: bool) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        match status {
            200..=299 => self.ok.fetch_add(1, Ordering::Relaxed),
            400..=499 => self.client_error.fetch_add(1, Ordering::Relaxed),
            _ if load_shed => self.shed.fetch_add(1, Ordering::Relaxed),
            _ => self.server_error.fetch_add(1, Ordering::Relaxed),
        };
        if panicked {
            self.panicked.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Copy every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            client_error: self.client_error.load(Ordering::Relaxed),
            server_error: self.server_error.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            panicked: self.panicked.load(Ordering::Relaxed),
            bad_heads: self.bad_heads.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn access_lines_are_structured() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::default();
        struct Sink(Arc<Mutex<Vec<u8>>>);
        impl Write for Sink {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let log = AccessLog::to_sink(Box::new(Sink(buf.clone())));
        log.record("GET", "/healthz", 200, Duration::from_millis(3), "-");
        log.record("-", "-", 503, Duration::ZERO, "shed");
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "access method=GET path=/healthz status=200 duration_ms=3 reason=-"
        );
        assert!(lines[1].contains("status=503") && lines[1].ends_with("reason=shed"));
    }

    #[test]
    fn response_classification() {
        let s = ServerStats::default();
        s.count_response(200, false, false);
        s.count_response(404, false, false);
        s.count_response(503, true, false);
        s.count_response(500, false, true);
        let snap = s.snapshot();
        assert_eq!(snap.ok, 1);
        assert_eq!(snap.client_error, 1);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.server_error, 1);
        assert_eq!(snap.panicked, 1);
    }
}
