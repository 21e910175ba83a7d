//! The durable write plane behind `POST /v1/events`.
//!
//! Admission happens in the shard loop, before the request ever holds a
//! worker or a queue slot, in this order (cheapest rejection first):
//!
//! 1. write plane disabled → `403` (the route exists, writes don't);
//! 2. missing bearer token → `401`; unknown token → `403`;
//! 3. per-token rate budget exhausted → `429` + `Retry-After`;
//! 4. fsync queue deeper than `--max-sync-queue` → `503` + `Retry-After`;
//! 5. live head further behind than `--max-write-lag` events →
//!    `503` + `Retry-After`.
//!
//! Steps 4–5 are the write-flood valves: accepting more writes when the
//! fsync leader or the publishing head cannot keep up only converts
//! bounded client retries into unbounded server memory, so we shed and
//! let the at-least-once client come back with the same
//! `Idempotency-Key`. Reads never pass through this module, which is
//! how the read plane stays alive while writes are shed.
//!
//! Bodies are CSV (raw `N`/`E` trace lines, blank and `#` lines
//! ignored) or, when the `Content-Type` mentions `json`, a single
//! `{"events":["N 0 core", ...]}` document parsed by a tiny scanner —
//! no external JSON dependency. Either way the payload becomes
//! [`WalEvent`]s and lands in the WAL under the request's
//! `Idempotency-Key`, so a retried batch acks with `duplicate:true`
//! instead of double-applying.

use crate::handlers::Handled;
use crate::http::{BodyError, Conn, RequestHead, Response};
use osn_core::live::LiveQuery;
use osn_graph::wal::{Wal, WalError, WalEvent};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Everything `serve --accept-writes` hands the server.
#[derive(Debug)]
pub struct WritePlaneConfig {
    /// The open write-ahead log; appends here feed the tailed trace.
    pub wal: Arc<Wal>,
    /// Accepted bearer tokens. Empty means every request is `403`.
    pub tokens: Vec<String>,
    /// Steady-state accepted batches per second, per token.
    pub rate_limit: f64,
    /// Burst allowance (token-bucket capacity), per token.
    pub rate_burst: f64,
    /// Largest accepted request body.
    pub max_body_bytes: u64,
    /// Shed writes when more than this many appends await fsync.
    pub max_sync_queue: u64,
    /// Shed writes when the live head is this many events behind.
    pub max_lag_events: u64,
}

impl WritePlaneConfig {
    /// Production defaults around an open WAL; tests and the CLI
    /// override the knobs they care about.
    pub fn new(wal: Arc<Wal>, tokens: Vec<String>) -> WritePlaneConfig {
        WritePlaneConfig {
            wal,
            tokens,
            rate_limit: 200.0,
            rate_burst: 400.0,
            max_body_bytes: 1 << 20,
            max_sync_queue: 256,
            max_lag_events: 100_000,
        }
    }
}

/// Classic token bucket, refilled lazily on each take.
#[derive(Debug, Clone, Copy)]
struct TokenBucket {
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    fn take(&mut self, rate: f64, burst: f64, now: Instant) -> bool {
        let dt = now.saturating_duration_since(self.last).as_secs_f64();
        self.tokens = (self.tokens + dt * rate).min(burst);
        self.last = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Whole seconds until one token is available again (at least 1, so
    /// a `Retry-After: 0` never tells the client to hammer us).
    fn retry_after(&self, rate: f64) -> u32 {
        if rate <= 0.0 {
            return 1;
        }
        ((((1.0 - self.tokens).max(0.0) / rate).ceil()).min(3600.0) as u32).max(1)
    }
}

/// Runtime state of the write plane: the static config plus one rate
/// bucket per token. The token set is fixed at startup and every bucket
/// is made then, full, so admission looks buckets up by `&str` without
/// allocating, and an attacker guessing tokens cannot grow the map.
#[derive(Debug)]
pub struct WriteState {
    cfg: WritePlaneConfig,
    buckets: Mutex<HashMap<String, TokenBucket>>,
}

impl WriteState {
    pub fn new(cfg: WritePlaneConfig) -> WriteState {
        let now = Instant::now();
        let full = TokenBucket {
            tokens: cfg.rate_burst,
            last: now,
        };
        let buckets = (cfg.tokens.iter()).map(|t| (t.clone(), full)).collect();
        WriteState {
            cfg,
            buckets: Mutex::new(buckets),
        }
    }

    pub fn wal(&self) -> &Wal {
        &self.cfg.wal
    }

    pub fn max_body_bytes(&self) -> u64 {
        self.cfg.max_body_bytes
    }

    /// Admission control, run by the shard loop. `None` means the request may
    /// proceed to the work queue; `Some` is the rejection to write
    /// straight back.
    pub fn admit(&self, head: &RequestHead, live: &LiveQuery) -> Option<Response> {
        let token = match bearer_token(head) {
            BearerToken::Missing => {
                return Some(Response::text(
                    401,
                    "missing bearer token (Authorization: Bearer <token>)\n",
                ))
            }
            BearerToken::Malformed => {
                return Some(Response::text(401, "malformed Authorization header\n"))
            }
            BearerToken::Token(t) => t,
        };
        if !token_authorized(&self.cfg.tokens, token) {
            return Some(Response::text(403, "unknown write token\n"));
        }
        // Rate budget before the durability valves: a noisy client gets
        // its own 429s rather than pushing everyone into the 503s.
        {
            let now = Instant::now();
            let mut buckets = self.buckets.lock().unwrap();
            let bucket = buckets
                .get_mut(token)
                .expect("authorized tokens have buckets");
            if !bucket.take(self.cfg.rate_limit, self.cfg.rate_burst, now) {
                let mut r = Response::text(429, "write rate budget exhausted\n");
                r.retry_after = Some(bucket.retry_after(self.cfg.rate_limit));
                return Some(r);
            }
        }
        let depth = self.cfg.wal.sync_queue_depth();
        if depth > self.cfg.max_sync_queue {
            let mut r = Response::text(
                503,
                &format!("write plane saturated: {depth} appends awaiting fsync\n"),
            );
            r.retry_after = Some(1);
            return Some(r);
        }
        let lag = live.lag_events();
        if lag > self.cfg.max_lag_events {
            let mut r = Response::text(
                503,
                &format!("live head {lag} events behind; shedding writes\n"),
            );
            r.retry_after = Some(2);
            return Some(r);
        }
        None
    }

    /// Execute an admitted `POST /v1/events`: read the body under the
    /// request deadline, parse it, and append to the WAL. Returns the
    /// response plus the access-log reason.
    pub fn handle_post(&self, conn: &mut Conn, head: &RequestHead, deadline: Instant) -> Handled {
        let body = match conn.read_body(head, self.cfg.max_body_bytes, deadline) {
            Ok(body) => body,
            Err(err) => return body_error_response(&err),
        };
        let events = match parse_events(head, &body) {
            Ok(events) => events,
            Err(msg) => {
                return Handled {
                    response: Response::text(400, &format!("{msg}\n")),
                    reason: "bad-batch",
                }
            }
        };
        match self
            .cfg
            .wal
            .append(head.idempotency_key.as_deref(), &events)
        {
            Ok(ack) => {
                osn_obs::counter!("write.accepted").inc();
                osn_obs::counter!("write.events").add(ack.events);
                if ack.duplicate {
                    osn_obs::counter!("write.duplicates").inc();
                }
                let status = if ack.duplicate { 200 } else { 201 };
                Handled {
                    response: Response::json(
                        status,
                        format!(
                            "{{\"seq\":{},\"events\":{},\"duplicate\":{}}}",
                            ack.seq, ack.events, ack.duplicate
                        ),
                    ),
                    reason: "-",
                }
            }
            Err(err) => wal_error_response(&err),
        }
    }
}

/// Membership test for the configured token set. Every token is compared
/// (no short-circuit) with a constant-time byte fold, so the 403 timing
/// does not leak how long a matching prefix a guessed token had.
fn token_authorized(tokens: &[String], candidate: &str) -> bool {
    let mut ok = false;
    for t in tokens {
        ok |= ct_eq(t.as_bytes(), candidate.as_bytes());
    }
    ok
}

/// Constant-time byte-slice equality: XOR-accumulate over the longer of
/// the two lengths, folding the length difference in as well. Timing
/// depends only on the candidate's and tokens' lengths, never on where
/// the first mismatching byte sits.
fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0) as usize;
        let y = b.get(i).copied().unwrap_or(0) as usize;
        diff |= x ^ y;
    }
    diff == 0
}

/// Outcome of pulling a bearer token out of the Authorization header.
enum BearerToken<'a> {
    Missing,
    Malformed,
    Token(&'a str),
}

fn bearer_token(head: &RequestHead) -> BearerToken<'_> {
    let Some(auth) = head.authorization.as_deref() else {
        return BearerToken::Missing;
    };
    let mut parts = auth.splitn(2, ' ');
    let scheme = parts.next().unwrap_or("");
    let token = parts.next().unwrap_or("").trim();
    if !scheme.eq_ignore_ascii_case("bearer") || token.is_empty() {
        return BearerToken::Malformed;
    }
    BearerToken::Token(token)
}

fn body_error_response(err: &BodyError) -> Handled {
    let (status, reason) = match err {
        BodyError::LengthRequired => (411, "length-required"),
        BodyError::TooLarge => (413, "body-too-large"),
        BodyError::TimedOut => (408, "body-timeout"),
        BodyError::ConnectionLost => (0, "connection-lost"),
    };
    Handled {
        response: Response::text(status.max(400), &format!("{}\n", err.as_str())),
        reason,
    }
}

fn wal_error_response(err: &WalError) -> Handled {
    match err {
        WalError::OutOfOrder { .. } => Handled {
            response: Response::text(409, &format!("{err}\n")),
            reason: "out-of-order",
        },
        WalError::BadEvent { .. } | WalError::BadKey(_) => Handled {
            response: Response::text(400, &format!("{err}\n")),
            reason: "bad-batch",
        },
        WalError::Sealed => {
            let mut r = Response::text(503, "write plane is draining\n");
            r.retry_after = Some(1);
            Handled {
                response: r,
                reason: "sealed",
            }
        }
        WalError::Io(_) | WalError::Corrupt { .. } => Handled {
            response: Response::text(500, "write-ahead log failure\n"),
            reason: "wal-error",
        },
    }
}

/// Parse a request body into WAL events. CSV is the default, parsed in
/// place line by line; a JSON content type switches to the
/// `{"events":[...]}` document form, whose strings are unescaped first.
pub fn parse_events(head: &RequestHead, body: &[u8]) -> Result<Vec<WalEvent>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not valid UTF-8".to_string())?;
    let events = if head
        .content_type
        .as_deref()
        .is_some_and(|ct| ct.contains("json"))
    {
        parse_lines(parse_json_events(text)?.iter().map(String::as_str))?
    } else {
        parse_lines(text.lines())?
    };
    if events.is_empty() {
        return Err("batch contains no events".to_string());
    }
    Ok(events)
}

/// Parse event lines, skipping blank and `#` lines; an error names the
/// failing line's 1-based position among all of them.
fn parse_lines<'a>(lines: impl Iterator<Item = &'a str>) -> Result<Vec<WalEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in lines.enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let ev = WalEvent::parse_line(line).map_err(|e| format!("event {}: {e}", i + 1))?;
        events.push(ev);
    }
    Ok(events)
}

/// Extract the string array behind the `"events"` key of a flat JSON
/// object. Deliberately minimal: one key, an array of strings, the
/// escapes needed for line-oriented ASCII payloads. Anything fancier is
/// a client bug we would rather reject than guess at.
fn parse_json_events(text: &str) -> Result<Vec<String>, String> {
    let key = "\"events\"";
    let at = text
        .find(key)
        .ok_or_else(|| "JSON body must contain an \"events\" key".to_string())?;
    let rest = text[at + key.len()..].trim_start();
    let rest = rest
        .strip_prefix(':')
        .ok_or_else(|| "expected ':' after \"events\"".to_string())?;
    let rest = rest.trim_start();
    let rest = rest
        .strip_prefix('[')
        .ok_or_else(|| "\"events\" must be an array of strings".to_string())?;

    let mut out = Vec::new();
    let mut chars = rest.chars().peekable();
    loop {
        while chars.peek().is_some_and(|c| c.is_whitespace() || *c == ',') {
            chars.next();
        }
        match chars.peek() {
            Some(']') => return Ok(out),
            Some('"') => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        None => return Err("unterminated string in \"events\"".to_string()),
                        Some('"') => break,
                        Some('\\') => match chars.next() {
                            Some('"') => s.push('"'),
                            Some('\\') => s.push('\\'),
                            Some('/') => s.push('/'),
                            Some('n') => s.push('\n'),
                            Some('t') => s.push('\t'),
                            Some('r') => s.push('\r'),
                            other => {
                                return Err(format!(
                                    "unsupported escape {:?} in \"events\"",
                                    other.map(|c| c.to_string()).unwrap_or_default()
                                ))
                            }
                        },
                        Some(c) => s.push(c),
                    }
                }
                out.push(s);
            }
            other => {
                return Err(format!(
                    "expected string or ']' in \"events\", found {:?}",
                    other.map(|c| c.to_string()).unwrap_or_default()
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::wal::WalOptions;
    use osn_graph::Origin;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "osn-write-{name}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn state(name: &str, tokens: &[&str], rate: f64, burst: f64) -> WriteState {
        let dir = scratch(name);
        let opts = WalOptions {
            fsync: false,
            ..WalOptions::default()
        };
        let (wal, _report) = Wal::open_default(&dir.join("trace.log"), opts).unwrap();
        let mut cfg = WritePlaneConfig::new(
            Arc::new(wal),
            tokens.iter().map(|t| t.to_string()).collect(),
        );
        cfg.rate_limit = rate;
        cfg.rate_burst = burst;
        WriteState::new(cfg)
    }

    fn post_head(auth: Option<&str>) -> RequestHead {
        let mut h = RequestHead::new("POST", "/v1/events");
        h.authorization = auth.map(str::to_string);
        h
    }

    #[test]
    fn admission_rejects_missing_unknown_and_malformed_tokens() {
        let s = state("auth", &["s3cret"], 100.0, 100.0);
        let live = LiveQuery::for_follow();
        let r = s.admit(&post_head(None), &live).unwrap();
        assert_eq!(r.status, 401);
        let r = s.admit(&post_head(Some("Basic s3cret")), &live).unwrap();
        assert_eq!(r.status, 401);
        let r = s.admit(&post_head(Some("Bearer wrong")), &live).unwrap();
        assert_eq!(r.status, 403);
        assert!(s.admit(&post_head(Some("Bearer s3cret")), &live).is_none());
        // Scheme is case-insensitive per RFC 6750.
        assert!(s.admit(&post_head(Some("bearer s3cret")), &live).is_none());
    }

    #[test]
    fn token_check_is_exact_match_only() {
        let toks = vec!["s3cret".to_string(), "other".to_string()];
        assert!(token_authorized(&toks, "s3cret"));
        assert!(token_authorized(&toks, "other"));
        assert!(!token_authorized(&toks, "s3cre"));
        assert!(!token_authorized(&toks, "s3cretX"));
        assert!(!token_authorized(&toks, "s3crex"));
        assert!(!token_authorized(&toks, ""));
        assert!(!token_authorized(&[], "anything"));
    }

    #[test]
    fn rate_budget_exhaustion_returns_429_with_retry_after() {
        // Burst of 2, negligible refill: third request in a row sheds.
        let s = state("rate", &["tok"], 0.001, 2.0);
        let live = LiveQuery::for_follow();
        let head = post_head(Some("Bearer tok"));
        assert!(s.admit(&head, &live).is_none());
        assert!(s.admit(&head, &live).is_none());
        let r = s.admit(&head, &live).unwrap();
        assert_eq!(r.status, 429);
        assert!(r.retry_after.unwrap() >= 1);
    }

    #[test]
    fn rate_buckets_are_per_token() {
        let s = state("pertok", &["a", "b"], 0.001, 1.0);
        let live = LiveQuery::for_follow();
        assert!(s.admit(&post_head(Some("Bearer a")), &live).is_none());
        assert_eq!(
            s.admit(&post_head(Some("Bearer a")), &live).unwrap().status,
            429
        );
        // Token b still has its own budget.
        assert!(s.admit(&post_head(Some("Bearer b")), &live).is_none());
    }

    #[test]
    fn csv_and_json_bodies_parse_to_the_same_events() {
        let head = post_head(None);
        let csv = b"# comment\nN 0 core\n\nE 5 0 1\n";
        let got = parse_events(&head, csv).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], WalEvent::node(0, Origin::Core));
        assert_eq!(got[1], WalEvent::edge(5, 0, 1));

        let mut jhead = post_head(None);
        jhead.content_type = Some("application/json".to_string());
        let json = br#"{"events": ["N 0 core", "E 5 0 1"]}"#;
        assert_eq!(parse_events(&jhead, json).unwrap(), got);
    }

    #[test]
    fn bad_bodies_are_rejected_with_reasons() {
        let head = post_head(None);
        assert!(parse_events(&head, b"").is_err());
        assert!(parse_events(&head, b"# only comments\n").is_err());
        assert!(parse_events(&head, b"X 0 what\n").is_err());
        assert!(parse_events(&head, b"\xff\xfe").is_err());
        let mut jhead = post_head(None);
        jhead.content_type = Some("application/json; charset=utf-8".to_string());
        assert!(parse_events(&jhead, b"{\"wrong\": []}").is_err());
        assert!(parse_events(&jhead, b"{\"events\": [42]}").is_err());
        assert!(parse_events(&jhead, b"{\"events\": [\"N 0 core\"").is_err());
    }

    #[test]
    fn a_bad_line_is_named_once_by_its_place_in_the_body() {
        let head = post_head(None);
        assert_eq!(
            parse_events(&head, b"N 0 core\nN 5 core\nE x 0 1\n").unwrap_err(),
            "event 3: bad timestamp"
        );
        // Blank and `#` lines count towards the place.
        assert_eq!(
            parse_events(&head, b"# batch 7\nN 0 core\n\nE 5 0 one\n").unwrap_err(),
            "event 4: bad endpoint v"
        );
        let mut jhead = post_head(None);
        jhead.content_type = Some("application/json".to_string());
        let json = br#"{"events": ["N 0 core", "N 1 nowhere"]}"#;
        assert_eq!(
            parse_events(&jhead, json).unwrap_err(),
            "event 2: unknown origin 'nowhere'"
        );
    }

    #[test]
    fn wal_errors_map_to_the_documented_statuses() {
        let h = wal_error_response(&WalError::OutOfOrder { time: 1, last: 5 });
        assert_eq!(h.response.status, 409);
        let h = wal_error_response(&WalError::BadKey("x".into()));
        assert_eq!(h.response.status, 400);
        let h = wal_error_response(&WalError::Sealed);
        assert_eq!(h.response.status, 503);
        assert_eq!(h.response.retry_after, Some(1));
        let h = wal_error_response(&WalError::Io(std::io::Error::other("disk")));
        assert_eq!(h.response.status, 500);
    }
}
