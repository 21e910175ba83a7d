//! # osn-server — overload-tolerant snapshot query daemon
//!
//! A std-only HTTP/1.1 server (no async runtime, no dependencies beyond
//! the workspace) that loads one validated trace, pre-materialises the
//! paper's per-day analyses through [`osn_core::query::SnapshotQuery`],
//! and answers:
//!
//! | endpoint                  | body | plane |
//! |---------------------------|------|-------|
//! | `GET /healthz`            | `ok` | shard loop (never queued) |
//! | `GET /readyz`             | JSON trace identity | shard loop |
//! | `GET /v1/meta`            | JSON trace identity + version | shard loop |
//! | `GET /v1/stats`           | JSON server counters + telemetry | shard loop |
//! | `GET /v1/head`            | JSON live-ingest head state (published day, lag, health) | shard loop |
//! | `GET /metrics`            | Prometheus text exposition | shard loop |
//! | `GET /v1/days`            | JSON day lists | shard loop on a cache hit, else workers |
//! | `GET /v1/metrics/{day}`   | CSV header + row, byte-identical to `osn metrics` | shard loop on a cache hit, else workers |
//! | `GET /v1/communities/{day}` | CSV header + row, byte-identical to `osn communities` | shard loop on a cache hit, else workers |
//! | `POST /v1/events`         | JSON append ack (WAL seq, dedup flag) | workers (admission in the shard loop) |
//!
//! `POST /v1/events` is the durable write plane (`serve
//! --accept-writes`): bearer-token auth, CSV or JSON batches, per-batch
//! `Idempotency-Key` dedup, and admission control that sheds writes with
//! `429`/`503` + `Retry-After` while reads keep answering — see
//! [`mod@write`].
//!
//! The full HTTP reference lives in `API.md` at the workspace root; it
//! is generated from the route table in [`router`] and kept fresh by a
//! unit test.
//!
//! Robustness is the design center, not throughput:
//!
//! * **Bounded everywhere** — each shard loop holds at most 128
//!   connections awaiting a first head and each work queue has a hard
//!   bound; overflow is answered with an immediate `503` +
//!   `Retry-After`, never an unbounded backlog. One `poll(2)` loop per
//!   shard drives every connection no worker holds with nonblocking
//!   reads and writes, so a peer that sends nothing or never reads
//!   delays nobody else.
//! * **Hostile-client proof** — request heads are read under a deadline
//!   counted from accept (slow-loris), capped in size (header floods),
//!   and a half-closed client still gets its response.
//! * **Panic isolated** — handlers run under the same supervisor as the
//!   batch pipelines (`osn_metrics::supervisor`); a panicking request is
//!   a `500`, not a dead process, and the access log reuses the
//!   supervisor's failure taxonomy.
//! * **Graceful drain** — shutdown stops accepting, finishes in-flight
//!   work up to a deadline, and reports what (if anything) it had to
//!   abandon so the CLI can exit `0` (clean) or `4` (degraded drain).
//!
//! See `DESIGN.md` (workspace root) for the full runbook.

pub mod accesslog;
pub mod cache;
pub mod handlers;
pub mod http;
pub mod net;
pub mod router;
pub mod server;
pub mod write;

pub use accesslog::{AccessLog, ServerStats, StatsSnapshot};
pub use http::{Body, Conn, HeadError, RequestHead, Response};
pub use router::Route;
pub use server::{DrainReport, Server, ServerConfig};
pub use write::WritePlaneConfig;
