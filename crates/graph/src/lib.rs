//! # osn-graph — dynamic-graph substrate
//!
//! This crate is the foundation of the `multiscale-osn` workspace. It models
//! an evolving social network exactly the way the IMC 2012 Renren study
//! consumed it: as an append-only, time-ordered stream of node-arrival and
//! edge-arrival events, from which static snapshots are materialised on
//! demand.
//!
//! The main types are:
//!
//! * [`Time`] / [`NodeId`] — compact value types for timestamps (seconds
//!   since trace start) and node identifiers.
//! * [`Event`] / [`EventLog`] — a single timestamped creation event and a
//!   validated, time-sorted stream of them.
//! * [`DynamicGraph`] — a mutable adjacency structure that replays events
//!   incrementally and tracks per-node metadata (join time, origin
//!   network, degree).
//! * [`CsrGraph`] — a frozen compressed-sparse-row snapshot optimised for
//!   the read-heavy metric computations in `osn-metrics`.
//! * [`Replayer`] / [`DailySnapshots`] — drive a [`DynamicGraph`] forward
//!   through an [`EventLog`], yielding per-day (or per-k-days) snapshots.
//! * [`UnionFind`] — disjoint sets, used for connected components.
//!
//! Design notes (see DESIGN.md at the workspace root): everything here is
//! synchronous and allocation-conscious; the workload is CPU-bound graph
//! analytics, so there is no async machinery. All structures are `Send` so
//! snapshots can be fanned out to worker threads by `osn-metrics`.

pub mod atomicfile;
pub mod crc32;
pub mod csr;
pub mod dynamic;
pub mod event;
mod frame;
pub mod gzip;
pub mod io;
pub mod log;
pub mod snapshots;
pub mod tail;
#[cfg(any(test, feature = "testutil"))]
pub mod testutil;
pub mod time;
pub mod unionfind;
pub mod view;
pub mod wal;

pub use csr::CsrGraph;
pub use dynamic::{ApplyError, DeltaObserver, DynamicGraph, NoDelta};
pub use event::{Event, EventKind, Origin};
pub use io::{IngestReport, ParseError, RecoveryPolicy};
pub use log::{EventLog, EventLogBuilder, LogError};
pub use snapshots::{CheckpointError, DailySnapshots, ReplayCheckpoint, Replayer};
pub use tail::{TailBatch, TailError, TailEvent, TailReader};
pub use time::{Day, NodeId, Time, SECONDS_PER_DAY};
pub use unionfind::UnionFind;
pub use view::GraphView;
pub use wal::{Wal, WalAck, WalError, WalEvent, WalEventKind, WalOpenReport, WalOptions, WalStats};
