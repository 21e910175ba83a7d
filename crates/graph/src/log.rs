//! The validated, time-ordered event stream.
//!
//! An [`EventLog`] is the canonical representation of a dynamic social
//! network in this workspace: every analysis in `osn-core` consumes one.
//! Logs are constructed through [`EventLogBuilder`], which enforces the
//! invariants the downstream code relies on:
//!
//! 1. events are sorted by time (ties keep insertion order);
//! 2. node ids are dense and appear before any edge that uses them;
//! 3. no self-loops and no duplicate edges.
//!
//! A refused event changes nothing, the builder's clock included: the
//! next event is checked against the last accepted one.
//!
//! [`EventLog::fingerprint`] is FNV-1a over eight bytes per field, most
//! of them the zero high bytes of small numbers. It takes each run of
//! those in the multiply of the byte below it, with the same value as
//! one multiply per byte: over the 186,551 events of the osnbench
//! `analyze` trace it took 3.2 ms against 5.4 ms (DESIGN.md,
//! *Performance, honestly*).

use crate::event::{Event, EventKind, Origin};
use crate::time::{Day, NodeId, Time};
use std::fmt;

/// Errors raised while building an [`EventLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// An event's timestamp was earlier than its predecessor's.
    OutOfOrder {
        /// Index of the offending event.
        index: usize,
        /// Its timestamp.
        time: Time,
        /// The previous event's timestamp.
        prev: Time,
    },
    /// A node id skipped ahead (ids must be dense: 0, 1, 2, …).
    NonDenseNode {
        /// The id that was added.
        got: NodeId,
        /// The id that was expected.
        expected: NodeId,
    },
    /// An edge referenced a node that has not been added yet.
    UnknownNode {
        /// The unknown endpoint.
        node: NodeId,
    },
    /// An edge connected a node to itself.
    SelfLoop {
        /// The node in question.
        node: NodeId,
    },
    /// The same undirected edge was added twice.
    DuplicateEdge {
        /// Smaller endpoint.
        u: NodeId,
        /// Larger endpoint.
        v: NodeId,
    },
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::OutOfOrder { index, time, prev } => write!(
                f,
                "event {index} at {time} is earlier than its predecessor at {prev}"
            ),
            LogError::NonDenseNode { got, expected } => {
                write!(
                    f,
                    "node {got} added but {expected} was expected (ids must be dense)"
                )
            }
            LogError::UnknownNode { node } => write!(f, "edge references unknown node {node}"),
            LogError::SelfLoop { node } => write!(f, "self-loop on {node}"),
            LogError::DuplicateEdge { u, v } => write!(f, "duplicate edge {u}-{v}"),
        }
    }
}

impl std::error::Error for LogError {}

/// A validated, time-sorted stream of creation events.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<Event>,
    num_nodes: u32,
    num_edges: u64,
    /// `origins[i]` is the origin network of `NodeId(i)`.
    origins: Vec<Origin>,
    /// `join_times[i]` is the creation time of `NodeId(i)`.
    join_times: Vec<Time>,
    /// `degrees[i]` is the degree of `NodeId(i)` once every event is in.
    degrees: Vec<u32>,
}

impl EventLog {
    /// All events, in time order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Total number of node-creation events.
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Total number of edge-creation events.
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Timestamp of the last event (zero for an empty log).
    pub fn end_time(&self) -> Time {
        self.events.last().map(|e| e.time).unwrap_or(Time::ZERO)
    }

    /// Day index of the last event.
    pub fn end_day(&self) -> Day {
        self.end_time().day()
    }

    /// The origin network of a node.
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    pub fn origin(&self, node: NodeId) -> Origin {
        self.origins[node.index()]
    }

    /// The join (creation) time of a node.
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    pub fn join_time(&self, node: NodeId) -> Time {
        self.join_times[node.index()]
    }

    /// Per-node origins, indexed by node id.
    pub fn origins(&self) -> &[Origin] {
        &self.origins
    }

    /// Per-node join times, indexed by node id.
    pub fn join_times(&self) -> &[Time] {
        &self.join_times
    }

    /// Per-node degrees after the last event, indexed by node id: how much
    /// room [`Replayer`](crate::snapshots::Replayer) gives each neighbour
    /// list.
    pub fn degrees(&self) -> &[u32] {
        &self.degrees
    }

    /// Index of the first event with `time >= t` (binary search).
    pub fn first_event_at_or_after(&self, t: Time) -> usize {
        self.events.partition_point(|e| e.time < t)
    }

    /// Iterate the edge events only, as `(time, u, v)` triples.
    pub fn edge_events(&self) -> impl Iterator<Item = (Time, NodeId, NodeId)> + '_ {
        self.events.iter().filter_map(|e| match e.kind {
            EventKind::AddEdge { u, v } => Some((e.time, u, v)),
            _ => None,
        })
    }

    /// Order-sensitive 64-bit fingerprint of the full event stream
    /// (FNV-1a over the eight little-endian bytes of every event's time,
    /// kind and payload).
    ///
    /// Used by checkpoint files to refuse resuming against a different
    /// trace than the one the checkpoint was taken from. Not
    /// cryptographic — it guards against operator mistakes, not
    /// adversaries.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for e in &self.events {
            h = fnv_word(h, e.time.seconds());
            match e.kind {
                EventKind::AddNode { node, origin } => {
                    h = fnv_word(h, 1);
                    h = fnv_word(h, node.0 as u64);
                    h = fnv_word(h, origin as u64);
                }
                EventKind::AddEdge { u, v } => {
                    h = fnv_word(h, 2);
                    h = fnv_word(h, u.0 as u64);
                    h = fnv_word(h, v.0 as u64);
                }
            }
        }
        h
    }

    /// Count nodes and edges created on each day, over `0..=end_day`.
    ///
    /// Returns `(nodes_per_day, edges_per_day)`.
    pub fn daily_counts(&self) -> (Vec<u64>, Vec<u64>) {
        let days = self.end_day() as usize + 1;
        let mut nodes = vec![0u64; days];
        let mut edges = vec![0u64; days];
        for e in &self.events {
            let d = e.time.day() as usize;
            match e.kind {
                EventKind::AddNode { .. } => nodes[d] += 1,
                EventKind::AddEdge { .. } => edges[d] += 1,
            }
        }
        (nodes, edges)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME_POW[k]` is `FNV_PRIME^k`, wrapping: what FNV-1a does to the
/// hash over `k` zero bytes, since `h ^ 0` is `h`.
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// FNV-1a over the eight little-endian bytes of `word`. Most words here
/// are small numbers: the run of zero high bytes costs no step of its own,
/// but folds into the last lower byte's multiply (into the only multiply
/// when `word` is 0).
fn fnv_word(mut h: u64, mut word: u64) -> u64 {
    let bytes = (8 - (word.leading_zeros() / 8) as usize).max(1);
    for _ in 1..bytes {
        h = (h ^ (word & 0xFF)).wrapping_mul(FNV_PRIME);
        word >>= 8;
    }
    (h ^ word).wrapping_mul(FNV_PRIME_POW[9 - bytes])
}

/// Incremental builder enforcing [`EventLog`]'s invariants.
///
/// Duplicate edges are caught against one sorted list per node that holds
/// only its smaller-id neighbours, so each edge is stored once, at its
/// larger endpoint: one binary search and one insert per edge. Nodes
/// arrive in id order, so these lists tend to stay short: a hub's later
/// neighbours land in the newer nodes' lists, not in its own.
#[derive(Debug, Default)]
pub struct EventLogBuilder {
    events: Vec<Event>,
    origins: Vec<Origin>,
    join_times: Vec<Time>,
    /// `lower[v]`: the sorted neighbours of `v` with ids below `v`.
    lower: Vec<Vec<u32>>,
    degrees: Vec<u32>,
    num_edges: u64,
    last_time: Time,
}

impl EventLogBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a builder with capacity hints.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        EventLogBuilder {
            events: Vec::with_capacity(nodes + edges),
            origins: Vec::with_capacity(nodes),
            join_times: Vec::with_capacity(nodes),
            lower: Vec::with_capacity(nodes),
            degrees: Vec::with_capacity(nodes),
            num_edges: 0,
            last_time: Time::ZERO,
        }
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> u32 {
        self.origins.len() as u32
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Append a node-creation event. The new node's id is returned and is
    /// always `NodeId(n)` where `n` is the number of nodes added before.
    pub fn add_node(&mut self, time: Time, origin: Origin) -> Result<NodeId, LogError> {
        self.check_time(time)?;
        self.last_time = time;
        let id = NodeId(self.origins.len() as u32);
        self.origins.push(origin);
        self.join_times.push(time);
        self.lower.push(Vec::new());
        self.degrees.push(0);
        self.events.push(Event::node(time, id, origin));
        Ok(id)
    }

    /// Append an edge-creation event between two existing nodes.
    pub fn add_edge(&mut self, time: Time, a: NodeId, b: NodeId) -> Result<(), LogError> {
        self.check_time(time)?;
        let n = self.origins.len() as u32;
        for node in [a, b] {
            if node.0 >= n {
                return Err(LogError::UnknownNode { node });
            }
        }
        if a == b {
            return Err(LogError::SelfLoop { node: a });
        }
        let (u, v) = if a.0 < b.0 { (a, b) } else { (b, a) };
        let list = &mut self.lower[v.index()];
        match list.binary_search(&u.0) {
            Ok(_) => return Err(LogError::DuplicateEdge { u, v }),
            Err(pos) => list.insert(pos, u.0),
        }
        self.degrees[u.index()] += 1;
        self.degrees[v.index()] += 1;
        self.num_edges += 1;
        self.last_time = time;
        self.events.push(Event::edge(time, u, v));
        Ok(())
    }

    /// True if the undirected edge `a-b` has already been added.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        let (u, v) = if a.0 < b.0 { (a, b) } else { (b, a) };
        self.lower
            .get(v.index())
            .is_some_and(|list| list.binary_search(&u.0).is_ok())
    }

    /// Current degree of a node (0 for unknown ids).
    pub fn degree(&self, node: NodeId) -> usize {
        self.degrees.get(node.index()).map_or(0, |&d| d as usize)
    }

    /// The sorted neighbours of `node` whose ids are below its own (empty
    /// for unknown ids). A generator that keeps the larger-id half itself
    /// has each node's whole sorted list as this half followed by that
    /// one.
    pub fn smaller_neighbors(&self, node: NodeId) -> &[u32] {
        self.lower.get(node.index()).map_or(&[], |v| v.as_slice())
    }

    /// Refuse `time` if it is earlier than the last accepted event's. Only
    /// an accepted event moves the clock: a refused one never happened.
    fn check_time(&self, time: Time) -> Result<(), LogError> {
        if time < self.last_time {
            return Err(LogError::OutOfOrder {
                index: self.events.len(),
                time,
                prev: self.last_time,
            });
        }
        Ok(())
    }

    /// Finish building and return the validated log.
    pub fn build(self) -> EventLog {
        EventLog {
            num_nodes: self.origins.len() as u32,
            num_edges: self.num_edges,
            events: self.events,
            origins: self.origins,
            join_times: self.join_times,
            degrees: self.degrees,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(d: u64) -> Time {
        Time::from_days(d)
    }

    /// FNV-1a one byte at a time over each word's eight little-endian
    /// bytes: the spelling `fingerprint` replaced, kept as its oracle.
    fn fnv_bytewise(mut h: u64, words: &[u64]) -> u64 {
        for w in words {
            for b in w.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    fn fingerprint_oracle(log: &EventLog) -> u64 {
        let words = log.events().iter().flat_map(|e| {
            let (kind, a, b) = match e.kind {
                EventKind::AddNode { node, origin } => (1, u64::from(node.0), origin as u64),
                EventKind::AddEdge { u, v } => (2, u64::from(u.0), u64::from(v.0)),
            };
            [e.time.seconds(), kind, a, b]
        });
        fnv_bytewise(0xcbf2_9ce4_8422_2325, &words.collect::<Vec<_>>())
    }

    #[test]
    fn fnv_word_matches_the_bytewise_oracle_at_every_byte_length() {
        // 0, 0xFF, 0x100, 0xFFFF, 0x1_0000, …, u64::MAX, and the same
        // lengths with zero bytes below the top one.
        let mut words = vec![0];
        for k in 0..8 {
            let top = 1u64 << (8 * k);
            words.extend([top, top | 1, (top << 8).wrapping_sub(1), top * 0x80]);
        }
        words.push(u64::MAX);
        for h in [FNV_OFFSET, 0, u64::MAX, 0x0123_4567_89AB_CDEF] {
            for &w in &words {
                assert_eq!(fnv_word(h, w), fnv_bytewise(h, &[w]), "{h:#x} {w:#x}");
            }
        }
    }

    proptest! {
        /// Random logs, with times past 2^32 s and every origin (`Core` is
        /// the all-zero word), fingerprint as the bytewise oracle does.
        #[test]
        fn fingerprint_matches_the_bytewise_oracle(
            steps in prop::collection::vec((any::<bool>(), any::<u32>(), any::<u32>(), 0u8..5), 0..200),
            start in (0u8..3, any::<u64>()),
        ) {
            let mut b = EventLogBuilder::new();
            let mut time = match start {
                (0, _) => 0,
                (1, raw) => raw % (1 << 40),
                (_, raw) => u64::MAX - raw % (1 << 20),
            };
            for &(node, x, y, gap) in &steps {
                time = time.saturating_add(u64::from(x) >> (8 * gap));
                let n = b.num_nodes();
                let _ = if node || n < 2 {
                    let origin = [Origin::Core, Origin::Competitor, Origin::PostMerge][y as usize % 3];
                    b.add_node(Time(time), origin).map(drop)
                } else {
                    b.add_edge(Time(time), NodeId(x % n), NodeId(y % n))
                };
            }
            let log = b.build();
            prop_assert_eq!(log.fingerprint(), fingerprint_oracle(&log));
        }
    }

    #[test]
    fn a_refused_event_does_not_move_the_clock() {
        let mut b = EventLogBuilder::new();
        let a = b.add_node(t(0), Origin::Core).unwrap();
        let c = b.add_node(t(0), Origin::Core).unwrap();
        b.add_edge(t(1), a, c).unwrap();
        assert!(b.add_edge(t(9), a, NodeId(7)).is_err());
        assert!(b.add_edge(t(9), a, a).is_err());
        assert!(b.add_edge(t(9), c, a).is_err());
        let d = b.add_node(t(2), Origin::Core).unwrap();
        b.add_edge(t(2), a, d).unwrap();
        assert_eq!(
            b.add_node(t(1), Origin::Core).unwrap_err(),
            LogError::OutOfOrder {
                index: 5,
                time: t(1),
                prev: t(2)
            }
        );
    }

    #[test]
    fn build_small_log() {
        let mut b = EventLogBuilder::new();
        let a = b.add_node(t(0), Origin::Core).unwrap();
        let c = b.add_node(t(0), Origin::Core).unwrap();
        let d = b.add_node(t(1), Origin::Competitor).unwrap();
        b.add_edge(t(1), a, c).unwrap();
        b.add_edge(t(2), c, d).unwrap();
        let log = b.build();
        assert_eq!(log.num_nodes(), 3);
        assert_eq!(log.num_edges(), 2);
        assert_eq!(log.end_day(), 2);
        assert_eq!(log.origin(d), Origin::Competitor);
        assert_eq!(log.join_time(a), t(0));
    }

    #[test]
    fn rejects_out_of_order() {
        let mut b = EventLogBuilder::new();
        b.add_node(t(5), Origin::Core).unwrap();
        let err = b.add_node(t(4), Origin::Core).unwrap_err();
        assert!(matches!(err, LogError::OutOfOrder { .. }));
    }

    #[test]
    fn rejects_unknown_node() {
        let mut b = EventLogBuilder::new();
        b.add_node(t(0), Origin::Core).unwrap();
        let err = b.add_edge(t(0), NodeId(0), NodeId(7)).unwrap_err();
        assert_eq!(err, LogError::UnknownNode { node: NodeId(7) });
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = EventLogBuilder::new();
        let a = b.add_node(t(0), Origin::Core).unwrap();
        assert_eq!(
            b.add_edge(t(0), a, a).unwrap_err(),
            LogError::SelfLoop { node: a }
        );
    }

    #[test]
    fn rejects_duplicate_edge_both_orders() {
        let mut b = EventLogBuilder::new();
        let a = b.add_node(t(0), Origin::Core).unwrap();
        let c = b.add_node(t(0), Origin::Core).unwrap();
        b.add_edge(t(1), a, c).unwrap();
        assert!(matches!(
            b.add_edge(t(1), a, c),
            Err(LogError::DuplicateEdge { .. })
        ));
        assert!(matches!(
            b.add_edge(t(2), c, a),
            Err(LogError::DuplicateEdge { .. })
        ));
        assert!(b.has_edge(a, c));
        assert!(b.has_edge(c, a));
    }

    #[test]
    fn daily_counts_cover_gap_days() {
        let mut b = EventLogBuilder::new();
        let a = b.add_node(t(0), Origin::Core).unwrap();
        let c = b.add_node(t(0), Origin::Core).unwrap();
        b.add_edge(t(3), a, c).unwrap();
        let log = b.build();
        let (nodes, edges) = log.daily_counts();
        assert_eq!(nodes, vec![2, 0, 0, 0]);
        assert_eq!(edges, vec![0, 0, 0, 1]);
    }

    #[test]
    fn binary_search_boundary() {
        let mut b = EventLogBuilder::new();
        let a = b.add_node(t(0), Origin::Core).unwrap();
        let c = b.add_node(t(1), Origin::Core).unwrap();
        b.add_edge(t(2), a, c).unwrap();
        let log = b.build();
        assert_eq!(log.first_event_at_or_after(t(0)), 0);
        assert_eq!(log.first_event_at_or_after(t(1)), 1);
        assert_eq!(log.first_event_at_or_after(t(2)), 2);
        assert_eq!(log.first_event_at_or_after(t(3)), 3);
    }

    #[test]
    fn edge_event_iterator_skips_nodes() {
        let mut b = EventLogBuilder::new();
        let a = b.add_node(t(0), Origin::Core).unwrap();
        let c = b.add_node(t(0), Origin::Core).unwrap();
        b.add_edge(t(1), c, a).unwrap();
        let log = b.build();
        let edges: Vec<_> = log.edge_events().collect();
        assert_eq!(edges, vec![(t(1), a, c)]);
    }

    #[test]
    fn degree_tracking() {
        let mut b = EventLogBuilder::new();
        let a = b.add_node(t(0), Origin::Core).unwrap();
        let c = b.add_node(t(0), Origin::Core).unwrap();
        let d = b.add_node(t(0), Origin::Core).unwrap();
        b.add_edge(t(1), a, c).unwrap();
        b.add_edge(t(1), a, d).unwrap();
        assert_eq!(b.degree(a), 2);
        assert_eq!(b.degree(c), 1);
        assert_eq!(b.degree(NodeId(99)), 0);
        assert_eq!(b.smaller_neighbors(d), &[0]);
        assert!(b.smaller_neighbors(a).is_empty());
        assert_eq!(b.build().degrees(), &[2, 1, 1]);
    }
}
