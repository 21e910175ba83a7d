//! Mutable, replayable adjacency structure.
//!
//! A [`DynamicGraph`] is the in-memory state of the network at a moment in
//! trace time. It is built by applying events in order (normally via
//! [`Replayer`](crate::snapshots::Replayer)) and can be frozen into a
//! [`crate::csr::CsrGraph`] whenever a read-optimised snapshot is
//! needed.
//!
//! Neighbour lists are kept sorted, so membership checks are `O(log deg)`
//! and freezing copies each list as it stands. An insert searches its
//! list from the end and shifts the larger entries up one place, as
//! insertion sort does: on the osnbench `analyze` trace 35% of inserts
//! are appends and 63% land within three places of the end, and the
//! entries scanned are the ones the insert shifts anyway. A full replay
//! of that trace took 17.5 ms this way against 21.0 ms with binary
//! searches (DESIGN.md, *Performance, honestly*). All lists share one
//! buffer.
//! Built from a log's final degrees ([`DynamicGraph::with_degrees`], as
//! the replayer does), each node gets exactly its room when it arrives,
//! so a replay never reallocates or copies a list. A list that outgrows
//! its room moves to the end of the buffer, which is also how a graph
//! built without degrees grows.

use crate::csr::CsrGraph;
use crate::event::{Event, EventKind, Origin};
use crate::time::{NodeId, Time};
use std::fmt;

/// A malformed event reaching [`DynamicGraph::apply`].
///
/// Events normally come from a validated [`EventLog`](crate::log::EventLog)
/// whose builder enforces these invariants, so in correct pipelines none of
/// these variants is reachable. They are checked in **all** build profiles:
/// an unchecked duplicate edge or unknown endpoint would silently corrupt
/// the edge count and adjacency lists in release builds, which is exactly
/// the class of bug that must fail loudly instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyError {
    /// A node arrival whose id is not the next dense id.
    NonDenseNode {
        /// The id the event carried.
        node: NodeId,
        /// The id the graph expected next.
        expected: u32,
    },
    /// An edge endpoint that has not been added yet.
    UnknownEndpoint {
        /// The unknown endpoint.
        node: NodeId,
        /// Number of nodes currently in the graph.
        num_nodes: usize,
    },
    /// An edge whose endpoints are the same node.
    SelfLoop {
        /// The repeated endpoint.
        node: NodeId,
    },
    /// An edge that already exists.
    DuplicateEdge {
        /// Canonical smaller endpoint.
        u: NodeId,
        /// Canonical larger endpoint.
        v: NodeId,
    },
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::NonDenseNode { node, expected } => {
                write!(f, "node id {} is not dense (expected {expected})", node.0)
            }
            ApplyError::UnknownEndpoint { node, num_nodes } => write!(
                f,
                "edge endpoint {} is unknown (graph has {num_nodes} nodes)",
                node.0
            ),
            ApplyError::SelfLoop { node } => write!(f, "self-loop on node {}", node.0),
            ApplyError::DuplicateEdge { u, v } => {
                write!(f, "duplicate edge {}-{}", u.0, v.0)
            }
        }
    }
}

impl std::error::Error for ApplyError {}

/// Hook invoked by [`DynamicGraph::apply_with`] for every accepted event,
/// **after validation but before the mutation** — so `edge_added` can
/// inspect the pre-insert neighbourhoods of both endpoints (the state an
/// incremental triangle/wedge counter needs).
///
/// All methods default to no-ops; implement only what you track. A
/// rejected event never reaches the observer.
pub trait DeltaObserver {
    /// A node arrival was validated and is about to be added. `graph` is
    /// the state *before* the node exists.
    fn node_added(&mut self, graph: &DynamicGraph, node: NodeId, origin: Origin, time: Time) {
        let _ = (graph, node, origin, time);
    }

    /// An edge arrival was validated and is about to be inserted. `graph`
    /// is the state *before* the edge exists — `graph.degree(u)` and
    /// `graph.neighbors(u)` are the pre-insert values.
    fn edge_added(&mut self, graph: &DynamicGraph, u: NodeId, v: NodeId) {
        let _ = (graph, u, v);
    }
}

/// Whether the sorted `list` holds `x`, searched from the end. The cost is
/// the number of entries above `x`, which an insert of `x` shifts anyway.
fn contains_from_end(list: &[u32], x: u32) -> bool {
    let mut i = list.len();
    while i > 0 && list[i - 1] > x {
        i -= 1;
    }
    i > 0 && list[i - 1] == x
}

/// Put `x` into `list`, whose last entry is room and whose other entries
/// are sorted, by shifting every entry above `x` up one place, as
/// insertion sort does. An append moves nothing.
///
/// # Panics
/// Panics if `list` is empty.
pub fn insert_from_end(list: &mut [u32], x: u32) {
    let mut i = list.len() - 1;
    while i > 0 && list[i - 1] > x {
        list[i] = list[i - 1];
        i -= 1;
    }
    list[i] = x;
}

/// The no-op observer [`DynamicGraph::apply`] uses; compiles away.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoDelta;

impl DeltaObserver for NoDelta {}

/// Where one node's neighbour list lives in [`DynamicGraph`]'s buffer:
/// `lists[start..start + len]`, with room for `room` entries.
#[derive(Debug, Clone, Copy)]
struct Slot {
    start: usize,
    len: u32,
    room: u32,
}

/// Mutable dynamic graph with per-node metadata.
#[derive(Debug, Clone, Default)]
pub struct DynamicGraph {
    /// Every node's sorted neighbour list, each in its slot.
    lists: Vec<u32>,
    slots: Vec<Slot>,
    /// `room[i]`: the room node `i`'s slot gets when it arrives.
    room: Vec<u32>,
    origins: Vec<Origin>,
    join_times: Vec<Time>,
    num_edges: u64,
    now: Time,
}

impl DynamicGraph {
    /// Create an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty graph that gives node `i` room for `degrees[i]`
    /// neighbours (none past the end of `degrees`). With a log's final
    /// degrees ([`EventLog::degrees`](crate::log::EventLog::degrees)) the
    /// buffer is allocated once and no list ever moves.
    pub fn with_degrees(degrees: &[u32]) -> Self {
        let total = degrees.iter().map(|&d| d as usize).sum();
        DynamicGraph {
            lists: Vec::with_capacity(total),
            slots: Vec::with_capacity(degrees.len()),
            room: degrees.to_vec(),
            origins: Vec::with_capacity(degrees.len()),
            join_times: Vec::with_capacity(degrees.len()),
            num_edges: 0,
            now: Time::ZERO,
        }
    }

    /// Number of nodes currently in the graph.
    pub fn num_nodes(&self) -> usize {
        self.slots.len()
    }

    /// Number of undirected edges currently in the graph.
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Timestamp of the most recently applied event.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Degree of a node (0 for ids not yet added).
    pub fn degree(&self, node: NodeId) -> usize {
        self.slots.get(node.index()).map_or(0, |s| s.len as usize)
    }

    /// Sorted neighbour list of a node.
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: NodeId) -> &[u32] {
        self.list(self.slots[node.index()])
    }

    fn list(&self, slot: Slot) -> &[u32] {
        &self.lists[slot.start..slot.start + slot.len as usize]
    }

    /// Origin network of a node.
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    pub fn origin(&self, node: NodeId) -> Origin {
        self.origins[node.index()]
    }

    /// Join time of a node.
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    pub fn join_time(&self, node: NodeId) -> Time {
        self.join_times[node.index()]
    }

    /// True if the undirected edge `a-b` exists.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.slots
            .get(a.index())
            .is_some_and(|&s| self.list(s).binary_search(&b.0).is_ok())
    }

    /// Apply one event.
    ///
    /// Malformed input (non-dense node ids, unknown endpoints, self-loops,
    /// duplicate edges) is rejected with a typed [`ApplyError`] in every
    /// build profile — these checks used to be `debug_assert`s, which let
    /// release builds silently corrupt the edge count and adjacency lists.
    /// On error the graph is left exactly as it was (no partial insert).
    pub fn apply(&mut self, event: &Event) -> Result<(), ApplyError> {
        self.apply_with(event, &mut NoDelta)
    }

    /// Apply one event, notifying `obs` after validation and before the
    /// mutation (see [`DeltaObserver`] for the exact contract). A rejected
    /// event leaves both the graph and the observer untouched.
    pub fn apply_with<O: DeltaObserver>(
        &mut self,
        event: &Event,
        obs: &mut O,
    ) -> Result<(), ApplyError> {
        match event.kind {
            EventKind::AddNode { node, origin } => {
                if node.index() != self.slots.len() {
                    return Err(ApplyError::NonDenseNode {
                        node,
                        expected: self.slots.len() as u32,
                    });
                }
                obs.node_added(self, node, origin, event.time);
                let room = self.room.get(node.index()).copied().unwrap_or(0);
                let start = self.lists.len();
                self.lists.resize(start + room as usize, 0);
                self.slots.push(Slot {
                    start,
                    len: 0,
                    room,
                });
                self.origins.push(origin);
                self.join_times.push(event.time);
            }
            EventKind::AddEdge { u, v } => {
                // Validate everything before touching either list so a
                // rejected event never leaves a half-inserted edge behind.
                for node in [u, v] {
                    if node.index() >= self.slots.len() {
                        return Err(ApplyError::UnknownEndpoint {
                            node,
                            num_nodes: self.slots.len(),
                        });
                    }
                }
                if u == v {
                    return Err(ApplyError::SelfLoop { node: u });
                }
                // Most inserts land at or near a list's end, so both lists
                // are searched from there. The duplicate check only reads
                // `u`'s list: the observer must see it as it was.
                if contains_from_end(self.neighbors(u), v.0) {
                    return Err(ApplyError::DuplicateEdge { u, v });
                }
                obs.edge_added(self, u, v);
                insert_from_end(self.grown_list(u), v.0);
                insert_from_end(self.grown_list(v), u.0);
                self.num_edges += 1;
            }
        }
        self.now = event.time;
        Ok(())
    }

    /// Lengthen `node`'s list by one entry, whose value is left for the
    /// caller to settle, and return the list. A full list first grows in
    /// place when it ends the buffer, and otherwise moves to the end.
    fn grown_list(&mut self, node: NodeId) -> &mut [u32] {
        let slot = &mut self.slots[node.index()];
        if slot.len == slot.room {
            let end = self.lists.len();
            if slot.start + slot.room as usize != end {
                self.lists
                    .extend_from_within(slot.start..slot.start + slot.len as usize);
                slot.start = end;
            }
            slot.room = slot.room.saturating_mul(2).max(4);
            self.lists.resize(slot.start + slot.room as usize, 0);
        }
        slot.len += 1;
        &mut self.lists[slot.start..slot.start + slot.len as usize]
    }

    /// Freeze the current state into a read-optimised CSR snapshot.
    pub fn freeze(&self) -> CsrGraph {
        CsrGraph::from_sorted_lists(
            self.slots.iter().map(|&s| self.list(s)),
            2 * self.num_edges as usize,
            self.now,
        )
    }

    /// Average degree `2E / N` (0 for an empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.slots.is_empty() {
            0.0
        } else {
            2.0 * self.num_edges as f64 / self.slots.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::EventLogBuilder;

    fn sample_log() -> crate::log::EventLog {
        let mut b = EventLogBuilder::new();
        let n0 = b.add_node(Time(0), Origin::Core).unwrap();
        let n1 = b.add_node(Time(1), Origin::Core).unwrap();
        let n2 = b.add_node(Time(2), Origin::Competitor).unwrap();
        b.add_edge(Time(3), n0, n1).unwrap();
        b.add_edge(Time(4), n2, n0).unwrap();
        b.build()
    }

    #[test]
    fn replays_events() {
        let log = sample_log();
        let mut g = DynamicGraph::new();
        for e in log.events() {
            g.apply(e).unwrap();
        }
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(NodeId(0)), 2);
        assert_eq!(g.degree(NodeId(1)), 1);
        assert!(g.has_edge(NodeId(0), NodeId(2)));
        assert!(g.has_edge(NodeId(2), NodeId(0)));
        assert!(!g.has_edge(NodeId(1), NodeId(2)));
        assert_eq!(g.now(), Time(4));
        assert_eq!(g.origin(NodeId(2)), Origin::Competitor);
        assert_eq!(g.join_time(NodeId(1)), Time(1));
    }

    #[test]
    fn neighbors_sorted() {
        let mut b = EventLogBuilder::new();
        let n0 = b.add_node(Time(0), Origin::Core).unwrap();
        for _ in 1..6 {
            b.add_node(Time(0), Origin::Core).unwrap();
        }
        // insert in scrambled order
        for other in [4u32, 1, 5, 2, 3] {
            b.add_edge(Time(1), n0, NodeId(other)).unwrap();
        }
        let log = b.build();
        let mut g = DynamicGraph::new();
        for e in log.events() {
            g.apply(e).unwrap();
        }
        assert_eq!(g.neighbors(n0), &[1, 2, 3, 4, 5]);
    }

    /// The release-build silent-corruption hazard: duplicate and unknown
    /// events must be rejected with typed errors in *every* profile, and
    /// a rejected event must leave the graph untouched.
    #[test]
    fn malformed_events_rejected_in_all_profiles() {
        let mut g = DynamicGraph::new();
        g.apply(&Event::node(Time(0), NodeId(0), Origin::Core))
            .unwrap();
        g.apply(&Event::node(Time(1), NodeId(1), Origin::Core))
            .unwrap();
        g.apply(&Event::edge(Time(2), NodeId(0), NodeId(1)))
            .unwrap();

        // Non-dense node id.
        assert_eq!(
            g.apply(&Event::node(Time(3), NodeId(5), Origin::Core)),
            Err(ApplyError::NonDenseNode {
                node: NodeId(5),
                expected: 2
            })
        );
        // Unknown endpoint.
        assert_eq!(
            g.apply(&Event::edge(Time(3), NodeId(0), NodeId(9))),
            Err(ApplyError::UnknownEndpoint {
                node: NodeId(9),
                num_nodes: 2
            })
        );
        // Self-loop.
        assert_eq!(
            g.apply(&Event {
                time: Time(3),
                kind: EventKind::AddEdge {
                    u: NodeId(1),
                    v: NodeId(1)
                }
            }),
            Err(ApplyError::SelfLoop { node: NodeId(1) })
        );
        // Duplicate edge (the original hazard).
        assert_eq!(
            g.apply(&Event::edge(Time(3), NodeId(1), NodeId(0))),
            Err(ApplyError::DuplicateEdge {
                u: NodeId(0),
                v: NodeId(1)
            })
        );
        // Nothing was corrupted by the rejected events.
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(NodeId(0)), &[1]);
        assert_eq!(g.neighbors(NodeId(1)), &[0]);
        assert_eq!(g.now(), Time(2), "rejected events must not advance time");
        let shown = ApplyError::DuplicateEdge {
            u: NodeId(0),
            v: NodeId(1),
        }
        .to_string();
        assert!(shown.contains("duplicate edge 0-1"), "{shown}");
    }

    /// The observer sees every accepted event with pre-insert state, and
    /// never sees a rejected one.
    #[test]
    fn delta_observer_sees_pre_insert_state() {
        #[derive(Default)]
        struct Probe {
            nodes: usize,
            edges: Vec<(u32, u32, usize, usize)>, // (u, v, pre-deg u, pre-deg v)
        }
        impl DeltaObserver for Probe {
            fn node_added(&mut self, g: &DynamicGraph, node: NodeId, _: Origin, _: Time) {
                assert_eq!(node.index(), g.num_nodes(), "called before the push");
                self.nodes += 1;
            }
            fn edge_added(&mut self, g: &DynamicGraph, u: NodeId, v: NodeId) {
                assert!(!g.has_edge(u, v), "called before the insert");
                self.edges.push((u.0, v.0, g.degree(u), g.degree(v)));
            }
        }
        let log = sample_log();
        let mut g = DynamicGraph::new();
        let mut probe = Probe::default();
        for e in log.events() {
            g.apply_with(e, &mut probe).unwrap();
        }
        assert_eq!(probe.nodes, 3);
        // The log builder canonicalises endpoints as (min, max).
        assert_eq!(probe.edges, vec![(0, 1, 0, 0), (0, 2, 1, 0)]);
        // Rejected events leave the observe count unchanged.
        let before = probe.edges.len();
        assert!(g
            .apply_with(&Event::edge(Time(9), NodeId(0), NodeId(1)), &mut probe)
            .is_err());
        assert_eq!(probe.edges.len(), before);
    }

    #[test]
    fn average_degree() {
        let log = sample_log();
        let mut g = DynamicGraph::new();
        for e in log.events() {
            g.apply(e).unwrap();
        }
        assert!((g.average_degree() - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(DynamicGraph::new().average_degree(), 0.0);
    }
}
