//! `EventLogBuilder`, which keeps each edge once at its larger endpoint,
//! against the full-adjacency builder it replaced. Random streams mix
//! valid events with duplicates in both endpoint orders, self-loops,
//! unknown endpoints and times that run backwards. Every `add_node` and
//! `add_edge` result must match, so must `has_edge` and `degree` at random
//! probes after each step, and the built logs must hold the same events
//! (hence the same fingerprint), nodes and final degrees.

use osn_graph::{Event, EventLogBuilder, LogError, NodeId, Origin, Time};
use proptest::prelude::*;

/// The replaced builder: a sorted list of every neighbour per node, and
/// the duplicate check against the endpoint with the shorter list.
#[derive(Default)]
struct FullAdjacencyBuilder {
    events: Vec<Event>,
    origins: Vec<Origin>,
    join_times: Vec<Time>,
    adj: Vec<Vec<u32>>,
    num_edges: u64,
    last_time: Time,
}

impl FullAdjacencyBuilder {
    fn add_node(&mut self, time: Time, origin: Origin) -> Result<NodeId, LogError> {
        self.check_time(time)?;
        let id = NodeId(self.origins.len() as u32);
        self.origins.push(origin);
        self.join_times.push(time);
        self.adj.push(Vec::new());
        self.last_time = time;
        self.events.push(Event::node(time, id, origin));
        Ok(id)
    }

    fn add_edge(&mut self, time: Time, a: NodeId, b: NodeId) -> Result<(), LogError> {
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
        let (probe, other) = if self.adj[u.index()].len() <= self.adj[v.index()].len() {
            (u, v)
        } else {
            (v, u)
        };
        if self.adj[probe.index()].binary_search(&other.0).is_ok() {
            return Err(LogError::DuplicateEdge { u, v });
        }
        let pos = self.adj[u.index()].binary_search(&v.0).unwrap_err();
        self.adj[u.index()].insert(pos, v.0);
        let pos = self.adj[v.index()].binary_search(&u.0).unwrap_err();
        self.adj[v.index()].insert(pos, u.0);
        self.num_edges += 1;
        self.last_time = time;
        self.events.push(Event::edge(time, u, v));
        Ok(())
    }

    fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        if a.index() >= self.adj.len() || b.index() >= self.adj.len() {
            return false;
        }
        let (probe, other) = if self.adj[a.index()].len() <= self.adj[b.index()].len() {
            (a, b)
        } else {
            (b, a)
        };
        self.adj[probe.index()].binary_search(&other.0).is_ok()
    }

    fn degree(&self, node: NodeId) -> usize {
        self.adj.get(node.index()).map_or(0, |v| v.len())
    }

    /// Only an accepted event moves the clock.
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
}

/// One step: `(kind, a, b, clock)`, interpreted by [`run`].
type Step = (u8, u32, u32, u32);

fn steps(max: usize) -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec((0u8..16, any::<u32>(), any::<u32>(), any::<u32>()), 0..max)
}

/// Feed `steps` to both builders, comparing every result and, after each
/// step, `has_edge` and `degree` at three random probes.
fn run(steps: &[Step]) -> Result<(), TestCaseError> {
    let mut new = EventLogBuilder::new();
    let mut old = FullAdjacencyBuilder::default();
    let mut accepted: Vec<(NodeId, NodeId)> = Vec::new();
    let mut t = 0u64;
    for (i, &(kind, a, b, clock)) in steps.iter().enumerate() {
        // One step in eight is stamped earlier than the clock.
        let time = if clock % 8 == 0 {
            Time(t.saturating_sub(u64::from(clock >> 3) % 100))
        } else {
            t += u64::from(clock >> 3) % 100;
            Time(t)
        };
        // Ids up to two past the last node, so some endpoints are unknown.
        let n = new.num_nodes();
        let any_id = |x: u32| NodeId(x % (n + 2));
        match kind {
            0..=3 => {
                let origin = [Origin::Core, Origin::Competitor, Origin::PostMerge][a as usize % 3];
                prop_assert_eq!(
                    new.add_node(time, origin),
                    old.add_node(time, origin),
                    "step {}",
                    i
                );
            }
            4..=15 => {
                let (x, y) = match kind {
                    // A repeat of an accepted edge, in either order.
                    4..=6 if !accepted.is_empty() => {
                        let (u, v) = accepted[a as usize % accepted.len()];
                        if b % 2 == 0 {
                            (u, v)
                        } else {
                            (v, u)
                        }
                    }
                    7 => (any_id(a), any_id(a)),
                    // Low ids become hubs with long lists.
                    8..=10 => (NodeId(a % 4), any_id(b)),
                    _ => (any_id(a), any_id(b)),
                };
                let got = new.add_edge(time, x, y);
                prop_assert_eq!(
                    &got,
                    &old.add_edge(time, x, y),
                    "step {}: {:?}-{:?}",
                    i,
                    x,
                    y
                );
                if got.is_ok() {
                    accepted.push((x, y));
                }
            }
            _ => unreachable!("kinds are 0..16"),
        }
        let n = new.num_nodes();
        let mut probe = (u64::from(a) << 32) | u64::from(b);
        for _ in 0..3 {
            let x = NodeId((probe % u64::from(n + 2)) as u32);
            probe = probe.rotate_left(17).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let y = NodeId((probe % u64::from(n + 2)) as u32);
            prop_assert_eq!(
                new.has_edge(x, y),
                old.has_edge(x, y),
                "step {}: has_edge({:?}, {:?})",
                i,
                x,
                y
            );
            prop_assert_eq!(new.degree(x), old.degree(x), "step {}: degree({:?})", i, x);
        }
        prop_assert_eq!(new.num_edges(), old.num_edges);
    }
    for &(u, v) in &accepted {
        prop_assert!(new.has_edge(u, v) && new.has_edge(v, u));
    }
    let log = new.build();
    prop_assert_eq!(log.events(), &old.events[..]);
    prop_assert_eq!(log.num_nodes() as usize, old.origins.len());
    prop_assert_eq!(log.num_edges(), old.num_edges);
    prop_assert_eq!(log.origins(), &old.origins[..]);
    prop_assert_eq!(log.join_times(), &old.join_times[..]);
    let degrees: Vec<u32> = old.adj.iter().map(|l| l.len() as u32).collect();
    prop_assert_eq!(log.degrees(), &degrees[..]);
    Ok(())
}

proptest! {
    #[test]
    fn short_streams_match_the_full_adjacency_builder(steps in steps(80)) {
        run(&steps)?;
    }

    #[test]
    fn long_streams_match_the_full_adjacency_builder(steps in steps(2_000)) {
        run(&steps)?;
    }
}
