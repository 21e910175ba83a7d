//! The graph a generator samples from while it builds a log.

use osn_graph::dynamic::insert_from_end;
use osn_graph::{EventLog, EventLogBuilder, LogError, NodeId, Origin, Time};

/// An [`EventLogBuilder`] plus the half of the adjacency the builder does
/// not keep. The builder stores each edge at its larger endpoint; this
/// stores it at the smaller one, so node `n`'s sorted neighbour list is
/// `builder.smaller_neighbors(n)` followed by `upper[n]`, and each edge
/// is held once per endpoint, as in a full adjacency.
#[derive(Debug)]
pub(crate) struct GrowingGraph {
    builder: EventLogBuilder,
    /// `upper[n]`: the sorted neighbours of `n` with ids above `n`.
    upper: Vec<Vec<u32>>,
}

impl GrowingGraph {
    pub(crate) fn with_capacity(nodes: usize, edges: usize) -> Self {
        GrowingGraph {
            builder: EventLogBuilder::with_capacity(nodes, edges),
            upper: Vec::with_capacity(nodes),
        }
    }

    pub(crate) fn add_node(&mut self, time: Time, origin: Origin) -> Result<NodeId, LogError> {
        let id = self.builder.add_node(time, origin)?;
        self.upper.push(Vec::new());
        Ok(id)
    }

    pub(crate) fn add_edge(&mut self, time: Time, a: NodeId, b: NodeId) -> Result<(), LogError> {
        self.builder.add_edge(time, a, b)?;
        let (u, v) = if a.0 < b.0 { (a, b) } else { (b, a) };
        // Edges mostly reach newer nodes, so an insert here is often an
        // append.
        let list = &mut self.upper[u.index()];
        list.push(v.0);
        insert_from_end(list, v.0);
        Ok(())
    }

    pub(crate) fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.builder.has_edge(a, b)
    }

    pub(crate) fn degree(&self, node: NodeId) -> usize {
        self.builder.degree(node)
    }

    pub(crate) fn num_nodes(&self) -> u32 {
        self.builder.num_nodes()
    }

    /// Entry `i` of `node`'s sorted neighbour list.
    ///
    /// # Panics
    /// Panics unless `i < self.degree(node)`.
    pub(crate) fn neighbor(&self, node: NodeId, i: usize) -> u32 {
        let lower = self.builder.smaller_neighbors(node);
        match lower.get(i) {
            Some(&w) => w,
            None => self.upper[node.index()][i - lower.len()],
        }
    }

    pub(crate) fn build(self) -> EventLog {
        self.builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbors_read_as_one_sorted_list() {
        let mut g = GrowingGraph::with_capacity(5, 6);
        for _ in 0..5 {
            g.add_node(Time::ZERO, Origin::Core).unwrap();
        }
        for (a, b) in [(2, 4), (2, 0), (3, 2), (1, 2)] {
            g.add_edge(Time::ZERO, NodeId(a), NodeId(b)).unwrap();
        }
        assert!(g.add_edge(Time::ZERO, NodeId(4), NodeId(2)).is_err());
        let hub = NodeId(2);
        assert_eq!(g.degree(hub), 4);
        let list: Vec<u32> = (0..g.degree(hub)).map(|i| g.neighbor(hub, i)).collect();
        assert_eq!(list, [0, 1, 3, 4]);
        assert!(g.has_edge(NodeId(4), hub) && !g.has_edge(NodeId(0), NodeId(1)));
    }

    /// Add `edges` in order; after each, both endpoints' lists read as
    /// per-node sorted vectors hold them, and so does every list at the end.
    fn grows_like_sorted_vectors(nodes: u32, edges: impl IntoIterator<Item = (u32, u32)>) {
        let mut g = GrowingGraph::with_capacity(nodes as usize, 0);
        for _ in 0..nodes {
            g.add_node(Time::ZERO, Origin::Core).unwrap();
        }
        let mut oracle: Vec<Vec<u32>> = vec![Vec::new(); nodes as usize];
        let list = |g: &GrowingGraph, x: u32| -> Vec<u32> {
            (0..g.degree(NodeId(x)))
                .map(|i| g.neighbor(NodeId(x), i))
                .collect()
        };
        for (a, b) in edges {
            g.add_edge(Time::ZERO, NodeId(a), NodeId(b)).unwrap();
            for (x, y) in [(a, b), (b, a)] {
                let sorted = &mut oracle[x as usize];
                sorted.insert(sorted.partition_point(|&w| w < y), y);
                assert_eq!(list(&g, x), *sorted, "node {x} after {a}-{b}");
            }
        }
        for x in 0..nodes {
            assert_eq!(list(&g, x), oracle[x as usize], "node {x}");
        }
    }

    #[test]
    fn lists_hold_when_every_insert_lands_at_the_front() {
        let n = 48;
        grows_like_sorted_vectors(
            n,
            (0..n)
                .rev()
                .flat_map(|a| (a + 1..n).rev().map(move |b| (a, b))),
        );
    }

    #[test]
    fn lists_hold_when_every_insert_is_an_append() {
        let n = 48;
        grows_like_sorted_vectors(n, (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b))));
    }

    #[test]
    fn lists_hold_when_one_hub_grows_to_a_thousand_neighbours() {
        // `friend_cap`: hub 500 meets every other node of 0..=1000, in an
        // order shuffled by a fixed LCG, so its larger-id half takes
        // inserts at every place.
        let hub = 500;
        let mut others: Vec<u32> = (0..=1000).filter(|&x| x != hub).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..others.len()).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            others.swap(i, (state >> 33) as usize % (i + 1));
        }
        grows_like_sorted_vectors(1001, others.into_iter().map(|x| (hub, x)));
    }
}
