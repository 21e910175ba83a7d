//! The graph a generator samples from while it builds a log.

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
        let list = &mut self.upper[u.index()];
        list.insert(list.partition_point(|&w| w < v.0), v.0);
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
}
