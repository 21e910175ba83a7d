//! Frozen compressed-sparse-row snapshots.
//!
//! A [`CsrGraph`] is an immutable picture of the network at one instant,
//! laid out for cache-friendly scans: one `offsets` array of length
//! `N + 1` and one `targets` array of length `2E`. All the metric code in
//! `osn-metrics` and the Louvain implementation in `osn-community` operate
//! on this type.

use crate::time::{NodeId, Time};

/// Immutable CSR snapshot of an undirected graph.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    offsets: Vec<u64>,
    targets: Vec<u32>,
    taken_at: Time,
}

impl CsrGraph {
    /// Build from per-node **sorted** adjacency lists.
    ///
    /// Sortedness is a precondition (debug-asserted): membership queries
    /// use binary search.
    pub fn from_sorted_adjacency(adj: &[Vec<u32>], taken_at: Time) -> Self {
        let total = adj.iter().map(Vec::len).sum();
        Self::from_sorted_lists(adj.iter().map(Vec::as_slice), total, taken_at)
    }

    /// Build from per-node sorted lists holding `total` entries in all.
    pub(crate) fn from_sorted_lists<'a>(
        lists: impl ExactSizeIterator<Item = &'a [u32]>,
        total: usize,
        taken_at: Time,
    ) -> Self {
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        let mut targets = Vec::with_capacity(total);
        offsets.push(0u64);
        for list in lists {
            debug_assert!(
                list.windows(2).all(|w| w[0] < w[1]),
                "adjacency must be sorted"
            );
            targets.extend_from_slice(list);
            offsets.push(targets.len() as u64);
        }
        CsrGraph {
            offsets,
            targets,
            taken_at,
        }
    }

    /// Build from an undirected edge list over `n` nodes.
    ///
    /// Convenient for tests and generators; duplicate edges are *not*
    /// deduplicated here (feed validated input).
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut deg = vec![0u64; n];
        for &(u, v) in edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut offsets = vec![0u64; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + deg[i];
        }
        let mut targets = vec![0u32; offsets[n] as usize];
        let mut cursor = offsets.clone();
        for &(u, v) in edges {
            targets[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            targets[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        for i in 0..n {
            targets[offsets[i] as usize..offsets[i + 1] as usize].sort_unstable();
        }
        CsrGraph {
            offsets,
            targets,
            taken_at: Time::ZERO,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> u64 {
        self.targets.len() as u64 / 2
    }

    /// Instant this snapshot was taken at.
    pub fn taken_at(&self) -> Time {
        self.taken_at
    }

    /// Degree of a node.
    #[inline]
    pub fn degree(&self, node: u32) -> usize {
        (self.offsets[node as usize + 1] - self.offsets[node as usize]) as usize
    }

    /// Sorted neighbours of a node.
    #[inline]
    pub fn neighbors(&self, node: u32) -> &[u32] {
        &self.targets
            [self.offsets[node as usize] as usize..self.offsets[node as usize + 1] as usize]
    }

    /// True if the undirected edge `a-b` exists.
    pub fn has_edge(&self, a: u32, b: u32) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterate every undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.num_nodes() as u32)
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
            .filter(|&(u, v)| u < v)
    }

    /// Average degree `2E / N` (0 for an empty graph).
    pub fn average_degree(&self) -> f64 {
        let n = self.num_nodes();
        if n == 0 {
            0.0
        } else {
            self.targets.len() as f64 / n as f64
        }
    }

    /// Ids of all nodes with degree at least one.
    pub fn non_isolated_nodes(&self) -> Vec<u32> {
        (0..self.num_nodes() as u32)
            .filter(|&u| self.degree(u) > 0)
            .collect()
    }

    /// Convenience wrapper: neighbours of a [`NodeId`].
    pub fn neighbors_of(&self, node: NodeId) -> &[u32] {
        self.neighbors(node.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> CsrGraph {
        // 0-1, 1-2, 0-2 triangle, 2-3 tail, 4 isolated
        CsrGraph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3)])
    }

    #[test]
    fn counts() {
        let g = triangle_plus_tail();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(4), 0);
        assert!((g.average_degree() - 8.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn neighbors_sorted_and_membership() {
        let g = triangle_plus_tail();
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn edges_iterated_once() {
        let g = triangle_plus_tail();
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn from_sorted_adjacency_roundtrip() {
        let adj = vec![vec![1, 2], vec![0], vec![0]];
        let g = CsrGraph::from_sorted_adjacency(&adj, Time(7));
        assert_eq!(g.taken_at(), Time(7));
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1, 2]);
    }

    #[test]
    fn non_isolated() {
        let g = triangle_plus_tail();
        assert_eq!(g.non_isolated_nodes(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.edges().count(), 0);
    }
}
