//! Clustering coefficient.
//!
//! The local clustering coefficient of a node is the number of edges
//! among its neighbours divided by the maximum possible
//! `deg·(deg−1)/2`. Figure 1(e) of the paper tracks the network average
//! over time; on large snapshots we estimate the average from a uniform
//! node sample, which is the standard practice the paper follows for path
//! lengths and is accurate to well under the plot's resolution.

use osn_graph::GraphView;
use osn_stats::sampling::sample_without_replacement;
use rand::Rng;
use std::time::Instant;

/// Local clustering coefficient of one node.
///
/// Nodes of degree < 2 have coefficient 0 (the convention the paper's
/// network-average uses: they contribute zero to the mean). This is the
/// reference form; the network averages count the same links through a
/// marker array instead (see [`average_clustering`]).
pub fn local_clustering<G: GraphView>(g: &G, node: u32) -> f64 {
    let neigh = g.neighbors(node);
    let d = neigh.len();
    if d < 2 {
        return 0.0;
    }
    let mut links = 0u64;
    // Count edges among neighbours by intersecting each neighbour's sorted
    // list with `neigh` (two-pointer merge), counting each pair once.
    for (i, &a) in neigh.iter().enumerate() {
        let a_neigh = g.neighbors(a);
        // Only count pairs (a, b) with b after a in `neigh` to halve work.
        let rest = &neigh[i + 1..];
        links += sorted_intersection_count(a_neigh, rest);
    }
    2.0 * links as f64 / (d as f64 * (d as f64 - 1.0))
}

/// Number of common elements of two sorted slices.
pub(crate) fn sorted_intersection_count(a: &[u32], b: &[u32]) -> u64 {
    let mut i = 0;
    let mut j = 0;
    let mut count = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Exact average clustering coefficient over all nodes.
pub fn average_clustering_exact<G: GraphView>(g: &G) -> f64 {
    let n = g.num_nodes();
    if n == 0 {
        return 0.0;
    }
    mean_clustering(g, 0..n as u32)
}

/// Average clustering coefficient, estimated from `sample_size` uniformly
/// sampled nodes when the graph is larger than that (exact otherwise).
///
/// Both averages equal the mean of [`local_clustering`] over the same
/// nodes, bit for bit, on any simple graph (every snapshot and live graph
/// is one): the link counts are the same integers, and the coefficients
/// are formed and summed in the same order.
pub fn average_clustering<G: GraphView, R: Rng + ?Sized>(
    g: &G,
    sample_size: usize,
    rng: &mut R,
) -> f64 {
    let n = g.num_nodes();
    if n == 0 {
        return 0.0;
    }
    if n <= sample_size {
        return average_clustering_exact(g);
    }
    let nodes: Vec<u32> = (0..n as u32).collect();
    let sample = sample_without_replacement(&nodes, sample_size, rng);
    mean_clustering(g, sample.iter().copied())
}

/// Mean local clustering coefficient over `nodes`, summed in order.
///
/// One marker array serves the whole pass: scoring the `i`-th node stamps
/// its neighbours with `i + 1`, so no node's marks need clearing and each
/// neighbour's list is scanned once instead of merged against the node's.
fn mean_clustering<G: GraphView>(g: &G, nodes: impl ExactSizeIterator<Item = u32>) -> f64 {
    let started = osn_obs::enabled().then(Instant::now);
    let count = nodes.len();
    let mut mark = vec![0u32; g.num_nodes()];
    let sum: f64 = nodes
        .zip(1u32..)
        .map(|(u, stamp)| marked_local_clustering(g, u, &mut mark, stamp))
        .sum();
    if let Some(t) = started {
        osn_obs::histogram!("kernel.clustering_us").record_duration(t.elapsed());
    }
    sum / count as f64
}

/// [`local_clustering`] with the links among `node`'s neighbours found
/// through `mark` (`mark[v] == stamp` ⇔ `v` neighbours `node`). Each link
/// is counted once, from its larger end: ids follow join order, so a
/// hub's list is mostly younger nodes and its prefix below it is short.
fn marked_local_clustering<G: GraphView>(g: &G, node: u32, mark: &mut [u32], stamp: u32) -> f64 {
    let neigh = g.neighbors(node);
    let d = neigh.len();
    if d < 2 {
        return 0.0;
    }
    for &a in neigh {
        mark[a as usize] = stamp;
    }
    let mut links = 0u64;
    for &a in neigh {
        let a_neigh = g.neighbors(a);
        let below = &a_neigh[..a_neigh.partition_point(|&b| b < a)];
        links += below.iter().filter(|&&b| mark[b as usize] == stamp).count() as u64;
    }
    2.0 * links as f64 / (d as f64 * (d as f64 - 1.0))
}

/// Global transitivity: `3 × triangles / connected triples`.
///
/// Not used by any figure directly but exposed for completeness and used
/// by tests as an independent cross-check of the triangle counting.
pub fn transitivity<G: GraphView>(g: &G) -> f64 {
    let mut triangles3 = 0u64; // 3 × number of triangles
    let mut triples = 0u64;
    for u in 0..g.num_nodes() as u32 {
        let d = g.degree(u) as u64;
        triples += d.saturating_sub(1) * d / 2;
        let neigh = g.neighbors(u);
        for (i, &a) in neigh.iter().enumerate() {
            triangles3 += sorted_intersection_count(g.neighbors(a), &neigh[i + 1..]);
        }
    }
    if triples == 0 {
        0.0
    } else {
        triangles3 as f64 / triples as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::CsrGraph;
    use osn_stats::rng_from_seed;

    #[test]
    fn triangle_is_fully_clustered() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        for u in 0..3 {
            assert_eq!(local_clustering(&g, u), 1.0);
        }
        assert_eq!(average_clustering_exact(&g), 1.0);
        assert_eq!(transitivity(&g), 1.0);
    }

    #[test]
    fn path_has_no_clustering() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(average_clustering_exact(&g), 0.0);
        assert_eq!(transitivity(&g), 0.0);
    }

    #[test]
    fn square_with_diagonal() {
        // 0-1-2-3-0 plus diagonal 0-2
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        // Node 0 neighbours {1,2,3}: pairs 1-2 and 2-3 are linked, 1-3 is not.
        assert!((local_clustering(&g, 0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((local_clustering(&g, 1) - 1.0).abs() < 1e-12);
        assert!((local_clustering(&g, 3) - 1.0).abs() < 1e-12);
        let avg = (2.0 / 3.0 + 1.0 + 2.0 / 3.0 + 1.0) / 4.0;
        assert!((average_clustering_exact(&g) - avg).abs() < 1e-12);
    }

    #[test]
    fn low_degree_nodes_are_zero() {
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        assert_eq!(local_clustering(&g, 0), 0.0);
    }

    #[test]
    fn sampled_matches_exact_on_small_graphs() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let mut rng = rng_from_seed(1);
        let exact = average_clustering_exact(&g);
        assert_eq!(average_clustering(&g, 100, &mut rng), exact);
    }

    #[test]
    fn sampled_is_close_on_larger_graphs() {
        // A clique of 30 (cc = 1 everywhere) plus a chain of 70 (cc = 0).
        let mut edges = Vec::new();
        for i in 0..30u32 {
            for j in (i + 1)..30 {
                edges.push((i, j));
            }
        }
        for i in 30..99u32 {
            edges.push((i, i + 1));
        }
        let g = CsrGraph::from_edges(100, &edges);
        let exact = average_clustering_exact(&g);
        assert!((exact - 0.3).abs() < 1e-12);
        let mut rng = rng_from_seed(5);
        let approx = average_clustering(&g, 60, &mut rng);
        assert!(
            (approx - exact).abs() < 0.15,
            "approx {approx} vs exact {exact}"
        );
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(average_clustering_exact(&g), 0.0);
        assert_eq!(transitivity(&g), 0.0);
    }
}
