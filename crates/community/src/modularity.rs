//! Newman modularity.

use crate::partition::Partition;
use osn_graph::CsrGraph;

/// Modularity `Q` of a partition on an unweighted undirected graph:
///
/// `Q = Σ_c [ L_c / m − (d_c / 2m)² ]`
///
/// where `L_c` is the number of intra-community edges, `d_c` the total
/// degree of community `c`, and `m` the number of edges. Returns 0 for an
/// edgeless graph.
///
/// The paper uses network-wide modularity both as Louvain's objective and
/// as the quality axis of the δ sensitivity analysis (Figure 4a), citing
/// the usual `Q ≥ 0.3` rule of thumb for "significant community
/// structure".
pub fn modularity(g: &CsrGraph, p: &Partition) -> f64 {
    assert_eq!(
        g.num_nodes(),
        p.num_nodes(),
        "partition does not cover graph"
    );
    let assign = p.assignments();
    let mut intra = vec![0u64; p.num_communities()];
    let mut deg = vec![0u64; p.num_communities()];
    for u in 0..g.num_nodes() as u32 {
        let c = assign[u as usize] as usize;
        deg[c] += g.degree(u) as u64;
        for &v in g.neighbors(u) {
            if v > u && assign[v as usize] as usize == c {
                intra[c] += 1;
            }
        }
    }
    modularity_from_counts(&intra, &deg, g.num_edges() as f64)
}

/// `Q` from each community's intra-edge count `L_c` and degree sum `d_c`
/// over `m` edges (0 when `m` is 0). Louvain's warm-start guard counts
/// these while it builds its refinement view and scores them here, so
/// both paths give the same bits.
pub(crate) fn modularity_from_counts(intra: &[u64], deg: &[u64], m: f64) -> f64 {
    if m == 0.0 {
        return 0.0;
    }
    let mut q = 0.0;
    for (&lc, &dc) in intra.iter().zip(deg) {
        let lc = lc as f64;
        let dc = dc as f64;
        q += lc / m - (dc / (2.0 * m)).powi(2);
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two triangles joined by one bridge edge.
    fn two_triangles() -> CsrGraph {
        CsrGraph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    }

    #[test]
    fn natural_partition_scores_high() {
        let g = two_triangles();
        let p = Partition::from_assignments(&[0, 0, 0, 1, 1, 1]);
        let q = modularity(&g, &p);
        // m=7, each community: 3 intra edges, degree 7.
        let expect = 2.0 * (3.0 / 7.0 - (7.0 / 14.0f64).powi(2));
        assert!((q - expect).abs() < 1e-12);
        assert!(q > 0.3);
    }

    #[test]
    fn all_in_one_community_is_zero() {
        let g = two_triangles();
        let p = Partition::from_assignments(&[0; 6]);
        assert!(modularity(&g, &p).abs() < 1e-12);
    }

    #[test]
    fn singletons_are_negative() {
        let g = two_triangles();
        let p = Partition::singletons(6);
        assert!(modularity(&g, &p) < 0.0);
    }

    #[test]
    fn bad_partition_scores_lower() {
        let g = two_triangles();
        let good = Partition::from_assignments(&[0, 0, 0, 1, 1, 1]);
        let bad = Partition::from_assignments(&[0, 1, 0, 1, 0, 1]);
        assert!(modularity(&g, &good) > modularity(&g, &bad));
    }

    #[test]
    fn edgeless_graph() {
        let g = CsrGraph::from_edges(4, &[]);
        assert_eq!(modularity(&g, &Partition::singletons(4)), 0.0);
    }

    #[test]
    #[should_panic(expected = "partition does not cover")]
    fn size_mismatch_panics() {
        let g = two_triangles();
        modularity(&g, &Partition::singletons(3));
    }
}
