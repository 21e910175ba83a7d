//! Differential tests of the sampled kernels against per-node oracles.
//!
//! The path statistics run a bit-parallel multi-source BFS (64 sources
//! per batch) and the clustering averages count links through a stamped
//! marker array. Both must give exactly the numbers of the direct forms:
//! one [`bfs_distances`] per source, and the mean of [`local_clustering`]
//! (a sorted merge per neighbour) over the same nodes. The checks run on
//! the frozen `CsrGraph` and the live `DynamicGraph` of every random
//! graph, for sample sizes on both sides of each 64-lane boundary, and for
//! components that are not one whole connected component.
//!
//! `engine_differential` cannot see a kernel bug: both engines call the
//! same kernel, and its samples never cross a batch boundary.

use osn_graph::{CsrGraph, DynamicGraph, Event, GraphView, NodeId, Origin, Time};
use osn_metrics::clustering::{average_clustering, average_clustering_exact, local_clustering};
use osn_metrics::components::largest_component;
use osn_metrics::diameter::effective_diameter;
use osn_metrics::paths::{
    avg_path_length_over_component, bfs_distances, hop_histogram, UNREACHABLE,
};
use osn_stats::{rng_from_seed, sample_without_replacement};
use proptest::prelude::*;
use rand::Rng;

/// Sample sizes around the 64-lane batch boundaries; the component size
/// and one past it are added per case.
const SAMPLES: [usize; 6] = [0, 1, 63, 64, 65, 129];

/// A simple graph (no self-loops, no duplicate edges) over `n` nodes, of
/// one of three shapes: sparse random (many components), a random tree
/// with a few chords (deep BFS levels), or overlapping cliques joined by
/// a path (high clustering). Every `isolation`-th node (when non-zero)
/// loses its edges, so isolated nodes sit among the ids.
fn random_edges(seed: u64, n: usize, shape: u8, isolation: usize) -> Vec<(u32, u32)> {
    let mut rng = rng_from_seed(seed);
    let n32 = n as u32;
    let mut edges = Vec::new();
    match shape {
        0 => {
            for _ in 0..rng.gen_range(0..=2 * n) {
                edges.push((rng.gen_range(0..n32), rng.gen_range(0..n32)));
            }
        }
        1 => {
            for v in 1..n32 {
                edges.push((rng.gen_range(0..v), v));
            }
            for _ in 0..n / 10 {
                edges.push((rng.gen_range(0..n32), rng.gen_range(0..n32)));
            }
        }
        _ => {
            let mut start = 0u32;
            while start < n32 {
                let end = (start + rng.gen_range(2..12u32)).min(n32);
                for a in start..end {
                    for b in a + 1..end {
                        if rng.gen_range(0..4) != 0 {
                            edges.push((a, b));
                        }
                    }
                }
                if start > 0 {
                    edges.push((start - 1, start));
                }
                start = end.saturating_sub(rng.gen_range(0..2));
                if end == n32 {
                    break;
                }
            }
        }
    }
    let isolated = |u: u32| isolation > 0 && (u as usize).is_multiple_of(isolation);
    let mut simple: Vec<(u32, u32)> = edges
        .into_iter()
        .filter(|&(a, b)| a != b && !isolated(a) && !isolated(b))
        .map(|(a, b)| (a.min(b), a.max(b)))
        .collect();
    simple.sort_unstable();
    simple.dedup();
    simple
}

/// The same graph as the live engine holds it.
fn dynamic(n: usize, edges: &[(u32, u32)]) -> DynamicGraph {
    let mut g = DynamicGraph::new();
    for u in 0..n as u32 {
        g.apply(&Event::node(Time::ZERO, NodeId(u), Origin::Core))
            .expect("dense node ids");
    }
    for &(u, v) in edges {
        g.apply(&Event::edge(Time::ZERO, NodeId(u), NodeId(v)))
            .expect("simple edge list");
    }
    g
}

/// Components to measure over: the largest one, a strict subset of it,
/// and every node (several components plus the isolated nodes).
fn components<G: GraphView>(g: &G) -> Vec<Vec<u32>> {
    let giant = largest_component(g);
    let subset: Vec<u32> = giant.iter().copied().filter(|u| u % 3 != 1).collect();
    let all: Vec<u32> = (0..g.num_nodes() as u32).collect();
    vec![giant, subset, all]
}

/// Sample sizes for one component.
fn sample_sizes(component: &[u32]) -> Vec<usize> {
    let mut sizes = SAMPLES.to_vec();
    sizes.extend([component.len(), component.len() + 1]);
    sizes
}

/// The per-source hop histogram: one full BFS per source.
fn oracle_histogram<G: GraphView>(g: &G, component: &[u32], sources: &[u32]) -> Vec<u64> {
    let mut hist = Vec::new();
    for &s in sources {
        let dist = bfs_distances(g, s);
        for &u in component {
            let d = dist[u as usize];
            if d != UNREACHABLE && u != s {
                if hist.len() <= d as usize {
                    hist.resize(d as usize + 1, 0);
                }
                hist[d as usize] += 1;
            }
        }
    }
    hist
}

/// Mean shortest-path length over the pairs of the per-source BFS.
fn oracle_path_length<G: GraphView>(g: &G, component: &[u32], sources: &[u32]) -> Option<f64> {
    let mut total = 0u64;
    let mut count = 0u64;
    for &s in sources {
        let dist = bfs_distances(g, s);
        for &u in component {
            let d = dist[u as usize];
            if d != UNREACHABLE && u != s {
                total += d as u64;
                count += 1;
            }
        }
    }
    (count > 0).then(|| total as f64 / count as f64)
}

/// The `q`-percentile of a hop histogram, interpolated within the bucket.
fn oracle_percentile(hist: &[u64], q: f64) -> Option<f64> {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return None;
    }
    let target = (q.clamp(0.0, 1.0) * total as f64).ceil() as u64;
    let mut acc = 0u64;
    for (d, &c) in hist.iter().enumerate() {
        let prev = acc;
        acc += c;
        if acc >= target {
            if c == 0 {
                return Some(d as f64);
            }
            return Some(d as f64 - 1.0 + (target - prev) as f64 / c as f64);
        }
    }
    Some((hist.len() - 1) as f64)
}

/// Mean of the reference coefficient over `nodes`, summed in order.
fn oracle_clustering<G: GraphView>(g: &G, nodes: &[u32]) -> f64 {
    let sum: f64 = nodes.iter().map(|&u| local_clustering(g, u)).sum();
    sum / nodes.len() as f64
}

/// Path length and hop histogram on one view: the kernel against the
/// per-source oracle on the same sample, with the RNG left where a lone
/// `sample_without_replacement` call leaves it.
fn check_paths<G: GraphView>(g: &G, seed: u64) -> Result<(), TestCaseError> {
    for component in components(g) {
        for k in sample_sizes(&component) {
            let mut rng = rng_from_seed(seed);
            let got = avg_path_length_over_component(g, &component, k, &mut rng);
            let mut oracle_rng = rng_from_seed(seed);
            let want = if component.len() < 2 {
                None
            } else {
                let sources = sample_without_replacement(&component, k, &mut oracle_rng);
                prop_assert_eq!(
                    hop_histogram(g, &component, &sources),
                    oracle_histogram(g, &component, &sources),
                    "histogram, k={} component of {}",
                    k,
                    component.len()
                );
                oracle_path_length(g, &component, &sources)
            };
            prop_assert_eq!(
                got,
                want,
                "path length, k={} component of {}",
                k,
                component.len()
            );
            prop_assert_eq!(rng.gen::<u64>(), oracle_rng.gen::<u64>(), "RNG stream");
        }
    }
    Ok(())
}

/// Sampled and exact clustering on one view against the reference mean.
fn check_clustering<G: GraphView>(g: &G, seed: u64) -> Result<(), TestCaseError> {
    let n = g.num_nodes();
    let all: Vec<u32> = (0..n as u32).collect();
    let exact = if n == 0 {
        0.0
    } else {
        oracle_clustering(g, &all)
    };
    prop_assert_eq!(average_clustering_exact(g).to_bits(), exact.to_bits());
    let mut sizes = SAMPLES.to_vec();
    sizes.extend([n.saturating_sub(1), n, n + 1]);
    for k in sizes {
        let mut rng = rng_from_seed(seed);
        let got = average_clustering(g, k, &mut rng);
        let mut oracle_rng = rng_from_seed(seed);
        let want = if n == 0 {
            0.0
        } else if n <= k {
            exact
        } else {
            oracle_clustering(g, &sample_without_replacement(&all, k, &mut oracle_rng))
        };
        prop_assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "clustering, k={} of {}",
            k,
            n
        );
        prop_assert_eq!(rng.gen::<u64>(), oracle_rng.gen::<u64>(), "RNG stream");
    }
    Ok(())
}

proptest! {
    /// The multi-source BFS gives the per-source histogram and path
    /// length on both views, whatever the batching and the component.
    #[test]
    fn path_length_matches_per_source_bfs(
        seed in any::<u64>(),
        n in 1usize..180,
        shape in 0u8..3,
        isolation in 0usize..6,
    ) {
        let edges = random_edges(seed, n, shape, isolation);
        check_paths(&CsrGraph::from_edges(n, &edges), seed)?;
        check_paths(&dynamic(n, &edges), seed)?;
    }

    /// `effective_diameter` reads the same histogram the per-source loop
    /// built, so every percentile matches exactly.
    #[test]
    fn effective_diameter_matches_per_source_histogram(
        seed in any::<u64>(),
        n in 1usize..180,
        shape in 0u8..3,
        isolation in 0usize..6,
        k in 0usize..200,
    ) {
        let g = CsrGraph::from_edges(n, &random_edges(seed, n, shape, isolation));
        let giant = largest_component(&g);
        for q in [0.0, 0.5, 0.9, 1.0] {
            let got = effective_diameter(&g, q, k, &mut rng_from_seed(seed));
            let want = if giant.len() < 2 {
                None
            } else {
                let sources = sample_without_replacement(&giant, k, &mut rng_from_seed(seed));
                oracle_percentile(&oracle_histogram(&g, &giant, &sources), q)
            };
            prop_assert_eq!(got, want, "q={} k={}", q, k);
        }
    }

    /// Sampled and exact clustering equal the mean of the merge-based
    /// local coefficient over the same nodes, bit for bit, on both views.
    #[test]
    fn clustering_matches_local_reference(
        seed in any::<u64>(),
        n in 0usize..180,
        shape in 0u8..3,
        isolation in 0usize..6,
    ) {
        let edges = random_edges(seed, n, shape, isolation);
        check_clustering(&CsrGraph::from_edges(n, &edges), seed)?;
        check_clustering(&dynamic(n, &edges), seed)?;
    }
}
