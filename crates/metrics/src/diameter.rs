//! Effective diameter.
//!
//! The *effective diameter* is the 90th-percentile pairwise hop distance
//! — the robust variant of the diameter used throughout the graphs-over-
//! time literature the paper builds on (Leskovec et al.'s "shrinking
//! diameter" observation, the paper's citation \[21\]). Estimated from
//! the hop histogram of sampled BFS sources over the giant component
//! ([`hop_histogram`], the same multi-source BFS the path length reads).

use crate::components::largest_component;
use crate::paths::hop_histogram;
use osn_graph::CsrGraph;
use osn_stats::sampling::sample_without_replacement;
use rand::Rng;

/// Estimate the `q`-percentile pairwise distance (e.g. `0.9` for the
/// effective diameter) over the giant component, from `sample_size`
/// BFS sources. Returns `None` if the giant component has < 2 nodes.
pub fn effective_diameter<R: Rng + ?Sized>(
    g: &CsrGraph,
    q: f64,
    sample_size: usize,
    rng: &mut R,
) -> Option<f64> {
    let giant = largest_component(g);
    if giant.len() < 2 {
        return None;
    }
    let sources = sample_without_replacement(&giant, sample_size, rng);
    // Histogram over hop counts (OSN distances are tiny, so a vec works).
    let hist = hop_histogram(g, &giant, &sources);
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
            // Linear interpolation within the hop bucket, the standard
            // smoothing for integer-valued effective diameters.
            if c == 0 {
                return Some(d as f64);
            }
            let frac = (target - prev) as f64 / c as f64;
            return Some(d as f64 - 1.0 + frac);
        }
    }
    Some((hist.len() - 1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_stats::rng_from_seed;

    #[test]
    fn path_graph_diameter() {
        // path of 11 nodes: max distance 10; 90th percentile well below.
        let edges: Vec<(u32, u32)> = (0..10).map(|i| (i, i + 1)).collect();
        let g = CsrGraph::from_edges(11, &edges);
        let mut rng = rng_from_seed(1);
        let d90 = effective_diameter(&g, 0.9, 11, &mut rng).unwrap();
        let d100 = effective_diameter(&g, 1.0, 11, &mut rng).unwrap();
        assert!(d90 < d100 + 1e-9);
        assert!(d100 >= 9.0, "full diameter {d100}");
        assert!((5.0..=10.0).contains(&d90), "effective {d90}");
    }

    #[test]
    fn clique_diameter_is_one() {
        let mut edges = Vec::new();
        for i in 0..6u32 {
            for j in (i + 1)..6 {
                edges.push((i, j));
            }
        }
        let g = CsrGraph::from_edges(6, &edges);
        let mut rng = rng_from_seed(2);
        let d = effective_diameter(&g, 0.9, 6, &mut rng).unwrap();
        assert!(d <= 1.0 + 1e-9, "clique effective diameter {d}");
    }

    #[test]
    fn undefined_on_tiny_graphs() {
        let g = CsrGraph::from_edges(1, &[]);
        let mut rng = rng_from_seed(3);
        assert!(effective_diameter(&g, 0.9, 5, &mut rng).is_none());
    }

    #[test]
    fn monotone_in_percentile() {
        let edges: Vec<(u32, u32)> = (0..30).map(|i| (i, (i + 1) % 31)).collect();
        let g = CsrGraph::from_edges(31, &edges);
        let mut rng = rng_from_seed(4);
        let d50 = effective_diameter(&g, 0.5, 31, &mut rng).unwrap();
        let d90 = effective_diameter(&g, 0.9, 31, &mut rng).unwrap();
        assert!(d50 <= d90 + 1e-9, "d50 {d50} d90 {d90}");
    }
}
