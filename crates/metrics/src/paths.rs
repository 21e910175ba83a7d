//! Shortest paths: BFS, the bit-parallel multi-source BFS behind the
//! sampled path statistics, sampled average path length, distance to a
//! group.
//!
//! Generic over [`GraphView`] so the kernels run identically on frozen
//! CSR snapshots and on the incremental engine's live graph.

use osn_graph::{CsrGraph, GraphView};
use osn_stats::sampling::sample_without_replacement;
use rand::Rng;
use std::collections::VecDeque;
use std::time::Instant;

/// Sentinel distance for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// Sources per multi-source BFS batch: one bit ("lane") of a `u64` each.
const LANES: usize = u64::BITS as usize;

/// BFS distances from `src` to every node (`UNREACHABLE` if disconnected).
pub fn bfs_distances<G: GraphView>(g: &G, src: u32) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.num_nodes()];
    let mut queue = VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Hop-distance histogram of the BFS from each of `sources`, counted over
/// `component`: `hist[d]` is the number of (source, node) pairs whose node
/// is in `component` and lies `d ≥ 1` hops from the source. `hist[0]` is
/// always 0, and the vector ends at the largest distance counted (it is
/// empty when no pair is). `component` must not repeat a node. The search
/// crosses the whole graph, so nodes outside `component` still relay
/// paths; they are just never counted.
///
/// This is a bit-parallel multi-source BFS (Then et al., "The More the
/// Merrier", PVLDB 8(4)). Sources run in batches of 64, one bit of a
/// `u64` per node each. Every level ORs each frontier word into the
/// node's neighbours, then keeps only the lanes a node had not seen yet,
/// so a node that many sources reach at the same level is expanded once
/// for all of them. The popcount of those new lanes is the level's share
/// of the histogram. The counts are exact integers, so the result equals
/// the histogram summed from one [`bfs_distances`] per source, whatever
/// the batching.
///
/// Memory: three lane words per node (24 bytes; ≈0.5 GB at the paper's
/// 19.4M nodes) plus a membership bit, allocated once per call.
pub fn hop_histogram<G: GraphView>(g: &G, component: &[u32], sources: &[u32]) -> Vec<u64> {
    let started = osn_obs::enabled().then(Instant::now);
    let n = g.num_nodes();
    let mut member = vec![0u64; n.div_ceil(LANES)];
    for &u in component {
        member[u as usize / LANES] |= 1 << (u as usize % LANES);
    }
    let mut seen = vec![0u64; n];
    let mut frontier = vec![0u64; n];
    let mut next = vec![0u64; n];
    let mut hist = Vec::new();
    for batch in sources.chunks(LANES) {
        // A finished batch leaves `frontier` and `next` all zero.
        seen.fill(0);
        for (lane, &s) in batch.iter().enumerate() {
            seen[s as usize] |= 1 << lane;
            frontier[s as usize] |= 1 << lane;
        }
        let mut level = 0;
        loop {
            for (v, &lanes) in frontier.iter().enumerate() {
                if lanes != 0 {
                    for &w in g.neighbors(v as u32) {
                        next[w as usize] |= lanes;
                    }
                }
            }
            level += 1;
            let mut active = false;
            let mut reached = 0u64;
            for v in 0..n {
                let new = std::mem::take(&mut next[v]) & !seen[v];
                seen[v] |= new;
                frontier[v] = new;
                if new != 0 {
                    active = true;
                    if (member[v / LANES] >> (v % LANES)) & 1 == 1 {
                        reached += u64::from(new.count_ones());
                    }
                }
            }
            if !active {
                break;
            }
            if reached > 0 {
                if hist.len() <= level {
                    hist.resize(level + 1, 0);
                }
                hist[level] += reached;
            }
        }
    }
    if let Some(t) = started {
        osn_obs::histogram!("kernel.paths_us").record_duration(t.elapsed());
        osn_obs::counter!("kernel.path_sources").add(sources.len() as u64);
    }
    hist
}

/// Average shortest-path length estimated from `sample_size` BFS sources
/// drawn uniformly from the largest connected component, averaging finite
/// pairwise distances — the paper's methodology for Figure 1(d)
/// ("a sample of 1000 nodes from the SCC for each snapshot").
///
/// Returns `None` if the giant component has fewer than two nodes.
pub fn avg_path_length_sampled<G: GraphView, R: Rng + ?Sized>(
    g: &G,
    sample_size: usize,
    rng: &mut R,
) -> Option<f64> {
    let giant = crate::components::largest_component(g);
    avg_path_length_over_component(g, &giant, sample_size, rng)
}

/// [`avg_path_length_sampled`] with the giant component supplied by the
/// caller (sorted ascending, as [`crate::components::largest_component`]
/// returns it). The incremental engine uses this to reuse its live
/// union-find instead of rebuilding components per snapshot; passing the
/// same component yields bit-identical results to the one-shot form.
pub fn avg_path_length_over_component<G: GraphView, R: Rng + ?Sized>(
    g: &G,
    giant: &[u32],
    sample_size: usize,
    rng: &mut R,
) -> Option<f64> {
    if giant.len() < 2 {
        return None;
    }
    let sources = sample_without_replacement(giant, sample_size, rng);
    let hist = hop_histogram(g, giant, &sources);
    let count: u64 = hist.iter().sum();
    let total: u64 = hist.iter().enumerate().map(|(d, &c)| d as u64 * c).sum();
    if count == 0 {
        None
    } else {
        Some(total as f64 / count as f64)
    }
}

/// Shortest distance from `src` to any node for which `is_target` holds,
/// traversing only nodes for which `allowed` holds (`src` itself is always
/// traversed). Early-exits as soon as a target is dequeued.
///
/// This is the primitive behind Figure 9(c): distance from a sampled
/// pre-merge user of one OSN to the nearest user of the other OSN,
/// ignoring post-merge users entirely.
pub fn distance_to_group(
    g: &CsrGraph,
    src: u32,
    is_target: &dyn Fn(u32) -> bool,
    allowed: &dyn Fn(u32) -> bool,
) -> Option<u32> {
    if is_target(src) {
        return Some(0);
    }
    let mut dist = vec![UNREACHABLE; g.num_nodes()];
    let mut queue = VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] != UNREACHABLE || !allowed(v) {
                continue;
            }
            if is_target(v) {
                return Some(du + 1);
            }
            dist[v as usize] = du + 1;
            queue.push_back(v);
        }
    }
    None
}

/// Eccentricity-style diameter lower bound: the largest BFS distance seen
/// from `rounds` random sources. Exposed for exploratory use and tests.
pub fn diameter_lower_bound<G: GraphView, R: Rng + ?Sized>(
    g: &G,
    rounds: usize,
    rng: &mut R,
) -> u32 {
    let n = g.num_nodes();
    if n == 0 {
        return 0;
    }
    let mut best = 0;
    for _ in 0..rounds {
        let src = rng.gen_range(0..n as u32);
        let dist = bfs_distances(g, src);
        for d in dist {
            if d != UNREACHABLE {
                best = best.max(d);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_stats::rng_from_seed;

    fn path5() -> CsrGraph {
        CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn bfs_on_path() {
        let g = path5();
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_unreachable() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
    }

    #[test]
    fn exact_apl_on_path() {
        // Path of 5: sum of pairwise distances = 2*(4*1+3*2+2*3+1*4)=40 over 20 ordered pairs = 2.0
        let g = path5();
        let mut rng = rng_from_seed(1);
        let apl = avg_path_length_sampled(&g, 100, &mut rng).unwrap();
        assert!((apl - 2.0).abs() < 1e-12);
    }

    #[test]
    fn apl_ignores_other_components() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        let mut rng = rng_from_seed(1);
        let apl = avg_path_length_sampled(&g, 100, &mut rng).unwrap();
        // giant component is the path 0-1-2: avg over ordered pairs = (1+2+1+1+2+1)/6
        assert!((apl - 8.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn apl_undefined_for_empty() {
        let g = CsrGraph::from_edges(1, &[]);
        let mut rng = rng_from_seed(1);
        assert!(avg_path_length_sampled(&g, 10, &mut rng).is_none());
    }

    #[test]
    fn group_distance_basic() {
        let g = path5();
        let is_target = |u: u32| u == 4;
        let allowed = |_: u32| true;
        assert_eq!(distance_to_group(&g, 0, &is_target, &allowed), Some(4));
        assert_eq!(distance_to_group(&g, 4, &is_target, &allowed), Some(0));
    }

    #[test]
    fn group_distance_respects_filter() {
        let g = path5();
        let is_target = |u: u32| u == 4;
        // node 2 is blocked: 4 becomes unreachable from 0
        let allowed = |u: u32| u != 2;
        assert_eq!(distance_to_group(&g, 0, &is_target, &allowed), None);
    }

    #[test]
    fn group_distance_shortcut_through_target() {
        // 0-1, 1-2; target = {1}; distance from 0 is 1 even though 1 is a "gateway"
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let is_target = |u: u32| u == 1;
        let allowed = |_: u32| true;
        assert_eq!(distance_to_group(&g, 0, &is_target, &allowed), Some(1));
    }

    #[test]
    fn diameter_bound() {
        let g = path5();
        let mut rng = rng_from_seed(9);
        let d = diameter_lower_bound(&g, 10, &mut rng);
        assert!((2..=4).contains(&d));
    }
}
