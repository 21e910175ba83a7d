//! Baseline generative models.
//!
//! The paper's §3.3 concludes that "an accurate model to capture the
//! growth and evolution of today's social networks should combine a
//! preferential attachment component with a randomized attachment
//! component", and its related work leans on the classic generators.
//! This module implements the three standard baselines so the analysis
//! suite can compare them against the full Renren-shaped generator:
//!
//! * [`barabasi_albert`] — pure linear preferential attachment
//!   (Barabási–Albert 1999, the paper's \[5\]);
//! * [`mixed_attachment`] — the PA + uniform mixture the paper's
//!   hypothesis calls for, with a fixed mixing weight;
//! * [`forest_fire`] — Leskovec's forest-fire model (the paper's \[21\]),
//!   which produces densification and community-ish structure through
//!   recursive burning.
//!
//! All three emit ordinary [`EventLog`]s with node arrivals spread
//! uniformly over a configurable number of days, so every analysis in
//! `osn-core` runs on them unchanged.

use crate::growing::GrowingGraph;
use osn_graph::{EventLog, EventLogBuilder, NodeId, Origin, Time, SECONDS_PER_DAY};
use osn_stats::sampling::rng_from_seed;
use rand::Rng;

/// Shared shape parameters for the baselines.
#[derive(Debug, Clone, Copy)]
pub struct BaselineConfig {
    /// Number of nodes to generate.
    pub nodes: u32,
    /// Edges each arriving node creates (where applicable).
    pub edges_per_node: u32,
    /// Days the arrivals are spread over (timestamps are synthetic but
    /// uniform, so per-day analyses still work).
    pub days: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            nodes: 5_000,
            edges_per_node: 5,
            days: 500,
            seed: 0,
        }
    }
}

fn arrival_time(cfg: &BaselineConfig, i: u32) -> Time {
    let total_secs = cfg.days as u64 * SECONDS_PER_DAY;
    Time(total_secs.saturating_mul(i as u64) / cfg.nodes.max(1) as u64)
}

/// Pure linear preferential attachment: each arriving node connects
/// `edges_per_node` times to endpoints sampled from the edge-endpoint
/// multiset ("rich get richer"). Seeded with a small clique.
pub fn barabasi_albert(cfg: &BaselineConfig) -> EventLog {
    mixed_attachment(cfg, 0.0)
}

/// Uniform-attachment control: destinations chosen uniformly among
/// existing nodes (no degree bias at all).
pub fn uniform_attachment(cfg: &BaselineConfig) -> EventLog {
    mixed_attachment(cfg, 1.0)
}

/// PA + uniform mixture: with probability `uniform_share` the
/// destination is a uniformly random existing node, otherwise a linear
/// PA draw. `uniform_share = 0` is Barabási–Albert; `1` is uniform
/// attachment. This is the two-component model the paper's §3.3
/// hypothesises.
pub fn mixed_attachment(cfg: &BaselineConfig, uniform_share: f64) -> EventLog {
    let mut rng = rng_from_seed(cfg.seed);
    let m = cfg.edges_per_node.max(1);
    let seed_nodes = (m + 1).max(2);
    let mut b = EventLogBuilder::with_capacity(cfg.nodes as usize, (cfg.nodes * m) as usize);
    let mut endpoints: Vec<u32> = Vec::with_capacity((cfg.nodes * m * 2) as usize);
    // Seed clique.
    for i in 0..seed_nodes {
        let t = arrival_time(cfg, i);
        let id = b.add_node(t, Origin::Core).expect("monotone");
        for j in 0..i {
            b.add_edge(t, id, NodeId(j)).expect("seed clique");
            endpoints.push(id.0);
            endpoints.push(j);
        }
    }
    for i in seed_nodes..cfg.nodes {
        let t = arrival_time(cfg, i);
        let id = b.add_node(t, Origin::Core).expect("monotone");
        let mut created = 0;
        let mut attempts = 0;
        while created < m && attempts < 30 * m {
            attempts += 1;
            let dest = if rng.gen::<f64>() < uniform_share || endpoints.is_empty() {
                rng.gen_range(0..i)
            } else {
                endpoints[rng.gen_range(0..endpoints.len())]
            };
            if dest != id.0 && !b.has_edge(id, NodeId(dest)) {
                b.add_edge(t, id, NodeId(dest)).expect("validated");
                endpoints.push(id.0);
                endpoints.push(dest);
                created += 1;
            }
        }
    }
    b.build()
}

/// Forest-fire model (Leskovec–Kleinberg–Faloutsos 2005): each arriving
/// node picks a uniformly random *ambassador*, links to it, then
/// recursively "burns" outward: from each burned node it links to a
/// geometrically-distributed number of that node's neighbours (mean
/// `p/(1-p)`), never revisiting. Produces densification and heavy-tailed
/// degrees without an explicit PA rule.
pub fn forest_fire(cfg: &BaselineConfig, forward_prob: f64) -> EventLog {
    let p = forward_prob.clamp(0.0, 0.95);
    let mut rng = rng_from_seed(cfg.seed);
    let mut b = GrowingGraph::with_capacity(cfg.nodes as usize, cfg.nodes as usize * 8);
    // two seed nodes with one edge
    let n0 = b
        .add_node(arrival_time(cfg, 0), Origin::Core)
        .expect("monotone");
    let n1 = b
        .add_node(arrival_time(cfg, 1), Origin::Core)
        .expect("monotone");
    b.add_edge(arrival_time(cfg, 1), n0, n1).expect("seed");

    // Cap the burn so a single arrival cannot link to the whole graph.
    let burn_cap = 60usize;
    let mut burned = vec![u32::MAX; cfg.nodes as usize]; // generation marker
    for i in 2..cfg.nodes {
        let t = arrival_time(cfg, i);
        let id = b.add_node(t, Origin::Core).expect("monotone");
        let ambassador = rng.gen_range(0..i);
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(ambassador);
        burned[ambassador as usize] = i;
        burned[id.index()] = i;
        let mut links = 0usize;
        while let Some(v) = queue.pop_front() {
            if links >= burn_cap {
                break;
            }
            if !b.has_edge(id, NodeId(v)) {
                b.add_edge(t, id, NodeId(v)).expect("validated");
                links += 1;
            }
            // geometric number of forward burns with mean p/(1-p)
            let mut spread = 0usize;
            while rng.gen::<f64>() < p {
                spread += 1;
                if spread > 16 {
                    break;
                }
            }
            if spread == 0 {
                continue;
            }
            let deg = b.degree(NodeId(v));
            let mut picked = 0usize;
            for _ in 0..deg.min(spread * 4) {
                if picked >= spread {
                    break;
                }
                let w = b.neighbor(NodeId(v), rng.gen_range(0..deg));
                if burned[w as usize] != i {
                    burned[w as usize] = i;
                    queue.push_back(w);
                    picked += 1;
                }
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BaselineConfig {
        BaselineConfig {
            nodes: 1_500,
            edges_per_node: 4,
            days: 300,
            seed: 11,
        }
    }

    #[test]
    fn ba_counts_and_tail() {
        let log = barabasi_albert(&cfg());
        assert_eq!(log.num_nodes(), 1_500);
        // ~4 edges per node (+ seed clique)
        assert!(log.num_edges() as f64 > 1_500.0 * 3.5);
        // heavy tail: hub degree far above the mean
        let mut deg = vec![0u32; 1_500];
        for (_, u, v) in log.edge_events() {
            deg[u.index()] += 1;
            deg[v.index()] += 1;
        }
        let max = *deg.iter().max().unwrap();
        let mean = deg.iter().map(|&d| d as f64).sum::<f64>() / 1_500.0;
        assert!(max as f64 > mean * 8.0, "max {max} mean {mean}");
    }

    #[test]
    fn uniform_has_lighter_tail_than_ba() {
        let ba = barabasi_albert(&cfg());
        let un = uniform_attachment(&cfg());
        let max_deg = |log: &EventLog| {
            let mut deg = vec![0u32; log.num_nodes() as usize];
            for (_, u, v) in log.edge_events() {
                deg[u.index()] += 1;
                deg[v.index()] += 1;
            }
            *deg.iter().max().unwrap()
        };
        assert!(
            max_deg(&ba) > 2 * max_deg(&un),
            "ba {} un {}",
            max_deg(&ba),
            max_deg(&un)
        );
    }

    #[test]
    fn mixture_interpolates() {
        let half = mixed_attachment(&cfg(), 0.5);
        assert_eq!(half.num_nodes(), 1_500);
        assert!(half.num_edges() > 4_000);
    }

    #[test]
    fn forest_fire_densifies() {
        let log = forest_fire(&cfg(), 0.35);
        assert_eq!(log.num_nodes(), 1_500);
        // more than 1 edge per node on average (burning links beyond the
        // ambassador)
        assert!(
            log.num_edges() > 1_800,
            "forest fire produced only {} edges",
            log.num_edges()
        );
        // timestamps cover the configured span
        assert!(log.end_day() >= 295);
    }

    #[test]
    fn deterministic() {
        let a = forest_fire(&cfg(), 0.3);
        let b = forest_fire(&cfg(), 0.3);
        assert_eq!(a.num_edges(), b.num_edges());
        let c = barabasi_albert(&cfg());
        let d = barabasi_albert(&cfg());
        assert_eq!(c.num_edges(), d.num_edges());
    }

    #[test]
    fn logs_are_analysable() {
        // daily counts and join times work (the downstream contract)
        let log = mixed_attachment(&cfg(), 0.3);
        let (nodes, edges) = log.daily_counts();
        assert_eq!(nodes.iter().sum::<u64>(), 1_500);
        assert_eq!(edges.iter().sum::<u64>(), log.num_edges());
        assert!(log.origins().iter().all(|&o| o == Origin::Core));
    }
}
