//! Differential tests of `louvain` against an oracle: the same algorithm
//! over nested per-node `(neighbour, weight)` lists, with a fresh copy of
//! the snapshot as level 0, one hash map per community in aggregation and
//! a per-community constraint label in the refinement.
//!
//! The production code borrows the snapshot as level 0, stores
//! aggregated levels as flat CSR, and runs the refinement on a
//! prefiltered within-warm-community adjacency. None of that may change
//! a result: for random graphs (Erdős–Rényi, planted blocks, rings of
//! cliques, all with isolated nodes), random warm starts (none, dense
//! labels, sparse labels, a prefix subgraph's partition extended to the
//! whole graph) and random settings, both must return the same
//! partition, bit-equal modularity and the same level count.

use osn_community::{louvain, modularity, LouvainConfig, LouvainResult, Partition};
use osn_graph::CsrGraph;
use osn_stats::sampling::{rng_from_seed, shuffle};
use proptest::prelude::*;
use rand::Rng;

/// The improvement thresholds the cases draw from.
const DELTAS: [f64; 5] = [1e-6, 0.01, 0.04, 0.3, 0.9];

/// One generated case: a graph, an optional warm start and a config.
struct Case {
    graph: CsrGraph,
    init: Option<Partition>,
    cfg: LouvainConfig,
}

impl Case {
    fn new(seed: u64) -> Self {
        let mut rng = rng_from_seed(seed);
        let n = rng.gen_range(1..=400usize);
        let edges = random_edges(&mut rng, n);
        let graph = CsrGraph::from_edges(n, &edges);
        let cfg = LouvainConfig {
            delta: DELTAS[rng.gen_range(0..DELTAS.len())],
            max_levels: rng.gen_range(1..=20),
            max_sweeps: rng.gen_range(1..=50),
            seed: rng.gen(),
        };
        let init = match rng.gen_range(0..4) {
            0 => None,
            1 => {
                let k = rng.gen_range(1..=n as u32);
                let raw: Vec<u32> = (0..n).map(|_| rng.gen_range(0..k)).collect();
                Some(Partition::from_assignments(&raw))
            }
            2 => {
                let k = rng.gen_range(1..=40u32);
                let raw: Vec<u32> = (0..n)
                    .map(|_| rng.gen_range(0..k) * 1_000_000 + rng.gen_range(0..3u32))
                    .collect();
                Some(Partition::from_assignments(&raw))
            }
            _ => {
                let prefix = rng.gen_range(0..=n);
                let sub: Vec<(u32, u32)> = edges
                    .iter()
                    .copied()
                    .filter(|&(a, b)| (b as usize) < prefix && (a as usize) < prefix)
                    .collect();
                let sub_cfg = LouvainConfig {
                    delta: DELTAS[rng.gen_range(0..DELTAS.len())],
                    seed: rng.gen(),
                    ..LouvainConfig::default()
                };
                let (prev, _) = oracle(&CsrGraph::from_edges(prefix, &sub), &sub_cfg, None);
                Some(prev.partition.extended_to(n))
            }
        };
        Case { graph, init, cfg }
    }
}

/// A simple graph over `n` nodes in one of three shapes; about one case
/// in two also strips every edge of every `k`-th node, so isolated nodes
/// sit among the ids (sparse Erdős–Rényi cases have some anyway).
fn random_edges(rng: &mut impl Rng, n: usize) -> Vec<(u32, u32)> {
    let n32 = n as u32;
    let mut edges = Vec::new();
    match rng.gen_range(0..3) {
        0 => {
            let avg_degree = rng.gen_range(0.5..8.0);
            for _ in 0..(n as f64 * avg_degree / 2.0) as usize {
                edges.push((rng.gen_range(0..n32), rng.gen_range(0..n32)));
            }
        }
        1 => {
            let blocks = rng.gen_range(1..=n.min(12) as u32);
            let block: Vec<u32> = (0..n).map(|_| rng.gen_range(0..blocks)).collect();
            let p_in = rng.gen_range(0.05..0.6);
            let p_out = rng.gen_range(0.0..0.02);
            for a in 0..n {
                for b in a + 1..n {
                    let p = if block[a] == block[b] { p_in } else { p_out };
                    if rng.gen_bool(p) {
                        edges.push((a as u32, b as u32));
                    }
                }
            }
        }
        _ => {
            let mut starts = vec![0u32];
            while *starts.last().expect("non-empty") < n32 {
                let next = starts.last().expect("non-empty") + rng.gen_range(2..10u32);
                starts.push(next.min(n32));
            }
            for w in starts.windows(2) {
                for a in w[0]..w[1] {
                    for b in a + 1..w[1] {
                        edges.push((a, b));
                    }
                }
                edges.push((w[0], w[1] % n32));
            }
            for _ in 0..rng.gen_range(0..=n / 8) {
                edges.push((rng.gen_range(0..n32), rng.gen_range(0..n32)));
            }
        }
    }
    let isolation = if rng.gen_bool(0.5) {
        rng.gen_range(2..20usize)
    } else {
        0
    };
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

/// Runs one case through both implementations and compares them.
/// Returns whether the oracle's monotonicity guard fired, i.e. the warm
/// partition came back because it scored higher than the run's result.
fn check(seed: u64) -> Result<bool, TestCaseError> {
    let case = Case::new(seed);
    let (want, guard_fired) = oracle(&case.graph, &case.cfg, case.init.as_ref());
    let got = louvain(&case.graph, &case.cfg, case.init.as_ref());
    prop_assert_eq!(&got.partition, &want.partition, "seed {seed}: partition");
    prop_assert_eq!(
        got.modularity.to_bits(),
        want.modularity.to_bits(),
        "seed {seed}: modularity {} vs {}",
        got.modularity,
        want.modularity
    );
    prop_assert_eq!(got.levels, want.levels, "seed {seed}: levels");
    Ok(guard_fired)
}

proptest! {
    #[test]
    fn flat_louvain_matches_the_nested_oracle(seed in any::<u64>()) {
        check(seed)?;
    }
}

/// A fixed seeded set on which the warm-start guard returns the warm
/// partition (three times: seeds 318, 1094 and 1180), so the guard's
/// modularity is compared too. It fires in about 0.3% of random cases.
#[test]
fn monotonicity_guard_fires_on_a_fixed_set() {
    let mut fired = 0;
    for seed in 0..1200 {
        match check(seed) {
            Ok(guard_fired) => fired += guard_fired as usize,
            Err(e) => panic!("{e}"),
        }
    }
    assert!(fired > 0, "the guard never fired over 1200 cases");
}

// ---------------------------------------------------------------------
// The oracle: Louvain over nested per-node `(neighbour, weight)` lists,
// verbatim apart from its name and the guard flag it returns.
// ---------------------------------------------------------------------

/// Weighted multigraph used for aggregated levels.
struct WGraph {
    /// Neighbour lists (no self entries): `(neighbor, weight)`.
    adj: Vec<Vec<(u32, f64)>>,
    /// Self-loop weight per node (counted once).
    self_w: Vec<f64>,
    /// Weighted degree `k_i` (self-loops count twice).
    node_w: Vec<f64>,
    /// Total edge weight `m` (each undirected edge once, self-loops once).
    total_w: f64,
}

impl WGraph {
    fn from_csr(g: &CsrGraph) -> Self {
        let n = g.num_nodes();
        let mut adj = vec![Vec::new(); n];
        for u in 0..n as u32 {
            let neigh = g.neighbors(u);
            let mut list = Vec::with_capacity(neigh.len());
            for &v in neigh {
                list.push((v, 1.0));
            }
            adj[u as usize] = list;
        }
        let self_w = vec![0.0; n];
        let node_w: Vec<f64> = adj
            .iter()
            .map(|l| l.iter().map(|&(_, w)| w).sum())
            .collect();
        let total_w = g.num_edges() as f64;
        WGraph {
            adj,
            self_w,
            node_w,
            total_w,
        }
    }

    fn len(&self) -> usize {
        self.adj.len()
    }
}

/// Run Louvain on `g`. The flag is true when the monotonicity guard
/// returned the warm partition.
fn oracle(g: &CsrGraph, cfg: &LouvainConfig, init: Option<&Partition>) -> (LouvainResult, bool) {
    let n = g.num_nodes();
    if n == 0 {
        return (
            LouvainResult {
                partition: Partition::singletons(0),
                modularity: 0.0,
                levels: 0,
            },
            false,
        );
    }
    let mut rng = rng_from_seed(cfg.seed);
    // node_to_comm[v] maps ORIGINAL node v to its *level node* before each
    // local-moving phase (identity at level 0) and to its community after
    // composing with that phase's result.
    let mut node_to_comm: Vec<u32> = (0..n as u32).collect();

    let mut level_graph = WGraph::from_csr(g);
    // Kept so the final result can never score below the warm start
    // (fragment-and-remerge occasionally lands in a worse optimum).
    let mut warm_backup: Option<Vec<u32>> = None;
    // level_init: initial community of each *level node* — the warm-start
    // partition at level 0 (incremental mode), singletons at deeper levels
    // (the aggregation itself already encodes the grouping).
    let mut level_init: Vec<u32> = match init {
        Some(p) => {
            assert_eq!(p.num_nodes(), n, "init partition must cover the graph");
            // Degree-0 nodes contribute nothing to modularity but would
            // keep stale warm-start labels forever (the tracker would see
            // ghost communities of isolated nodes), so reset them to
            // singletons, then renumber densely.
            let mut raw = p.assignments().to_vec();
            let mut next = raw.iter().copied().max().map_or(0, |m| m + 1);
            for u in 0..n as u32 {
                if g.degree(u) == 0 {
                    raw[u as usize] = next;
                    next += 1;
                }
            }
            let warm_assign = Partition::from_assignments(&raw).assignments().to_vec();
            let warm = warm_assign;
            // Leiden-style refinement: re-cluster each warm-start community
            // internally, starting from singletons with moves constrained to
            // stay inside the community. Neighbour-only local moving cannot
            // split a cohesive-looking community (every single-node exit is
            // modularity-negative), so without this step a warm-started run
            // could never track community splits. The main loop below will
            // re-merge the refined chunks through aggregation whenever that
            // is modularity-positive, so stable communities keep tracking
            // cleanly.
            let (refined, _, _) =
                local_moving(&level_graph, &identity(n), cfg, &mut rng, Some(&warm));
            warm_backup = Some(warm);
            refined
        }
        None => (0..n as u32).collect(),
    };
    let mut levels = 0;
    let mut prev_q = modularity_weighted(&level_graph, &level_init);
    // Warm-started runs must complete at least two levels: the refinement
    // pass above deliberately fragments each warm community into chunks,
    // and only the first aggregation + second local-moving phase can fuse
    // chunks back together (single-node moves cannot cross chunk
    // boundaries profitably). Breaking on δ before that would emit the
    // fragmented partition and make tracking churn.
    let min_levels = if init.is_some() { 2 } else { 1 };

    loop {
        let (assign, moved, q_after) = local_moving(&level_graph, &level_init, cfg, &mut rng, None);

        // Compose: node_to_comm maps original -> level node; `assign` maps
        // level node -> community. After this, original -> community.
        for c in node_to_comm.iter_mut() {
            *c = assign[*c as usize];
        }

        levels += 1;
        let gained = q_after - prev_q;
        prev_q = q_after;
        if (levels >= min_levels && (!moved || gained < cfg.delta)) || levels >= cfg.max_levels {
            break;
        }

        // Aggregate: communities become nodes.
        let (agg, renumber) = aggregate(&level_graph, &assign);
        // Remap original nodes through the renumbering.
        for c in node_to_comm.iter_mut() {
            *c = renumber[*c as usize];
        }
        if agg.len() == level_graph.len() {
            break; // no shrinkage: nothing further to gain
        }
        level_graph = agg;
        level_init = (0..level_graph.len() as u32).collect();
    }

    let partition = Partition::from_assignments(&node_to_comm);
    let q = modularity(g, &partition);
    // Monotonicity guard: a warm-started run must never return something
    // worse than the warm partition itself scored on this graph.
    if let Some(warm) = warm_backup {
        let warm_partition = Partition::from_assignments(&warm);
        let warm_q = modularity(g, &warm_partition);
        if warm_q > q {
            return (
                LouvainResult {
                    partition: warm_partition,
                    modularity: warm_q,
                    levels,
                },
                true,
            );
        }
    }
    (
        LouvainResult {
            partition,
            modularity: q,
            levels,
        },
        false,
    )
}

/// Weighted modularity of an assignment on a `WGraph`.
fn modularity_weighted(g: &WGraph, assign: &[u32]) -> f64 {
    let two_m = 2.0 * g.total_w;
    if two_m == 0.0 {
        return 0.0;
    }
    let nc = assign.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut sigma_in = vec![0.0; nc]; // doubled intra weight
    let mut sigma_tot = vec![0.0; nc];
    for u in 0..g.len() {
        let cu = assign[u] as usize;
        sigma_tot[cu] += g.node_w[u] + 2.0 * g.self_w[u];
        sigma_in[cu] += 2.0 * g.self_w[u];
        for &(v, w) in &g.adj[u] {
            if assign[v as usize] as usize == cu {
                sigma_in[cu] += w; // each intra edge visited from both sides
            }
        }
    }
    let mut q = 0.0;
    for c in 0..nc {
        q += sigma_in[c] / two_m - (sigma_tot[c] / two_m).powi(2);
    }
    q
}

/// Identity assignment over `n` nodes.
fn identity(n: usize) -> Vec<u32> {
    (0..n as u32).collect()
}

/// One complete local-moving phase. Returns the final assignment (labels
/// are arbitrary, not renumbered), whether any node moved, and the
/// modularity after moving.
///
/// When `constraint` is `Some(labels)`, `init` must be the identity
/// (singletons) and a node may only join communities whose members share
/// its constraint label — this is the Leiden-style refinement pass that
/// re-clusters each warm-start community internally.
fn local_moving(
    g: &WGraph,
    init: &[u32],
    cfg: &LouvainConfig,
    rng: &mut rand::rngs::SmallRng,
    constraint: Option<&[u32]>,
) -> (Vec<u32>, bool, f64) {
    let n = g.len();
    let two_m = 2.0 * g.total_w;
    let mut assign = init.to_vec();
    let nc = assign.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut comm_tot = vec![0.0; nc.max(n)];
    for u in 0..n {
        comm_tot[assign[u] as usize] += g.node_w[u] + 2.0 * g.self_w[u];
    }
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut any_moved = false;

    // Scratch: neighbour-community weights, sparse via touched list.
    let mut w_to = vec![0.0f64; comm_tot.len()];
    let mut touched: Vec<u32> = Vec::new();

    // Labels of currently-empty communities, so a node can be *isolated*
    // into a fresh community when leaving its current one is profitable
    // even though no neighbour community is attractive. Without this, a
    // warm-started partition that should split apart is a fixed point of
    // classic neighbour-only local moving.
    let mut free_labels: Vec<u32> = (0..comm_tot.len() as u32)
        .filter(|&c| comm_tot[c as usize] == 0.0)
        .collect();

    // Per-community constraint label (refinement mode only). Communities
    // start as singletons there, so community label u belongs to node u.
    let mut comm_constraint: Vec<u32> = match constraint {
        Some(labels) => {
            debug_assert!(
                init.iter().enumerate().all(|(i, &c)| c as usize == i),
                "refinement requires a singleton init"
            );
            let mut v = labels.to_vec();
            v.resize(comm_tot.len(), u32::MAX);
            v
        }
        None => Vec::new(),
    };

    if two_m == 0.0 {
        let q = modularity_weighted(g, &assign);
        return (assign, false, q);
    }

    for _sweep in 0..cfg.max_sweeps {
        shuffle(&mut order, rng);
        let mut sweep_gain = 0.0;
        let mut moved_this_sweep = false;
        for &u in &order {
            let ui = u as usize;
            let k_u = g.node_w[ui] + 2.0 * g.self_w[ui];
            if g.adj[ui].is_empty() {
                continue;
            }
            let old_c = assign[ui];
            // Collect weights to neighbouring communities (in refinement
            // mode, only communities sharing this node's constraint label
            // are candidates).
            for &(v, w) in &g.adj[ui] {
                let c = assign[v as usize];
                if let Some(labels) = constraint {
                    if comm_constraint[c as usize] != labels[ui] {
                        continue;
                    }
                }
                if w_to[c as usize] == 0.0 {
                    touched.push(c);
                }
                w_to[c as usize] += w;
            }
            // Remove u from its community.
            comm_tot[old_c as usize] -= k_u;
            // Gain of (re-)inserting into community c:
            //   ΔQ(c) = w_to(c)/m' − Σ_tot(c)·k_u/(2m'²)   (×2/two_m form)
            // We evaluate the common form: w_to(c) − Σ_tot(c)·k_u/two_m,
            // which is ΔQ·(two_m/2); consistent across candidates so both
            // the argmax and gain *differences* scale by a constant — we
            // rescale when accumulating sweep_gain.
            let score = |c: u32| w_to[c as usize] - comm_tot[c as usize] * k_u / two_m;
            let mut best_c = old_c;
            let mut best_s = score(old_c);
            for &c in &touched {
                let s = score(c);
                if s > best_s + 1e-12 {
                    best_s = s;
                    best_c = c;
                }
            }
            // Isolating into an empty community scores exactly 0; prefer
            // it when every candidate (including staying) is negative.
            if best_s < -1e-12 {
                while let Some(label) = free_labels.pop() {
                    if comm_tot[label as usize] == 0.0 {
                        best_c = label;
                        best_s = 0.0;
                        if let Some(labels) = constraint {
                            comm_constraint[label as usize] = labels[ui];
                        }
                        break;
                    }
                }
            }
            let old_s = score(old_c);
            comm_tot[best_c as usize] += k_u;
            if best_c != old_c && comm_tot[old_c as usize] == 0.0 {
                free_labels.push(old_c);
            }
            if best_c != old_c {
                assign[ui] = best_c;
                moved_this_sweep = true;
                any_moved = true;
                sweep_gain += (best_s - old_s) * 2.0 / two_m;
            }
            // Clear scratch.
            for &c in &touched {
                w_to[c as usize] = 0.0;
            }
            touched.clear();
        }
        if !moved_this_sweep || sweep_gain < cfg.delta.max(1e-9) {
            break;
        }
    }
    let q = modularity_weighted(g, &assign);
    (assign, any_moved, q)
}

/// Collapse communities into nodes. Returns the aggregated graph and the
/// dense renumbering `old community label -> new node id`.
fn aggregate(g: &WGraph, assign: &[u32]) -> (WGraph, Vec<u32>) {
    let max_label = assign.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut renumber = vec![u32::MAX; max_label];
    let mut next = 0u32;
    for &c in assign {
        if renumber[c as usize] == u32::MAX {
            renumber[c as usize] = next;
            next += 1;
        }
    }
    let nc = next as usize;
    let mut self_w = vec![0.0; nc];
    let mut maps: Vec<std::collections::HashMap<u32, f64>> = vec![Default::default(); nc];
    for u in 0..g.len() {
        let cu = renumber[assign[u] as usize];
        self_w[cu as usize] += g.self_w[u];
        for &(v, w) in &g.adj[u] {
            let cv = renumber[assign[v as usize] as usize];
            if cu == cv {
                // intra edge seen from both endpoints: add half each time
                self_w[cu as usize] += w / 2.0;
            } else {
                *maps[cu as usize].entry(cv).or_insert(0.0) += w;
            }
        }
    }
    let adj: Vec<Vec<(u32, f64)>> = maps
        .into_iter()
        .map(|m| {
            let mut l: Vec<(u32, f64)> = m.into_iter().collect();
            l.sort_unstable_by_key(|&(v, _)| v);
            l
        })
        .collect();
    let node_w: Vec<f64> = adj
        .iter()
        .map(|l| l.iter().map(|&(_, w)| w).sum())
        .collect();
    let total_w = g.total_w;
    (
        WGraph {
            adj,
            self_w,
            node_w,
            total_w,
        },
        renumber,
    )
}
