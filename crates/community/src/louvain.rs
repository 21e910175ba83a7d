//! The Louvain method with an explicit improvement threshold δ and an
//! incremental (warm-start) mode.
//!
//! Louvain (Blondel et al. 2008) alternates two phases: a *local-moving*
//! phase that migrates single nodes between communities while modularity
//! improves, and an *aggregation* phase that collapses each community into
//! one weighted node. The paper's δ parameter bounds both: a local-moving
//! sweep stops once the modularity gained in a full pass drops below δ,
//! and the level loop stops once a whole level gains less than δ. Small δ
//! (1e-4) runs to convergence; large δ (0.3) terminates early, trading
//! modularity for robustness to churn — exactly the trade-off Figure 4
//! sweeps.
//!
//! In **incremental mode** the initial community assignment is the
//! previous snapshot's partition (extended with singleton entries for
//! newly arrived nodes) instead of all-singletons. This both speeds the
//! run up dramatically (the assignment is already near-optimal) and ties
//! community identities across snapshots, which is what makes Jaccard
//! matching in [`crate::tracker`] stable.
//!
//! **Level graphs.** Level 0 is the snapshot's [`CsrGraph`] itself,
//! borrowed: every weight is an implicit 1.0 and there are no self-loops,
//! so the run adds nothing per adjacency entry. Each aggregated level is
//! flat CSR (offsets, targets, weights: 12 B per entry), built without
//! hash maps. A warm-started run first refines each warm community on a
//! prefiltered view that keeps only the edges inside warm communities
//! (4 B per kept entry). Every sum adds the same terms in the same order
//! as a walk over nested per-node `(neighbour, weight)` lists, the form
//! `tests/louvain_differential.rs` keeps as its oracle, so partitions and
//! modularity bits match it exactly.

use crate::modularity::{modularity, modularity_from_counts};
use crate::partition::Partition;
use osn_graph::CsrGraph;
use osn_stats::sampling::{rng_from_seed, shuffle};

/// Tuning parameters for a Louvain run.
#[derive(Debug, Clone, Copy)]
pub struct LouvainConfig {
    /// Improvement threshold δ: a local-moving pass or a whole level that
    /// improves modularity by less than this stops the respective loop.
    pub delta: f64,
    /// Hard cap on aggregation levels (safety bound; convergence normally
    /// happens in ≤ 10 levels).
    pub max_levels: usize,
    /// Hard cap on local-moving sweeps per level.
    pub max_sweeps: usize,
    /// RNG seed controlling node visit order (sweeps shuffle the order, a
    /// standard Louvain detail that avoids pathological orderings).
    pub seed: u64,
}

impl Default for LouvainConfig {
    fn default() -> Self {
        LouvainConfig {
            delta: 0.04,
            max_levels: 20,
            max_sweeps: 50,
            seed: 0,
        }
    }
}

impl LouvainConfig {
    /// Config with a given δ, other fields default.
    pub fn with_delta(delta: f64) -> Self {
        LouvainConfig {
            delta,
            ..Default::default()
        }
    }
}

/// Result of a Louvain run.
#[derive(Debug, Clone)]
pub struct LouvainResult {
    /// Final node→community partition over the input graph.
    pub partition: Partition,
    /// Modularity of that partition.
    pub modularity: f64,
    /// Number of aggregation levels performed.
    pub levels: usize,
}

/// One level of the Louvain hierarchy, as [`local_moving`], [`aggregate`]
/// and [`modularity_weighted`] read it. Three shapes implement it: the
/// snapshot itself (level 0), the refinement's within-warm-community view
/// of it, and the flat aggregated levels.
trait Level {
    /// Number of level nodes.
    fn len(&self) -> usize;
    /// Total edge weight `m` (each undirected edge once, self-loops once).
    fn total_w(&self) -> f64;
    /// Self-loop weight of `u` (counted once).
    fn self_w(&self, u: usize) -> f64;
    /// Weighted degree `k_u` (self-loops count twice).
    fn strength(&self, u: usize) -> f64;
    /// Whether `u` has any adjacency entry (in the refinement view: in the
    /// whole snapshot).
    fn has_neighbours(&self, u: usize) -> bool;
    /// `u`'s adjacency entries `(neighbour, weight)`, self-loop excluded.
    fn entries(&self, u: usize) -> impl Iterator<Item = (u32, f64)>;
}

/// Level 0 is the snapshot itself: every weight is an implicit 1.0 and
/// there are no self-loops.
impl Level for CsrGraph {
    fn len(&self) -> usize {
        self.num_nodes()
    }
    fn total_w(&self) -> f64 {
        self.num_edges() as f64
    }
    fn self_w(&self, _u: usize) -> f64 {
        0.0
    }
    fn strength(&self, u: usize) -> f64 {
        self.degree(u as u32) as f64
    }
    fn has_neighbours(&self, u: usize) -> bool {
        self.degree(u as u32) > 0
    }
    fn entries(&self, u: usize) -> impl Iterator<Item = (u32, f64)> {
        self.neighbors(u as u32).iter().map(|&v| (v, 1.0))
    }
}

/// The refinement's view of the snapshot: each node's neighbours inside
/// its own warm community, in snapshot order, with the whole snapshot's
/// degrees, neighbour test and edge count.
///
/// The refinement's rule is that a node joins a community only when that
/// community carries the node's warm label, or when it takes an empty
/// label, which then gets the node's warm label. A static filter is
/// enough to enforce it: `comm_tot` sums are exact integers, so a label
/// is empty only when every member has degree 0, and such nodes are
/// nobody's neighbour. Every neighbour `v` of `u` therefore sits in a
/// community labelled `warm[v]`, and the rule reduces to
/// `warm[v] == warm[u]`.
struct WarmView<'a> {
    graph: &'a CsrGraph,
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl<'a> WarmView<'a> {
    /// Builds the view of `g` for the warm partition `warm`, and from the
    /// same pass (which compares the labels of every edge's endpoints
    /// anyway) the warm partition's modularity on `g`, equal to
    /// [`modularity`]`(g, warm)`: the same integer counts through the same
    /// float loop.
    fn new(graph: &'a CsrGraph, warm: &Partition) -> (Self, f64) {
        let n = graph.num_nodes();
        let labels = warm.assignments();
        let mut intra = vec![0u64; warm.num_communities()];
        let mut deg = vec![0u64; warm.num_communities()];
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut targets = Vec::with_capacity(2 * graph.num_edges() as usize);
        for u in 0..n as u32 {
            let c = labels[u as usize];
            deg[c as usize] += graph.degree(u) as u64;
            for &v in graph.neighbors(u) {
                if labels[v as usize] == c {
                    targets.push(v);
                    intra[c as usize] += (v > u) as u64;
                }
            }
            offsets.push(targets.len());
        }
        let warm_q = modularity_from_counts(&intra, &deg, graph.num_edges() as f64);
        let view = WarmView {
            graph,
            offsets,
            targets,
        };
        (view, warm_q)
    }
}

impl Level for WarmView<'_> {
    fn len(&self) -> usize {
        self.graph.len()
    }
    fn total_w(&self) -> f64 {
        self.graph.total_w()
    }
    fn self_w(&self, _u: usize) -> f64 {
        0.0
    }
    fn strength(&self, u: usize) -> f64 {
        self.graph.strength(u)
    }
    fn has_neighbours(&self, u: usize) -> bool {
        self.graph.has_neighbours(u)
    }
    fn entries(&self, u: usize) -> impl Iterator<Item = (u32, f64)> {
        self.targets[self.offsets[u]..self.offsets[u + 1]]
            .iter()
            .map(|&v| (v, 1.0))
    }
}

/// An aggregated level as flat CSR: node `u`'s neighbours are
/// `targets[offsets[u]..offsets[u + 1]]`, ascending, with their summed
/// weights at the same positions of `weights`.
struct Aggregated {
    offsets: Vec<usize>,
    targets: Vec<u32>,
    weights: Vec<f64>,
    self_w: Vec<f64>,
    strength: Vec<f64>,
    total_w: f64,
}

impl Level for Aggregated {
    fn len(&self) -> usize {
        self.strength.len()
    }
    fn total_w(&self) -> f64 {
        self.total_w
    }
    fn self_w(&self, u: usize) -> f64 {
        self.self_w[u]
    }
    fn strength(&self, u: usize) -> f64 {
        self.strength[u]
    }
    fn has_neighbours(&self, u: usize) -> bool {
        self.offsets[u + 1] > self.offsets[u]
    }
    fn entries(&self, u: usize) -> impl Iterator<Item = (u32, f64)> {
        let range = self.offsets[u]..self.offsets[u + 1];
        self.targets[range.clone()]
            .iter()
            .copied()
            .zip(self.weights[range].iter().copied())
    }
}

/// Run Louvain on `g`.
///
/// `init` supplies the warm-start partition (incremental mode); `None`
/// starts from singletons. The returned partition always covers exactly
/// `g.num_nodes()` nodes.
pub fn louvain(g: &CsrGraph, cfg: &LouvainConfig, init: Option<&Partition>) -> LouvainResult {
    let n = g.num_nodes();
    if n == 0 {
        return LouvainResult {
            partition: Partition::singletons(0),
            modularity: 0.0,
            levels: 0,
        };
    }
    let mut rng = rng_from_seed(cfg.seed);
    // node_to_comm[v] maps ORIGINAL node v to its *level node* before each
    // local-moving phase (identity at level 0) and to its community after
    // composing with that phase's result.
    let mut node_to_comm: Vec<u32> = identity(n);

    // level_init: initial community of each *level node* — the refined
    // warm-start partition at level 0 (incremental mode), singletons at
    // deeper levels (the aggregation itself already encodes the grouping).
    // `warm` keeps the warm partition and its modularity, so the result
    // can never score below the warm start (fragment-and-remerge
    // occasionally lands in a worse optimum).
    let (mut level_init, mut prev_q, warm) = match init {
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
            let warm = Partition::from_assignments(&raw);
            // Leiden-style refinement: re-cluster each warm-start community
            // internally, starting from singletons, on the view that holds
            // only edges inside warm communities. Neighbour-only local
            // moving cannot split a cohesive-looking community (every
            // single-node exit is modularity-negative), so without this
            // step a warm-started run could never track community splits.
            // The main loop below will re-merge the refined chunks through
            // aggregation whenever that is modularity-positive, so stable
            // communities keep tracking cleanly. Nodes with edges share a
            // refined community only if they share a warm one, so the view
            // holds every intra-community edge in snapshot order and the
            // returned modularity is the snapshot's.
            let (view, warm_q) = WarmView::new(g, &warm);
            let (refined, _) = local_moving(&view, identity(n), cfg, &mut rng);
            // No start modularity: warm runs complete two levels (see
            // `min_levels`), so level 1's gain is never tested.
            (refined, f64::NEG_INFINITY, Some((warm, warm_q)))
        }
        None => {
            let singletons = identity(n);
            let q = modularity_weighted(g, &singletons);
            (singletons, q, None)
        }
    };
    let mut levels = 0;
    // Warm-started runs must complete at least two levels: the refinement
    // pass above deliberately fragments each warm community into chunks,
    // and only the first aggregation + second local-moving phase can fuse
    // chunks back together (single-node moves cannot cross chunk
    // boundaries profitably). Breaking on δ before that would emit the
    // fragmented partition and make tracking churn.
    let min_levels = if init.is_some() { 2 } else { 1 };
    // `None` while the level graph is the snapshot itself.
    let mut level: Option<Aggregated> = None;

    loop {
        let (assign, moved) = match &level {
            None => local_moving(g, level_init, cfg, &mut rng),
            Some(l) => local_moving(l, level_init, cfg, &mut rng),
        };
        let q_after = match &level {
            None => modularity_weighted(g, &assign),
            Some(l) => modularity_weighted(l, &assign),
        };

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
        let (agg, renumber) = match &level {
            None => aggregate(g, &assign),
            Some(l) => aggregate(l, &assign),
        };
        // Remap original nodes through the renumbering.
        for c in node_to_comm.iter_mut() {
            *c = renumber[*c as usize];
        }
        if agg.len() == assign.len() {
            break; // no shrinkage: nothing further to gain
        }
        level_init = identity(agg.len());
        level = Some(agg);
    }

    let partition = Partition::from_assignments(&node_to_comm);
    let q = modularity(g, &partition);
    // Monotonicity guard: a warm-started run must never return something
    // worse than the warm partition itself scored on this graph.
    if let Some((warm, warm_q)) = warm {
        if warm_q > q {
            return LouvainResult {
                partition: warm,
                modularity: warm_q,
                levels,
            };
        }
    }
    LouvainResult {
        partition,
        modularity: q,
        levels,
    }
}

/// Weighted modularity of an assignment on a level graph.
fn modularity_weighted<L: Level>(g: &L, assign: &[u32]) -> f64 {
    let two_m = 2.0 * g.total_w();
    if two_m == 0.0 {
        return 0.0;
    }
    let nc = assign.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut sigma_in = vec![0.0; nc]; // doubled intra weight
    let mut sigma_tot = vec![0.0; nc];
    for (u, &cu) in assign.iter().enumerate() {
        let cu = cu as usize;
        sigma_tot[cu] += g.strength(u);
        sigma_in[cu] += 2.0 * g.self_w(u);
        for (v, w) in g.entries(u) {
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

/// One complete local-moving phase from the assignment `assign`. Returns
/// the final assignment (labels are arbitrary, not renumbered) and
/// whether any node moved.
fn local_moving<L: Level>(
    g: &L,
    mut assign: Vec<u32>,
    cfg: &LouvainConfig,
    rng: &mut rand::rngs::SmallRng,
) -> (Vec<u32>, bool) {
    let n = g.len();
    let two_m = 2.0 * g.total_w();
    let nc = assign.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut comm_tot = vec![0.0; nc.max(n)];
    for (u, &c) in assign.iter().enumerate() {
        comm_tot[c as usize] += g.strength(u);
    }
    let mut order: Vec<u32> = identity(n);
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

    if two_m == 0.0 {
        return (assign, false);
    }

    for _sweep in 0..cfg.max_sweeps {
        shuffle(&mut order, rng);
        let mut sweep_gain = 0.0;
        let mut moved_this_sweep = false;
        for &u in &order {
            let ui = u as usize;
            if !g.has_neighbours(ui) {
                continue;
            }
            let k_u = g.strength(ui);
            let old_c = assign[ui];
            // Collect weights to neighbouring communities.
            for (v, w) in g.entries(ui) {
                let c = assign[v as usize];
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
    (assign, any_moved)
}

/// Collapse communities into nodes. Returns the aggregated level and the
/// dense renumbering `old community label -> new node id`.
///
/// Every sum adds the same terms in the same order as a per-node walk
/// would: level nodes are grouped by community with a counting sort that
/// keeps their order, and each community's outgoing weights collect in a
/// dense accumulator, emitted in ascending neighbour order.
fn aggregate<L: Level>(g: &L, assign: &[u32]) -> (Aggregated, Vec<u32>) {
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
    // Counting sort: community c's level nodes, ascending, are
    // members[start[c]..start[c + 1]].
    let mut start = vec![0usize; nc + 1];
    for &c in assign {
        start[renumber[c as usize] as usize + 1] += 1;
    }
    for c in 0..nc {
        start[c + 1] += start[c];
    }
    let mut members = vec![0u32; assign.len()];
    let mut cursor = start.clone();
    for (u, &c) in assign.iter().enumerate() {
        let c = renumber[c as usize] as usize;
        members[cursor[c]] = u as u32;
        cursor[c] += 1;
    }

    let mut offsets = Vec::with_capacity(nc + 1);
    offsets.push(0);
    let mut targets = Vec::new();
    let mut weights = Vec::new();
    let mut self_w = Vec::with_capacity(nc);
    let mut strength = Vec::with_capacity(nc);
    let mut acc = vec![0.0f64; nc];
    let mut touched: Vec<u32> = Vec::new();
    for cu in 0..nc {
        let mut sw = 0.0;
        for &u in &members[start[cu]..start[cu + 1]] {
            sw += g.self_w(u as usize);
            for (v, w) in g.entries(u as usize) {
                let cv = renumber[assign[v as usize] as usize];
                if cv as usize == cu {
                    // intra edge seen from both endpoints: add half each time
                    sw += w / 2.0;
                } else {
                    if acc[cv as usize] == 0.0 {
                        touched.push(cv);
                    }
                    acc[cv as usize] += w;
                }
            }
        }
        touched.sort_unstable();
        let first = targets.len();
        for &cv in &touched {
            targets.push(cv);
            weights.push(std::mem::take(&mut acc[cv as usize]));
        }
        touched.clear();
        let node_w: f64 = weights[first..].iter().sum();
        self_w.push(sw);
        strength.push(node_w + 2.0 * sw);
        offsets.push(targets.len());
    }
    let level = Aggregated {
        offsets,
        targets,
        weights,
        self_w,
        strength,
        total_w: g.total_w(),
    };
    (level, renumber)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `k` cliques of `size` nodes, neighbouring cliques joined by one edge.
    fn ring_of_cliques(k: usize, size: usize) -> CsrGraph {
        let mut edges = Vec::new();
        for c in 0..k {
            let base = (c * size) as u32;
            for i in 0..size as u32 {
                for j in (i + 1)..size as u32 {
                    edges.push((base + i, base + j));
                }
            }
            let next_base = (((c + 1) % k) * size) as u32;
            edges.push((base, next_base));
        }
        CsrGraph::from_edges(k * size, &edges)
    }

    #[test]
    fn recovers_planted_cliques() {
        let g = ring_of_cliques(6, 8);
        let cfg = LouvainConfig {
            delta: 1e-6,
            ..Default::default()
        };
        let res = louvain(&g, &cfg, None);
        assert!(res.modularity > 0.6, "modularity {}", res.modularity);
        // Every clique should be one community.
        for c in 0..6 {
            let base = c * 8;
            let label = res.partition.community_of(base as u32);
            for i in 0..8 {
                assert_eq!(res.partition.community_of((base + i) as u32), label);
            }
        }
        assert_eq!(res.partition.num_communities(), 6);
    }

    #[test]
    fn internal_modularity_matches_public() {
        let g = ring_of_cliques(4, 5);
        let res = louvain(&g, &LouvainConfig::with_delta(1e-6), None);
        let q = modularity(&g, &res.partition);
        assert!((q - res.modularity).abs() < 1e-9);
    }

    #[test]
    fn large_delta_terminates_early_with_lower_quality() {
        let g = ring_of_cliques(6, 8);
        let fine = louvain(&g, &LouvainConfig::with_delta(1e-6), None);
        let coarse = louvain(&g, &LouvainConfig::with_delta(0.5), None);
        assert!(coarse.modularity <= fine.modularity + 1e-9);
        assert!(coarse.levels <= fine.levels);
    }

    #[test]
    fn incremental_warm_start_preserves_good_partition() {
        let g = ring_of_cliques(6, 8);
        let fine = louvain(&g, &LouvainConfig::with_delta(1e-6), None);
        // Warm-start from the converged partition: must not degrade.
        let warm = louvain(&g, &LouvainConfig::with_delta(1e-6), Some(&fine.partition));
        assert!(warm.modularity >= fine.modularity - 1e-9);
        assert_eq!(warm.partition.num_communities(), 6);
    }

    #[test]
    fn incremental_handles_grown_graph() {
        let g1 = ring_of_cliques(4, 6);
        let fine = louvain(&g1, &LouvainConfig::with_delta(1e-6), None);
        // Grow: add a new clique of 6 (nodes 24..30) bridged to clique 0.
        let mut edges: Vec<(u32, u32)> = g1.edges().collect();
        for i in 24..30u32 {
            for j in (i + 1)..30 {
                edges.push((i, j));
            }
        }
        edges.push((0, 24));
        let g2 = CsrGraph::from_edges(30, &edges);
        let init = fine.partition.extended_to(30);
        let res = louvain(&g2, &LouvainConfig::with_delta(1e-6), Some(&init));
        assert_eq!(res.partition.num_communities(), 5);
        // New clique forms a single community.
        let label = res.partition.community_of(24);
        for i in 24..30 {
            assert_eq!(res.partition.community_of(i), label);
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = ring_of_cliques(5, 7);
        let a = louvain(&g, &LouvainConfig::with_delta(1e-6), None);
        let b = louvain(&g, &LouvainConfig::with_delta(1e-6), None);
        assert_eq!(a.partition, b.partition);
        assert_eq!(a.modularity, b.modularity);
    }

    #[test]
    fn empty_and_edgeless() {
        let empty = CsrGraph::from_edges(0, &[]);
        let res = louvain(&empty, &LouvainConfig::default(), None);
        assert_eq!(res.partition.num_nodes(), 0);
        let edgeless = CsrGraph::from_edges(5, &[]);
        let res = louvain(&edgeless, &LouvainConfig::default(), None);
        assert_eq!(res.partition.num_nodes(), 5);
        assert_eq!(res.modularity, 0.0);
    }
}
