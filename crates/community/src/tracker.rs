//! Similarity-based dynamic community tracking.
//!
//! Drives incremental Louvain over a sequence of snapshots and matches
//! communities across consecutive snapshots by best Jaccard overlap,
//! following §4.1 of the paper (itself a modified Greene et al. 2010):
//!
//! 1. run Louvain warm-started from the previous snapshot's partition;
//! 2. keep communities of at least `min_size` nodes (the paper uses 10);
//! 3. for each current community find its best-overlapping predecessor
//!    and for each predecessor its best-overlapping successor (a tie
//!    goes to the larger community, then to the one listed first);
//! 4. a *mutual best* pair continues the predecessor's persistent
//!    identity; everything else generates birth / death / merge / split
//!    events;
//! 5. a dying community that merges is checked against the
//!    *strongest-tie* hypothesis: did it merge into the community it
//!    shared the most inter-community edges with? (Figure 6c)
//!
//! The tracker also accumulates per-community feature histories (size,
//! in-degree ratio, self-similarity) consumed by the merge predictor of
//! Figure 6(b).

use crate::events::{CommunityId, EvolutionEvent};
use crate::louvain::{louvain, LouvainConfig};
use crate::partition::Partition;
use crate::similarity::jaccard_from_overlap;
use crate::state::TrackerState;
use osn_graph::{CsrGraph, Day};
use std::collections::{BTreeMap, HashMap};

/// Tracker parameters.
#[derive(Debug, Clone, Copy)]
pub struct TrackerConfig {
    /// Minimum community size to track (paper: 10, "to avoid small
    /// cliques").
    pub min_size: u32,
    /// Louvain parameters (δ, seed, caps).
    pub louvain: LouvainConfig,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        TrackerConfig {
            min_size: 10,
            louvain: LouvainConfig::default(),
        }
    }
}

/// Per-snapshot statistics of one tracked community.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommSnapshotStats {
    /// Snapshot day.
    pub day: Day,
    /// Member count.
    pub size: u32,
    /// Number of edges with both endpoints inside the community.
    pub internal_edges: u64,
    /// Sum of (full-graph) degrees of the members.
    pub degree_sum: u64,
    /// Jaccard similarity to this community's previous incarnation
    /// (0 at birth).
    pub similarity_to_prev: f64,
}

impl CommSnapshotStats {
    /// The paper's *in-degree ratio*: internal edges over the sum of
    /// member degrees (0 when the community has no incident edges).
    pub fn in_degree_ratio(&self) -> f64 {
        if self.degree_sum == 0 {
            0.0
        } else {
            self.internal_edges as f64 / self.degree_sum as f64
        }
    }
}

/// Life history of one persistent community.
#[derive(Debug, Clone, PartialEq)]
pub struct CommunityRecord {
    /// Persistent identity.
    pub id: CommunityId,
    /// Day of first appearance.
    pub birth_day: Day,
    /// Day the community no longer existed (`None` if alive at the end of
    /// the trace — right-censored).
    pub death_day: Option<Day>,
    /// Whether the death was a merge into another community.
    pub merged_into: Option<CommunityId>,
    /// Per-snapshot stats, in snapshot order.
    pub history: Vec<CommSnapshotStats>,
}

impl CommunityRecord {
    /// Lifetime in days; `None` while the community is still alive.
    pub fn lifetime(&self) -> Option<Day> {
        self.death_day.map(|d| d - self.birth_day)
    }
}

/// Summary statistics for one observed snapshot.
#[derive(Debug, Clone)]
pub struct SnapshotSummary {
    /// Snapshot day.
    pub day: Day,
    /// Modularity of the (full) Louvain partition.
    pub modularity: f64,
    /// Number of tracked (≥ `min_size`) communities.
    pub num_tracked: usize,
    /// Mean Jaccard similarity over communities continued from the
    /// previous snapshot (`None` on the first snapshot or when nothing
    /// continued).
    pub avg_similarity: Option<f64>,
    /// Sizes of the tracked communities, descending.
    pub sizes: Vec<u32>,
    /// Fraction of *all* nodes covered by the five largest tracked
    /// communities.
    pub top5_coverage: f64,
}

/// Everything the tracker knows after the last snapshot.
#[derive(Debug, Clone)]
pub struct TrackerOutput {
    /// All community life histories, by persistent id order of creation.
    pub records: Vec<CommunityRecord>,
    /// All evolution events in observation order.
    pub events: Vec<EvolutionEvent>,
    /// Final snapshot's membership: node → persistent community id (only
    /// for nodes inside tracked communities).
    pub final_membership: Vec<Option<CommunityId>>,
    /// Final snapshot's tracked community sizes.
    pub final_sizes: HashMap<CommunityId, u32>,
    /// Day of the last observed snapshot.
    pub last_day: Day,
}

struct PrevComm {
    id: CommunityId,
    members: Vec<u32>, // sorted
}

struct PrevState {
    /// Day of the snapshot this state was taken from.
    day: Day,
    partition: Partition,
    comms: Vec<PrevComm>,
    /// node → index into `comms` (u32::MAX = not in a tracked community)
    node_to_comm: Vec<u32>,
    graph: CsrGraph,
}

/// One snapshot's observation, computed by [`CommunityTracker::step`]
/// and applied by [`CommunityTracker::commit`].
pub struct TrackerStep {
    /// The tracker's `next_id` once this snapshot's births are counted.
    next_id: CommunityId,
    /// This snapshot's evolution events, in observation order.
    events: Vec<EvolutionEvent>,
    /// One history entry per tracked community.
    history: Vec<(CommunityId, CommSnapshotStats)>,
    prev: PrevState,
    summary: SnapshotSummary,
}

/// The dynamic community tracker. Feed snapshots in chronological order
/// with [`CommunityTracker::observe`] (or [`CommunityTracker::step`] and
/// [`CommunityTracker::commit`], to drop a failed observation), then
/// call [`CommunityTracker::finish`].
pub struct CommunityTracker {
    cfg: TrackerConfig,
    prev: Option<PrevState>,
    records: Vec<CommunityRecord>,
    id_to_record: HashMap<CommunityId, usize>,
    events: Vec<EvolutionEvent>,
    next_id: CommunityId,
}

impl CommunityTracker {
    /// Create a tracker.
    pub fn new(cfg: TrackerConfig) -> Self {
        CommunityTracker {
            cfg,
            prev: None,
            records: Vec::new(),
            id_to_record: HashMap::new(),
            events: Vec::new(),
            next_id: 0,
        }
    }

    /// Observe the snapshot for `day`: [`Self::step`] then
    /// [`Self::commit`]. Snapshots must be fed in strictly increasing day
    /// order and must only ever grow (nodes are never removed from the
    /// trace).
    pub fn observe(&mut self, day: Day, g: &CsrGraph) -> SnapshotSummary {
        let step = self.step(day, g);
        self.commit(step)
    }

    /// Compute the observation of the snapshot for `day` without changing
    /// the tracker: Louvain warm-started from the last committed
    /// snapshot, then the matching against it. Nothing is recorded until
    /// the step is passed to [`Self::commit`], so a step that is dropped —
    /// because it failed, panicked or came too late — leaves the tracker
    /// exactly as it was.
    pub fn step(&self, day: Day, g: &CsrGraph) -> TrackerStep {
        let n = g.num_nodes();
        let init = self.prev.as_ref().map(|p| p.partition.extended_to(n));
        let res = louvain(g, &self.cfg.louvain, init.as_ref());
        let partition = res.partition;

        // Filter tracked communities.
        let mut comms: Vec<Vec<u32>> = partition
            .members()
            .into_iter()
            .filter(|m| m.len() >= self.cfg.min_size as usize)
            .collect();
        comms.sort_by_key(|m| std::cmp::Reverse(m.len()));
        let mut node_to_comm = vec![u32::MAX; n];
        for (i, m) in comms.iter().enumerate() {
            for &v in m {
                node_to_comm[v as usize] = i as u32;
            }
        }

        // Internal edge / degree sums per tracked community.
        let mut internal = vec![0u64; comms.len()];
        let mut degsum = vec![0u64; comms.len()];
        for (i, m) in comms.iter().enumerate() {
            for &v in m {
                degsum[i] += g.degree(v) as u64;
                for &w in g.neighbors(v) {
                    if w > v && node_to_comm[w as usize] == i as u32 {
                        internal[i] += 1;
                    }
                }
            }
        }

        // Match against previous snapshot.
        let mut next_id = self.next_id;
        let mut events = Vec::new();
        let mut assigned_ids: Vec<Option<CommunityId>> = vec![None; comms.len()];
        let mut similarity: Vec<f64> = vec![0.0; comms.len()];
        let mut avg_similarity = None;

        if let Some(prev) = &self.prev {
            // Overlap counts (cur, prev, count), in (cur, prev) order.
            let mut overlaps: Vec<(u32, u32, u32)> = Vec::new();
            let mut counts = vec![0u32; prev.comms.len()];
            let mut touched: Vec<u32> = Vec::new();
            for (ci, m) in comms.iter().enumerate() {
                for &v in m {
                    if let Some(&p) = prev.node_to_comm.get(v as usize) {
                        if p != u32::MAX {
                            if counts[p as usize] == 0 {
                                touched.push(p);
                            }
                            counts[p as usize] += 1;
                        }
                    }
                }
                touched.sort_unstable();
                for p in touched.drain(..) {
                    overlaps.push((ci as u32, p, std::mem::take(&mut counts[p as usize])));
                }
            }
            // Best predecessor per cur; best successor per prev. For the
            // successor we also keep the *absorbed fraction* — the share
            // of the predecessor's members that moved into that successor
            // — because the paper only calls a death a "merge" when a
            // community contributes most of its nodes to the destination.
            // Ties on Jaccard go to the lowest index, i.e. the larger
            // community, then the one its partition lists first: the
            // first candidate in (cur, prev) order wins.
            let mut best_prev: Vec<Option<(u32, f64)>> = vec![None; comms.len()];
            let mut best_succ: Vec<Option<(u32, f64, f64)>> = vec![None; prev.comms.len()];
            for &(c, p, ov) in &overlaps {
                let psize = prev.comms[p as usize].members.len();
                let jac = jaccard_from_overlap(comms[c as usize].len(), psize, ov as usize);
                let absorbed = ov as f64 / psize as f64;
                if best_prev[c as usize].is_none_or(|(_, j)| jac > j) {
                    best_prev[c as usize] = Some((p, jac));
                }
                if best_succ[p as usize].is_none_or(|(_, j, _)| jac > j) {
                    best_succ[p as usize] = Some((c, jac, absorbed));
                }
            }

            // Mutual-best pairs continue identities. A predecessor
            // continues into at most one successor and vice versa, so
            // `continued_from` is the inverse of `continued_into`.
            let mut continued_into: Vec<Option<u32>> = vec![None; prev.comms.len()];
            let mut continued_from: Vec<Option<usize>> = vec![None; comms.len()];
            let mut sims = Vec::new();
            for c in 0..comms.len() {
                if let Some((p, jac)) = best_prev[c] {
                    if let Some((c2, _, _)) = best_succ[p as usize] {
                        if c2 as usize == c {
                            assigned_ids[c] = Some(prev.comms[p as usize].id);
                            similarity[c] = jac;
                            continued_into[p as usize] = Some(c as u32);
                            continued_from[c] = Some(p as usize);
                            sims.push(jac);
                        }
                    }
                }
            }
            if !sims.is_empty() {
                avg_similarity = Some(sims.iter().sum::<f64>() / sims.len() as f64);
            }

            // Births (with split_from attribution).
            for c in 0..comms.len() {
                if assigned_ids[c].is_none() {
                    let id = next_id;
                    next_id += 1;
                    assigned_ids[c] = Some(id);
                    events.push(EvolutionEvent::Birth {
                        id,
                        day,
                        size: comms[c].len() as u32,
                        split_from: best_prev[c].map(|(p, _)| prev.comms[p as usize].id),
                    });
                }
            }

            // Split events: predecessor that is best-prev of ≥2 successors.
            let mut split_children: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
            for (c, bp) in best_prev.iter().enumerate() {
                if let Some((p, _)) = bp {
                    split_children.entry(*p).or_default().push(c as u32);
                }
            }
            for (&p, children) in &split_children {
                if children.len() >= 2 {
                    let mut sizes: Vec<u32> = children
                        .iter()
                        .map(|&c| comms[c as usize].len() as u32)
                        .collect();
                    sizes.sort_unstable_by(|a, b| b.cmp(a));
                    events.push(EvolutionEvent::Split {
                        parent: prev.comms[p as usize].id,
                        day,
                        largest: sizes[0],
                        second: sizes[1],
                    });
                }
            }

            // Merge events: one per merged *pair* (the paper analyses
            // merged community pairs). A pair is a dying predecessor that
            // contributes most of its nodes to a successor that itself
            // continues another predecessor — i.e. a genuine absorption.
            for p in 0..prev.comms.len() {
                if continued_into[p].is_some() {
                    continue; // survivors are destinations, not sources
                }
                if let Some((c, _, absorbed)) = best_succ[p] {
                    if absorbed < 0.5 {
                        continue;
                    }
                    let Some(q) = continued_from[c as usize] else {
                        continue;
                    };
                    let sp = prev.comms[p].members.len() as u32;
                    let sq = prev.comms[q].members.len() as u32;
                    events.push(EvolutionEvent::Merge {
                        dest: assigned_ids[c as usize].expect("assigned above"),
                        day,
                        largest: sp.max(sq),
                        second: sp.min(sq),
                    });
                }
            }

            // Deaths + strongest-tie evaluation.
            for p in 0..prev.comms.len() {
                if continued_into[p].is_some() {
                    continue;
                }
                let id = prev.comms[p].id;
                let (merged_into, tie_rank) = match best_succ[p] {
                    // A death is a *merge* only when most of the dying
                    // community's members moved into the destination
                    // (§4.1: communities "contribute most of their nodes").
                    Some((c, _, absorbed)) if absorbed >= 0.5 => {
                        let dest_id = assigned_ids[c as usize];
                        // Which previous community continued into c?
                        let rank = continued_from[c as usize]
                            .and_then(|q| destination_tie_rank(prev, p, q));
                        (dest_id, rank)
                    }
                    _ => (None, None),
                };
                events.push(EvolutionEvent::Death {
                    id,
                    day,
                    size: prev.comms[p].members.len() as u32,
                    merged_into,
                    strongest_tie: tie_rank.map(|r| r == 1),
                    tie_rank,
                });
            }
        } else {
            // First snapshot: everything is born.
            for c in 0..comms.len() {
                let id = next_id;
                next_id += 1;
                assigned_ids[c] = Some(id);
                events.push(EvolutionEvent::Birth {
                    id,
                    day,
                    size: comms[c].len() as u32,
                    split_from: None,
                });
            }
        }

        // History entries.
        let history = (0..comms.len())
            .map(|c| {
                let stats = CommSnapshotStats {
                    day,
                    size: comms[c].len() as u32,
                    internal_edges: internal[c],
                    degree_sum: degsum[c],
                    similarity_to_prev: similarity[c],
                };
                (assigned_ids[c].expect("all communities assigned"), stats)
            })
            .collect();

        // Summary.
        let mut sizes: Vec<u32> = comms.iter().map(|m| m.len() as u32).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let top5: u64 = sizes.iter().take(5).map(|&s| s as u64).sum();
        let summary = SnapshotSummary {
            day,
            modularity: res.modularity,
            num_tracked: comms.len(),
            avg_similarity,
            sizes,
            top5_coverage: if n == 0 { 0.0 } else { top5 as f64 / n as f64 },
        };

        // State for the next snapshot.
        let prev_comms: Vec<PrevComm> = comms
            .into_iter()
            .enumerate()
            .map(|(i, members)| PrevComm {
                id: assigned_ids[i].expect("assigned"),
                members,
            })
            .collect();
        TrackerStep {
            next_id,
            events,
            history,
            prev: PrevState {
                day,
                partition,
                comms: prev_comms,
                node_to_comm,
                graph: g.clone(),
            },
            summary,
        }
    }

    /// Apply a [`TrackerStep`] computed by [`Self::step`] on this tracker
    /// in its current state, and return the snapshot's summary.
    pub fn commit(&mut self, step: TrackerStep) -> SnapshotSummary {
        for event in &step.events {
            match *event {
                EvolutionEvent::Birth { id, day, .. } => {
                    self.id_to_record.insert(id, self.records.len());
                    self.records.push(CommunityRecord {
                        id,
                        birth_day: day,
                        death_day: None,
                        merged_into: None,
                        history: Vec::new(),
                    });
                }
                EvolutionEvent::Death {
                    id,
                    day,
                    merged_into,
                    ..
                } => {
                    if let Some(&ri) = self.id_to_record.get(&id) {
                        self.records[ri].death_day = Some(day);
                        self.records[ri].merged_into = merged_into;
                    }
                }
                EvolutionEvent::Split { .. } | EvolutionEvent::Merge { .. } => {}
            }
        }
        self.events.extend(step.events);
        for (id, stats) in step.history {
            let ri = self.id_to_record[&id];
            self.records[ri].history.push(stats);
        }
        self.next_id = step.next_id;
        self.prev = Some(step.prev);
        step.summary
    }

    /// Export everything needed to resume tracking after the last observed
    /// snapshot, except the snapshot graph itself (which the resuming side
    /// rebuilds by replaying the event log). Returns `None` before the
    /// first `observe` call — there is nothing to resume from yet.
    pub fn export_state(&self) -> Option<TrackerState> {
        let prev = self.prev.as_ref()?;
        Some(TrackerState {
            last_day: prev.day,
            next_id: self.next_id,
            partition: prev.partition.assignments().to_vec(),
            comm_ids: prev.comms.iter().map(|c| c.id).collect(),
            records: self.records.clone(),
            events: self.events.clone(),
        })
    }

    /// Rebuild a tracker from an exported state and the snapshot graph of
    /// `state.last_day` (the caller re-materialises it by replaying the
    /// event log through that day). The restored tracker continues exactly
    /// where the exporting one stopped: feeding both the same subsequent
    /// snapshots produces identical summaries, records and events.
    pub fn restore(
        cfg: TrackerConfig,
        state: TrackerState,
        graph: CsrGraph,
    ) -> Result<Self, String> {
        let n = graph.num_nodes();
        if state.partition.len() != n {
            return Err(format!(
                "tracker state covers {} nodes but the day-{} snapshot has {n}",
                state.partition.len(),
                state.last_day
            ));
        }
        // Louvain partitions are already dense and first-appearance
        // normalised, so this reconstruction is exact.
        let partition = Partition::from_assignments(&state.partition);
        if partition.assignments() != state.partition.as_slice() {
            return Err("tracker state partition is not normalised".to_string());
        }
        // Re-derive tracked communities the same way `observe` does.
        let mut comms: Vec<Vec<u32>> = partition
            .members()
            .into_iter()
            .filter(|m| m.len() >= cfg.min_size as usize)
            .collect();
        comms.sort_by_key(|m| std::cmp::Reverse(m.len()));
        if comms.len() != state.comm_ids.len() {
            return Err(format!(
                "tracker state lists {} tracked communities but the partition yields {} \
                 (min_size changed between runs?)",
                state.comm_ids.len(),
                comms.len()
            ));
        }
        let mut node_to_comm = vec![u32::MAX; n];
        for (i, m) in comms.iter().enumerate() {
            for &v in m {
                node_to_comm[v as usize] = i as u32;
            }
        }
        let mut id_to_record = HashMap::new();
        for (i, r) in state.records.iter().enumerate() {
            id_to_record.insert(r.id, i);
        }
        for &id in &state.comm_ids {
            if !id_to_record.contains_key(&id) {
                return Err(format!("tracked community {id} has no record"));
            }
        }
        let prev_comms: Vec<PrevComm> = state
            .comm_ids
            .iter()
            .zip(comms)
            .map(|(&id, members)| PrevComm { id, members })
            .collect();
        Ok(CommunityTracker {
            cfg,
            prev: Some(PrevState {
                day: state.last_day,
                partition,
                comms: prev_comms,
                node_to_comm,
                graph,
            }),
            records: state.records,
            id_to_record,
            events: state.events,
            next_id: state.next_id,
        })
    }

    /// Consume the tracker and return all accumulated histories/events.
    pub fn finish(self) -> TrackerOutput {
        let (final_membership, final_sizes, last_day) = match &self.prev {
            Some(prev) => {
                let mut membership = vec![None; prev.node_to_comm.len()];
                let mut sizes = HashMap::new();
                for comm in &prev.comms {
                    sizes.insert(comm.id, comm.members.len() as u32);
                    for &v in &comm.members {
                        membership[v as usize] = Some(comm.id);
                    }
                }
                (membership, sizes, prev.day)
            }
            None => (Vec::new(), HashMap::new(), 0),
        };
        TrackerOutput {
            records: self.records,
            events: self.events,
            final_membership,
            final_sizes,
            last_day,
        }
    }
}

/// Rank (1-based) of destination `q` among the tie counts of dying
/// community `p`: rank 1 means `q` receives the largest number of edges
/// from `p`'s members — the paper's strongest-tie rule. `None` when `p`
/// has no edge to `q` at all.
fn destination_tie_rank(prev: &PrevState, p: usize, q: usize) -> Option<u32> {
    let mut ties: HashMap<u32, u64> = HashMap::new();
    for &v in &prev.comms[p].members {
        for &w in prev.graph.neighbors(v) {
            let c = prev.node_to_comm[w as usize];
            if c != u32::MAX && c as usize != p {
                *ties.entry(c).or_insert(0) += 1;
            }
        }
    }
    let q_tie = ties.get(&(q as u32)).copied().unwrap_or(0);
    if q_tie == 0 {
        return None;
    }
    let rank = 1 + ties.values().filter(|&&t| t > q_tie).count() as u32;
    Some(rank)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clique_edges(base: u32, size: u32, edges: &mut Vec<(u32, u32)>) {
        for i in 0..size {
            for j in (i + 1)..size {
                edges.push((base + i, base + j));
            }
        }
    }

    fn cfg() -> TrackerConfig {
        TrackerConfig {
            min_size: 5,
            louvain: LouvainConfig::with_delta(1e-6),
        }
    }

    #[test]
    fn stable_communities_continue() {
        // Two 10-cliques, stable across two snapshots (plus growth noise).
        let mut edges = Vec::new();
        clique_edges(0, 10, &mut edges);
        clique_edges(10, 10, &mut edges);
        edges.push((0, 10));
        let g1 = CsrGraph::from_edges(20, &edges);
        let mut tracker = CommunityTracker::new(cfg());
        let s1 = tracker.observe(0, &g1);
        assert_eq!(s1.num_tracked, 2);
        assert!(s1.avg_similarity.is_none());

        // Snapshot 2: same structure plus two extra members of clique 0.
        let mut edges2 = edges.clone();
        for i in 0..10 {
            edges2.push((20, i));
            edges2.push((21, i));
        }
        let g2 = CsrGraph::from_edges(22, &edges2);
        let s2 = tracker.observe(3, &g2);
        assert_eq!(s2.num_tracked, 2);
        let sim = s2.avg_similarity.unwrap();
        assert!(sim > 0.8, "similarity {sim}");

        let out = tracker.finish();
        // Two identities, both alive.
        assert_eq!(out.records.len(), 2);
        assert!(out.records.iter().all(|r| r.death_day.is_none()));
        assert!(out.records.iter().all(|r| r.history.len() == 2));
        // No deaths/merges/splits; 2 births at day 0.
        let births = out
            .events
            .iter()
            .filter(|e| matches!(e, EvolutionEvent::Birth { .. }))
            .count();
        assert_eq!(births, 2);
        assert_eq!(out.events.len(), 2);
        assert_eq!(out.last_day, 3); // the last observed snapshot's day
    }

    #[test]
    fn merge_is_detected_with_strongest_tie() {
        // Snapshot 1: cliques A (0..10) and B (10..16), connected by 2 edges.
        let mut edges = Vec::new();
        clique_edges(0, 10, &mut edges);
        clique_edges(10, 6, &mut edges);
        edges.push((0, 10));
        edges.push((1, 11));
        let g1 = CsrGraph::from_edges(16, &edges);
        let mut tracker = CommunityTracker::new(cfg());
        let s1 = tracker.observe(0, &g1);
        assert_eq!(s1.num_tracked, 2);

        // Snapshot 2: B's members fully join A (every B node connects to
        // every A node) — Louvain now sees one community.
        let mut edges2 = edges.clone();
        for b in 10..16u32 {
            for a in 0..10u32 {
                if !edges2.contains(&(a, b)) {
                    edges2.push((a, b));
                }
            }
        }
        let g2 = CsrGraph::from_edges(16, &edges2);
        let s2 = tracker.observe(3, &g2);
        assert_eq!(s2.num_tracked, 1);

        let out = tracker.finish();
        let deaths: Vec<_> = out
            .events
            .iter()
            .filter_map(|e| match e {
                EvolutionEvent::Death {
                    merged_into,
                    strongest_tie,
                    size,
                    ..
                } => Some((*merged_into, *strongest_tie, *size)),
                _ => None,
            })
            .collect();
        assert_eq!(deaths.len(), 1);
        let (merged_into, tie, size) = deaths[0];
        assert!(merged_into.is_some());
        assert_eq!(size, 6);
        assert_eq!(tie, Some(true));
        // A merge event with sizes 10 and 6 was recorded.
        let merges: Vec<_> = out
            .events
            .iter()
            .filter_map(|e| match e {
                EvolutionEvent::Merge {
                    largest, second, ..
                } => Some((*largest, *second)),
                _ => None,
            })
            .collect();
        assert_eq!(merges, vec![(10, 6)]);
        // The dead record has a lifetime.
        let dead = out.records.iter().find(|r| r.death_day.is_some()).unwrap();
        assert_eq!(dead.lifetime(), Some(3));
    }

    #[test]
    fn equal_merge_keeps_the_same_identity_every_time() {
        // Two equal 10-cliques merge: both predecessors tie on Jaccard
        // with the merged community. Each fresh tracker hashes with
        // fresh keys, so an order-dependent tie break shows as runs that
        // disagree.
        let mut edges = Vec::new();
        clique_edges(0, 10, &mut edges);
        clique_edges(10, 10, &mut edges);
        edges.push((0, 10));
        let g1 = CsrGraph::from_edges(20, &edges);
        let mut merged = Vec::new();
        clique_edges(0, 20, &mut merged);
        let g2 = CsrGraph::from_edges(20, &merged);
        let runs: Vec<(Vec<CommunityRecord>, Vec<EvolutionEvent>)> = (0..20)
            .map(|_| {
                let mut tracker = CommunityTracker::new(cfg());
                assert_eq!(tracker.observe(0, &g1).num_tracked, 2);
                assert_eq!(tracker.observe(3, &g2).num_tracked, 1);
                let out = tracker.finish();
                (out.records, out.events)
            })
            .collect();
        for run in &runs[1..] {
            assert_eq!(run, &runs[0]);
        }
        // The first-listed predecessor (identity 0) lives on.
        let (records, _) = &runs[0];
        assert_eq!(records[0].death_day, None);
        assert_eq!(records[1].death_day, Some(3));
    }

    #[test]
    fn split_is_detected() {
        // Snapshot 1: one 16-clique.
        let mut edges = Vec::new();
        clique_edges(0, 16, &mut edges);
        let g1 = CsrGraph::from_edges(16, &edges);
        let mut tracker = CommunityTracker::new(cfg());
        let s1 = tracker.observe(0, &g1);
        assert_eq!(s1.num_tracked, 1);

        // Snapshot 2: the clique decomposes into two 8-cliques with a
        // single bridge.
        let mut edges2 = Vec::new();
        clique_edges(0, 8, &mut edges2);
        clique_edges(8, 8, &mut edges2);
        edges2.push((0, 8));
        let g2 = CsrGraph::from_edges(16, &edges2);
        let s2 = tracker.observe(3, &g2);
        assert_eq!(s2.num_tracked, 2);

        let out = tracker.finish();
        let splits: Vec<_> = out
            .events
            .iter()
            .filter_map(|e| match e {
                EvolutionEvent::Split {
                    largest, second, ..
                } => Some((*largest, *second)),
                _ => None,
            })
            .collect();
        assert_eq!(splits, vec![(8, 8)]);
        // One child continues the identity, one is born with split_from set.
        let split_births: Vec<_> = out
            .events
            .iter()
            .filter_map(|e| match e {
                EvolutionEvent::Birth {
                    split_from: Some(p),
                    day: 3,
                    ..
                } => Some(*p),
                _ => None,
            })
            .collect();
        assert_eq!(split_births.len(), 1);
    }

    #[test]
    fn vanished_community_dies_without_merge() {
        let mut edges = Vec::new();
        clique_edges(0, 8, &mut edges);
        clique_edges(8, 8, &mut edges);
        let g1 = CsrGraph::from_edges(16, &edges);
        let mut tracker = CommunityTracker::new(cfg());
        tracker.observe(0, &g1);
        // Snapshot 2: second clique's nodes become isolated (degree 0 —
        // below min_size tracking), first clique persists.
        let mut edges2 = Vec::new();
        clique_edges(0, 8, &mut edges2);
        let g2 = CsrGraph::from_edges(16, &edges2);
        tracker.observe(3, &g2);
        let out = tracker.finish();
        let deaths: Vec<_> = out
            .events
            .iter()
            .filter_map(|e| match e {
                EvolutionEvent::Death { merged_into, .. } => Some(*merged_into),
                _ => None,
            })
            .collect();
        assert_eq!(deaths, vec![None]);
    }

    #[test]
    fn final_membership_reflects_last_snapshot() {
        let mut edges = Vec::new();
        clique_edges(0, 8, &mut edges);
        let g = CsrGraph::from_edges(10, &edges);
        let mut tracker = CommunityTracker::new(cfg());
        tracker.observe(0, &g);
        let out = tracker.finish();
        assert_eq!(out.final_membership.len(), 10);
        assert!(out.final_membership[0].is_some());
        assert!(out.final_membership[9].is_none()); // isolated
        assert_eq!(out.final_sizes.len(), 1);
        assert_eq!(*out.final_sizes.values().next().unwrap(), 8);
    }

    #[test]
    fn in_degree_ratio_computed() {
        let mut edges = Vec::new();
        clique_edges(0, 6, &mut edges);
        let g = CsrGraph::from_edges(6, &edges);
        let mut tracker = CommunityTracker::new(cfg());
        tracker.observe(0, &g);
        let out = tracker.finish();
        let h = &out.records[0].history[0];
        assert_eq!(h.size, 6);
        assert_eq!(h.internal_edges, 15);
        assert_eq!(h.degree_sum, 30);
        assert!((h.in_degree_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn export_restore_resumes_identically() {
        // Build two snapshots; export after the first, restore, and check
        // that the resumed tracker's second observation matches the
        // uninterrupted run exactly.
        let mut edges = Vec::new();
        clique_edges(0, 10, &mut edges);
        clique_edges(10, 10, &mut edges);
        edges.push((0, 10));
        let g1 = CsrGraph::from_edges(20, &edges);
        let mut edges2 = edges.clone();
        for i in 0..10 {
            edges2.push((20, i));
        }
        clique_edges(21, 6, &mut edges2);
        let g2 = CsrGraph::from_edges(27, &edges2);

        let mut full = CommunityTracker::new(cfg());
        full.observe(0, &g1);
        let state = full.export_state().expect("state after first observe");
        let s_full = full.observe(3, &g2);

        let mut resumed = CommunityTracker::restore(cfg(), state, g1.clone()).expect("restore");
        let s_res = resumed.observe(3, &g2);
        assert_eq!(s_res.num_tracked, s_full.num_tracked);
        assert_eq!(s_res.modularity.to_bits(), s_full.modularity.to_bits());
        assert_eq!(s_res.sizes, s_full.sizes);
        assert_eq!(s_res.avg_similarity, s_full.avg_similarity);

        let out_full = full.finish();
        let out_res = resumed.finish();
        assert_eq!(out_res.records.len(), out_full.records.len());
        for (a, b) in out_res.records.iter().zip(&out_full.records) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.birth_day, b.birth_day);
            assert_eq!(a.death_day, b.death_day);
            assert_eq!(a.history, b.history);
        }
        assert_eq!(out_res.events, out_full.events);
    }

    #[test]
    fn restore_rejects_inconsistent_state() {
        let mut edges = Vec::new();
        clique_edges(0, 10, &mut edges);
        let g = CsrGraph::from_edges(10, &edges);
        let mut tracker = CommunityTracker::new(cfg());
        tracker.observe(0, &g);
        let state = tracker.export_state().unwrap();
        assert!(tracker.export_state().is_some());
        // Wrong graph size.
        let small = CsrGraph::from_edges(3, &[(0, 1)]);
        assert!(CommunityTracker::restore(cfg(), state.clone(), small).is_err());
        // min_size changed: community count no longer matches.
        let mut strict = cfg();
        strict.min_size = 100;
        assert!(CommunityTracker::restore(strict, state, g).is_err());
        // Nothing observed yet: nothing to export.
        assert!(CommunityTracker::new(cfg()).export_state().is_none());
    }

    #[test]
    fn dropped_step_leaves_the_tracker_unchanged() {
        // Snapshot 2 would merge the cliques; a tracker that computes and
        // drops that step must go on exactly like one that never saw it.
        let mut edges = Vec::new();
        clique_edges(0, 10, &mut edges);
        clique_edges(10, 6, &mut edges);
        edges.push((0, 10));
        let g1 = CsrGraph::from_edges(16, &edges);
        let mut merged = edges.clone();
        for b in 10..16u32 {
            for a in 0..10u32 {
                merged.push((a, b));
            }
        }
        let g2 = CsrGraph::from_edges(16, &merged);
        let mut grown = edges.clone();
        clique_edges(16, 6, &mut grown);
        let g3 = CsrGraph::from_edges(22, &grown);

        let mut clean = CommunityTracker::new(cfg());
        clean.observe(0, &g1);
        let want = clean.observe(6, &g3);

        let mut dropped = CommunityTracker::new(cfg());
        dropped.observe(0, &g1);
        let step = dropped.step(3, &g2);
        assert_eq!(step.summary.num_tracked, 1, "the dropped step merges");
        drop(step);
        let got = dropped.observe(6, &g3);
        assert_eq!(got.sizes, want.sizes);
        assert_eq!(got.modularity.to_bits(), want.modularity.to_bits());
        assert_eq!(got.avg_similarity, want.avg_similarity);
        let (a, b) = (dropped.finish(), clean.finish());
        assert_eq!(a.records, b.records);
        assert_eq!(a.events, b.events);
        assert_eq!(a.final_membership, b.final_membership);
        assert_eq!(a.last_day, b.last_day);
    }

    #[test]
    fn empty_tracker_finishes() {
        let tracker = CommunityTracker::new(cfg());
        let out = tracker.finish();
        assert!(out.records.is_empty());
        assert!(out.final_membership.is_empty());
    }
}
