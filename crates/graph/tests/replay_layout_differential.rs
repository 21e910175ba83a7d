//! `DynamicGraph`'s one-buffer layout against a `Vec<Vec<u32>>` oracle on
//! random valid logs, in three set-ups: room from the log's final degrees
//! (what `Replayer` does), no room at all (`DynamicGraph::new`), and room
//! one short of every final degree, so that every list outgrows its slot
//! and moves. At random cut points `neighbors`, `degree`, `has_edge` and
//! `freeze()` must match the oracle; a rejected event must leave the graph
//! as it was and never reach the observer; and the observer must see both
//! endpoints' lists as they were before each insert. Three arrival
//! orders are checked on top of the random ones, each the worst or best
//! case for inserting from a list's end: every insert at the front, every
//! insert an append, and one hub growing to 1,000 neighbours in shuffled
//! order.

use osn_graph::{
    CsrGraph, DeltaObserver, DynamicGraph, Event, EventKind, EventLog, EventLogBuilder, NodeId,
    Origin, Time,
};
use proptest::prelude::*;

/// A valid log from `steps`: node arrivals, and edges biased towards low
/// ids so that a few lists grow long. Invalid picks are simply refused.
fn random_log(steps: &[(u8, u32, u32)]) -> EventLog {
    let mut b = EventLogBuilder::new();
    b.add_node(Time(0), Origin::Core).expect("first node");
    for (i, &(kind, x, y)) in steps.iter().enumerate() {
        let t = Time(i as u64 * 600);
        let n = b.num_nodes();
        let _ = match kind {
            0..=2 => b.add_node(t, Origin::Core).map(drop),
            3..=5 => b.add_edge(t, NodeId(x % n.min(5)), NodeId(y % n)),
            _ => b.add_edge(t, NodeId(x % n), NodeId(y % n)),
        };
    }
    b.build()
}

/// Checks, from inside `apply_with`, that the graph still shows both
/// endpoints' lists as the oracle holds them before the insert.
struct PreInsert<'a> {
    oracle: &'a [Vec<u32>],
    calls: usize,
    mismatch: Option<String>,
}

impl DeltaObserver for PreInsert<'_> {
    fn node_added(&mut self, g: &DynamicGraph, node: NodeId, _: Origin, _: Time) {
        self.calls += 1;
        if g.num_nodes() != node.index() {
            self.mismatch = Some(format!("node {node:?} seen after its push"));
        }
    }

    fn edge_added(&mut self, g: &DynamicGraph, u: NodeId, v: NodeId) {
        self.calls += 1;
        for w in [u, v] {
            if g.neighbors(w) != &self.oracle[w.index()][..] {
                self.mismatch = Some(format!("edge {u:?}-{v:?}: list of {w:?} is not pre-insert"));
            }
        }
    }
}

fn same_as_oracle(g: &DynamicGraph, oracle: &[Vec<u32>], edges: u64) -> Result<(), TestCaseError> {
    prop_assert_eq!(g.num_nodes(), oracle.len());
    prop_assert_eq!(g.num_edges(), edges);
    for (u, list) in oracle.iter().enumerate() {
        let node = NodeId(u as u32);
        prop_assert_eq!(g.neighbors(node), &list[..], "neighbors of {}", u);
        prop_assert_eq!(g.degree(node), list.len());
        for x in 0..=oracle.len() as u32 {
            prop_assert_eq!(g.has_edge(node, NodeId(x)), list.binary_search(&x).is_ok());
        }
    }
    prop_assert_eq!(g.degree(NodeId(oracle.len() as u32)), 0);
    let frozen = g.freeze();
    let want = CsrGraph::from_sorted_adjacency(oracle, g.now());
    prop_assert_eq!(frozen.num_nodes(), want.num_nodes());
    prop_assert_eq!(frozen.num_edges(), want.num_edges());
    prop_assert_eq!(frozen.taken_at(), want.taken_at());
    for u in 0..oracle.len() as u32 {
        prop_assert_eq!(frozen.neighbors(u), want.neighbors(u));
    }
    Ok(())
}

/// Events the graph must refuse at this point, given the oracle: a node
/// id out of turn, an unknown endpoint, a self-loop and, once there are
/// edges, a repeated edge in both orders.
fn refused_events(oracle: &[Vec<u32>], pick: u32) -> Vec<Event> {
    let n = oracle.len() as u32;
    let some = NodeId(pick % n.max(1));
    let mut bad = vec![
        Event::node(Time(u64::MAX), NodeId(n + 1), Origin::Core),
        Event::edge(Time(u64::MAX), some, NodeId(n)),
        Event {
            time: Time(u64::MAX),
            kind: EventKind::AddEdge { u: some, v: some },
        },
    ];
    if let Some((u, list)) = oracle.iter().enumerate().find(|(_, l)| !l.is_empty()) {
        let (u, v) = (NodeId(u as u32), NodeId(list[pick as usize % list.len()]));
        for (a, b) in [(u, v), (v, u)] {
            bad.push(Event {
                time: Time(u64::MAX),
                kind: EventKind::AddEdge { u: a, v: b },
            });
        }
    }
    bad
}

/// Replay `log` into `g`, checking against the oracle at the cut points
/// `cuts` picks, and trying every refused event there.
fn replay_matches(mut g: DynamicGraph, log: &EventLog, cuts: &[u32]) -> Result<(), TestCaseError> {
    let mut oracle: Vec<Vec<u32>> = Vec::new();
    let mut edges = 0u64;
    let events = log.events();
    let mut at: Vec<usize> = cuts
        .iter()
        .map(|&c| c as usize % (events.len() + 1))
        .collect();
    at.sort_unstable();
    let mut next_cut = 0;
    for (i, e) in events.iter().enumerate() {
        while at.get(next_cut) == Some(&i) {
            same_as_oracle(&g, &oracle, edges)?;
            for bad in refused_events(&oracle, cuts[next_cut]) {
                let mut obs = PreInsert {
                    oracle: &oracle,
                    calls: 0,
                    mismatch: None,
                };
                let now = g.now();
                prop_assert!(g.apply_with(&bad, &mut obs).is_err(), "{:?} accepted", bad);
                prop_assert_eq!(obs.calls, 0, "observer saw refused {:?}", bad);
                prop_assert_eq!(g.now(), now);
            }
            same_as_oracle(&g, &oracle, edges)?;
            next_cut += 1;
        }
        let mut obs = PreInsert {
            oracle: &oracle,
            calls: 0,
            mismatch: None,
        };
        g.apply_with(e, &mut obs).expect("valid log");
        prop_assert_eq!(obs.calls, 1);
        if let Some(m) = obs.mismatch {
            return Err(TestCaseError::Fail(m));
        }
        match e.kind {
            EventKind::AddNode { .. } => oracle.push(Vec::new()),
            EventKind::AddEdge { u, v } => {
                for (a, b) in [(u, v), (v, u)] {
                    let list = &mut oracle[a.index()];
                    let pos = list.binary_search(&b.0).expect_err("valid log");
                    list.insert(pos, b.0);
                }
                edges += 1;
            }
        }
    }
    same_as_oracle(&g, &oracle, edges)
}

fn steps() -> impl Strategy<Value = Vec<(u8, u32, u32)>> {
    prop::collection::vec((0u8..10, any::<u32>(), any::<u32>()), 0..600)
}

fn cuts() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(any::<u32>(), 1..6)
}

proptest! {
    #[test]
    fn lists_laid_out_from_final_degrees_match(steps in steps(), cuts in cuts()) {
        let log = random_log(&steps);
        replay_matches(DynamicGraph::with_degrees(log.degrees()), &log, &cuts)?;
    }

    #[test]
    fn lists_grown_without_degrees_match(steps in steps(), cuts in cuts()) {
        let log = random_log(&steps);
        replay_matches(DynamicGraph::new(), &log, &cuts)?;
    }

    #[test]
    fn lists_that_outgrow_their_room_match(steps in steps(), cuts in cuts()) {
        let log = random_log(&steps);
        let short: Vec<u32> = log.degrees().iter().map(|d| d.saturating_sub(1)).collect();
        replay_matches(DynamicGraph::with_degrees(&short), &log, &cuts)?;
    }
}

/// `nodes` nodes, then `edges` in the order given, one second apart.
fn log_of(nodes: u32, edges: impl IntoIterator<Item = (u32, u32)>) -> EventLog {
    let mut b = EventLogBuilder::new();
    for _ in 0..nodes {
        b.add_node(Time(0), Origin::Core).expect("dense ids");
    }
    for (i, (u, v)) in edges.into_iter().enumerate() {
        b.add_edge(Time(1 + i as u64), NodeId(u), NodeId(v))
            .expect("a new edge between known nodes");
    }
    b.build()
}

/// Where each insert of `log` lands: `(position, length before)`.
fn insert_places(log: &EventLog) -> Vec<(usize, usize)> {
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); log.num_nodes() as usize];
    let mut places = Vec::new();
    for (_, u, v) in log.edge_events() {
        for (a, b) in [(u, v), (v, u)] {
            let list = &mut lists[a.index()];
            let pos = list.binary_search(&b.0).expect_err("a new edge");
            places.push((pos, list.len()));
            list.insert(pos, b.0);
        }
    }
    places
}

/// The three layouts on one log, cut a third and two thirds of the way in.
fn every_layout_matches(log: &EventLog) {
    let n = log.events().len() as u32;
    let cuts = [n / 3, 2 * n / 3];
    let short: Vec<u32> = log.degrees().iter().map(|d| d.saturating_sub(1)).collect();
    for g in [
        DynamicGraph::with_degrees(log.degrees()),
        DynamicGraph::new(),
        DynamicGraph::with_degrees(&short),
    ] {
        replay_matches(g, log, &cuts).expect("matches the oracle");
    }
}

#[test]
fn lists_match_when_every_insert_lands_at_the_front() {
    // Pairs in falling order: each list only ever receives an id below
    // every id it holds.
    let n = 48;
    let log = log_of(
        n,
        (0..n)
            .rev()
            .flat_map(|a| (a + 1..n).rev().map(move |b| (a, b))),
    );
    let places = insert_places(&log);
    assert_eq!(places.len(), (n * (n - 1)) as usize);
    assert!(places.iter().all(|&(pos, _)| pos == 0));
    every_layout_matches(&log);
}

#[test]
fn lists_match_when_every_insert_is_an_append() {
    let n = 48;
    let log = log_of(n, (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b))));
    let places = insert_places(&log);
    assert_eq!(places.len(), (n * (n - 1)) as usize);
    assert!(places.iter().all(|&(pos, len)| pos == len));
    every_layout_matches(&log);
}

#[test]
fn lists_match_when_one_hub_grows_to_a_thousand_neighbours() {
    // The generator's `friend_cap`: hub 500 meets every other node of
    // 0..=1000 in an order shuffled by a fixed LCG.
    let hub = 500;
    let mut others: Vec<u32> = (0..=1000).filter(|&x| x != hub).collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..others.len()).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        others.swap(i, (state >> 33) as usize % (i + 1));
    }
    let log = log_of(1001, others.iter().map(|&x| (hub, x)));
    assert_eq!(log.degrees()[hub as usize], 1000);
    let inside = insert_places(&log)
        .iter()
        .filter(|&&(pos, len)| 0 < pos && pos < len)
        .count();
    assert!(inside > 900, "only {inside} inserts land inside a list");
    every_layout_matches(&log);
}
