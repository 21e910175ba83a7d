//! Cross-crate graph consistency: the dynamic graph, CSR snapshots, the
//! snapshot iterator, and the text serialisation all agree about a
//! generated trace.

use multiscale_osn::genstream::{TraceConfig, TraceGenerator};
use multiscale_osn::graph::io::{read_log, write_log_v2};
use multiscale_osn::graph::{DailySnapshots, DynamicGraph, NodeId, Replayer, Time};
use multiscale_osn::metrics::components::component_sizes;

#[test]
fn dynamic_and_csr_agree() {
    let log = TraceGenerator::new(TraceConfig::tiny()).generate();
    let mut g = DynamicGraph::new();
    for e in log.events() {
        g.apply(e).expect("generated traces replay cleanly");
    }
    let csr = g.freeze();
    assert_eq!(csr.num_nodes(), g.num_nodes());
    assert_eq!(csr.num_edges(), g.num_edges());
    for u in 0..g.num_nodes() as u32 {
        assert_eq!(csr.neighbors(u), g.neighbors(NodeId(u)));
        assert_eq!(csr.degree(u), g.degree(NodeId(u)));
    }
}

#[test]
fn snapshots_match_manual_replay() {
    let log = TraceGenerator::new(TraceConfig::tiny()).generate();
    let snaps: Vec<_> = DailySnapshots::new(&log, 10, 37).collect();
    for snap in &snaps {
        let mut r = Replayer::new(&log);
        r.advance_through_day(snap.day);
        assert_eq!(r.graph().num_nodes(), snap.num_nodes, "day {}", snap.day);
        assert_eq!(r.graph().num_edges(), snap.num_edges, "day {}", snap.day);
    }
    // Snapshots are monotone in size.
    for w in snaps.windows(2) {
        assert!(w[0].num_nodes <= w[1].num_nodes);
        assert!(w[0].num_edges <= w[1].num_edges);
    }
}

#[test]
fn degree_sums_are_conserved() {
    let log = TraceGenerator::new(TraceConfig::tiny()).generate();
    let mut r = Replayer::new(&log);
    r.advance_to_end();
    let g = r.freeze();
    let degree_sum: u64 = (0..g.num_nodes() as u32).map(|u| g.degree(u) as u64).sum();
    assert_eq!(degree_sum, 2 * log.num_edges());
    // Component sizes partition the node set.
    let total: u64 = component_sizes(&g).iter().map(|&s| s as u64).sum();
    assert_eq!(total, g.num_nodes() as u64);
}

#[test]
fn serialisation_roundtrip_preserves_analysis_inputs() {
    let log = TraceGenerator::new(TraceConfig::tiny()).generate();
    let mut buf = Vec::new();
    write_log_v2(&log, &mut buf).expect("serialise");
    let back = read_log(&buf[..]).expect("parse");
    assert_eq!(back.num_nodes(), log.num_nodes());
    assert_eq!(back.num_edges(), log.num_edges());
    assert_eq!(back.end_day(), log.end_day());
    // Join times and origins survive.
    for u in 0..log.num_nodes() {
        let id = NodeId(u);
        assert_eq!(back.join_time(id), log.join_time(id));
        assert_eq!(back.origin(id), log.origin(id));
    }
    // Daily counts identical.
    assert_eq!(back.daily_counts(), log.daily_counts());
}

#[test]
fn pre_merge_networks_are_disjoint_components() {
    let cfg = TraceConfig::tiny();
    let merge_day = cfg.merge.as_ref().unwrap().merge_day;
    let log = TraceGenerator::new(cfg).generate();
    let mut r = Replayer::new(&log);
    r.advance_to(Time::day_start(merge_day));
    let g = r.freeze();
    // No edge crosses the networks before the merge: every component is
    // single-origin.
    let mut uf = multiscale_osn::graph::UnionFind::new(g.num_nodes());
    for (u, v) in g.edges() {
        uf.union(u, v);
    }
    for u in 0..g.num_nodes() as u32 {
        for v in 0..g.num_nodes() as u32 {
            if u < v && uf.connected(u, v) {
                assert_eq!(
                    log.origin(NodeId(u)),
                    log.origin(NodeId(v)),
                    "{u} and {v} connected across networks pre-merge"
                );
            }
        }
    }
}
