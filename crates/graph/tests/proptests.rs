//! Property-based tests for the graph substrate.

use osn_graph::io::{read_log, write_log_v2};
use osn_graph::{CsrGraph, EventLogBuilder, NodeId, Origin, Time, UnionFind};
use proptest::prelude::*;

/// Strategy: a random sequence of (time-increment, op) forming a valid
/// event schedule.
fn ops_strategy() -> impl Strategy<Value = Vec<(u64, Option<(u8, u8)>)>> {
    prop::collection::vec(
        (0u64..5_000, prop::option::of((any::<u8>(), any::<u8>()))),
        1..120,
    )
}

proptest! {
    /// The builder only ever produces logs satisfying its invariants,
    /// regardless of the op sequence thrown at it (invalid ops error
    /// without corrupting state).
    #[test]
    fn builder_invariants_hold(ops in ops_strategy()) {
        let mut b = EventLogBuilder::new();
        let mut t = 0u64;
        let mut edges_accepted = 0u64;
        for (dt, op) in ops {
            t += dt;
            match op {
                None => {
                    b.add_node(Time(t), Origin::Core).unwrap();
                }
                Some((x, y)) => {
                    let n = b.num_nodes();
                    if n == 0 {
                        continue;
                    }
                    let u = NodeId(x as u32 % n);
                    let v = NodeId(y as u32 % n);
                    if b.add_edge(Time(t), u, v).is_ok() {
                        edges_accepted += 1;
                    }
                }
            }
        }
        let log = b.build();
        prop_assert_eq!(log.num_edges(), edges_accepted);
        // time-sorted
        for w in log.events().windows(2) {
            prop_assert!(w[0].time <= w[1].time);
        }
        // no duplicate edges, no self-loops
        let mut seen = std::collections::HashSet::new();
        for (_, u, v) in log.edge_events() {
            prop_assert!(u != v);
            prop_assert!(seen.insert((u, v)), "duplicate edge {u:?}-{v:?}");
        }
        // io round-trip is lossless, in v2 and in v1 (the v2 text with
        // its `#%` lines removed)
        let mut buf = Vec::new();
        write_log_v2(&log, &mut buf).unwrap();
        let v1: String = String::from_utf8(buf.clone())
            .unwrap()
            .lines()
            .filter(|l| !l.starts_with("#%"))
            .map(|l| format!("{l}\n"))
            .collect();
        for text in [&buf[..], v1.as_bytes()] {
            let back = read_log(text).unwrap();
            prop_assert_eq!(back.events().len(), log.events().len());
            prop_assert_eq!(back.num_edges(), log.num_edges());
            prop_assert_eq!(back.fingerprint(), log.fingerprint());
        }
    }

    /// CSR construction from any edge set preserves degrees and
    /// symmetric adjacency.
    #[test]
    fn csr_is_symmetric(edges in prop::collection::vec((0u32..40, 0u32..40), 0..120)) {
        // sanitise: drop self-loops and duplicates
        let mut set = std::collections::HashSet::new();
        let edges: Vec<(u32, u32)> = edges
            .into_iter()
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| if a < b { (a, b) } else { (b, a) })
            .filter(|e| set.insert(*e))
            .collect();
        let g = CsrGraph::from_edges(40, &edges);
        prop_assert_eq!(g.num_edges(), edges.len() as u64);
        for u in 0..40u32 {
            for &v in g.neighbors(u) {
                prop_assert!(g.has_edge(v, u), "asymmetric edge {u}-{v}");
            }
            // sorted, unique
            let n = g.neighbors(u);
            prop_assert!(n.windows(2).all(|w| w[0] < w[1]));
        }
        let degree_sum: usize = (0..40u32).map(|u| g.degree(u)).sum();
        prop_assert_eq!(degree_sum as u64, 2 * g.num_edges());
    }

    /// Union-find: set sizes always partition the universe; connectivity
    /// is transitive and symmetric.
    #[test]
    fn unionfind_partitions(pairs in prop::collection::vec((0u32..30, 0u32..30), 0..60)) {
        let mut uf = UnionFind::new(30);
        for &(a, b) in &pairs {
            uf.union(a, b);
        }
        // sizes partition
        let mut total = 0u32;
        let mut reps = std::collections::HashSet::new();
        for x in 0..30 {
            let r = uf.find(x);
            if reps.insert(r) {
                total += uf.set_size(x);
            }
        }
        prop_assert_eq!(total, 30);
        prop_assert_eq!(reps.len(), uf.num_sets());
        // symmetry & transitivity through the union history
        for &(a, b) in &pairs {
            prop_assert!(uf.connected(a, b));
            prop_assert!(uf.connected(b, a));
        }
    }

    /// Time arithmetic: day indexing is consistent with day bounds.
    #[test]
    fn time_day_consistency(secs in 0u64..10_000_000_000) {
        let t = Time(secs);
        let d = t.day();
        prop_assert!(Time::day_start(d) <= t);
        prop_assert!(t < Time::day_end(d));
        prop_assert!((t.as_days_f64() - d as f64) < 1.0 + 1e-9);
    }
}
