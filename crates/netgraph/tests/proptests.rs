//! Property tests for the graph substrate.
//!
//! Dijkstra is cross-checked against an independent Bellman-Ford
//! implementation; Yen's generator is checked against exhaustive loopless
//! path enumeration; Dinic is checked against brute-force cut enumeration.

use proptest::prelude::*;

use lowlat_netgraph::{
    max_flow, max_flow_masked, shortest_path, shortest_path_tree, FailureMask, Graph, GraphBuilder,
    KspGenerator, NodeId,
};

/// The physically rebuilt subgraph: same node set, failed links dropped,
/// degraded capacities baked in. The oracle the masked algorithms must
/// agree with.
fn rebuild_without(g: &Graph, mask: &FailureMask) -> Graph {
    let mut b = GraphBuilder::new(g.node_count());
    for l in g.link_ids() {
        let factor = mask.capacity_factor(g, l);
        if factor > 0.0 {
            let link = g.link(l);
            b.add_link(link.src, link.dst, link.delay_ms, link.capacity_mbps * factor);
        }
    }
    b.build()
}

/// A failure mask downing every `stride`-th cable-ish link (deterministic
/// in the graph, so shrinking stays meaningful).
fn stride_mask(g: &Graph, stride: usize) -> FailureMask {
    let mut mask = FailureMask::new();
    for l in g.link_ids().filter(|l| l.idx() % stride == 0) {
        mask.fail_link(l);
    }
    mask
}

/// A random strongly-connectable graph: a duplex ring (guaranteeing strong
/// connectivity) plus random duplex chords.
fn arb_graph(max_nodes: usize, max_extra: usize) -> impl Strategy<Value = Graph> {
    (
        3..=max_nodes,
        proptest::collection::vec(
            (any::<u32>(), any::<u32>(), 1u32..1000, 1u32..1000),
            0..max_extra,
        ),
    )
        .prop_map(|(n, extras)| {
            let mut b = GraphBuilder::new(n);
            for i in 0..n {
                let j = (i + 1) % n;
                b.add_duplex(NodeId(i as u32), NodeId(j as u32), 1.0 + (i as f64), 100.0);
            }
            for (x, y, d, c) in extras {
                let u = (x as usize) % n;
                let v = (y as usize) % n;
                if u != v {
                    b.add_duplex(NodeId(u as u32), NodeId(v as u32), d as f64 / 10.0, c as f64);
                }
            }
            b.build()
        })
}

/// Reference Bellman-Ford distances from `s`.
fn bellman_ford(g: &Graph, s: NodeId) -> Vec<f64> {
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    dist[s.idx()] = 0.0;
    for _ in 0..n {
        let mut changed = false;
        for l in g.link_ids() {
            let link = g.link(l);
            let nd = dist[link.src.idx()] + link.delay_ms;
            if nd < dist[link.dst.idx()] - 1e-12 {
                dist[link.dst.idx()] = nd;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

/// Exhaustive loopless path enumeration (for tiny graphs only).
fn all_loopless_paths(g: &Graph, s: NodeId, t: NodeId) -> Vec<f64> {
    fn rec(
        g: &Graph,
        at: NodeId,
        t: NodeId,
        visited: &mut Vec<bool>,
        delay: f64,
        out: &mut Vec<f64>,
    ) {
        if at == t {
            out.push(delay);
            return;
        }
        for l in g.out_links(at) {
            let link = g.link(l);
            if !visited[link.dst.idx()] {
                visited[link.dst.idx()] = true;
                rec(g, link.dst, t, visited, delay + link.delay_ms, out);
                visited[link.dst.idx()] = false;
            }
        }
    }
    let mut visited = vec![false; g.node_count()];
    visited[s.idx()] = true;
    let mut out = Vec::new();
    rec(g, s, t, &mut visited, 0.0, &mut out);
    out.sort_by(|a, b| a.partial_cmp(b).unwrap());
    out
}

/// Brute-force minimum s-t cut: every node bipartition with `s` on the
/// source side and `t` on the sink side, capacity of the crossing links.
/// Exponential, so tiny graphs only.
fn brute_force_min_cut(g: &Graph, s: NodeId, t: NodeId) -> f64 {
    let n = g.node_count();
    assert!(n <= 16, "2^n enumeration");
    let mut best = f64::INFINITY;
    for mask in 0u32..(1 << n) {
        if mask & (1 << s.idx()) == 0 || mask & (1 << t.idx()) != 0 {
            continue;
        }
        let mut cap = 0.0;
        for l in g.link_ids() {
            let link = g.link(l);
            if mask & (1 << link.src.idx()) != 0 && mask & (1 << link.dst.idx()) == 0 {
                cap += link.capacity_mbps;
            }
        }
        best = best.min(cap);
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dijkstra_matches_bellman_ford(g in arb_graph(12, 20)) {
        let tree = shortest_path_tree(&g, NodeId(0), None, None);
        let reference = bellman_ford(&g, NodeId(0));
        for v in g.nodes() {
            let (a, b) = (tree.dist_ms(v), reference[v.idx()]);
            prop_assert!((a - b).abs() < 1e-6, "node {v:?}: dijkstra {a} vs bf {b}");
        }
    }

    #[test]
    fn dijkstra_path_delay_equals_distance(g in arb_graph(12, 20)) {
        let tree = shortest_path_tree(&g, NodeId(0), None, None);
        for v in g.nodes().skip(1) {
            if let Some(p) = tree.path_to(&g, v) {
                prop_assert!((p.delay_ms() - tree.dist_ms(v)).abs() < 1e-9);
                prop_assert!(p.validate(&g).is_ok());
            }
        }
    }

    #[test]
    fn yen_enumerates_exactly_all_loopless_paths(g in arb_graph(7, 6)) {
        let (s, t) = (NodeId(0), NodeId(1));
        let expected = all_loopless_paths(&g, s, t);
        let mut gen = KspGenerator::new(&g, s, t);
        let mut got = Vec::new();
        while let Some(p) = gen.next_path() {
            prop_assert!(p.validate(&g).is_ok());
            got.push(p.delay_ms());
            prop_assert!(got.len() <= expected.len(), "yen produced too many paths");
        }
        prop_assert_eq!(got.len(), expected.len());
        for (a, b) in got.iter().zip(expected.iter()) {
            prop_assert!((a - b).abs() < 1e-9, "delay multiset mismatch: {a} vs {b}");
        }
    }

    #[test]
    fn yen_is_sorted_and_distinct(g in arb_graph(9, 10)) {
        let (s, t) = (NodeId(0), NodeId(2));
        let mut gen = KspGenerator::new(&g, s, t);
        let mut prev = 0.0f64;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..25 {
            match gen.next_path() {
                Some(p) => {
                    prop_assert!(p.delay_ms() >= prev - 1e-12);
                    prev = p.delay_ms();
                    prop_assert!(seen.insert(p.links().to_vec()));
                }
                None => break,
            }
        }
    }

    #[test]
    fn max_flow_equals_min_cut(g in arb_graph(8, 10)) {
        // Strong duality for Dinic — the solver behind LLPD's APA
        // viability test (`min_cut_of_links`). The cut side is independent
        // brute force, so agreement pins both directions of the LP-free
        // bound.
        let (s, t) = (NodeId(0), NodeId((g.node_count() - 1) as u32));
        let flow = max_flow(&g, s, t);
        let cut = brute_force_min_cut(&g, s, t);
        prop_assert!(
            (flow - cut).abs() <= 1e-6 * (1.0 + cut.abs()),
            "max-flow {flow} != min-cut {cut}"
        );
    }

    #[test]
    fn max_flow_at_most_cut_of_source_and_sink(g in arb_graph(10, 15)) {
        let (s, t) = (NodeId(0), NodeId(1));
        let f = max_flow(&g, s, t);
        let out_cap: f64 = g.out_links(s).map(|l| g.link(l).capacity_mbps).sum();
        let in_cap: f64 = g.in_links(t).map(|l| g.link(l).capacity_mbps).sum();
        prop_assert!(f <= out_cap + 1e-6);
        prop_assert!(f <= in_cap + 1e-6);
        prop_assert!(f > 0.0, "ring guarantees connectivity");
    }

    #[test]
    fn masked_dijkstra_equals_rebuilt_subgraph(g in arb_graph(12, 20), stride in 2usize..5) {
        // A failed topology as a *view* must agree with the failed topology
        // as a *rebuild*: distances under the mask equal distances on the
        // graph with the failed links physically removed.
        let mask = stride_mask(&g, stride);
        let rebuilt = rebuild_without(&g, &mask);
        let masked = shortest_path_tree(&g, NodeId(0), mask.link_mask(), mask.node_mask());
        let reference = shortest_path_tree(&rebuilt, NodeId(0), None, None);
        for v in g.nodes() {
            let (a, b) = (masked.dist_ms(v), reference.dist_ms(v));
            prop_assert!(
                (a == b) || (a - b).abs() < 1e-9,
                "node {v:?}: masked {a} vs rebuilt {b}"
            );
        }
    }

    #[test]
    fn masked_dijkstra_with_node_failures_equals_rebuilt(g in arb_graph(12, 20)) {
        // Down one non-terminal node by masking it; the rebuild drops every
        // incident link. (Source stays up so both sides root identically.)
        let victim = NodeId((g.node_count() - 1) as u32);
        let mut mask = FailureMask::new();
        mask.fail_node(victim);
        // capacity_factor is 0 for links incident to a downed node, so the
        // shared rebuild helper drops exactly the victim's links.
        let rebuilt = rebuild_without(&g, &mask);
        let masked = shortest_path_tree(&g, NodeId(0), mask.link_mask(), mask.node_mask());
        let reference = shortest_path_tree(&rebuilt, NodeId(0), None, None);
        for v in g.nodes().filter(|&v| v != victim) {
            let (a, b) = (masked.dist_ms(v), reference.dist_ms(v));
            prop_assert!(
                (a == b) || (a - b).abs() < 1e-9,
                "node {v:?}: masked {a} vs rebuilt {b}"
            );
        }
    }

    #[test]
    fn masked_max_flow_equals_rebuilt_subgraph(g in arb_graph(10, 12), stride in 2usize..5) {
        let mask = stride_mask(&g, stride);
        let rebuilt = rebuild_without(&g, &mask);
        let (s, t) = (NodeId(0), NodeId((g.node_count() / 2) as u32));
        let a = max_flow_masked(&g, s, t, &mask);
        let b = max_flow(&rebuilt, s, t);
        prop_assert!((a - b).abs() <= 1e-6 * (1.0 + b.abs()), "masked {a} vs rebuilt {b}");
    }

    #[test]
    fn degraded_max_flow_equals_rebuilt_subgraph(g in arb_graph(10, 12), stride in 2usize..4) {
        // Degradation: every stride-th link at 30% capacity, the next one
        // down entirely — the mixed overlay the sweep generators produce.
        let mut mask = FailureMask::new();
        for l in g.link_ids() {
            match l.idx() % (2 * stride) {
                0 => { mask.degrade_link(l, 0.3); }
                1 => { mask.fail_link(l); }
                _ => {}
            }
        }
        let rebuilt = rebuild_without(&g, &mask);
        let (s, t) = (NodeId(0), NodeId(1));
        let a = max_flow_masked(&g, s, t, &mask);
        let b = max_flow(&rebuilt, s, t);
        prop_assert!((a - b).abs() <= 1e-6 * (1.0 + b.abs()), "masked {a} vs rebuilt {b}");
    }

    #[test]
    fn masked_yen_equals_rebuilt_subgraph(g in arb_graph(7, 6), stride in 3usize..6) {
        // Masked Yen must produce the same delay sequence as Yen on the
        // rebuilt subgraph (path link ids differ; delays are comparable).
        let mask = stride_mask(&g, stride);
        let rebuilt = rebuild_without(&g, &mask);
        let (s, t) = (NodeId(0), NodeId(1));
        let mut masked = KspGenerator::under_mask(&g, s, t, &mask);
        let mut reference = KspGenerator::new(&rebuilt, s, t);
        for _ in 0..12 {
            match (masked.next_path(), reference.next_path()) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    prop_assert!(
                        (a.delay_ms() - b.delay_ms()).abs() < 1e-9,
                        "masked {} vs rebuilt {}", a.delay_ms(), b.delay_ms()
                    );
                    for &l in a.links() {
                        prop_assert!(!mask.link_down(&g, l));
                    }
                }
                (a, b) => prop_assert!(false, "path count mismatch: {:?} vs {:?}", a.map(|p| p.delay_ms()), b.map(|p| p.delay_ms())),
            }
        }
    }

    #[test]
    fn shortest_path_never_uses_masked_link(g in arb_graph(10, 10)) {
        use lowlat_netgraph::BitSet;
        let mut mask = BitSet::new(g.link_count());
        // Mask every even link.
        for l in g.link_ids().filter(|l| l.idx() % 2 == 0) {
            mask.insert(l.idx());
        }
        if let Some(p) = shortest_path(&g, NodeId(0), NodeId(1), Some(&mask), None) {
            for &l in p.links() {
                prop_assert!(!mask.contains(l.idx()));
            }
        }
    }
}
