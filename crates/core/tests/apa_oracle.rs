//! Cross-checks the APA computation against an independent oracle: bridge
//! detection. A cable that is a bridge can never be routed around, so every
//! shortest path crossing it must lose APA credit for that hop — whatever
//! the stretch limit or capacities.
//!
//! A bridge is a cable whose removal disconnects the graph — the purest
//! form of "no alternate path". The oracle ([`bridges`], with its own tests
//! at the bottom of this file) is Tarjan's low-link algorithm, iterative to
//! keep recursion off large graphs, treating each duplex pair of directed
//! links as one undirected edge (parallel cables between the same PoPs are
//! never bridges).

use proptest::prelude::*;

use lowlat_core::llpd::{LlpdAnalysis, LlpdConfig};
use lowlat_netgraph::{Graph, LinkId};
use lowlat_topology::{zoo, GeoPoint, Topology, TopologyBuilder};

/// Returns the bridges as directed-link ids (one per duplex pair: the
/// direction with the smaller id), sorted.
fn bridges(graph: &Graph) -> Vec<LinkId> {
    let n = graph.node_count();
    if n == 0 {
        return Vec::new();
    }
    // Undirected edge list: (u, v, representative link id), deduping the
    // two directions via min(link, reverse-candidate).
    let mut edges: Vec<(usize, usize, LinkId)> = Vec::new();
    for l in graph.link_ids() {
        let link = graph.link(l);
        let (u, v) = (link.src.idx(), link.dst.idx());
        if u < v {
            edges.push((u, v, l));
        } else {
            // Keep only if no forward twin exists (pure one-way links).
            if graph.find_link(link.dst, link.src).is_none() {
                edges.push((v, u, l));
            }
        }
    }
    // Multi-edges between the same pair: group and remember multiplicity.
    edges.sort_by_key(|&(u, v, _)| (u, v));
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n]; // (other, edge idx)
    let mut uniq: Vec<(usize, usize, LinkId, usize)> = Vec::new(); // + multiplicity
    for &(u, v, l) in &edges {
        match uniq.last_mut() {
            Some(last) if last.0 == u && last.1 == v => last.3 += 1,
            _ => uniq.push((u, v, l, 1)),
        }
    }
    for (i, &(u, v, _, _)) in uniq.iter().enumerate() {
        adj[u].push((v, i));
        adj[v].push((u, i));
    }

    let mut disc = vec![usize::MAX; n];
    let mut low = vec![usize::MAX; n];
    let mut timer = 0usize;
    let mut out = Vec::new();
    // Iterative DFS: stack of (node, parent edge idx, next adjacency slot).
    for root in 0..n {
        if disc[root] != usize::MAX {
            continue;
        }
        let mut stack: Vec<(usize, usize, usize)> = vec![(root, usize::MAX, 0)];
        disc[root] = timer;
        low[root] = timer;
        timer += 1;
        while !stack.is_empty() {
            let top = stack.len() - 1;
            let (u, pe, slot) = stack[top];
            if slot < adj[u].len() {
                stack[top].2 += 1;
                let (v, ei) = adj[u][slot];
                if ei == pe {
                    continue; // don't re-use the tree edge to the parent
                }
                if disc[v] == usize::MAX {
                    disc[v] = timer;
                    low[v] = timer;
                    timer += 1;
                    stack.push((v, ei, 0));
                } else {
                    low[u] = low[u].min(disc[v]);
                }
            } else {
                stack.pop();
                if let Some(&(p, _, _)) = stack.last() {
                    low[p] = low[p].min(low[u]);
                    if low[u] > disc[p] {
                        // The tree edge p-u is a bridge unless multi-edge.
                        let (_, _, l, mult) = uniq[pe];
                        if mult == 1 {
                            out.push(l);
                        }
                    }
                }
            }
        }
    }
    out.sort();
    out
}

/// Random sparse topology with guaranteed bridges: a backbone ring plus
/// pendant chains hanging off it.
fn arb_topology_with_pendants() -> impl Strategy<Value = Topology> {
    (4usize..=7, 1usize..=3, any::<u64>()).prop_map(|(ring_n, pendants, seed)| {
        let mut b = TopologyBuilder::new("pendant");
        let ring: Vec<_> = (0..ring_n)
            .map(|i| {
                let ang = 2.0 * std::f64::consts::PI * i as f64 / ring_n as f64;
                b.add_pop(
                    format!("r{i}"),
                    GeoPoint::new(45.0 + 4.0 * ang.sin(), -100.0 + 5.0 * ang.cos()),
                )
            })
            .collect();
        for i in 0..ring_n {
            b.connect(ring[i], ring[(i + 1) % ring_n], 10_000.0);
        }
        for j in 0..pendants {
            let attach = ring[(seed as usize + j * 3) % ring_n];
            let p =
                b.add_pop(format!("p{j}"), GeoPoint::new(45.0 + 6.0 + j as f64, -100.0 + j as f64));
            b.connect(attach, p, 10_000.0); // pendant cable = bridge
        }
        b.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pairs_crossing_bridges_lose_apa_credit(topo in arb_topology_with_pendants()) {
        let graph = topo.graph();
        let bridge_set: std::collections::HashSet<u32> = bridges(graph)
            .into_iter()
            .flat_map(|l| [l.0, topo.reverse_link(l).0])
            .collect();
        prop_assume!(!bridge_set.is_empty());
        let analysis = LlpdAnalysis::compute(&topo, &LlpdConfig::default());
        for ((s, d), &apa) in topo.unordered_pairs().iter().zip(analysis.apa_values()) {
            let sp = lowlat_netgraph::shortest_path(graph, *s, *d, None, None).unwrap();
            let bridge_hops =
                sp.links().iter().filter(|l| bridge_set.contains(&l.0)).count();
            let max_apa = 1.0 - bridge_hops as f64 / sp.links().len() as f64;
            prop_assert!(
                apa <= max_apa + 1e-9,
                "pair {s:?}-{d:?}: APA {apa} exceeds bridge bound {max_apa} \
                 ({bridge_hops} bridges on {} hops)",
                sp.links().len()
            );
        }
    }

    #[test]
    fn bridgeless_2_connected_graphs_have_positive_apa_somewhere(seed in any::<u64>()) {
        // A chorded ring is 2-edge-connected: no bridges; with a generous
        // stretch limit every link can be routed around in principle, so at
        // least the best-served pair must have APA > 0.
        let topo = zoo::ring(8, 2, zoo::EUROPE, seed % 512);
        prop_assume!(bridges(topo.graph()).is_empty());
        let generous = LlpdConfig { stretch_limit: 50.0 };
        let analysis = LlpdAnalysis::compute(&topo, &generous);
        let best = analysis.apa_values().iter().cloned().fold(0.0, f64::max);
        prop_assert!(best > 0.0, "2-edge-connected graph with zero APA everywhere");
    }

    #[test]
    fn trees_are_all_bridges_and_zero_apa(n in 4usize..12, seed in any::<u64>()) {
        let topo = zoo::tree(n, 0.4, zoo::USA, seed % 512);
        // Every cable of a tree is a bridge...
        prop_assert_eq!(bridges(topo.graph()).len(), topo.cables().len());
        // ...so APA is zero for every pair, under any stretch limit.
        let generous = LlpdConfig { stretch_limit: 100.0 };
        let analysis = LlpdAnalysis::compute(&topo, &generous);
        prop_assert!(analysis.apa_values().iter().all(|&a| a == 0.0));
        prop_assert_eq!(analysis.llpd(), 0.0);
    }
}

mod bridge_oracle {
    use super::bridges;
    use lowlat_netgraph::{GraphBuilder, NodeId};

    #[test]
    fn chain_is_all_bridges() {
        let mut b = GraphBuilder::new(4);
        b.add_duplex(NodeId(0), NodeId(1), 1.0, 1.0);
        b.add_duplex(NodeId(1), NodeId(2), 1.0, 1.0);
        b.add_duplex(NodeId(2), NodeId(3), 1.0, 1.0);
        assert_eq!(bridges(&b.build()).len(), 3);
    }

    #[test]
    fn ring_has_no_bridges() {
        let mut b = GraphBuilder::new(5);
        for i in 0..5u32 {
            b.add_duplex(NodeId(i), NodeId((i + 1) % 5), 1.0, 1.0);
        }
        assert!(bridges(&b.build()).is_empty());
    }

    #[test]
    fn barbell_bridge() {
        // Two triangles joined by one cable: exactly that cable is a bridge.
        let mut b = GraphBuilder::new(6);
        for (x, y) in [(0u32, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            b.add_duplex(NodeId(x), NodeId(y), 1.0, 1.0);
        }
        let (mid, _) = b.add_duplex(NodeId(2), NodeId(3), 1.0, 1.0);
        let g = b.build();
        assert_eq!(bridges(&g), vec![mid]);
    }

    #[test]
    fn parallel_cables_are_not_bridges() {
        let mut b = GraphBuilder::new(2);
        b.add_duplex(NodeId(0), NodeId(1), 1.0, 1.0);
        b.add_duplex(NodeId(0), NodeId(1), 2.0, 1.0);
        assert!(bridges(&b.build()).is_empty());
    }

    #[test]
    fn tree_edges_all_bridges() {
        // Star with 4 leaves.
        let mut b = GraphBuilder::new(5);
        for i in 1..5u32 {
            b.add_duplex(NodeId(0), NodeId(i), 1.0, 1.0);
        }
        assert_eq!(bridges(&b.build()).len(), 4);
    }
}
