//! Property tests pinning the hierarchical partitioned engine against the
//! flat machinery it approximates.
//!
//! On small random graphs the engine must (a) agree with flat Dijkstra on
//! *reachability* — the exact-fallback guarantee, (b) never claim a path
//! better than flat Yen's best — stitching is approximate from above, and
//! (c) keep its best answer within the landmark stitching bound
//! `min_ℓ (d(s,ℓ) + d(ℓ,d))` whenever that bound is finite. Every returned
//! path must also be a valid loopless walk, best-first and duplicate-free.

use proptest::prelude::*;

use lowlat_core::pathset::PathCache;
use lowlat_core::{EngineConfig, PartitionedPathEngine, PathSource};
use lowlat_netgraph::{shortest_path, Graph, GraphBuilder, HierarchyConfig, KspGenerator, NodeId};

/// A hierarchy small enough that 10-node graphs still split into several
/// leaves, so cross-leaf stitching actually exercises.
fn small_config() -> EngineConfig {
    EngineConfig {
        hierarchy: HierarchyConfig { max_depth: 2, max_leaf: 4, branching: 2 },
        landmarks: 3,
    }
}

/// A random strongly-connected graph: a duplex ring plus random duplex
/// chords (same shape the netgraph substrate proptests use).
fn arb_connected(max_nodes: usize, max_extra: usize) -> impl Strategy<Value = Graph> {
    (
        4..=max_nodes,
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

/// A possibly-disconnected graph: random duplex links only, no ring, so
/// isolated nodes and multiple components occur and reachability parity is
/// tested on both sides.
fn arb_sparse(max_nodes: usize, max_links: usize) -> impl Strategy<Value = Graph> {
    (
        4..=max_nodes,
        proptest::collection::vec(
            (any::<u32>(), any::<u32>(), 1u32..1000, 1u32..1000),
            1..max_links,
        ),
    )
        .prop_map(|(n, links)| {
            let mut b = GraphBuilder::new(n);
            for (x, y, d, c) in links {
                let u = (x as usize) % n;
                let v = (y as usize) % n;
                if u != v {
                    b.add_duplex(NodeId(u as u32), NodeId(v as u32), d as f64 / 10.0, c as f64);
                }
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_reachability_matches_flat_dijkstra(g in arb_sparse(12, 14)) {
        // The exact-fallback guarantee: a pair is answered by the engine
        // iff flat Dijkstra connects it — even when every landmark sits on
        // the wrong side of a cut or a leaf overflows across components.
        let eng = PartitionedPathEngine::build(&g, &small_config());
        for s in g.nodes() {
            for d in g.nodes() {
                if s == d {
                    continue;
                }
                let flat = shortest_path(&g, s, d, None, None);
                let got = eng.paths(s, d, 3);
                prop_assert_eq!(
                    flat.is_some(),
                    !got.is_empty(),
                    "{:?}->{:?}: flat {:?} vs engine {} paths",
                    s, d, flat.map(|p| p.delay_ms()), got.len()
                );
            }
        }
    }

    #[test]
    fn engine_never_beats_flat_yen_and_respects_landmark_bound(g in arb_connected(10, 12)) {
        let eng = PartitionedPathEngine::build(&g, &small_config());
        for s in g.nodes() {
            for d in g.nodes() {
                if s == d {
                    continue;
                }
                let flat_best = KspGenerator::new(&g, s, d)
                    .next_path()
                    .expect("ring guarantees connectivity")
                    .delay_ms();
                let ps = eng.paths(s, d, 3);
                prop_assert!(!ps.is_empty(), "{:?}->{:?}: connected pair unanswered", s, d);
                let best = ps[0].delay_ms();
                prop_assert!(
                    best >= flat_best - 1e-9,
                    "{:?}->{:?}: engine {best} beats flat Yen {flat_best}", s, d
                );
                let bound = eng.landmark_bound_ms(s, d);
                if bound.is_finite() {
                    prop_assert!(
                        best <= bound + 1e-9,
                        "{:?}->{:?}: engine {best} exceeds landmark bound {bound}", s, d
                    );
                }
            }
        }
    }

    #[test]
    fn engine_paths_are_valid_loopless_sorted_and_distinct(g in arb_connected(10, 12)) {
        let eng = PartitionedPathEngine::build(&g, &small_config());
        for s in g.nodes() {
            for d in g.nodes().skip(1) {
                if s == d {
                    continue;
                }
                let ps = eng.paths(s, d, 4);
                let mut prev = 0.0f64;
                let mut seen = std::collections::HashSet::new();
                for p in &ps {
                    prop_assert_eq!(p.src(), s);
                    prop_assert_eq!(p.dst(), d);
                    prop_assert!(p.validate(&g).is_ok(), "invalid walk {:?}->{:?}", s, d);
                    let nodes = p.nodes(&g);
                    let mut sorted = nodes.clone();
                    sorted.sort();
                    sorted.dedup();
                    prop_assert_eq!(sorted.len(), nodes.len(), "loop in {:?}->{:?}", s, d);
                    prop_assert!(p.delay_ms() >= prev - 1e-12, "unsorted {:?}->{:?}", s, d);
                    prev = p.delay_ms();
                    prop_assert!(seen.insert(p.links().to_vec()), "duplicate {:?}->{:?}", s, d);
                }
            }
        }
    }

    #[test]
    fn cross_leaf_queries_materialize_no_pair_state(g in arb_connected(12, 10)) {
        // The scale contract: cross-leaf traffic must never touch a leaf
        // cache's per-pair Yen state, no matter how many queries run.
        let eng = PartitionedPathEngine::build(&g, &small_config());
        for s in g.nodes() {
            for d in g.nodes() {
                if s == d || eng.same_leaf(s, d) {
                    continue;
                }
                let _ = eng.paths(s, d, 3);
            }
        }
        prop_assert_eq!(eng.cached_pairs(), 0);
    }

    #[test]
    fn grow_answers_one_of_three_ways_on_both_backends(
        g in arb_connected(12, 10),
        want in 1usize..=5,
    ) {
        // The `PathSource::grow` contract: the first `want` of an answer are
        // `paths(.., want)`; an answer longer than `want` is the pair's
        // complete ranking, so asking for more returns it again; and only a
        // source that holds a complete ranking — the engine, for a
        // cross-leaf pair, from its landmark table and not from per-pair
        // state — answers long.
        let flat = PathCache::new(&g);
        let eng = PartitionedPathEngine::build(&g, &small_config());
        for s in g.nodes() {
            for d in g.nodes().filter(|&d| d != s) {
                let cross_leaf = !eng.same_leaf(s, d);
                for (source, may_answer_long) in
                    [(&flat as &dyn PathSource, false), (&eng as &dyn PathSource, cross_leaf)]
                {
                    let pairs_before = source.cached_pairs();
                    let got = source.grow(s, d, want);
                    if may_answer_long {
                        prop_assert_eq!(source.cached_pairs(), pairs_before);
                    } else {
                        prop_assert!(got.len() <= want, "{:?}->{:?}: {} for {want}", s, d, got.len());
                    }
                    prop_assert_eq!(&got[..want.min(got.len())], &source.paths(s, d, want)[..]);
                    let more = source.grow(s, d, want + 1);
                    if got.len() > want {
                        prop_assert_eq!(&got, &source.paths(s, d, usize::MAX));
                        prop_assert_eq!(&more, &got);
                    } else {
                        prop_assert_eq!(&more[..got.len()], &got[..], "a prefix of the next answer");
                        prop_assert!(got.len() == want || more.len() == got.len(), "exhausted stays exhausted");
                    }
                }
            }
        }
    }
}
