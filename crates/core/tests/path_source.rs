//! The `PathSource` acceptance suite: the flat [`PathCache`] and the
//! hierarchical [`PartitionedPathEngine`] must be interchangeable behind
//! `&dyn PathSource`, and column-generated placements through the engine
//! must match flat-cache placements on the named corpus.
//!
//! * a trait-object smoke proving every registry scheme runs unchanged on
//!   either backend through the same `&dyn PathSource`;
//! * a proptest pinning the column-generated LatOpt and MinMax objectives
//!   against the flat cache within 1e-6 across seeds and load levels (the
//!   named corpus fits one leaf, so the engine's scoped Yen is the flat
//!   Yen and any drift is a pricing bug);
//! * a mid-size multi-leaf synthetic where every LP scheme places through
//!   the engine without materializing per-pair state for the cross-leaf
//!   corpus.

use proptest::prelude::*;

use lowlat_core::hier::{EngineConfig, PartitionedPathEngine};
use lowlat_core::pathgrow::GrowRequest;
use lowlat_core::pathset::PathCache;
use lowlat_core::placement::Placement;
use lowlat_core::scale::ScaleToLoad;
use lowlat_core::schemes::registry;
use lowlat_core::PathSource;
use lowlat_netgraph::{FailureMask, Graph, HierarchyConfig, NodeId};
use lowlat_tmgen::{Aggregate, GravityTmGen, TmGenConfig, TrafficMatrix};
use lowlat_topology::synth::{generate, SynthConfig, SynthModel};
use lowlat_topology::zoo::named;
use lowlat_topology::Topology;

/// The Figure-12 objective of a placement: flow-count-weighted total mean
/// delay. Both backends must land on the same optimum.
fn objective(tm: &TrafficMatrix, placement: &Placement) -> f64 {
    tm.aggregates()
        .iter()
        .enumerate()
        .map(|(a, agg)| agg.flow_count as f64 * placement.aggregate(a).mean_delay_ms())
        .sum()
}

/// Loads must respect effective capacities up to the reported overload.
fn assert_respects_capacities(graph: &Graph, tm: &TrafficMatrix, placement: &Placement, omax: f64) {
    let loads = placement.link_loads(graph, tm);
    for l in graph.link_ids() {
        let cap = graph.link(l).capacity_mbps;
        assert!(
            loads[l.idx()] <= cap * (1.0 + omax + 1e-6) + 1e-9,
            "link {} loaded {} over cap {} (omax {})",
            l.0,
            loads[l.idx()],
            cap,
            omax,
        );
    }
}

#[test]
fn backends_are_interchangeable_through_the_trait_object() {
    let topo = named::abilene();
    let graph = topo.graph();
    let tm =
        GravityTmGen::new(TmGenConfig::default()).generate(&topo, 7).scaled_to_load(&topo, 0.7);

    let cache = PathCache::new(graph);
    let engine = PartitionedPathEngine::build(graph, &EngineConfig::default());
    let sources: Vec<(&str, &dyn PathSource)> = vec![("flat", &cache), ("partitioned", &engine)];

    for &spec in registry::ALL_SPECS {
        let scheme = registry::build(spec).expect("registry spec");
        let mut placements = Vec::new();
        for (label, source) in &sources {
            // The whole scheme surface runs through the trait object: the
            // graph view, the pricing calls, the capacity view.
            assert_eq!(source.graph().node_count(), graph.node_count());
            assert!(source.failure_mask().is_none());
            let placement =
                scheme.place(*source, &tm).unwrap_or_else(|e| panic!("{spec} via {label}: {e}"));
            placement.validate(graph, &tm).unwrap_or_else(|e| panic!("{spec} via {label}: {e:?}"));
            placements.push(placement);
        }
        // Abilene fits in one leaf, so the two backends see identical path
        // sets: every scheme must produce the same objective either way.
        let (flat, part) = (&placements[0], &placements[1]);
        let (of, op) = (objective(&tm, flat), objective(&tm, part));
        assert!(
            (of - op).abs() <= 1e-6 * of.max(1.0),
            "{spec}: flat objective {of} vs partitioned {op}"
        );
    }

    // The capacity-provider view agrees too.
    assert_eq!(cache.effective_capacities(), engine.effective_capacities());
    // Bounds: the flat cache reports the exact shortest delay; the engine
    // may only report a valid upper bound for it.
    for (s, d) in [(NodeId(0), NodeId(10)), (NodeId(3), NodeId(7))] {
        let exact = (&cache as &dyn PathSource).shortest_delay_bound(s, d);
        let bound = (&engine as &dyn PathSource).shortest_delay_bound(s, d);
        assert!(exact.is_finite());
        assert!(bound >= exact - 1e-9, "bound {bound} below exact {exact}");
    }
}

#[test]
fn provided_methods_are_their_definitions_on_both_backends() {
    // `effective_capacities` and `clear_failure` are written once, on the
    // trait: held to the mask's own capacity view and to
    // `apply_failure(&FailureMask::new())` on a twin source.
    let topo = named::abilene();
    let graph = topo.graph();
    let cable = topo.cables()[0];
    let (a, b) = (graph.link(cable).src, graph.link(cable).dst);
    let (mut brownout, mut down) = (FailureMask::new(), FailureMask::new());
    brownout.degrade_cable(graph, cable, 0.5);
    down.fail_cable(graph, cable);
    let raw: Vec<f64> = graph.link_ids().map(|l| graph.link(l).capacity_mbps).collect();
    let flat = || -> Box<dyn PathSource + '_> { Box::new(PathCache::new(graph)) };
    let engine = || -> Box<dyn PathSource + '_> {
        Box::new(PartitionedPathEngine::build(graph, &EngineConfig::default()))
    };
    for mask in [None, Some(&brownout), Some(&down)] {
        for (source, twin) in [(flat(), flat()), (engine(), engine())] {
            for s in [&source, &twin] {
                // Per-pair state crossing the cable, so a repair has work.
                assert_eq!(s.paths(a, b, 3).len(), 3);
                if let Some(m) = mask {
                    s.apply_failure(m);
                }
            }
            let want = mask.map_or_else(|| raw.clone(), |m| m.effective_capacities(graph));
            assert_eq!(source.effective_capacities(), want);
            let cleared = source.clear_failure();
            assert_eq!(cleared, twin.apply_failure(&FailureMask::new()));
            assert_eq!(
                cleared.repaired_pairs,
                usize::from(mask.is_some_and(|m| m.affects_routing()))
            );
            assert!(source.failure_mask().is_none() && twin.failure_mask().is_none());
            assert_eq!(source.effective_capacities(), raw);
        }
    }
}

fn named_topo(idx: usize) -> Topology {
    match idx {
        0 => named::abilene(),
        _ => named::gts_like(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Column generation through the partitioned engine lands on the flat
    /// cache's optimum on the named corpus: same objective, same overload,
    /// capacities respected — across matrices, seeds and load levels.
    #[test]
    fn column_generation_matches_flat_cache(
        topo_idx in 0usize..2,
        seed in 0u64..32,
        load in 0.45f64..0.85,
    ) {
        let topo = named_topo(topo_idx);
        let graph = topo.graph();
        let tm = GravityTmGen::new(TmGenConfig::default())
            .generate(&topo, seed)
            .scaled_to_load(&topo, load);

        let cache = PathCache::new(graph);
        let engine = PartitionedPathEngine::build(graph, &EngineConfig::default());

        for minmax in [false, true] {
            let run = |source: &dyn PathSource| {
                let req = GrowRequest::new(source, &tm);
                let req = if minmax { req.minmax(None) } else { req };
                req.solve().expect("LP solvable")
            };
            let flat = run(&cache);
            let part = run(&engine);
            let (of, op) = (objective(&tm, &flat.placement), objective(&tm, &part.placement));
            prop_assert!(
                (of - op).abs() <= 1e-6 * of.max(1.0),
                "minmax={}: flat objective {} vs partitioned {}", minmax, of, op
            );
            prop_assert!(
                (flat.omax - part.omax).abs() <= 1e-6,
                "minmax={}: flat omax {} vs partitioned {}", minmax, flat.omax, part.omax
            );
            assert_respects_capacities(graph, &tm, &part.placement, part.omax);
        }
    }
}

#[test]
fn lp_schemes_place_through_a_multi_leaf_engine_without_flat_state() {
    // A genuinely partitioned graph: ~600 BA nodes under the default leaf
    // size split into several leaves, so the matrix below is dominated by
    // cross-leaf pairs that must be priced by landmark stitching alone.
    let ingested = generate(SynthModel::BarabasiAlbert, &SynthConfig { nodes: 600, seed: 42 });
    let graph = ingested.graph();
    let engine = PartitionedPathEngine::build(
        graph,
        &EngineConfig {
            hierarchy: HierarchyConfig { max_depth: 3, max_leaf: 96, branching: 8 },
            landmarks: 24,
        },
    );
    assert!(engine.leaf_ids().len() > 1, "graph must split into leaves");

    let n = graph.node_count() as u32;
    let aggs: Vec<Aggregate> = (0..24u32)
        .map(|i| Aggregate {
            src: NodeId((i * 997) % n),
            dst: NodeId((i * 313 + n / 2) % n),
            volume_mbps: 200.0 + 40.0 * i as f64,
            flow_count: 8,
        })
        .filter(|a| a.src != a.dst)
        .collect();
    let tm = TrafficMatrix::new(aggs);

    for spec in ["LatOpt", "LDR", "MinMax", "MinMaxK10"] {
        let scheme = registry::build(spec).expect("registry spec");
        let placement = scheme.place(&engine, &tm).unwrap_or_else(|e| panic!("{spec}: {e}"));
        placement.validate(graph, &tm).unwrap_or_else(|e| panic!("{spec}: {e:?}"));
    }
    // The "never the flat corpus" guarantee: per-pair state exists at most
    // for the intra-leaf pairs the pricer actually touched — bounded by the
    // matrix, nowhere near the n^2 corpus.
    assert!(
        engine.cached_pairs() <= tm.aggregates().len(),
        "cached {} pairs for a {}-aggregate matrix",
        engine.cached_pairs(),
        tm.aggregates().len(),
    );
}
