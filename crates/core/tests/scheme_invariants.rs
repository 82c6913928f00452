//! Cross-scheme invariants, driven by the registry: every scheme family in
//! [`registry::ALL_SPECS`] is placed on every named topology at the paper's
//! standard 0.7 min-cut operating point and held to the properties the
//! figures rely on. A scheme added to the registry is picked up — and
//! tested — for free.

use lowlat_core::eval::PlacementEval;
use lowlat_core::failure::{partition_routable, single_link_failures};
use lowlat_core::pathset::PathCache;
use lowlat_core::scale::min_cut_load;
use lowlat_core::schemes::{registry, SchemeError, SolveContext};
use lowlat_core::PathSource;
use lowlat_netgraph::FailureMask;
use lowlat_tmgen::{GravityTmGen, TmGenConfig, TrafficMatrix};
use lowlat_topology::zoo::named;
use lowlat_topology::Topology;

/// The link-based MCF baseline is O(pops²) LP rows (Figure 15's point);
/// keep it to the small networks so the suite stays CI-sized.
const LINK_BASED_POP_CAP: usize = 15;

/// The exhaustive failure suite multiplies the corpus by its cable count;
/// the iterative-LP schemes only run it on networks this small so the
/// suite stays CI-sized (the cheap combinatorial schemes run everywhere).
const FAILURE_LP_POP_CAP: usize = 15;

/// A gravity matrix scaled to 0.7 min-cut load, sharing `cache`.
fn standard_tm(topo: &Topology, cache: &PathCache<'_>) -> TrafficMatrix {
    let raw = GravityTmGen::new(TmGenConfig::default()).generate(topo, 0);
    let u0 = min_cut_load(cache, &raw).expect("min-cut LP");
    assert!(u0 > 0.0, "{}: empty matrix", topo.name());
    raw.scaled(0.7 / u0)
}

#[test]
fn every_registry_scheme_satisfies_the_placement_invariants() {
    for topo in named::all() {
        let cache = PathCache::new(topo.graph());
        let tm = standard_tm(&topo, &cache);
        for &spec in registry::ALL_SPECS {
            if spec == "LinkBased" && topo.pop_count() > LINK_BASED_POP_CAP {
                continue;
            }
            let scheme = registry::build(spec).expect("registry spec");
            let placement = scheme
                .place(&cache, &tm)
                .unwrap_or_else(|e| panic!("{spec} failed on {}: {e}", topo.name()));
            placement
                .validate(topo.graph(), &tm)
                .unwrap_or_else(|e| panic!("{spec} invalid on {}: {e}", topo.name()));
            let ev = PlacementEval::evaluate(&topo, &tm, &placement);
            let ctx = format!("{spec} on {}", topo.name());
            assert!(
                ev.latency_stretch() >= 1.0 - 1e-6,
                "{ctx}: stretch {} below 1",
                ev.latency_stretch()
            );
            assert!(
                ev.max_flow_stretch() >= 1.0 - 1e-6,
                "{ctx}: max stretch {} below 1",
                ev.max_flow_stretch()
            );
            assert!(ev.max_utilization().is_finite(), "{ctx}: non-finite utilization");
            match spec {
                // Single shortest paths by construction: zero stretch.
                "SP" => assert!(
                    (ev.latency_stretch() - 1.0).abs() < 1e-9,
                    "{ctx}: SP stretch {} != 1",
                    ev.latency_stretch()
                ),
                // At 0.7 min-cut load the capacity-optimal and the
                // latency-optimal LPs must both fit (Figure 4a/4c).
                "MinMax" | "LatOpt" => assert!(
                    ev.fits(),
                    "{ctx}: must fit at 0.7 min-cut load (util {})",
                    ev.max_utilization()
                ),
                _ => {}
            }
        }
    }
}

#[test]
fn registry_schemes_survive_every_single_cable_failure() {
    // The failure axis of the invariant suite: every scheme family placed
    // under every single-cable failure of every named topology, through
    // the *same* repaired cache and warm LP context (the recovery path the
    // failure sweep drives). Disconnected pairs are dropped, not fatal.
    let lp_specs = ["MinMax", "MinMaxK10", "LatOpt", "LDR", "LinkBased"];
    for topo in named::all() {
        let graph = topo.graph();
        let cache = PathCache::new(graph);
        let tm = standard_tm(&topo, &cache);
        let specs: Vec<&str> = registry::ALL_SPECS
            .iter()
            .copied()
            .filter(|s| topo.pop_count() <= FAILURE_LP_POP_CAP || !lp_specs.contains(s))
            .collect();
        // One warm context per scheme, carried across scenarios — recovery
        // re-places must warm-start, never change results.
        let mut ctxs: Vec<SolveContext> = specs.iter().map(|_| SolveContext::new()).collect();
        let mut total_kept = 0usize;
        let mut total_repaired = 0usize;
        for scenario in single_link_failures(&topo) {
            cache.clear_failure();
            let mask = scenario.mask(&topo);
            let stats = cache.apply_failure(&mask);
            total_kept += stats.kept_pairs;
            total_repaired += stats.repaired_pairs;
            let part = partition_routable(graph, &tm, &mask);
            for (spec, ctx) in specs.iter().zip(&mut ctxs) {
                let scheme = registry::build(spec).expect("registry spec");
                let placement = match scheme.place_with_context(&cache, &part.tm, ctx) {
                    Ok(p) => p,
                    // The link-based MCF has no overload variables: a
                    // failure that pushes demand past capacity is reported
                    // as infeasible, which is its documented contract.
                    Err(SchemeError::Infeasible) if *spec == "LinkBased" => continue,
                    Err(e) => {
                        panic!("{spec} failed under {} on {}: {e}", scenario.name, topo.name())
                    }
                };
                let ctx_label = format!("{spec} under {} on {}", scenario.name, topo.name());
                placement
                    .validate(graph, &part.tm)
                    .unwrap_or_else(|e| panic!("{ctx_label}: invalid placement: {e}"));
                for (i, pl) in placement.per_aggregate().iter().enumerate() {
                    for (path, x) in &pl.splits {
                        assert!(
                            *x <= 1e-9 || !mask.hits_path(graph, path),
                            "{ctx_label}: aggregate {i} routed over the failed cable"
                        );
                    }
                }
            }
        }
        // Across the whole sweep, repair must both keep and rebuild pairs —
        // all-kept would mean failures never hit cached paths, all-rebuilt
        // would mean repair degenerated to a full rebuild.
        assert!(total_kept > 0, "{}: repair never kept a pair", topo.name());
        assert!(total_repaired > 0, "{}: no failure touched a cached path", topo.name());
        cache.clear_failure();
    }
}

#[test]
fn registry_schemes_respect_effective_capacities_under_brownouts() {
    // The brown-out axis: degrade every cable to half capacity (a
    // degradation-only mask — nothing down, no path changes) and scale the
    // demand by the same factor. By linearity this is exactly the intact
    // 0.7 min-cut instance with halved capacities, so every scheme that
    // fits intact must fit against *effective* capacities here — which it
    // can only do if its capacity constraints actually see the mask.
    let factor = 0.5;
    let lp_specs = ["MinMax", "MinMaxK10", "LatOpt", "LDR", "LinkBased"];
    // The schemes whose feasibility the linearity argument guarantees (LDR
    // fits too: 0.35 effective load under its 10% static headroom).
    let must_fit = ["MinMax", "LatOpt", "LDR"];
    for topo in named::all() {
        let graph = topo.graph();
        let cache = PathCache::new(graph);
        let tm = standard_tm(&topo, &cache).scaled(factor);
        let mut mask = FailureMask::new();
        for c in topo.cables() {
            mask.degrade_cable(graph, c, factor);
        }
        assert!(!mask.affects_routing(), "brown-outs change no paths");
        let stats = cache.apply_failure(&mask);
        assert_eq!(stats.repaired_pairs, 0, "{}: degradation-only repair is free", topo.name());
        let eff: Vec<f64> = cache.effective_capacities();
        for &spec in registry::ALL_SPECS {
            if lp_specs.contains(&spec) && topo.pop_count() > FAILURE_LP_POP_CAP {
                continue;
            }
            let scheme = registry::build(spec).expect("registry spec");
            let placement = match scheme.place(&cache, &tm) {
                Ok(p) => p,
                Err(SchemeError::Infeasible) if spec == "LinkBased" => continue,
                Err(e) => panic!("{spec} failed under brown-out on {}: {e}", topo.name()),
            };
            placement
                .validate(graph, &tm)
                .unwrap_or_else(|e| panic!("{spec} invalid on {}: {e}", topo.name()));
            if must_fit.contains(&spec) || spec == "LinkBased" {
                let loads = placement.link_loads(graph, &tm);
                for l in graph.link_ids() {
                    assert!(
                        loads[l.idx()] <= eff[l.idx()] * (1.0 + 1e-6) + 1e-9,
                        "{spec} on {}: link {} loaded {} over effective capacity {} \
                         (raw {}) — the scheme routed over phantom capacity",
                        topo.name(),
                        l.0,
                        loads[l.idx()],
                        eff[l.idx()],
                        graph.link(l).capacity_mbps,
                    );
                }
            }
        }
        // The literal "LP reports feasible": the latency-optimal LP must
        // find a zero-overload placement against the effective capacities.
        if topo.pop_count() <= FAILURE_LP_POP_CAP {
            let out = lowlat_core::pathgrow::GrowRequest::new(&cache, &tm)
                .solve()
                .expect("LatOpt under brown-out");
            assert!(
                out.omax <= 1e-7,
                "{}: LatOpt reports overload {} under a fitting brown-out",
                topo.name(),
                out.omax
            );
        }
        cache.clear_failure();
    }
}

#[test]
fn registry_schemes_reuse_the_shared_cache() {
    // Placing through a shared cache must agree with placing through a
    // fresh one — the engine's cache sharing cannot change results.
    let topo = named::abilene();
    let shared = PathCache::new(topo.graph());
    let tm = standard_tm(&topo, &shared);
    for &spec in registry::ALL_SPECS {
        let scheme = registry::build(spec).expect("registry spec");
        let warm = scheme.place(&shared, &tm).expect("warm placement");
        let cold = scheme.place(&PathCache::new(topo.graph()), &tm).expect("cold placement");
        let ev_warm = PlacementEval::evaluate(&topo, &tm, &warm);
        let ev_cold = PlacementEval::evaluate(&topo, &tm, &cold);
        assert!(
            (ev_warm.latency_stretch() - ev_cold.latency_stretch()).abs() < 1e-9
                && (ev_warm.max_utilization() - ev_cold.max_utilization()).abs() < 1e-9,
            "{spec}: warm/cold divergence"
        );
    }
}

#[test]
fn the_provided_doors_are_the_required_one() {
    // `place` is `place_with_context` on a fresh context, and so is
    // `place_with_history` without history: split for split, every family.
    let topo = named::abilene();
    let cache = PathCache::new(topo.graph());
    let tm = standard_tm(&topo, &cache);
    for &spec in registry::ALL_SPECS {
        let scheme = registry::build(spec).expect("registry spec");
        let required =
            scheme.place_with_context(&cache, &tm, &mut SolveContext::new()).expect("warm door");
        let cold = scheme.place(&cache, &tm).expect("cold door");
        let measured = scheme
            .place_with_history(&cache, &tm, &[], &mut SolveContext::new())
            .expect("measured door");
        for provided in [&cold, &measured] {
            assert_eq!(provided.per_aggregate().len(), required.per_aggregate().len(), "{spec}");
            for (a, b) in provided.per_aggregate().iter().zip(required.per_aggregate()) {
                assert_eq!(a.splits, b.splits, "{spec}");
            }
        }
    }
}
