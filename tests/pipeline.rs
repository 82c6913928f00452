//! End-to-end integration: topology -> TM -> schemes -> evaluation, on the
//! named networks, asserting the paper's headline qualitative claims.

use lowlat::prelude::*;

/// Standard operating point: locality 1, min-cut load 0.7.
fn standard_tm(topo: &Topology, index: u64) -> TrafficMatrix {
    GravityTmGen::new(TmGenConfig::default()).generate(topo, index).scaled_to_load(topo, 0.7)
}

#[test]
fn minmax_and_latopt_fit_what_sp_congests() {
    let topo = named::gts_like();
    let cache = PathCache::new(topo.graph());
    let tm = standard_tm(&topo, 0);
    let sp = PlacementEval::evaluate(&topo, &tm, &ShortestPathRouting.place(&cache, &tm).unwrap());
    let mm = PlacementEval::evaluate(
        &topo,
        &tm,
        &MinMaxRouting::unrestricted().place(&cache, &tm).unwrap(),
    );
    let lo =
        PlacementEval::evaluate(&topo, &tm, &LatencyOptimal::default().place(&cache, &tm).unwrap());
    // At 0.7 min-cut load the traffic fits by construction; load-aware
    // schemes must fit it, and SP must be the congestion-prone one.
    assert!(mm.fits());
    assert!(lo.fits());
    assert!(sp.max_utilization() >= mm.max_utilization() - 1e-6);
}

#[test]
fn scheme_latency_ordering_matches_paper() {
    // LatOpt <= LDR <= MinMax in latency stretch; all of them <= tolerance
    // above 1.0 when uncongested (stretch is relative to shortest paths).
    let topo = named::gts_like();
    let cache = PathCache::new(topo.graph());
    for i in 0..2 {
        let tm = standard_tm(&topo, i);
        let lo = PlacementEval::evaluate(
            &topo,
            &tm,
            &LatencyOptimal::default().place(&cache, &tm).unwrap(),
        );
        let ldr = PlacementEval::evaluate(&topo, &tm, &Ldr::default().place(&cache, &tm).unwrap());
        let mm = PlacementEval::evaluate(
            &topo,
            &tm,
            &MinMaxRouting::unrestricted().place(&cache, &tm).unwrap(),
        );
        assert!(lo.latency_stretch() >= 1.0 - 1e-6);
        assert!(
            lo.latency_stretch() <= ldr.latency_stretch() + 1e-6,
            "tm {i}: optimal {} vs LDR {}",
            lo.latency_stretch(),
            ldr.latency_stretch()
        );
        assert!(
            ldr.latency_stretch() <= mm.latency_stretch() + 1e-3,
            "tm {i}: LDR {} vs MinMax {}",
            ldr.latency_stretch(),
            mm.latency_stretch()
        );
    }
}

#[test]
fn all_schemes_produce_valid_placements_on_all_named_networks() {
    for topo in [named::abilene(), named::gts_like(), named::cogent_like(), named::google_like()] {
        let tm = standard_tm(&topo, 0);
        let schemes: Vec<Box<dyn RoutingScheme>> = vec![
            Box::new(ShortestPathRouting),
            Box::new(B4Routing::default()),
            Box::new(MinMaxRouting::unrestricted()),
            Box::new(MinMaxRouting::with_k(10)),
            Box::new(LatencyOptimal::default()),
            Box::new(Ldr::default()),
        ];
        let cache = PathCache::new(topo.graph());
        for scheme in schemes {
            let placement = scheme
                .place(&cache, &tm)
                .unwrap_or_else(|e| panic!("{} failed on {}: {e}", scheme.name(), topo.name()));
            placement
                .validate(topo.graph(), &tm)
                .unwrap_or_else(|e| panic!("{} invalid on {}: {e}", scheme.name(), topo.name()));
        }
    }
}

#[test]
fn headroom_dial_interpolates_to_minmax() {
    // §4: latency-optimal with headroom equal to MinMax's spare capacity
    // converges to the MinMax placement quality.
    let topo = named::abilene();
    let cache = PathCache::new(topo.graph());
    let tm = standard_tm(&topo, 1);
    let mm = PlacementEval::evaluate(
        &topo,
        &tm,
        &MinMaxRouting::unrestricted().place(&cache, &tm).unwrap(),
    );
    let spare = 1.0 - mm.max_utilization();
    let dialed = PlacementEval::evaluate(
        &topo,
        &tm,
        &LatencyOptimal::with_headroom(spare - 1e-6).place(&cache, &tm).unwrap(),
    );
    assert!(
        (dialed.latency_stretch() - mm.latency_stretch()).abs() < 0.05,
        "dialed {} vs minmax {}",
        dialed.latency_stretch(),
        mm.latency_stretch()
    );
}

#[test]
fn google_like_unroutable_by_sp_but_fine_for_ldr() {
    // Figure 19's point.
    let topo = named::google_like();
    let cache = PathCache::new(topo.graph());
    let tm = standard_tm(&topo, 0);
    let sp = PlacementEval::evaluate(&topo, &tm, &ShortestPathRouting.place(&cache, &tm).unwrap());
    let ldr = PlacementEval::evaluate(&topo, &tm, &Ldr::default().place(&cache, &tm).unwrap());
    assert!(sp.congested_pair_fraction() > 0.0, "SP must congest the B4-like WAN");
    assert!(ldr.fits(), "LDR handles it");
}
