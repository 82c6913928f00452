//! Property tests across crates: every scheme, on random small topologies
//! and matrices, must emit structurally valid placements that deliver all
//! demand, and the evaluator's metrics must satisfy their definitions.

use proptest::prelude::*;

use lowlat::prelude::*;
use lowlat_netgraph::NodeId;

/// Random connected topology: ring + random chords with varied capacities.
fn arb_topology() -> impl Strategy<Value = Topology> {
    (4usize..=9, proptest::collection::vec((any::<u32>(), any::<u32>(), 0u8..3), 0..6)).prop_map(
        |(n, chords)| {
            let mut b = TopologyBuilder::new("prop");
            let pops: Vec<PopId> = (0..n)
                .map(|i| {
                    let ang = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
                    b.add_pop(
                        format!("p{i}"),
                        GeoPoint::new(45.0 + 5.0 * ang.sin(), -100.0 + 7.0 * ang.cos()),
                    )
                })
                .collect();
            for i in 0..n {
                b.connect(pops[i], pops[(i + 1) % n], 10_000.0);
            }
            for (x, y, c) in chords {
                let (i, j) = ((x as usize) % n, (y as usize) % n);
                if i != j && !b.connected(pops[i], pops[j]) {
                    b.connect(pops[i], pops[j], [2_500.0, 10_000.0, 40_000.0][c as usize]);
                }
            }
            b.build()
        },
    )
}

/// Random demand set over the topology's pairs.
fn arb_tm(n_pops: usize) -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
    proptest::collection::vec((any::<u32>(), any::<u32>(), 1u32..5000), 1..12).prop_map(
        move |raw| {
            raw.into_iter()
                .map(|(s, d, v)| ((s as usize) % n_pops, (d as usize) % n_pops, v as f64))
                .filter(|(s, d, _)| s != d)
                .collect()
        },
    )
}

fn build_tm(demands: &[(usize, usize, f64)]) -> Option<TrafficMatrix> {
    let mut merged: std::collections::BTreeMap<(usize, usize), f64> = Default::default();
    for &(s, d, v) in demands {
        *merged.entry((s, d)).or_default() += v;
    }
    if merged.is_empty() {
        return None;
    }
    Some(TrafficMatrix::new(
        merged
            .into_iter()
            .map(|((s, d), v)| Aggregate {
                src: NodeId(s as u32),
                dst: NodeId(d as u32),
                volume_mbps: v,
                flow_count: (v / 5.0).ceil() as u64,
            })
            .collect(),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_schemes_emit_valid_placements(topo in arb_topology(), demands in arb_tm(9)) {
        let demands: Vec<_> = demands.into_iter().filter(|&(s, d, _)| s < topo.pop_count() && d < topo.pop_count()).collect();
        let Some(tm) = build_tm(&demands) else { return Ok(()); };
        let schemes: Vec<Box<dyn RoutingScheme>> = vec![
            Box::new(ShortestPathRouting),
            Box::new(B4Routing::default()),
            Box::new(MinMaxRouting::with_k(4)),
            Box::new(LatencyOptimal::default()),
            Box::new(Ldr::default()),
        ];
        let cache = PathCache::new(topo.graph());
        for scheme in schemes {
            let placement = scheme.place(&cache, &tm);
            let placement = match placement {
                Ok(p) => p,
                Err(e) => return Err(TestCaseError::fail(format!("{}: {e}", scheme.name()))),
            };
            prop_assert!(placement.validate(topo.graph(), &tm).is_ok(),
                "{} produced an invalid placement", scheme.name());
            // Demand conservation: link loads imply total volume-delay work
            // bounded and every aggregate fully routed (validate checks the
            // fraction sums; here check loads are consistent).
            let ev = PlacementEval::evaluate(&topo, &tm, &placement);
            prop_assert!(ev.latency_stretch() >= 1.0 - 1e-6,
                "{}: stretch below 1", scheme.name());
            prop_assert!(ev.max_flow_stretch() >= 1.0 - 1e-6);
            prop_assert!(ev.max_flow_stretch().is_finite());
            prop_assert!((0.0..=1.0).contains(&ev.congested_pair_fraction()));
            // fits <=> max utilization <= 1 (+tol).
            prop_assert_eq!(ev.fits(), ev.max_utilization() <= 1.0 + 1e-5,
                "fits flag inconsistent for {}", scheme.name());
        }
    }

    #[test]
    fn latopt_is_lower_bound_on_latency_when_everything_fits(
        topo in arb_topology(),
        demands in arb_tm(9),
    ) {
        let demands: Vec<_> = demands.into_iter().filter(|&(s, d, _)| s < topo.pop_count() && d < topo.pop_count()).collect();
        let Some(tm) = build_tm(&demands) else { return Ok(()); };
        let cache = PathCache::new(topo.graph());
        let opt = LatencyOptimal::default().place(&cache, &tm).expect("latopt");
        let ev_opt = PlacementEval::evaluate(&topo, &tm, &opt);
        if !ev_opt.fits() {
            return Ok(()); // congestion unavoidable: bound doesn't apply
        }
        for scheme in [
            Box::new(MinMaxRouting::with_k(6)) as Box<dyn RoutingScheme>,
            Box::new(B4Routing::default()),
        ] {
            let other = scheme.place(&cache, &tm).expect("scheme");
            let ev = PlacementEval::evaluate(&topo, &tm, &other);
            if ev.fits() {
                prop_assert!(
                    ev_opt.latency_stretch() <= ev.latency_stretch() + 1e-4,
                    "{} beat the optimum: {} vs {}",
                    scheme.name(), ev.latency_stretch(), ev_opt.latency_stretch()
                );
            }
        }
    }

    #[test]
    fn llpd_well_defined_on_random_topologies(topo in arb_topology()) {
        let analysis = LlpdAnalysis::compute(&topo, &LlpdConfig::default());
        prop_assert!((0.0..=1.0).contains(&analysis.llpd()));
        for &apa in analysis.apa_values() {
            prop_assert!((0.0..=1.0).contains(&apa));
        }
        prop_assert_eq!(analysis.apa_values().len(), topo.unordered_pairs().len());
    }
}
