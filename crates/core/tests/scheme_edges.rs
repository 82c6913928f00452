//! Edge cases across the routing schemes: degenerate matrices, tolerance
//! boundaries, configuration extremes.

use lowlat_core::eval::PlacementEval;
use lowlat_core::pathset::PathCache;
use lowlat_core::schemes::b4::{B4Config, B4Routing};
use lowlat_core::schemes::latopt::LatencyOptimal;
use lowlat_core::schemes::ldr::Ldr;
use lowlat_core::schemes::minmax::MinMaxRouting;
use lowlat_core::schemes::mpls::MplsAutoBandwidth;
use lowlat_core::schemes::sp::ShortestPathRouting;
use lowlat_core::schemes::RoutingScheme;
use lowlat_netgraph::NodeId;
use lowlat_tmgen::{Aggregate, TrafficMatrix};
use lowlat_topology::{GeoPoint, Topology, TopologyBuilder};

fn line3() -> Topology {
    let mut b = TopologyBuilder::new("line3");
    let a = b.add_pop("A", GeoPoint::new(40.0, -100.0));
    let m = b.add_pop("M", GeoPoint::new(40.5, -97.0));
    let z = b.add_pop("Z", GeoPoint::new(41.0, -94.0));
    b.connect_with_delay(a, m, 1.0, 100.0);
    b.connect_with_delay(m, z, 1.0, 100.0);
    b.build()
}

fn tm1(v: f64) -> TrafficMatrix {
    TrafficMatrix::new(vec![Aggregate {
        src: NodeId(0),
        dst: NodeId(2),
        volume_mbps: v,
        flow_count: 1,
    }])
}

#[test]
fn exact_capacity_load_fits() {
    // Load == capacity exactly: within CONGESTION_TOL, must count as fit.
    let topo = line3();
    let tm = tm1(100.0);
    let pl = ShortestPathRouting.place(&PathCache::new(topo.graph()), &tm).unwrap();
    let ev = PlacementEval::evaluate(&topo, &tm, &pl);
    assert!(ev.fits(), "exact fill is not congestion");
    assert!((ev.max_utilization() - 1.0).abs() < 1e-12);
}

#[test]
fn single_path_network_all_schemes_agree() {
    // Only one path exists: every scheme must produce the same placement.
    let topo = line3();
    let tm = tm1(42.0);
    let schemes: Vec<Box<dyn RoutingScheme>> = vec![
        Box::new(ShortestPathRouting),
        Box::new(B4Routing::default()),
        Box::new(MplsAutoBandwidth::default()),
        Box::new(MinMaxRouting::unrestricted()),
        Box::new(LatencyOptimal::default()),
        Box::new(Ldr::default()),
    ];
    let cache = PathCache::new(topo.graph());
    for s in schemes {
        let pl = s.place(&cache, &tm).unwrap();
        let ev = PlacementEval::evaluate(&topo, &tm, &pl);
        assert!((ev.latency_stretch() - 1.0).abs() < 1e-9, "{}", s.name());
        assert_eq!(pl.aggregate(0).splits.iter().filter(|(_, x)| *x > 1e-9).count(), 1);
    }
}

#[test]
fn empty_matrix_handled_by_lp_schemes() {
    let topo = line3();
    let tm = TrafficMatrix::new(vec![]);
    let cache = PathCache::new(topo.graph());
    for s in [
        Box::new(LatencyOptimal::default()) as Box<dyn RoutingScheme>,
        Box::new(MinMaxRouting::unrestricted()),
        Box::new(Ldr::default()),
        Box::new(ShortestPathRouting) as Box<dyn RoutingScheme>,
    ] {
        let pl = s.place(&cache, &tm).unwrap();
        assert!(pl.per_aggregate().is_empty(), "{}", s.name());
    }
}

#[test]
fn b4_with_max_paths_one_is_sp_with_overflow() {
    let mut b = TopologyBuilder::new("two");
    let a = b.add_pop("A", GeoPoint::new(40.0, -100.0));
    let m = b.add_pop("M", GeoPoint::new(41.0, -97.0));
    let n = b.add_pop("N", GeoPoint::new(39.0, -97.0));
    let z = b.add_pop("Z", GeoPoint::new(40.0, -94.0));
    b.connect_with_delay(a, m, 1.0, 100.0);
    b.connect_with_delay(m, z, 1.0, 100.0);
    b.connect_with_delay(a, n, 3.0, 100.0);
    b.connect_with_delay(n, z, 3.0, 100.0);
    let topo = b.build();
    let tm = TrafficMatrix::new(vec![Aggregate {
        src: NodeId(0),
        dst: NodeId(3),
        volume_mbps: 150.0,
        flow_count: 1,
    }]);
    let pl = B4Routing::new(B4Config { max_paths: 1, ..Default::default() })
        .place(&PathCache::new(topo.graph()), &tm)
        .unwrap();
    let ev = PlacementEval::evaluate(&topo, &tm, &pl);
    // With one path allowed, the 150 lands on the 100-capacity short path.
    assert!(!ev.fits());
    assert!((ev.latency_stretch() - 1.0).abs() < 1e-9);
}

#[test]
fn reverse_direction_independence() {
    // Forward congestion must not mark the reverse-direction pair congested
    // (directionality, the crux of the Figure-5 example).
    let topo = line3();
    let tm = TrafficMatrix::new(vec![
        Aggregate { src: NodeId(0), dst: NodeId(2), volume_mbps: 150.0, flow_count: 1 },
        Aggregate { src: NodeId(2), dst: NodeId(0), volume_mbps: 10.0, flow_count: 1 },
    ]);
    let pl = ShortestPathRouting.place(&PathCache::new(topo.graph()), &tm).unwrap();
    let ev = PlacementEval::evaluate(&topo, &tm, &pl);
    assert!((ev.congested_pair_fraction() - 0.5).abs() < 1e-9, "only the forward pair");
}

#[test]
fn path_cache_shared_across_schemes() {
    // The Figure-15 deployment mode: one cache serving several schemes.
    let topo = line3();
    let cache = PathCache::new(topo.graph());
    let tm = tm1(10.0);
    let _ = ShortestPathRouting.place(&cache, &tm).unwrap();
    let _ = B4Routing::default().place(&cache, &tm).unwrap();
    let _ = Ldr::default().place(&cache, &tm).unwrap();
    assert!(cache.cached_count(NodeId(0), NodeId(2)) >= 1);
}

#[test]
fn zero_headroom_ldr_equals_latopt() {
    let topo = line3();
    let cache = PathCache::new(topo.graph());
    let tm = tm1(60.0);
    let cfg = lowlat_core::schemes::ldr::LdrConfig { static_headroom: 0.0, ..Default::default() };
    let ldr = Ldr::new(cfg).place(&cache, &tm).unwrap();
    let lo = LatencyOptimal::default().place(&cache, &tm).unwrap();
    let (e1, e2) =
        (PlacementEval::evaluate(&topo, &tm, &ldr), PlacementEval::evaluate(&topo, &tm, &lo));
    assert!((e1.latency_stretch() - e2.latency_stretch()).abs() < 1e-9);
}
