//! Shortest-path routing with delay-proportional link costs — OSPF/IS-IS as
//! an ISP chasing latency would configure them (§3 "Shortest path routing").

use lowlat_tmgen::TrafficMatrix;

use crate::placement::{AggregatePlacement, Placement};
use crate::schemes::{RoutingScheme, SchemeError, SolveContext};
use crate::source::PathSource;

/// Every aggregate rides its single lowest-delay path, demand-oblivious.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShortestPathRouting;

impl RoutingScheme for ShortestPathRouting {
    fn name(&self) -> String {
        "SP".into()
    }

    fn place_with_context(
        &self,
        source: &dyn PathSource,
        tm: &TrafficMatrix,
        _ctx: &mut SolveContext,
    ) -> Result<Placement, SchemeError> {
        let per_aggregate = tm
            .aggregates()
            .iter()
            .map(|a| AggregatePlacement {
                splits: vec![(
                    source.shortest(a.src, a.dst).expect("topologies are connected"),
                    1.0,
                )],
            })
            .collect();
        Ok(Placement::new(per_aggregate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::PlacementEval;
    use crate::pathset::PathCache;
    use lowlat_netgraph::NodeId;
    use lowlat_tmgen::Aggregate;
    use lowlat_topology::zoo::named;

    #[test]
    fn rides_shortest_and_reports_stretch_one() {
        let topo = named::abilene();
        let tm = TrafficMatrix::new(vec![Aggregate {
            src: NodeId(0),
            dst: NodeId(10),
            volume_mbps: 100.0,
            flow_count: 20,
        }]);
        let pl = ShortestPathRouting.place(&PathCache::new(topo.graph()), &tm).unwrap();
        assert!(pl.validate(topo.graph(), &tm).is_ok());
        let ev = PlacementEval::evaluate(&topo, &tm, &pl);
        assert!((ev.latency_stretch() - 1.0).abs() < 1e-9);
        assert!((ev.max_flow_stretch() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn concentrates_traffic_when_demands_collide() {
        // Everyone sends to PoP 0: the links into 0 carry everything.
        let topo = named::abilene();
        let aggs: Vec<Aggregate> = (1..11)
            .map(|i| Aggregate {
                src: NodeId(i),
                dst: NodeId(0),
                volume_mbps: 9_000.0,
                flow_count: 10,
            })
            .collect();
        let tm = TrafficMatrix::new(aggs);
        let pl = ShortestPathRouting.place(&PathCache::new(topo.graph()), &tm).unwrap();
        let ev = PlacementEval::evaluate(&topo, &tm, &pl);
        // 90 Gb/s into a node with ~2 x 10G links: heavy congestion.
        assert!(ev.congested_pair_fraction() > 0.5);
        assert!(!ev.fits());
    }
}
