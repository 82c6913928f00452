//! Equal-cost multi-path shortest-path routing — OSPF/IS-IS as actually
//! deployed, splitting traffic evenly across *all* tied lowest-delay paths.
//!
//! The paper's SP baseline (Figure 3) is single-path; ECMP is the variant
//! every ISP runs in practice, and comparing the two quantifies how much of
//! SP's congestion problem mere tie-splitting can absorb (spoiler: only the
//! part caused by exact delay ties, which geographic delays make rare —
//! high-LLPD networks stay hard). Splitting is per-aggregate over the
//! shortest-path DAG with even next-hop division at each node, matching
//! per-flow ECMP hashing in expectation.

use std::collections::HashMap;

use lowlat_netgraph::{shortest_path_tree, FailureMask, Graph, LinkId, NodeId, Path};
use lowlat_tmgen::TrafficMatrix;

use crate::placement::{AggregatePlacement, Placement};
use crate::schemes::{RoutingScheme, SchemeError, SolveContext};
use crate::source::PathSource;

/// Relative tolerance for "equal cost".
const TIE_TOL: f64 = 1e-9;

/// ECMP over delay-weighted shortest paths.
#[derive(Clone, Copy, Debug, Default)]
pub struct EcmpRouting;

impl EcmpRouting {
    /// Enumerates the equal-cost path set from `src` to `dst` with the
    /// fraction of traffic each receives under even per-hop splitting.
    ///
    /// Walks the shortest-path DAG (links `(u,v)` with
    /// `dist(u) + delay(u,v) = dist(v)`), dividing each node's incoming
    /// share evenly among its outgoing DAG links. Exponential path counts
    /// cannot occur in backbone-sized graphs with geographic delays (ties
    /// need exactly equal sums), but a cap guards pathological inputs.
    fn ecmp_paths(
        graph: &Graph,
        src: NodeId,
        dst: NodeId,
        mask: Option<&FailureMask>,
    ) -> Vec<(Path, f64)> {
        // Distances *to* dst: run the tree from dst over reversed edges by
        // using dist from src and checking the forward condition instead.
        // Failed elements are excluded both here and from the DAG below, so
        // ECMP reroutes like a re-converged IGP.
        let tree = shortest_path_tree(
            graph,
            src,
            mask.and_then(|m| m.link_mask()),
            mask.and_then(|m| m.node_mask()),
        );
        let dist_to = |v: NodeId| tree.dist_ms(v);
        debug_assert!(dist_to(dst).is_finite());

        // A link (u -> v) is on some shortest src->dst path iff it is
        // *tight* (dist(u) + d(u,v) == dist(v)) and dst is reachable from v
        // through tight links. Reverse BFS from dst over tight in-links
        // discovers exactly those edges.
        let mut dag_out: HashMap<NodeId, Vec<LinkId>> = HashMap::new();
        let mut stack = vec![dst];
        let mut reach = vec![false; graph.node_count()];
        reach[dst.idx()] = true;
        while let Some(v) = stack.pop() {
            for l in graph.in_links(v) {
                if mask.is_some_and(|m| m.link_down(graph, l)) {
                    continue;
                }
                let link = graph.link(l);
                let u = link.src;
                if dist_to(u).is_finite()
                    && (dist_to(u) + link.delay_ms - dist_to(v)).abs()
                        <= TIE_TOL * (1.0 + dist_to(v))
                {
                    dag_out.entry(u).or_default().push(l);
                    if !reach[u.idx()] {
                        reach[u.idx()] = true;
                        stack.push(u);
                    }
                }
            }
        }
        for v in dag_out.values_mut() {
            v.sort();
            v.dedup();
        }

        // Path enumeration with per-hop share division.
        const MAX_PATHS: usize = 64;
        let mut out: Vec<(Path, f64)> = Vec::new();
        let mut frontier: Vec<(NodeId, Vec<LinkId>, f64)> = vec![(src, Vec::new(), 1.0)];
        while let Some((at, links, share)) = frontier.pop() {
            if at == dst {
                out.push((Path::new(graph, links), share));
                continue;
            }
            let nexts = dag_out.get(&at).map(Vec::as_slice).unwrap_or(&[]);
            debug_assert!(!nexts.is_empty(), "DAG dead end");
            let split = share / nexts.len() as f64;
            for &l in nexts {
                if out.len() + frontier.len() >= MAX_PATHS {
                    // Guard: merge remainder onto the first DAG choice.
                    let mut ls = links.clone();
                    ls.push(l);
                    let mut v = graph.link(l).dst;
                    while v != dst {
                        let n = dag_out[&v][0];
                        ls.push(n);
                        v = graph.link(n).dst;
                    }
                    out.push((Path::new(graph, ls), split));
                    continue;
                }
                let mut ls = links.clone();
                ls.push(l);
                frontier.push((graph.link(l).dst, ls, split));
            }
        }
        // Merge duplicate paths (possible via the cap fallback).
        let mut merged: Vec<(Path, f64)> = Vec::new();
        for (p, x) in out {
            if let Some(e) = merged.iter_mut().find(|(q, _)| q.links() == p.links()) {
                e.1 += x;
            } else {
                merged.push((p, x));
            }
        }
        merged
    }
}

impl RoutingScheme for EcmpRouting {
    fn name(&self) -> String {
        "ECMP".into()
    }

    fn place_with_context(
        &self,
        source: &dyn PathSource,
        tm: &TrafficMatrix,
        _ctx: &mut SolveContext,
    ) -> Result<Placement, SchemeError> {
        let graph = source.graph();
        let mask = source.failure_mask();
        let per_aggregate = tm
            .aggregates()
            .iter()
            .map(|a| AggregatePlacement {
                splits: Self::ecmp_paths(graph, a.src, a.dst, mask.as_deref()),
            })
            .collect();
        let placement = Placement::new(per_aggregate);
        debug_assert!(placement.validate(graph, tm).is_ok());
        Ok(placement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::PlacementEval;
    use crate::pathset::PathCache;
    use crate::schemes::sp::ShortestPathRouting;
    use lowlat_tmgen::Aggregate;
    use lowlat_topology::{GeoPoint, Topology, TopologyBuilder};

    /// Two exactly-tied 2 ms paths A->Z plus a longer third.
    fn tied() -> Topology {
        let mut b = TopologyBuilder::new("tied");
        let a = b.add_pop("A", GeoPoint::new(40.0, -100.0));
        let m = b.add_pop("M", GeoPoint::new(41.0, -97.0));
        let n = b.add_pop("N", GeoPoint::new(39.0, -97.0));
        let z = b.add_pop("Z", GeoPoint::new(40.0, -94.0));
        b.connect_with_delay(a, m, 1.0, 100.0);
        b.connect_with_delay(m, z, 1.0, 100.0);
        b.connect_with_delay(a, n, 1.0, 100.0);
        b.connect_with_delay(n, z, 1.0, 100.0);
        b.connect_with_delay(a, z, 5.0, 100.0);
        b.build()
    }

    fn tm(v: f64) -> TrafficMatrix {
        TrafficMatrix::new(vec![Aggregate {
            src: NodeId(0),
            dst: NodeId(3),
            volume_mbps: v,
            flow_count: 10,
        }])
    }

    #[test]
    fn splits_ties_evenly() {
        let topo = tied();
        let pl = EcmpRouting.place(&PathCache::new(topo.graph()), &tm(100.0)).unwrap();
        let splits = &pl.aggregate(0).splits;
        assert_eq!(splits.len(), 2, "two tied paths, direct 5 ms not used");
        for (p, x) in splits {
            assert!((x - 0.5).abs() < 1e-12);
            assert!((p.delay_ms() - 2.0).abs() < 1e-12);
        }
        let ev = PlacementEval::evaluate(&topo, &tm(100.0), &pl);
        assert!((ev.latency_stretch() - 1.0).abs() < 1e-12, "ties cost nothing");
    }

    #[test]
    fn ecmp_fits_what_single_path_sp_congests() {
        let topo = tied();
        let cache = PathCache::new(topo.graph());
        let t = tm(150.0);
        let sp = ShortestPathRouting.place(&cache, &t).unwrap();
        let ecmp = EcmpRouting.place(&cache, &t).unwrap();
        assert!(!PlacementEval::evaluate(&topo, &t, &sp).fits(), "150 on one 100 path");
        assert!(PlacementEval::evaluate(&topo, &t, &ecmp).fits(), "75+75 across the tie");
    }

    #[test]
    fn no_ties_means_identical_to_sp() {
        // Geographic delays: ties are measure-zero, ECMP == SP.
        let topo = lowlat_topology::zoo::named::abilene();
        let cache = PathCache::new(topo.graph());
        let t = TrafficMatrix::new(vec![Aggregate {
            src: NodeId(0),
            dst: NodeId(10),
            volume_mbps: 100.0,
            flow_count: 20,
        }]);
        let sp = ShortestPathRouting.place(&cache, &t).unwrap();
        let ecmp = EcmpRouting.place(&cache, &t).unwrap();
        assert_eq!(ecmp.aggregate(0).splits.len(), 1);
        assert_eq!(ecmp.aggregate(0).splits[0].0.links(), sp.aggregate(0).splits[0].0.links());
    }

    #[test]
    fn shares_sum_to_one_on_zoo_networks() {
        let topo = lowlat_topology::zoo::grid(4, 4, 0.2, lowlat_topology::zoo::EUROPE, 11);
        let aggs: Vec<Aggregate> = topo
            .ordered_pairs()
            .into_iter()
            .take(40)
            .map(|(s, d)| Aggregate { src: s, dst: d, volume_mbps: 10.0, flow_count: 2 })
            .collect();
        let t = TrafficMatrix::new(aggs);
        let pl = EcmpRouting.place(&PathCache::new(topo.graph()), &t).unwrap();
        assert!(pl.validate(topo.graph(), &t).is_ok());
    }
}
