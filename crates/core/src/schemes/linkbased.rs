//! Link-based multicommodity-flow formulation of latency-optimal routing —
//! the *slow baseline* of Figure 15.
//!
//! The paper notes a link-based model "scales with the product of number of
//! aggregates and number of links" and measures it about two orders of
//! magnitude slower than LDR's path-based iteration. We implement the
//! standard destination-aggregated form (one commodity per destination,
//! flow conservation at every other node): exact for total-delay objectives
//! when flow counts are proportional to volumes — which our tm-gen
//! guarantees — and still dramatically slower than the path-based loop, so
//! the Figure-15 comparison carries over. Unlike the Figure-12 LP it has no
//! overload variables: infeasible demand is an error, not a placement.

use std::collections::HashMap;

use lowlat_linprog::{LpError, Problem, Relation};
use lowlat_netgraph::{FailureMask, Graph, LinkId, NodeId, Path};
use lowlat_tmgen::TrafficMatrix;

use crate::placement::{AggregatePlacement, Placement};
use crate::schemes::{RoutingScheme, SchemeError, SolveContext};
use crate::source::PathSource;

/// How commodities are formed in the MCF model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CommodityForm {
    /// One commodity per *destination* — the standard aggregation, exact
    /// for total-delay objectives with `n_a ∝ B_a`, and the form our
    /// Figure-15 numbers use.
    #[default]
    PerDestination,
    /// One commodity per *aggregate* — the paper's literal formulation,
    /// whose size is O(aggregates × links). Only viable on small networks;
    /// provided so the equivalence of the two forms can be tested.
    PerAggregate,
}

/// Latency-optimal routing via a link-based MCF LP.
#[derive(Clone, Copy, Debug, Default)]
pub struct LinkBasedOptimal {
    /// Capacity fraction reserved as headroom.
    pub headroom: f64,
    /// Commodity aggregation.
    pub form: CommodityForm,
}

impl LinkBasedOptimal {
    /// Creates the scheme with a headroom fraction (destination-aggregated).
    ///
    /// # Panics
    /// Panics when headroom is outside `[0, 1)`.
    pub fn new(headroom: f64) -> Self {
        assert!((0.0..1.0).contains(&headroom));
        LinkBasedOptimal { headroom, form: CommodityForm::PerDestination }
    }

    /// The paper's literal per-aggregate form (small networks only).
    pub fn per_aggregate(headroom: f64) -> Self {
        assert!((0.0..1.0).contains(&headroom));
        LinkBasedOptimal { headroom, form: CommodityForm::PerAggregate }
    }

    /// One commodity per aggregate: variables f[a][l], conservation at
    /// every node per aggregate. O(aggregates × links) variables — the
    /// scaling the paper warns about.
    fn solve_per_aggregate(
        &self,
        graph: &Graph,
        tm: &TrafficMatrix,
        caps: &[f64],
        mask: Option<&FailureMask>,
    ) -> Result<Placement, SchemeError> {
        let nl = graph.link_count();
        let na = tm.aggregates().len();
        let mut p = Problem::minimize(na * nl);
        let var = |a: usize, l: usize| a * nl + l;
        for (a, agg) in tm.aggregates().iter().enumerate() {
            // Objective: n_a/B_a * Σ d_l f_al, matching Figure 12's
            // flow-count weighting exactly (no proportionality assumption).
            let w = agg.flow_count as f64 / agg.volume_mbps;
            for l in 0..nl {
                p.set_objective(var(a, l), w * graph.link(LinkId(l as u32)).delay_ms);
            }
            for v in graph.nodes() {
                if v == agg.dst {
                    continue;
                }
                let mut coeffs: Vec<(usize, f64)> = Vec::new();
                for l in graph.out_links(v) {
                    coeffs.push((var(a, l.idx()), 1.0));
                }
                for l in graph.in_links(v) {
                    coeffs.push((var(a, l.idx()), -1.0));
                }
                let supply = if v == agg.src { agg.volume_mbps } else { 0.0 };
                p.add_row(Relation::Eq, supply, &coeffs);
            }
        }
        let cap_scale = 1.0 - self.headroom;
        for l in 0..nl {
            let coeffs: Vec<(usize, f64)> = (0..na).map(|a| (var(a, l), 1.0)).collect();
            p.add_row(Relation::Le, caps[l] * cap_scale, &coeffs);
        }
        let sol = match p.solve() {
            Ok(s) => s,
            Err(LpError::Infeasible) => return Err(SchemeError::Infeasible),
            Err(e) => return Err(SchemeError::Solver(e)),
        };
        let mut per_aggregate = Vec::with_capacity(na);
        for (a, agg) in tm.aggregates().iter().enumerate() {
            let mut flow: Vec<f64> = (0..nl).map(|l| sol.value(var(a, l))).collect();
            let splits = decompose(graph, &mut flow, agg.src, agg.dst, agg.volume_mbps, mask);
            per_aggregate.push(AggregatePlacement { splits });
        }
        Ok(Placement::new(per_aggregate))
    }

    fn solve_per_destination(
        &self,
        graph: &Graph,
        tm: &TrafficMatrix,
        caps: &[f64],
        mask: Option<&FailureMask>,
    ) -> Result<Placement, SchemeError> {
        let nl = graph.link_count();

        // Destinations with demand, and demand per (src, dst).
        let mut dests: Vec<NodeId> = tm.aggregates().iter().map(|a| a.dst).collect();
        dests.sort();
        dests.dedup();
        let dest_index: HashMap<NodeId, usize> =
            dests.iter().enumerate().map(|(i, &d)| (d, i)).collect();

        // Variable layout: f[t][l] = var t * nl + l.
        let num_vars = dests.len() * nl;
        let mut p = Problem::minimize(num_vars);
        let var = |t: usize, l: usize| t * nl + l;

        // Objective: total propagation delay = Σ d_l * flow_l (exact for
        // n_a ∝ B_a).
        for (t, _) in dests.iter().enumerate() {
            for l in 0..nl {
                p.set_objective(var(t, l), graph.link(LinkId(l as u32)).delay_ms);
            }
        }
        // Conservation at every node v != t: out - in = supply(v -> t).
        for (t, &dst) in dests.iter().enumerate() {
            for v in graph.nodes() {
                if v == dst {
                    continue;
                }
                let mut coeffs: Vec<(usize, f64)> = Vec::new();
                for l in graph.out_links(v) {
                    coeffs.push((var(t, l.idx()), 1.0));
                }
                for l in graph.in_links(v) {
                    coeffs.push((var(t, l.idx()), -1.0));
                }
                let supply = tm.volume_between(v, dst);
                p.add_row(Relation::Eq, supply, &coeffs);
            }
        }
        // Capacity per link across commodities.
        let cap_scale = 1.0 - self.headroom;
        for l in 0..nl {
            let coeffs: Vec<(usize, f64)> = (0..dests.len()).map(|t| (var(t, l), 1.0)).collect();
            p.add_row(Relation::Le, caps[l] * cap_scale, &coeffs);
        }

        let sol = match p.solve() {
            Ok(s) => s,
            Err(LpError::Infeasible) => return Err(SchemeError::Infeasible),
            Err(e) => return Err(SchemeError::Solver(e)),
        };

        // Flow decomposition: per destination, peel paths off the flow
        // support for each source, shortest-delay-first.
        let mut per_aggregate: Vec<AggregatePlacement> = Vec::with_capacity(tm.aggregates().len());
        let mut flows: Vec<Vec<f64>> = dests
            .iter()
            .enumerate()
            .map(|(t, _)| (0..nl).map(|l| sol.value(var(t, l))).collect())
            .collect();
        for agg in tm.aggregates() {
            let t = dest_index[&agg.dst];
            let splits = decompose(graph, &mut flows[t], agg.src, agg.dst, agg.volume_mbps, mask);
            per_aggregate.push(AggregatePlacement { splits });
        }
        Ok(Placement::new(per_aggregate))
    }
}

/// Peels `volume` worth of s->t paths out of a per-link flow vector,
/// lowest-delay paths first. Leftover round-off is assigned to the last
/// path found.
fn decompose(
    graph: &Graph,
    flow: &mut [f64],
    s: NodeId,
    t: NodeId,
    volume: f64,
    failure: Option<&FailureMask>,
) -> Vec<(Path, f64)> {
    let mut remaining = volume;
    let mut out: Vec<(Path, f64)> = Vec::new();
    let eps = volume.max(1.0) * 1e-9;
    while remaining > eps {
        // Shortest path within the flow support.
        let mut mask = lowlat_netgraph::BitSet::new(graph.link_count());
        for l in 0..graph.link_count() {
            if flow[l] <= eps {
                mask.insert(l);
            }
        }
        let Some(path) = lowlat_netgraph::shortest_path(graph, s, t, Some(&mask), None) else {
            break;
        };
        let bottleneck = path.links().iter().map(|&l| flow[l.idx()]).fold(f64::INFINITY, f64::min);
        let take = bottleneck.min(remaining);
        for &l in path.links() {
            flow[l.idx()] -= take;
        }
        out.push((path, take));
        remaining -= take;
    }
    if remaining > eps && !out.is_empty() {
        // Round-off leftovers ride the last peeled path.
        let last = out.len() - 1;
        out[last].1 += remaining;
    } else if out.is_empty() {
        // Degenerate: no flow found (should not happen on feasible LPs);
        // fall back to the (masked) shortest path.
        let path = lowlat_netgraph::shortest_path(
            graph,
            s,
            t,
            failure.and_then(|m| m.link_mask()),
            failure.and_then(|m| m.node_mask()),
        )
        .expect("connected");
        out.push((path, volume));
    }
    let total: f64 = out.iter().map(|(_, v)| v).sum();
    out.into_iter().map(|(p, v)| (p, v / total)).collect()
}

impl RoutingScheme for LinkBasedOptimal {
    fn name(&self) -> String {
        "LinkBased".into()
    }

    fn place_with_context(
        &self,
        source: &dyn PathSource,
        tm: &TrafficMatrix,
        _ctx: &mut SolveContext,
    ) -> Result<Placement, SchemeError> {
        // The link-based MCF works on raw link flows; it only borrows the
        // source's graph, capacity view and failure overlay, never its path
        // sets. A downed link's capacity is 0, so the MCF routes on the
        // failed topology.
        let (graph, caps) = (source.graph(), source.effective_capacities());
        let mask = source.failure_mask();
        match self.form {
            CommodityForm::PerDestination => {
                self.solve_per_destination(graph, tm, &caps, mask.as_deref())
            }
            CommodityForm::PerAggregate => {
                self.solve_per_aggregate(graph, tm, &caps, mask.as_deref())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::PlacementEval;
    use crate::pathset::PathCache;
    use crate::schemes::latopt::LatencyOptimal;
    use lowlat_tmgen::Aggregate;
    use lowlat_topology::{zoo::named, GeoPoint, Topology, TopologyBuilder};

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

    #[test]
    fn matches_path_based_optimum() {
        let topo = two_path();
        let cache = PathCache::new(topo.graph());
        let tm = TrafficMatrix::new(vec![Aggregate {
            src: NodeId(0),
            dst: NodeId(3),
            volume_mbps: 150.0,
            flow_count: 30,
        }]);
        let lb = LinkBasedOptimal::default().place(&cache, &tm).unwrap();
        let pb = LatencyOptimal::default().place(&cache, &tm).unwrap();
        let ev_lb = PlacementEval::evaluate(&topo, &tm, &lb);
        let ev_pb = PlacementEval::evaluate(&topo, &tm, &pb);
        assert!(lb.validate(topo.graph(), &tm).is_ok());
        assert!(
            (ev_lb.latency_stretch() - ev_pb.latency_stretch()).abs() < 1e-4,
            "link-based {} vs path-based {}",
            ev_lb.latency_stretch(),
            ev_pb.latency_stretch()
        );
    }

    #[test]
    fn infeasible_demand_is_an_error() {
        let topo = two_path();
        let tm = TrafficMatrix::new(vec![Aggregate {
            src: NodeId(0),
            dst: NodeId(3),
            volume_mbps: 500.0,
            flow_count: 100,
        }]);
        assert_eq!(
            LinkBasedOptimal::default().place(&PathCache::new(topo.graph()), &tm).unwrap_err(),
            SchemeError::Infeasible
        );
    }

    #[test]
    fn per_aggregate_form_matches_destination_form() {
        // The paper's literal formulation and the aggregated one must find
        // the same optimum when flow counts are proportional to volumes.
        let topo = two_path();
        let cache = PathCache::new(topo.graph());
        let tm = TrafficMatrix::new(vec![
            Aggregate { src: NodeId(0), dst: NodeId(3), volume_mbps: 150.0, flow_count: 30 },
            Aggregate { src: NodeId(1), dst: NodeId(3), volume_mbps: 40.0, flow_count: 8 },
        ]);
        let agg_form = LinkBasedOptimal::per_aggregate(0.0).place(&cache, &tm).unwrap();
        let dst_form = LinkBasedOptimal::default().place(&cache, &tm).unwrap();
        let (e1, e2) = (
            PlacementEval::evaluate(&topo, &tm, &agg_form),
            PlacementEval::evaluate(&topo, &tm, &dst_form),
        );
        assert!(
            (e1.latency_stretch() - e2.latency_stretch()).abs() < 1e-6,
            "per-aggregate {} vs per-destination {}",
            e1.latency_stretch(),
            e2.latency_stretch()
        );
        assert!(agg_form.validate(topo.graph(), &tm).is_ok());
    }

    #[test]
    fn per_aggregate_form_matches_pathgrow_with_unequal_flow_weights() {
        // Where flow counts are NOT proportional to volume, the
        // per-aggregate form keeps the exact Figure-12 objective; check it
        // against the path-based LP, which also weights by flows.
        let topo = two_path();
        let cache = PathCache::new(topo.graph());
        let tm = TrafficMatrix::new(vec![
            Aggregate { src: NodeId(0), dst: NodeId(3), volume_mbps: 80.0, flow_count: 100 },
            Aggregate { src: NodeId(0), dst: NodeId(2), volume_mbps: 80.0, flow_count: 1 },
        ]);
        let lb = LinkBasedOptimal::per_aggregate(0.0).place(&cache, &tm).unwrap();
        let pb = LatencyOptimal::default().place(&cache, &tm).unwrap();
        let (e1, e2) =
            (PlacementEval::evaluate(&topo, &tm, &lb), PlacementEval::evaluate(&topo, &tm, &pb));
        assert!(
            (e1.latency_stretch() - e2.latency_stretch()).abs() < 1e-4,
            "link {} vs path {}",
            e1.latency_stretch(),
            e2.latency_stretch()
        );
    }

    #[test]
    fn abilene_small_matrix_agrees_with_path_based() {
        let topo = named::abilene();
        let cache = PathCache::new(topo.graph());
        let gen = lowlat_tmgen::GravityTmGen::new(lowlat_tmgen::TmGenConfig {
            total_volume_mbps: 50_000.0,
            ..Default::default()
        });
        let tm = gen.generate(&topo, 0);
        let lb = LinkBasedOptimal::default().place(&cache, &tm).unwrap();
        let pb = LatencyOptimal::default().place(&cache, &tm).unwrap();
        let ev_lb = PlacementEval::evaluate(&topo, &tm, &lb);
        let ev_pb = PlacementEval::evaluate(&topo, &tm, &pb);
        assert!(
            (ev_lb.latency_stretch() - ev_pb.latency_stretch()).abs() < 5e-3,
            "link {} vs path {}",
            ev_lb.latency_stretch(),
            ev_pb.latency_stretch()
        );
    }
}
