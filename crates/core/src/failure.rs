//! Failure scenarios and post-failure evaluation — the topology-dynamics
//! axis of the experiment surface.
//!
//! The paper's claim is that low-latency routing stays *capable* when the
//! topology degrades; the related Snowcap work evaluates entire
//! reconfiguration orderings. This module supplies the building blocks for
//! both directions:
//!
//! * **scenario generators** — exhaustive single-cable failures, random
//!   k-cable failures, node (PoP) failures, and SRLG sets (cables sharing a
//!   risk group, e.g. a conduit out of one PoP) — each a declarative
//!   [`FailureScenario`] that compiles to a [`FailureMask`];
//! * **routable partitioning** — which demand survives a failure at all
//!   ([`partition_routable`]), since a disconnected aggregate is a fact to
//!   measure, not an error to crash on;
//! * **post-failure metrics** — unroutable demand fraction, path stretch
//!   *relative to the intact topology*, and overload against effective
//!   (degraded) capacities ([`FailureImpact`], a read of the one placement
//!   evaluator, [`PlacementEval::under`], under the mask);
//! * **the recovery drill** — [`replace_under_failure`] runs the §5
//!   reaction end to end: repair the shared
//!   [`PathSource`] under the mask, drop
//!   disconnected demand, re-place through the scheme's warm
//!   [`SolveContext`], and report both the repair and the LP telemetry.

use lowlat_netgraph::{BitSet, FailureMask, Graph, LinkId, NodeId, RangeError};
use lowlat_telemetry as telemetry;
use lowlat_tmgen::TrafficMatrix;
use lowlat_topology::{PopId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::eval::PlacementEval;
use crate::pathset::RepairStats;
use crate::placement::Placement;
use crate::schemes::{RoutingScheme, SchemeError, SolveContext};
use crate::source::PathSource;

/// A declarative failure: which cables/nodes go down and which cables
/// degrade, independent of any graph. Compiled to a [`FailureMask`] against
/// a concrete topology with [`FailureScenario::mask`].
#[derive(Clone, Debug)]
pub struct FailureScenario {
    /// Human-readable scenario id (one TSV cell in the sweeps).
    pub name: String,
    /// Cables taken down (canonical directed link id; both directions fail).
    pub cables: Vec<LinkId>,
    /// PoPs taken down entirely.
    pub nodes: Vec<PopId>,
    /// Cables degraded to `factor * capacity` (`0 < factor < 1`), both
    /// directions.
    pub degradations: Vec<(LinkId, f64)>,
}

impl FailureScenario {
    /// The all-up scenario.
    pub fn none() -> Self {
        FailureScenario {
            name: "none".to_string(),
            cables: Vec::new(),
            nodes: Vec::new(),
            degradations: Vec::new(),
        }
    }

    /// Number of failed elements.
    pub fn failed_elements(&self) -> usize {
        self.cables.len() + self.nodes.len()
    }

    /// Compiles the scenario to a mask over `topology`'s graph.
    pub fn mask(&self, topology: &Topology) -> FailureMask {
        let graph = topology.graph();
        let mut mask = FailureMask::new();
        for &c in &self.cables {
            mask.fail_cable(graph, c);
        }
        for &n in &self.nodes {
            mask.fail_node(n);
        }
        for &(c, f) in &self.degradations {
            mask.degrade_cable(graph, c, f);
        }
        mask
    }
}

/// Cable endpoints as `"A-B"` for scenario names.
fn cable_label(topology: &Topology, cable: LinkId) -> String {
    let link = topology.graph().link(cable);
    format!("{}-{}", topology.pop_name(link.src), topology.pop_name(link.dst))
}

/// Exhaustive single-cable failures: one scenario per physical cable (both
/// directions down) — the classic survivability sweep.
pub fn single_link_failures(topology: &Topology) -> Vec<FailureScenario> {
    topology
        .cables()
        .into_iter()
        .map(|c| FailureScenario {
            name: format!("link:{}", cable_label(topology, c)),
            cables: vec![c],
            nodes: Vec::new(),
            degradations: Vec::new(),
        })
        .collect()
}

/// One scenario per PoP going down (its demand becomes unroutable; transit
/// through it reroutes).
pub fn node_failures(topology: &Topology) -> Vec<FailureScenario> {
    (0..topology.pop_count() as u32)
        .map(|n| FailureScenario {
            name: format!("node:{}", topology.pop_name(NodeId(n))),
            cables: Vec::new(),
            nodes: vec![NodeId(n)],
            degradations: Vec::new(),
        })
        .collect()
}

/// Checks `k` for [`random_k_link_failures`].
pub fn validate_k(k: usize) -> Result<(), RangeError> {
    RangeError::check(k >= 1, "k", k, "at least 1 cable")
}

/// Checks `count` for [`random_k_link_failures`]: a draw of no scenarios
/// sweeps nothing.
pub fn validate_count(count: usize) -> Result<(), RangeError> {
    RangeError::check(count >= 1, "count", count, "at least 1 scenario")
}

/// Checks a brown-out factor for [`brownout_failures`] (a factor of 0 is a
/// failure: [`single_link_failures`]).
pub fn validate_factor(factor: f64) -> Result<(), RangeError> {
    RangeError::check(factor > 0.0 && factor < 1.0, "factor", factor, "a value in (0, 1)")
}

/// Checks a corridor width for [`geo_corridor_srlgs`].
pub fn validate_corridor_km(corridor_km: f64) -> Result<(), RangeError> {
    let in_range = corridor_km >= 0.0 && corridor_km.is_finite();
    RangeError::check(in_range, "corridor_km", corridor_km, "a finite distance >= 0")
}

/// `count` random scenarios of `k` simultaneous distinct cable failures
/// (every cable when `k` is more than there are), deterministic in `seed`
/// — the correlated-failure axis. `Err` when [`validate_k`] rejects `k`
/// or [`validate_count`] rejects `count`.
pub fn random_k_link_failures(
    topology: &Topology,
    k: usize,
    count: usize,
    seed: u64,
) -> Result<Vec<FailureScenario>, RangeError> {
    validate_k(k)?;
    validate_count(count)?;
    let cables = topology.cables();
    let k = k.min(cables.len());
    let mut rng = StdRng::seed_from_u64(seed);
    Ok((0..count)
        .map(|i| {
            // Floyd's distinct-sampling algorithm: exactly k draws, no
            // rejection loop, uniform over k-subsets — well-behaved even
            // when k approaches the cable count.
            let mut picked: Vec<usize> = Vec::with_capacity(k);
            for j in cables.len() - k..cables.len() {
                let c = rng.gen_range(0..=j);
                picked.push(if picked.contains(&c) { j } else { c });
            }
            picked.sort_unstable();
            FailureScenario {
                name: format!("rand{k}:{i}"),
                cables: picked.into_iter().map(|c| cables[c]).collect(),
                nodes: Vec::new(),
                degradations: Vec::new(),
            }
        })
        .collect())
}

/// A default SRLG corpus: for every PoP, the "conduit" group of all cables
/// incident to it — the canonical shared-duct risk. (The PoP itself stays
/// up: unlike a node failure, traffic *from* the PoP is cut off but the
/// router is alive, the distinction Snowcap's soft reconfigurations need.)
pub fn pop_conduit_srlgs(topology: &Topology) -> Vec<FailureScenario> {
    let graph = topology.graph();
    (0..topology.pop_count() as u32)
        .map(|n| {
            let pop = NodeId(n);
            let cables: Vec<LinkId> = topology
                .cables()
                .into_iter()
                .filter(|&c| {
                    let l = graph.link(c);
                    l.src == pop || l.dst == pop
                })
                .collect();
            FailureScenario {
                name: format!("srlg:conduit-{}", topology.pop_name(pop)),
                cables,
                nodes: Vec::new(),
                degradations: Vec::new(),
            }
        })
        .collect()
}

/// Exhaustive single-cable brown-outs: one degradation-only scenario per
/// physical cable, each dimming both directions to `factor * capacity`.
/// Nothing goes down, so path caches keep every pair — the scenarios
/// exercise exactly the effective-capacity path through the LP stack.
/// `Err` when [`validate_factor`] rejects `factor`.
pub fn brownout_failures(
    topology: &Topology,
    factor: f64,
) -> Result<Vec<FailureScenario>, RangeError> {
    validate_factor(factor)?;
    Ok(topology
        .cables()
        .into_iter()
        .map(|c| FailureScenario {
            name: format!("brownout:{}@{factor}", cable_label(topology, c)),
            cables: Vec::new(),
            nodes: Vec::new(),
            degradations: vec![(c, factor)],
        })
        .collect())
}

/// Geographic SRLGs from PoP coordinates: for each cable, the group of
/// cables whose great-circle corridors pass within `corridor_km` of its own
/// — fibre runs plausibly trenched along the same right-of-way, which real
/// outages (backhoes, floods) take out together. Cables sharing an endpoint
/// are excluded (the [`pop_conduit_srlgs`] corpus already covers shared
/// exits); groups with no non-adjacent neighbour are dropped, and duplicate
/// groups are emitted once. `Err` when [`validate_corridor_km`] rejects
/// `corridor_km`.
pub fn geo_corridor_srlgs(
    topology: &Topology,
    corridor_km: f64,
) -> Result<Vec<FailureScenario>, RangeError> {
    validate_corridor_km(corridor_km)?;
    let graph = topology.graph();
    let cables = topology.cables();
    let segments: Vec<(lowlat_topology::GeoPoint, lowlat_topology::GeoPoint)> = cables
        .iter()
        .map(|&c| {
            let l = graph.link(c);
            (topology.location(l.src), topology.location(l.dst))
        })
        .collect();
    let mut seen: Vec<Vec<u32>> = Vec::new();
    let mut out = Vec::new();
    for (i, &c) in cables.iter().enumerate() {
        let li = graph.link(c);
        let mut group = vec![c];
        for (j, &d) in cables.iter().enumerate() {
            if i == j {
                continue;
            }
            let lj = graph.link(d);
            let adjacent =
                li.src == lj.src || li.src == lj.dst || li.dst == lj.src || li.dst == lj.dst;
            if adjacent {
                continue;
            }
            let dist = lowlat_topology::corridor_distance_km(
                &segments[i].0,
                &segments[i].1,
                &segments[j].0,
                &segments[j].1,
            );
            if dist <= corridor_km {
                group.push(d);
            }
        }
        if group.len() < 2 {
            continue;
        }
        group.sort_unstable_by_key(|l| l.0);
        let key: Vec<u32> = group.iter().map(|l| l.0).collect();
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        out.push(FailureScenario {
            name: format!("srlg:geo-{}", cable_label(topology, c)),
            cables: group,
            nodes: Vec::new(),
            degradations: Vec::new(),
        });
    }
    Ok(out)
}

/// The demand that survives a failure, and how much did not.
#[derive(Clone, Debug)]
pub struct RoutablePartition {
    /// The routable aggregates (a sub-matrix of the original, same order).
    pub tm: TrafficMatrix,
    /// For each aggregate of `tm`, its index in the original matrix.
    pub kept: Vec<usize>,
    /// Volume-weighted fraction of demand with no surviving path.
    pub unroutable_fraction: f64,
}

/// Marks in `reached` the nodes `src` reaches over links `mask` leaves up
/// (neither failed nor touching a failed node): the nodes a masked
/// shortest-path tree from `src` reaches, without their distances. `stack`
/// is scratch.
fn reach(
    graph: &Graph,
    mask: &FailureMask,
    src: NodeId,
    reached: &mut BitSet,
    stack: &mut Vec<NodeId>,
) {
    reached.clear();
    reached.insert(src.idx());
    stack.clear();
    stack.push(src);
    while let Some(u) = stack.pop() {
        for l in graph.out_links(u) {
            let v = graph.link(l).dst;
            if !reached.contains(v.idx()) && !mask.link_down(graph, l) {
                reached.insert(v.idx());
                stack.push(v);
            }
        }
    }
}

/// Splits `tm` into the aggregates that still have a path under `mask` and
/// the unroutable remainder. One masked reachability search per distinct
/// source, on two buffers allocated once: what it allocates does not grow
/// with the aggregate count.
pub fn partition_routable(
    graph: &Graph,
    tm: &TrafficMatrix,
    mask: &FailureMask,
) -> RoutablePartition {
    let mut kept = Vec::with_capacity(tm.aggregates().len());
    let mut kept_aggs = Vec::with_capacity(tm.aggregates().len());
    let mut dropped_volume = 0.0;
    let mut total_volume = 0.0;
    let mut reached = BitSet::new(graph.node_count());
    let mut stack = Vec::with_capacity(graph.node_count());
    let mut reached_from = None;
    for (i, a) in tm.aggregates().iter().enumerate() {
        total_volume += a.volume_mbps;
        if reached_from != Some(a.src) {
            reached_from = Some(a.src);
            reach(graph, mask, a.src, &mut reached, &mut stack);
        }
        let reachable =
            !mask.node_down(a.src) && !mask.node_down(a.dst) && reached.contains(a.dst.idx());
        if reachable {
            kept.push(i);
            kept_aggs.push(*a);
        } else {
            dropped_volume += a.volume_mbps;
        }
    }
    RoutablePartition {
        tm: TrafficMatrix::new(kept_aggs),
        kept,
        unroutable_fraction: if total_volume > 0.0 { dropped_volume / total_volume } else { 0.0 },
    }
}

/// Post-failure metrics of one placement, judged against the *intact*
/// topology's shortest paths (so stretch includes the failure detour) and
/// the *effective* (masked) capacities.
#[derive(Clone, Debug)]
pub struct FailureImpact {
    /// Volume fraction of the original demand with no surviving path.
    pub unroutable_fraction: f64,
    /// Flow-weighted mean placed delay over intact-topology shortest delay,
    /// across routable aggregates (1.0 when nothing detours).
    pub latency_stretch: f64,
    /// Worst used-path delay over intact shortest delay, over routable
    /// aggregates.
    pub max_path_stretch: f64,
    /// `max_l load_l / effective_cap_l - 1` clamped at 0;
    /// [`FailureImpact::INFINITE_OVERLOAD`] when traffic is placed on a
    /// downed link (static placements do this).
    pub max_overload: f64,
    /// Highest link utilization against effective capacity (same sentinel).
    pub max_utilization: f64,
}

impl FailureImpact {
    /// The sentinel `max_utilization`/`max_overload` take when positive load
    /// sits on a link with zero effective capacity: any amount of traffic on
    /// a dead link is unboundedly overloaded. Always `+∞`, never NaN —
    /// zero-load links are skipped before the division, so the 0/0 case
    /// cannot arise. Test with `is_infinite()`; the value orders correctly
    /// against every finite overload.
    pub const INFINITE_OVERLOAD: f64 = f64::INFINITY;

    /// Evaluates `placement` (over `partition.tm`) under `mask`, reading
    /// [`PlacementEval::under`]. `sp` are the *intact* topology's all-pairs
    /// delays ([`Topology::intact_delays`]).
    pub fn evaluate_with_delays(
        topology: &Topology,
        partition: &RoutablePartition,
        mask: &FailureMask,
        placement: &Placement,
        sp: &[Vec<f64>],
    ) -> FailureImpact {
        let eval = PlacementEval::under(topology.graph(), sp, mask, &partition.tm, placement);
        let max_utilization = eval.max_utilization();
        FailureImpact {
            unroutable_fraction: partition.unroutable_fraction,
            latency_stretch: eval.latency_stretch(),
            max_path_stretch: eval.max_flow_stretch(),
            max_overload: (max_utilization - 1.0).max(0.0),
            max_utilization,
        }
    }
}

/// Everything that happened during one failure-recovery drill.
#[derive(Clone, Debug)]
pub struct RecoveryOutcome {
    /// What cache repair kept vs rebuilt.
    pub repair: RepairStats,
    /// Which demand survived.
    pub partition: RoutablePartition,
    /// The post-failure placement (over `partition.tm`).
    pub placement: Placement,
    /// Post-failure metrics.
    pub impact: FailureImpact,
    /// LP solves issued while re-placing.
    pub lp_solves: usize,
    /// Of those, solves that warm-started from a carried basis — recovery
    /// is warm when this is positive.
    pub lp_warm_hits: usize,
}

/// The §5 failure reaction, end to end: repair `source` under `mask`, drop
/// unroutable demand, re-place the survivors through `ctx` (so LP schemes
/// warm-start from the pre-failure bases), and measure the outcome.
///
/// `intact_delays` are the intact network's all-pairs delays the stretch
/// is judged against; `None` reads the topology's own table
/// ([`Topology::intact_delays`]).
///
/// The source is left with the mask applied; callers iterating scenarios
/// re-apply the next mask (repairing incrementally) or
/// [`PathSource::clear_failure`] at the end. Works against any
/// [`PathSource`] — the flat [`PathCache`](crate::pathset::PathCache) or
/// the partitioned engine.
pub fn replace_under_failure(
    scheme: &dyn RoutingScheme,
    topology: &Topology,
    source: &dyn PathSource,
    tm: &TrafficMatrix,
    mask: &FailureMask,
    ctx: &mut SolveContext,
    intact_delays: Option<&[Vec<f64>]>,
) -> Result<RecoveryOutcome, SchemeError> {
    let _span = telemetry::span("failure.replace", "failure");
    let repair = source.apply_failure(mask);
    let partition = partition_routable(topology.graph(), tm, mask);
    let solves0 = ctx.solves();
    let hits0 = ctx.warm_hits();
    let placement = {
        let _replace = telemetry::span("failure.replace.solve", "failure");
        scheme.place_with_context(source, &partition.tm, ctx)?
    };
    let sp = intact_delays.unwrap_or_else(|| topology.intact_delays());
    let impact = FailureImpact::evaluate_with_delays(topology, &partition, mask, &placement, sp);
    Ok(RecoveryOutcome {
        repair,
        partition,
        placement,
        impact,
        lp_solves: ctx.solves() - solves0,
        lp_warm_hits: ctx.warm_hits() - hits0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pathset::PathCache;
    use crate::scale::ScaleToLoad;
    use crate::schemes::registry;
    use lowlat_tmgen::{Aggregate, GravityTmGen, TmGenConfig};
    use lowlat_topology::zoo::named;
    use lowlat_topology::{GeoPoint, TopologyBuilder};

    fn abilene_tm(topo: &Topology) -> TrafficMatrix {
        GravityTmGen::new(TmGenConfig::default()).generate(topo, 0).scaled_to_load(topo, 0.7)
    }

    #[test]
    fn generators_cover_the_axes() {
        let topo = named::abilene();
        let singles = single_link_failures(&topo);
        assert_eq!(singles.len(), topo.cables().len());
        assert!(singles.iter().all(|s| s.cables.len() == 1 && s.name.starts_with("link:")));
        let nodes = node_failures(&topo);
        assert_eq!(nodes.len(), topo.pop_count());
        let rand2 = random_k_link_failures(&topo, 2, 5, 42).unwrap();
        assert_eq!(rand2.len(), 5);
        assert!(rand2.iter().all(|s| s.cables.len() == 2 && s.cables[0] != s.cables[1]));
        // Deterministic in the seed.
        let again = random_k_link_failures(&topo, 2, 5, 42).unwrap();
        for (a, b) in rand2.iter().zip(&again) {
            assert_eq!(a.cables, b.cables);
        }
        let srlgs = pop_conduit_srlgs(&topo);
        assert_eq!(srlgs.len(), topo.pop_count());
        assert!(srlgs.iter().all(|s| !s.cables.is_empty()));
    }

    #[test]
    fn scenario_masks_fail_both_directions() {
        let topo = named::abilene();
        let s = &single_link_failures(&topo)[0];
        let mask = s.mask(&topo);
        let g = topo.graph();
        assert!(mask.link_down(g, s.cables[0]));
        assert!(mask.link_down(g, topo.reverse_link(s.cables[0])));
    }

    #[test]
    fn partition_keeps_everything_on_survivable_failures() {
        // Abilene is 2-connected: no single cable failure disconnects it.
        let topo = named::abilene();
        let tm = abilene_tm(&topo);
        for s in single_link_failures(&topo) {
            let part = partition_routable(topo.graph(), &tm, &s.mask(&topo));
            assert_eq!(part.unroutable_fraction, 0.0, "{}", s.name);
            assert_eq!(part.kept.len(), tm.aggregates().len());
        }
    }

    #[test]
    fn a_reach_is_what_the_masked_tree_reaches() {
        // Every cable, every node and twenty 3-cable failures of GTS-like:
        // from every PoP left up, the nodes `reach` marks are the nodes the
        // masked shortest-path tree reaches.
        let topo = named::gts_like();
        let g = topo.graph();
        let mut scenarios = single_link_failures(&topo);
        scenarios.extend(node_failures(&topo));
        scenarios.extend(random_k_link_failures(&topo, 3, 20, 7).unwrap());
        let (mut reached, mut stack) = (BitSet::new(0), Vec::new());
        for scenario in &scenarios {
            let mask = scenario.mask(&topo);
            for src in g.nodes().filter(|&v| !mask.node_down(v)) {
                reach(g, &mask, src, &mut reached, &mut stack);
                let tree =
                    lowlat_netgraph::shortest_path_tree(g, src, mask.link_mask(), mask.node_mask());
                for v in g.nodes() {
                    assert_eq!(reached.contains(v.idx()), tree.reachable(v), "{}", scenario.name);
                }
            }
        }
    }

    #[test]
    fn partition_drops_disconnected_demand() {
        // A line A-B-C: failing cable B-C strands every aggregate touching C.
        let mut b = TopologyBuilder::new("line");
        let a = b.add_pop("A", GeoPoint::new(40.0, -100.0));
        let m = b.add_pop("B", GeoPoint::new(40.0, -97.0));
        let c = b.add_pop("C", GeoPoint::new(40.0, -94.0));
        b.connect(a, m, 100.0);
        b.connect(m, c, 100.0);
        let topo = b.build();
        let tm = TrafficMatrix::new(vec![
            Aggregate { src: a, dst: m, volume_mbps: 30.0, flow_count: 3 },
            Aggregate { src: a, dst: c, volume_mbps: 30.0, flow_count: 3 },
            Aggregate { src: c, dst: a, volume_mbps: 40.0, flow_count: 4 },
        ]);
        let bc = topo.graph().find_link(m, c).unwrap();
        let mut scenario = FailureScenario::none();
        scenario.cables.push(bc);
        let part = partition_routable(topo.graph(), &tm, &scenario.mask(&topo));
        assert_eq!(part.kept, vec![0], "only A->B survives");
        assert!((part.unroutable_fraction - 0.7).abs() < 1e-9);
        assert_eq!(part.tm.aggregates().len(), 1);
    }

    #[test]
    fn recovery_drill_reroutes_with_warm_lps_and_repaired_cache() {
        let topo = named::abilene();
        let tm = abilene_tm(&topo);
        let cache = PathCache::new(topo.graph());
        let mut ctx = SolveContext::new();
        let scheme = registry::build("LDR").unwrap();
        let kept_before = crate::pathgrow::tests::kept_rounds();
        // Pre-failure placement warms the cache and the LP bases.
        let baseline =
            scheme.place_with_context(&cache, &tm, &mut ctx).expect("baseline placement");
        assert!(baseline.validate(topo.graph(), &tm).is_ok());
        let scenario = &single_link_failures(&topo)[0];
        let mask = scenario.mask(&topo);
        let out = replace_under_failure(scheme.as_ref(), &topo, &cache, &tm, &mask, &mut ctx, None)
            .expect("recovery");
        assert!(out.repair.kept_pairs > 0, "repair must keep untouched pairs");
        assert!(out.repair.repaired_pairs > 0, "the failed cable crossed some pairs");
        assert_eq!(out.impact.unroutable_fraction, 0.0);
        assert!(out.lp_solves > 0);
        assert!(
            out.lp_warm_hits > 0,
            "recovery must warm-start: {} hits / {} solves",
            out.lp_warm_hits,
            out.lp_solves
        );
        // The placement never uses a failed element.
        let g = topo.graph();
        for pl in out.placement.per_aggregate() {
            for (path, x) in &pl.splits {
                if *x > 1e-9 {
                    assert!(!mask.hits_path(g, path));
                }
            }
        }
        assert!(out.impact.latency_stretch >= 1.0 - 1e-6);
        assert!(out.impact.max_path_stretch >= 1.0 - 1e-6);
        // Some growth rounds kept their outcome instead of posing an LP, each
        // audited by `pathgrow::lp::tests::audit_kept_round`.
        assert!(crate::pathgrow::tests::kept_rounds() > kept_before);
        cache.clear_failure();
    }

    #[test]
    fn impact_flags_static_placement_on_downed_link() {
        // A placement computed before the failure keeps using the dead
        // cable: max_overload must go infinite, not panic.
        let topo = named::abilene();
        let tm = abilene_tm(&topo);
        let cache = PathCache::new(topo.graph());
        let scheme = registry::build("SP").unwrap();
        let placement = scheme.place(&cache, &tm).expect("SP placement");
        // Find a cable the placement actually uses.
        let g = topo.graph();
        let loads = placement.link_loads(g, &tm);
        let used = g.link_ids().find(|&l| loads[l.idx()] > 1e-9).expect("some link is used");
        let mut mask = FailureMask::new();
        mask.fail_cable(g, used);
        let partition = RoutablePartition {
            tm: tm.clone(),
            kept: (0..tm.aggregates().len()).collect(),
            unroutable_fraction: 0.0,
        };
        let sp = topo.intact_delays();
        let impact = FailureImpact::evaluate_with_delays(&topo, &partition, &mask, &placement, sp);
        assert!(impact.max_overload.is_infinite());
        assert!(impact.max_utilization.is_infinite());
    }

    #[test]
    fn infinite_overload_sentinel_is_never_nan() {
        // Load on a downed link yields the documented sentinel — +inf, not
        // NaN — and idle downed links (the 0/0 case) are skipped entirely.
        let mut b = TopologyBuilder::new("line");
        let a = b.add_pop("A", GeoPoint::new(40.0, -100.0));
        let m = b.add_pop("B", GeoPoint::new(40.0, -97.0));
        let c = b.add_pop("C", GeoPoint::new(40.0, -94.0));
        b.connect(a, m, 100.0);
        b.connect(m, c, 100.0);
        let topo = b.build();
        let tm = TrafficMatrix::new(vec![Aggregate {
            src: a,
            dst: m,
            volume_mbps: 30.0,
            flow_count: 3,
        }]);
        let cache = PathCache::new(topo.graph());
        let placement = registry::build("SP").unwrap().place(&cache, &tm).unwrap();
        let partition =
            RoutablePartition { tm: tm.clone(), kept: vec![0], unroutable_fraction: 0.0 };
        // Down both cables: A-B carries 30 (sentinel), B-C idles (skipped).
        let mut mask = FailureMask::new();
        let g = topo.graph();
        mask.fail_cable(g, g.find_link(a, m).unwrap());
        mask.fail_cable(g, g.find_link(m, c).unwrap());
        let sp = topo.intact_delays();
        let impact = FailureImpact::evaluate_with_delays(&topo, &partition, &mask, &placement, sp);
        assert_eq!(impact.max_utilization, FailureImpact::INFINITE_OVERLOAD);
        assert_eq!(impact.max_overload, FailureImpact::INFINITE_OVERLOAD);
        assert!(!impact.max_overload.is_nan() && !impact.max_utilization.is_nan());
        assert!(impact.max_overload > 1e12, "sentinel orders above any finite overload");
    }

    #[test]
    fn brownout_scenarios_degrade_without_downing() {
        let topo = named::abilene();
        let scenarios = brownout_failures(&topo, 0.5).unwrap();
        assert_eq!(scenarios.len(), topo.cables().len());
        let g = topo.graph();
        for s in &scenarios {
            assert!(s.name.starts_with("brownout:"), "{}", s.name);
            assert_eq!(s.failed_elements(), 0, "nothing goes down in a brown-out");
            let mask = s.mask(&topo);
            assert!(!mask.affects_routing(), "degradation-only mask");
            let (c, f) = s.degradations[0];
            assert!((mask.effective_capacity(g, c) - g.link(c).capacity_mbps * f).abs() < 1e-9);
            assert!(
                (mask.effective_capacity(g, topo.reverse_link(c))
                    - g.link(topo.reverse_link(c)).capacity_mbps * f)
                    .abs()
                    < 1e-9,
                "both directions dim"
            );
        }
    }

    #[test]
    fn generator_parameters_outside_their_range_are_errors() {
        let topo = named::abilene();
        assert_eq!(random_k_link_failures(&topo, 0, 5, 7).unwrap_err().param, "k");
        assert_eq!(random_k_link_failures(&topo, 2, 0, 7).unwrap_err().param, "count");
        let all = random_k_link_failures(&topo, 1000, 2, 7).unwrap();
        assert!(all.iter().all(|s| s.cables.len() == topo.cables().len()), "k caps at every cable");
        for factor in [0.0, 1.0, -0.5, f64::NAN] {
            assert_eq!(brownout_failures(&topo, factor).unwrap_err().param, "factor", "{factor}");
        }
        for km in [-1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(geo_corridor_srlgs(&topo, km).unwrap_err().param, "corridor_km", "{km}");
        }
        assert!(geo_corridor_srlgs(&topo, 0.0).is_ok());
    }

    #[test]
    fn geo_corridor_srlgs_group_nearby_non_adjacent_cables() {
        // A tall, narrow rectangular ring. The two vertical edges run ~39 km
        // apart (0.5° of longitude at lat 44–45); the two horizontal edges
        // run 111 km apart (1° of latitude). A 60 km corridor groups exactly
        // the vertical pair — every other non-adjacent pair is too far, and
        // adjacent pairs are excluded by construction.
        let mut b = TopologyBuilder::new("corridors");
        let a1 = b.add_pop("A1", GeoPoint::new(45.0, 5.0));
        let a2 = b.add_pop("A2", GeoPoint::new(45.0, 5.5));
        let b1 = b.add_pop("B1", GeoPoint::new(44.0, 5.0));
        let b2 = b.add_pop("B2", GeoPoint::new(44.0, 5.5));
        b.connect(a1, a2, 100.0); // top
        b.connect(b1, b2, 100.0); // bottom
        b.connect(a1, b1, 100.0); // left
        b.connect(a2, b2, 100.0); // right
        let topo = b.build();
        let srlgs = geo_corridor_srlgs(&topo, 60.0).unwrap();
        assert_eq!(srlgs.len(), 1, "exactly the left/right corridor pair: {srlgs:?}");
        let s = &srlgs[0];
        assert!(s.name.starts_with("srlg:geo-"));
        assert_eq!(s.cables.len(), 2);
        let g = topo.graph();
        let left = g.find_link(a1, b1).unwrap();
        let right = g.find_link(a2, b2).unwrap();
        let mut got = s.cables.clone();
        got.sort_unstable_by_key(|l| l.0);
        let mut want = vec![left, right];
        want.sort_unstable_by_key(|l| l.0);
        assert_eq!(got, want, "the two parallel runs share fate; the far edges do not");
        // A generous corridor still never groups adjacent cables.
        for s in geo_corridor_srlgs(&topo, 10_000.0).unwrap() {
            for (x, &cx) in s.cables.iter().enumerate() {
                for &cy in &s.cables[x + 1..] {
                    let (lx, ly) = (g.link(cx), g.link(cy));
                    assert!(
                        lx.src != ly.src
                            && lx.src != ly.dst
                            && lx.dst != ly.src
                            && lx.dst != ly.dst,
                        "adjacent cables belong to conduit SRLGs, not geo ones"
                    );
                }
            }
        }
    }
}
