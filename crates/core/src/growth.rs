//! Topology growth guided by LLPD (§8, Figure 20).
//!
//! "Of all the links to be possibly added, we add the one that gives the
//! greatest increase in LLPD. We then repeat this process until the number
//! of links has increased by 5%." Candidate enumeration over all O(n²)
//! absent cables is priced down by scoring pairs first: a cable is only
//! worth evaluating when today's shortest path detours far above the
//! geographic direct line, so we evaluate the top `candidate_limit` by
//! detour ratio.

use lowlat_topology::{PopId, Topology};

use crate::llpd::{LlpdAnalysis, LlpdConfig};

/// Configuration for [`grow_by_llpd`].
#[derive(Clone, Debug)]
pub struct GrowthPlanConfig {
    /// Target relative increase in cable count (paper: 0.05).
    pub link_increase: f64,
    /// Candidates (by detour-ratio score) evaluated per added cable.
    pub candidate_limit: usize,
    /// Capacity assigned to new cables (Mbps).
    pub new_cable_capacity: f64,
}

impl Default for GrowthPlanConfig {
    fn default() -> Self {
        GrowthPlanConfig { link_increase: 0.05, candidate_limit: 24, new_cable_capacity: 40_000.0 }
    }
}

/// Result of the growth procedure.
#[derive(Clone, Debug)]
pub struct GrowthPlan {
    /// The grown topology.
    pub topology: Topology,
    /// Cables added, in order, with the LLPD after each addition.
    pub added: Vec<((PopId, PopId), f64)>,
    /// LLPD before any addition.
    pub initial_llpd: f64,
}

/// Greedily adds the cables that increase LLPD the most until the cable
/// count grew by `config.link_increase` (at least one cable). LLPD is
/// evaluated at [`LlpdConfig::default`].
pub fn grow_by_llpd(topology: &Topology, config: &GrowthPlanConfig) -> GrowthPlan {
    let llpd_config = LlpdConfig::default();
    let initial_llpd = LlpdAnalysis::compute(topology, &llpd_config).llpd();
    let target_new =
        ((topology.cables().len() as f64 * config.link_increase).ceil() as usize).max(1);

    let mut current = topology.clone();
    let mut added = Vec::new();
    for _ in 0..target_new {
        let Some((pair, llpd)) = best_addition(&current, config, &llpd_config) else {
            break; // graph is complete
        };
        current = current.with_added_cable(pair.0, pair.1, config.new_cable_capacity);
        added.push((pair, llpd));
    }
    GrowthPlan { topology: current, added, initial_llpd }
}

/// Evaluates the most promising absent cables and returns the best by LLPD.
fn best_addition(
    topology: &Topology,
    config: &GrowthPlanConfig,
    llpd_config: &LlpdConfig,
) -> Option<((PopId, PopId), f64)> {
    let graph = topology.graph();
    let delays = topology.intact_delays();
    // Score absent pairs by detour ratio: current shortest delay over the
    // would-be direct cable delay.
    let mut candidates: Vec<(f64, (PopId, PopId))> = Vec::new();
    for (s, d) in topology.unordered_pairs() {
        if graph.find_link(s, d).is_some() {
            continue;
        }
        let direct = topology.location(s).delay_ms_to(&topology.location(d)).max(0.05);
        let via_network = delays[s.idx()][d.idx()];
        candidates.push((via_network / direct, (s, d)));
    }
    if candidates.is_empty() {
        return None;
    }
    candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));
    candidates.truncate(config.candidate_limit);

    let mut best: Option<((PopId, PopId), f64)> = None;
    for (_, pair) in candidates {
        let grown = topology.with_added_cable(pair.0, pair.1, config.new_cable_capacity);
        let llpd = LlpdAnalysis::compute(&grown, llpd_config).llpd();
        if best.as_ref().is_none_or(|&(_, b)| llpd > b) {
            best = Some((pair, llpd));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowlat_topology::zoo::named;
    use lowlat_topology::{GeoPoint, TopologyBuilder};

    #[test]
    fn growing_a_chain_helps_llpd() {
        // A zig-zag 5-node chain has LLPD 0; added chords create viable
        // alternates (matched capacity, modest geometric stretch).
        let mut b = TopologyBuilder::new("chain5");
        let mut prev = b.add_pop("p0", GeoPoint::new(45.0, 5.0));
        for i in 1..5 {
            let lat = if i % 2 == 0 { 45.0 } else { 46.5 };
            let p = b.add_pop(format!("p{i}"), GeoPoint::new(lat, 5.0 + 3.0 * i as f64));
            b.connect(prev, p, 10_000.0);
            prev = p;
        }
        let topo = b.build();
        let plan = grow_by_llpd(
            &topo,
            &GrowthPlanConfig {
                link_increase: 0.5,
                new_cable_capacity: 10_000.0,
                ..Default::default()
            },
        );
        assert_eq!(plan.initial_llpd, 0.0);
        assert_eq!(plan.added.len(), 2, "ceil(4 * 0.5) = 2 cables");
        let final_llpd = plan.added.last().unwrap().1;
        assert!(final_llpd > 0.0, "additions must raise LLPD");
        assert_eq!(plan.topology.cables().len(), 6);
    }

    #[test]
    fn llpd_never_decreases_along_plan() {
        let topo = named::abilene();
        let plan = grow_by_llpd(
            &topo,
            &GrowthPlanConfig { link_increase: 0.15, candidate_limit: 12, ..Default::default() },
        );
        let mut last = plan.initial_llpd;
        for &(_, llpd) in &plan.added {
            assert!(llpd >= last - 1e-9, "greedy choice dropped LLPD: {last} -> {llpd}");
            last = llpd;
        }
    }

    #[test]
    fn clique_cannot_grow() {
        let mut b = TopologyBuilder::new("k3");
        let p0 = b.add_pop("a", GeoPoint::new(40.0, 0.0));
        let p1 = b.add_pop("b", GeoPoint::new(41.0, 1.0));
        let p2 = b.add_pop("c", GeoPoint::new(42.0, 0.0));
        b.connect(p0, p1, 1000.0);
        b.connect(p1, p2, 1000.0);
        b.connect(p0, p2, 1000.0);
        let topo = b.build();
        let plan = grow_by_llpd(&topo, &GrowthPlanConfig::default());
        assert!(plan.added.is_empty(), "no absent cables in a clique");
    }
}
