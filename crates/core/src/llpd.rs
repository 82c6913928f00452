//! Alternate Path Availability (APA) and Low-Latency Path Diversity (LLPD),
//! §2 of the paper.
//!
//! For every PoP pair the metric asks, link by link along the lowest-latency
//! path: *if this link congested, could we route around it without blowing
//! the delay budget?* An alternate is **viable** when its bottleneck
//! capacity matches the shortest path's bottleneck; when one alternate is
//! too thin, the n lowest-latency alternates are pooled until their min-cut
//! suffices, and the delay charged is the n-th path's (the paper's
//! progressive-accumulation rule). A link is routable-around when the
//! resulting stretch `da/ds` stays within the limit (1.4 by default).
//!
//! * `APA(pair)` = fraction of links on the pair's shortest path that are
//!   routable-around (0..1); Figure 1 plots the CDF over pairs.
//! * `LLPD(network)` = fraction of pairs with APA >= 0.7.

use lowlat_netgraph::{min_cut_of_links, BitSet, KspGenerator, LinkId, Path};
use lowlat_topology::Topology;

/// The one dial of the APA/LLPD computation.
#[derive(Clone, Debug)]
pub struct LlpdConfig {
    /// Maximum acceptable stretch `da/ds` (paper: 1.4, i.e. "40%").
    pub stretch_limit: f64,
}

impl Default for LlpdConfig {
    fn default() -> Self {
        LlpdConfig { stretch_limit: 1.4 }
    }
}

/// APA level a pair must reach to count toward LLPD (paper: 0.7).
const APA_THRESHOLD: f64 = 0.7;

/// Cap on the number of alternate paths pooled per probed link. The paper's
/// rule terminates naturally at the stretch limit; this guards pathological
/// cases.
const MAX_ALTERNATES: usize = 24;

/// APA for every PoP pair plus the scalar LLPD.
#[derive(Clone, Debug)]
pub struct LlpdAnalysis {
    apa_per_pair: Vec<f64>,
    llpd: f64,
    config: LlpdConfig,
}

impl LlpdAnalysis {
    /// Computes APA for all unordered PoP pairs of `topology` and reduces to
    /// LLPD. Cost is one Yen enumeration per (pair, shortest-path link), so
    /// O(n²·diameter) shortest-path computations — fine for backbone sizes.
    pub fn compute(topology: &Topology, config: &LlpdConfig) -> Self {
        assert!(config.stretch_limit >= 1.0);
        let pairs = topology.unordered_pairs();
        let mut apa_per_pair = Vec::with_capacity(pairs.len());
        for (s, d) in pairs {
            apa_per_pair.push(apa_of_pair(topology, s, d, config));
        }
        let good = apa_per_pair.iter().filter(|&&a| a >= APA_THRESHOLD).count();
        let llpd =
            if apa_per_pair.is_empty() { 0.0 } else { good as f64 / apa_per_pair.len() as f64 };
        LlpdAnalysis { apa_per_pair, llpd, config: config.clone() }
    }

    /// APA values, one per unordered pair (ordering matches
    /// [`Topology::unordered_pairs`]).
    pub fn apa_values(&self) -> &[f64] {
        &self.apa_per_pair
    }

    /// The scalar LLPD of the network.
    pub fn llpd(&self) -> f64 {
        self.llpd
    }

    /// The configuration used.
    pub fn config(&self) -> &LlpdConfig {
        &self.config
    }
}

/// APA of one pair: walk the shortest path, probe each cable.
fn apa_of_pair(
    topology: &Topology,
    s: lowlat_topology::PopId,
    d: lowlat_topology::PopId,
    config: &LlpdConfig,
) -> f64 {
    let graph = topology.graph();
    let shortest =
        lowlat_netgraph::shortest_path(graph, s, d, None, None).expect("topologies are connected");
    let ds = shortest.delay_ms();
    let bottleneck = shortest.bottleneck_mbps(graph);
    let mut routable = 0usize;
    for &link in shortest.links() {
        if link_routable_around(topology, &shortest, link, ds, bottleneck, config) {
            routable += 1;
        }
    }
    routable as f64 / shortest.links().len() as f64
}

/// Can traffic route around `link` (as a cable: both directions are removed)
/// within the stretch limit, with enough pooled capacity?
fn link_routable_around(
    topology: &Topology,
    shortest: &Path,
    link: LinkId,
    ds: f64,
    bottleneck: f64,
    config: &LlpdConfig,
) -> bool {
    let graph = topology.graph();
    let mut avoid = BitSet::new(graph.link_count());
    avoid.insert(link.idx());
    avoid.insert(topology.reverse_link(link).idx());

    let mut gen =
        KspGenerator::with_avoided_links(graph, shortest.src(), shortest.dst(), Some(avoid));
    let limit = ds * config.stretch_limit;
    let mut pooled_links: Vec<LinkId> = Vec::new();
    for _ in 0..MAX_ALTERNATES {
        let Some(alt) = gen.next_path() else {
            return false; // no more alternates at all
        };
        // Paths arrive in non-decreasing delay order: once over the limit,
        // pooling further paths cannot help (da only grows).
        if alt.delay_ms() > limit + 1e-12 {
            return false;
        }
        pooled_links.extend_from_slice(alt.links());
        // Single viable alternate fast-path: bottleneck already sufficient.
        if alt.bottleneck_mbps(graph) >= bottleneck {
            return true;
        }
        let cut = min_cut_of_links(graph, &pooled_links, shortest.src(), shortest.dst());
        if cut >= bottleneck - 1e-9 {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowlat_topology::{GeoPoint, TopologyBuilder};

    fn cfg() -> LlpdConfig {
        LlpdConfig::default()
    }

    /// A pure chain has zero APA everywhere: nothing can be routed around.
    #[test]
    fn chain_has_zero_llpd() {
        let mut b = TopologyBuilder::new("chain");
        let mut prev = b.add_pop("p0", GeoPoint::new(40.0, -120.0));
        for i in 1..6 {
            let p = b.add_pop(format!("p{i}"), GeoPoint::new(40.0, -120.0 + 3.0 * i as f64));
            b.connect(prev, p, 10_000.0);
            prev = p;
        }
        let t = b.build();
        let a = LlpdAnalysis::compute(&t, &cfg());
        assert_eq!(a.llpd(), 0.0);
        assert!(a.apa_values().iter().all(|&v| v == 0.0));
    }

    /// A corridor clique (cities roughly along a line, fully meshed): long
    /// pairs always have a near-collinear intermediate, so most pairs can
    /// route around every link cheaply — the overlay networks whose CDFs
    /// are horizontal lines in Figure 1.
    #[test]
    fn corridor_clique_has_high_llpd() {
        let mut b = TopologyBuilder::new("clique6");
        let p: Vec<_> = (0..6)
            .map(|i| {
                // Roughly collinear with slight jitter.
                b.add_pop(
                    format!("p{i}"),
                    GeoPoint::new(40.0 + 0.3 * ((i % 2) as f64), -110.0 + 4.0 * i as f64),
                )
            })
            .collect();
        for i in 0..6 {
            for j in i + 1..6 {
                b.connect(p[i], p[j], 10_000.0);
            }
        }
        let t = b.build();
        let a = LlpdAnalysis::compute(&t, &cfg());
        // Adjacent-city pairs have no cheap detour (any intermediate is a
        // large relative detour), but every longer pair does; with 6 nodes
        // that is 10 of 15 pairs.
        assert!(a.llpd() > 0.5, "llpd {}", a.llpd());
    }

    /// Wide ring: routing around a link means going all the way back round;
    /// stretch explodes, so LLPD is 0 despite 2-connectivity.
    #[test]
    fn wide_ring_low_llpd() {
        let mut b = TopologyBuilder::new("ring");
        let n = 8;
        let p: Vec<_> = (0..n)
            .map(|i| {
                let ang = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
                b.add_pop(
                    format!("p{i}"),
                    GeoPoint::new(45.0 + 6.0 * ang.sin(), -100.0 + 8.0 * ang.cos()),
                )
            })
            .collect();
        for i in 0..n {
            b.connect(p[i], p[(i + 1) % n], 10_000.0);
        }
        let t = b.build();
        let a = LlpdAnalysis::compute(&t, &cfg());
        assert!(a.llpd() < 0.3, "llpd {}", a.llpd());
    }

    /// Capacity matters: an alternate with a thin bottleneck is not viable
    /// on its own (paper's 1 Gb/s vs 100 Gb/s example).
    #[test]
    fn thin_alternate_not_viable() {
        let mut b = TopologyBuilder::new("thin");
        let a0 = b.add_pop("A", GeoPoint::new(40.0, -100.0));
        let a1 = b.add_pop("B", GeoPoint::new(40.0, -97.0));
        let mid = b.add_pop("M", GeoPoint::new(41.0, -98.5));
        b.connect(a0, a1, 100_000.0); // fat direct link
        b.connect(a0, mid, 1_000.0); // thin detour
        b.connect(mid, a1, 1_000.0);
        let t = b.build();
        let an = LlpdAnalysis::compute(&t, &cfg());
        // Pair (A,B): shortest = direct fat link; detour exists and is
        // within stretch (geometry), but its min-cut is 1G < 100G.
        let pairs = t.unordered_pairs();
        let idx = pairs.iter().position(|&(s, d)| s.idx() == 0 && d.idx() == 1).unwrap();
        assert_eq!(an.apa_values()[idx], 0.0);
    }

    /// Pooling: two medium alternates together can stand in for one fat
    /// shortest path (the paper's progressive n-path accumulation).
    #[test]
    fn pooled_alternates_become_viable() {
        let mut b = TopologyBuilder::new("pool");
        let a0 = b.add_pop("A", GeoPoint::new(40.0, -100.0));
        let a1 = b.add_pop("B", GeoPoint::new(40.0, -97.0));
        let m1 = b.add_pop("M1", GeoPoint::new(40.8, -98.5));
        let m2 = b.add_pop("M2", GeoPoint::new(39.2, -98.5));
        b.connect(a0, a1, 10_000.0); // 10G direct
        b.connect(a0, m1, 5_000.0); // two 5G detours
        b.connect(m1, a1, 5_000.0);
        b.connect(a0, m2, 5_000.0);
        b.connect(m2, a1, 5_000.0);
        let t = b.build();
        let an = LlpdAnalysis::compute(&t, &cfg());
        let pairs = t.unordered_pairs();
        let idx = pairs.iter().position(|&(s, d)| s.idx() == 0 && d.idx() == 1).unwrap();
        assert_eq!(an.apa_values()[idx], 1.0, "pooled 5G+5G covers the 10G bottleneck");
    }

    #[test]
    fn apa_values_in_unit_interval() {
        let t = lowlat_topology::zoo::named::abilene();
        let a = LlpdAnalysis::compute(&t, &cfg());
        assert!(a.apa_values().iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!((0.0..=1.0).contains(&a.llpd()));
    }

    #[test]
    fn google_like_has_highest_llpd() {
        let google = LlpdAnalysis::compute(&lowlat_topology::zoo::named::google_like(), &cfg());
        let abilene = LlpdAnalysis::compute(&lowlat_topology::zoo::named::abilene(), &cfg());
        assert!(
            google.llpd() > abilene.llpd(),
            "google {} vs abilene {}",
            google.llpd(),
            abilene.llpd()
        );
        assert!(google.llpd() > 0.6, "Figure 19 expects very high LLPD, got {}", google.llpd());
    }
}
