//! Failure overlays: a failed topology as a *view*, not a rebuild.
//!
//! Evaluating routing under link or node failures (the Snowcap-style
//! reconfiguration scenarios) would naively rebuild the graph per scenario
//! and recompute everything downstream — caches, LLPD, path sets. A
//! [`FailureMask`] instead overlays "down" sets and capacity degradation on
//! an immutable [`Graph`]: the masked algorithm variants
//! ([`crate::dijkstra::shortest_path`], [`KspGenerator::under_mask`],
//! [`max_flow_masked`]) see the failed topology while every structure keyed
//! to the original graph (link ids, caches, placements) stays valid, which
//! is what makes post-failure *repair* cheaper than recomputation.

use crate::bitset::BitSet;
use crate::graph::{Graph, LinkId, NodeId};
use crate::path::Path;
use crate::yen::KspGenerator;

/// A set of failed links/nodes plus per-link capacity degradation, overlaid
/// on a graph.
///
/// The mask owns growable [`BitSet`]s, so one mask works across graphs of
/// different sizes (e.g. grown grids): indices past a graph's range are
/// simply never queried, and indices past the mask's capacity read as "up".
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FailureMask {
    links: BitSet,
    nodes: BitSet,
    /// `(link id, factor)` with `0 < factor < 1`: the link stays up with
    /// `factor * capacity`. Sorted by link id, deduplicated (last write
    /// wins).
    degraded: Vec<(u32, f64)>,
}

impl FailureMask {
    /// An all-up mask.
    pub fn new() -> Self {
        FailureMask { links: BitSet::new(0), nodes: BitSet::new(0), degraded: Vec::new() }
    }

    /// True when nothing is failed or degraded.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty() && self.nodes.is_empty() && self.degraded.is_empty()
    }

    /// True when the mask changes which paths exist (some link or node is
    /// down). Degradation-only masks leave routing untouched — only
    /// capacity-aware consumers see them — so path caches need not
    /// invalidate anything for them.
    pub fn affects_routing(&self) -> bool {
        !self.links.is_empty() || !self.nodes.is_empty()
    }

    /// Fails one directed link.
    pub fn fail_link(&mut self, l: LinkId) -> &mut Self {
        self.links.insert(l.idx());
        self
    }

    /// Fails both directions of a cable (the physical-failure case).
    pub fn fail_cable(&mut self, graph: &Graph, l: LinkId) -> &mut Self {
        self.fail_link(l);
        if let Some(rev) = graph.reverse_of(l) {
            self.fail_link(rev);
        }
        self
    }

    /// Fails a node: the node and implicitly every path through it.
    pub fn fail_node(&mut self, n: NodeId) -> &mut Self {
        self.nodes.insert(n.idx());
        self
    }

    /// Degrades a directed link to `factor * capacity` (`0 < factor < 1`).
    /// A degraded link stays routable; only capacity-aware consumers
    /// (max-flow, load evaluation) see the reduction.
    ///
    /// # Panics
    /// Panics unless `0 < factor < 1` — use [`FailureMask::fail_link`] for a
    /// dead link and [`FailureMask::restore_link`] for a healthy one.
    pub fn degrade_link(&mut self, l: LinkId, factor: f64) -> &mut Self {
        assert!(
            factor > 0.0 && factor < 1.0,
            "degradation factor {factor} out of (0,1); use fail_link/restore_link for 0/1"
        );
        match self.degraded.binary_search_by_key(&(l.0), |&(id, _)| id) {
            Ok(i) => self.degraded[i].1 = factor,
            Err(i) => self.degraded.insert(i, (l.0, factor)),
        }
        self
    }

    /// Degrades both directions of a cable.
    pub fn degrade_cable(&mut self, graph: &Graph, l: LinkId, factor: f64) -> &mut Self {
        self.degrade_link(l, factor);
        if let Some(rev) = graph.reverse_of(l) {
            self.degrade_link(rev, factor);
        }
        self
    }

    /// Brings a directed link back up (and clears any degradation on it).
    pub fn restore_link(&mut self, l: LinkId) -> &mut Self {
        self.links.remove(l.idx());
        if let Ok(i) = self.degraded.binary_search_by_key(&(l.0), |&(id, _)| id) {
            self.degraded.remove(i);
        }
        self
    }

    /// True when the directed link is down (the link itself, or either
    /// endpoint node).
    pub fn link_down(&self, graph: &Graph, l: LinkId) -> bool {
        if self.links.contains(l.idx()) {
            return true;
        }
        let link = graph.link(l);
        self.nodes.contains(link.src.idx()) || self.nodes.contains(link.dst.idx())
    }

    /// True when the node is down.
    pub fn node_down(&self, n: NodeId) -> bool {
        self.nodes.contains(n.idx())
    }

    /// Capacity multiplier of a link: 0 when down, the degradation factor
    /// when degraded, 1 otherwise.
    pub fn capacity_factor(&self, graph: &Graph, l: LinkId) -> f64 {
        if self.link_down(graph, l) {
            return 0.0;
        }
        match self.degraded.binary_search_by_key(&(l.0), |&(id, _)| id) {
            Ok(i) => self.degraded[i].1,
            Err(_) => 1.0,
        }
    }

    /// The link's capacity under this mask (Mbps; 0 when down).
    pub fn effective_capacity(&self, graph: &Graph, l: LinkId) -> f64 {
        graph.link(l).capacity_mbps * self.capacity_factor(graph, l)
    }

    /// Per-link effective capacities (Mbps) under this mask, indexed by
    /// `LinkId` — the capacity-provider view the LP stack poses constraints
    /// against. Downed links read 0; degraded links `factor * capacity`;
    /// everything else the raw capacity.
    pub fn effective_capacities(&self, graph: &Graph) -> Vec<f64> {
        graph.link_ids().map(|l| self.effective_capacity(graph, l)).collect()
    }

    /// The downed-link set, for passing to the masked algorithms. `None`
    /// when no link is individually down (node failures still apply via
    /// [`FailureMask::node_mask`]).
    pub fn link_mask(&self) -> Option<&BitSet> {
        (!self.links.is_empty()).then_some(&self.links)
    }

    /// The downed-node set (see [`FailureMask::link_mask`]).
    pub fn node_mask(&self) -> Option<&BitSet> {
        (!self.nodes.is_empty()).then_some(&self.nodes)
    }

    /// True when the path crosses any failed element (downed link, downed
    /// interior node, or downed endpoint). Degradation does not "hit" a
    /// path — the path survives with less capacity.
    pub fn hits_path(&self, graph: &Graph, path: &Path) -> bool {
        if self.links.is_empty() && self.nodes.is_empty() {
            return false;
        }
        if self.nodes.contains(path.src().idx()) {
            return true;
        }
        path.links()
            .iter()
            .any(|&l| self.links.contains(l.idx()) || self.nodes.contains(graph.link(l).dst.idx()))
    }

    /// True when `s` can still reach `t` under the mask.
    pub fn connected(&self, graph: &Graph, s: NodeId, t: NodeId) -> bool {
        crate::dijkstra::shortest_path_tree(graph, s, self.link_mask(), self.node_mask())
            .reachable(t)
    }
}

impl KspGenerator<'_> {
    /// A k-shortest-paths generator that never uses elements failed in
    /// `mask` — the masked Yen variant. Capacity degradation is invisible
    /// here (Yen ranks by delay); downed links and nodes are.
    pub fn under_mask<'g>(
        graph: &'g Graph,
        src: NodeId,
        dst: NodeId,
        mask: &FailureMask,
    ) -> KspGenerator<'g> {
        KspGenerator::with_avoided(
            graph,
            src,
            dst,
            mask.link_mask().cloned(),
            mask.node_mask().cloned(),
        )
    }
}

/// Max flow (Mbps) from `s` to `t` under the mask: downed links and nodes
/// carry nothing, degraded links carry `factor * capacity`. Equals the
/// max flow of the physically rebuilt subgraph (the proptest suite holds it
/// to that).
pub fn max_flow_masked(graph: &Graph, s: NodeId, t: NodeId, mask: &FailureMask) -> f64 {
    if mask.node_down(s) || mask.node_down(t) {
        return 0.0;
    }
    let mut d = crate::maxflow::Dinic::new(graph.node_count());
    for l in graph.link_ids() {
        let factor = mask.capacity_factor(graph, l);
        if factor > 0.0 {
            let link = graph.link(l);
            d.add_arc(link.src.idx(), link.dst.idx(), link.capacity_mbps * factor);
        }
    }
    d.run(s.idx(), t.idx())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::shortest_path;
    use crate::graph::GraphBuilder;
    use crate::maxflow::max_flow;

    /// 0 --1ms-- 1 --1ms-- 2 and a direct 0 --5ms-- 2, all duplex cap 10.
    fn diamondish() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_duplex(NodeId(0), NodeId(1), 1.0, 10.0);
        b.add_duplex(NodeId(1), NodeId(2), 1.0, 10.0);
        b.add_duplex(NodeId(0), NodeId(2), 5.0, 10.0);
        b.build()
    }

    #[test]
    fn empty_mask_changes_nothing() {
        let g = diamondish();
        let mask = FailureMask::new();
        assert!(mask.is_empty());
        assert!(!mask.link_down(&g, LinkId(0)));
        assert_eq!(mask.capacity_factor(&g, LinkId(0)), 1.0);
        let p = shortest_path(&g, NodeId(0), NodeId(2), mask.link_mask(), mask.node_mask());
        assert_eq!(p.unwrap().delay_ms(), 2.0);
        let diff =
            max_flow_masked(&g, NodeId(0), NodeId(2), &mask) - max_flow(&g, NodeId(0), NodeId(2));
        assert!(diff.abs() < 1e-9);
    }

    #[test]
    fn cable_failure_masks_both_directions() {
        let g = diamondish();
        let l01 = g.find_link(NodeId(0), NodeId(1)).unwrap();
        let mut mask = FailureMask::new();
        mask.fail_cable(&g, l01);
        assert!(mask.link_down(&g, l01));
        assert!(mask.link_down(&g, g.reverse_of(l01).unwrap()));
        let p = shortest_path(&g, NodeId(0), NodeId(2), mask.link_mask(), mask.node_mask());
        assert_eq!(p.unwrap().delay_ms(), 5.0, "forced onto the direct link");
        // Restore brings the short path back.
        mask.restore_link(l01).restore_link(g.reverse_of(l01).unwrap());
        assert!(mask.is_empty());
        let p = shortest_path(&g, NodeId(0), NodeId(2), mask.link_mask(), mask.node_mask());
        assert_eq!(p.unwrap().delay_ms(), 2.0);
    }

    #[test]
    fn node_failure_downs_incident_links_and_paths() {
        let g = diamondish();
        let mut mask = FailureMask::new();
        mask.fail_node(NodeId(1));
        let l01 = g.find_link(NodeId(0), NodeId(1)).unwrap();
        assert!(mask.link_down(&g, l01), "links into a dead node are down");
        assert_eq!(mask.capacity_factor(&g, l01), 0.0);
        let via = Path::new(&g, vec![l01, g.find_link(NodeId(1), NodeId(2)).unwrap()]);
        assert!(mask.hits_path(&g, &via));
        let direct = Path::new(&g, vec![g.find_link(NodeId(0), NodeId(2)).unwrap()]);
        assert!(!mask.hits_path(&g, &direct));
        assert!(mask.connected(&g, NodeId(0), NodeId(2)));
        assert!(
            (max_flow_masked(&g, NodeId(0), NodeId(2), &mask) - 10.0).abs() < 1e-9,
            "only the direct link survives"
        );
    }

    #[test]
    fn degradation_scales_capacity_but_keeps_routing() {
        let g = diamondish();
        let l01 = g.find_link(NodeId(0), NodeId(1)).unwrap();
        let mut mask = FailureMask::new();
        mask.degrade_cable(&g, l01, 0.25);
        assert!(!mask.link_down(&g, l01), "degraded is not down");
        assert!((mask.effective_capacity(&g, l01) - 2.5).abs() < 1e-9);
        // Routing unchanged: Yen still takes the 2 ms path.
        let mut gen = KspGenerator::under_mask(&g, NodeId(0), NodeId(2), &mask);
        assert_eq!(gen.next_path().unwrap().delay_ms(), 2.0);
        // Max flow sees 2.5 + 10 through the two routes.
        assert!((max_flow_masked(&g, NodeId(0), NodeId(2), &mask) - 12.5).abs() < 1e-9);
        // Re-degrading overwrites, restore clears.
        mask.degrade_link(l01, 0.5);
        assert!((mask.capacity_factor(&g, l01) - 0.5).abs() < 1e-12);
        mask.restore_link(l01);
        assert_eq!(mask.capacity_factor(&g, l01), 1.0);
    }

    #[test]
    fn effective_capacities_vector_matches_per_link_queries() {
        let g = diamondish();
        let l01 = g.find_link(NodeId(0), NodeId(1)).unwrap();
        let l02 = g.find_link(NodeId(0), NodeId(2)).unwrap();
        let mut mask = FailureMask::new();
        mask.degrade_cable(&g, l01, 0.25);
        mask.fail_cable(&g, l02);
        let caps = mask.effective_capacities(&g);
        assert_eq!(caps.len(), g.link_count());
        for l in g.link_ids() {
            assert!((caps[l.idx()] - mask.effective_capacity(&g, l)).abs() < 1e-12);
        }
        assert!((caps[l01.idx()] - 2.5).abs() < 1e-9, "degraded to a quarter");
        assert_eq!(caps[l02.idx()], 0.0, "downed link reads zero");
    }

    #[test]
    fn masked_yen_skips_failed_elements() {
        let g = diamondish();
        let l01 = g.find_link(NodeId(0), NodeId(1)).unwrap();
        let mut mask = FailureMask::new();
        mask.fail_cable(&g, l01);
        let mut gen = KspGenerator::under_mask(&g, NodeId(0), NodeId(2), &mask);
        let paths: Vec<Path> = std::iter::from_fn(|| gen.next_path()).collect();
        assert_eq!(paths.len(), 1, "only the direct route survives");
        assert_eq!(paths[0].delay_ms(), 5.0);
    }

    #[test]
    fn disconnection_is_reported_not_fatal() {
        let g = diamondish();
        let mut mask = FailureMask::new();
        mask.fail_node(NodeId(2));
        assert!(!mask.connected(&g, NodeId(0), NodeId(2)));
        assert_eq!(max_flow_masked(&g, NodeId(0), NodeId(2), &mask), 0.0);
        let mut gen = KspGenerator::under_mask(&g, NodeId(0), NodeId(2), &mask);
        assert!(gen.next_path().is_none());
    }

    #[test]
    fn mask_outlives_graph_growth() {
        // A mask built against the small graph answers correctly (all-up)
        // for links that only exist in a grown copy.
        let small = diamondish();
        let mut mask = FailureMask::new();
        mask.fail_link(LinkId(1));
        let mut b = GraphBuilder::new(4);
        for l in small.link_ids() {
            let link = small.link(l);
            b.add_link(link.src, link.dst, link.delay_ms, link.capacity_mbps);
        }
        b.add_duplex(NodeId(2), NodeId(3), 1.0, 10.0);
        let grown = b.build();
        let new_link = grown.find_link(NodeId(2), NodeId(3)).unwrap();
        assert!(!mask.link_down(&grown, new_link));
        assert_eq!(mask.capacity_factor(&grown, new_link), 1.0);
        assert!(mask.link_down(&grown, LinkId(1)));
    }
}
