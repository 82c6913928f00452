//! Directed multigraph with delay/capacity attributes on links.
//!
//! Topologies in the paper are undirected at the cable level but routing is
//! directional (the GTS example in Figure 5 hinges on link 2 being full
//! *westbound* while eastbound capacity remains). We therefore model every
//! physical cable as a pair of directed links; the [`crate::graph::Graph`]
//! itself is purely directed and the topology layer tracks reverse pairing.
//!
//! ## Compressed rows of packed arcs
//!
//! The adjacency is stored as compressed rows, one set per direction: an
//! offset array (`start[u]..start[u + 1]` is node `u`'s row) over one flat
//! array of 16-byte arcs, each the link's id, its far endpoint (the `dst`
//! of an out-link, the `src` of an in-link) and its delay, copied exactly
//! from the [`Link`], which stays the source of truth. A shortest-path tree
//! walks a row as one contiguous slice and relaxes each arc without a
//! lookup into `links` (24 bytes a link, read at a random index for one
//! `f64`). The copy costs 16 bytes an arc per direction against the 8 of
//! the id and endpoint arrays it replaced. On the 10k-node Barabási–Albert
//! graph of the `scale-place` benchmark (2-CPU x86 host) that traded a
//! tree's 1.81–1.89 ms for 1.50–1.65 (fastest of 15 batches of 32 trees,
//! three runs a side), `setup_s` 0.228 → 0.196 s (medians of ten 20 s
//! pairs, each side first in five; −14%, all ten won) and `peak_rss_mb`
//! 22.5 → 23.6 MiB. Out-rows are ordered by (dst, delay, id), in-rows by
//! link id, and [`Graph::out_links`] / [`Graph::in_links`] iterate those
//! rows' link ids.

use std::fmt;

/// Index of a node (PoP) in a [`Graph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Index of a directed link in a [`Graph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl NodeId {
    /// The index as a usize, for indexing into per-node arrays.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl LinkId {
    /// The index as a usize, for indexing into per-link arrays.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// A directed link with propagation delay (ms) and capacity (Mbps).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Link {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Propagation delay in milliseconds. Must be finite and >= 0.
    pub delay_ms: f64,
    /// Capacity in Mbps. Must be finite and > 0.
    pub capacity_mbps: f64,
}

/// One link as a row holds it: the link's id, its far endpoint and its
/// delay, copied from the [`Link`] (module docs).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Arc {
    /// The endpoint of the link that is not the row's node.
    pub(crate) far: u32,
    /// The link's id.
    pub(crate) link: u32,
    /// The link's `delay_ms`, to the bit.
    pub(crate) delay_ms: f64,
}

/// One direction's adjacency as compressed rows (module docs): row `u` is
/// `arcs[start[u]..start[u + 1]]`.
#[derive(Clone, Debug)]
pub(crate) struct Rows {
    start: Vec<usize>,
    arcs: Vec<Arc>,
}

impl Rows {
    /// Rows over `node_count` nodes holding an arc for every link in the
    /// row of its `near` endpoint, each row in link-id order and then put
    /// in order by `order`.
    fn new(
        node_count: usize,
        links: &[Link],
        near: impl Fn(&Link) -> NodeId,
        far: impl Fn(&Link) -> NodeId,
        order: impl Fn(&mut [Arc]),
    ) -> Rows {
        let mut start = vec![0; node_count + 1];
        for l in links {
            start[near(l).idx() + 1] += 1;
        }
        for u in 0..node_count {
            start[u + 1] += start[u];
        }
        let mut arcs = vec![Arc { far: 0, link: 0, delay_ms: 0.0 }; links.len()];
        let mut fill = start.clone();
        for (i, l) in links.iter().enumerate() {
            let at = &mut fill[near(l).idx()];
            arcs[*at] = Arc { far: far(l).0, link: i as u32, delay_ms: l.delay_ms };
            *at += 1;
        }
        for u in 0..node_count {
            order(&mut arcs[start[u]..start[u + 1]]);
        }
        Rows { start, arcs }
    }

    /// Row `u`'s arcs.
    #[inline]
    pub(crate) fn row(&self, u: NodeId) -> &[Arc] {
        &self.arcs[self.start[u.idx()]..self.start[u.idx() + 1]]
    }

    /// Row `u`'s link ids.
    #[inline]
    fn ids(&self, u: NodeId) -> impl ExactSizeIterator<Item = LinkId> + '_ {
        self.row(u).iter().map(|a| LinkId(a.link))
    }
}

/// A directed multigraph. Immutable once built (see [`GraphBuilder`]).
#[derive(Clone, Debug)]
pub struct Graph {
    links: Vec<Link>,
    /// Outgoing links, each row sorted by (dst, delay, id) for determinism.
    out: Rows,
    /// Incoming links, each row in link-id order.
    inc: Rows,
}

impl Graph {
    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.out.start.len() - 1
    }

    /// Number of directed links.
    #[inline]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// All node ids, in order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// All link ids, in order.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.links.len() as u32).map(LinkId)
    }

    /// Link attributes.
    #[inline]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.idx()]
    }

    /// Outgoing links of `n`, by (dst, delay, id).
    #[inline]
    pub fn out_links(&self, n: NodeId) -> impl ExactSizeIterator<Item = LinkId> + '_ {
        self.out.ids(n)
    }

    /// Incoming links of `n`, by id.
    #[inline]
    pub fn in_links(&self, n: NodeId) -> impl ExactSizeIterator<Item = LinkId> + '_ {
        self.inc.ids(n)
    }

    /// The out-rows (`forward`) or the in-rows, for the shortest-path
    /// kernel.
    #[inline]
    pub(crate) fn rows(&self, forward: bool) -> &Rows {
        if forward {
            &self.out
        } else {
            &self.inc
        }
    }

    /// Finds the directed link from `src` to `dst` with the smallest delay,
    /// if any (multigraphs may have parallel links), and of those the one
    /// with the smallest id: the out-row is ordered by (dst, delay, id), so
    /// that is the row's first arc to `dst`.
    pub fn find_link(&self, src: NodeId, dst: NodeId) -> Option<LinkId> {
        self.out.row(src).iter().find(|a| a.far == dst.0).map(|a| LinkId(a.link))
    }

    /// The reverse link (same endpoints, opposite direction) with the
    /// smallest delay, if any.
    pub fn reverse_of(&self, id: LinkId) -> Option<LinkId> {
        let l = self.link(id);
        self.find_link(l.dst, l.src)
    }

    /// Sum of `delay_ms` over the given links.
    pub fn path_delay(&self, links: &[LinkId]) -> f64 {
        links.iter().map(|&l| self.links[l.idx()].delay_ms).sum()
    }

    /// Minimum capacity over the given links; `f64::INFINITY` for the empty
    /// slice (an empty path has no bottleneck).
    pub fn path_bottleneck(&self, links: &[LinkId]) -> f64 {
        links.iter().map(|&l| self.links[l.idx()].capacity_mbps).fold(f64::INFINITY, f64::min)
    }

    /// True if every node can reach every other node (strong connectivity),
    /// which the paper's topologies always satisfy.
    pub fn is_strongly_connected(&self) -> bool {
        let n = self.node_count();
        if n <= 1 {
            return true;
        }
        let reach = |forward: bool| -> usize {
            let mut seen = vec![false; n];
            let mut stack = vec![NodeId(0)];
            seen[0] = true;
            let mut cnt = 1;
            while let Some(u) = stack.pop() {
                for a in self.rows(forward).row(u) {
                    if !seen[a.far as usize] {
                        seen[a.far as usize] = true;
                        cnt += 1;
                        stack.push(NodeId(a.far));
                    }
                }
            }
            cnt
        };
        reach(true) == n && reach(false) == n
    }
}

/// Builder for [`Graph`]. Validates attributes at `build()`.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    node_count: usize,
    links: Vec<Link>,
}

impl GraphBuilder {
    /// Creates a builder with `node_count` nodes and no links.
    pub fn new(node_count: usize) -> Self {
        GraphBuilder { node_count, links: Vec::new() }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Adds a directed link and returns its id.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints, self-loops, non-finite or negative
    /// delay, or non-positive capacity — these are construction bugs, not
    /// runtime conditions.
    pub fn add_link(
        &mut self,
        src: NodeId,
        dst: NodeId,
        delay_ms: f64,
        capacity_mbps: f64,
    ) -> LinkId {
        assert!(src.idx() < self.node_count, "src {src:?} out of range");
        assert!(dst.idx() < self.node_count, "dst {dst:?} out of range");
        assert!(src != dst, "self-loops are not meaningful in a PoP topology");
        assert!(delay_ms.is_finite() && delay_ms >= 0.0, "bad delay {delay_ms}");
        assert!(capacity_mbps.is_finite() && capacity_mbps > 0.0, "bad capacity {capacity_mbps}");
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link { src, dst, delay_ms, capacity_mbps });
        id
    }

    /// Adds a pair of directed links (both directions) with identical
    /// attributes, returning (forward, reverse) ids.
    pub fn add_duplex(
        &mut self,
        a: NodeId,
        b: NodeId,
        delay_ms: f64,
        capacity_mbps: f64,
    ) -> (LinkId, LinkId) {
        let f = self.add_link(a, b, delay_ms, capacity_mbps);
        let r = self.add_link(b, a, delay_ms, capacity_mbps);
        (f, r)
    }

    /// Finalizes into an immutable [`Graph`].
    ///
    /// # Panics
    /// Panics when the delays of all links, summed in id order, are not
    /// finite (each is, but `1e308 + 1e308` is not): a distance is a sum
    /// of some of them, and the shortest-path kernel relaxes only finite
    /// distances (`dijkstra` module docs). Ingestion reports such input as
    /// an error before it builds. Panics too on `u32::MAX` links or more,
    /// since a tree marks "no link" with that id.
    pub fn build(self) -> Graph {
        let links = self.links;
        let total_ms: f64 = links.iter().map(|l| l.delay_ms).sum();
        assert!(total_ms.is_finite(), "link delays sum to {total_ms} ms");
        assert!(links.len() < u32::MAX as usize, "{} links", links.len());
        // Deterministic adjacency order: by (dst node, delay, id).
        let out = Rows::new(
            self.node_count,
            &links,
            |l| l.src,
            |l| l.dst,
            |row| {
                row.sort_by(|a, b| {
                    (a.far, a.delay_ms, a.link)
                        .partial_cmp(&(b.far, b.delay_ms, b.link))
                        .expect("finite delays")
                })
            },
        );
        let inc = Rows::new(self.node_count, &links, |l| l.dst, |l| l.src, |_| {});
        Graph { links, out, inc }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_duplex(NodeId(0), NodeId(1), 1.0, 100.0);
        b.add_duplex(NodeId(1), NodeId(2), 2.0, 50.0);
        b.add_duplex(NodeId(0), NodeId(2), 5.0, 10.0);
        b.build()
    }

    #[test]
    fn counts_and_lookup() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.link_count(), 6);
        let l = g.find_link(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(g.link(l).delay_ms, 1.0);
        assert_eq!(g.link(l).capacity_mbps, 100.0);
        assert!(g.find_link(NodeId(1), NodeId(0)).is_some());
    }

    #[test]
    fn reverse_pairing() {
        let g = triangle();
        let f = g.find_link(NodeId(1), NodeId(2)).unwrap();
        let r = g.reverse_of(f).unwrap();
        assert_eq!(g.link(r).src, NodeId(2));
        assert_eq!(g.link(r).dst, NodeId(1));
    }

    #[test]
    fn path_attributes() {
        let g = triangle();
        let a = g.find_link(NodeId(0), NodeId(1)).unwrap();
        let b = g.find_link(NodeId(1), NodeId(2)).unwrap();
        assert_eq!(g.path_delay(&[a, b]), 3.0);
        assert_eq!(g.path_bottleneck(&[a, b]), 50.0);
        assert_eq!(g.path_bottleneck(&[]), f64::INFINITY);
    }

    #[test]
    fn connectivity() {
        let g = triangle();
        assert!(g.is_strongly_connected());
        let mut b = GraphBuilder::new(3);
        b.add_link(NodeId(0), NodeId(1), 1.0, 1.0);
        b.add_link(NodeId(1), NodeId(2), 1.0, 1.0);
        let g = b.build(); // no way back
        assert!(!g.is_strongly_connected());
    }

    #[test]
    fn parallel_links_pick_lowest_delay() {
        let mut b = GraphBuilder::new(2);
        b.add_link(NodeId(0), NodeId(1), 4.0, 10.0);
        let fast = b.add_link(NodeId(0), NodeId(1), 2.0, 10.0);
        let g = b.build();
        assert_eq!(g.find_link(NodeId(0), NodeId(1)), Some(fast));
    }

    #[test]
    #[should_panic]
    fn self_loop_rejected() {
        let mut b = GraphBuilder::new(2);
        b.add_link(NodeId(0), NodeId(0), 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "link delays sum to inf ms")]
    fn delays_summing_past_f64_rejected() {
        let mut b = GraphBuilder::new(3);
        b.add_duplex(NodeId(0), NodeId(1), 1e308, 1.0);
        b.build();
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let mut b = GraphBuilder::new(2);
        b.add_link(NodeId(0), NodeId(1), 1.0, 0.0);
    }
}
