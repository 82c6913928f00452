//! Directed multigraph with delay/capacity attributes on links.
//!
//! Topologies in the paper are undirected at the cable level but routing is
//! directional (the GTS example in Figure 5 hinges on link 2 being full
//! *westbound* while eastbound capacity remains). We therefore model every
//! physical cable as a pair of directed links; the [`crate::graph::Graph`]
//! itself is purely directed and the topology layer tracks reverse pairing.
//!
//! ## Compressed rows
//!
//! The adjacency is stored as compressed rows, one set per direction: an
//! offset array (`start[u]..start[u + 1]` is node `u`'s row), one flat
//! array of link ids, and beside each id the link's far endpoint as a
//! `u32` (the `dst` of an out-link, the `src` of an in-link). A
//! shortest-path tree walks a row as two contiguous slices — no pointer
//! chase per row, no `links` lookup to learn where a link goes — and reads
//! only the delay out of [`Link`]. Delays stay in `links`: copied inline
//! they were measured ~10% faster a tree but ~1 MiB more peak memory on a
//! 10k-node graph. Out-rows are ordered by (dst, delay, id), in-rows by
//! link id, and [`Graph::out_links`] / [`Graph::in_links`] return those
//! rows as `&[LinkId]`.

use std::fmt;
use std::ops::Range;

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

/// One direction's adjacency as compressed rows (module docs): row `u` is
/// `ids[start[u]..start[u + 1]]`, and `far[i]` is the endpoint of `ids[i]`
/// that is not `u`.
#[derive(Clone, Debug)]
pub(crate) struct Rows {
    start: Vec<usize>,
    ids: Vec<LinkId>,
    far: Vec<u32>,
}

impl Rows {
    /// Rows over `node_count` nodes holding every link in the row of its
    /// `near` endpoint, each row in link-id order and then put in order by
    /// `order`, with the `far` endpoint beside each entry.
    fn new(
        node_count: usize,
        links: &[Link],
        near: impl Fn(&Link) -> NodeId,
        far: impl Fn(&Link) -> NodeId,
        order: impl Fn(&mut [LinkId]),
    ) -> Rows {
        let mut start = vec![0; node_count + 1];
        for l in links {
            start[near(l).idx() + 1] += 1;
        }
        for u in 0..node_count {
            start[u + 1] += start[u];
        }
        let mut ids = vec![LinkId(0); links.len()];
        let mut fill = start.clone();
        for (i, l) in links.iter().enumerate() {
            let at = &mut fill[near(l).idx()];
            ids[*at] = LinkId(i as u32);
            *at += 1;
        }
        for u in 0..node_count {
            order(&mut ids[start[u]..start[u + 1]]);
        }
        let far = ids.iter().map(|l| far(&links[l.idx()]).0).collect();
        Rows { start, ids, far }
    }

    fn span(&self, u: NodeId) -> Range<usize> {
        self.start[u.idx()]..self.start[u.idx() + 1]
    }

    /// Row `u`'s link ids.
    #[inline]
    pub(crate) fn ids(&self, u: NodeId) -> &[LinkId] {
        &self.ids[self.span(u)]
    }

    /// Row `u`'s link ids and, index for index, their far endpoints.
    #[inline]
    pub(crate) fn row(&self, u: NodeId) -> (&[LinkId], &[u32]) {
        let span = self.span(u);
        (&self.ids[span.clone()], &self.far[span])
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
    pub fn out_links(&self, n: NodeId) -> &[LinkId] {
        self.out.ids(n)
    }

    /// Incoming links of `n`, by id.
    #[inline]
    pub fn in_links(&self, n: NodeId) -> &[LinkId] {
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
    /// if any (multigraphs may have parallel links).
    pub fn find_link(&self, src: NodeId, dst: NodeId) -> Option<LinkId> {
        self.out_links(src).iter().copied().filter(|&l| self.links[l.idx()].dst == dst).min_by(
            |&a, &b| {
                self.links[a.idx()]
                    .delay_ms
                    .partial_cmp(&self.links[b.idx()].delay_ms)
                    .expect("delays are finite")
            },
        )
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
                for &v in self.rows(forward).row(u).1 {
                    if !seen[v as usize] {
                        seen[v as usize] = true;
                        cnt += 1;
                        stack.push(NodeId(v));
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
    pub fn build(self) -> Graph {
        let links = self.links;
        // Deterministic adjacency order: by (dst node, delay, id).
        let out = Rows::new(
            self.node_count,
            &links,
            |l| l.src,
            |l| l.dst,
            |row| {
                row.sort_by(|&a, &b| {
                    let (la, lb) = (&links[a.idx()], &links[b.idx()]);
                    (la.dst, la.delay_ms, a)
                        .partial_cmp(&(lb.dst, lb.delay_ms, b))
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
    #[should_panic]
    fn zero_capacity_rejected() {
        let mut b = GraphBuilder::new(2);
        b.add_link(NodeId(0), NodeId(1), 1.0, 0.0);
    }
}
