//! Paths as sequences of directed links.

use std::sync::Arc;

use crate::graph::{Graph, LinkId, NodeId};

/// A loopless directed path through a [`Graph`].
///
/// Invariants (checked by [`Path::new`] in debug builds and by
/// [`Path::validate`] on demand): links are contiguous (`dst` of link *i*
/// equals `src` of link *i+1*) and no node repeats.
///
/// A path never changes once built, so its clones share one link list: a
/// path copied from a cache into a path set, and from there into a
/// placement, costs a reference count, not a copy of its links.
#[derive(Clone, Debug, PartialEq)]
pub struct Path {
    links: Arc<[LinkId]>,
    /// Total propagation delay in ms, cached at construction.
    delay_ms: f64,
    src: NodeId,
    dst: NodeId,
}

impl Path {
    /// Builds a path from links; caches its delay.
    ///
    /// # Panics
    /// Panics if `links` is empty. Debug builds also validate contiguity and
    /// looplessness.
    pub fn new(graph: &Graph, links: Vec<LinkId>) -> Self {
        Self::from_shared(graph, links.into())
    }

    /// [`Path::new`] over a link list already shared: a point query builds
    /// it from its buffer in one allocation, and Yen's accepted candidate
    /// hands over the list its `seen` set holds.
    pub(crate) fn from_shared(graph: &Graph, links: Arc<[LinkId]>) -> Self {
        assert!(!links.is_empty(), "a Path must have at least one link");
        let src = graph.link(links[0]).src;
        let dst = graph.link(*links.last().expect("non-empty")).dst;
        let delay_ms = graph.path_delay(&links);
        let p = Path { links, delay_ms, src, dst };
        debug_assert!(p.validate(graph).is_ok(), "invalid path: {:?}", p.validate(graph));
        p
    }

    /// The link list this path shares with its clones.
    pub(crate) fn shared_links(&self) -> &Arc<[LinkId]> {
        &self.links
    }

    /// The links of the path, in order.
    #[inline]
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// Cached total propagation delay (ms).
    #[inline]
    pub fn delay_ms(&self) -> f64 {
        self.delay_ms
    }

    /// First node.
    #[inline]
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// Last node.
    #[inline]
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// Number of links (hops).
    #[inline]
    pub fn hop_count(&self) -> usize {
        self.links.len()
    }

    /// The node sequence, `hop_count() + 1` long.
    pub fn nodes(&self, graph: &Graph) -> Vec<NodeId> {
        let mut v = Vec::with_capacity(self.links.len() + 1);
        v.push(self.src);
        for &l in self.links.iter() {
            v.push(graph.link(l).dst);
        }
        v
    }

    /// Minimum capacity along the path (Mbps).
    pub fn bottleneck_mbps(&self, graph: &Graph) -> f64 {
        graph.path_bottleneck(&self.links)
    }

    /// True if the path traverses the given link.
    pub fn contains_link(&self, l: LinkId) -> bool {
        self.links.contains(&l)
    }

    /// Checks contiguity and looplessness; returns a description of the first
    /// violation. Allocates only the description: debug builds run it on
    /// every path built, and a point query allocates only its path.
    pub fn validate(&self, graph: &Graph) -> Result<(), String> {
        let mut at = self.src;
        for (i, &l) in self.links.iter().enumerate() {
            let link = graph.link(l);
            if link.src != at {
                return Err(format!("link {l:?} starts at {:?}, expected {at:?}", link.src));
            }
            at = link.dst;
            let before = &self.links[..i];
            if at == self.src || before.iter().any(|&b| graph.link(b).dst == at) {
                return Err(format!("node {at:?} repeats"));
            }
        }
        let cached = graph.path_delay(&self.links);
        if (cached - self.delay_ms).abs() > 1e-9 {
            return Err(format!("stale delay cache: {} vs {}", self.delay_ms, cached));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn line4() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_duplex(NodeId(0), NodeId(1), 1.0, 10.0);
        b.add_duplex(NodeId(1), NodeId(2), 2.0, 20.0);
        b.add_duplex(NodeId(2), NodeId(3), 3.0, 5.0);
        b.build()
    }

    #[test]
    fn path_accessors() {
        let g = line4();
        let l01 = g.find_link(NodeId(0), NodeId(1)).unwrap();
        let l12 = g.find_link(NodeId(1), NodeId(2)).unwrap();
        let l23 = g.find_link(NodeId(2), NodeId(3)).unwrap();
        let p = Path::new(&g, vec![l01, l12, l23]);
        assert_eq!(p.src(), NodeId(0));
        assert_eq!(p.dst(), NodeId(3));
        assert_eq!(p.delay_ms(), 6.0);
        assert_eq!(p.hop_count(), 3);
        assert_eq!(p.bottleneck_mbps(&g), 5.0);
        assert_eq!(p.nodes(&g), vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        assert!(p.contains_link(l12));
        assert!(p.validate(&g).is_ok());
    }

    #[test]
    fn validate_catches_discontiguity() {
        let g = line4();
        let l01 = g.find_link(NodeId(0), NodeId(1)).unwrap();
        let l23 = g.find_link(NodeId(2), NodeId(3)).unwrap();
        let p =
            Path { links: vec![l01, l23].into(), delay_ms: 4.0, src: NodeId(0), dst: NodeId(3) };
        assert!(p.validate(&g).is_err());
    }

    #[test]
    fn validate_catches_loop() {
        let g = line4();
        let l01 = g.find_link(NodeId(0), NodeId(1)).unwrap();
        let l10 = g.find_link(NodeId(1), NodeId(0)).unwrap();
        let p =
            Path { links: vec![l01, l10].into(), delay_ms: 2.0, src: NodeId(0), dst: NodeId(0) };
        assert!(p.validate(&g).is_err());
    }
}
