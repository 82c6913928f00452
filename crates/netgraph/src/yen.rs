//! Yen's loopless k-shortest-paths algorithm (the paper's reference \[49\]),
//! exposed as an **incremental generator**.
//!
//! The paper's Figure 13 grows each aggregate's path list lazily — "generate
//! shortest paths for an increasing k" — and notes that the k-shortest-paths
//! computation, not the LP, is the bottleneck, so results "can be readily
//! cached". [`KspGenerator`] supports exactly that usage: call
//! [`KspGenerator::next_path`] to pull one more path; state persists so the
//! k+1-th path costs one round of spur computations, and the whole generator
//! can be cached per (src, dst) pair.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use crate::bitset::BitSet;
use crate::dijkstra::shortest_path;
use crate::graph::{Graph, LinkId, NodeId};
use crate::path::Path;

/// A candidate path in Yen's B-heap, min-ordered by (delay, hops, links).
struct Candidate {
    delay_ms: f64,
    links: Vec<LinkId>,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.links == other.links
    }
}
impl Eq for Candidate {}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for min-heap behaviour inside BinaryHeap (a max-heap).
        other
            .delay_ms
            .partial_cmp(&self.delay_ms)
            .expect("finite delays")
            .then_with(|| other.links.len().cmp(&self.links.len()))
            .then_with(|| other.links.cmp(&self.links))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Incremental loopless k-shortest-paths generator between one (src, dst)
/// pair, optionally avoiding a base set of links.
///
/// Paths are produced in non-decreasing delay order, each loopless and
/// distinct. The `avoid` mask supports the APA probe of §2 ("route around
/// that link").
pub struct KspGenerator<'g> {
    graph: &'g Graph,
    src: NodeId,
    dst: NodeId,
    avoid: Option<BitSet>,
    avoid_nodes: Option<BitSet>,
    accepted: Vec<Path>,
    candidates: BinaryHeap<Candidate>,
    seen: HashSet<Vec<LinkId>>,
    exhausted: bool,
}

impl<'g> KspGenerator<'g> {
    /// Creates a generator for paths from `src` to `dst`.
    ///
    /// # Panics
    /// Panics if `src == dst` — a PoP pair is always two distinct PoPs.
    pub fn new(graph: &'g Graph, src: NodeId, dst: NodeId) -> Self {
        Self::with_avoided(graph, src, dst, None, None)
    }

    /// Like [`KspGenerator::new`] but never uses links in `avoid`.
    pub fn with_avoided_links(
        graph: &'g Graph,
        src: NodeId,
        dst: NodeId,
        avoid: Option<BitSet>,
    ) -> Self {
        Self::with_avoided(graph, src, dst, avoid, None)
    }

    /// Like [`KspGenerator::new`] but never using links in `avoid` nor
    /// touching nodes in `avoid_nodes` — the failure-masked variant (see
    /// [`KspGenerator::under_mask`]). A masked `src` or `dst` yields no
    /// paths.
    pub fn with_avoided(
        graph: &'g Graph,
        src: NodeId,
        dst: NodeId,
        avoid: Option<BitSet>,
        avoid_nodes: Option<BitSet>,
    ) -> Self {
        assert!(src != dst, "k-shortest paths between a node and itself");
        KspGenerator {
            graph,
            src,
            dst,
            avoid,
            avoid_nodes,
            accepted: Vec::new(),
            candidates: BinaryHeap::new(),
            seen: HashSet::new(),
            exhausted: false,
        }
    }

    /// Paths produced so far (in order).
    pub fn produced(&self) -> &[Path] {
        &self.accepted
    }

    /// Produces the next-shortest loopless path, or `None` when no more
    /// distinct paths exist.
    pub fn next_path(&mut self) -> Option<Path> {
        if self.exhausted {
            return None;
        }
        if self.accepted.is_empty() {
            match shortest_path(
                self.graph,
                self.src,
                self.dst,
                self.avoid.as_ref(),
                self.avoid_nodes.as_ref(),
            ) {
                Some(p) => {
                    self.seen.insert(p.links().to_vec());
                    self.accepted.push(p.clone());
                    return Some(p);
                }
                None => {
                    self.exhausted = true;
                    return None;
                }
            }
        }
        self.expand_spurs();
        match self.candidates.pop() {
            Some(c) => {
                let p = Path::new(self.graph, c.links);
                self.accepted.push(p.clone());
                Some(p)
            }
            None => {
                self.exhausted = true;
                None
            }
        }
    }

    /// Ensures at least `k` paths have been attempted; returns the prefix of
    /// produced paths (may be shorter than `k` if the graph has fewer).
    pub fn take_up_to(&mut self, k: usize) -> &[Path] {
        while self.accepted.len() < k && self.next_path().is_some() {}
        &self.accepted
    }

    /// Spur expansion step of Yen's algorithm on the most recently accepted
    /// path.
    fn expand_spurs(&mut self) {
        let prev = self.accepted.last().expect("expand_spurs after first path").clone();
        let prev_nodes = prev.nodes(self.graph);
        let n_links = self.graph.link_count();
        let n_nodes = self.graph.node_count();

        for i in 0..prev.links().len() {
            let spur_node = prev_nodes[i];
            let root_links = &prev.links()[..i];

            // Mask: base avoided links + the i-th link of every accepted path
            // sharing this root, so the spur path must deviate here.
            let mut link_mask = match &self.avoid {
                Some(a) => a.clone(),
                None => BitSet::new(n_links),
            };
            for p in &self.accepted {
                if p.links().len() > i && &p.links()[..i] == root_links {
                    link_mask.insert(p.links()[i].idx());
                }
            }
            // Mask root-path nodes (except the spur node) to keep paths
            // loopless, on top of any base avoided nodes.
            let mut node_mask = match &self.avoid_nodes {
                Some(a) => a.clone(),
                None => BitSet::new(n_nodes),
            };
            for &nd in &prev_nodes[..i] {
                node_mask.insert(nd.idx());
            }

            if let Some(spur) =
                shortest_path(self.graph, spur_node, self.dst, Some(&link_mask), Some(&node_mask))
            {
                let mut links = root_links.to_vec();
                links.extend_from_slice(spur.links());
                if self.seen.insert(links.clone()) {
                    let delay_ms = self.graph.path_delay(&links);
                    self.candidates.push(Candidate { delay_ms, links });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    /// Classic 4-node diamond: 0-1-3 (2ms), 0-2-3 (4ms), plus 1-2 crosslink.
    fn diamond() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_duplex(NodeId(0), NodeId(1), 1.0, 10.0);
        b.add_duplex(NodeId(1), NodeId(3), 1.0, 10.0);
        b.add_duplex(NodeId(0), NodeId(2), 2.0, 10.0);
        b.add_duplex(NodeId(2), NodeId(3), 2.0, 10.0);
        b.add_duplex(NodeId(1), NodeId(2), 0.5, 10.0);
        b.build()
    }

    #[test]
    fn paths_in_nondecreasing_delay_order() {
        let g = diamond();
        let mut gen = KspGenerator::new(&g, NodeId(0), NodeId(3));
        let mut last = 0.0;
        let mut count = 0;
        while let Some(p) = gen.next_path() {
            assert!(p.delay_ms() >= last - 1e-12, "order violated");
            assert!(p.validate(&g).is_ok());
            last = p.delay_ms();
            count += 1;
            assert!(count < 100, "diamond has few paths");
        }
        // 0-1-3, 0-1-2-3, 0-2-3, 0-2-1-3: exactly 4 loopless paths.
        assert_eq!(count, 4);
    }

    #[test]
    fn first_path_is_dijkstra_shortest() {
        let g = diamond();
        let mut gen = KspGenerator::new(&g, NodeId(0), NodeId(3));
        let p = gen.next_path().unwrap();
        assert_eq!(p.delay_ms(), 2.0);
    }

    #[test]
    fn exact_path_set_on_diamond() {
        let g = diamond();
        let mut gen = KspGenerator::new(&g, NodeId(0), NodeId(3));
        let delays: Vec<f64> =
            std::iter::from_fn(|| gen.next_path().map(|p| p.delay_ms())).collect();
        // 0-1-3 = 2.0; 0-1-2-3 = 1+0.5+2 = 3.5; 0-2-3 = 4.0; 0-2-1-3 = 2+0.5+1 = 3.5
        assert_eq!(delays.len(), 4);
        assert_eq!(delays[0], 2.0);
        assert_eq!(delays[1], 3.5);
        assert_eq!(delays[2], 3.5);
        assert_eq!(delays[3], 4.0);
    }

    #[test]
    fn distinct_paths() {
        let g = diamond();
        let mut gen = KspGenerator::new(&g, NodeId(0), NodeId(3));
        let mut seen = std::collections::HashSet::new();
        while let Some(p) = gen.next_path() {
            assert!(seen.insert(p.links().to_vec()), "duplicate path produced");
        }
    }

    #[test]
    fn avoid_mask_respected() {
        let g = diamond();
        let l01 = g.find_link(NodeId(0), NodeId(1)).unwrap();
        let mut avoid = BitSet::new(g.link_count());
        avoid.insert(l01.idx());
        let mut gen = KspGenerator::with_avoided_links(&g, NodeId(0), NodeId(3), Some(avoid));
        while let Some(p) = gen.next_path() {
            assert!(!p.contains_link(l01), "avoided link used");
        }
    }

    #[test]
    fn take_up_to_caps_at_available() {
        let g = diamond();
        let mut gen = KspGenerator::new(&g, NodeId(0), NodeId(3));
        assert_eq!(gen.take_up_to(2).len(), 2);
        assert_eq!(gen.take_up_to(100).len(), 4);
        // idempotent once exhausted
        assert_eq!(gen.take_up_to(100).len(), 4);
        assert!(gen.next_path().is_none());
    }

    #[test]
    fn avoided_nodes_respected() {
        let g = diamond();
        let mut avoid_nodes = BitSet::new(g.node_count());
        avoid_nodes.insert(1);
        let mut gen = KspGenerator::with_avoided(&g, NodeId(0), NodeId(3), None, Some(avoid_nodes));
        let mut count = 0;
        while let Some(p) = gen.next_path() {
            assert!(!p.nodes(&g).contains(&NodeId(1)), "avoided node used");
            count += 1;
        }
        // Only 0-2-3 survives once node 1 is gone.
        assert_eq!(count, 1);
    }

    #[test]
    fn avoided_destination_yields_nothing() {
        let g = diamond();
        let mut avoid_nodes = BitSet::new(g.node_count());
        avoid_nodes.insert(3);
        let mut gen = KspGenerator::with_avoided(&g, NodeId(0), NodeId(3), None, Some(avoid_nodes));
        assert!(gen.next_path().is_none());
    }

    #[test]
    fn disconnected_pair_yields_nothing() {
        let mut b = GraphBuilder::new(3);
        b.add_duplex(NodeId(0), NodeId(1), 1.0, 1.0);
        let g = b.build();
        let mut gen = KspGenerator::new(&g, NodeId(0), NodeId(2));
        assert!(gen.next_path().is_none());
        assert!(gen.next_path().is_none());
    }
}
