//! Dinic max-flow / min-cut.
//!
//! §2 of the paper declares a set of alternate paths a *viable alternate*
//! when "their min-cut is sufficient" — i.e. the max-flow through the union
//! of those paths' links reaches the bottleneck capacity of the shortest
//! path. [`min_cut_of_links`] computes exactly that, and is what LLPD's
//! APA viability test runs on. [`max_flow`] is the same solver on the
//! whole graph. The min-cut load that scales the traffic matrices (§3) is
//! not a max-flow: it is `lowlat_core::scale::min_cut_load`, a MinMax LP.

use crate::graph::{Graph, LinkId, NodeId};

/// Internal arc for the Dinic residual network.
#[derive(Clone, Debug)]
struct Arc {
    to: usize,
    cap: f64,
    /// Index of the reverse arc in `arcs`.
    rev: usize,
}

/// Dinic solver over an explicit arc list. Crate-visible so the failure
/// overlay can pose masked instances without re-deriving the solver.
pub(crate) struct Dinic {
    arcs: Vec<Arc>,
    head: Vec<Vec<usize>>, // arc indices per node
    level: Vec<i32>,
    iter: Vec<usize>,
}

impl Dinic {
    pub(crate) fn new(n: usize) -> Self {
        Dinic { arcs: Vec::new(), head: vec![Vec::new(); n], level: vec![0; n], iter: vec![0; n] }
    }

    pub(crate) fn add_arc(&mut self, from: usize, to: usize, cap: f64) {
        let a = self.arcs.len();
        self.arcs.push(Arc { to, cap, rev: a + 1 });
        self.arcs.push(Arc { to: from, cap: 0.0, rev: a });
        self.head[from].push(a);
        self.head[to].push(a + 1);
    }

    fn bfs(&mut self, s: usize, t: usize) -> bool {
        self.level.iter_mut().for_each(|l| *l = -1);
        let mut q = std::collections::VecDeque::new();
        self.level[s] = 0;
        q.push_back(s);
        while let Some(u) = q.pop_front() {
            for &ai in &self.head[u] {
                let arc = &self.arcs[ai];
                if arc.cap > 1e-12 && self.level[arc.to] < 0 {
                    self.level[arc.to] = self.level[u] + 1;
                    q.push_back(arc.to);
                }
            }
        }
        self.level[t] >= 0
    }

    fn dfs(&mut self, u: usize, t: usize, f: f64) -> f64 {
        if u == t {
            return f;
        }
        while self.iter[u] < self.head[u].len() {
            let ai = self.head[u][self.iter[u]];
            let (to, cap) = (self.arcs[ai].to, self.arcs[ai].cap);
            if cap > 1e-12 && self.level[to] == self.level[u] + 1 {
                let d = self.dfs(to, t, f.min(cap));
                if d > 1e-12 {
                    self.arcs[ai].cap -= d;
                    let rev = self.arcs[ai].rev;
                    self.arcs[rev].cap += d;
                    return d;
                }
            }
            self.iter[u] += 1;
        }
        0.0
    }

    pub(crate) fn run(&mut self, s: usize, t: usize) -> f64 {
        let mut flow = 0.0;
        while self.bfs(s, t) {
            self.iter.iter_mut().for_each(|i| *i = 0);
            loop {
                let f = self.dfs(s, t, f64::INFINITY);
                if f <= 1e-12 {
                    break;
                }
                flow += f;
            }
        }
        flow
    }
}

/// Max flow (Mbps) from `s` to `t` using every link's capacity.
pub fn max_flow(graph: &Graph, s: NodeId, t: NodeId) -> f64 {
    let mut d = Dinic::new(graph.node_count());
    for l in graph.link_ids() {
        let link = graph.link(l);
        d.add_arc(link.src.idx(), link.dst.idx(), link.capacity_mbps);
    }
    d.run(s.idx(), t.idx())
}

/// Max flow (= min cut, by duality) from `s` to `t` restricted to the given
/// subset of links. Used by the APA viability test: the subset is the union
/// of candidate alternate paths.
pub fn min_cut_of_links(graph: &Graph, links: &[LinkId], s: NodeId, t: NodeId) -> f64 {
    let mut d = Dinic::new(graph.node_count());
    // Parallel links are added individually; Dinic handles multigraphs.
    let mut dedup = std::collections::HashSet::new();
    for &l in links {
        if dedup.insert(l) {
            let link = graph.link(l);
            d.add_arc(link.src.idx(), link.dst.idx(), link.capacity_mbps);
        }
    }
    d.run(s.idx(), t.idx())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    #[test]
    fn single_path_bottleneck() {
        let mut b = GraphBuilder::new(3);
        b.add_link(NodeId(0), NodeId(1), 1.0, 7.0);
        b.add_link(NodeId(1), NodeId(2), 1.0, 3.0);
        let g = b.build();
        assert!((max_flow(&g, NodeId(0), NodeId(2)) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_paths_sum() {
        let mut b = GraphBuilder::new(4);
        b.add_link(NodeId(0), NodeId(1), 1.0, 5.0);
        b.add_link(NodeId(1), NodeId(3), 1.0, 5.0);
        b.add_link(NodeId(0), NodeId(2), 1.0, 4.0);
        b.add_link(NodeId(2), NodeId(3), 1.0, 6.0);
        let g = b.build();
        assert!((max_flow(&g, NodeId(0), NodeId(3)) - 9.0).abs() < 1e-9);
    }

    #[test]
    fn classic_crosslink_network() {
        // CLRS-style example where the cross link matters.
        let mut b = GraphBuilder::new(4);
        b.add_link(NodeId(0), NodeId(1), 1.0, 10.0);
        b.add_link(NodeId(0), NodeId(2), 1.0, 10.0);
        b.add_link(NodeId(1), NodeId(2), 1.0, 1.0);
        b.add_link(NodeId(1), NodeId(3), 1.0, 4.0);
        b.add_link(NodeId(2), NodeId(3), 1.0, 9.0);
        let g = b.build();
        assert!((max_flow(&g, NodeId(0), NodeId(3)) - 13.0).abs() < 1e-9);
    }

    #[test]
    fn restricted_subset_min_cut() {
        let mut b = GraphBuilder::new(4);
        let a = b.add_link(NodeId(0), NodeId(1), 1.0, 5.0);
        let c = b.add_link(NodeId(1), NodeId(3), 1.0, 2.0);
        let d = b.add_link(NodeId(0), NodeId(2), 1.0, 4.0);
        let e = b.add_link(NodeId(2), NodeId(3), 1.0, 6.0);
        let g = b.build();
        // Only the upper path:
        assert!((min_cut_of_links(&g, &[a, c], NodeId(0), NodeId(3)) - 2.0).abs() < 1e-9);
        // Both paths:
        assert!((min_cut_of_links(&g, &[a, c, d, e], NodeId(0), NodeId(3)) - 6.0).abs() < 1e-9);
        // Duplicate link ids must not double capacity:
        assert!((min_cut_of_links(&g, &[a, c, a, c], NodeId(0), NodeId(3)) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_when_disconnected() {
        let mut b = GraphBuilder::new(3);
        b.add_link(NodeId(0), NodeId(1), 1.0, 5.0);
        let g = b.build();
        assert_eq!(max_flow(&g, NodeId(0), NodeId(2)), 0.0);
        assert_eq!(min_cut_of_links(&g, &[], NodeId(0), NodeId(1)), 0.0);
    }

    #[test]
    fn flow_bounded_by_out_capacity() {
        let mut b = GraphBuilder::new(5);
        for i in 1..4u32 {
            b.add_link(NodeId(0), NodeId(i), 1.0, 2.5);
            b.add_link(NodeId(i), NodeId(4), 1.0, 100.0);
        }
        let g = b.build();
        // Out-capacity of node 0 is 3 x 2.5.
        assert!((max_flow(&g, NodeId(0), NodeId(4)) - 7.5).abs() < 1e-9);
    }
}
