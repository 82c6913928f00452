//! Delay-weighted hierarchical partitioning of a graph.
//!
//! Flat KSP over an Internet-scale edge list is hopeless: Yen touches the
//! whole graph per spur and the path-set caches are quadratic in node count.
//! The partitioner here builds the structure the hierarchical path engine
//! in `lowlat_core` routes over: a depth-limited tree of clusters grown by
//! **delay-ball carving** — each child is a Dijkstra ball of bounded size
//! grown over the parent's members — so every leaf is a low-diameter,
//! size-balanced neighbourhood and cluster boundaries sit on real delay
//! structure rather than arbitrary index ranges. (Farthest-point Voronoi
//! seeding, the other classic choice, collapses on small-world metrics:
//! a scale-free hub core sits at near-equal delay from every seed, so one
//! cell swallows the graph.)
//!
//! Each carve settles only the nodes of its own ball, so splitting a
//! cluster costs about one sweep of its edges and a whole 100k-node build
//! stays in seconds. When a connected component exhausts before a ball
//! fills (disconnected ingests are legal), carving continues into the same
//! ball from the next unassigned member and marks it `overflow`, so
//! membership always partitions exactly.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::bitset::BitSet;
use crate::graph::{Graph, NodeId};
use crate::RangeError;

/// Knobs for [`Hierarchy::build`].
#[derive(Clone, Copy, Debug)]
pub struct HierarchyConfig {
    /// Maximum tree depth below the root (root is depth 0; its children are
    /// depth 1). A cluster at `max_depth` is never split.
    pub max_depth: usize,
    /// Clusters at or below this size become leaves regardless of depth.
    pub max_leaf: usize,
    /// Target child count when a cluster splits (farthest-point seeds).
    pub branching: usize,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig { max_depth: 3, max_leaf: 128, branching: 8 }
    }
}

impl HierarchyConfig {
    /// Checks the fields [`Hierarchy::build`] reads, which panics with the
    /// error's message; a caller holding outside input calls this first.
    pub fn validate(&self) -> Result<(), RangeError> {
        RangeError::check(self.max_leaf >= 1, "max_leaf", self.max_leaf, "at least 1")?;
        RangeError::check(self.branching >= 2, "branching", self.branching, "at least 2")
    }
}

/// One cluster in the tree. Clusters are stored in a flat arena; the root
/// is always index 0.
#[derive(Clone, Debug)]
pub struct Cluster {
    /// Index of this cluster in the arena.
    pub id: usize,
    /// Child cluster indices (empty for leaves).
    pub children: Vec<usize>,
    /// Depth in the tree (root = 0).
    pub depth: usize,
    /// Member nodes, sorted ascending. Children partition this set exactly.
    pub members: Vec<NodeId>,
    /// True when the ball spans more than one connected component of the
    /// parent scope (a component exhausted mid-carve and filling continued
    /// from the next unassigned member).
    pub overflow: bool,
}

impl Cluster {
    /// True when the cluster has no children.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// A depth-limited clustering of a graph. See the module docs.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    clusters: Vec<Cluster>,
    /// `leaf_of[v]` = arena index of the leaf containing node v.
    leaf_of: Vec<usize>,
}

/// Min-heap entry for the multi-source split Dijkstra.
#[derive(PartialEq)]
struct SplitEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for SplitEntry {}
impl Ord for SplitEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .partial_cmp(&self.dist)
            .expect("distances are finite")
            .then_with(|| other.node.cmp(&self.node))
    }
}
impl PartialOrd for SplitEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hierarchy {
    /// Builds the tree. Deterministic in `(graph, config)`.
    ///
    /// # Panics
    /// Panics if the graph is empty or [`HierarchyConfig::validate`]
    /// rejects `config`.
    pub fn build(graph: &Graph, config: &HierarchyConfig) -> Hierarchy {
        let n = graph.node_count();
        assert!(n > 0, "cannot partition an empty graph");
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        let max_leaf = config.max_leaf;

        let mut clusters = vec![Cluster {
            id: 0,
            children: Vec::new(),
            depth: 0,
            members: graph.nodes().collect(),
            overflow: false,
        }];

        // Scratch reused across splits (allocated once at |V|).
        let mut dist = vec![f64::INFINITY; n];
        let mut owner = vec![usize::MAX; n];
        let mut scope = BitSet::new(n);

        let mut work = vec![0usize];
        while let Some(cid) = work.pop() {
            let (depth, members) = {
                let c = &clusters[cid];
                (c.depth, c.members.clone())
            };
            if depth >= config.max_depth || members.len() <= max_leaf {
                continue;
            }

            scope.clear();
            for &m in &members {
                scope.insert(m.idx());
            }

            // Fan-out for this split. `branching` is the floor, but a flat
            // target would strand depth-limited splits of hub-dominated
            // graphs (scale-free delay metrics assign most nodes to the
            // seed nearest the hub) with leaves far above `max_leaf`. So
            // spread the leaf count this cluster still *needs* across its
            // remaining depth budget, and at the last level seed enough
            // cells to reach `max_leaf` outright.
            let remaining = config.max_depth - depth;
            let needed = members.len().div_ceil(max_leaf);
            let fanout = if remaining <= 1 {
                needed.max(config.branching)
            } else {
                let spread = (needed as f64).powf(1.0 / remaining as f64).ceil() as usize;
                spread.max(config.branching)
            }
            .min(members.len());

            // Ball carving: repeatedly grow a Dijkstra ball of `target`
            // members from the first unassigned member. Balanced by
            // construction — farthest-point Voronoi assignment collapses on
            // small-world metrics, where the hub core sits at near-equal
            // delay from every seed and one cell swallows the graph. Each
            // carve settles only the nodes of its own ball, so a whole
            // depth costs about one sweep of the cluster's edges. When a
            // component exhausts before the ball fills (disconnected
            // scopes are legal), carving continues from the next
            // unassigned member into the *same* ball, which is then marked
            // `overflow` — so membership always partitions exactly and
            // scraps don't shatter into singleton leaves.
            let target = members.len().div_ceil(fanout);
            for &m in &members {
                dist[m.idx()] = f64::INFINITY;
                owner[m.idx()] = usize::MAX;
            }
            let mut balls: Vec<(Vec<NodeId>, bool)> = Vec::new();
            let mut cursor = 0usize;
            loop {
                while cursor < members.len() && owner[members[cursor].idx()] != usize::MAX {
                    cursor += 1;
                }
                if cursor >= members.len() {
                    break;
                }
                let bi = balls.len();
                let mut seed = members[cursor];
                let mut ball: Vec<NodeId> = Vec::with_capacity(target);
                let mut components = 1usize;
                // Fresh tentative distances for the still-unassigned scope
                // (previous balls leave stale frontier values behind).
                for &m in &members[cursor..] {
                    if owner[m.idx()] == usize::MAX {
                        dist[m.idx()] = f64::INFINITY;
                    }
                }
                let mut heap = BinaryHeap::new();
                dist[seed.idx()] = 0.0;
                heap.push(SplitEntry { dist: 0.0, node: seed });
                while ball.len() < target {
                    let Some(SplitEntry { dist: d, node: u }) = heap.pop() else {
                        // Component exhausted: keep filling this ball from
                        // the next unassigned member, if any.
                        while cursor < members.len() && owner[members[cursor].idx()] != usize::MAX {
                            cursor += 1;
                        }
                        if cursor >= members.len() {
                            break;
                        }
                        seed = members[cursor];
                        components += 1;
                        dist[seed.idx()] = 0.0;
                        heap.push(SplitEntry { dist: 0.0, node: seed });
                        continue;
                    };
                    if owner[u.idx()] != usize::MAX {
                        continue; // settled by this or an earlier ball
                    }
                    owner[u.idx()] = bi;
                    ball.push(u);
                    for l in graph.out_links(u) {
                        let link = graph.link(l);
                        let v = link.dst.idx();
                        if !scope.contains(v) || owner[v] != usize::MAX {
                            continue;
                        }
                        let nd = d + link.delay_ms;
                        if nd < dist[v] - 1e-15 {
                            dist[v] = nd;
                            heap.push(SplitEntry { dist: nd, node: link.dst });
                        }
                    }
                }
                ball.sort();
                balls.push((ball, components > 1));
            }

            let mut children: Vec<usize> = Vec::new();
            for (ball, overflow) in balls {
                let id = clusters.len();
                clusters.push(Cluster {
                    id,
                    children: Vec::new(),
                    depth: depth + 1,
                    members: ball,
                    overflow,
                });
                children.push(id);
            }

            // A split that produced a single child (e.g. branching found no
            // second seed in a zero-diameter cluster) makes no progress;
            // keep the cluster a leaf instead of recursing forever.
            if children.len() <= 1 {
                clusters.truncate(clusters.len() - children.len());
                continue;
            }
            for &ch in &children {
                work.push(ch);
            }
            clusters[cid].children = children;
        }

        let mut leaf_of = vec![0usize; n];
        for c in &clusters {
            if c.is_leaf() {
                for &m in &c.members {
                    leaf_of[m.idx()] = c.id;
                }
            }
        }
        Hierarchy { clusters, leaf_of }
    }

    /// All clusters, arena-ordered (root first).
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// The cluster at arena index `id`.
    pub fn cluster(&self, id: usize) -> &Cluster {
        &self.clusters[id]
    }

    /// Arena index of the leaf containing `v`.
    pub fn leaf_of(&self, v: NodeId) -> usize {
        self.leaf_of[v.idx()]
    }

    /// Leaf cluster ids, ascending.
    pub fn leaves(&self) -> Vec<usize> {
        self.clusters.iter().filter(|c| c.is_leaf()).map(|c| c.id).collect()
    }

    /// Depth-1 cluster ids (the groups landmarks are budgeted over); falls
    /// back to `[0]` when the root never split.
    pub fn groups(&self) -> Vec<usize> {
        let g: Vec<usize> = self.clusters.iter().filter(|c| c.depth == 1).map(|c| c.id).collect();
        if g.is_empty() {
            vec![0]
        } else {
            g
        }
    }

    /// True when `u` and `v` share a leaf.
    pub fn same_leaf(&self, u: NodeId, v: NodeId) -> bool {
        self.leaf_of[u.idx()] == self.leaf_of[v.idx()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    /// Two 6-node cliques joined by one long link: the natural 2-split.
    fn barbell() -> Graph {
        let mut b = GraphBuilder::new(12);
        for base in [0u32, 6] {
            for i in 0..6u32 {
                for j in i + 1..6 {
                    b.add_duplex(NodeId(base + i), NodeId(base + j), 10.0, 1000.0);
                }
            }
        }
        b.add_duplex(NodeId(0), NodeId(6), 50.0, 1000.0);
        b.build()
    }

    fn line(n: u32) -> Graph {
        let mut b = GraphBuilder::new(n as usize);
        for i in 0..n - 1 {
            b.add_duplex(NodeId(i), NodeId(i + 1), 1.0, 1000.0);
        }
        b.build()
    }

    #[test]
    fn members_partition_exactly() {
        let g = line(64);
        let h = Hierarchy::build(&g, &HierarchyConfig { max_depth: 3, max_leaf: 8, branching: 3 });
        let mut seen = [false; 64];
        for &leaf in &h.leaves() {
            for &m in &h.cluster(leaf).members {
                assert!(!seen[m.idx()], "node {m:?} in two leaves");
                seen[m.idx()] = true;
                assert_eq!(h.leaf_of(m), leaf);
            }
        }
        assert!(seen.iter().all(|&s| s), "every node must land in a leaf");
    }

    #[test]
    fn barbell_splits_on_the_delay_gap() {
        let g = barbell();
        let h = Hierarchy::build(&g, &HierarchyConfig { max_depth: 2, max_leaf: 6, branching: 2 });
        // The two cliques must not share a leaf.
        assert!(!h.same_leaf(NodeId(1), NodeId(7)));
        assert!(h.same_leaf(NodeId(1), NodeId(2)));
        assert!(h.same_leaf(NodeId(7), NodeId(8)));
    }

    #[test]
    fn small_graph_stays_single_leaf() {
        let g = line(5);
        let h = Hierarchy::build(&g, &HierarchyConfig::default());
        assert_eq!(h.leaves(), vec![0]);
        assert_eq!(h.clusters().len(), 1);
        assert_eq!(h.groups(), vec![0]);
        assert_eq!(h.cluster(0).members, g.nodes().collect::<Vec<_>>());
        assert!(!h.cluster(0).overflow);
    }

    #[test]
    fn depth_limit_is_respected() {
        let g = line(200);
        let h = Hierarchy::build(&g, &HierarchyConfig { max_depth: 2, max_leaf: 4, branching: 2 });
        assert!(h.clusters().len() > 1, "a 200-node line splits");
        for c in h.clusters() {
            assert!(c.depth <= 2);
        }
    }

    #[test]
    fn disconnected_nodes_fall_into_overflow() {
        // A 40-node line plus 3 isolated nodes. Components: {0..39} and
        // each isolated node alone.
        let mut b = GraphBuilder::new(43);
        for i in 0..39u32 {
            b.add_duplex(NodeId(i), NodeId(i + 1), 1.0, 1000.0);
        }
        let g = b.build();
        let h = Hierarchy::build(&g, &HierarchyConfig { max_depth: 2, max_leaf: 8, branching: 4 });
        // Disconnection still partitions exactly, and the isolated nodes
        // were absorbed by *some* ball rather than dropped.
        let total: usize = h.leaves().iter().map(|&l| h.cluster(l).members.len()).sum();
        assert_eq!(total, 43);
        // Any cluster spanning more than one component must carry the
        // overflow flag (and at least one such cluster must exist, since 3
        // singleton components cannot each fill a ball).
        let component = |v: NodeId| if v.0 <= 39 { 0u32 } else { v.0 };
        let mut saw_overflow = false;
        for c in h.clusters().iter().filter(|c| c.is_leaf()) {
            let mut comps: Vec<u32> = c.members.iter().map(|&m| component(m)).collect();
            comps.sort_unstable();
            comps.dedup();
            if comps.len() > 1 {
                assert!(c.overflow, "cluster {} spans {} components", c.id, comps.len());
                saw_overflow = true;
            }
        }
        assert!(saw_overflow, "isolated scraps must have merged into an overflow ball");
    }

    #[test]
    fn deterministic_build() {
        let g = line(120);
        let cfg = HierarchyConfig { max_depth: 3, max_leaf: 7, branching: 3 };
        let a = Hierarchy::build(&g, &cfg);
        let b = Hierarchy::build(&g, &cfg);
        assert_eq!(a.clusters().len(), b.clusters().len());
        for (ca, cb) in a.clusters().iter().zip(b.clusters()) {
            assert_eq!(ca.members, cb.members);
            assert_eq!(ca.overflow, cb.overflow);
        }
    }

    #[test]
    fn a_leaf_bound_of_zero_is_an_error_not_a_bound_of_one() {
        let cfg = HierarchyConfig { max_leaf: 0, ..Default::default() };
        let e = cfg.validate().unwrap_err();
        assert_eq!(e.to_string(), "max_leaf = 0, expected at least 1");
        let g = line(20);
        let panicked = std::panic::catch_unwind(|| Hierarchy::build(&g, &cfg)).unwrap_err();
        assert_eq!(panicked.downcast_ref::<String>().map(String::as_str), Some(&*e.to_string()));
        assert_eq!(HierarchyConfig { max_leaf: 1, ..cfg }.validate(), Ok(()));
    }
}
