//! Dijkstra shortest paths by propagation delay, with link/node masking.
//!
//! Masking is first-class because two of the paper's core procedures need it:
//! the APA probe removes one shortest-path link and asks for alternates (§2),
//! and Yen's algorithm repeatedly hides links and root-path nodes.
//!
//! ## One kernel, two directions
//!
//! [`shortest_path_tree`] (from a source, over out-rows) and
//! [`reverse_shortest_path_tree`] (toward a sink, over in-rows) are one
//! private kernel over the graph's compressed rows (`graph` module docs):
//! it relaxes each row's packed arcs (far endpoint, link id, delay) and
//! never reads a [`crate::graph::Link`]. A tree keeps each node's parent
//! (or next) link as a `u32` id, `u32::MAX` for none; the accessors return
//! it as an `Option`.
//!
//! Its heap orders `(dist.to_bits(), node)` as integers, smallest first,
//! packed into one `u128` (the bits above the node id) so that a
//! comparison is one wide integer compare. That is exactly the
//! `(dist, node)` order a float comparison gives: finite non-negative
//! doubles order as their bit patterns, and every distance here is one —
//! `0.0 + Σ delay` over delays that are finite and `>= 0`, whose sum over
//! all links `GraphBuilder::build` holds finite, so not even `-0.0` arises
//! (`+0.0 + -0.0` is `+0.0`). Every comparison the heap makes therefore
//! comes out as the float comparison would, the heap pops in the same
//! order, and every distance and parent keeps its bits. The float-keyed
//! kernel this replaced survives in the test module as the reference a
//! proptest holds this one to.
//!
//! ## Point queries stop at their target
//!
//! [`shortest_path`] runs the same kernel from `s` and returns as soon as
//! `t` is popped, without relaxing the rest of the graph. The path is the
//! one the full tree's `path_to` gives, link for link: distances are
//! non-negative, so everything popped after `t` has a distance no smaller
//! than `t`'s, and a relaxation from it can neither strictly improve `t`
//! nor touch it on a tie (ties only move nodes not yet popped). The same
//! holds for every node on `t`'s parent chain, each popped before `t`. So
//! the parents the path is read from are final when the search stops. A
//! query between random nodes of a 10k-node Barabási–Albert graph took
//! 1.73–1.95 ms as a full tree and 0.78–0.90 ms stopped (2-CPU x86 host,
//! fastest of 15 batches of 200 queries, three runs a side). Yen's spur searches, LLPD's probes, `LinkBased` and the partitioned
//! engine's exact fallback all ask this way. The proptest
//! `a_point_query_is_the_full_trees_path` holds it to `path_to` for every
//! (s, t) on the reference proptest's tie-heavy masked multigraphs.
//!
//! ## One workspace a thread
//!
//! The kernel reads and writes four arrays: each node's distance, its via
//! link, whether it is settled, and the heap. They live in a private
//! workspace, and every search resets all four (infinite distances, no via
//! links, nothing settled, an empty heap) before it pushes its root. So a
//! search never reads what the workspace held before: its answer is the
//! one a fresh workspace gives, whatever graph, masks or target the search
//! before it had. The tree functions run on a workspace of their own and
//! move its distance and via arrays into the tree they return. Point
//! queries run on one workspace per thread, kept from query to query: once
//! it has grown to the graph, [`shortest_path`] allocates only the path it
//! returns (one link list, shared by the [`Path`] and its clones), and a
//! Yen spur search appends its links to the caller's buffer and allocates
//! nothing. Before, each point query allocated three node-sized arrays
//! and a growing heap, and a failure recovery on GTS-like makes about 860
//! of them: a query there went 0.42–0.73 → 0.29–0.32 µs (2-CPU x86 host,
//! fastest of 15 batches of 2 000, three runs a side).
//! `crates/core/tests/allocations.rs` counts a warm query's
//! allocations (one, on GTS-like and on a 10k-node graph), and
//! `tree_bits_at_scale` alternates queries between those two graphs and
//! holds each to the full tree's path.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::bitset::BitSet;
use crate::graph::{Graph, LinkId, NodeId};
use crate::path::Path;

/// The heap key of `node` at distance `dist`: `(dist.to_bits(), node)` as
/// one integer, which orders as the pair does (module docs).
#[inline]
fn key(dist: f64, node: u32) -> u128 {
    (u128::from(dist.to_bits()) << 32) | u128::from(node)
}

/// A tree's parent (or next) link of a node that has none: the root and
/// every node the tree does not reach. `GraphBuilder::build` keeps every
/// link id below it.
const NO_LINK: u32 = u32::MAX;

/// The arrays one search reads and writes: each node's distance, the id of
/// the link it was reached by (its parent link forward, its next link in
/// reverse, [`NO_LINK`] for none), whether it is settled, and the heap.
/// [`Workspace::search`] resets all four before it starts (module docs,
/// "One workspace a thread").
#[derive(Default)]
struct Workspace {
    dist: Vec<f64>,
    via: Vec<u32>,
    done: Vec<bool>,
    heap: BinaryHeap<Reverse<u128>>,
}

thread_local! {
    /// The workspace this thread's point queries run on, and the buffer
    /// [`shortest_path`] reads its path into.
    static POINT: RefCell<(Workspace, Vec<LinkId>)> = RefCell::default();
}

impl Workspace {
    /// Dijkstra from `root` over the out-rows (`forward`) or the in-rows,
    /// skipping links in `link_mask` and nodes in `node_mask`. With `stop`
    /// it returns as soon as that node is popped (module docs, "Point
    /// queries stop at their target").
    fn search(
        &mut self,
        graph: &Graph,
        forward: bool,
        root: NodeId,
        stop: Option<NodeId>,
        link_mask: Option<&BitSet>,
        node_mask: Option<&BitSet>,
    ) {
        let n = graph.node_count();
        let rows = graph.rows(forward);
        let Workspace { dist, via, done, heap } = self;
        dist.clear();
        dist.resize(n, f64::INFINITY);
        via.clear();
        via.resize(n, NO_LINK);
        done.clear();
        done.resize(n, false);
        heap.clear();
        let stop = stop.map_or(u32::MAX, |t| t.0);
        let masked_node = |v: usize| node_mask.is_some_and(|m| m.contains(v));
        let masked_link = |l: u32| link_mask.is_some_and(|m| m.contains(l as usize));

        if masked_node(root.idx()) {
            return;
        }
        dist[root.idx()] = 0.0;
        heap.push(Reverse(key(0.0, root.0)));
        while let Some(Reverse(popped)) = heap.pop() {
            let u = popped as u32;
            if done[u as usize] {
                continue;
            }
            done[u as usize] = true;
            if u == stop {
                break;
            }
            let d = f64::from_bits((popped >> 32) as u64);
            for arc in rows.row(NodeId(u)) {
                if masked_link(arc.link) || masked_node(arc.far as usize) {
                    continue;
                }
                let nd = d + arc.delay_ms;
                let v = arc.far as usize;
                // Strict improvement or deterministic tie-break on link id so
                // equal-delay graphs always produce the same tree.
                if nd < dist[v] - 1e-15
                    || (nd <= dist[v] + 1e-15 && via[v] != NO_LINK && arc.link < via[v] && !done[v])
                {
                    dist[v] = nd;
                    via[v] = arc.link;
                    heap.push(Reverse(key(nd, arc.far)));
                }
            }
        }
    }

    /// A search from `s` that stops at `t`, and the links of the path it
    /// found appended to `out` in order: what `path_to(t)` of the full tree
    /// holds. False, with `out` untouched, when `t` is `s` or unreachable.
    fn point(
        &mut self,
        graph: &Graph,
        s: NodeId,
        t: NodeId,
        link_mask: Option<&BitSet>,
        node_mask: Option<&BitSet>,
        out: &mut Vec<LinkId>,
    ) -> bool {
        if t == s {
            return false;
        }
        self.search(graph, true, s, Some(t), link_mask, node_mask);
        if !self.dist[t.idx()].is_finite() {
            return false;
        }
        let start = out.len();
        let mut at = t;
        while at != s {
            let l = LinkId(self.via[at.idx()]);
            out.push(l);
            at = graph.link(l).src;
        }
        out[start..].reverse();
        true
    }
}

/// Appends the links of [`shortest_path`]`(graph, s, t, ..)` to `out`, in
/// order, and returns true; returns false, with `out` untouched, where that
/// is `None`. Runs on this thread's workspace and allocates only when `out`
/// grows: Yen's spur searches build their candidates in one buffer this
/// way.
pub(crate) fn append_shortest_path(
    graph: &Graph,
    s: NodeId,
    t: NodeId,
    link_mask: Option<&BitSet>,
    node_mask: Option<&BitSet>,
    out: &mut Vec<LinkId>,
) -> bool {
    POINT.with_borrow_mut(|(ws, _)| ws.point(graph, s, t, link_mask, node_mask, out))
}

/// A tree from `root` on a workspace of its own, whose distance and via
/// arrays the tree keeps.
fn tree(
    graph: &Graph,
    forward: bool,
    root: NodeId,
    link_mask: Option<&BitSet>,
    node_mask: Option<&BitSet>,
) -> (Vec<f64>, Vec<u32>) {
    let mut ws = Workspace::default();
    ws.search(graph, forward, root, None, link_mask, node_mask);
    (ws.dist, ws.via)
}

/// The link a tree holds for a node, [`NO_LINK`] as `None`.
#[inline]
fn link_of(via: u32) -> Option<LinkId> {
    (via != NO_LINK).then_some(LinkId(via))
}

/// Result of a single-source Dijkstra run: distances and parent links.
#[derive(Clone, Debug)]
pub struct ShortestPathTree {
    source: NodeId,
    /// `dist_ms[v]` = shortest delay from source to v; `f64::INFINITY` if
    /// unreachable under the mask.
    dist_ms: Vec<f64>,
    /// Id of the parent link on the shortest path to v ([`NO_LINK`] for the
    /// source and unreachable nodes).
    parent: Vec<u32>,
}

impl ShortestPathTree {
    /// The source node of the tree.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Shortest delay to `v` in ms (`INFINITY` if unreachable).
    #[inline]
    pub fn dist_ms(&self, v: NodeId) -> f64 {
        self.dist_ms[v.idx()]
    }

    /// True if `v` is reachable.
    pub fn reachable(&self, v: NodeId) -> bool {
        self.dist_ms[v.idx()].is_finite()
    }

    /// The last link of the shortest path to `v` (`None` for the source
    /// and for unreachable nodes).
    #[inline]
    pub fn parent_link(&self, v: NodeId) -> Option<LinkId> {
        link_of(self.parent[v.idx()])
    }

    /// Reconstructs the shortest path to `t`, or `None` if unreachable or
    /// `t == source`.
    pub fn path_to(&self, graph: &Graph, t: NodeId) -> Option<Path> {
        if t == self.source || !self.reachable(t) {
            return None;
        }
        let mut links = Vec::new();
        let mut at = t;
        while at != self.source {
            let l = self.parent_link(at)?;
            links.push(l);
            at = graph.link(l).src;
        }
        links.reverse();
        Some(Path::new(graph, links))
    }
}

/// Runs Dijkstra from `source` over links *not* in `link_mask` and nodes
/// *not* in `node_mask` (either mask may be `None`).
///
/// Delays are the `delay_ms` attributes; ties are broken deterministically.
pub fn shortest_path_tree(
    graph: &Graph,
    source: NodeId,
    link_mask: Option<&BitSet>,
    node_mask: Option<&BitSet>,
) -> ShortestPathTree {
    let (dist_ms, parent) = tree(graph, true, source, link_mask, node_mask);
    ShortestPathTree { source, dist_ms, parent }
}

/// The shortest path from `s` to `t` under optional masks: the path
/// [`shortest_path_tree`]`(graph, s, ..).path_to(graph, t)` returns, found
/// by a search that stops once `t` is settled, on this thread's workspace
/// (module docs). Allocates only the path it returns.
pub fn shortest_path(
    graph: &Graph,
    s: NodeId,
    t: NodeId,
    link_mask: Option<&BitSet>,
    node_mask: Option<&BitSet>,
) -> Option<Path> {
    POINT.with_borrow_mut(|(ws, links)| {
        links.clear();
        ws.point(graph, s, t, link_mask, node_mask, links)
            .then(|| Path::from_shared(graph, links[..].into()))
    })
}

/// All-pairs shortest delays (ms) via repeated Dijkstra; `INFINITY` where
/// unreachable. Row = source.
pub fn all_pairs_delays(graph: &Graph) -> Vec<Vec<f64>> {
    graph.nodes().map(|s| shortest_path_tree(graph, s, None, None).dist_ms).collect()
}

/// Result of a single-**sink** Dijkstra run: for every node, the shortest
/// delay *to* the sink and the first link of that path.
///
/// The landmark machinery of the hierarchical path engine needs shortest
/// paths **into** a landmark from everywhere; running the forward algorithm
/// per source would be quadratic, so this walks `in_links` once instead.
#[derive(Clone, Debug)]
pub struct ReverseShortestPathTree {
    sink: NodeId,
    /// `dist_ms[v]` = shortest delay from v to sink; `INFINITY` if the sink
    /// is unreachable from v under the mask.
    dist_ms: Vec<f64>,
    /// Id of the first link on the shortest v→sink path ([`NO_LINK`] for
    /// the sink and nodes it is unreachable from).
    next: Vec<u32>,
}

impl ReverseShortestPathTree {
    /// The sink node of the tree.
    pub fn sink(&self) -> NodeId {
        self.sink
    }

    /// Shortest delay from `v` to the sink in ms (`INFINITY` if unreachable).
    #[inline]
    pub fn dist_ms(&self, v: NodeId) -> f64 {
        self.dist_ms[v.idx()]
    }

    /// True if the sink is reachable from `v`.
    pub fn reachable(&self, v: NodeId) -> bool {
        self.dist_ms[v.idx()].is_finite()
    }

    /// The first link of the shortest path from `v` to the sink (`None` for
    /// the sink and for nodes it is unreachable from).
    #[inline]
    pub fn next_link(&self, v: NodeId) -> Option<LinkId> {
        link_of(self.next[v.idx()])
    }

    /// Reconstructs the shortest path from `s` to the sink, or `None` if the
    /// sink is unreachable or `s` *is* the sink.
    pub fn path_from(&self, graph: &Graph, s: NodeId) -> Option<Path> {
        if s == self.sink || !self.reachable(s) {
            return None;
        }
        let mut links = Vec::new();
        let mut at = s;
        while at != self.sink {
            let l = self.next_link(at)?;
            links.push(l);
            at = graph.link(l).dst;
        }
        Some(Path::new(graph, links))
    }
}

/// Runs Dijkstra *toward* `sink` by relaxing `in_links`, honouring the same
/// optional masks as [`shortest_path_tree`]. `dist_ms(v)` is the delay of
/// the shortest v→sink path (directionality matters on asymmetric graphs).
pub fn reverse_shortest_path_tree(
    graph: &Graph,
    sink: NodeId,
    link_mask: Option<&BitSet>,
    node_mask: Option<&BitSet>,
) -> ReverseShortestPathTree {
    let (dist_ms, next) = tree(graph, false, sink, link_mask, node_mask);
    ReverseShortestPathTree { sink, dist_ms, next }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use std::cmp::Ordering;

    // ---- The kernel the compressed rows replaced, kept as its reference ----

    /// Heap entry ordered by (distance, node) — node id as a deterministic
    /// tie break so runs are reproducible across platforms.
    #[derive(PartialEq)]
    struct HeapEntry {
        dist: f64,
        node: NodeId,
    }

    impl Eq for HeapEntry {}

    impl Ord for HeapEntry {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reverse: BinaryHeap is a max-heap, we want the min distance first.
            other
                .dist
                .partial_cmp(&self.dist)
                .expect("distances are finite")
                .then_with(|| other.node.cmp(&self.node))
        }
    }

    impl PartialOrd for HeapEntry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// The per-node adjacency the graph held before its compressed rows:
    /// outgoing ids sorted by (dst, delay, id), incoming ids by id.
    fn per_node_lists(g: &Graph) -> (Vec<Vec<LinkId>>, Vec<Vec<LinkId>>) {
        let mut out: Vec<Vec<LinkId>> = vec![Vec::new(); g.node_count()];
        let mut inc: Vec<Vec<LinkId>> = vec![Vec::new(); g.node_count()];
        for l in g.link_ids() {
            out[g.link(l).src.idx()].push(l);
            inc[g.link(l).dst.idx()].push(l);
        }
        for v in &mut out {
            v.sort_by(|&a, &b| {
                let (la, lb) = (g.link(a), g.link(b));
                (la.dst, la.delay_ms, a).partial_cmp(&(lb.dst, lb.delay_ms, b)).unwrap()
            });
        }
        (out, inc)
    }

    /// The float-keyed Dijkstra over per-node lists, as both tree functions
    /// ran it: over `out` lists from a source when `forward`, over `in`
    /// lists toward a sink otherwise.
    fn reference_tree(
        g: &Graph,
        lists: &[Vec<LinkId>],
        forward: bool,
        root: NodeId,
        link_mask: Option<&BitSet>,
        node_mask: Option<&BitSet>,
    ) -> (Vec<f64>, Vec<Option<LinkId>>) {
        let n = g.node_count();
        let mut dist = vec![f64::INFINITY; n];
        let mut via: Vec<Option<LinkId>> = vec![None; n];
        let mut done = vec![false; n];
        let masked_node = |v: NodeId| node_mask.is_some_and(|m| m.contains(v.idx()));
        let masked_link = |l: LinkId| link_mask.is_some_and(|m| m.contains(l.idx()));
        if !masked_node(root) {
            dist[root.idx()] = 0.0;
            let mut heap = BinaryHeap::new();
            heap.push(HeapEntry { dist: 0.0, node: root });
            while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
                if done[u.idx()] {
                    continue;
                }
                done[u.idx()] = true;
                for &l in &lists[u.idx()] {
                    if masked_link(l) {
                        continue;
                    }
                    let link = g.link(l);
                    let far = if forward { link.dst } else { link.src };
                    if masked_node(far) {
                        continue;
                    }
                    let nd = d + link.delay_ms;
                    let v = far.idx();
                    if nd < dist[v] - 1e-15
                        || (nd <= dist[v] + 1e-15 && via[v].is_some_and(|pl| l < pl) && !done[v])
                    {
                        dist[v] = nd;
                        via[v] = Some(l);
                        heap.push(HeapEntry { dist: nd, node: far });
                    }
                }
            }
        }
        (dist, via)
    }

    /// Delays a generated link draws from: zeros (a zero-delay link makes the
    /// heap's pop order among equal distances decide a parent), repeats
    /// (equal-delay ties), and `0.1 + 0.2` against `0.3` (sums 5.6e-17
    /// apart, inside the relaxation's 1e-15 tie window).
    const DELAYS: [f64; 8] = [0.0, 0.0, 1.0, 1.0, 2.0, 0.1, 0.2, 0.3];

    /// A case's multigraph on `n` nodes — its duplex and one-way `(x, y,
    /// delay index)` draws taken mod `n`, a draw with equal ends dropped —
    /// and its masks: about a quarter of the links and an eighth of the
    /// nodes, picked by the bits of `links_down` and `nodes_down`. Yen's
    /// reference proptest draws its graphs here too.
    pub(crate) fn drawn(
        n: usize,
        duplex: &[(usize, usize, usize)],
        one_way: &[(usize, usize, usize)],
        links_down: u64,
        nodes_down: u64,
    ) -> (Graph, BitSet, BitSet) {
        let mut b = GraphBuilder::new(n);
        for &(x, y, d) in duplex {
            if x % n != y % n {
                b.add_duplex(NodeId((x % n) as u32), NodeId((y % n) as u32), DELAYS[d], 1.0);
            }
        }
        for &(x, y, d) in one_way {
            if x % n != y % n {
                b.add_link(NodeId((x % n) as u32), NodeId((y % n) as u32), DELAYS[d], 1.0);
            }
        }
        let g = b.build();
        let mut link_mask = BitSet::new(g.link_count());
        for l in g.link_ids().filter(|l| (links_down >> (2 * l.idx() % 64)) & 3 == 0) {
            link_mask.insert(l.idx());
        }
        let mut node_mask = BitSet::new(n);
        for v in g.nodes().filter(|v| (nodes_down >> (3 * v.idx() % 64)) & 7 == 0) {
            node_mask.insert(v.idx());
        }
        (g, link_mask, node_mask)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Both tree functions against the float-keyed kernel over per-node
        /// lists, from every root, on small multigraphs with parallel,
        /// zero-delay, tied and one-way links and disconnected parts, under
        /// random link and node masks: every distance by its bits, every
        /// parent and next link; and the rows against the old lists.
        #[test]
        fn the_kernel_is_the_float_keyed_one_to_the_bit(
            n in 1usize..=12,
            duplex in proptest::collection::vec((0usize..12, 0usize..12, 0usize..8), 0..16),
            one_way in proptest::collection::vec((0usize..12, 0usize..12, 0usize..8), 0..12),
            (links_down, nodes_down) in (proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>()),
            masked in 0usize..4,
        ) {
            use proptest::prelude::prop_assert_eq;
            let (g, link_mask, node_mask) = drawn(n, &duplex, &one_way, links_down, nodes_down);
            let (out, inc) = per_node_lists(&g);
            for v in g.nodes() {
                prop_assert_eq!(g.out_links(v).collect::<Vec<_>>(), out[v.idx()].clone());
                prop_assert_eq!(g.in_links(v).collect::<Vec<_>>(), inc[v.idx()].clone());
            }
            let link_mask = (masked & 1 == 1).then_some(&link_mask);
            let node_mask = (masked & 2 == 2).then_some(&node_mask);
            let bits = |dist: &[f64]| dist.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
            let links = |via: &[u32]| via.iter().map(|&l| link_of(l)).collect::<Vec<_>>();
            for root in g.nodes() {
                let fwd = shortest_path_tree(&g, root, link_mask, node_mask);
                let (dist, parent) = reference_tree(&g, &out, true, root, link_mask, node_mask);
                prop_assert_eq!(bits(&fwd.dist_ms), bits(&dist), "from {:?}", root);
                prop_assert_eq!(links(&fwd.parent), parent, "from {:?}", root);
                let rev = reverse_shortest_path_tree(&g, root, link_mask, node_mask);
                let (dist, next) = reference_tree(&g, &inc, false, root, link_mask, node_mask);
                prop_assert_eq!(bits(&rev.dist_ms), bits(&dist), "toward {:?}", root);
                prop_assert_eq!(links(&rev.next), next, "toward {:?}", root);
            }
        }

        /// A point query, which stops once its target is settled, against
        /// the full tree's `path_to` on the same multigraphs and masks, for
        /// every (s, t): the same links and the same delay bits, `None`
        /// where the tree has no path.
        #[test]
        fn a_point_query_is_the_full_trees_path(
            n in 1usize..=12,
            duplex in proptest::collection::vec((0usize..12, 0usize..12, 0usize..8), 0..16),
            one_way in proptest::collection::vec((0usize..12, 0usize..12, 0usize..8), 0..12),
            (links_down, nodes_down) in (proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>()),
            masked in 0usize..4,
        ) {
            use proptest::prelude::prop_assert_eq;
            let (g, link_mask, node_mask) = drawn(n, &duplex, &one_way, links_down, nodes_down);
            let link_mask = (masked & 1 == 1).then_some(&link_mask);
            let node_mask = (masked & 2 == 2).then_some(&node_mask);
            let answer = |p: Option<Path>| p.map(|p| (p.links().to_vec(), p.delay_ms().to_bits()));
            for s in g.nodes() {
                let tree = shortest_path_tree(&g, s, link_mask, node_mask);
                for t in g.nodes() {
                    prop_assert_eq!(
                        answer(shortest_path(&g, s, t, link_mask, node_mask)),
                        answer(tree.path_to(&g, t)),
                        "{:?} to {:?}", s, t
                    );
                }
            }
        }
    }

    /// 0 --1ms-- 1 --1ms-- 2 and a direct 0 --5ms-- 2.
    fn diamondish() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_duplex(NodeId(0), NodeId(1), 1.0, 10.0);
        b.add_duplex(NodeId(1), NodeId(2), 1.0, 10.0);
        b.add_duplex(NodeId(0), NodeId(2), 5.0, 10.0);
        b.build()
    }

    #[test]
    fn picks_two_hop_shorter_path() {
        let g = diamondish();
        let p = shortest_path(&g, NodeId(0), NodeId(2), None, None).unwrap();
        assert_eq!(p.delay_ms(), 2.0);
        assert_eq!(p.hop_count(), 2);
    }

    #[test]
    fn link_mask_forces_detour() {
        let g = diamondish();
        let l01 = g.find_link(NodeId(0), NodeId(1)).unwrap();
        let mut mask = BitSet::new(g.link_count());
        mask.insert(l01.idx());
        let p = shortest_path(&g, NodeId(0), NodeId(2), Some(&mask), None).unwrap();
        assert_eq!(p.delay_ms(), 5.0);
        assert_eq!(p.hop_count(), 1);
    }

    #[test]
    fn node_mask_forces_detour() {
        let g = diamondish();
        let mut mask = BitSet::new(g.node_count());
        mask.insert(1);
        let p = shortest_path(&g, NodeId(0), NodeId(2), None, Some(&mask)).unwrap();
        assert_eq!(p.delay_ms(), 5.0);
    }

    #[test]
    fn unreachable_is_none() {
        let mut b = GraphBuilder::new(3);
        b.add_duplex(NodeId(0), NodeId(1), 1.0, 10.0);
        let g = b.build();
        assert!(shortest_path(&g, NodeId(0), NodeId(2), None, None).is_none());
        let tree = shortest_path_tree(&g, NodeId(0), None, None);
        assert!(!tree.reachable(NodeId(2)));
        assert!(tree.dist_ms(NodeId(2)).is_infinite());
    }

    #[test]
    fn source_to_source() {
        let g = diamondish();
        let tree = shortest_path_tree(&g, NodeId(0), None, None);
        assert_eq!(tree.dist_ms(NodeId(0)), 0.0);
        assert!(tree.path_to(&g, NodeId(0)).is_none());
    }

    #[test]
    fn reverse_tree_matches_forward_on_duplex() {
        let g = diamondish();
        let rev = reverse_shortest_path_tree(&g, NodeId(2), None, None);
        assert_eq!(rev.sink(), NodeId(2));
        assert_eq!(rev.dist_ms(NodeId(0)), 2.0);
        assert_eq!(rev.dist_ms(NodeId(2)), 0.0);
        let p = rev.path_from(&g, NodeId(0)).unwrap();
        assert_eq!(p.delay_ms(), 2.0);
        assert_eq!(p.hop_count(), 2);
        // Path runs forward: 0 -> 1 -> 2.
        assert_eq!(g.link(p.links()[0]).src, NodeId(0));
        assert_eq!(g.link(*p.links().last().unwrap()).dst, NodeId(2));
        assert!(rev.path_from(&g, NodeId(2)).is_none());
    }

    #[test]
    fn reverse_tree_respects_masks() {
        let g = diamondish();
        let l12 = g.find_link(NodeId(1), NodeId(2)).unwrap();
        let mut mask = BitSet::new(g.link_count());
        mask.insert(l12.idx());
        let rev = reverse_shortest_path_tree(&g, NodeId(2), Some(&mask), None);
        assert_eq!(rev.dist_ms(NodeId(0)), 5.0);
        let mut nmask = BitSet::new(g.node_count());
        nmask.insert(2);
        let dead = reverse_shortest_path_tree(&g, NodeId(2), None, Some(&nmask));
        assert!(!dead.reachable(NodeId(0)));
    }

    #[test]
    fn all_pairs_symmetric_for_duplex_graph() {
        let g = diamondish();
        let d = all_pairs_delays(&g);
        for i in 0..3 {
            for j in 0..3 {
                assert!((d[i][j] - d[j][i]).abs() < 1e-12);
            }
        }
        assert_eq!(d[0][2], 2.0);
    }
}
