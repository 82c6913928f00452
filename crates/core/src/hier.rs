//! Hierarchical partitioned path engine for Internet-scale graphs.
//!
//! The flat [`PathCache`] materializes one Yen
//! generator per requested pair over the whole graph — perfect for the
//! paper's PoP backbones (tens of nodes), hopeless at CAIDA scale (78k
//! nodes): a single cross-graph Yen spur re-runs Dijkstra over everything,
//! and caching all-pairs state is quadratic. [`PartitionedPathEngine`]
//! splits the work along a delay-weighted
//! [`Hierarchy`]:
//!
//! * **Intra-leaf** queries go to a per-leaf *scoped* `PathCache` — the
//!   existing warm machinery, restricted so enumeration never leaves the
//!   leaf. Same Yen semantics, partition-sized cost.
//! * **Cross-leaf** queries are answered by **landmark stitching**: a
//!   global budget of landmark nodes (picked per depth-1 group, weighted by
//!   group size) precomputes one forward and one reverse shortest-path tree
//!   each; a query concatenates `s → ℓ` and `ℓ → d`, de-loops the splice,
//!   and ranks candidates across landmarks. Cost per query is `O(landmarks
//!   × path length)` — no Yen over the full graph, and the full cross-pair
//!   path set is never materialized. That list — at most one candidate a
//!   landmark — is the pair's complete ranking, and
//!   [`PathSource::grow`] hands all of it over at once.
//!
//! Landmark stitching is approximate (stretch ≥ 1 versus flat Yen) but
//! *bounded*: the best stitched delay never exceeds `min_ℓ (d(s,ℓ) +
//! d(ℓ,d))`, which [`PartitionedPathEngine::landmark_bound_ms`] exposes and
//! the property tests pin. When no landmark connects a pair (sparse cuts,
//! overflow clusters), a single targeted Dijkstra answers exactly — so
//! reachability always matches the flat engine.
//!
//! ## The landmark table
//!
//! The trees are not kept as trees. A stitch through landmark `ℓ` reads,
//! for each of the handful of nodes on the walk, *that node's* entry of
//! `ℓ`'s tree — and the query does so for every landmark in turn. With one
//! `O(V)` array per tree that is a cache miss per node per landmark (≈5
//! nodes × 64 arrays of 80–160 kB on a 10k-node Barabási–Albert graph);
//! the same values sit in a few lines when they are stored **node-major**.
//! So each tree is built by the ordinary Dijkstra, copied into its column
//! of one table and dropped. The trees are built on every core
//! ([`default_workers`]; one under `taskset -c 0`),
//! one landmark's pair per worker at a time; the calling thread copies each
//! pair into its column before the next landmarks start, so at most one
//! pair per worker is alive (holding all 32 pairs at once would be ~11 MB
//! at 10k nodes) and the table is the same bits at any worker count. The
//! same fill runs at build and at every failure transition. The table is
//! four arrays indexed `[node][landmark]`:
//! `dist_to` and `dist_from` (`f64`: `d(v, ℓ)` and `d(ℓ, v)`, what the
//! landmark bound and the reachability test read: two rows a query),
//! `next_to` and `parent_from` (`u32` link ids: the first link of `v → ℓ`
//! and the last link of `ℓ → v`, what a walk follows). 24 bytes per node
//! and landmark — 7.7 MB at 10k nodes × 32, against 10.2 MB for the 64
//! trees with their `Option<LinkId>` parents. A stitch writes its walk
//! straight into one link buffer the query reuses, cuts the splice loop out
//! of it in place, and a [`Path`] is allocated only for a walk no earlier
//! landmark already produced. The per-landmark trees survive in this
//! module's tests, which hold the table to them cell for cell and the
//! ranking path for path.
//!
//! The engine implements [`PathSource`], so the
//! whole LP/scheme stack places through it: `pathgrow`'s column-generation
//! loop prices candidate columns with [`PartitionedPathEngine::paths`] and
//! prunes hopeless pairs with the landmark bound — placement at Internet
//! scale without ever materializing the flat path corpus. Failure masks
//! apply here too ([`PartitionedPathEngine::apply_failure`]): leaf caches
//! repair exactly like the flat cache, and the landmark table is refilled
//! under the mask, so recovery re-placement runs on priced-on-demand columns.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use lowlat_netgraph::{
    reverse_shortest_path_tree, shortest_path, shortest_path_tree, FailureMask, Graph, Hierarchy,
    HierarchyConfig, LinkId, NodeId, Path,
};
use lowlat_telemetry as telemetry;

use crate::par::{default_workers, par_map};
use crate::pathset::{PathCache, RepairStats};
use crate::source::PathSource;

/// Knobs for [`PartitionedPathEngine::build`].
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Hierarchy shape.
    pub hierarchy: HierarchyConfig,
    /// Global landmark budget, distributed over depth-1 groups by size
    /// (every group gets at least one). Memory is 24 bytes per node and
    /// landmark (module docs, "The landmark table"), so the budget caps it.
    pub landmarks: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { hierarchy: HierarchyConfig::default(), landmarks: 32 }
    }
}

/// Query-mix counters (cumulative, thread-safe).
///
/// Every increment is mirrored into the telemetry registry (`hier.intra`,
/// `hier.cross`, `hier.fallback`) at the same call site, so a metrics
/// snapshot and this struct's [`QueryStats::snapshot`] report the query mix
/// from one code path and cannot disagree.
#[derive(Debug, Default)]
pub struct QueryStats {
    /// Queries answered by a per-leaf scoped cache.
    pub intra: AtomicUsize,
    /// Queries answered by landmark stitching.
    pub cross: AtomicUsize,
    /// Cross queries where stitching found nothing and the exact Dijkstra
    /// fallback ran.
    pub fallback: AtomicUsize,
}

impl QueryStats {
    /// Snapshot as `(intra, cross, fallback)`.
    pub fn snapshot(&self) -> (usize, usize, usize) {
        (
            self.intra.load(Ordering::Relaxed),
            self.cross.load(Ordering::Relaxed),
            self.fallback.load(Ordering::Relaxed),
        )
    }
}

/// The hierarchical engine. See the module docs for the routing split.
pub struct PartitionedPathEngine<'g> {
    graph: &'g Graph,
    hierarchy: Hierarchy,
    /// `caches[i]` serves the leaf with arena id `leaf_ids[i]`.
    leaf_ids: Vec<usize>,
    caches: Vec<PathCache<'g>>,
    /// Arena-id → dense cache index.
    cache_of_leaf: Vec<usize>,
    /// The deterministic landmark node choice — kept so failure transitions
    /// can refill the table under a mask without re-deriving the pick.
    landmark_nodes: Vec<NodeId>,
    /// The landmark trees under the active mask, as one node-major table.
    /// A read-write lock for the same reason as the cache's mask: per-query
    /// reads never contend, writes happen only at (documented-quiescent)
    /// failure transitions.
    landmarks: RwLock<LandmarkTable>,
    /// The failure mask in force; `None` means the intact topology.
    mask: RwLock<Option<Arc<FailureMask>>>,
    stats: QueryStats,
}

/// `next_to` / `parent_from` of a cell that has no link: the landmark's own
/// row, and a node the landmark does not reach (or is not reached from).
const NO_LINK: u32 = u32::MAX;

/// The shortest-path trees of every installed landmark under the active
/// mask, stored the way a stitch reads them: node-major, one row of
/// `nodes.len()` cells per graph node in each of four arrays, cell `j` of
/// row `v` at `v * nodes.len() + j` (module docs, "The landmark table").
#[derive(Default)]
struct LandmarkTable {
    /// The installed landmarks; column `j` of every row belongs to `nodes[j]`.
    nodes: Vec<NodeId>,
    /// Shortest delay `v → nodes[j]` (`INFINITY` when unreachable).
    dist_to: Vec<f64>,
    /// Shortest delay `nodes[j] → v`.
    dist_from: Vec<f64>,
    /// First link of the shortest `v → nodes[j]` path.
    next_to: Vec<u32>,
    /// Last link of the shortest `nodes[j] → v` path.
    parent_from: Vec<u32>,
}

impl LandmarkTable {
    /// Installs `picks` under `mask`, in place, on every core. Picks the mask
    /// downs are skipped — their trees would be empty — so a failed landmark
    /// degrades coverage instead of poisoning it.
    fn fill(&mut self, graph: &Graph, picks: &[NodeId], mask: Option<&FailureMask>) {
        self.fill_on(graph, picks, mask, default_workers());
    }

    /// [`Self::fill`] on up to `workers` threads, `workers` landmarks at a
    /// time: each computes one landmark's tree pair, and the calling thread
    /// copies every pair into its column and drops it before the next
    /// landmarks start, so at most one pair per worker is alive and the
    /// table is all the engine keeps. The trees do not depend on the thread
    /// that builds them, so neither does the table.
    fn fill_on(
        &mut self,
        graph: &Graph,
        picks: &[NodeId],
        mask: Option<&FailureMask>,
        workers: usize,
    ) {
        let routing = mask.filter(|m| m.affects_routing());
        let link_mask = routing.and_then(FailureMask::link_mask);
        let node_mask = routing.and_then(FailureMask::node_mask);
        self.nodes.clear();
        self.nodes
            .extend(picks.iter().filter(|&&node| !routing.is_some_and(|m| m.node_down(node))));
        let width = self.nodes.len();
        let cells = graph.node_count() * width;
        self.dist_to.resize(cells, f64::INFINITY);
        self.dist_from.resize(cells, f64::INFINITY);
        self.next_to.resize(cells, NO_LINK);
        self.parent_from.resize(cells, NO_LINK);
        let cell_of = |l: Option<LinkId>| l.map_or(NO_LINK, |l| l.0);
        let workers = workers.max(1);
        for (batch, nodes) in self.nodes.chunks(workers).enumerate() {
            let pairs = par_map(nodes, workers, |&node| {
                (
                    shortest_path_tree(graph, node, link_mask, node_mask),
                    reverse_shortest_path_tree(graph, node, link_mask, node_mask),
                )
            });
            // Node by node, the batch's adjacent columns together: one pass
            // over the table's rows a batch, not one a landmark.
            for v in graph.nodes() {
                let row = v.idx() * width + batch * workers;
                for (i, (fwd, rev)) in pairs.iter().enumerate() {
                    self.dist_from[row + i] = fwd.dist_ms(v);
                    self.parent_from[row + i] = cell_of(fwd.parent_link(v));
                    self.dist_to[row + i] = rev.dist_ms(v);
                    self.next_to[row + i] = cell_of(rev.next_link(v));
                }
            }
        }
        telemetry::gauge_set("hier.landmarks", width as f64);
        telemetry::gauge_set("hier.landmark_table_bytes", self.bytes() as f64);
    }

    /// Bytes of the four arrays: 24 per node and installed landmark.
    fn bytes(&self) -> usize {
        8 * (self.dist_to.len() + self.dist_from.len())
            + 4 * (self.next_to.len() + self.parent_from.len())
    }

    /// Row `v` of one of the four arrays.
    fn row<'a, T>(&self, cells: &'a [T], v: NodeId) -> &'a [T] {
        let width = self.nodes.len();
        &cells[v.idx() * width..(v.idx() + 1) * width]
    }

    /// `min_ℓ d(src, ℓ) + d(ℓ, dst)`: two rows, cell by cell.
    fn bound_ms(&self, src: NodeId, dst: NodeId) -> f64 {
        let (to, from) = (self.row(&self.dist_to, src), self.row(&self.dist_from, dst));
        to.iter().zip(from).map(|(a, b)| a + b).fold(f64::INFINITY, f64::min)
    }

    /// Stitches `src → nodes[j] → dst` into `walk`, de-looped, or leaves it
    /// empty when the landmark does not connect the pair. `first` is scratch
    /// for the nodes of the first half.
    ///
    /// The walk is written once: `next_to` cells from `src` up to the
    /// landmark, then `parent_from` cells from `dst` back to it, reversed in
    /// place. Both halves are tree paths and loopless, so a loop can only
    /// close where the second half steps on a node of what is left of the
    /// first: everything between the two visits goes, and the first half
    /// now ends there. One cut is taken out of the buffer at the end.
    fn stitch(
        &self,
        graph: &Graph,
        j: usize,
        src: NodeId,
        dst: NodeId,
        walk: &mut Vec<LinkId>,
        first: &mut Vec<(NodeId, usize)>,
    ) {
        walk.clear();
        first.clear();
        let width = self.nodes.len();
        if !self.dist_to[src.idx() * width + j].is_finite()
            || !self.dist_from[dst.idx() * width + j].is_finite()
        {
            return;
        }
        let landmark = self.nodes[j];
        let mut at = src;
        while at != landmark {
            // Link `i` of the first half starts at `first[i].0`.
            first.push((at, walk.len()));
            let l = LinkId(self.next_to[at.idx() * width + j]);
            walk.push(l);
            at = graph.link(l).dst;
        }
        let second = walk.len();
        at = dst;
        while at != landmark {
            let l = LinkId(self.parent_from[at.idx() * width + j]);
            walk.push(l);
            at = graph.link(l).src;
        }
        walk[second..].reverse();
        // Looked up by node, so a walk of a hundred hops (a grid, a ring
        // lattice) costs its length times a logarithm, not its square.
        first.sort_unstable();
        // Stepping on the start of first-half link `back` keeps links
        // `..back` of that half and what follows of the second.
        let (mut keep, mut resume) = (second, second);
        for i in second..walk.len() {
            let to = graph.link(walk[i]).dst;
            if let Ok(hit) = first.binary_search_by_key(&to, |&(node, _)| node) {
                let back = first[hit].1;
                if back < keep {
                    (keep, resume) = (back, i + 1);
                }
            }
        }
        walk.drain(keep..resume);
    }
}

impl<'g> PartitionedPathEngine<'g> {
    /// Builds hierarchy, per-leaf caches and landmark trees. Deterministic
    /// in `(graph, config)`.
    pub fn build(graph: &'g Graph, config: &EngineConfig) -> Self {
        let hierarchy = Hierarchy::build(graph, &config.hierarchy);
        let leaf_ids = hierarchy.leaves();
        let mut cache_of_leaf = vec![usize::MAX; hierarchy.clusters().len()];
        let mut caches = Vec::with_capacity(leaf_ids.len());
        for (i, &leaf) in leaf_ids.iter().enumerate() {
            cache_of_leaf[leaf] = i;
            caches.push(PathCache::scoped(graph, &hierarchy.cluster(leaf).members));
        }

        // Landmark budget: distributed over depth-1 groups proportionally
        // to size (floor 1 per group), landmarks chosen evenly spaced
        // through each group's sorted member list so they spread over the
        // delay space the farthest-point split already organized.
        let groups = hierarchy.groups();
        let n = graph.node_count() as f64;
        let budget = config.landmarks.max(1);
        let mut landmark_nodes: Vec<NodeId> = Vec::new();
        for &gid in &groups {
            let members = &hierarchy.cluster(gid).members;
            let share =
                (((members.len() as f64 / n) * budget as f64).round() as usize).clamp(1, budget);
            let share = share.min(members.len());
            for s in 0..share {
                let idx = s * members.len() / share + members.len() / (2 * share);
                let node = members[idx.min(members.len() - 1)];
                if !landmark_nodes.contains(&node) {
                    landmark_nodes.push(node);
                }
            }
        }
        let mut landmarks = LandmarkTable::default();
        landmarks.fill(graph, &landmark_nodes, None);

        PartitionedPathEngine {
            graph,
            hierarchy,
            leaf_ids,
            caches,
            cache_of_leaf,
            landmark_nodes,
            landmarks: RwLock::new(landmarks),
            mask: RwLock::new(None),
            stats: QueryStats::default(),
        }
    }

    /// The underlying hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Number of landmark nodes actually installed (under the active mask —
    /// downed landmarks are uninstalled until the mask clears).
    pub fn landmark_count(&self) -> usize {
        self.landmarks.read().nodes.len()
    }

    /// Cumulative query-mix counters.
    pub fn stats(&self) -> &QueryStats {
        &self.stats
    }

    /// Leaf arena ids served by per-leaf caches, dense-order.
    pub fn leaf_ids(&self) -> &[usize] {
        &self.leaf_ids
    }

    /// The landmark stitching upper bound for `(src, dst)`: the smallest
    /// `d(s,ℓ) + d(ℓ,d)` over installed landmarks, or `INFINITY` when no
    /// landmark connects the pair. The best path [`PathSource::paths`] returns
    /// for a cross-leaf pair never exceeds this (de-looping only shortens).
    pub fn landmark_bound_ms(&self, src: NodeId, dst: NodeId) -> f64 {
        self.landmarks.read().bound_ms(src, dst)
    }

    /// True when the pair shares a leaf (answered exactly by warm Yen).
    pub fn same_leaf(&self, src: NodeId, dst: NodeId) -> bool {
        self.hierarchy.same_leaf(src, dst)
    }

    /// Every candidate the engine holds for the pair when its leaf's Yen
    /// generator is run to `k` — best-first, duplicate-free — and whether
    /// the pair is cross-leaf, in which case the list does not depend on `k`
    /// and is complete. The one place behind [`PathSource::paths`] and
    /// [`PathSource::grow`], which differ only in where they cut it.
    fn ranked(&self, src: NodeId, dst: NodeId, k: usize) -> (Vec<Path>, bool) {
        assert!(src != dst, "paths between a node and itself");
        let cross_leaf = !self.hierarchy.same_leaf(src, dst);
        let mut candidates: Vec<Path> = if !cross_leaf {
            self.stats.intra.fetch_add(1, Ordering::Relaxed);
            telemetry::counter_add("hier.intra", 1);
            let leaf = self.hierarchy.leaf_of(src);
            self.caches[self.cache_of_leaf[leaf]].paths(src, dst, k)
        } else {
            self.stats.cross.fetch_add(1, Ordering::Relaxed);
            telemetry::counter_add("hier.cross", 1);
            Vec::new()
        };
        let table = self.landmarks.read();
        // One link buffer for all the stitches; a `Path` is built only for
        // a walk no earlier candidate already is.
        let (mut walk, mut first) = (Vec::new(), Vec::new());
        for j in 0..table.nodes.len() {
            table.stitch(self.graph, j, src, dst, &mut walk, &mut first);
            if !walk.is_empty() && candidates.iter().all(|p| p.links() != walk) {
                candidates.push(Path::new(self.graph, walk.clone()));
            }
        }

        if candidates.is_empty() {
            // Exact fallback: one targeted Dijkstra (masked, so reachability
            // matches the flat engine under the same failure). Keeps pairs
            // answerable even when every landmark sits on the wrong side of
            // a cut.
            self.stats.fallback.fetch_add(1, Ordering::Relaxed);
            telemetry::counter_add("hier.fallback", 1);
            let mask = self.mask.read().clone();
            let routing = mask.as_deref().filter(|m| m.affects_routing());
            let p = shortest_path(
                self.graph,
                src,
                dst,
                routing.and_then(FailureMask::link_mask),
                routing.and_then(FailureMask::node_mask),
            );
            if let Some(p) = p {
                candidates.push(p);
            }
        }

        // Rank by (delay, hop count); the link order makes it total.
        candidates.sort_by(|a, b| {
            a.delay_ms()
                .partial_cmp(&b.delay_ms())
                .expect("finite delays")
                .then_with(|| a.hop_count().cmp(&b.hop_count()))
                .then_with(|| a.links().cmp(b.links()))
        });
        // Bound tightness: how close the best stitched delay comes to the
        // landmark upper bound (1.0 = on the bound, lower = de-looping or a
        // better candidate beat it). Cross-leaf only — intra answers are
        // exact Yen and say nothing about stitching quality.
        if cross_leaf && telemetry::enabled() {
            if let Some(best) = candidates.first() {
                let bound = table.bound_ms(src, dst);
                if bound.is_finite() && bound > 0.0 {
                    telemetry::observe("hier.bound_tightness", best.delay_ms() / bound);
                }
            }
        }
        (candidates, cross_leaf)
    }
}

/// The partitioned backend of the pricing-oracle API: columns are priced by
/// leaf-scoped Yen plus landmark stitching, the pricing bound is the
/// landmark bound, and per-pair state is materialized only for intra-leaf
/// pairs actually priced in — never for the cross-leaf corpus.
impl PathSource for PartitionedPathEngine<'_> {
    fn graph(&self) -> &Graph {
        self.graph
    }

    /// Up to `k` loopless paths from `src` to `dst`, best-first.
    ///
    /// Intra-leaf pairs draw from the leaf's scoped Yen cache (the warm
    /// machinery) *merged with* landmark-stitched candidates — the merge
    /// matters both for quality (a pair may be better connected through a
    /// hub outside its leaf) and for correctness on overflow leaves, whose
    /// members can connect only via other leaves. Cross-leaf pairs are
    /// landmark-stitched only. Either way the best returned delay is
    /// within [`PartitionedPathEngine::landmark_bound_ms`], and when no
    /// candidate exists at all one exact Dijkstra answers — so a reachable
    /// pair never comes back empty.
    ///
    /// # Panics
    /// Panics when `src == dst` (mirrors the flat cache/Yen contract).
    fn paths(&self, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
        let (mut candidates, _) = self.ranked(src, dst, k);
        candidates.truncate(k);
        candidates
    }

    /// A cross-leaf pair is answered with its complete ranking, however
    /// long — one stitch per landmark produced all of it, and there is
    /// nothing else to enumerate — so the caller never has to ask for the
    /// pair again ([`PathSource::grow`], the third answer). An intra-leaf
    /// pair is answered to `want`: its leaf's Yen generator was only run
    /// that far, and the merged list is exact only that far.
    fn grow(&self, src: NodeId, dst: NodeId, want: usize) -> Vec<Path> {
        let (mut candidates, cross_leaf) = self.ranked(src, dst, want);
        if !cross_leaf {
            candidates.truncate(want);
        }
        candidates
    }

    /// The leaf-scoped shortest delay for same-leaf pairs, min-combined
    /// with the landmark bound (which also covers overflow leaves whose
    /// members connect only through other leaves). `INFINITY` means pricing
    /// cannot produce anything beyond the exact-Dijkstra reachability
    /// fallback — the column-generation loop skips such pairs.
    fn shortest_delay_bound(&self, src: NodeId, dst: NodeId) -> f64 {
        let mut bound = self.landmark_bound_ms(src, dst);
        if self.hierarchy.same_leaf(src, dst) {
            let leaf = self.hierarchy.leaf_of(src);
            if let Some(p) = self.caches[self.cache_of_leaf[leaf]].shortest(src, dst) {
                bound = bound.min(p.delay_ms());
            }
        }
        bound
    }

    fn failure_mask(&self) -> Option<Arc<FailureMask>> {
        self.mask.read().clone()
    }

    /// Puts the failure mask in force: every leaf cache repairs exactly like
    /// the flat cache (kept/repaired pair accounting sums across leaves),
    /// the landmark table is refilled under the mask (downed landmark nodes
    /// are uninstalled), and the reachability fallback runs masked. Concurrent
    /// queries must be quiescent, as for the flat cache.
    fn apply_failure(&self, mask: &FailureMask) -> RepairStats {
        let _span = telemetry::span("hier.repair", "cache");
        let active: Option<Arc<FailureMask>> = (!mask.is_empty()).then(|| Arc::new(mask.clone()));
        *self.mask.write() = active.clone();
        let mut stats = RepairStats::default();
        for cache in &self.caches {
            let s = cache.apply_failure(mask);
            stats.kept_pairs += s.kept_pairs;
            stats.repaired_pairs += s.repaired_pairs;
            stats.paths_regrown += s.paths_regrown;
            stats.paths_lost += s.paths_lost;
        }
        self.landmarks.write().fill(self.graph, &self.landmark_nodes, active.as_deref());
        stats
    }

    /// Total pairs materialized across all leaf caches: for cross-leaf
    /// traffic this stays zero no matter how many queries run.
    fn cached_pairs(&self) -> usize {
        self.caches.iter().map(|c| c.cached_pairs()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowlat_netgraph::{GraphBuilder, ReverseShortestPathTree, ShortestPathTree};
    use std::collections::HashMap;

    // ---- The trees the table replaced, kept as its reference ----

    /// One landmark as the engine held it before the table: a node plus its
    /// forward (from) and reverse (to) trees.
    struct Landmark {
        node: NodeId,
        fwd: ShortestPathTree,
        rev: ReverseShortestPathTree,
    }

    /// The tree pair of every landmark node `mask` leaves up.
    fn build_landmarks(
        graph: &Graph,
        nodes: &[NodeId],
        mask: Option<&FailureMask>,
    ) -> Vec<Landmark> {
        let routing = mask.filter(|m| m.affects_routing());
        let link_mask = routing.and_then(FailureMask::link_mask);
        let node_mask = routing.and_then(FailureMask::node_mask);
        nodes
            .iter()
            .filter(|&&node| !routing.is_some_and(|m| m.node_down(node)))
            .map(|&node| Landmark {
                node,
                fwd: shortest_path_tree(graph, node, link_mask, node_mask),
                rev: reverse_shortest_path_tree(graph, node, link_mask, node_mask),
            })
            .collect()
    }

    /// Removes splice loops from a concatenated link walk in one pass: the
    /// walk is replayed with a node → position map, and whenever a link
    /// returns to a node already on the walk, everything after that node's
    /// position is dropped (cutting the cycle). Knows nothing about where
    /// the two halves come from.
    fn splice_loopless(graph: &Graph, first: &[Path], second: &[Path]) -> Option<Path> {
        // Node at position 0 is the walk's start; the node at position i > 0
        // is the dst of walk[i-1].
        let mut walk: Vec<LinkId> = Vec::new();
        let mut pos: HashMap<NodeId, usize> = HashMap::new();
        let mut started = false;
        for p in first.iter().chain(second) {
            for &l in p.links() {
                if !started {
                    pos.insert(graph.link(l).src, 0);
                    started = true;
                }
                let dst = graph.link(l).dst;
                walk.push(l);
                if let Some(&back) = pos.get(&dst) {
                    // Returning to a node already on the walk: cut the cycle.
                    // `dst` itself keeps its entry (its stored position is
                    // exactly `back`); every node strictly after it goes.
                    for cut in walk.drain(back..) {
                        let d = graph.link(cut).dst;
                        if pos.get(&d).is_some_and(|&q| q > back) {
                            pos.remove(&d);
                        }
                    }
                } else {
                    pos.insert(dst, walk.len());
                }
            }
        }
        if walk.is_empty() {
            None
        } else {
            Some(Path::new(graph, walk))
        }
    }

    /// The per-landmark stitch as it read the trees: two path walks and a
    /// splice.
    fn stitch_through_trees(graph: &Graph, l: &Landmark, src: NodeId, dst: NodeId) -> Option<Path> {
        if !l.rev.reachable(src) || !l.fwd.reachable(dst) {
            None
        } else if l.node == src {
            l.fwd.path_to(graph, dst)
        } else if l.node == dst {
            l.rev.path_from(graph, src)
        } else {
            let to_l = l.rev.path_from(graph, src)?;
            let from_l = l.fwd.path_to(graph, dst)?;
            splice_loopless(graph, &[to_l], &[from_l])
        }
    }

    /// [`PartitionedPathEngine::ranked`] as it was computed from the trees.
    fn ranked_through_trees(
        eng: &PartitionedPathEngine,
        landmarks: &[Landmark],
        src: NodeId,
        dst: NodeId,
        k: usize,
    ) -> Vec<Path> {
        let g = eng.graph;
        let mut candidates = if eng.same_leaf(src, dst) {
            eng.caches[eng.cache_of_leaf[eng.hierarchy.leaf_of(src)]].paths(src, dst, k)
        } else {
            Vec::new()
        };
        candidates.extend(landmarks.iter().filter_map(|l| stitch_through_trees(g, l, src, dst)));
        if candidates.is_empty() {
            let mask = eng.failure_mask();
            let routing = mask.as_deref().filter(|m| m.affects_routing());
            let (links, nodes) = (
                routing.and_then(FailureMask::link_mask),
                routing.and_then(FailureMask::node_mask),
            );
            candidates.extend(shortest_path(g, src, dst, links, nodes));
        }
        candidates.sort_by(|a, b| {
            a.delay_ms()
                .total_cmp(&b.delay_ms())
                .then_with(|| a.hop_count().cmp(&b.hop_count()))
                .then_with(|| a.links().cmp(b.links()))
        });
        candidates.dedup_by(|a, b| a.links() == b.links());
        candidates
    }

    /// A small arbitrary graph: an optional ring, random duplex chords and
    /// random one-way links (connected or not).
    fn arbitrary_graph(
        n: usize,
        ring: bool,
        extras: &[(usize, usize, u32)],
        one_way: &[(usize, usize, u32)],
    ) -> Graph {
        let mut b = GraphBuilder::new(n);
        if ring {
            for i in 0..n {
                b.add_duplex(NodeId(i as u32), NodeId(((i + 1) % n) as u32), 1.0 + i as f64, 100.0);
            }
        }
        for &(x, y, d) in extras {
            if x % n != y % n {
                b.add_duplex(
                    NodeId((x % n) as u32),
                    NodeId((y % n) as u32),
                    d as f64 / 10.0,
                    100.0,
                );
            }
        }
        // One-way links make delays asymmetric: only then can the second
        // half of a stitch step on the part of the first a cut removed.
        for &(x, y, d) in one_way {
            if x % n != y % n {
                b.add_link(NodeId((x % n) as u32), NodeId((y % n) as u32), d as f64 / 10.0, 100.0);
            }
        }
        b.build()
    }

    /// An engine over `g` with the given leaf size and landmark budget, with
    /// failure case `failure` in force: 0 none, 1 a downed cable, 2 a downed
    /// landmark node, 3 a brown-out (`victim` picks the element).
    fn failed_engine(
        g: &Graph,
        (max_leaf, landmarks): (usize, usize),
        (failure, victim): (usize, usize),
    ) -> PartitionedPathEngine<'_> {
        let eng = PartitionedPathEngine::build(
            g,
            &EngineConfig {
                hierarchy: HierarchyConfig { max_depth: 2, max_leaf, branching: 2 },
                landmarks,
            },
        );
        let mut mask = FailureMask::new();
        let cable = LinkId((victim % g.link_count().max(1)) as u32);
        match failure {
            1 if g.link_count() > 0 => {
                mask.fail_cable(g, cable);
            }
            2 => {
                mask.fail_node(eng.landmark_nodes[victim % eng.landmark_nodes.len()]);
            }
            3 if g.link_count() > 0 => {
                mask.degrade_cable(g, cable, 0.5);
            }
            _ => {}
        }
        eng.apply_failure(&mask);
        eng
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The table against the trees it replaced, on arbitrary graphs
        /// (connected or not), engine shapes and failure masks: every cell,
        /// the landmark bound, and the ranking of every pair, path for path.
        #[test]
        fn the_table_answers_as_the_trees_did(
            n in 4usize..=12,
            ring in proptest::prelude::any::<bool>(),
            extras in proptest::collection::vec((0usize..12, 0usize..12, 1u32..1000), 1..14),
            one_way in proptest::collection::vec((0usize..12, 0usize..12, 1u32..1000), 0..10),
            shape in (3usize..=6, 1usize..=5),
            (failure, victim) in (0usize..4, 0usize..64),
            k in 1usize..=4,
        ) {
            use proptest::prelude::{prop_assert, prop_assert_eq};
            // Its small engines overwrite the gauges a traced test reads.
            let _quiet = crate::telemetry_lock();
            let g = arbitrary_graph(n, ring, &extras, &one_way);
            let eng = failed_engine(&g, shape, (failure, victim));
            let trees = build_landmarks(&g, &eng.landmark_nodes, eng.failure_mask().as_deref());
            prop_assert_eq!(eng.landmark_count(), trees.len());
            prop_assert_eq!(eng.landmark_count() < eng.landmark_nodes.len(), failure == 2);

            let table = eng.landmarks.read();
            prop_assert_eq!(table.bytes(), 24 * n * trees.len());
            for (j, l) in trees.iter().enumerate() {
                prop_assert_eq!(table.nodes[j], l.node);
                for v in g.nodes() {
                    let cell = v.idx() * trees.len() + j;
                    prop_assert_eq!(table.dist_to[cell].to_bits(), l.rev.dist_ms(v).to_bits());
                    prop_assert_eq!(table.dist_from[cell].to_bits(), l.fwd.dist_ms(v).to_bits());
                    prop_assert_eq!(table.next_to[cell], l.rev.next_link(v).map_or(NO_LINK, |l| l.0));
                    prop_assert_eq!(table.parent_from[cell], l.fwd.parent_link(v).map_or(NO_LINK, |l| l.0));
                }
            }
            drop(table);
            for s in g.nodes() {
                for d in g.nodes().filter(|&d| d != s) {
                    let bound = trees
                        .iter()
                        .map(|l| l.rev.dist_ms(s) + l.fwd.dist_ms(d))
                        .fold(f64::INFINITY, f64::min);
                    prop_assert_eq!(eng.landmark_bound_ms(s, d).to_bits(), bound.to_bits());
                    let want = ranked_through_trees(&eng, &trees, s, d, k);
                    let (got, cross_leaf) = eng.ranked(s, d, k);
                    prop_assert!(cross_leaf != eng.same_leaf(s, d));
                    prop_assert_eq!(&got, &want, "{:?} -> {:?}", s, d);
                }
            }
        }

        /// On the same cases, the table filled on one worker, on two, and on
        /// more workers than there are landmarks is the engine's table: the
        /// same landmarks and every cell of the four arrays by its bits.
        #[test]
        fn the_table_is_the_same_bits_at_any_worker_count(
            n in 4usize..=12,
            ring in proptest::prelude::any::<bool>(),
            extras in proptest::collection::vec((0usize..12, 0usize..12, 1u32..1000), 1..14),
            one_way in proptest::collection::vec((0usize..12, 0usize..12, 1u32..1000), 0..10),
            shape in (3usize..=6, 1usize..=5),
            (failure, victim) in (0usize..4, 0usize..64),
        ) {
            use proptest::prelude::prop_assert_eq;
            // Its small engines overwrite the gauges a traced test reads.
            let _quiet = crate::telemetry_lock();
            let g = arbitrary_graph(n, ring, &extras, &one_way);
            let eng = failed_engine(&g, shape, (failure, victim));
            let mask = eng.failure_mask();
            let held = eng.landmarks.read();
            let bits = |cells: &[f64]| cells.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
            for workers in [1, 2, eng.landmark_nodes.len() + 3] {
                let mut table = LandmarkTable::default();
                table.fill_on(&g, &eng.landmark_nodes, mask.as_deref(), workers);
                prop_assert_eq!(&table.nodes, &held.nodes, "{} workers", workers);
                prop_assert_eq!(bits(&table.dist_to), bits(&held.dist_to), "{} workers", workers);
                prop_assert_eq!(bits(&table.dist_from), bits(&held.dist_from), "{} workers", workers);
                prop_assert_eq!(&table.next_to, &held.next_to, "{} workers", workers);
                prop_assert_eq!(&table.parent_from, &held.parent_from, "{} workers", workers);
            }
        }
    }

    /// Two 8-node rings joined by a single bridge — forces cross-leaf
    /// stitching through the cut.
    fn two_rings() -> Graph {
        let mut b = GraphBuilder::new(16);
        for base in [0u32, 8] {
            for i in 0..8u32 {
                b.add_duplex(NodeId(base + i), NodeId(base + (i + 1) % 8), 1.0, 100.0);
            }
        }
        b.add_duplex(NodeId(0), NodeId(8), 10.0, 100.0);
        b.build()
    }

    fn small_engine(g: &Graph) -> PartitionedPathEngine<'_> {
        PartitionedPathEngine::build(
            g,
            &EngineConfig {
                hierarchy: HierarchyConfig { max_depth: 2, max_leaf: 8, branching: 2 },
                landmarks: 4,
            },
        )
    }

    #[test]
    fn intra_leaf_matches_flat_cache() {
        let g = two_rings();
        let eng = small_engine(&g);
        assert!(eng.same_leaf(NodeId(1), NodeId(3)));
        let flat = PathCache::new(&g);
        let a: Vec<f64> = eng.paths(NodeId(1), NodeId(3), 2).iter().map(|p| p.delay_ms()).collect();
        let b: Vec<f64> =
            flat.paths(NodeId(1), NodeId(3), 2).iter().map(|p| p.delay_ms()).collect();
        // Shortest must agree exactly; deeper paths may differ because the
        // scoped cache cannot detour through the other ring.
        assert_eq!(a[0], b[0]);
        let (intra, cross, _) = eng.stats().snapshot();
        assert_eq!((intra, cross), (1, 0));
    }

    #[test]
    fn cross_leaf_is_stitched_and_bounded() {
        let g = two_rings();
        let eng = small_engine(&g);
        assert!(!eng.same_leaf(NodeId(3), NodeId(12)));
        let ps = eng.paths(NodeId(3), NodeId(12), 3);
        assert!(!ps.is_empty(), "rings are connected through the bridge");
        let best = ps[0].delay_ms();
        let flat = shortest_path(&g, NodeId(3), NodeId(12), None, None).unwrap().delay_ms();
        let bound = eng.landmark_bound_ms(NodeId(3), NodeId(12));
        assert!(best >= flat - 1e-12, "cannot beat the true shortest");
        assert!(best <= bound + 1e-12, "stitching respects the landmark bound");
        for p in &ps {
            assert_eq!(p.src(), NodeId(3));
            assert_eq!(p.dst(), NodeId(12));
            p.validate(&g).expect("stitched paths are valid walks");
            let nodes = p.nodes(&g);
            let mut sorted: Vec<NodeId> = nodes.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), nodes.len(), "paths are loopless");
        }
    }

    #[test]
    fn cross_leaf_never_materializes_pair_state() {
        let g = two_rings();
        let eng = small_engine(&g);
        for s in 0..8u32 {
            for d in 8..16u32 {
                let _ = eng.paths(NodeId(s), NodeId(d), 2);
            }
        }
        assert_eq!(eng.cached_pairs(), 0, "cross queries must not touch leaf caches");
        let (_, cross, _) = eng.stats().snapshot();
        assert_eq!(cross, 64);
    }

    #[test]
    fn query_mix_counters_mirror_into_the_registry() {
        // The registry's hier.* counters are incremented at the same call
        // sites as the QueryStats atomics — the metrics snapshot and the
        // engine's own stats cannot disagree. Registry counters are
        // process-global (other tests may add concurrently while enabled),
        // so the deltas are asserted as lower bounds.
        let g = two_rings();
        let _traced = crate::telemetry_lock();
        let before = telemetry::snapshot();
        telemetry::set_enabled(true);
        let eng = small_engine(&g);
        let _ = eng.paths(NodeId(1), NodeId(3), 2); // intra-leaf
        let _ = eng.paths(NodeId(3), NodeId(12), 2); // cross-leaf
        telemetry::set_enabled(false);
        let after = telemetry::snapshot();
        // A traced build reports what the landmark table holds.
        assert!(after.gauges["hier.landmarks"] >= 1.0);
        assert!(after.gauges["hier.landmark_table_bytes"] >= 24.0 * 16.0);
        let (intra, cross, _) = eng.stats().snapshot();
        assert_eq!((intra, cross), (1, 1));
        assert!(after.counter("hier.intra") - before.counter("hier.intra") >= 1);
        assert!(after.counter("hier.cross") - before.counter("hier.cross") >= 1);
        // The cross query also grades stitching against the landmark bound.
        let tightness = after.histograms.get("hier.bound_tightness").expect("tightness recorded");
        assert!(tightness.count >= 1);
        assert!(tightness.max <= 1.0 + 1e-9, "best delay never exceeds the bound");
    }

    #[test]
    fn disconnected_pairs_return_empty() {
        // Its small engine overwrites the gauges a traced test reads.
        let _quiet = crate::telemetry_lock();
        let mut b = GraphBuilder::new(6);
        b.add_duplex(NodeId(0), NodeId(1), 1.0, 10.0);
        b.add_duplex(NodeId(1), NodeId(2), 1.0, 10.0);
        b.add_duplex(NodeId(3), NodeId(4), 1.0, 10.0);
        b.add_duplex(NodeId(4), NodeId(5), 1.0, 10.0);
        let g = b.build();
        let eng = PartitionedPathEngine::build(
            &g,
            &EngineConfig {
                hierarchy: HierarchyConfig { max_depth: 2, max_leaf: 3, branching: 2 },
                landmarks: 2,
            },
        );
        // Whether same-leaf or cross-leaf, a cut pair yields nothing.
        assert!(eng.paths(NodeId(0), NodeId(4), 3).is_empty());
        assert!(eng.shortest(NodeId(2), NodeId(3)).is_none());
        assert!(eng.paths(NodeId(0), NodeId(2), 3).len() == 1);
    }

    #[test]
    fn landmark_budget_caps_tree_count() {
        let g = two_rings();
        let eng = small_engine(&g);
        assert!(eng.landmark_count() >= 1);
        assert!(eng.landmark_count() <= 4 + eng.hierarchy().groups().len());
    }

    #[test]
    fn splice_deloops_overlapping_halves() {
        // s -> a -> l and l -> a -> d share node a: the splice must cut the
        // a..a cycle and still deliver a valid s -> d path.
        let mut b = GraphBuilder::new(4);
        b.add_duplex(NodeId(0), NodeId(1), 1.0, 10.0); // s-a
        b.add_duplex(NodeId(1), NodeId(2), 1.0, 10.0); // a-l
        b.add_duplex(NodeId(1), NodeId(3), 1.0, 10.0); // a-d
        let g = b.build();
        let s_to_l = Path::new(
            &g,
            vec![
                g.find_link(NodeId(0), NodeId(1)).unwrap(),
                g.find_link(NodeId(1), NodeId(2)).unwrap(),
            ],
        );
        let l_to_d = Path::new(
            &g,
            vec![
                g.find_link(NodeId(2), NodeId(1)).unwrap(),
                g.find_link(NodeId(1), NodeId(3)).unwrap(),
            ],
        );
        let spliced = splice_loopless(&g, &[s_to_l], &[l_to_d]).unwrap();
        assert_eq!(spliced.src(), NodeId(0));
        assert_eq!(spliced.dst(), NodeId(3));
        assert_eq!(spliced.hop_count(), 2, "the a->l->a cycle is removed");
        spliced.validate(&g).unwrap();
    }

    #[test]
    fn splice_deloops_nested_and_start_crossing_loops() {
        // Regression for the single-pass de-looper: walks whose halves
        // overlap over several hops (nested cycles) and walks whose cycle
        // passes back through the start node.
        let mut b = GraphBuilder::new(5);
        b.add_duplex(NodeId(0), NodeId(1), 1.0, 10.0); // s-a
        b.add_duplex(NodeId(1), NodeId(2), 1.0, 10.0); // a-b
        b.add_duplex(NodeId(2), NodeId(3), 1.0, 10.0); // b-l
        b.add_duplex(NodeId(1), NodeId(4), 1.0, 10.0); // a-d
        b.add_duplex(NodeId(0), NodeId(4), 1.0, 10.0); // s-d
        let g = b.build();
        let link = |s: u32, d: u32| g.find_link(NodeId(s), NodeId(d)).unwrap();

        // s→a→b→l spliced with l→b→a→d backtracks two hops: the whole
        // a→b→l→b→a excursion must collapse, leaving s→a→d.
        let first = Path::new(&g, vec![link(0, 1), link(1, 2), link(2, 3)]);
        let second = Path::new(&g, vec![link(3, 2), link(2, 1), link(1, 4)]);
        let spliced = splice_loopless(&g, &[first], &[second]).unwrap();
        spliced.validate(&g).unwrap();
        assert_eq!(spliced.links(), &[link(0, 1), link(1, 4)], "nested cycle fully removed");

        // s→a spliced with a→s→d loops through the start node: the s…s
        // cycle goes, leaving the single link s→d.
        let first = Path::new(&g, vec![link(0, 1)]);
        let second = Path::new(&g, vec![link(1, 0), link(0, 4)]);
        let spliced = splice_loopless(&g, &[first], &[second]).unwrap();
        spliced.validate(&g).unwrap();
        assert_eq!(spliced.links(), &[link(0, 4)], "cycle through the walk start removed");

        // A walk that cancels completely (s→a then a→s) yields nothing.
        let first = Path::new(&g, vec![link(0, 1)]);
        let second = Path::new(&g, vec![link(1, 0)]);
        assert!(splice_loopless(&g, &[first], &[second]).is_none());
    }

    #[test]
    fn failure_masks_apply_across_leaves_and_landmarks() {
        let g = two_rings();
        let eng = small_engine(&g);
        // Warm an intra-leaf pair, then fail the bridge: cross-leaf pairs
        // disconnect, intra-leaf answers survive.
        assert_eq!(eng.paths(NodeId(1), NodeId(3), 2).len(), 2);
        assert!(eng.shortest(NodeId(3), NodeId(12)).is_some());
        let bridge = g.find_link(NodeId(0), NodeId(8)).unwrap();
        let mut mask = FailureMask::new();
        mask.fail_cable(&g, bridge);
        eng.apply_failure(&mask);
        assert!(eng.failure_mask().is_some());
        assert!(
            eng.paths(NodeId(3), NodeId(12), 3).is_empty(),
            "bridge down disconnects the rings — stitching and fallback both masked"
        );
        assert!(eng.shortest_delay_bound(NodeId(3), NodeId(12)).is_infinite());
        assert!(eng.shortest(NodeId(1), NodeId(3)).is_some(), "intra-leaf unaffected");
        // Effective capacities expose the downed cable.
        assert_eq!(eng.effective_capacities()[bridge.idx()], 0.0);
        // Clearing restores the stitched route and the raw capacity view.
        eng.clear_failure();
        assert!(eng.failure_mask().is_none());
        assert!(eng.shortest(NodeId(3), NodeId(12)).is_some());
        assert!(eng.effective_capacities()[bridge.idx()] > 0.0);
        // Masked results match an engine built fresh on the masked view.
        eng.apply_failure(&mask);
        let fresh = small_engine(&g);
        fresh.apply_failure(&mask);
        for (s, d) in [(1u32, 3u32), (9, 14), (3, 12)] {
            let a: Vec<f64> =
                eng.paths(NodeId(s), NodeId(d), 3).iter().map(|p| p.delay_ms()).collect();
            let b: Vec<f64> =
                fresh.paths(NodeId(s), NodeId(d), 3).iter().map(|p| p.delay_ms()).collect();
            assert_eq!(a, b, "pair {s}->{d} under failure");
        }
    }

    #[test]
    fn deterministic_across_builds() {
        let g = two_rings();
        let a = small_engine(&g);
        let b = small_engine(&g);
        for s in [1u32, 5, 11] {
            for d in [3u32, 9, 14] {
                if s == d {
                    continue;
                }
                let pa: Vec<Vec<_>> =
                    a.paths(NodeId(s), NodeId(d), 3).iter().map(|p| p.links().to_vec()).collect();
                let pb: Vec<Vec<_>> =
                    b.paths(NodeId(s), NodeId(d), 3).iter().map(|p| p.links().to_vec()).collect();
                assert_eq!(pa, pb, "{s}->{d}");
            }
        }
    }
}
