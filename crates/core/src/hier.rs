//! Hierarchical partitioned path engine for Internet-scale graphs.
//!
//! The flat [`PathCache`](crate::pathset::PathCache) materializes one Yen
//! generator per requested pair over the whole graph — perfect for the
//! paper's PoP backbones (tens of nodes), hopeless at CAIDA scale (78k
//! nodes): a single cross-graph Yen spur re-runs Dijkstra over everything,
//! and caching all-pairs state is quadratic. [`PartitionedPathEngine`]
//! splits the work along a delay-weighted
//! [`Hierarchy`](lowlat_netgraph::hierarchy::Hierarchy):
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
//!   path set is never materialized.
//!
//! Landmark stitching is approximate (stretch ≥ 1 versus flat Yen) but
//! *bounded*: the best stitched delay never exceeds `min_ℓ (d(s,ℓ) +
//! d(ℓ,d))`, which [`PartitionedPathEngine::landmark_bound_ms`] exposes and
//! the property tests pin. When no landmark connects a pair (sparse cuts,
//! overflow clusters), a single targeted Dijkstra answers exactly — so
//! reachability always matches the flat engine.
//!
//! The engine implements [`PathSource`](crate::source::PathSource), so the
//! whole LP/scheme stack places through it: `pathgrow`'s column-generation
//! loop prices candidate columns with [`PartitionedPathEngine::paths`] and
//! prunes hopeless pairs with the landmark bound — placement at Internet
//! scale without ever materializing the flat path corpus. Failure masks
//! apply here too ([`PartitionedPathEngine::apply_failure`]): leaf caches
//! repair exactly like the flat cache, and landmark trees are rebuilt under
//! the mask, so recovery re-placement runs on priced-on-demand columns.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use lowlat_netgraph::{
    reverse_shortest_path_tree, shortest_path, shortest_path_tree, FailureMask, Graph, Hierarchy,
    HierarchyConfig, NodeId, Path, ReverseShortestPathTree, ShortestPathTree,
};
use lowlat_telemetry as telemetry;

use crate::pathset::{PathCache, RepairStats};
use crate::source::PathSource;

/// Knobs for [`PartitionedPathEngine::build`].
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Hierarchy shape.
    pub hierarchy: HierarchyConfig,
    /// Global landmark budget, distributed over depth-1 groups by size
    /// (every group gets at least one). Memory is two `O(V)` trees per
    /// landmark, so the budget — not the node count — caps tree storage.
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

/// One landmark: a node plus its forward (from) and reverse (to) trees.
struct Landmark {
    node: NodeId,
    /// Shortest paths landmark → everywhere.
    fwd: ShortestPathTree,
    /// Shortest paths everywhere → landmark.
    rev: ReverseShortestPathTree,
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
    /// can rebuild the trees under a mask without re-deriving the pick.
    landmark_nodes: Vec<NodeId>,
    /// Landmark trees under the active mask. A read-write lock for the same
    /// reason as the cache's mask: per-query reads never contend, writes
    /// happen only at (documented-quiescent) failure transitions.
    landmarks: RwLock<Vec<Landmark>>,
    /// The failure mask in force; `None` means the intact topology.
    mask: RwLock<Option<Arc<FailureMask>>>,
    stats: QueryStats,
}

/// FNV-1a over node ids for the splice position map. The splice runs once
/// per landmark per cross-leaf query on walks of tens of hops, where the
/// std `HashMap`'s default SipHash costs more than the rest of the splice
/// combined.
struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

type FnvMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<FnvHasher>>;

/// Removes splice loops from a concatenated link walk in one pass: the walk
/// is replayed with a node → position map, and whenever a link returns to a
/// node already on the walk, everything after that node's position is
/// dropped (cutting the cycle). Amortized O(len) — each link is pushed and
/// drained at most once.
fn splice_loopless(graph: &Graph, first: &[Path], second: &[Path]) -> Option<Path> {
    // Node at position 0 is the walk's start; the node at position i > 0 is
    // the dst of walk[i-1]. Both containers are pre-sized to the full
    // concatenation so a splice never rehashes or reallocates mid-walk.
    let hops = first.iter().chain(second).map(|p| p.links().len()).sum::<usize>();
    let mut walk: Vec<lowlat_netgraph::LinkId> = Vec::with_capacity(hops);
    let mut pos: FnvMap<NodeId, usize> =
        FnvMap::with_capacity_and_hasher(hops + 1, Default::default());
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

/// Builds the forward/reverse tree pair of every landmark node under
/// `mask`. Landmark nodes the mask downs are skipped — their trees would be
/// empty — so a failed landmark degrades coverage instead of poisoning it.
fn build_landmarks(graph: &Graph, nodes: &[NodeId], mask: Option<&FailureMask>) -> Vec<Landmark> {
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
        let landmarks = build_landmarks(graph, &landmark_nodes, None);

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
        self.landmarks.read().len()
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
        self.landmarks
            .read()
            .iter()
            .map(|l| l.rev.dist_ms(src) + l.fwd.dist_ms(dst))
            .fold(f64::INFINITY, f64::min)
    }

    /// True when the pair shares a leaf (answered exactly by warm Yen).
    pub fn same_leaf(&self, src: NodeId, dst: NodeId) -> bool {
        self.hierarchy.same_leaf(src, dst)
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
        let landmarks = self.landmarks.read();
        for l in landmarks.iter() {
            if !l.rev.reachable(src) || !l.fwd.reachable(dst) {
                continue;
            }
            let spliced = if l.node == src {
                l.fwd.path_to(self.graph, dst)
            } else if l.node == dst {
                l.rev.path_from(self.graph, src)
            } else {
                let to_l = l.rev.path_from(self.graph, src);
                let from_l = l.fwd.path_to(self.graph, dst);
                match (to_l, from_l) {
                    (Some(a), Some(b)) => {
                        splice_loopless(self.graph, std::slice::from_ref(&a), &[b])
                    }
                    _ => None,
                }
            };
            if let Some(p) = spliced {
                debug_assert_eq!(p.src(), src);
                debug_assert_eq!(p.dst(), dst);
                candidates.push(p);
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

        // Rank by (delay, hop count), drop duplicate link sequences.
        candidates.sort_by(|a, b| {
            a.delay_ms()
                .partial_cmp(&b.delay_ms())
                .expect("finite delays")
                .then_with(|| a.hop_count().cmp(&b.hop_count()))
                .then_with(|| a.links().cmp(b.links()))
        });
        candidates.dedup_by(|a, b| a.links() == b.links());
        candidates.truncate(k);
        // Bound tightness: how close the best stitched delay comes to the
        // landmark upper bound (1.0 = on the bound, lower = de-looping or a
        // better candidate beat it). Cross-leaf only — intra answers are
        // exact Yen and say nothing about stitching quality.
        if cross_leaf && telemetry::enabled() {
            if let Some(best) = candidates.first() {
                let bound = self.landmark_bound_ms(src, dst);
                if bound.is_finite() && bound > 0.0 {
                    telemetry::observe("hier.bound_tightness", best.delay_ms() / bound);
                }
            }
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
    /// landmark trees are rebuilt under the mask (downed landmark nodes are
    /// uninstalled), and the reachability fallback runs masked. Concurrent
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
        *self.landmarks.write() =
            build_landmarks(self.graph, &self.landmark_nodes, active.as_deref());
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
    use lowlat_netgraph::GraphBuilder;

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
        let eng = small_engine(&g);
        let before = telemetry::snapshot();
        telemetry::set_enabled(true);
        let _ = eng.paths(NodeId(1), NodeId(3), 2); // intra-leaf
        let _ = eng.paths(NodeId(3), NodeId(12), 2); // cross-leaf
        telemetry::set_enabled(false);
        let after = telemetry::snapshot();
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
