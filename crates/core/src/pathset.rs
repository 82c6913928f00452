//! Cached, lazily grown k-shortest-path sets.
//!
//! The paper observes (§5) that in the iterative LP loop "the bottleneck is
//! not the linear optimizer, but the k shortest paths algorithm, the results
//! of which can be readily cached". [`PathCache`] is that cache: one
//! incremental Yen generator per (src, dst) pair, grown on demand and shared
//! across LP iterations — and across *schemes* and *traffic matrices*, which
//! is what makes the warm LDR runs in Figure 15 fast and lets the experiment
//! engine hand one cache per network to every worker thread.
//!
//! The interior is lock-striped: pairs hash onto `SHARD_COUNT` (64)
//! independent mutexes, so concurrent placements of different aggregates on
//! the same graph contend only when they land on the same shard, not on
//! every lookup.
//!
//! ## Failure-aware repair
//!
//! When links or nodes fail, the cache does not start over:
//! [`PathCache::apply_failure`] walks the cached generators, *keeps* every
//! pair whose materialized paths avoid the failed elements, and rebuilds
//! only the crossing pairs under the mask (regrown to the path count they
//! had, so schemes see equally-deep path sets after repair). All subsequent
//! growth — of repaired pairs and of pairs first requested after the
//! failure — runs masked, so a failed topology behaves like a view of the
//! intact graph. [`PathCache::clear_failure`] reverses the process. On real
//! backbones a single link failure touches a small fraction of pairs, which
//! is why repair beats a full rebuild (the `failure-replace` workload's
//! `core.pathset.repair_ms_p50` / `kept_share` measure it).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use lowlat_netgraph::{BitSet, FailureMask, Graph, KspGenerator, NodeId, Path};
use lowlat_telemetry as telemetry;

use crate::source::PathSource;

/// Number of independent lock shards. A power of two well above the worker
/// counts we run with; per-shard memory is one empty `HashMap`, so
/// over-provisioning is free.
const SHARD_COUNT: usize = 64;

/// One cached generator plus whether it was constructed under the cache's
/// active failure mask (pure generators survive failures that miss their
/// paths; masked ones are rebuilt whenever the mask changes).
struct CachedGen<'g> {
    gen: KspGenerator<'g>,
    masked: bool,
}

type Shard<'g> = Mutex<HashMap<(NodeId, NodeId), CachedGen<'g>>>;

/// What [`PathCache::apply_failure`] did — the cache-repair telemetry the
/// failure sweep and the `failure-replace` workload
/// (`core.pathset.repair_ms_p50` / `kept_share`) report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Cached pairs whose materialized paths all avoid the failed elements:
    /// their generators (and all Yen state) survive untouched.
    pub kept_pairs: usize,
    /// Pairs invalidated (a path crossed a failed element, an endpoint went
    /// down, or the generator was built under a previous mask) and regrown
    /// under the new mask.
    pub repaired_pairs: usize,
    /// Paths re-materialized while regrowing repaired pairs.
    pub paths_regrown: usize,
    /// Paths that could not be regrown (the masked graph has fewer paths —
    /// possibly none, when a pair is disconnected).
    pub paths_lost: usize,
}

impl RepairStats {
    /// Total cached pairs examined.
    pub fn pairs(&self) -> usize {
        self.kept_pairs + self.repaired_pairs
    }

    /// Mirrors the stats into the telemetry registry (`cache.repair.*`) —
    /// the single code path both the failure sweep's TSV and a metrics
    /// snapshot report repair work from.
    pub fn record(&self) {
        if !telemetry::enabled() {
            return;
        }
        telemetry::counter_add("cache.repair.kept_pairs", self.kept_pairs as u64);
        telemetry::counter_add("cache.repair.repaired_pairs", self.repaired_pairs as u64);
        telemetry::counter_add("cache.repair.paths_regrown", self.paths_regrown as u64);
        telemetry::counter_add("cache.repair.paths_lost", self.paths_lost as u64);
    }
}

/// Thread-safe cache of k-shortest paths per ordered pair, lock-striped
/// across `SHARD_COUNT` (64) shards, with failure-aware repair.
pub struct PathCache<'g> {
    graph: &'g Graph,
    shards: Vec<Shard<'g>>,
    /// The failure mask in force; `None` means the intact topology. A
    /// read-write lock so the per-lookup read never contends in the
    /// (overwhelmingly common) failure-free hot path; writes happen only
    /// at failure transitions, which are documented quiescent (see
    /// [`PathCache::apply_failure`]).
    mask: RwLock<Option<Arc<FailureMask>>>,
    /// Node-scope restriction: the *complement* of the member set, merged
    /// into every generator's avoided nodes so Dijkstra/Yen frontiers never
    /// leave the scope. `None` for whole-graph caches. This is what lets
    /// the hierarchical path engine run one small cache per partition of an
    /// Internet-scale graph.
    scope_avoid: Option<BitSet>,
}

impl<'g> PathCache<'g> {
    /// Creates an empty cache over `graph`.
    pub fn new(graph: &'g Graph) -> Self {
        PathCache {
            graph,
            shards: (0..SHARD_COUNT).map(|_| Mutex::new(HashMap::new())).collect(),
            mask: RwLock::new(None),
            scope_avoid: None,
        }
    }

    /// Creates a cache restricted to the `members` node set: every query is
    /// answered as if nodes outside the scope did not exist, so enumeration
    /// cost scales with the partition, not the graph. Queries with an
    /// endpoint outside the scope return no paths. Failure masks compose
    /// with the scope (both restrictions apply).
    pub fn scoped(graph: &'g Graph, members: &[NodeId]) -> Self {
        let mut avoid = BitSet::new(graph.node_count());
        for v in 0..graph.node_count() {
            avoid.insert(v);
        }
        for &m in members {
            avoid.remove(m.idx());
        }
        PathCache {
            graph,
            shards: (0..SHARD_COUNT).map(|_| Mutex::new(HashMap::new())).collect(),
            mask: RwLock::new(None),
            scope_avoid: (!avoid.is_empty()).then_some(avoid),
        }
    }

    /// The shard holding `(src, dst)`. Fibonacci-style mixing spreads the
    /// small consecutive node ids real topologies use across all shards.
    fn shard(&self, src: NodeId, dst: NodeId) -> &Shard<'g> {
        let h = (src.idx() as u64)
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(dst.idx() as u64)
            .wrapping_mul(0x85EB_CA6B);
        &self.shards[(h >> 16) as usize % SHARD_COUNT]
    }

    /// A fresh generator for `(src, dst)` under the given mask. A mask that
    /// does not affect routing (degradation only) yields a pure generator —
    /// enumeration is identical, and the pure flag spares it from rebuilds
    /// on later mask transitions. The node scope (if any) is merged into
    /// the avoided nodes either way; `masked` tracks only the *failure*
    /// mask, so scoped-but-intact generators still survive repair.
    fn make_gen(&self, src: NodeId, dst: NodeId, mask: Option<&FailureMask>) -> CachedGen<'g> {
        match mask.filter(|m| m.affects_routing()) {
            Some(m) => {
                let avoid_nodes = match (&self.scope_avoid, m.node_mask()) {
                    (Some(scope), Some(down)) => {
                        let mut merged = scope.clone();
                        for v in down.iter() {
                            merged.insert(v);
                        }
                        Some(merged)
                    }
                    (Some(scope), None) => Some(scope.clone()),
                    (None, down) => down.cloned(),
                };
                CachedGen {
                    gen: KspGenerator::with_avoided(
                        self.graph,
                        src,
                        dst,
                        m.link_mask().cloned(),
                        avoid_nodes,
                    ),
                    masked: true,
                }
            }
            None => CachedGen {
                gen: KspGenerator::with_avoided(
                    self.graph,
                    src,
                    dst,
                    None,
                    self.scope_avoid.clone(),
                ),
                masked: false,
            },
        }
    }

    /// Number of paths currently materialized for the pair (0 when the pair
    /// was never requested).
    pub fn cached_count(&self, src: NodeId, dst: NodeId) -> usize {
        self.shard(src, dst).lock().get(&(src, dst)).map_or(0, |cg| cg.gen.produced().len())
    }
}

/// Grows `gen` to `k` paths (fewer when it runs out) and adds the paths it
/// produced to `cache.yen_expansions` and the spur searches it ran — those
/// of an expansion that found nothing included — to `cache.yen_spurs`.
fn grow_counted<'a>(gen: &'a mut KspGenerator<'_>, k: usize) -> &'a [Path] {
    let (paths, spurs) = (gen.produced().len(), gen.spur_searches());
    let expanded = gen.take_up_to(k).len() - paths;
    if expanded > 0 {
        telemetry::counter_add("cache.yen_expansions", expanded as u64);
    }
    let spurs = gen.spur_searches() - spurs;
    if spurs > 0 {
        telemetry::counter_add("cache.yen_spurs", spurs);
    }
    gen.produced()
}

/// The flat backend of the pricing-oracle API: fully materialized incremental
/// Yen generators, one per requested pair.
impl PathSource for PathCache<'_> {
    fn graph(&self) -> &Graph {
        self.graph
    }

    /// Returns the `k` shortest loopless paths from `src` to `dst` (fewer if
    /// the masked graph has fewer — possibly zero under a disconnecting
    /// failure), cloned out of the cache.
    ///
    /// The result depends only on the graph, the active failure mask, and
    /// `k`, never on what other pairs or smaller `k` values were requested
    /// before — the generator produces paths in a deterministic order and
    /// this returns its prefix. The experiment engine's
    /// worker-count-independent output rests on this.
    fn paths(&self, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
        let mask = self.mask.read().clone();
        let shard = self.shard(src, dst);
        // With telemetry on, probe the shard lock first so contended
        // acquisitions are visible (`cache.shard_contention`); otherwise take
        // the lock directly — the uncontended fast path is unchanged.
        let mut map = if telemetry::enabled() {
            telemetry::counter_add("cache.lookups", 1);
            match shard.try_lock() {
                Some(guard) => guard,
                None => {
                    telemetry::counter_add("cache.shard_contention", 1);
                    shard.lock()
                }
            }
        } else {
            shard.lock()
        };
        let entry =
            map.entry((src, dst)).or_insert_with(|| self.make_gen(src, dst, mask.as_deref()));
        // A pure (unmasked) generator that survived `apply_failure` holds a
        // verified-clean prefix, but growing it would enumerate unmasked
        // paths: rebuild it masked on the first post-failure growth. (The
        // clean prefix *is* the masked prefix, so results are unchanged.
        // Degradation-only masks change no paths and skip the rebuild.)
        if k > entry.gen.produced().len()
            && mask.as_deref().is_some_and(FailureMask::affects_routing)
            && !entry.masked
        {
            *entry = self.make_gen(src, dst, mask.as_deref());
        }
        let produced = grow_counted(&mut entry.gen, k);
        produced[..produced.len().min(k)].to_vec()
    }

    /// Exact for the flat cache: the shortest-path delay (all further columns
    /// are at least this expensive), `INFINITY` when disconnected.
    fn shortest_delay_bound(&self, src: NodeId, dst: NodeId) -> f64 {
        self.shortest(src, dst).map_or(f64::INFINITY, |p| p.delay_ms())
    }

    fn failure_mask(&self) -> Option<Arc<FailureMask>> {
        self.mask.read().clone()
    }

    /// Puts the failure mask in force and repairs the cache: pairs whose
    /// materialized paths avoid every failed element keep their generators
    /// (and Yen state); crossing pairs are rebuilt under the mask and
    /// regrown to the path count they had. An empty mask
    /// ([`clear_failure`](PathSource::clear_failure)) rebuilds masked
    /// generators pure; untouched pure ones survive.
    ///
    /// Concurrent [`paths`](PathSource::paths) lookups from *other* threads
    /// must be quiescent while the mask changes — the experiment drivers
    /// apply failures between placement phases, never during one.
    fn apply_failure(&self, mask: &FailureMask) -> RepairStats {
        let _span = telemetry::span("cache.repair", "cache");
        let active: Option<Arc<FailureMask>> = (!mask.is_empty()).then(|| Arc::new(mask.clone()));
        *self.mask.write() = active.clone();
        let mut stats = RepairStats::default();
        for shard in &self.shards {
            let mut map = shard.lock();
            for (&(src, dst), cg) in map.iter_mut() {
                let endpoint_down = mask.node_down(src) || mask.node_down(dst);
                let dirty = cg.masked
                    || endpoint_down
                    || cg.gen.produced().iter().any(|p| mask.hits_path(self.graph, p));
                if !dirty {
                    stats.kept_pairs += 1;
                    continue;
                }
                let want = cg.gen.produced().len();
                let mut fresh = self.make_gen(src, dst, active.as_deref());
                let got = grow_counted(&mut fresh.gen, want).len();
                *cg = fresh;
                stats.repaired_pairs += 1;
                stats.paths_regrown += got;
                stats.paths_lost += want - got;
            }
        }
        stats.record();
        stats
    }

    fn cached_pairs(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowlat_netgraph::GraphBuilder;

    fn square() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_duplex(NodeId(0), NodeId(1), 1.0, 10.0);
        b.add_duplex(NodeId(1), NodeId(2), 1.0, 10.0);
        b.add_duplex(NodeId(0), NodeId(3), 1.5, 10.0);
        b.add_duplex(NodeId(3), NodeId(2), 1.5, 10.0);
        b.build()
    }

    #[test]
    fn grows_incrementally_and_caches() {
        let g = square();
        let cache = PathCache::new(&g);
        assert_eq!(cache.cached_count(NodeId(0), NodeId(2)), 0);
        let one = cache.paths(NodeId(0), NodeId(2), 1);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].delay_ms(), 2.0);
        assert_eq!(cache.cached_count(NodeId(0), NodeId(2)), 1);
        let two = cache.paths(NodeId(0), NodeId(2), 2);
        assert_eq!(two.len(), 2);
        assert_eq!(two[1].delay_ms(), 3.0);
        // Re-asking for fewer returns the cached prefix.
        assert_eq!(cache.paths(NodeId(0), NodeId(2), 1).len(), 1);
    }

    #[test]
    fn exhaustion_caps_path_count() {
        let g = square();
        let cache = PathCache::new(&g);
        let all = cache.paths(NodeId(0), NodeId(2), 100);
        // Square has exactly 2 loopless 0->2 paths.
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn shortest_convenience() {
        let g = square();
        let cache = PathCache::new(&g);
        assert_eq!(cache.shortest(NodeId(0), NodeId(2)).unwrap().delay_ms(), 2.0);
    }

    #[test]
    fn pairs_land_on_their_own_shards_without_interference() {
        // Every ordered pair of the square keeps its own generator: growing
        // one pair never perturbs what another pair returns, whichever
        // shard they share.
        let g = square();
        let cache = PathCache::new(&g);
        let mut pairs = Vec::new();
        for s in 0..4u32 {
            for d in 0..4u32 {
                if s != d {
                    pairs.push((NodeId(s), NodeId(d)));
                }
            }
        }
        let expected: Vec<Vec<f64>> = pairs
            .iter()
            .map(|&(s, d)| PathCache::new(&g).paths(s, d, 3).iter().map(|p| p.delay_ms()).collect())
            .collect();
        // Interleave growth across all pairs, then re-read.
        for k in 1..=3 {
            for &(s, d) in &pairs {
                let _ = cache.paths(s, d, k);
            }
        }
        for (&(s, d), want) in pairs.iter().zip(&expected) {
            let got: Vec<f64> = cache.paths(s, d, 3).iter().map(|p| p.delay_ms()).collect();
            assert_eq!(&got, want, "pair {s:?}->{d:?}");
        }
        assert_eq!(cache.cached_pairs(), pairs.len());
    }

    #[test]
    fn concurrent_lookups_agree_with_sequential() {
        let g = square();
        let cache = PathCache::new(&g);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        for s in 0..4u32 {
                            for d in 0..4u32 {
                                if s != d {
                                    let ps = cache.paths(NodeId(s), NodeId(d), 2);
                                    assert!(!ps.is_empty());
                                }
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(cache.paths(NodeId(0), NodeId(2), 2).len(), 2);
    }

    /// The failure mask downing the 0-1 cable of the square.
    fn mask_01(g: &Graph) -> FailureMask {
        let l01 = g.find_link(NodeId(0), NodeId(1)).unwrap();
        let mut mask = FailureMask::new();
        mask.fail_cable(g, l01);
        mask
    }

    #[test]
    fn repair_keeps_clean_pairs_and_regrows_crossing_ones() {
        let g = square();
        let cache = PathCache::new(&g);
        // Materialize: 0->2 (2 paths, one crossing 0-1), 3->2 (clean).
        cache.paths(NodeId(0), NodeId(2), 2);
        cache.paths(NodeId(3), NodeId(2), 1);
        let stats = cache.apply_failure(&mask_01(&g));
        assert_eq!(stats.repaired_pairs, 1, "only 0->2 crossed the failure");
        assert_eq!(stats.kept_pairs, 1);
        assert_eq!(stats.pairs(), 2);
        // The repaired pair was regrown under the mask: the masked square
        // has exactly one 0->2 path (via 3).
        assert_eq!(stats.paths_regrown, 1);
        assert_eq!(stats.paths_lost, 1);
        let got = cache.paths(NodeId(0), NodeId(2), 2);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].delay_ms(), 3.0);
    }

    #[test]
    fn repair_stats_mirror_into_the_registry() {
        // RepairStats::record runs inside apply_failure: the registry's
        // cache.repair.* counters and the returned stats come from one code
        // path. Counters are process-global and other tests may add to them
        // concurrently while telemetry is enabled — never subtract — so the
        // deltas are asserted as lower bounds.
        let g = square();
        let cache = PathCache::new(&g);
        cache.paths(NodeId(0), NodeId(2), 2);
        cache.paths(NodeId(3), NodeId(2), 1);
        let _traced = crate::telemetry_lock();
        let before = telemetry::snapshot();
        telemetry::set_enabled(true);
        let stats = cache.apply_failure(&mask_01(&g));
        telemetry::set_enabled(false);
        let after = telemetry::snapshot();
        let delta = |name: &str| after.counter(name) - before.counter(name);
        assert_eq!(stats.kept_pairs, 1);
        assert_eq!(stats.repaired_pairs, 1);
        assert!(delta("cache.repair.kept_pairs") >= stats.kept_pairs as u64);
        assert!(delta("cache.repair.repaired_pairs") >= stats.repaired_pairs as u64);
        assert!(delta("cache.repair.paths_regrown") >= stats.paths_regrown as u64);
        assert!(delta("cache.repair.paths_lost") >= stats.paths_lost as u64);
        cache.clear_failure();
    }

    #[test]
    fn masked_results_equal_fresh_masked_cache() {
        let g = square();
        let mask = mask_01(&g);
        let warm = PathCache::new(&g);
        for s in 0..4u32 {
            for d in 0..4u32 {
                if s != d {
                    warm.paths(NodeId(s), NodeId(d), 3);
                }
            }
        }
        warm.apply_failure(&mask);
        let fresh = PathCache::new(&g);
        fresh.apply_failure(&mask);
        for s in 0..4u32 {
            for d in 0..4u32 {
                if s != d {
                    let a: Vec<f64> =
                        warm.paths(NodeId(s), NodeId(d), 3).iter().map(|p| p.delay_ms()).collect();
                    let b: Vec<f64> =
                        fresh.paths(NodeId(s), NodeId(d), 3).iter().map(|p| p.delay_ms()).collect();
                    assert_eq!(a, b, "pair {s}->{d} under failure");
                }
            }
        }
    }

    #[test]
    fn growth_after_failure_is_masked_even_for_kept_pairs() {
        let g = square();
        let cache = PathCache::new(&g);
        // 3->2 materializes only its direct path (clean under the mask)...
        assert_eq!(cache.paths(NodeId(3), NodeId(2), 1).len(), 1);
        let stats = cache.apply_failure(&mask_01(&g));
        assert_eq!(stats.kept_pairs, 1);
        // ...but growing it now must not surface the 3-0-1-2 path that
        // crosses the failed cable.
        let grown = cache.paths(NodeId(3), NodeId(2), 5);
        let l01 = g.find_link(NodeId(0), NodeId(1)).unwrap();
        assert!(grown.iter().all(|p| !p.contains_link(l01)));
        assert_eq!(grown.len(), 1, "masked square has one 3->2 path");
    }

    #[test]
    fn clear_failure_restores_the_intact_view() {
        let g = square();
        let cache = PathCache::new(&g);
        cache.paths(NodeId(0), NodeId(2), 2);
        cache.apply_failure(&mask_01(&g));
        assert_eq!(cache.paths(NodeId(0), NodeId(2), 2).len(), 1);
        let stats = cache.clear_failure();
        assert_eq!(stats.repaired_pairs, 1, "the masked generator is rebuilt pure");
        assert!(cache.failure_mask().is_none());
        assert!(
            cache.effective_capacities().iter().all(|&c| (c - 10.0).abs() < 1e-9),
            "intact view exposes raw capacities"
        );
        let restored = cache.paths(NodeId(0), NodeId(2), 2);
        assert_eq!(restored.len(), 2);
        assert_eq!(restored[0].delay_ms(), 2.0, "shortest path is back");
    }

    #[test]
    fn degradation_only_masks_keep_every_pair() {
        let g = square();
        let cache = PathCache::new(&g);
        cache.paths(NodeId(0), NodeId(2), 2);
        let l01 = g.find_link(NodeId(0), NodeId(1)).unwrap();
        let mut mask = FailureMask::new();
        mask.degrade_cable(&g, l01, 0.5);
        let stats = cache.apply_failure(&mask);
        assert_eq!(stats.kept_pairs, 1, "degradation does not invalidate paths");
        assert_eq!(stats.repaired_pairs, 0);
        // The capacity-provider view sees the brown-out...
        let caps = cache.effective_capacities();
        assert!((caps[l01.idx()] - 5.0).abs() < 1e-9, "degraded cable at half capacity");
        assert_eq!(caps.len(), g.link_count());
        assert_eq!(cache.paths(NodeId(0), NodeId(2), 2).len(), 2);
        // Growth under a degradation-only mask keeps the generator pure:
        // re-applying the same mask must not count the pair as repaired.
        assert_eq!(cache.paths(NodeId(0), NodeId(2), 5).len(), 2);
        let again = cache.apply_failure(&mask);
        assert_eq!(again.kept_pairs, 1, "degradation-only growth must stay pure");
        assert_eq!(again.repaired_pairs, 0);
    }

    #[test]
    fn scoped_cache_never_leaves_the_member_set() {
        // Line 0-1-2 plus a shortcut 0-4-2 through an out-of-scope node.
        let mut b = GraphBuilder::new(5);
        b.add_duplex(NodeId(0), NodeId(1), 2.0, 10.0);
        b.add_duplex(NodeId(1), NodeId(2), 2.0, 10.0);
        b.add_duplex(NodeId(0), NodeId(4), 0.5, 10.0);
        b.add_duplex(NodeId(4), NodeId(2), 0.5, 10.0);
        let g = b.build();
        let scoped = PathCache::scoped(&g, &[NodeId(0), NodeId(1), NodeId(2)]);
        let ps = scoped.paths(NodeId(0), NodeId(2), 5);
        assert_eq!(ps.len(), 1, "the shortcut through node 4 is out of scope");
        assert_eq!(ps[0].delay_ms(), 4.0);
        // An endpoint outside the scope yields nothing.
        assert!(scoped.paths(NodeId(0), NodeId(4), 3).is_empty());
        // Full-scope behaves like an unscoped cache.
        let full = PathCache::scoped(&g, &g.nodes().collect::<Vec<_>>());
        assert_eq!(full.paths(NodeId(0), NodeId(2), 1)[0].delay_ms(), 1.0);
    }

    #[test]
    fn scoped_cache_composes_with_failure_masks() {
        let g = square();
        let scoped = PathCache::scoped(&g, &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(scoped.paths(NodeId(0), NodeId(2), 3).len(), 2);
        let stats = scoped.apply_failure(&mask_01(&g));
        assert_eq!(stats.repaired_pairs, 1);
        let got = scoped.paths(NodeId(0), NodeId(2), 3);
        assert_eq!(got.len(), 1, "failure applies inside the scope");
        assert_eq!(got[0].delay_ms(), 3.0);
        scoped.clear_failure();
        assert_eq!(scoped.paths(NodeId(0), NodeId(2), 3).len(), 2, "scope survives clearing");
        // Narrow scope + failure: only the 0-3-2 route is in scope, and
        // failing node 3 disconnects it entirely.
        let narrow = PathCache::scoped(&g, &[NodeId(0), NodeId(3), NodeId(2)]);
        assert_eq!(narrow.paths(NodeId(0), NodeId(2), 3).len(), 1);
        let mut mask = FailureMask::new();
        mask.fail_node(NodeId(3));
        narrow.apply_failure(&mask);
        assert!(narrow.paths(NodeId(0), NodeId(2), 3).is_empty());
    }

    #[test]
    fn disconnecting_failure_yields_empty_path_sets() {
        let g = square();
        let cache = PathCache::new(&g);
        cache.paths(NodeId(0), NodeId(2), 2);
        let mut mask = FailureMask::new();
        mask.fail_node(NodeId(0));
        let stats = cache.apply_failure(&mask);
        assert_eq!(stats.repaired_pairs, 1);
        assert_eq!(stats.paths_regrown, 0);
        assert_eq!(stats.paths_lost, 2);
        assert!(cache.paths(NodeId(0), NodeId(2), 2).is_empty());
        assert!(cache.shortest(NodeId(0), NodeId(2)).is_none());
    }
}
