//! The pricing-oracle abstraction behind every LP scheme: [`PathSource`].
//!
//! The Figure-13 growth loop never needs *all* paths of a pair — it asks for
//! the next-cheapest candidates of the aggregates that are currently
//! overloaded (classic column generation, with paths as columns). This trait
//! is that contract, decoupled from any concrete cache:
//!
//! * [`PathCache`](crate::pathset::PathCache) implements it with flat,
//!   fully-materialized incremental Yen generators — bit-identical to the
//!   pre-trait behavior, right for PoP backbones (tens of nodes).
//! * [`PartitionedPathEngine`](crate::hier::PartitionedPathEngine)
//!   implements it with per-leaf scoped caches plus landmark stitching —
//!   columns are priced on demand and cross-leaf per-pair state is never
//!   materialized, which is what makes *placement* (not just KSP queries)
//!   Internet-scale.
//!
//! Everything above the pricing step — the LPs, the schemes, the failure
//! drill, the sim runner/timeline — takes `&dyn PathSource` and runs
//! unchanged on either backend.

use std::sync::Arc;

use lowlat_netgraph::{FailureMask, Graph, NodeId, Path};

use crate::pathset::RepairStats;

/// A source of candidate paths (columns) for the placement LPs, with a
/// mask-aware capacity view and failure plumbing.
///
/// Object-safe and `Sync`: the experiment engine shares one source per
/// network across worker threads, exactly as it shared the flat cache.
///
/// # Contract
///
/// * [`paths`](PathSource::paths) returns up to `k` loopless paths,
///   best-first, deterministic in `(graph, active mask, k)` — never in the
///   history of other queries. Fewer than `k` (possibly zero under a
///   disconnecting failure) means the source cannot produce more.
/// * [`grow`](PathSource::grow) is the column-generation entry point: ask
///   for `want` candidates, use the suffix beyond what you already had.
///   The length of the answer says what to do next. *Shorter than `want`*:
///   the pair is exhausted — re-asking will not produce more. *Exactly
///   `want`*: ask again when you need more. *Longer than `want`*: this is
///   the pair's **complete ranking**, best-first — the caller holds every
///   column the source will ever price for the pair under the active mask
///   and need not ask about it again. Only a source that has the complete
///   ranking in hand anyway may answer long (the partitioned engine, for a
///   cross-leaf pair: one stitch per landmark is all there is); a source
///   that enumerates lazily (the flat cache, the engine's leaf caches)
///   never does. Every answer starts with `paths(src, dst, want)`.
/// * [`shortest_delay_bound`](PathSource::shortest_delay_bound) bounds the
///   delay of the best column the source can price for the pair;
///   `INFINITY` means it cannot price any beyond a bare reachability
///   fallback, so growth loops skip the pair.
/// * Failure methods mirror the flat cache: `apply_failure` puts a mask in
///   force (repairing internal state), `clear_failure` restores the intact
///   view, and both require concurrent queries to be quiescent.
pub trait PathSource: Sync {
    /// The graph this source routes over.
    fn graph(&self) -> &Graph;

    /// Up to `k` loopless paths from `src` to `dst`, best-first.
    fn paths(&self, src: NodeId, dst: NodeId, k: usize) -> Vec<Path>;

    /// The single best path (`None` when disconnected under the mask).
    fn shortest(&self, src: NodeId, dst: NodeId) -> Option<Path> {
        self.paths(src, dst, 1).into_iter().next()
    }

    /// Prices the next columns of a pair: the `want` best candidates (a
    /// superset-prefix of every earlier call) — or fewer, when the pair is
    /// exhausted, or *all* of them, when the source holds the pair's
    /// complete ranking (see the trait's contract). The default delegates to
    /// [`PathSource::paths`] and so never answers long.
    fn grow(&self, src: NodeId, dst: NodeId, want: usize) -> Vec<Path> {
        self.paths(src, dst, want)
    }

    /// Upper bound (ms) on the delay of the best column this source can
    /// price for `(src, dst)` — `INFINITY` when it cannot price any (the
    /// pair may still be reachable through an exact fallback, but growth
    /// cannot help it).
    fn shortest_delay_bound(&self, src: NodeId, dst: NodeId) -> f64;

    /// Per-link effective capacities (Mbps) under the active failure mask,
    /// indexed by `LinkId` — raw capacities when no mask is in force. This
    /// is the capacity-provider view the LP schemes pose constraints
    /// against, so brown-outs (degradation-only masks) are visible to every
    /// capacity row even though they change no paths.
    fn effective_capacities(&self) -> Vec<f64> {
        let graph = self.graph();
        match self.failure_mask() {
            Some(mask) => mask.effective_capacities(graph),
            None => graph.link_ids().map(|l| graph.link(l).capacity_mbps).collect(),
        }
    }

    /// The failure mask currently in force, if any.
    fn failure_mask(&self) -> Option<Arc<FailureMask>>;

    /// Puts `mask` in force and repairs internal state. An empty mask is
    /// equivalent to [`PathSource::clear_failure`].
    fn apply_failure(&self, mask: &FailureMask) -> RepairStats;

    /// Restores the intact topology view: state built under the mask is
    /// rebuilt pure, untouched state survives.
    fn clear_failure(&self) -> RepairStats {
        self.apply_failure(&FailureMask::new())
    }

    /// Number of (src, dst) pairs with materialized per-pair state — the
    /// "never the full corpus" gauge the scale smoke asserts stays bounded
    /// by the columns actually priced in.
    fn cached_pairs(&self) -> usize;
}
