//! Phase 1's stopping test: whether any column of the live graph, priced
//! or not, can still lower the overload.
//!
//! **The stopping rule.** "Nothing more can help" is decided, not waited
//! for. After a phase-1 LP that did not lower `omax` (once per `omax`
//! level), the duals of its `o_l <= omax` rows are taken as link weights
//! `v_l >= 0`, normalized to sum 1, and the maximum-concurrent-flow bound is
//! evaluated over *every* path of the live graph, priced or not:
//!
//! ```text
//! omax  >=  Σ_a B_a · dist_v(a)  −  cap_scale
//! ```
//!
//! with `dist_v(a)` the shortest `src → dst` distance under link lengths
//! `v_l / C_l` (effective capacities; a downed link has capacity 0 and is
//! not walked). It holds for *any* `v`, because every placement has
//! `load_l / C_l − cap_scale <= omax` on every link and the `v`-weighted sum
//! of the loads is at least `Σ_a B_a dist_v(a)` — weak duality, so a wrong
//! or degenerate dual can only fail to certify, never stop a chain that
//! could still improve. When the bound is within `1e-5` of the LP's `omax`
//! growth stops ([`GrowthEnd::ProvedFinal`]): no column that exists lowers
//! the overload by more than a thousandth of a percent of a link, and phase
//! 2 and refinement proceed as after any other exit. Why `1e-5`: phase 1
//! minimizes `omax + 1e-6·Σ o_l`, and the spread term shifts `1e-6` of dual
//! weight per pinned link off the `o_l <= omax` rows, which leaves the bound
//! 0–2.5e-6 short of `omax` when three links pin it (1e-12 with two). Why a
//! budget: the search is one label-setting pass per distinct source among
//! the aggregates whose cheapest held column has positive length, and it
//! gives up, inconclusive, after visiting more than `aggregates × LP-used
//! links` links — a budget the LP it follows sets (a visit per aggregate
//! and used link, the extent of that LP's capacity block), not the graph,
//! so a test stays in proportion to the round it ends (with a floor of
//! 1024 visits, ten microseconds, so a one-aggregate request can search a
//! small graph at all). On a backbone that covers every source's whole
//! search (26 × 86 links on GTS-like; a test costs tens of microseconds);
//! on a 10k-node graph of which the LP touches 1% of the links, and which
//! holds detours the partitioned engine never prices (so the bound cannot
//! be tight), the test gives up after a few hundred microseconds instead of
//! flooding the graph. `MAX_ROUNDS` stays as the backstop
//! for those cases. Without the rule a demand that cannot fit ran to `MAX_ROUNDS`:
//! 41 rounds over columns that never price in (zero-pivot LPs then; since
//! the pricing step below, rounds that pose no LP at all), for every
//! Figure-14 tweak iteration that inflates `B_a` past what the network
//! carries. MinMax's stage 1 needs none of this — it stops when `U` stops
//! improving.

use lowlat_netgraph::{Graph, LinkId, NodeId, Path};
use lowlat_tmgen::TrafficMatrix;

use super::lp::{LpData, LpOutcome};

/// How close the concurrent-flow bound must come to the LP's `omax` to end
/// phase 1 (module docs): phase 1 minimizes
/// `omax + 1e-6·Σ o_l`, and the spread term leaves the bound up to 2.5e-6
/// short of `omax` when three links pin it.
pub(super) const BOUND_TOL: f64 = 1e-5;

/// Links one evaluation of the stopping test may visit whatever the LP's
/// size: a complete search of a few hundred links, ten microseconds, so that
/// a one-aggregate request is not cut short by the product below.
const BOUND_MIN_VISITS: usize = 1024;

/// What one evaluation of the stopping test found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum BoundVerdict {
    /// No path of the live graph lowers `omax` by more than [`BOUND_TOL`].
    Final,
    /// Some path is shorter under the link prices than the columns the LP
    /// holds: growth may still pay.
    Open,
    /// The search outran its visit budget (or the LP priced no link).
    GaveUp,
}

/// Per-call scratch of the stopping test; everything is back at its resting
/// value between evaluations, so an evaluation costs what it visits.
#[derive(Default)]
pub(super) struct BoundScratch {
    /// `v_l / C_l` per graph link; 0 everywhere at rest.
    link_price: Vec<f64>,
    /// Label per graph node; infinite everywhere at rest.
    dist: Vec<f64>,
    /// Nodes labelled by the current search.
    labelled: Vec<NodeId>,
    /// Labelled nodes of the current distance level not yet expanded.
    level: Vec<NodeId>,
    /// `(label, node)` reached over a priced link, not yet labelled.
    beyond: Vec<(f64, NodeId)>,
    /// `(src, dst, volume, price-length of the cheapest held column)` of the
    /// aggregates that pay anything under the link prices.
    paying: Vec<(NodeId, NodeId, f64, f64)>,
}

impl LpData<'_> {
    /// The column-generation stopping test of phase 1 (module docs, "The
    /// stopping rule"): does the LP just solved (`out`, over `path_sets`)
    /// already hold the least overload the *graph* allows, whatever columns
    /// are still unpriced? It does when [`LpData::flow_bound`], under that
    /// LP's link prices, comes within [`BOUND_TOL`] of its `omax`; the search
    /// may visit `aggregates × LP-used links` links, at least
    /// [`BOUND_MIN_VISITS`].
    pub(super) fn proves_final(
        &mut self,
        graph: &Graph,
        tm: &TrafficMatrix,
        path_sets: &[Vec<Path>],
        out: &LpOutcome,
    ) -> BoundVerdict {
        let target = out.level - BOUND_TOL;
        let budget = (path_sets.len() * out.links).max(BOUND_MIN_VISITS);
        match self.flow_bound(graph, tm, path_sets, &out.overload_prices, target, budget) {
            Ok(bound) if bound >= target => BoundVerdict::Final,
            Ok(_) => BoundVerdict::Open,
            Err(verdict) => verdict,
        }
    }

    /// The concurrent-flow bound `Σ_a B_a dist_v(a) - cap_scale` of the
    /// module docs ("The stopping rule"): a lower bound on the `omax` of
    /// *any* placement of the demands over *any* paths of the live graph,
    /// for link weights `prices` (positive, any scale; normalized here to
    /// `v_l` summing to 1) — whatever they are, so wrong ones only make it
    /// smaller.
    ///
    /// Only the aggregates whose cheapest held column has positive length
    /// need a distance, and all but a handful of links have length 0: one
    /// label-setting search per distinct source labels nodes level by level,
    /// crossing free links from a stack and keeping the few priced crossings
    /// aside until the level is done. `Err(Open)` as soon as the running
    /// value — the bound over the held columns, lowered source by source —
    /// falls below `abandon_below`; `Err(GaveUp)` after visiting more than
    /// `budget` links, or when nothing is priced.
    pub(super) fn flow_bound(
        &mut self,
        graph: &Graph,
        tm: &TrafficMatrix,
        path_sets: &[Vec<Path>],
        prices: &[(LinkId, f64)],
        abandon_below: f64,
        budget: usize,
    ) -> Result<f64, BoundVerdict> {
        let total: f64 = prices.iter().map(|&(_, v)| v).sum();
        if total <= 0.0 {
            return Err(BoundVerdict::GaveUp);
        }
        let LpData { volumes, caps, cap_scale, bound: ref mut scratch, .. } = *self;
        let BoundScratch { link_price, dist, labelled, level, beyond, paying } = scratch;
        if link_price.is_empty() {
            link_price.resize(graph.link_count(), 0.0);
            dist.resize(graph.node_count(), f64::INFINITY);
        }
        for &(l, v) in prices {
            link_price[l.idx()] = v / total / caps[l.idx()];
        }

        let mut lower = -cap_scale;
        paying.clear();
        for ((agg, paths), &volume) in tm.aggregates().iter().zip(path_sets).zip(volumes) {
            let held = paths
                .iter()
                .map(|p| p.links().iter().map(|l| link_price[l.idx()]).sum::<f64>())
                .fold(f64::INFINITY, f64::min);
            if volume > 0.0 && held > 0.0 {
                lower += volume * held;
                paying.push((agg.src, agg.dst, volume, held));
            }
        }
        paying.sort_by_key(|&(src, dst, ..)| (src, dst));

        let mut visited = 0usize;
        let mut stopped = None;
        for group in paying.chunk_by(|a, b| a.0 == b.0) {
            if lower < abandon_below {
                stopped = Some(BoundVerdict::Open);
                break;
            }
            // `level` holds the labelled nodes at the current distance still
            // to expand, `beyond` what their priced links reach.
            let src = group[0].0;
            dist[src.idx()] = 0.0;
            labelled.push(src);
            level.push(src);
            'search: loop {
                while let Some(node) = level.pop() {
                    let here = dist[node.idx()];
                    for l in graph.out_links(node) {
                        let to = graph.link(l).dst;
                        if caps[l.idx()] <= 0.0 || dist[to.idx()].is_finite() {
                            continue;
                        }
                        if link_price[l.idx()] > 0.0 {
                            beyond.push((here + link_price[l.idx()], to));
                        } else {
                            dist[to.idx()] = here;
                            labelled.push(to);
                            level.push(to);
                        }
                    }
                    visited += graph.out_links(node).len();
                    if visited > budget {
                        stopped = Some(BoundVerdict::GaveUp);
                        break 'search;
                    }
                }
                if group.iter().all(|&(_, dst, ..)| dist[dst.idx()].is_finite()) {
                    break;
                }
                // The nearest node beyond a priced link opens the next level.
                beyond.retain(|&(_, to)| dist[to.idx()].is_infinite());
                let Some(&(next, to)) = beyond.iter().min_by(|a, b| a.0.total_cmp(&b.0)) else {
                    break;
                };
                dist[to.idx()] = next;
                labelled.push(to);
                level.push(to);
            }
            if stopped.is_none() {
                for &(_, dst, volume, held) in group {
                    // A held column is a live path, so its length bounds the
                    // label (`min`: the two are summed in different orders).
                    lower -= volume * (held - dist[dst.idx()].min(held));
                }
            }
            for node in labelled.drain(..) {
                dist[node.idx()] = f64::INFINITY;
            }
            level.clear();
            beyond.clear();
            if stopped.is_some() {
                break;
            }
        }
        for &(l, _) in prices {
            link_price[l.idx()] = 0.0;
        }
        match stopped {
            Some(verdict) => Err(verdict),
            None => Ok(lower),
        }
    }
}

/// Whether phase 1 runs its stopping test: always, outside the tests that
/// switch it off to compare against the loop without it.
pub(super) fn bound_armed() -> bool {
    #[cfg(test)]
    return !tests::BOUND_OFF.get();
    #[cfg(not(test))]
    true
}

#[cfg(test)]
pub(super) mod tests {
    use super::BoundVerdict;

    thread_local! {
        /// Switches phase 1's stopping test off on this thread.
        pub(super) static BOUND_OFF: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
        /// Verdicts of the stopping test on this thread, in order.
        static VERDICTS: std::cell::RefCell<Vec<BoundVerdict>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }

    pub(crate) fn note_verdict(verdict: BoundVerdict) {
        VERDICTS.with_borrow_mut(|seen| seen.push(verdict));
    }

    /// Runs `f`; returns its result and the stopping test's verdicts in it.
    pub(crate) fn verdicts<T>(f: impl FnOnce() -> T) -> (T, Vec<BoundVerdict>) {
        VERDICTS.take();
        let out = f();
        (out, VERDICTS.take())
    }

    /// Runs `f` as the loop ran before it had a stopping test.
    pub(crate) fn without_bound<T>(f: impl FnOnce() -> T) -> T {
        BOUND_OFF.set(true);
        let out = f();
        BOUND_OFF.set(false);
        out
    }
}
