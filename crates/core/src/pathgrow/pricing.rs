//! The pricing oracle's side of a solve: which pairs grow each round, and
//! what their source has already answered.
//!
//! The pricing oracle is abstract: every solve takes a `&dyn`
//! [`PathSource`] and asks it only for the next-cheapest columns of the
//! pairs that are actually overloaded/saturated. Pairs the source reports
//! exhausted — or whose [`PathSource::shortest_delay_bound`] is infinite,
//! meaning its best possible column cannot exist — are never priced again.
//! The same loop runs against the flat [`PathCache`](crate::pathset::PathCache) and against the
//! [`PartitionedPathEngine`](crate::hier::PartitionedPathEngine), which
//! places Internet-scale topologies without a materialized path corpus.
//!
//! **One ask per pair.** [`PathSource::grow`] may answer with more than it
//! was asked for, and that means one thing: this is the pair's complete
//! ranking. The engine does so for every cross-leaf pair — a stitch per
//! landmark produces the whole list (at most one candidate a landmark)
//! whether two columns are wanted or twenty. The solve keeps what it did not
//! ask for as the pair's *surplus* and, from then on, serves that pair's
//! `GROWTH_STEP` columns a round from it: no `grow`, and no delay-bound
//! query either, which a held ranking makes moot. When the surplus runs dry
//! the pair is exhausted. Seeding asks through the same door
//! (`grow(src, dst, 1)`), so a 16-pair placement at 10k nodes stitches 16
//! times where it used to stitch 70 (and asked for 16 delay bounds). The
//! columns, their order and so every LP are those of the loop that asked
//! again each round — the trait requires each answer to be a prefix of the
//! next — which the unit tests hold to the bit by running both. The surplus
//! lives exactly as long as the solve and belongs to it, not to the engine:
//! an engine-side memo of rankings would be per-pair state that grows with
//! the pairs ever queried and needs an invalidation rule at every failure
//! transition — the thing [`PathSource::cached_pairs`] exists to rule out
//! for cross-leaf traffic — while a solve's mask is fixed and its pairs are
//! its matrix. The flat cache never answers long, so nothing is held there.

use lowlat_netgraph::{LinkId, Path};
use lowlat_telemetry as telemetry;
use lowlat_tmgen::{Aggregate, TrafficMatrix};

use super::lp::Fractions;
use crate::source::PathSource;

/// Per-pair pricing state of one solve: made when the solve seeds its path
/// sets, read and written only by [`grow_crossing`], dropped with the solve.
pub(super) struct PricingState {
    /// Once the source returns fewer columns than asked, its
    /// [`PathSource::shortest_delay_bound`] is infinite — no further column
    /// can exist at all — or the pair's surplus has run dry, the pair is
    /// never priced again this solve.
    exhausted: Vec<bool>,
    /// The pair's delay bound (NaN = not yet asked): the failure mask is
    /// fixed for the duration of a solve, so the bound is solve-constant and
    /// each pair pays the source query at most once instead of once per
    /// round — and not at all while it holds a surplus.
    bounds: Vec<f64>,
    /// What [`PathSource::grow`] answered beyond what it was asked for,
    /// best-first: the rest of the pair's *complete* ranking (module docs,
    /// "The pricing oracle is abstract"). Non-empty means every column the
    /// source will ever price for the pair is either in its path set or
    /// here, and growth takes from here instead of asking.
    surplus: Vec<Vec<Path>>,
    /// Link-indexed scratch of [`grow_crossing`], all false between calls.
    target_mask: Vec<bool>,
    /// `grow` calls made (`pathgrow.source_asks`), seeding included.
    asks: u64,
    /// Columns served from a surplus (`pathgrow.columns_from_surplus`).
    from_surplus: u64,
}

impl PricingState {
    /// Seeds every aggregate's path set with its `k` best columns — through
    /// [`PathSource::grow`], so a source that answers with a complete
    /// ranking is never asked about that pair again.
    pub(super) fn seed(
        source: &dyn PathSource,
        tm: &TrafficMatrix,
        k: usize,
    ) -> (Vec<Vec<Path>>, Self) {
        let pairs = tm.aggregates().len();
        let mut state = PricingState {
            exhausted: vec![false; pairs],
            bounds: vec![f64::NAN; pairs],
            surplus: vec![Vec::new(); pairs],
            target_mask: vec![false; source.graph().link_count()],
            asks: 0,
            from_surplus: 0,
        };
        let path_sets = tm
            .aggregates()
            .iter()
            .enumerate()
            .map(|(a, agg)| state.ask(source, a, agg, k))
            .collect();
        (path_sets, state)
    }

    /// The one call of [`PathSource::grow`]: the pair's `want` best columns,
    /// whatever the source answered beyond them kept as the pair's surplus.
    fn ask(
        &mut self,
        source: &dyn PathSource,
        a: usize,
        agg: &Aggregate,
        want: usize,
    ) -> Vec<Path> {
        self.asks += 1;
        let mut got = source.grow(agg.src, agg.dst, want);
        if got.len() > want {
            let rest = got.split_off(want);
            if surplus_kept() {
                self.surplus[a] = rest;
            }
        }
        got
    }

    /// Writes the solve's pricing counters — both in every traced growth
    /// call, so a reader can tell 0 from absent.
    pub(super) fn report(&self) {
        telemetry::counter_add("pathgrow.source_asks", self.asks);
        telemetry::counter_add("pathgrow.columns_from_surplus", self.from_surplus);
    }
}

/// The column-generation pricing step: grows the path sets of every
/// aggregate whose current placement crosses one of `targets` by its `step`
/// next-cheapest columns — from the surplus the pair holds, else by asking
/// the source. Returns true if any set actually grew. The only caller of
/// [`PathSource::grow`] after seeding, and the only reader of a surplus.
pub(super) fn grow_crossing(
    source: &dyn PathSource,
    tm: &TrafficMatrix,
    path_sets: &mut [Vec<Path>],
    fractions: &Fractions,
    targets: &[LinkId],
    step: usize,
    state: &mut PricingState,
) -> bool {
    for &l in targets {
        state.target_mask[l.idx()] = true;
    }
    let mut grew = false;
    let mut columns_grown = 0usize;
    let mut pricing_skips = 0usize;
    for (a, agg) in tm.aggregates().iter().enumerate() {
        if state.exhausted[a] {
            continue;
        }
        let crosses = path_sets[a].iter().enumerate().any(|(pi, p)| {
            fractions[a].get(pi).copied().unwrap_or(0.0) > 1e-9
                && p.links().iter().any(|&l| state.target_mask[l.idx()])
        });
        if !crosses {
            continue;
        }
        let held = &mut state.surplus[a];
        if !held.is_empty() {
            // A complete ranking: the next columns are here, and so is the
            // proof that the source can price the pair (its delay bound).
            let take = step.min(held.len());
            path_sets[a].extend(held.drain(..take));
            state.exhausted[a] = held.is_empty();
            state.from_surplus += take as u64;
            columns_grown += take;
            grew = true;
            continue;
        }
        if state.bounds[a].is_nan() {
            state.bounds[a] = source.shortest_delay_bound(agg.src, agg.dst);
        }
        if state.bounds[a].is_infinite() {
            // The source cannot price any column for this pair (for the
            // partitioned engine: no landmark connects it) — whatever the
            // initial query produced is all there will ever be.
            state.exhausted[a] = true;
            pricing_skips += 1;
            continue;
        }
        let want = path_sets[a].len() + step;
        let got = state.ask(source, a, agg, want);
        if got.len() < want {
            state.exhausted[a] = true;
        }
        if got.len() > path_sets[a].len() {
            columns_grown += got.len() - path_sets[a].len();
            path_sets[a] = got;
            grew = true;
        }
    }
    for &l in targets {
        state.target_mask[l.idx()] = false;
    }
    if columns_grown > 0 {
        telemetry::counter_add("pathgrow.columns_grown", columns_grown as u64);
    }
    if pricing_skips > 0 {
        telemetry::counter_add("pathgrow.pricing_skips", pricing_skips as u64);
    }
    grew
}

/// Whether a solve keeps what its source answers beyond `want`: always,
/// outside the tests that drop it to compare against the loop that asked
/// again every round.
fn surplus_kept() -> bool {
    #[cfg(test)]
    return !tests::SURPLUS_OFF.get();
    #[cfg(not(test))]
    true
}

#[cfg(test)]
pub(super) mod tests {
    thread_local! {
        /// Makes a solve on this thread drop every surplus: it holds `want`
        /// columns of an answer and asks again next round, as the loop did
        /// before a source could answer long.
        pub(crate) static SURPLUS_OFF: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }
}
