//! The churn policy of a `bounded:` controller.
//!
//! ## Bounded churn
//!
//! A `bounded:`-prefixed controller (sweep spec `bounded:LDR`) runs the
//! same per-minute cycle but treats path churn — installs, uninstalls and
//! split re-programs pushed to switches — as a cost. There is no rate
//! limit; a re-install must pay for itself. Each minute the scheme's fresh
//! solution is a *candidate*, and an aggregate takes it when nothing is
//! installed for it, when its installed paths are broken by the mask, when
//! the candidate improves predicted mean delay by more than `EPSILON` (20%),
//! when keeping it would push a link's predicted load past `UTIL_GUARD`
//! (1.0) times effective capacity, or when a link it rides *actually queued*
//! past `QUEUE_TRIGGER_MS` (50 ms) last minute (the reactive half of the
//! loop: mean-load prediction cannot see bursts, realized queueing can);
//! everything else keeps the previous minute's paths. Re-installs of live
//! paths happen make-before-break: the aggregate drains linearly across the
//! transition minute — each 100 ms bin carries a shrinking share on the
//! retiring splits and a growing share on the new ones — so the old paths'
//! capacity stays claimed until the drain completes and the old path is
//! only retired once its replacement carries the traffic. (Paths already
//! broken by a failure switch immediately: there is nothing left to break.)
//! This is the §5 install story made honest. Per-minute churn
//! ([`PlacementDelta`]) and decision latency are reported in every
//! [`MinuteReport`](super::MinuteReport).

use lowlat_core::placement::{AggregatePlacement, PlacementDelta};
use lowlat_core::Placement;
use lowlat_netgraph::{Graph, LinkId, Path};

use super::state::ControllerState;

/// Bounded churn: minimum *relative* predicted mean-delay improvement
/// before an aggregate's candidate placement is worth re-installing. Below
/// this the previous minute's paths are kept as-is.
const EPSILON: f64 = 0.2;

/// Bounded churn: utilization multiple of effective capacity above which a
/// kept placement is force-re-installed: keeping stale paths must not
/// (predictably) overload a link. 1.0 = re-install at predicted saturation.
const UTIL_GUARD: f64 = 1.0;

/// Bounded churn: realized-queueing trigger (ms). A link whose replay queued
/// above this last minute forces re-install of the kept aggregates riding it
/// (when the fresh candidate actually relieves the link). This is the
/// reactive half of the loop — mean-load prediction cannot see bursts,
/// realized queueing can.
pub(super) const QUEUE_TRIGGER_MS: f64 = 50.0;

/// Per-link load (Mbps) when aggregate `j` sends its `predicted[j]` volume
/// over the splits `splits_of(j)` picks for it.
fn predicted_link_loads<'p>(
    graph: &Graph,
    predicted: &[f64],
    splits_of: impl Fn(usize) -> &'p [(Path, f64)],
) -> Vec<f64> {
    let mut load = vec![0.0f64; graph.link_count()];
    for (j, volume) in predicted.iter().enumerate() {
        for (path, x) in splits_of(j) {
            if *x > 1e-9 {
                for &l in path.links() {
                    load[l.idx()] += volume * x;
                }
            }
        }
    }
    load
}

impl ControllerState<'_> {
    /// Merges the minute's fresh `candidate` placement with the `installed`
    /// switch state (module docs, *Bounded churn*).
    ///
    /// Per aggregate `j` of the minute's matrix, the candidate is taken when
    /// (a) nothing is installed yet, (b) the installed paths are broken by
    /// the mask, or (c) the candidate improves predicted mean delay by more
    /// than `EPSILON` relative. A final pass force-takes kept aggregates
    /// while keeping them would push some link's *predicted* load past
    /// `UTIL_GUARD` times effective capacity, or while a link they ride
    /// queued past `QUEUE_TRIGGER_MS` last minute.
    ///
    /// Returns the merged placement (aligned with the minute's matrix) plus
    /// the make-before-break transitions, in aggregate order: the full old
    /// placement of every aggregate re-installed while its installed paths
    /// were still alive, which the replay drains across the transition
    /// minute. Aggregates whose paths a failure already broke switch
    /// instantly — there is nothing left to break gently — and fresh
    /// installs have nothing to drain.
    pub(super) fn merge_bounded(
        &self,
        predicted: &[f64],
        candidate: &Placement,
    ) -> (Placement, Vec<(usize, AggregatePlacement)>) {
        let graph = self.source.graph();
        let mask = &self.mask;
        let n = candidate.per_aggregate().len();
        let installed = |j: usize| self.installed[self.orig(j)].as_ref();
        let kept = |j: usize| installed(j).expect("kept implies installed");
        let mut take = vec![false; n];
        let mut broken_paths = vec![false; n];
        for j in 0..n {
            match installed(j) {
                // Nothing installed (fresh aggregate, or one coming back from
                // an unroutable spell): must install.
                None => take[j] = true,
                Some(prev) => {
                    broken_paths[j] =
                        prev.splits.iter().any(|(p, x)| *x > 1e-9 && mask.hits_path(graph, p));
                    let prev_d = prev.mean_delay_ms();
                    let cand_d = candidate.aggregate(j).mean_delay_ms();
                    take[j] = broken_paths[j] || prev_d - cand_d > EPSILON * prev_d.max(1e-9);
                }
            }
        }
        // Capacity pressure: keeping stale splits must not (predictably)
        // overload a link — and a link that *actually queued* past the
        // reactive trigger last minute is repaired now, prediction or not.
        // While a link is hot, flip the kept aggregate whose re-install
        // relieves it most. Links the *fresh candidate* itself would run as
        // hot are hopeless — no amount of re-installing cures them, so they
        // never charge churn.
        let fraction_on = |splits: &[(Path, f64)], link: LinkId| -> f64 {
            splits
                .iter()
                .filter(|(p, x)| *x > 1e-9 && p.links().contains(&link))
                .map(|(_, x)| *x)
                .sum()
        };
        let cand_load = predicted_link_loads(graph, predicted, |j| &candidate.aggregate(j).splits);
        loop {
            let load = predicted_link_loads(graph, predicted, |j| {
                if take[j] {
                    &candidate.aggregate(j).splits
                } else {
                    &kept(j).splits
                }
            });
            let worst = graph
                .link_ids()
                .filter_map(|l| {
                    let cap = mask.effective_capacity(graph, l);
                    if cap <= 0.0 {
                        return None;
                    }
                    let guard = UTIL_GUARD * cap;
                    let predicted_hot = load[l.idx()] > guard && cand_load[l.idx()] <= guard;
                    let reactive_hot =
                        self.queued_links[l.idx()] && load[l.idx()] > cand_load[l.idx()] + 1e-9;
                    (predicted_hot || reactive_hot).then(|| (l, load[l.idx()] / cap))
                })
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
            let Some((hot, _)) = worst else { break };
            let flip = (0..n)
                .filter(|&j| !take[j])
                .filter_map(|j| {
                    let relief = predicted[j]
                        * (fraction_on(&kept(j).splits, hot)
                            - fraction_on(&candidate.aggregate(j).splits, hot));
                    (relief > 0.0).then_some((j, relief))
                })
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
            // No kept aggregate can relieve the hot link: stop rather than
            // churn without effect.
            let Some((j, _)) = flip else { break };
            take[j] = true;
        }
        let mut merged = Vec::with_capacity(n);
        let mut transitions = Vec::new();
        for j in 0..n {
            if take[j] {
                let new = candidate.aggregate(j);
                if let Some(prev) = installed(j) {
                    // A live re-install drains make-before-break; one that
                    // actually changes nothing has nothing to drain.
                    let changes =
                        || PlacementDelta::of_aggregate(Some(prev), new, 1.0).paths_changed() > 0;
                    if !broken_paths[j] && changes() {
                        transitions.push((j, prev.clone()));
                    }
                }
                merged.push(new.clone());
            } else {
                merged.push(kept(j).clone());
            }
        }
        (Placement::new(merged), transitions)
    }
}
