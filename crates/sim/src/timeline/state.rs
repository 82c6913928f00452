//! The run's state and the steps that advance it a minute.
//!
//! ## One state, four steps
//!
//! There is one way to run a timeline: [`simulate_with_events_on`](super::simulate_with_events_on) builds
//! the run's private `ControllerState`, steps it once per decision minute
//! and collects the [`MinuteReport`]s ([`simulate`](super::simulate) is the same call over a
//! private flat [`PathCache`](lowlat_core::pathset::PathCache) with no events). The state is everything that
//! outlives a minute, and each step names what it touches:
//!
//! - `fire_events` reads the caller's [`TimelineEvent`]s and `pending_trip`;
//!   writes `mask`, `partition`, `unroutable_fraction`, the source's failure
//!   state and the repair counters.
//! - `decide` reads `traces` up to the minute, `partition`, `installed`,
//!   `queued_links` and `mask`; writes `placement`, `draining` and `ctx`.
//! - `install` reads `placement` and `partition`; writes `installed` and
//!   returns the minute's [`PlacementDelta`].
//! - `replay` reads the minute's `traces`, `placement`, `draining` and
//!   `mask`; writes `queued_links`, `pending_trip` and `cascade_trips`, and
//!   returns the realized queueing.
//!
//! One [`PathSource`] and one warm-start [`SolveContext`] persist across
//! the whole run, so successive minutes restart from each other's LP bases
//! — the reason the cycle is fast enough to run every minute — and a
//! topology change *repairs* the source (only cached paths crossing failed
//! elements regrow under the mask) instead of rebuilding it, so recovery
//! minutes restart from pre-failure bases. `decision_ms` times the first
//! three steps; replay models the network, not the controller.

use lowlat_core::eval::PlacementEval;
use lowlat_core::failure::{partition_routable, RoutablePartition};
use lowlat_core::placement::{AggregatePlacement, PlacementDelta};
use lowlat_core::schemes::{predict_volumes, SolveContext};
use lowlat_core::{default_workers, par_map, PathSource, Placement};
use lowlat_netgraph::{FailureMask, LinkId, Path};
use lowlat_telemetry as telemetry;
use lowlat_tmgen::TrafficMatrix;
use lowlat_traffic::{spread_seed, synthesize, AggregateTrace, TraceGenConfig};

use super::bounded::QUEUE_TRIGGER_MS;
use super::controller::{Controller, Mode};
use super::{MinuteReport, TimelineConfig, TimelineEvent, TimelineOutcome};

/// `numer / denom`, 0 when the denominator is not positive — keeps a
/// zero-volume denominator from poisoning fractions (and the TSV) with NaN.
pub(super) fn safe_fraction(numer: f64, denom: f64) -> f64 {
    if denom > 0.0 {
        numer / denom
    } else {
        0.0
    }
}

/// The run's ground truth: one trace per aggregate of `tm`, mean anchored at
/// its matrix volume, synthesized on up to `workers` threads. Aggregate `i`
/// draws from its own stream (`spread_seed(seed, i)`), so the traces are
/// the same bits whatever the worker count.
pub(super) fn synthesize_traces(
    tm: &TrafficMatrix,
    config: &TimelineConfig,
    workers: usize,
) -> Vec<AggregateTrace> {
    let aggregates: Vec<(u64, f64)> =
        tm.aggregates().iter().enumerate().map(|(i, a)| (i as u64, a.volume_mbps)).collect();
    par_map(&aggregates, workers, |&(i, mean_mbps)| {
        synthesize(&TraceGenConfig {
            mean_mbps,
            cv: config.cv,
            minutes: config.warmup_minutes + config.minutes,
            seed: spread_seed(config.seed, i),
            diurnal_amplitude: config.diurnal_amplitude,
            diurnal_period_minutes: config.diurnal_period,
            ..Default::default()
        })
    })
}

/// Everything of a run that outlives a decision minute. [`Self::step`]
/// advances it by one minute through the four steps the module docs
/// tabulate; nothing else mutates it.
pub(super) struct ControllerState<'a> {
    pub(super) source: &'a dyn PathSource,
    tm: &'a TrafficMatrix,
    controller: &'a Controller,
    config: &'a TimelineConfig,
    events: &'a [TimelineEvent],
    /// Ground-truth traffic: one evolving trace per aggregate of `tm`, mean
    /// anchored at its matrix volume (modulated by the diurnal cycle).
    traces: Vec<AggregateTrace>,
    /// One warm-start context for the whole run: the §5 cycle's speed comes
    /// from successive minutes reusing paths and LP bases.
    ctx: SolveContext,
    /// The failure mask in force.
    pub(super) mask: FailureMask,
    /// The demand an adaptive controller can still route under `mask`;
    /// `None` while everything is up, and always for a static controller,
    /// whose placement stays aligned with the full matrix.
    partition: Option<RoutablePartition>,
    /// Volume fraction of demand not delivered under `mask`: disconnected
    /// pairs for an adaptive controller, what a static placement keeps
    /// sending into failed elements. Recomputed only when the mask changes.
    unroutable_fraction: f64,
    /// The placement in force, aligned with [`Self::minute_tm`]: a static
    /// controller's, placed once; an adaptive one's, rewritten by every
    /// `decide` (`None` while nothing is routable).
    placement: Option<Placement>,
    /// This minute's make-before-break transitions: (`minute_tm` index, the
    /// full placement being drained). The aggregate's traffic ramps from
    /// these splits onto the new ones across the minute's bins.
    draining: Vec<(usize, AggregatePlacement)>,
    /// The per-aggregate placement actually installed on switches, keyed by
    /// ORIGINAL matrix index so entries survive re-partitions. Per-minute
    /// churn is the delta against it; the bounded controller additionally
    /// keeps entries live instead of re-installing.
    pub(super) installed: Vec<Option<AggregatePlacement>>,
    /// Links whose replay queued above the bounded controller's reactive
    /// trigger last minute — next minute's merge re-installs their riders.
    pub(super) queued_links: Vec<bool>,
    /// The cable the cascade model tripped during last minute's replay. A
    /// *delta*, resolved against the mask in force when it fires.
    pending_trip: Option<LinkId>,
    repair_events: usize,
    repaired_pairs: usize,
    kept_pairs: usize,
    cascade_trips: usize,
}

impl<'a> ControllerState<'a> {
    pub(super) fn new(
        source: &'a dyn PathSource,
        tm: &'a TrafficMatrix,
        controller: &'a Controller,
        config: &'a TimelineConfig,
        events: &'a [TimelineEvent],
    ) -> Self {
        // Checked here, on the caller's thread: a bad field panics with its
        // name before any synthesis worker starts.
        if let Err(e) = config.validate() {
            panic!("invalid timeline config: {e}");
        }
        assert!(!tm.is_empty());
        assert!(
            events.iter().all(|e| e.at_minute < config.minutes),
            "event minute out of 0..{}",
            config.minutes
        );
        // A root span of its own: against millisecond decisions synthesis
        // is a visible share of a short run. On one core it was ~40% of a
        // `ctrl-ldr-abilene` pass in the repo benchmark (2.10 s beside
        // 2.90 s of decisions in a 6 s run on a 2-CPU x86 host). The
        // aggregates' streams are independent, so they are synthesized on
        // every core, and the traced benchmark's
        // `sim.timeline.other_ms_per_min` (synthesis + replay + harness, per
        // decision minute, seed 99, same host) went 3.5 → 2.5 ms beside a
        // 3.5 ms decision on Abilene and 18.6 → 11.6 ms beside 24 ms on
        // GTS-like.
        let synthesis = telemetry::span("timeline.synthesize", "timeline");
        let traces = synthesize_traces(tm, config, default_workers());
        let samples = traces.iter().map(|tr| tr.minutes() * tr.bins_per_minute()).sum::<usize>();
        telemetry::counter_add("timeline.samples_synthesized", samples as u64);
        drop(synthesis);
        let placement = controller
            .is_static()
            .then(|| controller.scheme.place(source, tm).expect("static placement"));
        ControllerState {
            source,
            tm,
            controller,
            config,
            events,
            traces,
            ctx: SolveContext::new(),
            mask: FailureMask::new(),
            partition: None,
            unroutable_fraction: 0.0,
            placement,
            draining: Vec::new(),
            installed: vec![None; tm.aggregates().len()],
            queued_links: vec![false; source.graph().link_count()],
            pending_trip: None,
            repair_events: 0,
            repaired_pairs: 0,
            kept_pairs: 0,
            cascade_trips: 0,
        }
    }

    /// One decision minute (0-based, warm-up excluded): fire the minute's
    /// events, decide, install — the window `decision_ms` times — then
    /// replay the minute's actual traffic over the result.
    pub(super) fn step(&mut self, minute: usize) -> MinuteReport {
        // Per-minute root span; everything below nests under it. The
        // decision window keeps its own always-on timer because its
        // duration *is* the `decision_ms` column — one measurement feeds
        // both the TSV and the trace.
        let _minute = telemetry::span("timeline.minute", "timeline");
        let decision = telemetry::timed_span("timeline.decision", "timeline");
        self.fire_events(minute);
        self.decide(minute);
        let churn = self.install(minute);
        let decision_ms = decision.finish_ms();
        let _replay = telemetry::span("timeline.replay", "timeline");
        let (worst_queue_ms, overloaded_links) = self.replay(minute);
        let latency_stretch = self.placement.as_ref().map_or(1.0, |placement| {
            PlacementEval::evaluate_on(self.source.graph(), self.minute_tm(), placement)
                .latency_stretch()
        });
        MinuteReport {
            worst_queue_ms,
            overloaded_links,
            latency_stretch,
            unroutable_fraction: self.unroutable_fraction,
            decision_ms,
            paths_changed: churn.paths_changed(),
            moved_volume_fraction: churn.moved_volume_fraction(),
        }
    }

    /// The run's outcome: the per-minute reports plus the counters the state
    /// accumulated.
    pub(super) fn finish(self, minutes: Vec<MinuteReport>) -> TimelineOutcome {
        TimelineOutcome {
            minutes,
            lp_warm_hits: self.ctx.warm_hits(),
            lp_solves: self.ctx.solves(),
            repair_events: self.repair_events,
            repaired_pairs: self.repaired_pairs,
            kept_pairs: self.kept_pairs,
            cascade_trips: self.cascade_trips,
        }
    }

    /// The matrix the placement in force aligns with: the routable view
    /// while a partition is in force, the full matrix otherwise.
    fn minute_tm(&self) -> &TrafficMatrix {
        self.partition.as_ref().map_or(self.tm, |p| &p.tm)
    }

    /// Original-matrix index (the key of `traces` and `installed`) of
    /// aggregate `j` of [`Self::minute_tm`].
    pub(super) fn orig(&self, j: usize) -> usize {
        self.partition.as_ref().map_or(j, |p| p.kept[j])
    }

    /// Applies the topology changes due at decision `minute`, before that
    /// minute's placement decision.
    ///
    /// The ordering contract, asserted by the test suite: scripted events
    /// fire first, in the caller's slice order, each *replacing* the mask in
    /// force (so the last one wins); then the cable the cascade model
    /// tripped during the previous minute's replay fails as a *delta* on
    /// top of whatever mask that left — a scripted link-up landing on the
    /// same minute is never clobbered by a snapshot taken when the trip was
    /// emitted. At most one trip is pending: a replay emits at most one, and
    /// it always fires the minute after.
    fn fire_events(&mut self, minute: usize) {
        let _measure = telemetry::span("timeline.measure", "timeline");
        let events = self.events;
        for event in events.iter().filter(|e| e.at_minute == minute) {
            self.apply_mask(event.mask.clone());
        }
        if let Some(cable) = self.pending_trip.take() {
            let mut mask = self.mask.clone();
            mask.fail_cable(self.source.graph(), cable);
            self.apply_mask(mask);
        }
    }

    /// Puts `mask` in force: repairs the source (not rebuilds — only cached
    /// paths crossing failed elements regrow) and recomputes what the
    /// controller can still deliver.
    fn apply_mask(&mut self, mask: FailureMask) {
        let graph = self.source.graph();
        self.repair_events += 1;
        if !self.controller.is_static() {
            let stats = self.source.apply_failure(&mask);
            self.repaired_pairs += stats.repaired_pairs;
            self.kept_pairs += stats.kept_pairs;
            self.partition = (!mask.is_empty()).then(|| partition_routable(graph, self.tm, &mask));
            self.unroutable_fraction =
                self.partition.as_ref().map_or(0.0, |p| p.unroutable_fraction);
        } else {
            // A static controller never consults the source after its
            // initial placement, so there is nothing to repair: it soldiers
            // on and leaks whatever it had routed across failed elements.
            let placement = self.placement.as_ref().expect("static placement is placed in new");
            let mut lost = 0.0;
            for (agg, pl) in self.tm.aggregates().iter().zip(placement.per_aggregate()) {
                for (path, x) in &pl.splits {
                    if *x > 1e-9 && mask.hits_path(graph, path) {
                        lost += agg.volume_mbps * x;
                    }
                }
            }
            self.unroutable_fraction = safe_fraction(lost, self.tm.total_volume_mbps());
        }
        self.mask = mask;
    }

    /// An adaptive controller re-places the routable demand on the history
    /// before this minute (a bounded one merges the result with what is
    /// installed); a static one keeps the placement it has.
    fn decide(&mut self, minute: usize) {
        let _decide = telemetry::span("timeline.decide", "timeline");
        let controller = self.controller;
        if controller.is_static() {
            return;
        }
        self.draining.clear();
        // `minute_tm()` spelled out: the borrow must leave `ctx` free.
        let minute_tm = self.partition.as_ref().map_or(self.tm, |p| &p.tm);
        if minute_tm.is_empty() {
            self.placement = None;
            return;
        }
        let t = self.config.warmup_minutes + minute;
        let history: Vec<AggregateTrace> = (0..minute_tm.aggregates().len())
            .map(|j| self.traces[self.orig(j)].truncated(t))
            .collect();
        let candidate = controller
            .scheme
            .place_with_history(self.source, minute_tm, &history, &mut self.ctx)
            .expect("adaptive placement");
        self.placement = Some(if controller.mode == Mode::Bounded {
            let (merged, retired) = self.merge_bounded(&predict_volumes(&history), &candidate);
            self.draining = retired;
            merged
        } else {
            candidate
        });
    }

    /// Pushes the placement in force to the switches and returns the churn
    /// that cost, measured against what was installed. The initial install
    /// (minute 0) is the cost of turning the network on, not churn; static
    /// controllers never churn.
    fn install(&mut self, minute: usize) -> PlacementDelta {
        let _install = telemetry::span("timeline.install", "timeline");
        let mut churn = PlacementDelta::default();
        if self.controller.is_static() {
            return churn;
        }
        let Some(placement) = &self.placement else { return churn };
        for (j, new) in placement.per_aggregate().iter().enumerate() {
            let volume = self.minute_tm().aggregates()[j].volume_mbps;
            let orig = self.orig(j);
            let slot = &mut self.installed[orig];
            if slot.is_some() || minute > 0 {
                churn.accumulate(&PlacementDelta::of_aggregate(slot.as_ref(), new, volume));
            }
            *slot = Some(new.clone());
        }
        churn
    }

    /// Replays the minute's actual 100 ms samples over the placement in
    /// force, runs every surviving link's queue, and lets the cascade model
    /// pick the cable to trip. Returns the worst realized queueing delay
    /// (ms) and the number of links that ever exceeded capacity.
    fn replay(&mut self, minute: usize) -> (f64, usize) {
        let graph = self.source.graph();
        let t = self.config.warmup_minutes + minute;
        let bins = self.traces[0].bins_per_minute();
        let mut per_link_load = vec![vec![0.0f64; bins]; graph.link_count()];
        // Make-before-break drain: an aggregate in transition carries
        // ramp_up[bin] of its traffic on the new splits and the rest on the
        // retiring ones — the old paths' capacity stays claimed until the
        // drain completes, no bin is double-charged. Everything else rides
        // its splits at weight 1, and `(s * x) * 1.0` is exact, so runs
        // without transitions replay bit-for-bit as if unweighted.
        let steady = vec![1.0f64; bins];
        let ramp_up: Vec<f64> = (0..bins).map(|bin| (bin + 1) as f64 / bins as f64).collect();
        let ramp_down: Vec<f64> = ramp_up.iter().map(|up| 1.0 - up).collect();
        let mut charge = |splits: &[(Path, f64)], samples: &[f64], weights: &[f64]| {
            for (path, x) in splits {
                if *x <= 1e-9 {
                    continue;
                }
                if self.mask.hits_path(graph, path) {
                    // Lost traffic, counted in `unroutable_fraction`. Only
                    // a static placement can send any: adaptive ones are
                    // built from the repaired source.
                    debug_assert!(
                        self.controller.is_static(),
                        "adaptive placement routed over a failed element"
                    );
                    continue;
                }
                for &l in path.links() {
                    let row = &mut per_link_load[l.idx()];
                    for ((load, &s), &w) in row.iter_mut().zip(samples).zip(weights) {
                        *load += s * x * w;
                    }
                }
            }
        };
        let mut draining = self.draining.iter().peekable();
        for (j, new) in self.placement.iter().flat_map(|p| p.per_aggregate()).enumerate() {
            let samples = self.traces[self.orig(j)].samples(t);
            match draining.next_if(|(dj, _)| *dj == j) {
                None => charge(&new.splits, samples, &steady),
                Some((_, old)) => {
                    charge(&new.splits, samples, &ramp_up);
                    charge(&old.splits, samples, &ramp_down);
                }
            }
        }

        let mut worst_queue_ms = 0.0f64;
        let mut overloaded_links = 0usize;
        // The cascade candidate: the worst cable sustaining minute-mean
        // load above the trip threshold (per-bin bursts queue, they don't
        // blow cables).
        let cascade = self.config.cascade.as_ref();
        let mut trip: Option<LinkId> = None;
        let mut trip_over = cascade.map_or(f64::INFINITY, |c| c.trip_overload);
        let queue_trigger_ms =
            if self.controller.mode == Mode::Bounded { QUEUE_TRIGGER_MS } else { f64::INFINITY };
        for l in graph.link_ids() {
            self.queued_links[l.idx()] = false;
            let cap = self.mask.effective_capacity(graph, l);
            if cap <= 0.0 {
                continue; // downed link: carries nothing (filtered above)
            }
            let mut backlog_mb = 0.0f64;
            let mut link_queue_ms = 0.0f64;
            let mut overloaded = false;
            let mut sum = 0.0f64;
            for &load in &per_link_load[l.idx()] {
                backlog_mb = (backlog_mb + (load - cap) * 0.1).max(0.0);
                link_queue_ms = link_queue_ms.max(backlog_mb / cap * 1000.0);
                overloaded |= load > cap;
                sum += load;
            }
            worst_queue_ms = worst_queue_ms.max(link_queue_ms);
            self.queued_links[l.idx()] = link_queue_ms > queue_trigger_ms;
            overloaded_links += usize::from(overloaded);
            let over = sum / bins as f64 / cap - 1.0;
            if over > trip_over {
                trip = Some(l);
                trip_over = over;
            }
        }
        // The overloaded cable blows next minute — unless the run's trip
        // allowance is spent or there is no next minute to fire it in.
        let max_trips = cascade.map_or(0, |c| c.max_trips);
        if trip.is_some() && self.cascade_trips < max_trips && minute + 1 < self.config.minutes {
            self.pending_trip = trip;
            self.cascade_trips += 1;
        }
        (worst_queue_ms, overloaded_links)
    }
}
