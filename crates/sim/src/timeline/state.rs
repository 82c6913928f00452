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
//! - `decide` reads `traces` up to the minute — every minute's mean and
//!   peak, and the samples of only the last minute before it — with
//!   `partition`, `installed`, `queued_links` and `mask`; writes
//!   `placement`, `draining` and `ctx`.
//! - `install` reads `placement` and `partition`; writes `installed` and
//!   returns the minute's [`PlacementDelta`].
//! - `replay` reads the minute's samples in `traces`, `placement`,
//!   `draining` and `mask`; writes `queued_links`, `pending_trip`,
//!   `cascade_trips` and its own `replay` buffers, and returns the realized
//!   queueing.
//!
//! One [`PathSource`] and one warm-start [`SolveContext`] persist across
//! the whole run, so successive minutes restart from each other's LP bases
//! — the reason the cycle is fast enough to run every minute — and a
//! topology change *repairs* the source (only cached paths crossing failed
//! elements regrow under the mask) instead of rebuilding it, so recovery
//! minutes restart from pre-failure bases. `decision_ms` times the first
//! three steps; replay models the network, not the controller.
//!
//! ## Who synthesizes which minute when
//!
//! The ground truth is streamed, not made up front. `ControllerState::new`
//! starts one `TraceGenerator` per aggregate, which allocates two minutes'
//! sample buffers on the calling thread, and synthesizes only the warm-up
//! minutes, on every worker (`lowlat_core::default_workers()`: the calling
//! thread and `workers − 1` helpers). `step(t)` then overlaps minute
//! `warmup + t` with the decision that precedes it: the helpers start on it
//! as the decision window opens, the calling thread runs `fire_events`,
//! `decide` and `install` — which read the history *before* that minute —
//! and then joins the aggregates still unclaimed and waits for the helpers,
//! and the minute is appended to every trace before `replay` reads it. So
//! `decision_ms` times the controller alone, whatever the worker count (one
//! worker writes the minute after the window); a static controller, whose
//! window is empty, writes the minute on every worker as the warm-up does.
//! Each aggregate draws from its own stream, so no bit depends on which
//! thread wrote which minute.
//!
//! A trace keeps the samples of one minute, the last it appended
//! (`lowlat_traffic::trace::SAMPLE_WINDOW`): the replay reads that minute
//! and the next decision reads it as the last minute of its history, and
//! nothing reads an earlier minute's samples. So `append_ready` retires the
//! minute before it and hands its buffer back to the aggregate's generator,
//! which writes the next minute into it. The run holds two sample buffers
//! per aggregate — the window and the minute being written — whatever its
//! length, no helper thread allocates one, and a minute after the warm-up
//! allocates none. The warm-up is one synthesis call per aggregate that
//! keeps the samples of its last minute only.
//!
//! In a trace, `timeline.synthesize` spans mark each thread's share of a
//! minute and `timeline.await_synthesis` the calling thread's time after
//! the window: when it holds no `timeline.synthesize` child and is short,
//! the decision hid the minute.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use lowlat_core::eval::PlacementEval;
use lowlat_core::failure::{partition_routable, RoutablePartition};
use lowlat_core::placement::{AggregatePlacement, PlacementDelta};
use lowlat_core::schemes::{predict_volumes, SolveContext};
use lowlat_core::{PathSource, Placement};
use lowlat_netgraph::{all_pairs_delays, FailureMask, LinkId};
use lowlat_telemetry as telemetry;
use lowlat_tmgen::TrafficMatrix;
use lowlat_traffic::{
    multiplex, spread_seed, AggregateTrace, TraceGenConfig, TraceGenerator, TraceMinute,
};

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

/// One aggregate's ground truth in the making: the generator that writes
/// its minutes and the minutes it wrote that its trace has yet to append.
struct Stream {
    /// Holds the buffer the next minute is written into.
    generator: TraceGenerator,
    /// Room for the warm-up's minutes, reserved on the run's thread.
    ready: Vec<TraceMinute>,
}

/// What `replay` sums a minute's link loads into, kept for the run: a
/// `bins`-long load row per link, zeroed each minute, and the
/// make-before-break weights per bin.
#[derive(Default)]
struct ReplayBuffers {
    per_link_load: Vec<Vec<f64>>,
    /// Weight 1 in every bin: an aggregate not in transition.
    steady: Vec<f64>,
    /// The share of a draining aggregate on its new splits, bin by bin.
    ramp_up: Vec<f64>,
    /// The share left on the splits it retires.
    ramp_down: Vec<f64>,
}

impl ReplayBuffers {
    fn new(links: usize, bins: usize) -> Self {
        let ramp_up: Vec<f64> = (0..bins).map(|bin| (bin + 1) as f64 / bins as f64).collect();
        ReplayBuffers {
            per_link_load: vec![vec![0.0; bins]; links],
            steady: vec![1.0; bins],
            ramp_down: ramp_up.iter().map(|up| 1.0 - up).collect(),
            ramp_up,
        }
    }
}

/// Writes the next `minutes` minutes of aggregates claimed off `next`, one
/// aggregate at a time, until none is left: the body of every thread that
/// synthesizes. Each aggregate draws from its own stream, so which thread
/// writes it does not change a bit. The span opens with the first claim.
fn synthesize(streams: &[Mutex<Stream>], next: &AtomicUsize, minutes: usize) {
    let mut span = None;
    // Relaxed: the counter publishes nothing but the index itself; the
    // minutes travel through the stream's lock and the threads' join.
    while let Some(stream) = streams.get(next.fetch_add(1, Ordering::Relaxed)) {
        span.get_or_insert_with(|| telemetry::span("timeline.synthesize", "timeline"));
        let mut stream = stream.lock().expect("a synthesizing thread panicked");
        let Stream { generator, ready } = &mut *stream;
        generator.write(minutes, ready);
    }
}

/// Writes the next `minutes` minutes of every stream on `helpers` threads
/// and the calling thread, which runs `window` first and then joins in
/// under a `timeline.await_synthesis` span: the span is the time the
/// synthesis kept the caller waiting after `window`. Returns what `window`
/// returned once every minute is written.
///
/// # Panics
/// Re-raises a panic of `window` or of a helper.
fn synthesize_beside<R>(
    streams: &[Mutex<Stream>],
    helpers: usize,
    minutes: usize,
    window: impl FnOnce() -> R,
) -> R {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> =
            (0..helpers).map(|_| scope.spawn(|| synthesize(streams, &next, minutes))).collect();
        let out = window();
        let _await = telemetry::span("timeline.await_synthesis", "timeline");
        synthesize(streams, &next, minutes);
        for handle in handles {
            handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        }
        out
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
    /// Threads that synthesize traffic, the calling one included.
    workers: usize,
    /// Ground-truth traffic: one evolving trace per aggregate of `tm`, mean
    /// anchored at its matrix volume (modulated by the diurnal cycle). It
    /// holds the minutes up to the one being decided, with the samples of
    /// the last one only; `step` appends that minute before its replay.
    pub(super) traces: Vec<AggregateTrace>,
    /// What writes `traces`' next minutes, one stream per aggregate.
    streams: Vec<Mutex<Stream>>,
    /// What `replay` writes, kept across minutes.
    replay: ReplayBuffers,
    /// One warm-start context for the whole run: the §5 cycle's speed comes
    /// from successive minutes reusing paths and LP bases.
    ctx: SolveContext,
    /// The intact network's all-pairs shortest delays, computed once a
    /// run: the baseline of every minute's `latency_stretch`.
    intact_delays: Vec<Vec<f64>>,
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
    /// Validates the run, starts every aggregate's trace and synthesizes
    /// the warm-up minutes on `workers` threads.
    pub(super) fn new(
        source: &'a dyn PathSource,
        tm: &'a TrafficMatrix,
        controller: &'a Controller,
        config: &'a TimelineConfig,
        events: &'a [TimelineEvent],
        workers: usize,
    ) -> Self {
        // Checked here, on the caller's thread: a bad field panics with its
        // name before any synthesis thread starts.
        if let Err(e) = config.validate() {
            panic!("invalid timeline config: {e}");
        }
        assert!(!tm.is_empty());
        assert!(
            events.iter().all(|e| e.at_minute < config.minutes),
            "event minute out of 0..{}",
            config.minutes
        );
        // A root span of its own: against millisecond decisions the warm-up
        // is a visible share of a short run. The run's sample buffers, two
        // per aggregate, are allocated here, on the calling thread, whichever
        // thread writes into them, and are handed from trace to generator
        // for the rest of the run: buffers a helper allocated and this thread
        // freed would spread the run over the allocator's per-thread arenas,
        // and peak RSS would climb with the pass count. Aggregate `i` draws
        // from its own stream (`spread_seed(seed, i)`), so the traces are the
        // same bits whatever the worker count.
        let synthesis = telemetry::span("timeline.synthesize", "timeline");
        let (streams, traces): (Vec<_>, Vec<_>) = tm
            .aggregates()
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let (generator, trace) = TraceGenerator::start(&TraceGenConfig {
                    mean_mbps: a.volume_mbps,
                    cv: config.cv,
                    minutes: config.warmup_minutes + config.minutes,
                    seed: spread_seed(config.seed, i as u64),
                    diurnal_amplitude: config.diurnal_amplitude,
                    diurnal_period_minutes: config.diurnal_period,
                    ..Default::default()
                });
                let ready = Vec::with_capacity(config.warmup_minutes);
                (Mutex::new(Stream { generator, ready }), trace)
            })
            .unzip();
        let workers = workers.clamp(1, streams.len());
        let bins = traces[0].bins_per_minute();
        synthesize_beside(&streams, workers - 1, config.warmup_minutes, || ());
        drop(synthesis);
        let placement = controller
            .is_static()
            .then(|| controller.scheme.place(source, tm).expect("static placement"));
        let mut state = ControllerState {
            source,
            tm,
            controller,
            config,
            events,
            workers,
            traces,
            streams,
            replay: ReplayBuffers::new(source.graph().link_count(), bins),
            ctx: SolveContext::new(),
            intact_delays: all_pairs_delays(source.graph()),
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
        };
        state.append_ready();
        state
    }

    /// One decision minute (0-based, warm-up excluded): fire the minute's
    /// events, decide, install — the window `decision_ms` times — then
    /// replay the minute's actual traffic over the result. The minute's
    /// traffic is synthesized on helper threads while the window runs.
    pub(super) fn step(&mut self, minute: usize) -> MinuteReport {
        // Per-minute root span; everything below nests under it. The
        // decision window keeps its own always-on timer because its
        // duration *is* the `decision_ms` column — one measurement feeds
        // both the TSV and the trace.
        let _minute = telemetry::span("timeline.minute", "timeline");
        // The window reads the history before the minute and the replay
        // reads the minute, so the minute's synthesis and the window touch
        // disjoint state and overlap; the helpers start before the timer so
        // that `decision_ms` times the controller alone.
        let streams = std::mem::take(&mut self.streams);
        let (decision_ms, churn) = synthesize_beside(&streams, self.workers - 1, 1, || {
            let decision = telemetry::timed_span("timeline.decision", "timeline");
            self.fire_events(minute);
            self.decide(minute);
            let churn = self.install(minute);
            (decision.finish_ms(), churn)
        });
        self.streams = streams;
        self.append_ready();
        let _replay = telemetry::span("timeline.replay", "timeline");
        let (worst_queue_ms, overloaded_links) = self.replay(minute);
        let latency_stretch = self.placement.as_ref().map_or(1.0, |placement| {
            let (graph, tm) = (self.source.graph(), self.minute_tm());
            PlacementEval::under(graph, &self.intact_delays, &self.mask, tm, placement)
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

    /// Appends every minute the streams wrote to its aggregate's trace,
    /// retires the samples of the minute before the last and hands its
    /// buffer back to the stream, and counts the samples written.
    fn append_ready(&mut self) {
        let mut samples = 0;
        for (trace, stream) in self.traces.iter_mut().zip(&mut self.streams) {
            let stream = stream.get_mut().expect("a synthesizing thread panicked");
            for minute in stream.ready.drain(..) {
                trace.push_minute(minute);
                samples += trace.bins_per_minute();
            }
            trace.retire_samples(&mut stream.generator);
        }
        telemetry::counter_add("timeline.samples_synthesized", samples as u64);
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
                for (path, x) in pl.live_splits() {
                    if mask.hits_path(graph, path) {
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
    /// force, runs every surviving link's queue (test B's fluid queue), and
    /// lets the cascade model pick the cable to trip. Returns the worst
    /// realized queueing delay (ms) and the number of links that ever
    /// exceeded capacity.
    fn replay(&mut self, minute: usize) -> (f64, usize) {
        let graph = self.source.graph();
        let t = self.config.warmup_minutes + minute;
        let bins = self.traces[0].bins_per_minute();
        let bin_s = 60.0 / bins as f64;
        // Taken for the minute so that `charge` can write it while `self`
        // is read, and put back at the end.
        let mut buffers = std::mem::take(&mut self.replay);
        let ReplayBuffers { per_link_load, steady, ramp_up, ramp_down } = &mut buffers;
        per_link_load.iter_mut().for_each(|row| row.fill(0.0));
        // Make-before-break drain: an aggregate in transition carries
        // ramp_up[bin] of its traffic on the new splits and the rest on the
        // retiring ones — the old paths' capacity stays claimed until the
        // drain completes, no bin is double-charged. Everything else rides
        // its splits at weight 1, and `(s * x) * 1.0` is exact, so runs
        // without transitions replay bit-for-bit as if unweighted.
        let mut charge = |placement: &AggregatePlacement, samples: &[f64], weights: &[f64]| {
            for (path, x) in placement.live_splits() {
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
                None => charge(new, samples, steady),
                Some((_, old)) => {
                    charge(new, samples, ramp_up);
                    charge(old, samples, ramp_down);
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
            let loads = &per_link_load[l.idx()];
            let link_queue_ms = multiplex::worst_queue_ms(loads, cap, bin_s);
            let overloaded = loads.iter().any(|&load| load > cap);
            let sum = loads.iter().fold(0.0f64, |sum, &load| sum + load);
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
        self.replay = buffers;
        (worst_queue_ms, overloaded_links)
    }
}
