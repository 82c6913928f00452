//! Minute-by-minute controller simulation — the §5 deployment cycle
//! (measure demand → calculate paths → install) run against evolving,
//! bursty traffic, with *realized* queueing measured after the fact.
//!
//! This closes the loop the paper's figures leave implicit: Figures 12-14
//! argue LDR's placements leave the right headroom; this simulator replays
//! actual 100 ms traffic over each minute's placement and reports how much
//! queueing materialized, so the headroom claims can be checked end to end
//! (and fault-injected with arbitrarily bursty traces).
//!
//! Any [`registry`](lowlat_core::schemes::registry) scheme can drive the loop: a [`Controller`] wraps a
//! scheme either *adaptively* (re-placed every minute from the measured
//! history — LDR runs its full Figure-14 loop, everything else re-places
//! Algorithm-1 predicted demands) or *statically* (placed once up front,
//! the OSPF-style baseline).
//!
//! One decision a file:
//!
//! - `controller`: which scheme drives the loop and in which mode
//!   ([`Controller`], parsed from a sweep spec);
//! - `state`: the run's state and the four steps that advance it a minute;
//! - `bounded`: the churn policy of a `bounded:` controller.
//!
//! ## Failure events and cascades
//!
//! Each [`TimelineEvent`] puts a complete [`FailureMask`] in force from a
//! decision minute (an empty mask models repair/link-up). Adaptive
//! controllers re-place the demand that survives; static baselines keep
//! their placement, and whatever they had routed over failed elements is
//! counted lost — exactly the availability argument for the adaptive cycle.
//!
//! [`TimelineConfig::cascade`] arms the failure mode scripted events cannot
//! express: overload *causing* the next failure. After a minute's replay,
//! if the worst surviving link's minute-mean load exceeds its effective
//! capacity by more than [`CascadeConfig::trip_overload`], that cable trips
//! at the next decision minute, up to [`CascadeConfig::max_trips`] trips
//! per run. Trips are counted in [`TimelineOutcome::cascade_trips`] and
//! flow through the same repair/re-place machinery as scripted events, so
//! a brown-out that concentrates traffic can be watched snowballing into an
//! outage. How a trip and a scripted event due the same minute combine is
//! `fire_events`' contract, stated there (`state`).

mod bounded;
mod controller;
mod state;

use lowlat_core::pathset::PathCache;
use lowlat_core::{default_workers, PathSource};
use lowlat_netgraph::{FailureMask, RangeError};
use lowlat_tmgen::TrafficMatrix;
use lowlat_topology::Topology;
use lowlat_traffic::TraceGenConfig;

use crate::stats::median_of;
pub use controller::{Controller, ControllerParseError};
use state::ControllerState;

/// Default decision minutes per run.
pub const DEFAULT_MINUTES: usize = 10;
/// Default history minutes before the first decision.
pub const DEFAULT_WARMUP_MINUTES: usize = 5;
/// Default burstiness (coefficient of variation) of the synthetic traffic.
pub const DEFAULT_CV: f64 = 0.3;
/// Default RNG seed for trace synthesis.
pub const DEFAULT_SEED: u64 = 99;

/// Timeline parameters.
#[derive(Clone, Debug)]
pub struct TimelineConfig {
    /// Decision minutes simulated (after warm-up).
    pub minutes: usize,
    /// History minutes available before the first decision.
    pub warmup_minutes: usize,
    /// Burstiness of the synthetic traffic (coefficient of variation).
    pub cv: f64,
    /// RNG seed for trace synthesis.
    pub seed: u64,
    /// Diurnal amplitude of the minute means, `0.0..1.0`. 0 (the default)
    /// keeps traffic stationary; 0.3 swings each aggregate's mean ±30%
    /// over a cycle — the long-horizon driver for bounded-churn runs.
    pub diurnal_amplitude: f64,
    /// Diurnal period in minutes (warm-up included), ignored while the
    /// amplitude is 0.
    pub diurnal_period: usize,
    /// The load-induced cascade model; `None` (the default) leaves it
    /// unarmed, and only scripted events change the topology.
    pub cascade: Option<CascadeConfig>,
}

impl Default for TimelineConfig {
    fn default() -> Self {
        TimelineConfig {
            minutes: DEFAULT_MINUTES,
            warmup_minutes: DEFAULT_WARMUP_MINUTES,
            cv: DEFAULT_CV,
            seed: DEFAULT_SEED,
            diurnal_amplitude: 0.0,
            diurnal_period: 1440,
            cascade: None,
        }
    }
}

impl TimelineConfig {
    /// Checks every field a run reads against the range it needs, and
    /// returns the first one outside it. [`simulate_with_events_on`] calls
    /// this before it synthesizes anything and panics with the error's
    /// message; a binary can call it first and exit with its own.
    pub fn validate(&self) -> Result<(), RangeError> {
        RangeError::check(self.minutes >= 1, "minutes", self.minutes, "at least 1")?;
        let warmup = self.warmup_minutes;
        RangeError::check(warmup >= 2, "warmup_minutes", warmup, "at least 2")?;
        // The run synthesizes `warmup_minutes + minutes` of traffic.
        RangeError::check(
            warmup.checked_add(self.minutes).is_some(),
            "minutes",
            self.minutes,
            "a count whose sum with warmup_minutes fits a usize",
        )?;
        let cv_in_range = self.cv.is_finite() && self.cv >= 0.0;
        RangeError::check(cv_in_range, "cv", self.cv, "a finite value >= 0")?;
        let amplitude = self.diurnal_amplitude;
        let in_range = (0.0..1.0).contains(&amplitude);
        RangeError::check(in_range, "diurnal_amplitude", amplitude, "a value in [0, 1)")?;
        RangeError::check(
            amplitude == 0.0 || self.diurnal_period >= 2,
            "diurnal_period",
            self.diurnal_period,
            "at least 2 minutes while the amplitude is not 0",
        )?;
        // The trace generator's door holds the rest of what it reads (`cv`'s
        // upper bound).
        TraceGenConfig {
            cv: self.cv,
            diurnal_amplitude: amplitude,
            diurnal_period_minutes: self.diurnal_period,
            ..Default::default()
        }
        .validate()?;
        // `None` disarms the cascade; a threshold no load exceeds must not,
        // and one at or below -1 trips cables that carry (next to) nothing.
        let trip = self.cascade.as_ref().map_or(0.0, |c| c.trip_overload);
        let trip_in_range = trip.is_finite() && trip > -1.0;
        RangeError::check(trip_in_range, "trip_overload", trip, "a finite value > -1")
    }
}

/// A topology change taking effect at a decision minute: the failure mask
/// in force from that minute on. An empty mask restores the intact
/// topology (link-up), so an outage window is two events.
#[derive(Clone, Debug)]
pub struct TimelineEvent {
    /// 0-based decision-minute index (warm-up excluded) at which the mask
    /// takes effect — before that minute's placement decision.
    pub at_minute: usize,
    /// The complete mask in force from this minute (not a delta).
    pub mask: FailureMask,
}

/// The load-induced cascade model ([`TimelineConfig::cascade`]): when a
/// surviving link's minute-mean load exceeds `(1 + trip_overload)` times
/// its effective capacity, its cable trips at the next decision minute.
/// One trip per minute (the worst-overloaded cable), at most `max_trips`
/// per run.
#[derive(Clone, Debug)]
pub struct CascadeConfig {
    /// Overload fraction (load / effective capacity − 1) above which the
    /// worst link's cable trips. 0.2 means sustained load 20% over
    /// effective capacity blows the cable, −0.1 that load over 90% of it
    /// does. Finite and above −1 ([`TimelineConfig::validate`]).
    pub trip_overload: f64,
    /// Upper bound on cascade trips per run — the breaker on the breaker,
    /// so a hopeless overload cannot fail every cable in the network.
    pub max_trips: usize,
}

impl Default for CascadeConfig {
    fn default() -> Self {
        CascadeConfig { trip_overload: 0.2, max_trips: 4 }
    }
}

/// What one simulated minute looked like.
#[derive(Clone, Debug)]
pub struct MinuteReport {
    /// Worst realized queueing delay over any surviving link this minute
    /// (ms).
    pub worst_queue_ms: f64,
    /// Links whose 100 ms load ever exceeded (effective) capacity.
    pub overloaded_links: usize,
    /// Propagation latency stretch of the placement in force. Adaptive
    /// controllers are judged on the routable demand they re-placed (1.0
    /// when nothing was routable); static placements on the full matrix —
    /// including traffic currently being lost, whose share is reported in
    /// `unroutable_fraction`, not discounted here.
    pub latency_stretch: f64,
    /// Volume fraction of demand not delivered this minute: disconnected
    /// pairs for adaptive controllers, plus traffic a static placement
    /// kept sending into failed elements.
    pub unroutable_fraction: f64,
    /// Wall-clock of this minute's decision: event repair + partition +
    /// placement (+ bounded merge). Replay is excluded — it models the
    /// network, not the controller.
    pub decision_ms: f64,
    /// Switch operations this minute's decision pushed: path installs +
    /// uninstalls + split re-programs vs the state already installed.
    /// Minute 0's initial install is free; static controllers never churn.
    pub paths_changed: usize,
    /// Fraction of the re-decided volume that moved between paths this
    /// minute (0 when nothing changed or nothing was compared).
    pub moved_volume_fraction: f64,
}

/// Result of a timeline run.
#[derive(Clone, Debug)]
pub struct TimelineOutcome {
    /// One report per simulated minute.
    pub minutes: Vec<MinuteReport>,
    /// LP solves that warm-started from a previous minute's (or growth
    /// round's) basis, over the total — the §5 hot-path telemetry.
    pub lp_warm_hits: usize,
    /// Total LP solves the controller issued.
    pub lp_solves: usize,
    /// Topology events applied (mask changes, including link-ups).
    pub repair_events: usize,
    /// Cached pairs invalidated and regrown across all repairs (0 for
    /// static controllers, which never consult the cache after placing).
    pub repaired_pairs: usize,
    /// Cached pairs that survived repairs untouched (0 for static
    /// controllers).
    pub kept_pairs: usize,
    /// Load-induced cable trips emitted by the cascade model (always 0
    /// while [`TimelineConfig::cascade`] is `None`). Each trip also counts
    /// as a repair event once its failure takes effect.
    pub cascade_trips: usize,
}

impl TimelineOutcome {
    /// Worst queueing delay over the whole run.
    pub fn worst_queue_ms(&self) -> f64 {
        self.minutes.iter().map(|m| m.worst_queue_ms).fold(0.0, f64::max)
    }

    /// Mean latency stretch across minutes.
    pub fn mean_stretch(&self) -> f64 {
        self.minutes.iter().map(|m| m.latency_stretch).sum::<f64>()
            / self.minutes.len().max(1) as f64
    }

    /// Minutes with any queueing above the threshold.
    pub fn minutes_with_queue_above(&self, threshold_ms: f64) -> usize {
        self.minutes.iter().filter(|m| m.worst_queue_ms > threshold_ms).count()
    }

    /// Worst per-minute undelivered-demand fraction.
    pub fn max_unroutable_fraction(&self) -> f64 {
        self.minutes.iter().map(|m| m.unroutable_fraction).fold(0.0, f64::max)
    }

    /// Total switch operations over the run — the churn the network
    /// actually paid.
    pub fn total_paths_changed(&self) -> usize {
        self.minutes.iter().map(|m| m.paths_changed).sum()
    }

    /// Median per-minute decision latency (ms, nearest rank; 0 for an empty
    /// run).
    pub fn median_decision_ms(&self) -> f64 {
        if self.minutes.is_empty() {
            return 0.0;
        }
        median_of(&self.minutes.iter().map(|m| m.decision_ms).collect::<Vec<_>>())
    }

    /// Mean per-minute moved-volume fraction.
    pub fn mean_moved_volume_fraction(&self) -> f64 {
        self.minutes.iter().map(|m| m.moved_volume_fraction).sum::<f64>()
            / self.minutes.len().max(1) as f64
    }
}

/// Runs the controller cycle over a private flat [`PathCache`] with no
/// topology events: each minute the controller re-places traffic using only
/// the history seen so far, then the *actual* next minute of traffic is
/// replayed over the placement.
///
/// # Panics
/// As [`simulate_with_events_on`].
pub fn simulate(
    topology: &Topology,
    tm: &TrafficMatrix,
    controller: &Controller,
    config: &TimelineConfig,
) -> TimelineOutcome {
    simulate_with_events_on(&PathCache::new(topology.graph()), tm, controller, config, &[])
}

/// The controller cycle through a caller-provided [`PathSource`] — a flat
/// [`PathCache`], or the partitioned engine at Internet scale — with
/// failure events interleaved into the minute loop (see the module docs:
/// one state, four steps per decision minute). The repair/re-place cycle
/// uses the source's failure plumbing (`apply_failure` + warm
/// re-placement), so adaptive and bounded-churn control run unchanged on
/// either backend.
///
/// The source must be quiescent (no concurrent queries) for the duration
/// of the run: event minutes mutate its failure state in place.
///
/// # Panics
/// Panics if the matrix is empty, the config fails
/// [`TimelineConfig::validate`], an event's minute is out of range, or the
/// wrapped scheme fails to place (a solver failure, not congestion).
pub fn simulate_with_events_on(
    source: &dyn PathSource,
    tm: &TrafficMatrix,
    controller: &Controller,
    config: &TimelineConfig,
    events: &[TimelineEvent],
) -> TimelineOutcome {
    let mut state = ControllerState::new(source, tm, controller, config, events, default_workers());
    let minutes = (0..config.minutes).map(|minute| state.step(minute)).collect();
    state.finish(minutes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowlat_core::failure::single_link_failures;
    use lowlat_core::scale::ScaleToLoad;
    use lowlat_telemetry as telemetry;
    use lowlat_tmgen::{Aggregate, GravityTmGen, TmGenConfig};
    use lowlat_topology::zoo::named;
    use lowlat_topology::{GeoPoint, PopId, TopologyBuilder};
    use lowlat_traffic::{spread_seed, synthesize, AggregateTrace, TraceGenConfig};

    use super::state::{safe_fraction, ControllerState};

    fn setup() -> (Topology, TrafficMatrix) {
        let topo = named::abilene();
        let tm =
            GravityTmGen::new(TmGenConfig::default()).generate(&topo, 0).scaled_to_load(&topo, 0.7);
        (topo, tm)
    }

    #[test]
    fn ldr_controller_bounds_queueing_on_smooth_traffic() {
        let (topo, tm) = setup();
        let cfg = TimelineConfig {
            minutes: 4,
            warmup_minutes: 3,
            cv: 0.1,
            seed: 1,
            ..Default::default()
        };
        let out = simulate(&topo, &tm, &Controller::ldr(), &cfg);
        assert_eq!(out.minutes.len(), 4);
        // Smooth traffic + LDR headroom: queueing stays near the allowance.
        assert!(
            out.worst_queue_ms() <= 50.0,
            "LDR should bound queueing, saw {} ms",
            out.worst_queue_ms()
        );
        assert!(out.mean_stretch() >= 1.0 - 1e-9);
        // No events: nothing repaired, nothing lost.
        assert_eq!(out.repair_events, 0);
        assert_eq!(out.max_unroutable_fraction(), 0.0);
    }

    #[test]
    fn controller_runs_unchanged_on_the_partitioned_engine() {
        // The deployment cycle through `&dyn PathSource`: on a one-leaf
        // network the partitioned engine prices exactly the flat cache's
        // columns, so an eventful adaptive run must agree minute-for-minute
        // (decision_ms, the one wall-clock field, excluded).
        use lowlat_core::hier::{EngineConfig, PartitionedPathEngine};
        let (topo, tm) = setup();
        let cfg = TimelineConfig {
            minutes: 4,
            warmup_minutes: 2,
            cv: 0.2,
            seed: 9,
            ..Default::default()
        };
        let scenario = single_link_failures(&topo).into_iter().next().expect("a cable");
        let events = vec![TimelineEvent { at_minute: 1, mask: scenario.mask(&topo) }];
        let cache = PathCache::new(topo.graph());
        let flat = simulate_with_events_on(&cache, &tm, &Controller::ldr(), &cfg, &events);
        let engine = PartitionedPathEngine::build(topo.graph(), &EngineConfig::default());
        let part = simulate_with_events_on(&engine, &tm, &Controller::ldr(), &cfg, &events);
        assert_eq!(flat.minutes.len(), part.minutes.len());
        for (a, b) in flat.minutes.iter().zip(&part.minutes) {
            assert_eq!(a.worst_queue_ms, b.worst_queue_ms);
            assert_eq!(a.latency_stretch, b.latency_stretch);
            assert_eq!(a.unroutable_fraction, b.unroutable_fraction);
            assert_eq!(a.paths_changed, b.paths_changed);
        }
        assert_eq!(flat.repair_events, part.repair_events);
        assert_eq!((flat.repaired_pairs, flat.kept_pairs), (part.repaired_pairs, part.kept_pairs));
    }

    #[test]
    fn telemetry_does_not_change_the_controller_outcome() {
        // The observability layer is a write-only side channel: every
        // deterministic MinuteReport field must be identical with telemetry
        // off and on. Only decision_ms (wall-clock) may differ.
        let (topo, tm) = setup();
        let cfg = TimelineConfig {
            minutes: 3,
            warmup_minutes: 2,
            cv: 0.2,
            seed: 5,
            ..Default::default()
        };
        let off = simulate(&topo, &tm, &Controller::ldr(), &cfg);
        let before = telemetry::snapshot();
        telemetry::set_enabled(true);
        let on = simulate(&topo, &tm, &Controller::ldr(), &cfg);
        telemetry::set_enabled(false);
        let snap = telemetry::snapshot();
        assert_eq!(off.minutes.len(), on.minutes.len());
        for (a, b) in off.minutes.iter().zip(&on.minutes) {
            assert_eq!(a.worst_queue_ms, b.worst_queue_ms);
            assert_eq!(a.overloaded_links, b.overloaded_links);
            assert_eq!(a.latency_stretch, b.latency_stretch);
            assert_eq!(a.unroutable_fraction, b.unroutable_fraction);
            assert_eq!(a.paths_changed, b.paths_changed);
            assert_eq!(a.moved_volume_fraction, b.moved_volume_fraction);
            assert!(a.decision_ms >= 0.0 && b.decision_ms >= 0.0);
        }
        assert_eq!((off.lp_solves, off.lp_warm_hits), (on.lp_solves, on.lp_warm_hits));
        assert_eq!(
            (off.repair_events, off.repaired_pairs, off.kept_pairs),
            (on.repair_events, on.repaired_pairs, on.kept_pairs)
        );
        // The instrumented run actually recorded something.
        assert!(snap.counter("telemetry.spans") > 0, "spans recorded while enabled");
        // ... and `lp.*`, the one account of the LPs, saw every solve the
        // controller's context counted (a process-global registry: tests
        // running beside this one can only add).
        let (solved, warm) = (on.lp_solves as u64, on.lp_warm_hits as u64);
        let delta = |name: &str| snap.counter(name) - before.counter(name);
        assert!(delta("lp.solves") >= solved && delta("lp.warm_hits") >= warm);
        assert!(delta("lp.cold_solves") >= solved - warm);
        assert!(snap.histograms["lp.pivots"].count >= solved);
    }

    #[test]
    fn ldr_beats_static_sp_on_realized_queueing() {
        let (topo, tm) = setup();
        let cfg = TimelineConfig {
            minutes: 4,
            warmup_minutes: 3,
            cv: 0.3,
            seed: 7,
            ..Default::default()
        };
        let ldr = simulate(&topo, &tm, &Controller::ldr(), &cfg);
        let sp = simulate(&topo, &tm, &Controller::static_sp(), &cfg);
        assert!(
            ldr.worst_queue_ms() <= sp.worst_queue_ms() + 1e-9,
            "LDR {} ms vs SP {} ms",
            ldr.worst_queue_ms(),
            sp.worst_queue_ms()
        );
    }

    #[test]
    fn overloaded_static_routing_queues_heavily() {
        // Mean-level overload is what static routing cannot absorb: the
        // same matrix at 1.3x min-cut load must queue far more than at
        // 0.35x. (Burstiness alone is *not* monotone for lognormal noise —
        // higher cv lowers the median load — so the load level is the
        // robust axis to test.)
        let (topo, tm) = setup();
        let cfg = TimelineConfig {
            minutes: 3,
            warmup_minutes: 2,
            cv: 0.2,
            seed: 3,
            ..Default::default()
        };
        let light = simulate(&topo, &tm.scaled(0.5), &Controller::static_sp(), &cfg);
        let heavy = simulate(&topo, &tm.scaled(1.9), &Controller::static_sp(), &cfg);
        assert!(
            heavy.worst_queue_ms() > light.worst_queue_ms() + 10.0,
            "overload must dominate queueing: heavy {} ms vs light {} ms",
            heavy.worst_queue_ms(),
            light.worst_queue_ms()
        );
        assert!(heavy.minutes_with_queue_above(10.0) > 0);
    }

    #[test]
    fn any_registry_scheme_drives_the_timeline() {
        let (topo, tm) = setup();
        let cfg = TimelineConfig {
            minutes: 2,
            warmup_minutes: 2,
            cv: 0.2,
            seed: 5,
            ..Default::default()
        };
        for spec in ["SP", "ECMP", "B4", "MinMaxK4", "LatOpt", "static:B4"] {
            let controller = Controller::parse(spec).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(controller.name(), spec, "controller names round-trip");
            let out = simulate(&topo, &tm, &controller, &cfg);
            assert_eq!(out.minutes.len(), 2, "{spec} must produce every minute");
            assert!(out.mean_stretch() >= 1.0 - 1e-9, "{spec} stretch sane");
        }
        assert!(Controller::parse("static:nope").is_err());
        assert!(Controller::parse("nope").is_err());
    }

    #[test]
    fn adaptive_lp_controllers_warm_start_across_minutes() {
        let (topo, tm) = setup();
        let cfg = TimelineConfig {
            minutes: 4,
            warmup_minutes: 3,
            cv: 0.2,
            seed: 11,
            ..Default::default()
        };
        let out = simulate(&topo, &tm, &Controller::ldr(), &cfg);
        assert!(out.lp_solves > 0, "LDR solves LPs every minute");
        assert!(
            out.lp_warm_hits > 0,
            "successive minutes must reuse bases: {} hits / {} solves",
            out.lp_warm_hits,
            out.lp_solves
        );
        // Static controllers never touch the per-minute LP context.
        let sp = simulate(&topo, &tm, &Controller::static_sp(), &cfg);
        assert_eq!(sp.lp_solves, 0);
    }

    /// An outage window: the first single-cable failure from minute 1,
    /// repaired at `up_minute`.
    fn outage(topo: &Topology, up_minute: usize) -> Vec<TimelineEvent> {
        let scenario = &single_link_failures(topo)[0];
        vec![
            TimelineEvent { at_minute: 1, mask: scenario.mask(topo) },
            TimelineEvent { at_minute: up_minute, mask: FailureMask::new() },
        ]
    }

    #[test]
    fn adaptive_controller_reroutes_around_an_outage() {
        let (topo, tm) = setup();
        let cfg = TimelineConfig {
            minutes: 5,
            warmup_minutes: 3,
            cv: 0.15,
            seed: 13,
            ..Default::default()
        };
        let events = outage(&topo, 4);
        let cache = PathCache::new(topo.graph());
        let out = simulate_with_events_on(&cache, &tm, &Controller::ldr(), &cfg, &events);
        assert_eq!(out.minutes.len(), 5);
        assert_eq!(out.repair_events, 2, "down then up");
        assert!(out.repaired_pairs > 0, "the failed cable crossed cached paths");
        assert!(out.kept_pairs > 0, "repair must not rebuild the whole cache");
        // Abilene survives any single failure: the adaptive controller
        // delivers everything, every minute.
        assert_eq!(out.max_unroutable_fraction(), 0.0);
        assert!(out.mean_stretch() >= 1.0 - 1e-9);
        assert!(out.lp_warm_hits > 0, "recovery minutes must stay warm");
    }

    #[test]
    fn static_baseline_loses_traffic_during_the_outage() {
        let (topo, tm) = setup();
        let cfg = TimelineConfig {
            minutes: 4,
            warmup_minutes: 3,
            cv: 0.15,
            seed: 13,
            ..Default::default()
        };
        // Fail a cable SP actually uses: try scenarios until one leaks.
        let mut leaked = false;
        for scenario in single_link_failures(&topo) {
            let events = vec![TimelineEvent { at_minute: 1, mask: scenario.mask(&topo) }];
            let cache = PathCache::new(topo.graph());
            let out = simulate_with_events_on(&cache, &tm, &Controller::static_sp(), &cfg, &events);
            assert_eq!(out.minutes[0].unroutable_fraction, 0.0, "pre-failure minute clean");
            if out.max_unroutable_fraction() > 0.0 {
                leaked = true;
                break;
            }
        }
        assert!(leaked, "some single failure must hit SP's placed paths");
    }

    /// A two-path network: A—M—Z wide (1000 Mbps cables), A—N—Z narrow
    /// (400 Mbps cables). Losing the wide path forces everything onto
    /// cables that cannot carry it — the cascade trigger.
    fn two_path_setup() -> (Topology, TrafficMatrix, PopId) {
        let mut b = TopologyBuilder::new("cascade2p");
        let a = b.add_pop("A", GeoPoint::new(40.0, -100.0));
        let m = b.add_pop("M", GeoPoint::new(41.0, -97.0));
        let n = b.add_pop("N", GeoPoint::new(39.0, -97.0));
        let z = b.add_pop("Z", GeoPoint::new(40.0, -94.0));
        b.connect(a, m, 1000.0);
        b.connect(m, z, 1000.0);
        b.connect(a, n, 400.0);
        b.connect(n, z, 400.0);
        let topo = b.build();
        let tm = TrafficMatrix::new(vec![Aggregate {
            src: a,
            dst: z,
            volume_mbps: 600.0,
            flow_count: 600,
        }]);
        (topo, tm, a)
    }

    #[test]
    fn overload_after_reroute_trips_a_cascade() {
        let (topo, tm, _) = two_path_setup();
        let graph = topo.graph();
        // Fail the wide path's first cable (connect order: A-M first).
        let mut mask = FailureMask::new();
        mask.fail_cable(graph, topo.cables()[0]);
        let events = vec![TimelineEvent { at_minute: 1, mask }];
        let cfg = TimelineConfig {
            minutes: 5,
            warmup_minutes: 2,
            cv: 0.05,
            seed: 21,
            cascade: Some(CascadeConfig { trip_overload: 0.2, max_trips: 4 }),
            ..Default::default()
        };
        let cache = PathCache::new(topo.graph());
        let out = simulate_with_events_on(&cache, &tm, &Controller::ldr(), &cfg, &events);
        // Minute 1: 600 Mbps rerouted onto 400 Mbps cables — 50% sustained
        // overload, far past the 20% trip threshold.
        assert!(out.minutes[1].overloaded_links > 0, "reroute must overload the narrow path");
        assert_eq!(out.cascade_trips, 1, "exactly one cable blows");
        assert_eq!(out.repair_events, 2, "the scripted failure plus the trip");
        // The trip severs the only remaining path: demand goes unroutable.
        assert_eq!(out.minutes[1].unroutable_fraction, 0.0);
        assert!(
            out.minutes[2].unroutable_fraction > 0.99,
            "after the cascade A-Z is disconnected, got {}",
            out.minutes[2].unroutable_fraction
        );
        // Nothing left to overload, so the cascade stops at one trip.
        assert!(out.max_unroutable_fraction() > 0.99);
    }

    #[test]
    fn no_overload_means_no_trips_and_event_equivalence() {
        // Below the trip threshold the cascade runner must be bit-for-bit
        // the plain event runner.
        let (topo, tm) = setup();
        let cfg = TimelineConfig {
            minutes: 4,
            warmup_minutes: 3,
            cv: 0.15,
            seed: 13,
            ..Default::default()
        };
        let events = outage(&topo, 3);
        let cache = PathCache::new(topo.graph());
        let plain = simulate_with_events_on(&cache, &tm, &Controller::ldr(), &cfg, &events);
        let armed = TimelineConfig {
            cascade: Some(CascadeConfig { trip_overload: 10.0, max_trips: 8 }),
            ..cfg
        };
        let cache = PathCache::new(topo.graph());
        let with_cascade =
            simulate_with_events_on(&cache, &tm, &Controller::ldr(), &armed, &events);
        assert_eq!(with_cascade.cascade_trips, 0, "nothing sustains 10x overload");
        assert_eq!(plain.cascade_trips, 0, "plain runs never trip");
        assert_eq!(plain.repair_events, with_cascade.repair_events);
        assert_eq!(plain.minutes.len(), with_cascade.minutes.len());
        for (a, b) in plain.minutes.iter().zip(&with_cascade.minutes) {
            assert!((a.worst_queue_ms - b.worst_queue_ms).abs() < 1e-12);
            assert!((a.latency_stretch - b.latency_stretch).abs() < 1e-12);
            assert_eq!(a.overloaded_links, b.overloaded_links);
        }
    }

    #[test]
    fn safe_fraction_guards_zero_denominator() {
        assert_eq!(safe_fraction(1.0, 2.0), 0.5);
        assert_eq!(safe_fraction(5.0, 0.0), 0.0, "zero volume must not yield NaN");
        assert_eq!(safe_fraction(5.0, -1.0), 0.0);
        assert!(safe_fraction(f64::NAN, 0.0) == 0.0, "NaN numerator is masked when nothing flows");
    }

    #[test]
    fn parse_trims_prefixed_specs_and_rejects_empty_ones() {
        assert_eq!(Controller::parse("static: SP").expect("trimmed").name(), "static:SP");
        assert_eq!(Controller::parse("  static:B4 ").expect("trimmed").name(), "static:B4");
        assert_eq!(Controller::parse("bounded: LDR").expect("trimmed").name(), "bounded:LDR");
        // The name carries the mode, so parsing it back gives the same one.
        for spec in ["static:SP", "LDR", "bounded:LDR"] {
            assert_eq!(Controller::parse(spec).expect("registry spec").name(), spec);
        }
        assert_eq!(
            Controller::parse("static:").unwrap_err(),
            ControllerParseError::EmptySpec { prefix: "static:" }
        );
        assert_eq!(
            Controller::parse("bounded:   ").unwrap_err(),
            ControllerParseError::EmptySpec { prefix: "bounded:" }
        );
        let err = Controller::parse("static:").unwrap_err().to_string();
        assert!(err.contains("static:"), "error names the prefix: {err}");
        assert!(matches!(Controller::parse("bounded:nope"), Err(ControllerParseError::Unknown(_))));
    }

    #[test]
    fn same_minute_scripted_events_apply_in_slice_order() {
        // Two events at the same decision minute: the last mask in the
        // slice wins — that ordering is the documented contract.
        let (topo, tm, _) = two_path_setup();
        let graph = topo.graph();
        // Failing both of A's cables disconnects A-Z entirely.
        let mut sever = FailureMask::new();
        sever.fail_cable(graph, topo.cables()[0]);
        sever.fail_cable(graph, topo.cables()[2]);
        let cfg = TimelineConfig {
            minutes: 3,
            warmup_minutes: 2,
            cv: 0.1,
            seed: 9,
            ..Default::default()
        };

        let sever_then_up = vec![
            TimelineEvent { at_minute: 1, mask: sever.clone() },
            TimelineEvent { at_minute: 1, mask: FailureMask::new() },
        ];
        let cache = PathCache::new(topo.graph());
        let out = simulate_with_events_on(&cache, &tm, &Controller::ldr(), &cfg, &sever_then_up);
        assert_eq!(out.repair_events, 2, "both events fire");
        assert_eq!(out.max_unroutable_fraction(), 0.0, "the later link-up wins");

        let up_then_sever = vec![
            TimelineEvent { at_minute: 1, mask: FailureMask::new() },
            TimelineEvent { at_minute: 1, mask: sever },
        ];
        let cache = PathCache::new(topo.graph());
        let out = simulate_with_events_on(&cache, &tm, &Controller::ldr(), &cfg, &up_then_sever);
        assert_eq!(out.repair_events, 2);
        assert!(
            out.minutes[1].unroutable_fraction > 0.99,
            "the later severance wins, got {}",
            out.minutes[1].unroutable_fraction
        );
    }

    #[test]
    fn same_minute_link_up_and_cascade_trip_interleave_as_deltas() {
        // Regression: a cascade trip used to snapshot `current_mask` at
        // *emit* time, so a scripted link-up firing the same minute as the
        // trip was clobbered — the snapshot resurrected the already-
        // repaired failure and the network looked fully severed. Stored as
        // a delta, the trip lands on the mask the link-up left in force:
        // only the tripped narrow cable stays down, and the restored wide
        // path carries everything.
        let (topo, tm, _) = two_path_setup();
        let graph = topo.graph();
        let mut wide_down = FailureMask::new();
        wide_down.fail_cable(graph, topo.cables()[0]);
        let events = vec![
            // Minute 1: the wide path fails; 600 Mbps lands on the 400 Mbps
            // narrow cables and trips one of them for minute 2.
            TimelineEvent { at_minute: 1, mask: wide_down },
            // Minute 2: the wide path is repaired — scripted before the
            // trip fires.
            TimelineEvent { at_minute: 2, mask: FailureMask::new() },
        ];
        let cfg = TimelineConfig {
            minutes: 4,
            warmup_minutes: 2,
            cv: 0.05,
            seed: 21,
            cascade: Some(CascadeConfig { trip_overload: 0.2, max_trips: 4 }),
            ..Default::default()
        };
        let cache = PathCache::new(topo.graph());
        let out = simulate_with_events_on(&cache, &tm, &Controller::ldr(), &cfg, &events);
        assert!(out.minutes[1].overloaded_links > 0, "reroute overloads the narrow path");
        assert_eq!(out.cascade_trips, 1, "the narrow path trips exactly once");
        assert_eq!(out.repair_events, 3, "failure, link-up, then the trip");
        // The decisive assertion: with the trip applied as a delta to the
        // repaired topology, A-Z flows over the wide path every minute.
        assert_eq!(
            out.max_unroutable_fraction(),
            0.0,
            "the link-up must survive the same-minute trip"
        );
    }

    #[test]
    fn bounded_churn_cuts_reinstalls_while_bounding_queueing() {
        let (topo, tm) = setup();
        let cfg = TimelineConfig {
            minutes: 12,
            warmup_minutes: 3,
            cv: 0.2,
            seed: 17,
            diurnal_amplitude: 0.3,
            diurnal_period: 12,
            ..Default::default()
        };
        let full = simulate(&topo, &tm, &Controller::ldr(), &cfg);
        let bounded =
            simulate(&topo, &tm, &Controller::parse("bounded:LDR").expect("bounded:LDR"), &cfg);
        // Minute 0's initial install is the cost of turning on, not churn.
        assert_eq!(full.minutes[0].paths_changed, 0);
        assert_eq!(bounded.minutes[0].paths_changed, 0);
        assert!(
            full.total_paths_changed() > 0,
            "diurnal traffic must churn the per-minute re-placer"
        );
        assert!(
            (bounded.total_paths_changed() as f64) <= 0.25 * full.total_paths_changed() as f64,
            "bounded churn {} must be <= 25% of full re-placement churn {}",
            bounded.total_paths_changed(),
            full.total_paths_changed()
        );
        assert!(
            bounded.worst_queue_ms() <= 2.0 * full.worst_queue_ms() + 5.0,
            "kept placements must not blow up queueing: bounded {} ms vs full {} ms",
            bounded.worst_queue_ms(),
            full.worst_queue_ms()
        );
        assert_eq!(bounded.max_unroutable_fraction(), 0.0);
        // Decision latency is measured and sane for every controller kind.
        for out in [&full, &bounded] {
            assert!(out.minutes.iter().all(|m| m.decision_ms.is_finite() && m.decision_ms >= 0.0));
            assert!(out.median_decision_ms() > 0.0, "placement work takes nonzero wall-clock");
        }
        // Moved volume only when paths actually changed.
        for m in &bounded.minutes {
            assert!(m.moved_volume_fraction.is_finite());
            if m.paths_changed == 0 {
                assert!(m.moved_volume_fraction < 1e-9);
            }
        }
        // Static controllers never churn; their decision cost is ~copying.
        let sp = simulate(&topo, &tm, &Controller::static_sp(), &cfg);
        assert_eq!(sp.total_paths_changed(), 0);
        assert_eq!(sp.mean_moved_volume_fraction(), 0.0);
    }

    #[test]
    fn bounded_controller_reroutes_around_an_outage() {
        // Broken installed paths are a forced re-install: the bounded
        // controller must recover exactly like the full one.
        let (topo, tm) = setup();
        let cfg = TimelineConfig {
            minutes: 5,
            warmup_minutes: 3,
            cv: 0.15,
            seed: 13,
            ..Default::default()
        };
        let events = outage(&topo, 4);
        let bounded = Controller::parse("bounded:LDR").expect("bounded:LDR");
        let cache = PathCache::new(topo.graph());
        let out = simulate_with_events_on(&cache, &tm, &bounded, &cfg, &events);
        assert_eq!(out.repair_events, 2, "down then up");
        assert_eq!(out.max_unroutable_fraction(), 0.0, "Abilene survives any single failure");
        assert!(out.minutes[1].paths_changed > 0, "re-placing around the failure is paid churn");
    }

    #[test]
    fn synthesis_is_the_same_bits_at_any_worker_count() {
        // A diurnal Abilene run: with no helper (the calling thread writes
        // each minute after the decision window), one, and more than there
        // are CPUs, every trace is `synthesize` of its aggregate — the
        // samples of each minute while the trace keeps them, every minute's
        // mean and peak after the run — and the outcome is the same bits,
        // for a controller that decides and one that does not.
        let (topo, tm) = setup();
        let cfg = TimelineConfig {
            minutes: 3,
            warmup_minutes: 2,
            diurnal_amplitude: 0.3,
            diurnal_period: 4,
            ..Default::default()
        };
        let serial: Vec<AggregateTrace> = tm
            .aggregates()
            .iter()
            .enumerate()
            .map(|(i, a)| {
                synthesize(&TraceGenConfig {
                    mean_mbps: a.volume_mbps,
                    cv: cfg.cv,
                    minutes: 5,
                    seed: spread_seed(cfg.seed, i as u64),
                    diurnal_amplitude: 0.3,
                    diurnal_period_minutes: 4,
                    ..Default::default()
                })
            })
            .collect();
        let sample_bits = |tr: &AggregateTrace, m| -> Vec<u64> {
            tr.samples(m).iter().map(|s| s.to_bits()).collect()
        };
        let summary_bits = |tr: &AggregateTrace| -> Vec<u64> {
            let summaries = (0..tr.minutes()).flat_map(|m| [tr.minute_mean(m), tr.peak(m)]);
            summaries.map(f64::to_bits).collect()
        };
        // Every trace ends at minute `m` and holds its samples.
        let last_is_serial = |traces: &[AggregateTrace], m: usize| {
            traces.iter().zip(&serial).all(|(tr, want)| {
                tr.minutes() == m + 1 && sample_bits(tr, m) == sample_bits(want, m)
            })
        };
        let outcome_bits = |out: &TimelineOutcome| -> Vec<u64> {
            let counters = [out.lp_solves, out.lp_warm_hits, out.repair_events, out.cascade_trips];
            let minutes = out.minutes.iter().flat_map(|m| {
                [
                    m.worst_queue_ms.to_bits(),
                    m.overloaded_links as u64,
                    m.latency_stretch.to_bits(),
                    m.unroutable_fraction.to_bits(),
                    m.paths_changed as u64,
                    m.moved_volume_fraction.to_bits(),
                ]
            });
            counters.iter().map(|&c| c as u64).chain(minutes).collect()
        };
        let serial_summaries: Vec<Vec<u64>> = serial.iter().map(summary_bits).collect();
        for controller in [Controller::ldr(), Controller::static_sp()] {
            let mut outcomes = Vec::new();
            for workers in [1, 2, 8] {
                let cache = PathCache::new(topo.graph());
                let mut state = ControllerState::new(&cache, &tm, &controller, &cfg, &[], workers);
                let warmed = cfg.warmup_minutes - 1;
                assert!(last_is_serial(&state.traces, warmed), "{workers} workers, warm-up");
                let reports = (0..cfg.minutes)
                    .map(|minute| {
                        let report = state.step(minute);
                        let appended = cfg.warmup_minutes + minute;
                        assert!(
                            last_is_serial(&state.traces, appended),
                            "{workers} workers, minute {minute}"
                        );
                        report
                    })
                    .collect();
                let summaries: Vec<Vec<u64>> = state.traces.iter().map(summary_bits).collect();
                assert!(summaries == serial_summaries, "{workers} workers");
                outcomes.push(outcome_bits(&state.finish(reports)));
            }
            assert!(outcomes.iter().all(|o| *o == outcomes[0]), "{controller:?}");
        }
    }

    #[test]
    fn validate_names_the_field_outside_its_range() {
        let ok = TimelineConfig::default();
        assert_eq!(ok.validate(), Ok(()));
        let trip = |trip_overload| TimelineConfig {
            cascade: Some(CascadeConfig { trip_overload, ..CascadeConfig::default() }),
            ..ok.clone()
        };
        let cases = [
            (TimelineConfig { minutes: 0, ..ok.clone() }, "minutes = 0, expected at least 1"),
            (
                TimelineConfig { warmup_minutes: 1, ..ok.clone() },
                "warmup_minutes = 1, expected at least 2",
            ),
            (TimelineConfig { cv: -0.1, ..ok.clone() }, "cv = -0.1, expected a finite value >= 0"),
            (
                TimelineConfig { diurnal_amplitude: 1.5, ..ok.clone() },
                "diurnal_amplitude = 1.5, expected a value in [0, 1)",
            ),
            (
                TimelineConfig { diurnal_amplitude: 0.3, diurnal_period: 1, ..ok.clone() },
                "diurnal_period = 1, expected at least 2 minutes while the amplitude is not 0",
            ),
            (trip(f64::NAN), "trip_overload = NaN, expected a finite value > -1"),
            (trip(f64::INFINITY), "trip_overload = inf, expected a finite value > -1"),
            (trip(-1.0), "trip_overload = -1, expected a finite value > -1"),
            (
                TimelineConfig { minutes: usize::MAX, ..ok.clone() },
                "minutes = 18446744073709551615, expected a count whose sum with \
                 warmup_minutes fits a usize",
            ),
            (
                TimelineConfig { warmup_minutes: usize::MAX, ..ok.clone() },
                "minutes = 10, expected a count whose sum with warmup_minutes fits a usize",
            ),
        ];
        for (cfg, want) in cases {
            assert_eq!(cfg.validate().unwrap_err().to_string(), want);
        }
        let nan = TimelineConfig { cv: f64::NAN, ..ok.clone() }.validate().unwrap_err();
        assert!(nan.to_string().starts_with("cv = NaN"), "{nan}");
        // Past the generator's bound, the generator's door names the field.
        let huge = TimelineConfig { cv: 1e301, ..ok.clone() }.validate().unwrap_err();
        assert_eq!((huge.param, huge.expected), ("cv", "a finite value in [0, 1e300]"));
        // A cable may trip below capacity: at over 90% of it.
        assert_eq!(trip(-0.1).validate(), Ok(()));
        // A period nothing reads is not an error.
        assert_eq!(TimelineConfig { diurnal_period: 0, ..ok }.validate(), Ok(()));
    }

    #[test]
    fn an_invalid_config_panics_with_its_field_on_the_calling_thread() {
        let (topo, tm) = setup();
        let cfg = TimelineConfig { diurnal_amplitude: 1.5, ..Default::default() };
        let panic = std::panic::catch_unwind(|| simulate(&topo, &tm, &Controller::ldr(), &cfg))
            .expect_err("amplitude 1.5 is rejected");
        let message = panic.downcast_ref::<String>().expect("a formatted message");
        assert!(message.contains("diurnal_amplitude = 1.5"), "{message}");
    }

    #[test]
    fn events_out_of_range_panic() {
        let (topo, tm) = setup();
        let cfg = TimelineConfig {
            minutes: 2,
            warmup_minutes: 2,
            cv: 0.2,
            seed: 5,
            ..Default::default()
        };
        let events = vec![TimelineEvent { at_minute: 2, mask: FailureMask::new() }];
        let result = std::panic::catch_unwind(|| {
            let cache = PathCache::new(topo.graph());
            simulate_with_events_on(&cache, &tm, &Controller::static_sp(), &cfg, &events)
        });
        assert!(result.is_err());
    }
}
