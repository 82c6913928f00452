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
//! Any [`registry`] scheme can drive the loop: a [`Controller`] wraps a
//! scheme either *adaptively* (re-placed every minute from the measured
//! history — LDR runs its full Figure-14 loop, everything else re-places
//! Algorithm-1 predicted demands) or *statically* (placed once up front,
//! the OSPF-style baseline).
//!
//! ## One state, four steps
//!
//! There is one way to run a timeline: [`simulate_with_events_on`] builds
//! the run's private `ControllerState`, steps it once per decision minute
//! and collects the [`MinuteReport`]s ([`simulate`] is the same call over a
//! private flat [`PathCache`] with no events). The state is everything that
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
//! `fire_events`' contract, stated there.
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
//! [`MinuteReport`].

use std::sync::Arc;

use lowlat_core::eval::PlacementEval;
use lowlat_core::failure::{partition_routable, RoutablePartition};
use lowlat_core::pathset::PathCache;
use lowlat_core::placement::{AggregatePlacement, PlacementDelta};
use lowlat_core::schemes::registry::{self, UnknownScheme};
use lowlat_core::schemes::{predict_volumes, RoutingScheme, SolveContext};
use lowlat_core::{PathSource, Placement};
use lowlat_netgraph::{FailureMask, Graph, LinkId, Path};
use lowlat_telemetry as telemetry;
use lowlat_tmgen::TrafficMatrix;
use lowlat_topology::Topology;
use lowlat_traffic::{spread_seed, synthesize, AggregateTrace, TraceGenConfig};

use crate::stats::median_of;
use lowlat_core::{default_workers, par_map};

/// Default decision minutes per run.
pub const DEFAULT_MINUTES: usize = 10;
/// Default history minutes before the first decision.
pub const DEFAULT_WARMUP_MINUTES: usize = 5;
/// Default burstiness (coefficient of variation) of the synthetic traffic.
pub const DEFAULT_CV: f64 = 0.3;
/// Default RNG seed for trace synthesis.
pub const DEFAULT_SEED: u64 = 99;

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
const QUEUE_TRIGGER_MS: f64 = 50.0;

/// Why a controller spec failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ControllerParseError {
    /// A mode prefix (`static:`, `bounded:`) with nothing after it.
    EmptySpec {
        /// The offending prefix.
        prefix: &'static str,
    },
    /// The scheme name is not in the registry.
    Unknown(UnknownScheme),
}

impl std::fmt::Display for ControllerParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControllerParseError::EmptySpec { prefix } => {
                write!(f, "controller spec `{prefix}` needs a scheme name after the prefix")
            }
            ControllerParseError::Unknown(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ControllerParseError {}

impl From<UnknownScheme> for ControllerParseError {
    fn from(e: UnknownScheme) -> Self {
        ControllerParseError::Unknown(e)
    }
}

/// Which controller drives path computation each minute: any registry
/// scheme, run in one of three modes.
#[derive(Clone)]
pub struct Controller {
    scheme: Arc<dyn RoutingScheme>,
    mode: Mode,
}

/// How a [`Controller`] runs its scheme.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// Placed once — the paper's OSPF baseline, generalized (`static:`).
    Static,
    /// Re-placed every minute on the history so far.
    Adaptive,
    /// Re-placed every minute, re-installed only where it pays (`bounded:`;
    /// module docs, *Bounded churn*).
    Bounded,
}

/// The mode prefixes [`Controller::parse`] knows; a spec with none of them
/// is adaptive.
const MODE_PREFIXES: [(&str, Mode); 2] = [("static:", Mode::Static), ("bounded:", Mode::Bounded)];

impl Controller {
    /// Parses a sweep spec: a registry name, run adaptively (re-placed
    /// every minute on the measured history; LDR uses its full trace-driven
    /// Figure-14 loop, other schemes re-place Algorithm-1 predictions),
    /// optionally prefixed with `static:` for the variant placed once on
    /// the base matrix or `bounded:` for the churn-bounded variant, which
    /// only re-installs aggregates whose fresh solution pays for its churn
    /// (`"LDR"`, `"static: SP"`, `"bounded:LDR"`). Whitespace around the
    /// name and after the prefix is ignored; a prefix with nothing after it
    /// is rejected with [`ControllerParseError::EmptySpec`] rather than a
    /// confusing unknown-scheme error for `""`.
    pub fn parse(spec: &str) -> Result<Controller, ControllerParseError> {
        let spec = spec.trim();
        let (name, mode) = match MODE_PREFIXES
            .iter()
            .find_map(|&(prefix, mode)| Some((prefix, spec.strip_prefix(prefix)?.trim(), mode)))
        {
            Some((prefix, "", _)) => return Err(ControllerParseError::EmptySpec { prefix }),
            Some((_, name, mode)) => (name, mode),
            None => (spec, Mode::Adaptive),
        };
        Ok(Controller { scheme: registry::build(name)?, mode })
    }

    /// The paper's full LDR deployment cycle.
    ///
    /// # Panics
    /// Never — `LDR` is a registry spec.
    pub fn ldr() -> Controller {
        Controller::parse("LDR").expect("LDR is a registry spec")
    }

    /// Static shortest paths computed once (the OSPF baseline).
    ///
    /// # Panics
    /// Never — `SP` is a registry spec.
    pub fn static_sp() -> Controller {
        Controller::parse("static:SP").expect("SP is a registry spec")
    }

    /// Display name: the scheme's registry name, `static:`-prefixed for
    /// placed-once controllers and `bounded:`-prefixed for churn-bounded
    /// ones. Round-trips through [`Controller::parse`].
    pub fn name(&self) -> String {
        match self.mode {
            Mode::Static => format!("static:{}", self.scheme.name()),
            Mode::Adaptive => self.scheme.name(),
            Mode::Bounded => format!("bounded:{}", self.scheme.name()),
        }
    }

    /// True when the scheme is placed once and never consulted again.
    fn is_static(&self) -> bool {
        self.mode == Mode::Static
    }
}

impl std::fmt::Debug for Controller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Controller").field("name", &self.name()).finish()
    }
}

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
    pub fn validate(&self) -> Result<(), TimelineConfigError> {
        if self.minutes < 1 {
            return Err(TimelineConfigError::Minutes(self.minutes));
        }
        if self.warmup_minutes < 2 {
            return Err(TimelineConfigError::WarmupMinutes(self.warmup_minutes));
        }
        if !(self.cv.is_finite() && self.cv >= 0.0) {
            return Err(TimelineConfigError::Cv(self.cv));
        }
        if !(0.0..1.0).contains(&self.diurnal_amplitude) {
            return Err(TimelineConfigError::DiurnalAmplitude(self.diurnal_amplitude));
        }
        if self.diurnal_amplitude > 0.0 && self.diurnal_period < 2 {
            return Err(TimelineConfigError::DiurnalPeriod(self.diurnal_period));
        }
        Ok(())
    }
}

/// The [`TimelineConfig`] field [`TimelineConfig::validate`] rejected, with
/// the value it held.
#[derive(Clone, Debug, PartialEq)]
pub enum TimelineConfigError {
    /// `minutes` is 0: there is no decision minute to simulate.
    Minutes(usize),
    /// `warmup_minutes` is below 2: too little history before the first
    /// decision.
    WarmupMinutes(usize),
    /// `cv` is negative or not finite.
    Cv(f64),
    /// `diurnal_amplitude` is outside `[0, 1)`, where rates stay positive.
    DiurnalAmplitude(f64),
    /// `diurnal_period` is below 2 minutes while the amplitude is not 0.
    DiurnalPeriod(usize),
}

impl std::fmt::Display for TimelineConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimelineConfigError::Minutes(v) => write!(f, "minutes = {v}, expected at least 1"),
            TimelineConfigError::WarmupMinutes(v) => {
                write!(f, "warmup_minutes = {v}, expected at least 2")
            }
            TimelineConfigError::Cv(v) => write!(f, "cv = {v}, expected a finite value >= 0"),
            TimelineConfigError::DiurnalAmplitude(v) => {
                write!(f, "diurnal_amplitude = {v}, expected a value in [0, 1)")
            }
            TimelineConfigError::DiurnalPeriod(v) => write!(
                f,
                "diurnal_period = {v}, expected at least 2 minutes while the amplitude is not 0"
            ),
        }
    }
}

impl std::error::Error for TimelineConfigError {}

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
    /// effective capacity blows the cable.
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
    let mut state = ControllerState::new(source, tm, controller, config, events);
    let minutes = (0..config.minutes).map(|minute| state.step(minute)).collect();
    state.finish(minutes)
}

/// `numer / denom`, 0 when the denominator is not positive — keeps a
/// zero-volume denominator from poisoning fractions (and the TSV) with NaN.
fn safe_fraction(numer: f64, denom: f64) -> f64 {
    if denom > 0.0 {
        numer / denom
    } else {
        0.0
    }
}

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

/// The run's ground truth: one trace per aggregate of `tm`, mean anchored at
/// its matrix volume, synthesized on up to `workers` threads. Aggregate `i`
/// draws from its own stream (`spread_seed(seed, i)`), so the traces are
/// the same bits whatever the worker count.
fn synthesize_traces(
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
struct ControllerState<'a> {
    source: &'a dyn PathSource,
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
    mask: FailureMask,
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
    installed: Vec<Option<AggregatePlacement>>,
    /// Links whose replay queued above the bounded controller's reactive
    /// trigger last minute — next minute's merge re-installs their riders.
    queued_links: Vec<bool>,
    /// The cable the cascade model tripped during last minute's replay. A
    /// *delta*, resolved against the mask in force when it fires.
    pending_trip: Option<LinkId>,
    repair_events: usize,
    repaired_pairs: usize,
    kept_pairs: usize,
    cascade_trips: usize,
}

impl<'a> ControllerState<'a> {
    fn new(
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
    fn step(&mut self, minute: usize) -> MinuteReport {
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
    fn finish(self, minutes: Vec<MinuteReport>) -> TimelineOutcome {
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
    fn orig(&self, j: usize) -> usize {
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
    fn merge_bounded(
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

#[cfg(test)]
mod tests {
    use super::*;
    use lowlat_core::failure::single_link_failures;
    use lowlat_core::scale::ScaleToLoad;
    use lowlat_tmgen::{Aggregate, GravityTmGen, TmGenConfig};
    use lowlat_topology::zoo::named;
    use lowlat_topology::{GeoPoint, PopId, TopologyBuilder};

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
        // GTS-like's 650 aggregates with the diurnal branch on: every worker
        // count yields `synthesize` of each aggregate, in aggregate order.
        let topo = named::gts_like();
        let tm = GravityTmGen::new(TmGenConfig::default()).generate(&topo, 0);
        let cfg = TimelineConfig {
            minutes: 1,
            warmup_minutes: 2,
            diurnal_amplitude: 0.3,
            diurnal_period: 4,
            ..Default::default()
        };
        let bits = |tr: &AggregateTrace| -> Vec<u64> {
            let summaries = (0..tr.minutes()).flat_map(|m| [tr.minute_mean(m), tr.peak(m)]);
            (0..tr.minutes())
                .flat_map(|m| tr.samples(m).iter().copied())
                .chain(summaries)
                .map(f64::to_bits)
                .collect()
        };
        let serial: Vec<Vec<u64>> = tm
            .aggregates()
            .iter()
            .enumerate()
            .map(|(i, a)| {
                bits(&synthesize(&TraceGenConfig {
                    mean_mbps: a.volume_mbps,
                    cv: cfg.cv,
                    minutes: 3,
                    seed: spread_seed(cfg.seed, i as u64),
                    diurnal_amplitude: 0.3,
                    diurnal_period_minutes: 4,
                    ..Default::default()
                }))
            })
            .collect();
        for workers in [1, 2, tm.aggregates().len() + 3] {
            let traces = synthesize_traces(&tm, &cfg, workers);
            assert_eq!(traces.iter().map(bits).collect::<Vec<_>>(), serial, "{workers} workers");
        }
    }

    #[test]
    fn validate_names_the_field_outside_its_range() {
        let ok = TimelineConfig::default();
        assert_eq!(ok.validate(), Ok(()));
        let cases = [
            (TimelineConfig { minutes: 0, ..ok.clone() }, TimelineConfigError::Minutes(0)),
            (
                TimelineConfig { warmup_minutes: 1, ..ok.clone() },
                TimelineConfigError::WarmupMinutes(1),
            ),
            (TimelineConfig { cv: -0.1, ..ok.clone() }, TimelineConfigError::Cv(-0.1)),
            (
                TimelineConfig { diurnal_amplitude: 1.5, ..ok.clone() },
                TimelineConfigError::DiurnalAmplitude(1.5),
            ),
            (
                TimelineConfig { diurnal_amplitude: 0.3, diurnal_period: 1, ..ok.clone() },
                TimelineConfigError::DiurnalPeriod(1),
            ),
        ];
        for (cfg, want) in cases {
            assert_eq!(cfg.validate(), Err(want));
        }
        let nan = TimelineConfig { cv: f64::NAN, ..ok.clone() }.validate().unwrap_err();
        assert!(nan.to_string().starts_with("cv = NaN"), "{nan}");
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
