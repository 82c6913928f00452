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
//! the OSPF-style baseline). One shared [`PathSource`] and one warm-start
//! [`SolveContext`] persist across the whole run, so successive minutes
//! restart from each other's LP bases — the reason the cycle is fast
//! enough to run every minute. The default entry points build a private
//! flat [`PathCache`]; [`simulate_with_events_on`] runs the same cycle
//! through any caller-provided source — the partitioned engine at
//! Internet scale.
//!
//! ## Failure events
//!
//! [`simulate_with_events`] interleaves topology changes with the TM
//! minutes: each [`TimelineEvent`] puts a [`FailureMask`] in force from a
//! given decision minute (an empty mask models repair/link-up). The shared
//! cache is *repaired*, not rebuilt — only cached paths crossing failed
//! elements regrow under the mask — and adaptive controllers re-place the
//! surviving demand through the same warm [`SolveContext`], so recovery
//! minutes restart from pre-failure bases. Static baselines keep their
//! placement; whatever they had routed over failed elements is counted
//! lost, which is exactly the availability argument for the adaptive
//! cycle.
//!
//! ## Load-induced cascades
//!
//! [`simulate_with_cascades`] adds the failure mode the scripted events
//! cannot express: overload *causing* the next failure. After each minute's
//! replay, if the worst surviving link's minute-mean load exceeds its
//! effective capacity by more than [`CascadeConfig::trip_overload`], that
//! cable trips at the next decision minute, up to
//! [`CascadeConfig::max_trips`] trips per run. A trip is stored as a
//! *delta* — the tripped cable — and applied to whatever mask is in force
//! when it fires, so a scripted event landing at the same minute (a
//! link-up, say) is never clobbered by a stale snapshot. Trips are counted
//! in [`TimelineOutcome::cascade_trips`] and flow through the exact same
//! repair/re-place machinery as scripted events, so a brown-out that
//! concentrates traffic can be watched snowballing into an outage.
//!
//! ## Event ordering
//!
//! All events due at one decision minute apply *in slice order* before
//! that minute's placement decision: scripted events first, each replacing
//! the mask in force (the last one wins), then any cascade trip emitted
//! the previous minute, applied as a delta on top. The ordering is part of
//! the contract and asserted by the test suite.
//!
//! ## Bounded churn
//!
//! [`Controller::adaptive_bounded`] (sweep spec `bounded:LDR`) runs the
//! same per-minute cycle but treats path churn — installs, uninstalls and
//! split re-programs pushed to switches — as a cost. Each minute the
//! scheme's fresh solution is a *candidate*: an aggregate is re-installed
//! only when its candidate improves predicted mean delay by more than
//! [`ChurnBudget::epsilon`], its installed paths are broken by the mask,
//! keeping it would push a link's predicted load past
//! [`ChurnBudget::util_guard`], or a link it rides *actually queued* past
//! [`ChurnBudget::queue_trigger_ms`] last minute (the reactive half of the
//! loop: mean-load prediction cannot see bursts, realized queueing can);
//! everything else keeps the previous minute's paths. Re-installs of live paths happen make-before-break:
//! the aggregate drains linearly across the transition minute — each
//! 100 ms bin carries a shrinking share on the retiring splits and a
//! growing share on the new ones — so the old paths' capacity stays
//! claimed until the drain completes and the old path is only retired
//! once its replacement carries the traffic. (Paths already broken by a
//! failure switch immediately: there is nothing left to break.) This is
//! the §5 install story made honest. Per-minute churn ([`PlacementDelta`])
//! and decision latency are reported in every [`MinuteReport`].

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

/// Default decision minutes per run.
pub const DEFAULT_MINUTES: usize = 10;
/// Default history minutes before the first decision.
pub const DEFAULT_WARMUP_MINUTES: usize = 5;
/// Default burstiness (coefficient of variation) of the synthetic traffic.
pub const DEFAULT_CV: f64 = 0.3;
/// Default RNG seed for trace synthesis.
pub const DEFAULT_SEED: u64 = 99;

/// How much per-minute path churn [`Controller::adaptive_bounded`] may
/// spend, and when keeping a stale placement stops being acceptable.
#[derive(Clone, Debug)]
pub struct ChurnBudget {
    /// Minimum *relative* predicted mean-delay improvement before an
    /// aggregate's candidate placement is worth re-installing. Below this
    /// the previous minute's paths are kept as-is.
    pub epsilon: f64,
    /// Hard cap on switch operations (installs + uninstalls + re-programs)
    /// per decision minute. Forced re-installs (broken paths, fresh
    /// aggregates) are spent first; optional improvements fill the rest,
    /// best predicted delay-volume gain first.
    pub max_paths_per_minute: usize,
    /// Utilization multiple of effective capacity above which a kept
    /// placement is force-re-installed: keeping stale paths must not
    /// (predictably) overload a link. 1.0 = re-install at predicted
    /// saturation.
    pub util_guard: f64,
    /// Realized-queueing trigger (ms): a link whose replay queued above
    /// this last minute forces re-install of the kept aggregates riding
    /// it (when the fresh candidate actually relieves the link). This is
    /// the reactive half of the loop — mean-load prediction cannot see
    /// bursts, realized queueing can.
    pub queue_trigger_ms: f64,
}

impl Default for ChurnBudget {
    fn default() -> Self {
        ChurnBudget {
            epsilon: 0.2,
            max_paths_per_minute: usize::MAX,
            util_guard: 1.0,
            queue_trigger_ms: 50.0,
        }
    }
}

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
/// scheme, run adaptively (re-placed every minute on the history so far),
/// adaptively under a [`ChurnBudget`], or statically (placed once — the
/// paper's OSPF baseline, generalized).
#[derive(Clone)]
pub struct Controller {
    scheme: Arc<dyn RoutingScheme>,
    adaptive: bool,
    churn: Option<ChurnBudget>,
}

impl Controller {
    /// An adaptive controller: re-runs the named registry scheme every
    /// minute on the measured history. LDR uses its full trace-driven
    /// Figure-14 loop; other schemes re-place Algorithm-1 predictions.
    pub fn adaptive(spec: &str) -> Result<Controller, UnknownScheme> {
        Ok(Controller { scheme: registry::build(spec)?, adaptive: true, churn: None })
    }

    /// An adaptive controller that only re-installs aggregates whose fresh
    /// solution pays for its churn (see [`ChurnBudget`] and the
    /// module-level *Bounded churn* notes). Re-installs are
    /// make-before-break: retiring paths hold capacity for one overlap
    /// minute.
    pub fn adaptive_bounded(spec: &str, budget: ChurnBudget) -> Result<Controller, UnknownScheme> {
        Ok(Controller { scheme: registry::build(spec)?, adaptive: true, churn: Some(budget) })
    }

    /// A static controller: the named scheme placed once on the base
    /// matrix, then left alone for the whole run.
    pub fn static_baseline(spec: &str) -> Result<Controller, UnknownScheme> {
        Ok(Controller { scheme: registry::build(spec)?, adaptive: false, churn: None })
    }

    /// Parses a sweep spec: a registry name, optionally prefixed with
    /// `static:` for the placed-once variant or `bounded:` for the
    /// default-budget churn-bounded variant (`"LDR"`, `"static: SP"`,
    /// `"bounded:LDR"`). Whitespace around the name and after the prefix is
    /// ignored; a prefix with nothing after it is rejected with
    /// [`ControllerParseError::EmptySpec`] rather than a confusing
    /// unknown-scheme error for `""`.
    pub fn parse(spec: &str) -> Result<Controller, ControllerParseError> {
        let spec = spec.trim();
        if let Some(rest) = spec.strip_prefix("static:") {
            let rest = rest.trim();
            if rest.is_empty() {
                return Err(ControllerParseError::EmptySpec { prefix: "static:" });
            }
            return Ok(Controller::static_baseline(rest)?);
        }
        if let Some(rest) = spec.strip_prefix("bounded:") {
            let rest = rest.trim();
            if rest.is_empty() {
                return Err(ControllerParseError::EmptySpec { prefix: "bounded:" });
            }
            return Ok(Controller::adaptive_bounded(rest, ChurnBudget::default())?);
        }
        Ok(Controller::adaptive(spec)?)
    }

    /// The paper's full LDR deployment cycle.
    ///
    /// # Panics
    /// Never — `LDR` is a registry spec.
    pub fn ldr() -> Controller {
        Controller::adaptive("LDR").expect("LDR is a registry spec")
    }

    /// Static shortest paths computed once (the OSPF baseline).
    ///
    /// # Panics
    /// Never — `SP` is a registry spec.
    pub fn static_sp() -> Controller {
        Controller::static_baseline("SP").expect("SP is a registry spec")
    }

    /// Display name: the scheme's registry name, `static:`-prefixed for
    /// placed-once controllers and `bounded:`-prefixed for churn-bounded
    /// ones. Round-trips through [`Controller::parse`].
    pub fn name(&self) -> String {
        if !self.adaptive {
            format!("static:{}", self.scheme.name())
        } else if self.churn.is_some() {
            format!("bounded:{}", self.scheme.name())
        } else {
            self.scheme.name()
        }
    }

    /// True when the controller re-places every minute.
    pub fn is_adaptive(&self) -> bool {
        self.adaptive
    }

    /// The churn budget, for churn-bounded controllers.
    pub fn churn_budget(&self) -> Option<&ChurnBudget> {
        self.churn.as_ref()
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
        }
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

/// The load-induced cascade model for [`simulate_with_cascades`]: when a
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
    /// outside [`simulate_with_cascades`]). Each trip also counts as a
    /// repair event once its failure takes effect.
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

    /// Median per-minute decision latency (ms).
    pub fn median_decision_ms(&self) -> f64 {
        let mut v: Vec<f64> = self.minutes.iter().map(|m| m.decision_ms).collect();
        if v.is_empty() {
            return 0.0;
        }
        v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        v[v.len() / 2]
    }

    /// Worst per-minute decision latency (ms).
    pub fn max_decision_ms(&self) -> f64 {
        self.minutes.iter().map(|m| m.decision_ms).fold(0.0, f64::max)
    }

    /// Mean per-minute moved-volume fraction.
    pub fn mean_moved_volume_fraction(&self) -> f64 {
        self.minutes.iter().map(|m| m.moved_volume_fraction).sum::<f64>()
            / self.minutes.len().max(1) as f64
    }
}

/// Runs the controller cycle: each minute the controller re-places traffic
/// using only the history seen so far, then the *actual* next minute of
/// traffic is replayed over the placement.
///
/// # Panics
/// Panics if the matrix is empty, the config is degenerate, or the wrapped
/// scheme fails to place (a solver failure, not congestion).
pub fn simulate(
    topology: &Topology,
    tm: &TrafficMatrix,
    controller: &Controller,
    config: &TimelineConfig,
) -> TimelineOutcome {
    simulate_with_events(topology, tm, controller, config, &[])
}

/// As [`simulate`], with failure events interleaved into the minute loop.
///
/// Events fire before their minute's placement decision: the cache is
/// repaired under the new mask, adaptive controllers re-place the demand
/// that survives, static placements soldier on and leak whatever they had
/// routed across the failed elements.
///
/// # Panics
/// As [`simulate`]; additionally if an event's minute is out of range.
pub fn simulate_with_events(
    topology: &Topology,
    tm: &TrafficMatrix,
    controller: &Controller,
    config: &TimelineConfig,
    events: &[TimelineEvent],
) -> TimelineOutcome {
    let cache = PathCache::new(topology.graph());
    run_timeline(&cache, tm, controller, config, events, None)
}

/// As [`simulate_with_events`], through a caller-provided [`PathSource`]
/// instead of a private flat cache — the partitioned engine at Internet
/// scale. The controller's repair/re-place cycle uses the source's failure
/// plumbing (`apply_failure` + warm re-placement), so adaptive and
/// bounded-churn control run unchanged on either backend.
///
/// The source must be quiescent (no concurrent queries) for the duration
/// of the run: event minutes mutate its failure state in place.
///
/// # Panics
/// As [`simulate_with_events`].
pub fn simulate_with_events_on(
    source: &dyn PathSource,
    tm: &TrafficMatrix,
    controller: &Controller,
    config: &TimelineConfig,
    events: &[TimelineEvent],
) -> TimelineOutcome {
    run_timeline(source, tm, controller, config, events, None)
}

/// As [`simulate_with_events`], with the load-induced cascade model armed:
/// a minute whose worst surviving link sustains mean load above
/// `(1 + cascade.trip_overload)` times effective capacity trips that cable
/// at the next decision minute (see [`CascadeConfig`]).
///
/// # Panics
/// As [`simulate_with_events`].
pub fn simulate_with_cascades(
    topology: &Topology,
    tm: &TrafficMatrix,
    controller: &Controller,
    config: &TimelineConfig,
    events: &[TimelineEvent],
    cascade: &CascadeConfig,
) -> TimelineOutcome {
    let cache = PathCache::new(topology.graph());
    run_timeline(&cache, tm, controller, config, events, Some(cascade))
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

/// An entry in the per-run event queue. Scripted events carry the complete
/// mask the caller asked for; cascade trips carry only the tripped cable —
/// a *delta* resolved against the mask in force when the trip fires, so a
/// scripted change landing at the same minute is never clobbered by a
/// snapshot taken at emit time.
#[derive(Clone, Debug)]
enum QueuedEvent {
    Scripted(TimelineEvent),
    Trip { at_minute: usize, cable: LinkId },
}

impl QueuedEvent {
    fn at_minute(&self) -> usize {
        match self {
            QueuedEvent::Scripted(ev) => ev.at_minute,
            QueuedEvent::Trip { at_minute, .. } => *at_minute,
        }
    }
}

fn run_timeline(
    source: &dyn PathSource,
    tm: &TrafficMatrix,
    controller: &Controller,
    config: &TimelineConfig,
    events: &[TimelineEvent],
    cascade: Option<&CascadeConfig>,
) -> TimelineOutcome {
    assert!(!tm.is_empty());
    assert!(config.minutes >= 1 && config.warmup_minutes >= 2);
    assert!(
        events.iter().all(|e| e.at_minute < config.minutes),
        "event minute out of 0..{}",
        config.minutes
    );
    let total_minutes = config.warmup_minutes + config.minutes;
    // Ground-truth traffic: one evolving trace per aggregate, mean anchored
    // at its matrix volume (modulated by the configured diurnal cycle).
    // A root span of its own: against millisecond decisions it is a visible
    // share of a short run.
    let synthesis = telemetry::span("timeline.synthesize", "timeline");
    let traces: Vec<AggregateTrace> = tm
        .aggregates()
        .iter()
        .enumerate()
        .map(|(i, a)| {
            synthesize(&TraceGenConfig {
                mean_mbps: a.volume_mbps,
                cv: config.cv,
                minutes: total_minutes,
                seed: spread_seed(config.seed, i as u64),
                diurnal_amplitude: config.diurnal_amplitude,
                diurnal_period_minutes: config.diurnal_period,
                ..Default::default()
            })
        })
        .collect();
    drop(synthesis);

    let graph = source.graph();
    // One source and one warm-start context for the whole run: the §5
    // cycle's speed comes from successive minutes reusing paths and LP
    // bases — and from repairing, not rebuilding, when the topology
    // changes.
    let mut ctx = SolveContext::new();

    let static_placement: Option<Placement> = if controller.adaptive {
        None
    } else {
        Some(controller.scheme.place(source, tm).expect("static placement"))
    };
    let total_volume = tm.total_volume_mbps();

    let mut current_mask = FailureMask::new();
    // The routable view under the current mask; `None` while everything is
    // up (the common fast path: no partition, no per-minute mask checks).
    let mut partition: Option<RoutablePartition> = None;
    // Static placements leak a fixed volume fraction per mask; recomputed
    // only when the mask changes.
    let mut static_lost_fraction = 0.0f64;

    let mut repair_events = 0usize;
    let mut repaired_pairs = 0usize;
    let mut kept_pairs = 0usize;
    let mut cascade_trips = 0usize;
    // Scripted events plus any cascade trips appended along the way; trips
    // always land at a later minute than the one that emitted them, so
    // per-minute index iteration stays sound. Within one minute the queue
    // drains in slice order: scripted events in their given order (the
    // last mask wins), then trips — which were appended after them.
    let mut queue: Vec<QueuedEvent> = events.iter().cloned().map(QueuedEvent::Scripted).collect();

    // The per-aggregate placement actually installed on switches, keyed by
    // ORIGINAL matrix index so entries survive re-partitions. Per-minute
    // churn is the delta against it; the bounded controller additionally
    // keeps entries live instead of re-installing.
    let mut installed: Vec<Option<AggregatePlacement>> = vec![None; tm.aggregates().len()];
    // Links whose replay queued above the bounded controller's reactive
    // trigger last minute — next minute's merge re-installs their riders.
    let mut queued_links = vec![false; graph.link_count()];

    let mut minutes = Vec::with_capacity(config.minutes);
    for t in config.warmup_minutes..total_minutes {
        let rel_t = t - config.warmup_minutes;
        // Per-minute root span; everything below nests under it. The
        // decision window keeps its own always-on timer because its
        // duration *is* the `decision_ms` column — one measurement feeds
        // both the TSV and the trace.
        let _minute = telemetry::span("timeline.minute", "timeline");
        let decision = telemetry::timed_span("timeline.decision", "timeline");
        let measure = telemetry::span("timeline.measure", "timeline");
        // Topology events due this decision minute fire first.
        for i in 0..queue.len() {
            if queue[i].at_minute() != rel_t {
                continue;
            }
            let new_mask = match &queue[i] {
                QueuedEvent::Scripted(ev) => ev.mask.clone(),
                QueuedEvent::Trip { cable, .. } => {
                    // Applied as a delta to whatever is in force *now* —
                    // same-minute scripted events already fired above.
                    let mut m = current_mask.clone();
                    m.fail_cable(graph, *cable);
                    m
                }
            };
            repair_events += 1;
            // A static controller never consults the cache after its
            // initial placement, so there is nothing to repair — the mask
            // alone drives its loss accounting and replay.
            if controller.adaptive {
                let stats = source.apply_failure(&new_mask);
                repaired_pairs += stats.repaired_pairs;
                kept_pairs += stats.kept_pairs;
            }
            current_mask = new_mask;
            partition =
                (!current_mask.is_empty()).then(|| partition_routable(graph, tm, &current_mask));
            static_lost_fraction = match &static_placement {
                Some(p) if !current_mask.is_empty() => {
                    let mut lost = 0.0;
                    for (agg, pl) in tm.aggregates().iter().zip(p.per_aggregate()) {
                        for (path, x) in &pl.splits {
                            if *x > 1e-9 && current_mask.hits_path(graph, path) {
                                lost += agg.volume_mbps * x;
                            }
                        }
                    }
                    safe_fraction(lost, total_volume)
                }
                _ => 0.0,
            };
        }
        drop(measure);

        // The demand the controller can see/route this minute, and the
        // original-matrix index of each of its aggregates.
        let minute_tm: &TrafficMatrix = partition.as_ref().map_or(tm, |p| &p.tm);
        let trace_of = |j: usize| partition.as_ref().map_or(j, |p| p.kept[j]);

        // Make-before-break transitions this minute: (minute_tm index, the
        // full placement being drained). The aggregate's traffic ramps
        // from these splits onto the new ones across the minute's bins.
        let mut overlap: Vec<(usize, AggregatePlacement)> = Vec::new();

        // Decide on history [0, t).
        let decide = telemetry::span("timeline.decide", "timeline");
        let placement = match &static_placement {
            Some(p) => Some(p.clone()),
            None if minute_tm.is_empty() => None,
            None => {
                let history: Vec<AggregateTrace> = (0..minute_tm.aggregates().len())
                    .map(|j| traces[trace_of(j)].truncated(t))
                    .collect();
                let candidate = controller
                    .scheme
                    .place_with_history(source, minute_tm, &history, &mut ctx)
                    .expect("adaptive placement");
                match &controller.churn {
                    Some(budget) => {
                        let orig_of: Vec<usize> =
                            (0..minute_tm.aggregates().len()).map(trace_of).collect();
                        let predicted = predict_volumes(&history);
                        let (merged, retired) = merge_bounded(
                            graph,
                            &current_mask,
                            &predicted,
                            &candidate,
                            &installed,
                            &orig_of,
                            &queued_links,
                            budget,
                        );
                        overlap = retired;
                        Some(merged)
                    }
                    None => Some(candidate),
                }
            }
        };
        drop(decide);

        // Churn: what this minute's decision pushed to switches, measured
        // against the installed state. The initial install (minute 0) is
        // the cost of turning the network on, not churn — skipped.
        let install = telemetry::span("timeline.install", "timeline");
        let mut churn = PlacementDelta::default();
        if controller.adaptive {
            if let Some(pl) = &placement {
                for (j, agg_pl) in pl.per_aggregate().iter().enumerate() {
                    let orig = trace_of(j);
                    let volume = minute_tm.aggregates()[j].volume_mbps;
                    match (&installed[orig], rel_t) {
                        (Some(prev), _) => {
                            churn.accumulate(&PlacementDelta::of_aggregate(
                                Some(prev),
                                agg_pl,
                                volume,
                            ));
                        }
                        (None, 0) => {}
                        (None, _) => {
                            churn.accumulate(&PlacementDelta::of_aggregate(None, agg_pl, volume));
                        }
                    }
                    installed[orig] = Some(agg_pl.clone());
                }
            }
        }
        drop(install);
        let decision_ms = decision.finish_ms();

        // Replay minute t's actual samples over the placement. A static
        // placement aligns with the *full* matrix (its traffic into failed
        // elements is dropped and counted); an adaptive one with the
        // routable view.
        let unroutable_fraction = if static_placement.is_some() {
            static_lost_fraction
        } else {
            partition.as_ref().map_or(0.0, |p| p.unroutable_fraction)
        };
        let _replay = telemetry::span("timeline.replay", "timeline");
        let bins = traces[0].bins_per_minute();
        let mut per_link_load = vec![vec![0.0f64; bins]; graph.link_count()];
        // Make-before-break drain: for aggregates in transition, bin b
        // carries ramp[b] of the traffic on the new splits and the rest on
        // the retiring ones — the old paths' capacity stays claimed until
        // the drain completes, no bin is double-charged. Empty outside
        // bounded mode, so other controllers replay bit-for-bit as before.
        let mut transition: Vec<Option<&AggregatePlacement>> =
            vec![None; placement.as_ref().map_or(0, |p| p.per_aggregate().len())];
        for (j, old) in &overlap {
            transition[*j] = Some(old);
        }
        let ramp = |bin: usize| (bin + 1) as f64 / bins as f64;
        if let Some(pl) = &placement {
            for (j, agg_pl) in pl.per_aggregate().iter().enumerate() {
                let trace =
                    if static_placement.is_some() { &traces[j] } else { &traces[trace_of(j)] };
                let samples = trace.samples(t);
                for (path, x) in &agg_pl.splits {
                    if *x <= 1e-9 {
                        continue;
                    }
                    if !current_mask.is_empty() && current_mask.hits_path(graph, path) {
                        // Lost traffic, accounted in static_lost_fraction.
                        // Adaptive placements are built from the repaired
                        // cache and must never route over failed elements.
                        debug_assert!(
                            static_placement.is_some(),
                            "adaptive placement routed over a failed element"
                        );
                        continue;
                    }
                    for &l in path.links() {
                        let row = &mut per_link_load[l.idx()];
                        match transition[j] {
                            None => {
                                for (bin, &s) in samples.iter().enumerate() {
                                    row[bin] += s * x;
                                }
                            }
                            Some(_) => {
                                for (bin, &s) in samples.iter().enumerate() {
                                    row[bin] += s * x * ramp(bin);
                                }
                            }
                        }
                    }
                }
                let Some(old) = transition[j] else { continue };
                for (path, x) in &old.splits {
                    if *x <= 1e-9
                        || (!current_mask.is_empty() && current_mask.hits_path(graph, path))
                    {
                        continue;
                    }
                    for &l in path.links() {
                        let row = &mut per_link_load[l.idx()];
                        for (bin, &s) in samples.iter().enumerate() {
                            row[bin] += s * x * (1.0 - ramp(bin));
                        }
                    }
                }
            }
        }
        let mut worst_queue_ms = 0.0f64;
        let mut overloaded_links = 0usize;
        // The cascade candidate: the worst cable sustaining minute-mean
        // load above the trip threshold (per-bin bursts queue, they don't
        // blow cables).
        let mut trip: Option<lowlat_netgraph::LinkId> = None;
        let mut trip_over = cascade.map_or(f64::INFINITY, |c| c.trip_overload);
        let queue_trigger_ms =
            controller.churn.as_ref().map_or(f64::INFINITY, |b| b.queue_trigger_ms);
        for l in graph.link_ids() {
            queued_links[l.idx()] = false;
            let cap = if current_mask.is_empty() {
                graph.link(l).capacity_mbps
            } else {
                current_mask.effective_capacity(graph, l)
            };
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
            queued_links[l.idx()] = link_queue_ms > queue_trigger_ms;
            if overloaded {
                overloaded_links += 1;
            }
            let over = sum / bins as f64 / cap - 1.0;
            if over > trip_over {
                trip = Some(l);
                trip_over = over;
            }
        }
        if let Some(l) = trip {
            let max_trips = cascade.map_or(0, |c| c.max_trips);
            if cascade_trips < max_trips && rel_t + 1 < config.minutes {
                // The overloaded cable blows next minute. Stored as a
                // delta — the mask it lands on is resolved at fire time,
                // after any scripted event due the same minute.
                queue.push(QueuedEvent::Trip { at_minute: rel_t + 1, cable: l });
                cascade_trips += 1;
            }
        }
        let latency_stretch = match &placement {
            Some(pl) if static_placement.is_some() => {
                PlacementEval::evaluate_on(graph, tm, pl).latency_stretch()
            }
            Some(pl) => PlacementEval::evaluate_on(graph, minute_tm, pl).latency_stretch(),
            None => 1.0,
        };
        minutes.push(MinuteReport {
            worst_queue_ms,
            overloaded_links,
            latency_stretch,
            unroutable_fraction,
            decision_ms,
            paths_changed: churn.paths_changed(),
            moved_volume_fraction: churn.moved_volume_fraction(),
        });
    }
    TimelineOutcome {
        minutes,
        lp_warm_hits: ctx.warm_hits(),
        lp_solves: ctx.solves(),
        repair_events,
        repaired_pairs,
        kept_pairs,
        cascade_trips,
    }
}

/// Merges the minute's fresh `candidate` placement with the `installed`
/// switch state under a [`ChurnBudget`].
///
/// Per aggregate `j` of the minute's matrix (whose original index is
/// `orig_of[j]`), the candidate is taken when (a) nothing is installed yet,
/// (b) the installed paths are broken by the mask, or (c) the candidate
/// improves predicted mean delay by more than `budget.epsilon` relative —
/// optional re-installs are ranked by predicted delay·volume gain and cut
/// off at `budget.max_paths_per_minute` switch operations (forced ones
/// spend first). A final pass force-takes kept aggregates while keeping
/// them would push some link's *predicted* load past `budget.util_guard`
/// times effective capacity.
///
/// Returns the merged placement (aligned with the minute's matrix) plus
/// the make-before-break transitions: the full old placement of every
/// aggregate re-installed while its installed paths were still alive,
/// which the replay drains across the transition minute. Aggregates whose
/// paths a failure already broke switch instantly — there is nothing left
/// to break gently — and fresh installs have nothing to drain.
#[allow(clippy::too_many_arguments)]
fn merge_bounded(
    graph: &Graph,
    mask: &FailureMask,
    predicted: &[f64],
    candidate: &Placement,
    installed: &[Option<AggregatePlacement>],
    orig_of: &[usize],
    queued_links: &[bool],
    budget: &ChurnBudget,
) -> (Placement, Vec<(usize, AggregatePlacement)>) {
    let n = candidate.per_aggregate().len();
    let change_cost = |j: usize| {
        PlacementDelta::of_aggregate(installed[orig_of[j]].as_ref(), candidate.aggregate(j), 1.0)
            .paths_changed()
    };
    let mut take = vec![false; n];
    let mut broken_paths = vec![false; n];
    let mut spent = 0usize;
    let mut optional: Vec<(usize, f64)> = Vec::new();
    for j in 0..n {
        match &installed[orig_of[j]] {
            // Nothing installed (fresh aggregate, or one coming back from
            // an unroutable spell): must install.
            None => {
                take[j] = true;
                spent += change_cost(j);
            }
            Some(prev) => {
                let broken = !mask.is_empty()
                    && prev.splits.iter().any(|(p, x)| *x > 1e-9 && mask.hits_path(graph, p));
                if broken {
                    take[j] = true;
                    broken_paths[j] = true;
                    spent += change_cost(j);
                } else {
                    let prev_d = prev.mean_delay_ms();
                    let cand_d = candidate.aggregate(j).mean_delay_ms();
                    if prev_d - cand_d > budget.epsilon * prev_d.max(1e-9) {
                        optional.push((j, predicted[j] * (prev_d - cand_d)));
                    }
                }
            }
        }
    }
    // Spend whatever budget remains on the re-installs that buy the most
    // predicted delay·volume, best first (ties broken by index for
    // determinism).
    optional.sort_by(|a, b| {
        b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
    });
    for &(j, _) in &optional {
        let cost = change_cost(j);
        if spent + cost <= budget.max_paths_per_minute {
            take[j] = true;
            spent += cost;
        }
    }
    // Capacity pressure: keeping stale splits must not (predictably)
    // overload a link — and a link that *actually queued* past the
    // reactive trigger last minute is repaired now, prediction or not.
    // While a link is hot, flip the kept aggregate whose re-install
    // relieves it most. Links the *fresh candidate* itself would run as
    // hot are hopeless — no amount of re-installing cures them, so they
    // never charge churn.
    let mut cand_load = vec![0.0f64; graph.link_count()];
    let fraction_on = |splits: &[(Path, f64)], link: LinkId| -> f64 {
        splits.iter().filter(|(p, x)| *x > 1e-9 && p.links().contains(&link)).map(|(_, x)| *x).sum()
    };
    for j in 0..n {
        for (path, x) in &candidate.aggregate(j).splits {
            if *x > 1e-9 {
                for &l in path.links() {
                    cand_load[l.idx()] += predicted[j] * x;
                }
            }
        }
    }
    loop {
        let mut load = vec![0.0f64; graph.link_count()];
        for j in 0..n {
            let splits = if take[j] {
                &candidate.aggregate(j).splits
            } else {
                &installed[orig_of[j]].as_ref().expect("kept implies installed").splits
            };
            for (path, x) in splits {
                if *x > 1e-9 {
                    for &l in path.links() {
                        load[l.idx()] += predicted[j] * x;
                    }
                }
            }
        }
        let worst = graph
            .link_ids()
            .filter_map(|l| {
                let cap = if mask.is_empty() {
                    graph.link(l).capacity_mbps
                } else {
                    mask.effective_capacity(graph, l)
                };
                if cap <= 0.0 {
                    return None;
                }
                let guard = budget.util_guard * cap;
                let predicted_hot = load[l.idx()] > guard && cand_load[l.idx()] <= guard;
                let reactive_hot =
                    queued_links[l.idx()] && load[l.idx()] > cand_load[l.idx()] + 1e-9;
                (predicted_hot || reactive_hot).then(|| (l, load[l.idx()] / cap))
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let Some((hot, _)) = worst else { break };
        let flip = (0..n)
            .filter(|&j| !take[j])
            .filter_map(|j| {
                let prev = installed[orig_of[j]].as_ref().expect("kept implies installed");
                let relief = predicted[j]
                    * (fraction_on(&prev.splits, hot)
                        - fraction_on(&candidate.aggregate(j).splits, hot));
                (relief > 0.0).then_some((j, relief))
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        // No kept aggregate can relieve the hot link (or the budget is
        // exhausted): stop rather than churn without effect.
        let Some((j, _)) = flip else { break };
        if spent + change_cost(j) > budget.max_paths_per_minute {
            break;
        }
        take[j] = true;
        spent += change_cost(j);
    }
    let mut merged = Vec::with_capacity(n);
    let mut transitions = Vec::new();
    for j in 0..n {
        if take[j] {
            let new = candidate.aggregate(j);
            if let Some(prev) = &installed[orig_of[j]] {
                // A live re-install drains make-before-break; one that
                // actually changes nothing has nothing to drain.
                if !broken_paths[j]
                    && PlacementDelta::of_aggregate(Some(prev), new, 1.0).paths_changed() > 0
                {
                    transitions.push((j, prev.clone()));
                }
            }
            merged.push(new.clone());
        } else {
            merged.push(installed[orig_of[j]].as_ref().expect("kept implies installed").clone());
        }
    }
    (Placement::new(merged), transitions)
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
        let flat = simulate_with_events(&topo, &tm, &Controller::ldr(), &cfg, &events);
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
        assert!(snap.counter("lp.solves") > 0, "LP counters recorded while enabled");
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
        let out = simulate_with_events(&topo, &tm, &Controller::ldr(), &cfg, &events);
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
            let out = simulate_with_events(&topo, &tm, &Controller::static_sp(), &cfg, &events);
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
            ..Default::default()
        };
        let cascade = CascadeConfig { trip_overload: 0.2, max_trips: 4 };
        let out = simulate_with_cascades(&topo, &tm, &Controller::ldr(), &cfg, &events, &cascade);
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
        let plain = simulate_with_events(&topo, &tm, &Controller::ldr(), &cfg, &events);
        let cascade = CascadeConfig { trip_overload: 10.0, max_trips: 8 };
        let with_cascade =
            simulate_with_cascades(&topo, &tm, &Controller::ldr(), &cfg, &events, &cascade);
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
        let bounded = Controller::parse("bounded:LDR").expect("bounded");
        assert!(bounded.is_adaptive());
        assert!(bounded.churn_budget().is_some());
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
        let out = simulate_with_events(&topo, &tm, &Controller::ldr(), &cfg, &sever_then_up);
        assert_eq!(out.repair_events, 2, "both events fire");
        assert_eq!(out.max_unroutable_fraction(), 0.0, "the later link-up wins");

        let up_then_sever = vec![
            TimelineEvent { at_minute: 1, mask: FailureMask::new() },
            TimelineEvent { at_minute: 1, mask: sever },
        ];
        let out = simulate_with_events(&topo, &tm, &Controller::ldr(), &cfg, &up_then_sever);
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
            ..Default::default()
        };
        let cascade = CascadeConfig { trip_overload: 0.2, max_trips: 4 };
        let out = simulate_with_cascades(&topo, &tm, &Controller::ldr(), &cfg, &events, &cascade);
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
        let out = simulate_with_events(&topo, &tm, &bounded, &cfg, &events);
        assert_eq!(out.repair_events, 2, "down then up");
        assert_eq!(out.max_unroutable_fraction(), 0.0, "Abilene survives any single failure");
        assert!(out.minutes[1].paths_changed > 0, "re-placing around the failure is paid churn");
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
            simulate_with_events(&topo, &tm, &Controller::static_sp(), &cfg, &events)
        });
        assert!(result.is_err());
    }
}
