//! The Figure-12 linear program and the Figure-13 iterative path-growth
//! loop — shared machinery behind the latency-optimal scheme, MinMax, and
//! LDR.
//!
//! ## The loop (Figure 13) — column generation over a [`PathSource`]
//!
//! Start every aggregate with only its shortest path; solve; wherever
//! `O_l = Omax > 1`, extend the path lists of the aggregates crossing those
//! links with their next-shortest paths; repeat until nothing is
//! overloaded — or nothing more can help. A final refinement pass grows
//! path sets across *saturated* (not just overloaded) links so the delay
//! objective can rebalance them (the Figure-6 effect), which the LP can only
//! exploit if the alternative paths exist in the model.
//! Use [`GrowRequest`] to pose a solve.
//!
//! One decision a file:
//!
//! - `lp`: the Figure-12 LP of one round — its layout, how it is posed and
//!   solved, and the pricing step that decides whether it is posed at all;
//! - `context`: the warm-start state ([`SolveContext`]) that carries a
//!   basis along a chain of LPs and across calls;
//! - `bound`: the stopping rule that ends phase 1 once no column of the
//!   live graph can lower the overload;
//! - `pricing`: the pricing oracle's side of a solve — which pairs grow,
//!   and what their source already answered.
//!
//! ## Effective capacities (brown-outs)
//!
//! Every capacity row, utilization cap, and tight-link filter poses the
//! *effective* capacity under the source's active
//! [`lowlat_netgraph::FailureMask`] ([`PathSource::effective_capacities`]),
//! not the raw `capacity_mbps`. A degraded-but-up link — a brown-out — thus
//! constrains the LP at `factor * capacity`, so every scheme built on this
//! module (LatOpt, LDR, MinMax) re-places against the capacity that actually
//! survives, with warm bases intact ([`lowlat_linprog::Problem::solve_warm`]
//! re-verifies the basis against the changed coefficients, so a stale basis
//! degrades to a cold solve, never to a wrong answer). Downed links never
//! appear: masked cache repair keeps them off every candidate path, and
//! degradation factors are strictly inside (0, 1), so every capacity the LP
//! divides by is positive.

mod bound;
mod context;
mod lp;
mod pricing;

use lowlat_linprog::LpError;
use lowlat_netgraph::Path;
use lowlat_telemetry as telemetry;
use lowlat_tmgen::TrafficMatrix;

use crate::placement::{AggregatePlacement, Placement};
use crate::source::PathSource;

use bound::{bound_armed, BoundVerdict, BOUND_TOL};
pub use context::SolveContext;
use lp::{agg_infos, Fractions, LpData, LpLayout, LpMode};
use pricing::{grow_crossing, PricingState};

/// The one dial of the LP + growth loop; the rest are the constants below.
#[derive(Clone, Debug, Default)]
pub struct GrowthConfig {
    /// Fraction of every link's capacity reserved as headroom (§4's dial).
    pub headroom: f64,
}

/// The paper's M1: weight of the `d_p/S_a` tie-break term.
const M1: f64 = 1e-3;

/// Paths added to an overloaded aggregate per round.
const GROWTH_STEP: usize = 2;

/// Growth rounds after which phase 1 gives up on an overload it has neither
/// removed nor proven final. A backstop: demand that cannot fit normally
/// ends [`GrowthEnd::ProvedFinal`] within a round or two of reaching its
/// final overload, and only a search the bound's visit budget cuts short
/// (`bound` module docs) runs this far.
const MAX_ROUNDS: usize = 48;

/// Refinement rounds growing across saturated links for delay rebalancing.
const REFINE_ROUNDS: usize = 2;

/// The overload at or below which demand fits: phase 1 ends
/// [`GrowthEnd::Fits`] at an `omax` this small, and so does MinMax at a
/// `U* − 1` this small; an overload mode's LP names critical links only
/// above it, and they are the links within it of `omax`. Absolute, in units
/// of link capacity (`O_l = load_l / C_l − cap_scale`): the LP's
/// round-off, not an overload.
const FITS: f64 = 1e-7;

/// How far phase 2 and MinMax's stage 2 may let the overload rise above the
/// level the first stage reached ([`cap_above`]). Relative to that level.
const OVERLOAD_CAP_REL: f64 = 1e-6;

/// How far MinMax's stage 2 may let utilization rise above stage 1's `U*`
/// ([`cap_above`]). Relative to `U*`.
const UTIL_CAP_REL: f64 = 1e-5;

/// MinMax's stage 1 grows path sets while each round lowers `U` by more
/// than this. Relative to the best `U` so far.
const MINMAX_IMPROVEMENT: f64 = 1e-4;

/// The cap a later stage puts on a `level` an earlier stage reached: `rel`
/// of it above, plus [`FITS`], so the earlier stage's solution stays
/// feasible under the LP's tolerance even at a level of zero.
fn cap_above(level: f64, rel: f64) -> f64 {
    level * (1.0 + rel) + FITS
}

/// Result of the grow-and-solve loop.
#[derive(Clone, Debug)]
pub struct GrowOutcome {
    /// The traffic placement (always produced; congested when `omax > 0`).
    pub placement: Placement,
    /// Final maximum overload: `max_l load_l / cap_l - 1`, clamped at 0.
    /// Zero means the traffic fits under the configured headroom.
    pub omax: f64,
    /// Total simplex pivots across all LP solves.
    pub lp_pivots: usize,
    /// Growth rounds executed.
    pub rounds: usize,
    /// Why the overload-minimizing growth stopped.
    pub ended: GrowthEnd,
}

/// Why the growth loop stopped adding columns against overload (phase 1 of
/// the latency-optimal solve; stage 1 of MinMax reports [`GrowthEnd::Fits`]
/// or [`GrowthEnd::Exhausted`] by whether utilization ended within the
/// same fits threshold of 1 as phase 1's overload of 0).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GrowthEnd {
    /// Nothing is overloaded.
    Fits,
    /// Overload remains and is proven final: the concurrent-flow bound read
    /// off the LP's duals (`bound` module docs) shows no path of the
    /// live graph, priced or not, can lower it.
    ProvedFinal,
    /// Overload remains and the source has no further column for any
    /// aggregate crossing an overloaded link.
    Exhausted,
    /// Overload remains, unproven, after `MAX_ROUNDS`.
    RoundLimit,
}

fn to_placement(path_sets: &[Vec<Path>], fractions: &Fractions) -> Placement {
    Placement::new(
        path_sets
            .iter()
            .zip(fractions.iter())
            .map(|(paths, xs)| AggregatePlacement {
                splits: paths.iter().cloned().zip(xs.iter().cloned()).collect(),
            })
            .collect(),
    )
}

/// What a [`GrowRequest`] optimizes.
#[derive(Clone, Copy, Debug)]
enum GrowObjective {
    /// Figure 13's latency-optimal loop: phase 1 drives overload to zero,
    /// phase 2 minimizes delay at that overload level, refinement rounds
    /// rebalance across saturated links.
    LatencyOptimal,
    /// MinMax: minimize the maximum utilization, tie-broken by delay.
    /// `k_limit` caps every aggregate's path set (TeXCP's k = 10); `None`
    /// grows path sets until `U*` stops improving.
    MinMax { k_limit: Option<usize> },
}

/// Builder for one grow-and-solve run — the module's single entry point.
///
/// ```ignore
/// let out = GrowRequest::new(&cache, &tm)     // any &dyn PathSource
///     .volumes(&inflated)                      // optional (LDR headroom)
///     .config(&growth_config)                  // optional
///     .solve_with(&mut ctx)?;                  // or .solve() for cold
/// ```
///
/// Defaults: latency-optimal objective, volumes from the traffic matrix,
/// [`GrowthConfig::default`] (no headroom), a fresh (cold)
/// [`SolveContext`]. `.minmax(k_limit)` switches the objective.
pub struct GrowRequest<'a> {
    source: &'a dyn PathSource,
    tm: &'a TrafficMatrix,
    volumes: Option<&'a [f64]>,
    config: GrowthConfig,
    objective: GrowObjective,
}

impl<'a> GrowRequest<'a> {
    /// A latency-optimal request with all defaults; chain setters to adjust.
    pub fn new(source: &'a dyn PathSource, tm: &'a TrafficMatrix) -> Self {
        GrowRequest {
            source,
            tm,
            volumes: None,
            config: GrowthConfig::default(),
            objective: GrowObjective::LatencyOptimal,
        }
    }

    /// Overrides the per-aggregate volumes (LDR inflates them to buy
    /// per-aggregate headroom). Must match the matrix's aggregate count.
    pub fn volumes(mut self, volumes: &'a [f64]) -> Self {
        self.volumes = Some(volumes);
        self
    }

    /// The headroom dial.
    pub fn config(mut self, config: &GrowthConfig) -> Self {
        self.config = config.clone();
        self
    }

    /// Switches to the MinMax objective (§3 "MinMax based routing").
    pub fn minmax(mut self, k_limit: Option<usize>) -> Self {
        self.objective = GrowObjective::MinMax { k_limit };
        self
    }

    /// Solves cold (a fresh context every call).
    pub fn solve(self) -> Result<GrowOutcome, LpError> {
        self.solve_with(&mut SolveContext::new())
    }

    /// Solves warm-starting every LP from `ctx` — the deployment-cycle
    /// entry point: keep one context per scheme and successive calls
    /// (minutes) restart from each other's bases.
    pub fn solve_with(self, ctx: &mut SolveContext) -> Result<GrowOutcome, LpError> {
        let matrix_volumes: Vec<f64>;
        let volumes: &[f64] = match self.volumes {
            Some(v) => v,
            None => {
                matrix_volumes = self.tm.aggregates().iter().map(|a| a.volume_mbps).collect();
                &matrix_volumes
            }
        };
        assert_eq!(volumes.len(), self.tm.aggregates().len());
        if self.tm.is_empty() {
            return Ok(GrowOutcome {
                placement: Placement::new(Vec::new()),
                omax: 0.0,
                lp_pivots: 0,
                rounds: 0,
                ended: GrowthEnd::Fits,
            });
        }
        match self.objective {
            GrowObjective::LatencyOptimal => {
                run_latency_optimal(self.source, self.tm, volumes, self.config.headroom, ctx)
            }
            GrowObjective::MinMax { k_limit } => {
                run_minmax(self.source, self.tm, volumes, k_limit, ctx)
            }
        }
    }
}

/// The latency-optimal solve: Figure 13's loop around Figure 12's LP, with
/// the pricing step asking `source` only for the columns of overloaded /
/// saturated pairs.
fn run_latency_optimal(
    source: &dyn PathSource,
    tm: &TrafficMatrix,
    volumes: &[f64],
    headroom: f64,
    ctx: &mut SolveContext,
) -> Result<GrowOutcome, LpError> {
    assert!((0.0..1.0).contains(&headroom));
    let graph = source.graph();
    let (mut path_sets, mut pricing) = PricingState::seed(source, tm, 1);
    let aggs = agg_infos(tm, &path_sets);
    let caps = source.effective_capacities();
    let cap_scale = 1.0 - headroom;
    let mut lp = LpData::new(&aggs, volumes, &caps, cap_scale);

    let mut pivots = 0usize;
    let mut rounds = 0usize;
    let mut omax;
    // Phase 1: drive overload to zero, growing across overloaded links.
    // Every round's LP restarts from the optimum of the round before — or
    // is not posed, when its new columns cannot change that optimum.
    let phase1 = telemetry::span("pathgrow.phase1", "pathgrow");
    let mut out = lp.solve(&path_sets, &LpMode::MinOverload, None, ctx)?;
    // The overload of the round before, and the overload at which the
    // stopping test last ran: it runs after a round that did not lower
    // `omax`, once per level.
    let (mut before, mut tested_at) = (f64::INFINITY, f64::INFINITY);
    let ended = loop {
        rounds += 1;
        pivots += out.pivots;
        omax = out.level;
        if omax <= FITS {
            break GrowthEnd::Fits;
        }
        if omax > before - BOUND_TOL && omax < tested_at - BOUND_TOL && bound_armed() {
            tested_at = omax;
            let verdict = lp.proves_final(graph, tm, &path_sets, &out);
            if telemetry::enabled() {
                telemetry::counter_add("pathgrow.bound_checks", 1);
                if verdict == BoundVerdict::GaveUp {
                    telemetry::counter_add("pathgrow.bound_gave_up", 1);
                }
            }
            #[cfg(test)]
            bound::tests::note_verdict(verdict);
            if verdict == BoundVerdict::Final {
                break GrowthEnd::ProvedFinal;
            }
        }
        before = omax;
        if rounds >= MAX_ROUNDS {
            break GrowthEnd::RoundLimit;
        }
        if !grow_crossing(
            source,
            tm,
            &mut path_sets,
            &out.fractions,
            &out.critical_links,
            GROWTH_STEP,
            &mut pricing,
        ) {
            break GrowthEnd::Exhausted; // no alternative left to price
        }
        out = lp.next_round(&path_sets, &LpMode::MinOverload, out, ctx)?;
    };
    if telemetry::enabled() {
        // Both present in every traced run, so a reader can tell 0 from absent.
        telemetry::counter_add("pathgrow.proved_final", u64::from(ended == GrowthEnd::ProvedFinal));
        telemetry::counter_add(
            "pathgrow.round_limit_hits",
            u64::from(ended == GrowthEnd::RoundLimit),
        );
    }
    drop(phase1);

    // Phase 2: minimize delay subject to the achieved overload level (with
    // slack covering LP tolerance so phase 1's solution stays feasible). It
    // restarts from phase 1's vertex: the basis of an LP of its shape, or,
    // when phase 1 ended on a kept round, the last one solved, handed over.
    let phase2 = telemetry::span("pathgrow.phase2", "pathgrow");
    let mode =
        LpMode::MinLatency { omax_cap: cap_above(omax, OVERLOAD_CAP_REL), util_cap: f64::INFINITY };
    let mut out = lp.solve(&path_sets, &mode, out.kept.then_some(&out.layout), ctx)?;
    pivots += out.pivots;
    drop(phase2);

    // Refinement: give the delay objective alternatives across *saturated*
    // links (Figure-6 rebalancing), as long as it keeps helping. Saturation
    // is judged against effective capacity, so a browned-out link at its
    // degraded limit is a growth target even when its raw-capacity slack
    // looks comfortable.
    for _ in 0..REFINE_ROUNDS {
        let _refine = telemetry::span("pathgrow.refine_round", "pathgrow");
        // A link no held path crosses carries nothing: the LP's links are
        // the candidates, not the graph's.
        let saturated =
            lp.links_loaded_to(cap_scale, &out.layout.used_links, &path_sets, &out.fractions);
        if saturated.is_empty() {
            break;
        }
        if !grow_crossing(
            source,
            tm,
            &mut path_sets,
            &out.fractions,
            &saturated,
            GROWTH_STEP,
            &mut pricing,
        ) {
            break;
        }
        out = lp.next_round(&path_sets, &mode, out, ctx)?;
        pivots += out.pivots;
        rounds += 1;
    }
    if telemetry::enabled() {
        telemetry::counter_add("pathgrow.lps_skipped", lp.lps_skipped);
    }
    pricing.report();

    Ok(GrowOutcome {
        placement: to_placement(&path_sets, &out.fractions),
        omax,
        lp_pivots: pivots,
        rounds,
        ended,
    })
}

/// MinMax: minimize the maximum link utilization, tie-broken by the delay
/// objective (§3 "MinMax based routing").
fn run_minmax(
    source: &dyn PathSource,
    tm: &TrafficMatrix,
    volumes: &[f64],
    k_limit: Option<usize>,
    ctx: &mut SolveContext,
) -> Result<GrowOutcome, LpError> {
    let (mut path_sets, mut pricing) = PricingState::seed(source, tm, k_limit.unwrap_or(1));
    let aggs = agg_infos(tm, &path_sets);
    let caps = source.effective_capacities();
    let mut lp = LpData::new(&aggs, volumes, &caps, 1.0);

    let mut pivots = 0usize;
    let mut rounds = 0usize;
    // Stage 1: minimize U; for pure MinMax, grow across the links pinning
    // U until U stops improving.
    let mut best_u = f64::INFINITY;
    let stage1 = telemetry::span("pathgrow.minmax_stage1", "pathgrow");
    let mut grown_from: Option<LpLayout> = None;
    loop {
        rounds += 1;
        let out = lp.solve(&path_sets, &LpMode::MinUtilization, grown_from.as_ref(), ctx)?;
        pivots += out.pivots;
        let improved = out.level < best_u * (1.0 - MINMAX_IMPROVEMENT);
        best_u = best_u.min(out.level);
        if k_limit.is_some() || rounds >= MAX_ROUNDS || (rounds > 1 && !improved) {
            break;
        }
        // The links pinning U, judged against effective (masked) capacity:
        // among the LP's links, as a link no held path crosses carries
        // nothing.
        let pinning =
            lp.links_loaded_to(out.level, &out.layout.used_links, &path_sets, &out.fractions);
        if !grow_crossing(
            source,
            tm,
            &mut path_sets,
            &out.fractions,
            &pinning,
            GROWTH_STEP,
            &mut pricing,
        ) {
            break;
        }
        grown_from = Some(out.layout);
    }
    drop(stage1);

    // Stage 2: minimize delay subject to utilization <= U*. When the
    // traffic genuinely exceeds capacity (U* > 1) the overload variables
    // must be allowed to absorb the excess.
    let _stage2 = telemetry::span("pathgrow.minmax_stage2", "pathgrow");
    let mode = LpMode::MinLatency {
        omax_cap: cap_above((best_u - 1.0).max(0.0), OVERLOAD_CAP_REL),
        util_cap: cap_above(best_u, UTIL_CAP_REL),
    };
    let out = lp.solve(&path_sets, &mode, None, ctx)?;
    pivots += out.pivots;
    pricing.report();
    let omax = (best_u - 1.0).max(0.0);
    Ok(GrowOutcome {
        placement: to_placement(&path_sets, &out.fractions),
        omax,
        lp_pivots: pivots,
        rounds,
        ended: if omax <= FITS { GrowthEnd::Fits } else { GrowthEnd::Exhausted },
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::hier::{EngineConfig, PartitionedPathEngine};
    use crate::pathset::PathCache;
    use crate::scale::ScaleToLoad;
    use lowlat_netgraph::FailureMask;
    use lowlat_netgraph::{Graph, LinkId, NodeId};
    use lowlat_tmgen::{Aggregate, GravityTmGen, TmGenConfig};
    use lowlat_topology::zoo::named;
    use lowlat_topology::{generate, GeoPoint, SynthConfig, SynthModel, Topology, TopologyBuilder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::bound::tests::{verdicts, without_bound};
    pub(crate) use super::lp::tests::kept_rounds;
    use super::lp::tests::{audited, without_pricing};
    use super::lp::AggInfo;
    use super::pricing::tests::SURPLUS_OFF;

    /// Two-path network: fast path 2 ms (cap 100), slow path 6 ms (cap 100).
    fn two_path() -> Topology {
        let mut b = TopologyBuilder::new("two");
        let a = b.add_pop("A", GeoPoint::new(40.0, -100.0));
        let m = b.add_pop("M", GeoPoint::new(41.0, -97.0));
        let n = b.add_pop("N", GeoPoint::new(39.0, -97.0));
        let z = b.add_pop("Z", GeoPoint::new(40.0, -94.0));
        b.connect_with_delay(a, m, 1.0, 100.0);
        b.connect_with_delay(m, z, 1.0, 100.0);
        b.connect_with_delay(a, n, 3.0, 100.0);
        b.connect_with_delay(n, z, 3.0, 100.0);
        b.build()
    }

    fn tm_one(volume: f64) -> TrafficMatrix {
        one_aggregate(0, 3, volume)
    }

    #[test]
    fn fits_on_shortest_when_light() {
        let topo = two_path();
        let cache = PathCache::new(topo.graph());
        let tm = tm_one(50.0);
        let out = GrowRequest::new(&cache, &tm).volumes(&[50.0]).solve().unwrap();
        assert_eq!(out.omax, 0.0);
        let pl = &out.placement.per_aggregate()[0];
        assert_eq!(pl.splits.len(), 1, "no growth needed");
        assert!((pl.mean_delay_ms() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn splits_when_shortest_overflows() {
        let topo = two_path();
        let cache = PathCache::new(topo.graph());
        let tm = tm_one(150.0);
        let out = GrowRequest::new(&cache, &tm).volumes(&[150.0]).solve().unwrap();
        assert!(out.omax <= 1e-7, "150 fits across both paths");
        let pl = out.placement.aggregate(0);
        // 100 on the fast path, 50 on the slow one.
        let mean = pl.mean_delay_ms();
        let expect = (100.0 / 150.0) * 2.0 + (50.0 / 150.0) * 6.0;
        assert!((mean - expect).abs() < 1e-6, "mean {mean} vs {expect}");
        assert!(out.rounds >= 2, "needed at least one growth round");
    }

    #[test]
    fn reports_overload_when_truly_infeasible() {
        let topo = two_path();
        let cache = PathCache::new(topo.graph());
        let tm = tm_one(250.0);
        let out = GrowRequest::new(&cache, &tm).volumes(&[250.0]).solve().unwrap();
        assert!(out.omax > 0.2, "250 over 200 total: omax ~ 0.25, got {}", out.omax);
        // Placement still produced and structurally valid.
        assert!(out.placement.validate(topo.graph(), &tm).is_ok());
    }

    #[test]
    fn minmax_and_the_latency_optimal_loop_agree_on_what_fits() {
        // A hair over the two paths' 200 Mbps: an overload inside the LP's
        // round-off, which both objectives must call a fit.
        let topo = two_path();
        let cache = PathCache::new(topo.graph());
        let volume = 200.0 * (1.0 + 5e-8);
        let tm = tm_one(volume);
        let latopt = GrowRequest::new(&cache, &tm).solve().unwrap();
        let minmax = GrowRequest::new(&cache, &tm).minmax(None).solve().unwrap();
        assert!(latopt.omax > 0.0 && latopt.omax <= FITS, "omax {}", latopt.omax);
        assert!((minmax.omax - latopt.omax).abs() < 1e-12, "{} vs {}", minmax.omax, latopt.omax);
        assert_eq!(latopt.ended, GrowthEnd::Fits);
        assert_eq!(minmax.ended, GrowthEnd::Fits);
    }

    #[test]
    fn an_idle_aggregate_grown_across_a_target_stays_on_its_shortest_path() {
        // A -> Z at 150 overloads A-M-Z; M -> Z, whose volume is 0 this call,
        // crosses the overloaded M-Z link, is grown, and the LP gives every
        // one of its paths zero traffic.
        let topo = two_path();
        let cache = PathCache::new(topo.graph());
        let tm = TrafficMatrix::new(vec![
            Aggregate { src: NodeId(0), dst: NodeId(3), volume_mbps: 150.0, flow_count: 10 },
            Aggregate { src: NodeId(1), dst: NodeId(3), volume_mbps: 1.0, flow_count: 10 },
        ]);
        let out = GrowRequest::new(&cache, &tm).volumes(&[150.0, 0.0]).solve().unwrap();
        assert!(out.omax <= 1e-7, "150 fits across both paths");
        assert_eq!(out.placement.validate(topo.graph(), &tm), Ok(()));
        let idle = &out.placement.aggregate(1).splits;
        assert!(idle.len() > 1, "the idle aggregate was grown");
        assert_eq!(idle[0].0, cache.shortest(NodeId(1), NodeId(3)).unwrap());
        let fractions: Vec<f64> = idle.iter().map(|&(_, x)| x).collect();
        assert_eq!(fractions[0], 1.0, "{fractions:?}");
        assert!(fractions[1..].iter().all(|&x| x == 0.0), "{fractions:?}");
    }

    #[test]
    fn headroom_shrinks_effective_capacity() {
        let topo = two_path();
        let cache = PathCache::new(topo.graph());
        let tm = tm_one(150.0);
        let cfg = GrowthConfig { headroom: 0.4 };
        // Effective capacity 60 per link: 150 > 120 -> overload.
        let out = GrowRequest::new(&cache, &tm).volumes(&[150.0]).config(&cfg).solve().unwrap();
        assert!(out.omax > 0.1);
    }

    #[test]
    fn figure6_rebalancing() {
        // Two aggregates share a bottleneck on their shortest paths; the
        // cheap-detour aggregate should move, the expensive-detour one stay.
        let mut b = TopologyBuilder::new("fig6");
        let s1 = b.add_pop("S1", GeoPoint::new(40.0, -100.0));
        let s2 = b.add_pop("S2", GeoPoint::new(42.0, -100.0));
        let j1 = b.add_pop("J1", GeoPoint::new(41.0, -99.0));
        let j2 = b.add_pop("J2", GeoPoint::new(41.0, -96.0));
        let t1 = b.add_pop("T1", GeoPoint::new(40.0, -95.0));
        let t2 = b.add_pop("T2", GeoPoint::new(42.0, -95.0));
        // Shared bottleneck J1-J2.
        b.connect_with_delay(s1, j1, 1.0, 200.0);
        b.connect_with_delay(s2, j1, 1.0, 200.0);
        b.connect_with_delay(j1, j2, 1.0, 100.0);
        b.connect_with_delay(j2, t1, 1.0, 200.0);
        b.connect_with_delay(j2, t2, 1.0, 200.0);
        // Red detour (cheap): S1 -> T1 direct at 4 ms (stretch 4/3).
        b.connect_with_delay(s1, t1, 4.0, 200.0);
        // Blue detour (expensive): S2 -> T2 direct at 30 ms (stretch 10).
        b.connect_with_delay(s2, t2, 30.0, 200.0);
        let topo = b.build();
        let cache = PathCache::new(topo.graph());
        let tm = TrafficMatrix::new(vec![
            Aggregate { src: s1, dst: t1, volume_mbps: 80.0, flow_count: 16 },
            Aggregate { src: s2, dst: t2, volume_mbps: 80.0, flow_count: 16 },
        ]);
        let vols: Vec<f64> = tm.aggregates().iter().map(|a| a.volume_mbps).collect();
        let out = GrowRequest::new(&cache, &tm).volumes(&vols).solve().unwrap();
        assert!(out.omax <= 1e-7, "fits: 100 through bottleneck + 60 detoured");
        // The optimum detours 60 of red (cost 1 ms extra per unit) and keeps
        // blue on the bottleneck (its detour costs 27 ms extra per unit).
        let blue = out.placement.aggregate(1);
        assert!(
            (blue.mean_delay_ms() - 3.0).abs() < 1e-3,
            "blue must stay on its shortest path, delay {}",
            blue.mean_delay_ms()
        );
        let red = out.placement.aggregate(0);
        assert!(red.mean_delay_ms() > 3.0 + 1e-6, "red takes the cheap detour");
    }

    #[test]
    fn minmax_spreads_and_tiebreaks_latency() {
        let topo = two_path();
        let cache = PathCache::new(topo.graph());
        let tm = tm_one(100.0);
        let out = GrowRequest::new(&cache, &tm).minmax(None).solve().unwrap();
        // MinMax halves utilization by splitting 50/50 even though latency
        // suffers — exactly the §3 critique.
        let pl = out.placement.aggregate(0);
        let mean = pl.mean_delay_ms();
        // Tolerance covers the deliberate slack on the U* cap.
        assert!((mean - 4.0).abs() < 1e-3, "50/50 split means 4 ms, got {mean}");
    }

    #[test]
    fn minmax_k1_is_shortest_path() {
        let topo = two_path();
        let cache = PathCache::new(topo.graph());
        let tm = tm_one(100.0);
        let out = GrowRequest::new(&cache, &tm).minmax(Some(1)).solve().unwrap();
        let pl = out.placement.aggregate(0);
        assert!((pl.mean_delay_ms() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn solve_context_warm_starts_successive_minutes() {
        let topo = two_path();
        let cache = PathCache::new(topo.graph());
        let tm = tm_one(150.0);
        let mut ctx = SolveContext::new();
        // Minute 0 seeds the context (phase 2 may already restart from
        // phase 1's basis within the call).
        let first = GrowRequest::new(&cache, &tm).volumes(&[150.0]).solve_with(&mut ctx).unwrap();
        let solves_minute0 = ctx.solves();
        let hits_minute0 = ctx.warm_hits();
        // Minutes 1..: slightly drifted demand, same growth trajectory.
        for (minute, vol) in [152.0, 149.0, 155.0].into_iter().enumerate() {
            let warm = GrowRequest::new(&cache, &tm).volumes(&[vol]).solve_with(&mut ctx).unwrap();
            let cold = GrowRequest::new(&cache, &tm).volumes(&[vol]).solve().unwrap();
            assert!(
                (warm.placement.aggregate(0).mean_delay_ms()
                    - cold.placement.aggregate(0).mean_delay_ms())
                .abs()
                    < 1e-6,
                "minute {minute}: warm and cold placements must agree"
            );
            assert!((warm.omax - cold.omax).abs() < 1e-9);
        }
        assert!(
            ctx.warm_hits() - hits_minute0 >= ctx.solves() - solves_minute0 - 1,
            "successive minutes must restart warm: {} hits over {} post-seed solves",
            ctx.warm_hits() - hits_minute0,
            ctx.solves() - solves_minute0
        );
        let _ = first;
    }

    #[test]
    fn promotion_on_terabit_links_restarts_at_the_true_vertex() {
        // 2 Tb/s links: the promoted aggregate's `z_a0` column is its
        // `Σ = B_a` entry plus two capacity-row coefficients of 1/C = 5e-7 —
        // below any absolute tolerance that could tell it from the unit
        // column `relabel` put in that row, yet 3e6 Mbps of it is 1.5 link
        // capacities. Round 1 overloads the shortest path, round 2 promotes
        // the aggregate onto both; every LP must agree with its cold solve.
        let topo = two_path_scaled([2e4; 4]);
        let cache = PathCache::new(topo.graph());
        let tm = tm_one(3e6);
        let mut ctx = SolveContext::new();
        let (out, lps, _) =
            audited(|| GrowRequest::new(&cache, &tm).volumes(&[3e6]).solve_with(&mut ctx).unwrap());
        assert!(lps >= 3 && out.rounds >= 2, "needs a growth round: {lps} LPs");
        assert!(ctx.warm_hits() >= 1, "the promoted round restarts warm");
        assert!(out.omax <= 1e-9, "3e6 fits across both paths, omax {}", out.omax);
        let cold = GrowRequest::new(&cache, &tm).volumes(&[3e6]).solve().unwrap();
        assert!((out.omax - cold.omax).abs() <= 1e-9);
        let (warm_ms, cold_ms) = (
            out.placement.aggregate(0).mean_delay_ms(),
            cold.placement.aggregate(0).mean_delay_ms(),
        );
        assert!((warm_ms - cold_ms).abs() <= 1e-9, "mean delay {warm_ms} vs cold {cold_ms}");
        assert!((warm_ms - (2.0 * 2.0 + 6.0) / 3.0).abs() <= 1e-6);
    }

    /// `two_path` with each cable's capacity pre-scaled by its factor — the
    /// physically rebuilt counterpart of a degradation-only mask.
    fn two_path_scaled(factors: [f64; 4]) -> Topology {
        let mut b = TopologyBuilder::new("two-scaled");
        let a = b.add_pop("A", GeoPoint::new(40.0, -100.0));
        let m = b.add_pop("M", GeoPoint::new(41.0, -97.0));
        let n = b.add_pop("N", GeoPoint::new(39.0, -97.0));
        let z = b.add_pop("Z", GeoPoint::new(40.0, -94.0));
        b.connect_with_delay(a, m, 1.0, 100.0 * factors[0]);
        b.connect_with_delay(m, z, 1.0, 100.0 * factors[1]);
        b.connect_with_delay(a, n, 3.0, 100.0 * factors[2]);
        b.connect_with_delay(n, z, 3.0, 100.0 * factors[3]);
        b.build()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// A degradation-only mask must constrain the LP exactly like a
        /// graph whose capacities are physically scaled down: same overload,
        /// same mean delay. This pins the masked capacity-provider path to
        /// the rebuilt-graph oracle.
        #[test]
        fn masked_lp_matches_physically_rebuilt_graph(
            (f0, f1, f2, f3) in (0.1f64..0.95, 0.1f64..0.95, 0.1f64..0.95, 0.1f64..0.95),
            volume in 20.0f64..250.0,
        ) {
            use proptest::prelude::prop_assert;
            let factors = [f0, f1, f2, f3];
            let topo = two_path();
            let cache = PathCache::new(topo.graph());
            let mut mask = lowlat_netgraph::FailureMask::new();
            for (c, &f) in topo.cables().iter().zip(&factors) {
                mask.degrade_cable(topo.graph(), *c, f);
            }
            let stats = cache.apply_failure(&mask);
            prop_assert!(stats.repaired_pairs == 0, "degradation-only repair is free");
            let tm = tm_one(volume);
            let masked = GrowRequest::new(&cache, &tm).volumes(&[volume]).solve().unwrap();

            let rebuilt = two_path_scaled(factors);
            let oracle_cache = PathCache::new(rebuilt.graph());
            let oracle = GrowRequest::new(&oracle_cache, &tm).volumes(&[volume]).solve().unwrap();

            prop_assert!(
                (masked.omax - oracle.omax).abs() < 1e-6,
                "omax: masked {} vs rebuilt {}", masked.omax, oracle.omax
            );
            let (md, od) = (
                masked.placement.aggregate(0).mean_delay_ms(),
                oracle.placement.aggregate(0).mean_delay_ms(),
            );
            prop_assert!((md - od).abs() < 1e-5, "mean delay: masked {md} vs rebuilt {od}");
        }
    }

    #[test]
    fn latopt_beats_minmax_on_latency() {
        let topo = two_path();
        let cache = PathCache::new(topo.graph());
        let tm = tm_one(100.0);
        let lat = GrowRequest::new(&cache, &tm).volumes(&[100.0]).solve().unwrap();
        let mm = GrowRequest::new(&cache, &tm).minmax(None).solve().unwrap();
        assert!(
            lat.placement.aggregate(0).mean_delay_ms()
                < mm.placement.aggregate(0).mean_delay_ms() - 1e-6
        );
    }

    /// Figure 12's delay term (un-normalized) of a fractional assignment.
    fn delay_term<'x>(
        aggs: &[AggInfo],
        path_sets: &[Vec<Path>],
        fractions: impl Iterator<Item = &'x [f64]>,
    ) -> f64 {
        aggs.iter()
            .zip(path_sets.iter().zip(fractions))
            .map(|(agg, (paths, xs))| {
                let mean: f64 = paths.iter().zip(xs).map(|(p, x)| x * p.delay_ms()).sum();
                agg.flows * mean * (1.0 + M1 / agg.sp_delay.max(1e-9))
            })
            .sum()
    }

    /// One chained solve under the cold audit, then the check that it
    /// stopped at an optimum *of the LP over the columns it ended with*: a
    /// cold re-solve over exactly the path sets it returned reaches the
    /// same overload and the same delay objective. Returns the outcome and
    /// the pivots an all-cold run of the same LPs takes.
    fn solve_audited(
        source: &dyn PathSource,
        tm: &TrafficMatrix,
        volumes: &[f64],
        ctx: &mut SolveContext,
    ) -> (GrowOutcome, usize) {
        let (out, lps, cold_pivots) =
            audited(|| GrowRequest::new(source, tm).volumes(volumes).solve_with(ctx).unwrap());
        assert!(lps >= 2, "phase 1 and phase 2 at least");
        assert!(out.placement.validate(source.graph(), tm).is_ok());

        let path_sets: Vec<Vec<Path>> = out
            .placement
            .per_aggregate()
            .iter()
            .map(|pl| pl.splits.iter().map(|(p, _)| p.clone()).collect())
            .collect();
        let chained: Vec<Vec<f64>> = out
            .placement
            .per_aggregate()
            .iter()
            .map(|pl| pl.splits.iter().map(|&(_, x)| x).collect())
            .collect();
        let aggs = agg_infos(tm, &path_sets);
        let caps = source.effective_capacities();
        let mut lp = LpData::new(&aggs, volumes, &caps, 1.0);
        let phase1 =
            lp.solve(&path_sets, &LpMode::MinOverload, None, &mut SolveContext::new()).unwrap();
        assert!(
            (phase1.level - out.omax).abs() <= 1e-9,
            "omax {} vs cold {} over the same columns",
            out.omax,
            phase1.level
        );
        let mode = LpMode::MinLatency {
            omax_cap: out.omax * (1.0 + 1e-6) + 1e-7,
            util_cap: f64::INFINITY,
        };
        let phase2 = lp.solve(&path_sets, &mode, None, &mut SolveContext::new()).unwrap();
        let (got, want) = (
            delay_term(&aggs, &path_sets, chained.iter().map(Vec::as_slice)),
            delay_term(&aggs, &path_sets, phase2.fractions.iter()),
        );
        // 1e-6 relative, or what the solver's pricing tolerance leaves open
        // (see `audit_against_cold`) where that is more.
        let norm: f64 = aggs.iter().map(|a| a.flows * a.sp_delay).sum();
        let slop = (1e-6 * want).max(2e-9 * volumes.iter().sum::<f64>() * norm);
        assert!((got - want).abs() <= slop, "delay objective {got} vs cold {want}");
        (out, cold_pivots)
    }

    #[test]
    fn chained_solve_is_optimal_over_its_own_columns_on_abilene() {
        let topo = named::abilene();
        let tm = GravityTmGen::new(TmGenConfig::default())
            .generate(&topo, 0)
            .scaled_to_load(&topo, 0.35);
        let cache = PathCache::new(topo.graph());
        let volumes: Vec<f64> = tm.aggregates().iter().map(|a| a.volume_mbps).collect();
        solve_audited(&cache, &tm, &volumes, &mut SolveContext::new());
    }

    /// GTS-like at the benchmark load, demands inflated the way LDR's
    /// Figure-14 loop inflates them: x1.1 on a third of the aggregates, a
    /// different third each call, three calls through one context.
    fn gts_like_inflated_calls(mut each: impl FnMut(&PathCache, &TrafficMatrix, &[f64])) {
        let topo = named::gts_like();
        let tm = GravityTmGen::new(TmGenConfig::default())
            .generate(&topo, 0)
            .scaled_to_load(&topo, 0.55);
        let cache = PathCache::new(topo.graph());
        for call in 0..3 {
            let volumes: Vec<f64> = tm
                .aggregates()
                .iter()
                .enumerate()
                .map(|(a, agg)| agg.volume_mbps * if (a + call) % 3 == 0 { 1.1 } else { 1.0 })
                .collect();
            each(&cache, &tm, &volumes);
        }
    }

    #[test]
    fn chained_solves_are_optimal_over_their_own_columns_on_gts_like() {
        let mut ctx = SolveContext::new();
        gts_like_inflated_calls(|cache, tm, volumes| {
            solve_audited(cache, tm, volumes, &mut ctx);
        });
    }

    #[test]
    fn growth_rounds_restart_from_the_round_before() {
        // The work count the chain exists for: nearly every LP of a growth
        // sequence restarts warm, for a fraction of the pivots the same LPs
        // take cold. (Keyed by shape alone, without the hand-over, the share
        // reads 0.48 here: every round whose shape is new runs cold.)
        let mut ctx = SolveContext::new();
        let (mut pivots, mut cold_pivots) = (0, 0);
        gts_like_inflated_calls(|cache, tm, volumes| {
            let (out, cold) = solve_audited(cache, tm, volumes, &mut ctx);
            pivots += out.lp_pivots;
            cold_pivots += cold;
        });
        let share = ctx.warm_hits() as f64 / ctx.solves() as f64;
        assert!(share >= 0.85, "{} warm of {} solves", ctx.warm_hits(), ctx.solves());
        assert!(3 * pivots <= cold_pivots, "{pivots} pivots chained vs {cold_pivots} all cold");
    }

    /// An 8-pair batch at `overload`x shortest-path overload on a
    /// Barabasi-Albert graph of `nodes` nodes: every round adds links (rows)
    /// as well as paths.
    fn overloaded_batch(g: &Graph, source: &dyn PathSource, overload: f64) -> TrafficMatrix {
        let nodes = g.node_count() as u32;
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = std::collections::BTreeSet::new();
        let mut aggs = Vec::new();
        while aggs.len() < 8 {
            let (s, d) = (rng.gen_range(0..nodes), rng.gen_range(0..nodes));
            if s != d && seen.insert((s, d)) {
                aggs.push(Aggregate {
                    src: NodeId(s),
                    dst: NodeId(d),
                    volume_mbps: rng.gen_range(100.0..300.0),
                    flow_count: 10,
                });
            }
        }
        let tm = TrafficMatrix::new(aggs);
        let mut loads = vec![0.0; g.link_count()];
        for a in tm.aggregates() {
            let sp = source.shortest(a.src, a.dst).expect("Barabasi-Albert graphs are connected");
            sp.links().iter().for_each(|l| loads[l.idx()] += a.volume_mbps);
        }
        let worst =
            g.link_ids().map(|l| loads[l.idx()] / g.link(l).capacity_mbps).fold(0.0, f64::max);
        tm.scaled(overload / worst)
    }

    #[test]
    fn chained_solve_is_optimal_over_its_own_columns_through_the_partitioned_engine() {
        // Its solves end with counters a traced test compares.
        let _quiet = crate::telemetry_lock();
        // Through the hierarchical pricing oracle, on 1k nodes.
        let ingested = generate(SynthModel::BarabasiAlbert, &SynthConfig { nodes: 1000, seed: 42 });
        let g = ingested.graph();
        let engine = PartitionedPathEngine::build(g, &EngineConfig::default());
        let tm = overloaded_batch(g, &engine, 2.0);
        let volumes: Vec<f64> = tm.aggregates().iter().map(|a| a.volume_mbps).collect();
        let mut ctx = SolveContext::new();
        let (out, _) = solve_audited(&engine, &tm, &volumes, &mut ctx);
        assert!(out.rounds > 3, "the batch must need growth, got {} rounds", out.rounds);
        assert!(ctx.warm_hits() + 1 >= ctx.solves(), "only the first LP of the chain runs cold");
        // The stored bases carry their inverses by nonzeros: a dense inverse
        // alone would be 8·rows² bytes a basis.
        let dense: usize = ctx.bases.keys().map(|&(_, rows, _)| 8 * rows * rows).sum();
        assert!(dense > 0 && 4 * ctx.basis_bytes() < dense, "{} of {dense}", ctx.basis_bytes());
    }

    #[test]
    fn the_bound_gives_up_on_a_graph_the_lp_barely_touches() {
        // Its solves end with counters a traced test compares.
        let _quiet = crate::telemetry_lock();
        // 2k nodes, an unavoidable overload: the engine never prices most of
        // the detours the graph holds, so the bound cannot be tight, and the
        // search is cut short by its budget instead of flooding the graph —
        // leaving every number of the outcome where it was.
        let ingested = generate(SynthModel::BarabasiAlbert, &SynthConfig { nodes: 2000, seed: 42 });
        let g = ingested.graph();
        let engine = PartitionedPathEngine::build(g, &EngineConfig::default());
        let tm = overloaded_batch(g, &engine, 6.0);
        let solve = || GrowRequest::new(&engine, &tm).solve().unwrap();
        let (out, seen) = verdicts(solve);
        assert!(out.omax > 1e-7 && !seen.is_empty(), "omax {}, tested {seen:?}", out.omax);
        assert!(seen.iter().all(|&v| v == BoundVerdict::GaveUp), "{seen:?}");
        let blind = without_bound(solve);
        assert_eq!(fingerprint(&out), fingerprint(&blind));
    }

    /// Every number of an outcome, to the bit.
    fn fingerprint(o: &GrowOutcome) -> impl PartialEq + std::fmt::Debug {
        let splits: Vec<Vec<(Vec<LinkId>, u64)>> = o
            .placement
            .per_aggregate()
            .iter()
            .map(|pl| pl.splits.iter().map(|(p, x)| (p.links().to_vec(), x.to_bits())).collect())
            .collect();
        (o.rounds, o.lp_pivots, o.omax.to_bits(), o.ended, splits)
    }

    // ---- One ask per pair (`pricing` module docs) ----

    /// Forwards to the wrapped source and counts the calls that price:
    /// `grow`, `paths` and `shortest_delay_bound`.
    struct CountingSource<'a> {
        inner: &'a dyn PathSource,
        pricing_calls: std::sync::atomic::AtomicUsize,
    }

    impl CountingSource<'_> {
        fn count(&self) {
            self.pricing_calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    impl PathSource for CountingSource<'_> {
        fn graph(&self) -> &Graph {
            self.inner.graph()
        }
        fn paths(&self, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
            self.count();
            self.inner.paths(src, dst, k)
        }
        fn grow(&self, src: NodeId, dst: NodeId, want: usize) -> Vec<Path> {
            self.count();
            self.inner.grow(src, dst, want)
        }
        fn shortest_delay_bound(&self, src: NodeId, dst: NodeId) -> f64 {
            self.count();
            self.inner.shortest_delay_bound(src, dst)
        }
        fn failure_mask(&self) -> Option<std::sync::Arc<FailureMask>> {
            self.inner.failure_mask()
        }
        fn apply_failure(&self, mask: &FailureMask) -> crate::pathset::RepairStats {
            self.inner.apply_failure(mask)
        }
        fn cached_pairs(&self) -> usize {
            self.inner.cached_pairs()
        }
    }

    /// One cold call keeping every surplus and one dropping them (asking
    /// again every round, as the loop did before a source could answer
    /// long): the same outcome to the bit through the same LPs. Returns the
    /// pricing calls each made.
    fn surplus_only_removes_asks(
        source: &dyn PathSource,
        tm: &TrafficMatrix,
        volumes: &[f64],
    ) -> (usize, usize) {
        let run = || {
            let counting = CountingSource { inner: source, pricing_calls: Default::default() };
            let mut ctx = SolveContext::new();
            let out =
                GrowRequest::new(&counting, tm).volumes(volumes).solve_with(&mut ctx).unwrap();
            (out, ctx.solves(), counting.pricing_calls.into_inner())
        };
        let (on, on_solves, on_calls) = run();
        SURPLUS_OFF.set(true);
        let (off, off_solves, off_calls) = run();
        SURPLUS_OFF.set(false);
        assert!(on.rounds > 3, "the case must need growth, got {} rounds", on.rounds);
        assert_eq!(fingerprint(&on), fingerprint(&off));
        assert_eq!(on_solves, off_solves);
        (on_calls, off_calls)
    }

    #[test]
    fn a_surplus_only_removes_asks_through_the_partitioned_engine() {
        let ingested = generate(SynthModel::BarabasiAlbert, &SynthConfig { nodes: 1000, seed: 42 });
        let g = ingested.graph();
        let engine = PartitionedPathEngine::build(g, &EngineConfig::default());
        let tm = overloaded_batch(g, &engine, 2.0);
        let volumes: Vec<f64> = tm.aggregates().iter().map(|a| a.volume_mbps).collect();
        let cross = tm.aggregates().iter().filter(|a| !engine.same_leaf(a.src, a.dst)).count();
        assert!(cross > 0, "the batch must hold cross-leaf pairs");
        let (on, off) = surplus_only_removes_asks(&engine, &tm, &volumes);
        assert!(on < off, "{on} pricing calls with the surplus kept, {off} without");
        assert_eq!(engine.cached_pairs(), tm.aggregates().len() - cross);

        // Both counters are written by a traced call (the registry is
        // process-wide, so other tests may add to them meanwhile: lower
        // bounds).
        let _traced = crate::telemetry_lock();
        let before = telemetry::snapshot();
        telemetry::set_enabled(true);
        GrowRequest::new(&engine, &tm).volumes(&volumes).solve().unwrap();
        telemetry::set_enabled(false);
        let after = telemetry::snapshot();
        let added = |name: &str| after.counter(name) - before.counter(name);
        assert!(added("pathgrow.source_asks") >= tm.aggregates().len() as u64);
        assert!(added("pathgrow.columns_from_surplus") >= 1);
        assert!(added("pathgrow.columns_grown") >= added("pathgrow.columns_from_surplus"));
    }

    #[test]
    fn the_flat_cache_never_answers_long_so_no_surplus_is_held() {
        // Twice the benchmark's demand on GTS-like: growth to an overload
        // proven final. The flat cache answers `want` or fewer, so keeping
        // or dropping the surplus is the same run, call for call.
        let topo = named::gts_like();
        let tm = GravityTmGen::new(TmGenConfig::default())
            .generate(&topo, 0)
            .scaled_to_load(&topo, 0.55);
        let volumes: Vec<f64> = tm.aggregates().iter().map(|a| 2.0 * a.volume_mbps).collect();
        let (on, off) = surplus_only_removes_asks(&PathCache::new(topo.graph()), &tm, &volumes);
        assert_eq!(on, off);
    }

    // ---- Pricing before posing (`lp` module docs, "The pricing step") ----

    /// One cold call with the pricing step on and one with it off: the step
    /// only removes LPs — one per kept round — and leaves every number of
    /// the outcome where it was.
    fn pricing_only_removes_lps(source: &dyn PathSource, tm: &TrafficMatrix, volumes: &[f64]) {
        let run = || {
            let mut ctx = SolveContext::new();
            let out = GrowRequest::new(source, tm).volumes(volumes).solve_with(&mut ctx).unwrap();
            (out, ctx.solves())
        };
        let kept_before = kept_rounds();
        let (on, on_solves) = run();
        let kept = kept_rounds() - kept_before;
        let (off, off_solves) = without_pricing(run);
        assert_eq!(kept_rounds() - kept_before, kept, "nothing is kept with the step off");
        assert!(kept >= 1, "no round kept its outcome");
        assert_eq!(on_solves + kept, off_solves);
        assert_eq!((on.rounds, on.lp_pivots, on.ended), (off.rounds, off.lp_pivots, off.ended));
        assert!((on.omax - off.omax).abs() <= 1e-12, "omax {} vs {}", on.omax, off.omax);
        for (a, (x, y)) in
            on.placement.per_aggregate().iter().zip(off.placement.per_aggregate()).enumerate()
        {
            assert_eq!(x.splits.len(), y.splits.len(), "aggregate {a}");
            for ((p, fx), (q, fy)) in x.splits.iter().zip(&y.splits) {
                assert_eq!(p.links(), q.links(), "aggregate {a}");
                assert!((fx - fy).abs() <= 1e-12, "aggregate {a}: {fx} vs {fy}");
            }
        }
    }

    #[test]
    fn pricing_only_removes_lps_through_the_partitioned_engine() {
        // Its solves end with counters a traced test compares.
        let _quiet = crate::telemetry_lock();
        let ingested = generate(SynthModel::BarabasiAlbert, &SynthConfig { nodes: 1000, seed: 42 });
        let g = ingested.graph();
        let engine = PartitionedPathEngine::build(g, &EngineConfig::default());
        let tm = overloaded_batch(g, &engine, 2.0);
        let volumes: Vec<f64> = tm.aggregates().iter().map(|a| a.volume_mbps).collect();
        pricing_only_removes_lps(&engine, &tm, &volumes);
    }

    #[test]
    fn pricing_only_removes_lps_when_gts_like_cannot_carry_the_demand() {
        // Twice the benchmark's demand: phase 1 ends on an overload proven
        // final, a round after the columns stopped helping.
        let topo = named::gts_like();
        let tm = GravityTmGen::new(TmGenConfig::default())
            .generate(&topo, 0)
            .scaled_to_load(&topo, 0.55);
        let volumes: Vec<f64> = tm.aggregates().iter().map(|a| 2.0 * a.volume_mbps).collect();
        pricing_only_removes_lps(&PathCache::new(topo.graph()), &tm, &volumes);
    }

    // ---- The stopping test of phase 1 (`bound` module docs) ----

    /// A cut cable of 100 Mbps from `S`, then a mesh of five fully connected
    /// relays (1 Gbps, 1 ms) to `Z`: 325 loopless paths, every one across
    /// the cut.
    fn mesh_behind_a_cut() -> Topology {
        let mut b = TopologyBuilder::new("cut-mesh");
        let s = b.add_pop("S", GeoPoint::new(40.0, -100.0));
        let gate = b.add_pop("G", GeoPoint::new(40.0, -99.0));
        let relays: Vec<_> =
            (0..5).map(|i| b.add_pop(format!("R{i}"), GeoPoint::new(41.0, -98.0))).collect();
        let z = b.add_pop("Z", GeoPoint::new(40.0, -94.0));
        b.connect_with_delay(s, gate, 1.0, 100.0);
        for (i, &r) in relays.iter().enumerate() {
            b.connect_with_delay(gate, r, 1.0, 1000.0);
            b.connect_with_delay(r, z, 1.0, 1000.0);
            for &other in &relays[i + 1..] {
                b.connect_with_delay(r, other, 1.0, 1000.0);
            }
        }
        b.build()
    }

    fn one_aggregate(src: u32, dst: u32, volume: f64) -> TrafficMatrix {
        TrafficMatrix::new(vec![Aggregate {
            src: NodeId(src),
            dst: NodeId(dst),
            volume_mbps: volume,
            flow_count: 10,
        }])
    }

    #[test]
    fn an_unavoidable_overload_is_proven_on_the_first_round_that_fails_to_lower_it() {
        let topo = mesh_behind_a_cut();
        let cache = PathCache::new(topo.graph());
        let tm = one_aggregate(0, 6, 250.0);
        let (out, seen) = verdicts(|| GrowRequest::new(&cache, &tm).solve().unwrap());
        assert_eq!(out.ended, GrowthEnd::ProvedFinal);
        assert_eq!(seen, [BoundVerdict::Final], "one test, on round 2");
        assert!((out.omax - 1.5).abs() < 1e-9, "250 over a 100 Mbps cut: {}", out.omax);
        // Round 1, the round that did not help, and the refinement rounds.
        assert_eq!(out.rounds, 2 + REFINE_ROUNDS);

        // Without the test the loop enumerates the mesh until the backstop.
        let blind = without_bound(|| GrowRequest::new(&cache, &tm).solve().unwrap());
        assert_eq!(blind.ended, GrowthEnd::RoundLimit);
        assert_eq!(blind.rounds, MAX_ROUNDS + REFINE_ROUNDS);
        assert!((blind.omax - out.omax).abs() < 1e-9);
    }

    #[test]
    fn the_bound_waits_for_a_relief_column_deep_in_the_ranking() {
        // S -> A (100 Mbps) fans out over three fast relays to T: 15 paths
        // of at most 5 ms. The only relief, S -> B -> T (100 Mbps, 20 ms), is
        // the 16th shortest; a slow fourth relay supplies columns after it.
        let mut b = TopologyBuilder::new("late-relief");
        let s = b.add_pop("S", GeoPoint::new(40.0, -100.0));
        let a = b.add_pop("A", GeoPoint::new(40.0, -99.0));
        let relays: Vec<_> =
            (0..4).map(|i| b.add_pop(format!("R{i}"), GeoPoint::new(41.0, -98.0))).collect();
        let t = b.add_pop("T", GeoPoint::new(40.0, -94.0));
        let relief = b.add_pop("B", GeoPoint::new(38.0, -97.0));
        b.connect_with_delay(s, a, 1.0, 100.0);
        for (i, &r) in relays.iter().enumerate() {
            let delay = if i == 3 { 30.0 } else { 1.0 };
            b.connect_with_delay(a, r, delay, 1000.0);
            b.connect_with_delay(r, t, delay, 1000.0);
            for &other in &relays[i + 1..] {
                let between = if other == relays[3] { 30.0 } else { 1.0 };
                b.connect_with_delay(r, other, between, 1000.0);
            }
        }
        b.connect_with_delay(s, relief, 10.0, 100.0);
        b.connect_with_delay(relief, t, 10.0, 100.0);
        let topo = b.build();
        let cache = PathCache::new(topo.graph());
        let (src, dst) = (NodeId(0), NodeId(6));
        let ranked = cache.paths(src, dst, 17);
        let k = 1 + ranked.iter().position(|p| p.hop_count() == 2).expect("the relief path");
        assert!(k == 16 && k > 2 * GROWTH_STEP && ranked.len() == 17);

        let tm = one_aggregate(0, 6, 250.0);
        let (out, seen) = verdicts(|| GrowRequest::new(&cache, &tm).solve().unwrap());
        // Tested when round 2 leaves omax at 1.5 (the relief path is free
        // under the prices: open), not again on that plateau, and once more
        // on the round after the relief column took omax to 0.25.
        assert_eq!(seen, [BoundVerdict::Open, BoundVerdict::Final]);
        assert_eq!(out.ended, GrowthEnd::ProvedFinal);
        assert!((out.omax - 0.25).abs() < 1e-9, "250 over two 100 Mbps cuts: {}", out.omax);
        let blind = without_bound(|| GrowRequest::new(&cache, &tm).solve().unwrap());
        assert!((blind.omax - out.omax).abs() < 1e-9);
        assert!(out.rounds < blind.rounds, "{} vs {} rounds", out.rounds, blind.rounds);
    }

    #[test]
    fn the_bound_walks_the_masked_graph_at_effective_capacities() {
        // Direct S - T (100 Mbps) and a detour over D (100 Mbps); the LP
        // holds the direct path only, 150 Mbps on it.
        let mut b = TopologyBuilder::new("detour");
        let s = b.add_pop("S", GeoPoint::new(40.0, -100.0));
        let d = b.add_pop("D", GeoPoint::new(42.0, -97.0));
        let t = b.add_pop("T", GeoPoint::new(40.0, -94.0));
        b.connect_with_delay(s, t, 1.0, 100.0);
        b.connect_with_delay(s, d, 5.0, 100.0);
        b.connect_with_delay(d, t, 5.0, 100.0);
        let topo = b.build();
        let g = topo.graph();
        let cache = PathCache::new(g);
        let tm = one_aggregate(0, 2, 150.0);
        let direct = g.find_link(NodeId(0), NodeId(2)).unwrap();
        let detour = g.find_link(NodeId(0), NodeId(1)).unwrap();
        let held = vec![vec![Path::new(g, vec![direct])]];
        let aggs = agg_infos(&tm, &held);
        let verdict_and_bound = |mask: &FailureMask| {
            cache.apply_failure(mask);
            let caps = cache.effective_capacities();
            let mut lp = LpData::new(&aggs, &[150.0], &caps, 1.0);
            let out =
                lp.solve(&held, &LpMode::MinOverload, None, &mut SolveContext::new()).unwrap();
            assert_eq!(out.overload_prices.len(), 1);
            let verdict = lp.proves_final(g, &tm, &held, &out);
            let bound = lp
                .flow_bound(g, &tm, &held, &out.overload_prices, f64::NEG_INFINITY, usize::MAX)
                .unwrap();
            (verdict, out.level, bound)
        };

        // Detour up: it is free under the prices, so nothing is proven.
        let (verdict, omax, bound) = verdict_and_bound(&FailureMask::new());
        assert_eq!((verdict, omax, bound), (BoundVerdict::Open, 0.5, -1.0));
        // Detour down: not walked, and 150 over 100 is final.
        let mut mask = FailureMask::new();
        mask.fail_cable(g, detour);
        let (verdict, omax, bound) = verdict_and_bound(&mask);
        assert_eq!(verdict, BoundVerdict::Final);
        assert!(omax == 0.5 && (bound - 0.5).abs() < 1e-12, "{omax} vs {bound}");
        // A brown-out of the direct cable enters as v_l / (factor · C_l).
        mask.degrade_cable(g, direct, 0.5);
        let (verdict, omax, bound) = verdict_and_bound(&mask);
        assert_eq!(verdict, BoundVerdict::Final);
        assert!((omax - 2.0).abs() < 1e-12 && (bound - 2.0).abs() < 1e-12, "{omax} vs {bound}");
    }

    /// Chords of a 7-node chain, in the order the soundness test's bit mask
    /// selects them.
    fn chords(n: usize) -> Vec<(usize, usize)> {
        (0..n).flat_map(|i| (i + 2..n).map(move |j| (i, j))).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Soundness: whatever the link weights — an LP's duals or noise —
        /// the bound is the concurrent-flow expression over *all* loopless
        /// paths and never exceeds the overload of the LP that holds every
        /// one of them as a column. So no weights can stop a chain that
        /// could still improve.
        #[test]
        fn no_link_weights_push_the_bound_past_the_all_paths_optimum(
            n in 3usize..=7,
            chord_mask in 0u32..(1 << 15),
            capacities in proptest::collection::vec(1u32..=4, 21),
            demands in proptest::collection::vec((0usize..7, 0usize..6, 1u32..=8), 1..=3),
            weights in proptest::collection::vec(0u32..=6, 42),
            held_k in 1usize..=3,
            headroom in 0u32..=1,
        ) {
            use proptest::prelude::prop_assert;
            let mut b = lowlat_netgraph::GraphBuilder::new(n);
            let mut cables = (0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>();
            cables.extend(chords(n).into_iter().enumerate().filter(|(c, _)| chord_mask >> c & 1 == 1).map(|(_, e)| e));
            for (c, &(i, j)) in cables.iter().enumerate() {
                b.add_duplex(NodeId(i as u32), NodeId(j as u32), 1.0 + c as f64, 50.0 * capacities[c] as f64);
            }
            let g = b.build();
            let mut pairs = std::collections::BTreeMap::new();
            for &(s, off, vol) in &demands {
                let (s, d) = (s % n, (s % n + 1 + off % (n - 1)) % n);
                pairs.insert((s, d), 50.0 * vol as f64);
            }
            let tm = TrafficMatrix::new(pairs.iter().map(|(&(s, d), &v)| Aggregate {
                src: NodeId(s as u32), dst: NodeId(d as u32), volume_mbps: v, flow_count: 10,
            }).collect());
            let volumes: Vec<f64> = pairs.values().copied().collect();
            // Weights on about a third of the links, zero on the rest.
            let prices: Vec<(LinkId, f64)> = g.link_ids()
                .filter(|l| weights[l.idx()] > 4)
                .map(|l| (l, (1 + l.idx() % 3) as f64))
                .collect();
            if prices.is_empty() {
                return Ok(());
            }

            let cache = PathCache::new(&g);
            let every_path: Vec<Vec<Path>> =
                tm.aggregates().iter().map(|a| cache.paths(a.src, a.dst, 100_000)).collect();
            let held: Vec<Vec<Path>> =
                every_path.iter().map(|ps| ps[..held_k.min(ps.len())].to_vec()).collect();
            let aggs = agg_infos(&tm, &every_path);
            let caps = cache.effective_capacities();
            let cap_scale = 1.0 - 0.1 * headroom as f64;
            let mut lp = LpData::new(&aggs, &volumes, &caps, cap_scale);
            let optimum = lp
                .solve(&every_path, &LpMode::MinOverload, None, &mut SolveContext::new())
                .unwrap()
                .level;
            let bound = lp
                .flow_bound(&g, &tm, &held, &prices, f64::NEG_INFINITY, usize::MAX)
                .expect("no floor, no budget: the search completes");

            let total: f64 = prices.iter().map(|&(_, v)| v).sum();
            let length = |p: &Path| -> f64 {
                p.links().iter().map(|l| {
                    prices.iter().find(|(pl, _)| pl == l).map_or(0.0, |&(_, v)| v / total / caps[l.idx()])
                }).sum()
            };
            let by_enumeration: f64 = every_path.iter().zip(&volumes)
                .map(|(ps, b)| b * ps.iter().map(length).fold(f64::INFINITY, f64::min))
                .sum::<f64>() - cap_scale;
            prop_assert!((bound - by_enumeration).abs() <= 1e-9, "search {bound} vs enumeration {by_enumeration}");
            prop_assert!(bound <= optimum + 1e-9, "bound {bound} above the optimum {optimum}");
        }
    }

    /// One cold call per volume scale on `topo` at `load`, the stopping test
    /// on (under the cold audit) and off: every call that ends overloaded is
    /// proven final within 8 rounds at `load × scale - 1` — `scaled_to_load`
    /// defines load by MinMax utilization, an answer the bound did not
    /// compute — with the pivots and the overload of the loop that runs to
    /// its backstop. Returns how many calls ended overloaded.
    fn overloads_are_proven(topo: &Topology, load: f64, scales: &[f64]) -> usize {
        let tm =
            GravityTmGen::new(TmGenConfig::default()).generate(topo, 0).scaled_to_load(topo, load);
        let cache = PathCache::new(topo.graph());
        let mut overloaded = 0;
        for &scale in scales {
            let volumes: Vec<f64> = tm.aggregates().iter().map(|a| a.volume_mbps * scale).collect();
            let (out, _, _) =
                audited(|| GrowRequest::new(&cache, &tm).volumes(&volumes).solve().unwrap());
            assert_ne!(out.ended, GrowthEnd::RoundLimit);
            if out.omax <= 1e-7 {
                assert!(load * scale < 1.0 + 1e-4 && out.ended == GrowthEnd::Fits);
                continue;
            }
            overloaded += 1;
            let blind =
                without_bound(|| GrowRequest::new(&cache, &tm).volumes(&volumes).solve().unwrap());
            let at = format!("{} load {load} x {scale}", topo.name());
            assert_eq!(out.ended, GrowthEnd::ProvedFinal, "{at}");
            assert!(out.rounds <= 8 && out.rounds < blind.rounds, "{at}: {} rounds", out.rounds);
            assert!((out.omax - (load * scale - 1.0)).abs() < 1e-4, "{at}: omax {}", out.omax);
            assert!((out.omax - blind.omax).abs() < 1e-5, "{at}: {} vs {}", out.omax, blind.omax);
            assert_eq!(out.lp_pivots, blind.lp_pivots, "{at}");
        }
        overloaded
    }

    #[test]
    fn every_overload_on_gts_like_is_proven_final_within_eight_rounds() {
        let topo = named::gts_like();
        let proven: usize = [0.55, 0.7, 0.9]
            .iter()
            .map(|&load| overloads_are_proven(&topo, load, &[1.6, 2.0, 2.5]))
            .sum();
        assert_eq!(proven, 8, "all but 0.55 x 1.6");
    }

    #[test]
    fn every_overload_on_abilene_is_proven_final_within_eight_rounds() {
        assert_eq!(overloads_are_proven(&named::abilene(), 0.7, &[1.6, 2.0]), 2);
    }
}
