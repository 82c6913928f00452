//! LDR — Low Delay Routing (§5): the paper's practical scheme.
//!
//! LDR composes three pieces this crate already has:
//!
//! 1. **Prediction** (Algorithm 1): each aggregate's demand estimate `Ba`
//!    starts from the conservative next-minute prediction of its measured
//!    mean rate.
//! 2. **Latency-optimal placement** (Figures 12/13): the iterative LP
//!    places the predicted demands on the lowest-delay paths that avoid
//!    congestion.
//! 3. **Multiplexing appraisal** (Figure 14): for every link the proposed
//!    solution loads near capacity, the temporal (B) and convolution (C)
//!    tests check whether the aggregates sharing it statistically multiplex
//!    within the queueing allowance. Where they don't, the offending
//!    aggregates' `Ba` are scaled up — adding headroom *only where needed*,
//!    which the paper argues beats scaling down link capacities — and the
//!    optimizer runs again.
//!
//! Without traces (pure traffic-matrix input) LDR falls back to a static
//! headroom fraction, which §4 suggests is ~10% for ISP backbones.

use lowlat_telemetry as telemetry;
use lowlat_tmgen::TrafficMatrix;
use lowlat_traffic::pmf::Member;
use lowlat_traffic::{AggregateTrace, MultiplexCheck, MultiplexConfig, Verdict};

use crate::pathgrow::{GrowRequest, GrowthConfig, SolveContext};
use crate::placement::Placement;
use crate::schemes::{lacks_complete_minute, predict_volumes, RoutingScheme, SchemeError};
use crate::source::PathSource;

/// Configuration for [`Ldr`].
#[derive(Clone, Debug)]
pub struct LdrConfig {
    /// The trace-driven loop's LP headroom. Stays 0 when traces drive
    /// per-aggregate headroom; see `static_headroom`.
    pub growth: GrowthConfig,
    /// Headroom used when no traces are available (the paper's §4 analysis
    /// of the CAIDA data suggests ~10%).
    pub static_headroom: f64,
    /// Queueing allowance and quantization for the Figure-14 tests.
    pub multiplex: MultiplexConfig,
    /// Factor applied to `Ba` of aggregates on a failing link per iteration.
    pub ba_inflation: f64,
    /// Outer measure-check-tweak iterations.
    pub max_iterations: usize,
}

impl Default for LdrConfig {
    fn default() -> Self {
        LdrConfig {
            growth: GrowthConfig::default(),
            static_headroom: 0.1,
            multiplex: MultiplexConfig::default(),
            ba_inflation: 1.1,
            max_iterations: 8,
        }
    }
}

/// Diagnostics of a trace-driven LDR run.
#[derive(Clone, Debug)]
pub struct LdrOutcome {
    /// The final placement.
    pub placement: Placement,
    /// Outer iterations executed (1 = multiplexing passed immediately).
    pub iterations: usize,
    /// Final per-aggregate demand estimates (after inflation).
    pub ba: Vec<f64>,
    /// Final max overload from the LP (0 = fits).
    pub omax: f64,
    /// True when every link passed the multiplexing tests.
    pub multiplexing_ok: bool,
}

/// Counts one link appraisal into the telemetry registry, by where it ended.
fn count_checked(verdict: Verdict, cap: f64, members: &[Member<'_>]) {
    telemetry::counter_add("ldr.links_checked", 1);
    let sum_of_peaks = || members.iter().map(|&(_, peak, x)| peak * x).sum::<f64>();
    match verdict {
        Verdict::FailTemporal { .. } => telemetry::counter_add("ldr.fail_temporal", 1),
        Verdict::FailTail { .. } => telemetry::counter_add("ldr.fail_tail", 1),
        Verdict::Pass if sum_of_peaks() <= cap => telemetry::counter_add("ldr.fast_path", 1),
        Verdict::Pass => {}
    }
}

/// Counts how a decision's check answered test C into the telemetry
/// registry: every link that reached it was convolved or read back, so the
/// two sum to `links_checked − fast_path − fail_temporal`.
fn count_tails(check: &MultiplexCheck) {
    telemetry::counter_add("ldr.tail_convolved", check.tails_convolved());
    telemetry::counter_add("ldr.tail_reused", check.tails_reused());
}

/// The LDR scheme.
#[derive(Clone, Debug, Default)]
pub struct Ldr {
    config: LdrConfig,
}

impl Ldr {
    /// Creates LDR.
    ///
    /// # Panics
    /// Panics on nonsensical parameters.
    pub fn new(config: LdrConfig) -> Self {
        assert!((0.0..1.0).contains(&config.static_headroom));
        assert!(config.ba_inflation > 1.0);
        assert!(config.max_iterations >= 1);
        Ldr { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LdrConfig {
        &self.config
    }

    /// The full Figure-14 loop. `traces[i]` is the measured history of
    /// aggregate `i` (aligned with `tm.aggregates()`); the last minute's
    /// 100 ms samples feed the multiplexing tests and the minute means feed
    /// Algorithm 1. Every LP warm-starts from `ctx` — both across the
    /// inner tweak iterations and, when the caller keeps the context,
    /// across successive minutes of the deployment cycle.
    ///
    /// # Panics
    /// Panics if `traces` is not aligned with the matrix, or if a trace has
    /// no complete minute ([`RoutingScheme::place_with_history`] is the
    /// entry point that falls back to the trace-free placement instead).
    pub fn place_with_traces_ctx(
        &self,
        source: &dyn PathSource,
        tm: &TrafficMatrix,
        traces: &[AggregateTrace],
        ctx: &mut SolveContext,
    ) -> Result<LdrOutcome, SchemeError> {
        assert_eq!(traces.len(), tm.aggregates().len(), "one trace per aggregate");
        let graph = source.graph();
        let check = MultiplexCheck::new(self.config.multiplex.clone());
        // Appraise multiplexing against what the links can carry *now*: a
        // browned-out link must pass the B/C tests at its degraded capacity.
        let caps = source.effective_capacities();

        // Step 1: Algorithm-1 prediction of each aggregate's mean rate
        // (which rejects a trace with no complete minute, by aggregate).
        let mut ba: Vec<f64> = predict_volumes(traces);
        // The last minute's samples and their peak, once per decision: a
        // link sees them scaled by a fraction, which rescales the peak.
        let last_minute: Vec<(&[f64], f64)> = traces
            .iter()
            .map(|tr| (tr.samples(tr.minutes() - 1), tr.peak(tr.minutes() - 1)))
            .collect();
        let mut per_link: Vec<Vec<(usize, f64)>> = vec![Vec::new(); graph.link_count()];
        let mut members: Vec<Member<'_>> = Vec::new();
        let mut failing_links: Vec<usize> = Vec::new();

        let mut iterations = 0;
        loop {
            iterations += 1;
            let out = GrowRequest::new(source, tm)
                .volumes(&ba)
                .config(&self.config.growth)
                .solve_with(ctx)
                .inspect_err(|_| count_tails(&check))?;

            // Step 2: appraise multiplexing per link, members in ascending
            // aggregate order.
            let appraise = telemetry::span("ldr.appraise", "ldr");
            out.placement.link_incidence_into(&mut per_link);
            failing_links.clear();
            for l in graph.link_ids() {
                let incidence = &per_link[l.idx()];
                if incidence.is_empty() {
                    continue;
                }
                members.clear();
                members.extend(incidence.iter().map(|&(a, x)| {
                    let (samples, peak) = last_minute[a];
                    (samples, peak, x)
                }));
                let verdict = check.check_members(caps[l.idx()], &members);
                if telemetry::enabled() {
                    count_checked(verdict, caps[l.idx()], &members);
                }
                if !verdict.passed() {
                    failing_links.push(l.idx());
                }
            }
            drop(appraise);

            let converged = failing_links.is_empty();
            if converged || iterations >= self.config.max_iterations {
                if telemetry::enabled() {
                    // `multiplexing_ok`, made visible.
                    let ending = if converged { "ldr.converged" } else { "ldr.exhausted" };
                    telemetry::counter_add(ending, 1);
                    telemetry::counter_add("ldr.iterations", iterations as u64);
                    count_tails(&check);
                }
                return Ok(LdrOutcome {
                    placement: out.placement,
                    iterations,
                    ba,
                    omax: out.omax,
                    multiplexing_ok: converged,
                });
            }
            // Step 3: tweak — inflate Ba of aggregates on failing links
            // (adds headroom exactly where multiplexing is unsatisfactory).
            let mut inflate = vec![false; ba.len()];
            for &l in &failing_links {
                for &(a, x) in &per_link[l] {
                    if x > 1e-9 {
                        inflate[a] = true;
                    }
                }
            }
            for (a, f) in inflate.iter().enumerate() {
                if *f {
                    ba[a] *= self.config.ba_inflation;
                }
            }
        }
    }
}

impl RoutingScheme for Ldr {
    fn name(&self) -> String {
        // 0.1 is the paper's default static headroom; non-default dials are
        // encoded so registry names round-trip and sweep rows stay
        // distinguishable.
        if self.config.static_headroom == 0.1 {
            "LDR".into()
        } else {
            format!("LDR-h{:02}", (self.config.static_headroom * 100.0).round() as u32)
        }
    }

    /// Trace-free placement: latency-optimal under the static headroom.
    fn place_with_context(
        &self,
        source: &dyn PathSource,
        tm: &TrafficMatrix,
        ctx: &mut SolveContext,
    ) -> Result<Placement, SchemeError> {
        let cfg = GrowthConfig { headroom: self.config.static_headroom };
        Ok(GrowRequest::new(source, tm).config(&cfg).solve_with(ctx)?.placement)
    }

    /// LDR's history entry point is the genuine article: prediction plus
    /// the multiplexing appraisal loop, not just re-placement of predicted
    /// volumes.
    fn place_with_history(
        &self,
        source: &dyn PathSource,
        tm: &TrafficMatrix,
        history: &[AggregateTrace],
        ctx: &mut SolveContext,
    ) -> Result<Placement, SchemeError> {
        if lacks_complete_minute(history) {
            return self.place_with_context(source, tm, ctx);
        }
        Ok(self.place_with_traces_ctx(source, tm, history, ctx)?.placement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::PlacementEval;
    use crate::pathset::PathCache;
    use lowlat_netgraph::NodeId;
    use lowlat_tmgen::Aggregate;
    use lowlat_topology::{GeoPoint, Topology, TopologyBuilder};
    use lowlat_traffic::{synthesize, TraceGenConfig};

    fn two_path() -> Topology {
        let mut b = TopologyBuilder::new("two");
        let a = b.add_pop("A", GeoPoint::new(40.0, -100.0));
        let m = b.add_pop("M", GeoPoint::new(41.0, -97.0));
        let n = b.add_pop("N", GeoPoint::new(39.0, -97.0));
        let z = b.add_pop("Z", GeoPoint::new(40.0, -94.0));
        b.connect_with_delay(a, m, 1.0, 1000.0);
        b.connect_with_delay(m, z, 1.0, 1000.0);
        b.connect_with_delay(a, n, 3.0, 1000.0);
        b.connect_with_delay(n, z, 3.0, 1000.0);
        b.build()
    }

    fn tm_pair(v1: f64, v2: f64) -> TrafficMatrix {
        TrafficMatrix::new(vec![
            Aggregate { src: NodeId(0), dst: NodeId(3), volume_mbps: v1, flow_count: 10 },
            Aggregate { src: NodeId(3), dst: NodeId(0), volume_mbps: v2, flow_count: 10 },
        ])
    }

    #[test]
    fn trace_free_uses_static_headroom() {
        let topo = two_path();
        let tm = tm_pair(950.0, 100.0);
        // 950 with 10% headroom (effective 900) must split across paths.
        let pl = Ldr::default().place(&PathCache::new(topo.graph()), &tm).unwrap();
        let ev = PlacementEval::evaluate(&topo, &tm, &pl);
        assert!(ev.fits());
        assert!(
            pl.aggregate(0).splits.len() >= 2,
            "the 950 aggregate cannot fit in 900 effective on one path"
        );
    }

    #[test]
    fn smooth_traffic_passes_first_iteration() {
        let topo = two_path();
        let tm = tm_pair(400.0, 300.0);
        let traces: Vec<AggregateTrace> = [400.0, 300.0]
            .iter()
            .enumerate()
            .map(|(i, &mean)| {
                synthesize(&TraceGenConfig {
                    mean_mbps: mean,
                    cv: 0.05,
                    minutes: 10,
                    bins_per_minute: 600,
                    seed: 100 + i as u64,
                    ..Default::default()
                })
            })
            .collect();
        let cache = PathCache::new(topo.graph());
        let out = Ldr::default()
            .place_with_traces_ctx(&cache, &tm, &traces, &mut SolveContext::new())
            .unwrap();
        assert!(out.multiplexing_ok);
        assert_eq!(out.iterations, 1);
        // Predictions hedge 10% above means.
        assert!(out.ba[0] > 400.0 && out.ba[0] < 520.0, "ba {}", out.ba[0]);
    }

    #[test]
    fn bursty_traffic_forces_inflation() {
        let topo = two_path();
        // Two aggregates whose means fit one path but whose bursts don't.
        let tm = tm_pair(450.0, 440.0);
        let traces: Vec<AggregateTrace> = [450.0, 440.0]
            .iter()
            .enumerate()
            .map(|(i, &mean)| {
                synthesize(&TraceGenConfig {
                    mean_mbps: mean,
                    cv: 0.6, // violent bursts
                    minutes: 10,
                    seed: 7 + i as u64,
                    ..Default::default()
                })
            })
            .collect();
        // Same-direction aggregates sharing the fast path would burst over
        // 1000; LDR should inflate and/or split.
        let tm_same = TrafficMatrix::new(vec![
            Aggregate { src: NodeId(0), dst: NodeId(3), volume_mbps: 450.0, flow_count: 10 },
            Aggregate { src: NodeId(0), dst: NodeId(2), volume_mbps: 440.0, flow_count: 10 },
        ]);
        let cache = PathCache::new(topo.graph());
        let out = Ldr::default()
            .place_with_traces_ctx(&cache, &tm_same, &traces, &mut SolveContext::new())
            .unwrap();
        let _ = tm;
        assert!(out.iterations > 1, "bursty aggregates must trigger the tweak loop");
        let inflated = out.ba.iter().zip([450.0, 440.0]).any(|(b, m)| *b > m * 1.2);
        assert!(inflated, "some Ba must have been scaled up: {:?}", out.ba);
    }

    #[test]
    fn growth_rounds_that_keep_their_outcome_are_audited_on_gts_like() {
        // LDR's LPs are `pathgrow`'s: on the benchmark's network and load a
        // placement has rounds whose new columns cannot enter the basis, and
        // in unit tests every one of them is audited where it is decided
        // (`pathgrow::lp::tests::audit_kept_round`: the LP it skipped, posed
        // anyway, takes no pivot, and the kept vertex carries a certificate).
        use crate::scale::ScaleToLoad;
        use lowlat_tmgen::{GravityTmGen, TmGenConfig};
        let topo = lowlat_topology::zoo::named::gts_like();
        let tm = GravityTmGen::new(TmGenConfig::default())
            .generate(&topo, 0)
            .scaled_to_load(&topo, 0.55);
        let kept_before = crate::pathgrow::tests::kept_rounds();
        let pl = Ldr::default().place(&PathCache::new(topo.graph()), &tm).unwrap();
        assert!(pl.validate(topo.graph(), &tm).is_ok());
        assert!(crate::pathgrow::tests::kept_rounds() > kept_before, "no round kept its outcome");
    }

    /// One trace of ten minutes, one of zero: legal input, nothing to
    /// predict from.
    fn traces_with_a_zero_minute_one() -> Vec<AggregateTrace> {
        let full =
            synthesize(&TraceGenConfig { mean_mbps: 400.0, minutes: 10, ..Default::default() });
        vec![full, AggregateTrace::from_samples(vec![], 600)]
    }

    #[test]
    fn zero_minute_trace_falls_back_to_the_trace_free_placement() {
        let topo = two_path();
        let tm = tm_pair(950.0, 100.0);
        let cache = PathCache::new(topo.graph());
        let history = traces_with_a_zero_minute_one();
        let schemes: [&dyn RoutingScheme; 2] =
            [&Ldr::default(), &crate::schemes::sp::ShortestPathRouting];
        for scheme in schemes {
            let measured =
                scheme.place_with_history(&cache, &tm, &history, &mut SolveContext::new()).unwrap();
            let trace_free = scheme.place(&cache, &tm).unwrap();
            for (m, t) in measured.per_aggregate().iter().zip(trace_free.per_aggregate()) {
                assert_eq!(m.splits, t.splits, "{}", scheme.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "aggregate 1: trace has no complete minute")]
    fn zero_minute_trace_is_named_by_the_figure_14_loop() {
        let topo = two_path();
        let _ = Ldr::default().place_with_traces_ctx(
            &PathCache::new(topo.graph()),
            &tm_pair(400.0, 300.0),
            &traces_with_a_zero_minute_one(),
            &mut SolveContext::new(),
        );
    }
}
