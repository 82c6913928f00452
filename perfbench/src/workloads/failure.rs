//! `failure-replace`: the §5 failure reaction — repair the shared path
//! cache under a mask, drop unroutable demand, re-place the survivors
//! through a warm LP context — over every single-cable and node-down
//! scenario of the GTS-like grid.
//!
//! The scheme is trace-free `LDR` (latency-optimal under the static 10%
//! headroom), so the appraisal loop is bypassed entirely. An operation is
//! one `replace_under_failure` call on a healthy network with a warm
//! controller: a [`PathCache`] and [`SolveContext`] freshly warmed by the
//! pre-failure placement, so the cache is *repaired* and the LP restarts
//! from the pre-failure bases. (Applying the masks incrementally to one
//! long-lived cache and context made a recovery's cost depend on the
//! scenarios before it: the same code read 12–25 ms depending on the
//! order.) A pass recovers from every scenario once, in a seed-shuffled
//! order; each scenario is timed once per pass and counted once (see
//! [`Repeats`]); every pass starts with a timed set-up, a probe follows each
//! recovery, and the run's times are scaled to reference host speed (see
//! [`crate::hostspeed`]).

use lowlat_core::failure::{
    node_failures, partition_routable, replace_under_failure, single_link_failures, FailureImpact,
    RecoveryOutcome,
};
use lowlat_core::pathset::PathCache;
use lowlat_core::scale::ScaleToLoad;
use lowlat_core::schemes::{registry, RoutingScheme, SolveContext};
use lowlat_core::PathSource;
use lowlat_netgraph::{all_pairs_delays, FailureMask};
use lowlat_tmgen::{GravityTmGen, TmGenConfig, TrafficMatrix};
use lowlat_topology::zoo::named;
use lowlat_topology::Topology;

use super::{
    calibration, catch, pass_seed, peak_rss_mb, placement_digest, run_passes, shuffled,
    source_values, timed, Outcome, RunConfig,
};
use crate::hostspeed::HostSpeed;
use crate::metrics::{Report, Values};
use crate::spans::{durations_us, totals_by_name, SpanLog};
use crate::stats::{median, ratio, tail_percentile, Repeats};
use crate::timed_source::{SourceTotals, TimedSource};
use crate::validate::{all_finite, check_placement};

/// The fixed parameters of the recovery workload.
#[derive(Clone, Copy, Debug)]
pub struct FailureParams {
    /// Network label for the parameter line.
    pub label: &'static str,
    /// Builds the topology.
    pub topology: fn() -> Topology,
    /// Index of the gravity matrix (fixed, as in the controller workloads).
    pub tm_index: u64,
    /// Min-cut load the matrix is scaled to.
    pub load: f64,
    /// Registry spec of the re-placing scheme.
    pub scheme: &'static str,
}

/// `failure-replace` at its benchmark size: 43 cables + 26 PoPs.
pub const GTS: FailureParams = FailureParams {
    label: "gts-like",
    topology: named::gts_like,
    tm_index: 0,
    load: 0.7,
    scheme: "LDR",
};

impl FailureParams {
    fn line(&self) -> String {
        format!(
            "network={} tm_index={} load={} scheme={} scenarios=every-cable+every-node",
            self.label, self.tm_index, self.load, self.scheme
        )
    }
}

/// What set-up builds before any cache exists.
pub struct Inputs {
    /// The topology.
    pub topo: Topology,
    /// The gravity matrix at the workload's load.
    pub tm: TrafficMatrix,
    /// Every single-cable then every node-down scenario, as masks.
    pub masks: Vec<FailureMask>,
    /// The intact topology's all-pairs delays (the stretch baseline).
    pub delays: Vec<Vec<f64>>,
    /// The re-placing scheme.
    pub scheme: std::sync::Arc<dyn RoutingScheme>,
}

/// The warm state a run carries from recovery to recovery.
pub struct Warm<'g> {
    /// The shared flat cache, warmed by the baseline placement.
    pub cache: PathCache<'g>,
    /// The LP warm-start context, holding the baseline bases.
    pub ctx: SolveContext,
}

/// Set-up, part one: topology, matrix, scenarios, intact delays.
pub fn setup(p: &FailureParams) -> Inputs {
    let topo = (p.topology)();
    let tm = GravityTmGen::new(TmGenConfig::default())
        .generate(&topo, p.tm_index)
        .scaled_to_load(&topo, p.load);
    let masks = single_link_failures(&topo)
        .iter()
        .chain(&node_failures(&topo))
        .map(|s| s.mask(&topo))
        .collect();
    let delays = all_pairs_delays(topo.graph());
    let scheme = registry::build(p.scheme).expect("the workload's scheme is a registry spec");
    Inputs { topo, tm, masks, delays, scheme }
}

/// Set-up, part two: the cache and context, warmed by the pre-failure
/// placement every recovery restarts from.
pub fn warm(inputs: &Inputs) -> Warm<'_> {
    let cache = PathCache::new(inputs.topo.graph());
    let mut ctx = SolveContext::new();
    inputs
        .scheme
        .place_with_context(&cache, &inputs.tm, &mut ctx)
        .expect("the intact network places");
    Warm { cache, ctx }
}

/// One recovery as the harness saw it.
pub struct Recovery {
    /// Index of the scenario in [`Inputs::masks`].
    pub scenario: usize,
    /// Harness-timed `replace_under_failure`, raw ms.
    pub ms: f64,
    /// What the program returned; `None` when it failed or panicked.
    pub outcome: Option<RecoveryOutcome>,
}

impl Recovery {
    /// The outcome when it is present *and* valid: the placement passes the
    /// harness's validator under the scenario's mask and every reported
    /// float is finite.
    pub fn valid(&self, inputs: &Inputs) -> Option<&RecoveryOutcome> {
        self.outcome.as_ref().filter(|out| {
            let mask = &inputs.masks[self.scenario];
            let i = &out.impact;
            check_placement(inputs.topo.graph(), &out.partition.tm, &out.placement, Some(mask))
                .is_clean()
                && all_finite(&[
                    i.unroutable_fraction,
                    i.latency_stretch,
                    i.max_path_stretch,
                    i.max_overload,
                    i.max_utilization,
                ])
        })
    }

    /// Everything deterministic the recovery reports, as bit patterns.
    pub fn fingerprint(&self) -> Vec<u64> {
        let Some(out) = &self.outcome else { return vec![self.scenario as u64, u64::MAX] };
        vec![
            self.scenario as u64,
            out.repair.repaired_pairs as u64,
            out.repair.kept_pairs as u64,
            out.lp_solves as u64,
            out.impact.latency_stretch.to_bits(),
            out.impact.max_utilization.to_bits(),
            out.impact.unroutable_fraction.to_bits(),
            placement_digest(&out.placement),
        ]
    }
}

/// One pass: every scenario, in the order `seed` shuffles them into. Each
/// failure strikes a healthy network with a warm controller — a cache and
/// LP context freshly warmed by the pre-failure placement (not timed) — so
/// a recovery costs the same wherever the order puts it. `Some(totals)`
/// routes the recoveries through a [`TimedSource`] and adds what it
/// measured.
pub fn pass(
    inputs: &Inputs,
    seed: u64,
    host: &mut HostSpeed,
    mut totals: Option<&mut SourceTotals>,
) -> Vec<Recovery> {
    shuffled(inputs.masks.len(), seed)
        .into_iter()
        .map(|scenario| {
            let Warm { cache, mut ctx } = warm(inputs);
            match totals.as_deref_mut() {
                None => recover(inputs, host, &cache, &mut ctx, scenario),
                Some(totals) => {
                    let source = TimedSource::new(&cache);
                    let recovery = recover(inputs, host, &source, &mut ctx, scenario);
                    totals.add(&source.totals());
                    recovery
                }
            }
        })
        .collect()
}

/// One operation: `replace_under_failure` for scenario `scenario`, timed
/// by the harness around the public entry call.
fn recover(
    inputs: &Inputs,
    host: &mut HostSpeed,
    source: &dyn PathSource,
    ctx: &mut SolveContext,
    scenario: usize,
) -> Recovery {
    let (outcome, secs) = host.timed(|| {
        catch(|| {
            replace_under_failure(
                inputs.scheme.as_ref(),
                &inputs.topo,
                source,
                &inputs.tm,
                &inputs.masks[scenario],
                ctx,
                Some(&inputs.delays),
            )
        })
        .and_then(Result::ok)
    });
    Recovery { scenario, ms: secs * 1e3, outcome }
}

/// Running totals over the passes of a run.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    /// Recovery ms per scenario (raw).
    ms: Repeats,
    /// Every valid recovery, ms (raw).
    all_ms: Vec<f64>,
    stretch_sum: f64,
    unroutable_sum: f64,
    repaired_pairs: usize,
    kept_pairs: usize,
    lp_solves: usize,
    lp_warm_hits: usize,
}

impl Tally {
    fn add(&mut self, inputs: &Inputs, recoveries: &[Recovery]) {
        for r in recoveries {
            self.attempted += 1;
            let Some(out) = r.valid(inputs) else {
                self.failed += 1;
                continue;
            };
            self.ms.record(r.scenario, r.ms);
            self.all_ms.push(r.ms);
            self.stretch_sum += out.impact.latency_stretch;
            self.unroutable_sum += out.impact.unroutable_fraction;
            self.repaired_pairs += out.repair.repaired_pairs;
            self.kept_pairs += out.repair.kept_pairs;
            self.lp_solves += out.lp_solves;
            self.lp_warm_hits += out.lp_warm_hits;
        }
    }

    fn ops(&self) -> f64 {
        self.all_ms.len() as f64
    }

    fn busy_s(&self) -> f64 {
        self.all_ms.iter().sum::<f64>() / 1e3
    }
}

/// Runs the workload.
pub fn run(p: &FailureParams, cfg: &RunConfig) -> Outcome {
    if cfg.traced {
        return run_traced(p, cfg);
    }
    let mut host = HostSpeed::new();
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    run_passes(cfg.seconds, |k| {
        // Set-up is everything before the first failure can be handled:
        // the inputs and one warm controller.
        let (inputs, secs) = host.timed(|| {
            let inputs = setup(p);
            warm(&inputs);
            inputs
        });
        setup_s.push(secs);
        tally.add(&inputs, &pass(&inputs, pass_seed(cfg.seed, k), &mut host, None));
    });

    // Every time is scaled to reference host speed by one factor per run.
    let scale = host.scale();
    let mut values = Values::new();
    values.insert("setup_s", median(&setup_s) * scale);
    values.insert("op_ms_mean", tally.ms.mean() * scale);
    values.insert("ops_per_s", ratio(tally.ms.per_op().len() as f64, tally.ms.sum() / 1e3 * scale));
    values.insert("latency_stretch", ratio(tally.stretch_sum, tally.ops()));
    values.insert("peak_rss_mb", peak_rss_mb());
    Outcome {
        report: Report { attempted: tally.attempted, failed: tally.failed, values },
        params: p.line(),
        spans: None,
        host_scale: scale,
    }
}

/// One recovery replayed through the layers' public functions under spans:
/// the four steps of `replace_under_failure`.
fn shadow_recovery(
    log: &mut SpanLog,
    host: &mut HostSpeed,
    inputs: &Inputs,
    source: &dyn PathSource,
    ctx: &mut SolveContext,
    scenario: usize,
) -> Recovery {
    let mask = &inputs.masks[scenario];
    log.next_op();
    let (outcome, secs) = host.timed(|| {
        log.scope("core.failure/recovery", |log| {
            let repair = log.scope("core.pathset/apply_failure", |_| source.apply_failure(mask));
            let partition = log.scope("core.failure/partition_routable", |_| {
                partition_routable(inputs.topo.graph(), &inputs.tm, mask)
            });
            let (solves0, hits0) = (ctx.solves(), ctx.warm_hits());
            let placement = log
                .scope("core.schemes/place_with_context", |_| {
                    inputs.scheme.place_with_context(source, &partition.tm, ctx)
                })
                .ok()?;
            let impact = log.scope("core.failure/impact", |_| {
                FailureImpact::evaluate_with_delays(
                    &inputs.topo,
                    &partition,
                    mask,
                    &placement,
                    &inputs.delays,
                )
            });
            Some(RecoveryOutcome {
                repair,
                partition,
                placement,
                impact,
                lp_solves: ctx.solves() - solves0,
                lp_warm_hits: ctx.warm_hits() - hits0,
            })
        })
    });
    Recovery { scenario, ms: secs * 1e3, outcome }
}

/// The traced run: passes run plain and through the decorator, then one
/// real and one shadow pass in lockstep from identical fresh state.
fn run_traced(p: &FailureParams, cfg: &RunConfig) -> Outcome {
    let mut host = HostSpeed::new();
    let inputs = &setup(p);
    let mut values = Values::new();
    // Each pass twice, plain then through the decorator, so both sides of
    // the overhead ratio see the same inputs under the same host conditions.
    let (mut plain, mut traced) = (Tally::default(), Tally::default());
    let mut totals = SourceTotals::default();
    run_passes(cfg.seconds * 0.7, |k| {
        plain.add(inputs, &pass(inputs, pass_seed(cfg.seed, k), &mut host, None));
        traced.add(inputs, &pass(inputs, pass_seed(cfg.seed, k), &mut host, Some(&mut totals)));
    });
    let (plain_p50, traced_p50) = (plain.ms.median(), traced.ms.median());
    values.insert("bench.tracing_overhead_share", ratio(traced_p50 - plain_p50, plain_p50));
    values.insert("bench.op_ms_p50", plain_p50);
    let ops = traced.ops();
    source_values(&mut values, &totals, ops, traced.busy_s());
    values.insert("linprog.solves_per_op", ratio(traced.lp_solves as f64, ops));
    values.insert(
        "linprog.warm_hit_share",
        ratio(traced.lp_warm_hits as f64, traced.lp_solves as f64),
    );
    values.insert("core.pathset.repaired_pairs_per_op", ratio(traced.repaired_pairs as f64, ops));
    values.insert(
        "core.pathset.kept_share",
        ratio(traced.kept_pairs as f64, (traced.kept_pairs + traced.repaired_pairs) as f64),
    );
    values.insert("core.failure.unroutable_share", ratio(traced.unroutable_sum, ops));
    values.insert(
        "core.failure.recovery_ms_p90",
        tail_percentile(&traced.all_ms, 90.0).unwrap_or(0.0),
    );

    // One real pass and one shadow pass in lockstep — scenario by scenario,
    // same order, each side on its own freshly warmed state.
    let mut log = SpanLog::new();
    let mut shadow_totals = SourceTotals::default();
    let (real, shadow): (Vec<Recovery>, Vec<Recovery>) =
        shuffled(inputs.masks.len(), pass_seed(cfg.seed, 0))
            .into_iter()
            .map(|s| {
                let Warm { cache, mut ctx } = warm(inputs);
                let real = recover(inputs, &mut host, &cache, &mut ctx, s);
                let Warm { cache, mut ctx } = warm(inputs);
                let source = TimedSource::new(&cache);
                let shadow = shadow_recovery(&mut log, &mut host, inputs, &source, &mut ctx, s);
                shadow_totals.add(&source.totals());
                (real, shadow)
            })
            .unzip();
    let mut tally = Tally { attempted: plain.attempted + traced.attempted, ..Tally::default() };
    tally.failed = plain.failed + traced.failed;
    tally.add(inputs, &shadow);
    // A shadow that does not reproduce the real recovery measured
    // something else.
    let diverged =
        real.iter().zip(&shadow).filter(|(r, s)| r.fingerprint() != s.fingerprint()).count();
    tally.failed += diverged;

    let spans = log.spans();
    let by_name = totals_by_name(spans);
    let total_us = |name: &str| by_name.get(name).map_or(0.0, |t| t.total_us);
    let recovery_us = total_us("core.failure/recovery");
    let layer_us: f64 = by_name
        .iter()
        .filter(|(name, _)| **name != "core.failure/recovery")
        .map(|(_, t)| t.self_us)
        .sum();
    let real_us: f64 = real.iter().map(|r| r.ms * 1e3).sum();
    values.insert("core.failure.shadow_cover_share", ratio(layer_us, real_us));
    let repair_us = durations_us(spans, "core.pathset/apply_failure");
    values.insert("core.pathset.repair_ms_p50", median(&repair_us) / 1e3);
    values.insert("core.pathset.repair_share", ratio(repair_us.iter().sum(), recovery_us));
    values.insert(
        "core.failure.partition_us",
        median(&durations_us(spans, "core.failure/partition_routable")),
    );
    values.insert("core.failure.impact_us", median(&durations_us(spans, "core.failure/impact")));
    let place_us = durations_us(spans, "core.schemes/place_with_context");
    values.insert("core.failure.replace_ms_p50", median(&place_us) / 1e3);
    // Trace-free LDR is one `GrowRequest` per recovery.
    let shadow_ops = shadow.len() as f64;
    let place_total_us: f64 = place_us.iter().sum();
    values.insert("core.pathgrow.solve_ms_per_call", ratio(place_total_us / 1e3, shadow_ops));
    values.insert("core.pathgrow.calls_per_op", 1.0);
    values.insert("core.pathgrow.grow_share", ratio(place_total_us, recovery_us));
    let pricing_s = shadow_totals.pricing().busy_s;
    values
        .insert("core.pathgrow.nonpricing_s", ratio(place_total_us / 1e6 - pricing_s, shadow_ops));
    values.insert(
        "tmgen.generate_ms",
        timed(|| GravityTmGen::new(TmGenConfig::default()).generate(&inputs.topo, p.tm_index)).1
            * 1e3,
    );
    calibration(&mut values);

    Outcome {
        report: Report { attempted: tally.attempted, failed: tally.failed, values },
        params: p.line(),
        spans: Some(log),
        host_scale: host.scale(),
    }
}
