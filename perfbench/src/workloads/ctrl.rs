//! `ctrl-ldr-abilene` and `ctrl-ldr-gts`: the §5 control loop — LDR
//! deciding once per simulated minute — through the public timeline entry
//! point, on a small and on a hard-to-route backbone.
//!
//! A pass is one `simulate_with_events_on` call over a fresh flat cache
//! (exactly what `timeline::simulate` does) for `warmup + minutes` simulated
//! minutes; an operation is one decision minute. The traffic matrix and a
//! pool of trace sets are fixed workload parameters — decision time varies
//! 8x across gravity matrices of one topology and ±12% across trace sets of
//! one matrix (ten Abilene runs on ten seeds' own traces read 70–92 ms where
//! one seed's runs read 79–83 ms), which no bound could absorb — and the
//! seed picks the order the sets are visited in. A run cycles through the
//! pool, one set per pass, so each decision minute is timed several times
//! and counted once (see [`Repeats`]); every pass starts with a timed
//! set-up, a probe follows each pass, and the run's times are scaled to
//! reference host speed (see [`crate::hostspeed`]).
//!
//! The traced run replays decisions through the layers' public functions
//! (the *shadow decision*, a line-for-line replica of
//! `Ldr::place_with_traces_ctx`) under harness spans, and checks it against
//! the real call on the same inputs.

use std::time::Instant;

use lowlat_core::pathgrow::GrowRequest;
use lowlat_core::pathset::PathCache;
use lowlat_core::scale::ScaleToLoad;
use lowlat_core::schemes::ldr::{Ldr, LdrConfig, LdrOutcome};
use lowlat_core::schemes::{predict_volumes, SolveContext};
use lowlat_core::{PathSource, Placement};
use lowlat_sim::timeline::{simulate_with_events_on, Controller, TimelineConfig, TimelineOutcome};
use lowlat_tmgen::{GravityTmGen, TmGenConfig, TrafficMatrix};
use lowlat_topology::zoo::named;
use lowlat_topology::Topology;
use lowlat_traffic::{
    spread_seed, synthesize, AggregateTrace, MultiplexCheck, TraceGenConfig, Verdict,
};

use super::{
    calibration, catch, pass_seed, peak_rss_mb, placement_digest, run_passes, shuffled,
    source_values, timed, Outcome, RunConfig,
};
use crate::hostspeed::HostSpeed;
use crate::metrics::{Report, Values};
use crate::spans::{totals_by_name, SpanLog};
use crate::stats::{median, ratio, Repeats};
use crate::timed_source::{SourceTotals, TimedSource};
use crate::validate::{all_finite, check_placement};

/// The fixed parameters of a controller workload.
#[derive(Clone, Copy, Debug)]
pub struct CtrlParams {
    /// Network label for the parameter line.
    pub label: &'static str,
    /// Builds the topology.
    pub topology: fn() -> Topology,
    /// Index of the gravity matrix (fixed: see the module docs).
    pub tm_index: u64,
    /// Min-cut load the matrix is scaled to.
    pub load: f64,
    /// Burstiness of the synthetic traces.
    pub cv: f64,
    /// History minutes before the first decision.
    pub warmup_minutes: usize,
    /// Decision minutes per pass. Few, so passes are short and the host is
    /// probed often (see [`crate::hostspeed`]).
    pub minutes: usize,
    /// Trace sets in the pool a run cycles through, one per pass. Decision
    /// cost follows the traces (one set's Abilene decisions read 78 ms,
    /// another's 97 ms), so a run measures the decisions of every set.
    pub trace_sets: usize,
    /// Seed of the pool of trace sets.
    pub pool_seed: u64,
}

impl CtrlParams {
    /// The trace seed of set `set` of the pool.
    pub fn trace_seed(&self, set: usize) -> u64 {
        pass_seed(self.pool_seed, set)
    }

    /// The set pass `k` of a run seeded `seed` simulates: the run visits
    /// the pool in a seed-shuffled order, over and over.
    pub fn set_of_pass(&self, seed: u64, k: usize) -> usize {
        shuffled(self.trace_sets, seed)[k % self.trace_sets]
    }
}

/// `ctrl-ldr-abilene`. Load 0.35, not the paper's 0.7: at 0.7 LDR's `Ba`
/// inflation walks the demand across the "just fits" boundary every
/// decision, where a warm-started phase-1 LP can report `omax = 0` for a
/// true optimum of ~5e-4 and phase 2 then fails `Infeasible` — 6 of 57
/// twenty-minute Abilene runs panicked (see the README). `Ba` grows at most
/// ~2.5x (prediction hedge x 1.1^7), so at 0.35 the inflated demand always
/// fits, no operation fails, and LDR still runs its full 7–8 iterations.
pub const ABILENE: CtrlParams = CtrlParams {
    label: "abilene",
    topology: named::abilene,
    tm_index: 0,
    load: 0.35,
    cv: 0.3,
    warmup_minutes: 3,
    minutes: 5,
    trace_sets: 8,
    pool_seed: 1,
};

/// `ctrl-ldr-gts`: the same recipe on the paper's GTS-like running example.
/// Load 0.55 is where the shares invert against Abilene — pathgrow + LP do
/// ~3/4 of a decision, appraisal ~1/4 (at 0.35 appraisal still does 94%; at
/// the paper's 0.7 a decision takes 2.7 s and a run would time eight) — and
/// every decision of the pool runs clean. Three trace sets, so a run goes
/// round the pool at least twice.
pub const GTS: CtrlParams = CtrlParams {
    label: "gts-like",
    topology: named::gts_like,
    tm_index: 0,
    load: 0.55,
    cv: 0.3,
    warmup_minutes: 3,
    minutes: 3,
    trace_sets: 3,
    pool_seed: 1,
};

impl CtrlParams {
    fn line(&self) -> String {
        format!(
            "network={} tm_index={} load={} cv={} warmup_minutes={} minutes_per_pass={} trace_sets={} pool_seed={} controller=LDR",
            self.label,
            self.tm_index,
            self.load,
            self.cv,
            self.warmup_minutes,
            self.minutes,
            self.trace_sets,
            self.pool_seed
        )
    }

    fn timeline(&self, seed: u64) -> TimelineConfig {
        TimelineConfig {
            minutes: self.minutes,
            warmup_minutes: self.warmup_minutes,
            cv: self.cv,
            seed,
            ..Default::default()
        }
    }
}

/// What set-up builds: the network and the matrix the controller serves.
pub struct Inputs {
    /// The topology.
    pub topo: Topology,
    /// The gravity matrix at the workload's load.
    pub tm: TrafficMatrix,
}

/// Set-up: topology, gravity matrix, min-cut scaling (one MinMax solve).
pub fn setup(p: &CtrlParams) -> Inputs {
    let topo = (p.topology)();
    let tm = GravityTmGen::new(TmGenConfig::default())
        .generate(&topo, p.tm_index)
        .scaled_to_load(&topo, p.load);
    Inputs { topo, tm }
}

/// One pass: `warmup + minutes` simulated minutes under LDR over a fresh
/// flat cache, seeded `seed`. `Some(totals)` routes the run through a
/// [`TimedSource`] and adds what it measured. Returns the outcome (`None`
/// when the program panicked) and the harness-timed wall seconds (raw).
pub fn pass(
    p: &CtrlParams,
    inputs: &Inputs,
    seed: u64,
    host: &mut HostSpeed,
    totals: Option<&mut SourceTotals>,
) -> (Option<TimelineOutcome>, f64) {
    let config = p.timeline(seed);
    let controller = Controller::ldr();
    host.timed(|| {
        catch(|| {
            let cache = PathCache::new(inputs.topo.graph());
            match totals {
                None => simulate_with_events_on(&cache, &inputs.tm, &controller, &config, &[]),
                Some(totals) => {
                    let source = TimedSource::new(&cache);
                    let out =
                        simulate_with_events_on(&source, &inputs.tm, &controller, &config, &[]);
                    totals.add(&source.totals());
                    out
                }
            }
        })
    })
}

/// The traces `run_timeline` synthesizes for a pass seeded `seed`: one per
/// aggregate, mean anchored at its matrix volume.
pub fn traces(p: &CtrlParams, tm: &TrafficMatrix, seed: u64) -> Vec<AggregateTrace> {
    tm.aggregates()
        .iter()
        .enumerate()
        .map(|(i, a)| {
            synthesize(&TraceGenConfig {
                mean_mbps: a.volume_mbps,
                cv: p.cv,
                minutes: p.warmup_minutes + p.minutes,
                seed: spread_seed(seed, i as u64),
                ..Default::default()
            })
        })
        .collect()
}

/// Everything deterministic a pass reports, as bit patterns: the timeline's
/// counters and every per-minute field except the wall-clock `decision_ms`.
pub fn fingerprint(out: &TimelineOutcome) -> Vec<u64> {
    let mut f = vec![out.lp_solves as u64, out.lp_warm_hits as u64];
    for m in &out.minutes {
        f.extend([
            m.worst_queue_ms.to_bits(),
            m.latency_stretch.to_bits(),
            m.unroutable_fraction.to_bits(),
            m.moved_volume_fraction.to_bits(),
            m.overloaded_links as u64,
            m.paths_changed as u64,
        ]);
    }
    f
}

/// Running totals over the passes of a run.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    /// `decision_ms` per decision minute (raw).
    decision_ms: Repeats,
    /// Harness-timed wall seconds of a pass, per trace set (raw).
    pass_s: Repeats,
    /// Sound minutes seen, over all passes, and sums over them.
    minutes: usize,
    decide_s: f64,
    wall_s: f64,
    /// `latency_stretch` per decision minute (deterministic).
    stretch: Repeats,
    worst_queue_ms: f64,
    queue_minutes: usize,
    lp_solves: usize,
    lp_warm_hits: usize,
}

impl Tally {
    /// Adds a pass over trace set `set`.
    fn add(&mut self, p: &CtrlParams, set: usize, (out, wall_s): (Option<TimelineOutcome>, f64)) {
        self.attempted += p.minutes;
        let Some(out) = out else {
            // The timeline panicked: every decision of the pass is lost.
            self.failed += p.minutes;
            return;
        };
        self.pass_s.record(set, wall_s);
        self.wall_s += wall_s;
        self.lp_solves += out.lp_solves;
        self.lp_warm_hits += out.lp_warm_hits;
        for (i, m) in out.minutes.iter().enumerate() {
            let sound = all_finite(&[
                m.worst_queue_ms,
                m.latency_stretch,
                m.decision_ms,
                m.moved_volume_fraction,
            ]) && m.unroutable_fraction == 0.0
                && m.latency_stretch >= 1.0 - 1e-9;
            if !sound {
                self.failed += 1;
                continue;
            }
            self.decision_ms.record(set * p.minutes + i, m.decision_ms);
            self.minutes += 1;
            self.decide_s += m.decision_ms / 1e3;
            self.stretch.record(set * p.minutes + i, m.latency_stretch);
            self.worst_queue_ms = self.worst_queue_ms.max(m.worst_queue_ms);
            // 10 ms is the multiplexing tests' own queueing allowance.
            self.queue_minutes += usize::from(m.worst_queue_ms > 10.0);
        }
    }

    /// Validates one real LDR placement on the workload's inputs: the
    /// timeline reports no placements, so the harness replays the first
    /// decision of the first pass through the scheme and checks what it
    /// returns.
    fn check_replayed_decision(&mut self, p: &CtrlParams, inputs: &Inputs, set: usize) {
        self.attempted += 1;
        let ok = catch(|| {
            let cache = PathCache::new(inputs.topo.graph());
            first_decision(p, inputs, p.trace_seed(set), &cache)
        })
        .and_then(Result::ok)
        .is_some_and(|out| {
            check_placement(inputs.topo.graph(), &inputs.tm, &out.placement, None).is_clean()
                && all_finite(&out.ba)
                && out.omax.is_finite()
        });
        self.failed += usize::from(!ok);
    }
}

/// The first decision of a pass seeded `seed`, straight through the scheme.
pub fn first_decision(
    p: &CtrlParams,
    inputs: &Inputs,
    seed: u64,
    source: &dyn PathSource,
) -> Result<LdrOutcome, lowlat_core::schemes::SchemeError> {
    let history: Vec<AggregateTrace> =
        traces(p, &inputs.tm, seed).iter().map(|tr| tr.truncated(p.warmup_minutes)).collect();
    Ldr::default().place_with_traces_ctx(source, &inputs.tm, &history, &mut SolveContext::new())
}

/// Runs the workload.
pub fn run(p: &CtrlParams, cfg: &RunConfig) -> Outcome {
    if cfg.traced {
        return run_traced(p, cfg);
    }
    let mut host = HostSpeed::new();
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    run_passes(cfg.seconds, |k| {
        let (inputs, secs) = host.timed(|| setup(p));
        setup_s.push(secs);
        let set = p.set_of_pass(cfg.seed, k);
        tally.add(p, set, pass(p, &inputs, p.trace_seed(set), &mut host, None));
    });
    tally.check_replayed_decision(p, &setup(p), p.set_of_pass(cfg.seed, 0));

    // Every time is scaled to reference host speed by one factor per run.
    let scale = host.scale();
    let decisions = tally.pass_s.per_op().len() * p.minutes;
    let mut values = Values::new();
    values.insert("setup_s", median(&setup_s) * scale);
    values.insert("op_ms_mean", tally.decision_ms.mean() * scale);
    values.insert("ops_per_s", ratio(decisions as f64, tally.pass_s.sum() * scale));
    values.insert("latency_stretch", tally.stretch.mean());
    values.insert("peak_rss_mb", peak_rss_mb());
    Outcome {
        report: Report { attempted: tally.attempted, failed: tally.failed, values },
        params: p.line(),
        spans: None,
        host_scale: scale,
    }
}

/// What the shadow decisions observed, beyond their spans.
#[derive(Default)]
struct ShadowStats {
    decisions: usize,
    iterations: Vec<f64>,
    converged: usize,
    grow_calls: usize,
    grow_rounds: usize,
    lp_pivots: usize,
    links_checked: usize,
    members: Vec<f64>,
    fast_path: usize,
    fail_temporal: usize,
    fail_tail: usize,
    convolutions: usize,
    /// Scaled member series of the first few links that reached test C.
    captured: Vec<Vec<Vec<f64>>>,
}

/// One decision replayed through the layers' public functions under spans:
/// the Figure-14 loop exactly as `Ldr::place_with_traces_ctx` runs it,
/// preceded by the timeline's per-minute history view.
#[allow(clippy::too_many_arguments)]
fn shadow_decision(
    log: &mut SpanLog,
    stats: &mut ShadowStats,
    config: &LdrConfig,
    source: &dyn PathSource,
    tm: &TrafficMatrix,
    traces: &[AggregateTrace],
    t: usize,
    ctx: &mut SolveContext,
) -> Option<LdrOutcome> {
    log.next_op();
    log.scope("core.schemes.ldr/decision", |log| {
        let history: Vec<AggregateTrace> = log.scope("traffic.trace/history_view", |_| {
            traces.iter().map(|tr| tr.truncated(t)).collect()
        });
        let graph = source.graph();
        let check = MultiplexCheck::new(config.multiplex.clone());
        let caps = log.scope("core.source/effective_capacities", |_| source.effective_capacities());
        let mut ba = log.scope("traffic.predictor/predict", |_| predict_volumes(&history));
        let last_minute: Vec<&[f64]> =
            history.iter().map(|tr| tr.samples(tr.minutes() - 1)).collect();

        let mut iterations = 0;
        loop {
            iterations += 1;
            let out = log
                .scope("core.pathgrow/solve", |_| {
                    GrowRequest::new(source, tm).volumes(&ba).config(&config.growth).solve_with(ctx)
                })
                .ok()?;
            stats.grow_calls += 1;
            stats.grow_rounds += out.rounds;
            stats.lp_pivots += out.lp_pivots;

            let per_link = log.scope("core.placement/link_fractions", |_| {
                let mut per_link: Vec<Vec<(usize, f64)>> = vec![Vec::new(); graph.link_count()];
                for a in 0..tm.aggregates().len() {
                    for (l, x) in out.placement.link_fractions_of(a) {
                        per_link[l as usize].push((a, x));
                    }
                }
                per_link
            });
            let mut failing_links: Vec<usize> = Vec::new();
            for l in graph.link_ids() {
                let members = &per_link[l.idx()];
                if members.is_empty() {
                    continue;
                }
                let scaled: Vec<Vec<f64>> = log.scope("traffic.multiplex/scale_copy", |_| {
                    members
                        .iter()
                        .map(|&(a, x)| last_minute[a].iter().map(|s| s * x).collect())
                        .collect()
                });
                let refs: Vec<&[f64]> = scaled.iter().map(|v| v.as_slice()).collect();
                let cap = caps[l.idx()];
                let verdict =
                    log.scope("traffic.multiplex/check_link", |_| check.check_link(cap, &refs));
                if !verdict.passed() {
                    failing_links.push(l.idx());
                }
                // Harness bookkeeping, kept out of the layers' time.
                log.scope("bench/classify", |_| {
                    stats.links_checked += 1;
                    stats.members.push(members.len() as f64);
                    let peaks: f64 =
                        refs.iter().map(|s| s.iter().cloned().fold(0.0, f64::max)).sum();
                    let reached_test_c = match verdict {
                        Verdict::Pass if peaks <= cap => {
                            stats.fast_path += 1;
                            false
                        }
                        Verdict::Pass => true,
                        Verdict::FailTemporal { .. } => {
                            stats.fail_temporal += 1;
                            false
                        }
                        Verdict::FailTail { .. } => {
                            stats.fail_tail += 1;
                            true
                        }
                    };
                    if reached_test_c {
                        // `convolve_group` folds the members pairwise.
                        stats.convolutions += members.len() - 1;
                        if stats.captured.len() < 8 {
                            stats.captured.push(scaled.clone());
                        }
                    }
                });
            }

            let converged = failing_links.is_empty();
            if converged || iterations >= config.max_iterations {
                stats.decisions += 1;
                stats.iterations.push(iterations as f64);
                stats.converged += usize::from(converged);
                return Some(LdrOutcome {
                    placement: out.placement,
                    iterations,
                    ba,
                    omax: out.omax,
                    multiplexing_ok: converged,
                });
            }
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
                    ba[a] *= config.ba_inflation;
                }
            }
        }
    })
}

/// The traced run: passes run plain and through the decorator, then shadow
/// decisions checked against the real call, then calibration.
fn run_traced(p: &CtrlParams, cfg: &RunConfig) -> Outcome {
    let mut host = HostSpeed::new();
    let inputs = &setup(p);
    let mut values = Values::new();
    let graph = inputs.topo.graph();
    let tm = &inputs.tm;

    // Each pass twice, plain then through the decorator, so both sides of
    // the overhead ratio see the same inputs under the same host conditions.
    let (mut plain, mut traced) = (Tally::default(), Tally::default());
    let mut totals = SourceTotals::default();
    run_passes(cfg.seconds * 0.6, |k| {
        let set = p.set_of_pass(cfg.seed, k);
        let seed = p.trace_seed(set);
        plain.add(p, set, pass(p, inputs, seed, &mut host, None));
        traced.add(p, set, pass(p, inputs, seed, &mut host, Some(&mut totals)));
    });
    let (plain_p50, traced_p50) = (plain.decision_ms.median(), traced.decision_ms.median());
    values.insert("bench.tracing_overhead_share", ratio(traced_p50 - plain_p50, plain_p50));
    values.insert("bench.op_ms_p50", plain_p50);
    let decisions = traced.minutes as f64;
    let decide_s = traced.decide_s;
    values.insert("sim.timeline.decide_share", ratio(decide_s, traced.wall_s));
    values.insert(
        "sim.timeline.other_ms_per_min",
        ratio((traced.wall_s - decide_s) * 1e3, decisions),
    );
    values.insert("sim.timeline.worst_queue_ms", traced.worst_queue_ms);
    values
        .insert("sim.timeline.queue_minutes_share", ratio(traced.queue_minutes as f64, decisions));
    values.insert("linprog.solves_per_op", ratio(traced.lp_solves as f64, decisions));
    values.insert(
        "linprog.warm_hit_share",
        ratio(traced.lp_warm_hits as f64, traced.lp_solves as f64),
    );
    source_values(&mut values, &totals, decisions, decide_s);

    // Shadow decisions over the first pass's traces, minute after minute,
    // each preceded by the real call on the same inputs. Both sides carry
    // their own cache and warm-start context across minutes, as the
    // timeline does.
    let mut tally = Tally { attempted: plain.attempted + traced.attempted, ..Tally::default() };
    tally.failed = plain.failed + traced.failed;
    let (traces, synth_s) = timed(|| traces(p, tm, p.trace_seed(p.set_of_pass(cfg.seed, 0))));
    values.insert("traffic.trace.synthesize_ms", synth_s * 1e3);
    values.insert(
        "tmgen.generate_ms",
        timed(|| GravityTmGen::new(TmGenConfig::default()).generate(&inputs.topo, p.tm_index)).1
            * 1e3,
    );
    let ldr = Ldr::default();
    let (real_cache, shadow_cache) = (PathCache::new(graph), PathCache::new(graph));
    let shadow_source = TimedSource::new(&shadow_cache);
    let (mut real_ctx, mut shadow_ctx) = (SolveContext::new(), SolveContext::new());
    let mut log = SpanLog::new();
    let mut stats = ShadowStats::default();
    let mut real_s = 0.0;
    let mut delta_us = Vec::new();
    let mut previous: Option<Placement> = None;
    let start = Instant::now();
    for t in p.warmup_minutes..p.warmup_minutes + p.minutes {
        tally.attempted += 1;
        let history: Vec<AggregateTrace> = traces.iter().map(|tr| tr.truncated(t)).collect();
        let (real, s) = timed(|| {
            catch(|| ldr.place_with_traces_ctx(&real_cache, tm, &history, &mut real_ctx))
                .and_then(Result::ok)
        });
        let shadow = catch(|| {
            shadow_decision(
                &mut log,
                &mut stats,
                ldr.config(),
                &shadow_source,
                tm,
                &traces,
                t,
                &mut shadow_ctx,
            )
        })
        .flatten();
        // A shadow that does not reproduce the real placement measured
        // something else: the operation counts as failed.
        match (real, shadow) {
            (Some(real), Some(shadow))
                if placement_digest(&real.placement) == placement_digest(&shadow.placement)
                    && check_placement(graph, tm, &shadow.placement, None).is_clean() =>
            {
                real_s += s;
                if let Some(prev) = &previous {
                    delta_us.push(timed(|| shadow.placement.delta(prev, tm)).1 * 1e6);
                }
                previous = Some(shadow.placement);
            }
            _ => tally.failed += 1,
        }
        // The first decision is cold; keep at least two.
        if stats.decisions >= 2 && start.elapsed().as_secs_f64() >= cfg.seconds * 0.3 {
            break;
        }
    }

    let by_name = totals_by_name(log.spans());
    let total_us = |name: &str| by_name.get(name).map_or(0.0, |t| t.total_us);
    let ops = stats.decisions as f64;
    // A decision's own time: its root span minus the harness bookkeeping.
    let decision_us = total_us("core.schemes.ldr/decision") - total_us("bench/classify");
    let layer_us: f64 = by_name
        .iter()
        .filter(|(name, _)| !name.starts_with("bench/") && **name != "core.schemes.ldr/decision")
        .map(|(_, t)| t.self_us)
        .sum();
    values.insert("core.schemes.ldr.shadow_cover_share", ratio(layer_us, real_s * 1e6));
    values.insert("core.schemes.ldr.iterations_p50", median(&stats.iterations));
    values.insert("core.schemes.ldr.converged_share", ratio(stats.converged as f64, ops));
    values.insert(
        "traffic.trace.history_view_ms",
        ratio(total_us("traffic.trace/history_view") / 1e3, ops),
    );
    values.insert(
        "traffic.predictor.predict_ms",
        ratio(total_us("traffic.predictor/predict") / 1e3, ops),
    );
    let appraise_us = total_us("traffic.multiplex/check_link");
    values.insert("traffic.multiplex.appraise_ms_per_op", ratio(appraise_us / 1e3, ops));
    values.insert("traffic.multiplex.appraise_share", ratio(appraise_us, decision_us));
    values.insert(
        "traffic.multiplex.scale_copy_ms_per_op",
        ratio(total_us("traffic.multiplex/scale_copy") / 1e3, ops),
    );
    let links = stats.links_checked as f64;
    values.insert("traffic.multiplex.links_checked_per_op", ratio(links, ops));
    values.insert("traffic.multiplex.members_per_link_p50", median(&stats.members));
    values.insert("traffic.multiplex.fast_path_share", ratio(stats.fast_path as f64, links));
    values
        .insert("traffic.multiplex.fail_temporal_share", ratio(stats.fail_temporal as f64, links));
    values.insert("traffic.multiplex.fail_tail_share", ratio(stats.fail_tail as f64, links));
    // Computed, not measured: members - 1 pairwise folds per test-C link.
    values.insert("traffic.fft.convolutions_per_op", ratio(stats.convolutions as f64, ops));
    let levels = ldr.config().multiplex.levels;
    let group_us: Vec<f64> = stats
        .captured
        .iter()
        .map(|set| {
            let refs: Vec<&[f64]> = set.iter().map(|v| v.as_slice()).collect();
            timed(|| std::hint::black_box(lowlat_traffic::pmf::convolve_group(&refs, levels))).1
                * 1e6
        })
        .collect();
    values.insert("traffic.pmf.convolve_group_us_p50", median(&group_us));
    let solve_us = total_us("core.pathgrow/solve");
    let calls = stats.grow_calls as f64;
    values.insert("core.pathgrow.solve_ms_per_call", ratio(solve_us / 1e3, calls));
    values.insert("core.pathgrow.calls_per_op", ratio(calls, ops));
    values.insert("core.pathgrow.rounds_per_call", ratio(stats.grow_rounds as f64, calls));
    values.insert("core.pathgrow.grow_share", ratio(solve_us, decision_us));
    let pricing_s = shadow_source.totals().pricing().busy_s;
    values.insert("core.pathgrow.nonpricing_s", ratio(solve_us / 1e6 - pricing_s, ops));
    values.insert("linprog.pivots_per_op", ratio(stats.lp_pivots as f64, ops));
    values.insert("core.placement.delta_us", median(&delta_us));
    values.insert(
        "core.placement.link_fractions_us_per_op",
        ratio(total_us("core.placement/link_fractions"), ops),
    );
    calibration(&mut values);

    Outcome {
        report: Report { attempted: tally.attempted, failed: tally.failed, values },
        params: p.line(),
        spans: Some(log),
        host_scale: host.scale(),
    }
}
