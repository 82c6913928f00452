//! `scale-place`: cold latency-optimal placements of small pair batches on
//! a 10 000-node Barabási–Albert graph, priced through the partitioned
//! engine — the Internet-scale path: a sparse LP with one capacity row per
//! used link (~30k rows), no appraisal, no timeline.
//!
//! The graph and the pool of batches are fixed workload parameters: a
//! placement's cost varies 25x with which pairs are drawn and 3x with their
//! volumes, which no bound could absorb. The seed picks the order the
//! batches are placed in, pass by pass — it decides which leaf caches of the
//! pass's engine are warm when a batch arrives, nothing else. Each batch is
//! scaled so shortest-path routing would overload its worst link 3x (the
//! `pricing` bench's recipe), so the growth loop must price columns in.
//! Every pass starts with a timed set-up (graph, batches, engine); every
//! placement starts from a fresh LP context; each batch is timed once per
//! pass and counted once (see [`Repeats`]); a probe follows each placement
//! and the run's times are scaled to reference host speed (see
//! [`crate::hostspeed`]).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lowlat_core::pathgrow::{GrowOutcome, GrowRequest};
use lowlat_core::schemes::SolveContext;
use lowlat_core::{EngineConfig, PartitionedPathEngine, PathSource};
use lowlat_netgraph::{shortest_path_tree, Graph, NodeId};
use lowlat_tmgen::{Aggregate, TrafficMatrix};
use lowlat_topology::ingest::IngestedGraph;
use lowlat_topology::synth::{generate, SynthConfig, SynthModel};

use super::{
    calibration, catch, pass_seed, peak_rss_mb, placement_digest, run_passes, shuffled,
    source_values, timed, Outcome, RunConfig,
};
use crate::hostspeed::HostSpeed;
use crate::metrics::{Report, Values};
use crate::stats::{median, ratio, Repeats};
use crate::timed_source::{SourceTotals, TimedSource};
use crate::validate::check_placement;

/// The fixed parameters of the scale workload.
#[derive(Clone, Copy, Debug)]
pub struct ScaleParams {
    /// Nodes of the Barabási–Albert graph.
    pub nodes: usize,
    /// Seed of the graph generator.
    pub graph_seed: u64,
    /// Seed of the fixed pool of pair sets.
    pub pool_seed: u64,
    /// Batches in the pool; a pass places each once.
    pub batches: usize,
    /// Aggregates per batch.
    pub pairs: usize,
    /// Worst-link overload under shortest-path routing each batch is
    /// scaled to.
    pub overload: f64,
}

/// `scale-place` at its benchmark size.
pub const BA_10K: ScaleParams = ScaleParams {
    nodes: 10_000,
    graph_seed: 42,
    pool_seed: 2,
    batches: 5,
    pairs: 16,
    overload: 3.0,
};

impl ScaleParams {
    fn line(&self) -> String {
        format!(
            "model=barabasi-albert nodes={} graph_seed={} pool_seed={} batches_per_pass={} pairs={} overload={} engine=partitioned-default",
            self.nodes, self.graph_seed, self.pool_seed, self.batches, self.pairs, self.overload
        )
    }
}

/// One batch: the matrix to place and each aggregate's shortest delay.
pub struct Batch {
    /// The overload-scaled matrix.
    pub tm: TrafficMatrix,
    /// Shortest-path delay of each aggregate of `tm`, ms.
    pub sp_delay_ms: Vec<f64>,
}

/// The graph: generated once per set-up.
pub fn graph(p: &ScaleParams) -> IngestedGraph {
    generate(
        SynthModel::BarabasiAlbert,
        &SynthConfig { nodes: p.nodes, seed: p.graph_seed, ..Default::default() },
    )
}

/// The pool of batches: pairs and volumes drawn from the pool seed, each
/// batch scaled to the workload's overload.
pub fn make_batches(p: &ScaleParams, g: &Graph) -> Vec<Batch> {
    let n = g.node_count() as u32;
    let mut pool = StdRng::seed_from_u64(p.pool_seed);
    (0..p.batches)
        .map(|_| {
            let mut seen = std::collections::BTreeSet::new();
            let mut aggs = Vec::with_capacity(p.pairs);
            while aggs.len() < p.pairs {
                let (s, d) = (pool.gen_range(0..n), pool.gen_range(0..n));
                if s != d && seen.insert((s, d)) {
                    aggs.push(Aggregate {
                        src: NodeId(s),
                        dst: NodeId(d),
                        volume_mbps: pool.gen_range(100.0..300.0),
                        flow_count: 10,
                    });
                }
            }
            let tm = TrafficMatrix::new(aggs);
            // Shortest-path loads, by the harness's own Dijkstra.
            let mut loads = vec![0.0; g.link_count()];
            let sp_delay_ms: Vec<f64> = tm
                .aggregates()
                .iter()
                .map(|a| {
                    let path = shortest_path_tree(g, a.src, None, None)
                        .path_to(g, a.dst)
                        .expect("Barabasi-Albert graphs are connected");
                    path.links().iter().for_each(|l| loads[l.idx()] += a.volume_mbps);
                    path.delay_ms()
                })
                .collect();
            let worst =
                g.link_ids().map(|l| loads[l.idx()] / g.link(l).capacity_mbps).fold(0.0, f64::max);
            Batch { tm: tm.scaled(p.overload / worst), sp_delay_ms }
        })
        .collect()
}

/// One placement as the harness saw it.
pub struct Placed {
    /// Index of the batch in the run's batch list.
    pub batch: usize,
    /// Harness-timed `GrowRequest::solve_with`, raw seconds.
    pub secs: f64,
    /// What the program returned; `None` when it failed or panicked.
    pub outcome: Option<GrowOutcome>,
    /// LP solves the placement issued.
    pub lp_solves: usize,
}

impl Placed {
    /// Flow-weighted placed delay over shortest delay, when the outcome is
    /// present and valid: the placement passes the harness's validator and
    /// `omax` is finite.
    pub fn valid_stretch(&self, g: &Graph, batches: &[Batch]) -> Option<f64> {
        let out = self.outcome.as_ref()?;
        let batch = &batches[self.batch];
        if !check_placement(g, &batch.tm, &out.placement, None).is_clean() || !out.omax.is_finite()
        {
            return None;
        }
        let (mut placed, mut shortest) = (0.0, 0.0);
        for ((agg, pl), sp) in
            batch.tm.aggregates().iter().zip(out.placement.per_aggregate()).zip(&batch.sp_delay_ms)
        {
            placed += agg.flow_count as f64 * pl.mean_delay_ms();
            shortest += agg.flow_count as f64 * sp;
        }
        let stretch = placed / shortest;
        stretch.is_finite().then_some(stretch)
    }

    /// Everything deterministic the placement reports, as bit patterns.
    pub fn fingerprint(&self) -> Vec<u64> {
        let Some(out) = &self.outcome else { return vec![self.batch as u64, u64::MAX] };
        vec![
            self.batch as u64,
            out.lp_pivots as u64,
            out.rounds as u64,
            self.lp_solves as u64,
            out.omax.to_bits(),
            placement_digest(&out.placement),
        ]
    }
}

/// One pass: every batch, in the order `seed` shuffles them into, placed
/// through `source` from a fresh (cold) LP context.
pub fn pass(
    batches: &[Batch],
    source: &dyn PathSource,
    seed: u64,
    host: &mut HostSpeed,
) -> Vec<Placed> {
    shuffled(batches.len(), seed)
        .into_iter()
        .map(|batch| {
            let mut ctx = SolveContext::new();
            let (outcome, secs) = host.timed(|| {
                catch(|| GrowRequest::new(source, &batches[batch].tm).solve_with(&mut ctx))
                    .and_then(Result::ok)
            });
            Placed { batch, secs, outcome, lp_solves: ctx.solves() }
        })
        .collect()
}

/// Running totals over the passes of a run.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    /// Placement seconds per batch (raw).
    secs: Repeats,
    /// Every valid placement, seconds (raw).
    all_s: Vec<f64>,
    stretch_sum: f64,
    lp_solves: usize,
    lp_pivots: usize,
    rounds: usize,
}

impl Tally {
    fn add(&mut self, g: &Graph, batches: &[Batch], placed: &[Placed]) {
        for pl in placed {
            self.attempted += 1;
            let (Some(stretch), Some(out)) = (pl.valid_stretch(g, batches), &pl.outcome) else {
                self.failed += 1;
                continue;
            };
            self.secs.record(pl.batch, pl.secs);
            self.all_s.push(pl.secs);
            self.stretch_sum += stretch;
            self.lp_solves += pl.lp_solves;
            self.lp_pivots += out.lp_pivots;
            self.rounds += out.rounds;
        }
    }

    /// The engine never materializes more per-pair state than it was
    /// asked to price: one more operation-level check per pass.
    fn check_cached_pairs(&mut self, p: &ScaleParams, engine: &PartitionedPathEngine) {
        self.attempted += 1;
        self.failed += usize::from(engine.cached_pairs() > p.batches * p.pairs);
    }

    fn ops(&self) -> f64 {
        self.all_s.len() as f64
    }

    fn busy_s(&self) -> f64 {
        self.all_s.iter().sum()
    }
}

/// Set-up, part one: the graph and the pool of batches.
pub fn setup(p: &ScaleParams) -> (IngestedGraph, Vec<Batch>) {
    let ingested = graph(p);
    let batches = make_batches(p, ingested.graph());
    (ingested, batches)
}

/// Set-up, part two: the engine, which borrows the graph.
pub fn engine(g: &Graph) -> PartitionedPathEngine<'_> {
    PartitionedPathEngine::build(g, &EngineConfig::default())
}

/// Runs the workload.
pub fn run(p: &ScaleParams, cfg: &RunConfig) -> Outcome {
    if cfg.traced {
        return run_traced(p, cfg);
    }
    let mut host = HostSpeed::new();
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    run_passes(cfg.seconds, |k| {
        let ((ingested, batches), inputs_s) = host.timed(|| setup(p));
        let g = ingested.graph();
        let (engine, build_s) = host.timed(|| engine(g));
        setup_s.push(inputs_s + build_s);
        tally.add(g, &batches, &pass(&batches, &engine, pass_seed(cfg.seed, k), &mut host));
        tally.check_cached_pairs(p, &engine);
    });

    // Every time is scaled to reference host speed by one factor per run.
    let scale = host.scale();
    let mut values = Values::new();
    values.insert("setup_s", median(&setup_s) * scale);
    values.insert("op_ms_mean", tally.secs.mean() * 1e3 * scale);
    values.insert("ops_per_s", ratio(tally.secs.per_op().len() as f64, tally.secs.sum() * scale));
    values.insert("latency_stretch", ratio(tally.stretch_sum, tally.ops()));
    values.insert("peak_rss_mb", peak_rss_mb());
    Outcome {
        report: Report { attempted: tally.attempted, failed: tally.failed, values },
        params: p.line(),
        spans: None,
        host_scale: scale,
    }
}

/// The traced run: each pass twice, through a fresh engine each time —
/// plain, then through the decorator — so both sides of the overhead ratio
/// see the same inputs under the same host conditions.
fn run_traced(p: &ScaleParams, cfg: &RunConfig) -> Outcome {
    let mut host = HostSpeed::new();
    let (mut plain, mut traced) = (Tally::default(), Tally::default());
    let mut totals = SourceTotals::default();
    let (mut generate_s, mut build_s) = (Vec::new(), Vec::new());
    let (mut intra, mut cross, mut fallback, mut cached_pairs) = (0, 0, 0, 0);
    run_passes(cfg.seconds * 0.9, |k| {
        let (ingested, secs) = timed(|| graph(p));
        generate_s.push(secs);
        let g = ingested.graph();
        let batches = make_batches(p, g);
        let seed = pass_seed(cfg.seed, k);

        let plain_engine = engine(g);
        plain.add(g, &batches, &pass(&batches, &plain_engine, seed, &mut host));
        plain.check_cached_pairs(p, &plain_engine);
        drop(plain_engine);

        let (engine, secs) = timed(|| engine(g));
        build_s.push(secs);
        let source = TimedSource::new(&engine);
        traced.add(g, &batches, &pass(&batches, &source, seed, &mut host));
        traced.check_cached_pairs(p, &engine);
        totals.add(&source.totals());
        let (i, c, f) = engine.stats().snapshot();
        (intra, cross, fallback) = (intra + i, cross + c, fallback + f);
        cached_pairs = engine.cached_pairs();
    });

    let mut values = Values::new();
    let ops = traced.ops();
    values.insert(
        "bench.tracing_overhead_share",
        ratio(traced.secs.median() - plain.secs.median(), plain.secs.median()),
    );
    values.insert("bench.op_ms_p50", plain.secs.median() * 1e3);
    source_values(&mut values, &totals, ops, traced.busy_s());
    values.insert("core.pathgrow.solve_ms_per_call", ratio(traced.busy_s() * 1e3, ops));
    values.insert("core.pathgrow.calls_per_op", 1.0);
    values.insert("core.pathgrow.rounds_per_call", ratio(traced.rounds as f64, ops));
    values.insert("core.pathgrow.grow_share", 1.0);
    values.insert(
        "core.pathgrow.nonpricing_s",
        ratio(traced.busy_s() - totals.pricing().busy_s, ops),
    );
    values.insert("linprog.solves_per_op", ratio(traced.lp_solves as f64, ops));
    values.insert("linprog.pivots_per_op", ratio(traced.lp_pivots as f64, ops));
    values.insert("core.hier.build_s", median(&build_s));
    values.insert("core.hier.cross_share", ratio(cross as f64, (intra + cross) as f64));
    values.insert("core.hier.fallback_share", ratio(fallback as f64, cross as f64));
    values.insert("core.hier.cached_pairs", cached_pairs as f64);
    values.insert("topology.synth.generate_s", median(&generate_s));
    calibration(&mut values);

    Outcome {
        report: Report {
            attempted: plain.attempted + traced.attempted,
            failed: plain.failed + traced.failed,
            values,
        },
        params: p.line(),
        spans: None,
        host_scale: host.scale(),
    }
}
