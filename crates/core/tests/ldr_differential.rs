//! `Ldr::place_with_traces_ctx` — members at unit fraction with cached
//! peaks, one incidence table refilled in place — against the plain
//! Figure-14 loop it replaced: every link of every iteration appraised
//! through `MultiplexCheck::check_link` on materialized `samples · x`
//! copies, incidence gathered through `Placement::link_fractions_of`. The
//! two must agree on everything a decision returns, on the networks and at
//! the loads the `perf` benchmark runs (whose traced run shadows exactly
//! this reference loop).

use lowlat_core::pathgrow::GrowRequest;
use lowlat_core::pathset::PathCache;
use lowlat_core::scale::ScaleToLoad;
use lowlat_core::schemes::ldr::{Ldr, LdrConfig, LdrOutcome};
use lowlat_core::schemes::{predict_volumes, SolveContext};
use lowlat_core::PathSource;
use lowlat_tmgen::{GravityTmGen, TmGenConfig, TrafficMatrix};
use lowlat_topology::zoo::named;
use lowlat_topology::Topology;
use lowlat_traffic::{spread_seed, synthesize, AggregateTrace, MultiplexCheck, TraceGenConfig};

/// The Figure-14 loop with nothing cached and nothing skipped.
fn reference_decision(
    config: &LdrConfig,
    source: &dyn PathSource,
    tm: &TrafficMatrix,
    traces: &[AggregateTrace],
    ctx: &mut SolveContext,
) -> LdrOutcome {
    let graph = source.graph();
    let check = MultiplexCheck::new(config.multiplex.clone());
    let caps = source.effective_capacities();
    let mut ba = predict_volumes(traces);
    let last_minute: Vec<&[f64]> = traces.iter().map(|tr| tr.samples(tr.minutes() - 1)).collect();
    let mut iterations = 0;
    loop {
        iterations += 1;
        let out = GrowRequest::new(source, tm)
            .volumes(&ba)
            .config(&config.growth)
            .solve_with(ctx)
            .expect("placement LP");
        let mut per_link: Vec<Vec<(usize, f64)>> = vec![Vec::new(); graph.link_count()];
        for a in 0..tm.aggregates().len() {
            for (l, x) in out.placement.link_fractions_of(a) {
                per_link[l as usize].push((a, x));
            }
        }
        let mut inflate = vec![false; ba.len()];
        let mut converged = true;
        for l in graph.link_ids() {
            let members = &per_link[l.idx()];
            if members.is_empty() {
                continue;
            }
            let scaled: Vec<Vec<f64>> = members
                .iter()
                .map(|&(a, x)| last_minute[a].iter().map(|s| s * x).collect())
                .collect();
            let refs: Vec<&[f64]> = scaled.iter().map(|v| v.as_slice()).collect();
            if !check.check_link(caps[l.idx()], &refs).passed() {
                converged = false;
                for &(a, x) in members {
                    inflate[a] |= x > 1e-9;
                }
            }
        }
        if converged || iterations >= config.max_iterations {
            let placement = out.placement;
            return LdrOutcome {
                placement,
                iterations,
                ba,
                omax: out.omax,
                multiplexing_ok: converged,
            };
        }
        for (b, _) in ba.iter_mut().zip(&inflate).filter(|(_, f)| **f) {
            *b *= config.ba_inflation;
        }
    }
}

/// Consecutive decisions on `topo` at `load`, each side carrying its own
/// cache and warm-start context from minute to minute as the timeline does.
fn assert_decisions_agree(topo: &Topology, load: f64, warmup: usize, decisions: usize) {
    let tm = GravityTmGen::new(TmGenConfig::default()).generate(topo, 0).scaled_to_load(topo, load);
    let traces: Vec<AggregateTrace> = tm
        .aggregates()
        .iter()
        .enumerate()
        .map(|(i, a)| {
            synthesize(&TraceGenConfig {
                mean_mbps: a.volume_mbps,
                cv: 0.3,
                minutes: warmup + decisions,
                seed: spread_seed(1, i as u64),
                ..Default::default()
            })
        })
        .collect();
    let ldr = Ldr::default();
    let (fast_cache, slow_cache) = (PathCache::new(topo.graph()), PathCache::new(topo.graph()));
    let (mut fast_ctx, mut slow_ctx) = (SolveContext::new(), SolveContext::new());
    let mut iterated = false;
    for t in warmup..warmup + decisions {
        let history: Vec<AggregateTrace> = traces.iter().map(|tr| tr.truncated(t)).collect();
        let fast = ldr.place_with_traces_ctx(&fast_cache, &tm, &history, &mut fast_ctx).unwrap();
        let slow = reference_decision(ldr.config(), &slow_cache, &tm, &history, &mut slow_ctx);
        assert_eq!(fast.iterations, slow.iterations, "minute {t}");
        assert_eq!(fast.multiplexing_ok, slow.multiplexing_ok, "minute {t}");
        assert_eq!(fast.omax.to_bits(), slow.omax.to_bits(), "minute {t}");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fast.ba), bits(&slow.ba), "minute {t}");
        for (a, (f, s)) in
            fast.placement.per_aggregate().iter().zip(slow.placement.per_aggregate()).enumerate()
        {
            assert_eq!(f.splits.len(), s.splits.len(), "minute {t} aggregate {a}");
            for ((fp, fx), (sp, sx)) in f.splits.iter().zip(&s.splits) {
                assert_eq!(fp.links(), sp.links(), "minute {t} aggregate {a}");
                assert_eq!(fx.to_bits(), sx.to_bits(), "minute {t} aggregate {a}");
            }
        }
        iterated |= fast.iterations > 1;
    }
    assert!(iterated, "the cell must exercise the tweak loop");
}

#[test]
fn abilene_at_the_benchmark_load() {
    assert_decisions_agree(&named::abilene(), 0.35, 3, 3);
}

#[test]
fn gts_like_at_the_benchmark_load() {
    assert_decisions_agree(&named::gts_like(), 0.55, 3, 1);
}
