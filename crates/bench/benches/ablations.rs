//! Ablations of LDR's design choices (paper §8 "Generality of building
//! blocks"):
//!
//! * **growth step** — how many next-shortest paths to add per overloaded
//!   aggregate per round (paper: "generating shortest paths for an
//!   increasing k"); bigger steps mean fewer LP solves but larger LPs.
//! * **refinement rounds** — the Figure-6 rebalancing passes; 0 disables.
//! * **path-set seeding** — starting MinMax from k=1 with growth versus
//!   seeding everyone with k=10 up front (the TeXCP approach).

use criterion::{criterion_group, criterion_main, Criterion};

use lowlat_bench::{gts, standard_tm};
use lowlat_core::pathgrow::{GrowRequest, GrowthConfig};
use lowlat_core::pathset::PathCache;

fn bench_growth_step(c: &mut Criterion) {
    let topo = gts();
    let tm = standard_tm(&topo, 0);
    let mut g = c.benchmark_group("ablation_growth_step");
    g.sample_size(10);
    for step in [1usize, 2, 4, 8] {
        g.bench_function(format!("step{step}"), |b| {
            b.iter(|| {
                let cache = PathCache::new(topo.graph());
                let cfg = GrowthConfig { growth_step: step, ..Default::default() };
                GrowRequest::new(&cache, &tm).config(&cfg).solve().expect("latopt").omax
            })
        });
    }
    g.finish();
}

fn bench_refine_rounds(c: &mut Criterion) {
    let topo = gts();
    let tm = standard_tm(&topo, 1);
    let mut g = c.benchmark_group("ablation_refine_rounds");
    g.sample_size(10);
    for rounds in [0usize, 2, 4] {
        g.bench_function(format!("refine{rounds}"), |b| {
            b.iter(|| {
                let cache = PathCache::new(topo.graph());
                let cfg = GrowthConfig { refine_rounds: rounds, ..Default::default() };
                GrowRequest::new(&cache, &tm).config(&cfg).solve().expect("latopt").omax
            })
        });
    }
    g.finish();
}

fn bench_minmax_seeding(c: &mut Criterion) {
    let topo = gts();
    let tm = standard_tm(&topo, 0);
    let mut g = c.benchmark_group("ablation_minmax_seeding");
    g.sample_size(10);
    g.bench_function("grow_from_k1", |b| {
        b.iter(|| {
            let cache = PathCache::new(topo.graph());
            GrowRequest::new(&cache, &tm).minmax(None).solve().expect("minmax").omax
        })
    });
    g.bench_function("seed_k10", |b| {
        b.iter(|| {
            let cache = PathCache::new(topo.graph());
            GrowRequest::new(&cache, &tm).minmax(Some(10)).solve().expect("minmax").omax
        })
    });
    g.finish();
}

criterion_group!(benches, bench_growth_step, bench_refine_rounds, bench_minmax_seeding);
criterion_main!(benches);
