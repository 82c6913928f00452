//! Micro-benchmarks of the substrates every experiment leans on:
//! Dijkstra, Yen k-shortest paths, Dinic max-flow, the simplex LP solver,
//! the FFT convolution, and the Figure-14 appraisal kernels built on it.
//! The repo benchmark's calibration cells (`netgraph.sssp_gts_us`,
//! `linprog.transport_12x15_us`, `traffic.fft.convolve_1024_us`) time
//! three of these inside a traced run; this target runs each on its own.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use lowlat_bench::{bursty_series, gts};
use lowlat_linprog::{Problem, Relation};
use lowlat_netgraph::{max_flow, shortest_path_tree, KspGenerator, NodeId};
use lowlat_traffic::fft::convolve;
use lowlat_traffic::pmf::convolve_group;
use lowlat_traffic::{MultiplexCheck, MultiplexConfig};

fn bench_dijkstra(c: &mut Criterion) {
    let topo = gts();
    let g = topo.graph();
    c.bench_function("dijkstra/gts/sssp", |b| {
        b.iter(|| shortest_path_tree(g, black_box(NodeId(0)), None, None))
    });
}

fn bench_yen(c: &mut Criterion) {
    let topo = gts();
    let g = topo.graph();
    let far = NodeId((topo.pop_count() - 1) as u32);
    c.bench_function("yen/gts/k10", |b| {
        b.iter(|| {
            let mut gen = KspGenerator::new(g, black_box(NodeId(0)), far);
            gen.take_up_to(10).len()
        })
    });
}

fn bench_dinic(c: &mut Criterion) {
    let topo = gts();
    let g = topo.graph();
    let far = NodeId((topo.pop_count() - 1) as u32);
    c.bench_function("dinic/gts/maxflow", |b| b.iter(|| max_flow(g, black_box(NodeId(0)), far)));
}

fn bench_simplex(c: &mut Criterion) {
    // 12x15 transportation LP, the solver's bread and butter.
    c.bench_function("simplex/transport-12x15", |b| {
        b.iter(|| {
            let (ns, nd) = (12usize, 15usize);
            let mut p = Problem::minimize(ns * nd);
            for i in 0..ns {
                for j in 0..nd {
                    p.set_objective(i * nd + j, ((i * 7 + j * 3) % 11) as f64 + 1.0);
                }
            }
            for i in 0..ns {
                let coeffs: Vec<(usize, f64)> = (0..nd).map(|j| (i * nd + j, 1.0)).collect();
                p.add_row(Relation::Eq, 10.0 + i as f64, &coeffs);
            }
            let total: f64 = (0..ns).map(|i| 10.0 + i as f64).sum();
            for j in 0..nd {
                let coeffs: Vec<(usize, f64)> = (0..ns).map(|i| (i * nd + j, 1.0)).collect();
                p.add_row(Relation::Eq, total / nd as f64, &coeffs);
            }
            p.solve().expect("feasible").objective()
        })
    });
}

fn bench_fft(c: &mut Criterion) {
    let a: Vec<f64> = (0..1024).map(|i| ((i * 37) % 101) as f64 / 101.0 / 1024.0).collect();
    let bb: Vec<f64> = (0..1024).map(|i| ((i * 53) % 97) as f64 / 97.0 / 1024.0).collect();
    c.bench_function("fft/convolve-1024", |b| b.iter(|| convolve(black_box(&a), black_box(&bb))));
}

fn bench_appraisal(c: &mut Criterion) {
    let series = bursty_series(128);
    let refs: Vec<&[f64]> = series.iter().map(|s| s.as_slice()).collect();
    for m in [2, 8, 32] {
        c.bench_function(format!("pmf/convolve_group/{m}-members"), |b| {
            b.iter(|| convolve_group(black_box(&refs[..m]), 1024))
        });
    }
    for m in [8, 32, 128] {
        // Capacity just above the busiest bin: the sum of peaks does not
        // fit (no fast path) and nothing queues (test B passes), so every
        // call runs through test C.
        let busiest =
            (0..600).map(|i| refs[..m].iter().map(|s| s[i]).sum::<f64>()).fold(0.0, f64::max);
        let peaks: f64 = refs[..m].iter().map(|s| s.iter().cloned().fold(0.0, f64::max)).sum();
        assert!(peaks > busiest * 1.001, "the cell must not take the fast path");
        // A fresh check per call, as a decision's first look at a link: a
        // kept check would answer every call after the first from its tail
        // memo. The cell therefore also pays the check's set-up, a
        // 1024-point FFT plan (twiddles) and its buffers.
        c.bench_function(format!("multiplex/check_link/{m}-members"), |b| {
            b.iter(|| {
                MultiplexCheck::new(MultiplexConfig::default())
                    .check_link(black_box(busiest * 1.001), &refs[..m])
            })
        });
    }
}

criterion_group!(
    benches,
    bench_dijkstra,
    bench_yen,
    bench_dinic,
    bench_simplex,
    bench_fft,
    bench_appraisal
);
criterion_main!(benches);
