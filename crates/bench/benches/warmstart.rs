//! Warm-start benchmarks: the §5 deployment cycle re-solves nearly
//! identical LPs minute after minute; these measure how much restarting
//! from the previous minute's basis buys over solving cold, first at the
//! raw simplex level, then through the full LDR solve path
//! (the latency-optimal `GrowRequest` with the static-headroom dial).
//!
//! A differential cell the repo benchmark has no twin for: its workloads
//! always run warm, so only here is a `cold` solve timed beside its `warm`
//! twin. `ldr_minutes/cold` is cold *between* minutes only: the growth
//! rounds of one call restart from each other, so every LP but a call's
//! first is warm in both variants. `restart_0pivot` is the calibration
//! cell for the restart itself.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use lowlat_bench::{gts, standard_tm};
use lowlat_core::pathgrow::{GrowRequest, GrowthConfig, SolveContext};
use lowlat_core::pathset::PathCache;
use lowlat_core::schemes::predict_volumes;
use lowlat_linprog::{Basis, Problem, Relation};
use lowlat_traffic::{spread_seed, synthesize, AggregateTrace, TraceGenConfig};

const MINUTES: usize = 8;

/// The minute-t transport LP: fixed shape, demand drifting a few percent
/// per minute — the simplex-level shape of the deployment cycle.
fn transport_minute(minute: u64) -> Problem {
    let (ns, nd) = (12usize, 15usize);
    let mut p = Problem::minimize(ns * nd);
    for i in 0..ns {
        for j in 0..nd {
            p.set_objective(i * nd + j, ((i * 7 + j * 3) % 11) as f64 + 1.0);
        }
    }
    let drift = |k: u64| 1.0 + 0.03 * (((minute * 13 + k * 7) % 5) as f64 - 2.0);
    let supplies: Vec<f64> = (0..ns as u64).map(|i| (10.0 + i as f64) * drift(i)).collect();
    let total: f64 = supplies.iter().sum();
    for (i, s) in supplies.iter().enumerate() {
        let coeffs: Vec<(usize, f64)> = (0..nd).map(|j| (i * nd + j, 1.0)).collect();
        p.add_row(Relation::Le, *s, &coeffs);
    }
    for j in 0..nd {
        let coeffs: Vec<(usize, f64)> = (0..ns).map(|i| (i * nd + j, 1.0)).collect();
        p.add_row(Relation::Ge, 0.85 * total / nd as f64, &coeffs);
    }
    p
}

fn bench_simplex_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("warmstart/simplex_chain");
    group.sample_size(20);
    group.bench_function("cold", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for minute in 0..MINUTES as u64 {
                let p = transport_minute(black_box(minute));
                acc += p.solve().expect("feasible").objective();
            }
            acc
        })
    });
    group.bench_function("warm", |b| {
        b.iter(|| {
            let mut basis = Basis::new();
            let mut acc = 0.0;
            for minute in 0..MINUTES as u64 {
                let p = transport_minute(black_box(minute));
                acc += p.solve_warm(&mut basis).expect("feasible").objective();
            }
            acc
        })
    });
    group.finish();
}

/// A fixed `rows`-row capacity LP whose optimum has a structural variable
/// basic in every row: maximize Σ x under
/// `x_i + x_{i+1}/4 + x_{i+7}/4 <= cap_i`. `wobble` moves the capacities by
/// under a percent — right-hand sides only, and not enough to change the
/// optimal basis.
fn capacity_rows(rows: usize, wobble: u64) -> Problem {
    let mut p = Problem::minimize(rows);
    for i in 0..rows {
        p.set_objective(i, -1.0);
        let cap = 10.0 + 0.02 * ((i as u64 * 5 + wobble * 3) % 7) as f64;
        p.add_row(Relation::Le, cap, &[(i, 1.0), ((i + 1) % rows, 0.25), ((i + 7) % rows, 0.25)]);
    }
    p
}

/// The calibration cell for the restart itself: a warm re-solve that moves
/// right-hand sides only and pivots zero times, so what is timed is the
/// standard form, taking the basis over, the basic values, one pricing pass
/// and handing the basis back — at the row counts of a GTS-like growth LP
/// (240), of a 10k-node placement LP (510), and beyond.
fn bench_restart_0pivot(c: &mut Criterion) {
    let mut group = c.benchmark_group("warmstart/restart_0pivot");
    group.sample_size(20);
    for rows in [240usize, 510, 1000] {
        let minutes = [capacity_rows(rows, 0), capacity_rows(rows, 1)];
        let mut basis = Basis::new();
        minutes[0].solve_warm(&mut basis).expect("feasible");
        for p in &minutes {
            let sol = p.solve_warm(&mut basis).expect("feasible");
            assert!(sol.warm_started() && sol.iterations() == 0, "{rows} rows: not a pure restart");
        }
        group.bench_function(format!("{rows}-rows"), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for p in &minutes {
                    acc += black_box(p).solve_warm(&mut basis).expect("feasible").objective();
                }
                acc
            })
        });
    }
    group.finish();
}

/// Per-minute demand vectors for the LDR chain: Algorithm-1 predictions
/// over an evolving cv-0.3 trace — the deployment cycle's real workload.
fn minute_volumes(tm: &lowlat_tmgen::TrafficMatrix) -> Vec<Vec<f64>> {
    let total = 3 + MINUTES;
    let traces: Vec<AggregateTrace> = tm
        .aggregates()
        .iter()
        .enumerate()
        .map(|(i, a)| {
            synthesize(&TraceGenConfig {
                mean_mbps: a.volume_mbps,
                cv: 0.3,
                minutes: total,
                seed: spread_seed(99, i as u64),
                ..Default::default()
            })
        })
        .collect();
    (3..total)
        .map(|t| {
            let history: Vec<AggregateTrace> = traces.iter().map(|tr| tr.truncated(t)).collect();
            predict_volumes(&history)
        })
        .collect()
}

fn bench_ldr_minutes(c: &mut Criterion) {
    let topo = gts();
    let tm = standard_tm(&topo, 0);
    let cache = PathCache::new(topo.graph());
    let volumes = minute_volumes(&tm);
    // LDR's trace-free solve path: latency-optimal under the 10% static
    // headroom dial.
    let cfg = GrowthConfig { headroom: 0.1 };
    let mut group = c.benchmark_group("warmstart/ldr_minutes");
    group.sample_size(10);
    group.bench_function("cold", |b| {
        b.iter(|| {
            let mut pivots = 0usize;
            for vols in &volumes {
                // A fresh context per minute: every LP solves cold.
                let mut ctx = SolveContext::new();
                pivots += GrowRequest::new(&cache, &tm)
                    .volumes(black_box(vols))
                    .config(&cfg)
                    .solve_with(&mut ctx)
                    .expect("solvable")
                    .lp_pivots;
            }
            pivots
        })
    });
    group.bench_function("warm", |b| {
        // One context for the whole controller lifetime: minute t restarts
        // from minute t-1. Seeded outside the measurement so the bench
        // reports the steady-state per-minute cost the §5 cycle pays.
        let mut ctx = SolveContext::new();
        for vols in &volumes {
            GrowRequest::new(&cache, &tm)
                .volumes(vols)
                .config(&cfg)
                .solve_with(&mut ctx)
                .expect("solvable");
        }
        b.iter(|| {
            let mut pivots = 0usize;
            for vols in &volumes {
                pivots += GrowRequest::new(&cache, &tm)
                    .volumes(black_box(vols))
                    .config(&cfg)
                    .solve_with(&mut ctx)
                    .expect("solvable")
                    .lp_pivots;
            }
            pivots
        })
    });
    group.finish();
}

criterion_group!(benches, bench_simplex_chain, bench_restart_0pivot, bench_ldr_minutes);
criterion_main!(benches);
