//! Benchmarks behind Figures 9, 10 and the Figure-14 loop: trace synthesis,
//! Algorithm-1 prediction, and the statistical-multiplexing checks
//! (including the FFT convolution path).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use lowlat_bench::bursty_series;
use lowlat_traffic::multiplex::{MultiplexCheck, MultiplexConfig};
use lowlat_traffic::predictor::prediction_ratios;
use lowlat_traffic::trace::{synthesize, TraceGenConfig};

fn bench_trace_synthesis(c: &mut Criterion) {
    c.bench_function("fig09_trace_synthesis/1h", |b| {
        b.iter(|| synthesize(&TraceGenConfig { seed: 9, ..Default::default() }))
    });
}

fn bench_prediction(c: &mut Criterion) {
    let trace = synthesize(&TraceGenConfig::default());
    let means = trace.minute_means();
    c.bench_function("fig09_algorithm1/60min", |b| b.iter(|| prediction_ratios(black_box(&means))));
}

fn bench_multiplex_check(c: &mut Criterion) {
    // Ten bursty aggregates on one link, forcing both test B and test C.
    let traces = bursty_series(10);
    let refs: Vec<&[f64]> = traces.iter().map(|t| t.as_slice()).collect();
    let check = MultiplexCheck::new(MultiplexConfig::default());
    c.bench_function("fig14_multiplex_check/10agg", |b| {
        b.iter(|| check.check_link(black_box(9_000.0), &refs))
    });
}

criterion_group!(benches, bench_trace_synthesis, bench_prediction, bench_multiplex_check);
criterion_main!(benches);
