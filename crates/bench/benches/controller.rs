//! Bounded-churn controller benchmarks: the service axes of the §5 loop.
//!
//! Two cells per controller. The diurnal cell is the long-horizon steady
//! state — a 20-minute run with the minute means swinging ±30% — where the
//! bounded controller's whole point is skipping re-installs the traffic
//! doesn't pay for. The storm cell is the worst minute of an operator's
//! week: a two-cable failure burst landing exactly on the diurnal peak, so
//! repair, re-partition and re-placement all happen inside one decision
//! minute. Medians here are end-to-end run wall-clock; regressions mean
//! the per-minute decision work (repair + partition + place + merge) got
//! slower, which is the §5 viability claim itself. No workload of the repo
//! benchmark runs `bounded:LDR` or fires events, so this is the only
//! timing of `merge_bounded`, make-before-break and in-minute repair.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use lowlat_bench::{abilene, standard_tm};
use lowlat_core::pathset::PathCache;
use lowlat_netgraph::FailureMask;
use lowlat_sim::timeline::{
    simulate, simulate_with_events_on, Controller, TimelineConfig, TimelineEvent,
};

fn controllers() -> Vec<Controller> {
    ["LDR", "bounded:LDR"]
        .into_iter()
        .map(|s| Controller::parse(s).expect("registry specs"))
        .collect()
}

fn bench_diurnal(c: &mut Criterion) {
    let topo = abilene();
    let tm = standard_tm(&topo, 0);
    let cfg = TimelineConfig {
        minutes: 20,
        warmup_minutes: 3,
        cv: 0.3,
        seed: 7,
        diurnal_amplitude: 0.3,
        diurnal_period: 20,
        ..Default::default()
    };
    let mut group = c.benchmark_group("controller/abilene-20min-diurnal");
    group.sample_size(10);
    for controller in controllers() {
        let name = controller.name();
        group.bench_function(name, |b| {
            b.iter(|| simulate(black_box(&topo), &tm, &controller, &cfg).worst_queue_ms())
        });
    }
    group.finish();
}

fn bench_event_storm(c: &mut Criterion) {
    let topo = abilene();
    let tm = standard_tm(&topo, 0);
    let graph = topo.graph();
    // Diurnal peak of a 12-minute cycle lands at absolute minute 3 =
    // decision minute 1 — the same minute the two-cable burst hits.
    let cfg = TimelineConfig {
        minutes: 10,
        warmup_minutes: 2,
        cv: 0.3,
        seed: 11,
        diurnal_amplitude: 0.3,
        diurnal_period: 12,
        ..Default::default()
    };
    let mut burst = FailureMask::new();
    for &cable in topo.cables().iter().take(2) {
        burst.fail_cable(graph, cable);
    }
    let events = vec![
        TimelineEvent { at_minute: 1, mask: burst },
        TimelineEvent { at_minute: 6, mask: FailureMask::new() },
    ];
    let mut group = c.benchmark_group("controller/abilene-10min-storm");
    group.sample_size(10);
    for controller in controllers() {
        let name = controller.name();
        group.bench_function(name, |b| {
            b.iter(|| {
                let cache = PathCache::new(black_box(&topo).graph());
                simulate_with_events_on(&cache, &tm, &controller, &cfg, &events).worst_queue_ms()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_diurnal, bench_event_storm);
criterion_main!(benches);
