//! The harness's promises about the workloads themselves, on sizes small
//! enough for a debug build: the decorator and the traced run change
//! nothing the program computes, a seed fixes the inputs and only the
//! inputs, and every workload runs clean at a seed nobody sized it with.

use lowlat_core::pathset::PathCache;
use lowlat_perf::hostspeed::HostSpeed;
use lowlat_perf::timed_source::{SourceTotals, TimedSource};
use lowlat_perf::workloads::{ctrl, failure, pass_seed, placement_digest, scale, RunConfig};
use lowlat_topology::zoo::named;

const CTRL: ctrl::CtrlParams =
    ctrl::CtrlParams { minutes: 2, warmup_minutes: 2, trace_sets: 2, ..ctrl::ABILENE };
const FAILURE: failure::FailureParams =
    failure::FailureParams { label: "abilene", topology: named::abilene, ..failure::GTS };
const SCALE: scale::ScaleParams =
    scale::ScaleParams { nodes: 300, batches: 4, pairs: 6, ..scale::BA_10K };

/// One whole pass at the smallest run length, timed or traced.
fn one_pass(seed: u64, traced: bool) -> RunConfig {
    RunConfig { seed, seconds: 0.0, traced }
}

#[test]
fn timed_source_is_transparent_on_the_controller_workloads() {
    let inputs = ctrl::setup(&CTRL);
    let mut host = HostSpeed::new();
    let seed = CTRL.trace_seed(0);
    let plain = ctrl::pass(&CTRL, &inputs, seed, &mut host, None).0.expect("plain pass");
    let mut totals = SourceTotals::default();
    let timed = ctrl::pass(&CTRL, &inputs, seed, &mut host, Some(&mut totals)).0.expect("pass");
    assert_eq!(ctrl::fingerprint(&plain), ctrl::fingerprint(&timed));
    assert!(totals.pricing().calls > 0, "the decorator saw the pricing calls");

    // The placement itself, split for split.
    let cache = PathCache::new(inputs.topo.graph());
    let direct = ctrl::first_decision(&CTRL, &inputs, seed, &cache).unwrap();
    let cache = PathCache::new(inputs.topo.graph());
    let wrapped = ctrl::first_decision(&CTRL, &inputs, seed, &TimedSource::new(&cache)).unwrap();
    assert_eq!(placement_digest(&direct.placement), placement_digest(&wrapped.placement));
    assert_eq!(direct.iterations, wrapped.iterations);
}

#[test]
fn timed_source_is_transparent_on_failure_replace() {
    let inputs = failure::setup(&FAILURE);
    let mut host = HostSpeed::new();
    let plain = failure::pass(&inputs, 5, &mut host, None);
    let mut totals = SourceTotals::default();
    let timed = failure::pass(&inputs, 5, &mut host, Some(&mut totals));
    assert_eq!(plain.len(), inputs.masks.len());
    for (a, b) in plain.iter().zip(&timed) {
        assert!(a.valid(&inputs).is_some(), "scenario {} failed validation", a.scenario);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
    assert!(totals.pricing().calls > 0);
}

#[test]
fn timed_source_is_transparent_on_scale_place() {
    let (ingested, batches) = scale::setup(&SCALE);
    let g = ingested.graph();
    let mut host = HostSpeed::new();
    let engine = scale::engine(g);
    let plain = scale::pass(&batches, &engine, 5, &mut host);
    let engine = scale::engine(g);
    let source = TimedSource::new(&engine);
    let timed = scale::pass(&batches, &source, 5, &mut host);
    for (a, b) in plain.iter().zip(&timed) {
        assert!(a.valid_stretch(g, &batches).is_some(), "batch {} failed validation", a.batch);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
    assert!(source.totals().pricing().calls > 0);
}

#[test]
fn the_same_seed_reproduces_the_run_exactly() {
    let inputs = ctrl::setup(&CTRL);
    let mut host = HostSpeed::new();
    let seed = CTRL.trace_seed(1);
    let a = ctrl::pass(&CTRL, &inputs, seed, &mut host, None).0.unwrap();
    let b = ctrl::pass(&CTRL, &inputs, seed, &mut host, None).0.unwrap();
    assert_eq!(ctrl::fingerprint(&a), ctrl::fingerprint(&b));

    let inputs = failure::setup(&FAILURE);
    let print = |seed| -> Vec<Vec<u64>> {
        failure::pass(&inputs, seed, &mut HostSpeed::new(), None)
            .iter()
            .map(failure::Recovery::fingerprint)
            .collect()
    };
    assert_eq!(print(pass_seed(99, 0)), print(pass_seed(99, 0)));
}

#[test]
fn a_different_seed_changes_the_inputs_and_nothing_else() {
    // Controller: the pool's trace sets, each once per cycle, in another
    // order; the sets themselves differ from one another.
    let cycle = |seed| -> Vec<usize> {
        (0..ctrl::ABILENE.trace_sets).map(|k| ctrl::ABILENE.set_of_pass(seed, k)).collect()
    };
    let sorted = |mut v: Vec<usize>| {
        v.sort_unstable();
        v
    };
    assert_ne!(cycle(99), cycle(7));
    assert_eq!(sorted(cycle(99)), sorted(cycle(7)));
    assert_eq!(
        ctrl::ABILENE.set_of_pass(99, 0),
        ctrl::ABILENE.set_of_pass(99, ctrl::ABILENE.trace_sets)
    );
    let inputs = ctrl::setup(&CTRL);
    let first_sample = |set| ctrl::traces(&CTRL, &inputs.tm, CTRL.trace_seed(set))[0].samples(0)[0];
    assert_ne!(first_sample(0), first_sample(1));

    // Failure drill: another order over the same scenarios.
    let inputs = failure::setup(&FAILURE);
    let order = |seed| -> Vec<usize> {
        failure::pass(&inputs, seed, &mut HostSpeed::new(), None)
            .iter()
            .map(|r| r.scenario)
            .collect()
    };
    assert_ne!(order(99), order(7));
    assert_eq!(sorted(order(99)), sorted(order(7)));

    // Scale: the batches are the pool's, whatever the seed; the order moves.
    let (ingested, batches) = scale::setup(&SCALE);
    let g = ingested.graph();
    let engine = scale::engine(g);
    let order = |seed| -> Vec<usize> {
        scale::pass(&batches, &engine, seed, &mut HostSpeed::new())
            .iter()
            .map(|p| p.batch)
            .collect()
    };
    assert!((1..6).any(|s| order(pass_seed(s, 0)) != order(pass_seed(99, 0))));
    let mut by_batch = scale::pass(&batches, &engine, 1, &mut HostSpeed::new());
    by_batch.sort_by_key(|p| p.batch);
    let mut again = scale::pass(&batches, &engine, 2, &mut HostSpeed::new());
    again.sort_by_key(|p| p.batch);
    for (a, b) in by_batch.iter().zip(&again) {
        assert_eq!(a.fingerprint(), b.fingerprint(), "a batch costs the same in any order");
    }
}

#[test]
fn every_workload_runs_clean_timed_and_traced_at_an_unused_seed() {
    for traced in [false, true] {
        let cfg = one_pass(7, traced);
        let outcomes = [
            ("ctrl", ctrl::run(&CTRL, &cfg)),
            ("failure", failure::run(&FAILURE, &cfg)),
            ("scale", scale::run(&SCALE, &cfg)),
        ];
        for (name, out) in outcomes {
            // A traced run counts a shadow operation that does not reproduce
            // the real one as failed, so this also pins the shadows.
            assert!(out.report.correct(), "{name} traced={traced}: {:?}", out.report);
            assert!(out.host_scale > 0.0);
            assert_eq!(out.spans.is_some(), traced && name != "scale");
            let defs = if traced {
                lowlat_perf::metrics::PER_LAYER
            } else {
                lowlat_perf::metrics::END_TO_END
            };
            out.report.json_line(defs).unwrap_or_else(|e| panic!("{name} traced={traced}: {e}"));
        }
    }
}

#[test]
fn the_traced_run_accounts_for_the_operation_it_decomposes() {
    let out = ctrl::run(&CTRL, &one_pass(99, true));
    let cover = out.report.values["core.schemes.ldr.shadow_cover_share"];
    assert!(cover > 0.5 && cover < 1.5, "shadow cover {cover}");
    let spans = out.spans.expect("a traced run keeps its spans");
    assert!(spans.spans().iter().any(|s| s.name == "traffic.multiplex/check_link"));
    assert!(spans
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .all(|s| s.name == "core.schemes.ldr/decision"));
}
