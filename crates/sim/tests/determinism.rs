//! The work-stealing engine's output must not depend on scheduling: the
//! same grid run with 1 worker and with many workers has to produce
//! byte-identical record sets (`runtime_ms` aside — it is wall time).
//! This guards the executor against ordering and seed drift; CI also runs
//! the whole suite under `RUST_TEST_THREADS=1` for the same reason.

use lowlat_sim::runner::{run_grid, RunGrid, RunRecord, Scale};

/// One representative per scheme mechanism: pure path lookup (SP), DAG
/// splitting (ECMP), greedy filling (B4), and the LP pipeline (MinMaxK6) —
/// enough to catch any scheduling sensitivity without running the full LP
/// set twice.
const SCHEMES: [&str; 4] = ["SP", "ECMP", "B4", "MinMaxK6"];

fn quick_networks() -> Vec<lowlat_topology::Topology> {
    let nets = Scale::Quick.networks();
    assert!(nets.len() >= 8, "quick corpus shrank; the test lost its bite");
    nets
}

fn reprs(records: &[RunRecord]) -> Vec<String> {
    records.iter().map(RunRecord::deterministic_repr).collect()
}

#[test]
fn run_grid_is_worker_count_invariant_at_quick_scale() {
    let nets = quick_networks();
    let grid = RunGrid::with_schemes(&[(0.7, 1.0)], Scale::Quick.tms_per_network(), &SCHEMES);
    let serial = run_grid(&nets, None, &grid, 1).concat();
    let parallel = run_grid(&nets, None, &grid, 8).concat();
    let (a, b) = (reprs(&serial), reprs(&parallel));
    assert!(!a.is_empty(), "quick grid produced no records");
    assert_eq!(a.len(), nets.len() * grid.schemes.len(), "every item must yield a record");
    assert_eq!(a, b, "1-worker vs 8-worker record sets diverge");
}

#[test]
fn replay_engine_is_worker_count_invariant() {
    // The replay path through the same executor: the donors' matrices are
    // generated and scaled on caches of their own.
    let nets: Vec<_> = quick_networks().into_iter().take(4).collect();
    let donors = nets.clone();
    let grid = RunGrid::with_schemes(&[(0.7, 1.0)], 1, &["SP", "LDR"]);
    let serial = run_grid(&nets, Some(&donors), &grid, 1).concat();
    let parallel = run_grid(&nets, Some(&donors), &grid, 8).concat();
    let (a, b) = (reprs(&serial), reprs(&parallel));
    assert_eq!(a.len(), nets.len() * grid.schemes.len(), "every item must yield a record");
    assert_eq!(a, b);
    // A donor that is a copy of its network scales on a cache of its own
    // and still yields the network's own records.
    assert_eq!(a, reprs(&run_grid(&nets, None, &grid, 8).concat()), "replay onto itself");
}

/// Scenarios of one grid share each network's LLPD and path cache; the
/// records must be the ones a fresh one-scenario grid gives, to the bit
/// (Figures 17 and 18 rely on this).
#[test]
fn sharing_a_cache_across_scenarios_changes_no_record() {
    let nets = quick_networks();
    let scenarios = [(0.6, 1.0), (0.8, 1.0)];
    let tms = Scale::Quick.tms_per_network();
    let shared = run_grid(&nets, None, &RunGrid::with_schemes(&scenarios, tms, &SCHEMES), 2);
    assert_eq!(shared.len(), scenarios.len(), "one record list per scenario");
    for (scenario, records) in scenarios.iter().zip(&shared) {
        let grid = RunGrid::with_schemes(&[*scenario], tms, &SCHEMES);
        let fresh = run_grid(&nets, None, &grid, 2).concat();
        assert_eq!(reprs(&fresh).len(), nets.len() * SCHEMES.len(), "{scenario:?}");
        assert_eq!(reprs(records), reprs(&fresh), "{scenario:?}: shared vs fresh caches");
    }
    assert_ne!(reprs(&shared[0]), reprs(&shared[1]), "the scenarios must differ");
}
