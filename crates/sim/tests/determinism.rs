//! The work-stealing engine's output must not depend on scheduling: the
//! same grid run with 1 worker and with many workers has to produce
//! byte-identical record sets (`runtime_ms` aside — it is wall time).
//! This guards the executor against ordering and seed drift; CI also runs
//! the whole suite under `RUST_TEST_THREADS=1` for the same reason.

use lowlat_sim::runner::{run_grid, run_grid_replay, RunGrid, Scale};

fn quick_networks() -> Vec<lowlat_topology::Topology> {
    Scale::Quick.select_networks(lowlat_topology::zoo::synthetic_zoo())
}

#[test]
fn run_grid_is_worker_count_invariant_at_quick_scale() {
    let nets = quick_networks();
    assert!(nets.len() >= 8, "quick corpus shrank; the test lost its bite");
    // One representative per scheme mechanism: pure path lookup (SP),
    // DAG splitting (ECMP), greedy filling (B4), and the LP pipeline
    // (MinMaxK6) — enough to catch any scheduling sensitivity without
    // running the full LP set twice.
    let grid = RunGrid::with_schemes(
        0.7,
        1.0,
        Scale::Quick.tms_per_network(),
        &["SP", "ECMP", "B4", "MinMaxK6"],
    );
    let serial = run_grid(&nets, &grid, 1);
    let parallel = run_grid(&nets, &grid, 8);
    let a: Vec<String> = serial.iter().map(|r| r.deterministic_repr()).collect();
    let b: Vec<String> = parallel.iter().map(|r| r.deterministic_repr()).collect();
    assert!(!a.is_empty(), "quick grid produced no records");
    assert_eq!(a.len(), nets.len() * grid.schemes.len(), "every item must yield a record");
    assert_eq!(a, b, "1-worker vs 8-worker record sets diverge");
}

#[test]
fn replay_engine_is_worker_count_invariant() {
    // The replay path through the same executor: cloned donors have
    // distinct addresses, forcing the separate scaling caches.
    let nets: Vec<_> = quick_networks().into_iter().take(4).collect();
    let donors = nets.clone();
    let grid = RunGrid::with_schemes(0.7, 1.0, 1, &["SP", "LDR"]);
    let serial = run_grid_replay(&nets, &donors, &grid, 1);
    let parallel = run_grid_replay(&nets, &donors, &grid, 8);
    let a: Vec<String> = serial.iter().map(|r| r.deterministic_repr()).collect();
    let b: Vec<String> = parallel.iter().map(|r| r.deterministic_repr()).collect();
    assert!(!a.is_empty());
    assert_eq!(a, b);
}
