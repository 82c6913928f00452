//! End-to-end tests of the sweep and smoke binaries' input contract: a parameter
//! outside its range exits 2 naming the flag, before any work is done and
//! without a TSV, and a good cell runs.

use std::process::{Command, Output};

/// A binary and its cheapest cell, which every input below extends.
type Cell = (&'static str, &'static [&'static str]);

const TIMELINE: Cell = (
    env!("CARGO_BIN_EXE_timeline_sweep"),
    &["--quick", "--networks", "Abilene", "--minutes", "1", "--schemes", "static:SP"],
);
const FAILURE: Cell = (env!("CARGO_BIN_EXE_failure_sweep"), &["--quick", "--schemes", "SP"]);
const SCENARIO: Cell = (env!("CARGO_BIN_EXE_scenario_sweep"), &["--quick", "--schemes", "SP"]);
const INGEST: Cell = (env!("CARGO_BIN_EXE_topo_ingest"), &["--synthetic", "grid", "--tests", "1"]);
const PRICING: Cell = (env!("CARGO_BIN_EXE_pricing_smoke"), &["--pairs", "1"]);

fn run((bin, cell): Cell, extra: &[&str]) -> Output {
    Command::new(bin).args(cell).args(extra).output().unwrap()
}

#[test]
fn out_of_range_parameters_exit_2_naming_the_flag() {
    for (cell, extra, flag) in [
        (TIMELINE, &["--cv", "-0.1"][..], "--cv"),
        (TIMELINE, &["--cv", "nan"], "--cv"),
        (TIMELINE, &["--diurnal", "1.5"], "--diurnal"),
        (TIMELINE, &["--period", "1", "--diurnal", "0.3"], "--period"),
        (TIMELINE, &["--warmup", "1"], "--warmup"),
        (TIMELINE, &["--minutes", "0"], "--minutes"),
        (FAILURE, &["--loads", "0"], "--loads"),
        (FAILURE, &["--loads", "-1"], "--loads"),
        (FAILURE, &["--loads", "nan"], "--loads"),
        (FAILURE, &["--loads", "0.5,1.2"], "--loads"),
        (FAILURE, &["--load", "1.2"], "--load"),
        (FAILURE, &["--scenarios", "random", "--k", "0"], "--k"),
        (FAILURE, &["--degrade", "1"], "--degrade"),
        (FAILURE, &["--scenarios", "geo", "--corridor-km", "-5"], "--corridor-km"),
        (FAILURE, &["--scenarios", "geo", "--corridor-km", "nan"], "--corridor-km"),
        (SCENARIO, &["--loads", "0"], "--loads"),
        (SCENARIO, &["--loads", "-1"], "--loads"),
        (SCENARIO, &["--loads", "nan"], "--loads"),
        (SCENARIO, &["--localities", "-1"], "--localities"),
        (SCENARIO, &["--localities", "inf"], "--localities"),
        (INGEST, &["--nodes", "3"], "--nodes"),
        (PRICING, &["--nodes", "3"], "--nodes"),
    ] {
        let out = run(cell, extra);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{extra:?} must exit 2: {stderr}");
        assert!(stderr.contains(flag), "{extra:?}: stderr must name {flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{extra:?}: no TSV for a rejected cell");
    }
}

#[test]
fn a_good_cell_exits_0_with_one_row() {
    let out = run(TIMELINE, &["--diurnal", "0.3", "--period", "2"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 2, "header plus one row: {stdout}");
    assert!(stdout.lines().nth(1).is_some_and(|row| row.starts_with("Abilene\t")), "{stdout}");
}
