//! End-to-end tests of the `timeline_sweep` binary's input contract: a
//! timeline parameter outside its range exits 2 naming the flag, before any
//! trace is synthesized, and a good cell runs.

use std::process::Command;

/// One quick cell on Abilene under the cheapest controller, plus `extra`.
fn run(extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_timeline_sweep"))
        .args(["--quick", "--networks", "Abilene", "--minutes", "1", "--schemes", "static:SP"])
        .args(extra)
        .output()
        .unwrap()
}

#[test]
fn out_of_range_parameters_exit_2_naming_the_flag() {
    for (extra, flag) in [
        (&["--cv", "-0.1"][..], "--cv"),
        (&["--cv", "nan"], "--cv"),
        (&["--diurnal", "1.5"], "--diurnal"),
        (&["--period", "1", "--diurnal", "0.3"], "--period"),
        (&["--warmup", "1"], "--warmup"),
        (&["--minutes", "0"], "--minutes"),
    ] {
        let out = run(extra);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{extra:?} must exit 2: {stderr}");
        assert!(stderr.contains(flag), "{extra:?}: stderr must name {flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{extra:?}: no TSV for a rejected cell");
    }
}

#[test]
fn a_good_cell_exits_0_with_one_row() {
    let out = run(&["--diurnal", "0.3", "--period", "2"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 2, "header plus one row: {stdout}");
    assert!(stdout.lines().nth(1).is_some_and(|row| row.starts_with("Abilene\t")), "{stdout}");
}
