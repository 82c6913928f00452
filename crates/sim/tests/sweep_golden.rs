//! The deterministic sweep cells and their committed outputs.
//!
//! Every reproduced figure and every §5 controller result comes out of the
//! sweep binaries. Each cell below runs one of them, drops the wall-clock
//! columns by header name ([`WALL_CLOCK`]) and compares what is left byte
//! for byte with `tests/golden/<cell>.tsv`. The figures are every name
//! `figures --list` prints but `fig15_runtime` (its values are timings), so
//! a new figure fails here until its golden is recorded.
//!
//! Every run writes what it printed, columns cut, to
//! `$CARGO_TARGET_TMPDIR/sweep_golden/<cell>.tsv`. A change that moves a
//! cell on purpose re-records it by copying that file over the golden (the
//! failure message spells out the command), and the diff names each number
//! that moved.
//!
//! The goldens see bits: every float a sweep prints is its shortest
//! round-trip form (`sim::output`), so a one-ulp change to a printed value
//! moves its cell, and a moved line is reported column by column. They pin
//! the platform libm's bits, as `timeline_golden.rs` does; that test also
//! holds the eventful, cascading controller run no sweep cell covers.
//!
//! The same runs back the named assertions after the golden test: what the
//! numbers must say about warm starts, bounded churn, failure recovery,
//! brown-outs and pricing, whatever values they are recorded at, and that
//! the telemetry sinks leave the `timeline` cell's TSV as it is.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

const TIMELINE: &str = env!("CARGO_BIN_EXE_timeline_sweep");
const FAILURE: &str = env!("CARGO_BIN_EXE_failure_sweep");
const SCENARIO: &str = env!("CARGO_BIN_EXE_scenario_sweep");
const PRICING: &str = env!("CARGO_BIN_EXE_pricing_smoke");
const FIGURES: &str = env!("CARGO_BIN_EXE_figures");

/// The sweep cells besides the figures: name, binary, command line.
const SWEEPS: &[(&str, &str, &str)] = &[
    ("timeline", TIMELINE, "--quick --minutes 2 --schemes LDR,static:SP"),
    (
        "bounded",
        TIMELINE,
        "--quick --networks Abilene --minutes 60 --diurnal 0.3 --period 30 \
         --schemes LDR,bounded:LDR",
    ),
    ("timeline_seed7", TIMELINE, "--quick --minutes 5 --seed 7 --schemes LDR,bounded:LDR"),
    ("failures", FAILURE, "--quick --scenarios single --schemes LDR"),
    (
        "brownouts",
        FAILURE,
        "--quick --scenarios single,brownout --schemes LDR --loads 0.5,0.7 --degrade 0.5",
    ),
    ("frontier", FAILURE, "--quick --scenarios single --schemes LDR --frontier"),
    (
        "scenarios",
        SCENARIO,
        "--quick --loads 0.6,0.8 --localities 1.0 --schemes SP,ECMP,B4,MinMaxK6,MPLS",
    ),
    ("pricing", PRICING, "--nodes 10000 --pairs 48"),
];

/// The figure whose values are wall-clock timings.
const TIMED_FIGURE: &str = "fig15_runtime";

/// Columns holding wall-clock times, cut before comparing.
const WALL_CLOCK: [&str; 4] = ["decision_ms_med", "repair_ms", "runtime_ms", "place_ms"];

struct Cell {
    name: String,
    bin: &'static str,
    args: Vec<String>,
    run: OnceLock<Run>,
}

/// What a cell's binary printed: all of it, and without the wall-clock
/// columns.
struct Run {
    stdout: String,
    cut: String,
}

fn cells() -> &'static [Cell] {
    static CELLS: OnceLock<Vec<Cell>> = OnceLock::new();
    CELLS.get_or_init(|| {
        let cell = |name: &str, bin, line: &str| Cell {
            name: name.to_string(),
            bin,
            args: line.split_whitespace().map(String::from).collect(),
            run: OnceLock::new(),
        };
        let list = execute(FIGURES, &["--list".to_string()]);
        SWEEPS
            .iter()
            .map(|&(name, bin, args)| cell(name, bin, args))
            .chain(
                list.lines()
                    .filter(|&fig| fig != TIMED_FIGURE)
                    .map(|fig| cell(fig, FIGURES, &format!("--fig {fig} --quick"))),
            )
            .collect()
    })
}

/// Runs `bin` to completion, failing the test unless it exits 0.
fn execute(bin: &str, args: &[String]) -> String {
    let out = Command::new(bin).args(args).output().unwrap();
    assert!(
        out.status.success(),
        "{bin} {} exited {}: {}",
        args.join(" "),
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

fn produced_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join("sweep_golden").join(format!("{name}.tsv"))
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

/// The named cell's run, made once per test binary whichever test asks
/// first.
fn run(name: &str) -> &'static Run {
    let cell = cells().iter().find(|c| c.name == name).unwrap_or_else(|| panic!("no cell {name}"));
    cell.run.get_or_init(|| {
        let stdout = execute(cell.bin, &cell.args);
        let cut = without_wall_clock(&stdout);
        let path = produced_path(name);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &cut).unwrap();
        Run { stdout, cut }
    })
}

/// `text` without the columns the first line names in [`WALL_CLOCK`].
fn without_wall_clock(text: &str) -> String {
    let header = text.lines().next().unwrap_or_default();
    let timed: Vec<usize> = header
        .split('\t')
        .enumerate()
        .filter(|(_, column)| WALL_CLOCK.contains(column))
        .map(|(i, _)| i)
        .collect();
    text.lines()
        .map(|line| {
            let kept: Vec<&str> = line
                .split('\t')
                .enumerate()
                .filter(|(i, _)| !timed.contains(i))
                .map(|(_, field)| field)
                .collect();
            kept.join("\t") + "\n"
        })
        .collect()
}

/// The first line (1-based) where `golden` and `run` differ, with both
/// versions of it.
fn first_difference<'a>(golden: &'a str, run: &'a str) -> (usize, &'a str, &'a str) {
    let (mut g, mut r) = (golden.split_inclusive('\n'), run.split_inclusive('\n'));
    let mut line = 1;
    loop {
        match (g.next(), r.next()) {
            (Some(a), Some(b)) if a == b => line += 1,
            (a, b) => return (line, a.unwrap_or("<no line>"), b.unwrap_or("<no line>")),
        }
    }
}

/// Each column where the lines `want` and `got` differ, as
/// `name: golden → now` under `header`'s names; none when the three split
/// into different numbers of columns (the two lines say it then).
fn moved_cells(header: &str, want: &str, got: &str) -> Vec<String> {
    let [names, want, got] =
        [header, want, got].map(|line| line.trim_end_matches('\n').split('\t').collect::<Vec<_>>());
    if names.len() != want.len() || want.len() != got.len() {
        return Vec::new();
    }
    names
        .iter()
        .zip(want.iter().zip(&got))
        .filter(|(_, (w, g))| w != g)
        .map(|(name, (w, g))| format!("{name}: {w} → {g}"))
        .collect()
}

#[test]
fn every_cell_prints_its_golden() {
    let mut problems = Vec::new();
    for cell in cells() {
        let produced = run(&cell.name);
        let golden = golden_dir().join(format!("{}.tsv", cell.name));
        let copy = format!("cp {} {}", produced_path(&cell.name).display(), golden.display());
        match std::fs::read_to_string(&golden) {
            Ok(want) if want == produced.cut => {}
            Ok(want) => {
                let header = want.lines().find(|line| !line.starts_with('#')).unwrap_or_default();
                let (line, want, got) = first_difference(&want, &produced.cut);
                let cells: String = moved_cells(header, want, got)
                    .iter()
                    .map(|cell| format!("\n    {cell}"))
                    .collect();
                problems.push(format!(
                    "{} moved at line {line}:\n  golden {want:?}\n  now    {got:?}{cells}\n  \
                     re-record: {copy}",
                    golden.display()
                ));
            }
            Err(_) => problems.push(format!(
                "{} has no golden ({} {}); record it: {copy}",
                cell.name,
                cell.bin,
                cell.args.join(" ")
            )),
        }
    }
    for entry in std::fs::read_dir(golden_dir()).unwrap() {
        let path = entry.unwrap().path();
        let stem = path.file_stem().unwrap().to_string_lossy();
        if !cells().iter().any(|c| c.name == stem) {
            problems.push(format!("{}: no cell prints it; delete it", path.display()));
        }
    }
    assert!(problems.is_empty(), "{} golden problem(s):\n{}", problems.len(), problems.join("\n"));
}

/// A TSV as rows keyed by its header.
fn rows(text: &str) -> Vec<HashMap<&str, &str>> {
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().expect("a header line").split('\t').collect();
    lines.map(|line| header.iter().copied().zip(line.split('\t')).collect()).collect()
}

fn num(row: &HashMap<&str, &str>, column: &str) -> f64 {
    let value = row.get(column).unwrap_or_else(|| panic!("no column {column} in {row:?}"));
    value.parse().unwrap_or_else(|_| panic!("{column} = {value:?} is not a number"))
}

#[test]
fn ldr_rows_warm_start() {
    let ldr: Vec<_> =
        rows(&run("timeline").cut).into_iter().filter(|r| r["controller"] == "LDR").collect();
    assert!(!ldr.is_empty());
    for row in &ldr {
        assert!(num(row, "lp_warm_hits") > 0.0, "an LDR cell never restarted warm: {row:?}");
    }
}

#[test]
fn bounded_churn_is_a_quarter_of_full_replacement_at_no_more_than_twice_the_queue() {
    let rows = rows(&run("bounded").cut);
    let by = |controller: &str| {
        rows.iter()
            .find(|r| r["controller"] == controller)
            .unwrap_or_else(|| panic!("{controller}"))
    };
    let (full, bounded) = (by("LDR"), by("bounded:LDR"));
    let full_churn = num(full, "paths_changed");
    assert!(full_churn > 0.0, "the full controller moved no paths");
    let churn = num(bounded, "paths_changed");
    assert!(churn <= 0.25 * full_churn, "bounded churn {churn} > 25% of full {full_churn}");
    let (queue, full_queue) = (num(bounded, "worst_queue_ms"), num(full, "worst_queue_ms"));
    assert!(queue <= 2.0 * full_queue, "bounded queue {queue} > 2x full {full_queue}");
    let moved = num(bounded, "moved_volume_frac");
    assert!((0.0..=1.0).contains(&moved), "moved_volume_frac {moved}");
}

#[test]
fn adaptive_decisions_are_timed() {
    for name in ["timeline", "bounded", "timeline_seed7"] {
        for row in rows(&run(name).stdout) {
            if !row["controller"].starts_with("static:") {
                assert!(num(&row, "decision_ms_med") > 0.0, "{name}: untimed decisions: {row:?}");
            }
        }
    }
}

#[test]
fn telemetry_does_not_change_the_tsv() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("sweep_golden_telemetry");
    std::fs::create_dir_all(&dir).unwrap();
    let sinks =
        [("--metrics-out", dir.join("metrics.json")), ("--trace-out", dir.join("trace.json"))];
    let cell = cells().iter().find(|c| c.name == "timeline").unwrap();
    let mut args = cell.args.clone();
    for (flag, path) in &sinks {
        let _ = std::fs::remove_file(path);
        args.extend([flag.to_string(), path.display().to_string()]);
    }
    let traced = without_wall_clock(&execute(cell.bin, &args));
    let plain = &run("timeline").cut;
    assert!(traced == *plain, "telemetry moved the TSV: {:?}", first_difference(plain, &traced));
    for (flag, path) in &sinks {
        let written = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        assert!(written > 0, "{flag} wrote nothing to {}", path.display());
    }
}

#[test]
fn gts_like_single_cable_failures_route_everything_and_recover_warm() {
    let rows = rows(&run("failures").cut);
    let gts: Vec<_> = rows.iter().filter(|r| r["network"] == "GtsCe-like").collect();
    assert!(!gts.is_empty());
    for row in &gts {
        assert_eq!(num(row, "unroutable_frac"), 0.0, "unroutable demand: {row:?}");
    }
    let total = |column| gts.iter().map(|r| num(r, column)).sum::<f64>();
    assert!(total("repaired_pairs") > 0.0, "repair never fired");
    assert!(total("lp_warm_hits") > 0.0, "recovery never restarted warm");
}

#[test]
fn brownouts_regrow_no_pair_and_overload_no_link() {
    let rows = rows(&run("brownouts").cut);
    let dimmed: Vec<_> = rows
        .iter()
        .filter(|r| r["network"] == "GtsCe-like" && r["scenario"].starts_with("brownout:"))
        .collect();
    assert!(!dimmed.is_empty());
    for row in &dimmed {
        assert_eq!(num(row, "repaired_pairs"), 0.0, "pairs regrown under a brown-out: {row:?}");
        assert_eq!(num(row, "max_overload"), 0.0, "overload vs effective capacity: {row:?}");
    }
    assert!(dimmed.iter().map(|r| num(r, "lp_warm_hits")).sum::<f64>() > 0.0);
}

#[test]
fn pricing_asks_at_most_twice_per_pair_and_scheme_placed() {
    // `cross` is cumulative over the run: 48 queries scale the demand, then
    // each scheme seeds its 48 pairs once with their complete rankings.
    let rows = rows(&run("pricing").cut);
    assert!(!rows.is_empty());
    for (placed, row) in (1..).zip(&rows) {
        let cross = num(row, "cross");
        assert!(
            cross <= (2 * 48 * placed) as f64,
            "{cross} cross-leaf asks after {placed}: {row:?}"
        );
    }
}

#[test]
fn figures_prints_the_figures_asked_for_in_that_order() {
    let args = ["--quick", "--fig", "fig09_prediction,fig01_apa_cdf"].map(String::from);
    let both = execute(FIGURES, &args);
    let want = run("fig09_prediction").cut.clone() + &run("fig01_apa_cdf").cut;
    assert!(both == want, "not fig09 then fig01: {:?}", first_difference(&want, &both));
}
