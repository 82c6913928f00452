//! End-to-end tests of the binaries' input contract: a parameter outside
//! its range exits 2 naming the flag, before any work is done and without a
//! TSV, and a good cell runs. Every run happens in a fresh temporary
//! directory, so a path flag writes nowhere in the repository.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A binary and its cheapest cell, which every input below extends.
type Cell = (&'static str, &'static [&'static str]);

const TIMELINE: Cell = (
    env!("CARGO_BIN_EXE_timeline_sweep"),
    &["--quick", "--networks", "Abilene", "--minutes", "1", "--schemes", "static:SP"],
);
const FAILURE: Cell = (env!("CARGO_BIN_EXE_failure_sweep"), &["--quick", "--schemes", "SP"]);
const SCENARIO: Cell = (env!("CARGO_BIN_EXE_scenario_sweep"), &["--quick", "--schemes", "SP"]);
const INGEST: Cell = (env!("CARGO_BIN_EXE_topo_ingest"), &["--synthetic", "grid", "--tests", "1"]);
const PRICING: Cell = (env!("CARGO_BIN_EXE_pricing_smoke"), &["--pairs", "1", "--nodes", "300"]);
const FIGURES: Cell = (env!("CARGO_BIN_EXE_figures"), &["--quick", "--fig", "fig01_apa_cdf"]);
const ZOO: Cell = (env!("CARGO_BIN_EXE_zoo_export"), &[]);

/// Every binary under `src/bin`, by source file name, with its cell.
const BINARIES: [(&str, Cell); 7] = [
    ("timeline_sweep", TIMELINE),
    ("failure_sweep", FAILURE),
    ("scenario_sweep", SCENARIO),
    ("topo_ingest", INGEST),
    ("pricing_smoke", PRICING),
    ("figures", FIGURES),
    ("zoo_export", ZOO),
];

/// A fresh, empty directory under the system's temporary one.
fn scratch_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("sweep_cli_{}_{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run((bin, cell): Cell, extra: &[&str]) -> Output {
    let dir = scratch_dir();
    let out = Command::new(bin).args(cell).args(extra).current_dir(&dir).output().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    out
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
        (TIMELINE, &["--minutes", "18446744073709551615"], "--minutes"),
        (TIMELINE, &["--warmup", "18446744073709551615"], "--minutes"),
        (FAILURE, &["--loads", "0"], "--loads"),
        (FAILURE, &["--loads", "-1"], "--loads"),
        (FAILURE, &["--loads", "nan"], "--loads"),
        (FAILURE, &["--loads", "0.5,1.2"], "--loads"),
        (FAILURE, &["--load", "0.7"], "--load: unknown argument"),
        (FAILURE, &["--scenarios", "random", "--k", "0"], "--k"),
        (FAILURE, &["--degrade", "1"], "--degrade"),
        (FAILURE, &["--scenarios", "geo", "--corridor-km", "-5"], "--corridor-km"),
        (FAILURE, &["--scenarios", "geo", "--corridor-km", "nan"], "--corridor-km"),
        (FAILURE, &["--scenarios", "random", "--count", "0"], "--count"),
        (FAILURE, &["--count", "0"], "--count"),
        (FAILURE, &["--scenarios", "geo", "--corridor-km", "0"], "--scenarios"),
        (SCENARIO, &["--loads", "0"], "--loads"),
        (SCENARIO, &["--loads", "-1"], "--loads"),
        (SCENARIO, &["--loads", "nan"], "--loads"),
        (SCENARIO, &["--localities", "-1"], "--localities"),
        (SCENARIO, &["--localities", "inf"], "--localities"),
        (INGEST, &["--nodes", "3"], "--nodes"),
        (INGEST, &["--branching", "1"], "--branching"),
        (INGEST, &["--k", "0"], "--k"),
        (INGEST, &["--landmarks", "0"], "--landmarks"),
        (INGEST, &["--leaf", "0"], "--leaf"),
        (PRICING, &["--nodes", "3"], "--nodes"),
        (PRICING, &["--pairs", "0"], "--pairs"),
        (PRICING, &["--overload", "0"], "--overload"),
        (PRICING, &["--landmarks", "0"], "--landmarks"),
        (PRICING, &["--leaf", "0"], "--leaf"),
        (SCENARIO, &["--schemes", " , "], "--schemes"),
        (ZOO, &["--help"], "--help"),
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

/// The flags a binary's source reads through `Args::value` / `Args::list`
/// (`.value("--k")`, `.list::<String>("--synthetic")`, …).
fn value_flags(source: &str) -> Vec<String> {
    let mut flags = Vec::new();
    for method in [".value", ".list"] {
        for (at, _) in source.match_indices(method) {
            let mut rest = &source[at + method.len()..];
            if let Some(generic) = rest.strip_prefix("::<") {
                rest = &generic[generic.find('>').unwrap() + 1..];
            }
            if let Some(flag) = rest.strip_prefix("(\"--") {
                flags.push(format!("--{}", &flag[..flag.find('"').unwrap()]));
            }
        }
    }
    flags.sort();
    flags.dedup();
    flags
}

/// What every value flag is tried with.
const HOSTILE: [&str; 6] = ["0", "-1", "nan", "inf", "", "3"];

/// Every value flag of every binary, with every hostile value, on the
/// binary's cheapest cell: a run exits 0 or 2 and never panics (101), and
/// an exit 2 names the flag and prints nothing on stdout. The flags come
/// from the binaries' sources, so a flag added later is covered here
/// without a new row; the rows above pin which values must be rejected.
#[test]
fn every_value_flag_survives_every_hostile_value() {
    let started = Instant::now();
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let runner = std::fs::read_to_string(src.join("runner.rs")).unwrap();
    let sinks = &runner[runner.find("impl TelemetrySinks").unwrap()..];
    let sink_flags = value_flags(&sinks[..sinks.find("\n}\n").unwrap()]);
    assert_eq!(sink_flags, ["--metrics-out", "--trace-out"]);
    let mut jobs = Vec::new();
    for (name, cell) in BINARIES {
        let source = std::fs::read_to_string(src.join("bin").join(format!("{name}.rs"))).unwrap();
        let mut flags = value_flags(&source);
        if source.contains("TelemetrySinks::from_args") {
            flags.extend(sink_flags.iter().cloned());
        }
        assert!(!flags.is_empty(), "{name} reads no value flag");
        for flag in flags {
            jobs.extend(HOSTILE.map(|value| (cell, flag.clone(), value)));
        }
    }
    let next = AtomicUsize::new(0);
    let failures = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                while let Some((cell, flag, value)) = jobs.get(next.fetch_add(1, Ordering::Relaxed))
                {
                    let out = run(*cell, &[flag, value]);
                    let stderr = String::from_utf8_lossy(&out.stderr);
                    let ok = match out.status.code() {
                        Some(0) => true,
                        Some(2) => stderr.contains(flag.as_str()) && out.stdout.is_empty(),
                        _ => false,
                    };
                    if !ok {
                        let run = format!("{} {flag} '{value}'", cell.0);
                        let status = out.status;
                        failures.lock().unwrap().push(format!("{run}: {status}: {stderr}"));
                    }
                }
            });
        }
    });
    let failures = failures.into_inner().unwrap();
    assert!(failures.is_empty(), "{} bad runs:\n{}", failures.len(), failures.join("\n"));
    eprintln!("{} hostile runs in {:.1} s", jobs.len(), started.elapsed().as_secs_f64());
}
