//! Open scenario sweep: the figure grids generalized to any
//! (load × locality × scheme) cross product over the corpus, one TSV row
//! per (scenario, network, matrix, scheme).
//!
//! Where the `figures` binary reproduces the paper's fixed operating points,
//! this is the exploration surface: survivability-style load escalation,
//! locality sensitivity, scheme shoot-outs at arbitrary headrooms — all
//! without touching code, on the full work-stealing engine.
//!
//! Usage:
//! `cargo run --release --bin scenario_sweep -- [--quick|--std|--full]
//!     [--loads 0.6,0.7,0.9] [--localities 0.0,1.0,2.0]
//!     [--schemes SP,ECMP,B4-h10,MinMaxK10,LatOpt-h23,LDR]`

use lowlat_core::schemes::registry;
use lowlat_sim::output::{print_records_header, print_records_rows};
use lowlat_sim::runner::{run_scenarios, Args};

fn main() {
    let mut args = Args::from_env();
    let loads: Vec<f64> = args.list("--loads").unwrap_or_else(|| vec![0.7]);
    if let Some(load) = loads.iter().find(|&&load| !(load.is_finite() && load > 0.0)) {
        eprintln!("error: --loads expects finite positive loads, got {load}");
        std::process::exit(2);
    }
    let localities: Vec<f64> = args.list("--localities").unwrap_or_else(|| vec![1.0]);
    if let Some(locality) = localities.iter().find(|&&l| !(l.is_finite() && l >= 0.0)) {
        eprintln!("error: --localities expects finite non-negative localities, got {locality}");
        std::process::exit(2);
    }
    let schemes = match args.value::<String>("--schemes") {
        Some(csv) => registry::parse_csv(&csv).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        }),
        None => registry::schemes(registry::DEFAULT_SPECS),
    };
    let scale = args.finish();
    let nets = scale.select_networks(lowlat_topology::zoo::synthetic_zoo());
    eprintln!(
        "scenario space: {} loads x {} localities over {} networks, {} matrices, {} schemes ({})",
        loads.len(),
        localities.len(),
        nets.len(),
        scale.tms_per_network(),
        schemes.len(),
        schemes.iter().map(|s| s.name()).collect::<Vec<_>>().join(",")
    );
    let scenarios: Vec<(f64, f64)> = loads
        .iter()
        .flat_map(|&load| localities.iter().map(move |&locality| (load, locality)))
        .collect();
    // One engine call: LLPD and the per-network path caches are computed
    // once and reused across every scenario point.
    let per_scenario = run_scenarios(&nets, &scenarios, scale.tms_per_network(), &schemes);
    let stdout = std::io::stdout();
    print_records_header(stdout.lock()).expect("stdout");
    for (&(load, locality), records) in scenarios.iter().zip(&per_scenario) {
        eprintln!("  load {load} locality {locality}: {} records", records.len());
        print_records_rows(records, (load, locality), stdout.lock()).expect("stdout");
    }
}
