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

use lowlat_core::default_workers;
use lowlat_core::schemes::registry;
use lowlat_netgraph::RangeError;
use lowlat_sim::output::{print_rows, Row};
use lowlat_sim::runner::{self, build_schemes, run_grid, Args, CliError, RunGrid, RunRecord};
use lowlat_tmgen::TmGenConfig;

fn main() {
    runner::run(sweep)
}

fn sweep() -> Result<(), CliError> {
    let mut args = Args::from_env();
    // A load here may exceed the min-cut load (an overload sweep), so
    // the range is this binary's: any positive scale factor.
    let loads: Vec<f64> = args.list("--loads")?.unwrap_or_else(|| vec![0.7]);
    for &load in &loads {
        RangeError::check(load.is_finite() && load > 0.0, "load", load, "a finite value > 0")
            .map_err(CliError::at("--loads"))?;
    }
    let localities: Vec<f64> = args.list("--localities")?.unwrap_or_else(|| vec![1.0]);
    for &locality in &localities {
        let config = TmGenConfig { locality, ..Default::default() };
        config.validate().map_err(CliError::at("--localities"))?;
    }
    let specs: Vec<String> = args
        .list("--schemes")?
        .unwrap_or_else(|| registry::DEFAULT_SPECS.iter().map(|s| s.to_string()).collect());
    let schemes = build_schemes(&specs)?;
    let scale = args.finish()?;
    let nets = scale.networks();
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
    let grid = RunGrid { scenarios, tms_per_network: scale.tms_per_network(), schemes };
    // One engine call: LLPD and the per-network path caches are computed
    // once and reused across every scenario point.
    let per_scenario = run_grid(&nets, None, &grid, default_workers());
    let mut rows = Vec::new();
    for (&(load, locality), records) in grid.scenarios.iter().zip(&per_scenario) {
        eprintln!("  load {load} locality {locality}: {} records", records.len());
        rows.extend(records.iter().map(|r| record_row(r, (load, locality))));
    }
    print_rows(&rows, std::io::stdout().lock()).expect("stdout");
    Ok(())
}

/// One record's row, led by its scenario's (load, locality) so rows from
/// different sweep points stay distinguishable in one table.
fn record_row(r: &RunRecord, (load, locality): (f64, f64)) -> Row {
    Row::new()
        .num("load", load)
        .num("locality", locality)
        .text("network", &r.network)
        .text("class", format!("{:?}", r.class))
        .num("llpd", r.llpd)
        .num("tm", r.tm_index)
        .text("scheme", &r.scheme)
        .num("congested_fraction", r.congested_fraction)
        .num("latency_stretch", r.latency_stretch)
        .num("max_stretch", r.max_flow_stretch)
        .num("max_util", r.max_utilization)
        .num("fits", r.fits)
        .num("runtime_ms", r.runtime_ms)
}
