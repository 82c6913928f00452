//! Free-form parameter sweep over the corpus: pick load, locality and
//! schemes from the command line and get one TSV row per (network, matrix,
//! scheme) — the raw-records interface behind all the aggregated figures.
//! For a multi-point (loads × localities) sweep see `scenario_sweep`.
//!
//! Usage:
//! `cargo run --release --bin grid_sweep -- [--quick|--std|--full]
//!     [--load 0.7] [--locality 1.0] [--schemes SP,ECMP,B4-h10,MinMaxK10,...]`

use lowlat_core::schemes::registry;
use lowlat_sim::output::print_records_tsv;
use lowlat_sim::runner::{run_grid, Args, RunGrid};

fn main() {
    let mut args = Args::from_env();
    let load = args.value("--load").unwrap_or(0.7f64);
    let locality = args.value("--locality").unwrap_or(1.0f64);
    let schemes = match args.value::<String>("--schemes") {
        Some(csv) => registry::parse_csv(&csv).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        }),
        None => registry::schemes(registry::DEFAULT_SPECS),
    };
    let scale = args.finish();
    let nets = scale.select_networks(lowlat_topology::zoo::synthetic_zoo());
    let grid = RunGrid { load, locality, tms_per_network: scale.tms_per_network(), schemes };
    eprintln!(
        "sweeping {} networks x {} matrices x {} schemes at load {load}, locality {locality}...",
        nets.len(),
        grid.tms_per_network,
        grid.schemes.len()
    );
    let records = run_grid(&nets, &grid);
    print_records_tsv(&records, None, std::io::stdout().lock()).expect("stdout");
}
