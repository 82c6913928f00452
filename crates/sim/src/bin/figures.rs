//! Regenerates the paper's data figures: TSV series to stdout, an ASCII
//! sketch of each to stderr.
//!
//! Usage: `cargo run --release --bin figures -- [--fig fig01_apa_cdf,fig20_growth]
//!     [--list] [--quick|--std|--full]`
//!
//! `--fig` picks figures by name, in the order given (absent: all thirteen
//! in paper order); `--list` prints the names, one per line, and runs
//! nothing.

use lowlat_sim::figures::{try_select, ALL};
use lowlat_sim::runner::{self, Args, CliError};

fn main() {
    runner::run(figures)
}

fn figures() -> Result<(), CliError> {
    let mut args = Args::from_env();
    let requested: Option<Vec<String>> = args.list("--fig")?;
    let list = args.switch("--list");
    let scale = args.finish()?;
    if list {
        for (name, _) in ALL {
            println!("{name}");
        }
        return Ok(());
    }
    let selected = match requested {
        Some(names) => try_select(&names).map_err(CliError::at("--fig"))?,
        None => ALL.to_vec(),
    };
    for (_, run) in selected {
        run(scale);
    }
    Ok(())
}
