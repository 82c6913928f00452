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
use lowlat_sim::runner::Args;

fn main() {
    let mut args = Args::from_env();
    let requested: Option<Vec<String>> = args.list("--fig");
    let list = args.switch("--list");
    let scale = args.finish();
    if list {
        for (name, _) in ALL {
            println!("{name}");
        }
        return;
    }
    let selected = match requested {
        Some(names) => try_select(&names).unwrap_or_else(|message| {
            eprintln!("error: {message}");
            std::process::exit(2);
        }),
        None => ALL.to_vec(),
    };
    for (_, run) in selected {
        run(scale);
    }
}
