//! Exports the 116-network synthetic corpus as edge lists (`<name>.edges`,
//! one `A B capacity_mbps delay_ms` line per cable between PoP names — the
//! format `topo_ingest --edge-list` reads) plus a manifest with
//! per-network statistics, so the corpus can be inspected or consumed by
//! other tools.
//!
//! Usage: `cargo run --release --bin zoo_export -- [--out DIR]`
//! (default `zoo-export`)

use std::fs;
use std::path::Path;

use lowlat_core::default_workers;
use lowlat_netgraph::NodeId;
use lowlat_sim::output::{print_rows, Row};
use lowlat_sim::runner::{self, io_error, llpd_map, Args, CliError};
use lowlat_topology::ingest::to_edge_list;
use lowlat_topology::zoo::{synthetic_zoo, ZooClass};
use lowlat_topology::{IngestedGraph, Topology};

/// `topo` as an ingested graph: its PoP names, one edge per cable.
fn ingested(topo: &Topology) -> IngestedGraph {
    let names = (0..topo.pop_count()).map(|p| topo.pop_name(NodeId(p as u32)).to_string());
    let edges: Vec<(u32, u32, f64, f64)> = topo
        .cables()
        .iter()
        .map(|&l| {
            let link = topo.graph().link(l);
            (link.src.0, link.dst.0, link.capacity_mbps, link.delay_ms)
        })
        .collect();
    IngestedGraph::new(topo.name(), names.collect(), &edges)
}

fn main() {
    runner::run(export)
}

fn export() -> Result<(), CliError> {
    let mut args = Args::from_env();
    let out: String = args.value("--out")?.unwrap_or_else(|| "zoo-export".into());
    // No scale axis here: the scale flags pass, everything else is an error.
    args.finish()?;
    let dir = Path::new(&out);
    fs::create_dir_all(dir).map_err(io_error("--out", &out))?;
    let zoo = synthetic_zoo();
    eprintln!("computing LLPD for {} networks...", zoo.len());
    let llpds = llpd_map(&zoo, default_workers());

    let mut rows = Vec::new();
    for (topo, llpd) in zoo.iter().zip(&llpds) {
        let file = dir.join(format!("{}.edges", topo.name()));
        fs::write(&file, to_edge_list(&ingested(topo))).map_err(io_error("--out", &out))?;
        rows.push(
            Row::new()
                .text("name", topo.name())
                .text("class", format!("{:?}", ZooClass::of(topo)))
                .num("pops", topo.pop_count())
                .num("cables", topo.cables().len())
                .fixed("diameter_ms", topo.diameter_ms(), 2)
                .fixed("llpd", *llpd, 4),
        );
    }
    let mut manifest = Vec::new();
    print_rows(&rows, &mut manifest).expect("writing to memory");
    fs::write(dir.join("MANIFEST.tsv"), manifest).map_err(io_error("--out", &out))?;
    println!("wrote {} networks + MANIFEST.tsv to {}", zoo.len(), dir.display());
    Ok(())
}
