//! Exports the 116-network synthetic corpus as edge lists (`<name>.edges`,
//! one `A B capacity_mbps delay_ms` line per cable between PoP names — the
//! format `topo_ingest --edge-list` reads) plus a manifest with
//! per-network statistics, so the corpus can be inspected or consumed by
//! other tools.
//!
//! Usage: `cargo run --release --bin zoo_export -- [output-dir]`
//! (default `./zoo-export`)

use std::fs;
use std::path::PathBuf;

use lowlat_core::default_workers;
use lowlat_core::llpd::LlpdConfig;
use lowlat_netgraph::NodeId;
use lowlat_sim::runner::llpd_map;
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

fn main() -> std::io::Result<()> {
    let dir: PathBuf = std::env::args().nth(1).unwrap_or_else(|| "zoo-export".into()).into();
    fs::create_dir_all(&dir)?;
    let zoo = synthetic_zoo();
    eprintln!("computing LLPD for {} networks...", zoo.len());
    let llpds = llpd_map(&zoo, &LlpdConfig::default(), default_workers());

    let mut manifest = String::from("name\tclass\tpops\tcables\tdiameter_ms\tllpd\n");
    for (topo, llpd) in zoo.iter().zip(&llpds) {
        let file = dir.join(format!("{}.edges", topo.name()));
        fs::write(&file, to_edge_list(&ingested(topo)))?;
        manifest.push_str(&format!(
            "{}\t{:?}\t{}\t{}\t{:.2}\t{:.4}\n",
            topo.name(),
            ZooClass::of(topo),
            topo.pop_count(),
            topo.cables().len(),
            topo.diameter_ms(),
            llpd
        ));
    }
    fs::write(dir.join("MANIFEST.tsv"), &manifest)?;
    println!("wrote {} networks + MANIFEST.tsv to {}", zoo.len(), dir.display());
    Ok(())
}
