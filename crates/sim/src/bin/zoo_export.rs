//! Exports the 116-network synthetic corpus as `.topo` text files (the
//! format in `lowlat_topology::format`) plus a manifest with per-network
//! statistics, so the corpus can be inspected or consumed by other tools.
//!
//! Usage: `cargo run --release --bin zoo_export -- [output-dir]`
//! (default `./zoo-export`)

use std::fs;
use std::path::PathBuf;

use lowlat_core::default_workers;
use lowlat_core::llpd::LlpdConfig;
use lowlat_sim::runner::llpd_map;
use lowlat_topology::to_text;
use lowlat_topology::zoo::{synthetic_zoo, ZooClass};

fn main() -> std::io::Result<()> {
    let dir: PathBuf = std::env::args().nth(1).unwrap_or_else(|| "zoo-export".into()).into();
    fs::create_dir_all(&dir)?;
    let zoo = synthetic_zoo();
    eprintln!("computing LLPD for {} networks...", zoo.len());
    let llpds = llpd_map(&zoo, &LlpdConfig::default(), default_workers());

    let mut manifest = String::from("name\tclass\tpops\tcables\tdiameter_ms\tllpd\n");
    for (topo, llpd) in zoo.iter().zip(&llpds) {
        let file = dir.join(format!("{}.topo", topo.name()));
        fs::write(&file, to_text(topo))?;
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
