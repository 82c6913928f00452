//! Survey the synthetic Topology-Zoo corpus: LLPD by structural class —
//! the §2 analysis that motivates the whole paper.
//!
//! Run: `cargo run --release --example llpd_survey`

use std::collections::BTreeMap;

use lowlat::core::default_workers;
use lowlat::prelude::*;
use lowlat::sim::runner::llpd_map;

fn main() {
    let zoo = synthetic_zoo();
    println!("computing LLPD for {} networks...", zoo.len());
    let llpds = llpd_map(&zoo, default_workers());

    let mut by_class: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (topo, llpd) in zoo.iter().zip(&llpds) {
        by_class.entry(format!("{:?}", ZooClass::of(topo))).or_default().push(*llpd);
    }
    println!("\n{:<14} {:>6} {:>8} {:>8} {:>8}", "class", "nets", "min", "median", "max");
    for (class, mut vals) in by_class {
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        println!(
            "{:<14} {:>6} {:>8.3} {:>8.3} {:>8.3}",
            class,
            vals.len(),
            vals[0],
            vals[vals.len() / 2],
            vals[vals.len() - 1]
        );
    }

    // The paper's headline examples.
    println!("\nnamed networks:");
    for (topo, llpd) in zoo.iter().zip(&llpds) {
        if ZooClass::of(topo) == ZooClass::Named {
            println!("  {:<16} LLPD = {:.3}", topo.name(), llpd);
        }
    }
    println!("\nTrees score ~0 (no alternates), rings low (wrong-way-around is");
    println!("expensive), grids/meshes high, and the Google-like WAN highest —");
    println!("the Figure 1/19 landscape.");
}
