//! The §4 "headroom dial": sweep reserved headroom from 0% (live on the
//! ragged edge) to the MinMax extreme and watch latency pay for safety.
//!
//! Run: `cargo run --release --example headroom_dial`

use lowlat::prelude::*;

fn main() {
    let topo = named::gts_like();
    let cache = PathCache::new(topo.graph());
    let tm = GravityTmGen::new(TmGenConfig::default())
        .generate(&topo, 0)
        // Figure 8 uses the lighter operating point: min-cut load 0.6.
        .scaled_to_load(&topo, 0.6);

    println!("network: {}, min-cut load 0.6 (paper Figure 8 setup)\n", topo.name());
    println!("{:>9} {:>10} {:>12} {:>10}", "headroom", "stretch", "max-stretch", "max-util");
    for h in [0.0, 0.05, 0.11, 0.17, 0.23, 0.30, 0.40] {
        let placement =
            LatencyOptimal::with_headroom(h).place(&cache, &tm).expect("latency-optimal failed");
        let ev = PlacementEval::evaluate(&topo, &tm, &placement);
        println!(
            "{:>8.0}% {:>10.4} {:>12.3} {:>10.3}",
            h * 100.0,
            ev.latency_stretch(),
            ev.max_flow_stretch(),
            ev.max_utilization()
        );
    }

    // The other end of the dial: MinMax reserves as much as possible.
    let mm = MinMaxRouting::unrestricted().place(&cache, &tm).expect("minmax failed");
    let ev = PlacementEval::evaluate(&topo, &tm, &mm);
    println!(
        "{:>9} {:>10.4} {:>12.3} {:>10.3}",
        "MinMax",
        ev.latency_stretch(),
        ev.max_flow_stretch(),
        ev.max_utilization()
    );
    println!("\nModerate headroom is nearly free; only pushing toward the MinMax");
    println!("extreme really inflates delay — the paper's §4 conclusion.");
}
