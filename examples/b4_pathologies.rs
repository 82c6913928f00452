//! Reproduce the paper's §3 B4 pathologies on the GTS-like grid: greedy
//! progressive filling congests a network that optimal routing fits, and
//! headroom (§6) partially rescues it.
//!
//! Run: `cargo run --release --example b4_pathologies`

use lowlat::prelude::*;

fn main() {
    let topo = named::gts_like();
    let cache = PathCache::new(topo.graph());
    let gen = GravityTmGen::new(TmGenConfig::default());

    println!("B4 vs optimum on {} across 5 traffic matrices, load 0.7:\n", topo.name());
    println!(
        "{:>3} {:>12} {:>12} {:>12} {:>12}",
        "tm", "B4 congested", "B4 stretch", "opt congested", "opt stretch"
    );
    let mut b4_congested_any = false;
    for i in 0..5 {
        let tm = gen.generate(&topo, i).scaled_to_load(&topo, 0.7);
        let b4 = B4Routing::default().place(&cache, &tm).unwrap();
        let opt = LatencyOptimal::default().place(&cache, &tm).unwrap();
        let ev_b4 = PlacementEval::evaluate(&topo, &tm, &b4);
        let ev_opt = PlacementEval::evaluate(&topo, &tm, &opt);
        b4_congested_any |= ev_b4.congested_pair_fraction() > 0.0;
        println!(
            "{:>3} {:>11.1}% {:>12.4} {:>11.1}% {:>12.4}",
            i,
            ev_b4.congested_pair_fraction() * 100.0,
            ev_b4.latency_stretch(),
            ev_opt.congested_pair_fraction() * 100.0,
            ev_opt.latency_stretch()
        );
    }
    println!("\nWith 10% reserved headroom (§6), B4's stragglers can still be placed:");
    println!("{:>3} {:>12} {:>12}", "tm", "congested", "stretch");
    for i in 0..5 {
        let tm = gen.generate(&topo, i).scaled_to_load(&topo, 0.7);
        let b4h = B4Routing::new(B4Config { headroom: 0.1, ..Default::default() })
            .place(&cache, &tm)
            .unwrap();
        let ev = PlacementEval::evaluate(&topo, &tm, &b4h);
        println!(
            "{:>3} {:>11.1}% {:>12.4}",
            i,
            ev.congested_pair_fraction() * 100.0,
            ev.latency_stretch()
        );
    }
    if b4_congested_any {
        println!("\nGreedy filling hit the Figure-5 local minima above; the optimal");
        println!("placement fit the identical traffic without congestion.");
    } else {
        println!("\nNo congestion on these matrices; raise the load to see Figure 5.");
    }
}
