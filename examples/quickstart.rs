//! Quickstart: measure a topology's low-latency potential (LLPD), then
//! route a realistic traffic matrix with every scheme the paper compares
//! and print the scoreboard.
//!
//! Run: `cargo run --release --example quickstart`

use lowlat::prelude::*;

fn main() {
    // The paper's running example: a GTS-like central-European grid —
    // high path diversity, hard for greedy routing.
    let topo = named::gts_like();
    println!(
        "network: {} ({} PoPs, {} cables, diameter {:.1} ms)",
        topo.name(),
        topo.pop_count(),
        topo.cables().len(),
        topo.diameter_ms()
    );

    // 1. How much low-latency path diversity does it have?
    let analysis = LlpdAnalysis::compute(&topo, &LlpdConfig::default());
    println!("LLPD = {:.3} (fraction of PoP pairs with APA >= 0.7)", analysis.llpd());

    // 2. A gravity traffic matrix at the paper's standard operating point:
    //    min-cut load 0.7 (traffic could grow 30% before becoming unroutable).
    let tm =
        GravityTmGen::new(TmGenConfig::default()).generate(&topo, 0).scaled_to_load(&topo, 0.7);
    println!(
        "traffic: {} aggregates, {:.1} Gb/s total\n",
        tm.len(),
        tm.total_volume_mbps() / 1000.0
    );

    // 3. Route it five ways through one shared path cache: k-shortest-path
    //    work done for one scheme is reused by the next (§5).
    let cache = PathCache::new(topo.graph());
    println!(
        "{:<10} {:>10} {:>10} {:>12} {:>9}",
        "scheme", "congested", "stretch", "max-stretch", "max-util"
    );
    let schemes: Vec<(&str, Box<dyn RoutingScheme>)> = vec![
        ("SP", Box::new(ShortestPathRouting)),
        ("B4", Box::new(B4Routing::default())),
        ("MinMax", Box::new(MinMaxRouting::unrestricted())),
        ("MinMaxK10", Box::new(MinMaxRouting::with_k(10))),
        ("LDR", Box::new(Ldr::default())),
    ];
    for (name, scheme) in schemes {
        let placement = scheme.place(&cache, &tm).expect("scheme failed");
        let ev = PlacementEval::evaluate(&topo, &tm, &placement);
        println!(
            "{:<10} {:>9.1}% {:>10.4} {:>12.3} {:>9.3}",
            name,
            ev.congested_pair_fraction() * 100.0,
            ev.latency_stretch(),
            ev.max_flow_stretch(),
            ev.max_utilization()
        );
    }
    println!("\nThe paper's story in one table: SP/B4 congest the grid, MinMax");
    println!("avoids congestion by stretching paths, LDR gets both right.");
}
