//! §8 / Figure 20: plan topology growth with LLPD and check which routing
//! schemes can actually harvest the new links.
//!
//! Run: `cargo run --release --example growth_planner`

use lowlat::prelude::*;

fn main() {
    let topo = named::abilene();
    println!("growing {}: {} cables, LLPD-guided, +15% links\n", topo.name(), topo.cables().len());
    let plan = grow_by_llpd(&topo, &GrowthPlanConfig { link_increase: 0.15, ..Default::default() });
    println!("initial LLPD: {:.3}", plan.initial_llpd);
    for ((a, b), llpd) in &plan.added {
        println!(
            "  + cable {} <-> {}  (LLPD -> {:.3})",
            plan.topology.pop_name(*a),
            plan.topology.pop_name(*b),
            llpd
        );
    }

    // Does routing benefit? Before/after latency stretch per scheme: one
    // matrix and one path cache per topology, shared by every scheme.
    let gen = GravityTmGen::new(TmGenConfig::default());
    let networks = [&topo, &plan.topology]
        .map(|t| (t, gen.generate(t, 0).scaled_to_load(t, 0.7), PathCache::new(t.graph())));
    println!("\n{:<10} {:>10} {:>10}", "scheme", "before", "after");
    for (name, scheme) in [
        ("LDR", Box::new(Ldr::default()) as Box<dyn RoutingScheme>),
        ("B4", Box::new(B4Routing::default())),
        ("MinMax", Box::new(MinMaxRouting::unrestricted())),
        ("MinMaxK10", Box::new(MinMaxRouting::with_k(10))),
    ] {
        let [before, after] = networks.each_ref().map(|(t, tm, cache)| {
            let placement = scheme.place(cache, tm).expect("scheme failed");
            PlacementEval::evaluate(t, tm, &placement).latency_stretch()
        });
        println!("{name:<10} {before:>10.4} {after:>10.4}");
    }
    println!("\nOnly schemes that exploit path diversity convert added links into");
    println!("lower stretch; MinMax can even get worse (it load-balances wider).");
}
