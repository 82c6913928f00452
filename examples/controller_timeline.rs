//! The §5 controller cycle, end to end: every minute LDR re-measures,
//! re-predicts (Algorithm 1), re-checks multiplexing (Figure 14) and
//! re-places traffic; we then replay the *actual* 100 ms traffic over the
//! placement and report the queueing that materialized. A static
//! shortest-path baseline shows what the control loop buys; after each
//! table, two lines read off it how often each controller queued past the
//! 10 ms allowance and what bounding LDR's churn saved in path changes.
//!
//! Run: `cargo run --release --example controller_timeline`

use lowlat::prelude::*;
use lowlat::sim::timeline::{simulate, Controller, TimelineConfig, TimelineOutcome};

fn main() {
    let topo = named::abilene();
    let tm =
        GravityTmGen::new(TmGenConfig::default()).generate(&topo, 0).scaled_to_load(&topo, 0.7);
    println!(
        "controller cycle on {}: {} aggregates, min-cut load 0.7, 8 decision minutes\n",
        topo.name(),
        tm.len()
    );

    for cv in [0.15, 0.5] {
        let cfg =
            TimelineConfig { minutes: 8, warmup_minutes: 4, cv, seed: 2026, ..Default::default() };
        let ldr = simulate(&topo, &tm, &Controller::ldr(), &cfg);
        let bounded = simulate(
            &topo,
            &tm,
            &Controller::parse("bounded:LDR").expect("bounded:LDR parses"),
            &cfg,
        );
        let sp = simulate(&topo, &tm, &Controller::static_sp(), &cfg);
        println!("burstiness cv = {cv}:");
        println!(
            "  {:<22} {:>16} {:>18} {:>14} {:>12}",
            "controller", "worst queue (ms)", "minutes > 10 ms", "mean stretch", "path churn"
        );
        for (name, out) in [
            ("LDR (adaptive)", &ldr),
            ("LDR (bounded churn)", &bounded),
            ("static shortest path", &sp),
        ] {
            println!(
                "  {:<22} {:>16.2} {:>18} {:>14.4} {:>12}",
                name,
                out.worst_queue_ms(),
                out.minutes_with_queue_above(10.0),
                out.mean_stretch(),
                out.total_paths_changed()
            );
        }
        let within = |out: &TimelineOutcome| cfg.minutes - out.minutes_with_queue_above(10.0);
        println!(
            "  minutes within the 10 ms allowance, of {}: LDR {}, bounded churn {}, static SP {}",
            cfg.minutes,
            within(&ldr),
            within(&bounded),
            within(&sp)
        );
        let (kept, all) = (bounded.total_paths_changed(), ldr.total_paths_changed());
        println!(
            "  path changes: bounded churn {kept}, {:.0}% of LDR's {all}\n",
            100.0 * kept as f64 / all.max(1) as f64
        );
    }
}
