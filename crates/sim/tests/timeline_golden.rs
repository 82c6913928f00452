//! Golden fingerprint of one eventful run per controller kind: every
//! deterministic `MinuteReport` field as bit patterns plus the run counters,
//! for bounded churn + scripted events + cascade trips in one run — the one
//! combination no unit test in `timeline.rs` covers. Each kind is one row of
//! the ledger (`timeline_golden.<kind>` in `tests/pinned.tsv`). A refactor of
//! the controller core must keep them green; a deliberate behaviour change
//! re-records them and says so.

#[path = "../../../tests/support/pinned.rs"]
mod pinned;

use lowlat_core::failure::single_link_failures;
use lowlat_core::pathset::PathCache;
use lowlat_core::scale::ScaleToLoad;
use lowlat_netgraph::FailureMask;
use lowlat_sim::timeline::{
    simulate_with_events_on, CascadeConfig, Controller, TimelineConfig, TimelineEvent,
};
use lowlat_tmgen::{GravityTmGen, TmGenConfig};
use lowlat_topology::zoo::named;

/// `spec`'s run on Abilene at `timeline_sweep`'s load, a diurnal swing, an
/// outage window (the first cable down at minute 1, up at minute 3) and a
/// cascade threshold low enough — a cable sustaining over 90% of its
/// effective capacity trips — that every controller kind trips at least
/// twice: its six run counters, then six fields per minute (`decision_ms`,
/// the one wall-clock field, excluded).
fn eventful_run(spec: &str) -> Vec<u64> {
    let topo = named::abilene();
    let tm =
        GravityTmGen::new(TmGenConfig::default()).generate(&topo, 0).scaled_to_load(&topo, 0.7);
    let config = TimelineConfig {
        minutes: 6,
        warmup_minutes: 3,
        seed: 7,
        diurnal_amplitude: 0.3,
        diurnal_period: 6,
        cascade: Some(CascadeConfig { trip_overload: -0.1, max_trips: 4 }),
        ..Default::default()
    };
    let events = [
        TimelineEvent { at_minute: 1, mask: single_link_failures(&topo)[0].mask(&topo) },
        TimelineEvent { at_minute: 3, mask: FailureMask::new() },
    ];
    let controller = Controller::parse(spec).expect("registry spec");
    let cache = PathCache::new(topo.graph());
    let out = simulate_with_events_on(&cache, &tm, &controller, &config, &events);
    assert!(out.cascade_trips >= 2, "{spec}: the run must exercise trips");
    let mut f = vec![
        out.lp_solves as u64,
        out.lp_warm_hits as u64,
        out.repair_events as u64,
        out.repaired_pairs as u64,
        out.kept_pairs as u64,
        out.cascade_trips as u64,
    ];
    for m in &out.minutes {
        f.extend([
            m.worst_queue_ms.to_bits(),
            m.overloaded_links as u64,
            m.latency_stretch.to_bits(),
            m.unroutable_fraction.to_bits(),
            m.paths_changed as u64,
            m.moved_volume_fraction.to_bits(),
        ]);
    }
    f
}

// One test per row, so that every row that moves is written and named.
#[test]
fn eventful_cascading_run_matches_the_recorded_fingerprint() {
    pinned::assert_pinned("timeline_golden.bounded_ldr", &eventful_run("bounded:LDR"));
}

#[test]
fn the_run_under_ldr_matches_its_fingerprint() {
    pinned::assert_pinned("timeline_golden.ldr", &eventful_run("LDR"));
}

#[test]
fn the_run_under_static_sp_matches_its_fingerprint() {
    pinned::assert_pinned("timeline_golden.static_sp", &eventful_run("static:SP"));
}
