//! Golden fingerprint of one eventful run per controller kind, recorded on
//! the commit before `run_timeline` became `ControllerState`: every
//! deterministic `MinuteReport` field as bit patterns plus the run counters,
//! for bounded churn + scripted events + cascade trips in one run — the one
//! combination no unit test in `timeline.rs` covers. A refactor of the
//! controller core must keep it green; a deliberate behaviour change
//! re-records it and says so.
//!
//! Re-recorded once, when phase 1 of the growth loop gained its stopping
//! test (`core::pathgrow`, "The loop"): four run counters moved and none of
//! the 36 per-minute fields. `lp_solves` / `lp_warm_hits` fell (`bounded:LDR`
//! 0x192/0x18f -> 0x13d/0x13a, `LDR` 0x1a8/0x1a5 -> 0x14d/0x14a) because a
//! growth call whose demand cannot fit stops when that is proven instead of
//! at `max_rounds`, and `bounded:LDR`'s `repaired_pairs` / `kept_pairs` went
//! 0x11c/0x4c -> 0x118/0x50: four pairs no longer hold grown Yen state when
//! a mask lands, so there is nothing of theirs to repair.
//!
//! Re-recorded again when the loop began to price a column before posing an
//! LP ("The loop", the pricing step): `lp_solves` / `lp_warm_hits` fell
//! (`bounded:LDR` 0x13d/0x13a -> 0xcf/0xcc, `LDR` 0x14d/0x14a -> 0xda/0xd7 —
//! the rounds whose new columns cannot enter the basis no longer pose one),
//! and eleven `f64` words moved by 1–14 units in the last place (five under
//! `bounded:LDR`, six under `LDR`: `worst_queue_ms`, `latency_stretch`,
//! `moved_volume_fraction`): a kept round returns the values of the last LP
//! solved, where the zero-pivot restart it replaces recomputed `B⁻¹b` and
//! landed round-off away. Every integer word — `overloaded_links`,
//! `paths_changed`, the repair counters, trips — is unchanged.

use lowlat_core::failure::single_link_failures;
use lowlat_core::pathset::PathCache;
use lowlat_core::scale::ScaleToLoad;
use lowlat_netgraph::FailureMask;
use lowlat_sim::timeline::{
    simulate_with_events_on, CascadeConfig, Controller, TimelineConfig, TimelineEvent,
    TimelineOutcome,
};
use lowlat_tmgen::{GravityTmGen, TmGenConfig};
use lowlat_topology::zoo::named;

/// The six run counters, then six fields per minute (`decision_ms`, the one
/// wall-clock field, excluded).
fn fingerprint(out: &TimelineOutcome) -> Vec<u64> {
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

// One row of run counters, then one row per minute.
#[rustfmt::skip]
const GOLDEN: [(&str, &[u64]); 3] = [
    ("bounded:LDR", &[
        0xcf, 0xcc, 0x5, 0x118, 0x50, 0x3,
        0x4059f6c3972b46f7, 0xd, 0x3ff24c33f5a78286, 0x0, 0x0, 0x0,
        0x4076e89b682b1926, 0x7, 0x3ff1ad8e89a9b57d, 0x0, 0x18, 0x3fcbfed125c4141c,
        0x4034f5359a37ef8a, 0x2, 0x3ff13fff1f448de0, 0x3fd553e47a889d66, 0x6, 0x3fb56c9dfe64082c,
        0x40a67ec917223a33, 0xe, 0x3ff2d355bc6eba77, 0x0, 0x12, 0x3fcbe7a86b46ca37,
        0x40e256122ab0c2dd, 0xc, 0x3ff279b8f0942341, 0x0, 0x12, 0x3fd4250b8748a4ad,
        0x40a8b7e57f1004d9, 0x7, 0x3ff1898d50671bec, 0x3fd553e47a889d66, 0x12, 0x3fc1333698bb7040,
    ]),
    ("LDR", &[
        0xda, 0xd7, 0x4, 0xf2, 0x2e, 0x2,
        0x4059f6c3972b46f7, 0xd, 0x3ff24c33f5a78286, 0x0, 0x0, 0x0,
        0x4076e89b682b1926, 0x7, 0x3ff179b4fac811d7, 0x0, 0x2a, 0x3fd0e072fb3c4318,
        0x0, 0x0, 0x3ff18910d3a837f5, 0x3fd553e47a889d66, 0x12, 0x3fc41beb03011f22,
        0x404d1e01b5847ea6, 0x11, 0x3ff2c5c8519a4298, 0x0, 0x18, 0x3fce628dcb6cc907,
        0x407268890ac57e84, 0x11, 0x3ff27b84b8462f56, 0x0, 0x16, 0x3fafa32d7b62d686,
        0x40de95680a78706d, 0xc, 0x3ff3ef1dd813fab0, 0x0, 0x24, 0x3fd422b3598b42ca,
    ]),
    ("static:SP", &[
        0x0, 0x0, 0x5, 0x0, 0x0, 0x3,
        0x40c94d27ea3089b5, 0x8, 0x3ff0000000000000, 0x0, 0x0, 0x0,
        0x4040442635dc26fd, 0x2, 0x3ff0000000000000, 0x3fd9e61d2f3ef250, 0x0, 0x0,
        0x4055529e29dfda25, 0x2, 0x3ff0000000000000, 0x3fd9e61d2f3ef250, 0x0, 0x0,
        0x40c9c4df691c5b53, 0x9, 0x3ff0000000000000, 0x0, 0x0, 0x0,
        0x40d1a6a1174962d4, 0x5, 0x3ff0000000000000, 0x3fd4d21389dcb576, 0x0, 0x0,
        0x0, 0x0, 0x3ff0000000000000, 0x3fe1c11c1b12e870, 0x0, 0x0,
    ]),
];

#[test]
fn eventful_cascading_run_matches_the_recorded_fingerprint() {
    // Abilene at `timeline_sweep`'s load, a diurnal swing, an outage window
    // (the first cable down at minute 1, up at minute 3) and a cascade
    // threshold low enough — a cable sustaining over 90% of its effective
    // capacity trips — that every controller kind trips at least twice.
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
    for (spec, golden) in GOLDEN {
        let controller = Controller::parse(spec).expect("registry spec");
        let cache = PathCache::new(topo.graph());
        let out = simulate_with_events_on(&cache, &tm, &controller, &config, &events);
        assert!(out.cascade_trips >= 2, "{spec}: the run must exercise trips");
        assert_eq!(fingerprint(&out), golden, "{spec}");
    }
}
