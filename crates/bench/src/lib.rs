//! Shared fixtures for the Criterion micro-benches.
//!
//! Performance claims are judged by the repo benchmark (`perfbench/`,
//! `BENCHMARK.json`); the four targets here are a calibration or
//! differential cell of it, or the only timing of their path (each
//! target's module docs say which; the README's "Measuring performance"
//! section lists them). The fixtures keep the workloads identical across
//! targets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lowlat_core::scale::ScaleToLoad;
use lowlat_tmgen::{GravityTmGen, TmGenConfig, TrafficMatrix};
use lowlat_topology::zoo::named;
use lowlat_topology::Topology;
use lowlat_traffic::{synthesize, TraceGenConfig};

/// The GTS-like grid — the paper's hard-to-route running example.
pub fn gts() -> Topology {
    named::gts_like()
}

/// The Abilene backbone — the small sanity-check network.
pub fn abilene() -> Topology {
    named::abilene()
}

/// `n` bursty one-minute series of 600 bins (mean 900 Mbps, cv 0.5), as
/// a link sees its aggregates: the input of the Figure-14 appraisal cells.
pub fn bursty_series(n: usize) -> Vec<Vec<f64>> {
    (0..n as u64)
        .map(|i| {
            let cfg = TraceGenConfig {
                mean_mbps: 900.0,
                cv: 0.5,
                minutes: 1,
                seed: 100 + i,
                ..Default::default()
            };
            synthesize(&cfg).samples(0).to_vec()
        })
        .collect()
}

/// A standard-operating-point matrix: locality 1, min-cut load 0.7.
pub fn standard_tm(topo: &Topology, index: u64) -> TrafficMatrix {
    GravityTmGen::new(TmGenConfig::default()).generate(topo, index).scaled_to_load(topo, 0.7)
}
