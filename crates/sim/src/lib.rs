//! # lowlat-sim
//!
//! Experiment harness reproducing every data figure of the paper. The
//! `figures` binary in `src/bin/` regenerates the figures named in
//! [`figures::ALL`] and prints their series as TSV (plus a quick ASCII
//! rendition); [`runner`] executes (network × traffic-matrix × scheme)
//! grids in parallel on scoped threads; [`stats`] provides the
//! CDF/percentile machinery the figures plot.
//!
//! Scale control: every binary accepts `--quick` (CI-sized), `--std`
//! (default) and `--full` (the paper's full corpus sweep), because the full
//! grid is hours of CPU. The *shape* of every result — who congests, who
//! stretches, where crossovers sit — is stable across scales.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod output;
pub mod runner;
pub mod stats;
pub mod timeline;

pub use runner::{RunGrid, RunRecord, Scale};
pub use stats::Cdf;
