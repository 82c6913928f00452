//! # lowlat-traffic
//!
//! Everything the paper needs about traffic *as a process over time* (§4-5):
//!
//! * [`trace`] — per-aggregate time series at two granularities (per-minute
//!   means and 100 ms samples), plus a synthetic generator standing in for
//!   the CAIDA Tier-1 backbone traces (which are not redistributable). The
//!   generator reproduces the two properties the paper measures: mean rates
//!   predictable minute-to-minute (Figure 9) and burst variance stable
//!   minute-to-minute (Figure 10).
//! * [`predictor`] — the paper's Algorithm 1: a conservative next-minute
//!   mean-rate predictor with a 10% growth hedge and 2% decay.
//! * [`fft`] / [`pmf`] — radix-2 FFT and probability-mass-function
//!   machinery: convolution of per-aggregate rate distributions in
//!   O(N log N), with the paper's 1024 quantization levels.
//! * [`multiplex`] — the two statistical-multiplexing admission tests of
//!   Figure 14: the temporal-correlation queueing test (B) and the
//!   convolution tail-probability test (C).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fft;
pub mod multiplex;
pub mod pmf;
pub mod predictor;
pub mod trace;

pub use multiplex::{MultiplexCheck, MultiplexConfig, Verdict};
pub use pmf::Pmf;
pub use predictor::Predictor;
pub use trace::{
    spread_seed, synthesize, AggregateTrace, TraceGenConfig, TraceGenerator, TraceMinute,
};
