//! # lowlat-core
//!
//! The paper's primary contribution, reimplemented from scratch:
//!
//! * [`llpd`] — the **Alternate Path Availability** (APA) and **Low-Latency
//!   Path Diversity** (LLPD) metrics of §2: a routing- and traffic-agnostic
//!   measure of a topology's potential for congestion-free low-latency
//!   delivery.
//! * [`schemes`] — the routing schemes of §3–§5: delay-weighted shortest
//!   path, B4-style greedy progressive filling, MinMax (with and without the
//!   TeXCP k-shortest-path limit), the latency-optimal LP of Figure 12 with
//!   the lazy path generation of Figure 13, and **LDR** — latency-optimal
//!   routing with automatic headroom from the statistical-multiplexing loop
//!   of Figure 14.
//! * [`eval`] — placement evaluation: congested-pair fraction, latency
//!   stretch, maximum flow stretch, link-utilization CDFs (the y-axes of
//!   Figures 3, 4, 7, 16–18).
//! * [`growth`] — §8's topology-growth experiment: greedily add the cables
//!   that raise LLPD the most (Figure 20).
//! * [`failure`] — the topology-dynamics axis: failure-scenario generators
//!   (single-link, random-k, node-down, SRLG), routable-demand
//!   partitioning, post-failure metrics, and the cache-repair +
//!   warm-re-place recovery drill.
//!
//! The scheme implementations share two pieces of machinery that the paper
//! singles out as generally useful (§8 "Generality of building blocks"):
//! the cached incremental k-shortest-path sets ([`pathset`]) and the
//! grow-where-overloaded LP loop ([`pathgrow`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eval;
pub mod failure;
pub mod growth;
pub mod hier;
pub mod llpd;
pub mod par;
pub mod pathgrow;
pub mod pathset;
pub mod placement;
pub mod scale;
pub mod schemes;
pub mod source;

pub use eval::PlacementEval;
pub use failure::{FailureImpact, FailureScenario, RecoveryOutcome};
pub use hier::{EngineConfig, PartitionedPathEngine, QueryStats};
pub use llpd::{LlpdAnalysis, LlpdConfig};
pub use par::{default_workers, par_map};
pub use pathgrow::GrowRequest;
pub use placement::Placement;
pub use scale::ScaleToLoad;
pub use schemes::RoutingScheme;
pub use source::PathSource;

/// Serializes the unit tests that switch the process-wide telemetry on
/// around a traced call and read the registry back with the tests whose
/// work would write what they read. Tracing is on for every thread while
/// one test traces: another test's `set_enabled(false)` turns it off under
/// the call, another engine's fill overwrites the `hier.*` gauges, and a
/// partitioned-engine solve that ends inside the window reports its whole
/// `pathgrow.columns_from_surplus` against only part of its
/// `pathgrow.columns_grown`.
#[cfg(test)]
static TELEMETRY: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Holds [`TELEMETRY`] until the guard drops.
#[cfg(test)]
pub(crate) fn telemetry_lock() -> std::sync::MutexGuard<'static, ()> {
    // A test that panicked holding it leaves nothing to repair: it guards
    // no data.
    TELEMETRY.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
