//! # lowlat-telemetry
//!
//! Workspace-wide observability: hierarchical **spans** with thread-local
//! span stacks and monotonic timing, and a lock-striped **metrics registry**
//! of counters, gauges and fixed-bucket log-scale histograms — all behind a
//! single [`enabled`] gate that keeps the instrumented hot paths at their
//! uninstrumented cost when telemetry is off.
//!
//! The workspace is offline, so this crate is dependency-free by design
//! (std only), in the same spirit as the vendored stand-ins under `vendor/`.
//!
//! ## Model
//!
//! * **Spans** ([`span`], [`timed_span`]) are RAII guards: creation stamps a
//!   monotonic start, drop records a completed interval into a per-thread
//!   buffer that drains into a global trace. Each thread keeps a stack of
//!   open spans, so every recorded interval knows its parent — the chrome
//!   trace nests exactly as the call tree did. [`Span::finish_ms`] closes a
//!   span *and* hands back its duration, so a TSV column and the trace can
//!   be fed from one measurement instead of two `Instant` reads that would
//!   disagree.
//! * **Metrics** ([`counter_add`], [`gauge_set`], [`observe`]) live in a
//!   registry striped over 16 shards by a Fibonacci-mixed FNV hash of the
//!   metric name, so concurrent workers on different metrics rarely share a
//!   lock. Histograms use fixed log-scale buckets (8 per octave) and report
//!   p50/p90/p99 by nearest rank.
//! * **Sinks** ([`metrics_json`], [`metrics_tsv`], [`trace_json`],
//!   [`write_metrics`], [`write_trace`]) export a point-in-time snapshot as
//!   JSON or TSV, and the span trace in the `trace_event` format that
//!   `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load
//!   directly.
//!
//! ## Naming scheme
//!
//! Metric names are dot-separated `layer.thing[_unit]`: `lp.solves`,
//! `pathgrow.columns_grown`, `cache.repair.paths_regrown`,
//! `hier.query.fallback`, `timeline.minutes`. Every completed span `name`
//! additionally feeds the histogram `span.<name>_ms`, so the snapshot
//! carries the latency distribution of each phase without a trace viewer.
//!
//! ## The gate
//!
//! [`enabled`] is one relaxed atomic load. Every recording entry point
//! checks it first and returns before touching any lock, map or clock, so
//! an instrumented-but-disabled binary pays a branch per call site and
//! nothing else. [`timed_span`] is the one deliberate exception: it always
//! reads the clock, because its callers feed pre-existing wall-clock
//! columns (`decision_ms`, `repair_ms`) that must keep working with
//! telemetry off — exactly the cost of the `Instant::now()` pair it
//! replaced.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod registry;
mod span;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

pub use export::{jstr, metrics_json, metrics_tsv, trace_json, write_metrics, write_trace};
pub use registry::{
    counter_add, gauge_set, observe, reset, snapshot, HistogramSummary, MetricsSnapshot,
};
pub use span::{span, timed_span, Span};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// True when telemetry is recording. One relaxed load — the fast path every
/// instrumentation site takes before doing anything else.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off. Enabling also pins the trace epoch (the zero
/// of every chrome-trace timestamp) if it is not already pinned.
pub fn set_enabled(on: bool) {
    if on {
        epoch();
    }
    ENABLED.store(on, Ordering::SeqCst);
}

/// The monotonic instant all trace timestamps are relative to. Pinned at
/// the first [`set_enabled`]`(true)` (or first use, whichever comes first).
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::Mutex;

    /// Tests share the process-global registry and enable flag; the ones
    /// that touch them serialize on this lock.
    pub(crate) fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }
}
