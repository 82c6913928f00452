//! [`TimedSource`]: a transparent [`PathSource`] decorator that measures
//! the pricing layer from outside — busy time and calls per trait method —
//! without touching the cache or engine it forwards to.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use lowlat_core::pathset::RepairStats;
use lowlat_core::PathSource;
use lowlat_netgraph::{FailureMask, Graph, NodeId, Path};

/// The trait methods the decorator times. The first five are the pricing
/// calls the placement LPs make; the last two are the failure plumbing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// [`PathSource::paths`].
    Paths,
    /// [`PathSource::shortest`].
    Shortest,
    /// [`PathSource::grow`].
    Grow,
    /// [`PathSource::shortest_delay_bound`].
    ShortestDelayBound,
    /// [`PathSource::effective_capacities`].
    EffectiveCapacities,
    /// [`PathSource::apply_failure`].
    ApplyFailure,
    /// [`PathSource::clear_failure`].
    ClearFailure,
}

impl Method {
    /// The five pricing methods, in report order.
    pub const PRICING: [Method; 5] = [
        Method::Paths,
        Method::Shortest,
        Method::Grow,
        Method::ShortestDelayBound,
        Method::EffectiveCapacities,
    ];
}

/// Busy time and call count of one method.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MethodTotal {
    /// Calls forwarded.
    pub calls: u64,
    /// Time spent inside the wrapped source, seconds.
    pub busy_s: f64,
}

impl MethodTotal {
    fn plus(self, other: MethodTotal) -> MethodTotal {
        MethodTotal { calls: self.calls + other.calls, busy_s: self.busy_s + other.busy_s }
    }
}

/// A snapshot of every method's totals; sums across sources.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SourceTotals([MethodTotal; 7]);

impl SourceTotals {
    /// What `m` cost.
    pub fn of(&self, m: Method) -> MethodTotal {
        self.0[m as usize]
    }

    /// The five pricing methods together.
    pub fn pricing(&self) -> MethodTotal {
        Method::PRICING.iter().fold(MethodTotal::default(), |acc, &m| acc.plus(self.of(m)))
    }

    /// Adds another snapshot method by method.
    pub fn add(&mut self, other: &SourceTotals) {
        for (mine, theirs) in self.0.iter_mut().zip(other.0) {
            *mine = mine.plus(theirs);
        }
    }
}

/// Forwards every call to the wrapped source and accumulates, per method,
/// the time the wrapped source was busy and how often it was called.
///
/// The counters are statistics that publish no other data, hence
/// `Relaxed`; they are atomics only because [`PathSource`] is `Sync`.
pub struct TimedSource<'a> {
    inner: &'a dyn PathSource,
    nanos: [AtomicU64; 7],
    calls: [AtomicU64; 7],
}

impl<'a> TimedSource<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn PathSource) -> Self {
        TimedSource { inner, nanos: Default::default(), calls: Default::default() }
    }

    fn timed<R>(&self, m: Method, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.nanos[m as usize].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls[m as usize].fetch_add(1, Ordering::Relaxed);
        out
    }

    /// What every method has cost so far.
    pub fn totals(&self) -> SourceTotals {
        SourceTotals(std::array::from_fn(|i| MethodTotal {
            calls: self.calls[i].load(Ordering::Relaxed),
            busy_s: self.nanos[i].load(Ordering::Relaxed) as f64 * 1e-9,
        }))
    }
}

impl PathSource for TimedSource<'_> {
    fn graph(&self) -> &Graph {
        self.inner.graph()
    }

    fn paths(&self, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
        self.timed(Method::Paths, || self.inner.paths(src, dst, k))
    }

    fn shortest(&self, src: NodeId, dst: NodeId) -> Option<Path> {
        self.timed(Method::Shortest, || self.inner.shortest(src, dst))
    }

    fn grow(&self, src: NodeId, dst: NodeId, want: usize) -> Vec<Path> {
        self.timed(Method::Grow, || self.inner.grow(src, dst, want))
    }

    fn shortest_delay_bound(&self, src: NodeId, dst: NodeId) -> f64 {
        self.timed(Method::ShortestDelayBound, || self.inner.shortest_delay_bound(src, dst))
    }

    fn effective_capacities(&self) -> Vec<f64> {
        self.timed(Method::EffectiveCapacities, || self.inner.effective_capacities())
    }

    fn failure_mask(&self) -> Option<Arc<FailureMask>> {
        self.inner.failure_mask()
    }

    fn apply_failure(&self, mask: &FailureMask) -> RepairStats {
        self.timed(Method::ApplyFailure, || self.inner.apply_failure(mask))
    }

    fn clear_failure(&self) -> RepairStats {
        self.timed(Method::ClearFailure, || self.inner.clear_failure())
    }

    fn cached_pairs(&self) -> usize {
        self.inner.cached_pairs()
    }
}
