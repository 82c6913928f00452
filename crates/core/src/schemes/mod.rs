//! The routing schemes the paper evaluates (§3, §5, §6).
//!
//! All schemes implement [`RoutingScheme`] and produce a best-effort
//! [`Placement`] even when the traffic cannot fit — congestion is a property
//! the evaluator measures (as in the paper's figures), not an error. Errors
//! are reserved for genuine solver failures.
//!
//! | scheme | paper role |
//! |---|---|
//! | [`sp::ShortestPathRouting`] | OSPF/IS-IS with delay-proportional costs (Figure 3) |
//! | [`ecmp::EcmpRouting`] | deployed OSPF/IS-IS: even splits over equal-cost shortest paths |
//! | [`b4::B4Routing`] | greedy progressive filling à la B4 (Figure 4b) |
//! | [`mpls::MplsAutoBandwidth`] | sequential MPLS-TE auto-bandwidth, the §3 "one aggregate at a time" greedy |
//! | [`minmax::MinMaxRouting`] | MinMax utilization, latency tie-break; optional k-shortest limit (Figures 4c, 4d) |
//! | [`latopt::LatencyOptimal`] | the Figure-12 LP with Figure-13 path growth (Figure 4a) |
//! | [`ldr::Ldr`] | LDR: latency-optimal + automatic headroom via Figure 14 |
//! | [`linkbased::LinkBasedOptimal`] | link-based MCF formulation (the slow baseline of Figure 15) |

pub mod b4;
pub mod ecmp;
pub mod latopt;
pub mod ldr;
pub mod linkbased;
pub mod minmax;
pub mod mpls;
pub mod registry;
pub mod sp;

use lowlat_linprog::LpError;
use lowlat_tmgen::{Aggregate, TrafficMatrix};
use lowlat_traffic::{AggregateTrace, Predictor};

use crate::placement::Placement;
use crate::source::PathSource;

pub use crate::pathgrow::SolveContext;

/// Algorithm-1 next-minute demand predictions, one per trace (aligned with
/// the matrix aggregates). The conservative estimator feeds both LDR's
/// Figure-14 loop and the default history-driven re-placement of every
/// other scheme in the timeline controller.
///
/// # Panics
/// Panics on a trace with no complete minute: nothing to predict from.
pub fn predict_volumes(history: &[AggregateTrace]) -> Vec<f64> {
    history
        .iter()
        .enumerate()
        .map(|(i, tr)| {
            let means = tr.minute_means();
            assert!(!means.is_empty(), "aggregate {i}: trace has no complete minute");
            let mut p = Predictor::new(means[0]);
            for &m in &means[1..] {
                p.observe(m);
            }
            p.prediction()
        })
        .collect()
}

/// No traces, or one too short to predict from: `place_with_history` then
/// falls back to the trace-free placement.
fn lacks_complete_minute(history: &[AggregateTrace]) -> bool {
    history.is_empty() || history.iter().any(|tr| tr.minutes() == 0)
}

/// The matrix with each aggregate's volume replaced by its prediction.
fn predicted_matrix(tm: &TrafficMatrix, history: &[AggregateTrace]) -> TrafficMatrix {
    assert_eq!(history.len(), tm.aggregates().len(), "one trace per aggregate");
    let volumes = predict_volumes(history);
    TrafficMatrix::new(
        tm.aggregates()
            .iter()
            .zip(&volumes)
            // Floor keeps the aggregate list aligned with the traces:
            // `TrafficMatrix::new` drops zero-volume entries.
            .map(|(a, &v)| Aggregate { volume_mbps: v.max(1e-6), ..*a })
            .collect(),
    )
}

/// Why a scheme failed outright (congestion is *not* a failure).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchemeError {
    /// The underlying LP solver failed.
    Solver(LpError),
    /// The link-based formulation was infeasible (demand exceeds capacity);
    /// unlike the path-based schemes it has no overload variables.
    Infeasible,
}

impl std::fmt::Display for SchemeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemeError::Solver(e) => write!(f, "LP solver: {e}"),
            SchemeError::Infeasible => write!(f, "demand exceeds capacity"),
        }
    }
}

impl std::error::Error for SchemeError {}

impl From<LpError> for SchemeError {
    fn from(e: LpError) -> Self {
        SchemeError::Solver(e)
    }
}

/// A traffic-placement algorithm.
///
/// The trait is object-safe and source-first: the experiment engine hands
/// every scheme the *shared* per-network [`PathSource`] — the flat
/// [`PathCache`](crate::pathset::PathCache) for PoP backbones, the
/// [`PartitionedPathEngine`](crate::hier::PartitionedPathEngine) at
/// Internet scale — so k-shortest-path work done by one scheme (or by the
/// min-cut scaling solve) is reused by every other scheme and matrix on
/// that network: the §5 "readily cached" observation turned into the API.
/// Schemes are requested by name string through [`registry`].
///
/// | door | LP state | demand |
/// |---|---|---|
/// | [`place`](RoutingScheme::place) | cold: a fresh [`SolveContext`] | the matrix |
/// | [`place_with_context`](RoutingScheme::place_with_context) | warm: the caller's context | the matrix |
/// | [`place_with_history`](RoutingScheme::place_with_history) | warm | measured: predicted from traces |
pub trait RoutingScheme: Send + Sync {
    /// Display name matching the paper's legends, parameterization
    /// included ("SP", "B4-h10", "MinMaxK10", "LatOpt", "LDR",
    /// "LinkBased"). Round-trips through [`registry::build`].
    fn name(&self) -> String;

    /// Computes a placement for `tm` on the graph `source` serves, growing
    /// (and reusing) the source's path sets as needed and warm-starting any
    /// LPs from `ctx` — the §5 deployment-cycle hot path, and the one
    /// method a scheme implements. Long-running controllers keep one
    /// [`SolveContext`] per scheme so successive minutes restart from each
    /// other's bases; schemes without an LP core ignore the context.
    fn place_with_context(
        &self,
        source: &dyn PathSource,
        tm: &TrafficMatrix,
        ctx: &mut SolveContext,
    ) -> Result<Placement, SchemeError>;

    /// As [`RoutingScheme::place_with_context`], cold: every LP starts from
    /// a fresh [`SolveContext`] that is dropped with the call.
    fn place(&self, source: &dyn PathSource, tm: &TrafficMatrix) -> Result<Placement, SchemeError> {
        self.place_with_context(source, tm, &mut SolveContext::new())
    }

    /// Places using the measured history: the timeline controller's
    /// per-minute entry point. The default predicts each aggregate's
    /// next-minute demand (Algorithm 1) and re-places the predicted matrix;
    /// LDR overrides this with its full trace-driven Figure-14 loop. With
    /// no history, or a trace without a complete minute, it places `tm`.
    ///
    /// `history[i]` is the measured trace of `tm.aggregates()[i]` so far.
    ///
    /// # Panics
    /// Panics if `history` is not aligned with the matrix.
    fn place_with_history(
        &self,
        source: &dyn PathSource,
        tm: &TrafficMatrix,
        history: &[AggregateTrace],
        ctx: &mut SolveContext,
    ) -> Result<Placement, SchemeError> {
        if lacks_complete_minute(history) {
            return self.place_with_context(source, tm, ctx);
        }
        self.place_with_context(source, &predicted_matrix(tm, history), ctx)
    }
}
