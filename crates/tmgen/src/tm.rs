//! Traffic matrices: one aggregate per ordered PoP pair.

use std::collections::HashSet;
use std::fmt;

use lowlat_netgraph::RangeError;
use lowlat_topology::PopId;

/// A directed traffic aggregate: the demand from one PoP to another.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aggregate {
    /// Ingress PoP.
    pub src: PopId,
    /// Egress PoP.
    pub dst: PopId,
    /// Mean offered load in Mbps (the paper's `Ba`).
    pub volume_mbps: f64,
    /// Number of flows in the aggregate (the paper's `na`). Our generator
    /// keeps this proportional to volume, as tm-gen does.
    pub flow_count: u64,
}

/// A traffic matrix: every ordered PoP pair with non-zero demand.
#[derive(Clone, Debug)]
pub struct TrafficMatrix {
    aggregates: Vec<Aggregate>,
}

/// `value` of an aggregate, as a [`RangeError`] prints it. It is formatted
/// only when a check fails: `RangeError::check` builds its text then, and
/// a matrix that passes formats nothing.
struct At<'a, V>(&'a Aggregate, V);

impl<V: fmt::Display> fmt::Display for At<'_, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let At(a, value) = self;
        write!(f, "{value} (aggregate {:?}->{:?})", a.src, a.dst)
    }
}

impl TrafficMatrix {
    /// Checks aggregates for [`TrafficMatrix::new`], which panics with the
    /// error's message: every volume finite and `>= 0` (a zero volume is
    /// dropped, a NaN, negative or infinite one is an error), no
    /// aggregate from a PoP to itself, no (src, dst) pair twice. The error
    /// names the first aggregate that fails.
    pub fn validate(aggregates: &[Aggregate]) -> Result<(), RangeError> {
        let mut seen = HashSet::with_capacity(aggregates.len());
        for a in aggregates {
            let v = a.volume_mbps;
            RangeError::check(
                v.is_finite() && v >= 0.0,
                "volume_mbps",
                At(a, v),
                "a finite value >= 0",
            )?;
            RangeError::check(
                a.src != a.dst,
                "dst",
                At(a, format_args!("{:?}", a.dst)),
                "a PoP other than src",
            )?;
            let first = seen.insert((a.src, a.dst));
            RangeError::check(
                first,
                "aggregate",
                At(a, "repeated"),
                "one entry per (src, dst) pair",
            )?;
        }
        Ok(())
    }

    /// Builds a matrix from aggregates, dropping zero-volume entries.
    ///
    /// # Panics
    /// Panics with [`TrafficMatrix::validate`]'s error: an aggregate with
    /// `src == dst`, a NaN, negative or infinite volume, or a (src, dst)
    /// pair that repeats.
    pub fn new(mut aggregates: Vec<Aggregate>) -> Self {
        Self::validate(&aggregates).unwrap_or_else(|e| panic!("{e}"));
        aggregates.retain(|a| a.volume_mbps > 0.0);
        // No two keys are equal (`validate`), so the unstable sort, which
        // needs no buffer, orders them as the stable one would.
        aggregates.sort_unstable_by_key(|a| (a.src, a.dst));
        TrafficMatrix { aggregates }
    }

    /// The aggregates, sorted by (src, dst).
    pub fn aggregates(&self) -> &[Aggregate] {
        &self.aggregates
    }

    /// Number of aggregates.
    pub fn len(&self) -> usize {
        self.aggregates.len()
    }

    /// True when there is no demand at all.
    pub fn is_empty(&self) -> bool {
        self.aggregates.is_empty()
    }

    /// Demand from `src` to `dst` in Mbps (0 when absent).
    pub fn volume_between(&self, src: PopId, dst: PopId) -> f64 {
        self.aggregates
            .binary_search_by_key(&(src, dst), |a| (a.src, a.dst))
            .map(|i| self.aggregates[i].volume_mbps)
            .unwrap_or(0.0)
    }

    /// Total offered load in Mbps.
    pub fn total_volume_mbps(&self) -> f64 {
        self.aggregates.iter().map(|a| a.volume_mbps).sum()
    }

    /// Checks a factor for [`TrafficMatrix::scaled`], which panics with the
    /// error's message: finite and `> 0`, and every volume it scales still
    /// finite and `> 0` (the error names the first aggregate that
    /// overflows or underflows).
    pub fn validate_factor(&self, factor: f64) -> Result<(), RangeError> {
        let positive = |v: f64| v.is_finite() && v > 0.0;
        RangeError::check(positive(factor), "factor", factor, "a finite value > 0")?;
        for a in &self.aggregates {
            let v = a.volume_mbps * factor;
            RangeError::check(
                positive(v),
                "factor",
                At(a, factor),
                "one that keeps every volume finite and > 0",
            )?;
        }
        Ok(())
    }

    /// A copy with every volume (and flow count) multiplied by `factor`.
    ///
    /// # Panics
    /// Panics with [`TrafficMatrix::validate_factor`]'s error.
    pub fn scaled(&self, factor: f64) -> TrafficMatrix {
        self.validate_factor(factor).unwrap_or_else(|e| panic!("{e}"));
        TrafficMatrix {
            aggregates: self
                .aggregates
                .iter()
                .map(|a| Aggregate {
                    volume_mbps: a.volume_mbps * factor,
                    flow_count: ((a.flow_count as f64 * factor).round() as u64).max(1),
                    ..*a
                })
                .collect(),
        }
    }

    /// Per-PoP egress totals (Mbps), keyed by PoP index.
    pub fn egress_by_pop(&self, pop_count: usize) -> Vec<f64> {
        let mut out = vec![0.0; pop_count];
        for a in &self.aggregates {
            out[a.src.idx()] += a.volume_mbps;
        }
        out
    }

    /// Per-PoP ingress totals (Mbps), keyed by PoP index.
    pub fn ingress_by_pop(&self, pop_count: usize) -> Vec<f64> {
        let mut out = vec![0.0; pop_count];
        for a in &self.aggregates {
            out[a.dst.idx()] += a.volume_mbps;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowlat_netgraph::NodeId;

    fn agg(s: u32, d: u32, v: f64) -> Aggregate {
        Aggregate { src: NodeId(s), dst: NodeId(d), volume_mbps: v, flow_count: v.ceil() as u64 }
    }

    #[test]
    fn lookup_and_totals() {
        let tm = TrafficMatrix::new(vec![agg(0, 1, 10.0), agg(1, 0, 5.0), agg(0, 2, 2.5)]);
        assert_eq!(tm.len(), 3);
        assert_eq!(tm.volume_between(NodeId(0), NodeId(1)), 10.0);
        assert_eq!(tm.volume_between(NodeId(2), NodeId(0)), 0.0);
        assert!((tm.total_volume_mbps() - 17.5).abs() < 1e-12);
    }

    #[test]
    fn zero_volume_dropped() {
        let tm = TrafficMatrix::new(vec![agg(0, 1, 10.0), agg(1, 2, 0.0)]);
        assert_eq!(tm.len(), 1);
    }

    #[test]
    fn scaling() {
        let tm = TrafficMatrix::new(vec![agg(0, 1, 10.0)]).scaled(1.3);
        assert!((tm.total_volume_mbps() - 13.0).abs() < 1e-12);
        assert_eq!(tm.aggregates()[0].flow_count, 13);
    }

    #[test]
    fn marginals() {
        let tm = TrafficMatrix::new(vec![agg(0, 1, 10.0), agg(0, 2, 4.0), agg(2, 0, 1.0)]);
        assert_eq!(tm.egress_by_pop(3), vec![14.0, 0.0, 1.0]);
        assert_eq!(tm.ingress_by_pop(3), vec![1.0, 10.0, 4.0]);
    }

    #[test]
    #[should_panic]
    fn duplicate_pair_rejected() {
        TrafficMatrix::new(vec![agg(0, 1, 1.0), agg(0, 1, 2.0)]);
    }

    #[test]
    fn a_bad_volume_is_an_error_naming_its_aggregate_not_a_dropped_demand() {
        for (v, value) in [(f64::NAN, "NaN"), (-2.0, "-2"), (f64::INFINITY, "inf")] {
            let aggs = vec![agg(0, 1, 10.0), agg(2, 0, v)];
            let e = TrafficMatrix::validate(&aggs).unwrap_err();
            let want =
                format!("volume_mbps = {value} (aggregate n2->n0), expected a finite value >= 0");
            assert_eq!(e.to_string(), want);
            let panicked = std::panic::catch_unwind(|| TrafficMatrix::new(aggs)).unwrap_err();
            assert_eq!(panicked.downcast_ref::<String>(), Some(&want));
        }
        let e = TrafficMatrix::validate(&[agg(1, 1, 3.0)]).unwrap_err();
        assert_eq!(e.to_string(), "dst = n1 (aggregate n1->n1), expected a PoP other than src");
        assert_eq!(TrafficMatrix::validate(&[agg(0, 1, 0.0), agg(1, 0, 4.0)]), Ok(()));
    }

    #[test]
    fn a_factor_is_checked_against_every_volume_it_scales() {
        let tm = TrafficMatrix::new(vec![agg(0, 1, 10.0), agg(1, 2, 1e300)]);
        assert_eq!(tm.validate_factor(2.0), Ok(()));
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let e = tm.validate_factor(bad).unwrap_err();
            assert_eq!((e.param, e.expected), ("factor", "a finite value > 0"));
        }
        let e = tm.validate_factor(1e10).unwrap_err();
        let want = "factor = 10000000000 (aggregate n1->n2), expected one that keeps every volume finite and > 0";
        assert_eq!(e.to_string(), want);
        let panicked = std::panic::catch_unwind(|| tm.scaled(1e10)).unwrap_err();
        assert_eq!(panicked.downcast_ref::<String>().map(String::as_str), Some(want));
    }
}
