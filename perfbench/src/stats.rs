//! Harness arithmetic: nearest-rank percentiles and the tail rule.

/// Nearest-rank percentile of `samples` (`p` in `0.0..=100.0`): the
/// smallest sample with at least `p`% of the samples at or below it.
/// `None` on an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median (nearest-rank p50); 0 on an empty slice, so a metric that
/// does not apply to a workload reads 0 in the layer table.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// A tail percentile is only reported when at least ten samples lie
/// strictly beyond its rank — below that it is one outlier's value, not a
/// property of the distribution.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    (samples.len().saturating_sub(rank) >= 10).then(|| percentile(samples, p)).flatten()
}

/// Repeated timings of a fixed set of distinct operations.
///
/// Every workload repeats the same deterministic operations pass after
/// pass. An operation's time is the median of its repeats; the metrics are
/// then taken over the distinct operations, so each operation counts once
/// however many passes fitted into the run.
#[derive(Clone, Debug, Default)]
pub struct Repeats(Vec<Vec<f64>>);

impl Repeats {
    /// Records one repeat of operation `op`.
    pub fn record(&mut self, op: usize, value: f64) {
        if self.0.len() <= op {
            self.0.resize(op + 1, Vec::new());
        }
        self.0[op].push(value);
    }

    /// The median repeat of every operation recorded at least once.
    pub fn per_op(&self) -> Vec<f64> {
        self.0.iter().filter(|v| !v.is_empty()).map(|v| median(v)).collect()
    }

    /// Median over the distinct operations.
    pub fn median(&self) -> f64 {
        median(&self.per_op())
    }

    /// Sum over the distinct operations: the time of one typical pass.
    pub fn sum(&self) -> f64 {
        self.per_op().iter().sum()
    }

    /// Mean over the distinct operations; 0 when nothing was recorded.
    pub fn mean(&self) -> f64 {
        ratio(self.sum(), self.per_op().len() as f64)
    }
}

/// `numer / denom`, 0 when the denominator is not positive — a share of
/// nothing is reported as 0, never NaN.
pub fn ratio(numer: f64, denom: f64) -> f64 {
    if denom > 0.0 {
        numer / denom
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).rev().collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.5], 50.0), Some(7.5));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples: rank 90, exactly ten beyond.
        assert_eq!(tail_percentile(&v, 90.0), Some(90.0));
        // p99: one sample beyond.
        assert_eq!(tail_percentile(&v, 99.0), None);
        // 99 samples: rank 90 leaves nine beyond.
        assert_eq!(tail_percentile(&v[..99], 90.0), None);
        // The median of twenty samples has ten beyond; of nineteen, nine.
        assert_eq!(tail_percentile(&v[..20], 50.0), Some(10.0));
        assert_eq!(tail_percentile(&v[..19], 50.0), None);
    }

    #[test]
    fn repeats_take_the_median_per_operation() {
        let mut r = Repeats::default();
        for (op, v) in [(0, 5.0), (2, 9.0), (0, 4.0), (2, 11.0), (0, 6.0), (2, 10.0)] {
            r.record(op, v);
        }
        // Operation 1 was never recorded and does not count.
        assert_eq!(r.per_op(), vec![5.0, 10.0]);
        assert_eq!((r.median(), r.sum(), r.mean()), (5.0, 15.0, 7.5));
        assert_eq!((Repeats::default().median(), Repeats::default().mean()), (0.0, 0.0));
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
