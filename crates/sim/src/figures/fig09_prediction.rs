//! Figure 9: CDF of measured/predicted bitrate under Algorithm 1 over the
//! CAIDA-like trace corpus.

use lowlat_traffic::predictor::prediction_ratios;
use lowlat_traffic::trace::caida_like_traces;

use crate::output::Series;
use crate::runner::Scale;
use crate::stats::Cdf;

/// One CDF of measured/predicted ratios. Constant traffic would pin the
/// ratio at 1/1.1 ≈ 0.91; the paper reports overshoot (> 1) only ~0.5% of
/// the time and never by more than 10%.
pub fn run(scale: Scale) -> Vec<Series> {
    let (links, per_link) = match scale {
        Scale::Quick => (2, 5),
        Scale::Std => (4, 20),
        Scale::Full => (4, 40),
    };
    let mut ratios = Vec::new();
    for trace in caida_like_traces(links, per_link, 2013) {
        ratios.extend(prediction_ratios(trace.minute_means()));
    }
    let cdf = Cdf::new(ratios);
    let (lo, hi) = cdf.range();
    let pts = (0..=60)
        .map(|i| {
            let x = lo + (hi - lo) * i as f64 / 60.0;
            (x, cdf.fraction_at_or_below(x))
        })
        .collect();
    vec![Series::new("measured/predicted", pts)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictions_rarely_overshoot() {
        let series = run(Scale::Quick);
        let pts = &series[0].points;
        // Fraction of ratios <= 1.0 (i.e. measured within prediction).
        let below_one = pts.iter().filter(|p| p.0 <= 1.0).map(|p| p.1).fold(0.0f64, f64::max);
        assert!(below_one > 0.95, "overshoot must be rare, got {below_one}");
        // And the bulk of mass sits near 1/1.1 ≈ 0.91.
        let (lo, hi) = (pts[0].0, pts.last().unwrap().0);
        assert!(lo > 0.6 && hi < 1.25, "ratios in a narrow band: [{lo}, {hi}]");
    }
}
