//! Figure 1: CDF of per-pair APA for every network (stretch limit 1.4).

use lowlat_core::llpd::{LlpdAnalysis, LlpdConfig};
use lowlat_core::{default_workers, par_map};

use crate::output::Series;
use crate::runner::Scale;
use crate::stats::Cdf;

/// One CDF series per network. Curves toward the lower right indicate
/// usable low-latency path diversity; horizontal lines are cliques.
pub fn run(scale: Scale) -> Vec<Series> {
    let nets = scale.networks();
    let analyses =
        par_map(&nets, default_workers(), |t| LlpdAnalysis::compute(t, &LlpdConfig::default()));
    nets.iter()
        .zip(&analyses)
        .map(|(t, analysis)| {
            let cdf = Cdf::new(analysis.apa_values().to_vec());
            Series::new(format!("{}(llpd={:.2})", t.name(), analysis.llpd()), cdf_as_xy(&cdf))
        })
        .collect()
}

/// `(APA value, cumulative fraction)` points — x in [0,1].
fn cdf_as_xy(cdf: &Cdf) -> Vec<(f64, f64)> {
    let mut pts = Vec::with_capacity(22);
    for i in 0..=20 {
        let x = i as f64 / 20.0;
        pts.push((x, cdf.fraction_at_or_below(x)));
    }
    pts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_produces_monotone_cdfs() {
        let series = run(Scale::Quick);
        assert!(!series.is_empty());
        for s in &series {
            for w in s.points.windows(2) {
                assert!(w[1].1 >= w[0].1 - 1e-12, "CDF must be monotone in {}", s.name);
            }
            assert!(s.points.last().unwrap().1 >= 0.999, "CDF reaches 1");
        }
    }
}
