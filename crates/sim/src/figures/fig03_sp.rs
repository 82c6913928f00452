//! Figure 3: fraction of congested pairs vs LLPD under shortest-path
//! routing (median and 90th percentile across matrices).

use lowlat_core::default_workers;

use crate::output::Series;
use crate::runner::{by_llpd, run_grid, RunGrid, Scale};

/// Two series over (llpd, congested-pair fraction): median and p90.
pub fn run(scale: Scale) -> Vec<Series> {
    let nets = scale.networks();
    let grid = RunGrid::with_schemes(&[(0.7, 1.0)], scale.tms_per_network(), &["SP"]);
    let records = run_grid(&nets, None, &grid, default_workers()).concat();
    let rows = by_llpd(&records, "SP", |r| r.congested_fraction);
    vec![
        Series::new("median", rows.iter().map(|&(l, m, _)| (l, m)).collect()),
        Series::new("p90", rows.iter().map(|&(l, _, p)| (l, p)).collect()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_llpd_networks_congest_more_under_sp() {
        let series = run(Scale::Quick);
        let median = &series[0].points;
        assert!(!median.is_empty());
        // The paper's claim: congestion under SP rises with LLPD. Compare
        // the low-LLPD third against the high-LLPD third.
        let third = (median.len() / 3).max(1);
        let low: f64 = median[..third].iter().map(|p| p.1).sum::<f64>() / third as f64;
        let hi_start = median.len() - third;
        let high: f64 = median[hi_start..].iter().map(|p| p.1).sum::<f64>() / third as f64;
        assert!(
            high >= low,
            "expected congestion to rise with LLPD: low {low:.3} vs high {high:.3}"
        );
    }
}
