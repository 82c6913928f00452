//! Figure 19: the Figure-3 shortest-path congestion data with the
//! Google-like global WAN added — among the top decile of the corpus by
//! LLPD (the paper's WAN tops its corpus at 0.875; ours reads 0.771 at
//! `--std`, below three synthetic networks), and unroutable with shortest
//! paths alone.

use lowlat_core::default_workers;

use crate::output::Series;
use crate::runner::{by_llpd, run_grid, RunGrid, Scale};

/// Figure-3 series plus a one-point "Google" series.
pub fn run(scale: Scale) -> Vec<Series> {
    let mut series = super::fig03_sp::run(scale);
    let google = lowlat_topology::zoo::named::google_like();
    let grid = RunGrid::with_schemes(0.7, 1.0, scale.tms_per_network(), &["SP"]);
    let records = run_grid(&[google], &grid, default_workers());
    let rows = by_llpd(&records, "SP", |r| r.congested_fraction);
    series.push(Series::new("Google", rows.iter().map(|&(l, m, _)| (l, m)).collect()));
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn google_like_has_top_llpd_and_congests_under_sp() {
        let series = run(Scale::Quick);
        let google = series.iter().find(|s| s.name == "Google").unwrap();
        let (llpd, congestion) = google.points[0];
        // Among the very top of the corpus by LLPD (paper: 0.875; our
        // corpus has one dense synthetic mesh slightly above it at Std
        // scale, so assert a top-decile position rather than the maximum)...
        let corpus: Vec<f64> = series[0].points.iter().map(|p| p.0).collect();
        let above = corpus.iter().filter(|&&l| l > llpd).count();
        assert!(
            above * 10 <= corpus.len(),
            "google llpd {llpd} should be top-decile ({above} of {} above)",
            corpus.len()
        );
        // ...and cannot be routed with shortest paths alone.
        assert!(congestion > 0.0, "SP must congest the Google-like WAN");
    }
}
