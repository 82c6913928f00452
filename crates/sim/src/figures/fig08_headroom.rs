//! Figure 8: median change in total delay vs LLPD as headroom rises
//! (0%, 11%, 23%, 40%), at the lighter 0.6 min-cut load.

use lowlat_core::default_workers;

use crate::output::Series;
use crate::runner::{by_llpd, run_grid, RunGrid, Scale};

/// Headroom values the paper sweeps.
pub const HEADROOMS: [f64; 4] = [0.0, 0.11, 0.23, 0.40];

/// One series per headroom: (llpd, median latency stretch).
pub fn run(scale: Scale) -> Vec<Series> {
    let nets = scale.networks();
    let specs: Vec<String> =
        HEADROOMS.iter().map(|&h| format!("LatOpt-h{:02}", (h * 100.0).round() as u32)).collect();
    let spec_refs: Vec<&str> = specs.iter().map(String::as_str).collect();
    let grid = RunGrid::with_schemes(&[(0.6, 1.0)], scale.tms_per_network(), &spec_refs);
    let records = run_grid(&nets, None, &grid, default_workers()).concat();
    grid.schemes
        .iter()
        .zip(&HEADROOMS)
        .map(|(scheme, &h)| {
            let rows = by_llpd(&records, &scheme.name(), |r| r.latency_stretch);
            Series::new(
                format!("{}% headroom", (h * 100.0).round() as u32),
                rows.iter().map(|&(l, m, _)| (l, m)).collect(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stretch_rises_with_headroom_but_moderately() {
        let series = run(Scale::Quick);
        assert_eq!(series.len(), 4);
        let avg = |s: &Series| s.points.iter().map(|p| p.1).sum::<f64>() / s.points.len() as f64;
        // Monotone in headroom on average.
        for w in series.windows(2) {
            assert!(avg(&w[1]) >= avg(&w[0]) - 1e-6, "stretch should not drop as headroom grows");
        }
        // The paper's observation: moderate headroom costs little delay.
        assert!(
            avg(&series[1]) < avg(&series[0]) * 1.2 + 0.05,
            "11% headroom should cost only a little stretch"
        );
    }
}
