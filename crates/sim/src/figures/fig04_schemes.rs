//! Figure 4 (a-d): congestion and latency stretch vs LLPD for the active
//! schemes — latency-optimal, B4, MinMax, MinMax K=10.

use lowlat_core::default_workers;

use crate::output::Series;
use crate::runner::{by_llpd, run_grid, RunGrid, Scale};

/// Per scheme, four series: congestion median/p90 and stretch median/p90,
/// all over LLPD.
pub fn run(scale: Scale) -> Vec<Series> {
    let nets = scale.networks();
    let grid = RunGrid::with_schemes(
        &[(0.7, 1.0)],
        scale.tms_per_network(),
        &["LatOpt", "B4", "MinMax", "MinMaxK10"],
    );
    let records = run_grid(&nets, None, &grid, default_workers()).concat();
    let mut series = Vec::new();
    for scheme in ["LatOpt", "B4", "MinMax", "MinMaxK10"] {
        let cong = by_llpd(&records, scheme, |r| r.congested_fraction);
        let stretch = by_llpd(&records, scheme, |r| r.latency_stretch);
        series.push(Series::new(
            format!("{scheme}/congested/median"),
            cong.iter().map(|&(l, m, _)| (l, m)).collect(),
        ));
        series.push(Series::new(
            format!("{scheme}/congested/p90"),
            cong.iter().map(|&(l, _, p)| (l, p)).collect(),
        ));
        series.push(Series::new(
            format!("{scheme}/stretch/median"),
            stretch.iter().map(|&(l, m, _)| (l, m)).collect(),
        ));
        series.push(Series::new(
            format!("{scheme}/stretch/p90"),
            stretch.iter().map(|&(l, _, p)| (l, p)).collect(),
        ));
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qualitative_shape_of_figure4() {
        let series = run(Scale::Quick);
        let get = |name: &str| {
            series
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing series {name}"))
        };
        // 4a: the optimal scheme never congests at 0.7 load.
        for (_, v) in &get("LatOpt/congested/median").points {
            assert!(*v < 1e-9, "optimal routing congested");
        }
        // 4c: MinMax never congests either...
        for (_, v) in &get("MinMax/congested/median").points {
            assert!(*v < 1e-9, "MinMax congested");
        }
        // ...but pays latency: median-of-medians stretch above LatOpt's.
        let avg = |pts: &[(f64, f64)]| pts.iter().map(|p| p.1).sum::<f64>() / pts.len() as f64;
        assert!(
            avg(&get("MinMax/stretch/median").points)
                >= avg(&get("LatOpt/stretch/median").points) - 1e-9
        );
    }
}
