//! Figure 17: effect of load on the median max flow stretch (networks with
//! LLPD > 0.5).

use lowlat_core::default_workers;
use lowlat_core::schemes::registry;

use crate::output::Series;
use crate::runner::{run_grid, RunGrid, Scale};
use crate::stats::median_of;

/// Load levels (percent of min-cut utilization) the paper sweeps.
pub const LOADS: [f64; 4] = [0.6, 0.7, 0.8, 0.9];

/// One series per scheme: (load %, median max stretch across matrices).
/// Runs that fail to fit contribute a large sentinel stretch (they are the
/// reason B4's curve shoots up on a log axis).
pub fn run(scale: Scale) -> Vec<Series> {
    let nets: Vec<_> =
        super::networks_with_llpd(scale, |l| l > 0.5).into_iter().map(|(t, _)| t).collect();
    let schemes = registry::schemes(&["B4", "LDR", "MinMax", "MinMaxK10"]);
    let mut per_scheme: Vec<(String, Vec<(f64, f64)>)> =
        schemes.iter().map(|s| (s.name(), Vec::new())).collect();
    for &load in &LOADS {
        let grid = RunGrid {
            load,
            locality: 1.0,
            tms_per_network: scale.tms_per_network(),
            schemes: schemes.clone(),
        };
        let records = run_grid(&nets, &grid, default_workers());
        for (name, points) in per_scheme.iter_mut() {
            let vals: Vec<f64> = records
                .iter()
                .filter(|r| &r.scheme == name)
                .map(|r| if r.fits { r.max_flow_stretch } else { 50.0 })
                .collect();
            if !vals.is_empty() {
                points.push((load * 100.0, median_of(&vals)));
            }
        }
    }
    per_scheme.into_iter().map(|(n, p)| Series::new(n, p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn b4_degrades_fastest_with_load() {
        let series = run(Scale::Quick);
        let last = |name: &str| {
            series.iter().find(|s| s.name == name).and_then(|s| s.points.last()).map(|p| p.1)
        };
        let (b4, ldr) = (last("B4").unwrap(), last("LDR").unwrap());
        assert!(
            b4 >= ldr - 1e-9,
            "at 90% load B4 ({b4}) should be at least as stretched as LDR ({ldr})"
        );
    }
}
