//! Figure 18: effect of traffic locality on the median max flow stretch
//! (networks with LLPD > 0.5, load 0.7).

use lowlat_core::default_workers;
use lowlat_core::schemes::registry;

use crate::output::Series;
use crate::runner::{run_grid, RunGrid, Scale};
use crate::stats::median_of;

/// Locality values the paper sweeps.
pub const LOCALITIES: [f64; 5] = [0.0, 0.5, 1.0, 1.5, 2.0];

/// One series per scheme: (locality, median max stretch).
pub fn run(scale: Scale) -> Vec<Series> {
    let nets: Vec<_> =
        super::networks_with_llpd(scale, |l| l > 0.5).into_iter().map(|(t, _)| t).collect();
    let schemes = registry::schemes(&["B4", "LDR", "MinMax", "MinMaxK10"]);
    let mut per_scheme: Vec<(String, Vec<(f64, f64)>)> =
        schemes.iter().map(|s| (s.name(), Vec::new())).collect();
    for &locality in &LOCALITIES {
        let grid = RunGrid {
            load: 0.7,
            locality,
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
                points.push((locality, median_of(&vals)));
            }
        }
    }
    per_scheme.into_iter().map(|(n, p)| Series::new(n, p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ldr_dominates_minmax_across_localities() {
        // At Quick scale the medians ride one or two networks, so the
        // paper's smooth locality trends are noisy; what is robust is that
        // LDR (latency objective) never stretches more than MinMax
        // (latency only as tie-break) at any locality.
        let series = run(Scale::Quick);
        let get = |name: &str| series.iter().find(|s| s.name == name).unwrap();
        let (ldr, mm) = (get("LDR"), get("MinMax"));
        assert_eq!(ldr.points.len(), LOCALITIES.len());
        for (a, b) in ldr.points.iter().zip(&mm.points) {
            assert!(a.1 <= b.1 + 1e-6, "locality {}: LDR {} vs MinMax {}", a.0, a.1, b.1);
            assert!(a.1 >= 1.0 - 1e-9);
        }
    }
}
