//! Figure 17: effect of load on the median max flow stretch (networks with
//! LLPD > 0.5).

use crate::output::Series;
use crate::runner::Scale;

/// Load levels (percent of min-cut utilization) the paper sweeps.
pub const LOADS: [f64; 4] = [0.6, 0.7, 0.8, 0.9];

/// One series per scheme: (load %, median max stretch across matrices).
pub fn run(scale: Scale) -> Vec<Series> {
    super::median_max_stretch_sweep(scale, &LOADS.map(|load| (load, 1.0)), |(load, _)| load * 100.0)
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
