//! Figure 18: effect of traffic locality on the median max flow stretch
//! (networks with LLPD > 0.5, load 0.7).

use crate::output::Series;
use crate::runner::Scale;

/// Locality values the paper sweeps.
pub const LOCALITIES: [f64; 5] = [0.0, 0.5, 1.0, 1.5, 2.0];

/// One series per scheme: (locality, median max stretch).
pub fn run(scale: Scale) -> Vec<Series> {
    super::median_max_stretch_sweep(
        scale,
        &LOCALITIES.map(|locality| (0.7, locality)),
        |(_, locality)| locality,
    )
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
