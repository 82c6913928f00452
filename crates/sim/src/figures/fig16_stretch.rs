//! Figure 16 (a-c): CDFs of the maximum path stretch per traffic matrix,
//! split by LLPD band and headroom. Where a scheme could not fit the
//! traffic the CDF saturates below 1.0 — exactly how the paper renders
//! B4's and MinMaxK10's failures.

use lowlat_core::default_workers;

use crate::output::Series;
use crate::runner::{run_grid, RunGrid, Scale};

/// Which panel of the figure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Panel {
    /// (a) LLPD < 0.5, no headroom.
    LowLlpd,
    /// (b) LLPD > 0.5, no headroom.
    HighLlpd,
    /// (c) LLPD > 0.5, 10% headroom on every scheme that takes one.
    HighLlpdHeadroom,
}

/// One CDF per scheme (B4, LDR, MinMaxK10, MinMax).
pub fn run(scale: Scale, panel: Panel) -> Vec<Series> {
    let keep_low = matches!(panel, Panel::LowLlpd);
    let nets: Vec<_> = super::networks_with_llpd(scale, |l| (l < 0.5) == keep_low)
        .into_iter()
        .map(|(t, _)| t)
        .collect();
    let specs: &[&str] = if matches!(panel, Panel::HighLlpdHeadroom) {
        &["B4-h10", "LDR-h10", "MinMaxK10", "MinMax"]
    } else {
        &["B4", "LDR-h00", "MinMaxK10", "MinMax"]
    };
    let grid = RunGrid::with_schemes(&[(0.7, 1.0)], scale.tms_per_network(), specs);
    let records = run_grid(&nets, None, &grid, default_workers()).concat();
    grid.schemes
        .iter()
        .map(|scheme| {
            let name = scheme.name();
            // A run that does not fit contributes no stretch sample but
            // still counts in the denominator: the CDF tops out below 1.
            let all: Vec<&crate::runner::RunRecord> =
                records.iter().filter(|r| r.scheme == name).collect();
            let total = all.len().max(1);
            let mut fitting: Vec<f64> =
                all.iter().filter(|r| r.fits).map(|r| r.max_flow_stretch).collect();
            fitting.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let pts = fitting
                .iter()
                .enumerate()
                .map(|(i, &x)| (x, (i + 1) as f64 / total as f64))
                .collect();
            Series::new(display_name(&name), pts)
        })
        .collect()
}

fn display_name(name: &str) -> String {
    // The figure legend drops headroom suffixes: the 10%-headroom B4 is
    // just "B4", the zero-headroom LDR just "LDR".
    if name.starts_with("B4") {
        "B4".into()
    } else if name.starts_with("LDR") {
        "LDR".into()
    } else {
        name.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_llpd_minmax_and_ldr_always_fit() {
        let series = run(Scale::Quick, Panel::HighLlpd);
        let top = |name: &str| {
            series
                .iter()
                .find(|s| s.name == name)
                .and_then(|s| s.points.last().map(|p| p.1))
                .unwrap_or(0.0)
        };
        // Figure 16b: MinMax and LDR reach 1.0; B4/MinMaxK10 may not.
        assert!(top("MinMax") >= 0.999, "MinMax CDF tops at {}", top("MinMax"));
        assert!(top("LDR") >= 0.999, "LDR CDF tops at {}", top("LDR"));
        assert!(top("B4") <= 1.0 + 1e-9);
    }
}
