//! Figure 20: latency benefits of growing a topology by LLPD-guided link
//! addition, per scheme: each point is a network's stretch before and
//! after growth. At `--std`, LDR's median stretch falls on all four grown
//! networks (e.g. 1.325 → 1.057), while MinMax's rises on one (1.302 →
//! 1.435). At `--quick` the claim does not hold on every network: LDR's
//! median rises slightly on the first grown network (1.084852 →
//! 1.085834).

use lowlat_core::default_workers;
use lowlat_core::growth::{grow_by_llpd, GrowthPlanConfig};
use lowlat_topology::Topology;

use crate::output::Series;
use crate::runner::{run_grid, RunGrid, Scale};
use crate::stats::{median_of, quantile_of};

/// Picks hard-to-route networks: high median latency stretch under the
/// latency-optimal scheme, cliques excluded (they cannot grow).
fn hard_networks(scale: Scale, count: usize) -> Vec<Topology> {
    let nets = scale.networks();
    let grid = RunGrid::with_schemes(&[(0.7, 1.0)], 1, &["LatOpt"]);
    let records = run_grid(&nets, None, &grid, default_workers()).concat();
    let mut scored: Vec<(f64, &str)> = records
        .iter()
        .filter(|r| r.class != lowlat_topology::zoo::ZooClass::Clique)
        .map(|r| (r.latency_stretch, r.network.as_str()))
        .collect();
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite"));
    scored.truncate(count);
    let names: Vec<String> = scored.iter().map(|(_, n)| n.to_string()).collect();
    nets.into_iter().filter(|t| names.iter().any(|n| n == t.name())).collect()
}

/// Per scheme, two series: median (before, after) stretch pairs, and p90
/// pairs. Points below the x=y diagonal mean the added links helped.
pub fn run(scale: Scale) -> Vec<Series> {
    let count = match scale {
        Scale::Quick => 2,
        _ => 4,
    };
    let originals = hard_networks(scale, count);
    let grown: Vec<Topology> =
        originals.iter().map(|t| grow_by_llpd(t, &GrowthPlanConfig::default()).topology).collect();

    let grid = RunGrid::with_schemes(
        &[(0.7, 1.0)],
        scale.tms_per_network(),
        &["LDR", "MinMax", "MinMaxK10", "B4"],
    );
    let before = run_grid(&originals, None, &grid, default_workers()).concat();
    // Replay the *same* matrices on the grown topologies: growth raises the
    // min-cut, so re-scaling on the grown network would inflate the load and
    // bury the latency benefit the figure is about.
    let after = run_grid(&grown, Some(&originals), &grid, default_workers()).concat();

    let mut out = Vec::new();
    for scheme in &grid.schemes {
        let name = scheme.name();
        let mut med_pts = Vec::new();
        let mut p90_pts = Vec::new();
        for (orig, new) in originals.iter().zip(&grown) {
            let vals = |records: &[crate::runner::RunRecord], net: &str| -> Vec<f64> {
                records
                    .iter()
                    .filter(|r| r.scheme == name && r.network == net)
                    .map(|r| r.latency_stretch)
                    .collect()
            };
            let b = vals(&before, orig.name());
            let a = vals(&after, new.name());
            if b.is_empty() || a.is_empty() {
                continue;
            }
            med_pts.push((median_of(&b), median_of(&a)));
            p90_pts.push((quantile_of(&b, 0.9), quantile_of(&a, 0.9)));
        }
        out.push(Series::new(format!("{name}/median"), med_pts));
        out.push(Series::new(format!("{name}/p90"), p90_pts));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ldr_converts_new_links_into_lower_stretch() {
        let series = run(Scale::Quick);
        let ldr = series.iter().find(|s| s.name == "LDR/median").unwrap();
        assert!(!ldr.points.is_empty());
        for &(before, after) in &ldr.points {
            assert!(
                after <= before + 0.05,
                "LDR after-growth stretch {after} should not exceed before {before}"
            );
        }
    }
}
