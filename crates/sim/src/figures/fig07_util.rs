//! Figure 7: link-utilization CDFs on the GTS-like network (median traffic
//! matrix) under latency-optimal and MinMax placement.

use lowlat_core::eval::PlacementEval;
use lowlat_core::pathset::PathCache;
use lowlat_core::scale::min_cut_load;
use lowlat_core::schemes::latopt::LatencyOptimal;
use lowlat_core::schemes::minmax::MinMaxRouting;
use lowlat_core::schemes::RoutingScheme;
use lowlat_tmgen::{GravityTmGen, TmGenConfig};

use crate::output::Series;
use crate::runner::Scale;
use crate::stats::Cdf;

/// Two CDFs of link utilization; the paper reports means 0.32 (latency-
/// optimal) and 0.30 (MinMax) with the busiest links near 1.0 only under
/// latency-optimal routing.
pub fn run(_scale: Scale) -> Vec<Series> {
    let topo = lowlat_topology::zoo::named::gts_like();
    // One cache for the network: the scaling solve warms both placements.
    let cache = PathCache::new(topo.graph());
    let raw = GravityTmGen::new(TmGenConfig::default()).generate(&topo, 0);
    let tm = raw.scaled(0.7 / min_cut_load(&cache, &raw).expect("min-cut LP"));
    let mut out = Vec::new();
    for (name, placement) in [
        ("Latency-optimal", LatencyOptimal::default().place(&cache, &tm).expect("latopt")),
        ("MinMax", MinMaxRouting::unrestricted().place(&cache, &tm).expect("minmax")),
    ] {
        let ev = PlacementEval::evaluate(&topo, &tm, &placement);
        let cdf = Cdf::new(ev.utilizations().to_vec());
        let label = format!("{name}(mean={:.2})", cdf.mean());
        let pts = (0..=40)
            .map(|i| {
                let x = i as f64 / 40.0 * 1.05;
                (x, cdf.fraction_at_or_below(x))
            })
            .collect();
        out.push(Series::new(label, pts));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latopt_fills_busiest_links_harder_than_minmax() {
        let series = run(Scale::Quick);
        // Compare the fraction of links above 90% utilization.
        let frac_above_090 = |s: &Series| 1.0 - s.points.iter().find(|p| p.0 >= 0.9).unwrap().1;
        let latopt = frac_above_090(&series[0]);
        let minmax = frac_above_090(&series[1]);
        assert!(
            latopt >= minmax,
            "latency-optimal loads the busiest links at least as hard ({latopt} vs {minmax})"
        );
        // Figure 7: most links lightly loaded under both schemes.
        for s in &series {
            let below_half = s.points.iter().find(|p| p.0 >= 0.5).unwrap().1;
            assert!(below_half > 0.5, "most links under 50% in {}", s.name);
        }
    }
}
