//! Figure 15: run time of the optimization algorithms on the hardest
//! networks (LLPD > 0.5): LDR with a warm k-shortest-path cache, LDR cold,
//! and the link-based MCF formulation.

use std::time::Instant;

use lowlat_core::pathset::PathCache;
use lowlat_core::scale::min_cut_load;
use lowlat_core::schemes::ldr::Ldr;
use lowlat_core::schemes::linkbased::LinkBasedOptimal;
use lowlat_core::schemes::RoutingScheme;
use lowlat_tmgen::{GravityTmGen, TmGenConfig};

use crate::output::Series;
use crate::runner::Scale;
use crate::stats::Cdf;

/// Pop-count cap for the link-based baseline at Std scale: its basis is
/// O(pops²) rows, so the largest corpus networks take minutes per solve —
/// which is the figure's very point, but `--std` keeps a ceiling so the
/// sweep finishes; `--full` lifts it.
const LINK_BASED_POP_CAP_STD: usize = 40;

/// Three runtime CDFs (milliseconds, log-friendly).
pub fn run(scale: Scale) -> Vec<Series> {
    // Quick mode pins two mid-size high-LLPD networks so the comparison is
    // deterministic; the larger scales use the LLPD > 0.5 corpus subset as
    // in the paper.
    let nets: Vec<(lowlat_topology::Topology, f64)> = match scale {
        Scale::Quick => vec![
            (lowlat_topology::zoo::named::gts_like(), 0.6),
            (lowlat_topology::zoo::named::cogent_like(), 0.6),
        ],
        _ => super::networks_with_llpd(scale, |l| l > 0.5),
    };
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    let mut link_based = Vec::new();
    let gen = GravityTmGen::new(TmGenConfig::default());
    for (topo, _) in &nets {
        let cache = PathCache::new(topo.graph());
        let raw = gen.generate(topo, 0);
        let Ok(u0) = min_cut_load(&cache, &raw) else { continue };
        let tm = raw.scaled(0.7 / u0.max(1e-9));

        // Cold: fresh cache, first run.
        let fresh = PathCache::new(topo.graph());
        let t0 = Instant::now();
        let _ = Ldr::default().place(&fresh, &tm);
        cold.push(t0.elapsed().as_secs_f64() * 1000.0);

        // Warm: the same cache again (the scaling pass above plus the cold
        // run populated `fresh`; reuse it).
        let t0 = Instant::now();
        let _ = Ldr::default().place(&fresh, &tm);
        warm.push(t0.elapsed().as_secs_f64() * 1000.0);

        let cap = match scale {
            Scale::Full => usize::MAX,
            _ => LINK_BASED_POP_CAP_STD,
        };
        if topo.pop_count() <= cap {
            let t0 = Instant::now();
            // The link-based LP borrows the source's graph, never its paths.
            let _ = LinkBasedOptimal::default().place(&cache, &tm);
            link_based.push(t0.elapsed().as_secs_f64() * 1000.0);
        }
    }
    let mut out = Vec::new();
    for (name, samples) in [("LDR", warm), ("LDR-cold", cold), ("LinkBased", link_based)] {
        if samples.is_empty() {
            continue;
        }
        let cdf = Cdf::new(samples);
        out.push(Series::new(name, cdf.points(24)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ldr_is_much_faster_than_link_based() {
        let series = run(Scale::Quick);
        let median = |name: &str| {
            let s = series.iter().find(|s| s.name == name).unwrap();
            s.points[s.points.len() / 2].0
        };
        let warm = median("LDR");
        let lb = median("LinkBased");
        assert!(lb > 3.0 * warm, "link-based should be far slower: {lb:.1} ms vs {warm:.1} ms");
        // Warm cache never slower than cold on the median.
        assert!(median("LDR") <= median("LDR-cold") * 1.5 + 5.0);
    }
}
