//! Traffic-matrix load scaling (§3).
//!
//! The paper scales each matrix "so that with optimal routing it is still
//! (just) possible to route the network without congestion if all traffic
//! increases by 30%", i.e. the min-cut (MinMax-optimal maximum utilization)
//! sits at 1/1.3 ≈ 0.77. Because utilization is linear in volume, one
//! MinMax solve gives the scale factor: `target / U*(tm)`.

use lowlat_netgraph::RangeError;
use lowlat_tmgen::TrafficMatrix;
use lowlat_topology::Topology;

use crate::pathgrow::GrowRequest;
use crate::pathset::PathCache;
use crate::schemes::SchemeError;
use crate::source::PathSource;

/// Maximum-utilization level of `tm` on the graph `source` serves under
/// (pure) MinMax routing — the paper's "min-cut load" of a traffic matrix.
pub fn min_cut_load(source: &dyn PathSource, tm: &TrafficMatrix) -> Result<f64, SchemeError> {
    let out = GrowRequest::new(source, tm).minmax(None).solve()?;
    // MinMax reports omax = max(U-1, 0); recover U from the placement,
    // against the capacities the LP posed: the effective ones (a downed
    // link carries nothing and has none).
    let loads = out.placement.link_loads(source.graph(), tm);
    let caps = source.effective_capacities();
    let u =
        loads.iter().zip(&caps).filter(|(_, &c)| c > 0.0).map(|(l, c)| l / c).fold(0.0, f64::max);
    Ok(u)
}

/// Extension: scale a matrix so its min-cut load hits `target` (0.7 in most
/// of the paper's figures, 0.6 in Figure 8).
pub trait ScaleToLoad {
    /// Returns a scaled copy with MinMax-optimal max utilization ≈ `target`.
    ///
    /// # Panics
    /// Panics if [`validate_target`] rejects `target` or the LP fails (the
    /// synthetic corpus never triggers the latter).
    fn scaled_to_load(&self, topology: &Topology, target: f64) -> TrafficMatrix;
}

/// Checks a target load for [`ScaleToLoad::scaled_to_load`], which panics
/// with the error's message; a caller holding outside input calls this
/// first.
pub fn validate_target(target: f64) -> Result<(), RangeError> {
    let in_range = target > 0.0 && target <= 1.0;
    RangeError::check(in_range, "load", target, "a value in (0, 1] of the min-cut load")
}

impl ScaleToLoad for TrafficMatrix {
    fn scaled_to_load(&self, topology: &Topology, target: f64) -> TrafficMatrix {
        validate_target(target).unwrap_or_else(|e| panic!("{e}"));
        let u = min_cut_load(&PathCache::new(topology.graph()), self)
            .expect("MinMax LP failed during scaling");
        assert!(u > 0.0, "matrix has no load");
        self.scaled(target / u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowlat_netgraph::FailureMask;
    use lowlat_tmgen::{GravityTmGen, TmGenConfig};
    use lowlat_topology::zoo::named;

    #[test]
    fn scaling_hits_target_utilization() {
        let topo = named::abilene();
        let gen = GravityTmGen::new(TmGenConfig::default());
        let tm = gen.generate(&topo, 0).scaled_to_load(&topo, 0.7);
        let u = min_cut_load(&PathCache::new(topo.graph()), &tm).unwrap();
        assert!((u - 0.7).abs() < 0.02, "min-cut load {u}");
    }

    #[test]
    fn linear_in_volume() {
        let topo = named::abilene();
        let gen = GravityTmGen::new(TmGenConfig::default());
        let tm = gen.generate(&topo, 1);
        let cache = PathCache::new(topo.graph());
        let u1 = min_cut_load(&cache, &tm).unwrap();
        let u2 = min_cut_load(&cache, &tm.scaled(2.0)).unwrap();
        assert!((u2 - 2.0 * u1).abs() < 0.02 * u2.max(1.0), "{u1} vs {u2}");
    }

    #[test]
    fn a_browned_out_source_is_judged_against_what_it_has_left() {
        // Every cable at half capacity: the same matrix loads the network
        // twice as hard (to the 1e-5 slack MinMax's stage 2 allows on U).
        // Judged against raw capacity it read 1x.
        let topo = named::abilene();
        let tm = GravityTmGen::new(TmGenConfig::default()).generate(&topo, 0);
        let cache = PathCache::new(topo.graph());
        let intact = min_cut_load(&cache, &tm).unwrap();
        let mut mask = FailureMask::new();
        for cable in topo.cables() {
            mask.degrade_cable(topo.graph(), cable, 0.5);
        }
        cache.apply_failure(&mask);
        let dimmed = min_cut_load(&cache, &tm).unwrap();
        assert!((dimmed - 2.0 * intact).abs() < 1e-4 * intact, "{intact} intact, {dimmed} dimmed");
    }
}
