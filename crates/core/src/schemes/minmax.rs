//! MinMax traffic engineering (TeXCP/MATE-style): minimize the maximum link
//! utilization, tie-break on latency (§3 "MinMax based routing").

use lowlat_tmgen::TrafficMatrix;

use crate::pathgrow::{GrowRequest, SolveContext};
use crate::placement::Placement;
use crate::schemes::{RoutingScheme, SchemeError};
use crate::source::PathSource;

/// MinMax utilization with latency tie-break. There is no headroom dial:
/// MinMax *is* the maximal-headroom extreme of §4's.
#[derive(Clone, Debug, Default)]
pub struct MinMaxRouting {
    /// Cap each aggregate's path set at the k lowest-delay paths, as TeXCP
    /// suggests with k = 10 (Figure 4d). `None` is pure MinMax (Figure 4c).
    k_limit: Option<usize>,
}

impl MinMaxRouting {
    /// Pure MinMax over all paths.
    pub fn unrestricted() -> Self {
        MinMaxRouting::default()
    }

    /// TeXCP-style MinMax restricted to the k shortest paths.
    ///
    /// # Panics
    /// Panics when `k == 0`.
    pub fn with_k(k: usize) -> Self {
        assert!(k >= 1);
        MinMaxRouting { k_limit: Some(k) }
    }
}

impl RoutingScheme for MinMaxRouting {
    fn name(&self) -> String {
        match self.k_limit {
            Some(k) => format!("MinMaxK{k}"),
            None => "MinMax".into(),
        }
    }

    fn place_with_context(
        &self,
        source: &dyn PathSource,
        tm: &TrafficMatrix,
        ctx: &mut SolveContext,
    ) -> Result<Placement, SchemeError> {
        Ok(GrowRequest::new(source, tm).minmax(self.k_limit).solve_with(ctx)?.placement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::PlacementEval;
    use crate::pathset::PathCache;
    use crate::schemes::latopt::LatencyOptimal;
    use lowlat_tmgen::{GravityTmGen, TmGenConfig};
    use lowlat_topology::zoo::named;

    #[test]
    fn minmax_never_congests_when_traffic_fits() {
        let topo = named::gts_like();
        let gen =
            GravityTmGen::new(TmGenConfig { total_volume_mbps: 30_000.0, ..Default::default() });
        let tm = gen.generate(&topo, 0);
        let pl = MinMaxRouting::unrestricted().place(&PathCache::new(topo.graph()), &tm).unwrap();
        let ev = PlacementEval::evaluate(&topo, &tm, &pl);
        // Figure 4c: MinMax shows no congestion (when the traffic fits).
        assert!(ev.fits(), "max util {}", ev.max_utilization());
    }

    #[test]
    fn minmax_trades_latency_for_headroom() {
        let topo = named::gts_like();
        let cache = PathCache::new(topo.graph());
        let gen =
            GravityTmGen::new(TmGenConfig { total_volume_mbps: 30_000.0, ..Default::default() });
        let tm = gen.generate(&topo, 0);
        let mm = MinMaxRouting::unrestricted().place(&cache, &tm).unwrap();
        let opt = LatencyOptimal::default().place(&cache, &tm).unwrap();
        let ev_mm = PlacementEval::evaluate(&topo, &tm, &mm);
        let ev_opt = PlacementEval::evaluate(&topo, &tm, &opt);
        // MinMax leaves more headroom...
        assert!(ev_mm.max_utilization() <= ev_opt.max_utilization() + 1e-6);
        // ...at equal or worse latency (§3's point, Figure 4c vs 4a).
        assert!(ev_mm.latency_stretch() >= ev_opt.latency_stretch() - 1e-6);
    }

    #[test]
    fn k_limit_bounds_path_choice() {
        let topo = named::abilene();
        let gen =
            GravityTmGen::new(TmGenConfig { total_volume_mbps: 40_000.0, ..Default::default() });
        let tm = gen.generate(&topo, 2);
        let pl = MinMaxRouting::with_k(2).place(&PathCache::new(topo.graph()), &tm).unwrap();
        for agg in pl.per_aggregate() {
            assert!(agg.splits.len() <= 2);
        }
        assert_eq!(MinMaxRouting::with_k(10).name(), "MinMaxK10");
        assert_eq!(MinMaxRouting::unrestricted().name(), "MinMax");
    }
}
