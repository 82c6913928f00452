//! The latency-optimal scheme: Figure 12's LP driven by Figure 13's lazy
//! path generation, with the §4 headroom dial.

use lowlat_tmgen::TrafficMatrix;

use crate::pathgrow::{GrowRequest, GrowthConfig, SolveContext};
use crate::placement::Placement;
use crate::schemes::{RoutingScheme, SchemeError};
use crate::source::PathSource;

/// Latency-optimal routing (the paper's "Optimal latency" curves).
#[derive(Clone, Debug, Default)]
pub struct LatencyOptimal {
    /// Fraction of every link's capacity reserved as headroom (§4's dial).
    headroom: f64,
}

impl LatencyOptimal {
    /// Creates the scheme with a given headroom fraction (§4's dial).
    pub fn with_headroom(headroom: f64) -> Self {
        LatencyOptimal { headroom }
    }
}

impl RoutingScheme for LatencyOptimal {
    fn name(&self) -> String {
        let h = self.headroom;
        if h == 0.0 {
            "LatOpt".into()
        } else {
            format!("LatOpt-h{:02}", (h * 100.0).round() as u32)
        }
    }

    fn place_with_context(
        &self,
        source: &dyn PathSource,
        tm: &TrafficMatrix,
        ctx: &mut SolveContext,
    ) -> Result<Placement, SchemeError> {
        let config = GrowthConfig { headroom: self.headroom };
        Ok(GrowRequest::new(source, tm).config(&config).solve_with(ctx)?.placement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::PlacementEval;
    use crate::pathset::PathCache;
    use crate::schemes::sp::ShortestPathRouting;
    use lowlat_tmgen::{GravityTmGen, TmGenConfig};
    use lowlat_topology::zoo::named;

    #[test]
    fn never_worse_than_sp_on_congestion() {
        let topo = named::abilene();
        let cache = PathCache::new(topo.graph());
        let gen =
            GravityTmGen::new(TmGenConfig { total_volume_mbps: 60_000.0, ..Default::default() });
        let tm = gen.generate(&topo, 0);
        let sp = ShortestPathRouting.place(&cache, &tm).unwrap();
        let opt = LatencyOptimal::default().place(&cache, &tm).unwrap();
        let ev_sp = PlacementEval::evaluate(&topo, &tm, &sp);
        let ev_opt = PlacementEval::evaluate(&topo, &tm, &opt);
        assert!(ev_opt.max_utilization() <= ev_sp.max_utilization() + 1e-6);
        assert!(opt.validate(topo.graph(), &tm).is_ok());
    }

    #[test]
    fn headroom_dial_raises_latency_monotonically() {
        let topo = named::gts_like();
        let gen =
            GravityTmGen::new(TmGenConfig { total_volume_mbps: 40_000.0, ..Default::default() });
        let tm = gen.generate(&topo, 1);
        let mut last_stretch = 0.0;
        for h in [0.0, 0.23, 0.4] {
            let pl =
                LatencyOptimal::with_headroom(h).place(&PathCache::new(topo.graph()), &tm).unwrap();
            let ev = PlacementEval::evaluate(&topo, &tm, &pl);
            assert!(
                ev.latency_stretch() >= last_stretch - 1e-6,
                "headroom {h}: stretch {} under previous {last_stretch}",
                ev.latency_stretch()
            );
            last_stretch = ev.latency_stretch();
        }
    }
}
