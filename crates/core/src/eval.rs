//! Placement evaluation: the quantities the paper's figures plot, read in
//! one place.
//!
//! [`PlacementEval::under`] is the one reading of a placement. Stretch is
//! judged against the *intact* network's shortest delays (so a detour a
//! failure forces shows as stretch), and load against the *effective*
//! capacities a [`FailureMask`] leaves (a downed link has none, a
//! browned-out one a fraction). The sweeps and figures call it through
//! [`PlacementEval::evaluate`], with the topology's own delay table
//! ([`Topology::intact_delays`]) and nothing failed; the failure axis reads
//! it through [`FailureImpact`], and the timeline once a minute with the
//! mask in force. A path counts as used when its split is live
//! ([`LIVE_SPLIT`](crate::placement::LIVE_SPLIT)).

use lowlat_netgraph::{FailureMask, Graph};
use lowlat_tmgen::TrafficMatrix;
use lowlat_topology::Topology;

use crate::failure::FailureImpact;
use crate::placement::Placement;

/// Relative tolerance above which a link counts as congested.
pub const CONGESTION_TOL: f64 = 1e-6;

/// Metrics of one placement on one (topology, traffic matrix) pair.
#[derive(Clone, Debug)]
pub struct PlacementEval {
    congested_pairs: usize,
    total_pairs: usize,
    latency_stretch: f64,
    max_flow_stretch: f64,
    utilizations: Vec<f64>,
    fits: bool,
}

impl PlacementEval {
    /// Evaluates `placement` for `tm` on the intact `topology`:
    /// [`PlacementEval::under`] with the topology's own shortest delays
    /// and nothing failed.
    pub fn evaluate(topology: &Topology, tm: &TrafficMatrix, placement: &Placement) -> Self {
        let intact = FailureMask::new();
        Self::under(topology.graph(), topology.intact_delays(), &intact, tm, placement)
    }

    /// Evaluates `placement` for `tm` on `graph` under `mask`, against
    /// `intact_delays`, the intact network's all-pairs shortest delays
    /// ([`Topology::intact_delays`]).
    ///
    /// * **congested pair fraction** — aggregates whose traffic crosses at
    ///   least one link loaded beyond capacity (Figures 3, 4 top halves).
    /// * **latency stretch** — `Σ_f d_f / Σ_f d_f,sp` over all flows, where
    ///   an aggregate's flows see its volume-weighted mean path delay
    ///   (Figures 4 bottom halves, 8); 1 for a matrix with no flows.
    /// * **max flow stretch** — worst used-path delay over shortest-path
    ///   delay, over all aggregates (Figures 16, 17, 18).
    /// * **utilizations** — per-link load over effective capacity under
    ///   `mask` (Figure 7). An idle link reads 0; a loaded link with no
    ///   capacity left reads [`FailureImpact::INFINITE_OVERLOAD`], never
    ///   NaN.
    /// * **fits** — true when no link is loaded beyond capacity.
    pub fn under(
        graph: &Graph,
        intact_delays: &[Vec<f64>],
        mask: &FailureMask,
        tm: &TrafficMatrix,
        placement: &Placement,
    ) -> Self {
        debug_assert!(placement.validate(graph, tm).is_ok());
        let loads = placement.link_loads(graph, tm);
        let mut congested_link = vec![false; graph.link_count()];
        let mut utilizations = vec![0.0; graph.link_count()];
        for l in graph.link_ids() {
            let load = loads[l.idx()];
            // Idle links stay at 0 before any division: a downed one (no
            // capacity) matters only when something is placed on it.
            if load <= 0.0 {
                continue;
            }
            let cap = mask.effective_capacity(graph, l);
            utilizations[l.idx()] =
                if cap > 0.0 { load / cap } else { FailureImpact::INFINITE_OVERLOAD };
            congested_link[l.idx()] = load > cap * (1.0 + CONGESTION_TOL);
        }
        let fits = !congested_link.iter().any(|&c| c);

        let mut congested_pairs = 0;
        let mut weighted_delay = 0.0;
        let mut weighted_sp = 0.0;
        let mut max_flow_stretch: f64 = 1.0;
        for (agg, pl) in tm.aggregates().iter().zip(placement.per_aggregate()) {
            let sp = intact_delays[agg.src.idx()][agg.dst.idx()];
            debug_assert!(sp.is_finite() && sp > 0.0);
            let crosses_congestion = pl
                .live_splits()
                .any(|(path, _)| path.links().iter().any(|&l| congested_link[l.idx()]));
            congested_pairs += usize::from(crosses_congestion);
            let n = agg.flow_count as f64;
            weighted_delay += n * pl.mean_delay_ms();
            weighted_sp += n * sp;
            max_flow_stretch = max_flow_stretch.max(pl.max_delay_ms() / sp);
        }
        let latency_stretch = if weighted_sp > 0.0 { weighted_delay / weighted_sp } else { 1.0 };
        PlacementEval {
            congested_pairs,
            total_pairs: tm.aggregates().len(),
            latency_stretch,
            max_flow_stretch,
            utilizations,
            fits,
        }
    }

    /// Fraction of source-destination pairs crossing a saturated link.
    pub fn congested_pair_fraction(&self) -> f64 {
        if self.total_pairs == 0 {
            0.0
        } else {
            self.congested_pairs as f64 / self.total_pairs as f64
        }
    }

    /// Flow-weighted latency stretch `Σ n_a d_a / Σ n_a S_a` (>= 1 up to LP
    /// tolerance).
    pub fn latency_stretch(&self) -> f64 {
        self.latency_stretch
    }

    /// Maximum over aggregates of (worst used path delay / shortest delay).
    pub fn max_flow_stretch(&self) -> f64 {
        self.max_flow_stretch
    }

    /// Per-link utilization (load / capacity).
    pub fn utilizations(&self) -> &[f64] {
        &self.utilizations
    }

    /// Highest link utilization.
    pub fn max_utilization(&self) -> f64 {
        self.utilizations.iter().cloned().fold(0.0, f64::max)
    }

    /// True when no link exceeds its capacity.
    pub fn fits(&self) -> bool {
        self.fits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::AggregatePlacement;
    use lowlat_netgraph::{NodeId, Path};
    use lowlat_tmgen::Aggregate;
    use lowlat_topology::{GeoPoint, TopologyBuilder};

    /// Triangle where A-C direct is slow, A-B-C is fast.
    fn setup(volume: f64) -> (Topology, TrafficMatrix) {
        let mut b = TopologyBuilder::new("t");
        let a = b.add_pop("A", GeoPoint::new(40.0, -100.0));
        let p = b.add_pop("B", GeoPoint::new(41.0, -97.0));
        let c = b.add_pop("C", GeoPoint::new(40.0, -94.0));
        b.connect_with_delay(a, p, 1.0, 100.0);
        b.connect_with_delay(p, c, 1.0, 100.0);
        b.connect_with_delay(a, c, 5.0, 100.0);
        (
            b.build(),
            TrafficMatrix::new(vec![Aggregate {
                src: NodeId(0),
                dst: NodeId(2),
                volume_mbps: volume,
                flow_count: 10,
            }]),
        )
    }

    fn place_on_shortest(topo: &Topology, tm: &TrafficMatrix) -> Placement {
        let g = topo.graph();
        let l01 = g.find_link(NodeId(0), NodeId(1)).unwrap();
        let l12 = g.find_link(NodeId(1), NodeId(2)).unwrap();
        let _ = tm;
        Placement::new(vec![AggregatePlacement {
            splits: vec![(Path::new(g, vec![l01, l12]), 1.0)],
        }])
    }

    #[test]
    fn uncongested_shortest_placement() {
        let (topo, tm) = setup(50.0);
        let pl = place_on_shortest(&topo, &tm);
        let ev = PlacementEval::evaluate(&topo, &tm, &pl);
        assert_eq!(ev.congested_pair_fraction(), 0.0);
        assert!((ev.latency_stretch() - 1.0).abs() < 1e-9);
        assert!((ev.max_flow_stretch() - 1.0).abs() < 1e-9);
        assert!(ev.fits());
        assert!((ev.max_utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn overloaded_link_counts_pair_congested() {
        let (topo, tm) = setup(150.0);
        let pl = place_on_shortest(&topo, &tm);
        let ev = PlacementEval::evaluate(&topo, &tm, &pl);
        assert_eq!(ev.congested_pair_fraction(), 1.0);
        assert!(!ev.fits());
        assert!(ev.max_utilization() > 1.4);
    }

    #[test]
    fn an_empty_matrix_has_stretch_one_and_nothing_congested() {
        let (topo, _) = setup(50.0);
        let ev =
            PlacementEval::evaluate(&topo, &TrafficMatrix::new(vec![]), &Placement::new(vec![]));
        assert_eq!(ev.latency_stretch(), 1.0);
        assert_eq!(ev.max_flow_stretch(), 1.0);
        assert_eq!(ev.congested_pair_fraction(), 0.0);
        assert!(ev.fits());
        assert_eq!(ev.max_utilization(), 0.0);
    }

    #[test]
    fn a_downed_link_reads_infinite_when_loaded_and_zero_when_idle() {
        let (topo, tm) = setup(50.0);
        let pl = place_on_shortest(&topo, &tm);
        let g = topo.graph();
        let (l01, direct) = (
            g.find_link(NodeId(0), NodeId(1)).unwrap(),
            g.find_link(NodeId(0), NodeId(2)).unwrap(),
        );
        let mut mask = FailureMask::new();
        mask.fail_cable(g, l01);
        mask.fail_cable(g, direct);
        let ev = PlacementEval::under(g, topo.intact_delays(), &mask, &tm, &pl);
        assert_eq!(ev.utilizations()[l01.idx()], f64::INFINITY, "loaded and down");
        assert_eq!(ev.max_utilization(), FailureImpact::INFINITE_OVERLOAD);
        assert!(!ev.fits());
        assert_eq!(ev.congested_pair_fraction(), 1.0);
        for idle in [direct, topo.reverse_link(l01), topo.reverse_link(direct)] {
            assert_eq!(ev.utilizations()[idle.idx()], 0.0, "idle and down: 0, not NaN");
        }
        // Stretch is judged against the intact delays, whatever the mask.
        assert_eq!(
            ev.latency_stretch(),
            PlacementEval::evaluate(&topo, &tm, &pl).latency_stretch()
        );
    }

    #[test]
    fn detour_shows_stretch() {
        let (topo, tm) = setup(50.0);
        let g = topo.graph();
        let direct = g.find_link(NodeId(0), NodeId(2)).unwrap();
        let pl = Placement::new(vec![AggregatePlacement {
            splits: vec![(Path::new(g, vec![direct]), 1.0)],
        }]);
        let ev = PlacementEval::evaluate(&topo, &tm, &pl);
        // Direct 5 ms vs shortest 2 ms.
        assert!((ev.latency_stretch() - 2.5).abs() < 1e-9);
        assert!((ev.max_flow_stretch() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn split_placement_weights_delay() {
        let (topo, tm) = setup(50.0);
        let g = topo.graph();
        let l01 = g.find_link(NodeId(0), NodeId(1)).unwrap();
        let l12 = g.find_link(NodeId(1), NodeId(2)).unwrap();
        let direct = g.find_link(NodeId(0), NodeId(2)).unwrap();
        let pl = Placement::new(vec![AggregatePlacement {
            splits: vec![(Path::new(g, vec![l01, l12]), 0.5), (Path::new(g, vec![direct]), 0.5)],
        }]);
        let ev = PlacementEval::evaluate(&topo, &tm, &pl);
        // Mean delay (2+5)/2 = 3.5 over sp 2 => 1.75; max stretch 2.5.
        assert!((ev.latency_stretch() - 1.75).abs() < 1e-9);
        assert!((ev.max_flow_stretch() - 2.5).abs() < 1e-9);
    }
}
