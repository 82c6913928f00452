//! Traffic placements: the output of every routing scheme.

use lowlat_netgraph::{Graph, Path};
use lowlat_tmgen::TrafficMatrix;

/// How one aggregate's traffic is split over paths.
#[derive(Clone, Debug)]
pub struct AggregatePlacement {
    /// `(path, fraction)` pairs; fractions are non-negative and sum to 1.
    pub splits: Vec<(Path, f64)>,
}

impl AggregatePlacement {
    /// Volume-weighted mean propagation delay of this aggregate (ms).
    pub fn mean_delay_ms(&self) -> f64 {
        self.splits.iter().map(|(p, x)| p.delay_ms() * x).sum()
    }

    /// Worst-case (maximum) delay over paths actually used.
    pub fn max_delay_ms(&self) -> f64 {
        self.splits.iter().filter(|(_, x)| *x > 1e-9).map(|(p, _)| p.delay_ms()).fold(0.0, f64::max)
    }
}

/// Split weights below this are treated as "path not installed" throughout
/// the churn accounting (matching the `> 1e-9` convention the evaluators
/// use for "path actually carries traffic").
const INSTALL_EPS: f64 = 1e-9;
/// Weight shifts below this do not count as a re-program: LP round-off
/// between equivalent vertices is noise, not churn (the placement
/// validator itself only holds split sums to 1e-6).
const REWEIGHT_EPS: f64 = 1e-6;

/// What changed between two placements of the same aggregate set — the
/// churn a controller would push to the switches when replacing one with
/// the other: paths newly installed, paths uninstalled, surviving paths
/// whose split weight was re-programmed, and how much traffic volume moved
/// onto different paths. Accumulated per minute by the timeline controller
/// and reported as the `paths_changed` / `moved_volume_fraction` columns.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PlacementDelta {
    /// Paths carrying traffic in the new placement but not the old.
    pub paths_added: usize,
    /// Paths carrying traffic in the old placement but not the new.
    pub paths_removed: usize,
    /// Paths present in both whose split weight shifted by more than the
    /// re-weight tolerance.
    pub paths_reweighted: usize,
    /// Offered volume (Mbps) that moved onto different paths or shares:
    /// per aggregate, `volume * Σ_p max(0, x_new(p) − x_old(p))`.
    pub moved_volume_mbps: f64,
    /// Total offered volume (Mbps) of the aggregates compared — the
    /// denominator of [`PlacementDelta::moved_volume_fraction`].
    pub total_volume_mbps: f64,
}

impl PlacementDelta {
    /// Total switch operations: installs + uninstalls + re-programs.
    pub fn paths_changed(&self) -> usize {
        self.paths_added + self.paths_removed + self.paths_reweighted
    }

    /// Fraction of the compared volume that moved (0 when nothing was
    /// compared).
    pub fn moved_volume_fraction(&self) -> f64 {
        if self.total_volume_mbps > 0.0 {
            self.moved_volume_mbps / self.total_volume_mbps
        } else {
            0.0
        }
    }

    /// Folds another delta into this one (summing counters and volumes).
    pub fn accumulate(&mut self, other: &PlacementDelta) {
        self.paths_added += other.paths_added;
        self.paths_removed += other.paths_removed;
        self.paths_reweighted += other.paths_reweighted;
        self.moved_volume_mbps += other.moved_volume_mbps;
        self.total_volume_mbps += other.total_volume_mbps;
    }

    /// The churn of replacing `prev` with `new` for one aggregate carrying
    /// `volume_mbps`. `prev = None` models a fresh install: every used path
    /// counts as added and the whole volume as moved. Paths are identified
    /// by their link sequence.
    pub fn of_aggregate(
        prev: Option<&AggregatePlacement>,
        new: &AggregatePlacement,
        volume_mbps: f64,
    ) -> PlacementDelta {
        let mut delta = PlacementDelta { total_volume_mbps: volume_mbps, ..Default::default() };
        let empty: &[(Path, f64)] = &[];
        let prev_splits = prev.map_or(empty, |p| p.splits.as_slice());
        let mut moved_fraction = 0.0f64;
        for (path, x_new) in &new.splits {
            if *x_new <= INSTALL_EPS {
                continue;
            }
            let x_old = prev_splits
                .iter()
                .find(|(p, x)| *x > INSTALL_EPS && p.links() == path.links())
                .map(|(_, x)| *x);
            match x_old {
                None => {
                    delta.paths_added += 1;
                    moved_fraction += x_new;
                }
                Some(x_old) => {
                    if (x_new - x_old).abs() > REWEIGHT_EPS {
                        delta.paths_reweighted += 1;
                    }
                    moved_fraction += (x_new - x_old).max(0.0);
                }
            }
        }
        for (path, x_old) in prev_splits {
            if *x_old <= INSTALL_EPS {
                continue;
            }
            let survives =
                new.splits.iter().any(|(p, x)| *x > INSTALL_EPS && p.links() == path.links());
            if !survives {
                delta.paths_removed += 1;
            }
        }
        delta.moved_volume_mbps = volume_mbps * moved_fraction;
        delta
    }
}

/// A complete traffic placement: one [`AggregatePlacement`] per aggregate of
/// the traffic matrix, in the same order as
/// [`TrafficMatrix::aggregates`].
#[derive(Clone, Debug)]
pub struct Placement {
    per_aggregate: Vec<AggregatePlacement>,
}

impl Placement {
    /// Wraps per-aggregate splits (aligned with the traffic matrix).
    pub fn new(per_aggregate: Vec<AggregatePlacement>) -> Self {
        Placement { per_aggregate }
    }

    /// Splits for every aggregate.
    pub fn per_aggregate(&self) -> &[AggregatePlacement] {
        &self.per_aggregate
    }

    /// Splits for aggregate `i`.
    pub fn aggregate(&self, i: usize) -> &AggregatePlacement {
        &self.per_aggregate[i]
    }

    /// Total load each directed link carries under this placement (Mbps,
    /// indexed by link id).
    pub fn link_loads(&self, graph: &Graph, tm: &TrafficMatrix) -> Vec<f64> {
        let mut loads = vec![0.0; graph.link_count()];
        for (agg, placement) in tm.aggregates().iter().zip(&self.per_aggregate) {
            for (path, fraction) in &placement.splits {
                let volume = agg.volume_mbps * fraction;
                if volume > 0.0 {
                    for &l in path.links() {
                        loads[l.idx()] += volume;
                    }
                }
            }
        }
        loads
    }

    /// Fraction of aggregate `i` crossing each link (sparse). Used by LDR's
    /// multiplexing check to scale trace samples per link.
    pub fn link_fractions_of(&self, i: usize) -> std::collections::HashMap<u32, f64> {
        let mut out = std::collections::HashMap::new();
        for (path, fraction) in &self.per_aggregate[i].splits {
            if *fraction > 1e-12 {
                for &l in path.links() {
                    *out.entry(l.0).or_insert(0.0) += fraction;
                }
            }
        }
        out
    }

    /// Every aggregate's [`Placement::link_fractions_of`] at once, turned
    /// around: `per_link[l]` lists `(aggregate, fraction)` for the
    /// aggregates crossing link `l`, in ascending aggregate order, each
    /// fraction accumulated over the splits in split order — the same
    /// floats, without a map per aggregate. Refills `per_link` in place
    /// (one slot per link of the graph) so a loop can reuse it.
    pub fn link_incidence_into(&self, per_link: &mut [Vec<(usize, f64)>]) {
        per_link.iter_mut().for_each(Vec::clear);
        for (a, placement) in self.per_aggregate.iter().enumerate() {
            for (path, fraction) in &placement.splits {
                if *fraction > 1e-12 {
                    for &l in path.links() {
                        match per_link[l.idx()].last_mut() {
                            Some((last, x)) if *last == a => *x += fraction,
                            _ => per_link[l.idx()].push((a, *fraction)),
                        }
                    }
                }
            }
        }
    }

    /// The churn of replacing `prev` with `self`, both placed for `tm`
    /// (same aggregates, same order): the install/uninstall/re-program
    /// operations a controller would push plus the volume that moved. See
    /// [`PlacementDelta`].
    ///
    /// # Panics
    /// Panics if the two placements or the matrix disagree on aggregate
    /// count.
    pub fn delta(&self, prev: &Placement, tm: &TrafficMatrix) -> PlacementDelta {
        assert_eq!(self.per_aggregate.len(), prev.per_aggregate.len(), "placement shapes differ");
        assert_eq!(self.per_aggregate.len(), tm.aggregates().len(), "matrix shape differs");
        let mut total = PlacementDelta::default();
        for ((agg, new), old) in
            tm.aggregates().iter().zip(&self.per_aggregate).zip(&prev.per_aggregate)
        {
            total.accumulate(&PlacementDelta::of_aggregate(Some(old), new, agg.volume_mbps));
        }
        total
    }

    /// Checks structural invariants against the matrix it was computed for:
    /// alignment, endpoints, loopless valid paths, fractions in `[0, 1]`
    /// summing to 1. Returns the first violation.
    pub fn validate(&self, graph: &Graph, tm: &TrafficMatrix) -> Result<(), String> {
        if self.per_aggregate.len() != tm.aggregates().len() {
            return Err(format!(
                "placement covers {} aggregates, matrix has {}",
                self.per_aggregate.len(),
                tm.aggregates().len()
            ));
        }
        for (i, (agg, pl)) in tm.aggregates().iter().zip(&self.per_aggregate).enumerate() {
            if pl.splits.is_empty() {
                return Err(format!("aggregate {i} has no paths"));
            }
            let mut total = 0.0;
            for (path, x) in &pl.splits {
                if !(-1e-9..=1.0 + 1e-9).contains(x) {
                    return Err(format!("aggregate {i} fraction {x} out of range"));
                }
                total += x;
                if path.src() != agg.src || path.dst() != agg.dst {
                    return Err(format!("aggregate {i} path endpoints mismatch"));
                }
                path.validate(graph).map_err(|e| format!("aggregate {i}: {e}"))?;
            }
            if (total - 1.0).abs() > 1e-6 {
                return Err(format!("aggregate {i} fractions sum to {total}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowlat_netgraph::NodeId;
    use lowlat_tmgen::Aggregate;
    use lowlat_topology::{GeoPoint, TopologyBuilder};

    fn setup() -> (lowlat_topology::Topology, TrafficMatrix) {
        let mut b = TopologyBuilder::new("t");
        let a = b.add_pop("A", GeoPoint::new(40.0, -100.0));
        let c = b.add_pop("B", GeoPoint::new(40.0, -95.0));
        let d = b.add_pop("C", GeoPoint::new(40.0, -90.0));
        b.connect(a, c, 100.0);
        b.connect(c, d, 100.0);
        b.connect(a, d, 100.0);
        let topo = b.build();
        let tm = TrafficMatrix::new(vec![Aggregate {
            src: NodeId(0),
            dst: NodeId(2),
            volume_mbps: 60.0,
            flow_count: 12,
        }]);
        (topo, tm)
    }

    #[test]
    fn loads_and_fractions() {
        let (topo, tm) = setup();
        let g = topo.graph();
        let direct = g.find_link(NodeId(0), NodeId(2)).unwrap();
        let l01 = g.find_link(NodeId(0), NodeId(1)).unwrap();
        let l12 = g.find_link(NodeId(1), NodeId(2)).unwrap();
        let p_direct = Path::new(g, vec![direct]);
        let p_via = Path::new(g, vec![l01, l12]);
        let pl = Placement::new(vec![AggregatePlacement {
            splits: vec![(p_direct, 0.75), (p_via, 0.25)],
        }]);
        assert!(pl.validate(g, &tm).is_ok());
        let loads = pl.link_loads(g, &tm);
        assert!((loads[direct.idx()] - 45.0).abs() < 1e-9);
        assert!((loads[l01.idx()] - 15.0).abs() < 1e-9);
        let fr = pl.link_fractions_of(0);
        assert!((fr[&direct.0] - 0.75).abs() < 1e-12);
        assert!((fr[&l12.0] - 0.25).abs() < 1e-12);
        // The per-link view holds the same floats, turned around.
        let mut per_link = vec![vec![(9, 9.0)]; g.link_count()];
        pl.link_incidence_into(&mut per_link);
        for (l, members) in per_link.iter().enumerate() {
            let expect: Vec<(usize, f64)> =
                fr.get(&(l as u32)).map(|&x| (0, x)).into_iter().collect();
            assert_eq!(members, &expect, "link {l}");
        }
        // Delay accounting.
        assert!(pl.aggregate(0).mean_delay_ms() > 0.0);
        assert!(pl.aggregate(0).max_delay_ms() >= pl.aggregate(0).mean_delay_ms());
    }

    #[test]
    fn delta_counts_installs_uninstalls_and_moves() {
        let (topo, tm) = setup();
        let g = topo.graph();
        let direct = g.find_link(NodeId(0), NodeId(2)).unwrap();
        let l01 = g.find_link(NodeId(0), NodeId(1)).unwrap();
        let l12 = g.find_link(NodeId(1), NodeId(2)).unwrap();
        let p_direct = Path::new(g, vec![direct]);
        let p_via = Path::new(g, vec![l01, l12]);
        let all_direct =
            Placement::new(vec![AggregatePlacement { splits: vec![(p_direct.clone(), 1.0)] }]);
        let split = Placement::new(vec![AggregatePlacement {
            splits: vec![(p_direct.clone(), 0.75), (p_via.clone(), 0.25)],
        }]);
        // Same placement: zero churn.
        let zero = all_direct.delta(&all_direct, &tm);
        assert_eq!(zero.paths_changed(), 0);
        assert_eq!(zero.moved_volume_mbps, 0.0);
        assert_eq!(zero.total_volume_mbps, 60.0);
        // 1.0 direct -> 0.75/0.25: the detour is installed, the direct path
        // re-programmed, a quarter of the 60 Mbps moved.
        let d = split.delta(&all_direct, &tm);
        assert_eq!((d.paths_added, d.paths_removed, d.paths_reweighted), (1, 0, 1));
        assert!((d.moved_volume_mbps - 15.0).abs() < 1e-9);
        assert!((d.moved_volume_fraction() - 0.25).abs() < 1e-9);
        // The reverse direction uninstalls the detour instead.
        let back = all_direct.delta(&split, &tm);
        assert_eq!((back.paths_added, back.paths_removed, back.paths_reweighted), (0, 1, 1));
        assert!((back.moved_volume_fraction() - 0.25).abs() < 1e-9);
        // A full path swap moves everything.
        let all_via =
            Placement::new(vec![AggregatePlacement { splits: vec![(p_via.clone(), 1.0)] }]);
        let swap = all_via.delta(&all_direct, &tm);
        assert_eq!((swap.paths_added, swap.paths_removed), (1, 1));
        assert!((swap.moved_volume_fraction() - 1.0).abs() < 1e-9);
        // Fresh install (no previous placement): all paths added, all
        // volume moved; and sub-tolerance jitter is not churn.
        let fresh = PlacementDelta::of_aggregate(None, &split.per_aggregate()[0], 60.0);
        assert_eq!(fresh.paths_added, 2);
        assert!((fresh.moved_volume_fraction() - 1.0).abs() < 1e-9);
        let jitter = Placement::new(vec![AggregatePlacement {
            splits: vec![(p_direct, 0.75 + 1e-9), (p_via, 0.25 - 1e-9)],
        }]);
        assert_eq!(jitter.delta(&split, &tm).paths_changed(), 0);
        // Accumulation sums both counters and volumes.
        let mut acc = PlacementDelta::default();
        acc.accumulate(&d);
        acc.accumulate(&back);
        assert_eq!(acc.paths_changed(), d.paths_changed() + back.paths_changed());
        assert!((acc.total_volume_mbps - 120.0).abs() < 1e-9);
    }

    #[test]
    fn validate_rejects_bad_sum() {
        let (topo, tm) = setup();
        let g = topo.graph();
        let direct = g.find_link(NodeId(0), NodeId(2)).unwrap();
        let pl = Placement::new(vec![AggregatePlacement {
            splits: vec![(Path::new(g, vec![direct]), 0.5)],
        }]);
        assert!(pl.validate(g, &tm).is_err());
    }

    #[test]
    fn validate_rejects_wrong_endpoints() {
        let (topo, tm) = setup();
        let g = topo.graph();
        let l01 = g.find_link(NodeId(0), NodeId(1)).unwrap();
        let pl = Placement::new(vec![AggregatePlacement {
            splits: vec![(Path::new(g, vec![l01]), 1.0)],
        }]);
        assert!(pl.validate(g, &tm).is_err());
    }
}
