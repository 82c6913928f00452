//! The harness's own placement validator — the check behind `failed`: a
//! placement is judged by code that did not produce it, from the graph,
//! the matrix and the mask in force alone.

use lowlat_core::Placement;
use lowlat_netgraph::{FailureMask, Graph};
use lowlat_tmgen::TrafficMatrix;

/// Splits below this carry no traffic worth checking against the mask
/// (the timeline's replay uses the same cut-off).
const LIVE_SPLIT: f64 = 1e-9;

/// What was wrong with a placement, counted per kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Violations {
    /// The placement does not cover the matrix one-to-one.
    pub misaligned: usize,
    /// Aggregates whose fractions are non-finite, out of `[0, 1]`, or do
    /// not sum to 1 ± 1e-6.
    pub broken_splits: usize,
    /// Paths that are not a contiguous walk from the aggregate's source to
    /// its destination in the graph.
    pub broken_walks: usize,
    /// Live paths crossing a link or node the mask in force has down.
    pub over_failed: usize,
}

impl Violations {
    /// Total violations; a placement is valid when this is 0.
    pub fn total(&self) -> usize {
        self.misaligned + self.broken_splits + self.broken_walks + self.over_failed
    }

    /// True when nothing was wrong.
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }
}

/// Checks `placement` against the matrix it claims to place, on `graph`,
/// under `mask` (the failure in force when it was computed, if any).
pub fn check_placement(
    graph: &Graph,
    tm: &TrafficMatrix,
    placement: &Placement,
    mask: Option<&FailureMask>,
) -> Violations {
    let mut v = Violations::default();
    if placement.per_aggregate().len() != tm.aggregates().len() {
        v.misaligned = 1;
        return v;
    }
    for (agg, pl) in tm.aggregates().iter().zip(placement.per_aggregate()) {
        let in_range =
            pl.splits.iter().all(|(_, x)| x.is_finite() && (-1e-9..=1.0 + 1e-9).contains(x));
        let sum: f64 = pl.splits.iter().map(|(_, x)| x).sum();
        if !in_range || (sum - 1.0).abs() > 1e-6 {
            v.broken_splits += 1;
        }
        for (path, x) in &pl.splits {
            let mut at = agg.src;
            let mut contiguous = !path.links().is_empty();
            for &l in path.links() {
                let link = graph.link(l);
                contiguous &= link.src == at;
                at = link.dst;
            }
            if !contiguous || at != agg.dst {
                v.broken_walks += 1;
            }
            let Some(mask) = mask else { continue };
            // `link_down` covers a link whose either endpoint is down.
            if *x > LIVE_SPLIT && path.links().iter().any(|&l| mask.link_down(graph, l)) {
                v.over_failed += 1;
            }
        }
    }
    v
}

/// True when every value is finite — reported floats are part of the
/// program's output and a NaN or infinity among them is a failed operation.
pub fn all_finite(values: &[f64]) -> bool {
    values.iter().all(|x| x.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowlat_core::placement::AggregatePlacement;
    use lowlat_netgraph::{GraphBuilder, NodeId, Path};
    use lowlat_tmgen::Aggregate;

    /// A diamond 0→{1,2}→3, duplex, so two disjoint 0→3 paths exist.
    fn diamond() -> Graph {
        let mut b = GraphBuilder::new(4);
        for (s, d) in [(0, 1), (1, 3), (0, 2), (2, 3)] {
            b.add_duplex(NodeId(s), NodeId(d), 1.0, 100.0);
        }
        b.build()
    }

    fn tm() -> TrafficMatrix {
        TrafficMatrix::new(vec![Aggregate {
            src: NodeId(0),
            dst: NodeId(3),
            volume_mbps: 50.0,
            flow_count: 10,
        }])
    }

    fn via(g: &Graph, mid: u32) -> Path {
        let a = g.find_link(NodeId(0), NodeId(mid)).unwrap();
        let b = g.find_link(NodeId(mid), NodeId(3)).unwrap();
        Path::new(g, vec![a, b])
    }

    fn place(splits: Vec<(Path, f64)>) -> Placement {
        Placement::new(vec![AggregatePlacement { splits }])
    }

    #[test]
    fn a_sound_placement_is_clean() {
        let g = diamond();
        let pl = place(vec![(via(&g, 1), 0.25), (via(&g, 2), 0.75)]);
        assert!(check_placement(&g, &tm(), &pl, None).is_clean());
        assert!(check_placement(&g, &tm(), &pl, Some(&FailureMask::new())).is_clean());
    }

    #[test]
    fn a_broken_split_is_counted() {
        let g = diamond();
        let short = place(vec![(via(&g, 1), 0.25), (via(&g, 2), 0.5)]);
        assert_eq!(check_placement(&g, &tm(), &short, None).broken_splits, 1);
        let nan = place(vec![(via(&g, 1), f64::NAN)]);
        assert_eq!(check_placement(&g, &tm(), &nan, None).broken_splits, 1);
        let negative = place(vec![(via(&g, 1), 1.5), (via(&g, 2), -0.5)]);
        assert_eq!(check_placement(&g, &tm(), &negative, None).broken_splits, 1);
    }

    #[test]
    fn a_broken_walk_is_counted() {
        let g = diamond();
        // Stops short of the destination.
        let stub = Path::new(&g, vec![g.find_link(NodeId(0), NodeId(1)).unwrap()]);
        let v = check_placement(&g, &tm(), &place(vec![(stub, 1.0)]), None);
        assert_eq!((v.broken_walks, v.total()), (1, 1));
        // Right endpoints for the aggregate, wrong direction of travel.
        let back = Path::new(
            &g,
            vec![
                g.find_link(NodeId(3), NodeId(1)).unwrap(),
                g.find_link(NodeId(1), NodeId(0)).unwrap(),
            ],
        );
        assert_eq!(check_placement(&g, &tm(), &place(vec![(back, 1.0)]), None).broken_walks, 1);
    }

    #[test]
    fn a_path_over_a_failed_cable_is_counted() {
        let g = diamond();
        let pl = place(vec![(via(&g, 1), 0.5), (via(&g, 2), 0.5)]);
        let mut cable = FailureMask::new();
        cable.fail_cable(&g, g.find_link(NodeId(1), NodeId(3)).unwrap());
        let v = check_placement(&g, &tm(), &pl, Some(&cable));
        assert_eq!((v.over_failed, v.total()), (1, 1));
        let mut node = FailureMask::new();
        node.fail_node(NodeId(2));
        assert_eq!(check_placement(&g, &tm(), &pl, Some(&node)).over_failed, 1);
        // A dead split (fraction 0) over the failed cable carries nothing.
        let idle = place(vec![(via(&g, 1), 0.0), (via(&g, 2), 1.0)]);
        assert!(check_placement(&g, &tm(), &idle, Some(&cable)).is_clean());
    }

    #[test]
    fn a_misaligned_placement_is_counted() {
        let g = diamond();
        assert_eq!(check_placement(&g, &tm(), &Placement::new(Vec::new()), None).misaligned, 1);
    }

    #[test]
    fn non_finite_floats_are_caught() {
        assert!(all_finite(&[0.0, 1.5]));
        assert!(!all_finite(&[0.0, f64::INFINITY]));
        assert!(!all_finite(&[f64::NAN]));
    }
}
