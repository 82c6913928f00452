//! The [`Topology`] type: named PoPs + duplex links + the underlying
//! directed graph.

use std::sync::OnceLock;

use lowlat_netgraph::{all_pairs_delays, Graph, GraphBuilder, LinkId, NodeId};

use crate::geo::GeoPoint;

/// Index of a PoP; identical to the underlying graph's [`NodeId`].
pub type PopId = NodeId;

/// A PoP-level backbone topology.
///
/// Immutable once built. Every physical cable appears as **two directed
/// links** with identical delay/capacity; [`Topology::reverse_link`] maps
/// between the two directions in O(1), which the APA computation uses to
/// remove a cable in both directions.
#[derive(Clone, Debug)]
pub struct Topology {
    name: String,
    pop_names: Vec<String>,
    locations: Vec<GeoPoint>,
    graph: Graph,
    /// `reverse[l]` = the opposite direction of directed link `l`.
    reverse: Vec<LinkId>,
    /// [`Topology::intact_delays`], computed on first use.
    intact_delays: OnceLock<Vec<Vec<f64>>>,
}

impl Topology {
    /// The network's name (e.g. `"grid-6x5-s3"` or `"Abilene"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of PoPs.
    pub fn pop_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of directed links (twice the cable count).
    pub fn link_count(&self) -> usize {
        self.graph.link_count()
    }

    /// The underlying directed graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Name of a PoP.
    pub fn pop_name(&self, p: PopId) -> &str {
        &self.pop_names[p.idx()]
    }

    /// Looks a PoP up by name.
    pub fn pop_by_name(&self, name: &str) -> Option<PopId> {
        self.pop_names.iter().position(|n| n == name).map(|i| NodeId(i as u32))
    }

    /// Geographic location of a PoP.
    pub fn location(&self, p: PopId) -> GeoPoint {
        self.locations[p.idx()]
    }

    /// The reverse direction of a directed link.
    pub fn reverse_link(&self, l: LinkId) -> LinkId {
        self.reverse[l.idx()]
    }

    /// All ordered PoP pairs (src != dst) — the aggregates of a full mesh
    /// traffic matrix.
    pub fn ordered_pairs(&self) -> Vec<(PopId, PopId)> {
        let n = self.pop_count() as u32;
        let mut v = Vec::with_capacity((n as usize) * (n as usize - 1));
        for s in 0..n {
            for d in 0..n {
                if s != d {
                    v.push((NodeId(s), NodeId(d)));
                }
            }
        }
        v
    }

    /// All unordered PoP pairs, `s < d`.
    pub fn unordered_pairs(&self) -> Vec<(PopId, PopId)> {
        let n = self.pop_count() as u32;
        let mut v = Vec::with_capacity((n as usize) * (n as usize - 1) / 2);
        for s in 0..n {
            for d in s + 1..n {
                v.push((NodeId(s), NodeId(d)));
            }
        }
        v
    }

    /// All-pairs shortest delays (ms) of the intact network, row = source:
    /// the baseline every stretch is judged against. Computed once, on
    /// first use, and kept for the topology's life.
    pub fn intact_delays(&self) -> &[Vec<f64>] {
        self.intact_delays.get_or_init(|| all_pairs_delays(&self.graph))
    }

    /// Network diameter: maximum over PoP pairs of the shortest-path delay
    /// (ms). The paper filters its corpus to diameters above 10 ms.
    pub fn diameter_ms(&self) -> f64 {
        self.intact_delays()
            .iter()
            .flat_map(|row| row.iter().copied())
            .filter(|d| d.is_finite())
            .fold(0.0, f64::max)
    }

    /// Returns a new topology with one additional duplex link between `a`
    /// and `b` (delay from geography, given capacity). Used by the §8
    /// topology-growth experiment (Figure 20).
    ///
    /// # Panics
    /// Panics if `a == b`.
    pub fn with_added_cable(&self, a: PopId, b: PopId, capacity_mbps: f64) -> Topology {
        assert!(a != b);
        let mut builder = TopologyBuilder::new(format!("{}+{}-{}", self.name, a.idx(), b.idx()));
        for i in 0..self.pop_count() {
            builder.add_pop(self.pop_names[i].clone(), self.locations[i]);
        }
        let mut seen = std::collections::HashSet::new();
        for l in self.graph.link_ids() {
            let rev = self.reverse_link(l);
            if seen.contains(&rev) {
                continue;
            }
            seen.insert(l);
            let link = self.graph.link(l);
            builder.connect_with_delay(link.src, link.dst, link.delay_ms, link.capacity_mbps);
        }
        builder.connect(a, b, capacity_mbps);
        builder.build()
    }

    /// Cable-level view: one entry per duplex pair, represented by the
    /// direction with the smaller link id.
    pub fn cables(&self) -> Vec<LinkId> {
        self.graph.link_ids().filter(|&l| l.idx() <= self.reverse[l.idx()].idx()).collect()
    }
}

/// Builder for [`Topology`].
pub struct TopologyBuilder {
    name: String,
    pop_names: Vec<String>,
    locations: Vec<GeoPoint>,
    /// (a, b, delay_ms, capacity_mbps)
    cables: Vec<(PopId, PopId, f64, f64)>,
}

impl TopologyBuilder {
    /// Starts a topology with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        TopologyBuilder {
            name: name.into(),
            pop_names: Vec::new(),
            locations: Vec::new(),
            cables: Vec::new(),
        }
    }

    /// Adds a PoP and returns its id.
    pub fn add_pop(&mut self, name: impl Into<String>, location: GeoPoint) -> PopId {
        let id = NodeId(self.pop_names.len() as u32);
        self.pop_names.push(name.into());
        self.locations.push(location);
        id
    }

    /// Number of PoPs added so far.
    pub fn pop_count(&self) -> usize {
        self.pop_names.len()
    }

    /// Connects two PoPs with a duplex cable whose delay follows from their
    /// geographic distance.
    pub fn connect(&mut self, a: PopId, b: PopId, capacity_mbps: f64) {
        let delay = self.locations[a.idx()].delay_ms_to(&self.locations[b.idx()]);
        // Terrestrial fibre never follows the great circle exactly; minimum
        // floor keeps co-located PoPs from having zero-delay links.
        self.connect_with_delay(a, b, delay.max(0.05), capacity_mbps);
    }

    /// Connects two PoPs with an explicit delay (for cables that detour, or
    /// for reproducing published latencies).
    pub fn connect_with_delay(&mut self, a: PopId, b: PopId, delay_ms: f64, capacity_mbps: f64) {
        assert!(a != b, "cable endpoints must differ");
        assert!(a.idx() < self.pop_names.len() && b.idx() < self.pop_names.len());
        self.cables.push((a, b, delay_ms, capacity_mbps));
    }

    /// True if a cable between the two PoPs (either orientation) exists.
    pub fn connected(&self, a: PopId, b: PopId) -> bool {
        self.cables.iter().any(|&(x, y, _, _)| (x == a && y == b) || (x == b && y == a))
    }

    /// Location of an already-added PoP.
    pub fn location_of(&self, p: PopId) -> GeoPoint {
        self.locations[p.idx()]
    }

    /// Endpoints of every cable added so far.
    pub fn cable_endpoints(&self) -> Vec<(PopId, PopId)> {
        self.cables.iter().map(|&(a, b, _, _)| (a, b)).collect()
    }

    /// Finalizes the topology.
    ///
    /// # Panics
    /// Panics if the topology is not strongly connected — the paper's
    /// networks always are, and every algorithm here assumes it.
    pub fn build(self) -> Topology {
        let mut gb = GraphBuilder::new(self.pop_names.len());
        let mut reverse = Vec::with_capacity(self.cables.len() * 2);
        for &(a, b, delay, cap) in &self.cables {
            let (f, r) = gb.add_duplex(a, b, delay, cap);
            debug_assert_eq!(f.idx(), reverse.len());
            reverse.push(r);
            reverse.push(f);
        }
        let graph = gb.build();
        assert!(
            graph.is_strongly_connected(),
            "topology '{}' is not connected ({} pops, {} cables)",
            self.name,
            self.pop_names.len(),
            self.cables.len()
        );
        Topology {
            name: self.name,
            pop_names: self.pop_names,
            locations: self.locations,
            graph,
            reverse,
            intact_delays: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri() -> Topology {
        let mut b = TopologyBuilder::new("tri");
        let v = b.add_pop("Vienna", GeoPoint::new(48.21, 16.37));
        let bud = b.add_pop("Budapest", GeoPoint::new(47.50, 19.04));
        let pr = b.add_pop("Prague", GeoPoint::new(50.08, 14.44));
        b.connect(v, bud, 10_000.0);
        b.connect(bud, pr, 10_000.0);
        b.connect(pr, v, 10_000.0);
        b.build()
    }

    #[test]
    fn builds_duplex_graph() {
        let t = tri();
        assert_eq!(t.pop_count(), 3);
        assert_eq!(t.link_count(), 6);
        assert_eq!(t.cables().len(), 3);
    }

    #[test]
    fn reverse_mapping_is_involution() {
        let t = tri();
        for l in t.graph().link_ids() {
            let r = t.reverse_link(l);
            assert_eq!(t.reverse_link(r), l);
            assert_eq!(t.graph().link(l).src, t.graph().link(r).dst);
            assert_eq!(t.graph().link(l).delay_ms, t.graph().link(r).delay_ms);
        }
    }

    #[test]
    fn geographic_delays() {
        let t = tri();
        let l = t
            .graph()
            .find_link(t.pop_by_name("Vienna").unwrap(), t.pop_by_name("Budapest").unwrap())
            .unwrap();
        // Vienna-Budapest ~215 km => ~1.08 ms.
        let d = t.graph().link(l).delay_ms;
        assert!((d - 1.08).abs() < 0.1, "got {d}");
    }

    #[test]
    fn added_cable_shows_up() {
        let mut b = TopologyBuilder::new("line");
        let x = b.add_pop("X", GeoPoint::new(40.0, -100.0));
        let y = b.add_pop("Y", GeoPoint::new(41.0, -95.0));
        let z = b.add_pop("Z", GeoPoint::new(42.0, -90.0));
        b.connect(x, y, 1000.0);
        b.connect(y, z, 1000.0);
        let t = b.build();
        assert_eq!(t.cables().len(), 2);
        let t2 = t.with_added_cable(x, z, 2500.0);
        assert_eq!(t2.cables().len(), 3);
        assert_eq!(t2.pop_count(), 3);
        // Direct X-Z link now exists.
        assert!(t2.graph().find_link(x, z).is_some());
    }

    #[test]
    fn pairs_enumeration() {
        let t = tri();
        assert_eq!(t.ordered_pairs().len(), 6);
        assert_eq!(t.unordered_pairs().len(), 3);
    }

    #[test]
    fn diameter_positive() {
        let t = tri();
        assert!(t.diameter_ms() > 1.0);
    }

    #[test]
    fn intact_delays_are_the_all_pairs_table_of_their_own_graph() {
        let mut b = TopologyBuilder::new("line");
        let x = b.add_pop("X", GeoPoint::new(40.0, -100.0));
        let y = b.add_pop("Y", GeoPoint::new(41.0, -95.0));
        let z = b.add_pop("Z", GeoPoint::new(42.0, -90.0));
        b.connect(x, y, 1000.0);
        b.connect(y, z, 1000.0);
        let t = b.build();
        let bits = |rows: &[Vec<f64>]| -> Vec<Vec<u64>> {
            rows.iter().map(|row| row.iter().map(|d| d.to_bits()).collect()).collect()
        };
        assert_eq!(bits(t.intact_delays()), bits(&all_pairs_delays(t.graph())));
        // Read once, the table is kept: a clone carries it, and a grown
        // topology computes its own.
        assert_eq!(bits(t.clone().intact_delays()), bits(t.intact_delays()));
        let grown = t.with_added_cable(x, z, 1000.0);
        assert_eq!(bits(grown.intact_delays()), bits(&all_pairs_delays(grown.graph())));
        let (before, after) = (t.intact_delays()[0][2], grown.intact_delays()[0][2]);
        assert!(after < before, "X-Z direct {after} ms is not shorter than via Y {before} ms");
    }

    #[test]
    #[should_panic]
    fn disconnected_rejected() {
        let mut b = TopologyBuilder::new("disc");
        b.add_pop("A", GeoPoint::new(0.0, 0.0));
        b.add_pop("B", GeoPoint::new(1.0, 1.0));
        b.build();
    }
}
