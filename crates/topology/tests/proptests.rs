//! Property tests over the whole synthetic corpus and random builders.

use proptest::prelude::*;

use lowlat_topology::ingest::{from_edge_list, from_graphml};
use lowlat_topology::zoo::{self, synthetic_zoo};
use lowlat_topology::{GeoPoint, TopologyBuilder};

/// Corpus-wide invariants (not proptest: the corpus is deterministic, but
/// the checks are property-shaped).
#[test]
fn corpus_invariants() {
    for t in synthetic_zoo() {
        // Duplex pairing is an involution with mirrored attributes.
        for l in t.graph().link_ids() {
            let r = t.reverse_link(l);
            assert_eq!(t.reverse_link(r), l, "{}", t.name());
            let (a, b) = (t.graph().link(l), t.graph().link(r));
            assert_eq!(a.src, b.dst);
            assert_eq!(a.dst, b.src);
            assert_eq!(a.delay_ms, b.delay_ms);
            assert_eq!(a.capacity_mbps, b.capacity_mbps);
        }
        // Cables are exactly half the directed links.
        assert_eq!(t.cables().len() * 2, t.link_count(), "{}", t.name());
        // Capacities come from the published tiers.
        for l in t.graph().link_ids() {
            let c = t.graph().link(l).capacity_mbps;
            assert!(zoo::CAPACITY_TIERS.contains(&c), "{}: capacity {c} not in tiers", t.name());
        }
        // Delays consistent with geography: no link faster than light in
        // fibre between its endpoints (floor tolerated).
        for l in t.graph().link_ids() {
            let link = t.graph().link(l);
            let geo = t.location(link.src).delay_ms_to(&t.location(link.dst));
            assert!(
                link.delay_ms >= geo * 0.999 - 1e-9 || link.delay_ms >= 0.05 - 1e-12,
                "{}: superluminal link {geo} vs {}",
                t.name(),
                link.delay_ms
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random geometric builders always produce valid, connected graphs.
    #[test]
    fn mesh_generator_connected(n in 4usize..30, seed in any::<u64>()) {
        let t = zoo::mesh(n, 700.0, zoo::EUROPE, seed);
        prop_assert_eq!(t.pop_count(), n);
        prop_assert!(t.graph().is_strongly_connected());
    }

    /// Adding a cable preserves all existing attributes.
    #[test]
    fn with_added_cable_preserves(seed in any::<u64>()) {
        let t = zoo::ring(8, 1, zoo::USA, seed);
        // Find an absent pair.
        let pairs = t.unordered_pairs();
        let absent = pairs
            .iter()
            .find(|&&(a, b)| t.graph().find_link(a, b).is_none());
        if let Some(&(a, b)) = absent {
            let grown = t.with_added_cable(a, b, 10_000.0);
            prop_assert_eq!(grown.cables().len(), t.cables().len() + 1);
            prop_assert!(grown.graph().find_link(a, b).is_some());
            // Old cables intact (same delay set).
            let mut old: Vec<f64> =
                t.cables().iter().map(|&l| t.graph().link(l).delay_ms).collect();
            let mut new: Vec<f64> =
                grown.cables().iter().map(|&l| grown.graph().link(l).delay_ms).collect();
            old.sort_by(|x, y| x.partial_cmp(y).unwrap());
            new.sort_by(|x, y| x.partial_cmp(y).unwrap());
            for d in old {
                let pos = new.iter().position(|&x| (x - d).abs() < 1e-9);
                prop_assert!(pos.is_some(), "cable with delay {d} lost");
                new.remove(pos.unwrap());
            }
        }
    }

    /// Builder panics are the only invalid states: every successful build
    /// satisfies diameter > 0 and pop lookups round-trip.
    #[test]
    fn builder_roundtrip(n in 3usize..12, seed in any::<u64>()) {
        let t = zoo::tree(n, 0.5, zoo::EUROPE, seed);
        for p in t.graph().nodes() {
            let name = t.pop_name(p).to_string();
            prop_assert_eq!(t.pop_by_name(&name), Some(p));
        }
        prop_assert!(t.diameter_ms() > 0.0);
    }

    /// Geo distance is a metric (symmetry + triangle inequality on random
    /// triples).
    #[test]
    fn geo_metric_properties(
        lat1 in -80.0f64..80.0, lon1 in -170.0f64..170.0,
        lat2 in -80.0f64..80.0, lon2 in -170.0f64..170.0,
        lat3 in -80.0f64..80.0, lon3 in -170.0f64..170.0,
    ) {
        let (a, b, c) = (
            GeoPoint::new(lat1, lon1),
            GeoPoint::new(lat2, lon2),
            GeoPoint::new(lat3, lon3),
        );
        prop_assert!((a.distance_km(&b) - b.distance_km(&a)).abs() < 1e-6);
        prop_assert!(a.distance_km(&c) <= a.distance_km(&b) + b.distance_km(&c) + 1e-6);
        prop_assert!(a.distance_km(&b) >= 0.0);
    }
}

/// The builder rejects nonsense; successful topologies always validate.
#[test]
fn builder_panics_are_contained() {
    let mut b = TopologyBuilder::new("x");
    let p0 = b.add_pop("a", GeoPoint::new(0.0, 0.0));
    let p1 = b.add_pop("b", GeoPoint::new(1.0, 1.0));
    b.connect(p0, p1, 100.0);
    let t = b.build();
    assert_eq!(t.pop_count(), 2);
}

/// Pieces an ingestion input is drawn from: separators, comments and line
/// ends; numbers that are fine, hostile (`nan`, `inf`, `-0`, negative,
/// subnormal, past `f64`) or sum past `f64` (`8e307`); node names,
/// including one repeated (self-loops); whole edge lines and GraphML
/// elements, their tags, attributes, quotes and comments and broken halves
/// of them; and multi-byte characters.
const PIECES: [&str; 57] = [
    "a",
    "b",
    "c",
    "é",
    "€",
    "😀",
    " ",
    "\t",
    "|",
    "#",
    "\n",
    "\r\n",
    "0",
    "1",
    "-0",
    "-1",
    "1.5",
    "1e308",
    "8e307",
    "1e-320",
    "nan",
    "inf",
    "-inf",
    "1e999",
    "a b 1 8e307\n",
    "b|c|1|8e307\n",
    "c a 5 1e308\n",
    "a a\n",
    "<",
    ">",
    "/>",
    "=",
    "\"",
    "'",
    "<!--",
    "-->",
    "<?xml version=\"1.0\"?>",
    "<graphml>",
    "</graphml>",
    "<node id=\"a\"/>",
    "<node id='b'/>",
    "<node id=\"c\"/>",
    "<node/>",
    "<edge source=\"a\" target=\"b\"",
    "<edge source=\"a\" target=\"b\" delay=\"8e307\"/>",
    "<edge source=\"b\" target=\"c\" delay=\"8e307\"/>",
    "<edge source=\"a\" target=\"a\"/>",
    " delay=\"8e307\"",
    " capacity=\"0\"",
    "<key id=\"d0\" attr.name=\"delay\"/>",
    "<data key=\"d0\">",
    "8e307</data>",
    "</data>",
    "</edge>",
    "<data key=\"latency\">",
    "<edge source='c' target='a'>",
    "<edge source='b' target='a'>",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Neither ingestion door panics: on any text drawn from `PIECES` and
    /// arbitrary characters, `from_edge_list` and `from_graphml` each
    /// return a graph or an `IngestError`. Half the GraphML inputs open by
    /// declaring nodes `a`, `b` and `c`, so that their edges get as far as
    /// the graph.
    #[test]
    fn ingestion_returns_a_graph_or_an_error_never_panics(
        draws in proptest::collection::vec((0usize..2, any::<u32>()), 0..48),
        declared in any::<bool>(),
    ) {
        let text: String = draws
            .iter()
            .map(|&(kind, x)| match kind {
                0 => PIECES[x as usize % PIECES.len()].to_string(),
                _ => char::from_u32(x % 0x11_0000).unwrap_or('\u{fffd}').to_string(),
            })
            .collect();
        let prelude = if declared {
            "<graphml><node id=\"a\"/><node id=\"b\"/><node id=\"c\"/>\n"
        } else {
            ""
        };
        let xml = format!("{prelude}{text}");
        let outcome = std::panic::catch_unwind(|| from_edge_list("t", &text).map(|g| g.cable_count()));
        prop_assert!(outcome.is_ok(), "from_edge_list panicked on {:?}", text);
        let outcome = std::panic::catch_unwind(|| from_graphml("t", &xml).map(|g| g.cable_count()));
        prop_assert!(outcome.is_ok(), "from_graphml panicked on {:?}", xml);
    }
}
