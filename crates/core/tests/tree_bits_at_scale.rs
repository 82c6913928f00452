//! Every tree and every answer at the scale the engine is built for, to the
//! bit.
//!
//! The sweep goldens cover small networks and see bits; the
//! 10k-node pricing cell checks counts. This test folds into one `u64` the
//! distance bits and parent links of 16 forward and 16 reverse
//! shortest-path trees of a 10k-node Barabási–Albert graph, and the links
//! and delay bits of the partitioned engine's `grow(src, dst, 4)` answers
//! for 200 seeded pairs, half of them inside one leaf (landmark stitching
//! and per-leaf Yen). A change to the shortest-path kernel, the adjacency or the
//! engine that moves one bit of one of them fails here; its ledger row
//! (`tree_bits_at_scale` in `tests/pinned.tsv`) is never re-recorded by a
//! change that claims the same bits.
//!
//! Point queries run on a workspace each thread keeps from one query to
//! the next. A second test alternates them between the 10k-node graph and
//! GTS-like, under masks and without, and holds every answer to the full
//! tree's path, which a search on a fresh workspace builds.

#[path = "../../../tests/support/digest.rs"]
mod digest;
#[path = "../../../tests/support/pinned.rs"]
mod pinned;

use digest::Digest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lowlat_core::hier::{EngineConfig, PartitionedPathEngine};
use lowlat_core::PathSource;
use lowlat_netgraph::{
    reverse_shortest_path_tree, shortest_path, shortest_path_tree, BitSet, LinkId, NodeId, Path,
};
use lowlat_topology::synth::{generate, SynthConfig, SynthModel};
use lowlat_topology::zoo::named;

impl Digest {
    fn link(&mut self, l: Option<LinkId>) {
        self.word(l.map_or(u64::MAX, |l| u64::from(l.0)));
    }
}

#[test]
fn ten_thousand_node_trees_and_answers_keep_their_bits() {
    let ingested = generate(SynthModel::BarabasiAlbert, &SynthConfig { nodes: 10_000, seed: 42 });
    let g = ingested.graph();
    let n = g.node_count() as u32;
    let mut h = Digest::new();

    for i in 0..16u32 {
        let root = NodeId(i * (n / 16) + 7);
        let fwd = shortest_path_tree(g, root, None, None);
        let rev = reverse_shortest_path_tree(g, root, None, None);
        for v in g.nodes() {
            h.word(fwd.dist_ms(v).to_bits());
            h.link(fwd.parent_link(v));
            h.word(rev.dist_ms(v).to_bits());
            h.link(rev.next_link(v));
        }
    }

    let engine = PartitionedPathEngine::build(g, &EngineConfig::default());
    let mut rng = StdRng::seed_from_u64(42);
    let hierarchy = engine.hierarchy();
    let mut pairs = 0;
    while pairs < 200 {
        let src = NodeId(rng.gen_range(0..n));
        // Every other pair shares a leaf, so Yen's spur searches answer it.
        let dst = if pairs % 2 == 0 {
            NodeId(rng.gen_range(0..n))
        } else {
            let leaf = &hierarchy.cluster(hierarchy.leaf_of(src)).members;
            leaf[rng.gen_range(0..leaf.len())]
        };
        if src == dst {
            continue;
        }
        pairs += 1;
        let paths = engine.grow(src, dst, 4);
        h.word(paths.len() as u64);
        for p in &paths {
            h.word(p.delay_ms().to_bits());
            h.word(p.links().len() as u64);
            for &l in p.links() {
                h.link(Some(l));
            }
        }
    }

    pinned::assert_pinned("tree_bits_at_scale", &[h.0]);
}

#[test]
fn a_point_query_carries_nothing_over_from_the_query_before() {
    let ba = generate(SynthModel::BarabasiAlbert, &SynthConfig { nodes: 10_000, seed: 42 });
    let gts = named::gts_like();
    let graphs = [ba.graph(), gts.graph()];
    let mut rng = StdRng::seed_from_u64(7);
    let answer = |p: Option<Path>| p.map(|p| (p.links().to_vec(), p.delay_ms().to_bits()));
    for q in 0..48 {
        let g = graphs[q % 2];
        let n = g.node_count() as u32;
        let (s, t) = (NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n)));
        // Every other query on each graph runs with a tenth of its links
        // and a twentieth of its nodes down.
        let (mut links, mut nodes) = (BitSet::new(g.link_count()), BitSet::new(g.node_count()));
        if q % 4 >= 2 {
            for l in g.link_ids().filter(|_| rng.gen_range(0..10) == 0) {
                links.insert(l.idx());
            }
            for v in g.nodes().filter(|&v| v != s && v != t && rng.gen_range(0..20) == 0) {
                nodes.insert(v.idx());
            }
        }
        let fresh = shortest_path_tree(g, s, Some(&links), Some(&nodes)).path_to(g, t);
        let found = shortest_path(g, s, t, Some(&links), Some(&nodes));
        assert_eq!(answer(found), answer(fresh), "query {q}: {s:?} to {t:?}");
    }
}
