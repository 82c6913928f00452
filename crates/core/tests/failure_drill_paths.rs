//! Every path the flat cache hands out through a failure drill, to the bit.
//!
//! The `failure-replace` benchmark repairs one warm [`PathCache`] under a
//! mask and re-places through it. This test walks one cache on the
//! GTS-like grid through a fixed sample of those masks — every fifth
//! single cable, every fifth node down, then back to intact — and after
//! each transition folds into one `u64` the repair's counts and the links
//! and delay bits of `paths(s, d, 8)` for every ordered pair. A change to
//! Yen's generator, the point query under it or the cache's repair that
//! moves one path of one pair in one state fails here; its ledger row
//! (`failure_drill_paths` in `tests/pinned.tsv`) is never re-recorded by a
//! change that claims the same bits.

#[path = "../../../tests/support/digest.rs"]
mod digest;
#[path = "../../../tests/support/pinned.rs"]
mod pinned;

use lowlat_core::failure::{node_failures, single_link_failures};
use lowlat_core::pathset::{PathCache, RepairStats};
use lowlat_core::PathSource;
use lowlat_netgraph::FailureMask;
use lowlat_topology::zoo::named;

/// Paths asked of every pair in every state.
const K: usize = 8;

#[test]
fn a_failure_drill_hands_out_the_same_paths() {
    let topo = named::gts_like();
    let g = topo.graph();
    let cache = PathCache::new(g);
    let mut h = digest::Digest::new();

    let fold = |h: &mut digest::Digest| {
        for s in g.nodes() {
            for d in g.nodes().filter(|&d| d != s) {
                let paths = cache.paths(s, d, K);
                h.word(paths.len() as u64);
                for p in &paths {
                    h.word(p.delay_ms().to_bits());
                    h.word(p.links().len() as u64);
                    for &l in p.links() {
                        h.word(u64::from(l.0));
                    }
                }
            }
        }
    };

    fold(&mut h);
    let cables = single_link_failures(&topo);
    let nodes = node_failures(&topo);
    let sample = cables.iter().step_by(5).chain(nodes.iter().step_by(5));
    let masks = sample.map(|s| s.mask(&topo)).chain([FailureMask::new()]);
    for mask in masks {
        let RepairStats { kept_pairs, repaired_pairs, paths_regrown, paths_lost } =
            cache.apply_failure(&mask);
        for x in [kept_pairs, repaired_pairs, paths_regrown, paths_lost] {
            h.word(x as u64);
        }
        fold(&mut h);
    }

    pinned::assert_pinned("failure_drill_paths", &[h.0]);
}
