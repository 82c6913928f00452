//! Golden regression values for the paper's headline metric.
//!
//! `LlpdAnalysis::compute` on the named topologies is fully deterministic,
//! so its output is pinned here exactly, one ledger row per topology
//! (`llpd_golden.<topology>` in `tests/pinned.tsv`): the unordered PoP
//! pairs, the pairs whose APA clears the default 0.7 threshold (LLPD is
//! their fraction, so `llpd * pairs` is an integer count) and the bits of
//! the mean APA. If a refactor moves any of these numbers, it changed the
//! metric, not just the code — re-record them only with an explanation of
//! why the new values are more faithful to the paper.

#[path = "../../../tests/support/pinned.rs"]
mod pinned;

use lowlat_core::llpd::{LlpdAnalysis, LlpdConfig};
use lowlat_topology::zoo::named;
use lowlat_topology::Topology;

/// `[pairs, pairs with APA >= 0.7, mean APA bits]` of `topo`.
fn llpd_row(topo: &Topology) -> [u64; 3] {
    let analysis = LlpdAnalysis::compute(topo, &LlpdConfig::default());
    let apa = analysis.apa_values();
    let above = apa.iter().filter(|&&a| a >= 0.7).count();
    assert_eq!(analysis.llpd(), above as f64 / apa.len() as f64, "llpd is the share above");
    let mean: f64 = apa.iter().sum::<f64>() / apa.len() as f64;
    [apa.len() as u64, above as u64, mean.to_bits()]
}

// One test per row, so that every row that moves is written and named.
#[test]
fn abilene_llpd_matches_its_golden_values() {
    pinned::assert_pinned("llpd_golden.abilene", &llpd_row(&named::abilene()));
}

#[test]
fn gts_like_llpd_matches_its_golden_values() {
    pinned::assert_pinned("llpd_golden.gts_like", &llpd_row(&named::gts_like()));
}

#[test]
fn cogent_like_llpd_matches_its_golden_values() {
    pinned::assert_pinned("llpd_golden.cogent_like", &llpd_row(&named::cogent_like()));
}

#[test]
fn google_like_llpd_matches_its_golden_values() {
    pinned::assert_pinned("llpd_golden.google_like", &llpd_row(&named::google_like()));
}

#[test]
fn llpd_is_stable_across_recomputation() {
    // The analysis must be a pure function of (topology, config): recompute
    // and compare bit-for-bit, guarding against latent iteration-order or
    // caching nondeterminism sneaking into the metric.
    let topo = named::gts_like();
    let a = LlpdAnalysis::compute(&topo, &LlpdConfig::default());
    let b = LlpdAnalysis::compute(&topo, &LlpdConfig::default());
    assert_eq!(a.llpd().to_bits(), b.llpd().to_bits());
    for (x, y) in a.apa_values().iter().zip(b.apa_values()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}
