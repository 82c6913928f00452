//! Flat-cache vs column-generated LP placement — the pricing-oracle claim
//! behind the [`PathSource`] API: the Figure-12/13 growth loop costs the
//! same whether it prices against the materialized flat corpus or against
//! the hierarchical engine that grows columns on demand.
//!
//! * `pricing/place/1k` — a full LatOpt solve over a seeded pair batch on a
//!   1k-node Barabási–Albert graph, demand scaled so shortest-path routing
//!   would overload its worst link 3x (the loop must price columns in).
//!   `flat` builds a fresh [`PathCache`] per iteration; `partitioned`
//!   builds a fresh [`PartitionedPathEngine`] per iteration, so each run
//!   pays its backend's true cold-start pricing cost.
//! * `pricing/place/10k` — the same solve at Internet scale, where the
//!   flat corpus would be ~10^8 pairs. Placements here are whole seconds
//!   (the LP rows scale with the 30k links), so the group runs a minimal
//!   sample count and a smaller pair batch.
//!
//! The repo benchmark's `scale-place` workload times the partitioned
//! backend only (`core.hier.build_s` and the `core.source.*` rows beside
//! it); this target is the one timing of its flat twin on the same solve.
//!
//! [`PathSource`]: lowlat_core::PathSource
//! [`PathCache`]: lowlat_core::pathset::PathCache
//! [`PartitionedPathEngine`]: lowlat_core::PartitionedPathEngine

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use lowlat_core::pathgrow::GrowRequest;
use lowlat_core::pathset::PathCache;
use lowlat_core::schemes::registry;
use lowlat_core::{EngineConfig, PartitionedPathEngine, PathSource};
use lowlat_netgraph::{Graph, NodeId};
use lowlat_tmgen::{Aggregate, TrafficMatrix};
use lowlat_topology::synth::{generate, SynthConfig, SynthModel};

const OVERLOAD: f64 = 3.0;

fn ba(nodes: usize) -> lowlat_topology::ingest::IngestedGraph {
    generate(SynthModel::BarabasiAlbert, &SynthConfig { nodes, seed: 42 })
}

/// The seeded aggregate batch every scale bench shares, scaled so pure
/// shortest-path routing would hit `OVERLOAD`x on its worst link.
fn overloaded_tm(g: &Graph, pairs: usize) -> TrafficMatrix {
    let n = g.node_count() as u32;
    let aggs: Vec<Aggregate> = (0..pairs as u32)
        .map(|i| {
            let s = (i * 997) % n;
            let mut d = (i * 313 + n / 2) % n;
            if d == s {
                d = (d + 1) % n;
            }
            Aggregate {
                src: NodeId(s),
                dst: NodeId(d),
                volume_mbps: 100.0 + (i % 7) as f64 * 30.0,
                flow_count: 10,
            }
        })
        .collect();
    let tm = TrafficMatrix::new(aggs);

    let cache = PathCache::new(g);
    let sp = registry::build("SP").expect("SP in registry");
    let baseline = sp.place(&cache, &tm).expect("SP placement");
    let loads = baseline.link_loads(g, &tm);
    let u = g.link_ids().map(|l| loads[l.idx()] / g.link(l).capacity_mbps).fold(0.0, f64::max);
    assert!(u > 0.0, "matrix places no load");
    tm.scaled(OVERLOAD / u)
}

fn bench_pricing(c: &mut Criterion) {
    // (tag, nodes, pairs, samples): placements are whole seconds each, so
    // both groups run far fewer samples than the harness default.
    for (tag, nodes, pairs, samples) in
        [("1k", 1_000usize, 16usize, 5usize), ("10k", 10_000, 12, 3)]
    {
        let ingested = ba(nodes);
        let g = ingested.graph();
        let tm = overloaded_tm(g, pairs);
        let cfg = EngineConfig::default();

        let mut group = c.benchmark_group(format!("pricing/place/{tag}"));
        group.sample_size(samples);
        group.bench_function("flat", |b| {
            b.iter(|| {
                let cache = PathCache::new(g);
                let out = GrowRequest::new(&cache, black_box(&tm)).solve().expect("LatOpt");
                out.omax
            })
        });
        group.bench_function("partitioned", |b| {
            b.iter(|| {
                let engine = PartitionedPathEngine::build(g, &cfg);
                let out = GrowRequest::new(&engine, black_box(&tm)).solve().expect("LatOpt");
                assert!(engine.cached_pairs() <= tm.aggregates().len());
                out.omax
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_pricing);
criterion_main!(benches);
