//! Column-generation placement smoke at Internet scale.
//!
//! Builds the hierarchical partitioned path engine over a large synthetic
//! graph and runs full LP placements through it as a `PathSource` — the
//! tentpole claim of the pricing-oracle API: registry schemes place on a
//! 10k-node topology without a materialized flat path corpus, growing only
//! the columns the LP actually prices in.
//!
//! Usage:
//! `cargo run --release --bin pricing_smoke --
//!     [--nodes 10000] [--seed 42] [--pairs 48] [--overload 3.0]
//!     [--schemes LatOpt,LDR] [--leaf 128] [--landmarks 32]`
//!
//! The demand is scaled so shortest-path routing would overload its worst
//! link by `--overload`x, forcing the growth loop to price in alternate
//! columns. One TSV row per scheme reports the wall time, the objective,
//! and the pricing telemetry. Exits 1 when a scheme fails to place, prices
//! no columns, or the engine materializes more per-pair state than the
//! matrix it served.

use std::process::ExitCode;

use lowlat_core::hier::{EngineConfig, PartitionedPathEngine};
use lowlat_core::schemes::registry;
use lowlat_core::PathSource;
use lowlat_netgraph::hierarchy::HierarchyConfig;
use lowlat_netgraph::{NodeId, RangeError};
use lowlat_sim::output::{print_rows, Row};
use lowlat_sim::runner::{self, build_schemes, Args, CliError};
use lowlat_telemetry as telemetry;
use lowlat_tmgen::{Aggregate, TrafficMatrix};
use lowlat_topology::synth::{generate, SynthConfig, SynthModel};

fn main() -> ExitCode {
    runner::run(smoke)
}

/// Exit status 1 when a scheme fails the smoke check.
fn smoke() -> Result<ExitCode, CliError> {
    let mut args = Args::from_env();
    let nodes = args.value("--nodes")?.unwrap_or(10_000usize);
    let seed = args.value("--seed")?.unwrap_or(42u64);
    SynthConfig { nodes, seed }.validate().map_err(CliError::at("--nodes"))?;
    // `--pairs` and `--overload` shape this binary's own matrix: no library
    // door owns their ranges.
    let pairs = args.value("--pairs")?.unwrap_or(48usize);
    RangeError::check(pairs >= 1, "pairs", pairs, "at least 1").map_err(CliError::at("--pairs"))?;
    let overload = args.value("--overload")?.unwrap_or(3.0f64);
    let in_range = overload.is_finite() && overload > 0.0;
    RangeError::check(in_range, "overload", overload, "a finite factor > 0")
        .map_err(CliError::at("--overload"))?;
    let specs: Vec<String> =
        args.list("--schemes")?.unwrap_or_else(|| ["LatOpt", "LDR"].map(String::from).to_vec());
    let schemes = build_schemes(&specs)?;
    let hier = HierarchyConfig {
        max_leaf: args.value("--leaf")?.unwrap_or(HierarchyConfig::default().max_leaf),
        ..Default::default()
    };
    let landmarks = args.value("--landmarks")?.unwrap_or(32usize);
    // `--leaf` is the hierarchy's only field read here: an error names it
    // or the landmarks.
    let engine_cfg = EngineConfig { hierarchy: hier, landmarks };
    engine_cfg.validate().map_err(|e| {
        let flag = if e.param == "max_leaf" { "--leaf" } else { "--landmarks" };
        CliError::new(flag, e)
    })?;
    // No scale axis here: the scale flags pass, everything else is an error.
    args.finish()?;
    telemetry::set_enabled(true);

    let ingested = generate(SynthModel::BarabasiAlbert, &SynthConfig { nodes, seed });
    let graph = ingested.graph();
    let build_span = telemetry::timed_span("pricing.build_engine", "pricing");
    let engine = PartitionedPathEngine::build(graph, &engine_cfg);
    let build_ms = build_span.finish_ms();
    eprintln!(
        "engine: {} nodes, {} cables, {} leaves, {} landmarks, built in {:.0} ms",
        graph.node_count(),
        ingested.cable_count(),
        engine.leaf_ids().len(),
        engine.landmark_count(),
        build_ms,
    );

    // A seeded pair batch spread over the node space; at default leaf sizes
    // nearly every pair is cross-leaf.
    let n = graph.node_count() as u32;
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

    // Scale demand so pure shortest-path routing overloads its worst link
    // by `overload`x: the growth loop must then price alternate columns in.
    let sp = registry::build("SP").expect("SP in registry");
    let baseline = sp.place(&engine, &tm).expect("SP placement");
    let loads = baseline.link_loads(graph, &tm);
    let u =
        graph.link_ids().map(|l| loads[l.idx()] / graph.link(l).capacity_mbps).fold(0.0, f64::max);
    assert!(u > 0.0, "a pair places load");
    let tm = tm.scaled(overload / u);
    eprintln!("demand scaled by {:.3} (SP max-utilization {u:.3} -> {overload})", overload / u);

    let mut rows = Vec::new();
    let mut failures = 0usize;
    for (spec, scheme) in specs.iter().zip(&schemes) {
        let before = telemetry::snapshot();
        let span = telemetry::timed_span("pricing.place", "pricing");
        let placement = match scheme.place(&engine, &tm) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("FAIL {spec}: {e}");
                failures += 1;
                continue;
            }
        };
        let place_ms = span.finish_ms();
        let after = telemetry::snapshot();
        let grown =
            after.counter("pathgrow.columns_grown") - before.counter("pathgrow.columns_grown");
        let skips =
            after.counter("pathgrow.pricing_skips") - before.counter("pathgrow.pricing_skips");
        let (_, cross, fallback) = engine.stats().snapshot();
        if let Err(e) = placement.validate(graph, &tm) {
            eprintln!("FAIL {spec}: invalid placement: {e:?}");
            failures += 1;
            continue;
        }
        let objective: f64 = tm
            .aggregates()
            .iter()
            .enumerate()
            .map(|(a, agg)| agg.volume_mbps * placement.aggregate(a).mean_delay_ms())
            .sum::<f64>()
            / tm.aggregates().iter().map(|a| a.volume_mbps).sum::<f64>();
        rows.push(
            Row::new()
                .text("scheme", spec)
                .num("place_ms", place_ms)
                .num("objective_ms", objective)
                .num("columns_grown", grown)
                .num("pricing_skips", skips)
                .num("cached_pairs", engine.cached_pairs())
                .num("cross", cross)
                .num("fallback", fallback),
        );
        // The tentpole assertions: columns were actually priced in, and the
        // engine never materialized per-pair state beyond the matrix.
        // k-limited MinMax (`MinMaxK<k>`) is exempt from the first check by
        // design: it seeds every pair with its full k columns up front and
        // never grows, so columns_grown == 0 is its correct behavior.
        if grown == 0 && !spec.starts_with("MinMaxK") {
            eprintln!("FAIL {spec}: LP placed an overloaded matrix without growing any columns");
            failures += 1;
        }
        if engine.cached_pairs() > tm.aggregates().len() {
            eprintln!(
                "FAIL {spec}: {} cached pairs for a {}-aggregate matrix",
                engine.cached_pairs(),
                tm.aggregates().len(),
            );
            failures += 1;
        }
    }
    print_rows(&rows, std::io::stdout().lock()).expect("stdout");
    Ok(if failures > 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}
