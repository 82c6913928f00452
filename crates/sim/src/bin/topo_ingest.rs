//! Internet-scale ingestion + hierarchical routing experiment.
//!
//! Reproduces the Snippet-1 experiment shape: load (or generate) a large
//! topology, build the hierarchical partitioned path engine over it, answer
//! a seeded batch of KSP queries, and report per-(topology, seed)
//! success-rate / avg-hops / stretch with a cross-seed summary.
//!
//! Usage:
//! `cargo run --release --bin topo_ingest --
//!     [--edge-list FILE | --graphml FILE] [--synthetic ba,ws,grid,random]
//!     [--nodes 1000] [--tests 100] [--seeds 42,43] [--k 3]
//!     [--depth 3] [--leaf 128] [--branching 8] [--landmarks 32]
//!     [--emit-edge-list FILE] [--output FILE] [--summary-output FILE]
//!     [--metrics-out FILE] [--trace-out FILE]`
//!
//! With no source flags all four synthetic models run. A real file is
//! labeled `RealWorld`; synthetic graphs are regenerated **per seed** (the
//! Snippet-1 convention), so each (model, seed) cell is an independent
//! draw. Malformed input files exit with status 2 and a `line N` message.
//!
//! Metrics per cell: `success_rate` = fraction of queried pairs that got at
//! least one path (on connected graphs this is 1.0 by the engine's
//! fallback guarantee); `avg_hops` = mean hop count of the best path;
//! `stretch` = mean (best returned delay / true shortest delay). The JSON
//! also carries the query mix (cross-leaf and exact-fallback fractions),
//! the leaf count, and build/query wall times.
//!
//! `--metrics-out` / `--trace-out` enable the telemetry layer: the engines'
//! query-mix counters land in the registry (`hier.*`), build/query wall
//! times become trace spans, and the sinks are written at exit.

use lowlat_core::hier::{EngineConfig, PartitionedPathEngine};
use lowlat_core::{default_workers, par_map, PathSource};
use lowlat_netgraph::hierarchy::HierarchyConfig;
use lowlat_netgraph::{shortest_path_tree, NodeId, RangeError};
use lowlat_sim::output::Row;
use lowlat_sim::runner::{self, io_error, Args, CliError, TelemetrySinks};
use lowlat_telemetry as telemetry;
use lowlat_topology::ingest::{self, IngestedGraph};
use lowlat_topology::synth::{generate, SynthConfig, SynthModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Where a cell's graph comes from.
enum Source {
    /// Shared pre-ingested graph (real file), index into `ingested`.
    File(usize),
    /// Regenerated per seed.
    Model(SynthModel),
}

fn mean_and_ci(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
    (mean, 1.96 * (var / n).sqrt())
}

fn main() {
    runner::run(experiment)
}

fn experiment() -> Result<(), CliError> {
    let mut args = Args::from_env();
    let edge_list: Option<String> = args.value("--edge-list")?;
    let graphml: Option<String> = args.value("--graphml")?;
    let mut models = Vec::new();
    for spec in args.list::<String>("--synthetic")?.unwrap_or_default() {
        let unknown = format!("unknown model '{spec}' (ba, ws, grid, random)");
        models.push(SynthModel::parse(&spec).ok_or_else(|| CliError::new("--synthetic", unknown))?);
    }
    let nodes = args.value("--nodes")?.unwrap_or(1000usize);
    SynthConfig { nodes, ..Default::default() }.validate().map_err(CliError::at("--nodes"))?;
    let tests = args.value("--tests")?.unwrap_or(100usize);
    let seeds: Vec<u64> = args.list("--seeds")?.unwrap_or_else(|| vec![42]);
    let k = args.value("--k")?.unwrap_or(3usize);
    RangeError::check(k >= 1, "k", k, "at least 1").map_err(CliError::at("--k"))?;
    let defaults = HierarchyConfig::default();
    let hier = HierarchyConfig {
        max_depth: args.value("--depth")?.unwrap_or(defaults.max_depth),
        max_leaf: args.value("--leaf")?.unwrap_or(defaults.max_leaf),
        branching: args.value("--branching")?.unwrap_or(defaults.branching),
    };
    let landmarks = args.value("--landmarks")?.unwrap_or(32usize);
    let engine_cfg = EngineConfig { hierarchy: hier, landmarks };
    engine_cfg.validate().map_err(|e| {
        let flag = match e.param {
            "landmarks" => "--landmarks",
            "max_leaf" => "--leaf",
            _ => "--branching",
        };
        CliError::new(flag, e)
    })?;
    let emit: Option<String> = args.value("--emit-edge-list")?;
    let output: Option<String> = args.value("--output")?;
    let summary_output: Option<String> = args.value("--summary-output")?;
    let sinks = TelemetrySinks::from_args(&mut args)?;
    // No scale axis here: the scale flags pass, everything else is an error.
    args.finish()?;

    // Ingest real files up front (shared across seeds); malformed input is
    // an error naming the offending line.
    let mut ingested: Vec<IngestedGraph> = Vec::new();
    let mut sources: Vec<(String, Source)> = Vec::new();
    if let Some(path) = &edge_list {
        let text = std::fs::read_to_string(path).map_err(io_error("--edge-list", path))?;
        let g = ingest::from_edge_list("RealWorld", &text)
            .map_err(|e| CliError::new("--edge-list", format!("{path}: {e}")))?;
        sources.push(("RealWorld".to_string(), Source::File(ingested.len())));
        ingested.push(g);
    }
    if let Some(path) = &graphml {
        let text = std::fs::read_to_string(path).map_err(io_error("--graphml", path))?;
        let g = ingest::from_graphml("RealWorld", &text)
            .map_err(|e| CliError::new("--graphml", format!("{path}: {e}")))?;
        let label = if edge_list.is_some() { "RealWorldGraphml" } else { "RealWorld" };
        sources.push((label.to_string(), Source::File(ingested.len())));
        ingested.push(g);
    }
    if sources.is_empty() && models.is_empty() {
        models = SynthModel::ALL.to_vec();
    }
    for m in &models {
        sources.push((m.label().to_string(), Source::Model(*m)));
    }

    // --emit-edge-list writes the first source's graph (synthetic: first
    // seed) so CI can round-trip generator output through the parser.
    if let Some(path) = &emit {
        let g = match &sources[0].1 {
            Source::File(gi) => ingest::to_edge_list(&ingested[*gi]),
            Source::Model(m) => {
                ingest::to_edge_list(&generate(*m, &SynthConfig { nodes, seed: seeds[0] }))
            }
        };
        std::fs::write(path, g).map_err(io_error("--emit-edge-list", path))?;
        eprintln!("wrote edge list for {} to {path}", sources[0].0);
    }

    eprintln!(
        "ingest space: {} topologies ({}) x {} seeds, {} tests each, k={}, \
         hierarchy depth<={} leaf<={} branching={} landmarks={}",
        sources.len(),
        sources.iter().map(|(l, _)| l.as_str()).collect::<Vec<_>>().join(","),
        seeds.len(),
        tests,
        k,
        hier.max_depth,
        hier.max_leaf,
        hier.branching,
        landmarks,
    );

    // (source, seed) cells are independent; `par_map` keeps them in order
    // so the output never depends on the worker count.
    let cells: Vec<(usize, u64)> = sources
        .iter()
        .enumerate()
        .flat_map(|(si, _)| seeds.iter().map(move |&s| (si, s)))
        .collect();
    // Each cell's JSON row, and the success rate, hop count and stretch
    // the summary averages over seeds.
    let results: Vec<(Row, [f64; 3])> = par_map(&cells, default_workers(), |&(si, seed)| {
        let (label, source) = &sources[si];
        // Synthetic graphs are per-seed draws; files are shared.
        let own;
        let graph_ref = match source {
            Source::File(gi) => &ingested[*gi],
            Source::Model(m) => {
                own = generate(*m, &SynthConfig { nodes, seed });
                &own
            }
        };
        let g = graph_ref.graph();
        let build_span = telemetry::timed_span("ingest.build_engine", "ingest");
        let engine = PartitionedPathEngine::build(g, &engine_cfg);
        let build_ms = build_span.finish_ms();

        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let n = g.node_count() as u32;
        let queries: Vec<(NodeId, NodeId)> = (0..tests)
            .map(|_| {
                let src = NodeId(rng.gen_range(0..n));
                let dst = loop {
                    let d = NodeId(rng.gen_range(0..n));
                    if d != src {
                        break d;
                    }
                };
                (src, dst)
            })
            .collect();
        // The span times the engine's queries and nothing else: the flat
        // reference the stretch divides by is computed after it closes.
        let batch_span = telemetry::timed_span("ingest.query_batch", "ingest");
        let best: Vec<Option<(usize, f64)>> = queries
            .iter()
            .map(|&(src, dst)| {
                engine.paths(src, dst, k).first().map(|p| (p.hop_count(), p.delay_ms()))
            })
            .collect();
        let batch_ms = batch_span.finish_ms();
        let (mut ok, mut hops, mut stretch_sum) = (0usize, 0usize, 0.0f64);
        for (&(src, dst), best) in queries.iter().zip(&best) {
            if let Some((best_hops, best_ms)) = *best {
                ok += 1;
                hops += best_hops;
                stretch_sum += best_ms / shortest_path_tree(g, src, None, None).dist_ms(dst);
            }
        }
        let per_test = |x: f64| if tests > 0 { x / tests as f64 } else { 0.0 };
        let per_routed = |x: f64| if ok > 0 { x / ok as f64 } else { 0.0 };
        let quality = [per_test(ok as f64), per_routed(hops as f64), per_routed(stretch_sum)];
        let (_, cross, fallback) = engine.stats().snapshot();
        let row = Row::new()
            .text("label", label)
            .num("seed", seed)
            .num("nodes", g.node_count())
            .num("cables", graph_ref.cable_count())
            .num("tests", tests)
            .num("success_rate", quality[0])
            .num("avg_hops", quality[1])
            .num("stretch", quality[2])
            .num("cross_fraction", per_test(cross as f64))
            .num("fallback_fraction", per_test(fallback as f64))
            .num("leaves", engine.leaf_ids().len())
            .num("landmarks", engine.landmark_count())
            .num("build_ms", build_ms)
            .num("query_us_mean", per_test(batch_ms * 1e3));
        (row, quality)
    });

    // Cross-seed summary in the Snippet-1 line format.
    let mut summary_lines: Vec<String> = Vec::new();
    let mut summary_rows: Vec<Row> = Vec::new();
    // A run with no tests has nothing to summarize.
    for (label, _) in sources.iter().filter(|_| tests > 0) {
        let of_label: Vec<&[f64; 3]> = cells
            .iter()
            .zip(&results)
            .filter(|((si, _), _)| &sources[*si].0 == label)
            .map(|(_, (_, quality))| quality)
            .collect();
        let mut line = Vec::new();
        let mut row =
            Row::new().text("label", label).num("seeds", of_label.len()).num("tests", tests);
        for (i, name) in ["success_rate", "avg_hops", "stretch"].into_iter().enumerate() {
            let (mean, ci) = mean_and_ci(&of_label.iter().map(|q| q[i]).collect::<Vec<_>>());
            line.push(format!("{name}={mean} +/- {ci}"));
            row = row.num(name, mean).num(format!("{name}_ci"), ci);
        }
        summary_lines.push(format!("{label}: {}", line.join(", ")));
        summary_rows.push(row);
    }
    for line in &summary_lines {
        eprintln!("{line}");
    }
    if let Some(path) = &summary_output {
        let text: String = summary_lines.iter().map(|line| format!("{line}\n")).collect();
        std::fs::write(path, text).map_err(io_error("--summary-output", path))?;
    }

    let seed_list = seeds.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
    let config = Row::new()
        .num("tests", tests)
        .num("k", k)
        .num("seeds", format!("[{seed_list}]"))
        .num("nodes", nodes)
        .num("max_depth", hier.max_depth)
        .num("max_leaf", hier.max_leaf)
        .num("branching", hier.branching)
        .num("landmarks", landmarks);
    let results: Vec<String> = results.iter().map(|(row, _)| row.json()).collect();
    let summary: Vec<String> = summary_rows.iter().map(Row::json).collect();
    let json = format!(
        "{{\n  \"config\": {},\n  \"results\": [\n    {}\n  ],\n  \"summary\": [\n    {}\n  ]\n}}",
        config.json(),
        results.join(",\n    "),
        summary.join(",\n    "),
    );
    match &output {
        Some(path) => {
            std::fs::write(path, &json).map_err(io_error("--output", path))?;
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
    sinks.write()
}
