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

use std::io::Write as _;

use lowlat_core::hier::{EngineConfig, PartitionedPathEngine};
use lowlat_core::{default_workers, par_map, PathSource};
use lowlat_netgraph::hierarchy::HierarchyConfig;
use lowlat_netgraph::{shortest_path_tree, NodeId};
use lowlat_sim::runner::{write_telemetry_sinks, Args};
use lowlat_telemetry as telemetry;
use lowlat_topology::ingest::{self, IngestedGraph};
use lowlat_topology::synth::{generate, SynthConfig, SynthModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One (topology, seed) cell's outcome.
struct CellResult {
    label: String,
    seed: u64,
    nodes: usize,
    cables: usize,
    tests: usize,
    success_rate: f64,
    avg_hops: f64,
    stretch: f64,
    cross_fraction: f64,
    fallback_fraction: f64,
    leaves: usize,
    landmarks: usize,
    build_ms: f64,
    query_us_mean: f64,
}

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

/// Minimal JSON string escape (labels and paths only).
fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn read_or_die(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let mut args = Args::from_env();
    let edge_list: Option<String> = args.value("--edge-list");
    let graphml: Option<String> = args.value("--graphml");
    let mut models: Vec<SynthModel> = args
        .list::<String>("--synthetic")
        .unwrap_or_default()
        .iter()
        .map(|spec| {
            SynthModel::parse(spec).unwrap_or_else(|| {
                eprintln!("error: unknown synthetic model '{spec}' (ba, ws, grid, random)");
                std::process::exit(2);
            })
        })
        .collect();
    let nodes = args.value("--nodes").unwrap_or(1000usize);
    if nodes < 4 {
        eprintln!("error: --nodes expects at least 4 (the synthetic models' minimum), got {nodes}");
        std::process::exit(2);
    }
    let tests = args.value("--tests").unwrap_or(100usize);
    let seeds: Vec<u64> = args.list("--seeds").unwrap_or_else(|| vec![42]);
    let k = args.value("--k").unwrap_or(3usize).max(1);
    let defaults = HierarchyConfig::default();
    let hier = HierarchyConfig {
        max_depth: args.value("--depth").unwrap_or(defaults.max_depth),
        max_leaf: args.value("--leaf").unwrap_or(defaults.max_leaf),
        branching: args.value("--branching").unwrap_or(defaults.branching),
    };
    let landmarks = args.value("--landmarks").unwrap_or(32usize);
    let emit: Option<String> = args.value("--emit-edge-list");
    let output: Option<String> = args.value("--output");
    let summary_output: Option<String> = args.value("--summary-output");
    let metrics_out: Option<String> = args.value("--metrics-out");
    let trace_out: Option<String> = args.value("--trace-out");
    // No scale axis here: the scale flags pass, everything else exits 2.
    args.finish();
    if metrics_out.is_some() || trace_out.is_some() {
        telemetry::set_enabled(true);
    }

    // Ingest real files up front (shared across seeds); malformed input is
    // an exit-2 with the offending line number.
    let mut ingested: Vec<IngestedGraph> = Vec::new();
    let mut sources: Vec<(String, Source)> = Vec::new();
    if let Some(path) = &edge_list {
        let text = read_or_die(path);
        match ingest::from_edge_list("RealWorld", &text) {
            Ok(g) => {
                sources.push(("RealWorld".to_string(), Source::File(ingested.len())));
                ingested.push(g);
            }
            Err(e) => {
                eprintln!("error: {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = &graphml {
        let text = read_or_die(path);
        match ingest::from_graphml("RealWorld", &text) {
            Ok(g) => {
                let label =
                    if edge_list.is_some() { "RealWorldGraphml" } else { "RealWorld" }.to_string();
                sources.push((label, Source::File(ingested.len())));
                ingested.push(g);
            }
            Err(e) => {
                eprintln!("error: {path}: {e}");
                std::process::exit(2);
            }
        }
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
        std::fs::write(path, g).unwrap_or_else(|e| {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("wrote edge list for {} to {path}", sources[0].0);
    }

    let engine_cfg = EngineConfig { hierarchy: hier, landmarks };
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
    let results: Vec<CellResult> = par_map(&cells, default_workers(), |&(si, seed)| {
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
        let query_us_mean = if tests > 0 { batch_ms * 1e3 / tests as f64 } else { 0.0 };
        let (cross, fallback) = {
            let (_, c, f) = engine.stats().snapshot();
            (c, f)
        };
        CellResult {
            label: label.clone(),
            seed,
            nodes: g.node_count(),
            cables: graph_ref.cable_count(),
            tests,
            success_rate: if tests > 0 { ok as f64 / tests as f64 } else { 0.0 },
            avg_hops: if ok > 0 { hops as f64 / ok as f64 } else { 0.0 },
            stretch: if ok > 0 { stretch_sum / ok as f64 } else { 0.0 },
            cross_fraction: if tests > 0 { cross as f64 / tests as f64 } else { 0.0 },
            fallback_fraction: if tests > 0 { fallback as f64 / tests as f64 } else { 0.0 },
            leaves: engine.leaf_ids().len(),
            landmarks: engine.landmark_count(),
            build_ms,
            query_us_mean,
        }
    });

    // Cross-seed summary in the Snippet-1 line format.
    let mut summary_lines: Vec<String> = Vec::new();
    let mut summary_json: Vec<String> = Vec::new();
    for (label, _) in &sources {
        let rows: Vec<&CellResult> =
            results.iter().filter(|r| &r.label == label && r.tests > 0).collect();
        if rows.is_empty() {
            continue;
        }
        let (sr, sr_ci) = mean_and_ci(&rows.iter().map(|r| r.success_rate).collect::<Vec<_>>());
        let (ah, ah_ci) = mean_and_ci(&rows.iter().map(|r| r.avg_hops).collect::<Vec<_>>());
        let (st, st_ci) = mean_and_ci(&rows.iter().map(|r| r.stretch).collect::<Vec<_>>());
        summary_lines.push(format!(
            "{label}: success_rate={sr:.4} +/- {sr_ci:.4}, avg_hops={ah:.4} +/- {ah_ci:.4}, \
             stretch={st:.4} +/- {st_ci:.4}"
        ));
        summary_json.push(format!(
            "{{\"label\": {}, \"seeds\": {}, \"tests\": {}, \
             \"success_rate\": {sr:.6}, \"success_rate_ci\": {sr_ci:.6}, \
             \"avg_hops\": {ah:.6}, \"avg_hops_ci\": {ah_ci:.6}, \
             \"stretch\": {st:.6}, \"stretch_ci\": {st_ci:.6}}}",
            jstr(label),
            rows.len(),
            rows[0].tests,
        ));
    }
    for line in &summary_lines {
        eprintln!("{line}");
    }
    if let Some(path) = &summary_output {
        let mut f = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(2);
        });
        for line in &summary_lines {
            writeln!(f, "{line}").expect("write summary");
        }
    }

    let result_json: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "{{\"label\": {}, \"seed\": {}, \"nodes\": {}, \"cables\": {}, \
                 \"tests\": {}, \"success_rate\": {:.6}, \"avg_hops\": {:.6}, \
                 \"stretch\": {:.6}, \"cross_fraction\": {:.6}, \
                 \"fallback_fraction\": {:.6}, \"leaves\": {}, \"landmarks\": {}, \
                 \"build_ms\": {:.3}, \"query_us_mean\": {:.3}}}",
                jstr(&r.label),
                r.seed,
                r.nodes,
                r.cables,
                r.tests,
                r.success_rate,
                r.avg_hops,
                r.stretch,
                r.cross_fraction,
                r.fallback_fraction,
                r.leaves,
                r.landmarks,
                r.build_ms,
                r.query_us_mean,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"config\": {{\"tests\": {}, \"k\": {}, \"seeds\": [{}], \"nodes\": {}, \
         \"max_depth\": {}, \"max_leaf\": {}, \"branching\": {}, \"landmarks\": {}}},\n  \
         \"results\": [\n    {}\n  ],\n  \"summary\": [\n    {}\n  ]\n}}",
        tests,
        k,
        seeds.iter().map(u64::to_string).collect::<Vec<_>>().join(", "),
        nodes,
        hier.max_depth,
        hier.max_leaf,
        hier.branching,
        landmarks,
        result_json.join(",\n    "),
        summary_json.join(",\n    "),
    );
    match &output {
        Some(path) => {
            std::fs::write(path, &json).unwrap_or_else(|e| {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(2);
            });
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
    write_telemetry_sinks(metrics_out.as_deref(), trace_out.as_deref());
}
