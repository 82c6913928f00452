//! Failure sweep: the survivability axis of the experiment surface.
//!
//! Where `scenario_sweep` crosses static operating points and
//! `timeline_sweep` crosses traffic dynamics, this crosses *topology
//! dynamics*: every (network × scheme × failure scenario) cell runs the
//! full §5 reaction — repair the shared path cache under the failure mask
//! (keeping every pair the failure missed), drop disconnected demand,
//! re-place the survivors through the scheme's warm LP context — and
//! reports both the outcome (unroutable fraction, stretch, overload) and
//! the recovery telemetry (kept vs repaired pairs, warm-started solves,
//! wall time).
//!
//! Usage:
//! `cargo run --release --bin failure_sweep -- [--quick|--std|--full]
//!     [--scenarios single,node,srlg,geo,random,brownout] [--k 2]
//!     [--count 5] [--seed 7] [--loads 0.5,0.7] [--degrade 0.5]
//!     [--corridor-km 100] [--schemes LDR,LatOpt,SP] [--frontier]
//!     [--metrics-out FILE] [--trace-out FILE]`
//!
//! Scenario axes: `single` (exhaustive single-cable), `node` (each PoP
//! down), `srlg` (per-PoP conduit groups), `geo` (great-circle corridor
//! SRLGs within `--corridor-km`), `random` (`--count` draws of `--k`
//! simultaneous cable failures, deterministic in `--seed`), `brownout`
//! (each cable degraded to `--degrade` of capacity — nothing down, so the
//! LP must fit against *effective* capacities). One TSV row per (network,
//! scheme, load, scenario); `--load X` is shorthand for `--loads X`.
//!
//! `--frontier` switches to availability-frontier output: per (network,
//! scheme, load) cell, nearest-rank quantiles across the scenario set of
//! unroutable fraction, worst path stretch and worst overload — the CDF
//! rows Figure-style availability curves are plotted from.
//!
//! `--metrics-out` / `--trace-out` enable the telemetry layer and write a
//! metrics snapshot and a chrome-trace when the sweep finishes; the
//! `repair_ms` column and the trace's per-scenario span read the same
//! measurement.

use lowlat_core::failure::{self, replace_under_failure, FailureScenario};
use lowlat_core::pathset::PathCache;
use lowlat_core::scale::ScaleToLoad;
use lowlat_core::schemes::{registry, SolveContext};
use lowlat_core::PathSource;
use lowlat_core::{default_workers, par_map};
use lowlat_sim::runner::{write_telemetry_sinks, Args, Scale};
use lowlat_sim::stats::Cdf;
use lowlat_telemetry as telemetry;
use lowlat_tmgen::{GravityTmGen, TmGenConfig};
use lowlat_topology::zoo::named;
use lowlat_topology::Topology;

/// The named backbone corpus the survivability claims are made on.
fn named_corpus(scale: Scale) -> Vec<Topology> {
    match scale {
        Scale::Quick => vec![named::abilene(), named::gts_like()],
        _ => vec![
            named::abilene(),
            named::nsfnet(),
            named::geant_like(),
            named::gts_like(),
            named::cogent_like(),
            named::google_like(),
        ],
    }
}

struct ScenarioParams {
    k: usize,
    count: usize,
    seed: u64,
    degrade: f64,
    corridor_km: f64,
}

fn scenarios_for(topo: &Topology, axes: &[String], p: &ScenarioParams) -> Vec<FailureScenario> {
    let mut out = Vec::new();
    for axis in axes {
        match axis.as_str() {
            "single" => out.extend(failure::single_link_failures(topo)),
            "node" => out.extend(failure::node_failures(topo)),
            "srlg" => out.extend(failure::pop_conduit_srlgs(topo)),
            "geo" => out.extend(failure::geo_corridor_srlgs(topo, p.corridor_km)),
            "random" => {
                let k = p.k.min(topo.cables().len());
                out.extend(failure::random_k_link_failures(topo, k, p.count, p.seed));
            }
            "brownout" => out.extend(failure::brownout_failures(topo, p.degrade)),
            other => {
                eprintln!(
                    "error: unknown scenario axis '{other}' \
                     (single, node, srlg, geo, random, brownout)"
                );
                std::process::exit(2);
            }
        }
    }
    out
}

struct Row {
    network: String,
    pops: usize,
    links: usize,
    scheme: String,
    scenario: String,
    failed_elements: usize,
    kept_pairs: usize,
    repaired_pairs: usize,
    paths_regrown: usize,
    unroutable_fraction: f64,
    latency_stretch: f64,
    max_path_stretch: f64,
    max_overload: f64,
    lp_solves: usize,
    lp_warm_hits: usize,
    repair_ms: f64,
    load: f64,
}

/// Nearest-rank quantiles reported per frontier cell.
const FRONTIER_QUANTILES: [f64; 5] = [0.5, 0.9, 0.95, 0.99, 1.0];

fn main() {
    let mut args = Args::from_env();
    let axes: Vec<String> = args.list("--scenarios").unwrap_or_else(|| vec!["single".to_string()]);
    let k = args.value("--k").unwrap_or(2usize);
    if k == 0 {
        eprintln!("error: --k expects at least 1 cable per random scenario");
        std::process::exit(2);
    }
    let count = args.value("--count").unwrap_or(5usize);
    let seed = args.value("--seed").unwrap_or(7u64);
    // `--load 0.7` is the single-point alias for `--loads`.
    let loads: Vec<f64> = args.list("--loads").or(args.list("--load")).unwrap_or_else(|| vec![0.7]);
    if let Some(load) = loads.iter().find(|&&load| !(load > 0.0 && load <= 1.0)) {
        eprintln!("error: --loads expects loads in (0, 1] of the min-cut load, got {load}");
        std::process::exit(2);
    }
    let degrade = args.value("--degrade").unwrap_or(0.5f64);
    if !(degrade > 0.0 && degrade < 1.0) {
        eprintln!("error: --degrade expects a factor in (0, 1), got {degrade}");
        std::process::exit(2);
    }
    let corridor_km = args.value("--corridor-km").unwrap_or(100.0f64);
    if !(corridor_km >= 0.0 && corridor_km.is_finite()) {
        eprintln!("error: --corridor-km expects a finite distance >= 0, got {corridor_km}");
        std::process::exit(2);
    }
    let frontier = args.switch("--frontier");
    let specs: Vec<String> = args
        .list("--schemes")
        .unwrap_or_else(|| ["LDR", "LatOpt", "SP"].map(String::from).to_vec());
    let metrics_out: Option<String> = args.value("--metrics-out");
    let trace_out: Option<String> = args.value("--trace-out");
    let scale = args.finish();
    if metrics_out.is_some() || trace_out.is_some() {
        telemetry::set_enabled(true);
    }
    let schemes: Vec<_> = specs
        .iter()
        .map(|s| {
            registry::build(s).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2);
            })
        })
        .collect();
    let nets = named_corpus(scale);
    // One matrix per (network, load): the same gravity structure swept
    // across operating points.
    let tms: Vec<Vec<_>> = nets
        .iter()
        .map(|t| {
            let raw = GravityTmGen::new(TmGenConfig::default()).generate(t, 0);
            loads.iter().map(|&load| raw.scaled_to_load(t, load)).collect()
        })
        .collect();
    let params = ScenarioParams { k, count, seed, degrade, corridor_km };
    let scenario_sets: Vec<Vec<FailureScenario>> =
        nets.iter().map(|t| scenarios_for(t, &axes, &params)).collect();
    // Intact all-pairs delays, once per network — every scenario row of a
    // network judges stretch against the same baseline.
    let intact_delays: Vec<Vec<Vec<f64>>> =
        nets.iter().map(|t| lowlat_netgraph::all_pairs_delays(t.graph())).collect();
    eprintln!(
        "failure space: {} networks x {} schemes ({}) x {} loads ({:?}), \
         {} scenarios total ({}){}",
        nets.len(),
        schemes.len(),
        schemes.iter().map(|s| s.name()).collect::<Vec<_>>().join(","),
        loads.len(),
        loads,
        scenario_sets.iter().map(Vec::len).sum::<usize>(),
        axes.join(","),
        if frontier { ", frontier quantiles" } else { "" },
    );

    // (network, scheme, load) cells are independent and each iterates its
    // scenarios sequentially over ONE shared cache + LP context — the
    // repair-not-rebuild, warm-not-cold recovery story. `par_map` keeps the
    // cells in order whatever the worker count.
    let load_count = loads.len();
    let cells: Vec<(usize, usize, usize)> = (0..nets.len())
        .flat_map(|n| {
            (0..schemes.len()).flat_map(move |s| (0..load_count).map(move |li| (n, s, li)))
        })
        .collect();
    let cell_rows: Vec<Vec<Row>> = par_map(&cells, default_workers(), |&(n, s, li)| {
        let (net, tm, scheme) = (&nets[n], &tms[n][li], &schemes[s]);
        let cache = PathCache::new(net.graph());
        let mut ctx = SolveContext::new();
        // Pre-failure baseline warms the cache and the LP bases.
        scheme
            .place_with_context(&cache, tm, &mut ctx)
            .unwrap_or_else(|e| panic!("{} baseline on {}: {e}", scheme.name(), net.name()));
        let mut rows = Vec::with_capacity(scenario_sets[n].len());
        for scenario in &scenario_sets[n] {
            let mask = scenario.mask(net);
            // Restore the intact view first: generators repaired for the
            // previous scenario go back to pure, so each row measures repair
            // against the warm pre-failure cache (direct mask-to-mask
            // transitions would re-mask a monotonically growing pair set).
            // Timed separately — repair_ms covers the failure reaction
            // itself.
            cache.clear_failure();
            let scenario_span = telemetry::timed_span("failure_sweep.scenario", "failure");
            let out = replace_under_failure(
                scheme.as_ref(),
                net,
                &cache,
                tm,
                &mask,
                &mut ctx,
                Some(&intact_delays[n]),
            )
            .unwrap_or_else(|e| {
                panic!("{} under {} on {}: {e}", scheme.name(), scenario.name, net.name())
            });
            // One measurement feeds both the repair_ms column and the
            // trace's per-scenario span.
            let repair_ms = scenario_span.finish_ms();
            rows.push(Row {
                network: net.name().to_string(),
                pops: net.pop_count(),
                links: net.link_count(),
                scheme: scheme.name(),
                scenario: scenario.name.clone(),
                failed_elements: scenario.failed_elements(),
                kept_pairs: out.repair.kept_pairs,
                repaired_pairs: out.repair.repaired_pairs,
                paths_regrown: out.repair.paths_regrown,
                unroutable_fraction: out.impact.unroutable_fraction,
                latency_stretch: out.impact.latency_stretch,
                max_path_stretch: out.impact.max_path_stretch,
                max_overload: out.impact.max_overload,
                lp_solves: out.lp_solves,
                lp_warm_hits: out.lp_warm_hits,
                repair_ms,
                load: loads[li],
            });
        }
        rows
    });
    if frontier {
        // Availability frontier: per (network, scheme, load) cell, the
        // scenario distribution collapsed to nearest-rank quantiles — one
        // row per quantile, so plotting `quantile` against any metric
        // column draws the availability CDF directly.
        println!(
            "network\tpops\tlinks\tscheme\tscenarios\tquantile\tunroutable_frac\t\
             max_path_stretch\tmax_overload\tload"
        );
        for rows in cell_rows {
            let Some(first) = rows.first() else { continue };
            let unroutable = Cdf::new(rows.iter().map(|r| r.unroutable_fraction).collect());
            let stretch = Cdf::new(rows.iter().map(|r| r.max_path_stretch).collect());
            let overload = Cdf::new(rows.iter().map(|r| r.max_overload).collect());
            for q in FRONTIER_QUANTILES {
                println!(
                    "{}\t{}\t{}\t{}\t{}\t{:.2}\t{:.4}\t{:.4}\t{:.4}\t{}",
                    first.network,
                    first.pops,
                    first.links,
                    first.scheme,
                    rows.len(),
                    q,
                    unroutable.quantile(q),
                    stretch.quantile(q),
                    overload.quantile(q),
                    first.load,
                );
            }
        }
        write_telemetry_sinks(metrics_out.as_deref(), trace_out.as_deref());
        return;
    }
    println!(
        "network\tpops\tlinks\tscheme\tscenario\tfailed_elements\tkept_pairs\trepaired_pairs\t\
         paths_regrown\tunroutable_frac\tlatency_stretch\tmax_path_stretch\tmax_overload\t\
         lp_solves\tlp_warm_hits\trepair_ms\tload"
    );
    for rows in cell_rows {
        for r in rows {
            println!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.4}\t{:.4}\t{:.4}\t{:.4}\t{}\t{}\t{:.2}\t{}",
                r.network,
                r.pops,
                r.links,
                r.scheme,
                r.scenario,
                r.failed_elements,
                r.kept_pairs,
                r.repaired_pairs,
                r.paths_regrown,
                r.unroutable_fraction,
                r.latency_stretch,
                r.max_path_stretch,
                r.max_overload,
                r.lp_solves,
                r.lp_warm_hits,
                r.repair_ms,
                r.load,
            );
        }
    }
    write_telemetry_sinks(metrics_out.as_deref(), trace_out.as_deref());
}
