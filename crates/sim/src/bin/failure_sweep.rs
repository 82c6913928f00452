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
//! scheme, load, scenario).
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

use lowlat_core::failure::{self, replace_under_failure, FailureImpact, FailureScenario};
use lowlat_core::pathset::PathCache;
use lowlat_core::scale::{self, ScaleToLoad};
use lowlat_core::schemes::SolveContext;
use lowlat_core::PathSource;
use lowlat_core::{default_workers, par_map};
use lowlat_sim::output::{print_rows, Row};
use lowlat_sim::runner::{self, build_schemes, Args, CliError, Scale, TelemetrySinks};
use lowlat_sim::stats::Cdf;
use lowlat_telemetry as telemetry;
use lowlat_tmgen::{GravityTmGen, TmGenConfig};
use lowlat_topology::zoo::named;
use lowlat_topology::Topology;

/// The named backbone corpus the survivability claims are made on.
fn named_corpus(scale: Scale) -> Vec<Topology> {
    match scale {
        Scale::Quick => vec![named::abilene(), named::gts_like()],
        _ => named::all(),
    }
}

/// `sweep` validates every scenario parameter before a generator runs.
const CHECKED: &str = "scenario parameters are validated before generating";

/// Nearest-rank quantiles reported per frontier cell.
const FRONTIER_QUANTILES: [f64; 5] = [0.5, 0.9, 0.95, 0.99, 1.0];

fn main() {
    runner::run(sweep)
}

fn sweep() -> Result<(), CliError> {
    let mut args = Args::from_env();
    let axes: Vec<String> = args.list("--scenarios")?.unwrap_or_else(|| vec!["single".to_string()]);
    let k = args.value("--k")?.unwrap_or(2usize);
    let count = args.value("--count")?.unwrap_or(5usize);
    let seed = args.value("--seed")?.unwrap_or(7u64);
    let loads: Vec<f64> = args.list("--loads")?.unwrap_or_else(|| vec![0.7]);
    let degrade = args.value("--degrade")?.unwrap_or(0.5f64);
    let corridor_km = args.value("--corridor-km")?.unwrap_or(100.0f64);
    let frontier = args.switch("--frontier");
    let specs: Vec<String> = args
        .list("--schemes")?
        .unwrap_or_else(|| ["LDR", "LatOpt", "SP"].map(String::from).to_vec());
    let sinks = TelemetrySinks::from_args(&mut args)?;
    let scale = args.finish()?;
    // Each value goes through the check its door makes, before any work and
    // also when its axis is not swept.
    for &load in &loads {
        scale::validate_target(load).map_err(CliError::at("--loads"))?;
    }
    failure::validate_k(k).map_err(CliError::at("--k"))?;
    failure::validate_count(count).map_err(CliError::at("--count"))?;
    failure::validate_factor(degrade).map_err(CliError::at("--degrade"))?;
    failure::validate_corridor_km(corridor_km).map_err(CliError::at("--corridor-km"))?;
    let schemes = build_schemes(&specs)?;
    let nets = named_corpus(scale);
    let scenarios_for = |topo: &Topology| -> Result<Vec<FailureScenario>, CliError> {
        let mut out = Vec::new();
        for axis in &axes {
            match axis.as_str() {
                "single" => out.extend(failure::single_link_failures(topo)),
                "node" => out.extend(failure::node_failures(topo)),
                "srlg" => out.extend(failure::pop_conduit_srlgs(topo)),
                "geo" => out.extend(failure::geo_corridor_srlgs(topo, corridor_km).expect(CHECKED)),
                "random" => out
                    .extend(failure::random_k_link_failures(topo, k, count, seed).expect(CHECKED)),
                "brownout" => out.extend(failure::brownout_failures(topo, degrade).expect(CHECKED)),
                other => {
                    let axes = "single, node, srlg, geo, random, brownout";
                    let message = format!("unknown scenario axis '{other}' ({axes})");
                    return Err(CliError::new("--scenarios", message));
                }
            }
        }
        Ok(out)
    };
    let scenario_sets = nets.iter().map(scenarios_for).collect::<Result<Vec<_>, _>>()?;
    if scenario_sets.iter().all(Vec::is_empty) {
        let message = format!("no network has a {} scenario", axes.join(" or "));
        return Err(CliError::new("--scenarios", message));
    }
    // One matrix per (network, load): the same gravity structure swept
    // across operating points.
    let tms: Vec<Vec<_>> = nets
        .iter()
        .map(|t| {
            let raw = GravityTmGen::new(TmGenConfig::default()).generate(t, 0);
            loads.iter().map(|&load| raw.scaled_to_load(t, load)).collect()
        })
        .collect();
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
    // The columns every row of a (network, scheme) cell leads with.
    let lead = |n: usize, s: usize| {
        Row::new()
            .text("network", nets[n].name())
            .num("pops", nets[n].pop_count())
            .num("links", nets[n].link_count())
            .text("scheme", schemes[s].name())
    };
    let cell_rows = par_map(&cells, default_workers(), |&(n, s, li)| {
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
            let out =
                replace_under_failure(scheme.as_ref(), net, &cache, tm, &mask, &mut ctx, None)
                    .unwrap_or_else(|e| {
                        panic!("{} under {} on {}: {e}", scheme.name(), scenario.name, net.name())
                    });
            // One measurement feeds both the repair_ms column and the
            // trace's per-scenario span.
            let repair_ms = scenario_span.finish_ms();
            let impact = &out.impact;
            let row = lead(n, s)
                .text("scenario", &scenario.name)
                .num("failed_elements", scenario.failed_elements())
                .num("kept_pairs", out.repair.kept_pairs)
                .num("repaired_pairs", out.repair.repaired_pairs)
                .num("paths_regrown", out.repair.paths_regrown)
                .num("unroutable_frac", impact.unroutable_fraction)
                .num("latency_stretch", impact.latency_stretch)
                .num("max_path_stretch", impact.max_path_stretch)
                .num("max_overload", impact.max_overload)
                .num("lp_solves", out.lp_solves)
                .num("lp_warm_hits", out.lp_warm_hits)
                .num("repair_ms", repair_ms)
                .num("load", loads[li]);
            rows.push((row, out.impact));
        }
        rows
    });
    let table: Vec<Row> = if frontier {
        // Availability frontier: per (network, scheme, load) cell, the
        // scenario distribution collapsed to nearest-rank quantiles — one
        // row per quantile, so plotting `quantile` against any metric
        // column draws the availability CDF directly.
        let mut table = Vec::new();
        for (&(n, s, li), rows) in cells.iter().zip(&cell_rows) {
            if rows.is_empty() {
                continue;
            }
            let cdf = |of: fn(&FailureImpact) -> f64| {
                Cdf::new(rows.iter().map(|(_, impact)| of(impact)).collect())
            };
            let unroutable = cdf(|i| i.unroutable_fraction);
            let stretch = cdf(|i| i.max_path_stretch);
            let overload = cdf(|i| i.max_overload);
            for q in FRONTIER_QUANTILES {
                table.push(
                    lead(n, s)
                        .num("scenarios", rows.len())
                        .num("quantile", q)
                        .num("unroutable_frac", unroutable.quantile(q))
                        .num("max_path_stretch", stretch.quantile(q))
                        .num("max_overload", overload.quantile(q))
                        .num("load", loads[li]),
                );
            }
        }
        table
    } else {
        cell_rows.into_iter().flatten().map(|(row, _)| row).collect()
    };
    print_rows(&table, std::io::stdout().lock()).expect("stdout");
    sinks.write()
}
