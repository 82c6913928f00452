//! Timeline sweep: the §5 deployment cycle run across the corpus for any
//! set of controllers — bursty-trace scenarios join the sweep surface.
//!
//! Where `scenario_sweep` crosses static operating points, this crosses
//! *dynamics*: every (network × controller) cell simulates the
//! minute-by-minute measure→optimize→install loop against evolving traffic
//! and reports the queueing that actually materialized, the LP warm-start
//! telemetry that makes the per-minute cycle affordable, and the service
//! axes of the loop itself: decision latency and path churn.
//!
//! Usage:
//! `cargo run --release --bin timeline_sweep -- [--quick|--std|--full]
//!     [--minutes N] [--warmup N] [--cv 0.3] [--seed 99]
//!     [--diurnal 0.0] [--period 1440] [--networks Abilene,...]
//!     [--schemes LDR,SP,static:SP]
//!     [--metrics-out FILE] [--trace-out FILE]`
//!
//! Controllers are registry specs, `static:`-prefixed for the placed-once
//! baseline or `bounded:`-prefixed for the churn-bounded variant.
//! `--diurnal`/`--period` modulate the minute means with a sine cycle for
//! long-horizon runs; `--networks` restricts the corpus to the named
//! networks (the named corpus — Abilene, GtsCe-like, … — plus the
//! synthetic zoo). One TSV row per (network, controller). New columns are
//! appended after the original twelve so existing column indices stay
//! valid. A value `TimelineConfig::validate` rejects (`--minutes 0`,
//! `--warmup 1`, a `--minutes` and `--warmup` whose sum overflows — named
//! `--minutes` —, a negative or NaN `--cv`, `--diurnal` outside `[0, 1)`,
//! `--period` below 2 with a diurnal swing) exits 2 naming the flag.
//!
//! `--metrics-out` / `--trace-out` enable the telemetry layer and write a
//! metrics snapshot (JSON, or TSV with a `.tsv` path) and a chrome-trace
//! (load in Perfetto / `chrome://tracing`) when the sweep finishes. The
//! TSV columns are unchanged either way.

use lowlat_core::scale::ScaleToLoad;
use lowlat_core::{default_workers, par_map};
use lowlat_sim::output::{print_rows, Row};
use lowlat_sim::runner::{self, Args, CliError, Scale, TelemetrySinks};
use lowlat_sim::timeline::{self, simulate, Controller, TimelineConfig};
use lowlat_tmgen::{GravityTmGen, TmGenConfig};
use lowlat_topology::zoo::{self, named};
use lowlat_topology::Topology;

/// Resolves `--networks` names against the named corpus plus the synthetic
/// zoo (case-insensitive); a miss is an error listing the available names.
fn select_named(names: &[String]) -> Result<Vec<Topology>, CliError> {
    let pool: Vec<Topology> = named::all().into_iter().chain(zoo::synthetic_zoo()).collect();
    names
        .iter()
        .map(|want| {
            pool.iter().find(|t| t.name().eq_ignore_ascii_case(want)).cloned().ok_or_else(|| {
                let known: Vec<&str> = pool.iter().map(|t| t.name()).collect();
                CliError::new(
                    "--networks",
                    format!("unknown network `{want}`; known: {}", known.join(", ")),
                )
            })
        })
        .collect()
}

fn main() {
    runner::run(sweep)
}

fn sweep() -> Result<(), CliError> {
    let mut args = Args::from_env();
    let minutes: Option<usize> = args.value("--minutes")?;
    let warmup: Option<usize> = args.value("--warmup")?;
    let cv = args.value("--cv")?.unwrap_or(timeline::DEFAULT_CV);
    let seed = args.value("--seed")?.unwrap_or(timeline::DEFAULT_SEED);
    let diurnal = args.value("--diurnal")?.unwrap_or(0.0f64);
    let period = args.value("--period")?.unwrap_or(1440usize);
    let networks: Option<Vec<String>> = args.list("--networks")?;
    let specs: Vec<String> = args
        .list("--schemes")?
        .unwrap_or_else(|| ["LDR", "SP", "static:SP"].map(String::from).to_vec());
    let sinks = TelemetrySinks::from_args(&mut args)?;
    let scale = args.finish()?;
    let controllers = specs
        .iter()
        .map(|s| Controller::parse(s))
        .collect::<Result<Vec<_>, _>>()
        .map_err(CliError::at("--schemes"))?;
    // Scale-dependent defaults: the timeline multiplies whole-corpus cost by
    // its minute count, so --quick trims both axes.
    let config = TimelineConfig {
        minutes: minutes.unwrap_or(match scale {
            Scale::Quick => 3,
            Scale::Std => timeline::DEFAULT_MINUTES,
            Scale::Full => 2 * timeline::DEFAULT_MINUTES,
        }),
        warmup_minutes: warmup.unwrap_or(match scale {
            Scale::Quick => 2,
            _ => timeline::DEFAULT_WARMUP_MINUTES,
        }),
        cv,
        seed,
        diurnal_amplitude: diurnal,
        diurnal_period: period,
        ..Default::default()
    };
    config.validate().map_err(|e| {
        let flag = match e.param {
            "minutes" => "--minutes",
            "warmup_minutes" => "--warmup",
            "cv" => "--cv",
            "diurnal_amplitude" => "--diurnal",
            _ => "--period",
        };
        CliError::new(flag, e)
    })?;

    let nets = match &networks {
        Some(names) => select_named(names)?,
        None => scale.networks(),
    };
    eprintln!(
        "timeline space: {} networks x {} controllers ({}), {} minutes (+{} warm-up), cv {cv}, \
         seed {seed}, diurnal {diurnal}",
        nets.len(),
        controllers.len(),
        controllers.iter().map(|c| c.name()).collect::<Vec<_>>().join(","),
        config.minutes,
        config.warmup_minutes,
    );

    let tms: Vec<_> = nets
        .iter()
        .map(|t| GravityTmGen::new(TmGenConfig::default()).generate(t, 0).scaled_to_load(t, 0.7))
        .collect();
    let cells: Vec<(usize, usize)> =
        (0..nets.len()).flat_map(|n| (0..controllers.len()).map(move |c| (n, c))).collect();
    // (network, controller) cells are independent; `par_map` keeps the
    // rows in cell order whatever the worker count.
    let rows = par_map(&cells, default_workers(), |&(n, c)| {
        let out = simulate(&nets[n], &tms[n], &controllers[c], &config);
        Row::new()
            .text("network", nets[n].name())
            .num("pops", nets[n].pop_count())
            .num("links", nets[n].link_count())
            .text("controller", controllers[c].name())
            .num("minutes", config.minutes)
            .num("cv", cv)
            .num("seed", seed)
            .num("worst_queue_ms", out.worst_queue_ms())
            .num("queue_minutes", out.minutes_with_queue_above(1.0))
            .num("mean_stretch", out.mean_stretch())
            .num("lp_solves", out.lp_solves)
            .num("lp_warm_hits", out.lp_warm_hits)
            .num("decision_ms_med", out.median_decision_ms())
            .num("paths_changed", out.total_paths_changed())
            .num("moved_volume_frac", out.mean_moved_volume_fraction())
    });
    print_rows(&rows, std::io::stdout().lock()).expect("stdout");
    sinks.write()
}
