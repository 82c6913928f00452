//! One driver per data figure in the paper.
//!
//! Each `figNN` module exposes `run(scale) -> Vec<Series>`; [`ALL`] names
//! them, and the `figures` binary in `src/bin/` prints the ones asked for
//! as TSV plus an ASCII sketch.

pub mod fig01_apa;
pub mod fig03_sp;
pub mod fig04_schemes;
pub mod fig07_util;
pub mod fig08_headroom;
pub mod fig09_prediction;
pub mod fig10_sigma;
pub mod fig15_runtime;
pub mod fig16_stretch;
pub mod fig17_load;
pub mod fig18_locality;
pub mod fig19_google;
pub mod fig20_growth;

use lowlat_core::default_workers;

use crate::output::{ascii_plot, print_tsv, Series};
use crate::runner::{llpd_map, run_grid, RunGrid, Scale};
use crate::stats::median_of;

/// A figure the `figures` binary can emit: the name `--fig` takes (and
/// `just figures` writes `figures/<name>.tsv` under) and the function that
/// runs it at a scale and [`emit`]s its panels.
pub type Figure = (&'static str, fn(Scale));

/// Every data figure, in paper order.
pub const ALL: &[Figure] = &[
    ("fig01_apa_cdf", |scale| {
        emit("Figure 1: CDF of APA per network, path stretch limit 1.4", &fig01_apa::run(scale))
    }),
    ("fig03_sp_congestion", |scale| {
        emit(
            "Figure 3: congested-pair fraction vs LLPD under shortest-path routing",
            &fig03_sp::run(scale),
        )
    }),
    ("fig04_active_schemes", |scale| {
        emit(
            "Figure 4: congestion + latency stretch vs LLPD (LatOpt, B4, MinMax, MinMaxK10)",
            &fig04_schemes::run(scale),
        )
    }),
    ("fig07_util_cdf", |scale| {
        emit(
            "Figure 7: link-utilization CDF on GTS-like (LatOpt vs MinMax)",
            &fig07_util::run(scale),
        )
    }),
    ("fig08_headroom", |scale| {
        emit(
            "Figure 8: median latency stretch vs LLPD as headroom rises",
            &fig08_headroom::run(scale),
        )
    }),
    ("fig09_prediction", |scale| {
        emit(
            "Figure 9: CDF of measured/predicted bitrate (Algorithm 1)",
            &fig09_prediction::run(scale),
        )
    }),
    ("fig10_sigma_scatter", |scale| {
        emit("Figure 10: sigma(t) vs sigma(t+1) scatter", &fig10_sigma::run(scale))
    }),
    ("fig15_runtime", |scale| {
        emit("Figure 15: runtime CDFs (LDR warm/cold, link-based)", &fig15_runtime::run(scale))
    }),
    ("fig16_max_stretch", |scale| {
        use fig16_stretch::Panel;
        for (panel, title) in [
            (Panel::LowLlpd, "Figure 16a: LLPD < 0.5, no headroom"),
            (Panel::HighLlpd, "Figure 16b: LLPD > 0.5, no headroom"),
            (Panel::HighLlpdHeadroom, "Figure 16c: LLPD > 0.5, 10% headroom"),
        ] {
            emit(title, &fig16_stretch::run(scale, panel));
        }
    }),
    ("fig17_load_sweep", |scale| {
        emit("Figure 17: median max stretch vs load (LLPD > 0.5)", &fig17_load::run(scale))
    }),
    ("fig18_locality_sweep", |scale| {
        emit("Figure 18: median max stretch vs locality (LLPD > 0.5)", &fig18_locality::run(scale))
    }),
    ("fig19_google", |scale| {
        emit("Figure 19: Figure 3 plus the Google-like WAN datapoint", &fig19_google::run(scale))
    }),
    ("fig20_growth", |scale| {
        emit(
            "Figure 20: latency stretch before vs after LLPD-guided growth",
            &fig20_growth::run(scale),
        )
    }),
];

/// The `figures` binary's `--fig a,b` selection: each name's entry of
/// [`ALL`], in the order given. An unknown name is an `Err` listing the
/// valid ones (the binary exits 2 with it, as [`crate::runner::Args`] does
/// for an unknown flag).
pub fn try_select(names: &[String]) -> Result<Vec<Figure>, String> {
    names
        .iter()
        .map(|name| {
            ALL.iter().find(|(known, _)| known == name).copied().ok_or_else(|| {
                let valid: Vec<&str> = ALL.iter().map(|(known, _)| *known).collect();
                format!("unknown figure {name} (expected one of {})", valid.join(", "))
            })
        })
        .collect()
}

/// Prints a figure's series (TSV to stdout + ASCII sketch to stderr).
pub fn emit(title: &str, series: &[Series]) {
    print_tsv(title, series, std::io::stdout().lock()).expect("stdout");
    eprintln!("{}", ascii_plot(title, series, 72, 18));
}

/// The corpus restricted to networks the figure wants (LLPD filtering is
/// common enough to share).
pub fn networks_with_llpd(
    scale: Scale,
    filter: impl Fn(f64) -> bool,
) -> Vec<(lowlat_topology::Topology, f64)> {
    let nets = scale.networks();
    let llpds = llpd_map(&nets, default_workers());
    nets.into_iter().zip(llpds).filter(|(_, l)| filter(*l)).collect()
}

/// Figures 17 and 18: one grid over `scenarios` on the networks whose LLPD
/// exceeds 0.5, and one series per scheme with a point per scenario at `x`
/// of it — the median max flow stretch across matrices. Runs that fail to
/// fit contribute a large sentinel stretch (they are the reason B4's curve
/// shoots up on a log axis).
fn median_max_stretch_sweep(
    scale: Scale,
    scenarios: &[(f64, f64)],
    x: impl Fn((f64, f64)) -> f64,
) -> Vec<Series> {
    let nets: Vec<_> = networks_with_llpd(scale, |l| l > 0.5).into_iter().map(|(t, _)| t).collect();
    let grid = RunGrid::with_schemes(
        scenarios,
        scale.tms_per_network(),
        &["B4", "LDR", "MinMax", "MinMaxK10"],
    );
    let per_scenario = run_grid(&nets, None, &grid, default_workers());
    grid.schemes
        .iter()
        .map(|scheme| {
            let name = scheme.name();
            let points = scenarios
                .iter()
                .zip(&per_scenario)
                .filter_map(|(&scenario, records)| {
                    let vals: Vec<f64> = records
                        .iter()
                        .filter(|r| r.scheme == name)
                        .map(|r| if r.fits { r.max_flow_stretch } else { 50.0 })
                        .collect();
                    (!vals.is_empty()).then(|| (x(scenario), median_of(&vals)))
                })
                .collect();
            Series::new(name, points)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(figures: &[Figure]) -> Vec<&'static str> {
        figures.iter().map(|(name, _)| *name).collect()
    }

    /// The names are the file stems `just figures` writes under `figures/`
    /// (they were the thirteen binary names), in paper order.
    #[test]
    fn all_names_the_thirteen_figures_once_each() {
        assert_eq!(
            names(ALL),
            [
                "fig01_apa_cdf",
                "fig03_sp_congestion",
                "fig04_active_schemes",
                "fig07_util_cdf",
                "fig08_headroom",
                "fig09_prediction",
                "fig10_sigma_scatter",
                "fig15_runtime",
                "fig16_max_stretch",
                "fig17_load_sweep",
                "fig18_locality_sweep",
                "fig19_google",
                "fig20_growth",
            ]
        );
    }

    #[test]
    fn selection_keeps_the_order_given_and_rejects_unknown_names() {
        let pick = |csv: &str| {
            try_select(&csv.split(',').map(String::from).collect::<Vec<_>>())
                .map(|figures| names(&figures))
        };
        assert_eq!(
            pick("fig16_max_stretch,fig01_apa_cdf"),
            Ok(vec!["fig16_max_stretch", "fig01_apa_cdf"])
        );
        let message = pick("fig01_apa_cdf,fig99_nope").unwrap_err();
        assert!(message.contains("fig99_nope"), "{message}");
        for (name, _) in ALL {
            assert!(message.contains(name), "{name} missing from: {message}");
        }
    }
}
