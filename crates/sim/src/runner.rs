//! Work-stealing (scenario × network × traffic-matrix × scheme) experiment
//! engine, behind one door: [`run_grid`].
//!
//! The seed engine parallelized across *networks* only, so a Std/Full sweep
//! spent its tail waiting on the few large topologies while most cores sat
//! idle. This engine flattens the grid into individual work items — first
//! `(scenario, network, matrix)` generation/scaling items, then
//! `(scenario, network, matrix, scheme)` placement items — that workers
//! steal off a shared atomic counter ([`lowlat_core::par_map`], the one
//! fan-out in the workspace). All of a network's items, in every scenario,
//! share one lock-striped [`PathCache`], so the k-shortest-path work the
//! min-cut scaling solve does is reused by every scheme, and schemes running
//! concurrently on the same graph do not contend (§5's "readily cached"
//! observation).
//!
//! Output is deterministic: every work item writes into its own pre-assigned
//! slot, so the returned [`RunRecord`] order — and, `runtime_ms` aside, the
//! records themselves — are identical whatever the worker count.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

use lowlat_core::eval::PlacementEval;
use lowlat_core::llpd::{LlpdAnalysis, LlpdConfig};
use lowlat_core::par_map;
use lowlat_core::pathset::PathCache;
use lowlat_core::scale::min_cut_load;
use lowlat_core::schemes::{registry, RoutingScheme};
use lowlat_tmgen::{GravityTmGen, TmGenConfig, TrafficMatrix};
use lowlat_topology::zoo::{synthetic_zoo, ZooClass};
use lowlat_topology::Topology;

/// Experiment size, selected by `--quick` / `--std` / `--full`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// CI-sized: a handful of small networks, one matrix each.
    Quick,
    /// Default: the whole corpus, a few matrices each.
    Std,
    /// The paper's sweep: the whole corpus, many matrices.
    Full,
}

impl Scale {
    /// The synthetic corpus ([`synthetic_zoo`]) subset for this scale.
    pub fn networks(&self) -> Vec<Topology> {
        let zoo = synthetic_zoo();
        match self {
            Scale::Quick => zoo
                .into_iter()
                .enumerate()
                .filter(|(i, t)| i % 8 == 0 && t.pop_count() <= 30)
                .map(|(_, t)| t)
                .collect(),
            _ => zoo,
        }
    }

    /// Traffic matrices per network.
    pub fn tms_per_network(&self) -> u64 {
        match self {
            Scale::Quick => 1,
            Scale::Std => 3,
            Scale::Full => 10,
        }
    }
}

/// A binary's command line, consumed as the binary names its flags: every
/// [`Args::value`] / [`Args::list`] / [`Args::switch`] call takes its flag
/// out, and [`Args::finish`] reads the scale flags and rejects whatever is
/// left. Each flag is therefore named once, where it is read, and a typoed
/// one is an error instead of a multi-hour sweep at the wrong settings. A
/// flag given twice keeps its last value.
pub struct Args {
    rest: Vec<String>,
    /// Every flag asked for so far — what the leftover message offers.
    known: Vec<&'static str>,
}

/// A rejected input: the flag (or argument) at fault and what is wrong
/// with it. [`run`] prints it.
#[derive(Clone, Debug, PartialEq)]
pub struct CliError {
    flag: String,
    message: String,
}

impl CliError {
    /// An error about `flag`.
    pub fn new(flag: &str, message: impl fmt::Display) -> CliError {
        CliError { flag: flag.to_string(), message: message.to_string() }
    }

    /// [`CliError::new`] for `map_err`: `door(x).map_err(CliError::at("--x"))?`.
    pub fn at<E: fmt::Display>(flag: &str) -> impl FnOnce(E) -> CliError + '_ {
        move |e| CliError::new(flag, e)
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.flag, self.message)
    }
}

/// Runs a binary's body and returns what it returns. A body that rejects
/// its input ends here: `error: <flag>: <message>` on stderr and exit
/// status 2 — the one way out of every binary for a bad input.
pub fn run<T>(body: impl FnOnce() -> Result<T, CliError>) -> T {
    body().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

fn parse<T: FromStr>(flag: &str, value: &str) -> Result<T, CliError> {
    value.parse().map_err(|_| CliError::new(flag, format!("unparsable value '{value}'")))
}

impl Args {
    /// The process arguments.
    pub fn from_env() -> Args {
        Args::new(std::env::args().skip(1))
    }

    /// An explicit argument list (what the tests drive).
    fn new(args: impl IntoIterator<Item = String>) -> Args {
        Args { rest: args.into_iter().collect(), known: Vec::new() }
    }

    /// Takes `flag` and the argument after it — whatever that looks like —
    /// out of the line and parses the latter; `None` when the flag is
    /// absent, an error when its value is missing or does not parse.
    pub fn value<T: FromStr>(&mut self, flag: &'static str) -> Result<Option<T>, CliError> {
        self.known.push(flag);
        let mut found = None;
        while let Some(i) = self.rest.iter().position(|a| a == flag) {
            if i + 1 == self.rest.len() {
                return Err(CliError::new(flag, "expects a value"));
            }
            let value = self.rest.remove(i + 1);
            self.rest.remove(i);
            found = Some(parse(flag, &value)?);
        }
        Ok(found)
    }

    /// A comma-separated value flag (`--schemes LDR, SP`): items trimmed,
    /// empty ones dropped, each parsed. An error on an unparsable item or a
    /// list with nothing in it.
    pub fn list<T: FromStr>(&mut self, flag: &'static str) -> Result<Option<Vec<T>>, CliError> {
        let Some(spec) = self.value::<String>(flag)? else { return Ok(None) };
        let items = spec
            .split(',')
            .map(str::trim)
            .filter(|item| !item.is_empty())
            .map(|item| parse(flag, item))
            .collect::<Result<Vec<T>, CliError>>()?;
        if items.is_empty() {
            return Err(CliError::new(flag, "expects at least one value"));
        }
        Ok(Some(items))
    }

    /// Takes a valueless flag out of the line; true when it was there.
    pub fn switch(&mut self, flag: &'static str) -> bool {
        self.known.push(flag);
        let before = self.rest.len();
        self.rest.retain(|a| a != flag);
        self.rest.len() < before
    }

    /// Reads `--quick`/`--std`/`--full` (the last one wins, `--std` when
    /// none is given) out of what is left; anything else is an error naming
    /// the argument and the flags this binary asked for.
    pub fn finish(self) -> Result<Scale, CliError> {
        let mut scale = Scale::Std;
        for arg in &self.rest {
            scale = match arg.as_str() {
                "--quick" => Scale::Quick,
                "--std" => Scale::Std,
                "--full" => Scale::Full,
                other => {
                    let mut expected = String::from("--quick/--std/--full");
                    if !self.known.is_empty() {
                        expected += &format!(" or one of {}", self.known.join("/"));
                    }
                    return Err(CliError::new(
                        other,
                        format!("unknown argument (expected {expected})"),
                    ));
                }
            };
        }
        Ok(scale)
    }
}

/// The telemetry sinks a sweep binary's `--metrics-out` / `--trace-out`
/// flags ask for. Reading the flags creates the files and switches
/// telemetry on, so an unwritable path is rejected before the sweep runs.
/// The sweep's own output is the same with or without them.
pub struct TelemetrySinks {
    metrics: Option<String>,
    trace: Option<String>,
}

impl TelemetrySinks {
    /// Reads the two flags out of `args`.
    pub fn from_args(args: &mut Args) -> Result<TelemetrySinks, CliError> {
        let sinks = TelemetrySinks {
            metrics: args.value("--metrics-out")?,
            trace: args.value("--trace-out")?,
        };
        for (flag, path) in [("--metrics-out", &sinks.metrics), ("--trace-out", &sinks.trace)] {
            if let Some(path) = path {
                std::fs::File::create(path).map_err(io_error(flag, path))?;
                lowlat_telemetry::set_enabled(true);
            }
        }
        Ok(sinks)
    }

    /// Writes the metrics snapshot and the chrome-trace asked for.
    pub fn write(&self) -> Result<(), CliError> {
        if let Some(path) = &self.metrics {
            lowlat_telemetry::write_metrics(path).map_err(io_error("--metrics-out", path))?;
            eprintln!("wrote metrics to {path}");
        }
        if let Some(path) = &self.trace {
            lowlat_telemetry::write_trace(path).map_err(io_error("--trace-out", path))?;
            eprintln!("wrote chrome-trace to {path}");
        }
        Ok(())
    }
}

/// Builds each `--schemes` spec through the registry.
pub fn build_schemes(specs: &[String]) -> Result<Vec<Arc<dyn RoutingScheme>>, CliError> {
    specs.iter().map(|s| registry::build(s).map_err(CliError::at("--schemes"))).collect()
}

/// [`CliError::new`] for an I/O error on the file `flag` names:
/// `fs::write(path, text).map_err(io_error("--output", path))?`.
pub fn io_error<'a>(flag: &'a str, path: &'a str) -> impl FnOnce(std::io::Error) -> CliError + 'a {
    move |e| CliError::new(flag, format!("'{path}': {e}"))
}

/// Grid parameters shared by most figures. Schemes are trait objects built
/// directly or requested by name through the registry
/// ([`RunGrid::with_schemes`]).
#[derive(Clone)]
pub struct RunGrid {
    /// `(load, locality)` points, each run over the whole grid: the target
    /// min-cut load after scaling (0.7 in Figures 3/4/16, 0.6 in 8) and the
    /// gravity locality parameter (1.0 unless stated otherwise).
    pub scenarios: Vec<(f64, f64)>,
    /// Matrices per network.
    pub tms_per_network: u64,
    /// Schemes to evaluate.
    pub schemes: Vec<Arc<dyn RoutingScheme>>,
}

impl RunGrid {
    /// Builds a grid whose schemes are registry specs ("SP", "B4-h10", …).
    ///
    /// # Panics
    /// Panics on an unknown scheme spec.
    pub fn with_schemes(scenarios: &[(f64, f64)], tms_per_network: u64, specs: &[&str]) -> RunGrid {
        RunGrid {
            scenarios: scenarios.to_vec(),
            tms_per_network,
            schemes: registry::schemes(specs),
        }
    }
}

impl fmt::Debug for RunGrid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunGrid")
            .field("scenarios", &self.scenarios)
            .field("tms_per_network", &self.tms_per_network)
            .field("schemes", &self.schemes.iter().map(|s| s.name()).collect::<Vec<_>>())
            .finish()
    }
}

/// One (network, matrix, scheme) measurement.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Network name.
    pub network: String,
    /// Structural class.
    pub class: ZooClass,
    /// Network LLPD (paper x-axes).
    pub llpd: f64,
    /// Matrix index.
    pub tm_index: u64,
    /// Scheme display name.
    pub scheme: String,
    /// Fraction of pairs crossing a saturated link.
    pub congested_fraction: f64,
    /// Flow-weighted latency stretch.
    pub latency_stretch: f64,
    /// Max per-aggregate stretch.
    pub max_flow_stretch: f64,
    /// Peak link utilization.
    pub max_utilization: f64,
    /// No link over capacity.
    pub fits: bool,
    /// Placement wall time. The only non-deterministic field; compare runs
    /// with [`RunRecord::deterministic_repr`].
    pub runtime_ms: f64,
}

impl RunRecord {
    /// Canonical text form of every deterministic field, each float in
    /// full (`{}` parses back to its bits) — what the determinism suite
    /// compares byte-for-byte across worker counts (`runtime_ms` is wall
    /// time and necessarily excluded).
    pub fn deterministic_repr(&self) -> String {
        format!(
            "{}|{:?}|{}|{}|{}|{}|{}|{}|{}|{}",
            self.network,
            self.class,
            self.llpd,
            self.tm_index,
            self.scheme,
            self.congested_fraction,
            self.latency_stretch,
            self.max_flow_stretch,
            self.max_utilization,
            self.fits
        )
    }
}

/// Computes LLPD for many networks on up to `workers` threads. Returns
/// values aligned with the input order.
pub fn llpd_map(networks: &[Topology], workers: usize) -> Vec<f64> {
    par_map(networks, workers, |topology| {
        LlpdAnalysis::compute(topology, &LlpdConfig::default()).llpd()
    })
}

/// Runs every scenario of `grid` over `networks` on up to `workers`
/// threads and returns one record list per scenario, in grid order; the
/// records do not depend on the worker count (the determinism suite pins
/// 1 vs many).
///
/// LLPD and one shared [`PathCache`] per network — the graph-only work —
/// are computed once and serve every scenario: the scaling solve and every
/// (matrix, scheme) placement on that network. A cache answers from the
/// graph, the mask and `k` alone, and every item places cold, so sharing
/// it changes no record.
///
/// With `traffic_from`, each network's matrices are generated and scaled
/// on the matching donor topology, each with a cache of its own, instead
/// of on the network itself. This is the Figure-20 replay: growing a
/// topology raises its min-cut, so scaling on the *grown* network would
/// quietly increase the offered load; the before/after comparison is only
/// meaningful when the very same matrices are re-routed over the new links.
///
/// # Panics
/// Panics when `traffic_from` does not pair each network with a donor of
/// the same PoP count.
pub fn run_grid(
    networks: &[Topology],
    traffic_from: Option<&[Topology]>,
    grid: &RunGrid,
    workers: usize,
) -> Vec<Vec<RunRecord>> {
    let donors = traffic_from.unwrap_or(networks);
    assert_eq!(networks.len(), donors.len());
    for (net, from) in networks.iter().zip(donors) {
        assert_eq!(net.pop_count(), from.pop_count(), "replay needs matching PoP sets");
    }
    let llpds = llpd_map(networks, workers);
    let caches: Vec<PathCache<'_>> = networks.iter().map(|t| PathCache::new(t.graph())).collect();
    let donor_caches: Option<Vec<PathCache<'_>>> =
        traffic_from.map(|from| from.iter().map(|t| PathCache::new(t.graph())).collect());
    let scale_caches = donor_caches.as_deref().unwrap_or(&caches);

    let tms = grid.tms_per_network as usize;
    let per_scenario = networks.len() * tms;

    // Stage 1: steal (scenario, network, matrix) items — generate,
    // min-cut-scale.
    let gens: Vec<GravityTmGen> = grid
        .scenarios
        .iter()
        .map(|&(_, locality)| GravityTmGen::new(TmGenConfig { locality, ..Default::default() }))
        .collect();
    let matrix_items: Vec<usize> = (0..grid.scenarios.len() * per_scenario).collect();
    let matrices: Vec<Option<TrafficMatrix>> = par_map(&matrix_items, workers, |&item| {
        let (s, n, t) = (item / per_scenario, item % per_scenario / tms, item % tms);
        let raw = gens[s].generate(&donors[n], t as u64);
        // LP failure or an empty matrix: leave the slot empty, keep the run
        // alive.
        let u0 = min_cut_load(&scale_caches[n], &raw).ok()?;
        (u0 > 0.0).then(|| raw.scaled(grid.scenarios[s].0 / u0))
    });

    // Stage 2: steal (scenario, network, matrix, scheme) items — place and
    // evaluate. Scheme index varies fastest, so slot order reproduces the
    // classic nested-loop record order.
    let record_items: Vec<usize> = (0..matrices.len() * grid.schemes.len()).collect();
    let records = par_map(&record_items, workers, |&item| {
        let scheme = &grid.schemes[item % grid.schemes.len()];
        let flat_tm = item / grid.schemes.len();
        let (n, t) = (flat_tm % per_scenario / tms, flat_tm % tms);
        let tm = matrices[flat_tm].as_ref()?;
        let started = Instant::now();
        // Solver failure: skip the item, keep the run.
        let placement = scheme.place(&caches[n], tm).ok()?;
        let runtime_ms = started.elapsed().as_secs_f64() * 1000.0;
        debug_assert!(placement.validate(networks[n].graph(), tm).is_ok());
        let ev = PlacementEval::evaluate(&networks[n], tm, &placement);
        Some(RunRecord {
            network: networks[n].name().to_string(),
            class: ZooClass::of(&networks[n]),
            llpd: llpds[n],
            tm_index: t as u64,
            scheme: scheme.name(),
            congested_fraction: ev.congested_pair_fraction(),
            latency_stretch: ev.latency_stretch(),
            max_flow_stretch: ev.max_flow_stretch(),
            max_utilization: ev.max_utilization(),
            fits: ev.fits(),
            runtime_ms,
        })
    });
    let mut records = records.into_iter();
    let per_scenario_records = per_scenario * grid.schemes.len();
    grid.scenarios
        .iter()
        .map(|_| records.by_ref().take(per_scenario_records).flatten().collect())
        .collect()
}

/// Groups records by network and reduces a metric to (llpd, median, p90)
/// triples sorted by LLPD — the paper's standard presentation (Figures 3
/// and 4).
pub fn by_llpd(
    records: &[RunRecord],
    scheme: &str,
    metric: impl Fn(&RunRecord) -> f64,
) -> Vec<(f64, f64, f64)> {
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<String, (f64, Vec<f64>)> = BTreeMap::new();
    for r in records.iter().filter(|r| r.scheme == scheme) {
        groups.entry(r.network.clone()).or_insert((r.llpd, Vec::new())).1.push(metric(r));
    }
    let mut out: Vec<(f64, f64, f64)> = groups
        .into_values()
        .filter(|(_, v)| !v.is_empty())
        .map(|(llpd, v)| (llpd, crate::stats::median_of(&v), crate::stats::quantile_of(&v, 0.9)))
        .collect();
    out.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite LLPD"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowlat_core::default_workers;
    use lowlat_topology::zoo::named;

    #[test]
    fn grid_runs_all_schemes_on_abilene() {
        let topo = named::abilene();
        let grid = RunGrid::with_schemes(
            &[(0.7, 1.0)],
            1,
            &["SP", "B4", "MinMax", "MinMaxK10", "LatOpt", "LDR"],
        );
        let records = run_grid(&[topo], None, &grid, default_workers()).concat();
        assert_eq!(records.len(), 6, "one record per scheme");
        for r in &records {
            assert!(r.latency_stretch >= 1.0 - 1e-6, "{}: stretch {}", r.scheme, r.latency_stretch);
            assert!(r.runtime_ms >= 0.0);
        }
        // MinMax must fit traffic scaled to 0.7 min-cut load.
        let mm = records.iter().find(|r| r.scheme == "MinMax").unwrap();
        assert!(mm.fits, "minmax at 0.7 load must fit (util {})", mm.max_utilization);
        assert!((mm.max_utilization - 0.7).abs() < 0.05);
        // LatOpt at zero headroom must also fit.
        let lo = records.iter().find(|r| r.scheme == "LatOpt").unwrap();
        assert!(lo.fits);
        // SP and B4 at least produce sane numbers.
        let sp = records.iter().find(|r| r.scheme == "SP").unwrap();
        assert!((sp.latency_stretch - 1.0).abs() < 1e-9);
    }

    #[test]
    fn record_order_is_network_matrix_scheme() {
        let nets = [named::abilene(), named::nsfnet()];
        let grid = RunGrid::with_schemes(&[(0.7, 1.0)], 2, &["SP", "ECMP"]);
        let records = run_grid(&nets, None, &grid, default_workers()).concat();
        assert_eq!(records.len(), 2 * 2 * 2);
        for (i, r) in records.iter().enumerate() {
            let want_net = if i < 4 { "Abilene" } else { "NSFNET" };
            assert_eq!(r.network, want_net, "record {i}");
            assert_eq!(r.tm_index, (i as u64 / 2) % 2, "record {i}");
            assert_eq!(r.scheme, if i % 2 == 0 { "SP" } else { "ECMP" }, "record {i}");
        }
    }

    fn args(line: &[&str]) -> Args {
        Args::new(line.iter().map(|s| s.to_string()))
    }

    #[test]
    fn scale_parse_accepts_known_flags() {
        assert_eq!(args(&[]).finish(), Ok(Scale::Std));
        assert_eq!(args(&["--quick"]).finish(), Ok(Scale::Quick));
        assert_eq!(args(&["--std", "--full"]).finish(), Ok(Scale::Full));
    }

    #[test]
    fn scale_parse_skips_value_flags_with_their_values() {
        let mut line = args(&["--load", "0.7", "--quick", "--schemes", "SP, B4,", "--frontier"]);
        assert_eq!(line.value("--load"), Ok(Some(0.7)));
        assert_eq!(line.list("--schemes"), Ok(Some(vec!["SP".to_string(), "B4".to_string()])));
        assert_eq!(line.value::<u64>("--seed"), Ok(None), "an absent flag is not an error");
        assert!(line.switch("--frontier") && !line.switch("--frontier"));
        assert_eq!(line.finish(), Ok(Scale::Quick));
        // The value after a value flag is consumed even when it looks like
        // a scale flag, and a repeated flag keeps its last value.
        let mut tricky = args(&["--note", "--full", "--note", "x"]);
        assert_eq!(tricky.value("--note"), Ok(Some("x".to_string())));
        assert_eq!(tricky.finish(), Ok(Scale::Std));
    }

    #[test]
    fn scale_parse_rejects_unknown_and_dangling() {
        let message = args(&["--fast"]).finish().unwrap_err().to_string();
        assert!(message.starts_with("--fast: unknown argument"), "{message}");
        let mut line = args(&["extra", "--load", "0.5"]);
        assert_eq!(line.value("--load"), Ok(Some(0.5)));
        let message = line.finish().unwrap_err().to_string();
        assert!(message.starts_with("extra: ") && message.contains("--load"), "{message}");
        // A value flag at the end of the line is missing its value; one
        // followed by junk has an unparsable one; a list needs an item.
        // Each error names the flag first.
        for line in [&["--load"][..], &["--load", "heavy"]] {
            let message = args(line).value::<f64>("--load").unwrap_err().to_string();
            assert!(message.starts_with("--load: "), "{message}");
        }
        let message = args(&["--loads", " , "]).list::<f64>("--loads").unwrap_err().to_string();
        assert_eq!(message, "--loads: expects at least one value");
    }

    #[test]
    fn by_llpd_reduction() {
        let rec = |net: &str, llpd: f64, v: f64| RunRecord {
            network: net.into(),
            class: ZooClass::Named,
            llpd,
            tm_index: 0,
            scheme: "SP".into(),
            congested_fraction: v,
            latency_stretch: 1.0,
            max_flow_stretch: 1.0,
            max_utilization: 0.5,
            fits: true,
            runtime_ms: 0.0,
        };
        let records = vec![rec("a", 0.2, 0.1), rec("a", 0.2, 0.3), rec("b", 0.1, 0.9)];
        let rows = by_llpd(&records, "SP", |r| r.congested_fraction);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, 0.1, "sorted by llpd");
        assert_eq!(rows[1].1, 0.1, "median of {{0.1, 0.3}} nearest-rank = 0.1");
    }
}
