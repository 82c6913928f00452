//! The four workloads and what they share: the run configuration, the
//! time-bounded pass loop, the calibration cells, and the seed-to-pass-seed
//! derivation.
//!
//! Every workload is a **closed loop with one client on one thread**: a
//! controller decides once per simulated minute, nothing arrives on a wall
//! clock, and the next operation starts when the previous one returns. The
//! harness spawns no threads. `--seed` is the only source of variation and
//! the program under test receives only the inputs generated from it.

pub mod ctrl;
pub mod failure;
pub mod scale;

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use lowlat_core::Placement;
use lowlat_linprog::{Problem, Relation};
use lowlat_netgraph::{shortest_path_tree, NodeId};
use lowlat_topology::zoo::named;
use lowlat_traffic::fft::convolve;

use crate::metrics::{Report, Values};
use crate::spans::SpanLog;
use crate::stats::{median, ratio};
use crate::timed_source::{Method, SourceTotals};

/// The default `--seed`.
pub const DEFAULT_SEED: u64 = 99;

/// What `perf run` was asked to do.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// The only source of input variation.
    pub seed: u64,
    /// How long to measure, seconds. Passes are whole: the run stops at the
    /// end of the first pass that ends past this.
    pub seconds: f64,
    /// `false`: the timed run (end-to-end metrics, no decorator, no spans).
    /// `true`: the traced run of the same workload and seed (per-layer
    /// metrics).
    pub traced: bool,
}

/// What a run hands back to the command line.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values and the attempted/failed tally.
    pub report: Report,
    /// One line naming the workload's fixed parameters; `perf compare`
    /// refuses to compare runs whose parameters differ.
    pub params: String,
    /// The shadow operations' spans (traced runs only).
    pub spans: Option<SpanLog>,
    /// The factor every reported time of the run was scaled by (see
    /// [`crate::hostspeed`]); 1 on a host at reference speed.
    pub host_scale: f64,
}

/// Runs the named workload at its benchmark size.
pub fn run(name: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    match name {
        "ctrl-ldr-abilene" => Ok(ctrl::run(&ctrl::ABILENE, cfg)),
        "ctrl-ldr-gts" => Ok(ctrl::run(&ctrl::GTS, cfg)),
        "failure-replace" => Ok(failure::run(&failure::GTS, cfg)),
        "scale-place" => Ok(scale::run(&scale::BA_10K, cfg)),
        other => {
            let known: Vec<&str> = crate::metrics::WORKLOADS.iter().map(|w| w.0).collect();
            Err(format!("unknown workload {other:?}; known: {}", known.join(", ")))
        }
    }
}

/// The input seed of pass `k` of a run seeded `seed`. Drawn from one
/// generator stream so runs at neighbouring seeds share no pass inputs.
pub fn pass_seed(seed: u64, k: usize) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..k).for_each(|_| {
        rng.next_u64();
    });
    rng.next_u64()
}

/// Calls `pass(k)` for k = 0, 1, … until `seconds` have elapsed; at least
/// one pass runs and the last one always completes.
pub fn run_passes(seconds: f64, mut pass: impl FnMut(usize)) {
    let start = Instant::now();
    let mut k = 0;
    loop {
        pass(k);
        k += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
}

/// `0..n` in the order `seed` shuffles it into.
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    order
}

/// Runs `f`, returning its result and the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Peak resident set size of this process so far (`VmHWM`), MiB. One
/// workload per process, so this is the workload's own peak.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Median µs of `reps` runs of `f`.
fn cell_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| timed(&mut f).1 * 1e6).collect();
    median(&samples)
}

/// The calibration cells of the traced run: three fixed kernels whose cost
/// depends on the host and on their own layer only. Read beside the layer
/// table they tell host drift from a code change.
pub fn calibration(values: &mut Values) {
    let gts = named::gts_like();
    // Sub-microsecond: time 64 at a stretch so the clock reads do not show.
    values.insert(
        "netgraph.sssp_gts_us",
        cell_us(50, || {
            for _ in 0..64 {
                black_box(shortest_path_tree(gts.graph(), black_box(NodeId(0)), None, None));
            }
        }) / 64.0,
    );
    // The `substrates` bench's 12x15 transportation LP, solved cold.
    values.insert(
        "linprog.transport_12x15_us",
        cell_us(50, || {
            let (ns, nd) = (12usize, 15usize);
            let mut p = Problem::minimize(ns * nd);
            for i in 0..ns {
                for j in 0..nd {
                    p.set_objective(i * nd + j, ((i * 7 + j * 3) % 11) as f64 + 1.0);
                }
            }
            for i in 0..ns {
                let row: Vec<(usize, f64)> = (0..nd).map(|j| (i * nd + j, 1.0)).collect();
                p.add_row(Relation::Eq, 10.0 + i as f64, &row);
            }
            let total: f64 = (0..ns).map(|i| 10.0 + i as f64).sum();
            for j in 0..nd {
                let col: Vec<(usize, f64)> = (0..ns).map(|i| (i * nd + j, 1.0)).collect();
                p.add_row(Relation::Eq, total / nd as f64, &col);
            }
            black_box(p.solve().expect("transportation LP is feasible").objective());
        }),
    );
    let a: Vec<f64> = (0..1024).map(|i| ((i * 37) % 101) as f64 / 101.0 / 1024.0).collect();
    let b: Vec<f64> = (0..1024).map(|i| ((i * 53) % 97) as f64 / 97.0 / 1024.0).collect();
    values.insert(
        "traffic.fft.convolve_1024_us",
        cell_us(100, || {
            black_box(convolve(black_box(&a), black_box(&b)));
        }),
    );
}

/// The `core.source.*` rows: what the pricing calls a [`TimedSource`]
/// forwarded cost per operation, over `ops` operations that took `op_s`
/// seconds together.
///
/// [`TimedSource`]: crate::timed_source::TimedSource
pub fn source_values(values: &mut Values, totals: &SourceTotals, ops: f64, op_s: f64) {
    let pricing = totals.pricing();
    values.insert("core.source.busy_ms_per_op", ratio(pricing.busy_s * 1e3, ops));
    values.insert("core.source.calls_per_op", ratio(pricing.calls as f64, ops));
    values.insert("core.source.busy_share", ratio(pricing.busy_s, op_s));
    for (name, m) in [
        ("core.source.paths_ms_per_op", Method::Paths),
        ("core.source.shortest_ms_per_op", Method::Shortest),
        ("core.source.grow_ms_per_op", Method::Grow),
        ("core.source.delay_bound_ms_per_op", Method::ShortestDelayBound),
        ("core.source.capacities_ms_per_op", Method::EffectiveCapacities),
    ] {
        values.insert(name, ratio(totals.of(m).busy_s * 1e3, ops));
    }
}

/// FNV-1a digest of a placement: every path's links and every split's
/// fraction, bit for bit. Two placements with one digest are the same
/// placement for every purpose of this harness.
pub fn placement_digest(placement: &Placement) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        for byte in x.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for agg in placement.per_aggregate() {
        mix(agg.splits.len() as u64);
        for (path, x) in &agg.splits {
            mix(x.to_bits());
            path.links().iter().for_each(|l| mix(u64::from(l.0)));
        }
    }
    h
}

/// Runs `f`, turning a panic inside the program under test into `None`: a
/// panicking operation is a failed operation, not a dead harness.
pub fn catch<R>(f: impl FnOnce() -> R) -> Option<R> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_seeds_are_a_stream_per_seed() {
        assert_eq!(pass_seed(7, 2), pass_seed(7, 2));
        assert_ne!(pass_seed(7, 0), pass_seed(7, 1));
        // Neighbouring seeds share no pass inputs.
        assert_ne!(pass_seed(7, 1), pass_seed(8, 0));
    }

    #[test]
    fn pass_loop_runs_whole_passes_and_at_least_one() {
        let mut n = 0;
        run_passes(0.0, |_| n += 1);
        assert_eq!(n, 1);
        let mut ks = Vec::new();
        run_passes(0.02, |k| {
            ks.push(k);
            std::thread::sleep(std::time::Duration::from_millis(15));
        });
        assert_eq!(ks, vec![0, 1]);
    }

    #[test]
    fn a_seed_shuffles_and_loses_nothing() {
        assert_eq!(shuffled(20, 7), shuffled(20, 7));
        assert_ne!(shuffled(20, 7), shuffled(20, 8));
        let mut sorted = shuffled(20, 7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        assert!(peak_rss_mb() > 1.0);
    }
}
