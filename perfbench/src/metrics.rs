//! The benchmark's catalogue — workloads, end-to-end metrics with their
//! bounds, per-layer metrics — and the two renderings built from it: the
//! `BENCHMARK.json` manifest and a run's result line. One table, so the
//! manifest and what `perf run` prints cannot drift apart (a unit test
//! compares the committed manifest byte for byte).

use std::collections::BTreeMap;
use std::fmt::Write;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics: the share of the baseline's median by which the
    /// metric may worsen before it counts as a regression. `None` for
    /// per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

/// How long one run measures, seconds (`run_seconds` of the manifest).
pub const RUN_SECONDS: u64 = 20;

/// The command the driver runs from the root of a checkout; it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--bin",
    "perf",
    "--",
    "run",
];

/// The directories that hold the benchmark and nothing else.
pub const PATHS: &[&str] = &["perfbench"];

/// The workloads and why each was chosen (one line, ≤ 200 characters).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "ctrl-ldr-abilene",
        "LDR minutes on Abilene (11 PoPs): Figure-14 appraisal (multiplex/pmf/fft) dominates a decision, \
         pathgrow+LP is minor; an appraisal change must show here, an LP change must not",
    ),
    (
        "ctrl-ldr-gts",
        "Same LDR loop on the 26-PoP GTS-like grid at load 0.55, where the shares invert: pathgrow+LP \
         (warm chain, rhs drift) do ~3/4 of a decision, appraisal ~1/4; tells a faster LP from faster appraisal",
    ),
    (
        "failure-replace",
        "Trace-free recovery drill on GTS-like: 69 cable/node failures re-placed through one warm cache \
         and LP context; PathCache is written (mask repair) and the LP warm-starts across structural change",
    ),
    (
        "scale-place",
        "Cold 30k-row placement LPs on a 10k-node Barabasi-Albert graph through the partitioned engine: \
         no appraisal, no timeline; shows what LP build+solve vs pricing cost at Internet scale",
    ),
];

/// What a user of the system sees. Every workload reports every one.
/// `op_ms_mean` is the mean over the distinct operations of each one's
/// median time; the median over them (`bench.op_ms_p50`) is in the layer
/// table because it hops between neighbouring operations from run to run
/// (A/A spreads of 12-16% where the mean's are 3-10%).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("op_ms_mean", "ms", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.15),
    e2e("latency_stretch", "ratio", Better::Lower, 0.05),
];

/// Single-layer metrics from the `--trace 1` run. A metric that does not
/// apply to a workload reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    layer("sim.timeline.decide_share", "ratio", Better::Higher),
    layer("sim.timeline.other_ms_per_min", "ms", Better::Lower),
    layer("sim.timeline.worst_queue_ms", "ms", Better::Lower),
    layer("sim.timeline.queue_minutes_share", "ratio", Better::Lower),
    layer("traffic.trace.history_view_ms", "ms", Better::Lower),
    layer("traffic.trace.synthesize_ms", "ms", Better::Lower),
    layer("traffic.predictor.predict_ms", "ms", Better::Lower),
    layer("traffic.multiplex.appraise_ms_per_op", "ms", Better::Lower),
    layer("traffic.multiplex.appraise_share", "ratio", Better::Lower),
    layer("traffic.multiplex.links_checked_per_op", "count", Better::Lower),
    layer("traffic.multiplex.members_per_link_p50", "count", Better::Lower),
    layer("traffic.multiplex.fast_path_share", "ratio", Better::Higher),
    layer("traffic.multiplex.fail_temporal_share", "ratio", Better::Lower),
    layer("traffic.multiplex.fail_tail_share", "ratio", Better::Lower),
    layer("traffic.multiplex.scale_copy_ms_per_op", "ms", Better::Lower),
    layer("traffic.pmf.convolve_group_us_p50", "us", Better::Lower),
    layer("traffic.fft.convolutions_per_op", "count", Better::Lower),
    layer("traffic.fft.convolve_1024_us", "us", Better::Lower),
    layer("core.schemes.ldr.iterations_p50", "count", Better::Lower),
    layer("core.schemes.ldr.converged_share", "ratio", Better::Higher),
    layer("core.schemes.ldr.shadow_cover_share", "ratio", Better::Higher),
    layer("core.pathgrow.solve_ms_per_call", "ms", Better::Lower),
    layer("core.pathgrow.calls_per_op", "count", Better::Lower),
    layer("core.pathgrow.rounds_per_call", "count", Better::Lower),
    layer("core.pathgrow.grow_share", "ratio", Better::Lower),
    layer("core.pathgrow.nonpricing_s", "s", Better::Lower),
    layer("linprog.solves_per_op", "count", Better::Lower),
    layer("linprog.pivots_per_op", "count", Better::Lower),
    layer("linprog.warm_hit_share", "ratio", Better::Higher),
    layer("linprog.transport_12x15_us", "us", Better::Lower),
    layer("core.source.busy_ms_per_op", "ms", Better::Lower),
    layer("core.source.calls_per_op", "count", Better::Lower),
    layer("core.source.busy_share", "ratio", Better::Lower),
    layer("core.source.paths_ms_per_op", "ms", Better::Lower),
    layer("core.source.shortest_ms_per_op", "ms", Better::Lower),
    layer("core.source.grow_ms_per_op", "ms", Better::Lower),
    layer("core.source.delay_bound_ms_per_op", "ms", Better::Lower),
    layer("core.source.capacities_ms_per_op", "ms", Better::Lower),
    layer("core.pathset.repair_ms_p50", "ms", Better::Lower),
    layer("core.pathset.repair_share", "ratio", Better::Lower),
    layer("core.pathset.repaired_pairs_per_op", "count", Better::Lower),
    layer("core.pathset.kept_share", "ratio", Better::Higher),
    layer("core.failure.partition_us", "us", Better::Lower),
    layer("core.failure.impact_us", "us", Better::Lower),
    layer("core.failure.replace_ms_p50", "ms", Better::Lower),
    layer("core.failure.recovery_ms_p90", "ms", Better::Lower),
    layer("core.failure.unroutable_share", "ratio", Better::Lower),
    layer("core.failure.shadow_cover_share", "ratio", Better::Higher),
    layer("core.hier.build_s", "s", Better::Lower),
    layer("core.hier.cross_share", "ratio", Better::Lower),
    layer("core.hier.fallback_share", "ratio", Better::Lower),
    layer("core.hier.cached_pairs", "count", Better::Lower),
    layer("core.placement.delta_us", "us", Better::Lower),
    layer("core.placement.link_fractions_us_per_op", "us", Better::Lower),
    layer("topology.synth.generate_s", "s", Better::Lower),
    layer("tmgen.generate_ms", "ms", Better::Lower),
    layer("netgraph.sssp_gts_us", "us", Better::Lower),
    layer("bench.tracing_overhead_share", "ratio", Better::Lower),
    layer("bench.op_ms_p50", "ms", Better::Lower),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one run produced.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Operations attempted (decisions, recoveries, placements).
    pub attempted: usize,
    /// Operations that returned `Err`, panicked, or failed validation.
    pub failed: usize,
    /// Measured metric values.
    pub values: Values,
}

impl Report {
    /// True when every attempted operation produced a valid output.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The value of every metric of `defs`, in table order. A per-layer
    /// metric the workload did not record reads 0 (not applicable); a
    /// missing end-to-end metric or a non-finite value is a harness error.
    pub fn collect(
        &self,
        defs: &'static [MetricDef],
    ) -> Result<Vec<(&'static MetricDef, f64)>, String> {
        defs.iter()
            .map(|d| {
                let v = match self.values.get(d.name) {
                    Some(&v) => v,
                    None if d.bound.is_none() => 0.0,
                    None => return Err(format!("end-to-end metric {} was not measured", d.name)),
                };
                if v.is_finite() {
                    Ok((d, v))
                } else {
                    Err(format!("metric {} is not finite: {v}", d.name))
                }
            })
            .collect()
    }

    /// The result object the driver reads from the last line of stdout.
    pub fn json_line(&self, defs: &'static [MetricDef]) -> Result<String, String> {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (d, v)) in self.collect(defs)?.into_iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{v}` prints the shortest text that reads back as the same
            // f64: the value as measured, with all its digits.
            let _ = write!(s, "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", d.name, d.unit);
        }
        s.push_str("}}");
        Ok(s)
    }
}

/// The `BENCHMARK.json` manifest, rendered from the tables above.
pub fn manifest() -> String {
    let quoted = |items: &[&str]| -> String {
        items.iter().map(|s| format!("\"{s}\"")).collect::<Vec<_>>().join(", ")
    };
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"command\": [{}],", quoted(COMMAND));
    let _ = writeln!(s, "  \"paths\": [{}],", quoted(PATHS));
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(s, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, d) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            d.name,
            d.unit,
            d.better.label(),
            d.bound.expect("end-to-end metrics carry a bound")
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            d.name,
            d.unit,
            d.better.label()
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        let first = n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first && n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn committed_manifest_is_the_rendered_catalogue() {
        assert_eq!(include_str!("../../BENCHMARK.json"), manifest());
    }

    #[test]
    fn catalogue_meets_the_manifest_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        assert!(COMMAND.len() <= 32 && (1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|d| d.name));
        assert!(names.iter().all(|n| name_ok(n)), "bad name in {names:?}");
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n') && !why.contains('"'), "{why}");
        }
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                d.unit.len() <= 16
                    && d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(END_TO_END.iter().all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound), "setup_s has the largest bound");
        assert!(manifest().len() < 64 * 1024);
        // The 4 + 22 x workloads runs must fit the driver's 3420 s with
        // set-up, overrun and two builds: keep a run under ~35 s.
        assert!((4 + 22 * WORKLOADS.len() as u64) * (RUN_SECONDS + 12) <= 3420 - 200);
    }

    #[test]
    fn result_line_lists_every_metric_of_the_table() {
        let mut r = Report { attempted: 3, failed: 0, values: Values::new() };
        assert!(r.json_line(END_TO_END).is_err(), "missing end-to-end metrics are an error");
        for d in END_TO_END {
            r.values.insert(d.name, 1.25);
        }
        let line = r.json_line(END_TO_END).unwrap();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"op_ms_mean\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        // Per-layer metrics a workload does not record read 0.
        let layers = r.json_line(PER_LAYER).unwrap();
        assert_eq!(layers.matches("\"value\": 0,").count(), PER_LAYER.len());
        r.values.insert("op_ms_mean", f64::NAN);
        assert!(r.json_line(END_TO_END).is_err(), "a NaN is a harness error");
        r.failed = 1;
        assert!(!r.correct());
    }
}
