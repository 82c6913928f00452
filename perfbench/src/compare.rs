//! `perf compare a b`: applies the catalogue's bounds to two results saved
//! with `perf run --out`.
//!
//! A saved result is the text `perf run` prints: `# key value` header lines
//! (workload, seed, seconds, trace, cpus, params, attempted, failed)
//! followed by one `name value unit` line per metric — line-oriented, like
//! every other report this workspace writes for itself.

use std::collections::BTreeMap;

use crate::metrics::{Better, END_TO_END};
use crate::stats::ratio;

/// `setup_s` regresses only when it is also worse by more than this many
/// seconds: a 25% swing of a 10 ms set-up is scheduler noise.
pub const SETUP_FLOOR_S: f64 = 0.05;

/// Header keys that must match for two results to be comparable.
const IDENTITY: [&str; 6] = ["workload", "seed", "seconds", "trace", "cpus", "params"];

/// A parsed result file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Saved {
    /// The `# key value` lines.
    pub header: BTreeMap<String, String>,
    /// The metric lines.
    pub metrics: BTreeMap<String, f64>,
}

impl Saved {
    /// Parses the text of a result file.
    pub fn parse(text: &str) -> Result<Saved, String> {
        let mut saved = Saved::default();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if let Some(rest) = line.strip_prefix('#') {
                let (key, value) = rest.trim().split_once(' ').unwrap_or((rest.trim(), ""));
                saved.header.insert(key.to_string(), value.trim().to_string());
            } else if !line.is_empty() && !line.starts_with('{') {
                let mut parts = line.split_whitespace();
                let (Some(name), Some(value)) = (parts.next(), parts.next()) else {
                    return Err(format!("line {}: expected `name value unit`", i + 1));
                };
                let value: f64 =
                    value.parse().map_err(|_| format!("line {}: bad value {value:?}", i + 1))?;
                saved.metrics.insert(name.to_string(), value);
            }
        }
        for key in IDENTITY.iter().chain(&["attempted", "failed"]) {
            if !saved.header.contains_key(*key) {
                return Err(format!("missing header line `# {key} ...`"));
            }
        }
        Ok(saved)
    }

    fn count(&self, key: &str) -> f64 {
        self.header.get(key).and_then(|v| v.parse().ok()).unwrap_or(f64::NAN)
    }

    /// Failed operations over operations attempted.
    pub fn failed_ops_share(&self) -> f64 {
        ratio(self.count("failed"), self.count("attempted"))
    }
}

/// One compared end-to-end metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Metric name.
    pub name: &'static str,
    /// The baseline's value.
    pub base: f64,
    /// The candidate's value.
    pub new: f64,
    /// How much worse the candidate is, as a share of the baseline
    /// (negative when it is better).
    pub worse_by: f64,
    /// The bound it was held to.
    pub bound: f64,
    /// True when the candidate regressed past the bound.
    pub regressed: bool,
}

/// Compares candidate `b` against baseline `a`. `Err` is a refusal: the two
/// results do not describe the same experiment.
pub fn compare(a: &Saved, b: &Saved) -> Result<Vec<Row>, String> {
    for key in IDENTITY {
        if a.header[key] != b.header[key] {
            return Err(format!(
                "refusing to compare: {key} differs ({:?} vs {:?})",
                a.header[key], b.header[key]
            ));
        }
    }
    // Zero tolerance: any rise in the share of failed operations regresses.
    let (fa, fb) = (a.failed_ops_share(), b.failed_ops_share());
    let mut rows = vec![Row {
        name: "failed_ops_share",
        base: fa,
        new: fb,
        worse_by: fb - fa,
        bound: 0.0,
        regressed: fb > fa || !fb.is_finite(),
    }];
    for d in END_TO_END {
        let (Some(&base), Some(&new), Some(bound)) =
            (a.metrics.get(d.name), b.metrics.get(d.name), d.bound)
        else {
            continue;
        };
        let worse = match d.better {
            Better::Lower => new - base,
            Better::Higher => base - new,
        };
        let worse_by = ratio(worse, base.abs());
        let past_floor = d.name != "setup_s" || worse > SETUP_FLOOR_S;
        rows.push(Row {
            name: d.name,
            base,
            new,
            worse_by,
            bound,
            regressed: worse_by > bound && past_floor,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn saved(op_ms: f64, ops_per_s: f64, setup_s: f64, failed: usize) -> Saved {
        Saved::parse(&format!(
            "# workload failure-replace\n# seed 99\n# seconds 20\n# trace 0\n# cpus 2\n\
             # params network=gts-like load=0.7\n# attempted 400\n# failed {failed}\n\
             setup_s {setup_s} s\nop_ms_mean {op_ms} ms\nops_per_s {ops_per_s} 1/s\n\
             peak_rss_mb 40 MiB\nlatency_stretch 1.05 ratio\n\
             {{\"correct\": true}}\n"
        ))
        .unwrap()
    }

    fn row<'a>(rows: &'a [Row], name: &str) -> &'a Row {
        rows.iter().find(|r| r.name == name).unwrap()
    }

    #[test]
    fn relative_bounds_in_both_directions() {
        let base = saved(30.0, 30.0, 0.2, 0);
        // 10% slower: inside the 25% bound.
        let rows = compare(&base, &saved(33.0, 30.0, 0.2, 0)).unwrap();
        assert!(!row(&rows, "op_ms_mean").regressed);
        assert!((row(&rows, "op_ms_mean").worse_by - 0.1).abs() < 1e-12);
        // 30% slower: past it.
        assert!(row(&compare(&base, &saved(39.0, 30.0, 0.2, 0)).unwrap(), "op_ms_mean").regressed);
        // Higher-is-better: a 30% drop regresses, a 30% rise does not.
        assert!(row(&compare(&base, &saved(30.0, 21.0, 0.2, 0)).unwrap(), "ops_per_s").regressed);
        let up = compare(&base, &saved(30.0, 39.0, 0.2, 0)).unwrap();
        assert!(!row(&up, "ops_per_s").regressed && row(&up, "ops_per_s").worse_by < 0.0);
        assert!(up.iter().all(|r| !r.regressed));
    }

    #[test]
    fn setup_has_an_absolute_floor() {
        // +50% of 20 ms is 10 ms: past the relative bound, under the floor.
        let rows = compare(&saved(30.0, 30.0, 0.02, 0), &saved(30.0, 30.0, 0.03, 0)).unwrap();
        assert!(row(&rows, "setup_s").worse_by > 0.25 && !row(&rows, "setup_s").regressed);
        // +50% of 200 ms is 100 ms: past both.
        let rows = compare(&saved(30.0, 30.0, 0.2, 0), &saved(30.0, 30.0, 0.3, 0)).unwrap();
        assert!(row(&rows, "setup_s").regressed);
    }

    #[test]
    fn failed_operations_have_zero_tolerance() {
        let rows = compare(&saved(30.0, 30.0, 0.2, 0), &saved(30.0, 30.0, 0.2, 1)).unwrap();
        assert!(row(&rows, "failed_ops_share").regressed);
        let rows = compare(&saved(30.0, 30.0, 0.2, 1), &saved(30.0, 30.0, 0.2, 1)).unwrap();
        assert!(!row(&rows, "failed_ops_share").regressed);
    }

    #[test]
    fn refuses_results_of_different_experiments() {
        let base = saved(30.0, 30.0, 0.2, 0);
        for (key, value) in [("cpus", "1"), ("seed", "7"), ("params", "network=gts-like load=0.6")]
        {
            let mut other = base.clone();
            other.header.insert(key.to_string(), value.to_string());
            let err = compare(&base, &other).unwrap_err();
            assert!(err.contains(key), "{err}");
        }
        assert!(Saved::parse("op_ms_mean 1 ms\n").is_err(), "a result without a header");
        assert!(Saved::parse("# workload x\nop_ms_mean fast ms\n").is_err());
    }
}
