//! `perf`: the repo benchmark's command line. See the crate docs.

use std::process::ExitCode;

use lowlat_perf::compare::{compare, Saved};
use lowlat_perf::metrics::{manifest, END_TO_END, PER_LAYER, RUN_SECONDS};
use lowlat_perf::workloads::{self, RunConfig, DEFAULT_SEED};

const USAGE: &str = "usage:
  perf run --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>]
           [--trace-out <spans.json>] [--out <result.txt>]
  perf compare <baseline.txt> <candidate.txt>
  perf manifest";

/// The value following `flag`, parsed.
fn value<T: std::str::FromStr>(args: &[String], i: &mut usize, flag: &str) -> Result<T, String> {
    *i += 1;
    let raw = args.get(*i).ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse().map_err(|_| format!("bad value for {flag}: {raw:?}"))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut workload: Option<String> = None;
    let mut cfg = RunConfig { seed: DEFAULT_SEED, seconds: RUN_SECONDS as f64, traced: false };
    let (mut trace_out, mut out): (Option<String>, Option<String>) = (None, None);
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => workload = Some(value(args, &mut i, "--workload")?),
            "--seed" => cfg.seed = value(args, &mut i, "--seed")?,
            "--seconds" => cfg.seconds = value(args, &mut i, "--seconds")?,
            "--trace" => {
                cfg.traced = match value::<u8>(args, &mut i, "--trace")? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--trace-out" => trace_out = Some(value(args, &mut i, "--trace-out")?),
            "--out" => out = Some(value(args, &mut i, "--out")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(cfg.seconds.is_finite() && cfg.seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {}", cfg.seconds));
    }

    let outcome = workloads::run(&workload, &cfg)?;
    let defs = if cfg.traced { PER_LAYER } else { END_TO_END };
    let report = &outcome.report;
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut text = format!(
        "# workload {workload}\n# seed {}\n# seconds {}\n# trace {}\n# cpus {cpus}\n# params {}\n\
         # attempted {}\n# failed {}\n# host_scale {}\n",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.traced),
        outcome.params,
        report.attempted,
        report.failed,
        outcome.host_scale
    );
    for (d, v) in report.collect(defs)? {
        text.push_str(&format!("{} {v} {}\n", d.name, d.unit));
    }
    let failed_share = report.failed as f64 / report.attempted.max(1) as f64;
    text.push_str(&format!("failed_ops_share {failed_share} ratio\n"));
    let line = report.json_line(defs)?;
    if let Some(path) = out {
        std::fs::write(&path, &text).map_err(|e| format!("writing {path}: {e}"))?;
    }
    if let (Some(path), Some(spans)) = (trace_out, &outcome.spans) {
        let file = std::fs::File::create(&path).map_err(|e| format!("creating {path}: {e}"))?;
        let mut w = std::io::BufWriter::new(file);
        spans.write_chrome_trace(&mut w).map_err(|e| format!("writing {path}: {e}"))?;
        std::io::Write::flush(&mut w).map_err(|e| format!("writing {path}: {e}"))?;
    }
    print!("{text}");
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else { return Err("compare takes two result files".into()) };
    let load = |path: &String| -> Result<Saved, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        Saved::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare(&load(a)?, &load(b)?)?;
    println!(
        "{:<18} {:>14} {:>14} {:>9} {:>7}",
        "metric", "baseline", "candidate", "worse by", "bound"
    );
    for r in &rows {
        println!(
            "{:<18} {:>14.6} {:>14.6} {:>8.2}% {:>6.1}%{}",
            r.name,
            r.base,
            r.new,
            r.worse_by * 100.0,
            r.bound * 100.0,
            if r.regressed { "  REGRESSION" } else { "" }
        );
    }
    Ok(if rows.iter().any(|r| r.regressed) { ExitCode::from(1) } else { ExitCode::SUCCESS })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare_files(rest),
        Some((cmd, [])) if cmd == "manifest" => {
            print!("{}", manifest());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("perf: error: {e}");
        ExitCode::from(2)
    })
}
