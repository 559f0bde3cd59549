//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints a detail line (run facts, output digest, workload-specific quality
//! metrics) and, last, the result line
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exits 1 when an output fails its checks, 2 on a usage error.

use perfbench::metrics::result_line;
use perfbench::workloads::{Kind, RunConfig};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <optimize|landscape|noisy|reduce-stream> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Measuring time used when `--seconds` is not given: `BENCHMARK.json`'s
/// `run_seconds`, the length the bounds were tuned at.
const DEFAULT_SECONDS: f64 = 15.0;

fn parse(args: &[String]) -> Result<(Kind, RunConfig), String> {
    let mut kind = None;
    let mut config = RunConfig {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                kind = Some(Kind::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => config.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                config.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(config.seconds.is_finite() && config.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                config.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok((kind.ok_or("--workload is required")?, config))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let (kind, config) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = kind.run(&config);
    println!("{}", report.detail);
    println!(
        "{}",
        result_line(
            report.correct,
            report.attempted,
            report.failed,
            &report.metrics
        )
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} requests failed their checks",
            report.failed, report.attempted
        );
        ExitCode::from(1)
    }
}
