//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload drift-churn --seed 7 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload (or `all`) through the public APIs: set-up is
//! repeated and its median reported, the serving operation is repeated
//! for `--seconds`, every report is checked, and the last line of
//! standard output is one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of a traced run (`--trace 1`).
//! See `RATIONALE.md` for the workloads and metrics.

mod metrics;
mod trace;
mod workloads;

use std::process::ExitCode;

use metrics::Outcome;
use workloads::{Kind, Size};

struct Args {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 2024,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workloads = if value == "all" {
                    Kind::ALL.to_vec()
                } else {
                    vec![Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?]
                }
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err(
            "--workload is required (drift-churn, mobile-durable, city-sharded or all)".into(),
        );
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcomes = Vec::new();
    for &kind in &args.workloads {
        println!(
            "perfbench workload={} seed={} seconds={} trace={} {}",
            kind.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            metrics::host_record()
        );
        match metrics::run(kind, Size::Full, args.seed, args.seconds, args.trace) {
            Ok(outcome) => {
                outcome.print_table();
                outcomes.push((kind, outcome));
            }
            Err(e) => {
                eprintln!("error: {}: {e}", kind.name());
                return ExitCode::FAILURE;
            }
        }
    }
    let line = if let [(_, only)] = outcomes.as_slice() {
        only.json()
    } else {
        Outcome::merged(&outcomes).json()
    };
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::metrics::run;
    use super::workloads::{Kind, Size};

    /// Metric names declared in `BENCHMARK.json` under `section`.
    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section exists");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closed name")].to_string())
            .collect()
    }

    /// Runs the smoke-sized workload untraced and traced on two seeds:
    /// every check and guard must pass, and the metrics must be exactly
    /// the ones `BENCHMARK.json` declares, each a finite number.
    fn smoke(kind: Kind) {
        for seed in [7, 8] {
            for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let outcome = run(kind, Size::Smoke, seed, 0.01, traced)
                    .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", kind.name()));
                assert!(outcome.correct, "{}: {:?}", kind.name(), outcome.failures);
                assert_eq!(outcome.failed, 0);
                assert!(outcome.attempted >= 4);
                let names: Vec<String> = outcome.metrics.iter().map(|m| m.name.clone()).collect();
                assert_eq!(names, declared(section), "{} metric names", kind.name());
                assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
            }
        }
    }

    #[test]
    fn drift_churn_smoke_passes_every_check() {
        smoke(Kind::DriftChurn);
    }

    #[test]
    fn mobile_durable_smoke_passes_every_check() {
        smoke(Kind::MobileDurable);
    }

    #[test]
    fn city_sharded_smoke_passes_every_check() {
        smoke(Kind::CitySharded);
    }

    #[test]
    fn the_declared_workloads_are_the_implemented_ones() {
        let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(declared("workloads"), names);
    }
}
