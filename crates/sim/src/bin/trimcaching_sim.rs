//! `trimcaching-sim` — command-line driver regenerating the paper's
//! figures.
//!
//! ```text
//! trimcaching-sim <experiment> [--paper|--fast] [--topologies N]
//!                 [--realisations N] [--csv] [--out FILE] [--dir DIR]
//!                 [--shards N] [--threads N] [--spec FILE]
//!
//! experiments: fig1 fig4a fig4b fig4c fig5a fig5b fig5c fig6a fig6b fig7
//!              serve serve-trace serve-blocks serve-adapt serve-adapt-trace
//!              serve-adapt-mobility serve-journal resume fork-ab
//!              journal-stats serve-faults lora-market city-scale
//!              serve-sharded serve-sharded-xl sweep sweep-report
//!              ablation-epsilon ablation-sharing ablation-zipf
//!              ablation-scaling ablation-backhaul ablation-deadline
//!              ablation-shadowing all
//! ```
//!
//! The default repetition counts are the `reduced` preset (15 topologies ×
//! 100 fading realisations), which preserves the paper's trends while
//! finishing in minutes; `--paper` selects the full 100 × 1000 setting.
//!
//! The durable subcommands (`serve-journal`, `resume`, `fork-ab`,
//! `journal-stats`) persist and re-open run artefacts under `--dir`
//! (default `target/durable`): `serve-journal` writes the journal and
//! checkpoint files, then `resume`, `fork-ab` and `journal-stats`
//! operate on them. They run one deterministic study run each and are
//! not part of `all`.
//!
//! The sharded subcommands (`serve-sharded`, `serve-sharded-xl`) drive
//! the region-sharded engine: `--shards` caps the shard-count sweep and
//! `--threads` sizes the worker pool (`0` = all cores). Both verify
//! byte-identity across worker-thread counts; `serve-sharded-xl` is the
//! million-user acceptance run and is deliberately not part of `all`.
//!
//! The sweep subcommands run declarative grids: `sweep` expands the
//! `--spec` file (a `key = value` sheet; omitted = the built-in smoke
//! grid), serves every cell across `--threads` workers and writes
//! `sweep_<name>.{csv,json,md}` under `--dir`; the artefact bytes are
//! identical for any worker count. `sweep-report` re-renders the
//! markdown from a previously written CSV without re-running anything,
//! verifying its fingerprint against the spec. Neither is part of
//! `all`.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use trimcaching_sim::experiments::{
    ablation, adapt, city, durable, faults, fig1, fig4, fig5, fig6, fig7, lora, serve, sharded,
    RunConfig,
};
use trimcaching_sim::montecarlo::MonteCarloConfig;
use trimcaching_sim::{sweep, SimError, SweepSpec};

/// Parsed command-line options.
struct Options {
    experiment: String,
    config: RunConfig,
    csv: bool,
    out: Option<String>,
    dir: PathBuf,
    shards: usize,
    threads: usize,
    spec: Option<PathBuf>,
}

fn print_usage() {
    eprintln!(
        "usage: trimcaching-sim <experiment> [--paper|--fast] [--topologies N] \
         [--realisations N] [--models-per-backbone N] [--seed N] [--csv] [--out FILE] \
         [--dir DIR] [--shards N] [--threads N]\n\
         experiments: fig1 fig4a fig4b fig4c fig5a fig5b fig5c fig6a fig6b fig7 \
         serve serve-trace serve-blocks serve-adapt serve-adapt-trace serve-adapt-mobility \
         serve-journal resume fork-ab journal-stats serve-faults lora-market city-scale \
         serve-sharded serve-sharded-xl \
         sweep sweep-report ablation-epsilon ablation-sharing ablation-zipf ablation-scaling \
         ablation-backhaul ablation-deadline ablation-shadowing all"
    );
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut experiment = None;
    let mut config = RunConfig::reduced();
    let mut csv = false;
    let mut out = None;
    let mut dir = PathBuf::from("target/durable");
    let mut shards = 4usize;
    let mut threads = 0usize;
    let mut spec = None;
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--paper" => config = RunConfig::paper(),
            "--fast" => {
                config.monte_carlo = MonteCarloConfig {
                    topologies: 3,
                    fading_realisations: 20,
                    ..config.monte_carlo
                };
            }
            "--csv" => csv = true,
            "--topologies"
            | "--realisations"
            | "--models-per-backbone"
            | "--seed"
            | "--out"
            | "--dir"
            | "--shards"
            | "--threads"
            | "--spec" => {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("missing value for {arg}"))?;
                match arg.as_str() {
                    "--topologies" => {
                        config.monte_carlo.topologies = value
                            .parse()
                            .map_err(|_| format!("invalid count {value}"))?;
                    }
                    "--realisations" => {
                        config.monte_carlo.fading_realisations = value
                            .parse()
                            .map_err(|_| format!("invalid count {value}"))?;
                    }
                    "--models-per-backbone" => {
                        config.models_per_backbone = value
                            .parse()
                            .map_err(|_| format!("invalid count {value}"))?;
                    }
                    "--seed" => {
                        config.monte_carlo.seed =
                            value.parse().map_err(|_| format!("invalid seed {value}"))?;
                    }
                    "--out" => out = Some(value.clone()),
                    "--dir" => dir = PathBuf::from(value),
                    "--shards" => {
                        shards = value
                            .parse()
                            .map_err(|_| format!("invalid shard count {value}"))?;
                    }
                    "--threads" => {
                        threads = value
                            .parse()
                            .map_err(|_| format!("invalid thread count {value}"))?;
                    }
                    "--spec" => spec = Some(PathBuf::from(value)),
                    _ => unreachable!(),
                }
            }
            other if !other.starts_with("--") && experiment.is_none() => {
                experiment = Some(other.to_string());
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Options {
        experiment: experiment.ok_or_else(|| "missing experiment name".to_string())?,
        config,
        csv,
        out,
        dir,
        shards,
        threads,
        spec,
    })
}

/// Runs one experiment and returns its rendered output.
/// Loads a sweep spec: parses `--spec` when given, else the built-in
/// smoke grid.
fn load_spec(path: Option<&Path>) -> Result<SweepSpec, SimError> {
    match path {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| SimError::InvalidConfig {
                reason: format!("cannot read spec {}: {e}", path.display()),
            })?;
            sweep::parse_spec(&text)
        }
        None => Ok(SweepSpec::smoke()),
    }
}

/// Runs a sweep end to end: expands the spec, serves every cell and
/// writes the `sweep_<name>.{csv,json,md}` artefacts under `dir`.
fn run_sweep_cli(
    spec_path: Option<&Path>,
    dir: &Path,
    threads: usize,
    csv: bool,
) -> Result<String, SimError> {
    let spec = load_spec(spec_path)?;
    eprintln!(
        "[trimcaching-sim] sweep '{}': {} cells, fingerprint {:016x}",
        spec.name,
        spec.num_cells(),
        spec.fingerprint()
    );
    let report = sweep::run_sweep(&spec, threads)?;
    let csv_text = sweep::to_csv(&report);
    let json_text = sweep::to_json(&report);
    let md_text = sweep::to_markdown(&report);
    std::fs::create_dir_all(dir).map_err(|e| SimError::InvalidConfig {
        reason: format!("cannot create {}: {e}", dir.display()),
    })?;
    for (ext, text) in [("csv", &csv_text), ("json", &json_text), ("md", &md_text)] {
        let path = dir.join(format!("sweep_{}.{ext}", spec.name));
        std::fs::write(&path, text).map_err(|e| SimError::InvalidConfig {
            reason: format!("cannot write {}: {e}", path.display()),
        })?;
        eprintln!("[trimcaching-sim] wrote {}", path.display());
    }
    Ok(if csv { csv_text } else { md_text })
}

/// Re-renders the markdown report from a previously written sweep CSV,
/// verifying its fingerprint against the spec.
fn sweep_report_cli(spec_path: Option<&Path>, dir: &Path) -> Result<String, SimError> {
    let spec = load_spec(spec_path)?;
    let path = dir.join(format!("sweep_{}.csv", spec.name));
    let text = std::fs::read_to_string(&path).map_err(|e| SimError::InvalidConfig {
        reason: format!("cannot read {} (run 'sweep' first): {e}", path.display()),
    })?;
    let report = sweep::parse_csv(&text)?;
    if report.fingerprint != spec.fingerprint() {
        return Err(SimError::InvalidConfig {
            reason: format!(
                "sweep CSV fingerprint {:016x} does not match the spec's {:016x} —                  the artefact was produced by a different grid",
                report.fingerprint,
                spec.fingerprint()
            ),
        });
    }
    Ok(sweep::to_markdown(&report))
}

fn run_experiment(
    name: &str,
    config: &RunConfig,
    csv: bool,
    dir: &Path,
    shards: usize,
    threads: usize,
    spec: Option<&Path>,
) -> Result<String, SimError> {
    let render_table = |t: trimcaching_sim::ExperimentTable| {
        if csv {
            t.to_csv()
        } else {
            t.to_markdown()
        }
    };
    let render_comparison = |t: trimcaching_sim::ComparisonTable| {
        if csv {
            t.to_csv()
        } else {
            t.to_markdown()
        }
    };
    Ok(match name {
        "fig1" => render_table(fig1::accuracy_vs_frozen_layers()),
        "fig4a" => render_table(fig4::capacity_sweep(config)?),
        "fig4b" => render_table(fig4::server_sweep(config)?),
        "fig4c" => render_table(fig4::user_sweep(config)?),
        "fig5a" => render_table(fig5::capacity_sweep(config)?),
        "fig5b" => render_table(fig5::server_sweep(config)?),
        "fig5c" => render_table(fig5::user_sweep(config)?),
        "fig6a" => render_comparison(fig6::special_case_vs_optimal(config)?),
        "fig6b" => render_comparison(fig6::general_case_runtime(config)?),
        "fig7" => render_table(fig7::mobility_robustness(config)?),
        "serve" => render_table(serve::policy_comparison(config)?),
        "serve-trace" => render_table(serve::warm_start_trace(config)?),
        "serve-blocks" => render_table(serve::block_fill_comparison(config)?),
        "serve-adapt" => render_table(adapt::adaptive_serving(config)?),
        "serve-adapt-trace" => render_table(adapt::adaptive_trace(config)?),
        "serve-adapt-mobility" => render_table(adapt::adaptive_mobility(config)?),
        "serve-journal" => render_table(durable::serve_journal(config, dir)?),
        "resume" => render_table(durable::resume_run(config, dir)?),
        "fork-ab" => render_table(durable::fork_ab(config, dir)?),
        "journal-stats" => render_table(durable::journal_stats(dir)?),
        "serve-faults" => render_table(faults::failover_study(config)?),
        "lora-market" => render_table(lora::capacity_sweep(config)?),
        "city-scale" => render_table(city::city_scale_study(config)?),
        "serve-sharded" => render_table(sharded::sharded_scaling_study(config, shards, threads)?),
        "serve-sharded-xl" => render_table(sharded::sharded_xl_study(config, threads)?),
        "sweep" => run_sweep_cli(spec, dir, threads, csv)?,
        "sweep-report" => sweep_report_cli(spec, dir)?,
        "ablation-epsilon" => render_table(ablation::epsilon_sweep(config)?),
        "ablation-sharing" => render_table(ablation::sharing_depth_sweep(config)?),
        "ablation-zipf" => render_table(ablation::zipf_sweep(config)?),
        "ablation-scaling" => render_table(ablation::library_scaling(config)?),
        "ablation-backhaul" => render_table(ablation::backhaul_sweep(config)?),
        "ablation-deadline" => render_table(ablation::deadline_sweep(config)?),
        "ablation-shadowing" => render_table(ablation::shadowing_sweep(config)?),
        "all" => {
            let mut out = String::new();
            for exp in [
                "fig1",
                "fig4a",
                "fig4b",
                "fig4c",
                "fig5a",
                "fig5b",
                "fig5c",
                "fig6a",
                "fig6b",
                "fig7",
                "serve",
                "serve-trace",
                "serve-blocks",
                "serve-adapt",
                "serve-adapt-trace",
                "serve-adapt-mobility",
                "serve-faults",
                "lora-market",
                "city-scale",
                "ablation-epsilon",
                "ablation-sharing",
                "ablation-zipf",
                "ablation-scaling",
                "ablation-backhaul",
                "ablation-deadline",
                "ablation-shadowing",
            ] {
                eprintln!("[trimcaching-sim] running {exp} ...");
                out.push_str(&run_experiment(
                    exp, config, csv, dir, shards, threads, spec,
                )?);
            }
            out
        }
        other => {
            return Err(SimError::InvalidConfig {
                reason: format!("unknown experiment {other}"),
            })
        }
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            print_usage();
            return ExitCode::FAILURE;
        }
    };
    match run_experiment(
        &options.experiment,
        &options.config,
        options.csv,
        &options.dir,
        options.shards,
        options.threads,
        options.spec.as_deref(),
    ) {
        Ok(rendered) => {
            if let Some(path) = options.out {
                match std::fs::File::create(&path)
                    .and_then(|mut f| f.write_all(rendered.as_bytes()))
                {
                    Ok(()) => eprintln!("[trimcaching-sim] wrote {path}"),
                    Err(e) => {
                        eprintln!("error writing {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                print!("{rendered}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
