//! One benchmark run of a workload: set-up, the timed loop, the output
//! checks, and — when traced — the layer probes and per-layer metrics.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use trimcaching::runtime::{LatencyHistogram, ServeReport};

use crate::trace::Tracer;
use crate::workloads::{BenchResult, Kind, Layout, Setup, Size};

/// Set-up runs at least this often, and keeps repeating while the
/// budget lasts, up to `MAX_SETUPS`; its median is `setup_s`.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_secs(3);
/// Timed operations made at least, per tracing state.
const MIN_OPS: usize = 3;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run of one workload produced.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Every metric by name with its unit, then any failed check.
    pub fn print_table(&self) {
        for m in &self.metrics {
            println!("  {:<36} {:>18} {}", m.name, m.value, m.unit);
        }
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
    }

    /// Several workloads' outcomes as one, metric names prefixed with
    /// the workload.
    pub fn merged(outcomes: &[(Kind, Outcome)]) -> Outcome {
        Outcome {
            correct: outcomes.iter().all(|(_, o)| o.correct),
            attempted: outcomes.iter().map(|(_, o)| o.attempted).sum(),
            failed: outcomes.iter().map(|(_, o)| o.failed).sum(),
            failures: Vec::new(),
            metrics: outcomes
                .iter()
                .flat_map(|(kind, o)| {
                    o.metrics.iter().map(move |m| Metric {
                        name: format!("{}.{}", kind.name(), m.name),
                        value: m.value,
                        unit: m.unit,
                    })
                })
                .collect(),
        }
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Peak resident set of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib * 1024.0 / 1e6)
}

/// The git revision of the checkout, read from `.git` without running
/// git (a benchmark checkout need not be a repository).
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Host and build facts recorded with every result.
pub fn host_record() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!("nproc={nproc} profile={profile} rev={}", git_revision())
}

/// Scratch space for journals and span files, inside the benchmark's
/// own directory.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The `q`-quantile of a latency histogram in seconds, interpolated by
/// rank inside the bucket that holds it.
///
/// `LatencyHistogram::quantile_s` reports the upper edge of that bucket,
/// so across seeds it moves in ~14% steps and often reads the same. The
/// bucket's rank range is recovered from `quantile_s` itself, and the
/// value is placed log-linearly between the previous occupied edge and
/// this one: still a pure function of the histogram, so exact per seed.
pub fn quantile(h: &LatencyHistogram, q: f64) -> f64 {
    let n = h.count();
    let Some(upper) = h.quantile_s(q) else {
        return f64::NAN;
    };
    // Upper edge of the bucket holding the sample of rank `r` (1-based).
    let edge = |r: u64| h.quantile_s((r as f64 - 0.5) / n as f64).unwrap_or(upper);
    let below = ranks_where(n, |r| edge(r) < upper);
    let through = ranks_where(n, |r| edge(r) <= upper);
    if below == 0 || through == below {
        return upper;
    }
    let lower = edge(below);
    let share = ((q * n as f64 - below as f64) / (through - below) as f64).clamp(0.0, 1.0);
    lower * (upper / lower).powf(share)
}

/// How many ranks `1..=n` satisfy `holds`, which must hold on a prefix.
fn ranks_where(n: u64, holds: impl Fn(u64) -> bool) -> u64 {
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if holds(mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

/// Runs one workload for about `seconds` of timed operations.
pub fn run(kind: Kind, size: Size, seed: u64, seconds: f64, traced: bool) -> BenchResult<Outcome> {
    let dir = out_dir().join(format!("{}-{}", kind.name(), std::process::id()));
    let result = run_in(kind, size, seed, seconds, traced, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(
    kind: Kind,
    size: Size,
    seed: u64,
    seconds: f64,
    traced: bool,
    dir: &Path,
) -> BenchResult<Outcome> {
    let mut tracer = Tracer::new(traced);

    // Set-up: scenario generation, placement solve, engine construction
    // and warm start — repeated, median reported.
    let mut setup_times = Vec::new();
    let mut setup = None;
    let budget = Instant::now();
    while setup_times.len() < MIN_SETUPS
        || (setup_times.len() < MAX_SETUPS && budget.elapsed() < SETUP_BUDGET)
    {
        drop(setup.take());
        let started = Instant::now();
        let prepared = tracer.span("setup", |t| -> BenchResult<Setup> {
            let s = Setup::prepare(kind, size, seed, t)?;
            s.engine(s.layout, None, t)?;
            Ok(s)
        })?;
        setup_times.push(started.elapsed().as_secs_f64());
        setup = Some(prepared);
    }
    let setup = setup.expect("set-up ran at least once");

    // The timed loop. A traced run alternates untraced and traced
    // operations, so the two throughputs give the tracing overhead.
    let mut attempted = 0u64;
    let mut failures = Vec::new();
    let mut failed = 0u64;
    let mut first: Option<ServeReport> = None;
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let ops_wanted = if traced {
        2 * MIN_OPS as u64
    } else {
        MIN_OPS as u64
    };
    let started = Instant::now();
    while attempted < ops_wanted || started.elapsed().as_secs_f64() < seconds {
        let trace_this = traced && attempted % 2 == 1;
        tracer.set_enabled(trace_this);
        attempted += 1;
        let result = setup.op_engine(dir, &mut tracer).and_then(|engine| {
            let op_started = Instant::now();
            let report = tracer.span("workload.op", |t| setup.op(engine, dir, t))?;
            Ok((report, op_started.elapsed().as_secs_f64()))
        });
        let (report, secs) = match result {
            Ok(done) => done,
            Err(e) => {
                failed += 1;
                failures.push(e);
                continue;
            }
        };
        let mut bad = setup.check_report(&report);
        match &first {
            Some(f) if *f != report => bad.push("a repeated run of one seed differs".into()),
            Some(_) => {}
            None => first = Some(report),
        }
        if bad.is_empty() {
            if trace_this {
                traced_s.push(secs);
            } else {
                untraced_s.push(secs);
            }
        } else {
            failed += 1;
            failures.extend(bad);
        }
    }
    let Some(first) = first else {
        return Err(format!("no operation succeeded: {}", failures.join("; ")));
    };
    if untraced_s.is_empty() {
        return Err(format!(
            "no operation passed its checks: {}",
            failures.join("; ")
        ));
    }

    // Outside the timed loop: the durable run must equal an
    // uninterrupted plain run, the sharded run its one-thread run.
    tracer.set_enabled(traced);
    attempted += 1;
    let (reference, reference_s) = tracer.span("check.reference", |t| setup.reference(t))?;
    if reference != first {
        failed += 1;
        failures.push(match kind {
            Kind::MobileDurable => "the resumed run differs from an uninterrupted run".into(),
            Kind::CitySharded => "the 2-thread run differs from the 1-thread run".into(),
            Kind::DriftChurn => "a plain run differs from the timed runs".into(),
        });
    }

    let requests = first.metrics.requests as f64;
    let op_s = median(&untraced_s);
    let mut metrics = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        })
    };
    if !traced {
        let m = &first.metrics;
        put("req_per_s", requests / op_s, "req/s");
        put("setup_s", median(&setup_times), "s");
        put("peak_rss_mb", peak_rss_mb(), "MB");
        put("hit_ratio", m.hit_ratio(), "ratio");
        put("latency_p50_s", quantile(&m.latency, 0.5), "s");
        put("latency_p999_s", quantile(&m.latency, 0.999), "s");
        put("backhaul_gb", m.backhaul_bytes_moved as f64 / 1e9, "GB");
    } else {
        let plain_s = if setup.durable() { reference_s } else { op_s };
        let layers = probe_layers(&setup, &first, plain_s, dir, &mut tracer)?;
        for (name, value, unit) in layers {
            put(name, value, unit);
        }
        put(
            "trace.overhead",
            1.0 - median(&untraced_s) / median(&traced_s),
            "ratio",
        );
        put("trace.spans", tracer.spans().len() as f64, "count");
        tracer
            .write_jsonl(&out_dir().join(format!("spans-{}-{}.jsonl", kind.name(), setup.seed)))
            .map_err(|e| format!("writing spans: {e}"))?;
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        failures.push("a metric is not a finite number".into());
        for m in &mut metrics {
            if !m.value.is_finite() {
                m.value = 0.0;
            }
        }
    }
    Ok(Outcome {
        correct: failed == 0 && finite,
        attempted,
        failed,
        failures,
        metrics,
    })
}

/// The layer probes of a traced run and the per-layer metrics derived
/// from the spans and the report.
fn probe_layers(
    setup: &Setup,
    report: &ServeReport,
    plain_s: f64,
    dir: &Path,
    tracer: &mut Tracer,
) -> BenchResult<Vec<(&'static str, f64, &'static str)>> {
    let replan_s = setup.replan(tracer)?;
    let replay = setup.mobility_replay(tracer)?;
    let persist = setup.persist_probe(dir, report, tracer)?;
    let shard = setup.shard_probe(report, tracer)?;

    let med = |name: &str| median(&tracer.durations(name));
    let m = &report.metrics;
    let run_s = med("workload.op");
    let update_s = med("scenario.update_user_positions");
    let engine_setup = match setup.layout {
        Layout::Classic => med("runtime.engine.setup"),
        Layout::Sharded { .. } => med("runtime.shard.setup"),
    };
    let per = |x: u64, of: u64| if of == 0 { 0.0 } else { x as f64 / of as f64 };
    Ok(vec![
        ("sim.topology.generate_s", med("sim.topology.generate"), "s"),
        (
            "scenario.servers",
            setup.scenario.num_servers() as f64,
            "count",
        ),
        ("scenario.users", setup.scenario.num_users() as f64, "count"),
        (
            "scenario.eligibility_sparse",
            f64::from(u8::from(setup.eligibility_sparse())),
            "bool",
        ),
        ("placement.place_s", med("placement.place"), "s"),
        ("placement.evaluations", setup.evaluations as f64, "count"),
        (
            "placement.expected_hit_ratio",
            setup.expected_hit_ratio,
            "ratio",
        ),
        ("placement.replan_s", replan_s, "s"),
        ("runtime.engine.setup_s", engine_setup, "s"),
        ("runtime.engine.run_s", run_s, "s"),
        ("runtime.engine.requests", m.requests as f64, "count"),
        (
            "runtime.engine.misses_served",
            m.misses_served as f64,
            "count",
        ),
        ("runtime.engine.rejected", m.rejected as f64, "count"),
        ("runtime.cache.insertions", m.insertions as f64, "count"),
        ("runtime.cache.evictions", m.evictions as f64, "count"),
        (
            "runtime.cache.block_hit_ratio",
            m.block_hit_ratio(),
            "ratio",
        ),
        (
            "runtime.transfer.started",
            m.transfers_started as f64,
            "count",
        ),
        (
            "runtime.transfer.fills_completed",
            m.fills_completed as f64,
            "count",
        ),
        (
            "runtime.transfer.peak_queue_depth",
            m.peak_transfer_queue_depth as f64,
            "count",
        ),
        (
            "runtime.transfer.mean_queue_depth",
            m.mean_transfer_queue_depth(),
            "count",
        ),
        ("runtime.transfer.mean_transfer_s", m.mean_transfer_s(), "s"),
        ("runtime.control.ticks", m.control_ticks as f64, "count"),
        (
            "runtime.control.replans",
            m.replans_triggered as f64,
            "count",
        ),
        (
            "runtime.control.reconcile_fills",
            m.reconcile_fills_started as f64,
            "count",
        ),
        (
            "runtime.control.reconcile_gb",
            m.reconcile_bytes_moved as f64 / 1e9,
            "GB",
        ),
        ("scenario.mobility.slots", replay.slots as f64, "count"),
        (
            "scenario.mobility.step_s",
            med("scenario.mobility.step"),
            "s",
        ),
        ("scenario.update_user_positions_s", update_s, "s"),
        (
            "scenario.mobility.update_share",
            update_s * m.snapshot_rebuilds as f64 / run_s,
            "ratio",
        ),
        (
            "scenario.delta.moved_users",
            replay.moved_users as f64,
            "count",
        ),
        (
            "scenario.delta.refreshed_users",
            replay.refreshed_users as f64,
            "count",
        ),
        (
            "scenario.delta.reallocated_servers",
            replay.reallocated_servers as f64,
            "count",
        ),
        (
            "scenario.delta.refresh_ratio",
            per(replay.refreshed_users, replay.moved_users),
            "ratio",
        ),
        (
            "scenario.mobility.snapshot_rebuilds",
            m.snapshot_rebuilds as f64,
            "count",
        ),
        (
            "scenario.mobility.users_refreshed",
            m.users_refreshed as f64,
            "count",
        ),
        ("scenario.mobility.handovers", m.handovers as f64, "count"),
        (
            "runtime.persist.killed_run_s",
            med("runtime.persist.killed_run"),
            "s",
        ),
        (
            "runtime.persist.resume_s",
            med("runtime.persist.resume"),
            "s",
        ),
        (
            "runtime.persist.journal_mb",
            persist.journal_bytes as f64 / 1e6,
            "MB",
        ),
        (
            "runtime.persist.checkpoint_mb",
            persist.checkpoint_bytes as f64 / 1e6,
            "MB",
        ),
        (
            "runtime.persist.read_journal_s",
            persist.read_journal_s,
            "s",
        ),
        (
            "runtime.persist.overhead",
            persist.durable_run_s / plain_s - 1.0,
            "ratio",
        ),
        ("runtime.shard.shards", shard.shards as f64, "count"),
        ("runtime.shard.setup_s", med("runtime.shard.setup"), "s"),
        ("runtime.shard.run_s", shard.run_2t_s, "s"),
        ("runtime.shard.run_1t_s", shard.run_1t_s, "s"),
        (
            "runtime.shard.speedup",
            shard.run_1t_s / shard.run_2t_s,
            "ratio",
        ),
        (
            "trace.op_self_s",
            median(&tracer.self_times("workload.op")),
            "s",
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_takes_the_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn interpolated_quantiles_stay_in_their_bucket_and_grow_with_q() {
        let mut h = LatencyHistogram::new();
        for i in 0..10_000 {
            h.record(0.01 + i as f64 * 1e-4);
        }
        let mut last = 0.0;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let upper = h.quantile_s(q).unwrap();
            let v = quantile(&h, q);
            assert!(
                v <= upper && v > upper / 1.2,
                "q={q}: {v} vs bucket edge {upper}"
            );
            assert!(v >= last, "quantiles must not decrease");
            last = v;
        }
        // Exact for a given histogram: the same samples give the same value.
        assert_eq!(
            quantile(&h, 0.5).to_bits(),
            quantile(&h.clone(), 0.5).to_bits()
        );
    }

    #[test]
    fn ranks_where_counts_the_prefix() {
        assert_eq!(ranks_where(10, |r| r <= 4), 4);
        assert_eq!(ranks_where(10, |_| false), 0);
        assert_eq!(ranks_where(10, |_| true), 10);
        assert_eq!(ranks_where(0, |_| true), 0);
    }
}
