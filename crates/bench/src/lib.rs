//! Benchmark support crate: the targets live in `benches/`, this
//! library holds the timing harness and the machine-readable result
//! sink they share.
//!
//! Each bench target regenerates one table or figure of the TrimCaching
//! evaluation (the experiment drivers are indexed in
//! `trimcaching_sim::experiments`; `EXPERIMENTS.md` in the repository
//! root records their output) and times its routines through
//! [`measure`], [`measure_with_setup`] or [`measure_paired`]: one
//! untimed warm-up, then a fixed number of timed samples summarised as
//! [`Stats`]. Headline numbers additionally land in `BENCH_<name>.json`
//! at the repository root via [`write_bench_json`], so the performance
//! trajectory is diffable across PRs instead of living only in prose.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::hint::black_box;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Summary of a set of wall-clock samples, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Number of timed samples.
    pub samples: usize,
    /// Fastest sample: for a CPU-bound deterministic routine the
    /// noise-robust estimator, since interference only ever adds time.
    pub min_s: f64,
    /// Median sample.
    pub median_s: f64,
    /// 95th percentile (linear interpolation between order statistics).
    pub p95_s: f64,
    /// Relative spread: interquartile range over the median.
    pub spread: f64,
}

impl Stats {
    /// Summarises `samples` (seconds).
    ///
    /// # Panics
    ///
    /// Panics on an empty slice: a measurement without samples is a bug
    /// in the bench that asked for it.
    fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "no samples to summarise");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let median_s = quantile(&sorted, 0.5);
        Self {
            samples: sorted.len(),
            min_s: sorted[0],
            median_s,
            p95_s: quantile(&sorted, 0.95),
            spread: (quantile(&sorted, 0.75) - quantile(&sorted, 0.25)) / median_s,
        }
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = Duration::from_secs_f64;
        write!(
            f,
            "median {:.2?} (min {:.2?} – p95 {:.2?}), spread {:.1}%, {} samples",
            d(self.median_s),
            d(self.min_s),
            d(self.p95_s),
            self.spread * 100.0,
            self.samples
        )
    }
}

/// The `p`-quantile of ascending `sorted`, interpolating linearly
/// between the two nearest order statistics.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let rank = (sorted.len() - 1) as f64 * p;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Runs `f` once and returns its output with the wall-clock seconds it
/// took. The output is dropped by the caller, outside the timed span.
/// This is the only place the bench crate reads the clock.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    #[expect(
        clippy::disallowed_methods,
        reason = "the bench harness times routines for reporting; its readings never enter simulated time or traces"
    )]
    let start = Instant::now();
    let out = black_box(f());
    (out, start.elapsed().as_secs_f64())
}

fn report(name: &str, stats: &Stats) {
    eprintln!("bench {name:<50} {stats}");
}

/// Times `samples` runs of `routine` after one untimed warm-up, prints
/// the summary under `name`, and returns the warm-up's output (for the
/// bench's equivalence asserts) with the summary.
pub fn measure<T>(name: &str, samples: usize, mut routine: impl FnMut() -> T) -> (T, Stats) {
    measure_with_setup(name, samples, || (), |()| routine())
}

/// [`measure`] with an untimed `setup` before every run (the warm-up
/// included), whose output the timed `routine` consumes.
pub fn measure_with_setup<S, T>(
    name: &str,
    samples: usize,
    mut setup: impl FnMut() -> S,
    mut routine: impl FnMut(S) -> T,
) -> (T, Stats) {
    let warm = routine(setup());
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let input = setup();
            timed(|| routine(input)).1
        })
        .collect();
    let stats = Stats::from_samples(&times);
    report(name, &stats);
    (warm, stats)
}

/// The paired form behind overhead gates: after one untimed warm-up of
/// each side, times `rounds` runs of `a` and of `b`, `a` first in even
/// rounds and `b` first in odd ones, so slow drift (thermal, cache
/// state) cancels instead of biasing one side. Prints both summaries
/// under `names` and returns them as `(a, b)`.
pub fn measure_paired<A, B>(
    names: [&str; 2],
    rounds: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> (Stats, Stats) {
    black_box(a());
    black_box(b());
    let mut a_times = Vec::with_capacity(rounds);
    let mut b_times = Vec::with_capacity(rounds);
    for round in 0..rounds {
        if round % 2 == 0 {
            a_times.push(timed(&mut a).1);
            b_times.push(timed(&mut b).1);
        } else {
            b_times.push(timed(&mut b).1);
            a_times.push(timed(&mut a).1);
        }
    }
    let (a_stats, b_stats) = (Stats::from_samples(&a_times), Stats::from_samples(&b_times));
    report(names[0], &a_stats);
    report(names[1], &b_stats);
    (a_stats, b_stats)
}

/// Cores this process may run on, recorded beside every timing.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The repository root, resolved from this crate's manifest directory
/// (`crates/bench` → two levels up). Benches run by Cargo always have
/// `CARGO_MANIFEST_DIR` set; the fallback keeps ad-hoc invocations
/// working from the current directory.
pub fn repo_root() -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => {
            let manifest = PathBuf::from(dir);
            manifest
                .parent()
                .and_then(Path::parent)
                .map(Path::to_path_buf)
                .unwrap_or(manifest)
        }
        None => PathBuf::from("."),
    }
}

/// Serialises one metric value. `{}` on `f64` prints the shortest
/// representation that round-trips, which keeps the files
/// byte-stable for identical runs.
fn json_value(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        // JSON has no Infinity/NaN; null marks "not measured".
        "null".to_string()
    }
}

/// Writes `BENCH_<name>.json` into `dir` (benches pass [`repo_root`])
/// with the given metric fields (insertion order preserved), followed by
/// the headline timing's summary and the host's core count, e.g.
///
/// ```json
/// {
///   "bench": "serve_scaling",
///   "throughput_req_s": 52340.1,
///   "p95_latency_s": 0.18,
///   "samples": 10,
///   "median_s": 0.121,
///   "min_s": 0.118,
///   "p95_s": 0.125,
///   "spread": 0.02,
///   "host_cores": 2
/// }
/// ```
///
/// Returns the path written. Errors are printed, not propagated — a
/// read-only checkout must not fail the benchmark itself.
pub fn write_bench_json(dir: &Path, name: &str, stats: &Stats, fields: &[(&str, f64)]) -> PathBuf {
    let path = dir.join(format!("BENCH_{name}.json"));
    let timing = [
        ("samples", stats.samples as f64),
        ("median_s", stats.median_s),
        ("min_s", stats.min_s),
        ("p95_s", stats.p95_s),
        ("spread", stats.spread),
        ("host_cores", host_cores() as f64),
    ];
    let mut body = String::from("{\n");
    body.push_str(&format!("  \"bench\": \"{name}\""));
    for (key, value) in fields.iter().chain(&timing) {
        body.push_str(&format!(",\n  \"{key}\": {}", json_value(*value)));
    }
    body.push_str("\n}\n");
    let result = std::fs::File::create(&path).and_then(|mut f| f.write_all(body.as_bytes()));
    match result {
        Ok(()) => eprintln!("[bench] wrote {}", path.display()),
        Err(e) => eprintln!("[bench] could not write {}: {e}", path.display()),
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn json_values_render_finite_and_null() {
        assert_eq!(json_value(1.5), "1.5");
        assert_eq!(json_value(f64::NAN), "null");
        assert_eq!(json_value(f64::INFINITY), "null");
    }

    #[test]
    fn bench_json_lands_in_the_given_dir_with_all_fields() {
        let dir = std::env::temp_dir().join(format!("tc-bench-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let stats = Stats::from_samples(&[0.5, 0.25]);
        let path = write_bench_json(
            &dir,
            "selftest",
            &stats,
            &[("throughput_req_s", 10.0), ("p95_latency_s", 0.25)],
        );
        let body = std::fs::read_to_string(&path);
        std::fs::remove_dir_all(&dir).unwrap();
        let body = body.unwrap();
        assert_eq!(path, dir.join("BENCH_selftest.json"));
        for line in [
            "\"bench\": \"selftest\"".to_string(),
            "\"throughput_req_s\": 10".to_string(),
            "\"p95_latency_s\": 0.25".to_string(),
            "\"samples\": 2".to_string(),
            "\"median_s\": 0.375".to_string(),
            "\"min_s\": 0.25".to_string(),
            format!("\"p95_s\": {}", json_value(stats.p95_s)),
            format!("\"spread\": {}", json_value(stats.spread)),
            format!("\"host_cores\": {}", host_cores()),
        ] {
            assert!(body.contains(&line), "{line} missing from {body}");
        }
    }

    #[test]
    fn stats_on_known_vectors() {
        let one = Stats::from_samples(&[3.0]);
        assert_eq!(
            one,
            Stats {
                samples: 1,
                min_s: 3.0,
                median_s: 3.0,
                p95_s: 3.0,
                spread: 0.0
            }
        );
        // Odd n: the median is the middle order statistic; q1 = 2, q3 = 4.
        let odd = Stats::from_samples(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((odd.samples, odd.min_s, odd.median_s), (5, 1.0, 3.0));
        assert!((odd.p95_s - 4.8).abs() < 1e-12);
        assert!((odd.spread - 2.0 / 3.0).abs() < 1e-12);
        // Even n: the median averages the middle pair; q1 = 1.75, q3 = 3.25.
        let even = Stats::from_samples(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((even.samples, even.min_s, even.median_s), (4, 1.0, 2.5));
        assert!((even.p95_s - 3.85).abs() < 1e-12);
        assert!((even.spread - 0.6).abs() < 1e-12);
    }

    #[test]
    fn min_is_the_fastest_sample() {
        let samples = [0.31, 0.29, 0.35, 0.290_000_1, 0.4, 0.3];
        let fastest = samples.iter().copied().fold(f64::INFINITY, f64::min);
        assert_eq!(Stats::from_samples(&samples).min_s, fastest);
    }

    #[test]
    fn paired_form_alternates_order_round_by_round() {
        let order = RefCell::new(Vec::new());
        let (a, b) = measure_paired(
            ["selftest/a", "selftest/b"],
            4,
            || order.borrow_mut().push('a'),
            || order.borrow_mut().push('b'),
        );
        assert_eq!((a.samples, b.samples), (4, 4));
        // Warm-up a, b; then rounds a b | b a | a b | b a.
        let expected: Vec<char> = "ababbaabba".chars().collect();
        assert_eq!(order.into_inner(), expected);
    }

    #[test]
    fn setup_runs_untimed_before_every_run() {
        let mut setups = 0;
        let calls = RefCell::new(Vec::new());
        let (warm, stats) = measure_with_setup(
            "selftest/setup",
            3,
            || {
                setups += 1;
                setups
            },
            |n| {
                calls.borrow_mut().push(n);
                n * 10
            },
        );
        assert_eq!((warm, stats.samples), (10, 3));
        assert_eq!(calls.into_inner(), vec![1, 2, 3, 4]);
    }
}
