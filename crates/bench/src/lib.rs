//! Benchmark support crate: the targets live in `benches/`, this
//! library holds the machine-readable result sink they share.
//!
//! Each bench target regenerates one table or figure of the TrimCaching
//! evaluation; see `DESIGN.md` (experiment index) and `EXPERIMENTS.md` in
//! the repository root. Headline numbers additionally land in
//! `BENCH_<name>.json` at the repository root via [`write_bench_json`],
//! so the performance trajectory is diffable across PRs instead of
//! living only in prose.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::Write;
use std::path::{Path, PathBuf};

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

/// Writes `BENCH_<name>.json` at the repository root with the given
/// metric fields (insertion order preserved), e.g.
///
/// ```json
/// {
///   "bench": "serve_scaling",
///   "throughput_req_s": 52340.1,
///   "throughput_req_s_core": 52340.1,
///   "p95_latency_s": 0.18,
///   "bytes_downloaded": 123456789.0
/// }
/// ```
///
/// Returns the path written. Errors are printed, not propagated — a
/// read-only checkout must not fail the benchmark itself.
pub fn write_bench_json(name: &str, fields: &[(&str, f64)]) -> PathBuf {
    let path = repo_root().join(format!("BENCH_{name}.json"));
    let mut body = String::from("{\n");
    body.push_str(&format!("  \"bench\": \"{name}\""));
    for (key, value) in fields {
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

    #[test]
    fn json_values_render_finite_and_null() {
        assert_eq!(json_value(1.5), "1.5");
        assert_eq!(json_value(f64::NAN), "null");
        assert_eq!(json_value(f64::INFINITY), "null");
    }

    #[test]
    fn bench_json_lands_at_the_repo_root_with_all_fields() {
        let path = write_bench_json(
            "selftest",
            &[("throughput_req_s", 10.0), ("p95_latency_s", 0.25)],
        );
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"bench\": \"selftest\""));
        assert!(body.contains("\"throughput_req_s\": 10"));
        assert!(body.contains("\"p95_latency_s\": 0.25"));
        assert_eq!(path.file_name().unwrap(), "BENCH_selftest.json");
        let _ = std::fs::remove_file(path);
    }
}
