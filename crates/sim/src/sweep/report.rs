//! Sweep artefacts: hand-rolled CSV, JSON and Markdown renderers plus
//! the CSV re-parser behind `sweep-report`.
//!
//! All three renderers are pure functions of the [`SweepReport`], and a
//! report is itself deterministic in the spec — so artefact bytes are
//! identical for any sweep worker count, which `sweep_smoke` in CI
//! pins. The CSV leads with `# key = value` comment lines carrying the
//! report identity; [`parse_csv`] reads them back, so a saved CSV
//! round-trips into the exact [`SweepReport`] that wrote it.

use trimcaching_runtime::FillGranularity;

use super::spec::{bool_to_string, granularity_to_string, tiers_to_string};
use super::{Cell, CellOutcome, PolicyKind, SweepReport, WorkloadFamily};
use crate::SimError;

/// The CSV column headers, in order.
const CSV_HEADER: &str = "index,seed,users,capacity_gb,tiers,workload,policy,granularity,\
                          control,shards,faults,requests,hit_ratio,p95_latency_ms,availability,\
                          backhaul_bytes,offered_req_per_s";

/// Renders the per-cell CSV artefact.
pub fn to_csv(report: &SweepReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("# sweep = {}\n", report.name));
    out.push_str(&format!("# fingerprint = {:016x}\n", report.fingerprint));
    out.push_str(&format!("# duration_s = {}\n", report.duration_s));
    out.push_str(CSV_HEADER);
    out.push('\n');
    for o in &report.outcomes {
        let c = &o.cell;
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            c.index,
            c.seed,
            c.users,
            c.capacity_gb,
            tiers_to_string(&c.tiers),
            c.workload.name(),
            c.policy.name(),
            granularity_to_string(c.granularity),
            bool_to_string(c.control),
            c.shards,
            bool_to_string(c.faults),
            o.requests,
            o.hit_ratio,
            o.p95_latency_ms,
            o.availability,
            o.backhaul_bytes,
            o.offered_req_per_s,
        ));
    }
    out
}

/// Renders the JSON artefact (hand-rolled writer, no external deps).
pub fn to_json(report: &SweepReport) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"name\": \"{}\",\n", report.name));
    out.push_str(&format!(
        "  \"fingerprint\": \"{:016x}\",\n",
        report.fingerprint
    ));
    out.push_str(&format!("  \"duration_s\": {},\n", report.duration_s));
    out.push_str("  \"cells\": [\n");
    for (i, o) in report.outcomes.iter().enumerate() {
        let c = &o.cell;
        out.push_str(&format!(
            "    {{\"index\": {}, \"seed\": {}, \"users\": {}, \"capacity_gb\": {}, \
             \"tiers\": \"{}\", \"workload\": \"{}\", \"policy\": \"{}\", \
             \"granularity\": \"{}\", \"control\": {}, \"shards\": {}, \"faults\": {}, \
             \"requests\": {}, \"hit_ratio\": {}, \"p95_latency_ms\": {}, \
             \"availability\": {}, \"backhaul_bytes\": {}, \"offered_req_per_s\": {}}}{}\n",
            c.index,
            c.seed,
            c.users,
            c.capacity_gb,
            tiers_to_string(&c.tiers),
            c.workload.name(),
            c.policy.name(),
            granularity_to_string(c.granularity),
            c.control,
            c.shards,
            c.faults,
            o.requests,
            o.hit_ratio,
            o.p95_latency_ms,
            o.availability,
            o.backhaul_bytes,
            o.offered_req_per_s,
            if i + 1 == report.outcomes.len() {
                ""
            } else {
                ","
            },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders the Markdown artefact: one grid per workload family present
/// in the report, in canonical family order — the tables EXPERIMENTS.md
/// embeds.
pub fn to_markdown(report: &SweepReport) -> String {
    let mut out = format!(
        "## Sweep `{}`\n\nFingerprint `{:016x}` · {} cells · horizon {} s. Cell seeds \
         derive from the fingerprint alone: `seed = fnv1a(fingerprint_le ‖ index_le)`.\n",
        report.name,
        report.fingerprint,
        report.outcomes.len(),
        report.duration_s,
    );
    for family in WorkloadFamily::all() {
        let rows: Vec<&CellOutcome> = report
            .outcomes
            .iter()
            .filter(|o| o.cell.workload == family)
            .collect();
        if rows.is_empty() {
            continue;
        }
        out.push_str(&format!("\n### Workload family `{}`\n\n", family.name()));
        out.push_str(
            "| cell | users | cap (GB) | tiers | policy | gran | ctrl | shards | faults | \
             hit ratio | p95 (ms) | availability | backhaul (MiB) | offered req/s |\n",
        );
        out.push_str(
            "|-----:|------:|---------:|-------|--------|------|------|-------:|--------|\
             ----------:|---------:|-------------:|---------------:|--------------:|\n",
        );
        for o in rows {
            let c = &o.cell;
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {:.4} | {:.2} | {:.4} | \
                 {:.2} | {:.2} |\n",
                c.index,
                c.users,
                c.capacity_gb,
                tiers_to_string(&c.tiers),
                c.policy.name(),
                granularity_to_string(c.granularity),
                bool_to_string(c.control),
                c.shards,
                bool_to_string(c.faults),
                o.hit_ratio,
                o.p95_latency_ms,
                o.availability,
                o.backhaul_bytes as f64 / (1024.0 * 1024.0),
                o.offered_req_per_s,
            ));
        }
    }
    out
}

/// Parses a CSV artefact written by [`to_csv`] back into the
/// [`SweepReport`] that produced it.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for missing identity comments, a
/// wrong header, or malformed rows.
pub fn parse_csv(text: &str) -> Result<SweepReport, SimError> {
    let bad = |reason: String| SimError::InvalidConfig {
        reason: format!("sweep csv: {reason}"),
    };
    let mut name: Option<String> = None;
    let mut fingerprint: Option<u64> = None;
    let mut duration_s: Option<f64> = None;
    let mut outcomes = Vec::new();
    let mut header_seen = false;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            if let Some((key, value)) = comment.split_once('=') {
                match key.trim() {
                    "sweep" => name = Some(value.trim().to_string()),
                    "fingerprint" => {
                        fingerprint = Some(
                            u64::from_str_radix(value.trim(), 16)
                                .map_err(|_| bad(format!("bad fingerprint '{value}'")))?,
                        );
                    }
                    "duration_s" => {
                        duration_s = Some(
                            value
                                .trim()
                                .parse()
                                .map_err(|_| bad(format!("bad duration '{value}'")))?,
                        );
                    }
                    _ => {}
                }
            }
            continue;
        }
        if !header_seen {
            if line != CSV_HEADER {
                return Err(bad(format!("unexpected header '{line}'")));
            }
            header_seen = true;
            continue;
        }
        outcomes.push(parse_row(line)?);
    }
    Ok(SweepReport {
        name: name.ok_or_else(|| bad("missing '# sweep = ...' line".into()))?,
        fingerprint: fingerprint.ok_or_else(|| bad("missing '# fingerprint = ...' line".into()))?,
        duration_s: duration_s.ok_or_else(|| bad("missing '# duration_s = ...' line".into()))?,
        outcomes,
    })
}

/// Parses one CSV data row.
fn parse_row(line: &str) -> Result<CellOutcome, SimError> {
    let bad = |reason: String| SimError::InvalidConfig {
        reason: format!("sweep csv row '{line}': {reason}"),
    };
    let fields: Vec<&str> = line.split(',').collect();
    if fields.len() != 17 {
        return Err(bad(format!("expected 17 fields, got {}", fields.len())));
    }
    fn num<T: std::str::FromStr>(field: &str) -> Result<T, SimError> {
        field.parse().map_err(|_| SimError::InvalidConfig {
            reason: format!("sweep csv: cannot parse number '{field}'"),
        })
    }
    let tiers = if fields[4] == "flat" {
        Vec::new()
    } else {
        fields[4]
            .split(':')
            .map(num::<f64>)
            .collect::<Result<_, _>>()?
    };
    let granularity = match fields[7] {
        "block" => FillGranularity::Block,
        "whole-model" => FillGranularity::WholeModel,
        other => return Err(bad(format!("unknown granularity '{other}'"))),
    };
    let flag = |field: &str| -> Result<bool, SimError> {
        match field {
            "on" => Ok(true),
            "off" => Ok(false),
            other => Err(SimError::InvalidConfig {
                reason: format!("sweep csv: expected on/off, got '{other}'"),
            }),
        }
    };
    Ok(CellOutcome {
        cell: Cell {
            index: num(fields[0])?,
            seed: num(fields[1])?,
            users: num(fields[2])?,
            capacity_gb: num(fields[3])?,
            tiers,
            workload: WorkloadFamily::parse(fields[5])?,
            policy: PolicyKind::parse(fields[6])?,
            granularity,
            control: flag(fields[8])?,
            shards: num(fields[9])?,
            faults: flag(fields[10])?,
        },
        requests: num(fields[11])?,
        hit_ratio: num(fields[12])?,
        p95_latency_ms: num(fields[13])?,
        availability: num(fields[14])?,
        backhaul_bytes: num(fields[15])?,
        offered_req_per_s: num(fields[16])?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> SweepReport {
        let cell = |index: usize, workload: WorkloadFamily, shards: usize| CellOutcome {
            cell: Cell {
                index,
                seed: super::super::cell_seed(0xdead_beef, index),
                users: 300,
                capacity_gb: 0.5,
                tiers: if index.is_multiple_of(2) {
                    vec![]
                } else {
                    vec![1.0, 2.0, 0.5]
                },
                workload,
                policy: PolicyKind::CostLfu,
                granularity: FillGranularity::Block,
                control: false,
                shards,
                faults: index % 2 == 1,
            },
            requests: 100 + index as u64,
            hit_ratio: 0.5 + index as f64 * 0.01,
            p95_latency_ms: 230.25,
            availability: 0.875,
            backhaul_bytes: 1_048_576 * (index as u64 + 1),
            offered_req_per_s: 1.5,
        };
        SweepReport {
            name: "sample".into(),
            fingerprint: 0xdead_beef,
            duration_s: 120.0,
            outcomes: vec![
                cell(0, WorkloadFamily::FlashCrowd, 1),
                cell(1, WorkloadFamily::FlashCrowd, 2),
                cell(2, WorkloadFamily::Regional, 1),
            ],
        }
    }

    #[test]
    fn csv_round_trips_exactly() {
        let report = sample_report();
        let csv = to_csv(&report);
        let parsed = parse_csv(&csv).unwrap();
        assert_eq!(parsed, report);
        assert_eq!(to_csv(&parsed), csv);
    }

    #[test]
    fn csv_rejects_malformed_input() {
        assert!(parse_csv("").is_err());
        assert!(parse_csv("# sweep = x\n# fingerprint = zz\n").is_err());
        let valid = to_csv(&sample_report());
        let truncated = valid.replace(",flash-crowd,", ",tide,");
        assert!(parse_csv(&truncated).is_err());
        let wide = format!("{valid}1,2,3\n");
        assert!(parse_csv(&wide).is_err());
        let no_header = valid.replace(CSV_HEADER, "a,b,c");
        assert!(parse_csv(&no_header).is_err());
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let json = to_json(&sample_report());
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert_eq!(json.matches("\"index\":").count(), 3);
        assert!(json.contains("\"fingerprint\": \"00000000deadbeef\""));
        assert!(json.contains("\"tiers\": \"1:2:0.5\""));
        assert!(json.contains("\"faults\": true"));
        // Balanced braces and brackets (hand-rolled writer sanity).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn markdown_groups_by_family_in_canonical_order() {
        let md = to_markdown(&sample_report());
        let flash = md.find("### Workload family `flash-crowd`").unwrap();
        let regional = md.find("### Workload family `regional`").unwrap();
        assert!(flash < regional, "canonical family order");
        assert!(!md.contains("`diurnal`"), "absent families are skipped");
        assert!(md.contains("| 0.5000 |"), "hit ratio formatted at 4 places");
        assert!(md.contains("| 230.25 |"), "p95 in ms at 2 places");
        assert!(md.contains("00000000deadbeef"));
    }
}
