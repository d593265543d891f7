//! Tabular experiment results with CSV and Markdown rendering.
//!
//! Every experiment driver in [`crate::experiments`] produces an
//! [`ExperimentTable`]: a named table with an x-axis column and one column
//! per measured series (algorithm), each cell carrying a mean and a
//! standard deviation — mirroring how the paper reports its figures
//! (averages over network topologies with error bars).

/// A single measured cell: mean ± standard deviation over repetitions.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Measurement {
    /// Mean over the repetitions.
    pub mean: f64,
    /// Standard deviation over the repetitions.
    pub std_dev: f64,
}

impl Measurement {
    /// Computes mean and standard deviation of the samples. An empty slice
    /// yields zeros.
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let variance = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n;
        Self {
            mean,
            std_dev: variance.sqrt(),
        }
    }
}

/// The mean of paired differences (for example one variant minus a
/// baseline on the same topologies) with the half-width of its 95%
/// confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PairedDifference {
    /// Mean of the differences.
    pub(crate) mean: f64,
    /// Half-width of the 95% confidence interval of the mean:
    /// `t · s / √n`, with `s` the sample standard deviation (divisor
    /// `n − 1`) and `t` the 0.975 quantile of Student's t with `n − 1`
    /// degrees of freedom ([`student_t_975`]). Infinite below two pairs.
    pub(crate) half_width: f64,
}

impl PairedDifference {
    /// Summarises the per-pair differences `a[j] − b[j]`. An empty slice
    /// yields a zero mean.
    pub(crate) fn from_differences(differences: &[f64]) -> Self {
        let n = differences.len();
        if n < 2 {
            return Self {
                mean: differences.first().copied().unwrap_or(0.0),
                half_width: f64::INFINITY,
            };
        }
        let mean = differences.iter().sum::<f64>() / n as f64;
        let variance = differences.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        Self {
            mean,
            half_width: student_t_975(n - 1) * (variance / n as f64).sqrt(),
        }
    }
}

/// The 0.975 quantile of Student's t distribution with `dof ≥ 1` degrees
/// of freedom: tabulated to four decimals up to 30, and above that the
/// Cornish–Fisher expansion around the normal quantile 1.959964 (within
/// 1e-4 of the exact value there).
pub(crate) fn student_t_975(dof: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.7062, 4.3027, 3.1824, 2.7764, 2.5706, 2.4469, 2.3646, 2.3060, 2.2622, 2.2281, 2.2010,
        2.1788, 2.1604, 2.1448, 2.1314, 2.1199, 2.1098, 2.1009, 2.0930, 2.0860, 2.0796, 2.0739,
        2.0687, 2.0639, 2.0595, 2.0555, 2.0518, 2.0484, 2.0452, 2.0423,
    ];
    if let Some(&t) = TABLE.get(dof.max(1) - 1) {
        return t;
    }
    let (z, v) = (1.959_964_f64, dof as f64);
    let g1 = (z.powi(3) + z) / 4.0;
    let g2 = (5.0 * z.powi(5) + 16.0 * z.powi(3) + 3.0 * z) / 96.0;
    let g3 = (3.0 * z.powi(7) + 19.0 * z.powi(5) + 17.0 * z.powi(3) - 15.0 * z) / 384.0;
    z + g1 / v + g2 / v.powi(2) + g3 / v.powi(3)
}

/// One row of an experiment table: an x-axis value plus one measurement per
/// series.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The x-axis value (e.g. storage capacity in GB, number of servers).
    pub x: f64,
    /// One measurement per series, in the order of
    /// [`ExperimentTable::series`].
    pub cells: Vec<Measurement>,
}

/// A complete experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentTable {
    /// Experiment identifier (e.g. `"fig4a"`).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Name of the x-axis (e.g. `"Edge server capacity Q (GB)"`).
    pub x_label: String,
    /// Name of the measured quantity (e.g. `"Cache hit ratio"`).
    pub y_label: String,
    /// Series (column) names, typically algorithm names.
    pub series: Vec<String>,
    /// The measured rows in x order.
    pub rows: Vec<Row>,
}

impl ExperimentTable {
    /// Creates an empty table.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
        series: Vec<String>,
    ) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the number of cells differs from the number of series —
    /// that is a programming error in the experiment driver.
    pub fn push_row(&mut self, x: f64, cells: Vec<Measurement>) {
        assert_eq!(
            cells.len(),
            self.series.len(),
            "row width must match the number of series"
        );
        self.rows.push(Row { x, cells });
    }

    /// The mean values of one series across all rows, in row order.
    pub fn series_means(&self, series: &str) -> Option<Vec<f64>> {
        let idx = self.series.iter().position(|s| s == series)?;
        Some(self.rows.iter().map(|r| r.cells[idx].mean).collect())
    }

    /// Average ratio `series_a / series_b` across rows (used for headline
    /// claims such as "Spec is 11.9% better than Gen on average").
    pub fn average_relative_gain(&self, series_a: &str, series_b: &str) -> Option<f64> {
        let a = self.series_means(series_a)?;
        let b = self.series_means(series_b)?;
        let ratios: Vec<f64> = a
            .iter()
            .zip(&b)
            .filter(|(_, b)| **b > 0.0)
            .map(|(a, b)| a / b - 1.0)
            .collect();
        if ratios.is_empty() {
            return None;
        }
        Some(ratios.iter().sum::<f64>() / ratios.len() as f64)
    }

    /// Renders the table as GitHub-flavoured Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} — {}\n\n", self.id, self.title));
        out.push_str(&format!("| {} |", self.x_label));
        for s in &self.series {
            out.push_str(&format!(" {s} |"));
        }
        out.push('\n');
        out.push_str("|---|");
        for _ in &self.series {
            out.push_str("---|");
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format!("| {:.4} |", row.x));
            for cell in &row.cells {
                out.push_str(&format!(" {:.4} ± {:.4} |", cell.mean, cell.std_dev));
            }
            out.push('\n');
        }
        out.push('\n');
        out
    }

    /// Renders the table as CSV (`x, <series> mean, <series> std, ...`).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.x_label.replace(',', ";"));
        for s in &self.series {
            out.push_str(&format!(",{s} mean,{s} std"));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format!("{}", row.x));
            for cell in &row.cells {
                out.push_str(&format!(",{},{}", cell.mean, cell.std_dev));
            }
            out.push('\n');
        }
        out
    }
}

/// A per-algorithm comparison (used for the running-time studies of
/// Fig. 6): one row per algorithm with its cache hit ratio and average
/// running time.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonTable {
    /// Experiment identifier (e.g. `"fig6a"`).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// One row per algorithm.
    pub rows: Vec<ComparisonRow>,
}

/// One row of a [`ComparisonTable`].
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Algorithm name.
    pub algorithm: String,
    /// Cache hit ratio (mean ± std over topologies).
    pub hit_ratio: Measurement,
    /// Running time in seconds (mean ± std over topologies).
    pub runtime_s: Measurement,
}

impl ComparisonTable {
    /// Creates an empty comparison table.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(
        &mut self,
        algorithm: impl Into<String>,
        hit_ratio: Measurement,
        runtime_s: Measurement,
    ) {
        self.rows.push(ComparisonRow {
            algorithm: algorithm.into(),
            hit_ratio,
            runtime_s,
        });
    }

    /// Ratio of running times `slow / fast` between two named algorithms
    /// (used for the paper's "×22 900 faster" style headlines).
    pub fn speedup(&self, fast: &str, slow: &str) -> Option<f64> {
        let fast = self
            .rows
            .iter()
            .find(|r| r.algorithm == fast)?
            .runtime_s
            .mean;
        let slow = self
            .rows
            .iter()
            .find(|r| r.algorithm == slow)?
            .runtime_s
            .mean;
        if fast <= 0.0 {
            return None;
        }
        Some(slow / fast)
    }

    /// Renders the table as GitHub-flavoured Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} — {}\n\n", self.id, self.title));
        out.push_str("| Algorithm | Cache hit ratio | Average running time (s) |\n|---|---|---|\n");
        for row in &self.rows {
            out.push_str(&format!(
                "| {} | {:.4} ± {:.4} | {:.6} ± {:.6} |\n",
                row.algorithm,
                row.hit_ratio.mean,
                row.hit_ratio.std_dev,
                row.runtime_s.mean,
                row.runtime_s.std_dev
            ));
        }
        out.push('\n');
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("algorithm,hit ratio mean,hit ratio std,runtime_s mean,runtime_s std\n");
        for row in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                row.algorithm,
                row.hit_ratio.mean,
                row.hit_ratio.std_dev,
                row.runtime_s.mean,
                row.runtime_s.std_dev
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> ExperimentTable {
        let mut t = ExperimentTable::new(
            "fig4a",
            "Cache hit ratio vs capacity",
            "Q (GB)",
            "Cache hit ratio",
            vec!["spec".into(), "gen".into()],
        );
        t.push_row(
            0.5,
            vec![
                Measurement {
                    mean: 0.6,
                    std_dev: 0.05,
                },
                Measurement {
                    mean: 0.5,
                    std_dev: 0.04,
                },
            ],
        );
        t.push_row(
            1.0,
            vec![
                Measurement {
                    mean: 0.9,
                    std_dev: 0.02,
                },
                Measurement {
                    mean: 0.8,
                    std_dev: 0.03,
                },
            ],
        );
        t
    }

    #[test]
    fn measurement_statistics_are_correct() {
        let m = Measurement::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert!((m.mean - 2.5).abs() < 1e-12);
        assert!((m.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(Measurement::from_samples(&[]), Measurement::default());
        let single = Measurement::from_samples(&[7.0]);
        assert_eq!(single.mean, 7.0);
        assert_eq!(single.std_dev, 0.0);
    }

    #[test]
    fn paired_difference_matches_hand_computed_values() {
        // d = [2, 3, 2, 3]: mean 2.5, s² = 4 · 0.25 / 3 = 1/3, so the
        // half-width is t(3) · √(1/3) / √4 = 3.1824 · 0.288675 = 0.91868.
        let paired = PairedDifference::from_differences(&[2.0, 3.0, 2.0, 3.0]);
        assert!((paired.mean - 2.5).abs() < 1e-12);
        assert!((paired.half_width - 0.918_68).abs() < 1e-5);
        // Identical differences have no spread.
        let flat = PairedDifference::from_differences(&[0.5; 6]);
        assert_eq!((flat.mean, flat.half_width), (0.5, 0.0));
        // One pair bounds nothing; no pairs mean nothing.
        let one = PairedDifference::from_differences(&[1.5]);
        assert_eq!((one.mean, one.half_width), (1.5, f64::INFINITY));
        assert_eq!(PairedDifference::from_differences(&[]).mean, 0.0);
    }

    #[test]
    fn student_quantiles_match_the_tables() {
        assert_eq!(student_t_975(1), 12.7062);
        assert_eq!(student_t_975(9), 2.2622);
        assert_eq!(student_t_975(30), 2.0423);
        // Past the table: t(40) = 2.0211, t(120) = 1.9799, t(∞) = 1.9600.
        for (dof, exact) in [
            (31, 2.0395),
            (40, 2.0211),
            (120, 1.9799),
            (1_000_000, 1.9600),
        ] {
            let t = student_t_975(dof);
            assert!((t - exact).abs() < 1e-4, "t({dof}) = {t}, not {exact}");
        }
    }

    #[test]
    fn series_queries_and_gains() {
        let t = sample_table();
        assert_eq!(t.series_means("spec").unwrap(), vec![0.6, 0.9]);
        assert_eq!(t.series_means("gen").unwrap(), vec![0.5, 0.8]);
        assert!(t.series_means("missing").is_none());
        let gain = t.average_relative_gain("spec", "gen").unwrap();
        // (0.6/0.5 - 1 + 0.9/0.8 - 1) / 2 = (0.2 + 0.125) / 2
        assert!((gain - 0.1625).abs() < 1e-12);
        assert!(t.average_relative_gain("spec", "missing").is_none());
    }

    #[test]
    fn markdown_and_csv_contain_all_cells() {
        let t = sample_table();
        let md = t.to_markdown();
        assert!(md.contains("fig4a"));
        assert!(md.contains("| Q (GB) | spec | gen |"));
        assert!(md.contains("0.6000 ± 0.0500"));
        let csv = t.to_csv();
        assert!(csv.starts_with("Q (GB),spec mean,spec std,gen mean,gen std"));
        assert!(csv.lines().count() == 3);
        assert!(csv.contains("0.5,0.6,0.05,0.5,0.04"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = sample_table();
        t.push_row(2.0, vec![Measurement::default()]);
    }

    #[test]
    fn comparison_table_reports_speedups() {
        let mut t = ComparisonTable::new("fig6a", "Algorithms vs optimal");
        t.push_row(
            "exhaustive-search",
            Measurement {
                mean: 0.8,
                std_dev: 0.01,
            },
            Measurement {
                mean: 10.0,
                std_dev: 1.0,
            },
        );
        t.push_row(
            "trimcaching-spec",
            Measurement {
                mean: 0.8,
                std_dev: 0.01,
            },
            Measurement {
                mean: 0.001,
                std_dev: 0.0001,
            },
        );
        let speedup = t.speedup("trimcaching-spec", "exhaustive-search").unwrap();
        assert!((speedup - 10_000.0).abs() < 1e-6);
        assert!(t.speedup("missing", "exhaustive-search").is_none());
        let md = t.to_markdown();
        assert!(md.contains("exhaustive-search"));
        assert!(md.contains("trimcaching-spec"));
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.contains("0.8"));
    }
}
