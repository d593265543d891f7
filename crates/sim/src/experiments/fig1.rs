//! Fig. 1 — inference accuracy vs. number of frozen bottom layers.
//!
//! The paper's Fig. 1 fine-tunes ResNet-50 on two CIFAR-100 superclasses
//! ("transportation" and "animal") while freezing a growing number of
//! bottom layers, showing that accuracy degrades only slightly (≈4.05% and
//! ≈5.2% at a 90% freeze depth). Reproducing the figure verbatim requires
//! GPU fine-tuning; this driver regenerates the curve from the calibrated
//! analytic degradation model of [`trimcaching_modellib::accuracy`],
//! whose module docs give the substitution and its calibration.

use trimcaching_modellib::accuracy::FrozenLayerAccuracy;

use crate::report::{ExperimentTable, Measurement};

/// Regenerates the Fig. 1 curve: accuracy vs. frozen bottom layers for the
/// two downstream tasks.
pub fn accuracy_vs_frozen_layers() -> ExperimentTable {
    let transportation = FrozenLayerAccuracy::paper_transportation();
    let animal = FrozenLayerAccuracy::paper_animal();
    let mut table = ExperimentTable::new(
        "fig1",
        "Inference accuracy vs. number of frozen bottom layers (ResNet-50)",
        "Frozen bottom layers",
        "Accuracy",
        vec!["transportation".into(), "animal".into()],
    );
    for frozen in (0..=transportation.total_layers).step_by(5) {
        table.push_row(
            frozen as f64,
            vec![
                Measurement {
                    mean: transportation.accuracy(frozen),
                    std_dev: 0.0,
                },
                Measurement {
                    mean: animal.accuracy(frozen),
                    std_dev: 0.0,
                },
            ],
        );
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_matches_the_paper_endpoints() {
        let table = accuracy_vs_frozen_layers();
        assert_eq!(table.series, vec!["transportation", "animal"]);
        assert!(!table.rows.is_empty());
        let first = &table.rows[0];
        let last = table.rows.last().unwrap();
        // Accuracy starts at the full fine-tuning level and only decreases.
        assert!(first.cells[0].mean > last.cells[0].mean);
        // The drop from zero to ~90% frozen stays below ~6%, the paper's
        // qualitative observation motivating parameter sharing.
        let near_90 = table
            .rows
            .iter()
            .find(|r| r.x >= 95.0)
            .expect("a row near the 90% freeze depth exists");
        for c in 0..2 {
            let drop = first.cells[c].mean - near_90.cells[c].mean;
            assert!(drop < 0.06, "drop {drop} too large for series {c}");
            assert!(drop > 0.0);
        }
    }

    #[test]
    fn accuracy_is_monotone_nonincreasing_along_the_curve() {
        let table = accuracy_vs_frozen_layers();
        for c in 0..2 {
            for w in table.rows.windows(2) {
                assert!(w[1].cells[c].mean <= w[0].cells[c].mean + 1e-12);
            }
        }
    }
}
