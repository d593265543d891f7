//! Descriptive statistics of a parameter-sharing model library.
//!
//! The placement results of the paper are driven entirely by the *structure*
//! of the model library — how many bytes are shared, how many models share
//! each block, how large the specific remainders are. [`LibraryStats`]
//! summarises that structure for reporting (the examples print it) and for
//! sanity checks in experiments (e.g. the sharing-depth ablation verifies
//! that deeper freezing really increases the shared fraction).

use std::fmt;

use crate::block::ParameterBlock;
use crate::library::ModelLibrary;

/// Aggregate statistics of a [`ModelLibrary`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LibraryStats {
    /// Number of models `|I|`.
    pub num_models: usize,
    /// Number of distinct parameter blocks `|J|`.
    pub num_blocks: usize,
    /// Number of blocks contained in at least two models.
    pub num_shared_blocks: usize,
    /// Number of blocks exclusive to a single model.
    pub num_specific_blocks: usize,
    /// Sum of all model sizes with no sharing, in bytes.
    pub total_naive_bytes: u64,
    /// Size of every distinct block exactly once, in bytes.
    pub total_unique_bytes: u64,
    /// `1 − unique/naive`: the fraction of naive bytes sharing removes.
    pub sharing_savings_ratio: f64,
    /// Smallest model size `min_i D_i`, in bytes.
    pub min_model_bytes: u64,
    /// Largest model size `max_i D_i`, in bytes.
    pub max_model_bytes: u64,
    /// Mean model size, in bytes.
    pub mean_model_bytes: f64,
    /// Mean over models of the shared fraction `shared(i) / D_i`.
    pub mean_shared_fraction: f64,
    /// Largest block degree `max_j |I_j]` (how many models share the most
    /// widely shared block).
    pub max_block_degree: usize,
}

impl LibraryStats {
    /// Computes the statistics of a library.
    ///
    /// # Panics
    ///
    /// Never panics: libraries are guaranteed non-empty by construction.
    pub fn compute(library: &ModelLibrary) -> Self {
        let num_models = library.num_models();
        let num_blocks = library.num_blocks();
        let num_shared_blocks = library.shared_blocks().len();
        let num_specific_blocks = num_blocks - num_shared_blocks;

        let mut min_model_bytes = u64::MAX;
        let mut max_model_bytes = 0u64;
        let mut size_sum = 0u64;
        let mut shared_fraction_sum = 0.0;
        let block_bytes: Vec<u64> = library.blocks().map(ParameterBlock::size_bytes).collect();
        for model in library.models() {
            let mut size = 0u64;
            let mut shared = 0u64;
            for &b in model.blocks() {
                size += block_bytes[b.index()];
                if library.is_shared_block(b) {
                    shared += block_bytes[b.index()];
                }
            }
            min_model_bytes = min_model_bytes.min(size);
            max_model_bytes = max_model_bytes.max(size);
            size_sum += size;
            if size > 0 {
                shared_fraction_sum += shared as f64 / size as f64;
            }
        }

        let max_block_degree = library
            .blocks()
            .map(|b| {
                library
                    .models_of_block(b.id())
                    .map(|m| m.len())
                    .unwrap_or(0)
            })
            .max()
            .unwrap_or(0);

        Self {
            num_models,
            num_blocks,
            num_shared_blocks,
            num_specific_blocks,
            total_naive_bytes: library.total_naive_bytes(),
            total_unique_bytes: library.total_unique_bytes(),
            sharing_savings_ratio: library.sharing_savings_ratio(),
            min_model_bytes,
            max_model_bytes,
            mean_model_bytes: size_sum as f64 / num_models as f64,
            mean_shared_fraction: shared_fraction_sum / num_models as f64,
            max_block_degree,
        }
    }

    /// The deduplication factor `naive / unique` (≥ 1; higher means sharing
    /// saves more).
    pub fn dedup_factor(&self) -> f64 {
        if self.total_unique_bytes == 0 {
            return 1.0;
        }
        self.total_naive_bytes as f64 / self.total_unique_bytes as f64
    }
}

impl fmt::Display for LibraryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} models over {} blocks ({} shared, {} specific)",
            self.num_models, self.num_blocks, self.num_shared_blocks, self.num_specific_blocks
        )?;
        writeln!(
            f,
            "naive footprint {:.2} GB, deduplicated {:.2} GB ({:.1}% saved, {:.2}x dedup)",
            self.total_naive_bytes as f64 / 1e9,
            self.total_unique_bytes as f64 / 1e9,
            100.0 * self.sharing_savings_ratio,
            self.dedup_factor()
        )?;
        write!(
            f,
            "model sizes {:.1}–{:.1} MB (mean {:.1} MB), mean shared fraction {:.1}%, \
             widest block shared by {} models",
            self.min_model_bytes as f64 / 1e6,
            self.max_model_bytes as f64 / 1e6,
            self.mean_model_bytes / 1e6,
            100.0 * self.mean_shared_fraction,
            self.max_block_degree
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{GeneralCaseBuilder, SpecialCaseBuilder};
    use crate::library::ModelLibrary;

    fn toy_library() -> ModelLibrary {
        let mut b = ModelLibrary::builder();
        b.add_model_with_blocks("m0", "t", &[("shared".into(), 100), ("a".into(), 10)])
            .unwrap();
        b.add_model_with_blocks("m1", "t", &[("shared".into(), 100), ("b".into(), 30)])
            .unwrap();
        b.add_model_with_blocks("m2", "t", &[("c".into(), 50)])
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn toy_statistics_are_exact() {
        let stats = LibraryStats::compute(&toy_library());
        assert_eq!(stats.num_models, 3);
        assert_eq!(stats.num_blocks, 4);
        assert_eq!(stats.num_shared_blocks, 1);
        assert_eq!(stats.num_specific_blocks, 3);
        assert_eq!(stats.total_naive_bytes, 110 + 130 + 50);
        assert_eq!(stats.total_unique_bytes, 100 + 10 + 30 + 50);
        assert_eq!(stats.min_model_bytes, 50);
        assert_eq!(stats.max_model_bytes, 130);
        assert!((stats.mean_model_bytes - (290.0 / 3.0)).abs() < 1e-9);
        assert_eq!(stats.max_block_degree, 2);
        // Shared fractions: 100/110, 100/130, 0.
        let expected = (100.0 / 110.0 + 100.0 / 130.0) / 3.0;
        assert!((stats.mean_shared_fraction - expected).abs() < 1e-9);
        assert!((stats.dedup_factor() - 290.0 / 190.0).abs() < 1e-9);
    }

    #[test]
    fn display_mentions_the_headline_numbers() {
        let stats = LibraryStats::compute(&toy_library());
        let text = stats.to_string();
        assert!(text.contains("3 models"));
        assert!(text.contains("shared"));
        assert!(text.contains("dedup"));
    }

    #[test]
    fn paper_libraries_share_a_substantial_fraction() {
        let special = SpecialCaseBuilder::paper_setup()
            .models_per_backbone(10)
            .build(1);
        let stats = LibraryStats::compute(&special);
        assert!(stats.mean_shared_fraction > 0.3);
        assert!(stats.max_block_degree >= 2);
        assert!(stats.dedup_factor() > 1.5);

        let general = GeneralCaseBuilder::paper_setup()
            .classes_per_backbone(10)
            .build(1);
        let gstats = LibraryStats::compute(&general);
        assert!(gstats.sharing_savings_ratio > 0.0);
        assert_eq!(gstats.num_models, general.num_models());
    }

    #[test]
    fn savings_ratio_matches_library_helper() {
        let lib = toy_library();
        let stats = LibraryStats::compute(&lib);
        assert!((stats.sharing_savings_ratio - lib.sharing_savings_ratio()).abs() < 1e-12);
    }
}
