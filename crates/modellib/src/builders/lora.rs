//! LoRA / PEFT-style library builder: a few frozen foundation models plus
//! many tiny task adapters.
//!
//! The paper's introduction motivates parameter sharing with
//! parameter-efficient fine-tuning of large language models: LoRA freezes
//! more than 99% of a foundation model and trains only a low-rank adapter,
//! so every downstream model is "the foundation body plus a few tens of
//! megabytes". [`LoraLibraryBuilder`] generates exactly that structure —
//! one or more foundation backbones split into transformer blocks (all
//! shared), one adapter + head per tenant model (all specific), and
//! optionally a fraction of fully fine-tuned tenants that share nothing —
//! and is what the `llm_lora_market` example and the LoRA ablation use.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::library::{ModelLibrary, ModelLibraryBuilder};

/// Description of one frozen foundation model.
#[derive(Debug, Clone, PartialEq)]
pub struct FoundationSpec {
    /// Name used in block labels (e.g. `"llama-7b"`).
    pub name: String,
    /// Number of transformer blocks the body is split into.
    pub num_blocks: usize,
    /// Total size of the frozen body in bytes.
    pub total_bytes: u64,
}

impl FoundationSpec {
    /// Creates a foundation description.
    ///
    /// # Panics
    ///
    /// Panics if `num_blocks` is zero or `total_bytes` is smaller than the
    /// number of blocks (every block must get at least one byte).
    pub fn new(name: impl Into<String>, num_blocks: usize, total_bytes: u64) -> Self {
        assert!(num_blocks > 0, "a foundation needs at least one block");
        assert!(
            total_bytes >= num_blocks as u64,
            "foundation of {total_bytes} bytes cannot be split into {num_blocks} blocks"
        );
        Self {
            name: name.into(),
            num_blocks,
            total_bytes,
        }
    }

    fn block_sizes(&self) -> Vec<u64> {
        let base = self.total_bytes / self.num_blocks as u64;
        let remainder = self.total_bytes % self.num_blocks as u64;
        (0..self.num_blocks as u64)
            .map(|l| if l < remainder { base + 1 } else { base })
            .collect()
    }
}

/// Builder for a LoRA-adapter marketplace library.
///
/// ```
/// use trimcaching_modellib::builders::LoraLibraryBuilder;
///
/// let library = LoraLibraryBuilder::marketplace().adapters_per_foundation(50).build(7);
/// // 50 adapters on one foundation: naive footprint ~50 bodies, deduplicated ~1.
/// assert!(library.sharing_savings_ratio() > 0.9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LoraLibraryBuilder {
    foundations: Vec<FoundationSpec>,
    adapters_per_foundation: usize,
    adapter_size_bytes: u64,
    head_size_bytes: u64,
    /// Relative jitter applied to each adapter's size (0 = identical sizes).
    adapter_size_jitter: f64,
    /// Fraction of tenants per foundation that are *full* fine-tunes and
    /// therefore share nothing with the foundation.
    full_finetune_fraction: f64,
}

impl LoraLibraryBuilder {
    /// A marketplace of 200 tenants on a single ≈6 GB foundation model with
    /// ≈35 MB adapters and ≈5 MB heads — the configuration of the
    /// `llm_lora_market` example.
    pub fn marketplace() -> Self {
        Self {
            foundations: vec![FoundationSpec::new("foundation", 32, 6_000_000_000)],
            adapters_per_foundation: 200,
            adapter_size_bytes: 35_000_000,
            head_size_bytes: 5_000_000,
            adapter_size_jitter: 0.2,
            full_finetune_fraction: 0.0,
        }
    }

    /// Builds from explicit foundation descriptions.
    ///
    /// # Panics
    ///
    /// Panics if `foundations` is empty.
    pub fn with_foundations(foundations: Vec<FoundationSpec>) -> Self {
        assert!(
            !foundations.is_empty(),
            "LoRA builder needs at least one foundation"
        );
        Self {
            foundations,
            ..Self::marketplace()
        }
    }

    /// Sets the number of adapter (tenant) models per foundation.
    pub fn adapters_per_foundation(mut self, n: usize) -> Self {
        self.adapters_per_foundation = n;
        self
    }

    /// Sets the nominal adapter size in bytes.
    pub fn adapter_size_bytes(mut self, bytes: u64) -> Self {
        self.adapter_size_bytes = bytes;
        self
    }

    /// Sets the per-tenant head size in bytes.
    pub fn head_size_bytes(mut self, bytes: u64) -> Self {
        self.head_size_bytes = bytes;
        self
    }

    /// Sets the relative jitter of adapter sizes (clamped to `[0, 0.9]`).
    pub fn adapter_size_jitter(mut self, jitter: f64) -> Self {
        self.adapter_size_jitter = jitter.clamp(0.0, 0.9);
        self
    }

    /// Sets the fraction of tenants that are full fine-tunes (sharing
    /// nothing), clamped to `[0, 1]`.
    pub fn full_finetune_fraction(mut self, fraction: f64) -> Self {
        self.full_finetune_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// The foundation descriptions the library will be derived from.
    pub fn foundations(&self) -> &[FoundationSpec] {
        &self.foundations
    }

    /// Generates the library. The `seed` controls adapter-size jitter and
    /// which tenants become full fine-tunes; the same seed always produces
    /// the same library.
    ///
    /// # Panics
    ///
    /// Panics if `adapters_per_foundation`, `adapter_size_bytes` or
    /// `head_size_bytes` is zero (configuration errors of the caller).
    #[expect(
        clippy::expect_used,
        reason = "generated models always have blocks, and the asserts above guarantee at least one model"
    )]
    pub fn build(&self, seed: u64) -> ModelLibrary {
        assert!(
            self.adapters_per_foundation > 0,
            "LoRA builder needs at least one adapter per foundation"
        );
        assert!(self.adapter_size_bytes > 0, "adapters must have a size");
        assert!(self.head_size_bytes > 0, "heads must have a size");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut builder = ModelLibraryBuilder::new();
        for foundation in &self.foundations {
            let body: Vec<(String, u64)> = foundation
                .block_sizes()
                .iter()
                .enumerate()
                .map(|(l, &size)| (format!("{}/block{:03}", foundation.name, l), size))
                .collect();
            for t in 0..self.adapters_per_foundation {
                let jitter = if self.adapter_size_jitter > 0.0 {
                    1.0 + rng.gen_range(-self.adapter_size_jitter..=self.adapter_size_jitter)
                } else {
                    1.0
                };
                let adapter_size =
                    ((self.adapter_size_bytes as f64) * jitter).round().max(1.0) as u64;
                let full_finetune = rng.gen_bool(self.full_finetune_fraction);
                let name = format!("{}-tenant-{:03}", foundation.name, t);
                let task = format!("{} tenant {t}", foundation.name);
                let mut blocks: Vec<(String, u64)> = if full_finetune {
                    // A full fine-tune re-trains the body: every block label
                    // becomes tenant-specific.
                    foundation
                        .block_sizes()
                        .iter()
                        .enumerate()
                        .map(|(l, &size)| (format!("{name}/finetuned/block{:03}", l), size))
                        .collect()
                } else {
                    body.clone()
                };
                blocks.push((format!("{name}/lora"), adapter_size));
                blocks.push((format!("{name}/head"), self.head_size_bytes));
                builder
                    .add_model_with_blocks(name, task, &blocks)
                    .expect("generated model definitions are valid");
            }
        }
        builder
            .build()
            .expect("at least one foundation and one adapter were configured")
    }
}

impl Default for LoraLibraryBuilder {
    fn default() -> Self {
        Self::marketplace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::LibraryStats;

    #[test]
    fn foundation_block_sizes_sum_exactly() {
        let f = FoundationSpec::new("llm", 7, 1_000_003);
        let sizes = f.block_sizes();
        assert_eq!(sizes.len(), 7);
        assert_eq!(sizes.iter().sum::<u64>(), 1_000_003);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_block_foundation_panics() {
        let _ = FoundationSpec::new("bad", 0, 100);
    }

    #[test]
    fn marketplace_library_is_heavily_shared() {
        let library = LoraLibraryBuilder::marketplace()
            .adapters_per_foundation(40)
            .build(3);
        assert_eq!(library.num_models(), 40);
        let stats = LibraryStats::compute(&library);
        assert!(stats.sharing_savings_ratio > 0.95);
        assert_eq!(stats.max_block_degree, 40);
        // Every tenant is roughly body + adapter + head.
        assert!(stats.min_model_bytes > 6_000_000_000);
    }

    #[test]
    fn builds_are_deterministic_per_seed() {
        let builder = LoraLibraryBuilder::marketplace().adapters_per_foundation(10);
        assert_eq!(builder.build(9), builder.build(9));
        assert_ne!(builder.build(9), builder.build(10));
    }

    #[test]
    fn full_finetunes_share_nothing() {
        let library = LoraLibraryBuilder::marketplace()
            .adapters_per_foundation(12)
            .full_finetune_fraction(1.0)
            .build(5);
        // Everything is tenant-specific: no shared blocks at all.
        assert!(library.shared_blocks().is_empty());
        assert_eq!(library.sharing_savings_ratio(), 0.0);
    }

    #[test]
    fn multiple_foundations_keep_their_tenants_separate() {
        let library = LoraLibraryBuilder::with_foundations(vec![
            FoundationSpec::new("llm-a", 8, 2_000_000_000),
            FoundationSpec::new("llm-b", 8, 4_000_000_000),
        ])
        .adapters_per_foundation(5)
        .adapter_size_jitter(0.0)
        .build(1);
        assert_eq!(library.num_models(), 10);
        // The widest block is shared by at most one foundation's tenants.
        let stats = LibraryStats::compute(&library);
        assert_eq!(stats.max_block_degree, 5);
        assert!(stats.sharing_savings_ratio > 0.5);
    }

    #[test]
    fn builder_accessors_and_defaults() {
        let b = LoraLibraryBuilder::default()
            .adapter_size_bytes(10_000_000)
            .head_size_bytes(1_000_000)
            .adapter_size_jitter(2.0);
        assert_eq!(b.foundations().len(), 1);
        assert_eq!(b.adapter_size_jitter, 0.9);
        let lib = b.adapters_per_foundation(3).build(0);
        assert_eq!(lib.num_models(), 3);
    }
}
