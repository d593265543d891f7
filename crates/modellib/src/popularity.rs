//! Request popularity: the Zipf distribution over the model library.
//!
//! The paper draws each user's request probabilities over the `I` models
//! from a Zipf distribution (Section VII-A, ref. \[43\]): the `r`-th most
//! popular model has probability proportional to `1 / r^s`. Users may have
//! different popularity *orders* (personalised rankings) while following
//! the same skew; [`ZipfPopularity::per_user_probabilities`] supports both
//! the common-ranking and the shuffled-per-user variants.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::error::ModelLibError;

/// A Zipf popularity law over `n` items with skew exponent `s`.
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfPopularity {
    num_items: usize,
    exponent: f64,
    /// Probability of the item at *rank* `r` (0-based), descending.
    rank_probabilities: Vec<f64>,
}

impl ZipfPopularity {
    /// Default skew exponent used by the reproduction (a common choice for
    /// content-popularity studies; the paper cites Zipf but does not state
    /// the exponent).
    pub const DEFAULT_EXPONENT: f64 = 0.8;

    /// Creates a Zipf law over `num_items` items with skew `exponent ≥ 0`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelLibError::InvalidConfig`] when `num_items == 0` or the
    /// exponent is negative or non-finite.
    pub fn new(num_items: usize, exponent: f64) -> Result<Self, ModelLibError> {
        if num_items == 0 {
            return Err(ModelLibError::InvalidConfig {
                reason: "Zipf popularity needs at least one item".into(),
            });
        }
        if !exponent.is_finite() || exponent < 0.0 {
            return Err(ModelLibError::InvalidConfig {
                reason: format!("invalid Zipf exponent {exponent}"),
            });
        }
        let weights: Vec<f64> = (1..=num_items)
            .map(|r| 1.0 / (r as f64).powf(exponent))
            .collect();
        let total: f64 = weights.iter().sum();
        let rank_probabilities = weights.into_iter().map(|w| w / total).collect();
        Ok(Self {
            num_items,
            exponent,
            rank_probabilities,
        })
    }

    /// Number of items the law is defined over.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// The skew exponent `s`.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Probability of the item at 0-based popularity rank `rank`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelLibError::IndexOutOfRange`] if `rank` is out of range.
    pub fn probability_of_rank(&self, rank: usize) -> Result<f64, ModelLibError> {
        self.rank_probabilities
            .get(rank)
            .copied()
            .ok_or(ModelLibError::IndexOutOfRange {
                entity: "rank",
                index: rank,
                len: self.num_items,
            })
    }

    /// Probabilities indexed by rank (descending popularity). Sums to 1.
    pub fn rank_probabilities(&self) -> &[f64] {
        &self.rank_probabilities
    }

    /// Per-item probabilities for a single user.
    ///
    /// When `personalised` is `true`, the mapping from items to popularity
    /// ranks is an independent uniform permutation per user (each user has
    /// their own favourite models); when `false`, item 0 is the most
    /// popular for everyone, matching a global popularity ranking.
    pub fn user_probabilities<R: Rng + ?Sized>(&self, personalised: bool, rng: &mut R) -> Vec<f64> {
        self.per_user_probabilities(1, personalised, rng)
    }

    /// Per-item probabilities for `num_users` users, row-major: user
    /// `k`'s row is `[k · N, (k + 1) · N)` for `N` items. Each row is
    /// drawn like [`ZipfPopularity::user_probabilities`], users in
    /// order.
    pub fn per_user_probabilities<R: Rng + ?Sized>(
        &self,
        num_users: usize,
        personalised: bool,
        rng: &mut R,
    ) -> Vec<f64> {
        if !personalised {
            return self.rank_probabilities.repeat(num_users);
        }
        let mut probs = vec![0.0; num_users * self.num_items];
        let mut item_of_rank = Vec::with_capacity(self.num_items);
        for row in probs.chunks_exact_mut(self.num_items) {
            item_of_rank.clear();
            item_of_rank.extend(0..self.num_items);
            item_of_rank.shuffle(rng);
            for (&item, &p) in item_of_rank.iter().zip(&self.rank_probabilities) {
                row[item] = p;
            }
        }
        probs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn probabilities_sum_to_one_and_decrease_by_rank() {
        let zipf = ZipfPopularity::new(50, 0.8).unwrap();
        let probs = zipf.rank_probabilities();
        let sum: f64 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        for w in probs.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert_eq!(zipf.num_items(), 50);
        assert_eq!(zipf.exponent(), 0.8);
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let zipf = ZipfPopularity::new(10, 0.0).unwrap();
        for r in 0..10 {
            assert!((zipf.probability_of_rank(r).unwrap() - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn higher_exponent_concentrates_mass_on_top_rank() {
        let flat = ZipfPopularity::new(30, 0.4).unwrap();
        let skewed = ZipfPopularity::new(30, 1.2).unwrap();
        assert!(
            skewed.probability_of_rank(0).unwrap() > flat.probability_of_rank(0).unwrap(),
            "more skew must concentrate probability on the head"
        );
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(ZipfPopularity::new(0, 0.8).is_err());
        assert!(ZipfPopularity::new(10, -1.0).is_err());
        assert!(ZipfPopularity::new(10, f64::NAN).is_err());
        let zipf = ZipfPopularity::new(5, 0.8).unwrap();
        assert!(zipf.probability_of_rank(5).is_err());
    }

    #[test]
    fn common_ranking_matches_rank_probabilities() {
        let zipf = ZipfPopularity::new(8, 0.8).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let probs = zipf.user_probabilities(false, &mut rng);
        assert_eq!(probs, zipf.rank_probabilities());
    }

    #[test]
    fn personalised_ranking_is_a_permutation_of_rank_probabilities() {
        let zipf = ZipfPopularity::new(12, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let probs = zipf.user_probabilities(true, &mut rng);
        let mut sorted = probs.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        assert_eq!(sorted, zipf.rank_probabilities());
        let sum: f64 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_user_probabilities_generates_one_row_per_user() {
        let zipf = ZipfPopularity::new(6, 0.8).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let rows = zipf.per_user_probabilities(7, true, &mut rng);
        assert_eq!(rows.len(), 7 * 6);
        for row in rows.chunks_exact(6) {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
        // Row k is the k-th single-user draw of the same stream.
        let mut rng = StdRng::seed_from_u64(3);
        for row in rows.chunks_exact(6) {
            assert_eq!(row, zipf.user_probabilities(true, &mut rng));
        }
    }

    #[test]
    fn personalised_rankings_differ_across_users() {
        let zipf = ZipfPopularity::new(40, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let rows = zipf.per_user_probabilities(4, true, &mut rng);
        let rows: Vec<&[f64]> = rows.chunks_exact(40).collect();
        // With 40 items it is (overwhelmingly) unlikely two users share the
        // exact same permutation under a fixed seed.
        assert_ne!(rows[0], rows[1]);
        assert_ne!(rows[1], rows[2]);
    }
}
