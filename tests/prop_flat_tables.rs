//! Oracle: the row-major demand, workload and estimate tables equal the
//! nested `Vec<Vec<f64>>` layout they replaced, bit for bit.
//!
//! The reference here is that nested layout kept as test code: a
//! generator drawing one row `Vec` per user in the same RNG order, the
//! per-row popularity edits and CDFs of a piecewise workload, and an
//! EWMA estimator folding into nested rows. `Demand` accessors (dense
//! and clustered), `Workload::draw_model` under Keep/Permute/Spike
//! edits and `DemandEstimator::estimate` must all agree with it.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use trimcaching::modellib::{ModelId, ZipfPopularity};
use trimcaching::runtime::{DemandEstimator, PopularityEdit, PopularityShift, Workload};
use trimcaching::scenario::{Demand, DemandConfig, DemandView, UserId};

/// The nested demand layout: one row `Vec` per class and table.
struct NestedDemand {
    probabilities: Vec<Vec<f64>>,
    deadlines_s: Vec<Vec<f64>>,
    inference_s: Vec<Vec<f64>>,
    user_class: Vec<u32>,
}

impl NestedDemand {
    /// `config.generate` as the nested generator drew it: each user's
    /// popularity row (a fresh identity permutation shuffled per user),
    /// then every deadline row, then every inference row.
    fn generate(config: &DemandConfig, users: usize, models: usize, rng: &mut StdRng) -> Self {
        let zipf = ZipfPopularity::new(models, config.zipf_exponent).unwrap();
        let ranks = zipf.rank_probabilities();
        let probabilities = (0..users)
            .map(|_| {
                if !config.personalised_popularity {
                    return ranks.to_vec();
                }
                let mut item_of_rank: Vec<usize> = (0..models).collect();
                item_of_rank.shuffle(rng);
                let mut row = vec![0.0; models];
                for (rank, &item) in item_of_rank.iter().enumerate() {
                    row[item] = ranks[rank];
                }
                row
            })
            .collect();
        let mut rows = |(lo, hi): (f64, f64)| -> Vec<Vec<f64>> {
            (0..users)
                .map(|_| {
                    (0..models)
                        .map(|_| {
                            if (hi - lo).abs() < f64::EPSILON {
                                lo
                            } else {
                                rng.gen_range(lo..=hi)
                            }
                        })
                        .collect()
                })
                .collect()
        };
        let deadlines_s = rows(config.deadline_range_s);
        let inference_s = rows(config.inference_range_s);
        Self {
            probabilities,
            deadlines_s,
            inference_s,
            user_class: (0..users as u32).collect(),
        }
    }

    fn row(&self, user: usize) -> usize {
        self.user_class[user] as usize
    }

    /// The mass of Eq. (2), user-major and model-minor.
    fn total_mass(&self) -> f64 {
        let mut acc = 0.0;
        for k in 0..self.user_class.len() {
            for &p in &self.probabilities[self.row(k)] {
                acc += p;
            }
        }
        acc
    }
}

/// Requires every accessor of `flat` to equal `nested` bit for bit.
fn assert_demand_matches(flat: &Demand, nested: &NestedDemand) {
    let models = nested.probabilities[0].len();
    assert_eq!(flat.num_users(), nested.user_class.len());
    assert_eq!(flat.num_models(), models);
    assert_eq!(flat.num_classes(), nested.probabilities.len());
    assert_eq!(flat.user_classes(), nested.user_class);
    for (c, row) in nested.probabilities.iter().enumerate() {
        assert!(bits_eq(flat.class_probabilities(c), row), "class {c}");
    }
    for k in 0..flat.num_users() {
        let r = nested.row(k);
        for i in 0..models {
            let (user, model) = (UserId(k), ModelId(i));
            let want = [
                nested.probabilities[r][i],
                nested.deadlines_s[r][i],
                nested.inference_s[r][i],
            ];
            let got = [
                flat.probability(user, model).unwrap(),
                flat.deadline_s(user, model).unwrap(),
                flat.inference_s(user, model).unwrap(),
            ];
            assert!(bits_eq(&got, &want), "({k}, {i})");
            assert!(bits_eq(&flat.budget_s(user, model).unwrap(), &want[1..]));
            assert_eq!(flat.weight(user, model).to_bits(), want[0].to_bits());
        }
    }
    assert_eq!(
        flat.total_probability_mass().to_bits(),
        nested.total_mass().to_bits()
    );
    assert!(flat
        .probability(UserId(flat.num_users()), ModelId(0))
        .is_err());
    assert!(flat.budget_s(UserId(0), ModelId(models)).is_err());
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One popularity row under `edit`, as the nested workload edited it.
fn edited(edit: &PopularityEdit, row: &[f64]) -> Vec<f64> {
    match edit {
        PopularityEdit::Keep => row.to_vec(),
        PopularityEdit::Permute(perm) => perm.iter().map(|&src| row[src]).collect(),
        PopularityEdit::Spike { hot, boost } => {
            let mut p = row.to_vec();
            let mass: f64 = p.iter().sum();
            if mass > 0.0 {
                p[hot.index()] += boost * mass;
                let scale = 1.0 / (1.0 + boost);
                for v in &mut p {
                    *v *= scale;
                }
            }
            p
        }
    }
}

/// The nested workload: `cdfs[phase][class]`, every class's row edited
/// and normalised on its own.
struct NestedWorkload {
    starts_s: Vec<f64>,
    cdfs: Vec<Vec<Vec<f64>>>,
}

impl NestedWorkload {
    fn new(base: &NestedDemand, segments: &[(f64, PopularityEdit)]) -> Self {
        let cdfs = segments
            .iter()
            .map(|(_, edit)| {
                base.probabilities
                    .iter()
                    .map(|row| {
                        let mut cdf = edited(edit, row);
                        let mut acc = 0.0;
                        for p in &mut cdf {
                            acc += *p;
                            *p = acc;
                        }
                        for c in &mut cdf {
                            *c /= acc;
                        }
                        cdf
                    })
                    .collect()
            })
            .collect();
        Self {
            starts_s: segments.iter().map(|&(s, _)| s).collect(),
            cdfs,
        }
    }

    /// The nested `draw_model`.
    fn draw(&self, class: usize, now_s: f64, rng: &mut StdRng) -> ModelId {
        let phase = self.starts_s.partition_point(|&s| s <= now_s).max(1) - 1;
        let cdf = &self.cdfs[phase][class];
        let u: f64 = rng.gen();
        let idx = cdf.partition_point(|&c| c <= u);
        ModelId(idx.min(cdf.len() - 1))
    }
}

/// Requires `draws` seeded draws of `flat` to equal `nested`'s, at
/// random users and times in `[0, horizon_s)`; returns every drawn
/// `(user, model)` pair.
fn assert_draws_match(
    flat: &Workload,
    nested: &NestedWorkload,
    base: &NestedDemand,
    horizon_s: f64,
    draws: usize,
    seed: u64,
) -> Vec<(UserId, ModelId)> {
    let mut pick = StdRng::seed_from_u64(seed);
    let (mut a, mut b) = (
        StdRng::seed_from_u64(seed ^ 1),
        StdRng::seed_from_u64(seed ^ 1),
    );
    (0..draws)
        .map(|j| {
            let k = pick.gen_range(0..base.user_class.len());
            let t = pick.gen_range(0.0..horizon_s);
            let got = flat.draw_model(UserId(k), t, &mut a);
            let want = nested.draw(base.row(k), t, &mut b);
            assert_eq!(got, want, "draw {j}: user {k} at {t} s");
            (UserId(k), got)
        })
        .collect()
}

/// The nested EWMA estimator: the same lazy-scale arithmetic folding
/// into one row `Vec` per user.
struct NestedEstimator {
    alpha: f64,
    rates: Vec<Vec<f64>>,
    log: Vec<(usize, usize)>,
    scale: f64,
    primed: bool,
}

impl NestedEstimator {
    fn new(users: usize, models: usize, alpha: f64) -> Self {
        Self {
            alpha,
            rates: vec![vec![0.0; models]; users],
            log: Vec::new(),
            scale: 1.0,
            primed: false,
        }
    }

    fn roll(&mut self) {
        if !self.primed && self.log.is_empty() {
            return;
        }
        let fold = if self.primed {
            self.scale *= 1.0 - self.alpha;
            self.alpha / self.scale
        } else {
            1.0
        };
        for &(k, i) in &self.log {
            self.rates[k][i] += fold;
        }
        self.log.clear();
        self.primed = true;
        if self.scale < 1e-140 {
            for rate in self.rates.iter_mut().flatten() {
                *rate *= self.scale;
            }
            self.scale = 1.0;
        }
    }

    fn weights(&self) -> Vec<Vec<f64>> {
        let mut w: Vec<Vec<f64>> = self
            .rates
            .iter()
            .map(|row| row.iter().map(|r| self.scale * r).collect())
            .collect();
        for &(k, i) in &self.log {
            w[k][i] += self.alpha;
        }
        w
    }
}

/// Feeds `requests` to the estimator and the nested reference, rolling
/// an epoch every `epoch` requests, and requires equal estimates.
fn assert_estimates_match(
    users: usize,
    models: usize,
    requests: &[(UserId, ModelId)],
    epoch: usize,
) {
    let alpha = 0.3;
    let mut flat = DemandEstimator::new(users, models, alpha).unwrap();
    let mut nested = NestedEstimator::new(users, models, alpha);
    for (n, &(user, model)) in requests.iter().enumerate() {
        flat.record(user, model);
        nested.log.push((user.index(), model.index()));
        if (n + 1) % epoch == 0 {
            flat.roll_epoch();
            nested.roll();
        }
    }
    let estimate = flat.estimate().unwrap();
    let weights = nested.weights();
    assert_eq!(estimate.num_users(), users);
    assert_eq!(estimate.num_models(), models);
    let mut total = 0.0;
    for (k, row) in weights.iter().enumerate() {
        for (i, &w) in row.iter().enumerate() {
            assert_eq!(
                estimate.weight(UserId(k), ModelId(i)).to_bits(),
                w.to_bits(),
                "({k}, {i})"
            );
            total += w;
        }
    }
    assert_eq!(estimate.total_mass().to_bits(), total.to_bits());
}

/// A random schedule of `phases` Keep/Permute/Spike edits, one every
/// `epoch_s` seconds.
fn random_segments(
    phases: usize,
    models: usize,
    epoch_s: f64,
    rng: &mut StdRng,
) -> Vec<(f64, PopularityEdit)> {
    (0..phases)
        .map(|p| {
            let edit = match rng.gen_range(0..3) {
                0 => PopularityEdit::Keep,
                1 => {
                    let mut perm: Vec<usize> = (0..models).collect();
                    perm.shuffle(rng);
                    PopularityEdit::Permute(perm)
                }
                _ => PopularityEdit::Spike {
                    hot: ModelId(rng.gen_range(0..models)),
                    boost: rng.gen_range(0.1..5.0),
                },
            };
            (p as f64 * epoch_s, edit)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dense_demand_equals_the_nested_reference(
        seed in any::<u64>(),
        users in 1usize..60,
        models in 1usize..12,
        personalised in any::<bool>(),
    ) {
        let mut config = DemandConfig::paper_defaults();
        config.personalised_popularity = personalised;
        let flat = config.generate(users, models, &mut StdRng::seed_from_u64(seed)).unwrap();
        let nested = NestedDemand::generate(&config, users, models, &mut StdRng::seed_from_u64(seed));
        assert_demand_matches(&flat, &nested);
    }

    #[test]
    fn clustered_demand_equals_the_nested_reference(
        seed in any::<u64>(),
        users in 1usize..200,
        classes in 1usize..20,
        models in 1usize..12,
    ) {
        let config = DemandConfig::paper_defaults();
        let mut nested =
            NestedDemand::generate(&config, classes, models, &mut StdRng::seed_from_u64(seed));
        // Round-robin, then an explicit map.
        nested.user_class = (0..users).map(|k| (k % classes) as u32).collect();
        let flat = config
            .generate_clustered(users, models, classes, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        assert_demand_matches(&flat, &nested);
        let mut rng = StdRng::seed_from_u64(seed ^ 7);
        nested.user_class = (0..users).map(|_| rng.gen_range(0..classes) as u32).collect();
        let flat = config
            .generate_clustered_mapped(
                models,
                classes,
                nested.user_class.clone(),
                &mut StdRng::seed_from_u64(seed),
            )
            .unwrap();
        assert_demand_matches(&flat, &nested);
    }

    #[test]
    fn workload_draws_equal_the_nested_reference(
        seed in any::<u64>(),
        users in 1usize..40,
        models in 1usize..10,
        phases in 1usize..6,
        personalised in any::<bool>(),
    ) {
        let mut config = DemandConfig::paper_defaults();
        config.personalised_popularity = personalised;
        let demand = config.generate(users, models, &mut StdRng::seed_from_u64(seed)).unwrap();
        let nested = NestedDemand::generate(&config, users, models, &mut StdRng::seed_from_u64(seed));
        let segments = random_segments(phases, models, 10.0, &mut StdRng::seed_from_u64(!seed));
        let flat = Workload::piecewise(&demand, &segments, 1.0).unwrap();
        let reference = NestedWorkload::new(&nested, &segments);
        let horizon = 10.0 * (phases + 1) as f64;
        let requests = assert_draws_match(&flat, &reference, &nested, horizon, 400, seed);
        assert_estimates_match(users, models, &requests, 37);
    }
}

/// The city-sized smoke of the same oracle under the release profile:
/// 50 000 personalised rows × 9 models and a 96-phase drift workload
/// over 3 000 shared-ranking users × 30 models, 10⁶ seeded draws in
/// all, and the estimator's weights after those draws. Too slow for
/// the debug test run, where it is ignored.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-profile smoke")]
fn flat_tables_oracle_smoke() {
    let config = DemandConfig::paper_defaults();
    let (users, models) = (50_000, 9);
    let flat = config
        .generate(users, models, &mut StdRng::seed_from_u64(2024))
        .unwrap();
    let nested = NestedDemand::generate(&config, users, models, &mut StdRng::seed_from_u64(2024));
    assert_demand_matches(&flat, &nested);
    let segments = random_segments(4, models, 60.0, &mut StdRng::seed_from_u64(5));
    let workload = Workload::piecewise(&flat, &segments, 0.02).unwrap();
    let reference = NestedWorkload::new(&nested, &segments);
    let requests = assert_draws_match(&workload, &reference, &nested, 300.0, 500_000, 11);
    assert_estimates_match(users, models, &requests, 50_000);

    // Drift-churn's shape: one shared row, re-shuffled every 150 s.
    let mut shared = config.clone();
    shared.personalised_popularity = false;
    let (users, models, epochs) = (3_000, 30, 96);
    let flat = shared
        .generate(users, models, &mut StdRng::seed_from_u64(77))
        .unwrap();
    let nested = NestedDemand::generate(&shared, users, models, &mut StdRng::seed_from_u64(77));
    assert_demand_matches(&flat, &nested);
    // `PopularityShift`'s schedule: phase 0 keeps the base, every later
    // phase shuffles the running permutation once more.
    let mut rng = StdRng::seed_from_u64(3);
    let mut perm: Vec<usize> = (0..models).collect();
    let segments: Vec<(f64, PopularityEdit)> = (0..epochs)
        .map(|p| {
            if p == 0 {
                return (0.0, PopularityEdit::Keep);
            }
            perm.shuffle(&mut rng);
            (p as f64 * 150.0, PopularityEdit::Permute(perm.clone()))
        })
        .collect();
    let workload = PopularityShift::new(150.0, epochs, 3)
        .workload(&flat, 0.025)
        .unwrap();
    assert_eq!(
        workload,
        Workload::piecewise(&flat, &segments, 0.025).unwrap()
    );
    assert_eq!((workload.num_phases(), workload.num_rows()), (epochs, 1));
    let reference = NestedWorkload::new(&nested, &segments);
    let horizon = 150.0 * (epochs + 1) as f64;
    let requests = assert_draws_match(&workload, &reference, &nested, horizon, 500_000, 13);
    assert_estimates_match(users, models, &requests, 10_000);
}
