//! Property: every workload family draws exactly what inverse-CDF
//! sampling from the phase's own popularity row draws.
//!
//! A [`Workload`] stores, per phase, only the CDFs of the *distinct*
//! popularity rows of its base demand plus one user→row map. Its
//! contract is that this sharing is invisible: for every phase, every
//! user and every random number, `draw_model` must pick the model a
//! naive normalised cumulative sum of that user's phase row picks. The
//! phase rows come from the public `Demand`-level transforms
//! (`PopularityShift::phases`, `rotate_popularity`); the flash-crowd
//! spike is computed here.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use trimcaching::modellib::ModelId;
use trimcaching::prelude::*;
use trimcaching::runtime::{PopularityEdit, PopularityShift, Workload};

/// Draws checked per `(phase, user)` pair.
const DRAWS: usize = 64;

/// The three demand shapes, each with repeated popularity rows.
/// `kind` 0: one stored row per user, drawn from a pool of `pool` rows;
/// 1: one shared ranking; 2: `2 · pool` classes whose rows repeat the
/// pool, under a random user→class map.
fn demand(kind: usize, users: usize, models: usize, pool: usize, seed: u64) -> Demand {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut config = DemandConfig::paper_defaults();
    if kind == 1 {
        config.personalised_popularity = false;
        return config.generate(users, models, &mut rng).unwrap();
    }
    let rows = config.generate(pool, models, &mut rng).unwrap();
    let copy = |picks: &[usize], get: &dyn Fn(UserId, ModelId) -> f64| -> Vec<f64> {
        picks
            .iter()
            .flat_map(|&r| (0..models).map(move |i| (r, i)))
            .map(|(r, i)| get(UserId(r), ModelId(i)))
            .collect()
    };
    let matrices = |picks: &[usize]| {
        (
            copy(picks, &|k, i| rows.probability(k, i).unwrap()),
            copy(picks, &|k, i| rows.deadline_s(k, i).unwrap()),
            copy(picks, &|k, i| rows.inference_s(k, i).unwrap()),
        )
    };
    if kind == 0 {
        let picks: Vec<usize> = (0..users).map(|_| rng.gen_range(0..pool)).collect();
        let (p, d, t) = matrices(&picks);
        return Demand::new(models, p, &d, &t).unwrap();
    }
    let classes: Vec<usize> = (0..2 * pool).map(|c| c % pool).collect();
    let map = (0..users)
        .map(|_| rng.gen_range(0..2 * pool) as u32)
        .collect();
    let (p, d, t) = matrices(&classes);
    Demand::clustered(models, p, &d, &t, map).unwrap()
}

/// User `k`'s popularity row under `demand`.
fn row(demand: &Demand, k: usize) -> Vec<f64> {
    (0..demand.num_models())
        .map(|i| demand.probability(UserId(k), ModelId(i)).unwrap())
        .collect()
}

/// The flash-crowd spike of one row: `boost` times the row mass added
/// to `hot`, then the row rescaled back to its mass.
fn spiked(mut p: Vec<f64>, hot: usize, boost: f64) -> Vec<f64> {
    let mass: f64 = p.iter().sum();
    p[hot] += boost * mass;
    p.iter().map(|v| v * (1.0 / (1.0 + boost))).collect()
}

/// Inverse-CDF sampling from the naive normalised cumulative sum.
fn inverse_cdf(p: &[f64], u: f64) -> usize {
    let total: f64 = p.iter().fold(0.0, |acc, v| acc + v);
    let mut acc = 0.0;
    for (i, v) in p.iter().enumerate() {
        acc += v;
        if u < acc / total {
            return i;
        }
    }
    p.len() - 1
}

/// Checks every phase (drawn at its start time) of `workload` against
/// `expected(phase, user)`.
fn assert_draws_match(
    family: &str,
    workload: &Workload,
    starts_s: &[f64],
    expected: &dyn Fn(usize, usize) -> Vec<f64>,
    seed: u64,
) {
    assert_eq!(workload.num_phases(), starts_s.len(), "{family}");
    for (phase, &t) in starts_s.iter().enumerate() {
        assert_eq!(workload.phase_at(t), phase, "{family}: phase of t={t}");
        for k in 0..workload.num_users() {
            let p = expected(phase, k);
            let mut drawn = StdRng::seed_from_u64(seed ^ k as u64);
            let mut naive = StdRng::seed_from_u64(seed ^ k as u64);
            for j in 0..DRAWS {
                let model = workload.draw_model(UserId(k), t, &mut drawn).index();
                let want = inverse_cdf(&p, naive.gen());
                assert_eq!(
                    model, want,
                    "{family}: phase {phase}, user {k}, draw {j} picked {model}, not {want}"
                );
            }
        }
    }
}

/// Number of distinct stored popularity rows, by bit pattern.
fn distinct_rows(demand: &Demand) -> usize {
    (0..demand.num_classes())
        .map(|c| {
            let row = demand.class_probabilities(c);
            row.iter().map(|p| p.to_bits()).collect::<Vec<_>>()
        })
        .collect::<std::collections::BTreeSet<_>>()
        .len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_workload_family_draws_from_its_phase_rows(
        kind in 0usize..3,
        users in 1usize..12,
        models in 2usize..7,
        pool in 1usize..4,
        seed in 0u64..10_000,
    ) {
        let base = demand(kind, users, models, pool, seed);
        let rate = 1.0;

        let stationary = Workload::from_demand(&base, rate).unwrap();
        prop_assert_eq!(stationary.num_rows(), distinct_rows(&base));
        if kind == 1 {
            prop_assert_eq!(stationary.num_rows(), 1);
        }
        assert_draws_match("from_demand", &stationary, &[0.0], &|_, k| row(&base, k), seed);

        let shifts = [0, 1, models - 1];
        let starts = [0.0, 40.0, 90.0];
        let segments: Vec<(f64, PopularityEdit)> = starts
            .iter()
            .zip(shifts)
            .map(|(&t, s)| (t, PopularityEdit::rotation(models, s)))
            .collect();
        let rotated: Vec<Demand> = shifts
            .iter()
            .map(|&s| rotate_popularity(&base, s).unwrap())
            .collect();
        let piecewise = Workload::piecewise(&base, &segments, rate).unwrap();
        assert_draws_match("piecewise", &piecewise, &starts, &|p, k| row(&rotated[p], k), seed);

        let shift = PopularityShift::new(25.0, 5, seed);
        let phases = shift.phases(&base).unwrap();
        let shifted = shift.workload(&base, rate).unwrap();
        prop_assert_eq!(shifted.num_rows(), distinct_rows(&base));
        let shift_starts: Vec<f64> = (0..5).map(|p| p as f64 * 25.0).collect();
        assert_draws_match("shift", &shifted, &shift_starts, &|p, k| row(&phases[p], k), seed);

        let (hot, boost) = (seed as usize % models, 3.0);
        let crowd = Workload::flash_crowd(&base, rate, 30.0, 20.0, ModelId(hot), boost).unwrap();
        let crowd_row = |p: usize, k: usize| match p {
            1 => spiked(row(&base, k), hot, boost),
            _ => row(&base, k),
        };
        assert_draws_match("flash_crowd", &crowd, &[0.0, 30.0, 50.0], &crowd_row, seed);

        let tide = Workload::diurnal_tide(&base, rate, 120.0, 3, 2).unwrap();
        let tide_starts: Vec<f64> = (0..6).map(|n| n as f64 * 40.0).collect();
        let tide_row = |p: usize, k: usize| {
            let turned = rotate_popularity(&base, models * (p % 3) / 3).unwrap();
            row(&turned, k)
        };
        assert_draws_match("diurnal_tide", &tide, &tide_starts, &tide_row, seed);
    }
}
