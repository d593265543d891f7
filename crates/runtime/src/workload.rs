//! Online request workload: Poisson arrivals with demand-driven model
//! selection, optionally **piecewise non-stationary**.
//!
//! The offline formulation only needs the request *probabilities*
//! `p_{k,i}`; an online engine needs actual request streams. Following
//! the standard content-delivery workload model (and the online serving
//! formulations of Fu et al., arXiv:2509.19341), every user emits
//! requests as an independent Poisson process, and each request picks a
//! model from the user's own popularity row of the [`Demand`] — i.e. the
//! empirical request frequencies converge to exactly the `p_{k,i}` the
//! placement algorithms optimised for.
//!
//! A [`Workload`] can hold several *phases*: piecewise-stationary
//! popularity switching at configured epoch boundaries — the
//! non-stationarity (flash crowds, diurnal shifts, model releases) the
//! `runtime::control` re-placement loop exists to chase. Every schedule
//! is one base [`Demand`] plus one [`PopularityEdit`] per phase (keep,
//! permute or spike), applied to every popularity row alike.
//!
//! Popularity is stored the way TrimCaching stores shared blocks: once.
//! Users whose base rows are bit-identical share one *distinct row*, so
//! the workload holds one user→row map for the whole run plus, per
//! phase, the CDFs of the distinct rows only. A shared Zipf ranking is
//! one row per phase however many users there are; personalised
//! popularity keeps one row per user; a clustered city at most one per
//! class. All CDFs sit in one row-major table, phase-major, so drawing
//! a model reads one row at a computed offset. [`PopularityShift`]
//! generates seeded permutation schedules; [`Workload::flash_crowd`] and
//! [`Workload::diurnal_tide`] build the spike and rotation families.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use trimcaching_modellib::ModelId;
use trimcaching_scenario::{Demand, UserId};

use crate::error::RuntimeError;

/// One phase's change to every popularity row of a base demand.
/// Deadlines and inference latencies stay with the *model* slot, so the
/// eligibility indicator is untouched — only what users *ask for*
/// changes, which is exactly the paper's "popularity drift" setting.
#[derive(Debug, Clone, PartialEq)]
pub enum PopularityEdit {
    /// The base rows, unchanged.
    Keep,
    /// Model `i` takes the base probability of model `perm[i]`.
    Permute(Vec<usize>),
    /// Every row adds `boost` times its own total mass to model `hot`
    /// and is rescaled back to its original mass, so `hot` holds at
    /// least `boost / (1 + boost)` of every row while the total request
    /// mass — the denominator of Eq. (2) — is unchanged.
    Spike {
        /// The model everyone suddenly wants.
        hot: ModelId,
        /// Extra mass on `hot`, as a multiple of the row's mass.
        boost: f64,
    },
}

impl PopularityEdit {
    /// The rotation by `shift` positions over `num_models` models: model
    /// `i` inherits the probabilities of model `(i + shift) mod I`. A
    /// half-library rotation is the classic "popularity flip" stress
    /// case.
    pub fn rotation(num_models: usize, shift: usize) -> Self {
        Self::Permute((0..num_models).map(|m| (m + shift) % num_models).collect())
    }

    /// Checks the edit against a library of `num_models` models.
    fn validate(&self, num_models: usize) -> Result<(), RuntimeError> {
        let reason = match self {
            Self::Keep => return Ok(()),
            Self::Permute(perm) => {
                let mut seen = vec![false; num_models];
                if perm.len() == num_models
                    && perm
                        .iter()
                        .all(|&p| p < num_models && !std::mem::replace(&mut seen[p], true))
                {
                    return Ok(());
                }
                format!("expected a permutation of 0..{num_models}, got {perm:?}")
            }
            Self::Spike { hot, .. } if hot.index() >= num_models => {
                format!(
                    "hot model {} out of range for {num_models} models",
                    hot.index()
                )
            }
            Self::Spike { boost, .. } if !(boost.is_finite() && *boost > 0.0) => {
                format!("spike boost must be positive and finite, got {boost}")
            }
            Self::Spike { .. } => return Ok(()),
        };
        Err(RuntimeError::InvalidConfig { reason })
    }

    /// Appends the edited copy of one popularity row to `out` (the edit
    /// is valid for the row's length).
    fn apply_into(&self, row: &[f64], out: &mut Vec<f64>) {
        match self {
            Self::Keep => out.extend_from_slice(row),
            Self::Permute(perm) => out.extend(perm.iter().map(|&src| row[src])),
            Self::Spike { hot, boost } => {
                let start = out.len();
                out.extend_from_slice(row);
                let p = &mut out[start..];
                let mass: f64 = p.iter().sum();
                if mass > 0.0 {
                    p[hot.index()] += boost * mass;
                    let scale = 1.0 / (1.0 + boost);
                    for v in p {
                        *v *= scale;
                    }
                }
            }
        }
    }

    /// `demand` with every popularity row edited.
    fn apply_to(&self, demand: &Demand) -> Result<Demand, RuntimeError> {
        self.validate(demand.num_models())?;
        let mut rows = Vec::with_capacity(demand.num_classes() * demand.num_models());
        for class in 0..demand.num_classes() {
            self.apply_into(demand.class_probabilities(class), &mut rows);
        }
        Ok(demand.with_class_probabilities(rows)?)
    }
}

/// Per-user Poisson request stream over one or more piecewise-stationary
/// popularity phases.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Per-user request rate in Hz.
    pub(crate) rate_hz: f64,
    /// Phase start times in seconds, ascending; the first is always 0.
    pub(crate) starts_s: Vec<f64>,
    /// Distinct popularity rows per phase.
    pub(crate) rows: usize,
    /// Models per row: the stride of `cdfs`.
    pub(crate) width: usize,
    /// `cdfs[(p · rows + r) · width ..][.. width]` is the normalised
    /// cumulative distribution over models of distinct popularity row
    /// `r` during phase `p`.
    pub(crate) cdfs: Vec<f64>,
    /// `user_row[k]`: the distinct row user `k` draws from, in every
    /// phase.
    pub(crate) user_row: Vec<u32>,
}

impl Workload {
    /// Builds a stationary workload in which every user issues requests
    /// at `rate_hz` (Poisson) and draws models from its row of `demand`.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] if the rate is not
    /// strictly positive and finite, or if a user's demand row has zero
    /// total mass (such a user could never issue a request).
    pub fn from_demand(demand: &Demand, rate_hz: f64) -> Result<Self, RuntimeError> {
        Self::piecewise(demand, &[(0.0, PopularityEdit::Keep)], rate_hz)
    }

    /// Builds a piecewise non-stationary workload over `base`: `segments`
    /// pairs each phase's start time with the edit applied to every base
    /// popularity row during that phase. The first start must be `0` and
    /// starts must be strictly increasing.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for an invalid rate, an
    /// empty schedule, unordered or non-zero-based starts, an edit that
    /// does not fit the library, or a zero-mass row in any phase.
    pub fn piecewise(
        base: &Demand,
        segments: &[(f64, PopularityEdit)],
        rate_hz: f64,
    ) -> Result<Self, RuntimeError> {
        if !(rate_hz.is_finite() && rate_hz > 0.0) {
            return Err(RuntimeError::InvalidConfig {
                reason: format!("request rate must be positive and finite, got {rate_hz}"),
            });
        }
        let Some(&(first_start, _)) = segments.first() else {
            return Err(RuntimeError::InvalidConfig {
                reason: "a workload needs at least one phase".into(),
            });
        };
        if first_start != 0.0 {
            return Err(RuntimeError::InvalidConfig {
                reason: format!("the first phase must start at 0 s, got {first_start}"),
            });
        }
        let (class_row, rows) = distinct_rows(base.num_classes(), |c| base.class_probabilities(c));
        let user_row = base
            .user_classes()
            .iter()
            .map(|&c| class_row[c as usize])
            .collect();
        let width = base.num_models();
        let mut starts_s: Vec<f64> = Vec::with_capacity(segments.len());
        let mut cdfs = Vec::with_capacity(segments.len() * rows.len() * width);
        for &(start_s, ref edit) in segments {
            if !start_s.is_finite() || starts_s.last().is_some_and(|&prev| start_s <= prev) {
                return Err(RuntimeError::InvalidConfig {
                    reason: format!(
                        "phase starts must be finite and strictly increasing at {start_s}"
                    ),
                });
            }
            edit.validate(width)?;
            starts_s.push(start_s);
            for (r, row) in rows.iter().enumerate() {
                let start = cdfs.len();
                edit.apply_into(row, &mut cdfs);
                into_cdf(r, &mut cdfs[start..])?;
            }
        }
        Ok(Self {
            rate_hz,
            starts_s,
            rows: rows.len(),
            width,
            cdfs,
            user_row,
        })
    }

    /// The per-user request rate in Hz.
    pub fn rate_hz(&self) -> f64 {
        self.rate_hz
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.user_row.len()
    }

    /// Number of piecewise-stationary phases.
    pub fn num_phases(&self) -> usize {
        self.starts_s.len()
    }

    /// Number of distinct popularity rows stored per phase.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of models each popularity row spans.
    pub fn num_models(&self) -> usize {
        self.width
    }

    /// The CDF of distinct row `row` during phase `phase`.
    pub(crate) fn cdf(&self, phase: usize, row: usize) -> &[f64] {
        &self.cdfs[(phase * self.rows + row) * self.width..][..self.width]
    }

    /// The phase active at simulated time `now_s` (times before the
    /// first boundary map to phase 0).
    pub fn phase_at(&self, now_s: f64) -> usize {
        self.starts_s.partition_point(|&s| s <= now_s).max(1) - 1
    }

    /// Draws the time to a user's next request (exponential with the
    /// workload rate).
    pub fn next_interarrival_s(&self, rng: &mut StdRng) -> f64 {
        let u: f64 = rng.gen();
        // u < 1, so ln(1 - u) is finite and the gap strictly positive.
        -(1.0 - u).ln().max(f64::MIN_POSITIVE.ln()) / self.rate_hz
    }

    /// Draws the model requested by `user` at simulated time `now_s`
    /// from the popularity of the active phase.
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of range (the engine only passes users the
    /// workload was built from).
    pub fn draw_model(&self, user: UserId, now_s: f64, rng: &mut StdRng) -> ModelId {
        let cdf = self.cdf(self.phase_at(now_s), self.user_row[user.index()] as usize);
        let u: f64 = rng.gen();
        let idx = cdf.partition_point(|&c| c <= u);
        ModelId(idx.min(self.width - 1))
    }
}

/// Numbers the popularity rows `row(0) .. row(count - 1)` of the
/// classes: classes whose rows are bit-identical share one id (so `0.0`
/// and `-0.0` differ), and ids follow each distinct row's first class.
/// Returns every class's id and the distinct rows in id order.
///
/// One `u64` key per class, the row hash's top 32 bits above the class,
/// sorts equal rows into one run of equal hashes; each run is sorted by
/// (bits, class), so each group of equal rows leads with its first
/// class even under a hash collision: O(n log n) comparisons and no
/// buffer per row.
fn distinct_rows<'r>(count: usize, row: impl Fn(usize) -> &'r [f64]) -> (Vec<u32>, Vec<&'r [f64]>) {
    let bits = |key: u64| row(key as u32 as usize).iter().map(|p| p.to_bits());
    let mut keys: Vec<u64> = (0..count as u32)
        .map(|c| row_hash(row(c as usize)) & !0xffff_ffff | u64::from(c))
        .collect();
    keys.sort_unstable();
    // `first[c]`: the first class whose row equals class `c`'s.
    let mut first: Vec<u32> = (0..count as u32).collect();
    for run in keys.chunk_by_mut(|a, b| a >> 32 == b >> 32) {
        // Usually one row in class order, which the sort only checks.
        run.sort_unstable_by(|&a, &b| bits(a).cmp(bits(b)).then(a.cmp(&b)));
        for group in run.chunk_by(|&a, &b| bits(a).eq(bits(b))) {
            for &key in group {
                first[key as u32 as usize] = group[0] as u32;
            }
        }
    }
    // In class order a first class takes the next id and every other
    // class its first class's id, already assigned (`first[c] < c`).
    let mut distinct = Vec::new();
    for c in 0..count {
        let lead = first[c] as usize;
        first[c] = if lead == c {
            distinct.push(row(c));
            (distinct.len() - 1) as u32
        } else {
            first[lead]
        };
    }
    (first, distinct)
}

/// 64-bit FNV-1a over a row's bits, one word at a time.
fn row_hash(row: &[f64]) -> u64 {
    row.iter()
        .fold(FNV_BASIS, |h, p| (h ^ p.to_bits()).wrapping_mul(FNV_PRIME))
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Turns popularity row `r` into its normalised CDF, in place.
fn into_cdf(r: usize, row: &mut [f64]) -> Result<(), RuntimeError> {
    let mut acc = 0.0;
    for p in row.iter_mut() {
        acc += *p;
        *p = acc;
    }
    if !(acc > 0.0 && acc.is_finite()) {
        return Err(RuntimeError::InvalidConfig {
            reason: format!("popularity row {r} has a total request probability of {acc}"),
        });
    }
    for c in row {
        *c /= acc;
    }
    Ok(())
}

/// Rebuilds `demand` with its popularity columns permuted: the new
/// probability of `(k, i)` is the old probability of `(k, perm[i])`
/// (see [`PopularityEdit::Permute`]).
///
/// # Errors
///
/// Returns [`RuntimeError::InvalidConfig`] if `perm` is not a
/// permutation of `0..num_models`.
pub fn permute_popularity(demand: &Demand, perm: &[usize]) -> Result<Demand, RuntimeError> {
    PopularityEdit::Permute(perm.to_vec()).apply_to(demand)
}

/// Rebuilds `demand` rotated by `shift` positions (see
/// [`PopularityEdit::rotation`]).
///
/// # Errors
///
/// Propagates [`permute_popularity`] errors (never fires).
pub fn rotate_popularity(demand: &Demand, shift: usize) -> Result<Demand, RuntimeError> {
    PopularityEdit::rotation(demand.num_models(), shift).apply_to(demand)
}

impl Workload {
    /// Builds a **flash-crowd** workload: stationary `base` demand with
    /// one transient hot spike — from `spike_start_s` for `spike_s`
    /// seconds every row concentrates an extra `boost / (1 + boost)`
    /// share of its mass on `hot` (see [`PopularityEdit::Spike`]), then
    /// the stream relaxes back to `base`. The classic "everyone suddenly
    /// wants the new model" stress case for eviction and re-placement.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for a non-positive spike
    /// start or length, an out-of-range hot model or a non-positive
    /// boost, and propagates [`Workload::piecewise`] errors.
    pub fn flash_crowd(
        base: &Demand,
        rate_hz: f64,
        spike_start_s: f64,
        spike_s: f64,
        hot: ModelId,
        boost: f64,
    ) -> Result<Self, RuntimeError> {
        if !(spike_start_s.is_finite()
            && spike_start_s > 0.0
            && spike_s.is_finite()
            && spike_s > 0.0)
        {
            return Err(RuntimeError::InvalidConfig {
                reason: format!(
                    "flash crowd needs a positive spike start and length, \
                     got start {spike_start_s} s / length {spike_s} s"
                ),
            });
        }
        Self::piecewise(
            base,
            &[
                (0.0, PopularityEdit::Keep),
                (spike_start_s, PopularityEdit::Spike { hot, boost }),
                (spike_start_s + spike_s, PopularityEdit::Keep),
            ],
            rate_hz,
        )
    }

    /// Builds a **diurnal-tide** workload: popularity rotates through
    /// the library and returns to `base` once per period, for `cycles`
    /// periods. Each period of `period_s` seconds is cut into
    /// `phases_per_cycle` equal phases; phase `j` of a cycle rotates
    /// the popularity columns by `⌊I · j / phases_per_cycle⌋` (see
    /// [`PopularityEdit::rotation`]), so phase `0` of every cycle is
    /// exactly `base` — the periodic day/night demand swing of a diurnal
    /// serving profile.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for a non-positive
    /// period or zero phases/cycles, and propagates
    /// [`Workload::piecewise`] errors.
    pub fn diurnal_tide(
        base: &Demand,
        rate_hz: f64,
        period_s: f64,
        phases_per_cycle: usize,
        cycles: usize,
    ) -> Result<Self, RuntimeError> {
        if !(period_s.is_finite() && period_s > 0.0) {
            return Err(RuntimeError::InvalidConfig {
                reason: format!("tide period must be positive and finite, got {period_s}"),
            });
        }
        if phases_per_cycle == 0 || cycles == 0 {
            return Err(RuntimeError::InvalidConfig {
                reason: "a tide needs at least one phase per cycle and one cycle".into(),
            });
        }
        let i = base.num_models();
        let phase_s = period_s / phases_per_cycle as f64;
        let segments: Vec<(f64, PopularityEdit)> = (0..phases_per_cycle * cycles)
            .map(|n| {
                let j = n % phases_per_cycle;
                let edit = PopularityEdit::rotation(i, i * j / phases_per_cycle);
                (n as f64 * phase_s, edit)
            })
            .collect();
        Self::piecewise(base, &segments, rate_hz)
    }
}

/// Deterministic piecewise-Zipf schedule generator: `epochs` phases of
/// `epoch_s` seconds each; phase 0 is the base demand and every later
/// phase permutes the base popularity columns with a fresh seeded
/// shuffle. The schedule is a pure function of
/// `(base demand, epoch_s, epochs, seed)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopularityShift {
    /// Length of one stationary epoch in seconds.
    pub epoch_s: f64,
    /// Total number of phases (1 = stationary).
    pub epochs: usize,
    /// Seed of the per-epoch popularity permutations.
    pub seed: u64,
}

impl PopularityShift {
    /// Creates a schedule of `epochs` phases of `epoch_s` seconds.
    pub fn new(epoch_s: f64, epochs: usize, seed: u64) -> Self {
        Self {
            epoch_s,
            epochs,
            seed,
        }
    }

    /// The `(start_s, edit)` of every phase over a library of
    /// `num_models` models.
    fn segments(&self, num_models: usize) -> Result<Vec<(f64, PopularityEdit)>, RuntimeError> {
        if !(self.epoch_s.is_finite() && self.epoch_s > 0.0) {
            return Err(RuntimeError::InvalidConfig {
                reason: format!(
                    "epoch length must be positive and finite, got {}",
                    self.epoch_s
                ),
            });
        }
        if self.epochs == 0 {
            return Err(RuntimeError::InvalidConfig {
                reason: "a schedule needs at least one epoch".into(),
            });
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut perm: Vec<usize> = (0..num_models).collect();
        let mut segments = Vec::with_capacity(self.epochs);
        segments.push((0.0, PopularityEdit::Keep));
        for p in 1..self.epochs {
            perm.shuffle(&mut rng);
            segments.push((
                p as f64 * self.epoch_s,
                PopularityEdit::Permute(perm.clone()),
            ));
        }
        Ok(segments)
    }

    /// The demand snapshot of every phase (phase 0 equals `base`).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for a non-positive epoch
    /// length or zero epochs.
    pub fn phases(&self, base: &Demand) -> Result<Vec<Demand>, RuntimeError> {
        self.segments(base.num_models())?
            .iter()
            .map(|(_, edit)| edit.apply_to(base))
            .collect()
    }

    /// Builds the piecewise [`Workload`] of this schedule over `base`.
    ///
    /// # Errors
    ///
    /// Propagates [`PopularityShift::phases`] and
    /// [`Workload::piecewise`] errors.
    pub fn workload(&self, base: &Demand, rate_hz: f64) -> Result<Workload, RuntimeError> {
        Workload::piecewise(base, &self.segments(base.num_models())?, rate_hz)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use rand::SeedableRng;
    use trimcaching_scenario::DemandConfig;

    fn demand(users: usize, models: usize) -> Demand {
        let mut rng = StdRng::seed_from_u64(5);
        DemandConfig::paper_defaults()
            .generate(users, models, &mut rng)
            .unwrap()
    }

    #[test]
    fn empirical_frequencies_follow_the_demand() {
        let demand = demand(1, 8);
        let workload = Workload::from_demand(&demand, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0u64; 8];
        let draws = 40_000;
        for _ in 0..draws {
            counts[workload.draw_model(UserId(0), 1.0, &mut rng).index()] += 1;
        }
        let mass: f64 = (0..8)
            .map(|i| demand.probability(UserId(0), ModelId(i)).unwrap())
            .sum();
        for (i, &count) in counts.iter().enumerate() {
            let expected = demand.probability(UserId(0), ModelId(i)).unwrap() / mass;
            let observed = count as f64 / draws as f64;
            assert!(
                (observed - expected).abs() < 0.02,
                "model {i}: observed {observed:.3} vs expected {expected:.3}"
            );
        }
    }

    #[test]
    fn interarrivals_have_the_configured_mean() {
        let workload = Workload::from_demand(&demand(2, 3), 4.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| workload.next_interarrival_s(&mut rng)).sum();
        let mean = total / n as f64;
        assert!(
            (mean - 0.25).abs() < 0.01,
            "mean interarrival {mean:.4} should be ~1/4 s"
        );
        assert_eq!(workload.rate_hz(), 4.0);
        assert_eq!(workload.num_users(), 2);
        assert_eq!(workload.num_phases(), 1);
    }

    #[test]
    fn invalid_rates_are_rejected() {
        let d = demand(2, 3);
        assert!(Workload::from_demand(&d, 0.0).is_err());
        assert!(Workload::from_demand(&d, -1.0).is_err());
        assert!(Workload::from_demand(&d, f64::INFINITY).is_err());
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        let d = demand(3, 5);
        let w = Workload::from_demand(&d, 2.0).unwrap();
        let seq = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..50)
                .map(|j| w.draw_model(UserId(j % 3), j as f64, &mut rng).index())
                .collect::<Vec<_>>()
        };
        assert_eq!(seq(9), seq(9));
        assert_ne!(seq(9), seq(10));
    }

    #[test]
    fn piecewise_schedules_switch_phase_at_the_boundaries() {
        let base = demand(4, 6);
        let flipped = rotate_popularity(&base, 3).unwrap();
        let segments = [
            (0.0, PopularityEdit::Keep),
            (100.0, PopularityEdit::rotation(6, 3)),
        ];
        let w = Workload::piecewise(&base, &segments, 1.0).unwrap();
        assert_eq!(w.num_phases(), 2);
        assert_eq!(w.phase_at(0.0), 0);
        assert_eq!(w.phase_at(99.999), 0);
        assert_eq!(w.phase_at(100.0), 1);
        assert_eq!(w.phase_at(1e9), 1);
        // Same rng stream, times on opposite sides of the boundary:
        // phase 1 draws follow the flipped distribution, i.e. drawing at
        // t=150 equals drawing from a stationary flipped workload.
        let stationary = Workload::from_demand(&flipped, 1.0).unwrap();
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for j in 0..200 {
            assert_eq!(
                w.draw_model(UserId(j % 4), 150.0, &mut a),
                stationary.draw_model(UserId(j % 4), 0.0, &mut b)
            );
        }
    }

    #[test]
    fn piecewise_validation_rejects_bad_schedules() {
        let base = demand(3, 4);
        let keep = PopularityEdit::Keep;
        // Non-zero first start.
        assert!(Workload::piecewise(&base, &[(1.0, keep.clone())], 1.0).is_err());
        // Unordered starts.
        let unordered = [
            (0.0, keep.clone()),
            (5.0, keep.clone()),
            (5.0, keep.clone()),
        ];
        assert!(Workload::piecewise(&base, &unordered, 1.0).is_err());
        // Edits that do not fit the library.
        for edit in [
            PopularityEdit::rotation(5, 1),
            PopularityEdit::Spike {
                hot: ModelId(4),
                boost: 1.0,
            },
        ] {
            assert!(Workload::piecewise(&base, &[(0.0, keep.clone()), (5.0, edit)], 1.0).is_err());
        }
        // Empty schedule.
        assert!(Workload::piecewise(&base, &[], 1.0).is_err());
    }

    #[test]
    fn users_with_identical_rows_share_one_row_per_phase() {
        let mut config = DemandConfig::paper_defaults();
        config.personalised_popularity = false;
        let shared = config
            .generate(50, 6, &mut StdRng::seed_from_u64(5))
            .unwrap();
        let w = PopularityShift::new(60.0, 4, 11)
            .workload(&shared, 1.0)
            .unwrap();
        assert_eq!(w.num_users(), 50);
        assert_eq!(w.num_rows(), 1);
        assert_eq!(w.cdfs.len(), 4 * 6, "one CDF per phase");
        // Personalised popularity keeps one row per user.
        assert_eq!(
            Workload::from_demand(&demand(50, 6), 1.0)
                .unwrap()
                .num_rows(),
            50
        );
    }

    /// The first-seen numbering the workload was first built with, one
    /// `BTreeMap<Vec<u64>, u32>` key per distinct row: the oracle
    /// `distinct_rows` must equal.
    fn first_seen_oracle(rows: &[Vec<f64>]) -> (Vec<u32>, Vec<&[f64]>) {
        let mut index: BTreeMap<Vec<u64>, u32> = BTreeMap::new();
        let mut distinct: Vec<&[f64]> = Vec::new();
        let class_row = rows
            .iter()
            .map(|row| {
                let bits = row.iter().map(|p| p.to_bits()).collect();
                *index.entry(bits).or_insert_with(|| {
                    distinct.push(row);
                    (distinct.len() - 1) as u32
                })
            })
            .collect();
        (class_row, distinct)
    }

    /// A demand whose class rows are `rows`, one user per class and
    /// then `extra` users cycling over the classes.
    fn class_demand(rows: Vec<Vec<f64>>, extra: usize) -> Demand {
        let (classes, models) = (rows.len(), rows[0].len());
        let user_class = (0..classes + extra).map(|k| (k % classes) as u32).collect();
        let ones = vec![1.0; models * classes];
        Demand::clustered(models, rows.concat(), &ones, &ones, user_class).unwrap()
    }

    /// Requires the workload over `rows` (two phases: the base rows,
    /// then a rotation) to equal the oracle's numbering exactly.
    fn assert_dedup_matches_oracle(rows: Vec<Vec<f64>>) {
        let models = rows[0].len();
        let (class_row, distinct) = first_seen_oracle(&rows);
        let demand = class_demand(rows.clone(), 3);
        let edits = [
            (0.0, PopularityEdit::Keep),
            (10.0, PopularityEdit::rotation(models, 1)),
        ];
        let w = Workload::piecewise(&demand, &edits, 1.0).unwrap();
        let user_row: Vec<u32> = demand
            .user_classes()
            .iter()
            .map(|&c| class_row[c as usize])
            .collect();
        assert_eq!(w.user_row, user_row);
        assert_eq!((w.num_phases(), w.num_rows()), (2, distinct.len()));
        for (p, (_, edit)) in edits.iter().enumerate() {
            for (r, row) in distinct.iter().enumerate() {
                let mut want = Vec::new();
                edit.apply_into(row, &mut want);
                into_cdf(r, &mut want).unwrap();
                assert!(w
                    .cdf(p, r)
                    .iter()
                    .map(|c| c.to_bits())
                    .eq(want.iter().map(|c| c.to_bits())));
            }
        }
        assert_eq!(
            distinct_rows(rows.len(), |c| &rows[c]),
            (class_row, distinct)
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        #[test]
        fn row_dedup_matches_the_first_seen_oracle(
            seed in proptest::any::<u64>(),
            classes in 1usize..300,
            models in 1usize..5,
        ) {
            // Entries from a small alphabet, `0.0` and `-0.0` included,
            // so random duplicates are common; every row keeps positive
            // mass in its last entry, and a third of the rows copy an
            // earlier row.
            let mut rng = StdRng::seed_from_u64(seed);
            let alphabet = [0.0, -0.0, 0.25, 1.0, 1e-300];
            let mut rows: Vec<Vec<f64>> = Vec::with_capacity(classes);
            for c in 0..classes {
                let row = if c > 0 && rng.gen_range(0..3) == 0 {
                    rows[rng.gen_range(0..c)].clone()
                } else {
                    let mut row: Vec<f64> =
                        (0..models).map(|_| alphabet[rng.gen_range(0..5)]).collect();
                    row[models - 1] = [0.5, 2.0][rng.gen_range(0..2)];
                    row
                };
                rows.push(row);
            }
            assert_dedup_matches_oracle(rows);
        }
    }

    #[test]
    fn signed_zeros_stay_distinct_rows() {
        // The last two rows also collide under the word-wise hash (the
        // sign bits cancel), so only their bits tell them apart.
        let rows = vec![
            vec![0.0, 1.0, 1.0],
            vec![-0.0, 1.0, 1.0],
            vec![0.0, 1.0, 1.0],
            vec![0.0, -0.0, 1.0],
            vec![-0.0, 0.0, 1.0],
            vec![-0.0, 0.0, 1.0],
        ];
        assert_eq!(row_hash(&rows[3]), row_hash(&rows[4]));
        assert_eq!(
            distinct_rows(rows.len(), |c| &rows[c]).0,
            [0, 1, 0, 2, 3, 3]
        );
        assert_dedup_matches_oracle(rows);
    }

    #[test]
    fn row_dedup_holds_at_city_sizes() {
        // The drift-churn shape: one shared row.
        let shared = vec![vec![0.1, 0.2, 0.3, 0.4]; 50_000];
        assert_eq!(distinct_rows(shared.len(), |c| &shared[c]).1.len(), 1);
        assert_dedup_matches_oracle(shared);
        // The city shape: one row per user.
        let personal: Vec<Vec<f64>> = (0..50_000)
            .map(|k| vec![1.0, k as f64, 0.5, (k % 7) as f64])
            .collect();
        assert_eq!(
            distinct_rows(personal.len(), |c| &personal[c]).1.len(),
            50_000
        );
        assert_dedup_matches_oracle(personal);
    }

    #[test]
    fn colliding_rows_are_told_apart_by_their_bits() {
        // Word-wise FNV collides when the second words make up for the
        // first: `(x_a ^ w) == (x_b ^ w')` with `x` the state after
        // one word. The bits need not be valid probabilities here.
        let state = |w: u64| (FNV_BASIS ^ w).wrapping_mul(FNV_PRIME);
        let (a0, b0, a1) = (0.5f64.to_bits(), 0.25f64.to_bits(), 1.0f64.to_bits());
        let a = vec![f64::from_bits(a0), f64::from_bits(a1)];
        let b = vec![
            f64::from_bits(b0),
            f64::from_bits(a1 ^ state(a0) ^ state(b0)),
        ];
        assert_eq!(row_hash(&a), row_hash(&b));
        let c = vec![3.0, 4.0];
        let rows = vec![b.clone(), c.clone(), a.clone(), b, a, c];
        assert_eq!(
            distinct_rows(rows.len(), |c| &rows[c]).0,
            [0, 1, 2, 0, 2, 1]
        );
        let (ids, distinct) = first_seen_oracle(&rows);
        assert_eq!(distinct_rows(rows.len(), |c| &rows[c]), (ids, distinct));
    }

    #[test]
    fn popularity_permutations_move_probabilities_only() {
        let base = demand(3, 5);
        let rotated = rotate_popularity(&base, 2).unwrap();
        for k in 0..3 {
            let user = UserId(k);
            for i in 0..5 {
                let model = ModelId(i);
                let src = ModelId((i + 2) % 5);
                assert_eq!(
                    rotated.probability(user, model).unwrap(),
                    base.probability(user, src).unwrap()
                );
                // Latency matrices stay with the model slot.
                assert_eq!(
                    rotated.deadline_s(user, model).unwrap(),
                    base.deadline_s(user, model).unwrap()
                );
                assert_eq!(
                    rotated.inference_s(user, model).unwrap(),
                    base.inference_s(user, model).unwrap()
                );
            }
        }
        // A full rotation is the identity.
        assert_eq!(rotate_popularity(&base, 5).unwrap(), base);
        // Invalid permutations are rejected.
        assert!(permute_popularity(&base, &[0, 1, 2]).is_err());
        assert!(permute_popularity(&base, &[0, 0, 1, 2, 3]).is_err());
        assert!(permute_popularity(&base, &[0, 1, 2, 3, 9]).is_err());
    }

    #[test]
    fn shift_schedules_are_seeded_and_deterministic() {
        let base = demand(3, 6);
        let shift = PopularityShift::new(60.0, 4, 11);
        let a = shift.phases(&base).unwrap();
        let b = shift.phases(&base).unwrap();
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.len(), 4);
        assert_eq!(a[0], base);
        let c = PopularityShift::new(60.0, 4, 12).phases(&base).unwrap();
        assert_ne!(a, c, "different seeds permute differently");
        // The workload wires the boundaries at epoch multiples.
        let w = shift.workload(&base, 2.0).unwrap();
        assert_eq!(w.num_phases(), 4);
        assert_eq!(w.phase_at(59.9), 0);
        assert_eq!(w.phase_at(60.0), 1);
        assert_eq!(w.phase_at(185.0), 3);
        // Degenerate configs are rejected.
        assert!(PopularityShift::new(0.0, 2, 1).phases(&base).is_err());
        assert!(PopularityShift::new(10.0, 0, 1).phases(&base).is_err());
    }

    #[test]
    fn flash_crowd_spikes_then_relaxes() {
        let base = demand(2, 5);
        let hot = ModelId(1);
        let w = Workload::flash_crowd(&base, 1.0, 100.0, 50.0, hot, 4.0).unwrap();
        assert_eq!(w.num_phases(), 3);
        assert_eq!(w.phase_at(99.9), 0);
        assert_eq!(w.phase_at(100.0), 1);
        assert_eq!(w.phase_at(150.0), 2);
        // During the spike nearly all draws hit the hot model.
        let mut rng = StdRng::seed_from_u64(17);
        let draws = 4_000;
        let hot_in_spike = (0..draws)
            .filter(|_| w.draw_model(UserId(0), 120.0, &mut rng) == hot)
            .count();
        assert!(
            hot_in_spike as f64 / draws as f64 > 0.7,
            "hot share in spike: {}",
            hot_in_spike as f64 / draws as f64
        );
        // Before and after, the stream is the stationary base demand.
        let stationary = Workload::from_demand(&base, 1.0).unwrap();
        let mut a = StdRng::seed_from_u64(23);
        let mut b = StdRng::seed_from_u64(23);
        for _ in 0..200 {
            assert_eq!(
                w.draw_model(UserId(1), 10.0, &mut a),
                stationary.draw_model(UserId(1), 10.0, &mut b)
            );
            assert_eq!(
                w.draw_model(UserId(1), 200.0, &mut a),
                stationary.draw_model(UserId(1), 200.0, &mut b)
            );
        }
        // Degenerate windows are rejected.
        assert!(Workload::flash_crowd(&base, 1.0, 0.0, 50.0, hot, 4.0).is_err());
        assert!(Workload::flash_crowd(&base, 1.0, 100.0, 0.0, hot, 4.0).is_err());
        // Out-of-range hot models and degenerate boosts are rejected.
        assert!(Workload::flash_crowd(&base, 1.0, 100.0, 50.0, ModelId(5), 4.0).is_err());
        assert!(Workload::flash_crowd(&base, 1.0, 100.0, 50.0, hot, 0.0).is_err());
        assert!(Workload::flash_crowd(&base, 1.0, 100.0, 50.0, hot, f64::NAN).is_err());
    }

    #[test]
    fn diurnal_tide_cycles_back_to_base_every_period() {
        let base = demand(2, 8);
        let w = Workload::diurnal_tide(&base, 1.0, 400.0, 4, 2).unwrap();
        assert_eq!(w.num_phases(), 8);
        // Phase boundaries land on period_s / phases_per_cycle grid.
        assert_eq!(w.phase_at(0.0), 0);
        assert_eq!(w.phase_at(99.9), 0);
        assert_eq!(w.phase_at(100.0), 1);
        assert_eq!(w.phase_at(400.0), 4);
        // Phase 0 of the second cycle draws exactly like phase 0 of the
        // first — the tide returns to base once per period.
        let mut a = StdRng::seed_from_u64(31);
        let mut b = StdRng::seed_from_u64(31);
        for _ in 0..200 {
            assert_eq!(
                w.draw_model(UserId(0), 10.0, &mut a),
                w.draw_model(UserId(0), 410.0, &mut b)
            );
        }
        // Midday is a genuine rotation: half-library shift of base.
        let noon = rotate_popularity(&base, 4).unwrap();
        let stationary = Workload::from_demand(&noon, 1.0).unwrap();
        let mut c = StdRng::seed_from_u64(37);
        let mut d = StdRng::seed_from_u64(37);
        for _ in 0..200 {
            assert_eq!(
                w.draw_model(UserId(1), 250.0, &mut c),
                stationary.draw_model(UserId(1), 250.0, &mut d)
            );
        }
        // Degenerate tides are rejected.
        assert!(Workload::diurnal_tide(&base, 1.0, 0.0, 4, 2).is_err());
        assert!(Workload::diurnal_tide(&base, 1.0, 400.0, 0, 2).is_err());
        assert!(Workload::diurnal_tide(&base, 1.0, 400.0, 4, 0).is_err());
    }
}
