//! Downlink rate model of Eq. (1) and Rayleigh small-scale fading.
//!
//! The placement decision in the paper is made with the *expected* rate
//!
//! ```text
//! C̄_{m,k} = B̄_{m,k} · log2(1 + P̄_{m,k} · γ₀ · d_{m,k}^{-α₀} / (n₀ · B̄_{m,k}))
//! ```
//!
//! while the achieved cache-hit ratio is then evaluated over ~10³ Rayleigh
//! fading realisations (Section VII-A): the instantaneous channel gain is
//! the expected power-law gain multiplied by an exponentially distributed
//! unit-mean fading factor `|h|²`.

use rand::Rng;

use crate::params::RadioParams;
use crate::pathloss::{PathLossModel, PowerLawPathLoss};

/// Shannon rate in bits/s for an allocation of `bandwidth_hz` and
/// `power_w`, a link distance `distance_m`, and the power-law path loss /
/// noise parameters in `params` (Eq. (1) of the paper).
///
/// Returns `0.0` when the bandwidth is zero (no allocation ⇒ no rate).
///
/// ```
/// use trimcaching_wireless::{channel::expected_rate_bps, params::RadioParams};
/// let p = RadioParams::paper_defaults();
/// let near = expected_rate_bps(p.total_bandwidth_hz, p.total_power_w(), 50.0, &p);
/// let far = expected_rate_bps(p.total_bandwidth_hz, p.total_power_w(), 250.0, &p);
/// assert!(near > far);
/// ```
pub fn expected_rate_bps(
    bandwidth_hz: f64,
    power_w: f64,
    distance_m: f64,
    params: &RadioParams,
) -> f64 {
    rate_with_fading_bps(bandwidth_hz, power_w, distance_m, 1.0, params)
}

/// Shannon rate in bits/s with an explicit small-scale fading power gain
/// `fading_gain` (`|h|²`, unit mean for Rayleigh fading).
///
/// `fading_gain = 1.0` recovers [`expected_rate_bps`]; drawing the gain from
/// [`RayleighFading`] produces one channel realisation.
pub fn rate_with_fading_bps(
    bandwidth_hz: f64,
    power_w: f64,
    distance_m: f64,
    fading_gain: f64,
    params: &RadioParams,
) -> f64 {
    RateContext::new(bandwidth_hz, power_w, params).rate_bps(distance_m, fading_gain)
}

/// Per-allocation rate computation context: hoists the params-derived
/// constants (path-loss model, noise power for the given bandwidth) out
/// of per-user rate loops, where recomputing `10^{N₀/10}` per link would
/// dominate. [`RateContext::rate_bps`] evaluates the exact expression of
/// [`rate_with_fading_bps`], so batched and point computations are
/// bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct RateContext {
    bandwidth_hz: f64,
    power_w: f64,
    noise_w: f64,
    pathloss: PowerLawPathLoss,
}

impl RateContext {
    /// Precomputes the constants of one `(bandwidth, power)` share.
    pub fn new(bandwidth_hz: f64, power_w: f64, params: &RadioParams) -> Self {
        Self {
            bandwidth_hz,
            power_w,
            noise_w: params.noise_w_per_hz() * bandwidth_hz,
            pathloss: PowerLawPathLoss::from_params(params),
        }
    }

    /// The achievable rate at `distance_m` under `fading_gain`.
    pub fn rate_bps(&self, distance_m: f64, fading_gain: f64) -> f64 {
        if self.bandwidth_hz <= 0.0 || self.power_w <= 0.0 {
            return 0.0;
        }
        let gain = self.pathloss.gain(distance_m) * fading_gain.max(0.0);
        let snr = self.power_w * gain / self.noise_w;
        self.bandwidth_hz * (1.0 + snr).log2()
    }
}

/// Signal-to-noise ratio (linear) for the given allocation and distance.
pub fn snr_linear(bandwidth_hz: f64, power_w: f64, distance_m: f64, params: &RadioParams) -> f64 {
    if bandwidth_hz <= 0.0 {
        return 0.0;
    }
    let pl = PowerLawPathLoss::from_params(params);
    power_w * pl.gain(distance_m) / (params.noise_w_per_hz() * bandwidth_hz)
}

/// A small-scale fading process: draws the instantaneous channel *power*
/// gain `|h|²` for one realisation.
pub trait Fading: std::fmt::Debug {
    /// Draws one channel power gain. The gain must be non-negative; a
    /// unit-mean process leaves the expected rate unchanged on average.
    fn sample_power_gain<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;
}

/// Rayleigh fading: the amplitude is Rayleigh distributed, so the power gain
/// `|h|²` is exponentially distributed with the configured mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RayleighFading {
    mean_power_gain: f64,
}

impl RayleighFading {
    /// Unit-mean Rayleigh fading, the configuration used by the paper.
    pub fn unit() -> Self {
        Self {
            mean_power_gain: 1.0,
        }
    }

    /// Rayleigh fading with a custom mean power gain.
    ///
    /// # Panics
    ///
    /// Panics if `mean_power_gain` is not strictly positive and finite.
    pub fn with_mean(mean_power_gain: f64) -> Self {
        assert!(
            mean_power_gain.is_finite() && mean_power_gain > 0.0,
            "mean power gain must be positive"
        );
        Self { mean_power_gain }
    }

    /// The mean of the power-gain distribution.
    pub fn mean_power_gain(&self) -> f64 {
        self.mean_power_gain
    }
}

impl Default for RayleighFading {
    fn default() -> Self {
        Self::unit()
    }
}

impl Fading for RayleighFading {
    fn sample_power_gain<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // |h|^2 ~ Exp(1/mean): inverse-CDF sampling. `gen::<f64>()` is in
        // [0, 1); use 1 - u to avoid ln(0).
        let u: f64 = rng.gen();
        -(1.0 - u).ln() * self.mean_power_gain
    }
}

/// Deterministic "no fading" process (always returns gain 1).
///
/// Useful in tests and in experiments that isolate placement quality from
/// channel randomness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoFading;

impl Fading for NoFading {
    fn sample_power_gain<R: Rng + ?Sized>(&self, _rng: &mut R) -> f64 {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params() -> RadioParams {
        RadioParams::paper_defaults()
    }

    #[test]
    fn rate_is_zero_without_bandwidth_or_power() {
        let p = params();
        assert_eq!(expected_rate_bps(0.0, 1.0, 100.0, &p), 0.0);
        assert_eq!(expected_rate_bps(1.0e6, 0.0, 100.0, &p), 0.0);
        assert_eq!(expected_rate_bps(-1.0, 1.0, 100.0, &p), 0.0);
    }

    #[test]
    fn rate_decreases_with_distance() {
        let p = params();
        let bw = p.total_bandwidth_hz;
        let pw = p.total_power_w();
        let mut prev = f64::INFINITY;
        for d in [10.0, 50.0, 100.0, 200.0, 275.0, 500.0] {
            let r = expected_rate_bps(bw, pw, d, &p);
            assert!(r > 0.0 && r < prev);
            prev = r;
        }
    }

    #[test]
    fn rate_increases_with_power() {
        let p = params();
        let bw = 40.0e6;
        let r1 = expected_rate_bps(bw, 1.0, 200.0, &p);
        let r2 = expected_rate_bps(bw, 10.0, 200.0, &p);
        assert!(r2 > r1);
    }

    #[test]
    fn paper_scale_rate_is_plausible_for_model_downloading() {
        // With the paper parameters, a user at ~150 m sharing the server
        // with ~2 active users should get hundreds of Mbps — enough to
        // download a ~100 MB model within a second, which is exactly the
        // regime the evaluation explores.
        let p = params();
        let share = 2.0;
        let r = expected_rate_bps(
            p.total_bandwidth_hz / share,
            p.total_power_w() / share,
            150.0,
            &p,
        );
        assert!(r > 100.0e6, "rate {r} too low for the paper's regime");
        assert!(r < 10.0e9, "rate {r} implausibly high");
    }

    #[test]
    fn fading_rate_matches_expected_rate_at_unit_gain() {
        let p = params();
        let r1 = expected_rate_bps(1.0e6, 1.0, 100.0, &p);
        let r2 = rate_with_fading_bps(1.0e6, 1.0, 100.0, 1.0, &p);
        assert_eq!(r1, r2);
    }

    #[test]
    fn negative_fading_gain_is_clamped() {
        let p = params();
        assert_eq!(rate_with_fading_bps(1.0e6, 1.0, 100.0, -3.0, &p), 0.0);
    }

    #[test]
    fn snr_scales_linearly_with_power() {
        let p = params();
        let s1 = snr_linear(1.0e6, 1.0, 100.0, &p);
        let s2 = snr_linear(1.0e6, 2.0, 100.0, &p);
        assert!((s2 / s1 - 2.0).abs() < 1e-9);
        assert_eq!(snr_linear(0.0, 1.0, 100.0, &p), 0.0);
    }

    #[test]
    fn rayleigh_power_gain_has_unit_mean() {
        let fading = RayleighFading::unit();
        let mut rng = StdRng::seed_from_u64(11);
        let n = 200_000;
        let mean: f64 = (0..n)
            .map(|_| fading.sample_power_gain(&mut rng))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "empirical mean {mean}");
    }

    #[test]
    fn rayleigh_gains_are_nonnegative() {
        let fading = RayleighFading::with_mean(2.5);
        assert_eq!(fading.mean_power_gain(), 2.5);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(fading.sample_power_gain(&mut rng) >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "mean power gain")]
    fn rayleigh_rejects_nonpositive_mean() {
        let _ = RayleighFading::with_mean(0.0);
    }

    #[test]
    fn no_fading_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(NoFading.sample_power_gain(&mut rng), 1.0);
    }

    #[test]
    fn average_fading_rate_is_close_to_but_below_expected_rate() {
        // By Jensen's inequality E[log(1 + SNR·h)] <= log(1 + SNR·E[h]),
        // so the fading-averaged rate must not exceed the expected-gain rate.
        let p = params();
        let fading = RayleighFading::unit();
        let mut rng = StdRng::seed_from_u64(5);
        let bw = 10.0e6;
        let pw = 1.0;
        let d = 150.0;
        let n = 20_000;
        let avg: f64 = (0..n)
            .map(|_| rate_with_fading_bps(bw, pw, d, fading.sample_power_gain(&mut rng), &p))
            .sum::<f64>()
            / n as f64;
        let nominal = expected_rate_bps(bw, pw, d, &p);
        assert!(avg <= nominal);
        assert!(avg > 0.5 * nominal, "avg {avg} vs nominal {nominal}");
    }
}
