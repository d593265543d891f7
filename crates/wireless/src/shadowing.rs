//! Large-scale shadow fading (log-normal shadowing).
//!
//! The paper evaluates its placements under Rayleigh small-scale fading
//! only. Real deployments also see *shadowing* — slow, obstacle-induced
//! variations of the received power that are well modelled as log-normal
//! with a standard deviation of 4–8 dB in urban macro cells. This module
//! provides:
//!
//! * [`LogNormalShadowing`] — a unit-mean log-normal power gain, and
//! * [`ShadowedRayleigh`] — the composite channel (shadowing × Rayleigh)
//!
//! both implementing the [`Fading`] trait so they can be plugged into the
//! same evaluation path as the paper's Rayleigh model (see
//! `Scenario::hit_ratio_under` in `trimcaching-scenario` and the
//! `ablation-shadowing` experiment). The gains are normalised to unit mean
//! so that adding shadowing changes the *spread* of the channel, not its
//! average, keeping the comparison with the paper's setting fair.

use rand::Rng;

use crate::channel::{Fading, RayleighFading};

/// Natural-log scale factor of a decibel: `ln(10) / 10`.
const DB_TO_NAT: f64 = core::f64::consts::LN_10 / 10.0;

/// Unit-mean log-normal shadow fading with a configurable dB spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormalShadowing {
    sigma_db: f64,
}

impl LogNormalShadowing {
    /// Creates a shadowing process with the given standard deviation in dB.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_db` is negative or not finite.
    pub fn new(sigma_db: f64) -> Self {
        assert!(
            sigma_db.is_finite() && sigma_db >= 0.0,
            "shadowing spread must be a non-negative number of dB"
        );
        Self { sigma_db }
    }

    /// The typical urban-macro configuration (6 dB spread).
    pub fn urban_macro() -> Self {
        Self::new(6.0)
    }

    /// The configured standard deviation in dB.
    pub fn sigma_db(&self) -> f64 {
        self.sigma_db
    }

    /// Draws one standard normal variate via the Box–Muller transform
    /// (keeps the crate within the approved `rand` dependency, which does
    /// not ship a normal distribution by itself).
    fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        // u1 in (0, 1] to avoid ln(0).
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }
}

impl Default for LogNormalShadowing {
    fn default() -> Self {
        Self::urban_macro()
    }
}

impl Fading for LogNormalShadowing {
    fn sample_power_gain<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.sigma_db == 0.0 {
            return 1.0;
        }
        let sigma_nat = self.sigma_db * DB_TO_NAT;
        let z = Self::standard_normal(rng);
        // exp(σz − σ²/2) has unit mean for a log-normal variate.
        (sigma_nat * z - 0.5 * sigma_nat * sigma_nat).exp()
    }
}

/// Composite channel: log-normal shadowing multiplied by Rayleigh
/// small-scale fading. Unit mean when both components are unit mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShadowedRayleigh {
    shadowing: LogNormalShadowing,
    rayleigh: RayleighFading,
}

impl ShadowedRayleigh {
    /// Creates the composite channel from its two components.
    pub fn new(shadowing: LogNormalShadowing, rayleigh: RayleighFading) -> Self {
        Self {
            shadowing,
            rayleigh,
        }
    }

    /// Unit-mean Rayleigh fading behind `sigma_db` of log-normal shadowing.
    pub fn with_sigma_db(sigma_db: f64) -> Self {
        Self::new(LogNormalShadowing::new(sigma_db), RayleighFading::unit())
    }

    /// The shadowing component.
    pub fn shadowing(&self) -> LogNormalShadowing {
        self.shadowing
    }

    /// The Rayleigh component.
    pub fn rayleigh(&self) -> RayleighFading {
        self.rayleigh
    }
}

impl Default for ShadowedRayleigh {
    fn default() -> Self {
        Self::new(LogNormalShadowing::urban_macro(), RayleighFading::unit())
    }
}

impl Fading for ShadowedRayleigh {
    fn sample_power_gain<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.shadowing.sample_power_gain(rng) * self.rayleigh.sample_power_gain(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn empirical_mean<F: Fading>(fading: &F, n: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| fading.sample_power_gain(&mut rng))
            .sum::<f64>()
            / n as f64
    }

    #[test]
    fn shadowing_gains_are_positive_and_unit_mean() {
        let shadowing = LogNormalShadowing::new(8.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(shadowing.sample_power_gain(&mut rng) > 0.0);
        }
        let mean = empirical_mean(&shadowing, 400_000, 2);
        assert!((mean - 1.0).abs() < 0.03, "empirical mean {mean}");
    }

    #[test]
    fn zero_spread_is_deterministic_unity() {
        let shadowing = LogNormalShadowing::new(0.0);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            assert_eq!(shadowing.sample_power_gain(&mut rng), 1.0);
        }
        assert_eq!(shadowing.sigma_db(), 0.0);
    }

    #[test]
    fn larger_spread_means_larger_variance() {
        let narrow = LogNormalShadowing::new(2.0);
        let wide = LogNormalShadowing::new(10.0);
        let var = |f: &LogNormalShadowing, seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let samples: Vec<f64> = (0..100_000)
                .map(|_| f.sample_power_gain(&mut rng))
                .collect();
            let mean = samples.iter().sum::<f64>() / samples.len() as f64;
            samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / samples.len() as f64
        };
        assert!(var(&wide, 5) > 3.0 * var(&narrow, 5));
    }

    #[test]
    fn composite_channel_is_roughly_unit_mean() {
        let composite = ShadowedRayleigh::with_sigma_db(6.0);
        let mean = empirical_mean(&composite, 400_000, 7);
        assert!((mean - 1.0).abs() < 0.05, "empirical mean {mean}");
        assert_eq!(composite.shadowing().sigma_db(), 6.0);
        assert_eq!(composite.rayleigh().mean_power_gain(), 1.0);
    }

    #[test]
    fn defaults_use_the_urban_macro_spread() {
        assert_eq!(LogNormalShadowing::default().sigma_db(), 6.0);
        assert_eq!(ShadowedRayleigh::default().shadowing().sigma_db(), 6.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_spread_panics() {
        let _ = LogNormalShadowing::new(-1.0);
    }
}
