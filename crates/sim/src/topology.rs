//! Random topology generation reproducing Section VII-A.
//!
//! `K` users and `M` edge servers are dropped uniformly at random over a
//! square area (1 km² by default, 400 m for the Fig. 6 comparison), every
//! edge server gets the same storage capacity `Q`, request probabilities
//! follow a per-user Zipf law, and QoS budgets are uniform in `[0.5, 1]` s.
//! [`TopologyConfig::generate`] assembles one such snapshot as a
//! [`Scenario`]; the Monte-Carlo driver calls it once per topology seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use trimcaching_modellib::ModelLibrary;
use trimcaching_scenario::prelude::*;
use trimcaching_wireless::geometry::DeploymentArea;
use trimcaching_wireless::params::RadioParams;

use crate::SimError;

/// Configuration of one random topology.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyConfig {
    /// Number of edge servers `M`.
    pub num_servers: usize,
    /// Number of users `K`.
    pub num_users: usize,
    /// Identical per-server storage capacity `Q`, in gigabytes.
    pub capacity_gb: f64,
    /// Side length of the square deployment area in metres.
    pub area_side_m: f64,
    /// Demand generation parameters.
    pub demand: DemandConfig,
    /// Radio parameters.
    pub radio: RadioParams,
    /// Effective per-transfer edge-to-edge throughput in bits per second.
    ///
    /// The paper provisions 10 Gbps backhaul links between edge servers;
    /// a single model migration does not get the full link in practice
    /// (links are shared by concurrent migrations and background traffic),
    /// and with the full 10 Gbps per transfer the placement location would
    /// barely matter — any cached copy anywhere could be relayed within the
    /// latency budget, flattening the capacity dependence the paper
    /// reports. The default of 1 Gbps effective per-transfer throughput
    /// restores the locality the evaluation exhibits;
    /// [`backhaul_sweep`](crate::experiments::ablation::backhaul_sweep)
    /// shows how this choice moves the curves.
    pub backhaul_rate_bps: f64,
}

impl TopologyConfig {
    /// The default configuration of the paper's main experiments:
    /// `M = 10`, `K = 30`, `Q = 1` GB, 1 km² area.
    pub fn paper_defaults() -> Self {
        Self {
            num_servers: 10,
            num_users: 30,
            capacity_gb: 1.0,
            area_side_m: 1000.0,
            demand: DemandConfig::paper_defaults(),
            radio: RadioParams::paper_defaults(),
            backhaul_rate_bps: 1.0e9,
        }
    }

    /// The reduced configuration of the Fig. 6 running-time comparison:
    /// `M = 2`, `K = 6`, 400 m area.
    pub fn paper_small() -> Self {
        Self {
            num_servers: 2,
            num_users: 6,
            capacity_gb: 0.1,
            area_side_m: 400.0,
            ..Self::paper_defaults()
        }
    }

    /// Sets the number of edge servers.
    pub fn with_servers(mut self, m: usize) -> Self {
        self.num_servers = m;
        self
    }

    /// Sets the number of users.
    pub fn with_users(mut self, k: usize) -> Self {
        self.num_users = k;
        self
    }

    /// Sets the per-server capacity in gigabytes.
    pub fn with_capacity_gb(mut self, q: f64) -> Self {
        self.capacity_gb = q;
        self
    }

    /// Generates the `index`-th random topology for this configuration over
    /// the given model library. The same `(config, library, seed, index)`
    /// always produces the same scenario.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] when the configuration is invalid or the
    /// scenario cannot be assembled.
    pub fn generate(
        &self,
        library: &ModelLibrary,
        seed: u64,
        index: u64,
    ) -> Result<Scenario, SimError> {
        if self.num_servers == 0 || self.num_users == 0 {
            return Err(SimError::InvalidConfig {
                reason: "a topology needs at least one server and one user".into(),
            });
        }
        if !(self.capacity_gb.is_finite() && self.capacity_gb > 0.0) {
            return Err(SimError::InvalidConfig {
                reason: format!("invalid capacity {} GB", self.capacity_gb),
            });
        }
        if !(self.backhaul_rate_bps.is_finite() && self.backhaul_rate_bps > 0.0) {
            return Err(SimError::InvalidConfig {
                reason: format!("invalid backhaul rate {} bps", self.backhaul_rate_bps),
            });
        }
        let mut rng = StdRng::seed_from_u64(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03)),
        );
        let area = DeploymentArea::new(self.area_side_m).map_err(ScenarioError::from)?;
        let servers: Vec<EdgeServer> = (0..self.num_servers)
            .map(|m| {
                EdgeServer::new(
                    ServerId(m),
                    area.sample_uniform(&mut rng),
                    gigabytes(self.capacity_gb),
                )
            })
            .collect::<Result<_, _>>()?;
        let users = area.sample_uniform_n(self.num_users, &mut rng);
        let demand = self
            .demand
            .generate(self.num_users, library.num_models(), &mut rng)?;
        let scenario = Scenario::builder()
            .library(library.clone())
            .servers(servers)
            .users_at(&users)
            .demand(demand)
            .radio(self.radio)
            .backhaul_rate_bps(self.backhaul_rate_bps)
            .build()?;
        Ok(scenario)
    }
}

impl Default for TopologyConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// City-scale random topologies: edge servers dropped by a homogeneous
/// **Poisson point process** over a large square region (the server count
/// is `Poisson(λ · area)` and positions are uniform given the count),
/// users dropped uniformly. At these scales each user is covered by a
/// handful of servers, which is exactly the regime the coverage-pruned
/// [`trimcaching_scenario::SparseEligibility`] representation targets —
/// the default `repr` is therefore [`EligibilityRepr::Sparse`].
#[derive(Debug, Clone, PartialEq)]
pub struct CityScaleConfig {
    /// Side length of the square deployment region in metres.
    pub area_side_m: f64,
    /// Server intensity λ of the Poisson point process, in servers per
    /// square kilometre.
    pub servers_per_km2: f64,
    /// Number of users dropped uniformly over the region.
    pub num_users: usize,
    /// Identical per-server storage capacity `Q`, in gigabytes.
    pub capacity_gb: f64,
    /// Demand generation parameters.
    pub demand: DemandConfig,
    /// Number of clustered demand classes (`None` = dense singleton
    /// demand, one row per user). With `Some(c)` the demand matrices
    /// hold `c` Zipf rows and users are assigned round-robin, so memory
    /// scales with `c × I` instead of `K × I` — the knob that lets a
    /// million-user city build at all.
    pub demand_classes: Option<usize>,
    /// Radio parameters.
    pub radio: RadioParams,
    /// Effective per-transfer edge-to-edge throughput in bits per second
    /// (see [`TopologyConfig::backhaul_rate_bps`]).
    pub backhaul_rate_bps: f64,
    /// Eligibility representation forwarded to the scenario builder.
    pub repr: EligibilityRepr,
    /// Heterogeneous storage tiers: per-server multipliers on
    /// `capacity_gb`, cycled by server index (`server m` gets
    /// `capacity_gb · tiers[m mod tiers.len()]`). `None` keeps the
    /// paper's homogeneous capacity.
    pub storage_tiers: Option<Vec<f64>>,
    /// Correlated regional popularity: `Some(g)` cuts the area into a
    /// `g × g` grid of regions and gives each region its own clustered
    /// demand class — users request from the Zipf row of the region they
    /// stand in, so neighbours share a profile. Mutually exclusive with
    /// [`CityScaleConfig::demand_classes`].
    pub regional_grid: Option<usize>,
    /// Commuter user placement: drop users at the *home* anchors of a
    /// [`CommuterFlow`] (western residential band) instead of uniformly,
    /// the static snapshot of a home/work commuting population.
    pub commuter_homes: bool,
}

impl CityScaleConfig {
    /// A 5 km × 5 km district with 8 servers/km² (≈ 200 servers) and
    /// 5 000 users — large enough that the dense `M × K × I` cube is
    /// wasteful, small enough to iterate on quickly.
    ///
    /// City cells cover an order of magnitude more users than the
    /// paper's 1 km² snapshots (tens instead of ~7), so the presets
    /// lower the activity probability `p_A` to `0.05` — a mostly idle
    /// population — keeping the *active*-user bandwidth share, and hence
    /// the deadline feasibility, at paper levels.
    ///
    /// The effective per-transfer backhaul throughput is likewise scaled
    /// down to 200 Mbps: a metro aggregation network is shared by orders
    /// of magnitude more concurrent migrations than the paper's 10-server
    /// mesh, and at 200 Mbps a ≥ 50 MB model cannot be relayed within the
    /// 0.5–1 s deadlines — requests are served by *covering* servers
    /// only, which is precisely the coverage-pruned regime the sparse
    /// representation exploits (with 1 Gbps relays, distant servers
    /// become eligible for ~¼ of the request classes and the candidate
    /// lists balloon towards `M`).
    pub fn district() -> Self {
        let mut radio = RadioParams::paper_defaults();
        radio.activity_probability = 0.05;
        Self {
            area_side_m: 5_000.0,
            servers_per_km2: 8.0,
            num_users: 5_000,
            capacity_gb: 1.0,
            demand: DemandConfig::paper_defaults(),
            demand_classes: None,
            radio,
            backhaul_rate_bps: 2.0e8,
            repr: EligibilityRepr::Sparse,
            storage_tiers: None,
            regional_grid: None,
            commuter_homes: false,
        }
    }

    /// A 15 km × 15 km city with ≈ 4.4 servers/km² (≈ 1 000 servers) and
    /// 50 000 users — the headline scale the sparse representation
    /// exists for; the dense cube would hold 1.2 G cells.
    pub fn city() -> Self {
        Self {
            area_side_m: 15_000.0,
            servers_per_km2: 4.4,
            num_users: 50_000,
            ..Self::district()
        }
    }

    /// Sets the server intensity in servers per square kilometre.
    pub fn with_servers_per_km2(mut self, lambda: f64) -> Self {
        self.servers_per_km2 = lambda;
        self
    }

    /// Sets the number of users.
    pub fn with_users(mut self, k: usize) -> Self {
        self.num_users = k;
        self
    }

    /// Sets the eligibility representation.
    pub fn with_repr(mut self, repr: EligibilityRepr) -> Self {
        self.repr = repr;
        self
    }

    /// Switches demand generation to `classes` clustered Zipf rows with
    /// round-robin user assignment (memory `classes × I` instead of
    /// `K × I`).
    pub fn with_demand_classes(mut self, classes: usize) -> Self {
        self.demand_classes = Some(classes);
        self
    }

    /// Switches to heterogeneous storage: server `m` gets capacity
    /// `capacity_gb · tiers[m mod tiers.len()]`.
    pub fn with_storage_tiers(mut self, tiers: Vec<f64>) -> Self {
        self.storage_tiers = Some(tiers);
        self
    }

    /// Switches demand generation to correlated regional popularity over
    /// a `grid × grid` partition of the area (one clustered Zipf class
    /// per region, users classed by position).
    pub fn with_regional_grid(mut self, grid: usize) -> Self {
        self.regional_grid = Some(grid);
        self
    }

    /// Drops users at commuter *home* anchors (western residential band)
    /// instead of uniformly over the area.
    pub fn with_commuter_homes(mut self) -> Self {
        self.commuter_homes = true;
        self
    }

    /// Expected number of servers `λ · area`.
    pub fn expected_servers(&self) -> f64 {
        let area_km2 = (self.area_side_m / 1_000.0).powi(2);
        self.servers_per_km2 * area_km2
    }

    /// Generates the `index`-th city topology for this configuration.
    /// The same `(config, library, seed, index)` always produces the same
    /// scenario. At least one server is always placed so the scenario
    /// assembles even when the Poisson draw is zero.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] when the configuration is invalid or the
    /// scenario cannot be assembled.
    pub fn generate(
        &self,
        library: &ModelLibrary,
        seed: u64,
        index: u64,
    ) -> Result<Scenario, SimError> {
        if self.num_users == 0 {
            return Err(SimError::InvalidConfig {
                reason: "a city topology needs at least one user".into(),
            });
        }
        if !(self.servers_per_km2.is_finite() && self.servers_per_km2 > 0.0) {
            return Err(SimError::InvalidConfig {
                reason: format!("invalid server intensity {} /km²", self.servers_per_km2),
            });
        }
        if !(self.capacity_gb.is_finite() && self.capacity_gb > 0.0) {
            return Err(SimError::InvalidConfig {
                reason: format!("invalid capacity {} GB", self.capacity_gb),
            });
        }
        if !(self.backhaul_rate_bps.is_finite() && self.backhaul_rate_bps > 0.0) {
            return Err(SimError::InvalidConfig {
                reason: format!("invalid backhaul rate {} bps", self.backhaul_rate_bps),
            });
        }
        if let Some(tiers) = &self.storage_tiers {
            if tiers.is_empty() || tiers.iter().any(|&t| !(t.is_finite() && t > 0.0)) {
                return Err(SimError::InvalidConfig {
                    reason: format!("storage tiers must be non-empty and positive: {tiers:?}"),
                });
            }
        }
        if let Some(grid) = self.regional_grid {
            if grid == 0 {
                return Err(SimError::InvalidConfig {
                    reason: "a regional grid needs at least one cell per side".into(),
                });
            }
            if self.demand_classes.is_some() {
                return Err(SimError::InvalidConfig {
                    reason: "regional_grid and demand_classes are mutually exclusive \
                             (both define the user→class map)"
                        .into(),
                });
            }
        }
        let mut rng = StdRng::seed_from_u64(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03)),
        );
        let area = DeploymentArea::new(self.area_side_m).map_err(ScenarioError::from)?;
        let num_servers = sample_poisson(self.expected_servers(), &mut rng).max(1);
        let servers: Vec<EdgeServer> = (0..num_servers)
            .map(|m| {
                let tier = self
                    .storage_tiers
                    .as_ref()
                    .map_or(1.0, |tiers| tiers[m % tiers.len()]);
                EdgeServer::new(
                    ServerId(m),
                    area.sample_uniform(&mut rng),
                    gigabytes(self.capacity_gb * tier),
                )
            })
            .collect::<Result<_, _>>()?;
        let users = if self.commuter_homes {
            let commuter_seed: u64 = rng.gen();
            CommuterFlow::new(self.num_users, area, 1.0, commuter_seed)?
                .homes()
                .to_vec()
        } else {
            area.sample_uniform_n(self.num_users, &mut rng)
        };
        let demand = match (self.regional_grid, self.demand_classes) {
            (Some(grid), _) => {
                // One clustered class per grid region; a user requests
                // from the Zipf row of the region they stand in.
                let cell = self.area_side_m / grid as f64;
                let user_class = users
                    .iter()
                    .map(|p| {
                        let gx = ((p.x / cell) as usize).min(grid - 1);
                        let gy = ((p.y / cell) as usize).min(grid - 1);
                        (gy * grid + gx) as u32
                    })
                    .collect();
                self.demand.generate_clustered_mapped(
                    library.num_models(),
                    grid * grid,
                    user_class,
                    &mut rng,
                )?
            }
            (None, Some(classes)) => self.demand.generate_clustered(
                self.num_users,
                library.num_models(),
                classes,
                &mut rng,
            )?,
            (None, None) => self
                .demand
                .generate(self.num_users, library.num_models(), &mut rng)?,
        };
        let scenario = Scenario::builder()
            .library(library.clone())
            .servers(servers)
            .users_at(&users)
            .demand(demand)
            .radio(self.radio)
            .backhaul_rate_bps(self.backhaul_rate_bps)
            .eligibility_repr(self.repr)
            .build()?;
        Ok(scenario)
    }
}

impl Default for CityScaleConfig {
    fn default() -> Self {
        Self::district()
    }
}

/// Draws `Poisson(lambda)` with Knuth's product method, chunked so the
/// running product `e^{-λ'}` never underflows for large intensities
/// (`Poisson(λ) = Σ Poisson(λ / n)` over `n` independent chunks).
fn sample_poisson<R: rand::Rng + ?Sized>(lambda: f64, rng: &mut R) -> usize {
    const CHUNK: f64 = 32.0;
    let mut remaining = lambda.max(0.0);
    let mut count = 0usize;
    while remaining > 0.0 {
        let step = remaining.min(CHUNK);
        remaining -= step;
        let threshold = (-step).exp();
        let mut product: f64 = rng.gen_range(0.0..1.0);
        while product > threshold {
            count += 1;
            product *= rng.gen_range(0.0..1.0);
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use trimcaching_modellib::builders::SpecialCaseBuilder;

    fn library() -> ModelLibrary {
        SpecialCaseBuilder::paper_setup()
            .models_per_backbone(3)
            .build(1)
    }

    #[test]
    fn paper_defaults_match_section_vii() {
        let cfg = TopologyConfig::paper_defaults();
        assert_eq!(cfg.num_servers, 10);
        assert_eq!(cfg.num_users, 30);
        assert_eq!(cfg.capacity_gb, 1.0);
        assert_eq!(cfg.area_side_m, 1000.0);
        let small = TopologyConfig::paper_small();
        assert_eq!(small.num_servers, 2);
        assert_eq!(small.num_users, 6);
        assert_eq!(small.area_side_m, 400.0);
        assert_eq!(TopologyConfig::default(), TopologyConfig::paper_defaults());
    }

    #[test]
    fn generation_is_deterministic_and_correctly_sized() {
        let lib = library();
        let cfg = TopologyConfig::paper_defaults()
            .with_servers(4)
            .with_users(8)
            .with_capacity_gb(0.75);
        let a = cfg.generate(&lib, 42, 0).unwrap();
        let b = cfg.generate(&lib, 42, 0).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.num_servers(), 4);
        assert_eq!(a.num_users(), 8);
        assert_eq!(a.capacity_bytes(ServerId(0)).unwrap(), 750_000_000);
        // Different topology indices and seeds give different layouts.
        let c = cfg.generate(&lib, 42, 1).unwrap();
        assert_ne!(a, c);
        let d = cfg.generate(&lib, 43, 0).unwrap();
        assert_ne!(a, d);
    }

    #[test]
    fn city_scale_generation_is_deterministic_and_sparse() {
        let lib = library();
        // A small "city" so the test stays fast: 2 km², ~24 servers.
        let cfg = CityScaleConfig::district()
            .with_servers_per_km2(6.0)
            .with_users(300);
        let cfg = CityScaleConfig {
            area_side_m: 2_000.0,
            ..cfg
        };
        assert!((cfg.expected_servers() - 24.0).abs() < 1e-9);
        let a = cfg.generate(&lib, 7, 0).unwrap();
        let b = cfg.generate(&lib, 7, 0).unwrap();
        assert_eq!(a, b);
        assert!(a.num_servers() >= 1);
        assert_eq!(a.num_users(), 300);
        assert!(a.eligibility().is_sparse());
        // Coverage is thin: each user sees a handful of servers, not all.
        assert!(a.coverage().coverage_density() < 0.5);
        // Different indices give different layouts.
        let c = cfg.generate(&lib, 7, 1).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn poisson_sampler_matches_the_mean() {
        let mut rng = StdRng::seed_from_u64(11);
        for lambda in [0.5, 5.0, 80.0] {
            let n = 400;
            let total: usize = (0..n).map(|_| sample_poisson(lambda, &mut rng)).sum();
            let mean = total as f64 / n as f64;
            // Std error is sqrt(lambda / n); allow five sigmas.
            let tolerance = 5.0 * (lambda / n as f64).sqrt();
            assert!(
                (mean - lambda).abs() < tolerance,
                "lambda {lambda}: empirical mean {mean}"
            );
        }
        assert_eq!(sample_poisson(0.0, &mut rng), 0);
    }

    #[test]
    fn invalid_city_configurations_are_rejected() {
        let lib = library();
        assert!(CityScaleConfig::district()
            .with_users(0)
            .generate(&lib, 1, 0)
            .is_err());
        assert!(CityScaleConfig::district()
            .with_servers_per_km2(0.0)
            .generate(&lib, 1, 0)
            .is_err());
        let mut cfg = CityScaleConfig::district();
        cfg.capacity_gb = f64::NAN;
        assert!(cfg.generate(&lib, 1, 0).is_err());
        let mut cfg = CityScaleConfig::district();
        cfg.backhaul_rate_bps = -1.0;
        assert!(cfg.generate(&lib, 1, 0).is_err());
        // The city preset is the documented headline scale.
        let city = CityScaleConfig::city();
        assert_eq!(city.num_users, 50_000);
        assert!(city.expected_servers() > 900.0);
        assert_eq!(CityScaleConfig::default(), CityScaleConfig::district());
    }

    #[test]
    fn storage_tiers_cycle_by_server_index() {
        let lib = library();
        let mut cfg = CityScaleConfig::district()
            .with_users(50)
            .with_storage_tiers(vec![1.0, 2.0, 0.5]);
        cfg.area_side_m = 1_500.0;
        let scenario = cfg.generate(&lib, 3, 0).unwrap();
        let base = 1_000_000_000u64; // capacity_gb = 1.0
        for m in 0..scenario.num_servers() {
            let expected = match m % 3 {
                0 => base,
                1 => 2 * base,
                _ => base / 2,
            };
            assert_eq!(scenario.capacity_bytes(ServerId(m)).unwrap(), expected);
        }
        // Tiers never change where servers and users land.
        let mut flat = cfg.clone();
        flat.storage_tiers = None;
        let plain = flat.generate(&lib, 3, 0).unwrap();
        assert_eq!(scenario.num_servers(), plain.num_servers());
        assert_eq!(scenario.users(), plain.users());
        // Degenerate tiers are rejected.
        assert!(cfg
            .clone()
            .with_storage_tiers(vec![])
            .generate(&lib, 3, 0)
            .is_err());
        assert!(cfg
            .with_storage_tiers(vec![1.0, 0.0])
            .generate(&lib, 3, 0)
            .is_err());
    }

    #[test]
    fn regional_grid_classes_users_by_position() {
        let lib = library();
        let mut cfg = CityScaleConfig::district()
            .with_users(200)
            .with_regional_grid(2);
        cfg.area_side_m = 2_000.0;
        let scenario = cfg.generate(&lib, 9, 0).unwrap();
        let classes = scenario.demand().user_classes();
        assert_eq!(scenario.demand().num_classes(), 4);
        for (k, u) in scenario.users().iter().enumerate() {
            let p = u.position();
            let gx = ((p.x / 1_000.0) as usize).min(1);
            let gy = ((p.y / 1_000.0) as usize).min(1);
            assert_eq!(classes[k], (gy * 2 + gx) as u32, "user {k} at {p:?}");
        }
        // Same config, same seed: deterministic.
        assert_eq!(scenario, cfg.generate(&lib, 9, 0).unwrap());
        // Degenerate / conflicting grids are rejected.
        assert!(cfg
            .clone()
            .with_regional_grid(0)
            .generate(&lib, 9, 0)
            .is_err());
        assert!(cfg.with_demand_classes(8).generate(&lib, 9, 0).is_err());
    }

    #[test]
    fn commuter_homes_cluster_users_in_the_residential_band() {
        let lib = library();
        let mut cfg = CityScaleConfig::district()
            .with_users(120)
            .with_commuter_homes();
        cfg.area_side_m = 2_000.0;
        let scenario = cfg.generate(&lib, 5, 0).unwrap();
        for u in scenario.users() {
            let p = u.position();
            assert!(
                p.x <= 0.4 * 2_000.0,
                "commuter home outside the residential band: {p:?}"
            );
        }
        assert_eq!(scenario, cfg.generate(&lib, 5, 0).unwrap());
        // Uniform placement covers the east half too; commuter homes don't.
        let mut uniform = cfg.clone();
        uniform.commuter_homes = false;
        let spread = uniform.generate(&lib, 5, 0).unwrap();
        assert!(spread
            .users()
            .iter()
            .any(|u| u.position().x > 0.4 * 2_000.0));
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let lib = library();
        assert!(TopologyConfig::paper_defaults()
            .with_servers(0)
            .generate(&lib, 1, 0)
            .is_err());
        assert!(TopologyConfig::paper_defaults()
            .with_users(0)
            .generate(&lib, 1, 0)
            .is_err());
        assert!(TopologyConfig::paper_defaults()
            .with_capacity_gb(0.0)
            .generate(&lib, 1, 0)
            .is_err());
        let mut cfg = TopologyConfig::paper_defaults();
        cfg.area_side_m = -5.0;
        assert!(cfg.generate(&lib, 1, 0).is_err());
        let mut cfg = TopologyConfig::paper_defaults();
        cfg.backhaul_rate_bps = 0.0;
        assert!(cfg.generate(&lib, 1, 0).is_err());
    }
}
