//! The [`Scenario`] aggregate: everything the placement algorithms and the
//! evaluation need about one "snapshot" of the system.
//!
//! A scenario bundles the model library, the edge servers with their
//! capacities, the users with their positions, the demand matrices, the
//! radio parameters and the derived quantities (coverage, per-user
//! allocation, expected rate matrix and the eligibility tensor
//! `I1(m,k,i)`). The paper solves the placement on such a snapshot
//! (Section IV-A notes that mobility is handled by re-solving when
//! performance degrades); [`Scenario::with_user_positions`] produces the
//! re-derived snapshot used by the mobility study.

use rand::Rng;

use trimcaching_modellib::ModelLibrary;
use trimcaching_wireless::allocation::PerUserAllocation;
use trimcaching_wireless::channel::{Fading, RayleighFading};
use trimcaching_wireless::coverage::CoverageMap;
use trimcaching_wireless::geometry::Point;
use trimcaching_wireless::params::RadioParams;
use trimcaching_wireless::Backhaul;

use crate::delta::SnapshotDelta;
use crate::demand::Demand;
use crate::eligibility::{Eligibility, EligibilityRepr};
use crate::entities::{EdgeServer, ServerId, User, UserId};
use crate::error::ScenarioError;
use crate::latency::{LatencyEvaluator, RateMatrix};
use crate::objective::HitRatioObjective;
use crate::placement::Placement;
use crate::storage::StorageTracker;

/// One snapshot of the system: inputs plus derived radio/latency state.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    library: ModelLibrary,
    servers: Vec<EdgeServer>,
    users: Vec<User>,
    demand: Demand,
    radio: RadioParams,
    backhaul: Backhaul,
    coverage: CoverageMap,
    allocation: PerUserAllocation,
    rates: RateMatrix,
    eligibility: Eligibility,
    /// The representation the builder was asked for (possibly `Auto`);
    /// kept so re-derived snapshots (mobility, fading) make the same
    /// choice.
    requested_repr: EligibilityRepr,
}

impl Scenario {
    /// Starts a scenario builder.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// The model library.
    pub fn library(&self) -> &ModelLibrary {
        &self.library
    }

    /// The edge servers.
    pub fn servers(&self) -> &[EdgeServer] {
        &self.servers
    }

    /// The users.
    pub fn users(&self) -> &[User] {
        &self.users
    }

    /// The demand matrices.
    pub fn demand(&self) -> &Demand {
        &self.demand
    }

    /// The radio parameters.
    pub fn radio(&self) -> &RadioParams {
        &self.radio
    }

    /// The backhaul mesh.
    pub fn backhaul(&self) -> &Backhaul {
        &self.backhaul
    }

    /// The coverage relation.
    pub fn coverage(&self) -> &CoverageMap {
        &self.coverage
    }

    /// The expected downlink rate matrix used for placement decisions.
    pub fn rates(&self) -> &RateMatrix {
        &self.rates
    }

    /// The precomputed eligibility indicator `I1(m,k,i)` under expected
    /// rates, in whichever representation the builder selected (see
    /// [`ScenarioBuilder::eligibility_repr`]).
    pub fn eligibility(&self) -> &Eligibility {
        &self.eligibility
    }

    /// The eligibility representation actually held (never
    /// [`EligibilityRepr::Auto`]).
    pub fn eligibility_repr(&self) -> EligibilityRepr {
        self.eligibility.repr()
    }

    /// Number of edge servers `M`.
    pub fn num_servers(&self) -> usize {
        self.servers.len()
    }

    /// Number of users `K`.
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// Number of models `I`.
    pub fn num_models(&self) -> usize {
        self.library.num_models()
    }

    /// Storage capacity `Q_m` of server `m` in bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::IndexOutOfRange`] for an unknown server.
    pub fn capacity_bytes(&self, server: ServerId) -> Result<u64, ScenarioError> {
        self.servers
            .get(server.index())
            .map(EdgeServer::capacity_bytes)
            .ok_or(ScenarioError::IndexOutOfRange {
                entity: "server",
                index: server.index(),
                len: self.servers.len(),
            })
    }

    /// An empty placement with this scenario's dimensions.
    pub fn empty_placement(&self) -> Placement {
        Placement::empty(self.num_servers(), self.num_models())
    }

    /// The hit-ratio objective under the expected-rate eligibility.
    pub fn objective(&self) -> HitRatioObjective<'_> {
        // Demand/eligibility dimensions were cross-checked when the
        // scenario was built, so no fallible path is needed here.
        HitRatioObjective::from_validated_views(&self.demand, &self.eligibility)
    }

    /// The hit-ratio objective under this scenario's eligibility but an
    /// *arbitrary* demand surface — e.g. an online
    /// [`DemandEstimate`](crate::demand::DemandEstimate) reconstructed
    /// from a served request stream. This is the entry point online
    /// re-placement uses: same eligibility, same solver, estimated
    /// weights.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::DimensionMismatch`] when the view's
    /// dimensions disagree with the scenario's.
    pub fn objective_with_demand<'a>(
        &'a self,
        demand: &'a dyn crate::demand::DemandView,
    ) -> Result<HitRatioObjective<'a>, ScenarioError> {
        HitRatioObjective::from_views(demand, &self.eligibility)
    }

    /// A fresh storage tracker for server `m`.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::IndexOutOfRange`] for an unknown server.
    pub fn storage_tracker(&self, server: ServerId) -> Result<StorageTracker<'_>, ScenarioError> {
        Ok(StorageTracker::new(
            &self.library,
            self.capacity_bytes(server)?,
        ))
    }

    /// Expected cache hit ratio of `placement` under expected rates.
    pub fn hit_ratio(&self, placement: &Placement) -> f64 {
        self.objective().hit_ratio(placement)
    }

    /// Whether `placement` satisfies every server's capacity constraint
    /// under shared (deduplicated) storage.
    pub fn satisfies_capacities(&self, placement: &Placement) -> bool {
        (0..self.num_servers()).all(|m| {
            let models = placement.models_on(ServerId(m)).unwrap_or_default();
            self.library.union_size_bytes(models) <= self.servers[m].capacity_bytes()
        })
    }

    /// Cache hit ratio of `placement` under one small-scale fading
    /// realisation: every covered server-user link draws an independent
    /// Rayleigh power gain, the rate matrix and eligibility are recomputed,
    /// and the hit ratio is evaluated for the *same* placement (this is how
    /// the paper separates the placement decision — made on expected rates —
    /// from the achieved performance over ~10³ channel realisations).
    ///
    /// # Errors
    ///
    /// Propagates substrate errors (which indicate an internally
    /// inconsistent scenario).
    pub fn hit_ratio_under_fading<R: Rng + ?Sized>(
        &self,
        placement: &Placement,
        rng: &mut R,
    ) -> Result<f64, ScenarioError> {
        self.hit_ratio_under(placement, &RayleighFading::unit(), rng)
    }

    /// Cache hit ratio of `placement` under one realisation of an arbitrary
    /// [`Fading`] process (e.g. the paper's Rayleigh model, or a shadowed
    /// Rayleigh channel from `trimcaching_wireless::shadowing`).
    ///
    /// # Errors
    ///
    /// Propagates substrate errors (which indicate an internally
    /// inconsistent scenario).
    pub fn hit_ratio_under<F, R>(
        &self,
        placement: &Placement,
        fading: &F,
        rng: &mut R,
    ) -> Result<f64, ScenarioError>
    where
        F: Fading,
        R: Rng + ?Sized,
    {
        let rates =
            RateMatrix::with_fading(&self.coverage, &self.allocation, &self.radio, |_, _| {
                fading.sample_power_gain(rng)
            })?;
        let evaluator = LatencyEvaluator::new(
            &self.library,
            &self.demand,
            &self.coverage,
            &self.backhaul,
            &rates,
        )?;
        let eligibility = derive_eligibility(&evaluator, self.requested_repr, &self.coverage)?;
        let objective = HitRatioObjective::new(&self.demand, &eligibility)?;
        Ok(objective.hit_ratio(placement))
    }

    /// Average cache hit ratio of `placement` over `realisations` Rayleigh
    /// channel draws.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    pub fn average_hit_ratio_under_fading<R: Rng + ?Sized>(
        &self,
        placement: &Placement,
        realisations: usize,
        rng: &mut R,
    ) -> Result<f64, ScenarioError> {
        self.average_hit_ratio_under(placement, &RayleighFading::unit(), realisations, rng)
    }

    /// Average cache hit ratio of `placement` over `realisations` draws of
    /// an arbitrary [`Fading`] process. Zero realisations fall back to the
    /// expected-rate evaluation.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    pub fn average_hit_ratio_under<F, R>(
        &self,
        placement: &Placement,
        fading: &F,
        realisations: usize,
        rng: &mut R,
    ) -> Result<f64, ScenarioError>
    where
        F: Fading,
        R: Rng + ?Sized,
    {
        if realisations == 0 {
            return Ok(self.hit_ratio(placement));
        }
        let mut total = 0.0;
        for _ in 0..realisations {
            total += self.hit_ratio_under(placement, fading, rng)?;
        }
        Ok(total / realisations as f64)
    }

    /// Rebuilds the scenario with users moved to `positions` (same library,
    /// servers, demand and radio parameters), recomputing coverage,
    /// allocation, rates and eligibility from scratch. The eligibility
    /// representation actually *resolved* on the previous snapshot is
    /// carried forward (an [`EligibilityRepr::Auto`] request is only
    /// re-resolved on the first build), so a long mobile run can never
    /// silently flip dense↔sparse as coverage density drifts.
    ///
    /// [`Scenario::update_user_positions`] produces the same snapshot in
    /// place through the same passes, reusing this snapshot's buffers
    /// instead of cloning the library, servers and demand.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::DimensionMismatch`] if the number of
    /// positions differs from the number of users.
    pub fn with_user_positions(&self, positions: &[Point]) -> Result<Scenario, ScenarioError> {
        if positions.len() != self.users.len() {
            return Err(ScenarioError::DimensionMismatch {
                reason: format!(
                    "got {} positions for {} users",
                    positions.len(),
                    self.users.len()
                ),
            });
        }
        let users: Vec<User> = self
            .users
            .iter()
            .zip(positions)
            .map(|(u, p)| u.at(*p))
            .collect();
        ScenarioBuilder {
            library: Some(self.library.clone()),
            servers: Some(self.servers.clone()),
            users: Some(users),
            demand: Some(self.demand.clone()),
            radio: self.radio,
            backhaul_rate_bps: self.backhaul.default_rate_bps(),
            eligibility_repr: self.pinned_repr(),
        }
        .build()
    }

    /// The representation re-derived snapshots must use: the original
    /// request if it was explicit, the previously *resolved* choice when
    /// the request was [`EligibilityRepr::Auto`].
    fn pinned_repr(&self) -> EligibilityRepr {
        match self.requested_repr {
            EligibilityRepr::Auto => self.eligibility.repr(),
            explicit => explicit,
        }
    }

    /// Moves every user to `positions` **in place**: the radio update of
    /// [`Scenario::update_radio_positions`], then the eligibility
    /// indicator re-derived from scratch ([`Scenario::derive_eligibility`]).
    /// The resulting scenario is bit-identical to a full
    /// [`Scenario::with_user_positions`] rebuild — same coverage, rates,
    /// eligibility and hit ratios.
    ///
    /// Cost: the radio update's, plus one kernel pass over all `K`
    /// users for the indicator — what a rebuild pays, without cloning
    /// the inputs. A caller that does not read the indicator after every
    /// move — the serving engine scores each request from the radio
    /// state and needs the indicator only to re-plan — should use
    /// [`Scenario::update_radio_positions`] and derive the indicator when
    /// it needs one.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::DimensionMismatch`] if the number of
    /// positions differs from the number of users; the scenario is left
    /// unchanged in that case.
    pub fn update_user_positions(
        &mut self,
        positions: &[Point],
    ) -> Result<SnapshotDelta, ScenarioError> {
        let delta = self.update_radio_positions(positions)?;
        self.eligibility = self.derive_eligibility()?;
        Ok(delta)
    }

    /// The radio half of [`Scenario::update_user_positions`]: moves every
    /// user to `positions` in place and recomputes coverage, allocation
    /// and rates whole, through the same passes as the build
    /// ([`CoverageMap::set_user_positions`], [`PerUserAllocation::compute`],
    /// [`RateMatrix::recompute_expected`]), reusing the snapshot's
    /// buffers. The returned [`SnapshotDelta`] names what changed by the
    /// sets' definitions. Feeding back the current positions changes
    /// nothing and returns an empty delta.
    ///
    /// **The whole stored eligibility indicator is out of date
    /// afterwards**: the caller must not read it through
    /// [`Scenario::eligibility`], nor through anything built on it such
    /// as [`Scenario::hit_ratio`] or a placement solve. Instead
    /// [`LatencyEvaluator::scored_candidates`] derives any one class's
    /// candidates from the updated radio state, and
    /// [`Scenario::derive_eligibility`] a fresh indicator for a solve.
    ///
    /// Cost: one coverage pass over all `K` users (each through the
    /// spatial grid above its server-count threshold, else a scan of the
    /// `M` servers), one pass over the covered pairs for the rates, and
    /// `O(K + M)` for the delta.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::DimensionMismatch`] if the number of
    /// positions differs from the number of users; the scenario is left
    /// unchanged in that case.
    pub fn update_radio_positions(
        &mut self,
        positions: &[Point],
    ) -> Result<SnapshotDelta, ScenarioError> {
        if positions.len() != self.users.len() {
            return Err(ScenarioError::DimensionMismatch {
                reason: format!(
                    "got {} positions for {} users",
                    positions.len(),
                    self.users.len()
                ),
            });
        }
        let moved: Vec<usize> = (0..positions.len())
            .filter(|&k| self.users[k].position() != positions[k])
            .collect();
        if moved.is_empty() {
            return Ok(SnapshotDelta::empty());
        }
        for &k in &moved {
            self.users[k] = self.users[k].at(positions[k]);
        }
        self.coverage.set_user_positions(positions)?;
        let allocation = PerUserAllocation::compute(&self.coverage, &self.radio)?;
        let reallocated: Vec<usize> = self
            .allocation
            .iter()
            .zip(allocation.iter())
            .filter(|((_, old), (_, new))| old != new)
            .map(|((m, _), _)| m)
            .collect();
        self.allocation = allocation;
        self.rates
            .recompute_expected(&self.coverage, &self.allocation, &self.radio)?;
        // Users whose rate rows — and hence possibly eligibility — can
        // have changed: the moved users themselves plus every user of a
        // server whose per-user share changed.
        let mut is_refreshed = vec![false; self.users.len()];
        for &k in &moved {
            is_refreshed[k] = true;
        }
        for &m in &reallocated {
            for &k in self.coverage.users_of_server(m)? {
                is_refreshed[k] = true;
            }
        }
        let refreshed: Vec<usize> = (0..self.users.len()).filter(|&k| is_refreshed[k]).collect();
        // In-place evolution pins the resolved representation exactly
        // like `with_user_positions` does for rebuilds.
        self.requested_repr = self.pinned_repr();
        Ok(SnapshotDelta::new(moved, reallocated, refreshed))
    }

    /// Derives the eligibility indicator `I1(m,k,i)` from scratch from
    /// the current radio state, in the representation this snapshot
    /// pins (see [`Scenario::with_user_positions`]), through the same
    /// kernel as the builder. On a snapshot whose users have not moved
    /// since it was built or last updated by
    /// [`Scenario::update_user_positions`] the result equals
    /// [`Scenario::eligibility`]; after
    /// [`Scenario::update_radio_positions`] it is the fresh indicator a
    /// solve needs.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors (which indicate an internally
    /// inconsistent scenario).
    pub fn derive_eligibility(&self) -> Result<Eligibility, ScenarioError> {
        let evaluator = LatencyEvaluator::new(
            &self.library,
            &self.demand,
            &self.coverage,
            &self.backhaul,
            &self.rates,
        )?;
        derive_eligibility(&evaluator, self.pinned_repr(), &self.coverage)
    }
}

/// Resolves the requested representation against the snapshot's
/// dimensions and builds the eligibility indicator accordingly.
fn derive_eligibility(
    evaluator: &LatencyEvaluator<'_>,
    requested: EligibilityRepr,
    coverage: &CoverageMap,
) -> Result<Eligibility, ScenarioError> {
    let resolved = requested.resolved(
        coverage.num_servers(),
        coverage.num_users(),
        evaluator.num_models(),
        coverage.coverage_density(),
    );
    Ok(match resolved {
        EligibilityRepr::Sparse => Eligibility::Sparse(evaluator.sparse_eligibility()?),
        _ => Eligibility::Dense(evaluator.eligibility()?),
    })
}

/// Builder assembling a [`Scenario`] from its inputs and deriving the radio
/// and latency state.
#[derive(Debug, Clone, Default)]
pub struct ScenarioBuilder {
    library: Option<ModelLibrary>,
    servers: Option<Vec<EdgeServer>>,
    users: Option<Vec<User>>,
    demand: Option<Demand>,
    radio: RadioParams,
    backhaul_rate_bps: f64,
    eligibility_repr: EligibilityRepr,
}

impl ScenarioBuilder {
    /// Sets the model library (required).
    pub fn library(mut self, library: ModelLibrary) -> Self {
        self.library = Some(library);
        self
    }

    /// Sets the edge servers (required).
    pub fn servers(mut self, servers: Vec<EdgeServer>) -> Self {
        self.servers = Some(servers);
        self
    }

    /// Sets the users (required).
    pub fn users(mut self, users: Vec<User>) -> Self {
        self.users = Some(users);
        self
    }

    /// Convenience: creates users at the given positions with dense ids.
    pub fn users_at(mut self, positions: &[Point]) -> Self {
        self.users = Some(
            positions
                .iter()
                .enumerate()
                .map(|(k, p)| User::new(UserId(k), *p))
                .collect(),
        );
        self
    }

    /// Sets the demand matrices (required).
    pub fn demand(mut self, demand: Demand) -> Self {
        self.demand = Some(demand);
        self
    }

    /// Overrides the radio parameters (defaults to the paper values).
    pub fn radio(mut self, radio: RadioParams) -> Self {
        self.radio = radio;
        self
    }

    /// Overrides the backhaul rate in bits per second (defaults to the
    /// paper's 10 Gbps).
    pub fn backhaul_rate_bps(mut self, rate: f64) -> Self {
        self.backhaul_rate_bps = rate;
        self
    }

    /// Selects the eligibility representation (defaults to
    /// [`EligibilityRepr::Auto`], which picks the coverage-pruned sparse
    /// form for large or thinly covered snapshots and the dense tensor
    /// otherwise).
    pub fn eligibility_repr(mut self, repr: EligibilityRepr) -> Self {
        self.eligibility_repr = repr;
        self
    }

    /// Derives the radio state and assembles the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::MissingComponent`] for missing inputs,
    /// [`ScenarioError::DimensionMismatch`] for inconsistent dimensions and
    /// propagates substrate validation errors.
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        let library = self.library.ok_or(ScenarioError::MissingComponent {
            component: "library",
        })?;
        let servers = self.servers.ok_or(ScenarioError::MissingComponent {
            component: "servers",
        })?;
        let users = self
            .users
            .ok_or(ScenarioError::MissingComponent { component: "users" })?;
        let demand = self.demand.ok_or(ScenarioError::MissingComponent {
            component: "demand",
        })?;
        if servers.is_empty() {
            return Err(ScenarioError::DimensionMismatch {
                reason: "a scenario needs at least one edge server".into(),
            });
        }
        if users.is_empty() {
            return Err(ScenarioError::DimensionMismatch {
                reason: "a scenario needs at least one user".into(),
            });
        }
        if demand.num_users() != users.len() {
            return Err(ScenarioError::DimensionMismatch {
                reason: format!(
                    "demand covers {} users but {} users were provided",
                    demand.num_users(),
                    users.len()
                ),
            });
        }
        if demand.num_models() != library.num_models() {
            return Err(ScenarioError::DimensionMismatch {
                reason: format!(
                    "demand covers {} models but the library has {}",
                    demand.num_models(),
                    library.num_models()
                ),
            });
        }
        let radio = self.radio;
        radio.validate()?;
        let backhaul_rate = if self.backhaul_rate_bps > 0.0 {
            self.backhaul_rate_bps
        } else {
            radio.backhaul_rate_bps
        };
        let user_points: Vec<Point> = users.iter().map(User::position).collect();
        let server_points: Vec<Point> = servers.iter().map(EdgeServer::position).collect();
        let coverage = CoverageMap::build(&user_points, &server_points, radio.coverage_radius_m)?;
        let allocation = PerUserAllocation::compute(&coverage, &radio)?;
        let rates = RateMatrix::expected(&coverage, &allocation, &radio)?;
        let backhaul = Backhaul::uniform(servers.len(), backhaul_rate)?;
        let evaluator = LatencyEvaluator::new(&library, &demand, &coverage, &backhaul, &rates)?;
        let eligibility = derive_eligibility(&evaluator, self.eligibility_repr, &coverage)?;
        Ok(Scenario {
            library,
            servers,
            users,
            demand,
            radio,
            backhaul,
            coverage,
            allocation,
            rates,
            eligibility,
            requested_repr: self.eligibility_repr,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::DemandConfig;
    use crate::entities::gigabytes;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use trimcaching_modellib::builders::SpecialCaseBuilder;
    use trimcaching_modellib::ModelId;

    fn build_scenario(num_users: usize, capacity_gb: f64) -> Scenario {
        let library = SpecialCaseBuilder::paper_setup()
            .models_per_backbone(3)
            .build(5);
        let servers = vec![
            EdgeServer::new(
                ServerId(0),
                Point::new(250.0, 250.0),
                gigabytes(capacity_gb),
            )
            .unwrap(),
            EdgeServer::new(
                ServerId(1),
                Point::new(750.0, 250.0),
                gigabytes(capacity_gb),
            )
            .unwrap(),
        ];
        let mut rng = StdRng::seed_from_u64(42);
        let area = trimcaching_wireless::geometry::DeploymentArea::paper_default();
        let positions: Vec<Point> = (0..num_users)
            .map(|_| area.sample_uniform(&mut rng))
            .collect();
        let demand = DemandConfig::paper_defaults()
            .generate(num_users, library.num_models(), &mut rng)
            .unwrap();
        Scenario::builder()
            .library(library)
            .servers(servers)
            .users_at(&positions)
            .demand(demand)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_assembles_consistent_dimensions() {
        let s = build_scenario(8, 1.0);
        assert_eq!(s.num_servers(), 2);
        assert_eq!(s.num_users(), 8);
        assert_eq!(s.num_models(), 9);
        assert_eq!(s.servers().len(), 2);
        assert_eq!(s.users().len(), 8);
        assert_eq!(s.capacity_bytes(ServerId(0)).unwrap(), 1_000_000_000);
        assert!(s.capacity_bytes(ServerId(5)).is_err());
        assert_eq!(s.rates().num_servers(), 2);
        assert_eq!(s.eligibility().num_models(), 9);
        assert!(s.radio().validate().is_ok());
        assert_eq!(s.backhaul().num_servers(), 2);
        assert_eq!(s.coverage().num_users(), 8);
        assert_eq!(s.demand().num_users(), 8);
        assert_eq!(s.library().num_models(), 9);
    }

    #[test]
    fn missing_components_are_reported() {
        let library = SpecialCaseBuilder::paper_setup()
            .models_per_backbone(2)
            .build(1);
        let err = Scenario::builder().library(library).build();
        assert!(matches!(
            err,
            Err(ScenarioError::MissingComponent {
                component: "servers"
            })
        ));
        let err = Scenario::builder().build();
        assert!(matches!(
            err,
            Err(ScenarioError::MissingComponent {
                component: "library"
            })
        ));
    }

    #[test]
    fn dimension_mismatches_are_rejected() {
        let library = SpecialCaseBuilder::paper_setup()
            .models_per_backbone(2)
            .build(1);
        let servers = vec![EdgeServer::new(ServerId(0), Point::new(0.0, 0.0), 100).unwrap()];
        let mut rng = StdRng::seed_from_u64(1);
        // Demand for the wrong user count.
        let demand = DemandConfig::paper_defaults()
            .generate(3, library.num_models(), &mut rng)
            .unwrap();
        let err = Scenario::builder()
            .library(library.clone())
            .servers(servers.clone())
            .users_at(&[Point::new(1.0, 1.0)])
            .demand(demand)
            .build();
        assert!(matches!(err, Err(ScenarioError::DimensionMismatch { .. })));
        // Demand for the wrong model count.
        let demand = DemandConfig::paper_defaults()
            .generate(1, 2, &mut rng)
            .unwrap();
        let err = Scenario::builder()
            .library(library)
            .servers(servers)
            .users_at(&[Point::new(1.0, 1.0)])
            .demand(demand)
            .build();
        assert!(matches!(err, Err(ScenarioError::DimensionMismatch { .. })));
    }

    #[test]
    fn hit_ratio_grows_as_models_are_placed() {
        let s = build_scenario(10, 1.0);
        let mut placement = s.empty_placement();
        assert_eq!(s.hit_ratio(&placement), 0.0);
        let objective = s.objective();
        // Place the model with the largest marginal gain on server 0.
        let best = (0..s.num_models())
            .max_by(|a, b| {
                objective
                    .marginal_hits(&placement, ServerId(0), ModelId(*a))
                    .partial_cmp(&objective.marginal_hits(&placement, ServerId(0), ModelId(*b)))
                    .unwrap()
            })
            .unwrap();
        placement.place(ServerId(0), ModelId(best)).unwrap();
        let u1 = s.hit_ratio(&placement);
        assert!(u1 > 0.0, "placing the best model should yield hits");
        assert!(s.satisfies_capacities(&placement));
    }

    #[test]
    fn capacity_check_detects_overflow() {
        // 1 MB capacity cannot hold any ~50-100 MB model.
        let s = build_scenario(4, 0.001);
        let mut placement = s.empty_placement();
        placement.place(ServerId(0), ModelId(0)).unwrap();
        assert!(!s.satisfies_capacities(&placement));
    }

    #[test]
    fn fading_evaluation_is_close_to_expected_rate_evaluation() {
        let s = build_scenario(10, 1.0);
        let mut placement = s.empty_placement();
        for i in 0..3 {
            placement.place(ServerId(0), ModelId(i)).unwrap();
            placement.place(ServerId(1), ModelId(i)).unwrap();
        }
        let nominal = s.hit_ratio(&placement);
        let mut rng = StdRng::seed_from_u64(9);
        let faded = s
            .average_hit_ratio_under_fading(&placement, 50, &mut rng)
            .unwrap();
        assert!((0.0..=1.0).contains(&faded));
        // Fading can only push the rate (and hence the hit ratio) around the
        // nominal value; with 50 draws it should stay in a broad band.
        assert!((faded - nominal).abs() < 0.5);
        // Zero realisations falls back to the nominal evaluation.
        let zero = s
            .average_hit_ratio_under_fading(&placement, 0, &mut rng)
            .unwrap();
        assert_eq!(zero, nominal);
    }

    /// The Monte-Carlo evaluation draws one fading gain per covered
    /// `(m, k)` pair, and the draw order is part of every seeded fading
    /// result. Three overlapping cells, so users sit in several `M_k`:
    /// the closure must see the pairs server by server, each server's
    /// users ascending, and the seeded average must keep its bits.
    #[test]
    fn fading_draw_order_and_average_are_pinned() {
        let library = SpecialCaseBuilder::paper_setup()
            .models_per_backbone(2)
            .build(3);
        let servers = [(300.0, 300.0), (500.0, 300.0), (400.0, 460.0)]
            .iter()
            .enumerate()
            .map(|(m, &(x, y))| EdgeServer::new(ServerId(m), Point::new(x, y), gigabytes(0.5)))
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        let positions: Vec<Point> = [
            (400.0, 350.0),
            (150.0, 300.0),
            (620.0, 320.0),
            (400.0, 600.0),
            (330.0, 420.0),
            (900.0, 900.0),
            (480.0, 380.0),
        ]
        .iter()
        .map(|&(x, y)| Point::new(x, y))
        .collect();
        let mut rng = StdRng::seed_from_u64(17);
        let demand = DemandConfig::paper_defaults()
            .generate(positions.len(), library.num_models(), &mut rng)
            .unwrap();
        let s = Scenario::builder()
            .library(library)
            .servers(servers)
            .users_at(&positions)
            .demand(demand)
            .build()
            .unwrap();

        let mut seen = Vec::new();
        RateMatrix::with_fading(&s.coverage, &s.allocation, &s.radio, |m, k| {
            seen.push((m, k));
            0.5
        })
        .unwrap();
        assert_eq!(
            seen,
            [
                (0, 0),
                (0, 1),
                (0, 4),
                (0, 6),
                (1, 0),
                (1, 2),
                (1, 4),
                (1, 6),
                (2, 0),
                (2, 2),
                (2, 3),
                (2, 4),
                (2, 6),
            ]
        );

        let mut placement = s.empty_placement();
        placement.place(ServerId(0), ModelId(0)).unwrap();
        placement.place(ServerId(1), ModelId(3)).unwrap();
        placement.place(ServerId(2), ModelId(5)).unwrap();
        let mut rng = StdRng::seed_from_u64(2024);
        let faded = s
            .average_hit_ratio_under_fading(&placement, 40, &mut rng)
            .unwrap();
        assert_eq!(faded.to_bits(), 0x3fdd_d5a6_8a98_27f8, "{faded}");
    }

    #[test]
    fn moving_users_rebuilds_coverage_and_keeps_dimensions() {
        let s = build_scenario(6, 1.0);
        let new_positions: Vec<Point> = (0..6)
            .map(|i| Point::new(100.0 + 50.0 * i as f64, 900.0))
            .collect();
        let moved = s.with_user_positions(&new_positions).unwrap();
        assert_eq!(moved.num_users(), 6);
        assert_eq!(moved.num_servers(), s.num_servers());
        assert_eq!(moved.num_models(), s.num_models());
        assert_eq!(moved.users()[2].position(), new_positions[2]);
        // Demand is preserved.
        assert_eq!(moved.demand(), s.demand());
        // Wrong position count is rejected.
        assert!(s.with_user_positions(&new_positions[..3]).is_err());
    }

    #[test]
    fn eligibility_repr_is_selectable_and_equivalent() {
        let dense = build_scenario(8, 1.0);
        // Paper-scale snapshots resolve Auto to the dense tensor.
        assert_eq!(dense.eligibility_repr(), EligibilityRepr::Dense);
        // Rebuild the same snapshot with the sparse representation forced.
        let sparse = Scenario::builder()
            .library(dense.library().clone())
            .servers(dense.servers().to_vec())
            .users(dense.users().to_vec())
            .demand(dense.demand().clone())
            .eligibility_repr(EligibilityRepr::Sparse)
            .build()
            .unwrap();
        assert_eq!(sparse.eligibility_repr(), EligibilityRepr::Sparse);
        assert!(sparse.eligibility().is_sparse());
        assert_eq!(
            sparse.eligibility().num_eligible(),
            dense.eligibility().num_eligible()
        );
        // Bit-identical hit ratios on a shared placement.
        let mut placement = dense.empty_placement();
        for i in 0..3 {
            placement.place(ServerId(i % 2), ModelId(i)).unwrap();
        }
        assert_eq!(dense.hit_ratio(&placement), sparse.hit_ratio(&placement));
        // The representation choice survives a mobility re-derivation.
        let moved_positions: Vec<Point> = (0..8)
            .map(|i| Point::new(120.0 + 60.0 * i as f64, 400.0))
            .collect();
        let moved = sparse.with_user_positions(&moved_positions).unwrap();
        assert!(moved.eligibility().is_sparse());
    }

    #[test]
    fn incremental_update_matches_full_rebuild() {
        for repr in [EligibilityRepr::Dense, EligibilityRepr::Sparse] {
            let base = build_scenario(8, 1.0);
            let mut incremental = Scenario::builder()
                .library(base.library().clone())
                .servers(base.servers().to_vec())
                .users(base.users().to_vec())
                .demand(base.demand().clone())
                .eligibility_repr(repr)
                .build()
                .unwrap();
            // Several slots of scattered moves, including cell crossings.
            let mut positions: Vec<Point> =
                incremental.users().iter().map(User::position).collect();
            for slot in 0..3 {
                for k in (slot % 2..8).step_by(2) {
                    positions[k] = Point::new(
                        120.0 + 90.0 * ((k + slot) % 7) as f64,
                        180.0 + 140.0 * ((k * slot) % 5) as f64,
                    );
                }
                let delta = incremental.update_user_positions(&positions).unwrap();
                assert!(!delta.is_empty());
                assert!(delta.refreshed_users().len() >= delta.moved_users().len());
                let rebuilt = incremental.with_user_positions(&positions).unwrap();
                // Bit-identical snapshot: every derived component agrees.
                assert_eq!(incremental, rebuilt);
            }
            // A no-op update reports an empty delta and changes nothing.
            let before = incremental.clone();
            let delta = incremental.update_user_positions(&positions).unwrap();
            assert!(delta.is_empty());
            assert_eq!(incremental, before);
        }
    }

    #[test]
    fn wrong_length_radio_updates_err_and_change_nothing() {
        let mut s = build_scenario(6, 1.0);
        let before = s.clone();
        let positions: Vec<Point> = s.users().iter().map(User::position).collect();
        let longer = [positions.as_slice(), &positions[..1]].concat();
        for wrong in [&positions[..5], &longer[..], &[]] {
            assert!(matches!(
                s.update_radio_positions(wrong),
                Err(ScenarioError::DimensionMismatch { .. })
            ));
            assert_eq!(s, before);
            assert!(s.update_user_positions(wrong).is_err());
            assert_eq!(s, before);
        }
    }

    #[test]
    fn auto_repr_is_pinned_across_rederivations() {
        let s = build_scenario(8, 1.0);
        assert_eq!(s.requested_repr, EligibilityRepr::Auto);
        let positions: Vec<Point> = (0..8)
            .map(|i| Point::new(150.0 + 70.0 * i as f64, 300.0))
            .collect();
        // A rebuild resolves Auto once and pins the concrete choice.
        let rebuilt = s.with_user_positions(&positions).unwrap();
        assert_eq!(rebuilt.requested_repr, EligibilityRepr::Dense);
        assert_eq!(rebuilt.eligibility_repr(), EligibilityRepr::Dense);
        // The in-place path pins identically.
        let mut incremental = s.clone();
        incremental.update_user_positions(&positions).unwrap();
        assert_eq!(incremental.requested_repr, EligibilityRepr::Dense);
        assert_eq!(incremental, rebuilt);
    }

    #[test]
    fn empty_server_or_user_lists_are_rejected() {
        let library = SpecialCaseBuilder::paper_setup()
            .models_per_backbone(2)
            .build(1);
        let mut rng = StdRng::seed_from_u64(1);
        let demand = DemandConfig::paper_defaults()
            .generate(1, library.num_models(), &mut rng)
            .unwrap();
        let err = Scenario::builder()
            .library(library.clone())
            .servers(vec![])
            .users_at(&[Point::new(0.0, 0.0)])
            .demand(demand.clone())
            .build();
        assert!(err.is_err());
        let err = Scenario::builder()
            .library(library)
            .servers(vec![EdgeServer::new(
                ServerId(0),
                Point::new(0.0, 0.0),
                100,
            )
            .unwrap()])
            .users(vec![])
            .demand(demand)
            .build();
        assert!(err.is_err());
    }
}
