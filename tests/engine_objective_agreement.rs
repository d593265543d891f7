//! The serving engine reproduces the paper's objective, Eq. (2).
//!
//! Byte-identity tests prove the engine repeatable, not right. This test
//! checks it against the model it serves: a run whose caches stay pinned
//! to a warm-start placement `X` must hit as often as `U(X)` predicts,
//! and serve (hit or miss) as often as the eligibility ceiling — `U` of
//! every model on every server — predicts, each within 4 binomial
//! standard errors at the run's request count.
//!
//! The comparison rests on two assumptions, which the test pins:
//!
//! - **Rows are normalised per user.** The engine gives every user the
//!   same Poisson request rate and draws each request's model from the
//!   user's popularity row, while Eq. (2) weights request class `(k, i)`
//!   by `p_{k,i}`. The two agree only while every row sums to one.
//! - **Rates are expected rates, not fading.** The engine serves from
//!   the snapshot's expected-rate radio state, so the reference is the
//!   expected-rate `U(X)` ([`Scenario::hit_ratio`]), not a figure cell
//!   averaged over Rayleigh fading.

use trimcaching::prelude::*;
use trimcaching::runtime::CacheView;

/// Never admits a fill and never names a victim: a warm-started cache
/// keeps exactly its planned models for the whole run, and every miss is
/// a transient fetch.
struct Pinned;

impl EvictionPolicy for Pinned {
    fn name(&self) -> &'static str {
        "pinned"
    }

    fn victim(&self, _cache: CacheView<'_, '_>, _incoming: ModelId) -> Option<ModelId> {
        None
    }

    fn admits(&self, _cache: CacheView<'_, '_>, _incoming: ModelId) -> bool {
        false
    }
}

/// How many binomial standard errors `observed` sits from `expected` at
/// `n` trials.
fn z_score(observed: f64, expected: f64, n: u64) -> f64 {
    let sigma = (expected * (1.0 - expected) / n as f64).sqrt();
    (observed - expected) / sigma
}

/// Fig. 4(a)'s deployment at Q = 0.5 GB (`M = 10`, `K = 30`, the
/// special-case library with 10 models per backbone), warm-started from
/// TrimCaching Gen, over topologies 0–2 and two engine seeds: 5 000 s at
/// 0.2 Hz per user, about 30 000 requests per run.
#[test]
fn pinned_runs_reproduce_eq2_and_the_eligibility_ceiling() {
    let library = SpecialCaseBuilder::paper_setup()
        .models_per_backbone(10)
        .build(2024);
    let topology = TopologyConfig::paper_defaults().with_capacity_gb(0.5);
    for index in 0..3 {
        let scenario = topology.generate(&library, 2024, index).unwrap();
        let demand = scenario.demand();
        for k in 0..scenario.num_users() {
            let row: f64 = (0..scenario.num_models())
                .map(|i| demand.probability(UserId(k), ModelId(i)).unwrap())
                .sum();
            assert!(
                (row - 1.0).abs() < 1e-9,
                "topology {index}: user {k}'s row sums to {row}"
            );
        }
        let plan = TrimCachingGenLazy::new()
            .place(&scenario)
            .unwrap()
            .placement;
        let mut everywhere = scenario.empty_placement();
        for m in 0..scenario.num_servers() {
            for i in 0..scenario.num_models() {
                everywhere.place(ServerId(m), ModelId(i)).unwrap();
            }
        }
        let expected_hit = scenario.hit_ratio(&plan);
        let ceiling = scenario.hit_ratio(&everywhere);
        for seed in [11, 12] {
            let config = ServeConfig::paper_defaults()
                .with_seed(seed)
                .with_request_rate_hz(0.2)
                .with_duration_s(5_000.0);
            let report = serve(&scenario, &Pinned, Some(&plan), &config).unwrap();
            let m = &report.metrics;
            let run = format!("topology {index}, seed {seed}");
            assert!(m.requests > 25_000, "{run}: only {} requests", m.requests);
            for (server, cached) in report.final_caches.iter().enumerate() {
                let planned = plan.models_on(ServerId(server)).unwrap();
                assert_eq!(*cached, planned, "{run}: server {server} left its plan");
            }
            let z_hit = z_score(m.hit_ratio(), expected_hit, m.requests);
            assert!(
                z_hit.abs() <= 4.0,
                "{run}: hit ratio {} against U(X) = {expected_hit} (z = {z_hit:.2})",
                m.hit_ratio()
            );
            let z_served = z_score(m.served_ratio(), ceiling, m.requests);
            assert!(
                z_served.abs() <= 4.0,
                "{run}: served share {} against the ceiling {ceiling} (z = {z_served:.2})",
                m.served_ratio()
            );
        }
    }
}
