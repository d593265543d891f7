//! Ablation bench: eager (Algorithm 3) vs. CELF lazy-evaluation greedy.
//!
//! Both algorithms produce the same placement; the lazy variant re-uses
//! stale marginal gains as upper bounds and typically performs an order of
//! magnitude fewer gain evaluations. This bench reports the wall-clock
//! running time of both on growing library sizes and prints the evaluation
//! counters for the largest instance.
//!
//! The `replan` row times the online controller's re-plan on the
//! drift-churn deployment (3 000 users, 30 models, 10 servers, 0.25 GB):
//! `place_with_demand` against a rotated popularity. Before timing, its
//! placement is asserted equal to an eager greedy that scores every
//! pair through the pointwise `marginal_hits`.

use trimcaching_bench::measure;
use trimcaching_modellib::builders::SpecialCaseBuilder;
use trimcaching_placement::{PlacementAlgorithm, TrimCachingGen, TrimCachingGenLazy};
use trimcaching_runtime::rotate_popularity;
use trimcaching_scenario::{HitRatioObjective, Placement, Scenario, ServerId, StorageTracker};
use trimcaching_sim::TopologyConfig;

/// The eager TrimCaching Gen greedy over the pointwise definition: every
/// step rescans every unplaced pair that fits and takes the first
/// strictly largest positive `marginal_hits`.
fn pointwise_greedy(scenario: &Scenario, objective: &HitRatioObjective<'_>) -> Placement {
    let mut placement = scenario.empty_placement();
    let mut trackers: Vec<StorageTracker<'_>> = (0..scenario.num_servers())
        .map(|m| scenario.storage_tracker(ServerId(m)).expect("tracker"))
        .collect();
    loop {
        let mut best = None;
        for (m, tracker) in trackers.iter().enumerate() {
            for model in objective.candidate_models(ServerId(m)) {
                if placement.contains(ServerId(m), model) || !tracker.fits(model).expect("fits") {
                    continue;
                }
                let gain = objective.marginal_hits(&placement, ServerId(m), model);
                if gain > 0.0 && best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((m, model, gain));
                }
            }
        }
        let Some((m, model, _)) = best else {
            return placement;
        };
        placement.place(ServerId(m), model).expect("place");
        trackers[m].add(model).expect("add");
    }
}

fn main() {
    for models_per_backbone in [5usize, 10, 20] {
        let library = SpecialCaseBuilder::paper_setup()
            .models_per_backbone(models_per_backbone)
            .build(2024);
        let scenario = TopologyConfig::paper_defaults()
            .generate(&library, 2024, 0)
            .expect("topology generates");
        let eager = TrimCachingGen::new().place(&scenario).expect("eager runs");
        let lazy = TrimCachingGenLazy::new()
            .place(&scenario)
            .expect("lazy runs");
        assert_eq!(eager.placement, lazy.placement);
        eprintln!(
            "[lazy_greedy] I = {}: eager {} evaluations, lazy {} evaluations ({}x fewer)",
            library.num_models(),
            eager.evaluations,
            lazy.evaluations,
            eager.evaluations.max(1) / lazy.evaluations.max(1)
        );

        let models = library.num_models();
        measure(&format!("ablation/lazy_greedy/eager/{models}"), 10, || {
            TrimCachingGen::new().place(&scenario).unwrap()
        });
        measure(&format!("ablation/lazy_greedy/lazy/{models}"), 10, || {
            TrimCachingGenLazy::new().place(&scenario).unwrap()
        });
    }

    let library = SpecialCaseBuilder::paper_setup()
        .models_per_backbone(10)
        .build(2024);
    let mut topology = TopologyConfig::paper_defaults()
        .with_users(3_000)
        .with_capacity_gb(0.25);
    topology.demand.personalised_popularity = false;
    topology.radio.activity_probability = 0.0067;
    let scenario = topology
        .generate(&library, 2024, 0)
        .expect("topology generates");
    let shifted = rotate_popularity(scenario.demand(), 7).expect("rotation");
    let replan = TrimCachingGenLazy::new()
        .place_with_demand(&scenario, &shifted)
        .expect("re-plan runs");
    let objective = scenario.objective_with_demand(&shifted).expect("objective");
    assert_eq!(replan.placement, pointwise_greedy(&scenario, &objective));
    eprintln!(
        "[lazy_greedy] replan K = {}, I = {}: lazy {} evaluations, {} pairs placed",
        scenario.num_users(),
        scenario.num_models(),
        replan.evaluations,
        replan.placement.len()
    );
    measure(
        &format!("ablation/lazy_greedy/replan/{}", scenario.num_users()),
        10,
        || {
            TrimCachingGenLazy::new()
                .place_with_demand(&scenario, &shifted)
                .unwrap()
        },
    );
}
