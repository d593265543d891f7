//! Fault-injection integration tests: deterministic outage storms,
//! serve-path failover, retrying fills, self-healing re-replication and
//! durable runs killed *during* an outage.
//!
//! The central claims under test:
//!
//! * a faulted run is a pure function of its seed — same seed, same
//!   schedule, byte-identical report (pinned property-based);
//! * failover strictly dominates the static baseline on availability
//!   **and** hit ratio when ≥ 10% of the fleet is down;
//! * a persisted run killed mid-outage — servers down, retries pending,
//!   a re-replication target armed — resumes to a report and journal
//!   byte-for-byte identical to the uninterrupted run.

use std::path::{Path, PathBuf};

use proptest::prelude::*;

use trimcaching::modellib::builders::SpecialCaseBuilder;
use trimcaching::prelude::*;
use trimcaching::runtime::{
    serve, ControlConfig, CostAwareLfu, FaultConfig, FaultKind, FaultSpec, Lru, PersistConfig,
    RecoveryMode, ServeConfig, ServeEngine, ServeReport,
};

/// A fresh scratch directory under the system temp dir, unique per
/// test and process so parallel test runs never collide.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tc-faults-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn scenario(num_users: usize, capacity_gb: f64) -> Scenario {
    let library = SpecialCaseBuilder::paper_setup()
        .models_per_backbone(3)
        .build(7);
    TopologyConfig::paper_defaults()
        .with_users(num_users)
        .with_capacity_gb(capacity_gb)
        .generate(&library, 7, 0)
        .expect("topology generates")
}

/// A configuration exercising every stateful subsystem alongside the
/// fault machinery: mobility, the control loop, fills and transfers.
fn full_config(seed: u64) -> ServeConfig {
    ServeConfig::smoke()
        .with_duration_s(240.0)
        .with_request_rate_hz(0.1)
        .with_seed(seed)
        .with_mobility_slot_s(5.0)
        .with_control(ControlConfig::paper_defaults().with_tick_s(30.0))
}

fn persisted(config: &ServeConfig, dir: &Path, every_s: f64) -> ServeConfig {
    config
        .clone()
        .with_persist(PersistConfig::new(dir.to_path_buf()).with_checkpoint_every_s(every_s))
}

fn run_full(s: &Scenario, config: &ServeConfig) -> ServeReport {
    ServeEngine::new(s, &CostAwareLfu, config.clone())
        .expect("engine builds")
        .run()
        .expect("run completes")
}

/// An explicit compound fault with cold recovery: the busiest server's
/// backhaul link crawls from t=10 (so fills are in flight when the
/// server fails), the server is down from t=50 to t=170, and the link
/// heals last — the timeline every durable test below shares. It
/// drives every branch of the fault machinery at once: aborted fills,
/// retry backoff, failover, recovery loss and link restoration.
fn explicit_outage() -> FaultConfig {
    FaultConfig::new(vec![
        FaultSpec {
            at_s: 10.0,
            kind: FaultKind::LinkDegraded {
                server: 4,
                factor: 0.002,
            },
        },
        FaultSpec {
            at_s: 50.0,
            kind: FaultKind::ServerDown { server: 4 },
        },
        FaultSpec {
            at_s: 170.0,
            kind: FaultKind::ServerUp { server: 4 },
        },
        FaultSpec {
            at_s: 180.0,
            kind: FaultKind::LinkRestored { server: 4 },
        },
    ])
    .with_recovery(RecoveryMode::Cold)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Same seed, same storm, byte-identical reports — across random
    /// storm shapes, recovery modes and failover settings.
    #[test]
    fn same_seed_faulted_runs_are_byte_identical(
        storm_seed in 0u64..1_000,
        down_fraction in 0.1f64..0.5,
        start_s in 30.0f64..90.0,
        outage_s in 60.0f64..120.0,
        recovery_tag in 0usize..3,
        failover in any::<bool>(),
    ) {
        let s = scenario(8, 0.4);
        let recovery = match recovery_tag {
            0 => RecoveryMode::Intact,
            1 => RecoveryMode::Cold,
            _ => RecoveryMode::Partial { keep_fraction: 0.5 },
        };
        let storm = FaultConfig::outage_storm(
            s.num_servers(), down_fraction, start_s, outage_s, storm_seed,
        )
        .expect("storm generates")
        .with_recovery(recovery)
        .with_failover(failover);
        let config = full_config(48).with_faults(storm);
        let a = run_full(&s, &config);
        let b = run_full(&s, &config);
        prop_assert_eq!(&a, &b, "same-seed faulted runs must be identical");
        prop_assert!(a.metrics.faults_injected > 0, "the storm must fire");
    }
}

/// The acceptance bar: under a scheduled outage covering ≥ 10% of the
/// fleet, failover-enabled serving sustains strictly higher availability
/// *and* hit ratio than the failover-disabled baseline.
#[test]
fn failover_strictly_beats_the_static_baseline_under_a_fleet_outage() {
    let library = SpecialCaseBuilder::paper_setup()
        .models_per_backbone(2)
        .build(7);
    let s = TopologyConfig::paper_defaults()
        .with_users(20)
        .with_capacity_gb(0.25)
        .generate(&library, 7, 0)
        .expect("topology generates");
    let storm = |failover| {
        FaultConfig::outage_storm(s.num_servers(), 0.25, 120.0, 180.0, 7)
            .expect("storm generates")
            .with_recovery(RecoveryMode::Partial { keep_fraction: 0.5 })
            .with_failover(failover)
    };
    let config = |failover| {
        ServeConfig::paper_defaults()
            .with_duration_s(600.0)
            .with_request_rate_hz(0.2)
            .with_seed(7)
            .with_mobility_slot_s(5.0)
            .with_control(ControlConfig::paper_defaults().with_tick_s(30.0))
            .with_faults(storm(failover))
    };
    let stat = serve(&s, &Lru, None, &config(false)).expect("static run");
    let over = serve(&s, &Lru, None, &config(true)).expect("failover run");
    assert!(
        stat.metrics.requests_failed > 0,
        "the storm must fail requests without failover"
    );
    assert!(
        over.metrics.availability() > stat.metrics.availability(),
        "failover must strictly raise availability: {} vs {}",
        over.metrics.availability(),
        stat.metrics.availability()
    );
    assert!(
        over.metrics.hit_ratio() > stat.metrics.hit_ratio(),
        "failover must strictly raise hit ratio: {} vs {}",
        over.metrics.hit_ratio(),
        stat.metrics.hit_ratio()
    );
    assert!(over.metrics.requests_failed_over > 0);
    assert!(over.metrics.models_lost > 0, "partial recovery lost models");
}

/// Kill the persisted run while server 0 is down — fill retries queued,
/// the link degraded, a re-replication pass still ahead — and resume:
/// report and journal must match the uninterrupted run byte for byte.
#[test]
fn resume_mid_outage_is_byte_identical() {
    let s = scenario(10, 0.4);
    let config = full_config(49).with_faults(explicit_outage());

    let base_dir = scratch_dir("mid-outage-base");
    let reference = run_full(&s, &persisted(&config, &base_dir, 60.0));
    assert_eq!(reference.metrics.faults_injected, 2);
    assert_eq!(reference.metrics.faults_recovered, 2);
    assert!(reference.metrics.models_lost > 0, "cold recovery bites");
    assert!(
        reference.metrics.fills_aborted > 0,
        "the outage caught fills"
    );
    assert!(reference.metrics.fill_retries > 0, "retries were scheduled");
    let reference_journal = std::fs::read(base_dir.join("journal_0.tcj")).expect("journal exists");

    // Kill points inside the outage window (checkpoints at 60 and 120
    // both persist down-server state) and after full recovery.
    for (i, stop_s) in [70.0, 100.0, 145.0, 200.0].into_iter().enumerate() {
        let dir = scratch_dir(&format!("mid-outage-{i}"));
        let pc = || PersistConfig::new(dir.clone()).with_checkpoint_every_s(60.0);
        ServeEngine::new(&s, &CostAwareLfu, config.clone().with_persist(pc()))
            .expect("engine builds")
            .run_until(stop_s)
            .expect("interrupted run");
        let resumed = ServeEngine::resume(&s, &CostAwareLfu, pc())
            .expect("resume succeeds")
            .run()
            .expect("resumed run completes");
        assert_eq!(
            resumed, reference,
            "report after a kill at t={stop_s} must match the uninterrupted run"
        );
        let journal = std::fs::read(dir.join("journal_0.tcj")).expect("journal exists");
        assert_eq!(
            journal, reference_journal,
            "journal after a kill at t={stop_s} must be byte-identical"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&base_dir).ok();
}

/// Faults must be invisible when the schedule is empty, and persistence
/// must stay invisible when faults are on.
#[test]
fn empty_schedules_and_persistence_change_nothing() {
    let s = scenario(8, 0.4);
    let plain = run_full(&s, &full_config(50));
    let empty = run_full(
        &s,
        &full_config(50).with_faults(FaultConfig::new(Vec::new())),
    );
    assert_eq!(plain, empty, "an empty fault schedule must be a no-op");

    let dir = scratch_dir("transparent");
    let faulted = full_config(50).with_faults(explicit_outage());
    let live = run_full(&s, &faulted);
    let durable = run_full(&s, &persisted(&faulted, &dir, 60.0));
    assert_eq!(
        live, durable,
        "journaling a faulted run must not change its outcome"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The CI chaos smoke: a storm over a quarter of the fleet with cold
/// recovery, killed mid-outage and resumed — deterministic, available
/// and byte-identical end to end.
#[test]
fn chaos_smoke_storm_resume() {
    let s = scenario(8, 0.4);
    let storm = FaultConfig::outage_storm(s.num_servers(), 0.25, 60.0, 120.0, 9)
        .expect("storm generates")
        .with_recovery(RecoveryMode::Cold);
    let config = full_config(51).with_faults(storm);
    let reference = run_full(&s, &config);
    assert!(reference.metrics.faults_injected > 0, "the storm fired");
    assert!(
        reference.metrics.availability() > 0.5,
        "failover keeps the run mostly available"
    );

    let dir = scratch_dir("chaos-smoke");
    let pc = || PersistConfig::new(dir.clone()).with_checkpoint_every_s(60.0);
    ServeEngine::new(&s, &CostAwareLfu, config.with_persist(pc()))
        .expect("engine builds")
        .run_until(110.0)
        .expect("killed mid-outage");
    let resumed = ServeEngine::resume(&s, &CostAwareLfu, pc())
        .expect("resume succeeds")
        .run()
        .expect("resumed run completes");
    assert_eq!(resumed, reference, "chaos resume must be byte-identical");
    std::fs::remove_dir_all(&dir).ok();
}
