//! Cell execution: the scoped-thread fan-out that serves every cell of
//! a sweep grid.
//!
//! Each cell runs on **one** engine worker thread inside a
//! [`ShardedServeEngine`] — parallelism lives at the sweep level, on the
//! same `par_map` fan-out as the Monte-Carlo driver. Results come back
//! in cell order, so the report (and therefore every artefact byte) is
//! independent of the worker count; a cell is
//! also individually reproducible from `(spec, index)` alone, since its
//! seed derives from the spec fingerprint.

use trimcaching_modellib::builders::SpecialCaseBuilder;
use trimcaching_modellib::ModelId;
use trimcaching_runtime::fanout::par_map;
use trimcaching_runtime::{
    ControlConfig, FaultConfig, PopularityShift, ServeConfig, ShardedServeEngine, Workload,
};

use super::{Cell, SweepSpec, WorkloadFamily};
use crate::topology::CityScaleConfig;
use crate::SimError;

/// Fraction of the horizon at which a flash crowd (or outage storm)
/// begins.
const EVENT_START_FRACTION: f64 = 0.3;
/// Fraction of the horizon an injected event lasts.
const EVENT_LENGTH_FRACTION: f64 = 0.3;
/// Popularity boost of the flash-crowd hot model.
const FLASH_BOOST: f64 = 4.0;
/// Piecewise epochs of the `shift` and `diurnal` families.
const PHASES: usize = 4;
/// Fraction of servers an outage storm takes down.
const STORM_DOWN_FRACTION: f64 = 0.25;

/// The measured outcome of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// The cell that ran.
    pub cell: Cell,
    /// Requests issued over the horizon.
    pub requests: u64,
    /// Cache hit ratio.
    pub hit_ratio: f64,
    /// 95th-percentile serving latency in milliseconds (`0` when no
    /// request was served).
    pub p95_latency_ms: f64,
    /// Fraction of requests served within their deadline.
    pub availability: f64,
    /// Bytes moved over the backhaul by fills and migrations.
    pub backhaul_bytes: u64,
    /// Offered load, `requests / duration_s`: the simulated request
    /// arrival rate, not a throughput (rejected requests count too).
    pub offered_req_per_s: f64,
}

/// A completed sweep: the spec identity plus one outcome per cell, in
/// canonical cell order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Sweep name from the spec.
    pub name: String,
    /// FNV-1a fingerprint of the canonical spec.
    pub fingerprint: u64,
    /// Horizon the cells served, in simulated seconds.
    pub duration_s: f64,
    /// Per-cell outcomes, indexed by cell index.
    pub outcomes: Vec<CellOutcome>,
}

/// Expands `spec` and serves every cell across `threads` workers
/// (`0` = one per available CPU). The returned report is identical for
/// any worker count.
///
/// # Errors
///
/// Returns the [`SimError`] of spec validation, or of the lowest-index
/// failing cell (topology generation or a serving engine).
pub fn run_sweep(spec: &SweepSpec, threads: usize) -> Result<SweepReport, SimError> {
    let mut cells = spec.cells()?;
    let outcomes = par_map(&mut cells, threads, |_, cell| run_cell(spec, cell))?;
    Ok(SweepReport {
        name: spec.name.clone(),
        fingerprint: spec.fingerprint(),
        duration_s: spec.duration_s,
        outcomes,
    })
}

/// Serves one cell: builds its topology, workload and serving
/// configuration from `(spec, cell)` and runs the sharded engine on a
/// single worker thread.
///
/// # Errors
///
/// Propagates topology, workload and engine errors as [`SimError`].
pub fn run_cell(spec: &SweepSpec, cell: &Cell) -> Result<CellOutcome, SimError> {
    let library = SpecialCaseBuilder::paper_setup()
        .models_per_backbone(spec.models_per_backbone)
        .build(spec.library_seed);
    let mut city = CityScaleConfig::district()
        .with_users(cell.users)
        .with_servers_per_km2(spec.servers_per_km2);
    city.area_side_m = spec.area_side_m;
    city.capacity_gb = cell.capacity_gb;
    if !cell.tiers.is_empty() {
        city = city.with_storage_tiers(cell.tiers.clone());
    }
    city = match cell.workload {
        WorkloadFamily::Regional => city.with_regional_grid(spec.regional_grid),
        WorkloadFamily::Commuter => city
            .with_commuter_homes()
            .with_demand_classes(spec.demand_classes),
        _ => city.with_demand_classes(spec.demand_classes),
    };
    let scenario = city.generate(&library, cell.seed, 0)?;

    let mut config = ServeConfig::paper_defaults()
        .with_seed(cell.seed)
        .with_duration_s(spec.duration_s)
        .with_request_rate_hz(spec.request_rate_hz)
        .with_granularity(cell.granularity);
    if spec.mobility_slot_s > 0.0 {
        config = config.with_mobility_slot_s(spec.mobility_slot_s);
    }
    if cell.control {
        config = config.with_control(ControlConfig::paper_defaults());
    }
    if cell.faults {
        let storm = FaultConfig::outage_storm(
            scenario.num_servers(),
            STORM_DOWN_FRACTION,
            spec.duration_s * EVENT_START_FRACTION,
            spec.duration_s * EVENT_LENGTH_FRACTION,
            cell.seed,
        )?
        .with_failover(true);
        config = config.with_faults(storm);
    }

    let workload = match cell.workload {
        // Regional and commuter are topology-level families: their
        // arrivals stay stationary over the (clustered) demand.
        WorkloadFamily::Stationary | WorkloadFamily::Regional | WorkloadFamily::Commuter => None,
        WorkloadFamily::Shift => Some(
            PopularityShift::new(spec.duration_s / PHASES as f64, PHASES, cell.seed)
                .workload(scenario.demand(), spec.request_rate_hz)?,
        ),
        WorkloadFamily::FlashCrowd => Some(Workload::flash_crowd(
            scenario.demand(),
            spec.request_rate_hz,
            spec.duration_s * EVENT_START_FRACTION,
            spec.duration_s * EVENT_LENGTH_FRACTION,
            ModelId(0),
            FLASH_BOOST,
        )?),
        WorkloadFamily::Diurnal => Some(Workload::diurnal_tide(
            scenario.demand(),
            spec.request_rate_hz,
            spec.duration_s,
            PHASES,
            1,
        )?),
    };

    let mut engine = ShardedServeEngine::new(&scenario, cell.policy.policy(), config, cell.shards)?
        .with_threads(1);
    if let Some(workload) = workload {
        engine.set_workload(workload)?;
    }
    let report = engine.run()?;
    let metrics = &report.metrics;
    Ok(CellOutcome {
        cell: cell.clone(),
        requests: metrics.requests,
        hit_ratio: metrics.hit_ratio(),
        p95_latency_ms: metrics.p95_latency_s().map_or(0.0, |s| s * 1e3),
        availability: metrics.availability(),
        backhaul_bytes: metrics.backhaul_bytes_moved,
        offered_req_per_s: metrics.requests as f64 / spec.duration_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::PolicyKind;

    fn tiny_spec() -> SweepSpec {
        let mut spec = SweepSpec::smoke();
        spec.name = "runner-test".into();
        spec.duration_s = 60.0;
        spec.users = vec![120];
        spec.area_side_m = 1_000.0;
        spec.demand_classes = 8;
        spec
    }

    #[test]
    fn sweep_reports_are_identical_across_worker_counts() {
        let mut spec = tiny_spec();
        spec.workloads = vec![WorkloadFamily::Stationary, WorkloadFamily::FlashCrowd];
        spec.policies = vec![PolicyKind::Lru, PolicyKind::CostLfu];
        spec.shards = vec![1, 2];
        let one = run_sweep(&spec, 1).unwrap();
        let four = run_sweep(&spec, 4).unwrap();
        assert_eq!(one, four);
        assert_eq!(one.outcomes.len(), 8);
        assert!(one.outcomes.iter().all(|o| o.requests > 0));
    }

    #[test]
    fn every_family_serves_and_seeds_are_reproducible() {
        let mut spec = tiny_spec();
        spec.workloads = WorkloadFamily::all().to_vec();
        let report = run_sweep(&spec, 0).unwrap();
        assert_eq!(report.outcomes.len(), 6);
        for outcome in &report.outcomes {
            assert!(outcome.requests > 0, "{:?} served nothing", outcome.cell);
            assert!(outcome.hit_ratio >= 0.0 && outcome.hit_ratio <= 1.0);
            assert!(outcome.availability >= 0.0 && outcome.availability <= 1.0);
            assert!((outcome.offered_req_per_s - outcome.requests as f64 / 60.0).abs() < 1e-12);
        }
        // A cell re-run standalone from (spec, cell) matches the report.
        let cells = spec.cells().unwrap();
        let alone = run_cell(&spec, &cells[2]).unwrap();
        assert_eq!(alone, report.outcomes[2]);
    }

    #[test]
    fn faulted_and_controlled_cells_run() {
        let mut spec = tiny_spec();
        spec.faults = vec![true];
        spec.control = vec![true];
        spec.shards = vec![2];
        let report = run_sweep(&spec, 2).unwrap();
        assert_eq!(report.outcomes.len(), 1);
        assert!(report.outcomes[0].requests > 0);
    }
}
