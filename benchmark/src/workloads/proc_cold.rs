//! `proc_cold`: what `figure1 --backend proc` costs a user. Every op spawns
//! a fresh two-worker pool, runs the figure's sweep through it and reaps it,
//! so spawn, handshake, config broadcast, spec shipping and the per-cell
//! JSON round trips are all inside the op.

use std::sync::Arc;
use std::time::Instant;

use numadag::prelude::*;

use super::{
    check_against_baseline, check_structure, closed_loop, note_failure, parse_policies,
    repeat_setup, same_measurements, sweep, Outcome, REPLAY_EVERY,
};
use crate::calibrate::Calibrator;
use crate::seeds::{SeedSchedule, Stream, CANONICAL_SEED, FIG1_POLICIES};

pub const WORKERS: usize = 2;
/// Op of the measured phase after which memory is read.
const RSS_MARK: usize = 30;

/// What one op brought back.
pub struct ProcOp {
    pub report: SweepReport,
    pub stats: PoolStats,
    /// Largest `VmHWM` among the workers just before they were dismissed.
    pub worker_peak_rss_mb: f64,
}

/// One op: spawn -> sweep through the pool -> JSON -> reap. Returns the
/// seconds spent reading the workers' `/proc` entries, which the caller
/// leaves out of the op's wall.
pub fn op(policies: &[PolicyKind], seed: u64, specs: &Arc<SpecCache>) -> (ProcOp, f64) {
    let pool = WorkerPool::spawn(PoolConfig::new(WORKERS)).expect("the worker pool spawns");
    let config = ExecutionConfig::new(Topology::bullion_s16()).with_seed(seed);
    let executor = ProcExecutor::with_pool(config, Arc::clone(&pool));
    let report = sweep(policies, ProblemScale::Full, seed, Arc::clone(specs)).run_on(&executor);
    std::hint::black_box(report.to_json_string());

    let bookkeeping = Instant::now();
    let stats = pool.stats();
    let worker_peak_rss_mb = crate::host::child_pids()
        .iter()
        .filter_map(|pid| crate::host::peak_rss_mb(pid))
        .fold(0.0, f64::max);
    let excluded_s = bookkeeping.elapsed().as_secs_f64();

    drop(executor);
    drop(pool);
    (
        ProcOp {
            report,
            stats,
            worker_peak_rss_mb,
        },
        excluded_s,
    )
}

pub fn check_op(op: &ProcOp) -> Result<(), String> {
    check_structure(&op.report, 40)?;
    if op.report.backend != "proc" {
        return Err(format!("backend label {:?}", op.report.backend));
    }
    if (op.stats.workers_alive, op.stats.redispatches) != (WORKERS as u64, 0) {
        return Err(format!(
            "workers_alive={} redispatches={}",
            op.stats.workers_alive, op.stats.redispatches
        ));
    }
    Ok(())
}

/// Eight Full specs on a fresh coordinator cache.
pub fn warm_specs() -> Arc<SpecCache> {
    let specs = Arc::new(SpecCache::new());
    for app in Application::all() {
        specs.get(
            app,
            ProblemScale::Full,
            Topology::bullion_s16().num_sockets(),
        );
    }
    specs
}

/// One complete set-up: the coordinator's specs and one op.
pub fn set_up(policies: &[PolicyKind], seeds: &mut SeedSchedule) -> Arc<SpecCache> {
    let specs = warm_specs();
    std::hint::black_box(op(policies, seeds.next_seed(), &specs));
    specs
}

pub fn run(benchmark_seed: u64, seconds: u64) -> Outcome {
    let policies = parse_policies(FIG1_POLICIES);
    let mut failures = Vec::new();

    let mut setup_seeds = SeedSchedule::new(benchmark_seed, Stream::Setup);
    let set_ups = repeat_setup(|| set_up(&policies, &mut setup_seeds), drop);
    let specs = set_ups.state;

    let mut seeds = SeedSchedule::new(benchmark_seed, Stream::Measured);
    let mut kept: Vec<(usize, SweepReport)> = Vec::new();
    let mut worker_peak_rss_mb = 0.0f64;
    let phase_start = Instant::now();
    let mut calibrator = Calibrator::new(phase_start);
    let (mut ops, own_peak_rss_mb) = closed_loop(
        phase_start,
        seconds,
        RSS_MARK,
        &mut calibrator,
        || op(&policies, seeds.next_seed(), &specs),
        |index, result| {
            if index < RSS_MARK {
                worker_peak_rss_mb = worker_peak_rss_mb.max(result.worker_peak_rss_mb);
            }
            let verdict = check_op(&result);
            if index % REPLAY_EVERY == 0 {
                kept.push((index, result.report));
            }
            match verdict {
                Ok(()) => true,
                Err(e) => {
                    note_failure(&mut failures, format!("op {index}: {e}"));
                    false
                }
            }
        },
    );

    for (index, report) in kept {
        let local = sweep(
            &policies,
            ProblemScale::Full,
            report.seed,
            Arc::clone(&specs),
        )
        .run();
        if let Err(e) = same_measurements(&local, &report, false) {
            note_failure(
                &mut failures,
                format!("op {index}: replay of seed {:#x}: {e}", report.seed),
            );
            ops[index].ok = false;
        }
    }

    let (canonical, _) = op(&policies, CANONICAL_SEED, &specs);
    if let Err(e) =
        check_op(&canonical).and_then(|()| check_against_baseline(&canonical.report, false, "proc"))
    {
        note_failure(&mut failures, format!("canonical seed: {e}"));
    }

    Outcome {
        ops,
        setup_s: set_ups.walls_s,
        setup_slowdown: set_ups.slowdown,
        setup_peak_rss_mb: set_ups.peak_rss_mb,
        calibration: calibrator.samples().to_vec(),
        failures,
        sim_geomean_speedup: canonical
            .report
            .geomean_of("RGP+LAS:prop=repart")
            .unwrap_or(0.0),
        peak_rss_mb: own_peak_rss_mb + worker_peak_rss_mb,
        rss_mark: RSS_MARK,
    }
}
