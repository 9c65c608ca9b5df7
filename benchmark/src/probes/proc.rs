//! numadag-proc: the life cycle of `proc_cold`'s op with a span per stage
//! (spawn, plan, every cell's round trip, assemble, encode, drop), the
//! workers' own CPU and memory read from `/proc`, and a warm pool measured
//! directly so shipping can be told from steady-state overhead.

use std::sync::Arc;

use numadag::core::PolicyKind;
use numadag::kernels::{Application, ProblemScale, SpecCache};
use numadag::numa::Topology;
use numadag::proc::{PoolConfig, PoolStats, ProcExecutor, WorkerPool};
use numadag::runtime::{ExecutionConfig, Experiment, SweepReport};

use super::runtime::{median_span_ms, per_op, run_cells, ExecState, SpanExecutor};
use super::time_ms;
use crate::metrics::Metrics;
use crate::seeds::SeedSchedule;
use crate::spans::{Span, NO_PARENT};
use crate::stats::median;
use crate::workloads::proc_cold::WORKERS;
use crate::workloads::sweep;

fn executor(seed: u64, pool: &Arc<WorkerPool>) -> ProcExecutor {
    let config = ExecutionConfig::new(Topology::bullion_s16()).with_seed(seed);
    ProcExecutor::with_pool(config, Arc::clone(pool))
}

/// What the workers of one op looked like just before they were dismissed.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerSample {
    pub cpu_ms: f64,
    pub peak_rss_mb: f64,
}

fn sample_workers() -> WorkerSample {
    let pids = crate::host::child_pids();
    WorkerSample {
        cpu_ms: pids
            .iter()
            .filter_map(|pid| crate::host::cpu_ms(pid, false))
            .sum(),
        peak_rss_mb: pids
            .iter()
            .filter_map(|pid| crate::host::peak_rss_mb(pid))
            .fold(0.0, f64::max),
    }
}

/// One traced op: `proc_cold`'s op with `run_on` spelled out.
pub fn traced_op(
    state: ExecState,
    policies: &[PolicyKind],
    seed: u64,
    specs: &Arc<SpecCache>,
) -> (SweepReport, PoolStats, WorkerSample, ExecState) {
    let mut state = state;
    let op_id = state.op_id;
    (state.tasks, state.sim_bytes, state.remote_bytes) = (0, 0, 0);
    let root = state.buf.open("op", NO_PARENT, op_id);
    let span = state.buf.open("proc.spawn", root, op_id);
    let pool = WorkerPool::spawn(PoolConfig::new(WORKERS)).expect("the worker pool spawns");
    let inner = executor(seed, &pool);
    state.buf.close(span);
    let span = state.buf.open("runtime.plan", root, op_id);
    let plan = sweep(policies, ProblemScale::Full, seed, Arc::clone(specs)).plan();
    state.buf.close(span);

    let spans = SpanExecutor::new(Box::new(inner), "proc.cell_rtt", false, state);
    let report = run_cells(&plan, &spans, root);
    let mut state = spans.into_state(); // drops the ProcExecutor; `pool` lives on
    let span = state.buf.open("runtime.encode", root, op_id);
    std::hint::black_box(report.to_json_string());
    state.buf.close(span);

    let span = state.buf.open("bench.bookkeeping", root, op_id);
    let stats = pool.stats();
    let workers = sample_workers();
    state.buf.close(span);

    let span = state.buf.open("proc.drop", root, op_id);
    drop(pool);
    state.buf.close(span);
    state.buf.close(root);
    (report, stats, workers, state)
}

/// Wall of every traced op, without the benchmark's own bookkeeping, in ms.
pub fn op_walls_ms(spans: &[Span], ops: usize) -> Vec<f64> {
    per_op(spans, ops, |_, s| match s.name {
        "op" => Some(s.duration_ns() as f64 / 1e6),
        "bench.bookkeeping" => Some(-(s.duration_ns() as f64) / 1e6),
        _ => None,
    })
}

/// The stage metrics a loop of `ops` traced ops supports.
pub fn loop_metrics(
    m: &mut Metrics,
    spans: &[Span],
    ops: usize,
    last_stats: &PoolStats,
    workers: &[WorkerSample],
    coordinator_cpu_ms_per_op: f64,
) {
    m.set("proc.spawn_ms", median_span_ms(spans, ops, "proc.spawn"));
    m.set("proc.drop_ms", median_span_ms(spans, ops, "proc.drop"));
    // The first (and only) sweep of a fresh pool: plan, 40 round trips
    // (16 of which ship a spec first), assemble, encode.
    m.set(
        "proc.first_sweep_ms",
        median(&per_op(spans, ops, |_, s| {
            (s.name.starts_with("runtime.")).then(|| s.duration_ns() as f64 / 1e6)
        })),
    );
    m.set("proc.spec_transfers", last_stats.spec_transfers as f64);
    m.set(
        "proc.config_broadcasts",
        last_stats.config_broadcasts as f64,
    );
    m.set("proc.cells_dispatched", last_stats.cells_dispatched as f64);
    m.set("proc.redispatches", last_stats.redispatches as f64);
    m.set("proc.barriers", last_stats.barriers as f64);
    m.set("proc.workers_alive", last_stats.workers_alive as f64);
    let cpu: Vec<f64> = workers.iter().map(|w| w.cpu_ms).collect();
    m.set("proc.worker_cpu_ms_per_op", median(&cpu));
    m.set("proc.coordinator_cpu_ms_per_op", coordinator_cpu_ms_per_op);
    m.set(
        "proc.worker_peak_rss_mb",
        workers.iter().map(|w| w.peak_rss_mb).fold(0.0, f64::max),
    );
}

/// A warm pool, measured directly: steady sweeps after the first one has
/// shipped every spec, against the same sweep in-process, and the round
/// trip of a cell that computes almost nothing.
pub fn warm_pool(
    m: &mut Metrics,
    policies: &[PolicyKind],
    specs: &Arc<SpecCache>,
    seeds: &mut SeedSchedule,
    first_sweep_ms: f64,
) {
    let pool = WorkerPool::spawn(PoolConfig::new(WORKERS)).expect("the worker pool spawns");
    let through_pool = |experiment: Experiment, seed: u64| {
        let report = experiment.run_on(&executor(seed, &pool));
        std::hint::black_box(report.to_json_string());
    };
    let full = |seed| sweep(policies, ProblemScale::Full, seed, Arc::clone(specs));
    through_pool(full(seeds.next_seed()), 0); // ships the sixteen specs
    let steady: Vec<f64> = (0..3)
        .map(|_| {
            let seed = seeds.next_seed();
            time_ms(|| through_pool(full(seed), seed)).1
        })
        .collect();
    let local: Vec<f64> = (0..3)
        .map(|_| {
            let seed = seeds.next_seed();
            time_ms(|| std::hint::black_box(full(seed).run().to_json_string())).1
        })
        .collect();
    let steady_ms = median(&steady);
    m.set("proc.steady_sweep_ms", steady_ms);
    m.set("proc.ship_ms", first_sweep_ms - steady_ms);
    m.set(
        "proc.overhead_ms_per_cell",
        (steady_ms - median(&local)) / 40.0,
    );

    // Two Tiny NStream cells per sweep (DFIFO + the LAS baseline).
    let tiny = |seed| {
        Experiment::new()
            .app(Application::NStream)
            .scale(ProblemScale::Tiny)
            .policies([PolicyKind::Dfifo])
            .seed(seed)
            .spec_cache(Arc::clone(specs))
            .parallelism(1)
    };
    through_pool(tiny(seeds.next_seed()), 0); // ships the Tiny spec
    let per_cell: Vec<f64> = (0..30)
        .map(|_| {
            let seed = seeds.next_seed();
            time_ms(|| through_pool(tiny(seed), seed)).1 / 2.0
        })
        .collect();
    m.set("proc.cell_rtt_tiny_ms", median(&per_cell));
}
