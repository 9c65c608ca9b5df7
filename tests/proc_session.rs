//! The behaviour envelope's proc rows (`tests/envelope.rs` holds the others).
//! Each row launches a 2-worker pool of its own, runs `figure1 --backend
//! proc` through the library path on it, holds the report to the committed
//! baseline bytes and compares every `PoolStats` field with what that
//! session must leave behind. Each row runs twice: on worker processes (this
//! test binary, re-exec'd) and on worker threads. Rows share nothing, so
//! they run in parallel. A rewrite of the coordinator that keeps its
//! behaviour keeps every row.

#[path = "../crates/proc/tests/relay/mod.rs"]
mod relay;
mod rows;

use std::sync::Arc;
use std::time::{Duration, Instant};

use numadag::prelude::*;
use numadag::proc::CONNECT_ENV;
use relay::{processes, threads, Action, Dir, Relay};
use rows::{assert_reproduces, figure1, FULL_ARGS};

/// How long a pool's drop may take: the deadline of its drain barrier and
/// of reaping its dismissed workers (`DRAIN_TIMEOUT` in the pool).
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Worker re-entry point: the process launcher re-execs this test binary
/// with `proc_worker_entry --exact` as the argv. Without the rendezvous
/// environment it is an instant pass.
#[test]
fn proc_worker_entry() {
    if std::env::var(CONNECT_ENV).is_ok() {
        numadag::proc::run_worker_from_env().expect("worker loop failed");
    }
}

/// Where a row's workers run.
#[derive(Clone, Copy, Debug)]
enum Workers {
    Processes,
    Threads,
}

/// Launches a 2-worker pool on `workers`; if `lost`, worker 1's link dies
/// on its fourth `assign`, as a worker exiting after its third cell would.
fn launch(workers: Workers, lost: bool) -> Arc<WorkerPool> {
    let crash = || Relay::new().on(1, Dir::ToWorker, "assign", 4, Action::Die);
    let pool = match (workers, lost) {
        (Workers::Processes, false) => WorkerPool::launch(2, processes),
        (Workers::Threads, false) => WorkerPool::launch(2, threads),
        (Workers::Processes, true) => WorkerPool::launch(2, crash().around(processes)),
        (Workers::Threads, true) => WorkerPool::launch(2, crash().around(threads)),
    };
    pool.expect("worker pool launches")
}

/// A 2-worker Full session that ships each of the eight specs once: the
/// sweep runs a lane per worker, and each lane keeps its workload on its
/// own worker.
const SHIPS_EACH_SPEC_ONCE: PoolStats = PoolStats {
    workers_spawned: 2,
    workers_alive: 2,
    cells_dispatched: 40,
    redispatches: 0,
    config_broadcasts: 2,
    spec_transfers: 8,
    barriers: 1,
};

/// Runs the proc row `figure1 <args> --backend proc --jobs <jobs>` on
/// worker processes and then on worker threads, with worker 1 lost after
/// its third cell if `lost`, and holds each run to the baseline and
/// `counters`. `--jobs 1` and `--jobs 2` both run two lanes, one per
/// worker, so they leave the same counters.
fn proc_row(args: &str, jobs: usize, lost: bool, counters: PoolStats) {
    let args = format!("{args} --backend proc --jobs {jobs}");
    for workers in [Workers::Processes, Workers::Threads] {
        let row = format!("figure1 {args}, worker 1 lost: {lost}, on {workers:?}");
        let pool = launch(workers, lost);
        let (_, report, baseline) = figure1(&args, None, Some(&pool));
        assert_reproduces(&row, &report.to_json_string(), &baseline);
        assert_eq!(pool.stats(), counters, "{row}");
    }
}

/// Tiny runs one policy column fewer than Full.
#[test]
fn a_serial_tiny_sweep_ships_each_spec_once() {
    let tiny = PoolStats {
        cells_dispatched: 32,
        ..SHIPS_EACH_SPEC_ONCE
    };
    proc_row("--scale tiny", 1, false, tiny);
}

#[test]
fn a_serial_full_sweep_ships_each_spec_once() {
    proc_row(FULL_ARGS, 1, false, SHIPS_EACH_SPEC_ONCE);
}

#[test]
fn a_two_job_full_sweep_ships_each_spec_at_most_once_per_worker() {
    proc_row(FULL_ARGS, 2, false, SHIPS_EACH_SPEC_ONCE);
}

/// Worker 1's fourth cell, of its lane's first workload, goes to worker 0,
/// which is then shipped the spec worker 1 held; both lanes finish there.
#[test]
fn a_full_sweep_that_loses_a_worker_redispatches_one_cell() {
    let loses_worker_1 = PoolStats {
        workers_alive: 1,
        redispatches: 1,
        spec_transfers: 9,
        ..SHIPS_EACH_SPEC_ONCE
    };
    proc_row(FULL_ARGS, 1, true, loses_worker_1);
}

/// Proc workers trace under one config epoch (one `config` each) and their
/// events ride in `done`: the trace files are the in-process ones.
#[test]
fn a_traced_tiny_sweep_records_the_same_traces_in_process_and_through_proc() {
    let traced = |args: &str, pool: Option<&Arc<WorkerPool>>| {
        let collector = Arc::new(TraceCollector::new());
        let (_, report, baseline) = figure1(args, Some(Arc::clone(&collector)), pool);
        let row = format!("figure1 {args}, traced");
        assert_reproduces(&row, &report.to_json_string(), &baseline);
        // Cells are recorded in completion order.
        let mut traces = collector.take();
        traces.sort_by(|a, b| (&a.workload, &a.policy).cmp(&(&b.workload, &b.policy)));
        traces
    };
    let in_process = traced("--scale tiny --jobs 2", None);
    let pool = launch(Workers::Processes, false);
    let through_proc = traced("--scale tiny --backend proc", Some(&pool));
    assert_eq!(pool.stats().config_broadcasts, 2, "traced proc tiny");
    assert_eq!(in_process.len(), 32);
    assert!(in_process == through_proc, "proc traces differ");
}

/// Breaks worker 1's `nth` `barrier_ack` (1: the startup barrier's, 2: the
/// drain barrier's) with `breakage`, on worker processes and then on
/// worker threads. The pool starts with the workers the startup barrier
/// left alive, a Tiny sweep on it reproduces the baseline and leaves
/// `counters`, and dropping it returns within [`DRAIN_TIMEOUT`] with both
/// workers reaped, after each barrier went to every worker it had.
fn barrier_row(nth: u64, breakage: Action, counters: PoolStats) {
    let args = "--scale tiny --backend proc";
    for workers in [Workers::Processes, Workers::Threads] {
        let row = format!("{breakage:?} on barrier_ack {nth}, on {workers:?}");
        let relay = Relay::new().on(1, Dir::ToCoordinator, "barrier_ack", nth, breakage);
        let tally = relay.tally();
        let pool = match workers {
            Workers::Processes => WorkerPool::launch(2, relay.around(processes)),
            Workers::Threads => WorkerPool::launch(2, relay.around(threads)),
        };
        let pool = pool.unwrap_or_else(|e| panic!("{row}: {e}"));
        assert_eq!(pool.stats().workers_alive, counters.workers_alive, "{row}");
        let (_, report, baseline) = figure1(args, None, Some(&pool));
        assert_reproduces(&row, &report.to_json_string(), &baseline);
        assert_eq!(pool.stats(), counters, "{row}");
        assert_eq!(Arc::strong_count(&pool), 1, "{row}: the row holds the pool");
        let dropping = Instant::now();
        drop(pool);
        let took = dropping.elapsed();
        assert!(took < DRAIN_TIMEOUT, "{row}: the drop took {took:?}");
        assert_eq!(tally.reaped(), 2, "{row}: both workers reaped");
        let barriers = 2 + counters.workers_alive;
        assert_eq!(tally.lines(Dir::ToWorker, "barrier"), barriers, "{row}");
    }
}

/// Worker 1's startup `barrier_ack` never arrives whole: its link dies
/// before it, turns it into a line that is not JSON, or cuts it halfway.
/// The pool starts with worker 0 alone and runs the sweep on it: one lane,
/// one config, every spec shipped to worker 0.
#[test]
fn a_startup_barrier_broken_on_the_way_loses_only_its_worker() {
    let tiny_on_worker_0 = PoolStats {
        workers_alive: 1,
        cells_dispatched: 32,
        config_broadcasts: 1,
        ..SHIPS_EACH_SPEC_ONCE
    };
    for breakage in [Action::Die, Action::Garbage, Action::Truncate] {
        barrier_row(1, breakage, tiny_on_worker_0);
    }
}

/// Worker 1's drain `barrier_ack` never arrives whole: the drop loses it at
/// once, dismisses worker 0, and reaps both.
#[test]
fn a_drain_barrier_broken_on_the_way_still_reaps_both_workers() {
    let tiny = PoolStats {
        cells_dispatched: 32,
        ..SHIPS_EACH_SPEC_ONCE
    };
    for breakage in [Action::Die, Action::Garbage, Action::Truncate] {
        barrier_row(2, breakage, tiny);
    }
}
