//! A whole proc session, pinned: each row spawns a 2-worker pool, runs a
//! Figure-1 sweep through `Backend::Proc` on it exactly as `figure1
//! --backend proc` does, and compares the report with the committed
//! baseline bytes and the pool's counters with what that session must
//! leave behind. A rewrite of the coordinator that keeps its behaviour
//! keeps every row.

use std::sync::{Arc, Mutex, Once, PoisonError};

use numadag::prelude::*;
use numadag::proc::CONNECT_ENV;

/// Worker re-entry point: each row's pool re-execs this test binary with
/// `proc_worker_entry --exact` as the argv. Without the rendezvous
/// environment it is an instant pass.
#[test]
fn proc_worker_entry() {
    if std::env::var(CONNECT_ENV).is_ok() {
        numadag::proc::run_worker_from_env().expect("worker loop failed");
    }
}

/// The pool `Backend::Proc` executors attach to while a row runs. Rows take
/// turns (the factory is process-wide), so each sees only its own pool.
static ROW_POOL: Mutex<Option<Arc<WorkerPool>>> = Mutex::new(None);
static ROW: Mutex<()> = Mutex::new(());

/// Runs `figure1 --scale <scale> [--policies <policies>] --backend proc
/// --jobs <jobs>` on a fresh 2-worker pool whose workers get `env`, and
/// returns the report's JSON and the pool's counters after the sweep.
fn session(
    scale: &str,
    policies: Option<&str>,
    jobs: usize,
    env: &[(&str, &str)],
) -> (String, PoolStats) {
    static FACTORY: Once = Once::new();
    FACTORY.call_once(|| {
        numadag::runtime::register_proc_backend(Box::new(|config, _workers| {
            let pool = ROW_POOL.lock().unwrap_or_else(PoisonError::into_inner);
            let pool = pool.clone().expect("a row's pool is installed");
            Box::new(ProcExecutor::with_pool(config, pool))
        }));
    });
    let _row = ROW.lock().unwrap_or_else(PoisonError::into_inner);

    let mut config = PoolConfig::new(2)
        .with_worker_args(vec!["proc_worker_entry".to_string(), "--exact".to_string()]);
    for (key, value) in env {
        config = config.with_env(key, value);
    }
    let pool = WorkerPool::spawn(config).expect("worker pool spawns");
    *ROW_POOL.lock().unwrap_or_else(PoisonError::into_inner) = Some(Arc::clone(&pool));

    let mut sweep = SweepSpec::default();
    let flags = [("--scale", Some(scale)), ("--policies", policies)];
    for (flag, value) in flags.into_iter().filter(|(_, value)| value.is_some()) {
        sweep.set_flag(flag, value).expect("a sweep flag");
    }
    sweep.set_flag("--backend", Some("proc")).expect("proc");
    let report = sweep
        .resolve()
        .expect("the sweep resolves")
        .experiment(Topology::bullion_s16(), Arc::new(SpecCache::new()))
        .plan()
        .execute(jobs);

    *ROW_POOL.lock().unwrap_or_else(PoisonError::into_inner) = None;
    (report.to_json_string(), pool.stats())
}

const FULL_POLICIES: &str = "dfifo,rgp-las,rgp-las:prop=repart,ep";
const TINY: &str = include_str!("../BENCH_figure1_tiny.json");
const FULL: &str = include_str!("../BENCH_figure1_full.json");

#[test]
fn a_serial_tiny_sweep_ships_each_spec_once_and_seven_ahead() {
    let (json, stats) = session("tiny", None, 1, &[]);
    assert_eq!(json, TINY, "the proc sweep moved the committed baseline");
    assert_eq!(
        stats,
        PoolStats {
            workers_spawned: 2,
            workers_alive: 2,
            cells_dispatched: 32,
            redispatches: 0,
            config_broadcasts: 2,
            spec_transfers: 8,
            spec_prefetches: 7,
            barriers: 1,
        }
    );
}

#[test]
fn a_serial_full_sweep_ships_each_spec_once_and_seven_ahead() {
    let (json, stats) = session("full", Some(FULL_POLICIES), 1, &[]);
    assert_eq!(json, FULL, "the proc sweep moved the committed baseline");
    assert_eq!(
        stats,
        PoolStats {
            workers_spawned: 2,
            workers_alive: 2,
            cells_dispatched: 40,
            redispatches: 0,
            config_broadcasts: 2,
            spec_transfers: 8,
            spec_prefetches: 7,
            barriers: 1,
        }
    );
}

#[test]
fn a_two_job_full_sweep_ships_each_spec_at_most_once_per_worker() {
    let (json, stats) = session("full", Some(FULL_POLICIES), 2, &[]);
    assert_eq!(json, FULL, "the proc sweep moved the committed baseline");
    assert!(
        (8..=16).contains(&stats.spec_transfers),
        "spec_transfers={}",
        stats.spec_transfers
    );
    assert_eq!(stats.redispatches, 0);
    assert_eq!(stats.cells_dispatched, 40);
}

#[test]
fn a_full_sweep_that_loses_a_worker_redispatches_one_cell() {
    let env = [
        ("NUMADAG_PROC_CRASH_AFTER", "3"),
        ("NUMADAG_PROC_CRASH_WORKER", "1"),
    ];
    let (json, stats) = session("full", Some(FULL_POLICIES), 1, &env);
    assert_eq!(json, FULL, "the proc sweep moved the committed baseline");
    assert_eq!(
        stats,
        PoolStats {
            workers_spawned: 2,
            workers_alive: 1,
            cells_dispatched: 40,
            redispatches: 1,
            config_broadcasts: 2,
            spec_transfers: 9,
            spec_prefetches: 2,
            barriers: 1,
        }
    );
}
