//! The row harness of the behaviour envelope, shared by `tests/envelope.rs`
//! (in-process and serve rows) and `tests/proc_session.rs` (proc rows): the
//! committed baselines and the `figure1` library path a row runs.

use std::sync::Arc;

use numadag::prelude::*;

pub(crate) const TINY: &str = include_str!("../../BENCH_figure1_tiny.json");
const SMALL: &str = include_str!("../../BENCH_figure1_small.json");
pub(crate) const FULL: &str = include_str!("../../BENCH_figure1_full.json");

/// The sweep of the Full baseline.
pub(crate) const FULL_ARGS: &str = "--scale full --policies dfifo,rgp-las,rgp-las:prop=repart,ep";

/// The committed report of a sweep at `scale`.
fn committed(scale: &str) -> String {
    match scale {
        "tiny" => TINY,
        "full" => FULL,
        _ => SMALL,
    }
    .to_string()
}

/// Fails `row` unless `report` is the committed `baseline`, byte for byte.
pub(crate) fn assert_reproduces(row: &str, report: &str, baseline: &str) {
    assert!(report == baseline, "{row} moved the committed baseline");
}

/// The sweep, worker count and proc marker of a `figure1` / `serve-client
/// submit` command line: each flag and its value through
/// `SweepSpec::set_flag`, `--jobs` as `figure1` reads it, and `--backend
/// proc` as `figure1`'s pool of the simulated sweep.
pub(crate) fn parse(args: &str) -> (SweepSpec, usize, bool) {
    let (mut spec, mut jobs, mut proc) = (SweepSpec::default(), 1, false);
    let words: Vec<&str> = args.split_whitespace().collect();
    for pair in words.chunks(2) {
        let set = match *pair {
            ["--jobs", n] => n
                .parse::<usize>()
                .map(|n| jobs = n)
                .map_err(|e| e.to_string()),
            ["--backend", "proc"] => {
                proc = true;
                Ok(())
            }
            [flag, value] => spec.set_flag(flag, Some(value)),
            _ => Err("a flag without a value".to_string()),
        };
        set.unwrap_or_else(|e| panic!("{args}: {e}"));
    }
    (spec, jobs, proc)
}

/// Runs `figure1 <args>` over a fresh spec cache, so the graphs, and their
/// window-plan counters, are the row's own; returns the plan, the report
/// and the committed report it must reproduce. A `--backend proc` row runs
/// on `pool`, the row's own, through an executor of the plan's config, as
/// the binary runs on the pool it spawned.
pub(crate) fn figure1(
    args: &str,
    trace: Option<Arc<TraceCollector>>,
    pool: Option<&Arc<WorkerPool>>,
) -> (SweepPlan, SweepReport, String) {
    let (spec, jobs, proc) = parse(args);
    let sweep = spec.resolve().unwrap_or_else(|e| panic!("{args}: {e}"));
    assert_eq!(
        proc,
        pool.is_some(),
        "{args}: a proc row, and only one, has a pool"
    );
    let mut experiment = sweep.experiment(Topology::bullion_s16(), Arc::new(SpecCache::new()));
    if let Some(collector) = trace {
        experiment = experiment.trace(collector);
    }
    let plan = experiment.plan();
    let report = match pool {
        Some(pool) => {
            let executor = ProcExecutor::with_pool(plan.config().clone(), Arc::clone(pool));
            plan.execute_on(&executor, jobs)
        }
        None => plan.execute(jobs),
    };
    (plan, report, committed(&spec.scale))
}
