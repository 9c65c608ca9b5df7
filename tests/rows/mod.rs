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

/// The committed report of a sweep at `scale`. The Small file is `figure1
/// --json-timing` output: the `--json` report with a trailing `timing`
/// member, whose wall times no rerun reproduces, so its measurement bytes
/// are the file without that member.
fn baseline(scale: &str) -> String {
    match scale {
        "tiny" => TINY.to_string(),
        "full" => FULL.to_string(),
        _ => {
            let (measurements, timing) = SMALL
                .split_once(",\n  \"timing\": {")
                .expect("the Small baseline carries its timing member");
            assert!(timing.ends_with("\n  }\n}"), "timing is the last member");
            format!("{measurements}\n}}")
        }
    }
}

/// Fails `row` unless `report` is the committed `baseline`, byte for byte.
pub(crate) fn assert_reproduces(row: &str, report: &str, baseline: &str) {
    assert!(report == baseline, "{row} moved the committed baseline");
}

/// The sweep and worker count of a `figure1` / `serve-client submit` command
/// line: each flag and its value through `SweepSpec::set_flag`, `--jobs` as
/// `figure1` reads it.
pub(crate) fn parse(args: &str) -> (SweepSpec, usize) {
    let (mut spec, mut jobs) = (SweepSpec::default(), 1);
    let words: Vec<&str> = args.split_whitespace().collect();
    for pair in words.chunks(2) {
        let set = match *pair {
            ["--jobs", n] => n
                .parse::<usize>()
                .map(|n| jobs = n)
                .map_err(|e| e.to_string()),
            [flag, value] => spec.set_flag(flag, Some(value)),
            _ => Err("a flag without a value".to_string()),
        };
        set.unwrap_or_else(|e| panic!("{args}: {e}"));
    }
    (spec, jobs)
}

/// Runs `figure1 <args>` over a fresh spec cache, so the graphs, and their
/// window-plan counters, are the row's own; returns the plan, the report
/// and the committed report it must reproduce.
pub(crate) fn figure1(
    args: &str,
    trace: Option<Arc<TraceCollector>>,
) -> (SweepPlan, SweepReport, String) {
    let (spec, jobs) = parse(args);
    let mut experiment = spec
        .resolve()
        .unwrap_or_else(|e| panic!("{args}: {e}"))
        .experiment(Topology::bullion_s16(), Arc::new(SpecCache::new()));
    if let Some(collector) = trace {
        experiment = experiment.trace(collector);
    }
    let plan = experiment.plan();
    let report = plan.execute(jobs);
    (plan, report, baseline(&spec.scale))
}
