//! The behaviour envelope: one table of (scale × path) rows. Each row runs a
//! Figure-1 sweep through the library path its command line takes —
//! `figure1 [--jobs N]`, `figure1 --backend proc`, `serve-client submit`
//! against a `numadag-serve --pool 3` daemon — and holds the report to the
//! committed `BENCH_figure1_{tiny,small,full}.json` bytes, and the counters
//! that path leaves behind to their values as struct fields:
//!
//! | path                     | tiny | small | full | counters            |
//! |--------------------------|------|-------|------|---------------------|
//! | in-process, jobs 1, 2, 4 | ✓    | ✓     | ✓    | window plans        |
//! | proc w=2, serial         | ✓    |       | ✓    | `PoolStats`         |
//! | proc w=2, jobs 2 / crash |      |       | ✓    | `PoolStats`         |
//! | serve pool 3             | ✓    |       | ✓    | `SubmitOutcome`, `ServerStats` |
//! | traced, in-process vs proc | ✓  |       |      | every `Trace`       |
//!
//! The proc and traced rows re-exec their test binary as workers, so they
//! live in `tests/proc_session.rs`; both files share `tests/rows`. A change
//! that keeps the behaviour keeps every row.

mod rows;

use numadag::prelude::*;
use numadag::serve::protocol::Response;
use numadag::serve::server::serve;
use rows::{assert_reproduces, figure1, parse, FULL, FULL_ARGS, TINY};

/// (first-window plans computed, plans a later cell found instead of
/// partitioning, windows placed): `placed - reused` partitioner runs.
type WindowPlans = (usize, usize, usize);

/// The one-shot `rgp-las` column of eight applications: each computes its
/// window 0, nobody else asks for it.
const ONE_SHOT: WindowPlans = (8, 0, 8);

/// The Full columns on eight applications: `rgp-las` computes window 0,
/// `prop=repart` finds it and partitions its later windows anchored — 24
/// windows placed by 16 partitioner runs, whichever worker runs a cell.
const ANCHORED: WindowPlans = (8, 8, 24);

/// In-process rows, each at `--jobs 1, 2, 4`. DFIFO named twice is one
/// column: the same sweep as the default, byte for byte.
const IN_PROCESS: [(&str, WindowPlans); 4] = [
    ("--scale tiny", ONE_SHOT),
    ("--scale tiny --policies dfifo,DFIFO,rgp-las,ep", ONE_SHOT),
    ("--scale small", ONE_SHOT),
    (FULL_ARGS, ANCHORED),
];

#[test]
fn in_process_rows_reproduce_every_baseline_at_any_worker_count() {
    for (args, window_plans) in IN_PROCESS {
        for jobs in [1, 2, 4] {
            let row = format!("figure1 {args} --jobs {jobs}");
            let (plan, report, baseline) = figure1(&row["figure1 ".len()..], None, None);
            assert_reproduces(&row, &report.to_json_string(), &baseline);
            let (plans, reused) = plan
                .workloads()
                .iter()
                .map(|workload| workload.spec.graph.window_plan_counts())
                .fold((0, 0), |sum, counts| (sum.0 + counts.0, sum.1 + counts.1));
            let placed = report.timing.cell_partition_windows.iter().sum();
            assert_eq!((plans, reused, placed), window_plans, "{row}");
        }
    }
}

/// Serve rows, in order on one daemon: (`serve-client submit` args,
/// `--stream`, (cache_hit, executed_cells, hydrated_cells), baseline).
type ServeRow = (&'static str, bool, (bool, u64, u64), Option<&'static str>);

const SERVE: [ServeRow; 6] = [
    ("--scale tiny", false, (false, 32, 0), Some(TINY)),
    ("--scale tiny", false, (true, 0, 0), Some(TINY)),
    // The report reaches a subscriber as a `Report` line after one
    // `Progress` line per executed cell.
    (FULL_ARGS, true, (false, 40, 0), Some(FULL)),
    // A hit is a `Report` line that embeds the cached report raw.
    (FULL_ARGS, false, (true, 0, 0), Some(FULL)),
    // Another spelling of the same four policies: one canonical
    // fingerprint, so another hit with the same bytes.
    (RESPELLED, false, (true, 0, 0), Some(FULL)),
    // One added column executes its 8 novel cells (apps × reps); the
    // other 40 are hydrated from the cell cache.
    (WIDENED, false, (false, 8, 40), None),
];

const RESPELLED: &str = "--scale full --policies DFIFO,rgp_las,rgp-rr:prop=repart,EP";
const WIDENED: &str = "--scale full --policies dfifo,rgp-las,rgp-las:prop=repart,ep,rgp-las:w=1024";

#[test]
fn serve_rows_answer_the_baselines_from_a_three_worker_pool_and_its_caches() {
    let handle = serve(ServeConfig {
        pool: 3,
        ..ServeConfig::default()
    })
    .expect("the daemon boots");
    let mut client = ServeClient::connect(&handle.addr().to_string()).expect("connects");
    for (i, (args, stream, cells, baseline)) in SERVE.into_iter().enumerate() {
        let row = format!("serve row {i}: submit {args}, stream: {stream}");
        let mut progress = 0;
        let got = client
            .submit(parse(args).0, stream, |line| {
                progress += u64::from(matches!(line, Response::Progress { .. }));
            })
            .unwrap_or_else(|e| panic!("{row}: {e}"));
        let counts = (got.cache_hit, got.executed_cells, got.hydrated_cells);
        assert_eq!(counts, cells, "{row}");
        if stream {
            assert_eq!(progress, cells.1, "{row}: Progress lines");
        }
        if let Some(baseline) = baseline {
            assert_reproduces(&row, &got.report_json, baseline);
        }
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.report_cache_hits, 3, "serve stats");
    assert_eq!(stats.pool_workers, 3, "serve stats");
    client.shutdown().expect("shutdown");
    handle.join();
}
