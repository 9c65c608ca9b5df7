//! End-to-end tests of the proc backend's pool: real sockets and the real
//! worker loop, on threads of this test binary (`relay::threads`), with
//! faults injected by the relay between the pool and its workers. Worker
//! processes are covered by the root `tests/proc_session.rs` and by
//! `spawn_failure.rs`.

mod relay;

use std::sync::Arc;
use std::time::{Duration, Instant};

use numadag_core::{make_policy, PolicyKind};
use numadag_kernels::{Application, ProblemScale, SpecKey};
use numadag_numa::{CostModel, DistanceMatrix, Topology};
use numadag_proc::{ProcError, ProcExecutor, WireConfig, WorkerPool};
use numadag_runtime::{
    CellContext, ExecutionConfig, ExecutionReport, Executor, Experiment, Simulator, StealMode,
};
use numadag_tdg::{TaskGraphSpec, TaskSpec, TdgBuilder};
use numadag_trace::TraceCollector;
use relay::{threads, Action, Dir, Relay};

fn test_pool(workers: usize) -> Arc<WorkerPool> {
    WorkerPool::launch(workers, threads).expect("worker pool launches")
}

/// A pool of thread workers behind `relay`.
fn relayed_pool(workers: usize, relay: Relay) -> Arc<WorkerPool> {
    WorkerPool::launch(workers, relay.around(threads)).expect("worker pool launches")
}

/// What a lost worker may cost in wall time: far below `CELL_TIMEOUT`
/// (120 s), which a worker lost without a word would take.
const PROMPT: Duration = Duration::from_secs(10);

/// A paper kernel at Tiny scale for two sockets, and the recipe a worker
/// builds it from.
fn kernel(app: Application) -> (TaskGraphSpec, SpecKey) {
    let recipe = (app, ProblemScale::Tiny, 2);
    (app.build(ProblemScale::Tiny, 2), recipe)
}

fn sample_kernel() -> (TaskGraphSpec, SpecKey) {
    kernel(Application::Jacobi)
}

/// Three distinct kernels, for tests that spread workloads over workers.
fn three_kernels() -> [(TaskGraphSpec, SpecKey); 3] {
    [
        Application::Jacobi,
        Application::NStream,
        Application::GaussSeidel,
    ]
    .map(kernel)
}

/// A custom workload: a graph no recipe builds.
fn named_spec(name: &str) -> TaskGraphSpec {
    let mut b = TdgBuilder::new();
    let regions: Vec<_> = (0..6).map(|_| b.region(1 << 16)).collect();
    for r in &regions {
        b.submit(TaskSpec::new("init").work(50.0).writes(*r, 1 << 16));
    }
    for pair in regions.windows(2) {
        b.submit(
            TaskSpec::new("mix")
                .work(120.0)
                .reads(pair[0], 1 << 14)
                .reads_writes(pair[1], 1 << 14),
        );
    }
    TaskGraphSpec::new(name, b.finish())
}

/// A cell of policy `label` seeded `seed` over the workload `recipe`
/// builds, run on its own: outside any lane.
fn cell(label: &str, seed: u64, recipe: SpecKey) -> CellContext<'_> {
    CellContext {
        policy_label: label,
        seed,
        lane: None,
        recipe: Some(recipe),
    }
}

/// Runs one cell of `label` seeded `seed` over `workload` on `pool`,
/// reported under `policy_name`.
fn run(
    pool: &WorkerPool,
    (spec, recipe): &(TaskGraphSpec, SpecKey),
    label: &str,
    seed: u64,
    policy_name: &'static str,
    wire: &WireConfig,
) -> Result<ExecutionReport, ProcError> {
    pool.run_cell(
        spec,
        *recipe,
        &cell(label, seed, *recipe),
        policy_name,
        wire,
    )
}

fn local_report(
    spec: &TaskGraphSpec,
    kind: PolicyKind,
    seed: u64,
    config: &ExecutionConfig,
) -> ExecutionReport {
    let mut policy = make_policy(kind, spec, seed).expect("policy builds");
    Simulator::new(config.clone()).run(spec, policy.as_mut())
}

fn assert_reports_identical(got: &ExecutionReport, want: &ExecutionReport) {
    assert_eq!(got.workload, want.workload);
    assert_eq!(got.policy, want.policy);
    assert_eq!(got.makespan_ns.to_bits(), want.makespan_ns.to_bits());
    assert_eq!(got.tasks, want.tasks);
    assert_eq!(got.traffic, want.traffic);
    assert_eq!(got.tasks_per_socket, want.tasks_per_socket);
    assert_eq!(
        got.busy_per_socket.len(),
        want.busy_per_socket.len(),
        "socket counts differ"
    );
    for (g, w) in got.busy_per_socket.iter().zip(want.busy_per_socket.iter()) {
        assert_eq!(g.to_bits(), w.to_bits());
    }
    assert_eq!(got.stolen_tasks, want.stolen_tasks);
    assert_eq!(got.deferred_bytes, want.deferred_bytes);
    assert_eq!(got.events, want.events);
}

#[test]
fn proc_cells_are_bit_identical_to_the_in_process_simulator() {
    let pool = test_pool(2);
    let workload = sample_kernel();
    let config = ExecutionConfig::new(Topology::bullion_s16());
    let wire = WireConfig::new(config.clone());
    for (label, seed) in [
        ("las", 11u64),
        ("dfifo", 12),
        ("rgp+las", 13),
        ("rgp+rr", 14),
    ] {
        let kind: PolicyKind = label.parse().expect("label parses");
        let want = local_report(&workload.0, kind, seed, &config);
        let got =
            run(&pool, &workload, label, seed, kind.base_label(), &wire).expect("cell executes");
        assert!(got.events.is_empty(), "no events were requested");
        assert_reports_identical(&got, &want);
    }
    let stats = pool.stats();
    assert_eq!(stats.workers_spawned, 2);
    assert_eq!(stats.workers_alive, 2);
    assert_eq!(stats.cells_dispatched, 4);
    assert_eq!(stats.redispatches, 0);
    // Every cell went to the worker that already held the spec: one config,
    // one spec, the other worker never spoken to.
    assert_eq!(stats.config_broadcasts, 1);
    assert_eq!(stats.spec_transfers, 1);
}

/// Every field of the config crosses the wire: one row per knob, each run
/// under four policies on the pool and in process. A codec that drops or
/// renames a field the simulator reads makes its row's reports (or, for the
/// traced row, its events) differ; `seed` does not travel, so its row pins
/// that leaving it off is harmless.
#[test]
fn every_config_knob_reaches_the_workers() {
    let pool = test_pool(2);
    let workload = sample_kernel();
    let base = || ExecutionConfig::new(Topology::four_socket(2));
    let far = Topology::new(
        "2-node cluster (2 sockets x 3 cores, far=120)",
        4,
        3,
        DistanceMatrix::from_rows(
            4,
            vec![
                10, 15, 120, 120, 15, 10, 120, 120, 120, 120, 10, 15, 120, 120, 15, 10,
            ],
        ),
    );
    let rows = [
        ("flat cost model", base().with_cost_model(CostModel::flat())),
        (
            "every cost field moved",
            base().with_cost_model(CostModel {
                local_bandwidth: 5.5,
                local_latency: 73.25,
                bandwidth_exponent: 1.75,
                latency_exponent: 0.625,
                contention_factor: 0.4,
                time_per_work_unit: 1.3,
            }),
        ),
        ("no stealing", base().with_steal(StealMode::NoStealing)),
        ("seed above 2^53", base().with_seed(u64::MAX - 0xF1617E)),
        ("far 4-socket topology", ExecutionConfig::new(far)),
        ("traced", base().with_events()),
    ];
    for (row, config) in rows {
        let wire = WireConfig::new(config.clone());
        for (label, seed) in [
            ("las", 51u64),
            ("dfifo", 52),
            ("rgp+las", 53),
            ("rgp+rr", 54),
        ] {
            let kind: PolicyKind = label.parse().expect("label parses");
            let want = local_report(&workload.0, kind, seed, &config);
            let got = run(&pool, &workload, label, seed, kind.base_label(), &wire)
                .unwrap_or_else(|e| panic!("{row}, {label}: {e}"));
            assert_reports_identical(&got, &want);
            assert_eq!(got.events.is_empty(), !config.events, "{row}");
        }
    }
    assert_eq!(pool.stats().redispatches, 0);
}

#[test]
fn serial_cells_go_where_their_spec_is_and_specs_spread_over_workers() {
    let pool = test_pool(2);
    let workloads = three_kernels();
    let config = ExecutionConfig::new(Topology::bullion_s16());
    let wire = WireConfig::new(config.clone());
    let kind: PolicyKind = "las".parse().unwrap();
    // Interleaved, the way no sweep orders its cells: affinity is by
    // content, not by what ran last.
    for round in 0..3 {
        for workload in &workloads {
            let seed = 30 + round;
            let want = local_report(&workload.0, kind, seed, &config);
            let got =
                run(&pool, workload, "las", seed, kind.base_label(), &wire).expect("cell executes");
            assert_reports_identical(&got, &want);
        }
    }
    let stats = pool.stats();
    assert_eq!(stats.cells_dispatched, 9);
    assert_eq!(stats.redispatches, 0);
    // Each spec shipped once; the second went to the worker that held
    // nothing, so both workers were configured.
    assert_eq!(stats.spec_transfers, 3);
    assert_eq!(stats.config_broadcasts, 2);
}

#[test]
fn traced_and_untraced_cells_are_two_config_epochs_on_one_pool() {
    let pool = test_pool(2);
    // Two specs, so that data-affine dispatch keeps both workers in play.
    let workloads = [Application::Jacobi, Application::NStream].map(kernel);
    let kind: PolicyKind = "rgp+las".parse().unwrap();
    let seed = 0xF1617E;
    let untraced = ExecutionConfig::new(Topology::two_socket(4));
    let traced = untraced.clone().with_events();

    for (phase, config) in [&untraced, &traced, &untraced].into_iter().enumerate() {
        let wire = WireConfig::new(config.clone());
        // Each spec twice: a worker's second traced cell must not carry the
        // events of its first.
        for workload in workloads.iter().chain(&workloads) {
            let want = local_report(&workload.0, kind, seed, config);
            let got = run(&pool, workload, "rgp+las", seed, kind.base_label(), &wire)
                .expect("cell executes");
            // Events come back for the traced epoch only.
            assert_reports_identical(&got, &want);
            assert_eq!(got.events.is_empty(), !config.events);
        }
        // One `config` per worker per epoch switch; the worker keeps one
        // simulator for the whole epoch.
        assert_eq!(pool.stats().config_broadcasts, 2 * (phase as u64 + 1));
    }
    let stats = pool.stats();
    assert_eq!(stats.spec_transfers, 2);
    assert_eq!(stats.cells_dispatched, 12);
    assert_eq!(stats.redispatches, 0);
}

#[test]
fn executor_trait_ships_cells_and_forwards_events() {
    let pool = test_pool(2);
    let (spec, recipe) = sample_kernel();
    let kind: PolicyKind = "las".parse().unwrap();
    let seed = 21;

    let config = ExecutionConfig::new(Topology::four_socket(2)).with_events();
    let executor = ProcExecutor::with_pool(config.clone(), Arc::clone(&pool));
    assert_eq!(executor.backend_name(), "proc");

    let mut policy = make_policy(kind, &spec, seed).unwrap();
    let report = executor.execute_cell(&spec, policy.as_mut(), Some(&cell("las", seed, recipe)));
    let want = local_report(&spec, kind, seed, &config);
    assert!(!report.events.is_empty());
    assert_reports_identical(&report, &want);
    assert_eq!(executor.stats().expect("pool attached").workers_spawned, 2);
    assert_eq!(pool.stats().cells_dispatched, 1, "the cell was shipped");
}

#[test]
fn a_crashing_worker_is_killed_and_its_cell_redispatched() {
    // Worker 0's link dies under its second assignment, mid-cell.
    let crash = Relay::new().on(0, Dir::ToWorker, "assign", 2, Action::Die);
    let pool = relayed_pool(2, crash);
    let workload = sample_kernel();
    let config = ExecutionConfig::new(Topology::two_socket(2));
    let wire = WireConfig::new(config.clone());
    let kind: PolicyKind = "las".parse().unwrap();
    let want = local_report(&workload.0, kind, 5, &config);
    for _ in 0..6 {
        let got = run(&pool, &workload, "las", 5, kind.base_label(), &wire)
            .expect("cells survive the crash via redispatch");
        assert_reports_identical(&got, &want);
    }
    let stats = pool.stats();
    assert_eq!(stats.workers_alive, 1, "the crashed worker is gone");
    // The spec's holder died under the second cell: that cell, and the spec
    // with it, moved to the survivor, which kept the rest.
    assert_eq!(stats.redispatches, 1, "the lost cell was redispatched");
    assert_eq!(stats.spec_transfers, 2);
    assert_eq!(stats.config_broadcasts, 2);
    assert_eq!(stats.cells_dispatched, 6, "no cell was lost or duplicated");
}

/// Runs three serial cells over each of `workloads` in turn, as a sweep's
/// lone lane would, each report held to the in-process one; returns the
/// wall time they took.
fn run_recipes(pool: &WorkerPool, workloads: &[(TaskGraphSpec, SpecKey)]) -> Duration {
    let config = ExecutionConfig::new(Topology::two_socket(2));
    let wire = WireConfig::new(config.clone());
    let started = Instant::now();
    for workload in workloads {
        for (label, seed) in [("las", 40u64), ("dfifo", 41), ("rgp+las", 42)] {
            let kind: PolicyKind = label.parse().unwrap();
            let want = local_report(&workload.0, kind, seed, &config);
            let got = run(pool, workload, label, seed, kind.base_label(), &wire)
                .expect("cells survive a lost worker via redispatch");
            assert_reports_identical(&got, &want);
        }
    }
    started.elapsed()
}

#[test]
fn a_spec_shipped_to_a_worker_that_dies_is_shipped_again_to_the_survivor() {
    // Worker 1 dies under the first cell it is sent: the first over the
    // second kernel, whose recipe it was shipped with that cell.
    let crash = Relay::new().on(1, Dir::ToWorker, "assign", 1, Action::Die);
    let pool = relayed_pool(2, crash);
    run_recipes(&pool, &three_kernels());
    let stats = pool.stats();
    assert_eq!(stats.workers_alive, 1, "the crashed worker is gone");
    assert_eq!(stats.redispatches, 1, "the lost cell was redispatched");
    assert_eq!(stats.cells_dispatched, 9, "no cell was lost or duplicated");
    // The first kernel to worker 0; the second to worker 1, then again,
    // with its lost cell, to worker 0; the third to worker 0.
    assert_eq!(stats.spec_transfers, 4);
}

#[test]
fn garbage_frames_kill_the_worker_not_the_coordinator() {
    // Worker 0's link corrupts one `done`: its second arrives as a line
    // that is not JSON; its first stops halfway and the link closes; its
    // first arrives twice, and the copy is read as the reply to the next
    // `assign`, about another cell.
    for (nth, corruption) in [
        (2, Action::Garbage),
        (1, Action::Truncate),
        (1, Action::Duplicate),
    ] {
        let relay = Relay::new().on(0, Dir::ToCoordinator, "done", nth, corruption);
        let pool = relayed_pool(2, relay);
        let took = run_cells(&pool, "dfifo", 6, 6);
        assert!(took < PROMPT, "{corruption:?}: {took:?}");
        let stats = pool.stats();
        let row = format!("{corruption:?} on done {nth}");
        assert_eq!(stats.workers_alive, 1, "{row}: the worker was killed");
        assert_eq!(stats.redispatches, 1, "{row}");
        assert_eq!(stats.spec_transfers, 2, "{row}: the survivor got the spec");
    }
}

#[test]
fn losing_every_worker_is_a_structured_error_not_a_hang() {
    // The only worker dies on its first assignment.
    let crash = Relay::new().on(0, Dir::ToWorker, "assign", 1, Action::Die);
    let pool = relayed_pool(1, crash);
    let config = ExecutionConfig::new(Topology::two_socket(2));
    let wire = WireConfig::new(config.clone());
    let err = run(&pool, &sample_kernel(), "las", 7, "LAS", &wire)
        .expect_err("no worker can run the cell");
    assert!(
        matches!(err, ProcError::AllWorkersDead { .. }),
        "unexpected error: {err}"
    );
    assert_eq!(pool.stats().workers_alive, 0);
}

#[test]
fn a_worker_side_failure_propagates_as_a_deterministic_error() {
    let pool = test_pool(2);
    // No policy is spelled `fifo`, so the worker answers with a structured
    // `error` — which must NOT be retried (it would fail identically
    // everywhere).
    let workload = sample_kernel();
    let config = ExecutionConfig::new(Topology::two_socket(2));
    let wire = WireConfig::new(config.clone());
    let err = run(&pool, &workload, "fifo", 8, "FIFO", &wire)
        .expect_err("a policy no worker knows fails");
    match &err {
        ProcError::Worker { message, .. } => {
            assert!(message.starts_with("bad policy: "), "message: {message}");
        }
        other => panic!("expected a worker error, got {other}"),
    }
    let stats = pool.stats();
    assert_eq!(
        stats.workers_alive, 2,
        "a deterministic failure kills nobody"
    );
    assert_eq!(
        stats.redispatches, 0,
        "deterministic failures are not retried"
    );
    // The pool is still healthy: the next cell runs fine.
    let kind: PolicyKind = "las".parse().unwrap();
    let want = local_report(&workload.0, kind, 9, &config);
    let got =
        run(&pool, &workload, "las", 9, kind.base_label(), &wire).expect("pool still serves cells");
    assert_reports_identical(&got, &want);
}

#[test]
fn config_changes_resync_by_fingerprint() {
    let pool = test_pool(1);
    let workload = sample_kernel();
    let kind: PolicyKind = "las".parse().unwrap();
    let first = ExecutionConfig::new(Topology::two_socket(2));
    let second = ExecutionConfig::new(Topology::four_socket(2));
    for config in [&first, &second, &first] {
        let want = local_report(&workload.0, kind, 3, config);
        let wire = WireConfig::new(config.clone());
        let got = run(&pool, &workload, "las", 3, kind.base_label(), &wire).expect("cell executes");
        assert_reports_identical(&got, &want);
    }
    // Three cells, but the config changed between each, so every dispatch
    // re-broadcast it; the spec shipped only once.
    let stats = pool.stats();
    assert_eq!(stats.config_broadcasts, 3);
    assert_eq!(stats.spec_transfers, 1);
}

/// Runs `cells` serial cells of `label` and `seed` over [`sample_kernel`],
/// each report held to the in-process one; returns the wall time they took.
fn run_cells(pool: &WorkerPool, label: &str, seed: u64, cells: usize) -> Duration {
    let workload = sample_kernel();
    let config = ExecutionConfig::new(Topology::two_socket(2));
    let wire = WireConfig::new(config.clone());
    let kind: PolicyKind = label.parse().unwrap();
    let want = local_report(&workload.0, kind, seed, &config);
    let started = Instant::now();
    for _ in 0..cells {
        let got = run(pool, &workload, label, seed, kind.base_label(), &wire)
            .expect("the cell completes");
        assert_reports_identical(&got, &want);
    }
    started.elapsed()
}

/// Worker 1's first `assign`, which carries the config and NStream's
/// recipe, never arrives whole: its link dies before it, cuts it halfway,
/// or turns it into a line that is not JSON. The worker leaves without a
/// reply, and the cell moves to worker 0.
#[test]
fn an_assign_broken_on_the_way_loses_only_its_worker() {
    for breakage in [Action::Die, Action::Truncate, Action::Garbage] {
        let relay = Relay::new().on(1, Dir::ToWorker, "assign", 1, breakage);
        let pool = relayed_pool(2, relay);
        let workloads = [Application::Jacobi, Application::NStream].map(kernel);
        let took = run_recipes(&pool, &workloads);
        assert!(took < PROMPT, "{breakage:?}: {took:?}");
        let stats = pool.stats();
        assert_eq!(stats.workers_alive, 1, "{breakage:?}: the worker is gone");
        // That cell, and the recipe with it, moved to worker 0, which
        // already had the config.
        assert_eq!(stats.redispatches, 1, "{breakage:?}");
        assert_eq!(stats.cells_dispatched, 6, "{breakage:?}: no cell lost");
        assert_eq!(stats.spec_transfers, 3, "{breakage:?}");
        assert_eq!(stats.config_broadcasts, 2, "{breakage:?}");
    }
}

/// One sweep over a paper kernel and a custom workload, on one pool: the
/// kernel travels as its recipe, the custom graph's cells run in the
/// coordinator's simulator and never reach a worker, and the report is the
/// in-process one byte for byte.
#[test]
fn a_kernel_ships_as_its_recipe_and_a_custom_workload_runs_on_the_coordinator() {
    let relay = Relay::new();
    let tally = relay.tally();
    let pool = relayed_pool(2, relay);
    let config = ExecutionConfig::new(Topology::two_socket(2));
    let sweep = Experiment::new()
        .app(Application::Jacobi)
        .scale(ProblemScale::Tiny)
        .workload(named_spec("custom"))
        .policies([PolicyKind::Dfifo, PolicyKind::RGP_LAS]);
    let mut report = sweep.run_on(&ProcExecutor::with_pool(config.clone(), Arc::clone(&pool)));
    // DFIFO, RGP+LAS and the LAS baseline RGP+LAS brings, per workload.
    let kernel_cells = report.cells.iter().filter(|c| c.application == "Jacobi");
    assert_eq!((kernel_cells.count(), report.cells.len()), (3, 6));
    let sent = tally.lines(Dir::ToWorker, "assign");
    assert_eq!(sent, 3, "the kernel's cells only");
    let stats = pool.stats();
    assert_eq!(
        (
            stats.cells_dispatched,
            stats.spec_transfers,
            stats.redispatches
        ),
        (3, 1, 0),
        "{stats}"
    );
    let local = sweep.run_on(&Simulator::new(config));
    report.backend = local.backend.clone();
    assert_eq!(report.to_json_string(), local.to_json_string());
}

/// A sweep on a 2-worker pool runs two lanes, one per worker, even at
/// `parallelism(1)`, traced or not: worker 0's first `done` is held until
/// worker 1 has been sent an `assign`, and a sweep that left worker 1 idle
/// meanwhile would lose worker 0 at the hold's deadline instead. A traced
/// sweep records the traces the in-process simulator does, each labelled
/// with the proc report's backend.
#[test]
fn a_sweep_keeps_both_workers_of_its_pool_busy() {
    for traced in [false, true] {
        let hold = Action::Await {
            slot: 1,
            dir: Dir::ToWorker,
            kind: "assign",
            within: PROMPT,
        };
        let pool = relayed_pool(2, Relay::new().on(0, Dir::ToCoordinator, "done", 1, hold));
        let config = match traced {
            true => ExecutionConfig::new(Topology::two_socket(2)).with_events(),
            false => ExecutionConfig::new(Topology::two_socket(2)),
        };
        let sweep = |collector: &Arc<TraceCollector>| {
            let sweep = Experiment::new()
                .apps([Application::Jacobi, Application::NStream])
                .scale(ProblemScale::Tiny)
                .policies([PolicyKind::Dfifo])
                .parallelism(1);
            match traced {
                true => sweep.trace(Arc::clone(collector)),
                false => sweep,
            }
        };
        let (remote, local) = (
            Arc::new(TraceCollector::new()),
            Arc::new(TraceCollector::new()),
        );
        let executor = ProcExecutor::with_pool(config.clone(), Arc::clone(&pool));
        let mut report = sweep(&remote).run_on(&executor);
        let stats = pool.stats();
        let row = if traced { "traced" } else { "untraced" };
        assert_eq!(
            (stats.workers_alive, stats.redispatches),
            (2, 0),
            "{row}: {stats}"
        );
        // Each workload's spec went to its lane's worker only.
        assert_eq!(stats.spec_transfers, 2, "{row}: {stats}");
        assert_eq!(report.timing.jobs, 2, "{row}: two lanes ran");
        let want = sweep(&local).run_on(&Simulator::new(config));
        let backend = std::mem::replace(&mut report.backend, want.backend.clone());
        assert_eq!(report.to_json_string(), want.to_json_string(), "{row}");
        let sorted = |collector: &TraceCollector| {
            let mut traces = collector.take();
            traces.sort_by(|a, b| (&a.workload, &a.policy).cmp(&(&b.workload, &b.policy)));
            traces
        };
        let mut traces = sorted(&remote);
        assert_eq!(traces.len(), if traced { report.cells.len() } else { 0 });
        // Each trace names its report's backend; the rest is the simulator's.
        for trace in &mut traces {
            assert_eq!(trace.backend, backend, "{row}");
            trace.backend = want.backend.clone();
        }
        assert_eq!(traces, sorted(&local), "{row}");
    }
}

/// Two sweeps with different seeds, one after the other on one warm pool,
/// each on the executor its plan's config makes (as `Backend::Proc`'s
/// factory is handed it, seed included). The seed does not travel, so both
/// sweeps are one config epoch: each worker is configured once, not once
/// per sweep.
#[test]
fn a_new_sweep_seed_does_not_resend_the_config() {
    let pool = test_pool(2);
    for seed in [0xF1617E, 7] {
        let sweep = Experiment::new()
            .apps([Application::Jacobi, Application::NStream])
            .scale(ProblemScale::Tiny)
            .policies([PolicyKind::Dfifo, PolicyKind::RGP_LAS])
            .seed(seed);
        let config = sweep.plan().executor().config().clone();
        assert_eq!(config.seed, seed);
        let executor = ProcExecutor::with_pool(config.clone(), Arc::clone(&pool));
        let mut report = sweep.run_on(&executor);
        let want = sweep.run_on(&Simulator::new(config));
        report.backend = want.backend.clone();
        assert_eq!(report.to_json_string(), want.to_json_string(), "{seed}");
    }
    let stats = pool.stats();
    assert_eq!((stats.workers_alive, stats.redispatches), (2, 0), "{stats}");
    assert_eq!(stats.config_broadcasts, 2, "{stats}");
}

#[test]
fn a_done_delayed_200_ms_is_waited_for_not_redispatched() {
    let pause = Duration::from_millis(200);
    let slow = Relay::new().on(0, Dir::ToCoordinator, "done", 1, Action::Delay(pause));
    let pool = relayed_pool(2, slow);
    let took = run_cells(&pool, "las", 5, 2);
    assert!(pause <= took && took < PROMPT, "{took:?}");
    let stats = pool.stats();
    assert_eq!(stats.workers_alive, 2, "a slow worker is not a lost one");
    assert_eq!(stats.redispatches, 0);
    assert_eq!(stats.spec_transfers, 1);
}
