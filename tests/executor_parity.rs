//! Backend-parity tests: the simulator, the threaded executor and the
//! multi-process proc backend implement the same `Executor` contract,
//! consult the policies identically, and keep the same placement/traffic
//! bookkeeping. Driven entirely through `dyn Executor` trait objects, as
//! the harnesses use them.

#[path = "../crates/proc/tests/relay/mod.rs"]
mod relay;

use std::sync::Arc;

use numadag::prelude::*;
use numadag::runtime::CellContext;

fn backends(config: ExecutionConfig) -> Vec<Box<dyn Executor>> {
    vec![
        Backend::Simulated.executor(config.clone()),
        Backend::Threaded.executor(config),
    ]
}

/// A worker pool of the calling test's own, its two workers on threads.
fn test_pool() -> Arc<WorkerPool> {
    WorkerPool::launch(2, relay::threads).expect("worker pool launches")
}

#[test]
fn both_backends_agree_on_counts_placements_and_invariants() {
    // With stealing disabled and the deterministic EP policy, both backends
    // must make identical placement decisions for every task.
    let spec = Application::NStream.build(ProblemScale::Tiny, 4);
    let config = ExecutionConfig::new(Topology::four_socket(2)).with_steal(StealMode::NoStealing);

    let mut reports = Vec::new();
    for executor in backends(config) {
        let mut policy = make_policy(PolicyKind::Ep, &spec, 5).expect("EP placement ships");
        let report = executor.execute(&spec, policy.as_mut());

        // Report invariants that must hold on any backend.
        assert_eq!(
            report.tasks,
            spec.num_tasks(),
            "{}",
            executor.backend_name()
        );
        assert_eq!(
            report.tasks_per_socket.iter().sum::<usize>(),
            spec.num_tasks(),
            "{}: task accounting",
            executor.backend_name()
        );
        assert_eq!(report.stolen_tasks, 0, "{}", executor.backend_name());
        assert!(report.makespan_ns > 0.0, "{}", executor.backend_name());
        let local = report.local_fraction();
        assert!((0.0..=1.0).contains(&local), "{}", executor.backend_name());
        reports.push(report);
    }

    let (sim, thr) = (&reports[0], &reports[1]);
    assert_eq!(sim.tasks, thr.tasks);
    assert_eq!(
        sim.tasks_per_socket, thr.tasks_per_socket,
        "EP placement must be identical in both executors"
    );
    // Same placements → same deferred allocation and same traffic ledger.
    assert_eq!(sim.deferred_bytes, thr.deferred_bytes);
    assert_eq!(sim.traffic.total_bytes(), thr.traffic.total_bytes());
    assert_eq!(sim.traffic.local_bytes, thr.traffic.local_bytes);
    assert_eq!(sim.traffic.remote_bytes, thr.traffic.remote_bytes);
}

#[test]
fn experiment_runs_the_same_sweep_on_both_backends() {
    for backend in [Backend::Simulated, Backend::Threaded] {
        let report = Experiment::new()
            .topology(Topology::two_socket(2))
            .app(Application::NStream)
            .scale(ProblemScale::Tiny)
            .policies([PolicyKind::Dfifo, PolicyKind::RGP_LAS])
            .backend(backend)
            .seed(11)
            .run();
        assert_eq!(report.backend, backend.label());
        assert_eq!(report.policy_labels(), vec!["DFIFO", "RGP+LAS", "LAS"]);
        assert_eq!(report.cells.len(), 3);
        for cell in &report.cells {
            assert_eq!(cell.tasks, report.cells[0].tasks, "same workload instance");
            assert!(cell.makespan_ns > 0.0);
        }
    }
}

#[test]
fn proc_backend_agrees_with_simulator_and_threaded_on_placements() {
    let pool = test_pool();
    let spec = Application::NStream.build(ProblemScale::Tiny, 4);
    let config = ExecutionConfig::new(Topology::four_socket(2)).with_steal(StealMode::NoStealing);

    // The same deterministic EP cell through all three backends.
    let mut reports = Vec::new();
    let mut executors = backends(config.clone());
    executors.push(Box::new(ProcExecutor::with_pool(config, pool)));
    for executor in executors {
        let mut policy = make_policy(PolicyKind::Ep, &spec, 5).expect("EP placement ships");
        let ctx = CellContext {
            policy_label: "ep",
            seed: 5,
            lane: None,
            recipe: Some((Application::NStream, ProblemScale::Tiny, 4)),
        };
        let report = executor.execute_cell(&spec, policy.as_mut(), Some(&ctx));
        assert_eq!(
            report.tasks,
            spec.num_tasks(),
            "{}",
            executor.backend_name()
        );
        reports.push(report);
    }
    let (sim, thr, proc) = (&reports[0], &reports[1], &reports[2]);
    assert_eq!(sim.tasks_per_socket, thr.tasks_per_socket);
    assert_eq!(sim.tasks_per_socket, proc.tasks_per_socket);
    assert_eq!(sim.deferred_bytes, proc.deferred_bytes);
    assert_eq!(
        sim.traffic, proc.traffic,
        "proc ships the simulator's exact ledger"
    );
    // The proc worker runs the simulator in-process, so even the simulated
    // float timeline must survive the wire bit-for-bit.
    assert_eq!(sim.makespan_ns.to_bits(), proc.makespan_ns.to_bits());
}

#[test]
fn experiment_through_the_proc_backend_is_byte_identical_to_simulated() {
    let plan = || {
        Experiment::new()
            .topology(Topology::two_socket(2))
            .app(Application::NStream)
            .scale(ProblemScale::Tiny)
            .policies([PolicyKind::Dfifo, PolicyKind::RGP_LAS])
            .seed(11)
            .plan()
    };
    let sim = plan().execute(1);
    let proc = plan();
    let executor = ProcExecutor::with_pool(proc.config().clone(), test_pool());
    let proc = proc.execute_on(&executor, 1);
    // Proc measurements ARE simulator measurements, so the simulated plan
    // run on the pool reports itself under the simulator label and the
    // measurement JSON (timing excluded) must match byte for byte.
    assert_eq!(proc.backend, "simulator");
    assert_eq!(sim.to_json_string(), proc.to_json_string());
}

/// The Figure-1 matrix at Tiny scale on the paper's machine, the sweep
/// `run_on` is pinned with.
fn tiny_figure1() -> Experiment {
    Experiment::new()
        .apps(Application::all())
        .scale(ProblemScale::Tiny)
        .policies(PolicyKind::parse_list("dfifo,rgp-las,rgp-las:prop=repart,ep").unwrap())
        .seed(11)
}

#[test]
fn run_on_a_simulator_of_the_experiments_machine_is_run() {
    let simulator = Simulator::new(ExecutionConfig::bullion_s16().with_seed(11));
    let on = tiny_figure1().run_on(&simulator);
    let run = tiny_figure1().run();
    assert_eq!(on.backend, "simulator");
    assert_eq!(on.to_json_string(), run.to_json_string());
    assert_eq!(on.timing.jobs, 1);
    assert_eq!(on.timing.cell_wall_ns.len(), on.cells.len());
}

#[test]
fn run_on_a_proc_pool_differs_from_run_only_in_its_backend_label() {
    let executor =
        ProcExecutor::with_pool(ExecutionConfig::bullion_s16().with_seed(11), test_pool());
    let on = tiny_figure1().run_on(&executor);
    let run = tiny_figure1().run();
    // `run_on` names the executor it ran on; a simulated plan run on the
    // pool with `execute_on` reports under the simulator's label instead.
    // Every measurement is the simulator's.
    let diff = run.diff(&on);
    assert_eq!(diff.header, vec![r#"backend: "simulator" -> "proc""#]);
    assert_eq!(
        diff,
        SweepDiff {
            header: diff.header.clone(),
            ..SweepDiff::default()
        },
        "{diff}"
    );
    assert_eq!(on.cells.len(), 40);
}

#[test]
fn every_policy_runs_through_every_backend_trait_object() {
    let spec = Application::Jacobi.build(ProblemScale::Tiny, 2);
    let config = ExecutionConfig::new(Topology::two_socket(2));
    for executor in backends(config) {
        for kind in PolicyKind::all() {
            let Some(mut policy) = make_policy(kind, &spec, 3) else {
                continue;
            };
            let report = executor.execute(&spec, policy.as_mut());
            assert_eq!(
                report.tasks,
                spec.num_tasks(),
                "{} under {kind}",
                executor.backend_name()
            );
            assert_eq!(report.policy, kind.base_label(), "{kind}");
        }
    }
}
