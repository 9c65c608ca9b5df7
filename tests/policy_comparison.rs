//! End-to-end integration tests: the whole stack (kernels → TDG → policies →
//! executors) composed through the public facade, checking the qualitative
//! claims of the paper on small problem instances. Sweeps go through the
//! `Experiment` API; single-run invariants go through the `Executor` trait.

use numadag::prelude::*;

fn executor() -> Box<dyn Executor> {
    Backend::Simulated.executor(ExecutionConfig::bullion_s16())
}

fn run(spec: &TaskGraphSpec, kind: PolicyKind, seed: u64) -> ExecutionReport {
    let mut policy = make_policy(kind, spec, seed).expect("policy must build");
    executor().execute(spec, policy.as_mut())
}

#[test]
fn every_application_completes_under_every_policy() {
    for app in Application::all() {
        let spec = app.build(ProblemScale::Tiny, 8);
        for kind in PolicyKind::all() {
            let report = run(&spec, kind, 3);
            assert_eq!(report.tasks, spec.num_tasks(), "{app} under {kind}");
            assert_eq!(
                report.tasks_per_socket.iter().sum::<usize>(),
                spec.num_tasks(),
                "{app} under {kind}: task accounting"
            );
            assert!(
                report.makespan_ns > 0.0,
                "{app} under {kind}: empty makespan"
            );
            assert!(
                report.makespan_ns >= spec.graph.critical_path_work(),
                "{app} under {kind}: makespan below the critical path"
            );
        }
    }
}

#[test]
fn simulation_is_deterministic_across_runs() {
    for app in [Application::Jacobi, Application::QrFactorization] {
        let spec = app.build(ProblemScale::Tiny, 8);
        for kind in [PolicyKind::Las, PolicyKind::RGP_LAS, PolicyKind::Dfifo] {
            let a = run(&spec, kind, 17);
            let b = run(&spec, kind, 17);
            assert_eq!(a.makespan_ns, b.makespan_ns, "{app} under {kind}");
            assert_eq!(a.traffic, b.traffic, "{app} under {kind}");
        }
    }
}

#[test]
fn traffic_conservation_holds_for_all_policies() {
    let spec = Application::IntegralHistogram.build(ProblemScale::Tiny, 8);
    let total_declared: u64 = spec.graph.tasks().map(|t| t.bytes_touched()).sum();
    for kind in PolicyKind::all() {
        let report = run(&spec, kind, 5);
        assert_eq!(
            report.traffic.total_bytes(),
            total_declared,
            "{kind}: every declared byte must be charged exactly once"
        );
    }
}

#[test]
fn numa_aware_policies_have_more_local_traffic_than_dfifo() {
    // On stencil-style kernels the locality-aware policies must serve a
    // larger fraction of bytes from the local node than blind round robin.
    // One Experiment covers the whole (app × policy) matrix.
    let report = Experiment::new()
        .apps([
            Application::Jacobi,
            Application::NStream,
            Application::RedBlack,
        ])
        .scale(ProblemScale::Small)
        .policies([PolicyKind::Dfifo, PolicyKind::RGP_LAS])
        .seed(9)
        .run();
    for app in report.application_labels() {
        let local = |policy: &str| {
            report
                .cells_of(&app, policy)
                .first()
                .map(|c| c.local_fraction)
                .unwrap()
        };
        assert!(
            local("LAS") > local("DFIFO"),
            "{app}: LAS local {:.3} <= DFIFO {:.3}",
            local("LAS"),
            local("DFIFO")
        );
        assert!(
            local("RGP+LAS") > local("DFIFO"),
            "{app}: RGP+LAS local {:.3} <= DFIFO {:.3}",
            local("RGP+LAS"),
            local("DFIFO")
        );
    }
}

#[test]
fn rgp_las_beats_the_baseline_on_the_small_suite_geomean() {
    // The paper's headline claim, in miniature: the geometric mean speedup of
    // RGP+LAS over LAS across the suite is above 1. The aggregation is the
    // SweepReport's own.
    let report = Experiment::new()
        .apps(Application::all())
        .scale(ProblemScale::Small)
        .policies([PolicyKind::RGP_LAS])
        .seed(23)
        .run();
    let geomean = report.geomean_of("RGP+LAS").unwrap();
    assert!(
        geomean > 1.0,
        "RGP+LAS geometric-mean speedup {geomean:.3} should exceed 1.0"
    );
}

#[test]
fn flat_cost_model_removes_the_policy_gap() {
    // Control experiment: with no NUMA penalty, RGP+LAS and DFIFO perform the
    // same, demonstrating the gap really is a NUMA effect and not a
    // scheduling artefact. The simulator charges identical compute and
    // (flat) memory costs either way, so the measured ratio is exactly 1.0
    // today; the 2% bound below only leaves room for benign tie-breaking
    // drift in the schedule order, not for a real gap (the original 10%
    // bound would have masked one). A machine model beyond the topology is
    // the executor's, so the sweep runs on a flat-cost simulator.
    let flat = Simulator::new(ExecutionConfig::bullion_s16().with_cost_model(CostModel::flat()));
    let report = Experiment::new()
        .app(Application::NStream)
        .scale(ProblemScale::Small)
        .policies([PolicyKind::RGP_LAS, PolicyKind::Dfifo])
        .seed(1)
        .run_on(&flat);
    let makespan = |policy: &str| {
        report
            .cells_of("NStream", policy)
            .first()
            .map(|c| c.makespan_ns)
            .unwrap()
    };
    let (a, b) = (makespan("RGP+LAS"), makespan("DFIFO"));
    let ratio = a.max(b) / a.min(b);
    assert!(ratio < 1.02, "flat-model ratio {ratio:.3}");
}

#[test]
fn uma_machine_makes_all_policies_equivalent() {
    let report = Experiment::new()
        .topology(Topology::uma(8))
        .app(Application::Jacobi)
        .scale(ProblemScale::Tiny)
        .policies([PolicyKind::RGP_LAS, PolicyKind::Dfifo])
        .seed(2)
        .run();
    let makespans: Vec<f64> = report.cells.iter().map(|c| c.makespan_ns).collect();
    let max = makespans.iter().cloned().fold(f64::MIN, f64::max);
    let min = makespans.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        (max - min) / min < 1e-9,
        "single-node machine: policies must be identical, got {makespans:?}"
    );
}

#[test]
fn ep_and_rgp_las_are_competitive_with_each_other() {
    // The paper's figure shows EP and RGP+LAS close together (both ≥ LAS on
    // most codes). Measured today the two policies are within 1.16× of each
    // other on these kernels (Jacobi 1.15, QR 1.01); the 1.3× bound keeps
    // ~12% of slack for cost-model retuning while still catching the class
    // of regression the original 2× bound was too loose to see (e.g. RGP
    // degenerating to round-robin placement costs well over 1.3×).
    let report = Experiment::new()
        .apps([Application::Jacobi, Application::QrFactorization])
        .scale(ProblemScale::Small)
        .policies([PolicyKind::Ep, PolicyKind::RGP_LAS])
        .seed(31)
        .run();
    for app in report.application_labels() {
        let makespan = |policy: &str| {
            report
                .cells_of(&app, policy)
                .first()
                .map(|c| c.makespan_ns)
                .unwrap()
        };
        let (ep, rgp) = (makespan("EP"), makespan("RGP+LAS"));
        let ratio = ep.max(rgp) / ep.min(rgp);
        assert!(ratio < 1.3, "{app}: EP vs RGP+LAS ratio {ratio:.3}");
    }
}

#[test]
fn window_socket_decisions_are_respected_without_stealing() {
    // With stealing disabled, every task of the initial window must run on
    // the socket the partitioner chose for it.
    let spec = Application::Jacobi.build(ProblemScale::Tiny, 8);
    let config = ExecutionConfig::bullion_s16()
        .with_steal(StealMode::NoStealing)
        .with_events();
    let executor = Backend::Simulated.executor(config);
    let mut rgp = RgpPolicy::rgp_las();
    let report = executor.execute(&spec, &mut rgp);
    assert_eq!(report.stolen_tasks, 0);
    let mut started = 0;
    for event in report.events {
        let TraceEvent::Start { task, socket, .. } = event else {
            continue;
        };
        started += 1;
        if let Some(expected) = rgp.window_socket_of(task) {
            assert_eq!(
                socket, expected,
                "task {task} ran on {socket} instead of its partition socket {expected}"
            );
        }
    }
    assert_eq!(started, spec.num_tasks());
}
