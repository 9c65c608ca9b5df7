//! Trace-subsystem invariants, end to end through the public API (CI runs
//! these as part of the workspace tests):
//!
//! * a traced sweep collects one complete trace per cell, with exactly one
//!   assign/start/finish event per task, also on lanes that share one
//!   threaded executor, each trace naming its report's backend;
//! * the extracted critical-path time never exceeds the makespan, and
//!   equals it under a flat cost model on one socket (where the schedule is
//!   gap-free and the chain must span the whole execution);
//! * trace JSON round-trips through `Trace::from_json_str`;
//! * the two-policy comparison localizes the Figure-1 divergence on a
//!   divergent app (Integral histogram) at Small scale.

use std::sync::Arc;

use numadag::prelude::*;

/// One traced Figure-1 style sweep at Tiny scale, on the given backend.
fn traced_sweep(backend: Backend) -> (Vec<Trace>, SweepReport) {
    let collector = Arc::new(TraceCollector::new());
    let report = Experiment::new()
        .apps([Application::NStream, Application::IntegralHistogram])
        .scale(ProblemScale::Tiny)
        .policies([PolicyKind::Dfifo, PolicyKind::RGP_LAS])
        .backend(backend)
        .seed(0xF1617E)
        .trace(Arc::clone(&collector))
        .run();
    (collector.take(), report)
}

/// The same sweep traced through `run_on` on one threaded executor shared
/// by two lanes, whose cells run at the same time.
fn traced_threaded_lanes() -> (Vec<Trace>, SweepReport) {
    let collector = Arc::new(TraceCollector::new());
    let executor =
        ThreadedExecutor::new(ExecutionConfig::new(Topology::two_socket(2)).with_events());
    let report = Experiment::new()
        .apps([Application::NStream, Application::IntegralHistogram])
        .scale(ProblemScale::Tiny)
        .policies([PolicyKind::Dfifo, PolicyKind::RGP_LAS])
        .seed(0xF1617E)
        .parallelism(2)
        .trace(Arc::clone(&collector))
        .run_on(&executor);
    assert_eq!(report.timing.jobs, 2, "two lanes ran");
    (collector.take(), report)
}

#[test]
fn traced_sweep_event_counts_match_task_counts_on_both_backends() {
    let inputs = [
        ("simulator", traced_sweep(Backend::Simulated)),
        ("threaded", traced_sweep(Backend::Threaded)),
        ("threaded, two lanes", traced_threaded_lanes()),
    ];
    for (input, (traces, report)) in inputs {
        assert_eq!(traces.len(), report.cells.len(), "{input}");
        for trace in &traces {
            // One assign, one start, one finish per task — `validate`
            // checks exactly that, plus interval sanity.
            trace
                .validate()
                .unwrap_or_else(|e| panic!("{input} {}/{}: {e}", trace.workload, trace.policy));
            assert_eq!(trace.events_tagged("assign").count(), trace.tasks);
            assert_eq!(trace.events_tagged("start").count(), trace.tasks);
            assert_eq!(trace.events_tagged("finish").count(), trace.tasks);
            // ... and the tasks are its own cell's.
            let cell = report
                .cells
                .iter()
                .find(|c| c.application == trace.workload && c.policy == trace.policy)
                .unwrap_or_else(|| panic!("{input}: no cell {}/{}", trace.workload, trace.policy));
            assert_eq!(trace.tasks, cell.tasks, "{input}");
            // The backend is the report's: under `run_on`, the executor's.
            assert_eq!(trace.backend, report.backend, "{input}");
        }
    }
}

#[test]
fn tracing_does_not_change_simulator_measurements() {
    let collector = Arc::new(TraceCollector::new());
    let experiment = || {
        Experiment::new()
            .apps([Application::Jacobi])
            .policies([PolicyKind::RGP_LAS])
            .seed(7)
    };
    let plain = experiment().run();
    let traced = experiment().trace(Arc::clone(&collector)).run();
    assert_eq!(plain.to_json_string(), traced.to_json_string());
    assert_eq!(collector.len(), plain.cells.len());
}

#[test]
fn critical_path_time_never_exceeds_makespan_for_any_policy() {
    let spec = Application::IntegralHistogram.build(ProblemScale::Tiny, 8);
    for kind in [
        PolicyKind::Dfifo,
        PolicyKind::Las,
        PolicyKind::RGP_LAS,
        PolicyKind::Ep,
    ] {
        let config = ExecutionConfig::bullion_s16().with_events();
        let mut policy = make_policy(kind, &spec, 3).expect("policy builds");
        let mut report = Simulator::new(config).run(&spec, policy.as_mut());
        let trace = Trace {
            workload: spec.name.to_string(),
            policy: report.policy.to_string(),
            backend: "simulator".to_string(),
            scale: "Tiny".to_string(),
            repetition: 0,
            tasks: spec.num_tasks(),
            num_sockets: 8,
            makespan_ns: report.makespan_ns,
            events: std::mem::take(&mut report.events),
        };
        let cp = trace.critical_path(&spec.graph);
        assert!(!cp.links.is_empty(), "{kind:?}: empty critical path");
        assert!(
            cp.time_ns <= report.makespan_ns * (1.0 + 1e-9),
            "{kind:?}: critical path {} exceeds makespan {}",
            cp.time_ns,
            report.makespan_ns
        );
        // The chain ends at the task that set the makespan.
        let last = cp.links.last().unwrap();
        assert!(
            (last.end - report.makespan_ns).abs() <= 1e-6 * report.makespan_ns,
            "{kind:?}: chain ends at {} not the makespan {}",
            last.end,
            report.makespan_ns
        );
    }
}

#[test]
fn critical_path_equals_makespan_under_flat_cost_on_one_socket() {
    // One socket and a flat cost model: the simulator's schedule is
    // work-conserving and gap-free, so the dependence + core-occupancy
    // chain must account for every nanosecond of the makespan.
    let spec = Application::Jacobi.build(ProblemScale::Tiny, 1);
    for kind in [PolicyKind::Dfifo, PolicyKind::Las] {
        let config = ExecutionConfig::new(Topology::uma(4))
            .with_cost_model(CostModel::flat())
            .with_events();
        let mut policy = make_policy(kind, &spec, 11).expect("policy builds");
        let mut report = Simulator::new(config).run(&spec, policy.as_mut());
        let trace = Trace {
            workload: spec.name.to_string(),
            policy: report.policy.to_string(),
            backend: "simulator".to_string(),
            scale: "Tiny".to_string(),
            repetition: 0,
            tasks: spec.num_tasks(),
            num_sockets: 1,
            makespan_ns: report.makespan_ns,
            events: std::mem::take(&mut report.events),
        };
        let cp = trace.critical_path(&spec.graph);
        let relative_gap = (cp.time_ns - report.makespan_ns).abs() / report.makespan_ns;
        assert!(
            relative_gap < 1e-9,
            "{kind:?}: critical path {} != makespan {}",
            cp.time_ns,
            report.makespan_ns
        );
    }
}

#[test]
fn trace_json_round_trips_through_from_json_str() {
    let (traces, _) = traced_sweep(Backend::Simulated);
    for trace in traces {
        let text = trace.to_json_string();
        let reparsed = Trace::from_json_str(&text)
            .unwrap_or_else(|e| panic!("{}/{}: {e}", trace.workload, trace.policy));
        assert_eq!(reparsed, trace);
    }
}

#[test]
fn comparison_localizes_the_integral_histogram_divergence_at_small_scale() {
    // The acceptance case: Integral histogram is one of the apps whose
    // Full-scale speedup diverges from the paper (0.955 < 1.0). The trace
    // comparison must turn that aggregate into a ranked per-task/per-region
    // report at Small scale.
    let collector = Arc::new(TraceCollector::new());
    let report = Experiment::new()
        .app(Application::IntegralHistogram)
        .scale(ProblemScale::Small)
        .policies([PolicyKind::RGP_LAS])
        .seed(0xF1617E)
        .trace(Arc::clone(&collector))
        .run();
    let rgp = collector.find("Integral histogram", "RGP+LAS").unwrap();
    let las = collector.find("Integral histogram", "LAS").unwrap();
    let spec = Application::IntegralHistogram.build(ProblemScale::Small, 8);
    let comparison = rgp.compare(&las, &spec.graph).unwrap();

    // The comparison is anchored on the same measurements as the report.
    let speedup = report.speedup_of("Integral histogram", "RGP+LAS").unwrap();
    let from_traces = comparison.makespan_other / comparison.makespan_self;
    assert!(
        (speedup - from_traces).abs() < 1e-9,
        "trace makespans ({from_traces}) disagree with the sweep ({speedup})"
    );

    // Ranked per-task report: covers every task, ranked by time lost.
    assert_eq!(comparison.task_deltas.len(), spec.num_tasks());
    let top = comparison.top_task_losses(5);
    assert!(!top.is_empty());
    for pair in top.windows(2) {
        assert!(pair[0].delta_ns() >= pair[1].delta_ns(), "ranking broken");
    }

    // Ranked per-region report: the flows that went farthest first.
    let flows = comparison.top_flow_losses(5);
    assert!(!flows.is_empty());
    for pair in flows.windows(2) {
        assert!(
            pair[0].weighted_delta() >= pair[1].weighted_delta(),
            "flow ranking broken"
        );
    }

    // The report renders (this is what `ablation trace` prints).
    let rendered = comparison.to_string();
    assert!(rendered.contains("Integral histogram"), "{rendered}");
    assert!(rendered.contains("critical path"), "{rendered}");
}
