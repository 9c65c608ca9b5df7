//! The shared window plan, end to end: every RGP cell of a workload finds the
//! unanchored partition of its first window on the workload's graph
//! (`TaskGraph::window_plan`), so a sweep partitions it once however many
//! policy columns and worker threads it has — and reports exactly what it
//! reported when every cell partitioned for itself.

use std::sync::{Arc, Barrier};

use numadag::core::MemoryLocator;
use numadag::prelude::*;

/// The Figure-1 sweep behind `BENCH_figure1_full.json`.
fn figure1_full() -> Experiment {
    Experiment::new()
        .apps(Application::all())
        .scale(ProblemScale::Full)
        .policies(PolicyKind::parse_list("dfifo,rgp-las,rgp-las:prop=repart,ep").unwrap())
}

#[test]
fn a_full_sweep_computes_each_first_window_once_for_any_worker_count() {
    for jobs in [1usize, 2, 4] {
        // Fresh specs per sweep: the counters are the graphs' own.
        let plan = figure1_full().plan();
        let report = plan.execute(jobs);
        let (plans, reused) = plan
            .workloads()
            .iter()
            .map(|workload| workload.spec.graph.window_plan_counts())
            .fold((0, 0), |sum, counts| (sum.0 + counts.0, sum.1 + counts.1));
        // Eight applications: `rgp-las` computes window 0, `prop=repart`
        // finds it and partitions its eight later windows anchored.
        assert_eq!((plans, reused), (8, 8), "jobs={jobs}");
        let placed: usize = report.timing.cell_partition_windows.iter().sum();
        assert_eq!(
            placed, 24,
            "jobs={jobs}: a reused plan is still a placed window"
        );
        assert_eq!(placed - reused, 16, "jobs={jobs}: partitioner runs");
        assert_eq!(
            report.to_json_string(),
            include_str!("../BENCH_figure1_full.json"),
            "jobs={jobs} moved the committed baseline"
        );
    }
}

#[test]
fn eight_policies_racing_prepare_on_one_graph_compute_one_plan() {
    let topo = Topology::bullion_s16();
    let sockets = topo.num_sockets();
    let spec = Application::Jacobi.build(ProblemScale::Full, sockets);
    // One-shot and repartitioning policies alternate.
    let tuning = |i: usize| RgpTuning {
        prop: [Propagation::Las, Propagation::Repartition][i % 2],
        ..RgpTuning::default()
    };
    let window_sockets = |policy: &RgpPolicy, graph: &TaskGraph| -> Vec<Option<SocketId>> {
        graph
            .task_ids()
            .map(|t| policy.window_socket_of(t))
            .collect()
    };
    let prepared = |i: usize, graph: &Arc<TaskGraph>| {
        let memory = MemoryMap::with_regions(spec.graph.region_sizes());
        let mut policy = RgpPolicy::new(tuning(i), 0xF1617E);
        policy.prepare(graph, &MemoryLocator::new(&topo, &memory));
        window_sockets(&policy, graph)
    };

    let barrier = Barrier::new(8);
    let raced: Vec<Vec<Option<SocketId>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let (barrier, prepared, graph) = (&barrier, &prepared, &spec.graph);
                scope.spawn(move || {
                    barrier.wait();
                    prepared(i, graph)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(spec.graph.window_plan_counts(), (1, 7));

    // What a policy computes alone, on a graph nobody else has touched.
    let fresh = Application::Jacobi.build(ProblemScale::Full, sockets);
    let alone = prepared(0, &fresh.graph);
    assert_eq!(fresh.graph.window_plan_counts(), (1, 0));
    assert_eq!(alone.iter().filter(|s| s.is_some()).count(), 1024);
    for (i, sockets) in raced.iter().enumerate() {
        assert_eq!(sockets, &alone, "thread {i} saw another plan");
    }
}
