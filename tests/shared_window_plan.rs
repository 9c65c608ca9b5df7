//! The shared window plan under a race: every RGP cell of a workload finds
//! the unanchored partition of its first window on the workload's graph
//! (`TaskGraph::window_plan`), so eight policies preparing on one graph at
//! once compute it once and each see what a policy alone computes. The
//! sweep-level counts (8 plans, 8 reused, 24 windows at Full for any
//! `--jobs`) are `tests/envelope.rs`'s in-process rows.

use std::sync::{Arc, Barrier};

use numadag::core::MemoryLocator;
use numadag::prelude::*;

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
