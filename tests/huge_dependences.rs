//! Dependences too large for the partitioner's `i64` weights. A weight used
//! to be `bytes as i64` clamped to at least 1: 2^63-byte and larger
//! dependences wrapped to weight 1 (the heaviest dependence became the
//! lightest edge), and 2^61- or 2^62-byte ones overflowed the partitioner's
//! gain sums (a debug build panicked, a release build wrapped). Weights now
//! saturate and are capped per window; kernel-sized graphs never reach the
//! cap (the golden partitions and `tdg_pins` pin that). The simulator's
//! byte ledger saturates too, so such a workload also runs end to end.

use numadag::core::{make_policy, MemoryLocator};
use numadag::numa::{MemoryMap, Topology};
use numadag::runtime::{ExecutionConfig, Simulator};
use numadag::tdg::{
    window_to_csr, window_weight_cap, TaskGraphSpec, TaskId, TaskSpec, TaskWindow, TdgBuilder,
};

/// 128 tasks over 16 regions of `size` bytes: task `t` reads regions `t`
/// and `t + 5` and writes region `t + 11` (mod 16).
fn read_read_write(size: u64) -> TaskGraphSpec {
    let mut b = TdgBuilder::new();
    let regions: Vec<_> = (0..16).map(|_| b.region(size)).collect();
    for t in 0..128 {
        b.submit(
            TaskSpec::new("rrw")
                .work(1.0)
                .reads(regions[t % 16], size)
                .reads(regions[(t + 5) % 16], size)
                .writes(regions[(t + 11) % 16], size),
        );
    }
    TaskGraphSpec::new("huge", b.finish())
}

/// Prepares the policy `label` on `spec` and assigns every task in program
/// order, homing each region on the socket of the first task touching it.
/// Returns how many windows the policy partitioned.
fn schedule(label: &str, spec: &TaskGraphSpec) -> usize {
    let topo = Topology::bullion_s16();
    let mut memory = MemoryMap::with_regions(spec.graph.region_sizes());
    let mut policy = make_policy(label.parse().unwrap(), spec, 7).unwrap();
    policy.prepare(&spec.graph, &MemoryLocator::new(&topo, &memory));
    for task in spec.graph.tasks() {
        let socket = policy.assign(&task, &MemoryLocator::new(&topo, &memory));
        assert!(socket.index() < topo.num_sockets());
        for access in task.accesses.iter() {
            if !memory.is_allocated(access.region) {
                memory.place(access.region, socket.node());
            }
        }
    }
    policy.partition_stats().unwrap().windows
}

#[test]
fn both_rgp_policies_schedule_huge_dependences() {
    for size in [1 << 61, 1 << 62, 1 << 63, u64::MAX] {
        let spec = read_read_write(size);
        assert_eq!(schedule("rgp-las", &spec), 1, "{size:#x}");
        assert_eq!(schedule("rgp-las:prop=repart", &spec), 1, "{size:#x}");
        // Four windows, each anchored on the ones before it.
        assert_eq!(schedule("rgp-las:w=32,prop=repart", &spec), 4, "{size:#x}");
    }
}

/// 384 accesses of 2^61 bytes or more add up to more than `u64::MAX`: the
/// ledger's totals stop there instead of overflowing (a debug build
/// panicked on the first add past it).
#[test]
fn the_simulator_runs_huge_dependences_under_las_and_both_rgp_policies() {
    let simulator = Simulator::new(ExecutionConfig::bullion_s16());
    for size in [1 << 61, 1 << 62, 1 << 63, u64::MAX] {
        let spec = read_read_write(size);
        for label in ["las", "rgp-las", "rgp-las:prop=repart"] {
            let mut policy = make_policy(label.parse().unwrap(), &spec, 7).unwrap();
            let report = simulator.run(&spec, policy.as_mut());
            assert_eq!(report.tasks, 128, "{label} {size:#x}");
            assert_eq!(report.tasks_per_socket.iter().sum::<usize>(), 128);
            assert!(report.makespan_ns.is_finite(), "{label} {size:#x}");
            assert_eq!(report.traffic.total_bytes(), u64::MAX, "{label} {size:#x}");
            assert_eq!(report.deferred_bytes, u64::MAX, "{label} {size:#x}");
        }
    }
}

#[test]
fn a_larger_dependence_never_gets_a_smaller_weight() {
    let sizes = [
        0,
        1,
        4096,
        1 << 40,
        1 << 61,
        1 << 62,
        (1 << 63) - 1,
        1 << 63,
        u64::MAX - 1,
        u64::MAX,
    ];
    // Task 0 writes every region, task `1 + i` reads region `i`: one edge
    // of `sizes[i]` bytes per reader.
    let mut b = TdgBuilder::new();
    let regions: Vec<_> = sizes.iter().map(|&size| b.region(size)).collect();
    let writer = regions
        .iter()
        .zip(sizes)
        .fold(TaskSpec::new("w"), |t, (&r, size)| t.writes(r, size));
    b.submit(writer.work(1e300));
    for (&r, size) in regions.iter().zip(sizes) {
        b.submit(TaskSpec::new("r").work(1.0).reads(r, size));
    }
    let graph = b.finish();
    let n = graph.num_tasks();

    let whole = TaskWindow::new(TaskId(0), TaskId(n));
    let wg = window_to_csr(&graph, &whole);
    let cap = window_weight_cap(&graph, &whole);
    let weights: Vec<i64> = (1..n as u32)
        .map(|v| wg.graph.edge_weight(0, v).unwrap())
        .collect();
    let vertex_total: i128 = wg
        .graph
        .vertex_weights()
        .iter()
        .map(|&w| i128::from(w))
        .sum();
    // Everything but the writer, whose readers are its anchors.
    let tail = TaskWindow::new(TaskId(1), TaskId(n));
    let cross: Vec<i64> = window_to_csr(&graph, &tail)
        .cross_edges
        .iter()
        .map(|edge| edge.bytes)
        .collect();

    for weights in [&weights, &cross] {
        assert_eq!(weights.len(), sizes.len());
        assert!(weights.iter().all(|&w| w >= 1), "{weights:?}");
        assert!(weights.windows(2).all(|w| w[0] <= w[1]), "{weights:?}");
    }
    assert_eq!(weights[..4], [1, 1, 4096, 1 << 40]);
    assert_eq!(*weights.last().unwrap(), cap);
    // The whole window's weights, both directions, sum far below overflow.
    let edge_total: i128 = weights.iter().map(|&w| 2 * i128::from(w)).sum();
    assert!(edge_total + vertex_total <= i128::from(i64::MAX / 4));
    assert_eq!(wg.graph.vertex_weight(0), cap);
}
