//! Allocation gates for the pooled partitioner scratch: once a
//! `RefineScratch` has been warmed by one call, further
//! `refine_kway_anchored_with` calls of the same working-set size must not
//! allocate at all — that is the contract that makes threading the scratch
//! through `PartitionCtx` (one partition per RGP window, several
//! uncoarsening levels per partition) worthwhile — and a whole
//! `partition_ctx` call on a warmed `PartitionCtx` allocates only its
//! result.
//!
//! The gate counts every `alloc`/`realloc` through a counting global
//! allocator armed only around the measured call, so the test is exact
//! rather than statistical: a single reintroduced per-level or per-pass
//! allocation fails it. The armed flag and the counter are per thread:
//! libtest runs the two tests on parallel threads, and a process-wide
//! counter charged each with the other's (legitimate, unarmed) allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use numadag_graph::generators;
use numadag_graph::partition::refine::{refine_kway_anchored_with, RefineScratch};
use numadag_graph::partition::{
    partition, partition_anchored, partition_anchored_ctx, partition_ctx, AffinityCosts,
    PartitionConfig, PartitionCtx,
};

struct CountingAlloc;

thread_local! {
    // Const-initialised and without destructors: reading them never
    // allocates or registers anything, so the allocator may touch them.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Counts one allocation if the calling thread is inside a measured call.
fn count_if_armed() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_armed();
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_armed();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A seed assignment that crams every vertex into the low half of the parts,
/// so the rebalance phase (and its per-part queues) actually runs.
fn crammed(n: usize, k: usize) -> Vec<u32> {
    (0..n as u32).map(|v| v % (k as u32 / 2).max(1)).collect()
}

/// Runs `call` with the allocation counter armed.
fn counted<R>(call: impl FnOnce() -> R) -> (R, usize) {
    ALLOCATIONS.set(0);
    ARMED.set(true);
    let result = call();
    ARMED.set(false);
    (result, ALLOCATIONS.get())
}

fn measured_run(
    graph: &numadag_graph::CsrGraph,
    cfg: &PartitionConfig,
    affinity: Option<&AffinityCosts>,
    scratch: &mut RefineScratch,
    seed: &[u32],
) -> (Vec<u32>, i64, usize) {
    let mut assignment = seed.to_vec();
    let (cut, allocs) =
        counted(|| refine_kway_anchored_with(graph, &mut assignment, cfg, affinity, scratch));
    (assignment, cut, allocs)
}

#[test]
fn warmed_refine_scratch_is_allocation_free_and_bit_identical() {
    let graph = generators::random_graph(600, 5, 64, 11);
    let n = graph.num_vertices();
    let k = 8usize;
    let cfg = PartitionConfig::new(k);
    let seed = crammed(n, k);
    let mut affinity = AffinityCosts::zeros(n, k);
    for v in (0..n as u32).step_by(7) {
        affinity.add(v, v % k as u32, 256);
    }

    for aff in [None, Some(&affinity)] {
        // Cold call: sizes every buffer (and, on a fresh scratch, is the
        // bit-identity baseline).
        let mut scratch = RefineScratch::default();
        let mut cold = seed.clone();
        let cold_cut = refine_kway_anchored_with(&graph, &mut cold, &cfg, aff, &mut scratch);

        // Warmed call: identical result, zero allocations.
        let (warm, warm_cut, allocs) = measured_run(&graph, &cfg, aff, &mut scratch, &seed);
        assert_eq!(cold, warm, "reused scratch changed the refinement result");
        assert_eq!(cold_cut, warm_cut, "reused scratch changed the edge cut");
        assert_eq!(
            allocs,
            0,
            "warmed refinement allocated {allocs} times (anchored: {})",
            aff.is_some()
        );
    }
}

#[test]
fn warmed_scratch_absorbs_smaller_working_sets() {
    // A scratch warmed on a large level must stay allocation-free on the
    // smaller levels of the same hierarchy (the common multilevel pattern:
    // coarse levels are strictly smaller than the finest one).
    let big = generators::random_graph(600, 5, 64, 3);
    let small = generators::grid_2d(12, 12, 4);
    let k = 4usize;
    let cfg = PartitionConfig::new(k);
    let mut scratch = RefineScratch::default();

    let warm_seed = crammed(big.num_vertices(), k);
    let mut warm = warm_seed.clone();
    refine_kway_anchored_with(&big, &mut warm, &cfg, None, &mut scratch);

    let small_seed = crammed(small.num_vertices(), k);
    let (_, _, allocs) = measured_run(&small, &cfg, None, &mut scratch, &small_seed);
    assert_eq!(allocs, 0, "smaller level allocated {allocs} times");
}

#[test]
fn warmed_partition_ctx_allocates_only_its_results() {
    // A window-sized graph with a few distinct edge weights: four
    // coarsening levels, seven bisections, five refinements.
    let graph = generators::random_graph(1000, 8, 3, 17);
    let n = graph.num_vertices();
    let k = 8usize;
    let cfg = PartitionConfig::new(k).with_seed(0x56F1);
    let mut affinity = AffinityCosts::zeros(n, k);
    for v in (0..n as u32).step_by(5) {
        affinity.add(v, v % k as u32, 1 << 10);
    }
    let mut ctx = PartitionCtx::default();

    // Unanchored: the returned assignment. A per-level, per-bisection or
    // per-pass allocation would add at least four.
    let cold = partition_ctx(&graph, &cfg, &mut ctx);
    let (warm, allocs) = counted(|| partition_ctx(&graph, &cfg, &mut ctx));
    assert_eq!(cold, warm, "the context changed the partition");
    assert_eq!(warm, partition(&graph, &cfg));
    assert_eq!(allocs, 1, "warmed partition_ctx allocated {allocs} times");

    // Anchored, through the same context: the per-level affinity tables and
    // the tables that relabel the initial parts towards their anchors are
    // pooled too.
    let cold = partition_anchored_ctx(&graph, &cfg, &affinity, &mut ctx);
    let (warm, allocs) = counted(|| partition_anchored_ctx(&graph, &cfg, &affinity, &mut ctx));
    assert_eq!(cold, warm, "the context changed the anchored partition");
    assert_eq!(warm, partition_anchored(&graph, &cfg, &affinity));
    assert_eq!(
        allocs, 1,
        "warmed partition_anchored_ctx allocated {allocs} times"
    );
}
