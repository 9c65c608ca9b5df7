//! Allocation gate for a warmed simulator cell: the second
//! `Simulator::run` of a spec allocates only what it returns and the
//! per-run memory map — the run state (in-degrees, queues, idle stacks,
//! event heap) is reset in place, the TDG's flat view is
//! memoised, and no task, access or event allocates. A reintroduced
//! per-task allocation fails this test instead of a benchmark.
//!
//! Counted with a per-thread counting global allocator armed only around
//! the measured call (see `crates/graph/tests/refine_alloc.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use numadag_core::DfifoPolicy;
use numadag_kernels::{Application, ProblemScale};
use numadag_runtime::{ExecutionConfig, Simulator};

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

fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOCATIONS.with(|count| count.set(0));
    ARMED.with(|armed| armed.set(true));
    let out = f();
    ARMED.with(|armed| armed.set(false));
    (out, ALLOCATIONS.with(Cell::get))
}

#[test]
fn a_warmed_cell_allocates_only_its_report_and_memory_map() {
    let simulator = Simulator::new(ExecutionConfig::bullion_s16());
    for app in [Application::Jacobi, Application::QrFactorization] {
        let spec = app.build(ProblemScale::Small, 8);
        let first = simulator.run(&spec, &mut DfifoPolicy::new());
        let (second, allocations) =
            count_allocations(|| simulator.run(&spec, &mut DfifoPolicy::new()));
        assert_eq!(second.makespan_ns, first.makespan_ns);
        println!(
            "{app}: {} tasks, {allocations} allocations",
            spec.num_tasks()
        );
        assert!(spec.num_tasks() > 100, "{app}");
        assert_eq!(
            allocations,
            WARM_CELL_ALLOCATIONS,
            "{app}: a warmed cell of {} tasks must not allocate per task",
            spec.num_tasks()
        );
    }
}

/// 1 for the per-run `MemoryMap` (its one table of `(size, placement)` per
/// region) and 2 for the returned `ExecutionReport`'s two per-socket
/// vectors — whatever the task count. The traffic ledger is two counters in
/// the report: no link matrix, no B-tree nodes. It may only go down (it
/// was 27, then 16, then 13 while the ledger kept a link map).
const WARM_CELL_ALLOCATIONS: usize = 3;
