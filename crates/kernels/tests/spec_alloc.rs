//! Allocation gate for a built workload: a spec keeps the same number of
//! heap blocks alive whatever its size — the task graph is a fixed set of
//! columns, not two blocks per task (a kind `String` and an access `Vec`,
//! which the graph kept before it was stored as columns). Also bounds what
//! building the eight Full specs allocates in all.
//!
//! Counted with a per-thread counting global allocator armed only around
//! the measured call (see `crates/runtime/tests/sim_alloc.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use numadag_kernels::{Application, ProblemScale};

struct CountingAlloc;

/// Allocations, reallocations and frees of the armed thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counts {
    allocs: usize,
    reallocs: usize,
    frees: usize,
}

thread_local! {
    // Const-initialised and without destructors: reading them never
    // allocates or registers anything, so the allocator may touch them.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static COUNTS: Cell<Counts> = const {
        Cell::new(Counts { allocs: 0, reallocs: 0, frees: 0 })
    };
}

/// Counts one event if the calling thread is inside a measured call.
fn count_if_armed(event: impl FnOnce(&mut Counts)) {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = COUNTS.try_with(|counts| {
            let mut c = counts.get();
            event(&mut c);
            counts.set(c);
        });
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_armed(|c| c.allocs += 1);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_armed(|c| c.reallocs += 1);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_if_armed(|c| c.frees += 1);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn count<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    COUNTS.with(|counts| counts.set(Counts::default()));
    ARMED.with(|armed| armed.set(true));
    let out = f();
    ARMED.with(|armed| armed.set(false));
    (out, COUNTS.with(Cell::get))
}

/// Heap blocks `app` at `scale` keeps alive once built.
fn blocks_kept(app: Application, scale: ProblemScale) -> (usize, usize) {
    let (spec, counts) = count(|| app.build(scale, 8));
    (counts.allocs - counts.frees, spec.num_tasks())
}

#[test]
fn a_built_spec_keeps_as_many_blocks_at_tiny_as_at_full() {
    for app in Application::all() {
        let (tiny, tiny_tasks) = blocks_kept(app, ProblemScale::Tiny);
        let (full, full_tasks) = blocks_kept(app, ProblemScale::Full);
        println!("{app}: {tiny} blocks for {tiny_tasks} tasks, {full} for {full_tasks}");
        assert!(full_tasks > 10 * tiny_tasks, "{app}");
        assert_eq!(
            full, tiny,
            "{app}: the blocks a spec keeps grow with its tasks"
        );
    }
}

#[test]
fn building_the_eight_full_specs_stays_within_its_allocations() {
    let (specs, counts) = count(|| Application::all().map(|app| app.build(ProblemScale::Full, 8)));
    let tasks: usize = specs.iter().map(|spec| spec.num_tasks()).sum();
    println!("{tasks} tasks: {counts:?}");
    assert!(
        counts.allocs + counts.reallocs <= FULL_BUILD_ALLOCATIONS,
        "{counts:?}"
    );
}

/// Allocations plus reallocations of building the eight Full specs (12,806
/// tasks): 14,380 + 1,890, nearly all of them one access list per submitted
/// `TaskSpec`, freed once the graph has copied it. It may only go down
/// (27,097 + 5,461 while each task kept its own kind and access list).
const FULL_BUILD_ALLOCATIONS: usize = 16_270;
