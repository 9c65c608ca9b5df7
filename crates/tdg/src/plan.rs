//! Window plans: the unanchored partition of a task window, computed once per
//! graph and shared by every policy that asks.
//!
//! The paper's runtime partitions a window once, when the window-size limit is
//! reached; everything after reuses that plan. A sweep runs several RGP
//! policies over one `Arc<TaskGraph>` — `rgp-las` and `rgp-las:prop=repart`
//! in Figure 1, more in the ablations — and each of them needs the same first
//! window cut the same way. The partition of a window without anchors is a
//! pure function of the graph, the window and the [`PartitionConfig`] (the
//! seed is part of the config, and the partitioner's scratch context never
//! influences its result), so the graph remembers it beside its other derived
//! views: see [`TaskGraph::window_plan`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use numadag_graph::{partition, Partition, PartitionConfig};

use crate::convert::window_to_csr;
use crate::graph::TaskGraph;
use crate::window::TaskWindow;

/// The unanchored partition of one window of a [`TaskGraph`].
#[derive(Debug, PartialEq, Eq)]
pub struct WindowPlan {
    /// Part of every window vertex: vertex `v` is task `window.start + v`.
    pub partition: Partition,
    /// Edge cut of `partition` over the window's graph, in bytes.
    pub edge_cut: i64,
}

impl WindowPlan {
    fn compute(graph: &TaskGraph, window: &TaskWindow, config: &PartitionConfig) -> WindowPlan {
        let wg = window_to_csr(graph, window);
        let partition = partition(&wg.graph, config);
        let edge_cut = partition.edge_cut(&wg.graph);
        WindowPlan {
            partition,
            edge_cut,
        }
    }
}

/// Plans remembered per graph. A sweep asks for one key per graph (its
/// ablations for a handful: a few window sizes, schemes or repetition seeds);
/// a key that falls off the end is recomputed when next asked for, so the
/// capacity only ever costs time.
const REMEMBERED_PLANS: usize = 8;

/// Filled by the first caller of its key; later callers wait on it.
type PlanSlot = Arc<OnceLock<Arc<WindowPlan>>>;

/// The remembered plans of one graph, most recently used first.
#[derive(Debug, Default)]
pub(crate) struct WindowPlans {
    recent: Mutex<Vec<(TaskWindow, PartitionConfig, PlanSlot)>>,
    computed: AtomicUsize,
    reused: AtomicUsize,
}

/// A cloned graph starts without plans (and with its own counters).
impl Clone for WindowPlans {
    fn clone(&self) -> Self {
        WindowPlans::default()
    }
}

impl WindowPlans {
    /// The plan under `(window, config)`: `compute`d by the first caller,
    /// shared with every later one. The list is locked only to find or
    /// insert the key's slot, never while computing, so a second caller
    /// arriving mid-computation waits on the slot instead of repeating the
    /// work. If `compute` panics the slot stays empty and the next caller
    /// computes.
    fn find_or_compute(
        &self,
        window: &TaskWindow,
        config: &PartitionConfig,
        compute: impl FnOnce() -> WindowPlan,
    ) -> Arc<WindowPlan> {
        let slot = {
            // Every update leaves the list valid, so a poisoned lock is
            // still good.
            let mut recent = self.recent.lock().unwrap_or_else(PoisonError::into_inner);
            match recent
                .iter()
                .position(|(w, c, _)| w == window && c == config)
            {
                Some(at) => recent[..=at].rotate_right(1),
                None => {
                    recent.truncate(REMEMBERED_PLANS - 1);
                    recent.insert(0, (window.clone(), config.clone(), PlanSlot::default()));
                }
            }
            Arc::clone(&recent[0].2)
        };
        let mut computed = false;
        let plan = slot.get_or_init(|| {
            let plan = Arc::new(compute());
            computed = true;
            plan
        });
        // Statistics only: nothing is published through the counters.
        let counter = if computed {
            &self.computed
        } else {
            &self.reused
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Arc::clone(plan)
    }

    /// Forgets every plan (the graph is about to change).
    pub(crate) fn clear(&mut self) {
        self.recent
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    #[cfg(test)]
    fn remembered(&self) -> usize {
        self.recent
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

impl TaskGraph {
    /// The unanchored partition of `window` under `config`, computed on the
    /// first call with this exact `(window, config)` and shared by every
    /// later one — across policies, threads and sweeps, for as long as the
    /// graph lives and [`TaskGraph::push_task`] is not called. Equal to
    /// [`window_to_csr`] + [`numadag_graph::partition()`] bit for bit.
    ///
    /// # Panics
    /// Panics if `window` reaches beyond the graph's tasks.
    pub fn window_plan(&self, window: &TaskWindow, config: &PartitionConfig) -> Arc<WindowPlan> {
        self.plans
            .find_or_compute(window, config, || WindowPlan::compute(self, window, config))
    }

    /// How many [`TaskGraph::window_plan`] calls on this graph ran the
    /// partitioner and how many were served a remembered plan, as
    /// `(computed, reused)`.
    pub fn window_plan_counts(&self) -> (usize, usize) {
        (
            self.plans.computed.load(Ordering::Relaxed),
            self.plans.reused.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TdgBuilder;
    use crate::task::{TaskId, TaskSpec};
    use crate::window::WindowConfig;
    use numadag_graph::PartitionScheme;
    use std::sync::Barrier;

    /// `chains` independent read-modify-write chains of `len` tasks each,
    /// submitted round-robin.
    fn chains(chains: usize, len: usize) -> TaskGraph {
        let mut b = TdgBuilder::new();
        let regions: Vec<_> = (0..chains).map(|_| b.region(1 << 16)).collect();
        for step in 0..len {
            for (c, &r) in regions.iter().enumerate() {
                b.submit(
                    TaskSpec::new("t")
                        .work(1.0 + ((step + c) % 3) as f64)
                        .reads_writes(r, 1 << 16),
                );
            }
        }
        b.finish()
    }

    fn first_window(graph: &TaskGraph, size: usize) -> TaskWindow {
        TaskWindow::initial(graph, WindowConfig::new(size))
    }

    #[test]
    fn a_plan_equals_the_direct_partition_and_is_computed_once() {
        let g = chains(6, 40);
        let window = first_window(&g, 128);
        let config = PartitionConfig::new(4).with_seed(7);
        let plan = g.window_plan(&window, &config);
        let wg = window_to_csr(&g, &window);
        let direct = partition(&wg.graph, &config);
        assert_eq!(plan.partition, direct);
        assert_eq!(plan.edge_cut, direct.edge_cut(&wg.graph));
        assert_eq!(g.window_plan_counts(), (1, 0));
        let again = g.window_plan(&window, &config);
        assert!(Arc::ptr_eq(&plan, &again));
        assert_eq!(g.window_plan_counts(), (1, 1));
    }

    #[test]
    fn every_field_of_the_key_misses() {
        let g = chains(6, 40);
        let window = first_window(&g, 128);
        let config = PartitionConfig::new(4).with_seed(7);
        g.window_plan(&window, &config);
        let other_keys = [
            (window.clone(), config.clone().with_seed(8)),
            (first_window(&g, 64), config.clone()),
            (TaskWindow::new(TaskId(64), TaskId(192)), config.clone()),
            (
                window.clone(),
                config.clone().with_scheme(PartitionScheme::BfsGrowing),
            ),
            (window.clone(), config.clone().with_imbalance(0.2)),
            (window.clone(), config.clone().with_refine_passes(2)),
            (window.clone(), config.clone().with_coarsen_until(40)),
            (window.clone(), PartitionConfig::new(8).with_seed(7)),
        ];
        for (i, (w, c)) in other_keys.iter().enumerate() {
            g.window_plan(w, c);
            assert_eq!(g.window_plan_counts(), (i + 2, 0), "key {i} was shared");
        }
    }

    #[test]
    fn racing_callers_compute_one_plan_and_all_see_it() {
        let g = chains(8, 64);
        let window = first_window(&g, 512);
        let config = PartitionConfig::new(8);
        let barrier = Barrier::new(8);
        let plans: Vec<Arc<WindowPlan>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        g.window_plan(&window, &config)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(g.window_plan_counts(), (1, 7));
        assert!(plans.iter().all(|p| Arc::ptr_eq(p, &plans[0])));
    }

    #[test]
    fn push_task_drops_the_plans_and_a_clone_starts_without() {
        let mut g = chains(4, 20);
        let window = first_window(&g, 64);
        let config = PartitionConfig::new(4);
        let before = g.window_plan(&window, &config);
        assert_eq!(g.plans.remembered(), 1);
        let copy = g.clone();
        assert_eq!(copy.plans.remembered(), 0);
        assert_eq!(copy.window_plan_counts(), (0, 0));

        g.push_task("tail", 1.0, &[], &[(TaskId(0), 8)]).unwrap();
        assert_eq!(g.plans.remembered(), 0);
        let after = g.window_plan(&window, &config);
        assert!(!Arc::ptr_eq(&before, &after));
        assert_eq!(g.window_plan_counts(), (2, 0));
    }

    #[test]
    fn a_hundred_seeds_keep_the_list_at_its_cap() {
        let g = chains(4, 20);
        let window = first_window(&g, 64);
        for seed in 0..100 {
            g.window_plan(&window, &PartitionConfig::new(4).with_seed(seed));
            assert!(g.plans.remembered() <= REMEMBERED_PLANS);
        }
        assert_eq!(g.plans.remembered(), REMEMBERED_PLANS);
        assert_eq!(g.window_plan_counts(), (100, 0));
        // The most recent keys are the ones kept; an evicted one recomputes,
        // and using a key moves it to the front.
        g.window_plan(&window, &PartitionConfig::new(4).with_seed(92));
        assert_eq!(g.window_plan_counts(), (100, 1));
        g.window_plan(&window, &PartitionConfig::new(4).with_seed(0));
        assert_eq!(g.window_plan_counts(), (101, 1));
        g.window_plan(&window, &PartitionConfig::new(4).with_seed(92));
        assert_eq!(g.window_plan_counts(), (101, 2));
    }

    #[test]
    fn a_panicking_computation_leaves_the_slot_empty_for_the_next_caller() {
        let g = chains(4, 20);
        let window = first_window(&g, 64);
        let config = PartitionConfig::new(4);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.plans
                .find_or_compute(&window, &config, || panic!("partitioner bug"))
        }));
        assert!(panicked.is_err());
        assert_eq!(g.plans.remembered(), 1);
        assert_eq!(g.window_plan_counts(), (0, 0));
        let plan = g.window_plan(&window, &config);
        assert_eq!(g.window_plan_counts(), (1, 0));
        assert_eq!(
            *plan,
            WindowPlan::compute(&g.clone(), &window, &config),
            "the recomputed plan is the real one"
        );
        // The same through the public accessor: a window beyond the graph
        // panics in the conversion, every time, and poisons nothing.
        let beyond = TaskWindow::new(TaskId(0), TaskId(g.num_tasks() + 1));
        for _ in 0..2 {
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                g.window_plan(&beyond, &config)
            }));
            assert!(panicked.is_err());
        }
        assert!(Arc::ptr_eq(&plan, &g.window_plan(&window, &config)));
    }
}
