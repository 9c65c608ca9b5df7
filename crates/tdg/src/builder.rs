//! The TDG builder: the front door applications (and the kernels crate) use
//! to express their computation as tasks.
//!
//! [`TdgBuilder`] mirrors the role of the task-creation path of Nanos++: it
//! hands out region ids, accepts task submissions in program order, runs the
//! dependence analysis and accumulates the [`TaskGraph`].

use numadag_numa::RegionId;

use crate::deps::DependencyTracker;
use crate::graph::TaskGraph;
use crate::task::{TaskId, TaskSpec};

/// Incrementally builds a [`TaskGraph`], region table included, from task
/// submissions.
#[derive(Clone, Debug, Default)]
pub struct TdgBuilder {
    graph: TaskGraph,
    tracker: DependencyTracker,
    /// `(predecessor, bytes)` pairs of the task being submitted.
    deps: Vec<(TaskId, u64)>,
}

impl TdgBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a data region of `size_bytes` bytes in the graph's region
    /// table and returns its id.
    pub fn region(&mut self, size_bytes: u64) -> RegionId {
        self.graph.region(size_bytes)
    }

    /// Submits a task. Dependences on earlier tasks are derived automatically
    /// from the declared accesses. Returns the id of the new task.
    ///
    /// # Panics
    /// Panics with [`TaskGraph::push_task`]'s refusal if the task is not
    /// runnable: an access to a region this builder did not register or
    /// larger than its region, or work that is not finite and non-negative.
    pub fn submit(&mut self, spec: TaskSpec) -> TaskId {
        let id = TaskId(self.graph.num_tasks());
        self.tracker
            .register_into(id, &spec.accesses, &mut self.deps);
        self.graph
            .push_task(&spec.kind, spec.work_units, &spec.accesses, &self.deps)
            .unwrap_or_else(|refused| panic!("{refused}"))
    }

    /// Finishes building and returns the graph.
    pub fn finish(self) -> TaskGraph {
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskSpec;

    #[test]
    fn builder_derives_dependences() {
        let mut b = TdgBuilder::new();
        let a = b.region(4096);
        let c = b.region(4096);
        let t0 = b.submit(TaskSpec::new("init_a").work(1.0).writes(a, 4096));
        let t1 = b.submit(TaskSpec::new("init_c").work(1.0).writes(c, 4096));
        let t2 = b.submit(
            TaskSpec::new("add")
                .work(2.0)
                .reads(a, 4096)
                .reads(c, 4096)
                .writes(a, 4096),
        );
        let g = b.finish();
        assert_eq!(g.num_tasks(), 3);
        assert_eq!(g.region_sizes(), [4096, 4096]);
        assert_eq!(g.in_degree(t2), 2);
        // RAW (read of `a`) and WAW (write of `a`) edges from t0 are merged: 4096 + 4096.
        let preds = g.predecessors(t2);
        assert!(preds.contains(&(t0, 4096 + 4096)));
        assert!(preds.iter().any(|&(t, _)| t == t1));
        assert_eq!(g.in_degree(t1), 0);
        assert_eq!(g.in_degree(t0), 0);
    }

    #[test]
    fn regions_are_sequential_and_sized() {
        let mut b = TdgBuilder::new();
        let r0 = b.region(100);
        let r1 = b.region(200);
        assert_eq!(r0.index(), 0);
        assert_eq!(r1.index(), 1);
        assert_eq!(b.finish().region_sizes(), [100, 200]);
    }

    #[test]
    fn independent_tasks_have_no_edges() {
        let mut b = TdgBuilder::new();
        let regions: Vec<_> = (0..10).map(|_| b.region(64)).collect();
        for &r in &regions {
            b.submit(TaskSpec::new("independent").work(1.0).writes(r, 64));
        }
        let g = b.finish();
        assert_eq!(g.num_tasks(), 10);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.sources().len(), 10);
    }

    #[test]
    fn long_chain_has_linear_critical_path() {
        let mut b = TdgBuilder::new();
        let r = b.region(1024);
        for i in 0..50 {
            b.submit(
                TaskSpec::new(format!("step{i}"))
                    .work(1.0)
                    .reads_writes(r, 1024),
            );
        }
        let g = b.finish();
        assert_eq!(g.num_edges(), 49);
        assert!((g.critical_path_work() - 50.0).abs() < 1e-9);
        assert!((g.average_parallelism() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "task T0 accesses unknown region R3")]
    fn unknown_region_rejected() {
        let mut b = TdgBuilder::new();
        b.submit(TaskSpec::new("bad").writes(RegionId(3), 8));
    }

    #[test]
    #[should_panic(expected = "task T0 has work -1, which is not a finite non-negative number")]
    fn negative_work_rejected() {
        let mut b = TdgBuilder::new();
        b.submit(TaskSpec::new("bad").work(-1.0));
    }
}
