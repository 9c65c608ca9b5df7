//! The task dependency graph (TDG).

use crate::task::{TaskDescriptor, TaskId};

/// A directed acyclic graph of tasks. Nodes are tasks in submission order;
/// edges carry the number of bytes of data flowing (or being serialised)
/// between the two tasks.
#[derive(Clone, Debug, Default)]
pub struct TaskGraph {
    tasks: Vec<TaskDescriptor>,
    /// successors[t] = (successor task, bytes), deduplicated.
    successors: Vec<Vec<(TaskId, u64)>>,
    /// predecessors[t] = (predecessor task, bytes), deduplicated.
    predecessors: Vec<Vec<(TaskId, u64)>>,
    num_edges: usize,
}

impl TaskGraph {
    /// Creates an empty TDG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tasks.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of (deduplicated) dependence edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// True if the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The task descriptor for `id`.
    pub fn task(&self, id: TaskId) -> &TaskDescriptor {
        &self.tasks[id.index()]
    }

    /// All task descriptors in submission order.
    pub fn tasks(&self) -> &[TaskDescriptor] {
        &self.tasks
    }

    /// All task ids in submission order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> {
        (0..self.tasks.len()).map(TaskId)
    }

    /// Successor edges of a task.
    pub fn successors(&self, id: TaskId) -> &[(TaskId, u64)] {
        &self.successors[id.index()]
    }

    /// Predecessor edges of a task.
    pub fn predecessors(&self, id: TaskId) -> &[(TaskId, u64)] {
        &self.predecessors[id.index()]
    }

    /// Number of predecessors of a task.
    pub fn in_degree(&self, id: TaskId) -> usize {
        self.predecessors[id.index()].len()
    }

    /// Number of successors of a task.
    pub fn out_degree(&self, id: TaskId) -> usize {
        self.successors[id.index()].len()
    }

    /// Tasks with no predecessors (ready at the start of the execution).
    pub fn sources(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|&t| self.in_degree(t) == 0)
            .collect()
    }

    /// Tasks with no successors.
    pub fn sinks(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|&t| self.out_degree(t) == 0)
            .collect()
    }

    /// Appends a task and its dependence edges. `deps` is a list of
    /// `(predecessor, bytes)`; duplicates are merged by adding bytes.
    /// Intended to be called by [`crate::builder::TdgBuilder`], but public so
    /// synthetic graphs can be assembled directly in tests and benches.
    ///
    /// # Panics
    /// Panics if the descriptor's id is not the next dense id, or if a
    /// dependence refers to a not-yet-submitted task (which would create a
    /// cycle).
    pub fn push_task(&mut self, descriptor: TaskDescriptor, deps: &[(TaskId, u64)]) -> TaskId {
        let id = descriptor.id;
        assert_eq!(
            id.index(),
            self.tasks.len(),
            "tasks must be pushed in dense submission order"
        );
        for &(pred, _) in deps {
            assert!(
                pred.index() < self.tasks.len(),
                "dependence on not-yet-submitted task {pred:?}"
            );
            assert_ne!(pred, id, "a task cannot depend on itself");
        }
        // A task has a handful of predecessors: sort the pairs and fold
        // duplicates into the first of each run.
        let mut preds = deps.to_vec();
        preds.sort_unstable_by_key(|&(pred, _)| pred);
        preds.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        self.tasks.push(descriptor);
        self.successors.push(Vec::new());
        for &(pred, bytes) in &preds {
            self.successors[pred.index()].push((id, bytes));
            self.num_edges += 1;
        }
        self.predecessors.push(preds);
        id
    }

    /// Total bytes carried by all edges.
    pub fn total_edge_bytes(&self) -> u64 {
        self.predecessors
            .iter()
            .flat_map(|p| p.iter().map(|(_, b)| *b))
            .sum()
    }

    /// Total work units of all tasks.
    pub fn total_work(&self) -> f64 {
        self.tasks.iter().map(|t| t.work_units).sum()
    }

    /// Bytes on the edge `from → to`, if present.
    pub fn edge_bytes(&self, from: TaskId, to: TaskId) -> Option<u64> {
        self.successors[from.index()]
            .iter()
            .find(|(t, _)| *t == to)
            .map(|(_, b)| *b)
    }

    /// A topological order of the tasks. Because tasks are submitted in
    /// program order and edges only point forward, the submission order is
    /// already topological; this method additionally verifies it (and is the
    /// basis of [`Self::is_acyclic`]).
    pub fn topological_order(&self) -> Vec<TaskId> {
        let order: Vec<TaskId> = self.task_ids().collect();
        debug_assert!(self.is_acyclic());
        order
    }

    /// True if every edge points from a lower to a higher task id (which
    /// implies acyclicity).
    pub fn is_acyclic(&self) -> bool {
        self.task_ids().all(|t| {
            self.successors(t)
                .iter()
                .all(|(s, _)| s.index() > t.index())
        })
    }

    /// Length of the critical path in work units: the heaviest chain of tasks
    /// under the dependence relation. This bounds the best possible makespan
    /// of any schedule on any number of cores (ignoring memory time).
    pub fn critical_path_work(&self) -> f64 {
        let n = self.num_tasks();
        let mut finish = vec![0.0f64; n];
        for t in self.task_ids() {
            let start = self
                .predecessors(t)
                .iter()
                .map(|(p, _)| finish[p.index()])
                .fold(0.0f64, f64::max);
            finish[t.index()] = start + self.task(t).work_units;
        }
        finish.into_iter().fold(0.0f64, f64::max)
    }

    /// Average parallelism: total work divided by the critical path.
    pub fn average_parallelism(&self) -> f64 {
        let cp = self.critical_path_work();
        if cp == 0.0 {
            0.0
        } else {
            self.total_work() / cp
        }
    }

    /// The depth (longest chain measured in number of tasks) of each task,
    /// starting at 0 for sources. Useful for level-by-level analyses and for
    /// expert placements on wavefront codes.
    pub fn levels(&self) -> Vec<usize> {
        let n = self.num_tasks();
        let mut level = vec![0usize; n];
        for t in self.task_ids() {
            let l = self
                .predecessors(t)
                .iter()
                .map(|(p, _)| level[p.index()] + 1)
                .max()
                .unwrap_or(0);
            level[t.index()] = l;
        }
        level
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{DataAccess, TaskDescriptor};
    use numadag_numa::RegionId;

    fn task(id: usize, work: f64) -> TaskDescriptor {
        TaskDescriptor {
            id: TaskId(id),
            kind: format!("t{id}"),
            work_units: work,
            accesses: vec![DataAccess::write(RegionId(id), 8)],
        }
    }

    /// Diamond: 0 → {1, 2} → 3.
    fn diamond() -> TaskGraph {
        let mut g = TaskGraph::new();
        g.push_task(task(0, 1.0), &[]);
        g.push_task(task(1, 2.0), &[(TaskId(0), 100)]);
        g.push_task(task(2, 3.0), &[(TaskId(0), 200)]);
        g.push_task(task(3, 1.0), &[(TaskId(1), 100), (TaskId(2), 200)]);
        g
    }

    #[test]
    fn diamond_structure() {
        let g = diamond();
        assert_eq!(g.num_tasks(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.sources(), vec![TaskId(0)]);
        assert_eq!(g.sinks(), vec![TaskId(3)]);
        assert_eq!(g.in_degree(TaskId(3)), 2);
        assert_eq!(g.out_degree(TaskId(0)), 2);
        assert_eq!(g.edge_bytes(TaskId(0), TaskId(2)), Some(200));
        assert_eq!(g.edge_bytes(TaskId(1), TaskId(2)), None);
        assert!(g.is_acyclic());
        assert_eq!(g.total_edge_bytes(), 600);
    }

    #[test]
    fn critical_path_and_parallelism() {
        let g = diamond();
        // Critical path: 0 (1.0) → 2 (3.0) → 3 (1.0) = 5.0.
        assert!((g.critical_path_work() - 5.0).abs() < 1e-12);
        assert!((g.total_work() - 7.0).abs() < 1e-12);
        assert!((g.average_parallelism() - 1.4).abs() < 1e-12);
    }

    #[test]
    fn levels_follow_longest_chain() {
        let g = diamond();
        assert_eq!(g.levels(), vec![0, 1, 1, 2]);
    }

    #[test]
    fn duplicate_dependences_are_merged() {
        let mut g = TaskGraph::new();
        g.push_task(task(0, 1.0), &[]);
        g.push_task(task(1, 1.0), &[(TaskId(0), 100), (TaskId(0), 50)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_bytes(TaskId(0), TaskId(1)), Some(150));
    }

    #[test]
    fn empty_graph_properties() {
        let g = TaskGraph::new();
        assert!(g.is_empty());
        assert_eq!(g.critical_path_work(), 0.0);
        assert_eq!(g.average_parallelism(), 0.0);
        assert!(g.sources().is_empty());
        assert!(g.is_acyclic());
    }

    #[test]
    #[should_panic(expected = "dense submission order")]
    fn out_of_order_push_rejected() {
        let mut g = TaskGraph::new();
        g.push_task(task(1, 1.0), &[]);
    }

    #[test]
    #[should_panic(expected = "not-yet-submitted")]
    fn forward_dependence_rejected() {
        let mut g = TaskGraph::new();
        g.push_task(task(0, 1.0), &[(TaskId(5), 8)]);
    }

    #[test]
    fn topological_order_is_submission_order() {
        let g = diamond();
        let order = g.topological_order();
        assert_eq!(order, vec![TaskId(0), TaskId(1), TaskId(2), TaskId(3)]);
    }
}
