//! The task dependency graph (TDG).

use std::sync::OnceLock;

use crate::plan::WindowPlans;
use crate::task::{AccessMode, TaskDescriptor, TaskId};

/// A directed acyclic graph of tasks. Nodes are tasks in submission order;
/// edges carry the number of bytes of data flowing (or being serialised)
/// between the two tasks.
///
/// Tasks only ever gain edges from earlier tasks, so the predecessor lists
/// are stored as one append-only CSR; everything keyed the other way round
/// (successors) or read once per simulated task (access columns, work,
/// in-degrees) lives in the derived [`FlatTdg`] view.
#[derive(Clone, Debug)]
pub struct TaskGraph {
    tasks: Vec<TaskDescriptor>,
    /// `pred_edges[pred_offsets[t]..pred_offsets[t + 1]]` = (predecessor
    /// task, bytes) of task `t`, ascending and deduplicated.
    pred_offsets: Vec<u32>,
    pred_edges: Vec<(TaskId, u64)>,
    /// Built on first use, dropped by [`TaskGraph::push_task`] — the only
    /// mutator, so a view handed out can never be stale.
    flat: OnceLock<FlatTdg>,
    /// The first [`TaskGraph::fold_fingerprint`] as `(state in, state out)`,
    /// dropped by `push_task` like the flat view.
    fold: OnceLock<(u64, u64)>,
    /// The unanchored window partitions asked of this graph (see
    /// [`TaskGraph::window_plan`]), dropped by `push_task` like the rest.
    pub(crate) plans: WindowPlans,
}

impl Default for TaskGraph {
    fn default() -> Self {
        TaskGraph {
            tasks: Vec::new(),
            pred_offsets: vec![0],
            pred_edges: Vec::new(),
            flat: OnceLock::new(),
            fold: OnceLock::new(),
            plans: WindowPlans::default(),
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Graph folds computed (not served from the memo) on this thread.
    pub(crate) static FOLDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The workspace's one FNV-1a 64-bit hasher: deterministic across runs and
/// platforms, unlike `std::collections::hash_map::DefaultHasher` which is
/// seeded. Workload fingerprints, the sweep service's cache keys and the
/// proc backend's config epochs are all this hash; the field is the state.
pub struct Fnv1a(pub u64);

impl Default for Fnv1a {
    /// A hasher at the FNV-1a offset basis.
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds one byte in.
    pub fn write_byte(&mut self, byte: u8) {
        self.0 ^= u64::from(byte);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Folds `bytes` in, in order.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_byte(byte);
        }
    }

    /// Folds the little-endian bytes of `value` in.
    pub fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// Folds a length-prefixed string in.
    pub(crate) fn write_str(&mut self, value: &str) {
        self.write_u64(value.len() as u64);
        self.write_bytes(value.as_bytes());
    }
}

/// The flat, executor-facing view of a [`TaskGraph`]: what an event loop
/// reads per task, as dense columns instead of per-task heap vectors.
/// Obtained from [`TaskGraph::flat`]; element for element equal to the
/// graph's own accessors.
#[derive(Clone, Debug)]
pub struct FlatTdg {
    succ_offsets: Vec<u32>,
    succ_targets: Vec<u32>,
    succ_bytes: Vec<u64>,
    in_degrees: Vec<u32>,
    access_offsets: Vec<u32>,
    access_regions: Vec<u32>,
    access_bytes: Vec<u64>,
    work: Vec<f64>,
    acyclic: bool,
}

impl FlatTdg {
    fn build(graph: &TaskGraph) -> FlatTdg {
        let n = graph.tasks.len();
        let total_accesses: usize = graph.tasks.iter().map(|t| t.accesses.len()).sum();
        // Edge counts already fit (`push_task` checks the offsets it pushes).
        assert!(
            n.max(total_accesses) <= u32::MAX as usize,
            "TDG exceeds u32 column indices"
        );

        // Successors: a counting sort of the predecessor CSR by source.
        // Visiting targets in ascending order leaves every successor list
        // ascending, like the per-task pushes it replaces.
        let mut succ_offsets = vec![0u32; n + 1];
        for &(pred, _) in &graph.pred_edges {
            succ_offsets[pred.index() + 1] += 1;
        }
        for t in 0..n {
            succ_offsets[t + 1] += succ_offsets[t];
        }
        let mut cursor = succ_offsets.clone();
        let mut succ_targets = vec![0u32; graph.pred_edges.len()];
        let mut succ_bytes = vec![0u64; graph.pred_edges.len()];
        let mut acyclic = true;
        for t in 0..n {
            for &(pred, bytes) in graph.predecessors(TaskId(t)) {
                acyclic &= pred.index() < t;
                let slot = &mut cursor[pred.index()];
                succ_targets[*slot as usize] = t as u32;
                succ_bytes[*slot as usize] = bytes;
                *slot += 1;
            }
        }

        let mut access_offsets = Vec::with_capacity(n + 1);
        access_offsets.push(0);
        let mut access_regions = Vec::with_capacity(total_accesses);
        let mut access_bytes = Vec::with_capacity(total_accesses);
        for task in &graph.tasks {
            for access in &task.accesses {
                // An index beyond u32 cannot name a region of any real
                // table; saturating keeps it out of range for validation.
                access_regions.push(u32::try_from(access.region.index()).unwrap_or(u32::MAX));
                access_bytes.push(access.bytes);
            }
            access_offsets.push(access_regions.len() as u32);
        }

        FlatTdg {
            succ_offsets,
            succ_targets,
            succ_bytes,
            in_degrees: graph.pred_offsets.windows(2).map(|w| w[1] - w[0]).collect(),
            access_offsets,
            access_regions,
            access_bytes,
            work: graph.tasks.iter().map(|t| t.work_units).collect(),
            acyclic,
        }
    }

    /// Number of tasks.
    pub fn num_tasks(&self) -> usize {
        self.work.len()
    }

    /// The tasks depending on `task`, ascending.
    #[inline]
    pub fn successors(&self, task: TaskId) -> &[u32] {
        let t = task.index();
        &self.succ_targets[self.succ_offsets[t] as usize..self.succ_offsets[t + 1] as usize]
    }

    /// The byte weights of the edges to [`FlatTdg::successors`], in the same
    /// order.
    pub fn successor_bytes(&self, task: TaskId) -> &[u64] {
        let t = task.index();
        &self.succ_bytes[self.succ_offsets[t] as usize..self.succ_offsets[t + 1] as usize]
    }

    /// Number of predecessors of every task, in task order.
    pub fn in_degrees(&self) -> &[u32] {
        &self.in_degrees
    }

    /// The `(region, bytes)` columns of `task`'s accesses, in declaration
    /// order: `regions[i]` is the index of the region the `i`-th access
    /// touches, `bytes[i]` how much of it.
    #[inline]
    pub fn accesses(&self, task: TaskId) -> (&[u32], &[u64]) {
        let t = task.index();
        let range = self.access_offsets[t] as usize..self.access_offsets[t + 1] as usize;
        (
            &self.access_regions[range.clone()],
            &self.access_bytes[range],
        )
    }

    /// The `(region, bytes)` columns of every access of every task, in task
    /// order.
    pub fn all_accesses(&self) -> (&[u32], &[u64]) {
        (&self.access_regions, &self.access_bytes)
    }

    /// Work units of `task`.
    #[inline]
    pub fn work(&self, task: TaskId) -> f64 {
        self.work[task.index()]
    }

    /// The memoised verdict of [`TaskGraph::is_acyclic`].
    pub fn is_acyclic(&self) -> bool {
        self.acyclic
    }
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
        self.pred_edges.len()
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

    /// The flat view of the graph, built on the first call after the last
    /// [`TaskGraph::push_task`] and shared by every later one.
    pub fn flat(&self) -> &FlatTdg {
        self.flat.get_or_init(|| FlatTdg::build(self))
    }

    /// Successor edges of a task as `(successor, bytes)`, ascending (read
    /// from the [`FlatTdg`] view).
    pub fn successors(&self, id: TaskId) -> impl ExactSizeIterator<Item = (TaskId, u64)> + '_ {
        let flat = self.flat();
        flat.successors(id)
            .iter()
            .map(|&t| TaskId(t as usize))
            .zip(flat.successor_bytes(id).iter().copied())
    }

    /// Predecessor edges of a task.
    pub fn predecessors(&self, id: TaskId) -> &[(TaskId, u64)] {
        let t = id.index();
        &self.pred_edges[self.pred_offsets[t] as usize..self.pred_offsets[t + 1] as usize]
    }

    /// Number of predecessors of a task.
    pub fn in_degree(&self, id: TaskId) -> usize {
        self.predecessors(id).len()
    }

    /// Number of successors of a task.
    pub fn out_degree(&self, id: TaskId) -> usize {
        self.flat().successors(id).len()
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
        self.flat.take();
        self.fold.take();
        self.plans.clear();
        // A task has a handful of predecessors: sort the pairs in place at
        // the tail of the edge array and fold duplicates into the first of
        // each run.
        let start = self.pred_edges.len();
        self.pred_edges.extend_from_slice(deps);
        self.pred_edges[start..].sort_unstable_by_key(|&(pred, _)| pred);
        let mut kept = start;
        for i in start..self.pred_edges.len() {
            let (pred, bytes) = self.pred_edges[i];
            if kept > start && self.pred_edges[kept - 1].0 == pred {
                self.pred_edges[kept - 1].1 += bytes;
            } else {
                self.pred_edges[kept] = (pred, bytes);
                kept += 1;
            }
        }
        self.pred_edges.truncate(kept);
        self.pred_offsets
            .push(u32::try_from(kept).expect("TDG exceeds u32 edge indices"));
        self.tasks.push(descriptor);
        id
    }

    /// Folds everything the graph contributes to
    /// [`TaskGraphSpec::fingerprint`](crate::TaskGraphSpec::fingerprint) —
    /// the task and edge counts, every task's kind / work / accesses and
    /// every successor edge with its bytes — into the FNV-1a state `state`.
    ///
    /// A fold is a pure function of the graph and the incoming state, and
    /// walks a few hundred kilobytes a byte at a time, so the first one is
    /// remembered: every later call with the same incoming state (the same
    /// spec name hashed before it) is a load, which is what makes a
    /// fingerprint free on the per-cell paths that key on it. Another
    /// incoming state (a renamed spec sharing the graph) folds afresh.
    pub(crate) fn fold_fingerprint(&self, state: u64) -> u64 {
        match self.fold.get() {
            Some(&(seen, out)) if seen == state => out,
            _ => {
                let out = self.fold_fingerprint_uncached(state);
                let _ = self.fold.set((state, out));
                out
            }
        }
    }

    fn fold_fingerprint_uncached(&self, state: u64) -> u64 {
        #[cfg(test)]
        FOLDS.with(|folds| folds.set(folds.get() + 1));
        let mut h = Fnv1a(state);
        h.write_u64(self.num_tasks() as u64);
        h.write_u64(self.num_edges() as u64);
        for task in &self.tasks {
            h.write_str(&task.kind);
            h.write_u64(task.work_units.to_bits());
            h.write_u64(task.accesses.len() as u64);
            for access in &task.accesses {
                h.write_u64(access.region.index() as u64);
                h.write_u64(match access.mode {
                    AccessMode::In => 0,
                    AccessMode::Out => 1,
                    AccessMode::InOut => 2,
                });
                h.write_u64(access.bytes);
            }
        }
        let flat = self.flat();
        for (&succ, &bytes) in flat.succ_targets.iter().zip(&flat.succ_bytes) {
            h.write_u64(u64::from(succ));
            h.write_u64(bytes);
        }
        h.0
    }

    /// Total bytes carried by all edges.
    pub fn total_edge_bytes(&self) -> u64 {
        self.pred_edges.iter().map(|(_, b)| *b).sum()
    }

    /// Total work units of all tasks.
    pub fn total_work(&self) -> f64 {
        self.tasks.iter().map(|t| t.work_units).sum()
    }

    /// Bytes on the edge `from → to`, if present.
    pub fn edge_bytes(&self, from: TaskId, to: TaskId) -> Option<u64> {
        self.predecessors(to)
            .iter()
            .find(|(t, _)| *t == from)
            .map(|(_, b)| *b)
    }

    /// True if every edge points from a lower to a higher task id (which
    /// implies acyclicity): tasks are submitted in program order and edges
    /// only point forward, so the submission order is topological.
    pub fn is_acyclic(&self) -> bool {
        self.flat().is_acyclic()
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

    /// The nested successor lists `push_task` kept before the flat view
    /// replaced them, rebuilt from the same inputs: each task's deduplicated
    /// predecessors push `(task, bytes)` onto their own list.
    fn nested_successors(deps: &[Vec<(TaskId, u64)>]) -> Vec<Vec<(TaskId, u64)>> {
        let mut successors = vec![Vec::new(); deps.len()];
        for (t, task_deps) in deps.iter().enumerate() {
            let mut merged = std::collections::BTreeMap::new();
            for &(pred, bytes) in task_deps {
                *merged.entry(pred).or_insert(0u64) += bytes;
            }
            for (pred, bytes) in merged {
                successors[pred.index()].push((TaskId(t), bytes));
            }
        }
        successors
    }

    /// Checks the flat view (and the accessors reading it) against the
    /// descriptors, the predecessor lists and `successors`, element for
    /// element.
    fn assert_flat_matches(g: &TaskGraph, successors: &[Vec<(TaskId, u64)>]) {
        let flat = g.flat();
        assert_eq!(flat.num_tasks(), g.num_tasks());
        assert!(flat.is_acyclic());
        let (all_regions, all_bytes) = flat.all_accesses();
        let mut seen_accesses = 0;
        for t in g.task_ids() {
            let task = g.task(t);
            let want = &successors[t.index()];
            let targets: Vec<TaskId> = want.iter().map(|(s, _)| *s).collect();
            let bytes: Vec<u64> = want.iter().map(|(_, b)| *b).collect();
            let flat_targets: Vec<TaskId> = flat
                .successors(t)
                .iter()
                .map(|&s| TaskId(s as usize))
                .collect();
            assert_eq!(flat_targets, targets, "successors of {t}");
            assert_eq!(flat.successor_bytes(t), bytes, "edge bytes of {t}");
            assert_eq!(&g.successors(t).collect::<Vec<_>>(), want);
            assert_eq!(g.out_degree(t), want.len());
            assert_eq!(
                flat.in_degrees()[t.index()] as usize,
                g.predecessors(t).len()
            );
            let (regions, access_bytes) = flat.accesses(t);
            let want_regions: Vec<u32> = task
                .accesses
                .iter()
                .map(|a| a.region.index() as u32)
                .collect();
            let want_bytes: Vec<u64> = task.accesses.iter().map(|a| a.bytes).collect();
            assert_eq!(regions, want_regions, "access regions of {t}");
            assert_eq!(access_bytes, want_bytes, "access bytes of {t}");
            let range = seen_accesses..seen_accesses + regions.len();
            assert_eq!(&all_regions[range.clone()], regions);
            assert_eq!(&all_bytes[range], access_bytes);
            seen_accesses += regions.len();
            assert_eq!(flat.work(t).to_bits(), task.work_units.to_bits());
        }
        assert_eq!(all_regions.len(), seen_accesses);
    }

    proptest::proptest! {
        /// Random DAGs (duplicate and zero-byte dependences included): the
        /// flat view equals the nested structure the graph used to keep.
        #[test]
        fn flat_view_matches_nested_lists(
            tasks in proptest::collection::vec(
                (proptest::collection::vec((0usize..1000, 0u64..5000), 0..6), 0usize..4, 0u64..100),
                0..60,
            ),
        ) {
            let mut g = TaskGraph::new();
            let mut deps: Vec<Vec<(TaskId, u64)>> = Vec::new();
            for (t, (raw_deps, accesses, work)) in tasks.iter().enumerate() {
                let task_deps: Vec<(TaskId, u64)> = if t == 0 {
                    Vec::new()
                } else {
                    raw_deps.iter().map(|&(p, b)| (TaskId(p % t), b)).collect()
                };
                let descriptor = TaskDescriptor {
                    id: TaskId(t),
                    kind: "t".into(),
                    work_units: *work as f64 * 0.5,
                    accesses: (0..*accesses)
                        .map(|a| DataAccess::read(RegionId((t * 7 + a) % 13), (t + a) as u64))
                        .collect(),
                };
                g.push_task(descriptor, &task_deps);
                deps.push(task_deps);
            }
            assert_flat_matches(&g, &nested_successors(&deps));
            let edges: usize = g.task_ids().map(|t| g.in_degree(t)).sum();
            proptest::prop_assert_eq!(g.num_edges(), edges);
        }
    }

    #[test]
    fn push_after_flat_is_reflected_by_the_next_flat() {
        let mut g = diamond();
        assert_eq!(g.flat().num_tasks(), 4);
        assert!(g.flat().successors(TaskId(3)).is_empty());
        g.push_task(task(4, 2.0), &[(TaskId(3), 64), (TaskId(0), 8)]);
        let flat = g.flat();
        assert_eq!(flat.num_tasks(), 5);
        assert_eq!(flat.successors(TaskId(3)), [4]);
        assert_eq!(flat.successors(TaskId(0)), [1, 2, 4]);
        assert_eq!(flat.successor_bytes(TaskId(0)), [100, 200, 8]);
        assert_eq!(flat.in_degrees(), [0, 1, 1, 2, 2]);
        assert_eq!(flat.work(TaskId(4)), 2.0);
        assert_eq!(g.sinks(), vec![TaskId(4)]);
        // A clone carries (or rebuilds) a view of its own.
        let mut copy = g.clone();
        copy.push_task(task(5, 1.0), &[(TaskId(4), 1)]);
        assert_eq!(copy.flat().num_tasks(), 6);
        assert_eq!(g.flat().num_tasks(), 5);
    }
}
