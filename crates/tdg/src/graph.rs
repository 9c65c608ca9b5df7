//! The task dependency graph (TDG), stored as task and access columns, and
//! the one rule every graph satisfies: [`TaskGraph::push_task`] refuses a
//! task that would make the graph unrunnable.

use std::sync::OnceLock;

use numadag_numa::RegionId;

use crate::plan::WindowPlans;
use crate::task::{AccessMode, Accesses, DataAccess, TaskDescriptor, TaskId};
use crate::window::TaskWindow;

/// A directed acyclic graph of tasks over a table of data regions. Nodes are
/// tasks in submission order; edges carry the number of bytes of data flowing
/// (or being serialised) between the two tasks.
///
/// Every graph is runnable by construction: [`TaskGraph::push_task`], the
/// only way a task gets in, checks the rule, and executors rely on it.
///
/// Tasks are columns — a kind index into a table of distinct kinds, work
/// units, and offsets into the access columns (region, mode, bytes) — so a
/// built graph is a fixed set of flat arrays whatever its size;
/// [`TaskGraph::task`] hands out a borrowed [`TaskDescriptor`] view of one
/// row. Tasks only ever gain edges from earlier tasks, so the predecessor
/// lists are one append-only CSR; successors and in-degrees live in the
/// derived [`FlatTdg`] view.
#[derive(Clone, Debug)]
pub struct TaskGraph {
    /// The distinct kinds, in order of first appearance.
    kinds: Vec<Box<str>>,
    /// Per task: the index of its kind in `kinds`, and its work units.
    kind: Vec<u32>,
    work: Vec<f64>,
    /// `access_*[access_offsets[t]..access_offsets[t + 1]]` are the accesses
    /// of task `t`, in declaration order.
    access_offsets: Vec<u32>,
    access_regions: Vec<u32>,
    access_modes: Vec<AccessMode>,
    access_bytes: Vec<u64>,
    /// `pred_edges[pred_offsets[t]..pred_offsets[t + 1]]` = (predecessor
    /// task, bytes) of task `t`, ascending and deduplicated.
    pred_offsets: Vec<u32>,
    pred_edges: Vec<(TaskId, u64)>,
    /// Size in bytes of every region, indexed by region id.
    region_sizes: Vec<u64>,
    /// Built on first use, dropped by [`TaskGraph::push_task`] — the only
    /// mutator, so a view handed out can never be stale.
    flat: OnceLock<FlatTdg>,
    /// [`TaskGraph::fingerprint`], hashed on first use and dropped by
    /// `push_task` like the flat view.
    fingerprint: OnceLock<u64>,
    /// The unanchored window partitions asked of this graph (see
    /// [`TaskGraph::window_plan`]), dropped by `push_task` like the rest.
    pub(crate) plans: WindowPlans,
}

impl Default for TaskGraph {
    fn default() -> Self {
        TaskGraph {
            kinds: Vec::new(),
            kind: Vec::new(),
            work: Vec::new(),
            access_offsets: vec![0],
            access_regions: Vec::new(),
            access_modes: Vec::new(),
            access_bytes: Vec::new(),
            pred_offsets: vec![0],
            pred_edges: Vec::new(),
            region_sizes: Vec::new(),
            flat: OnceLock::new(),
            fingerprint: OnceLock::new(),
            plans: WindowPlans::default(),
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Graph folds computed (not served from the memo) on this thread.
    pub(crate) static FOLDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The workspace's one content hasher, a 64-bit word at a time: each word
/// is xored into the state and mixed by one 64×64→128-bit multiply folded
/// back to 64 bits (wyhash's `mum`). It has no seed, unlike
/// `std::collections::hash_map::DefaultHasher`, so it is the same number in
/// every process and on every platform: workload fingerprints, the sweep
/// service's cache keys and the proc backend's config epochs are all this
/// hash.
#[derive(Clone, Debug)]
pub struct ContentHasher(u64);

impl Default for ContentHasher {
    fn default() -> Self {
        ContentHasher(0x5899_65cc_7537_4cc3)
    }
}

impl ContentHasher {
    /// Folds one word in.
    #[inline]
    pub fn write_u64(&mut self, value: u64) {
        let product = u128::from(self.0 ^ value ^ 0xa076_1d64_78bd_642f)
            * u128::from(0xe703_7ed1_a0b4_28dbu64);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    /// Folds a byte string in: its length, then its bytes as little-endian
    /// words, the last one padded with zeros.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    /// The hash of everything folded in so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Why [`TaskGraph::push_task`] refused a task, or
/// [`TaskGraphSpec::with_ep_placement`](crate::TaskGraphSpec::with_ep_placement)
/// a placement. `Display` is the sentence a worker sends back after
/// `bad spec: `. The first field is always the task being pushed.
#[derive(Clone, Debug, PartialEq)]
pub enum TdgError {
    /// The task depends on a task that is not earlier (the second field).
    LaterDependence(TaskId, TaskId),
    /// The task accesses a region the graph's table does not have.
    UnknownRegion(TaskId, RegionId),
    /// The task accesses more bytes (the third field) of a region than the
    /// region has (the fourth).
    OversizeAccess(TaskId, RegionId, u64, u64),
    /// The task's work units are NaN, infinite or negative.
    BadWork(TaskId, f64),
    /// The task would grow the named column past `u32` indices.
    Capacity(TaskId, &'static str),
    /// An expert placement with one entry per task too many or too few.
    EpLength,
}

impl std::fmt::Display for TdgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TdgError::LaterDependence(task, on) => {
                write!(
                    f,
                    "task {task} depends on task {on}, which is not an earlier task"
                )
            }
            TdgError::UnknownRegion(task, region) => {
                write!(f, "task {task} accesses unknown region {region}")
            }
            TdgError::OversizeAccess(task, region, bytes, size) => write!(
                f,
                "task {task} accesses {bytes} bytes of region {region} which only has {size}"
            ),
            TdgError::BadWork(task, work) => write!(
                f,
                "task {task} has work {work}, which is not a finite non-negative number"
            ),
            TdgError::Capacity(task, column) => {
                write!(f, "task {task} outgrows the graph's u32 {column} column")
            }
            TdgError::EpLength => f.write_str("EP placement length mismatch"),
        }
    }
}

impl std::error::Error for TdgError {}

/// What executors derive from a [`TaskGraph`]'s columns once and read per
/// task or per cell: the successor CSR and the in-degrees. Obtained from
/// [`TaskGraph::flat`]; element for element equal to the graph's accessors.
#[derive(Clone, Debug)]
pub struct FlatTdg {
    succ_offsets: Vec<u32>,
    succ_targets: Vec<u32>,
    succ_bytes: Vec<u64>,
    in_degrees: Vec<u32>,
}

impl FlatTdg {
    fn build(graph: &TaskGraph) -> FlatTdg {
        let n = graph.num_tasks();
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
        for t in 0..n {
            for &(pred, bytes) in graph.predecessors(TaskId(t)) {
                let slot = &mut cursor[pred.index()];
                succ_targets[*slot as usize] = t as u32;
                succ_bytes[*slot as usize] = bytes;
                *slot += 1;
            }
        }

        FlatTdg {
            succ_offsets,
            succ_targets,
            succ_bytes,
            in_degrees: graph.pred_offsets.windows(2).map(|w| w[1] - w[0]).collect(),
        }
    }

    /// Number of tasks.
    pub fn num_tasks(&self) -> usize {
        self.in_degrees.len()
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
}

impl TaskGraph {
    /// Creates an empty TDG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tasks.
    pub fn num_tasks(&self) -> usize {
        self.work.len()
    }

    /// True if the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.work.is_empty()
    }

    /// Number of (deduplicated) dependence edges.
    pub fn num_edges(&self) -> usize {
        self.pred_edges.len()
    }

    /// Adds a data region of `size_bytes` bytes to the region table and
    /// returns its id. Tasks pushed after this may access it.
    pub fn region(&mut self, size_bytes: u64) -> RegionId {
        self.region_sizes.push(size_bytes);
        RegionId(self.region_sizes.len() - 1)
    }

    /// Size in bytes of every region, indexed by region id.
    pub fn region_sizes(&self) -> &[u64] {
        &self.region_sizes
    }

    /// The task `id`: a view of its row of the task columns.
    #[inline]
    pub fn task(&self, id: TaskId) -> TaskDescriptor<'_> {
        let t = id.index();
        let range = self.access_offsets[t] as usize..self.access_offsets[t + 1] as usize;
        TaskDescriptor {
            id,
            kind: &self.kinds[self.kind[t] as usize],
            work_units: self.work[t],
            accesses: Accesses {
                regions: &self.access_regions[range.clone()],
                modes: &self.access_modes[range.clone()],
                bytes: &self.access_bytes[range],
            },
        }
    }

    /// All tasks in submission order.
    pub fn tasks(&self) -> impl ExactSizeIterator<Item = TaskDescriptor<'_>> + '_ {
        self.task_ids().map(|t| self.task(t))
    }

    /// All task ids in submission order.
    pub fn task_ids(&self) -> impl ExactSizeIterator<Item = TaskId> {
        (0..self.num_tasks()).map(TaskId)
    }

    /// The kind table — every distinct kind once, in order of first
    /// appearance — and each task's index into it, in task order.
    pub fn kind_table(&self) -> (&[Box<str>], &[u32]) {
        (&self.kinds, &self.kind)
    }

    /// Every access of every task, in task order.
    pub fn all_accesses(&self) -> Accesses<'_> {
        Accesses {
            regions: &self.access_regions,
            modes: &self.access_modes,
            bytes: &self.access_bytes,
        }
    }

    /// How many predecessor and successor entries the tasks of `window`
    /// have: a bound on the edge and cross-edge entries of its CSR.
    pub(crate) fn window_edge_entries(&self, window: &TaskWindow) -> usize {
        let (start, end) = (window.start.index(), window.end.index());
        let flat = self.flat();
        (self.pred_offsets[end] - self.pred_offsets[start]) as usize
            + (flat.succ_offsets[end] - flat.succ_offsets[start]) as usize
    }

    /// The flat view of the graph, built on the first call after the last
    /// [`TaskGraph::push_task`] and shared by every later one.
    pub fn flat(&self) -> &FlatTdg {
        self.flat.get_or_init(|| FlatTdg::build(self))
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

    /// Tasks with no predecessors (ready at the start of the execution).
    pub fn sources(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|&t| self.in_degree(t) == 0)
            .collect()
    }

    /// Appends a task — kind, work units, accesses — and its dependence
    /// edges, and returns its (dense) id. `deps` is a list of `(predecessor,
    /// bytes)`; duplicates are merged by adding bytes, saturating. Intended
    /// for [`crate::builder::TdgBuilder`], but public so synthetic graphs can
    /// be assembled directly in tests and benches. A kind is found in the
    /// kind table by a scan: an application has a handful.
    ///
    /// This is where the rule for a runnable graph is checked, and the only
    /// place. Before it changes anything it refuses, in this order: a
    /// dependence on a task that is not earlier (which would create a
    /// cycle), an access to a region not in the table, an access larger
    /// than its region, work that is NaN, infinite or negative, and a
    /// column that would outgrow `u32`. A refused task leaves the graph as
    /// it was.
    pub fn push_task(
        &mut self,
        kind: &str,
        work_units: f64,
        accesses: &[DataAccess],
        deps: &[(TaskId, u64)],
    ) -> Result<TaskId, TdgError> {
        let task = TaskId(self.num_tasks());
        if let Some(&(on, _)) = deps.iter().find(|&&(pred, _)| pred >= task) {
            return Err(TdgError::LaterDependence(task, on));
        }
        for &DataAccess { region, bytes, .. } in accesses {
            let Some(&size) = self.region_sizes.get(region.index()) else {
                return Err(TdgError::UnknownRegion(task, region));
            };
            if bytes > size {
                return Err(TdgError::OversizeAccess(task, region, bytes, size));
            }
        }
        if !(work_units.is_finite() && work_units >= 0.0) {
            return Err(TdgError::BadWork(task, work_units));
        }
        // Every index the columns store is a `u32`; a known region's index
        // is below the table's length.
        let lengths = [
            ("task", task.index() + 1),
            ("kind", self.kinds.len() + 1),
            ("region", self.region_sizes.len()),
            ("access", self.access_regions.len() + accesses.len()),
            ("edge", self.pred_edges.len() + deps.len()),
        ];
        if let Some(&(column, _)) = lengths.iter().find(|(_, len)| u32::try_from(*len).is_err()) {
            return Err(TdgError::Capacity(task, column));
        }

        self.flat.take();
        self.fingerprint.take();
        self.plans.clear();
        let index = self.kinds.iter().rposition(|known| **known == *kind);
        self.kind.push(index.unwrap_or_else(|| {
            self.kinds.push(kind.into());
            self.kinds.len() - 1
        }) as u32);
        self.work.push(work_units);
        for access in accesses {
            self.access_regions.push(access.region.index() as u32);
            self.access_modes.push(access.mode);
            self.access_bytes.push(access.bytes);
        }
        self.access_offsets.push(self.access_regions.len() as u32);
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
                let merged = &mut self.pred_edges[kept - 1].1;
                *merged = merged.saturating_add(bytes);
            } else {
                self.pred_edges[kept] = (pred, bytes);
                kept += 1;
            }
        }
        self.pred_edges.truncate(kept);
        self.pred_offsets.push(kept as u32);
        Ok(task)
    }

    /// The graph's share of
    /// [`TaskGraphSpec::fingerprint`](crate::TaskGraphSpec::fingerprint): a
    /// [`ContentHasher`] pass over the columns themselves — the kind table,
    /// each task's kind index and work, the access offsets and accesses,
    /// the predecessor offsets and edges with their bytes, and the region
    /// sizes. The columns determine the graph, so equal graphs hash equal
    /// and any difference in them reaches the hash.
    ///
    /// Hashed on the first call and remembered, so a fingerprint on the
    /// per-cell paths that key on it is a load; the pass reads no derived
    /// view, so fingerprinting builds no [`FlatTdg`].
    pub(crate) fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            #[cfg(test)]
            FOLDS.with(|folds| folds.set(folds.get() + 1));
            let mut h = ContentHasher::default();
            h.write_u64(self.kinds.len() as u64);
            for kind in &self.kinds {
                h.write_bytes(kind.as_bytes());
            }
            h.write_u64(self.num_tasks() as u64);
            for (&kind, &work) in self.kind.iter().zip(&self.work) {
                h.write_u64(u64::from(kind));
                h.write_u64(work.to_bits());
            }
            for &offset in &self.access_offsets[1..] {
                h.write_u64(u64::from(offset));
            }
            let accesses = self.access_regions.iter().zip(&self.access_modes);
            for ((&region, &mode), &bytes) in accesses.zip(&self.access_bytes) {
                h.write_u64((u64::from(region) << 32) | mode.code());
                h.write_u64(bytes);
            }
            for &offset in &self.pred_offsets[1..] {
                h.write_u64(u64::from(offset));
            }
            for &(pred, bytes) in &self.pred_edges {
                h.write_u64(pred.index() as u64);
                h.write_u64(bytes);
            }
            h.write_u64(self.region_sizes.len() as u64);
            for &size in &self.region_sizes {
                h.write_u64(size);
            }
            h.finish()
        })
    }

    /// Total bytes carried by all edges.
    pub fn total_edge_bytes(&self) -> u64 {
        self.pred_edges.iter().map(|(_, b)| *b).sum()
    }

    /// Total work units of all tasks.
    pub fn total_work(&self) -> f64 {
        self.work.iter().sum()
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
            finish[t.index()] = start + self.work[t.index()];
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
    use crate::spec::TaskGraphSpec;

    /// Pushes task `id` of kind `t{id}`, writing all 8 bytes of a new region
    /// `id`.
    fn push(g: &mut TaskGraph, id: usize, work: f64, deps: &[(TaskId, u64)]) {
        let region = g.region(8);
        assert_eq!(region, RegionId(id));
        let access = [DataAccess::write(region, 8)];
        assert_eq!(
            g.push_task(&format!("t{id}"), work, &access, deps),
            Ok(TaskId(id))
        );
    }

    /// Diamond: 0 → {1, 2} → 3.
    fn diamond() -> TaskGraph {
        let mut g = TaskGraph::new();
        push(&mut g, 0, 1.0, &[]);
        push(&mut g, 1, 2.0, &[(TaskId(0), 100)]);
        push(&mut g, 2, 3.0, &[(TaskId(0), 200)]);
        push(&mut g, 3, 1.0, &[(TaskId(1), 100), (TaskId(2), 200)]);
        g
    }

    #[test]
    fn diamond_structure() {
        let g = diamond();
        assert_eq!(g.num_tasks(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.sources(), vec![TaskId(0)]);
        assert_eq!(g.in_degree(TaskId(3)), 2);
        assert_eq!(g.flat().successors(TaskId(0)).len(), 2);
        assert_eq!(g.predecessors(TaskId(2)), [(TaskId(0), 200)]);
        assert_eq!(g.region_sizes(), [8; 4]);
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
        push(&mut g, 0, 1.0, &[]);
        push(&mut g, 1, 1.0, &[(TaskId(0), 100), (TaskId(0), 50)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.predecessors(TaskId(1)), [(TaskId(0), 150)]);
        push(&mut g, 2, 1.0, &[(TaskId(1), u64::MAX), (TaskId(1), 2)]);
        assert_eq!(g.predecessors(TaskId(2)), [(TaskId(1), u64::MAX)]);
    }

    #[test]
    fn kinds_are_interned_in_order_of_first_appearance() {
        let mut g = TaskGraph::new();
        for kind in ["b", "a", "b", "c", "a"] {
            g.push_task(kind, 1.0, &[], &[]).unwrap();
        }
        let (table, index) = g.kind_table();
        assert_eq!(table, [Box::from("b"), Box::from("a"), Box::from("c")]);
        assert_eq!(index, [0, 1, 0, 2, 1]);
        let kinds: Vec<&str> = g.tasks().map(|t| t.kind).collect();
        assert_eq!(kinds, ["b", "a", "b", "c", "a"]);
    }

    #[test]
    fn empty_graph_properties() {
        let g = TaskGraph::new();
        assert_eq!(g.num_tasks(), 0);
        assert_eq!(g.critical_path_work(), 0.0);
        assert_eq!(g.average_parallelism(), 0.0);
        assert!(g.sources().is_empty());
        assert!(g.region_sizes().is_empty());
    }

    /// Each task breaks the rule once, and is refused with the words a
    /// worker sends back; the graph it was pushed onto is unchanged.
    #[test]
    fn push_task_refuses_an_unrunnable_task_and_changes_nothing() {
        let mut g = diamond();
        let fingerprint = |g: &TaskGraph| TaskGraphSpec::new("d", g.clone()).fingerprint();
        let before = fingerprint(&g);
        let fits = DataAccess::read(RegionId(3), 8);
        let bad_work = "which is not a finite non-negative number";
        let later = "which is not an earlier task";
        for (work, access, dep, message) in [
            (
                f64::NAN,
                fits,
                3,
                format!("task T4 has work NaN, {bad_work}"),
            ),
            (
                -1e9,
                fits,
                3,
                format!("task T4 has work -1000000000, {bad_work}"),
            ),
            (
                f64::INFINITY,
                fits,
                3,
                format!("task T4 has work inf, {bad_work}"),
            ),
            (
                f64::NEG_INFINITY,
                fits,
                3,
                format!("task T4 has work -inf, {bad_work}"),
            ),
            (
                1.0,
                DataAccess::read(RegionId(4), 8),
                3,
                "task T4 accesses unknown region R4".to_string(),
            ),
            (
                1.0,
                DataAccess::write(RegionId(2), 9),
                3,
                "task T4 accesses 9 bytes of region R2 which only has 8".to_string(),
            ),
            (1.0, fits, 4, format!("task T4 depends on task T4, {later}")),
            (1.0, fits, 9, format!("task T4 depends on task T9, {later}")),
        ] {
            let deps = [(TaskId(3), 8), (TaskId(dep), 8)];
            let refused = g.push_task("bad", work, &[access], &deps).unwrap_err();
            assert_eq!(refused.to_string(), message);
            assert_eq!((g.num_tasks(), g.num_edges()), (4, 4));
            assert_eq!(g.all_accesses().len(), 4);
            assert_eq!(fingerprint(&g), before, "{message}");
        }
        // Zero work, an access of a whole region and a merged dependence
        // are runnable.
        let deps = [(TaskId(3), 8), (TaskId(3), 8)];
        assert_eq!(g.push_task("ok", -0.0, &[fits], &deps), Ok(TaskId(4)));
        assert_ne!(fingerprint(&g), before);
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
    /// task views, the predecessor lists and `successors`, element for
    /// element.
    fn assert_flat_matches(g: &TaskGraph, successors: &[Vec<(TaskId, u64)>]) {
        let flat = g.flat();
        assert_eq!(flat.num_tasks(), g.num_tasks());
        let all = g.all_accesses();
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
            assert_eq!(
                flat.in_degrees()[t.index()] as usize,
                g.predecessors(t).len()
            );
            for (i, access) in task.accesses.iter().enumerate() {
                assert_eq!(all.get(seen_accesses + i), access, "access {i} of {t}");
            }
            seen_accesses += task.accesses.len();
        }
        assert_eq!(all.len(), seen_accesses);
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
            for _ in 0..13 {
                g.region(64);
            }
            let mut deps: Vec<Vec<(TaskId, u64)>> = Vec::new();
            for (t, (raw_deps, accesses, work)) in tasks.iter().enumerate() {
                let task_deps: Vec<(TaskId, u64)> = if t == 0 {
                    Vec::new()
                } else {
                    raw_deps.iter().map(|&(p, b)| (TaskId(p % t), b)).collect()
                };
                let accesses: Vec<DataAccess> = (0..*accesses)
                    .map(|a| DataAccess::read(RegionId((t * 7 + a) % 13), (t + a) as u64))
                    .collect();
                let work = *work as f64 * 0.5;
                g.push_task("t", work, &accesses, &task_deps).unwrap();
                let task = g.task(TaskId(t));
                proptest::prop_assert_eq!((task.kind, task.work_units), ("t", work));
                proptest::prop_assert!(task.accesses.iter().eq(accesses));
                deps.push(task_deps);
            }
            assert_flat_matches(&g, &nested_successors(&deps));
            let edges: usize = g.task_ids().map(|t| g.in_degree(t)).sum();
            proptest::prop_assert_eq!(g.num_edges(), edges);
        }
    }

    /// A fingerprint reads the columns, never the derived view: the
    /// graph of a freshly fingerprinted spec still has no successor CSR.
    #[test]
    fn fingerprinting_a_fresh_graph_builds_no_flat_view() {
        let spec = TaskGraphSpec::new("d", diamond());
        assert!(spec.graph.flat.get().is_none());
        spec.fingerprint();
        assert!(spec.graph.fingerprint.get().is_some());
        assert!(spec.graph.flat.get().is_none());
    }

    fn hash_bytes(bytes: &[u8]) -> u64 {
        let mut h = ContentHasher::default();
        h.write_bytes(bytes);
        h.finish()
    }

    /// The hasher's answers are constants of the format: they key
    /// `--cache-file`s and the proc wire, so no build, platform or run may
    /// move them. The values agree with a big-integer rendering of the
    /// rule outside Rust.
    #[test]
    fn fingerprint_hasher_answers_are_constants() {
        let mut words = ContentHasher::default();
        for word in [0, 1, u64::MAX] {
            words.write_u64(word);
        }
        assert_eq!(
            [
                ContentHasher::default().finish(),
                words.finish(),
                hash_bytes(b""),
                hash_bytes(b"rgp-las"),
                hash_bytes(b"rgp-las:prop=repart"),
            ],
            [
                0x5899_65cc_7537_4cc3,
                0xf9cd_4448_2bbd_ec1a,
                0x5baa_92ba_b2dd_0708,
                0xd3e7_fd4e_2f64_cc6d,
                0xcc4f_51c4_3eef_3ccc,
            ]
        );
    }

    /// A byte string is its length and its words: a trailing NUL, which
    /// a zero-padded last word alone would not see, is content.
    #[test]
    fn fingerprint_of_a_string_sees_a_trailing_nul() {
        for text in ["", "a", "toy", "abcdefg", "abcdefgh", "abcdefghi"] {
            let nul = format!("{text}\0");
            assert_ne!(
                hash_bytes(text.as_bytes()),
                hash_bytes(nul.as_bytes()),
                "{text:?}"
            );
        }
    }

    #[test]
    fn push_after_flat_is_reflected_by_the_next_flat() {
        let mut g = diamond();
        assert_eq!(g.flat().num_tasks(), 4);
        assert!(g.flat().successors(TaskId(3)).is_empty());
        push(&mut g, 4, 2.0, &[(TaskId(3), 64), (TaskId(0), 8)]);
        let flat = g.flat();
        assert_eq!(flat.num_tasks(), 5);
        assert_eq!(flat.successors(TaskId(3)), [4]);
        assert_eq!(flat.successors(TaskId(0)), [1, 2, 4]);
        assert_eq!(flat.successor_bytes(TaskId(0)), [100, 200, 8]);
        assert_eq!(flat.in_degrees(), [0, 1, 1, 2, 2]);
        assert_eq!(g.task(TaskId(4)).work_units, 2.0);
        // A clone carries (or rebuilds) a view of its own.
        let mut copy = g.clone();
        push(&mut copy, 5, 1.0, &[(TaskId(4), 1)]);
        assert_eq!(copy.flat().num_tasks(), 6);
        assert_eq!(g.flat().num_tasks(), 5);
    }
}
