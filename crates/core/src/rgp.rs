//! Runtime graph partitioning (RGP) — the paper's proposed technique.
//!
//! The TDG is accumulated as tasks are instantiated. Once the window size
//! limit is reached (or a barrier is hit), the subgraph formed by the first
//! window of tasks is handed to a graph partitioner with one part per NUMA
//! socket; edge weights are the bytes the dependences represent and vertex
//! weights are the task compute costs, so the partitioner simultaneously
//! minimises the data shared across sockets and balances work.
//!
//! Tasks inside the window are scheduled on the socket of their part. Tasks
//! beyond the window are handled by a *propagation* policy:
//!
//! * [`Propagation::Las`] — the paper's `RGP+LAS`: locality-aware scheduling
//!   naturally extends the partition, because the data written by window
//!   tasks is already resident on "their" socket.
//! * [`Propagation::RoundRobin`] — an ablation that shows the partition alone
//!   is not enough without locality-aware propagation.
//! * [`Propagation::Repartition`] — *every* window is partitioned, lazily,
//!   as execution first crosses its boundary (a [`WindowCursor`] tracks the
//!   frontier). Each window is *anchored* to the placement already fixed by
//!   windows `0..k` — per-vertex socket-affinity terms built from
//!   cross-window dependences and/or the [`DataLocator`]-observed data homes
//!   (see [`AnchorMode`]) — and the resulting plan is fed to
//!   [`LasPolicy::assign_biased`] as the tie-break, so observed placements
//!   can still override it.

use std::sync::Arc;
use std::time::Instant;

use numadag_graph::{partition as gp, AffinityCosts, PartitionTuning};
use numadag_numa::SocketId;
use numadag_tdg::{
    clamp_weight, window_to_csr, window_weight_cap, TaskDescriptor, TaskGraph, TaskId, TaskWindow,
    WindowConfig, WindowCursor,
};

use crate::factory::RgpTuning;
use crate::las::LasPolicy;
use crate::policy::{DataLocator, PartitionStats, SchedulingPolicy};
use crate::weights::{socket_weights_into, SocketWeights};

/// How tasks beyond the partitioned window are scheduled.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Propagation {
    /// Propagate with locality-aware scheduling (the paper's RGP+LAS).
    #[default]
    Las,
    /// Propagate with a locality-blind round robin (ablation).
    RoundRobin,
    /// Re-partition every window as execution reaches it, anchored to the
    /// placements fixed by earlier windows.
    Repartition,
}

impl Propagation {
    /// The short, stable token used in policy labels (`prop=las`,
    /// `prop=rr`, `prop=repart`). Round-trips through
    /// [`Propagation::from_token`].
    pub(crate) fn token(&self) -> &'static str {
        match self {
            Propagation::Las => "las",
            Propagation::RoundRobin => "rr",
            Propagation::Repartition => "repart",
        }
    }

    /// Parses a propagation token (short or spelled-out, case-insensitive).
    pub(crate) fn from_token(s: &str) -> Option<Propagation> {
        match s.trim().to_ascii_lowercase().as_str() {
            "las" => Some(Propagation::Las),
            "rr" | "round-robin" | "roundrobin" => Some(Propagation::RoundRobin),
            "repart" | "repartition" => Some(Propagation::Repartition),
            _ => None,
        }
    }
}

/// Which anchors tie a re-partitioned window to the placements already made
/// (only used by [`Propagation::Repartition`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum AnchorMode {
    /// No anchors: every window is partitioned independently.
    None,
    /// Cross-window dependences into tasks whose socket is already decided.
    Deps,
    /// [`DataLocator`]-observed homes of each window task's data regions.
    Homes,
    /// Both dependence and observed-home anchors (the default).
    #[default]
    Both,
}

impl AnchorMode {
    /// The short, stable token used in policy labels (`anchor=none`,
    /// `anchor=deps`, `anchor=homes`, `anchor=both`). Round-trips through
    /// [`AnchorMode::from_token`].
    pub(crate) fn token(&self) -> &'static str {
        match self {
            AnchorMode::None => "none",
            AnchorMode::Deps => "deps",
            AnchorMode::Homes => "homes",
            AnchorMode::Both => "both",
        }
    }

    /// Parses an anchor-mode token (case-insensitive).
    pub(crate) fn from_token(s: &str) -> Option<AnchorMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "none" | "off" => Some(AnchorMode::None),
            "deps" | "dependences" | "dependencies" => Some(AnchorMode::Deps),
            "homes" | "data" => Some(AnchorMode::Homes),
            "both" | "all" => Some(AnchorMode::Both),
            _ => None,
        }
    }

    fn uses_deps(&self) -> bool {
        matches!(self, AnchorMode::Deps | AnchorMode::Both)
    }

    fn uses_homes(&self) -> bool {
        matches!(self, AnchorMode::Homes | AnchorMode::Both)
    }
}

/// The RGP policy (RGP+LAS by default).
pub struct RgpPolicy {
    /// The label's knobs; an unset one keeps its default.
    tuning: RgpTuning,
    /// Seed of the partitioner (`seed + k` for the `k`-th window placed)
    /// and of the LAS propagation.
    seed: u64,
    /// Socket decided by the partitioner for each window task.
    window_assignment: Vec<Option<SocketId>>,
    /// Fallback policy for tasks outside the window.
    las: LasPolicy,
    rr_next: usize,
    /// Statistics: edge cut of the window partition(s) (bytes; summed over
    /// all partitioned windows in repartition mode).
    window_edge_cut: i64,
    window_size_used: usize,
    /// Repartition mode: the graph the cursor walks (retained by `Arc` at
    /// `prepare` — `assign` receives only single tasks, but closing a later
    /// window needs the whole TDG back).
    graph: Option<Arc<TaskGraph>>,
    /// Repartition mode: the streaming window frontier.
    cursor: Option<WindowCursor>,
    /// Cost accounting: windows partitioned and partitioner wall time.
    partition_windows: usize,
    partition_wall_ns: f64,
    /// The anchors of the window being partitioned and the weights of the
    /// task being anchored, reset per window instead of rebuilt.
    affinity: AffinityCosts,
    home_weights: SocketWeights,
}

impl RgpPolicy {
    /// Creates the RGP policy `tuning` spells, seeded with `seed`.
    pub fn new(tuning: RgpTuning, seed: u64) -> Self {
        RgpPolicy {
            tuning,
            seed,
            window_assignment: Vec::new(),
            las: LasPolicy::new(seed ^ 0x1A5),
            rr_next: 0,
            window_edge_cut: 0,
            window_size_used: 0,
            graph: None,
            cursor: None,
            partition_windows: 0,
            partition_wall_ns: 0.0,
            affinity: AffinityCosts::zeros(0, 1),
            home_weights: SocketWeights::default(),
        }
    }

    /// Creates the paper's RGP+LAS with default parameters and seed.
    pub fn rgp_las() -> Self {
        RgpPolicy::new(RgpTuning::default(), 0x56F1)
    }

    /// The window size limit: how many tasks each window captures.
    fn window(&self) -> WindowConfig {
        self.tuning
            .window
            .map_or_else(WindowConfig::default, WindowConfig::new)
    }

    /// Edge cut (in bytes) of the partition of the initial window — summed
    /// over every partitioned window in repartition mode — available after
    /// [`SchedulingPolicy::prepare`].
    pub fn window_edge_cut(&self) -> i64 {
        self.window_edge_cut
    }

    /// Number of tasks captured in the (first) partitioned window.
    pub fn window_size_used(&self) -> usize {
        self.window_size_used
    }

    /// The socket the partitioner chose for `task`, if its window has been
    /// partitioned.
    pub fn window_socket_of(&self, task: TaskId) -> Option<SocketId> {
        self.window_assignment.get(task.index()).copied().flatten()
    }

    /// Partitions one window and records its plan into `window_assignment`.
    /// In repartition mode the window is anchored per [`RgpTuning::anchor`]:
    /// dependence anchors point at the recorded plan of earlier windows,
    /// home anchors at the observed placement of each task's data.
    ///
    /// A window without anchors — every window of a policy that does not
    /// anchor, and a first window none of whose data has a home yet — is cut
    /// the same way for every policy with this partitioner configuration, so
    /// it is taken from the graph's shared [`TaskGraph::window_plan`].
    fn partition_window_on(
        &mut self,
        graph: &TaskGraph,
        window: &TaskWindow,
        locator: &dyn DataLocator,
    ) {
        let num_sockets = locator.topology().num_sockets();
        if window.is_empty() || num_sockets <= 1 {
            return;
        }
        let started = Instant::now();
        // One seed per window keeps later windows decorrelated from the
        // first without losing determinism.
        let seed = self.seed.wrapping_add(self.partition_windows as u64);
        let cfg = PartitionTuning {
            scheme: self.tuning.scheme.unwrap_or_default(),
            refine_passes: self.tuning.passes,
        }
        .config_for(num_sockets, seed);
        let anchor = if self.tuning.prop == Propagation::Repartition {
            self.tuning.anchor.unwrap_or_default()
        } else {
            AnchorMode::None
        };
        let base = window.start.index();
        // Home anchors need no CSR (vertex `v` is task `base + v`), so they
        // come first: whether the window has anchors at all is known before
        // anything is built for the partitioner.
        let mut anchored = anchor != AnchorMode::None && base > 0;
        if anchor != AnchorMode::None {
            self.affinity.reset(window.len(), num_sockets);
        }
        if anchor.uses_homes() {
            // A vertex's row of home anchors sums to at most the window's cap.
            let cap = window_weight_cap(graph, window) / num_sockets as i64;
            for (v, t) in window.task_ids().enumerate() {
                socket_weights_into(&graph.task(t), locator, &mut self.home_weights);
                for (s, &bytes) in self.home_weights.weights.iter().enumerate() {
                    if bytes > 0 && s < num_sockets {
                        self.affinity
                            .add(v as u32, s as u32, clamp_weight(bytes, cap));
                        anchored = true;
                    }
                }
            }
        }
        // The partitioner's scratch lives in a per-thread context inside
        // `numadag-graph`: policies are built per cell, the worker thread
        // that runs the cells is what partitions window after window.
        if anchored {
            let wg = window_to_csr(graph, window);
            if anchor.uses_deps() {
                for ce in &wg.cross_edges {
                    if let Some(socket) = self.window_assignment[ce.predecessor.index()] {
                        self.affinity
                            .add(ce.vertex, socket.index() as u32, ce.bytes);
                    }
                }
            }
            let partition = gp::partition_anchored(&wg.graph, &cfg, &self.affinity);
            self.window_edge_cut += partition.edge_cut(&wg.graph);
            self.place(base, partition.assignment(), num_sockets);
        } else {
            let plan = graph.window_plan(window, &cfg);
            self.window_edge_cut += plan.edge_cut;
            self.place(base, plan.partition.assignment(), num_sockets);
        }
        self.partition_windows += 1;
        self.partition_wall_ns += started.elapsed().as_nanos() as f64;
    }

    /// Records the socket of every task of the window starting at task
    /// `base`: part `p` of the window's partition runs on socket `p`.
    fn place(&mut self, base: usize, parts: &[u32], num_sockets: usize) {
        let slots = &mut self.window_assignment[base..base + parts.len()];
        for (slot, &part) in slots.iter_mut().zip(parts) {
            *slot = Some(SocketId(part as usize % num_sockets));
        }
    }

    /// Repartition mode: advances the cursor (partitioning each window it
    /// closes) until `task` is covered.
    fn ensure_covered(&mut self, task: TaskId, locator: &dyn DataLocator) {
        let Some(graph) = self.graph.take() else {
            return;
        };
        let Some(mut cursor) = self.cursor.take() else {
            self.graph = Some(graph);
            return;
        };
        while !cursor.covers(task) {
            match cursor.advance() {
                Some(window) => self.partition_window_on(&graph, &window, locator),
                None => break,
            }
        }
        self.cursor = Some(cursor);
        self.graph = Some(graph);
    }
}

impl SchedulingPolicy for RgpPolicy {
    fn name(&self) -> &'static str {
        match self.tuning.prop {
            Propagation::Las | Propagation::Repartition => "RGP+LAS",
            Propagation::RoundRobin => "RGP+RR",
        }
    }

    fn prepare(&mut self, graph: &Arc<TaskGraph>, locator: &dyn DataLocator) {
        self.window_assignment = vec![None; graph.num_tasks()];
        match self.tuning.prop {
            Propagation::Repartition => {
                let mut cursor = WindowCursor::new(graph, self.window());
                if let Some(window) = cursor.advance() {
                    self.window_size_used = window.len();
                    self.partition_window_on(graph, &window, locator);
                }
                self.cursor = Some(cursor);
                // Retaining the graph is a refcount bump, not a TDG copy.
                self.graph = Some(Arc::clone(graph));
            }
            Propagation::Las | Propagation::RoundRobin => {
                let window = TaskWindow::initial(graph, self.window());
                self.window_size_used = window.len();
                self.partition_window_on(graph, &window, locator);
            }
        }
    }

    fn assign(&mut self, task: &TaskDescriptor<'_>, locator: &dyn DataLocator) -> SocketId {
        if self.tuning.prop == Propagation::Repartition {
            // Close (and partition) every window up to the one holding this
            // task, then let biased LAS arbitrate between the window plan
            // and the data homes actually observed at this point.
            self.ensure_covered(task.id, locator);
            let bias = self
                .window_assignment
                .get(task.id.index())
                .copied()
                .flatten();
            return self.las.assign_biased(task, locator, bias);
        }
        if let Some(Some(socket)) = self.window_assignment.get(task.id.index()) {
            return *socket;
        }
        match self.tuning.prop {
            Propagation::Las | Propagation::Repartition => self.las.assign(task, locator),
            Propagation::RoundRobin => {
                let num_sockets = locator.topology().num_sockets();
                let s = SocketId(self.rr_next % num_sockets);
                self.rr_next = (self.rr_next + 1) % num_sockets;
                s
            }
        }
    }

    fn partition_stats(&self) -> Option<PartitionStats> {
        Some(PartitionStats {
            windows: self.partition_windows,
            wall_ns: self.partition_wall_ns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::MemoryLocator;
    use numadag_graph::PartitionScheme;
    use numadag_numa::{MemoryMap, Topology};
    use numadag_tdg::{TaskSpec, TdgBuilder};

    /// The seed [`RgpPolicy::rgp_las`] uses.
    const SEED: u64 = 0x56F1;

    /// RGP with window size `window` and propagation `prop`, other knobs
    /// at their defaults.
    fn tuned(window: usize, prop: Propagation) -> RgpTuning {
        RgpTuning {
            window: Some(window),
            prop,
            ..RgpTuning::default()
        }
    }

    /// Builds a workload with two independent heavy chains. A partitioner
    /// must put each chain on its own socket.
    fn two_chains(len: usize) -> (Arc<numadag_tdg::TaskGraph>, Vec<u64>) {
        let mut b = TdgBuilder::new();
        let ra = b.region(1 << 20);
        let rb = b.region(1 << 20);
        for _ in 0..len {
            b.submit(TaskSpec::new("a").work(10.0).reads_writes(ra, 1 << 20));
            b.submit(TaskSpec::new("b").work(10.0).reads_writes(rb, 1 << 20));
        }
        let graph = b.finish();
        let sizes = graph.region_sizes().to_vec();
        (Arc::new(graph), sizes)
    }

    #[test]
    fn window_partition_separates_independent_chains() {
        let (graph, sizes) = two_chains(20);
        let topo = Topology::two_socket(4);
        let mut mem = MemoryMap::new();
        for s in &sizes {
            mem.register(*s);
        }
        let loc = MemoryLocator::new(&topo, &mem);
        let mut p = RgpPolicy::new(tuned(40, Propagation::Las), SEED);
        p.prepare(&graph, &loc);
        assert_eq!(p.window_size_used(), 40);
        // Independent chains: zero cut is achievable.
        assert_eq!(p.window_edge_cut(), 0);
        // All tasks of chain "a" (even ids) on one socket, chain "b" on the other.
        let sa = p.window_socket_of(numadag_tdg::TaskId(0)).unwrap();
        let sb = p.window_socket_of(numadag_tdg::TaskId(1)).unwrap();
        assert_ne!(sa, sb);
        for t in graph.task_ids() {
            let expected = if t.index() % 2 == 0 { sa } else { sb };
            assert_eq!(p.window_socket_of(t), Some(expected), "task {t}");
        }
    }

    #[test]
    fn assign_uses_window_then_falls_back() {
        let (graph, sizes) = two_chains(30); // 60 tasks
        let topo = Topology::two_socket(4);
        let mut mem = MemoryMap::new();
        let regions: Vec<_> = sizes.iter().map(|s| mem.register(*s)).collect();
        let mut p = RgpPolicy::new(tuned(20, Propagation::Las), SEED);
        {
            let loc = MemoryLocator::new(&topo, &mem);
            p.prepare(&graph, &loc);
        }
        // Window tasks reuse the partition.
        let t0 = graph.task(numadag_tdg::TaskId(0));
        let in_window = {
            let loc = MemoryLocator::new(&topo, &mem);
            p.assign(&t0, &loc)
        };
        assert_eq!(Some(in_window), p.window_socket_of(numadag_tdg::TaskId(0)));
        // A task beyond the window whose data is by now resident follows LAS:
        // place region a on the socket opposite to the window choice and
        // check the fallback follows the data, not the stale window.
        let late = graph.task(numadag_tdg::TaskId(40));
        assert!(p.window_socket_of(numadag_tdg::TaskId(40)).is_none());
        let other = SocketId(1 - in_window.index());
        mem.place(regions[0], other.node());
        mem.place(regions[1], other.node());
        let loc = MemoryLocator::new(&topo, &mem);
        let s = p.assign(&late, &loc);
        assert_eq!(s, other, "LAS propagation must follow the allocated data");
    }

    #[test]
    fn round_robin_propagation_cycles() {
        let (graph, sizes) = two_chains(5);
        let topo = Topology::four_socket(2);
        let mut mem = MemoryMap::new();
        for s in &sizes {
            mem.register(*s);
        }
        let loc = MemoryLocator::new(&topo, &mem);
        let mut p = RgpPolicy::new(tuned(2, Propagation::RoundRobin), SEED);
        assert_eq!(p.name(), "RGP+RR");
        p.prepare(&graph, &loc);
        // Tasks 2.. are outside the window; they cycle over sockets.
        let s: Vec<usize> = (2..6)
            .map(|i| p.assign(&graph.task(numadag_tdg::TaskId(i)), &loc).index())
            .collect();
        assert_eq!(s, vec![0, 1, 2, 3]);
    }

    #[test]
    fn partitioner_tuning_reaches_the_window_partition() {
        // Two independent chains: the multilevel scheme finds the zero cut,
        // while the deliberately weight-oblivious BFS scheme (same config
        // otherwise) almost always pays a cut — and both must produce a
        // full, valid window assignment either way.
        let (graph, sizes) = two_chains(40);
        let topo = Topology::two_socket(4);
        let mut mem = MemoryMap::new();
        for s in &sizes {
            mem.register(*s);
        }
        let loc = MemoryLocator::new(&topo, &mem);
        for scheme in PartitionScheme::all() {
            let tuning = RgpTuning {
                scheme: Some(scheme),
                passes: Some(4),
                ..tuned(80, Propagation::Las)
            };
            let mut p = RgpPolicy::new(tuning, SEED);
            p.prepare(&graph, &loc);
            assert_eq!(p.window_size_used(), 80, "{scheme:?}");
            for t in graph.task_ids() {
                assert!(p.window_socket_of(t).is_some(), "{scheme:?}: task {t}");
            }
        }
        let mut ml = RgpPolicy::new(tuned(80, Propagation::Las), SEED);
        ml.prepare(&graph, &loc);
        assert_eq!(ml.window_edge_cut(), 0, "multilevel must find the zero cut");
    }

    #[test]
    fn single_socket_machine_needs_no_partition() {
        let (graph, sizes) = two_chains(5);
        let topo = Topology::uma(4);
        let mut mem = MemoryMap::new();
        for s in &sizes {
            mem.register(*s);
        }
        let loc = MemoryLocator::new(&topo, &mem);
        let mut p = RgpPolicy::rgp_las();
        p.prepare(&graph, &loc);
        assert_eq!(p.name(), "RGP+LAS");
        for t in graph.task_ids() {
            assert_eq!(p.assign(&graph.task(t), &loc), SocketId(0));
        }
    }

    #[test]
    fn empty_graph_prepare_is_safe() {
        let graph = Arc::new(numadag_tdg::TaskGraph::new());
        let topo = Topology::two_socket(2);
        let mem = MemoryMap::new();
        let loc = MemoryLocator::new(&topo, &mem);
        let mut p = RgpPolicy::rgp_las();
        p.prepare(&graph, &loc);
        assert_eq!(p.window_size_used(), 0);
        assert_eq!(p.partition_stats().unwrap().windows, 0);
    }

    #[test]
    fn propagation_and_anchor_tokens_round_trip() {
        for prop in [
            Propagation::Las,
            Propagation::RoundRobin,
            Propagation::Repartition,
        ] {
            assert_eq!(Propagation::from_token(prop.token()), Some(prop));
        }
        assert_eq!(
            Propagation::from_token("Repartition"),
            Some(Propagation::Repartition)
        );
        assert_eq!(Propagation::from_token("nope"), None);
        for anchor in [
            AnchorMode::None,
            AnchorMode::Deps,
            AnchorMode::Homes,
            AnchorMode::Both,
        ] {
            assert_eq!(AnchorMode::from_token(anchor.token()), Some(anchor));
        }
        assert_eq!(AnchorMode::from_token("data"), Some(AnchorMode::Homes));
        assert_eq!(AnchorMode::from_token("nope"), None);
    }

    #[test]
    fn repartition_covers_every_window_lazily() {
        let (graph, sizes) = two_chains(30); // 60 tasks, window 20 → 3 windows
        let topo = Topology::two_socket(4);
        let mut mem = MemoryMap::new();
        for s in &sizes {
            mem.register(*s);
        }
        let loc = MemoryLocator::new(&topo, &mem);
        let mut p = RgpPolicy::new(tuned(20, Propagation::Repartition), SEED);
        assert_eq!(p.name(), "RGP+LAS");
        p.prepare(&graph, &loc);
        // Only the first window is partitioned up front.
        assert_eq!(windows_placed(&p), 1);
        assert!(p.window_socket_of(numadag_tdg::TaskId(0)).is_some());
        assert!(p.window_socket_of(numadag_tdg::TaskId(25)).is_none());
        // Assigning a task in the last window closes the middle one too.
        p.assign(&graph.task(numadag_tdg::TaskId(45)), &loc);
        assert_eq!(windows_placed(&p), 3);
        for t in graph.task_ids() {
            assert!(p.window_socket_of(t).is_some(), "task {t} uncovered");
        }
        let stats = p.partition_stats().unwrap();
        assert_eq!(stats.windows, 3);
        assert!(stats.wall_ns > 0.0);
    }

    #[test]
    fn repartition_anchors_later_windows_to_fixed_homes() {
        // Two independent chains: whatever sockets the first window picks,
        // dependence anchors must keep each chain on its socket in every
        // later window (zero affinity to the other socket, heavy affinity to
        // its own), even with nothing allocated yet.
        let (graph, sizes) = two_chains(40); // 80 tasks
        let topo = Topology::two_socket(4);
        let mut mem = MemoryMap::new();
        for s in &sizes {
            mem.register(*s);
        }
        let loc = MemoryLocator::new(&topo, &mem);
        let tuning = RgpTuning {
            anchor: Some(AnchorMode::Deps),
            ..tuned(16, Propagation::Repartition)
        };
        let mut p = RgpPolicy::new(tuning, SEED);
        p.prepare(&graph, &loc);
        p.assign(&graph.task(numadag_tdg::TaskId(79)), &loc);
        assert_eq!(windows_placed(&p), 5);
        let sa = p.window_socket_of(numadag_tdg::TaskId(0)).unwrap();
        let sb = p.window_socket_of(numadag_tdg::TaskId(1)).unwrap();
        assert_ne!(sa, sb);
        for t in graph.task_ids() {
            let expected = if t.index() % 2 == 0 { sa } else { sb };
            assert_eq!(
                p.window_socket_of(t),
                Some(expected),
                "task {t} strayed from its chain's socket"
            );
        }
    }

    #[test]
    fn repartition_home_anchors_follow_observed_placement() {
        // Place both regions on one socket before the second window closes:
        // home anchors must pull the second window there.
        let (graph, sizes) = two_chains(20); // 40 tasks
        let topo = Topology::two_socket(4);
        let mut mem = MemoryMap::new();
        let regions: Vec<_> = sizes.iter().map(|s| mem.register(*s)).collect();
        let tuning = RgpTuning {
            anchor: Some(AnchorMode::Homes),
            ..tuned(20, Propagation::Repartition)
        };
        let mut p = RgpPolicy::new(tuning, SEED);
        {
            let loc = MemoryLocator::new(&topo, &mem);
            p.prepare(&graph, &loc);
        }
        let target = SocketId(1);
        mem.place(regions[0], target.node());
        mem.place(regions[1], target.node());
        let loc = MemoryLocator::new(&topo, &mem);
        let s = p.assign(&graph.task(numadag_tdg::TaskId(39)), &loc);
        assert_eq!(windows_placed(&p), 2);
        // The balance constraint caps how much of the window the anchors can
        // pull to one socket, but the final assignment must follow the
        // observed homes: biased LAS sees every byte resident on `target`.
        assert_eq!(s, target, "assignment must follow the observed homes");
    }

    /// Windows the policy has placed so far, as the executors read them.
    fn windows_placed(p: &RgpPolicy) -> usize {
        p.partition_stats()
            .expect("RGP reports its partitioning")
            .windows
    }

    /// Every window socket a prepared policy recorded, in task order.
    fn window_sockets(p: &RgpPolicy, graph: &TaskGraph) -> Vec<Option<SocketId>> {
        graph.task_ids().map(|t| p.window_socket_of(t)).collect()
    }

    /// Repartitioning RGP anchored by `anchor`, window 48.
    fn repart(anchor: AnchorMode) -> RgpTuning {
        RgpTuning {
            anchor: Some(anchor),
            ..tuned(48, Propagation::Repartition)
        }
    }

    #[test]
    fn policies_over_one_graph_share_the_first_window_plan() {
        let topo = Topology::four_socket(2);
        let one_shot = tuned(48, Propagation::Las);
        let prepare_on = |graph: &Arc<TaskGraph>, sizes: &[u64], tuning: RgpTuning, seed: u64| {
            let mem = MemoryMap::with_regions(sizes);
            let mut p = RgpPolicy::new(tuning, seed);
            p.prepare(graph, &MemoryLocator::new(&topo, &mem));
            p
        };
        let (shared, sizes) = two_chains(40);
        let first = prepare_on(&shared, &sizes, one_shot, 9);
        assert_eq!(shared.window_plan_counts(), (1, 0));
        // Nothing has a home at `prepare`, so every anchor mode of the
        // repartitioning policy starts from the one-shot policy's plan.
        for anchor in [
            AnchorMode::Both,
            AnchorMode::Deps,
            AnchorMode::Homes,
            AnchorMode::None,
        ] {
            let again = prepare_on(&shared, &sizes, repart(anchor), 9);
            assert_eq!(
                windows_placed(&again),
                1,
                "a reused plan is a placed window"
            );
            assert_eq!(again.window_edge_cut(), first.window_edge_cut());
            assert_eq!(
                window_sockets(&again, &shared),
                window_sockets(&first, &shared)
            );
            // ... which is what the policy computes alone on a graph of its own.
            let (fresh, _) = two_chains(40);
            let alone = prepare_on(&fresh, &sizes, repart(anchor), 9);
            assert_eq!(fresh.window_plan_counts(), (1, 0));
            assert_eq!(
                window_sockets(&alone, &fresh),
                window_sockets(&again, &shared)
            );
        }
        assert_eq!(shared.window_plan_counts(), (1, 4));

        // Another seed, window size, scheme or pass limit is another plan.
        for (i, (other, seed)) in [
            (one_shot, 10),
            (tuned(32, Propagation::Las), 9),
            (
                RgpTuning {
                    scheme: Some(PartitionScheme::RecursiveBisection),
                    ..one_shot
                },
                9,
            ),
            (
                RgpTuning {
                    passes: Some(4),
                    ..one_shot
                },
                9,
            ),
        ]
        .into_iter()
        .enumerate()
        {
            prepare_on(&shared, &sizes, other, seed);
            assert_eq!(shared.window_plan_counts(), (i + 2, 4));
        }
        // So is another socket count.
        let mem = MemoryMap::with_regions(&sizes);
        let two = Topology::two_socket(4);
        RgpPolicy::new(one_shot, 9).prepare(&shared, &MemoryLocator::new(&two, &mem));
        assert_eq!(shared.window_plan_counts(), (6, 4));
    }

    #[test]
    fn a_first_window_with_a_placed_region_is_anchored_not_shared() {
        let (graph, sizes) = two_chains(40);
        let topo = Topology::four_socket(2);
        let mut mem = MemoryMap::with_regions(&sizes);
        let mut unplaced = RgpPolicy::new(repart(AnchorMode::Both), 9);
        unplaced.prepare(&graph, &MemoryLocator::new(&topo, &mem));
        assert_eq!(graph.window_plan_counts(), (1, 0));

        // Chain "a"'s region gets a home on the last socket.
        let home = SocketId(3);
        mem.place(numadag_numa::RegionId(0), home.node());
        let mut placed = RgpPolicy::new(repart(AnchorMode::Both), 9);
        placed.prepare(&graph, &MemoryLocator::new(&topo, &mem));
        assert_eq!(windows_placed(&placed), 1);
        assert_eq!(graph.window_plan_counts(), (1, 0), "no plan was asked for");

        // The anchored partition, spelled out: every task of chain "a" (even
        // vertices) pulls its region's bytes towards `home`.
        let window = TaskWindow::initial(&graph, WindowConfig::new(48));
        let wg = window_to_csr(&graph, &window);
        let mut affinity = AffinityCosts::zeros(window.len(), 4);
        for v in (0..window.len() as u32).step_by(2) {
            affinity.add(v, home.index() as u32, 1 << 20);
        }
        let cfg = PartitionTuning::default().config_for(4, 9);
        let expected = gp::partition_anchored(&wg.graph, &cfg, &affinity);
        for v in 0..window.len() {
            assert_eq!(
                placed.window_socket_of(TaskId(v)),
                Some(SocketId(expected.part_of(v as u32) as usize))
            );
        }
        assert_eq!(placed.window_edge_cut(), expected.edge_cut(&wg.graph));
        assert_ne!(
            window_sockets(&placed, &graph),
            window_sockets(&unplaced, &graph),
            "the anchors moved nothing"
        );
        // With homes out of the anchor set the placement is not looked at.
        let mut deps_only = RgpPolicy::new(repart(AnchorMode::Deps), 9);
        deps_only.prepare(&graph, &MemoryLocator::new(&topo, &mem));
        assert_eq!(graph.window_plan_counts(), (1, 1));
        assert_eq!(
            window_sockets(&deps_only, &graph),
            window_sockets(&unplaced, &graph)
        );
    }
}
