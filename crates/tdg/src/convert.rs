//! Conversion of a (window of a) TDG into the undirected weighted graph the
//! partitioner consumes.
//!
//! The direction of a dependence is irrelevant for placement — what matters
//! is that the two tasks share data, and how much of it — so the TDG is
//! symmetrised. Edges into *later* windows are dropped (the partition of
//! later tasks is decided by the propagation policy, not by the partitioner),
//! but dependences from *earlier* windows — tasks whose placement is already
//! fixed — are reported as [`CrossEdge`]s so an anchored partitioner can
//! trade edge cut against affinity to the fixed data homes.
//! Vertex weights are the task compute costs, so the balance constraint of
//! the partitioner balances *work*, not just task counts.

use numadag_graph::CsrGraph;

use crate::graph::TaskGraph;
use crate::task::TaskId;
use crate::window::TaskWindow;

/// Result of converting a window: the undirected graph plus the mapping from
/// graph vertex to task id (vertex `i` is `tasks[i]`).
#[derive(Clone, Debug)]
pub struct WindowGraph {
    /// The symmetrised, weighted graph over the window's tasks.
    pub graph: CsrGraph,
    /// `tasks[v]` is the task id of vertex `v`.
    pub tasks: Vec<TaskId>,
    /// Dependences from tasks *before* the window (already placed by earlier
    /// windows) into this window's vertices. Empty when the window starts at
    /// the first task.
    pub cross_edges: Vec<CrossEdge>,
}

/// A dependence crossing into the window from a task placed by an earlier
/// window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrossEdge {
    /// The window-local vertex on the receiving end.
    pub vertex: u32,
    /// The already-placed predecessor task (its id is below `window.start`).
    pub predecessor: TaskId,
    /// Dependence byte count, clamped like in-window edges.
    pub bytes: i64,
}

/// The largest weight a vertex, edge, cross edge or per-vertex anchor row of
/// `window` gets: `i64::MAX / 8` shared out over its tasks and dependence
/// entries, so no sum or gain the partitioner forms over the window can
/// overflow. Over ten terabytes for the paper's applications.
pub fn window_weight_cap(graph: &TaskGraph, window: &TaskWindow) -> i64 {
    let entries = graph.window_edge_entries(window) + window.len() + 1;
    (i64::MAX / 8) / i64::try_from(entries).unwrap_or(i64::MAX)
}

/// `bytes` saturated into `i64` and clamped to `1..=cap`: monotone in bytes.
pub fn clamp_weight(bytes: u64, cap: i64) -> i64 {
    i64::try_from(bytes).unwrap_or(i64::MAX).clamp(1, cap)
}

/// Converts the tasks of `window` into an undirected [`CsrGraph`].
///
/// * Edge weights are the dependence byte counts, clamped to at least 1 so
///   zero-byte control dependences still keep related tasks together.
/// * Vertex weights are the task work units rounded up to at least 1.
/// * Both are capped by [`window_weight_cap`].
/// * Dependences from tasks before the window are returned as
///   [`CrossEdge`]s rather than graph edges: their endpoints are already
///   placed, so they are anchors, not free vertices.
///
/// A row is the vertex's in-window predecessors, then its in-window
/// successors, both ascending: sorted, and free of repeats (the TDG keeps
/// one edge per task pair).
pub fn window_to_csr(graph: &TaskGraph, window: &TaskWindow) -> WindowGraph {
    let (base, end) = (window.start.index(), window.end.index());
    let flat = graph.flat();
    let cap = window_weight_cap(graph, window);
    let mut xadj = Vec::with_capacity(window.len() + 1);
    xadj.push(0);
    let mut adjncy = Vec::with_capacity(graph.window_edge_entries(window));
    let mut adjwgt = Vec::with_capacity(adjncy.capacity());
    let mut vwgt = Vec::with_capacity(window.len());
    let mut cross_edges = Vec::new();
    for (v, t) in window.task_ids().enumerate() {
        let work = graph.task(t).work_units.ceil().max(1.0);
        vwgt.push((work as i64).min(cap));
        for &(pred, bytes) in graph.predecessors(t) {
            if pred.index() < base {
                cross_edges.push(CrossEdge {
                    vertex: v as u32,
                    predecessor: pred,
                    bytes: clamp_weight(bytes, cap),
                });
            } else {
                adjncy.push((pred.index() - base) as u32);
                adjwgt.push(clamp_weight(bytes, cap));
            }
        }
        for (&succ, &bytes) in flat.successors(t).iter().zip(flat.successor_bytes(t)) {
            if succ as usize >= end {
                break;
            }
            adjncy.push(succ - base as u32);
            adjwgt.push(clamp_weight(bytes, cap));
        }
        xadj.push(adjncy.len());
    }
    WindowGraph {
        graph: CsrGraph::from_parts_unchecked(xadj, adjncy, adjwgt, vwgt),
        tasks: window.task_ids().collect(),
        cross_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TdgBuilder;
    use crate::task::TaskSpec;
    use crate::window::WindowConfig;

    fn diamond() -> TaskGraph {
        let mut b = TdgBuilder::new();
        let a = b.region(1000);
        let c = b.region(2000);
        let d = b.region(500);
        b.submit(
            TaskSpec::new("src")
                .work(1.0)
                .writes(a, 1000)
                .writes(c, 2000),
        );
        b.submit(TaskSpec::new("l").work(2.0).reads(a, 1000).writes(d, 500));
        b.submit(TaskSpec::new("r").work(3.0).reads(c, 2000));
        b.submit(TaskSpec::new("sink").work(4.0).reads(d, 500).reads(c, 2000));
        b.finish()
    }

    /// The window that spans every task of `graph`, converted.
    fn whole_graph(graph: &TaskGraph) -> WindowGraph {
        window_to_csr(
            graph,
            &TaskWindow::new(TaskId(0), TaskId(graph.num_tasks())),
        )
    }

    #[test]
    fn full_conversion_symmetrises_and_weights() {
        let g = diamond();
        let wg = whole_graph(&g);
        assert_eq!(wg.graph.num_vertices(), 4);
        assert_eq!(wg.tasks.len(), 4);
        assert!(wg.graph.validate().is_ok());
        // Edge 0-1 carries the 1000 bytes of region `a`.
        assert_eq!(wg.graph.edge_weight(0, 1), Some(1000));
        // Edge 0-2 carries region `c`.
        assert_eq!(wg.graph.edge_weight(0, 2), Some(2000));
        // Vertex weights follow work units.
        assert_eq!(wg.graph.vertex_weight(0), 1);
        assert_eq!(wg.graph.vertex_weight(3), 4);
    }

    #[test]
    fn window_conversion_drops_external_edges() {
        let g = diamond();
        // Window with only the first two tasks: the 0-2 and *-3 edges vanish.
        let w = TaskWindow::initial(&g, WindowConfig::new(2));
        let wg = window_to_csr(&g, &w);
        assert_eq!(wg.graph.num_vertices(), 2);
        assert_eq!(wg.graph.num_edges(), 1);
        assert_eq!(wg.graph.edge_weight(0, 1), Some(1000));
        assert_eq!(wg.tasks, vec![TaskId(0), TaskId(1)]);
    }

    #[test]
    fn zero_work_and_zero_bytes_are_clamped() {
        let mut b = TdgBuilder::new();
        let r = b.region(0);
        b.submit(TaskSpec::new("a").work(0.0).writes(r, 0));
        b.submit(TaskSpec::new("b").work(0.0).reads(r, 0));
        let g = b.finish();
        let wg = whole_graph(&g);
        assert_eq!(wg.graph.vertex_weight(0), 1);
        assert_eq!(wg.graph.edge_weight(0, 1), Some(1));
        assert!(wg.graph.validate().is_ok());
    }

    #[test]
    fn empty_window_converts_to_empty_graph() {
        let g = diamond();
        let w = TaskWindow::new(TaskId(1), TaskId(1));
        let wg = window_to_csr(&g, &w);
        assert_eq!(wg.graph.num_vertices(), 0);
        assert!(wg.tasks.is_empty());
        assert!(wg.cross_edges.is_empty());
    }

    #[test]
    fn full_conversion_has_no_cross_edges() {
        let wg = whole_graph(&diamond());
        assert!(wg.cross_edges.is_empty());
    }

    #[test]
    fn later_window_reports_cross_edges_into_placed_tasks() {
        let g = diamond();
        // Second window: tasks 2 ("r") and 3 ("sink"). Task 2 reads region
        // `c` written by task 0; task 3 reads `d` from task 1 and `c` from
        // task 0 — all three dependences cross the window boundary.
        let w = TaskWindow::new(TaskId(2), TaskId(4));
        let wg = window_to_csr(&g, &w);
        assert_eq!(wg.graph.num_vertices(), 2);
        let mut crossings = wg.cross_edges.clone();
        crossings.sort_by_key(|c| (c.vertex, c.predecessor.index()));
        assert_eq!(
            crossings,
            vec![
                CrossEdge {
                    vertex: 0,
                    predecessor: TaskId(0),
                    bytes: 2000
                },
                CrossEdge {
                    vertex: 1,
                    predecessor: TaskId(0),
                    bytes: 2000
                },
                CrossEdge {
                    vertex: 1,
                    predecessor: TaskId(1),
                    bytes: 500
                },
            ]
        );
        // Every cross edge points at an already-placed task.
        for c in &wg.cross_edges {
            assert!(c.predecessor.index() < w.start.index());
        }
    }
}
