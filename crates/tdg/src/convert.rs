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
    /// Dependence byte count, clamped to at least 1 like in-window edges.
    pub bytes: i64,
}

/// Converts the tasks of `window` into an undirected [`CsrGraph`].
///
/// * Edge weights are the dependence byte counts, clamped to at least 1 so
///   zero-byte control dependences still keep related tasks together.
/// * Vertex weights are the task work units rounded up to at least 1.
/// * Dependences from tasks before the window are returned as
///   [`CrossEdge`]s rather than graph edges: their endpoints are already
///   placed, so they are anchors, not free vertices.
pub fn window_to_csr(graph: &TaskGraph, window: &TaskWindow) -> WindowGraph {
    let tasks: Vec<TaskId> = window.task_ids().collect();
    let base = window.start.index();
    let mut vwgt = Vec::with_capacity(tasks.len());
    let mut edges: Vec<(u32, u32, i64)> = Vec::new();
    let mut cross_edges = Vec::new();
    for (v, &t) in tasks.iter().enumerate() {
        vwgt.push(graph.task(t).work_units.ceil().max(1.0) as i64);
        for (succ, bytes) in graph.successors(t) {
            if window.contains(succ) {
                let u = succ.index() - base;
                edges.push((v as u32, u as u32, (bytes as i64).max(1)));
            }
        }
        for &(pred, bytes) in graph.predecessors(t) {
            if pred.index() < base {
                cross_edges.push(CrossEdge {
                    vertex: v as u32,
                    predecessor: pred,
                    bytes: (bytes as i64).max(1),
                });
            }
        }
    }
    WindowGraph {
        graph: CsrGraph::from_undirected_edges(tasks.len(), vwgt, &mut edges),
        tasks,
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
        b.finish().0
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
        let g = b.finish().0;
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
