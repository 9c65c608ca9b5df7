//! Task windows.
//!
//! The paper partitions the TDG "once the execution goes through a barrier
//! point or a limit in terms of the total number of tasks contained in the
//! graph — the *window size limit* — is reached". A window is therefore a
//! contiguous prefix (or slice) of the submission order.

use crate::graph::TaskGraph;
use crate::task::TaskId;

/// Window configuration used by runtime graph partitioning (RGP).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowConfig {
    /// Maximum number of tasks accumulated before the window is closed and
    /// partitioned.
    pub window_size: usize,
}

impl Default for WindowConfig {
    fn default() -> Self {
        // The default window used throughout the reproduction: large enough
        // to capture the structure of the first iteration of the kernels,
        // small enough that partitioning stays cheap.
        WindowConfig { window_size: 1024 }
    }
}

impl WindowConfig {
    /// A window of the given size (must be at least 1).
    pub fn new(window_size: usize) -> Self {
        assert!(window_size >= 1, "window size must be at least 1");
        WindowConfig { window_size }
    }
}

/// A contiguous slice of the submission order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskWindow {
    /// First task id in the window (inclusive).
    pub start: TaskId,
    /// One past the last task id in the window.
    pub end: TaskId,
}

impl TaskWindow {
    /// The window covering tasks `[start, end)`.
    pub fn new(start: TaskId, end: TaskId) -> Self {
        assert!(start.index() <= end.index(), "window must not be inverted");
        TaskWindow { start, end }
    }

    /// The first window (prefix) of `graph` under `config`: the first
    /// `window_size` tasks, or all of them if there are fewer.
    pub fn initial(graph: &TaskGraph, config: WindowConfig) -> Self {
        let end = graph.num_tasks().min(config.window_size);
        TaskWindow::new(TaskId(0), TaskId(end))
    }

    /// Splits the whole graph into consecutive windows of `config.window_size`.
    ///
    /// Materialises every window up front; [`WindowCursor`] is the streaming
    /// equivalent for policies that advance window by window.
    pub fn split_all(graph: &TaskGraph, config: WindowConfig) -> Vec<TaskWindow> {
        WindowCursor::new(graph, config).collect()
    }

    /// Number of tasks in the window.
    pub fn len(&self) -> usize {
        self.end.index() - self.start.index()
    }

    /// True if the window contains no tasks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The task ids in the window.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> {
        (self.start.index()..self.end.index()).map(TaskId)
    }
}

/// A streaming walk over the consecutive windows of a graph's submission
/// order.
///
/// Where [`TaskWindow::split_all`] materialises every window up front, the
/// cursor yields them one at a time, so a propagating policy can close and
/// partition a window exactly when execution first crosses its boundary.
/// The sequence of emitted windows is identical to `split_all`'s.
#[derive(Clone, Debug)]
pub struct WindowCursor {
    window_size: usize,
    num_tasks: usize,
    next_start: usize,
}

impl WindowCursor {
    /// A cursor over `graph` under `config`, positioned before the first
    /// window.
    pub fn new(graph: &TaskGraph, config: WindowConfig) -> Self {
        WindowCursor::over(graph.num_tasks(), config)
    }

    /// A cursor over `num_tasks` submission slots (no graph required).
    pub(crate) fn over(num_tasks: usize, config: WindowConfig) -> Self {
        WindowCursor {
            window_size: config.window_size,
            num_tasks,
            next_start: 0,
        }
    }

    /// True if `task` lies inside a window that has already been emitted.
    pub fn covers(&self, task: TaskId) -> bool {
        task.index() < self.next_start
    }

    /// True once every task has been covered by an emitted window.
    pub(crate) fn is_exhausted(&self) -> bool {
        self.next_start >= self.num_tasks
    }

    /// Emits the next window, or `None` once the graph is exhausted.
    pub fn advance(&mut self) -> Option<TaskWindow> {
        if self.is_exhausted() {
            return None;
        }
        let end = (self.next_start + self.window_size).min(self.num_tasks);
        let window = TaskWindow::new(TaskId(self.next_start), TaskId(end));
        self.next_start = end;
        Some(window)
    }
}

impl Iterator for WindowCursor {
    type Item = TaskWindow;

    fn next(&mut self) -> Option<TaskWindow> {
        self.advance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TdgBuilder;
    use crate::task::TaskSpec;

    fn chain(n: usize) -> TaskGraph {
        let mut b = TdgBuilder::new();
        let r = b.region(64);
        for _ in 0..n {
            b.submit(TaskSpec::new("step").work(1.0).reads_writes(r, 64));
        }
        b.finish()
    }

    #[test]
    fn initial_window_is_a_prefix() {
        let g = chain(100);
        let w = TaskWindow::initial(&g, WindowConfig::new(32));
        assert_eq!(w.len(), 32);
        assert_eq!((w.start, w.end), (TaskId(0), TaskId(32)));
        assert_eq!(w.task_ids().count(), 32);
    }

    #[test]
    fn initial_window_clamps_to_graph_size() {
        let g = chain(10);
        let w = TaskWindow::initial(&g, WindowConfig::new(1000));
        assert_eq!(w.len(), 10);
    }

    #[test]
    fn split_all_covers_every_task_once() {
        let g = chain(103);
        let windows = TaskWindow::split_all(&g, WindowConfig::new(25));
        assert_eq!(windows.len(), 5);
        let total: usize = windows.iter().map(|w| w.len()).sum();
        assert_eq!(total, 103);
        assert_eq!(windows.last().unwrap().len(), 3);
        // Windows are contiguous and non-overlapping.
        for pair in windows.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
    }

    #[test]
    fn empty_graph_has_no_windows() {
        let g = TaskGraph::new();
        assert!(TaskWindow::split_all(&g, WindowConfig::default()).is_empty());
        let w = TaskWindow::initial(&g, WindowConfig::default());
        assert!(w.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_window_rejected() {
        WindowConfig::new(0);
    }

    #[test]
    fn default_window_size() {
        assert_eq!(WindowConfig::default().window_size, 1024);
    }

    #[test]
    fn cursor_matches_split_all() {
        let g = chain(103);
        let cfg = WindowConfig::new(25);
        let streamed: Vec<TaskWindow> = WindowCursor::new(&g, cfg).collect();
        assert_eq!(streamed, TaskWindow::split_all(&g, cfg));
    }

    #[test]
    fn cursor_on_empty_graph_is_exhausted_immediately() {
        let g = TaskGraph::new();
        let mut c = WindowCursor::new(&g, WindowConfig::default());
        assert!(c.is_exhausted());
        assert_eq!(c.advance(), None);
        assert!(!c.covers(TaskId(0)));
    }

    #[test]
    fn cursor_window_larger_than_graph_emits_one_clamped_window() {
        let g = chain(10);
        let mut c = WindowCursor::new(&g, WindowConfig::new(1000));
        let w = c.advance().unwrap();
        assert_eq!(w, TaskWindow::new(TaskId(0), TaskId(10)));
        assert!(c.is_exhausted());
        assert_eq!(c.advance(), None);
        // split_all agrees.
        assert_eq!(
            TaskWindow::split_all(&g, WindowConfig::new(1000)),
            vec![TaskWindow::new(TaskId(0), TaskId(10))]
        );
    }

    #[test]
    fn cursor_window_size_one_emits_singleton_windows() {
        let g = chain(4);
        let cfg = WindowConfig::new(1);
        let windows: Vec<TaskWindow> = WindowCursor::new(&g, cfg).collect();
        assert_eq!(windows.len(), 4);
        for (i, w) in windows.iter().enumerate() {
            assert_eq!(w.len(), 1);
            assert_eq!(w.start, TaskId(i));
        }
        assert_eq!(TaskWindow::split_all(&g, cfg), windows);
    }

    #[test]
    fn cursor_exact_multiple_boundary_has_no_trailing_window() {
        let g = chain(100);
        let cfg = WindowConfig::new(25);
        let mut c = WindowCursor::new(&g, cfg);
        let windows: Vec<TaskWindow> = c.by_ref().collect();
        assert_eq!(windows.len(), 4);
        assert!(windows.iter().all(|w| w.len() == 25));
        assert_eq!(c.advance(), None);
    }

    #[test]
    fn cursor_covers_tracks_the_frontier() {
        let g = chain(10);
        let mut c = WindowCursor::new(&g, WindowConfig::new(4));
        assert!(!c.covers(TaskId(0)));
        c.advance();
        assert!(c.covers(TaskId(3)));
        assert!(!c.covers(TaskId(4)));
        c.advance();
        assert!(c.covers(TaskId(7)));
        assert!(!c.covers(TaskId(8)));
        c.advance();
        assert!(c.covers(TaskId(9)));
        assert!(c.is_exhausted());
    }
}
