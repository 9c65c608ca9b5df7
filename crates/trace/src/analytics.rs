//! Analytics over a collected [`Trace`]: what bounded the makespan, where
//! the bytes went, how local each task was, and how deep the socket queues
//! ran.
//!
//! Everything here is pure post-processing — no executor involvement — so
//! the same analyses apply to simulator traces (exact simulated times) and
//! threaded traces (measured wall-clock times).

use numadag_numa::SocketId;
use numadag_tdg::{TaskGraph, TaskId};

use crate::event::TraceEvent;
use crate::trace::Trace;

/// Why a critical-path task could not have started earlier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CpBound {
    /// First task of the chain (started at the beginning of the execution).
    Source,
    /// The task started the moment its last dependence finished: the chain
    /// is bound by the DAG (and by where the predecessor's data ended up).
    Dependency,
    /// The task was ready earlier but every core of its socket was busy; it
    /// started the moment the previous task on its core finished.
    CoreBusy,
}

/// One task on the extracted critical path.
#[derive(Clone, Copy, Debug)]
pub struct CpLink {
    /// The task.
    pub task: TaskId,
    /// Execution start (ns).
    pub start: f64,
    /// Execution end (ns).
    pub end: f64,
    /// Socket the task ran on.
    pub socket: SocketId,
    /// What the task was waiting on before it started.
    pub(crate) bound: CpBound,
}

impl CpLink {
    /// Duration of this link (ns).
    pub(crate) fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The critical path of an executed schedule: the chain of tasks, linked by
/// dependence or core-occupancy edges, that ends at the task finishing last.
///
/// The total time of the chain is at most the makespan (links never overlap
/// in time); on a gap-free schedule — which the work-conserving simulator
/// always produces — it equals the makespan exactly, and the interesting
/// output is the *composition*: how much of the bound is dependences (the
/// DAG and data placement) versus busy cores (load imbalance).
#[derive(Clone, Debug, Default)]
pub struct CriticalPath {
    /// The chain, in execution order (first link first).
    pub links: Vec<CpLink>,
    /// Sum of link durations (ns); ≤ the trace's makespan.
    pub time_ns: f64,
    /// Time on links that were dependence-bound (ns), the `Source` link
    /// included.
    pub(crate) dependency_time_ns: f64,
    /// Time on links that were core-occupancy-bound (ns).
    pub(crate) core_busy_time_ns: f64,
}

/// Per-socket-pair traffic totals of one trace.
#[derive(Clone, Debug)]
pub struct TrafficMatrix {
    n: usize,
    /// Row-major `n × n`: `bytes[from * n + to]` = bytes cores of socket
    /// `to` pulled from memory of socket `from`.
    bytes: Vec<u64>,
}

impl TrafficMatrix {
    /// Bytes moved from memory of `from` to cores of `to`.
    pub(crate) fn bytes(&self, from: usize, to: usize) -> u64 {
        self.bytes[from * self.n + to]
    }

    /// Total bytes moved, saturating at `u64::MAX`.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().fold(0, |sum, &b| sum.saturating_add(b))
    }

    /// Bytes served at the local distance (10), saturating at `u64::MAX`.
    pub fn local_bytes(&self) -> u64 {
        (0..self.n).fold(0, |sum, s| sum.saturating_add(self.bytes(s, s)))
    }
}

/// Histogram of per-task locality: how many tasks had which fraction of
/// their accessed bytes served locally.
#[derive(Clone, Debug)]
pub struct LocalityHistogram {
    /// `buckets[i]` counts tasks with local fraction in
    /// `[i/len, (i+1)/len)`; the last bucket includes 1.0. Tasks that moved
    /// no bytes count as fully local.
    pub(crate) buckets: Vec<usize>,
    /// Mean per-task local fraction.
    pub mean: f64,
}

/// One change of a socket queue's depth.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueueSample {
    /// When the depth changed (ns).
    pub time: f64,
    /// The socket whose queue changed.
    pub socket: SocketId,
    /// Queue depth after the change.
    pub(crate) depth: usize,
}

/// Timeline of socket-queue depths, reconstructed from `Assign` (enqueue)
/// and `Start` (dequeue) events.
#[derive(Clone, Debug, Default)]
pub struct QueueTimeline {
    /// Every depth change, in event order.
    pub(crate) samples: Vec<QueueSample>,
    /// Maximum depth each socket's queue reached.
    pub max_depth: Vec<usize>,
}

impl Trace {
    /// Extracts the critical path of the executed schedule.
    ///
    /// Starting from the task that finished last, each step follows the edge
    /// that explains the current task's start time: the DAG predecessor
    /// whose finish coincides with the start (dependence-bound), or the task
    /// on the same core that finished exactly when this one started
    /// (core-occupancy-bound). Ties favour the dependence edge, which is the
    /// one a scheduling policy can actually influence.
    pub fn critical_path(&self, graph: &TaskGraph) -> CriticalPath {
        self.critical_path_from(&self.task_intervals(), graph)
    }

    /// [`Trace::critical_path`] over intervals the caller already extracted
    /// (the comparison layer reuses its interval vectors instead of
    /// re-scanning the whole event list).
    pub(crate) fn critical_path_from(
        &self,
        intervals: &[Option<crate::trace::TaskInterval>],
        graph: &TaskGraph,
    ) -> CriticalPath {
        let Some((last, _)) = intervals
            .iter()
            .enumerate()
            .filter_map(|(t, i)| i.map(|i| (t, i.end)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
        else {
            return CriticalPath::default();
        };

        // Per-core execution history, time-ordered, to resolve core-bound
        // links without scanning every task per step.
        let mut by_core: std::collections::BTreeMap<usize, Vec<TaskId>> = Default::default();
        for (t, interval) in intervals.iter().enumerate() {
            if let Some(i) = interval {
                by_core.entry(i.core.index()).or_default().push(TaskId(t));
            }
        }
        for tasks in by_core.values_mut() {
            tasks.sort_by(|a, b| {
                intervals[a.index()]
                    .unwrap()
                    .start
                    .total_cmp(&intervals[b.index()].unwrap().start)
            });
        }

        let tolerance = 1e-9 * self.makespan_ns.max(1.0) + 1e-9;
        let mut links: Vec<CpLink> = Vec::new();
        let mut current = TaskId(last);
        loop {
            let interval = intervals[current.index()].expect("task on chain has an interval");
            let start = interval.start;

            // Best dependence edge: the predecessor finishing last (but not
            // after `start`, modulo wall-clock measurement skew).
            let dep = graph
                .predecessors(current)
                .iter()
                .filter_map(|(p, _)| intervals[p.index()].map(|i| (*p, i.end)))
                .filter(|(_, end)| *end <= start + tolerance)
                .max_by(|a, b| a.1.total_cmp(&b.1));

            // Core-occupancy edge: the task that ran just before this one on
            // the same core, if it finished exactly when this one started.
            let core_pred = by_core
                .get(&interval.core.index())
                .and_then(|tasks| {
                    let pos = tasks.iter().position(|t| *t == current)?;
                    pos.checked_sub(1).map(|p| tasks[p])
                })
                .and_then(|p| intervals[p.index()].map(|i| (p, i.end)));

            let (bound, next) = match (dep, core_pred) {
                (Some((p, end)), _) if (start - end).abs() <= tolerance => {
                    (CpBound::Dependency, Some(p))
                }
                (_, Some((p, end))) if (start - end).abs() <= tolerance => {
                    (CpBound::CoreBusy, Some(p))
                }
                // No edge coincides with the start (threaded traces have
                // measurement gaps): fall back to the best dependence edge,
                // or end the chain at the schedule's beginning.
                (Some((p, _)), _) if start > tolerance => (CpBound::Dependency, Some(p)),
                _ => (CpBound::Source, None),
            };
            links.push(CpLink {
                task: current,
                start,
                end: interval.end,
                socket: interval.socket,
                bound,
            });
            match next {
                Some(p) => current = p,
                None => break,
            }
        }
        links.reverse();

        let mut cp = CriticalPath {
            time_ns: links.iter().map(CpLink::duration).sum(),
            ..CriticalPath::default()
        };
        for link in &links {
            match link.bound {
                CpBound::CoreBusy => cp.core_busy_time_ns += link.duration(),
                _ => cp.dependency_time_ns += link.duration(),
            }
        }
        cp.links = links;
        cp
    }

    /// The socket × socket traffic matrix of the trace. Each entry
    /// saturates at `u64::MAX`, as the run's `TrafficStats` does.
    pub fn traffic_matrix(&self) -> TrafficMatrix {
        let n = self.num_sockets;
        let mut bytes = vec![0u64; n * n];
        for event in &self.events {
            if let TraceEvent::Traffic {
                from, to, bytes: b, ..
            } = event
            {
                let entry = &mut bytes[from.index() * n + to.index()];
                *entry = entry.saturating_add(*b);
            }
        }
        TrafficMatrix { n, bytes }
    }

    /// Histogram of per-task local fractions over `buckets` equal bins.
    ///
    /// # Panics
    /// Panics if `buckets` is zero.
    pub fn locality_histogram(&self, buckets: usize) -> LocalityHistogram {
        assert!(buckets > 0, "histogram needs at least one bucket");
        let mut local = vec![0u64; self.tasks];
        let mut total = vec![0u64; self.tasks];
        for event in &self.events {
            if let TraceEvent::Traffic {
                task,
                from,
                to,
                bytes,
                ..
            } = event
            {
                let t = task.index();
                total[t] = total[t].saturating_add(*bytes);
                if from == to {
                    local[t] = local[t].saturating_add(*bytes);
                }
            }
        }
        let mut histogram = LocalityHistogram {
            buckets: vec![0; buckets],
            mean: 0.0,
        };
        for t in 0..self.tasks {
            let fraction = if total[t] == 0 {
                1.0
            } else {
                local[t] as f64 / total[t] as f64
            };
            let bucket = ((fraction * buckets as f64) as usize).min(buckets - 1);
            histogram.buckets[bucket] += 1;
            histogram.mean += fraction;
        }
        if self.tasks > 0 {
            histogram.mean /= self.tasks as f64;
        }
        histogram
    }

    /// Reconstructs the per-socket queue-depth timeline. A task enters its
    /// assigned socket's queue at its `Assign` event and leaves it at its
    /// `Start` event (steals drain the queue the task was assigned to).
    pub fn queue_depth_timeline(&self) -> QueueTimeline {
        let mut assigned: Vec<Option<SocketId>> = vec![None; self.tasks];
        let mut depth = vec![0usize; self.num_sockets];
        let mut timeline = QueueTimeline {
            samples: Vec::new(),
            max_depth: vec![0; self.num_sockets],
        };
        for event in &self.events {
            match event {
                TraceEvent::Assign { task, socket, time } => {
                    assigned[task.index()] = Some(*socket);
                    depth[socket.index()] += 1;
                    timeline.max_depth[socket.index()] =
                        timeline.max_depth[socket.index()].max(depth[socket.index()]);
                    timeline.samples.push(QueueSample {
                        time: *time,
                        socket: *socket,
                        depth: depth[socket.index()],
                    });
                }
                TraceEvent::Start { task, time, .. } => {
                    let Some(socket) = assigned[task.index()] else {
                        continue;
                    };
                    depth[socket.index()] = depth[socket.index()].saturating_sub(1);
                    timeline.samples.push(QueueSample {
                        time: *time,
                        socket,
                        depth: depth[socket.index()],
                    });
                }
                _ => {}
            }
        }
        timeline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numadag_numa::{CoreId, NodeId};

    /// Chain 0 → 1 → 2 on one core, gap-free (the degenerate serial
    /// schedule where the critical path must equal the makespan).
    fn serial_trace() -> (Trace, TaskGraph) {
        use numadag_tdg::DataAccess;
        let mut graph = TaskGraph::new();
        let region = graph.region(8);
        for t in 0..3 {
            let deps: Vec<(TaskId, u64)> = if t == 0 {
                vec![]
            } else {
                vec![(TaskId(t - 1), 8)]
            };
            graph
                .push_task("step", 10.0, &[DataAccess::read_write(region, 8)], &deps)
                .unwrap();
        }
        let mut events = Vec::new();
        for t in 0..3 {
            let start = 10.0 * t as f64;
            events.push(TraceEvent::Assign {
                task: TaskId(t),
                socket: SocketId(0),
                time: start,
            });
            events.push(TraceEvent::Start {
                task: TaskId(t),
                socket: SocketId(0),
                core: CoreId(0),
                time: start,
                stolen: false,
            });
            events.push(TraceEvent::Traffic {
                task: TaskId(t),
                region: 0,
                from: NodeId(0),
                to: NodeId(0),
                distance: 10,
                bytes: 8,
                time: start,
            });
            events.push(TraceEvent::Finish {
                task: TaskId(t),
                socket: SocketId(0),
                core: CoreId(0),
                time: start + 10.0,
            });
        }
        let trace = Trace {
            workload: "chain".to_string(),
            policy: "LAS".to_string(),
            backend: "simulator".to_string(),
            scale: "custom".to_string(),
            repetition: 0,
            tasks: 3,
            num_sockets: 1,
            makespan_ns: 30.0,
            events,
        };
        (trace, graph)
    }

    #[test]
    fn serial_chain_critical_path_equals_makespan() {
        let (trace, graph) = serial_trace();
        let cp = trace.critical_path(&graph);
        assert_eq!(
            cp.links.iter().map(|l| l.task).collect::<Vec<_>>(),
            vec![TaskId(0), TaskId(1), TaskId(2)]
        );
        assert!((cp.time_ns - trace.makespan_ns).abs() < 1e-9);
        assert_eq!(cp.links[0].bound, CpBound::Source);
        assert_eq!(cp.links[1].bound, CpBound::Dependency);
        assert_eq!(cp.core_busy_time_ns, 0.0);
    }

    #[test]
    fn core_busy_links_are_classified() {
        // Two independent tasks forced onto one core: the second is bound by
        // core occupancy, not by a dependence.
        use numadag_tdg::DataAccess;
        let mut graph = TaskGraph::new();
        for _ in 0..2 {
            let region = graph.region(8);
            graph
                .push_task("independent", 5.0, &[DataAccess::write(region, 8)], &[])
                .unwrap();
        }
        let events = vec![
            TraceEvent::Assign {
                task: TaskId(0),
                socket: SocketId(0),
                time: 0.0,
            },
            TraceEvent::Assign {
                task: TaskId(1),
                socket: SocketId(0),
                time: 0.0,
            },
            TraceEvent::Start {
                task: TaskId(0),
                socket: SocketId(0),
                core: CoreId(0),
                time: 0.0,
                stolen: false,
            },
            TraceEvent::Finish {
                task: TaskId(0),
                socket: SocketId(0),
                core: CoreId(0),
                time: 5.0,
            },
            TraceEvent::Start {
                task: TaskId(1),
                socket: SocketId(0),
                core: CoreId(0),
                time: 5.0,
                stolen: false,
            },
            TraceEvent::Finish {
                task: TaskId(1),
                socket: SocketId(0),
                core: CoreId(0),
                time: 10.0,
            },
        ];
        let trace = Trace {
            workload: "pair".to_string(),
            policy: "DFIFO".to_string(),
            backend: "simulator".to_string(),
            scale: "custom".to_string(),
            repetition: 0,
            tasks: 2,
            num_sockets: 1,
            makespan_ns: 10.0,
            events,
        };
        let cp = trace.critical_path(&graph);
        assert_eq!(
            cp.links.iter().map(|l| l.task).collect::<Vec<_>>(),
            vec![TaskId(0), TaskId(1)]
        );
        assert_eq!(cp.links[1].bound, CpBound::CoreBusy);
        assert!((cp.core_busy_time_ns - 5.0).abs() < 1e-9);
        assert!((cp.time_ns - 10.0).abs() < 1e-9);
    }

    #[test]
    fn traffic_matrix_and_locality_histogram() {
        let trace = crate::trace::tests::toy_trace();
        let matrix = trace.traffic_matrix();
        assert_eq!(matrix.n, 2);
        assert_eq!(matrix.bytes(0, 0), 256);
        assert_eq!(matrix.bytes(0, 1), 256);
        assert_eq!(matrix.total_bytes(), 512);
        assert_eq!(matrix.local_bytes(), 256);

        let histogram = trace.locality_histogram(4);
        // Task 0 fully local (last bucket), task 1 fully remote (first).
        assert_eq!(histogram.buckets, vec![1, 0, 0, 1]);
        assert!((histogram.mean - 0.5).abs() < 1e-12);
    }

    /// Traffic adding up to more than `u64::MAX` bytes reads `u64::MAX`,
    /// as the run's ledger does, instead of overflowing.
    #[test]
    fn traffic_views_saturate() {
        let mut trace = crate::trace::tests::toy_trace();
        for event in &mut trace.events {
            if let TraceEvent::Traffic { bytes, .. } = event {
                *bytes = u64::MAX;
            }
        }
        // Every access twice: each task moves 2 x u64::MAX bytes.
        let again = trace.events.clone();
        trace.events.extend(again);
        let matrix = trace.traffic_matrix();
        assert_eq!(
            (matrix.bytes(0, 0), matrix.bytes(0, 1)),
            (u64::MAX, u64::MAX)
        );
        assert_eq!(matrix.total_bytes(), u64::MAX);
        assert_eq!(matrix.local_bytes(), u64::MAX);
        assert_eq!(trace.locality_histogram(4).buckets, vec![1, 0, 0, 1]);
    }

    #[test]
    fn queue_timeline_tracks_assign_and_start() {
        let trace = crate::trace::tests::toy_trace();
        let timeline = trace.queue_depth_timeline();
        // Both tasks were assigned to socket 0; depth peaks at 1 (task 1 is
        // enqueued only after task 0 started).
        assert_eq!(timeline.max_depth, vec![1, 0]);
        let last = timeline.samples.last().unwrap();
        assert_eq!(last.depth, 0);
        assert_eq!(timeline.samples.len(), 4);
    }

    #[test]
    fn empty_trace_has_empty_critical_path() {
        let trace = Trace {
            workload: "empty".to_string(),
            policy: "LAS".to_string(),
            backend: "simulator".to_string(),
            scale: "custom".to_string(),
            repetition: 0,
            tasks: 0,
            num_sockets: 1,
            makespan_ns: 0.0,
            events: Vec::new(),
        };
        let cp = trace.critical_path(&TaskGraph::new());
        assert!(cp.links.is_empty());
        assert_eq!(cp.time_ns, 0.0);
    }
}
