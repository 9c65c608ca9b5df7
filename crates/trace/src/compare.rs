//! Two-policy trace comparison: given traces of the *same workload* under
//! two policies, rank the tasks and data flows where one policy loses time
//! to the other.
//!
//! This is the tool the Figure-1 per-app divergences call for: when RGP+LAS
//! comes out slower than LAS on an application, [`Trace::compare`] names the
//! tasks whose durations grew, the regions whose accesses went remote, and
//! how the two critical paths differ — turning "geomean 0.955" into a list
//! of concrete scheduling decisions to investigate.

use numadag_tdg::{TaskGraph, TaskId};

use crate::analytics::CriticalPath;
use crate::event::TraceEvent;
use crate::trace::Trace;

/// Per-task difference between the two traced executions.
#[derive(Clone, Debug)]
pub struct TaskDelta {
    /// The task.
    pub task: TaskId,
    /// The task's kind label (from the task descriptor).
    pub kind: String,
    /// Socket the task ran on under `self` / `other`.
    pub(crate) socket_self: usize,
    /// Socket under the other policy.
    pub(crate) socket_other: usize,
    /// Execution duration under `self` (ns).
    pub(crate) duration_self: f64,
    /// Execution duration under `other` (ns).
    pub(crate) duration_other: f64,
    /// Remote bytes the task pulled under `self`.
    pub(crate) remote_bytes_self: u64,
    /// Remote bytes under `other`.
    pub(crate) remote_bytes_other: u64,
}

impl TaskDelta {
    /// How much longer the task ran under `self` than under `other` (ns);
    /// positive means `self` lost time here.
    pub fn delta_ns(&self) -> f64 {
        self.duration_self - self.duration_other
    }
}

/// Per-region (data-flow) difference between the two executions: region
/// accesses are the unit the runtime moves bytes in, so a region whose
/// distance-weighted traffic grew is an edge of the TDG that went remote.
#[derive(Clone, Debug)]
pub struct FlowDelta {
    /// The region index.
    pub region: usize,
    /// Total bytes moved for this region under `self` / `other`.
    pub(crate) bytes_self: u64,
    /// Bytes under the other policy.
    pub(crate) bytes_other: u64,
    /// Distance-weighted bytes (bytes × SLIT distance) under `self`.
    pub(crate) weighted_self: u64,
    /// Distance-weighted bytes under `other`.
    pub(crate) weighted_other: u64,
}

impl FlowDelta {
    /// Growth of the distance-weighted traffic under `self` relative to
    /// `other` (positive = `self` moved the region's bytes farther).
    pub fn weighted_delta(&self) -> i64 {
        self.weighted_self as i64 - self.weighted_other as i64
    }
}

/// The ranked comparison of two traces of the same workload.
#[derive(Clone, Debug)]
pub struct TraceComparison {
    /// Policy label of the trace `compare` was called on.
    pub(crate) policy_self: String,
    /// Policy label of the other trace.
    pub(crate) policy_other: String,
    /// Workload both traces ran.
    pub workload: String,
    /// Makespan under `self` (ns).
    pub makespan_self: f64,
    /// Makespan under `other` (ns).
    pub makespan_other: f64,
    /// Every task's delta, ranked by time lost under `self` (descending).
    pub task_deltas: Vec<TaskDelta>,
    /// Every region's flow delta, ranked by distance-weighted growth under
    /// `self` (descending).
    pub(crate) flow_deltas: Vec<FlowDelta>,
    /// Critical path of `self`'s schedule.
    pub(crate) critical_path_self: CriticalPath,
    /// Critical path of `other`'s schedule.
    pub(crate) critical_path_other: CriticalPath,
    /// Tasks placed on different sockets by the two policies.
    pub(crate) tasks_moved: usize,
}

impl TraceComparison {
    /// Makespan difference `self - other` (ns); positive means `self` is
    /// slower overall.
    pub(crate) fn makespan_delta_ns(&self) -> f64 {
        self.makespan_self - self.makespan_other
    }

    /// The `n` tasks where `self` lost the most time.
    pub fn top_task_losses(&self, n: usize) -> &[TaskDelta] {
        &self.task_deltas[..n.min(self.task_deltas.len())]
    }

    /// The `n` regions whose traffic went farthest under `self`.
    pub fn top_flow_losses(&self, n: usize) -> &[FlowDelta] {
        &self.flow_deltas[..n.min(self.flow_deltas.len())]
    }
}

impl std::fmt::Display for TraceComparison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} — {} vs {}: makespan {:.0} vs {:.0} ns ({:+.2}%), {} of {} tasks placed differently",
            self.workload,
            self.policy_self,
            self.policy_other,
            self.makespan_self,
            self.makespan_other,
            100.0 * self.makespan_delta_ns() / self.makespan_other.max(1.0),
            self.tasks_moved,
            self.task_deltas.len(),
        )?;
        writeln!(
            f,
            "  critical path: {:.0} ns ({:.0} dep / {:.0} core-busy) vs {:.0} ns ({:.0} dep / {:.0} core-busy)",
            self.critical_path_self.time_ns,
            self.critical_path_self.dependency_time_ns,
            self.critical_path_self.core_busy_time_ns,
            self.critical_path_other.time_ns,
            self.critical_path_other.dependency_time_ns,
            self.critical_path_other.core_busy_time_ns,
        )?;
        writeln!(f, "  tasks where {} loses the most time:", self.policy_self)?;
        for d in self.top_task_losses(8) {
            writeln!(
                f,
                "    task {:>6} {:<18} {:+10.0} ns  ({:.0} vs {:.0}; socket {} vs {}; remote {} vs {} B)",
                d.task.index(),
                d.kind,
                d.delta_ns(),
                d.duration_self,
                d.duration_other,
                d.socket_self,
                d.socket_other,
                d.remote_bytes_self,
                d.remote_bytes_other,
            )?;
        }
        writeln!(f, "  regions whose traffic went farthest:")?;
        for d in self.top_flow_losses(8) {
            writeln!(
                f,
                "    region {:>6} weighted {:+12} (bytes {} vs {})",
                d.region,
                d.weighted_delta(),
                d.bytes_self,
                d.bytes_other,
            )?;
        }
        Ok(())
    }
}

impl Trace {
    /// Compares this trace against `other` — a trace of the *same workload*
    /// (same task graph, same task count) under a different policy — and
    /// ranks where `self` loses time.
    ///
    /// # Errors
    /// Returns an error if the traces are not comparable (different
    /// workloads or task counts).
    pub fn compare(&self, other: &Trace, graph: &TaskGraph) -> Result<TraceComparison, String> {
        if self.workload != other.workload {
            return Err(format!(
                "cannot compare traces of different workloads ({:?} vs {:?})",
                self.workload, other.workload
            ));
        }
        if self.tasks != other.tasks || graph.num_tasks() != self.tasks {
            return Err(format!(
                "task counts disagree (self {}, other {}, graph {})",
                self.tasks,
                other.tasks,
                graph.num_tasks()
            ));
        }

        let intervals_self = self.task_intervals();
        let intervals_other = other.task_intervals();
        let remote_self = per_task_remote_bytes(self);
        let remote_other = per_task_remote_bytes(other);

        let mut task_deltas = Vec::with_capacity(self.tasks);
        let mut tasks_moved = 0usize;
        for t in 0..self.tasks {
            let (Some(a), Some(b)) = (intervals_self[t], intervals_other[t]) else {
                continue;
            };
            if a.socket != b.socket {
                tasks_moved += 1;
            }
            task_deltas.push(TaskDelta {
                task: TaskId(t),
                kind: graph.task(TaskId(t)).kind.to_string(),
                socket_self: a.socket.index(),
                socket_other: b.socket.index(),
                duration_self: a.duration(),
                duration_other: b.duration(),
                remote_bytes_self: remote_self[t],
                remote_bytes_other: remote_other[t],
            });
        }
        task_deltas.sort_by(|a, b| b.delta_ns().total_cmp(&a.delta_ns()));

        let flows_self = per_region_flows(self);
        let flows_other = per_region_flows(other);
        let regions = flows_self.len().max(flows_other.len());
        let mut flow_deltas: Vec<FlowDelta> = (0..regions)
            .map(|r| {
                let a = flows_self.get(r).copied().unwrap_or((0, 0));
                let b = flows_other.get(r).copied().unwrap_or((0, 0));
                FlowDelta {
                    region: r,
                    bytes_self: a.0,
                    bytes_other: b.0,
                    weighted_self: a.1,
                    weighted_other: b.1,
                }
            })
            .filter(|d| d.bytes_self != 0 || d.bytes_other != 0)
            .collect();
        flow_deltas.sort_by_key(|d| std::cmp::Reverse(d.weighted_delta()));

        Ok(TraceComparison {
            policy_self: self.policy.clone(),
            policy_other: other.policy.clone(),
            workload: self.workload.clone(),
            makespan_self: self.makespan_ns,
            makespan_other: other.makespan_ns,
            task_deltas,
            flow_deltas,
            critical_path_self: self.critical_path_from(&intervals_self, graph),
            critical_path_other: other.critical_path_from(&intervals_other, graph),
            tasks_moved,
        })
    }
}

/// Remote bytes each task pulled (traffic events with `from != to`).
fn per_task_remote_bytes(trace: &Trace) -> Vec<u64> {
    let mut remote = vec![0u64; trace.tasks];
    for event in &trace.events {
        if let TraceEvent::Traffic {
            task,
            from,
            to,
            bytes,
            ..
        } = event
        {
            if from != to {
                remote[task.index()] += bytes;
            }
        }
    }
    remote
}

/// Per-region `(total bytes, distance-weighted bytes)` moved in a trace.
fn per_region_flows(trace: &Trace) -> Vec<(u64, u64)> {
    let mut flows: Vec<(u64, u64)> = Vec::new();
    for event in &trace.events {
        if let TraceEvent::Traffic {
            region,
            distance,
            bytes,
            ..
        } = event
        {
            if *region >= flows.len() {
                flows.resize(region + 1, (0, 0));
            }
            flows[*region].0 += bytes;
            flows[*region].1 += bytes * u64::from(*distance);
        }
    }
    flows
}

#[cfg(test)]
mod tests {
    use super::*;
    use numadag_numa::{CoreId, NodeId, SocketId};
    use numadag_tdg::DataAccess;

    /// Two tasks, 0 → 1; variant A runs both on socket 0 (all local),
    /// variant B runs task 1 remotely (slower).
    fn traces() -> (Trace, Trace, TaskGraph) {
        let mut graph = TaskGraph::new();
        let region = graph.region(64);
        graph
            .push_task("produce", 10.0, &[DataAccess::write(region, 64)], &[])
            .unwrap();
        graph
            .push_task(
                "consume",
                10.0,
                &[DataAccess::read(region, 64)],
                &[(TaskId(0), 64)],
            )
            .unwrap();

        let base = |policy: &str, remote: bool| {
            let socket1 = if remote { SocketId(1) } else { SocketId(0) };
            let core1 = if remote { CoreId(1) } else { CoreId(0) };
            let end1 = if remote { 40.0 } else { 20.0 };
            Trace {
                workload: "pair".to_string(),
                policy: policy.to_string(),
                backend: "simulator".to_string(),
                scale: "custom".to_string(),
                repetition: 0,
                tasks: 2,
                num_sockets: 2,
                makespan_ns: end1,
                events: vec![
                    TraceEvent::Assign {
                        task: TaskId(0),
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
                    TraceEvent::Traffic {
                        task: TaskId(0),
                        region: 0,
                        from: NodeId(0),
                        to: NodeId(0),
                        distance: 10,
                        bytes: 64,
                        time: 0.0,
                    },
                    TraceEvent::Finish {
                        task: TaskId(0),
                        socket: SocketId(0),
                        core: CoreId(0),
                        time: 10.0,
                    },
                    TraceEvent::Assign {
                        task: TaskId(1),
                        socket: socket1,
                        time: 10.0,
                    },
                    TraceEvent::Start {
                        task: TaskId(1),
                        socket: socket1,
                        core: core1,
                        time: 10.0,
                        stolen: false,
                    },
                    TraceEvent::Traffic {
                        task: TaskId(1),
                        region: 0,
                        from: NodeId(0),
                        to: socket1.node(),
                        distance: if remote { 21 } else { 10 },
                        bytes: 64,
                        time: 10.0,
                    },
                    TraceEvent::Finish {
                        task: TaskId(1),
                        socket: socket1,
                        core: core1,
                        time: end1,
                    },
                ],
            }
        };
        (base("REMOTE", true), base("LOCAL", false), graph)
    }

    #[test]
    fn comparison_ranks_the_slow_remote_task_first() {
        let (remote, local, graph) = traces();
        let cmp = remote.compare(&local, &graph).unwrap();
        assert_eq!(cmp.policy_self, "REMOTE");
        assert!((cmp.makespan_delta_ns() - 20.0).abs() < 1e-9);
        assert_eq!(cmp.tasks_moved, 1);

        let worst = &cmp.task_deltas[0];
        assert_eq!(worst.task, TaskId(1));
        assert_eq!(worst.kind, "consume");
        assert!((worst.delta_ns() - 20.0).abs() < 1e-9);
        assert_eq!(worst.remote_bytes_self, 64);
        assert_eq!(worst.remote_bytes_other, 0);

        let flow = &cmp.flow_deltas[0];
        assert_eq!(flow.region, 0);
        // Weighted: self = 64*10 + 64*21, other = 64*10 + 64*10.
        assert_eq!(flow.weighted_delta(), 64 * (21 - 10));

        // Both critical paths are the full dependence chain.
        assert!((cmp.critical_path_self.time_ns - 40.0).abs() < 1e-9);
        assert!((cmp.critical_path_other.time_ns - 20.0).abs() < 1e-9);

        let report = cmp.to_string();
        assert!(report.contains("REMOTE"), "{report}");
        assert!(report.contains("consume"), "{report}");
        assert!(report.contains("region"), "{report}");
    }

    #[test]
    fn incomparable_traces_are_rejected() {
        let (remote, local, graph) = traces();
        let mut renamed = local.clone();
        renamed.workload = "different".to_string();
        assert!(remote.compare(&renamed, &graph).is_err());

        let mut truncated = local;
        truncated.tasks = 1;
        assert!(remote.compare(&truncated, &graph).is_err());
    }
}
