//! The trace event model.
//!
//! An executor whose configuration asks for events returns its
//! [`TraceEvent`]s with the execution's report, in emission order. Without
//! the switch it skips event construction entirely (tracing is zero-cost
//! unless requested).

use serde::{Deserialize, Serialize};

use numadag_numa::{CoreId, NodeId, SocketId};
use numadag_tdg::TaskId;

/// One observation of the runtime, timestamped in nanoseconds (simulated
/// time for the simulator, wall-clock time since execution start for the
/// threaded executor).
///
/// A complete execution trace contains exactly one `Assign`, one `Start` and
/// one `Finish` per task, plus any number of `DeferredAlloc` and `Traffic`
/// events.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum TraceEvent {
    /// The scheduling policy decided which socket a ready task goes to.
    Assign {
        /// The task that became ready.
        task: TaskId,
        /// The socket the policy pushed it to.
        socket: SocketId,
        /// When the decision was made (ns).
        time: f64,
    },
    /// A core picked the task up and began executing it.
    Start {
        /// The task.
        task: TaskId,
        /// Socket the task actually runs on (differs from the assigned
        /// socket when `stolen` is true).
        socket: SocketId,
        /// Core the task runs on.
        core: CoreId,
        /// Execution start time (ns).
        time: f64,
        /// True if an idle core of another socket stole the task.
        stolen: bool,
    },
    /// The task completed.
    Finish {
        /// The task.
        task: TaskId,
        /// Socket the task ran on.
        socket: SocketId,
        /// Core the task ran on.
        core: CoreId,
        /// Completion time (ns).
        time: f64,
    },
    /// Deferred allocation: regions first-touched by this task were placed
    /// on the executing node.
    DeferredAlloc {
        /// The task whose execution placed the bytes.
        task: TaskId,
        /// The node the bytes now live on.
        node: NodeId,
        /// Total bytes placed for this task.
        bytes: u64,
        /// When the placement happened (ns).
        time: f64,
    },
    /// Bytes of one region access moved between a home node and the
    /// executing node, at the topology's SLIT distance.
    Traffic {
        /// The task performing the access.
        task: TaskId,
        /// Region index of the access (see
        /// [`numadag_tdg::TaskGraph::region_sizes`]).
        region: usize,
        /// Node holding the bytes.
        from: NodeId,
        /// Node of the executing core.
        to: NodeId,
        /// SLIT distance of the transfer (10 = local).
        distance: u32,
        /// Bytes moved.
        bytes: u64,
        /// When the access happened (ns).
        time: f64,
    },
}

impl TraceEvent {
    /// The task the event concerns.
    pub(crate) fn task(&self) -> TaskId {
        match self {
            TraceEvent::Assign { task, .. }
            | TraceEvent::Start { task, .. }
            | TraceEvent::Finish { task, .. }
            | TraceEvent::DeferredAlloc { task, .. }
            | TraceEvent::Traffic { task, .. } => *task,
        }
    }

    /// Stable lowercase tag used in the JSON serialization.
    pub(crate) fn tag(&self) -> &'static str {
        match self {
            TraceEvent::Assign { .. } => "assign",
            TraceEvent::Start { .. } => "start",
            TraceEvent::Finish { .. } => "finish",
            TraceEvent::DeferredAlloc { .. } => "deferred_alloc",
            TraceEvent::Traffic { .. } => "traffic",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assign(task: usize, time: f64) -> TraceEvent {
        TraceEvent::Assign {
            task: TaskId(task),
            socket: SocketId(0),
            time,
        }
    }

    #[test]
    fn event_accessors_cover_every_variant() {
        let events = [
            assign(3, 1.0),
            TraceEvent::Start {
                task: TaskId(3),
                socket: SocketId(1),
                core: CoreId(4),
                time: 2.0,
                stolen: true,
            },
            TraceEvent::Finish {
                task: TaskId(3),
                socket: SocketId(1),
                core: CoreId(4),
                time: 3.0,
            },
            TraceEvent::DeferredAlloc {
                task: TaskId(3),
                node: NodeId(1),
                bytes: 64,
                time: 2.0,
            },
            TraceEvent::Traffic {
                task: TaskId(3),
                region: 0,
                from: NodeId(0),
                to: NodeId(1),
                distance: 21,
                bytes: 128,
                time: 2.0,
            },
        ];
        let tags: Vec<&str> = events.iter().map(|e| e.tag()).collect();
        assert_eq!(
            tags,
            vec!["assign", "start", "finish", "deferred_alloc", "traffic"]
        );
        for e in &events {
            assert_eq!(e.task(), TaskId(3));
        }
    }
}
