//! Distributed FIFO (DFIFO): locality-blind cyclic assignment.
//!
//! "Unaware of data allocation, each task goes to a different CPU in a
//! cyclic order." Because the executors dispatch at socket granularity (the
//! cores of a socket share one queue), cycling over CPUs is equivalent to
//! cycling over sockets at a finer stride; we cycle over *cores* and report
//! the owning socket, so the distribution over sockets matches the paper's
//! description exactly even when the core count is not a multiple of the
//! socket count.

use numadag_numa::{CoreId, SocketId};
use numadag_tdg::TaskDescriptor;

use crate::policy::{DataLocator, SchedulingPolicy};

/// The DFIFO policy.
#[derive(Clone, Debug, Default)]
pub struct DfifoPolicy {
    next_core: usize,
}

impl DfifoPolicy {
    /// Creates a DFIFO policy starting at core 0.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SchedulingPolicy for DfifoPolicy {
    fn name(&self) -> &'static str {
        "DFIFO"
    }

    fn assign(&mut self, _task: &TaskDescriptor<'_>, locator: &dyn DataLocator) -> SocketId {
        let topo = locator.topology();
        let core = self.next_core % topo.num_cores();
        // Left unreduced: the next call's `%` wraps it.
        self.next_core = core + 1;
        topo.socket_of(CoreId(core))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::MemoryLocator;
    use numadag_numa::{MemoryMap, Topology};
    use numadag_tdg::{TaskDescriptor, TaskGraph, TaskId};

    /// Task `id` of a graph of `id + 1` tasks without accesses, leaked so
    /// the view can outlive the call.
    fn dummy_task(id: usize) -> TaskDescriptor<'static> {
        let mut graph = TaskGraph::new();
        for _ in 0..=id {
            graph.push_task("t", 1.0, &[], &[]).unwrap();
        }
        Box::leak(Box::new(graph)).task(TaskId(id))
    }

    #[test]
    fn cycles_over_all_cores_and_sockets() {
        let topo = Topology::bullion_s16();
        let mem = MemoryMap::new();
        let loc = MemoryLocator::new(&topo, &mem);
        let mut p = DfifoPolicy::new();
        assert_eq!(p.name(), "DFIFO");
        let mut socket_counts = vec![0usize; topo.num_sockets()];
        for i in 0..64 {
            let s = p.assign(&dummy_task(i), &loc);
            socket_counts[s.index()] += 1;
        }
        // 64 tasks over 32 cores: every socket gets exactly 8 tasks.
        assert!(socket_counts.iter().all(|&c| c == 8), "{socket_counts:?}");
    }

    #[test]
    fn first_tasks_fill_socket_zero_first() {
        let topo = Topology::bullion_s16();
        let mem = MemoryMap::new();
        let loc = MemoryLocator::new(&topo, &mem);
        let mut p = DfifoPolicy::new();
        // Cores 0..3 belong to socket 0, core 4 to socket 1.
        assert_eq!(p.assign(&dummy_task(0), &loc), SocketId(0));
        assert_eq!(p.assign(&dummy_task(1), &loc), SocketId(0));
        assert_eq!(p.assign(&dummy_task(2), &loc), SocketId(0));
        assert_eq!(p.assign(&dummy_task(3), &loc), SocketId(0));
        assert_eq!(p.assign(&dummy_task(4), &loc), SocketId(1));
    }

    #[test]
    fn single_socket_machine_always_socket_zero() {
        let topo = Topology::uma(4);
        let mem = MemoryMap::new();
        let loc = MemoryLocator::new(&topo, &mem);
        let mut p = DfifoPolicy::new();
        for i in 0..10 {
            assert_eq!(p.assign(&dummy_task(i), &loc), SocketId(0));
        }
    }
}
