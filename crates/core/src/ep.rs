//! Expert programmer (EP): the placement hard-coded in the benchmark source.
//!
//! Each kernel in `numadag-kernels` knows its natural owner-computes
//! distribution (e.g. "block row `i` of the matrix belongs to socket
//! `i mod S`") and records it in the [`numadag_tdg::TaskGraphSpec`]. The EP
//! policy simply replays that placement.

use numadag_numa::SocketId;
use numadag_tdg::{TaskDescriptor, TaskGraphSpec};

use crate::policy::{DataLocator, SchedulingPolicy};

/// The EP policy: a fixed task → socket map.
#[derive(Clone, Debug)]
pub(crate) struct EpPolicy {
    placement: Vec<usize>,
}

impl EpPolicy {
    /// Builds the policy from an explicit per-task socket index vector.
    pub(crate) fn new(placement: Vec<usize>) -> Self {
        EpPolicy { placement }
    }

    /// Builds the policy from a workload spec.
    ///
    /// Returns `None` if the spec has no expert placement (the harness then
    /// skips the EP bar for that application, as a real study would).
    pub(crate) fn from_spec(spec: &TaskGraphSpec) -> Option<Self> {
        spec.ep_placement()
            .map(|placement| EpPolicy::new(placement.to_vec()))
    }
}

impl SchedulingPolicy for EpPolicy {
    fn name(&self) -> &'static str {
        "EP"
    }

    fn assign(&mut self, task: &TaskDescriptor<'_>, locator: &dyn DataLocator) -> SocketId {
        let num_sockets = locator.topology().num_sockets();
        let raw = self
            .placement
            .get(task.id.index())
            .copied()
            .unwrap_or(task.id.index());
        SocketId(raw % num_sockets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::MemoryLocator;
    use numadag_numa::{MemoryMap, Topology};
    use numadag_tdg::{TaskDescriptor, TaskGraph, TaskId, TaskSpec, TdgBuilder};

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
    fn replays_recorded_placement() {
        let topo = Topology::four_socket(2);
        let mem = MemoryMap::new();
        let loc = MemoryLocator::new(&topo, &mem);
        let mut p = EpPolicy::new(vec![3, 1, 0, 2]);
        assert_eq!(p.assign(&dummy_task(0), &loc), SocketId(3));
        assert_eq!(p.assign(&dummy_task(1), &loc), SocketId(1));
        assert_eq!(p.assign(&dummy_task(3), &loc), SocketId(2));
        assert_eq!(p.name(), "EP");
    }

    #[test]
    fn placement_wraps_around_socket_count() {
        let topo = Topology::two_socket(2);
        let mem = MemoryMap::new();
        let loc = MemoryLocator::new(&topo, &mem);
        // Placement written for an 8-socket machine but run on 2 sockets.
        let mut p = EpPolicy::new(vec![7, 6]);
        assert_eq!(p.assign(&dummy_task(0), &loc), SocketId(1));
        assert_eq!(p.assign(&dummy_task(1), &loc), SocketId(0));
    }

    #[test]
    fn missing_entry_falls_back_to_task_id() {
        let topo = Topology::four_socket(2);
        let mem = MemoryMap::new();
        let loc = MemoryLocator::new(&topo, &mem);
        let mut p = EpPolicy::new(vec![0]);
        assert_eq!(p.assign(&dummy_task(5), &loc), SocketId(1));
    }

    #[test]
    fn from_spec_uses_recorded_placement() {
        let mut b = TdgBuilder::new();
        let r = b.region(8);
        b.submit(TaskSpec::new("a").writes(r, 8));
        b.submit(TaskSpec::new("b").reads(r, 8));
        let spec = numadag_tdg::TaskGraphSpec::new("toy", b.finish());
        assert!(EpPolicy::from_spec(&spec).is_none());
        let spec = spec.with_ep_placement(vec![1, 1]).unwrap();
        assert_eq!(EpPolicy::from_spec(&spec).unwrap().placement, [1, 1]);
    }
}
