//! Socket weighting from a task's data dependences — the core computation of
//! locality-aware scheduling.
//!
//! "At the time of scheduling a task, the runtime explores its dependencies
//! and weights the sockets using the size of the allocated input and output
//! data. Then, the task is scheduled to the socket with the highest weight."

use numadag_numa::SocketId;
use numadag_tdg::TaskDescriptor;

use crate::policy::DataLocator;

/// Per-socket byte weights for a task, plus the number of bytes whose home is
/// still undecided (deferred allocations).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct SocketWeights {
    /// `weights[s]` = bytes of the task's dependences allocated on socket `s`.
    pub(crate) weights: Vec<u64>,
    /// Bytes of the task's dependences not yet allocated anywhere.
    pub(crate) unallocated: u64,
}

impl SocketWeights {
    /// Total allocated bytes across all sockets.
    pub(crate) fn total_allocated(&self) -> u64 {
        self.weights.iter().fold(0, |sum, &w| sum.saturating_add(w))
    }

    /// Writes the sockets with the maximum weight (more than one on ties,
    /// ascending) into a caller-owned buffer. Empty if nothing is allocated.
    pub(crate) fn heaviest_into(&self, out: &mut Vec<SocketId>) {
        out.clear();
        let max = self.weights.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return;
        }
        out.extend(
            self.weights
                .iter()
                .enumerate()
                .filter(|(_, &w)| w == max)
                .map(|(s, _)| SocketId(s)),
        );
    }
}

/// Computes the socket weights of `task` given the current data placement
/// into a caller-owned buffer. Every access (input and output alike)
/// contributes its bytes to the sockets currently holding the region;
/// unallocated bytes are tallied separately. The executors call this once
/// per scheduled task, so the reuse keeps the assignment hot path free of
/// allocations.
pub(crate) fn socket_weights_into(
    task: &TaskDescriptor<'_>,
    locator: &dyn DataLocator,
    out: &mut SocketWeights,
) {
    let num_sockets = locator.topology().num_sockets();
    out.weights.clear();
    out.weights.resize(num_sockets, 0);
    out.unallocated = 0;
    // Saturating: a task may declare more bytes than a `u64` can sum.
    for access in task.accesses.iter() {
        let weights = &mut out.weights;
        let unallocated = locator.access_shares(access.region, access.bytes, &mut |node, share| {
            if let Some(weight) = weights.get_mut(node.socket().index()) {
                *weight = weight.saturating_add(share);
            }
        });
        out.unallocated = out.unallocated.saturating_add(unallocated);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::MemoryLocator;
    use numadag_numa::{MemoryMap, NodeId, RegionId, Topology};
    use numadag_tdg::{DataAccess, TaskDescriptor, TaskGraph, TaskId};

    fn socket_weights(task: &TaskDescriptor<'_>, locator: &dyn DataLocator) -> SocketWeights {
        let mut out = SocketWeights::default();
        socket_weights_into(task, locator, &mut out);
        out
    }

    fn heaviest(weights: &SocketWeights) -> Vec<SocketId> {
        let mut out = Vec::new();
        weights.heaviest_into(&mut out);
        out
    }

    /// The one task of a graph, leaked so the view can outlive the call.
    /// The graph's regions fit any access; the memory map under test has
    /// the sizes that matter.
    fn task_with(accesses: Vec<DataAccess>) -> TaskDescriptor<'static> {
        let mut graph = TaskGraph::new();
        for _ in 0..=accesses.iter().map(|a| a.region.index()).max().unwrap_or(0) {
            graph.region(u64::MAX);
        }
        graph.push_task("t", 1.0, &accesses, &[]).unwrap();
        Box::leak(Box::new(graph)).task(TaskId(0))
    }

    #[test]
    fn weights_follow_allocation() {
        let topo = Topology::four_socket(2);
        let mut mem = MemoryMap::new();
        let a = mem.register(1000);
        let b = mem.register(3000);
        mem.place(a, NodeId(0));
        mem.place(b, NodeId(2));
        let loc = MemoryLocator::new(&topo, &mem);
        let t = task_with(vec![DataAccess::read(a, 1000), DataAccess::read(b, 3000)]);
        let w = socket_weights(&t, &loc);
        assert_eq!(w.weights, vec![1000, 0, 3000, 0]);
        assert_eq!(w.unallocated, 0);
        assert_eq!(heaviest(&w), vec![SocketId(2)]);
    }

    #[test]
    fn unallocated_output_counts_separately() {
        let topo = Topology::two_socket(2);
        let mut mem = MemoryMap::new();
        let input = mem.register(500);
        let output = mem.register(500);
        mem.place(input, NodeId(1));
        let loc = MemoryLocator::new(&topo, &mem);
        let t = task_with(vec![
            DataAccess::read(input, 500),
            DataAccess::write(output, 500),
        ]);
        let w = socket_weights(&t, &loc);
        assert_eq!(w.weights, vec![0, 500]);
        assert_eq!(w.unallocated, 500);
        assert_eq!(w.total_allocated(), 500);
    }

    #[test]
    fn a_task_without_homed_data_has_no_heaviest_socket() {
        let topo = Topology::two_socket(2);
        let mut mem = MemoryMap::new();
        let a = mem.register(100);
        let loc = MemoryLocator::new(&topo, &mem);
        let t = task_with(vec![DataAccess::write(a, 100)]);
        let w = socket_weights(&t, &loc);
        assert_eq!(w.total_allocated(), 0);
        assert!(heaviest(&w).is_empty());
        assert_eq!(w.unallocated, 100);
    }

    #[test]
    fn ties_report_all_heaviest_sockets() {
        let topo = Topology::four_socket(1);
        let mut mem = MemoryMap::new();
        let a = mem.register(100);
        let b = mem.register(100);
        mem.place(a, NodeId(1));
        mem.place(b, NodeId(3));
        let loc = MemoryLocator::new(&topo, &mem);
        let t = task_with(vec![DataAccess::read(a, 100), DataAccess::read(b, 100)]);
        let w = socket_weights(&t, &loc);
        assert_eq!(heaviest(&w), vec![SocketId(1), SocketId(3)]);
    }

    #[test]
    fn split_region_splits_weight() {
        /// A locator whose every region is 400 bytes, half on each node: a
        /// distribution `MemoryMap` never produces but the trait allows.
        struct HalfAndHalf(Topology);
        impl DataLocator for HalfAndHalf {
            fn topology(&self) -> &Topology {
                &self.0
            }
            fn region_size(&self, _region: RegionId) -> u64 {
                400
            }
            fn access_shares(
                &self,
                _region: RegionId,
                access_bytes: u64,
                visit: &mut dyn FnMut(NodeId, u64),
            ) -> u64 {
                visit(NodeId(0), access_bytes / 2);
                visit(NodeId(1), access_bytes - access_bytes / 2);
                0
            }
        }
        let loc = HalfAndHalf(Topology::two_socket(2));
        let t = task_with(vec![DataAccess::read(RegionId(0), 400)]);
        let w = socket_weights(&t, &loc);
        assert_eq!(w.weights, vec![200, 200]);
        assert_eq!(heaviest(&w).len(), 2);
    }

    #[test]
    fn partial_access_scales_contribution() {
        let topo = Topology::two_socket(2);
        let mut mem = MemoryMap::new();
        let a = mem.register(1000);
        mem.place(a, NodeId(0));
        let loc = MemoryLocator::new(&topo, &mem);
        // The task only touches half of the region.
        let t = task_with(vec![DataAccess::read(a, 500)]);
        let w = socket_weights(&t, &loc);
        assert_eq!(w.weights, vec![500, 0]);
    }
}
