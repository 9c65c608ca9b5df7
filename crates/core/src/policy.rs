//! The scheduling-policy abstraction and the runtime-facing data-location
//! interface.

use std::sync::Arc;

use numadag_numa::{MemoryMap, NodeId, RegionId, SocketId, Topology};
use numadag_tdg::{TaskDescriptor, TaskGraph};

/// What a policy is allowed to ask about the machine and the current
/// placement of data. The executors in `numadag-runtime` answer through a
/// [`MemoryLocator`] over their [`MemoryMap`].
pub trait DataLocator {
    /// The machine topology.
    fn topology(&self) -> &Topology;
    /// Size of `region` in bytes.
    fn region_size(&self, region: RegionId) -> u64;
    /// Splits one task access — `access_bytes` bytes of `region` — over the
    /// nodes holding the region: `visit(home, share)` once per holding node
    /// in ascending node order, the share without a home yet as the return
    /// value (see [`MemoryMap::access_shares`]). What socket weighting asks
    /// per access.
    fn access_shares(
        &self,
        region: RegionId,
        access_bytes: u64,
        visit: &mut dyn FnMut(NodeId, u64),
    ) -> u64;
}

/// Cost accounting of a partitioning policy: how many windows it partitioned
/// and how long the partitioner ran, summed over the whole execution.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PartitionStats {
    /// Number of windows handed to the graph partitioner.
    pub windows: usize,
    /// Total wall time spent inside the partitioner, in nanoseconds.
    pub wall_ns: f64,
}

/// A scheduling policy: decides, for every task that becomes ready, which
/// socket it should be pushed to.
///
/// The runtime calls [`SchedulingPolicy::prepare`] once with the TDG it has
/// accumulated (the paper's runtime builds this graph on the fly; in the
/// reproduction the graph of the whole execution is available up front, and
/// the policy itself decides how much of it to look at — RGP only uses the
/// first window), and then [`SchedulingPolicy::assign`] every time a task's
/// dependences are satisfied.
pub trait SchedulingPolicy: Send {
    /// Short name used in reports (`"LAS"`, `"RGP+LAS"`, ...). `'static`
    /// because reports embed it by reference — policies answer with string
    /// literals, never per-run formatted names.
    fn name(&self) -> &'static str;

    /// Called once before execution starts with the task graph. The graph
    /// arrives behind an [`Arc`] so window-propagating policies can retain
    /// it across `assign` calls without cloning the task vectors.
    fn prepare(&mut self, _graph: &Arc<TaskGraph>, _locator: &dyn DataLocator) {}

    /// Called when `task` becomes ready; returns the socket to run it on.
    fn assign(&mut self, task: &TaskDescriptor<'_>, locator: &dyn DataLocator) -> SocketId;

    /// Partitioning cost accounting, if this policy partitions windows.
    /// `None` (the default) means the policy never runs a partitioner.
    fn partition_stats(&self) -> Option<PartitionStats> {
        None
    }
}

/// A [`DataLocator`] backed directly by a [`Topology`] and a [`MemoryMap`].
/// The executors wrap their internal state in this; tests use it directly.
pub struct MemoryLocator<'a> {
    topology: &'a Topology,
    memory: &'a MemoryMap,
}

impl<'a> MemoryLocator<'a> {
    /// Creates a locator over the given topology and memory state.
    pub fn new(topology: &'a Topology, memory: &'a MemoryMap) -> Self {
        MemoryLocator { topology, memory }
    }
}

impl DataLocator for MemoryLocator<'_> {
    fn topology(&self) -> &Topology {
        self.topology
    }

    fn region_size(&self, region: RegionId) -> u64 {
        self.memory.size_of(region)
    }

    fn access_shares(
        &self,
        region: RegionId,
        access_bytes: u64,
        visit: &mut dyn FnMut(NodeId, u64),
    ) -> u64 {
        self.memory.access_shares(region, access_bytes, visit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `(home, share)` of a whole-region access, and the homeless rest.
    fn whole_access(loc: &MemoryLocator<'_>, region: RegionId) -> (Vec<(NodeId, u64)>, u64) {
        let mut homes = Vec::new();
        let size = loc.region_size(region);
        let rest = loc.access_shares(region, size, &mut |node, share| homes.push((node, share)));
        (homes, rest)
    }

    #[test]
    fn memory_locator_reports_placement() {
        let topo = Topology::two_socket(4);
        let mut mem = MemoryMap::new();
        let r = mem.register(4096);
        mem.place(r, NodeId(1));
        let loc = MemoryLocator::new(&topo, &mem);
        assert_eq!(loc.topology().num_sockets(), 2);
        assert_eq!(loc.region_size(r), 4096);
        assert_eq!(whole_access(&loc, r), (vec![(NodeId(1), 4096)], 0));
    }

    #[test]
    fn memory_locator_reports_unallocated() {
        let topo = Topology::uma(2);
        let mut mem = MemoryMap::new();
        let r = mem.register(100);
        let loc = MemoryLocator::new(&topo, &mem);
        assert_eq!(whole_access(&loc, r), (vec![], 100));
    }
}
