//! Deferred allocation: regions written by a task that have no home NUMA
//! node yet are first-touched on the socket the task executes on.
//!
//! This is one half of the LAS mechanism (Drebes et al.) and the vehicle by
//! which the RGP window partition propagates to the rest of the execution:
//! once window tasks have written "their" blocks on "their" sockets, LAS will
//! keep sending consumers of those blocks to the same sockets.

use numadag_numa::{MemoryMap, NodeId, RegionId};

/// Applies deferred allocation for a task executing on `node`: every region
/// the task writes (or reads) that is still unallocated is placed on `node`.
/// `regions` are the region indices of the task's accesses (the region
/// column of [`numadag_tdg::Accesses`]). Returns the number of
/// bytes placed.
pub(crate) fn apply_deferred_allocation(
    memory: &mut MemoryMap,
    regions: &[u32],
    node: NodeId,
) -> u64 {
    let mut placed = 0u64;
    for &region in regions {
        let region = RegionId(region as usize);
        if !memory.is_allocated(region) {
            memory.place(region, node);
            placed = placed.saturating_add(memory.size_of(region));
        }
    }
    placed
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The region column of a task accessing `regions`.
    fn column(regions: &[RegionId]) -> Vec<u32> {
        regions.iter().map(|r| r.index() as u32).collect()
    }

    #[test]
    fn unallocated_written_regions_are_placed_locally() {
        let mut mem = MemoryMap::new();
        let out = mem.register(4096);
        let t = column(&[out]);
        let placed = apply_deferred_allocation(&mut mem, &t, NodeId(3));
        assert_eq!(placed, 4096);
        assert_eq!(mem.placement(out).single_node(), Some(NodeId(3)));
    }

    #[test]
    fn already_allocated_regions_are_untouched() {
        let mut mem = MemoryMap::new();
        let r = mem.register(100);
        mem.place(r, NodeId(1));
        let t = column(&[r]);
        let placed = apply_deferred_allocation(&mut mem, &t, NodeId(5));
        assert_eq!(placed, 0);
        assert_eq!(mem.placement(r).single_node(), Some(NodeId(1)));
    }

    #[test]
    fn unallocated_inputs_are_also_first_touched() {
        // Reading a region nobody wrote yet (cold data) faults it in locally,
        // exactly like the OS first-touch policy would.
        let mut mem = MemoryMap::new();
        let r = mem.register(64);
        let t = column(&[r]);
        let placed = apply_deferred_allocation(&mut mem, &t, NodeId(2));
        assert_eq!(placed, 64);
        assert_eq!(mem.placement(r).single_node(), Some(NodeId(2)));
    }

    #[test]
    fn multiple_regions_accumulate() {
        let mut mem = MemoryMap::new();
        let a = mem.register(10);
        let b = mem.register(20);
        let c = mem.register(40);
        mem.place(b, NodeId(0));
        let t = column(&[a, b, c]);
        let placed = apply_deferred_allocation(&mut mem, &t, NodeId(1));
        assert_eq!(placed, 50);
    }
}
