//! Locality-aware scheduling (LAS) — the baseline of the paper, following
//! Drebes et al. (PACT'16).
//!
//! Two mechanisms:
//!
//! * **Deferred allocation** — the memory backing a task's output data is not
//!   placed until the task itself is scheduled; the executor then first-
//!   touches it on the socket that runs the task. (The allocation mechanics
//!   live in the executors; the policy only relies on unallocated regions
//!   showing up as such in the [`DataLocator`].)
//! * **Enhanced work pushing** — when a task becomes ready, the sockets are
//!   weighted by the bytes of the task's already-allocated input and output
//!   dependences, and the task is pushed to the heaviest socket. If most of
//!   the data is unallocated the socket is chosen uniformly at random, and
//!   ties are also broken randomly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use numadag_numa::SocketId;
use numadag_tdg::TaskDescriptor;

use crate::policy::{DataLocator, SchedulingPolicy};
use crate::weights::{socket_weights_into, SocketWeights};

/// Fraction of a task's dependence bytes that must already be allocated for
/// the weighted decision to be used; below this the placement is considered
/// "mostly unallocated" and a random socket is chosen, as in the paper.
const ALLOCATED_FRACTION_THRESHOLD: f64 = 0.5;

/// The LAS policy.
#[derive(Clone, Debug)]
pub struct LasPolicy {
    rng: StdRng,
    // Per-assignment scratch, reused across calls so the hot path does not
    // allocate: socket weights and the tied-heaviest-sockets list.
    weights: SocketWeights,
    heaviest: Vec<SocketId>,
}

impl LasPolicy {
    /// Creates a LAS policy with the given random seed (used for the random
    /// placement of tasks whose data has no home yet and for tie-breaking).
    pub fn new(seed: u64) -> Self {
        LasPolicy {
            rng: StdRng::seed_from_u64(seed),
            weights: SocketWeights::default(),
            heaviest: Vec::new(),
        }
    }

    /// [`SchedulingPolicy::assign`] with an optional affinity bias (the
    /// socket a window partition chose for the task).
    ///
    /// The bias replaces the two *information-free* decisions: when the
    /// task's data is mostly unallocated the bias socket is used instead of
    /// a uniformly random one, and when several sockets tie for the most
    /// resident bytes the bias wins the tie if it is among them. A clear
    /// data signal still overrides the bias — observed placements beat the
    /// partitioner's plan. With `bias` `None` the behaviour (including the
    /// RNG stream) is exactly [`SchedulingPolicy::assign`]'s.
    pub(crate) fn assign_biased(
        &mut self,
        task: &TaskDescriptor<'_>,
        locator: &dyn DataLocator,
        bias: Option<SocketId>,
    ) -> SocketId {
        let num_sockets = locator.topology().num_sockets();
        socket_weights_into(task, locator, &mut self.weights);
        let allocated = self.weights.total_allocated();
        let total = allocated.saturating_add(self.weights.unallocated);
        let allocated_fraction = if total == 0 {
            0.0
        } else {
            allocated as f64 / total as f64
        };
        if allocated == 0 || allocated_fraction < ALLOCATED_FRACTION_THRESHOLD {
            // "If most of the data is unallocated, the final socket is
            // randomly chosen among all sockets available to the runtime."
            if let Some(b) = bias {
                return b;
            }
            return SocketId(self.rng.gen_range(0..num_sockets));
        }
        self.weights.heaviest_into(&mut self.heaviest);
        if self.heaviest.len() == 1 {
            self.heaviest[0]
        } else if let Some(b) = bias.filter(|b| self.heaviest.contains(b)) {
            b
        } else {
            // "In case of a tie, the socket is chosen randomly among the
            // tied ones."
            let pick = self.rng.gen_range(0..self.heaviest.len());
            self.heaviest[pick]
        }
    }
}

impl Default for LasPolicy {
    fn default() -> Self {
        LasPolicy::new(0xA11C)
    }
}

impl SchedulingPolicy for LasPolicy {
    fn name(&self) -> &'static str {
        "LAS"
    }

    fn assign(&mut self, task: &TaskDescriptor<'_>, locator: &dyn DataLocator) -> SocketId {
        self.assign_biased(task, locator, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::MemoryLocator;
    use numadag_numa::{MemoryMap, NodeId, Topology};
    use numadag_tdg::{DataAccess, TaskDescriptor, TaskGraph, TaskId};

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
    fn follows_the_data() {
        let topo = Topology::bullion_s16();
        let mut mem = MemoryMap::new();
        let a = mem.register(1000);
        let b = mem.register(100);
        mem.place(a, NodeId(5));
        mem.place(b, NodeId(2));
        let loc = MemoryLocator::new(&topo, &mem);
        let mut p = LasPolicy::new(1);
        let t = task_with(vec![DataAccess::read(a, 1000), DataAccess::read(b, 100)]);
        // Socket 5 holds 10x more data: always chosen.
        for _ in 0..10 {
            assert_eq!(p.assign(&t, &loc), SocketId(5));
        }
    }

    #[test]
    fn random_when_nothing_is_allocated() {
        let topo = Topology::bullion_s16();
        let mut mem = MemoryMap::new();
        let out = mem.register(4096);
        let _ = out;
        let loc = MemoryLocator::new(&topo, &mem);
        let mut p = LasPolicy::new(7);
        let t = task_with(vec![DataAccess::write(out, 4096)]);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            seen.insert(p.assign(&t, &loc).index());
        }
        // With 64 draws over 8 sockets we expect to see several different ones.
        assert!(
            seen.len() >= 4,
            "random placement looks degenerate: {seen:?}"
        );
    }

    #[test]
    fn mostly_unallocated_uses_random_placement() {
        let topo = Topology::four_socket(2);
        let mut mem = MemoryMap::new();
        let small_in = mem.register(10);
        let big_out = mem.register(10_000);
        mem.place(small_in, NodeId(3));
        let loc = MemoryLocator::new(&topo, &mem);
        let mut p = LasPolicy::new(3);
        let t = task_with(vec![
            DataAccess::read(small_in, 10),
            DataAccess::write(big_out, 10_000),
        ]);
        // Only 0.1% of the bytes are allocated — below the threshold, so the
        // decision must be the random branch (which may of course still land
        // on socket 3 occasionally).
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..32 {
            distinct.insert(p.assign(&t, &loc).index());
        }
        assert!(distinct.len() > 1);
    }

    #[test]
    fn ties_are_broken_among_tied_sockets_only() {
        let topo = Topology::four_socket(2);
        let mut mem = MemoryMap::new();
        let a = mem.register(100);
        let b = mem.register(100);
        mem.place(a, NodeId(1));
        mem.place(b, NodeId(2));
        let loc = MemoryLocator::new(&topo, &mem);
        let mut p = LasPolicy::new(11);
        let t = task_with(vec![DataAccess::read(a, 100), DataAccess::read(b, 100)]);
        for _ in 0..32 {
            let s = p.assign(&t, &loc);
            assert!(
                s == SocketId(1) || s == SocketId(2),
                "chose untied socket {s}"
            );
        }
    }

    #[test]
    fn bias_replaces_random_and_breaks_ties_but_not_data() {
        let topo = Topology::four_socket(2);
        let mut mem = MemoryMap::new();
        let out = mem.register(4096);
        let loc = MemoryLocator::new(&topo, &mem);
        let mut p = LasPolicy::new(9);
        // Nothing allocated: the bias decides instead of the random draw.
        let t = task_with(vec![DataAccess::write(out, 4096)]);
        for _ in 0..8 {
            assert_eq!(p.assign_biased(&t, &loc, Some(SocketId(2))), SocketId(2));
        }
        // Tied sockets: the bias wins the tie when it is among them...
        let a = mem.register(100);
        let b = mem.register(100);
        mem.place(a, NodeId(1));
        mem.place(b, NodeId(3));
        let loc = MemoryLocator::new(&topo, &mem);
        let tie = task_with(vec![DataAccess::read(a, 100), DataAccess::read(b, 100)]);
        for _ in 0..8 {
            assert_eq!(p.assign_biased(&tie, &loc, Some(SocketId(3))), SocketId(3));
        }
        // ...but a bias outside the tie falls back to the random tie-break.
        for _ in 0..8 {
            let s = p.assign_biased(&tie, &loc, Some(SocketId(0)));
            assert!(s == SocketId(1) || s == SocketId(3), "chose {s}");
        }
        // A clear data signal overrides the bias entirely.
        let heavy = task_with(vec![DataAccess::read(a, 100)]);
        assert_eq!(
            p.assign_biased(&heavy, &loc, Some(SocketId(0))),
            SocketId(1)
        );
    }

    #[test]
    fn no_bias_is_bit_identical_to_assign() {
        let topo = Topology::bullion_s16();
        let mut mem = MemoryMap::new();
        let out = mem.register(64);
        let loc = MemoryLocator::new(&topo, &mem);
        let t = task_with(vec![DataAccess::write(out, 64)]);
        let mut plain = LasPolicy::new(5);
        let mut biased = LasPolicy::new(5);
        for _ in 0..32 {
            assert_eq!(plain.assign(&t, &loc), biased.assign_biased(&t, &loc, None));
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let topo = Topology::bullion_s16();
        let mut mem = MemoryMap::new();
        let out = mem.register(64);
        let _ = out;
        let loc = MemoryLocator::new(&topo, &mem);
        let t = task_with(vec![DataAccess::write(out, 64)]);
        let run = |seed| {
            let mut p = LasPolicy::new(seed);
            (0..16)
                .map(|_| p.assign(&t, &loc).index())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
    }
}
