//! Charging a started task's accesses to the virtual NUMA machine — the
//! bookkeeping the simulator and the threaded executor share.

use numadag_numa::{MemoryMap, NodeId, RegionId, Topology, TrafficStats};
use numadag_tdg::{Accesses, TaskId};
use numadag_trace::TraceEvent;

/// Moves every byte `task`, running on `node` at time `now`, accesses
/// between its home node and `node`: for each share of each access that
/// rounds to at least one byte, `moved(bytes, distance)` is called, the bytes
/// are recorded in `traffic` (local or remote, saturating) and, when there
/// are `events`, a `Traffic` event is pushed — access by access, home by
/// home, in declaration order.
///
/// `accesses` are the task's access columns, read off the TDG. Deferred
/// allocation has run, so no share is without a home.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn charge_accesses(
    topology: &Topology,
    memory: &MemoryMap,
    mut events: Option<&mut Vec<TraceEvent>>,
    traffic: &mut TrafficStats,
    task: TaskId,
    accesses: Accesses<'_>,
    node: NodeId,
    now: f64,
    mut moved: impl FnMut(u64, u32),
) {
    for (&region, &access_bytes) in accesses.regions().iter().zip(accesses.bytes()) {
        memory.access_shares(RegionId(region as usize), access_bytes, |home, share| {
            if share == 0 {
                return;
            }
            let distance = topology.distance(node, home);
            moved(share, distance);
            traffic.record_access(node, home, share);
            if let Some(events) = events.as_deref_mut() {
                events.push(TraceEvent::Traffic {
                    task,
                    region: region as usize,
                    from: home,
                    to: node,
                    distance,
                    bytes: share,
                    time: now,
                });
            }
        });
    }
}
