//! Test support: the spec fingerprint as it was before it became a word-at-a-
//! time hash over the graph's columns — FNV-1a, a byte at a time, over the
//! name, every task's kind / work / accesses, the successor edges with their
//! bytes, the region sizes and the expert placement. The content pins of the
//! built workloads (`crates/kernels/tests/spec_pins.rs`, the golden table
//! in `crates/kernels/src/cache.rs`, the `fp` of `tests/tdg_pins.rs`'
//! spec lines) were captured with it and hold their constants through it,
//! whatever the library's hash. Its users include it by `#[path]`, with
//! `TaskGraphSpec` in scope.

use super::TaskGraphSpec;

/// FNV-1a, 64-bit.
struct Fnv1a(u64);

impl Fnv1a {
    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    /// A length-prefixed string.
    fn str(&mut self, value: &str) {
        self.u64(value.len() as u64);
        self.bytes(value.as_bytes());
    }
}

/// The byte-wise content fold of `spec`.
pub(crate) fn reference_fingerprint(spec: &TaskGraphSpec) -> u64 {
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    h.str(&spec.name);
    let graph = &spec.graph;
    h.u64(graph.num_tasks() as u64);
    h.u64(graph.num_edges() as u64);
    for task in graph.tasks() {
        h.str(task.kind);
        h.u64(task.work_units.to_bits());
        h.u64(task.accesses.len() as u64);
        for access in task.accesses.iter() {
            h.u64(access.region.index() as u64);
            h.u64(access.mode.code());
            h.u64(access.bytes);
        }
    }
    let flat = graph.flat();
    for id in graph.task_ids() {
        for (&succ, &bytes) in flat.successors(id).iter().zip(flat.successor_bytes(id)) {
            h.u64(u64::from(succ));
            h.u64(bytes);
        }
    }
    for &size in graph.region_sizes() {
        h.u64(size);
    }
    match spec.ep_placement() {
        None => h.u64(u64::MAX),
        Some(placement) => {
            h.u64(placement.len() as u64);
            for &socket in placement {
                h.u64(socket as u64);
            }
        }
    }
    h.0
}
