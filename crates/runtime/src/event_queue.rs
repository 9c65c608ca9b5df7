//! Min-heap of simulator events, each ordered by one inline `u128` key.
//!
//! The simulator has at most one in-flight completion event per core, so
//! `reset` reserves `num_cores` entries and a sweep allocates nothing after
//! its first cell. An entry packs its event's `(time, seq)` into one key,
//! `ordered(time) << 64 | seq`, where `ordered` is the bit transform
//! `f64::total_cmp` compares through: key order is exactly
//! `(time.total_cmp, seq)` order, for −0.0, subnormals, ±∞ and NaN too, and
//! a heap compare is one integer compare. The key is reversible, so an entry
//! is the key, the task and the core.
//!
//! `(time, seq)` is a total order — `seq` is unique per event — so any
//! correct min-heap pops events in the same order as a `BinaryHeap<Event>`:
//! the simulation does not depend on heap internals (the
//! `event_queue_equivalence` proptest pins this down).

use std::cmp::Ordering;

use numadag_numa::CoreId;
use numadag_tdg::TaskId;

/// A task-completion event in the simulation clock.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Simulated completion time (ns).
    pub time: f64,
    /// Tie-breaker: monotonically increasing push sequence number. Unique,
    /// which makes `(time, seq)` a total order.
    pub seq: u64,
    /// The completing task.
    pub task: TaskId,
    /// The core it ran on; a core has at most one event in flight.
    pub core: CoreId,
}

/// `total_cmp`'s transform: flips the magnitude bits of a negative `f64` so
/// its bits compare as an `i64`. Its own inverse.
#[inline]
fn flip(b: i64) -> i64 {
    b ^ (((b >> 63) as u64) >> 1) as i64
}

/// A heap entry: the event with `(time, seq)` packed into one key, the time
/// flipped and its sign bit toggled so the whole key compares as a `u128`.
#[derive(Clone, Copy, Debug)]
struct Entry {
    key: u128,
    task: TaskId,
    core: CoreId,
}

impl Entry {
    #[inline]
    fn new(event: Event) -> Self {
        let time = flip(event.time.to_bits() as i64) as u64 ^ 1 << 63;
        Entry {
            key: (time as u128) << 64 | event.seq as u128,
            task: event.task,
            core: event.core,
        }
    }

    #[inline]
    fn event(self) -> Event {
        let time = flip(((self.key >> 64) as u64 ^ 1 << 63) as i64);
        Event {
            time: f64::from_bits(time as u64),
            seq: self.key as u64,
            task: self.task,
            core: self.core,
        }
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering so a `BinaryHeap<Event>` is a min-heap on
        // (time, seq) — kept for the equivalence tests against the reference
        // implementation.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Min-heap of events on `(time, seq)`; `reset` keeps its allocation.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: Vec<Entry>,
}

impl EventQueue {
    /// An empty queue; call [`EventQueue::reset`] before use.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Clears the queue and makes room for one event per core.
    pub fn reset(&mut self, num_cores: usize) {
        self.heap.clear();
        self.heap.reserve(num_cores);
    }

    /// True if no event is in flight.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Inserts a completion event. The event's core must not already have an
    /// event in flight (guaranteed by the simulator: a core runs one task at
    /// a time).
    pub fn push(&mut self, event: Event) {
        debug_assert!(
            self.heap.iter().all(|e| e.core != event.core),
            "core {} already has an event in flight",
            event.core.index()
        );
        let entry = Entry::new(event);
        self.heap.push(entry);
        self.sift_up(self.heap.len() - 1, entry);
    }

    /// Removes and returns the event with the smallest `(time, seq)`.
    ///
    /// Bottom-up: the root's hole walks to a leaf along the smaller children
    /// (one compare a level), then the former last entry sifts up from there.
    pub fn pop(&mut self) -> Option<Event> {
        let last = self.heap.pop()?;
        let Some(&top) = self.heap.first() else {
            return Some(last.event());
        };
        let (n, mut hole, mut child) = (self.heap.len(), 0, 1);
        while child + 1 < n {
            child += (self.heap[child + 1].key < self.heap[child].key) as usize;
            self.heap[hole] = self.heap[child];
            (hole, child) = (child, 2 * child + 1);
        }
        if child < n {
            self.heap[hole] = self.heap[child];
            hole = child;
        }
        self.sift_up(hole, last);
        Some(top.event())
    }

    /// Moves the hole at `hole` up until `entry` fits, and fills it.
    #[inline]
    fn sift_up(&mut self, mut hole: usize, entry: Entry) {
        while hole > 0 {
            let parent = (hole - 1) / 2;
            if self.heap[parent].key <= entry.key {
                break;
            }
            self.heap[hole] = self.heap[parent];
            hole = parent;
        }
        self.heap[hole] = entry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    fn ev(time: f64, seq: u64, core: usize) -> Event {
        Event {
            time,
            seq,
            task: TaskId(seq as usize),
            core: CoreId(core),
        }
    }

    /// Every class of `f64` a bit-pattern key could misplace, ascending in
    /// `total_cmp` order: NaNs of both signs and payloads, ±∞, ±MAX, normal,
    /// subnormal and zero values of both signs.
    const EDGE_TIMES: [f64; 21] = [
        f64::from_bits(u64::MAX),
        -f64::NAN,
        f64::from_bits(0xFFF0_0000_0000_0001),
        f64::NEG_INFINITY,
        f64::MIN,
        -1e300,
        -1.0,
        -f64::MIN_POSITIVE,
        -5e-324,
        -0.0,
        0.0,
        5e-324,
        f64::MIN_POSITIVE,
        1e-300,
        1.0,
        1e300,
        f64::MAX,
        f64::INFINITY,
        f64::from_bits(0x7FF0_0000_0000_0001),
        f64::NAN,
        f64::from_bits(u64::MAX >> 1),
    ];
    const EDGE_SEQS: [u64; 5] = [0, 1, 1 << 63, u64::MAX - 1, u64::MAX];

    #[test]
    fn key_order_is_total_cmp_then_seq() {
        let events: Vec<Event> = EDGE_TIMES
            .iter()
            .flat_map(|&t| EDGE_SEQS.iter().map(move |&s| ev(t, s, 0)))
            .collect();
        for a in &events {
            let back = Entry::new(*a).event();
            assert_eq!(
                (back.time.to_bits(), back.seq),
                (a.time.to_bits(), a.seq),
                "round trip of {a:?}"
            );
            for b in &events {
                let want = a.time.total_cmp(&b.time).then(a.seq.cmp(&b.seq));
                assert_eq!(
                    Entry::new(*a).key.cmp(&Entry::new(*b).key),
                    want,
                    "{a:?} vs {b:?}"
                );
            }
        }
        // The table itself is ascending, so the test covers every neighbour.
        assert!(EDGE_TIMES
            .windows(2)
            .all(|w| w[0].total_cmp(&w[1]) == Ordering::Less));
    }

    #[test]
    fn event_equality_follows_the_order() {
        for a in EDGE_TIMES {
            for b in EDGE_TIMES {
                for (x, y) in [(ev(a, 7, 0), ev(b, 7, 1)), (ev(a, 7, 0), ev(b, 8, 0))] {
                    assert_eq!(x == y, x.cmp(&y) == Ordering::Equal, "{x:?} vs {y:?}");
                }
            }
        }
        let nan = ev(f64::NAN, 3, 0);
        assert_eq!(nan, nan);
        assert_ne!(ev(-0.0, 3, 0), ev(0.0, 3, 0));
    }

    #[test]
    fn reset_reserves_for_the_larger_core_count() {
        let mut q = EventQueue::new();
        q.reset(20);
        q.reset(32);
        let capacity = q.heap.capacity();
        assert!(capacity >= 32, "capacity {capacity}");
        for core in 0..32 {
            q.push(ev(core as f64, core as u64, core));
        }
        assert_eq!(q.heap.capacity(), capacity, "a push reallocated");
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        q.reset(4);
        q.push(ev(5.0, 1, 0));
        q.push(ev(3.0, 2, 1));
        q.push(ev(3.0, 3, 2));
        q.push(ev(1.0, 4, 3));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![4, 2, 3, 1]);
        assert!(q.is_empty());
    }

    #[test]
    fn slot_reuse_after_pop() {
        let mut q = EventQueue::new();
        q.reset(2);
        q.push(ev(1.0, 1, 0));
        q.push(ev(2.0, 2, 1));
        assert_eq!(q.pop().unwrap().seq, 1);
        // Core 0 finished; it can carry a new event.
        q.push(ev(1.5, 3, 0));
        assert_eq!(q.pop().unwrap().seq, 3);
        assert_eq!(q.pop().unwrap().seq, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn reset_clears_previous_contents() {
        let mut q = EventQueue::new();
        q.reset(2);
        q.push(ev(1.0, 1, 0));
        q.reset(2);
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn matches_binary_heap_on_interleaved_ops() {
        // Deterministic pseudo-random interleaving of pushes and pops with
        // heavy timestamp ties, mirroring the simulator's access pattern
        // (push after pop frees the same core slot).
        let mut q = EventQueue::new();
        let cores = 8;
        q.reset(cores);
        let mut reference: BinaryHeap<Event> = BinaryHeap::new();
        let mut free: Vec<usize> = (0..cores).rev().collect();
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut seq = 0u64;
        for _ in 0..2000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let do_push = !free.is_empty() && (reference.is_empty() || !state.is_multiple_of(3));
            if do_push {
                let core = free.pop().unwrap();
                seq += 1;
                // Coarse times force (time, seq) ties to matter.
                let e = ev(((state >> 32) % 4) as f64, seq, core);
                q.push(e);
                reference.push(e);
            } else {
                let got = q.pop().unwrap();
                let want = reference.pop().unwrap();
                assert_eq!(got, want, "divergence at seq {}", want.seq);
                free.push(got.core.index());
            }
        }
        while let Some(want) = reference.pop() {
            assert_eq!(q.pop().unwrap(), want);
        }
        assert!(q.is_empty());
    }
}
