//! Content-addressed LRU caches of finished work, at two granularities,
//! both instances of one O(1) [`Lru`].
//!
//! [`ReportCache`] keys whole sweeps on the canonical request fingerprints
//! ([`crate::protocol::sweep_fingerprint`]); values are the exact
//! serialized measurement bytes of the report. Storing bytes rather than the
//! structured report is the point: a repeated request is answered with a
//! byte-identical body, so clients can `cmp` cached responses against
//! committed `BENCH_*.json` baselines and caching stays observationally
//! invisible apart from latency.
//!
//! [`CellCache`] keys individual sweep **cells** on
//! [`crate::protocol::cell_fingerprint`] — (workload spec fingerprint ×
//! canonical policy label × backend label × sweep seed × repetition ×
//! socket count) — and stores the raw [`CellOutcome`] measurements (skipped
//! ones too: whether a pair skips is as deterministic as its measurement).
//! Because a cell's measurement depends only on that key, sweeps of
//! *different* shapes share work: a request that adds one policy column to
//! an already-served sweep hydrates every old cell from this cache and
//! executes only the new column. The deterministic keyed post-pass then
//! reassembles the report from hydrated + fresh cells byte-identically to
//! direct execution.
//!
//! Both sit inside the server's one state mutex, so every operation on the
//! request path — lookup, insert, eviction, peek, revalidate — is O(1)
//! however full the cache is.

use std::collections::HashMap;
use std::sync::Arc;

use numadag_runtime::CellOutcome;

use crate::protocol::report_wire_form;

/// A finished sweep report as served to clients.
#[derive(Debug)]
pub struct CachedReport {
    /// The exact `SweepReport::to_json_string` bytes of the report.
    pub bytes: String,
    /// `bytes` in [`report_wire_form`]: what every `Report` line about this
    /// report embeds. Mapped once, when the report is produced or loaded,
    /// however many cache hits and subscribers are then sent it.
    wire: String,
    /// Cells the sweep executed to produce it (for accounting; repeats
    /// served from cache execute zero — and cells hydrated from the cell
    /// cache never counted in the first place).
    pub executed_cells: usize,
    /// Cells the sweep contains in total (executed + hydrated).
    pub(crate) total_cells: usize,
}

impl CachedReport {
    /// A report and its wire form. Callers run this outside the daemon's
    /// state lock: it copies the whole report.
    pub(crate) fn new(bytes: String, executed_cells: usize, total_cells: usize) -> Self {
        CachedReport {
            wire: report_wire_form(&bytes),
            bytes,
            executed_cells,
            total_cells,
        }
    }

    /// [`CachedReport::bytes`] in [`report_wire_form`].
    pub(crate) fn wire(&self) -> &str {
        &self.wire
    }
}

/// The sweep-level cache: fingerprint → shared report bytes.
pub(crate) type ReportCache = Lru<Arc<CachedReport>>;
/// The cell-level cache: [`crate::protocol::cell_fingerprint`] → outcome.
pub(crate) type CellCache = Lru<CellOutcome>;

/// The "no node" link.
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Node<V> {
    key: u64,
    value: V,
    prev: u32,
    next: u32,
}

/// An LRU map from `u64` fingerprints to `V` with hit/miss/eviction
/// counters: a hash index into a slab of nodes on a doubly linked recency
/// list, least-recently-used at the head. Nodes only ever leave by
/// eviction, which hands the victim's slot straight to the entry replacing
/// it, so the slab needs no free list and never outgrows the capacity. Not
/// internally synchronized — the server keeps it inside its state mutex.
#[derive(Debug)]
pub(crate) struct Lru<V> {
    index: HashMap<u64, u32>,
    nodes: Vec<Node<V>>,
    /// Least recently used: the next eviction victim.
    head: u32,
    /// Most recently used.
    tail: u32,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<V: Clone> Lru<V> {
    /// An empty cache holding at most `capacity` entries (minimum 1).
    pub(crate) fn new(capacity: usize) -> Self {
        Lru {
            index: HashMap::new(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity: capacity.clamp(1, NIL as usize),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up a value, counting a hit (and refreshing recency) or a miss.
    pub(crate) fn lookup(&mut self, key: u64) -> Option<V> {
        let found = self.revalidate(key);
        self.misses += u64::from(found.is_none());
        found
    }

    /// Like [`Lru::lookup`], but an absent key does not count a miss — both
    /// admission phases use this on the report cache, and the admission path
    /// counts exactly one [`Lru::note_miss`] when it actually creates an
    /// executing job, so racing identical submissions never inflate the
    /// miss counter.
    pub(crate) fn revalidate(&mut self, key: u64) -> Option<V> {
        let slot = *self.index.get(&key)?;
        self.hits += 1;
        self.touch(slot);
        Some(self.nodes[slot as usize].value.clone())
    }

    /// Counts one miss. The admission path calls this when a submission
    /// passes both [`Lru::revalidate`] phases and becomes an executing job,
    /// keeping the invariant that each report-cache miss corresponds to
    /// exactly one executed sweep.
    pub(crate) fn note_miss(&mut self) {
        self.misses += 1;
    }

    /// Peeks without touching the hit/miss counters or recency — used by
    /// pool workers to skip cells another job already executed between
    /// admission and dispatch.
    pub(crate) fn peek(&self, key: u64) -> Option<V> {
        let slot = *self.index.get(&key)?;
        Some(self.nodes[slot as usize].value.clone())
    }

    /// Inserts a value, evicting the least-recently-used entry when full.
    /// Re-inserting an existing key refreshes both value and recency.
    pub(crate) fn insert(&mut self, key: u64, value: V) {
        if let Some(&slot) = self.index.get(&key) {
            self.nodes[slot as usize].value = value;
            self.touch(slot);
            return;
        }
        let node = Node {
            key,
            value,
            prev: NIL,
            next: NIL,
        };
        let slot = if self.nodes.len() < self.capacity {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let slot = self.head;
            self.unlink(slot);
            let victim = std::mem::replace(&mut self.nodes[slot as usize], node);
            self.index.remove(&victim.key);
            self.evictions += 1;
            slot
        };
        self.index.insert(key, slot);
        self.link_as_most_recent(slot);
    }

    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    fn link_as_most_recent(&mut self, slot: u32) {
        let old_tail = std::mem::replace(&mut self.tail, slot);
        let node = &mut self.nodes[slot as usize];
        node.prev = old_tail;
        node.next = NIL;
        match old_tail {
            NIL => self.head = slot,
            t => self.nodes[t as usize].next = slot,
        }
    }

    fn touch(&mut self, slot: u32) {
        if self.tail != slot {
            self.unlink(slot);
            self.link_as_most_recent(slot);
        }
    }

    /// Lookups served from the cache.
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing, plus every [`Lru::note_miss`].
    pub(crate) fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries discarded by the LRU policy.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Entries currently resident.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Maximum resident entries before eviction.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Every resident entry, least-recently-used first (one walk of the
    /// recency list). Re-inserting them in this order into an empty cache
    /// reproduces the same LRU ranking — the contract the daemon's
    /// `--cache-file` persistence relies on across restarts.
    pub(crate) fn snapshot(&self) -> Vec<(u64, V)> {
        let mut entries = Vec::with_capacity(self.nodes.len());
        let mut slot = self.head;
        while slot != NIL {
            let node = &self.nodes[slot as usize];
            entries.push((node.key, node.value.clone()));
            slot = node.next;
        }
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The pre-`Lru` implementation, kept as the model: logical timestamps
    /// in a `HashMap`, the victim found by scanning for the smallest one.
    struct Reference {
        entries: HashMap<u64, (u32, u64)>,
        capacity: usize,
        tick: u64,
        counters: [u64; 3],
    }

    impl Reference {
        fn lookup(&mut self, key: u64, count_miss: bool) -> Option<u32> {
            self.tick += 1;
            match self.entries.get_mut(&key) {
                Some(entry) => {
                    entry.1 = self.tick;
                    self.counters[0] += 1;
                    Some(entry.0)
                }
                None => {
                    self.counters[1] += u64::from(count_miss);
                    None
                }
            }
        }

        fn insert(&mut self, key: u64, value: u32) {
            self.tick += 1;
            if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
                let victim = *self.entries.iter().min_by_key(|(_, e)| e.1).unwrap().0;
                self.entries.remove(&victim);
                self.counters[2] += 1;
            }
            self.entries.insert(key, (value, self.tick));
        }

        fn snapshot(&self) -> Vec<(u64, u32)> {
            let mut entries: Vec<_> = self.entries.iter().collect();
            entries.sort_by_key(|(_, e)| e.1);
            entries.into_iter().map(|(&k, e)| (k, e.0)).collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every operation returns what the scan-based model returns and
        /// leaves the same entries in the same recency order (so the same
        /// victims were chosen), with the same counters.
        #[test]
        fn lru_matches_the_min_by_key_model(
            capacity_pick in 0usize..4,
            ops in prop::collection::vec((0u8..6, 0u64..96, 0u32..1000), 50..600),
        ) {
            let capacity = [1, 2, 7, 64][capacity_pick];
            let mut lru: Lru<u32> = Lru::new(capacity);
            let mut model = Reference {
                entries: HashMap::new(),
                capacity,
                tick: 0,
                counters: [0; 3],
            };
            for (op, key, value) in ops {
                // Keys range past every capacity, so inserts hit fresh and
                // resident keys alike and evict constantly.
                match op {
                    0 => prop_assert_eq!(lru.lookup(key), model.lookup(key, true)),
                    1 => prop_assert_eq!(lru.revalidate(key), model.lookup(key, false)),
                    2 => prop_assert_eq!(lru.peek(key), model.entries.get(&key).map(|e| e.0)),
                    3 => {
                        lru.note_miss();
                        model.counters[1] += 1;
                    }
                    _ => {
                        lru.insert(key, value);
                        model.insert(key, value);
                    }
                }
                prop_assert_eq!(lru.snapshot(), model.snapshot());
                prop_assert_eq!(lru.len(), model.entries.len());
                prop_assert_eq!([lru.hits(), lru.misses(), lru.evictions()], model.counters);
            }
        }
    }

    #[test]
    fn a_reloaded_snapshot_evicts_in_the_same_order() {
        let mut cache: Lru<u32> = Lru::new(4);
        for key in 1..=6 {
            cache.insert(key, key as u32 * 10);
        }
        // Touch 4, then peek 3 (which must not count): recency is 3, 5, 6, 4.
        assert_eq!(cache.lookup(4), Some(40));
        assert_eq!(cache.peek(3), Some(30));
        assert_eq!(cache.snapshot(), [(3, 30), (5, 50), (6, 60), (4, 40)]);
        assert_eq!((cache.hits(), cache.misses(), cache.evictions()), (1, 0, 2));

        // The `--cache-file` contract: a fresh cache fed the snapshot evicts
        // exactly like the one it was taken from.
        let mut reloaded: Lru<u32> = Lru::new(4);
        for (key, value) in cache.snapshot() {
            reloaded.insert(key, value);
        }
        for key in 7..=10 {
            cache.insert(key, 0);
            reloaded.insert(key, 0);
            assert_eq!(reloaded.snapshot(), cache.snapshot());
        }
        assert_eq!(reloaded.evictions(), 4);
        assert_ne!(reloaded.len(), 0);
        assert_eq!(Lru::<u32>::new(0).capacity(), 1, "capacity has a floor");
    }
}
