//! K-way boundary refinement in the Fiduccia–Mattheyses family.
//!
//! After the initial partition (and after every uncoarsening step of the
//! multilevel scheme), [`refine_kway_anchored_with`] performs greedy passes
//! over the boundary vertices: each vertex may move to the neighbouring part
//! it is most strongly connected to, provided the move does not violate the
//! balance constraint. A separate rebalance step repairs partitions whose
//! parts exceed the allowed maximum weight (which can happen after projecting
//! a coarse partition onto a finer graph).
//!
//! The hot path is allocation-free per vertex visit: a `GainTable` holds
//! the vertex→part connectivity of the *whole* graph as one flat `n × k`
//! array, built once in `O(E)` and updated incrementally in `O(deg)` per
//! move. Boundary membership falls out of the same table for free (a vertex
//! is interior exactly when all of its incident weight stays in its own
//! part), so each refinement pass touches the table instead of re-walking
//! adjacency lists, and the old per-visit `Vec` allocation of the seed
//! implementation is gone entirely.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::csr::CsrGraph;
use crate::partition::affinity::AffinityCosts;
use crate::partition::PartitionConfig;

/// Incrementally-maintained vertex→part connectivity of a whole graph.
///
/// `conn(v, p)` is the total weight of edges from `v` into part `p`. The
/// table is `O(n·k)` memory, built in `O(E)`, and a vertex move costs
/// `O(deg(v))` to keep it exact.
///
/// When built via [`GainTable::rebuild_anchored`] the table additionally
/// holds the per-vertex socket-affinity rows of an [`AffinityCosts`] input:
/// [`GainTable::gain`] then values a move by connectivity *plus* affinity
/// delta, and [`GainTable::is_movable`] extends the boundary with vertices
/// whose anchors pull them elsewhere. Without anchors both reduce exactly to
/// the connectivity-only quantities, so the unanchored path is unchanged.
#[derive(Debug, Default)]
pub(crate) struct GainTable {
    k: usize,
    /// Flat row-major `n × k` connectivity.
    conn: Vec<i64>,
    /// Total incident edge weight per vertex (row sum, cached).
    incident: Vec<i64>,
    /// Flat row-major `n × k` affinity anchors added to move gains (valid
    /// only while `anchored`). Unlike `conn` this is constant under moves
    /// (anchors point at *fixed* data).
    anchor: Vec<i64>,
    /// Whether the `anchor` rows participate in gains.
    anchored: bool,
}

impl GainTable {
    /// Builds the table for `assignment` in one edge sweep, in place for a
    /// (possibly different) graph and assignment: allocation-free once the
    /// buffers have grown to the working size.
    pub(crate) fn rebuild(&mut self, graph: &CsrGraph, assignment: &[u32], k: usize) {
        let n = graph.num_vertices();
        self.k = k;
        self.conn.clear();
        self.conn.resize(n * k, 0);
        self.incident.clear();
        self.incident.resize(n, 0);
        self.anchored = false;
        for v in 0..n as u32 {
            let row = v as usize * k;
            let mut total = 0i64;
            for (u, w) in graph.edges_of(v) {
                self.conn[row + assignment[u as usize] as usize] += w;
                total += w;
            }
            self.incident[v as usize] = total;
        }
    }

    /// [`GainTable::rebuild`] plus the affinity anchors of `affinity` (one
    /// row per vertex, `affinity.num_parts()` must equal `k`).
    pub(crate) fn rebuild_anchored(
        &mut self,
        graph: &CsrGraph,
        assignment: &[u32],
        k: usize,
        affinity: &AffinityCosts,
    ) {
        assert_eq!(affinity.num_vertices(), graph.num_vertices());
        assert_eq!(affinity.num_parts(), k);
        self.rebuild(graph, assignment, k);
        self.anchor.clear();
        self.anchor.extend_from_slice(affinity.flat());
        self.anchored = true;
    }

    /// Connectivity of `v` to part `p`.
    #[inline]
    pub(crate) fn conn(&self, v: u32, p: usize) -> i64 {
        self.conn[v as usize * self.k + p]
    }

    /// True if `v` has at least one neighbour outside its own part. Edge
    /// weights are strictly positive, so this is exactly "some incident
    /// weight leaves the part".
    #[inline]
    pub(crate) fn is_boundary(&self, assignment: &[u32], v: u32) -> bool {
        self.conn(v, assignment[v as usize] as usize) != self.incident[v as usize]
    }

    /// Gain of moving `v` from part `from` to part `to`: connectivity delta
    /// plus, when the table is anchored, the affinity delta.
    #[inline]
    pub(crate) fn gain(&self, v: u32, from: usize, to: usize) -> i64 {
        let row = v as usize * self.k;
        let mut gain = self.conn[row + to] - self.conn[row + from];
        if self.anchored {
            gain += self.anchor[row + to] - self.anchor[row + from];
        }
        gain
    }

    /// True if `v` is a candidate for refinement: on the edge boundary, or
    /// anchored more strongly to some other part than to its own.
    #[inline]
    pub(crate) fn is_movable(&self, assignment: &[u32], v: u32) -> bool {
        if self.is_boundary(assignment, v) {
            return true;
        }
        if !self.anchored {
            return false;
        }
        let row = v as usize * self.k;
        let own = self.anchor[row + assignment[v as usize] as usize];
        self.anchor[row..row + self.k].iter().any(|&c| c > own)
    }

    /// Records the move of `v` from part `from` to part `to`, updating the
    /// rows of its neighbours (its own row is unaffected: it describes the
    /// neighbours' parts, not its own).
    #[inline]
    pub(crate) fn apply_move(&mut self, graph: &CsrGraph, v: u32, from: usize, to: usize) {
        for (u, w) in graph.edges_of(v) {
            let row = u as usize * self.k;
            self.conn[row + from] -= w;
            self.conn[row + to] += w;
        }
    }

    /// Edge cut implied by the current table: half the total weight leaving
    /// each vertex's own part. `O(n)` instead of re-walking every edge.
    pub(crate) fn edge_cut(&self, assignment: &[u32]) -> i64 {
        let mut external = 0i64;
        for (v, &own) in assignment.iter().enumerate() {
            external += self.incident[v] - self.conn[v * self.k + own as usize];
        }
        external / 2
    }
}

/// Priority queue of candidate moves out of one overweight part, keyed on
/// the gain table.
///
/// Each vertex of the heavy part carries at most one entry: its best move
/// `(gain, target)` — highest gain, lowest target on ties. The queue is an
/// index-keyed binary max-heap ordered by `(gain desc, vertex asc)`, so the
/// top entry is exactly what the previous `O(n·k)`-per-move linear scan
/// selected: the maximum gain, with ties broken towards the smallest vertex
/// id and then the smallest target. (A classic array-of-buckets queue does
/// not apply here — gains are byte quantities spanning a huge sparse range —
/// so the bucket role is played by a positional heap with the same exact
/// selection order.)
///
/// Consistency protocol, exploiting that while the *set* of overweight parts
/// is stable, non-heavy target weights only grow and overweight parts only
/// shrink (overweight parts are never feasible targets):
///
/// * gains change only when a neighbour of a moved vertex is touched by
///   [`GainTable::apply_move`] — those entries are refreshed *eagerly*
///   (gains can increase, which a lazy scheme would miss);
/// * feasibility (`target weight + vertex weight <= max`) only decays, so a
///   stale-feasibility entry can only be *over*-ranked and is revalidated
///   *lazily* at pop time;
/// * a vertex whose entry disappears (no feasible target) can never come
///   back while the overweight set is stable.
///
/// When a part drops back under the limit the overweight set shrinks and a
/// fresh feasible target appears; `rebalance_with` invalidates every
/// retained queue at that point (at most `k − 1` times per run).
#[derive(Debug, Default)]
struct GainQueue {
    /// Heap of vertex ids, max on `(gain, Reverse(vertex))`.
    heap: Vec<u32>,
    /// `pos[v]` = heap slot of `v` plus one; zero means absent.
    pos: Vec<u32>,
    /// Cached best gain per vertex (valid only while `pos[v] != 0`).
    gain: Vec<i64>,
    /// Cached best target per vertex (valid only while `pos[v] != 0`).
    target: Vec<u32>,
}

impl GainQueue {
    fn new() -> Self {
        GainQueue::default()
    }

    /// Empties the queue and sizes the per-vertex tables for `n` vertices.
    fn reset(&mut self, n: usize) {
        self.heap.clear();
        self.pos.clear();
        self.pos.resize(n, 0);
        self.gain.resize(n, 0);
        self.target.resize(n, 0);
    }

    fn contains(&self, v: u32) -> bool {
        self.pos[v as usize] != 0
    }

    fn cached(&self, v: u32) -> (i64, u32) {
        (self.gain[v as usize], self.target[v as usize])
    }

    /// True if `a` outranks `b`: higher gain, or equal gain and lower id.
    #[inline]
    fn outranks(&self, a: u32, b: u32) -> bool {
        let (ga, gb) = (self.gain[a as usize], self.gain[b as usize]);
        ga > gb || (ga == gb && a < b)
    }

    /// Appends an entry without restoring heap order; call
    /// [`GainQueue::heapify`] once after the bulk load.
    fn push_unordered(&mut self, v: u32, gain: i64, target: u32) {
        self.gain[v as usize] = gain;
        self.target[v as usize] = target;
        self.pos[v as usize] = self.heap.len() as u32 + 1;
        self.heap.push(v);
    }

    /// Restores heap order after a bulk [`GainQueue::push_unordered`] load.
    fn heapify(&mut self) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i);
        }
    }

    fn peek(&self) -> Option<u32> {
        self.heap.first().copied()
    }

    fn remove(&mut self, v: u32) {
        let slot = self.pos[v as usize];
        if slot == 0 {
            return;
        }
        let i = (slot - 1) as usize;
        self.pos[v as usize] = 0;
        let last = self.heap.pop().unwrap();
        if last != v {
            self.heap[i] = last;
            self.pos[last as usize] = slot;
            self.sift_down(i);
            self.sift_up(i);
        }
    }

    /// Rewrites the entry of a queued vertex and restores its heap position.
    fn update(&mut self, v: u32, gain: i64, target: u32) {
        debug_assert!(self.contains(v));
        let i = (self.pos[v as usize] - 1) as usize;
        self.gain[v as usize] = gain;
        self.target[v as usize] = target;
        self.sift_down(i);
        self.sift_up((self.pos[v as usize] - 1) as usize);
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if !self.outranks(self.heap[i], self.heap[parent]) {
                break;
            }
            self.swap_slots(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let mut best = left;
            if right < n && self.outranks(self.heap[right], self.heap[left]) {
                best = right;
            }
            if !self.outranks(self.heap[best], self.heap[i]) {
                break;
            }
            self.swap_slots(i, best);
            i = best;
        }
    }

    #[inline]
    fn swap_slots(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i] as usize] = i as u32 + 1;
        self.pos[self.heap[j] as usize] = j as u32 + 1;
    }
}

/// Best admissible move of `v` out of `heavy`: the highest-gain target with
/// spare capacity, lowest target index on ties. Mirrors the inner loops of
/// the linear-scan reference exactly.
#[inline]
fn best_move(
    graph: &CsrGraph,
    table: &GainTable,
    part_weight: &[i64],
    heavy: usize,
    max_part_weight: i64,
    v: u32,
) -> Option<(i64, u32)> {
    let vw = graph.vertex_weight(v);
    let mut best: Option<(i64, u32)> = None;
    for (target, &tw) in part_weight.iter().enumerate() {
        if target == heavy || tw + vw > max_part_weight {
            continue;
        }
        let gain = table.gain(v, heavy, target);
        match best {
            None => best = Some((gain, target as u32)),
            Some((bg, _)) if gain > bg => best = Some((gain, target as u32)),
            _ => {}
        }
    }
    best
}

/// Reusable scratch for [`refine_kway_anchored_with`] and the rebalance
/// phase: the gain table buffers, part weights, the per-pass boundary list
/// and the per-part rebalance queues. Holding one scratch across repeated
/// refinement calls (one per uncoarsening level per RGP window) removes
/// every per-level allocation; the scratch is pure state — results are
/// bit-identical with a fresh scratch per call.
#[derive(Debug, Default)]
pub struct RefineScratch {
    table: GainTable,
    part_weight: Vec<i64>,
    boundary: Vec<u32>,
    /// `settled[v]`: `v` was scored with a strictly negative gain towards
    /// every other part and neither it nor a neighbour has moved since, so
    /// no FM pass can move it whatever the part weights are.
    settled: Vec<bool>,
    /// Never set outside tests: scores every boundary vertex on every pass.
    never_settle: bool,
    queues: Vec<GainQueue>,
    queue_built: Vec<bool>,
}

impl RefineScratch {
    /// A scratch whose FM passes re-score every boundary vertex on every
    /// pass: the specification the settled-vertex skip is tested against.
    #[cfg(test)]
    fn never_settling() -> Self {
        RefineScratch {
            never_settle: true,
            ..RefineScratch::default()
        }
    }
}

/// Moves vertices out of overweight parts until every part weighs at most
/// `max_part_weight`, choosing at each step the move that loses the least cut
/// weight, and returns the number of vertices moved. Works through a
/// caller-owned gain table and part-weight vector (kept exact), so refinement
/// shares one table across the repair and refinement phases. Selection per
/// move is driven by a [`GainQueue`] — `O(log n)` amortised instead of the
/// `O(n·k)` scan of the linear reference the unit tests keep — with an
/// identical move sequence.
///
/// One queue is kept *per overweight part*, built lazily the first time a
/// part is selected as the heaviest offender and retained across part
/// switches. When several parts are simultaneously overweight and alternate
/// as heaviest (common right after a degenerate projection crams everything
/// into the low parts), the old single-queue scheme rebuilt its `O(n)` queue
/// on every switch — the retained queues make each switch `O(1)`. Retention
/// is sound because queues exist only for overweight parts: overweight parts
/// are never feasible move targets, so a retained queue's membership only
/// shrinks (explicit removals), its gains stay exact (the eager neighbour
/// refresh spans every retained queue), and feasibility only decays (lazy
/// revalidation at pop). The one event that *adds* feasibility — a part
/// dropping back under the limit, which turns it into a fresh absorber —
/// invalidates every retained queue; that happens at most `k − 1` times per
/// run.
fn rebalance_with(
    graph: &CsrGraph,
    assignment: &mut [u32],
    max_part_weight: i64,
    table: &mut GainTable,
    part_weight: &mut [i64],
    queues: &mut Vec<GainQueue>,
    built: &mut Vec<bool>,
) -> usize {
    let n = graph.num_vertices();
    let k = part_weight.len();
    let mut moves = 0usize;
    // Hard cap: each vertex can be moved at most twice on average.
    let max_moves = 2 * n + k;
    if queues.len() < k {
        queues.resize_with(k, GainQueue::new);
    }
    built.clear();
    built.resize(k, false);
    'phases: while moves < max_moves {
        // Heaviest offending part.
        let Some((heavy, _)) = part_weight
            .iter()
            .enumerate()
            .filter(|(_, &w)| w > max_part_weight)
            .max_by_key(|(_, &w)| w)
        else {
            break;
        };
        if !built[heavy] {
            let queue = &mut queues[heavy];
            queue.reset(n);
            for v in 0..n as u32 {
                if assignment[v as usize] as usize != heavy {
                    continue;
                }
                if let Some((g, t)) =
                    best_move(graph, table, part_weight, heavy, max_part_weight, v)
                {
                    queue.push_unordered(v, g, t);
                }
            }
            queue.heapify();
            built[heavy] = true;
        }
        // Pop the best still-admissible move. Gains are maintained eagerly,
        // but a cached target may have filled up since the entry was scored;
        // revalidate at the top and re-rank (always downwards) until the top
        // entry is exact.
        let (v, target) = loop {
            let Some(v) = queues[heavy].peek() else {
                // No part can absorb anything without itself going over the
                // limit; give up (the limit may simply be infeasible, e.g. a
                // single vertex heavier than max_part_weight).
                break 'phases;
            };
            match best_move(graph, table, part_weight, heavy, max_part_weight, v) {
                None => queues[heavy].remove(v),
                Some((g, t)) => {
                    if (g, t) == queues[heavy].cached(v) {
                        break (v, t);
                    }
                    queues[heavy].update(v, g, t);
                }
            }
        };
        let vw = graph.vertex_weight(v);
        part_weight[heavy] -= vw;
        part_weight[target as usize] += vw;
        assignment[v as usize] = target;
        table.apply_move(graph, v, heavy, target as usize);
        queues[heavy].remove(v);
        // Eager refresh: the move changed every neighbour's connectivity to
        // `heavy` and `target`; a queued neighbour lives in the retained
        // queue of its *own* part (only overweight parts have one).
        for (u, _) in graph.edges_of(v) {
            let up = assignment[u as usize] as usize;
            if built[up] && queues[up].contains(u) {
                match best_move(graph, table, part_weight, up, max_part_weight, u) {
                    Some((g, t)) => queues[up].update(u, g, t),
                    None => queues[up].remove(u),
                }
            }
        }
        moves += 1;
        // The shedding part crossed back under the limit: it is now a part
        // with spare capacity, i.e. a feasible target that none of the
        // retained queues has scored. Invalidate them all (the overweight
        // set shrank — this fires at most k − 1 times per run).
        if part_weight[heavy] <= max_part_weight {
            for b in built.iter_mut() {
                *b = false;
            }
        }
    }
    moves
}

/// Part weights of `assignment` into a caller-owned buffer (allocation-free
/// once grown).
fn weights_into(graph: &CsrGraph, assignment: &[u32], k: usize, out: &mut Vec<i64>) {
    out.clear();
    out.resize(k, 0);
    for (v, &p) in assignment.iter().enumerate() {
        out[p as usize] += graph.vertex_weight(v as u32);
    }
}

/// Greedy k-way refinement, up to `config.refine_passes` passes. Returns the
/// resulting edge cut.
///
/// Guarantees: the edge cut never increases relative to the input (moves with
/// negative gain are only made when they strictly improve balance without
/// touching the cut, i.e. zero-gain moves), and no part exceeds the balance
/// limit more than it did on entry.
///
/// With per-vertex socket-affinity anchors, move gains become connectivity
/// delta *plus* affinity delta, and interior vertices whose anchors pull them
/// elsewhere join the candidate set; with `affinity` `None` the run
/// (including its RNG stream) is the plain edge-cut one. The returned value
/// is always the pure edge cut — the affinity term is an objective, not a
/// metric.
///
/// The gain table, part weights, boundary list and rebalance queues live in
/// the caller's [`RefineScratch`] and are rebuilt in place, so repeated calls
/// (one per uncoarsening level, times one partition per RGP window) are
/// allocation-free once the buffers reach the working-set size. Results are
/// bit-identical to a fresh scratch per call.
pub fn refine_kway_anchored_with(
    graph: &CsrGraph,
    assignment: &mut [u32],
    config: &PartitionConfig,
    affinity: Option<&AffinityCosts>,
    scratch: &mut RefineScratch,
) -> i64 {
    let n = graph.num_vertices();
    let k = config.num_parts.max(1);
    if n == 0 || k <= 1 {
        return 0;
    }
    let total = graph.total_vertex_weight();
    let max_w = config.max_part_weight(total);

    let RefineScratch {
        table,
        part_weight,
        boundary,
        settled,
        never_settle,
        queues,
        queue_built,
    } = scratch;
    match affinity {
        Some(aff) => table.rebuild_anchored(graph, assignment, k, aff),
        None => table.rebuild(graph, assignment, k),
    }
    weights_into(graph, assignment, k, part_weight);

    // First repair any gross imbalance left over from projection.
    rebalance_with(
        graph,
        assignment,
        max_w,
        table,
        part_weight,
        queues,
        queue_built,
    );

    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x9E3779B97F4A7C15);
    settled.clear();
    settled.resize(n, false);

    for _ in 0..config.refine_passes {
        // The candidate list and its shuffle do not look at `settled`: the
        // RNG stream and the order in which the remaining vertices are
        // scored are those of a pass that scores everything.
        boundary.clear();
        boundary.extend((0..n as u32).filter(|&v| table.is_movable(assignment, v)));
        boundary.shuffle(&mut rng);
        let mut moved = 0usize;
        for &v in boundary.iter() {
            if settled[v as usize] {
                continue;
            }
            let from = assignment[v as usize] as usize;
            let vw = graph.vertex_weight(v);
            // Best admissible target.
            let mut best: Option<(i64, usize)> = None;
            let mut all_negative = true;
            for target in 0..k {
                if target == from {
                    continue;
                }
                let gain = table.gain(v, from, target);
                if gain < 0 {
                    continue;
                }
                all_negative = false;
                if part_weight[target] + vw > max_w {
                    continue;
                }
                let improves_balance = part_weight[target] + vw < part_weight[from];
                if gain > 0 || improves_balance {
                    match best {
                        None => best = Some((gain, target)),
                        Some((bg, _)) if gain > bg => best = Some((gain, target)),
                        _ => {}
                    }
                }
            }
            if let Some((_, target)) = best {
                part_weight[from] -= vw;
                part_weight[target] += vw;
                assignment[v as usize] = target as u32;
                table.apply_move(graph, v, from, target);
                // The neighbours' gains just changed; `v` itself was scored,
                // so its own flag is already clear.
                for &u in graph.neighbors(v) {
                    settled[u as usize] = false;
                }
                moved += 1;
            } else if all_negative {
                // Gains do not depend on part weights and only change when
                // `v` or a neighbour moves: until then no pass can move `v`.
                settled[v as usize] = !*never_settle;
            }
        }
        if moved == 0 {
            break;
        }
    }

    table.edge_cut(assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::metrics;
    use crate::partition::Partition;

    fn cut(graph: &CsrGraph, assignment: &[u32], k: usize) -> i64 {
        metrics::edge_cut(graph, &Partition::from_assignment(assignment.to_vec(), k))
    }

    /// The refinement entry point through a fresh scratch.
    fn refine_kway(
        graph: &CsrGraph,
        assignment: &mut [u32],
        config: &PartitionConfig,
        affinity: Option<&AffinityCosts>,
    ) -> i64 {
        let mut scratch = RefineScratch::default();
        refine_kway_anchored_with(graph, assignment, config, affinity, &mut scratch)
    }

    fn build_table(graph: &CsrGraph, assignment: &[u32], k: usize) -> GainTable {
        let mut table = GainTable::default();
        table.rebuild(graph, assignment, k);
        table
    }

    fn weights_of(graph: &CsrGraph, assignment: &[u32], k: usize) -> Vec<i64> {
        let mut part_weight = Vec::new();
        weights_into(graph, assignment, k, &mut part_weight);
        part_weight
    }

    /// [`rebalance_with`] through a fresh table, weights and queues.
    fn rebalance(
        graph: &CsrGraph,
        assignment: &mut [u32],
        k: usize,
        max_part_weight: i64,
    ) -> usize {
        let mut table = build_table(graph, assignment, k);
        let mut part_weight = weights_of(graph, assignment, k);
        rebalance_with(
            graph,
            assignment,
            max_part_weight,
            &mut table,
            &mut part_weight,
            &mut Vec::new(),
            &mut Vec::new(),
        )
    }

    /// The pre-queue `O(n·k)`-per-move implementation of [`rebalance`],
    /// retained verbatim as the oracle for the queue/linear equivalence
    /// corpus. Selection order (maximum gain, then lowest vertex id, then
    /// lowest target) is the contract both implementations share.
    fn rebalance_reference(
        graph: &CsrGraph,
        assignment: &mut [u32],
        k: usize,
        max_part_weight: i64,
    ) -> usize {
        let mut table = build_table(graph, assignment, k);
        let mut part_weight = weights_of(graph, assignment, k);
        rebalance_with_linear(
            graph,
            assignment,
            max_part_weight,
            &mut table,
            &mut part_weight,
        )
    }

    /// The linear-scan body of [`rebalance_reference`].
    fn rebalance_with_linear(
        graph: &CsrGraph,
        assignment: &mut [u32],
        max_part_weight: i64,
        table: &mut GainTable,
        part_weight: &mut [i64],
    ) -> usize {
        let n = graph.num_vertices();
        let k = part_weight.len();
        let mut moves = 0usize;
        // Hard cap: each vertex can be moved at most twice on average.
        let max_moves = 2 * n + k;
        while moves < max_moves {
            // Heaviest offending part.
            let Some((heavy, _)) = part_weight
                .iter()
                .enumerate()
                .filter(|(_, &w)| w > max_part_weight)
                .max_by_key(|(_, &w)| w)
            else {
                break;
            };
            // Best (least cut increase) move of any vertex of `heavy` to any
            // part with spare capacity.
            let mut best: Option<(i64, u32, u32)> = None; // (gain, vertex, target)
            for v in 0..n as u32 {
                if assignment[v as usize] as usize != heavy {
                    continue;
                }
                let vw = graph.vertex_weight(v);
                for (target, &tw) in part_weight.iter().enumerate() {
                    if target == heavy || tw + vw > max_part_weight {
                        continue;
                    }
                    let gain = table.gain(v, heavy, target);
                    let candidate = (gain, v, target as u32);
                    best = match best {
                        None => Some(candidate),
                        Some(b) if candidate.0 > b.0 => Some(candidate),
                        other => other,
                    };
                }
            }
            let Some((_, v, target)) = best else {
                break;
            };
            let vw = graph.vertex_weight(v);
            part_weight[heavy] -= vw;
            part_weight[target as usize] += vw;
            assignment[v as usize] = target;
            table.apply_move(graph, v, heavy, target as usize);
            moves += 1;
        }
        moves
    }

    #[test]
    fn refinement_never_increases_cut() {
        let g = generators::grid_2d(12, 12, 3);
        let k = 4;
        // Terrible initial partition: stripes by vertex id modulo k.
        let mut a: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % k as u32).collect();
        let before = cut(&g, &a, k as usize);
        let cfg = PartitionConfig::new(k as usize);
        let after = refine_kway(&g, &mut a, &cfg, None);
        assert!(after <= before, "cut went from {before} to {after}");
        assert_eq!(after, cut(&g, &a, k as usize), "returned cut must match");
    }

    #[test]
    fn refinement_respects_balance() {
        let g = generators::grid_2d(10, 10, 1);
        let k = 4usize;
        let mut a: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % k as u32).collect();
        let cfg = PartitionConfig::new(k).with_imbalance(0.05);
        refine_kway(&g, &mut a, &cfg, None);
        let p = Partition::from_assignment(a, k);
        assert!(metrics::imbalance(&g, &p) <= 1.05 + 1e-9);
    }

    #[test]
    fn gain_table_tracks_moves_exactly() {
        let g = generators::random_graph(120, 6, 12, 5);
        let k = 4usize;
        let mut a: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % k as u32).collect();
        let mut table = build_table(&g, &a, k);
        // Walk a few arbitrary moves and check the table against a rebuild.
        for v in [3u32, 17, 50, 99, 3] {
            let from = a[v as usize] as usize;
            let to = (from + 1) % k;
            a[v as usize] = to as u32;
            table.apply_move(&g, v, from, to);
        }
        let fresh = build_table(&g, &a, k);
        for v in 0..g.num_vertices() as u32 {
            for p in 0..k {
                assert_eq!(
                    table.conn(v, p),
                    fresh.conn(v, p),
                    "row of vertex {v} drifted"
                );
            }
            assert_eq!(
                table.is_boundary(&a, v),
                fresh.is_boundary(&a, v),
                "boundary flag of vertex {v} drifted"
            );
        }
        assert_eq!(table.edge_cut(&a), cut(&g, &a, k));
    }

    #[test]
    fn rebalance_fixes_overweight_parts() {
        let g = generators::grid_2d(8, 8, 1);
        // Everything in part 0.
        let mut a = vec![0u32; g.num_vertices()];
        let max_w = 20;
        rebalance(&g, &mut a, 4, max_w);
        let p = Partition::from_assignment(a, 4);
        let weights = metrics::part_weights(&g, &p);
        assert!(
            weights.iter().all(|&w| w <= max_w),
            "weights after rebalance: {weights:?}"
        );
    }

    #[test]
    fn rebalance_gives_up_on_infeasible_limits() {
        let mut b = crate::csr::GraphBuilder::new(2);
        b.set_vertex_weight(0, 100).set_vertex_weight(1, 1);
        b.add_edge(0, 1, 1);
        let g = b.build();
        let mut a = vec![0u32, 0u32];
        // Limit smaller than the big vertex: must terminate without panicking.
        let moves = rebalance(&g, &mut a, 2, 50);
        assert!(moves <= 4);
    }

    #[test]
    fn refinement_finds_obvious_improvement() {
        // Two clusters wrongly split across the bridge.
        let g = generators::two_clusters(6, 30);
        // Initial: odd/even split — awful.
        let mut a: Vec<u32> = (0..12u32).map(|v| v % 2).collect();
        let cfg = PartitionConfig::new(2).with_refine_passes(10);
        let after = refine_kway(&g, &mut a, &cfg, None);
        // Optimal cut is 1 (the bridge); refinement should get close.
        assert!(after <= 30, "refined cut {after} still terrible");
    }

    #[test]
    fn refine_noop_on_single_part() {
        let g = generators::path(5);
        let mut a = vec![0u32; 5];
        let cfg = PartitionConfig::new(1);
        assert_eq!(refine_kway(&g, &mut a, &cfg, None), 0);
    }

    #[test]
    fn refine_empty_graph() {
        let g = crate::csr::GraphBuilder::new(0).build();
        let mut a: Vec<u32> = Vec::new();
        let cfg = PartitionConfig::new(4);
        assert_eq!(refine_kway(&g, &mut a, &cfg, None), 0);
    }

    #[test]
    fn zero_affinity_refinement_is_bit_identical() {
        let g = generators::random_graph(150, 5, 10, 3);
        let k = 4usize;
        let start: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % k as u32).collect();
        let cfg = PartitionConfig::new(k);
        let mut plain = start.clone();
        let plain_cut = refine_kway(&g, &mut plain, &cfg, None);
        let mut anchored = start;
        let aff = AffinityCosts::zeros(g.num_vertices(), k);
        let anchored_cut = refine_kway(&g, &mut anchored, &cfg, Some(&aff));
        assert_eq!(plain, anchored);
        assert_eq!(plain_cut, anchored_cut);
    }

    #[test]
    fn strong_anchor_pulls_an_interior_vertex() {
        // 2x(3x3) grid components: vertices 0..9 and 9..18, no edges between
        // them, so every vertex is interior after a component-per-part split.
        let g = generators::grid_2d(3, 3, 1);
        let mut b = crate::csr::GraphBuilder::new(18);
        for v in 0..9u32 {
            b.set_vertex_weight(v, 1).set_vertex_weight(v + 9, 1);
            for (u, w) in g.edges_of(v) {
                if u > v {
                    b.add_edge(v, u, w).add_edge(v + 9, u + 9, w);
                }
            }
        }
        let g2 = b.build();
        let mut a: Vec<u32> = (0..18).map(|v| if v < 9 { 0 } else { 1 }).collect();
        let cfg = PartitionConfig::new(2).with_imbalance(0.25);
        // Vertex 4 (centre of component 0) is not on any part boundary, but
        // its data lives on part 1: the anchor must still move it.
        let mut aff = AffinityCosts::zeros(18, 2);
        aff.add(4, 1, 10_000);
        refine_kway(&g2, &mut a, &cfg, Some(&aff));
        assert_eq!(a[4], 1, "anchored vertex must follow its fixed data");
    }

    /// The 27-graph refinement corpus: the generator families (random, grid,
    /// layered DAG) at sizes from 16 to 1024 vertices. Crossed with the part
    /// counts 2/4/8 and the two shapes of [`imbalanced_assignments`] it gives
    /// the 162 cases the refiner's rewritten kernels are pinned on.
    fn refine_corpus() -> Vec<CsrGraph> {
        let mut graphs = Vec::new();
        for &n in &[50usize, 200, 1000] {
            for &degree in &[2usize, 4] {
                for seed in 1..=3u64 {
                    graphs.push(generators::random_graph(n, degree, 1 << 12, seed));
                }
            }
        }
        for &(w, h) in &[(4usize, 4usize), (8, 8), (16, 16)] {
            graphs.push(generators::grid_2d(w, h, 8));
        }
        for &(layers, width) in &[
            (8usize, 8usize),
            (8, 16),
            (16, 16),
            (16, 32),
            (32, 16),
            (32, 32),
        ] {
            graphs.push(generators::layered_dag_skeleton(layers, width, 2, 1 << 10));
        }
        graphs
    }

    /// Two imbalanced `k`-way assignments of `n` vertices: "everything crammed
    /// into the low parts" (what a degenerate projection produces) and
    /// "balanced with one part overloaded" (what real projections produce).
    fn imbalanced_assignments(n: usize, k: usize) -> [Vec<u32>; 2] {
        let crammed: Vec<u32> = (0..n as u32).map(|v| v % (k as u32 / 2).max(1)).collect();
        let skewed: Vec<u32> = (0..n as u32)
            .map(|v| if v % 5 == 0 { 0 } else { v % k as u32 })
            .collect();
        [crammed, skewed]
    }

    #[test]
    fn settled_vertices_are_exactly_the_ones_no_pass_would_move() {
        // The specification of the settled-vertex skip: a run that scores
        // every boundary vertex on every pass. Same assignment, same cut, on
        // every case of the corpus, unanchored and anchored.
        let mut cases = 0usize;
        for graph in refine_corpus() {
            let n = graph.num_vertices();
            for k in [2usize, 4, 8] {
                let cfg = PartitionConfig::new(k);
                let mut aff = AffinityCosts::zeros(n, k);
                for v in (0..n as u32).step_by(7) {
                    aff.add(v, v % k as u32, 1 << 11);
                }
                for start in imbalanced_assignments(n, k) {
                    for affinity in [None, Some(&aff)] {
                        let mut skipping = start.clone();
                        let cut = refine_kway_anchored_with(
                            &graph,
                            &mut skipping,
                            &cfg,
                            affinity,
                            &mut RefineScratch::default(),
                        );
                        let mut scoring_all = start.clone();
                        let spec_cut = refine_kway_anchored_with(
                            &graph,
                            &mut scoring_all,
                            &cfg,
                            affinity,
                            &mut RefineScratch::never_settling(),
                        );
                        assert_eq!(skipping, scoring_all, "n={n} k={k}");
                        assert_eq!(cut, spec_cut, "n={n} k={k}");
                    }
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 162);
    }

    /// Bit-identity corpus for the queue-driven rebalance: the [`GainQueue`]
    /// implementation must produce the exact assignment (and move count) of
    /// the retained linear-scan reference on every case of
    /// [`refine_corpus`] — the generator families (random, grid, layered
    /// DAG) × part counts 2/4/8 × the two imbalance shapes of
    /// [`imbalanced_assignments`].
    #[test]
    fn rebalance_queue_matches_linear_reference_on_corpus() {
        let mut cases = 0usize;
        for graph in refine_corpus() {
            let n = graph.num_vertices();
            let total: i64 = graph.vertex_weights().iter().sum();
            for k in [2usize, 4, 8] {
                let max_part_weight = (total + k as i64 - 1) / k as i64 + total / 20;
                for seed in imbalanced_assignments(n, k) {
                    let mut queued = seed.clone();
                    let mut linear = seed;
                    let queued_moves = rebalance(&graph, &mut queued, k, max_part_weight);
                    let linear_moves = rebalance_reference(&graph, &mut linear, k, max_part_weight);
                    assert_eq!(
                        queued_moves, linear_moves,
                        "move count diverged (n={n}, k={k})"
                    );
                    assert_eq!(queued, linear, "assignment diverged (n={n}, k={k})");
                    cases += 1;
                }
            }
        }
        // 27 graphs × 3 part counts × 2 imbalance shapes.
        assert_eq!(cases, 162, "corpus drifted from the 162-fingerprint size");
    }

    #[test]
    fn anchored_gain_table_reports_combined_gains() {
        let g = generators::path(3);
        let a = vec![0u32, 0, 1];
        let mut aff = AffinityCosts::zeros(3, 2);
        aff.add(0, 1, 5);
        let mut table = GainTable::default();
        table.rebuild_anchored(&g, &a, 2, &aff);
        // Moving vertex 0 from part 0 to 1: loses the 0-1 edge (conn delta
        // -w) but gains 5 bytes of affinity.
        let edge_w = g.edges_of(0).next().unwrap().1;
        assert_eq!(table.gain(0, 0, 1), -edge_w + 5);
        // Vertex 0 is interior edge-wise only if its sole neighbour shares
        // its part — it does — yet the anchor makes it movable.
        assert!(!table.is_boundary(&a, 0));
        assert!(table.is_movable(&a, 0));
    }
}
