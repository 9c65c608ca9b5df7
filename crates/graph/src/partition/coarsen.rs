//! Coarsening via heavy-edge matching (HEM).
//!
//! Edges are considered globally from heaviest to lightest (equal-weight
//! edges in random order), and an edge is taken into the matching whenever
//! both endpoints are still unmatched. This greedy-by-weight variant is
//! stronger than the classic visit-each-vertex HEM: a locally heaviest edge
//! can never be pre-empted by a lighter edge that merely happened to be
//! visited earlier. Matched pairs collapse into a single coarse vertex whose
//! weight is the sum of the pair's weights; parallel edges between coarse
//! vertices are merged by adding their weights. This is the standard first
//! phase of METIS/SCOTCH-style multilevel partitioning: it preserves heavy
//! edges inside coarse vertices so the initial partition never has to cut
//! them.
//!
//! The whole hierarchy is built through one [`CoarsenWorkspace`], so the
//! edge list, matching flags and contraction scratch arrays are allocated
//! once and reused across levels — on 100k+ vertex windows the allocator
//! otherwise dominates the matching itself.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use crate::csr::CsrGraph;

/// One level of the coarsening hierarchy.
#[derive(Clone, Debug)]
pub(crate) struct CoarseLevel {
    /// The coarser graph.
    pub graph: CsrGraph,
    /// For every vertex of the *finer* graph, the coarse vertex it collapsed
    /// into.
    pub(crate) fine_to_coarse: Vec<u32>,
}

/// Scratch buffers shared by every level of one coarsening run — and, when
/// the workspace lives in a [`crate::partition::PartitionCtx`], by every run
/// through that context. All buffers grow to the size of the finest graph
/// once and shrink logically (via `clear`/truncation) on the coarser levels.
#[derive(Debug, Default)]
pub(crate) struct CoarsenWorkspace {
    /// `(weight, v, u)` of the current level's edges, in post-shuffle order.
    edges: Vec<(i64, u32, u32)>,
    /// The same edges heaviest-first, equal weights in post-shuffle order:
    /// the order the matching visits them in.
    ordered: Vec<(i64, u32, u32)>,
    /// Distinct edge weights of the current level, ascending.
    weights: Vec<i64>,
    /// Weight bucket of every entry of `edges` (0 = heaviest).
    buckets: Vec<u32>,
    /// Write cursor per weight bucket while `ordered` is filled.
    cursor: Vec<usize>,
    /// Matching of the current level (`match_of[v] == v` means unmatched).
    match_of: Vec<u32>,
    /// Contraction scratch: representative (smallest) fine constituent of
    /// every coarse vertex; the second constituent, if any, is
    /// `match_of[rep]`.
    rep: Vec<u32>,
    /// Contraction scratch, pass 1: slot of a coarse neighbour in the staged
    /// row under construction, or `usize::MAX` when it has not been seen for
    /// the current coarse vertex. Pass 2: write cursor of every coarse row.
    coarse_pos: Vec<usize>,
    /// Contraction scratch: the coarse rows as pass 1 merges them, neighbours
    /// in first-seen order; pass 2 transposes them into the level's own
    /// (sorted) adjacency arrays. Sized by the finest level, so a warmed
    /// workspace contracts without allocating them.
    staged_adjncy: Vec<u32>,
    staged_adjwgt: Vec<i64>,
    /// Vectors of recycled hierarchies ([`CoarsenWorkspace::recycle`]), taken
    /// back in the order a contraction needs them so a same-sized window
    /// finds every capacity it needs.
    pool_u32: Vec<Vec<u32>>,
    pool_i64: Vec<Vec<i64>>,
    pool_usize: Vec<Vec<usize>>,
    /// The emptied outer vector of the last recycled hierarchy.
    levels: Vec<CoarseLevel>,
}

impl CoarsenWorkspace {
    /// Hands the vectors of a finished hierarchy back to the workspace: the
    /// next coarsening run through it builds its levels in them instead of
    /// allocating six fresh vectors per level. Any hierarchy may be recycled
    /// (the vectors are only capacity), and never recycling is fine too.
    pub(crate) fn recycle(&mut self, mut levels: Vec<CoarseLevel>) {
        // Coarsest level first and, within a level, in reverse order of use:
        // the pools are stacks, so the next run pops the finest level's
        // (largest) vectors first, each for the role it had before.
        for level in levels.drain(..).rev() {
            self.recycle_level(level);
        }
        self.levels = levels;
    }

    fn recycle_level(&mut self, level: CoarseLevel) {
        // A hierarchy at least halves per level, so no run takes back more
        // than this; the cap keeps a workspace that is only ever handed
        // hierarchies from hoarding them.
        const MAX_POOLED_LEVELS: usize = 64;
        if self.pool_usize.len() >= MAX_POOLED_LEVELS {
            return;
        }
        let (xadj, adjncy, adjwgt, vwgt) = level.graph.into_parts();
        self.pool_i64.push(adjwgt);
        self.pool_u32.push(adjncy);
        self.pool_usize.push(xadj);
        self.pool_i64.push(vwgt);
        self.pool_u32.push(level.fine_to_coarse);
    }
}

/// An empty vector from `pool` (keeping its capacity), or a fresh one.
fn pooled<T>(pool: &mut Vec<Vec<T>>) -> Vec<T> {
    let mut v = pool.pop().unwrap_or_default();
    v.clear();
    v
}

/// Computes a heavy-edge matching of `graph` into the workspace's
/// `match_of` buffer and returns a reference to it: `match_of[v] == v` means
/// `v` stayed single.
fn heavy_edge_matching_into<'a>(
    graph: &CsrGraph,
    rng: &mut StdRng,
    ws: &'a mut CoarsenWorkspace,
) -> &'a [u32] {
    let n = graph.num_vertices();
    ws.match_of.clear();
    ws.match_of.extend(0..n as u32);
    ws.edges.clear();
    for v in 0..n as u32 {
        for (u, w) in graph.edges_of(v) {
            if u > v {
                ws.edges.push((w, v, u));
            }
        }
    }
    ws.edges.shuffle(rng);
    order_heaviest_first(ws);
    for &(_, v, u) in ws.ordered.iter() {
        if ws.match_of[v as usize] == v && ws.match_of[u as usize] == u {
            ws.match_of[v as usize] = u;
            ws.match_of[u as usize] = v;
        }
    }
    &ws.match_of
}

/// Fills `ws.ordered` with `ws.edges` sorted heaviest-first, equal-weight
/// edges keeping their (post-shuffle) order: a stable counting sort over the
/// distinct weights. That is the order a comparison sort on `(weight
/// descending, post-shuffle position ascending)` produces, by the definition
/// of stability. A window has a handful of distinct edge weights (2–8 on the
/// levels that hold most edges, a few dozen at the coarsest), so this costs
/// three passes per edge where the comparison sort cost `log E` comparisons
/// per edge — and it needs no merge buffer, so a warmed workspace orders
/// without allocating.
fn order_heaviest_first(ws: &mut CoarsenWorkspace) {
    let CoarsenWorkspace {
        edges,
        ordered,
        weights,
        buckets,
        cursor,
        ..
    } = ws;
    ordered.clear();
    if edges.is_empty() {
        return;
    }
    weights.clear();
    weights.extend(edges.iter().map(|e| e.0));
    weights.sort_unstable();
    weights.dedup();
    let heaviest = weights.len() - 1;
    buckets.clear();
    buckets.extend(
        edges
            .iter()
            .map(|e| (heaviest - weights.partition_point(|&w| w < e.0)) as u32),
    );
    cursor.clear();
    cursor.resize(weights.len() + 1, 0);
    for &b in buckets.iter() {
        cursor[b as usize + 1] += 1;
    }
    for b in 1..cursor.len() {
        cursor[b] += cursor[b - 1];
    }
    ordered.resize(edges.len(), (0, 0, 0));
    for (&e, &b) in edges.iter().zip(buckets.iter()) {
        let slot = &mut cursor[b as usize];
        ordered[*slot] = e;
        *slot += 1;
    }
}

/// Collapses a matching into a coarser graph, merging parallel edges and
/// dropping self loops, using (and reusing) the workspace's scratch arrays.
///
/// Coarse vertices are numbered in order of their smallest fine constituent
/// and the graph is built straight into CSR form in two linear passes.
/// Pass 1 merges each coarse row through a dense position table into the
/// workspace's staging arrays, neighbours in first-seen order. Pass 2 walks
/// the staged rows in ascending `c` and appends `(c, w)` to row `cu` for
/// every staged `(cu, w)` of row `c`. A symmetric graph stages `(cu, w)` in
/// row `c` exactly when it stages `(c, w)` in row `cu`, so pass 2 writes
/// into every row the entries pass 1 staged for it — same row boundaries —
/// and writes them in ascending order of neighbour: the sorted, merged
/// adjacency an edge-map-based builder produces, without a comparison.
fn contract_into(graph: &CsrGraph, match_of: &[u32], ws: &mut CoarsenWorkspace) -> CoarseLevel {
    let n = graph.num_vertices();
    let mut fine_to_coarse = pooled(&mut ws.pool_u32);
    fine_to_coarse.resize(n, u32::MAX);
    ws.rep.clear();
    for v in 0..n as u32 {
        if fine_to_coarse[v as usize] != u32::MAX {
            continue;
        }
        let m = match_of[v as usize];
        let next = ws.rep.len() as u32;
        fine_to_coarse[v as usize] = next;
        if m != v {
            fine_to_coarse[m as usize] = next;
        }
        ws.rep.push(v);
    }
    let coarse_n = ws.rep.len();

    // Vertex weights are conserved by contraction.
    let mut cvw = pooled(&mut ws.pool_i64);
    cvw.resize(coarse_n, 0);
    for v in 0..n as u32 {
        cvw[fine_to_coarse[v as usize] as usize] += graph.vertex_weight(v);
    }
    for w in &mut cvw {
        *w = (*w).max(1);
    }

    ws.coarse_pos.clear();
    ws.coarse_pos.resize(coarse_n, usize::MAX);

    let mut xadj = pooled(&mut ws.pool_usize);
    xadj.reserve(coarse_n + 1);
    xadj.push(0usize);
    // The coarse graph has at most as many (directed) edges as the fine one.
    // One slot past that bound swallows the edges that collapse inside a
    // coarse vertex, and the weights start at zero, so the merge below is
    // the same four stores for a first-seen neighbour, a repeated one and a
    // collapsed edge: no branch for the predictor to miss on every other
    // edge.
    let bound = graph.num_edges() * 2;
    // A neighbour slot is written before it is read: only the weights are re-zeroed.
    ws.staged_adjncy.resize(bound + 1, 0);
    ws.staged_adjwgt.clear();
    ws.staged_adjwgt.resize(bound + 1, 0);
    let mut len = 0usize;
    for (c, &first) in ws.rep.iter().enumerate() {
        let start = len;
        let second = match_of[first as usize];
        ws.coarse_pos[c] = bound;
        let mut constituent = first;
        loop {
            for (u, w) in graph.edges_of(constituent) {
                let cu = fine_to_coarse[u as usize];
                let seen = ws.coarse_pos[cu as usize];
                let fresh = seen == usize::MAX;
                let slot = if fresh { len } else { seen };
                ws.coarse_pos[cu as usize] = slot;
                ws.staged_adjncy[slot] = cu;
                ws.staged_adjwgt[slot] += w;
                len += fresh as usize;
            }
            if constituent == second {
                break;
            }
            constituent = second;
        }
        ws.coarse_pos[c] = usize::MAX;
        for &cu in &ws.staged_adjncy[start..len] {
            ws.coarse_pos[cu as usize] = usize::MAX;
        }
        xadj.push(len);
    }

    // The position table is free again: it becomes each row's write cursor.
    let cursor = &mut ws.coarse_pos;
    cursor.copy_from_slice(&xadj[..coarse_n]);
    let mut adjncy = pooled(&mut ws.pool_u32);
    adjncy.resize(len, 0);
    let mut adjwgt = pooled(&mut ws.pool_i64);
    adjwgt.resize(len, 0);
    for (c, row) in xadj.windows(2).enumerate() {
        let staged = ws.staged_adjncy[row[0]..row[1]]
            .iter()
            .zip(&ws.staged_adjwgt[row[0]..row[1]]);
        for (&cu, &w) in staged {
            let slot = cursor[cu as usize];
            adjncy[slot] = c as u32;
            adjwgt[slot] = w;
            cursor[cu as usize] = slot + 1;
        }
    }
    // An asymmetric input (only `from_parts_unchecked` can build one) lands
    // entries in the wrong rows; the hierarchy would be silently wrong. (One
    // that overruns the arrays is stopped by the index check above.)
    assert!(
        cursor.iter().eq(&xadj[1..]),
        "contraction of a graph whose adjacency is not symmetric: a coarse row \
         received a different number of entries than it sent"
    );

    CoarseLevel {
        graph: CsrGraph::from_parts_unchecked(xadj, adjncy, adjwgt, cvw),
        fine_to_coarse,
    }
}

/// One full coarsening step: match then contract.
fn coarsen_once_with(graph: &CsrGraph, rng: &mut StdRng, ws: &mut CoarsenWorkspace) -> CoarseLevel {
    heavy_edge_matching_into(graph, rng, ws);
    let match_of = std::mem::take(&mut ws.match_of);
    let level = contract_into(graph, &match_of, ws);
    ws.match_of = match_of;
    level
}

/// Repeatedly coarsens `graph` until it has at most `target_vertices`
/// vertices or coarsening stops making progress (shrink factor > 0.95).
/// Returns the hierarchy from finest (first) to coarsest (last). The original
/// graph is *not* included.
///
/// The caller owns the workspace, so repeated partitioning runs (e.g. the
/// per-window calls of RGP's repartitioning mode) reuse the matching and
/// contraction buffers instead of reallocating them per window; it is scratch
/// state only and never influences the result. Hand the hierarchy back with
/// [`CoarsenWorkspace::recycle`] once it is no longer needed and the next run
/// reuses its vectors too.
pub(crate) fn coarsen_to_with(
    graph: &CsrGraph,
    target_vertices: usize,
    rng: &mut StdRng,
    ws: &mut CoarsenWorkspace,
) -> Vec<CoarseLevel> {
    let mut levels = std::mem::take(&mut ws.levels);
    loop {
        let next = {
            let current: &CsrGraph = levels.last().map(|l| &l.graph).unwrap_or(graph);
            if current.num_vertices() <= target_vertices.max(2) {
                break;
            }
            let level = coarsen_once_with(current, rng, ws);
            let shrink = level.graph.num_vertices() as f64 / current.num_vertices() as f64;
            if shrink > 0.95 {
                // Matching found almost nothing to merge (e.g. graph is mostly
                // isolated vertices); further coarsening is pointless. The
                // discarded level was built last, so its vectors go back
                // under the ones the kept levels will be recycled into.
                ws.recycle_level(level);
                break;
            }
            level
        };
        levels.push(next);
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The specification of the edge order: shuffle, then visit by
        /// `(weight descending, post-shuffle position ascending)`. With at
        /// most three distinct weights nearly every comparison is a tie.
        #[test]
        fn matching_visits_edges_by_weight_then_shuffle_position(
            n in 2usize..400,
            avg_degree in 1usize..12,
            max_weight in 1u32..4,
            seed in 0u64..10_000,
        ) {
            let g = generators::random_graph(n, avg_degree, i64::from(max_weight), seed);
            let mut edges: Vec<(i64, u32, u32)> = (0..n as u32)
                .flat_map(|v| g.edges_of(v).filter(move |&(u, _)| u > v).map(move |(u, w)| (w, v, u)))
                .collect();
            edges.shuffle(&mut StdRng::seed_from_u64(seed));
            let mut order: Vec<usize> = (0..edges.len()).collect();
            order.sort_by_key(|&pos| (std::cmp::Reverse(edges[pos].0), pos));
            let mut expected: Vec<u32> = (0..n as u32).collect();
            for (_, v, u) in order.into_iter().map(|pos| edges[pos]) {
                if expected[v as usize] == v && expected[u as usize] == u {
                    expected[v as usize] = u;
                    expected[u as usize] = v;
                }
            }
            let mut ws = CoarsenWorkspace::default();
            let matching = heavy_edge_matching_into(&g, &mut StdRng::seed_from_u64(seed), &mut ws);
            prop_assert_eq!(matching, expected);
        }
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn matching_is_symmetric_and_valid() {
        let g = generators::grid_2d(8, 8, 1);
        let mut ws = CoarsenWorkspace::default();
        let m = heavy_edge_matching_into(&g, &mut rng(), &mut ws);
        for v in 0..g.num_vertices() as u32 {
            let u = m[v as usize];
            assert_eq!(m[u as usize], v, "matching must be an involution");
            if u != v {
                assert!(
                    g.neighbors(v).contains(&u),
                    "matched vertices must be adjacent"
                );
            }
        }
    }

    #[test]
    fn matching_prefers_heavy_edges() {
        // Path 0 -1- 1 -100- 2 -1- 3 : vertices 1 and 2 must match.
        let mut b = crate::csr::GraphBuilder::new(4);
        b.add_edge(0, 1, 1).add_edge(1, 2, 100).add_edge(2, 3, 1);
        let g = b.build();
        // Whatever the visit order, the heavy edge is chosen when either
        // endpoint is visited first.
        let mut ws = CoarsenWorkspace::default();
        let m = heavy_edge_matching_into(&g, &mut rng(), &mut ws);
        assert!(m[1] == 2 || m[2] == 1);
        assert_eq!(m[1], 2);
    }

    #[test]
    fn contraction_preserves_total_weights() {
        let g = generators::random_graph(200, 6, 10, 3);
        let level = coarsen_once_with(&g, &mut rng(), &mut CoarsenWorkspace::default());
        assert!(level.graph.num_vertices() < g.num_vertices());
        assert_eq!(
            level.graph.total_vertex_weight(),
            g.total_vertex_weight(),
            "vertex weight is conserved by contraction"
        );
        // Edge weight can only decrease (self-collapsed edges disappear).
        assert!(level.graph.total_edge_weight() <= g.total_edge_weight());
        assert!(level.graph.validate().is_ok());
        // Mapping covers every fine vertex and targets a valid coarse vertex.
        for &c in &level.fine_to_coarse {
            assert!((c as usize) < level.graph.num_vertices());
        }
    }

    /// The graph an edge-map builder produces for the same matching: merged
    /// duplicate edges, sorted adjacency.
    fn map_built(g: &CsrGraph, level: &CoarseLevel) -> CsrGraph {
        let mut b = crate::csr::GraphBuilder::new(level.graph.num_vertices());
        let mut cw = vec![0i64; level.graph.num_vertices()];
        for v in 0..g.num_vertices() as u32 {
            cw[level.fine_to_coarse[v as usize] as usize] += g.vertex_weight(v);
        }
        for (c, w) in cw.iter().enumerate() {
            b.set_vertex_weight(c as u32, (*w).max(1));
        }
        for v in 0..g.num_vertices() as u32 {
            for (u, w) in g.edges_of(v) {
                if u > v {
                    b.add_edge(
                        level.fine_to_coarse[v as usize],
                        level.fine_to_coarse[u as usize],
                        w,
                    );
                }
            }
        }
        b.build()
    }

    /// Longest coarse row any contraction case has produced.
    static LONGEST_ROW: AtomicUsize = AtomicUsize::new(0);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The two-pass contraction must produce exactly the graph an
        /// edge-map builder would: sparse rows and dense ones, few distinct
        /// weights (merged multi-edges tie) and many, three levels deep
        /// through one workspace so the later contractions run on merged
        /// weights, on staging arrays left dirty by a larger level and on
        /// recycled vectors.
        fn contraction_cases(
            n in 2usize..=400,
            avg_degree in 1usize..=40,
            few_weights in 1u32..=3,
            many_weights in 1u32..=50,
            many in 0u8..2,
            seed in 0u64..10_000,
        ) {
            let max_weight = if many == 1 { many_weights } else { few_weights };
            let g = generators::random_graph(n, avg_degree, i64::from(max_weight), seed);
            let mut ws = CoarsenWorkspace::default();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut levels: Vec<CoarseLevel> = Vec::new();
            for _ in 0..3 {
                let fine = levels.last().map_or(&g, |l| &l.graph);
                let level = coarsen_once_with(fine, &mut rng, &mut ws);
                prop_assert_eq!(&level.graph, &map_built(fine, &level));
                let rows = 0..level.graph.num_vertices() as u32;
                let longest = rows.map(|c| level.graph.neighbors(c).len()).max().unwrap_or(0);
                LONGEST_ROW.fetch_max(longest, Ordering::Relaxed);
                levels.push(level);
            }
            ws.recycle(levels);
            let again = coarsen_once_with(&g, &mut rng, &mut ws);
            prop_assert_eq!(&again.graph, &map_built(&g, &again));
        }
    }

    #[test]
    fn contraction_matches_map_built_graph() {
        contraction_cases();
        let longest = LONGEST_ROW.load(Ordering::Relaxed);
        assert!(
            longest > 24,
            "corpus no longer reaches rows longer than 24 (longest row {longest})"
        );
    }

    /// `from_parts_unchecked` validates in debug builds and stops the graph
    /// at construction; in release builds the contraction is the only check
    /// between an asymmetric graph and a wrong hierarchy.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "validate"))]
    #[cfg_attr(not(debug_assertions), should_panic(expected = "not symmetric"))]
    fn contracting_an_asymmetric_graph_panics() {
        // 0 -> 1 with no way back beside the edge 2 - 3, every vertex single:
        // row 0 sends an entry and receives none, row 1 receives one and
        // sends none.
        let g = CsrGraph::from_parts_unchecked(
            vec![0, 1, 1, 2, 3],
            vec![1, 3, 2],
            vec![5, 7, 7],
            vec![1, 1, 1, 1],
        );
        contract_into(&g, &[0, 1, 2, 3], &mut CoarsenWorkspace::default());
    }

    #[test]
    fn coarsen_to_reaches_target() {
        let g = generators::grid_2d(32, 32, 2);
        let levels = coarsen_to_with(&g, 64, &mut rng(), &mut CoarsenWorkspace::default());
        assert!(!levels.is_empty());
        let coarsest = &levels.last().unwrap().graph;
        assert!(coarsest.num_vertices() <= 64 || levels.len() > 4);
        // Hierarchy is strictly decreasing in size.
        let mut prev = g.num_vertices();
        for level in &levels {
            assert!(level.graph.num_vertices() < prev);
            prev = level.graph.num_vertices();
        }
    }

    #[test]
    fn coarsening_stops_on_isolated_vertices() {
        let g = crate::csr::GraphBuilder::new(100).build();
        let levels = coarsen_to_with(&g, 10, &mut rng(), &mut CoarsenWorkspace::default());
        assert!(levels.is_empty(), "no edges means nothing can be merged");
    }

    #[test]
    fn contract_handles_singletons() {
        // A triangle plus an isolated vertex: the isolated vertex survives.
        let mut b = crate::csr::GraphBuilder::new(4);
        b.add_edge(0, 1, 2).add_edge(1, 2, 2).add_edge(0, 2, 2);
        let g = b.build();
        let level = coarsen_once_with(&g, &mut rng(), &mut CoarsenWorkspace::default());
        assert_eq!(level.graph.total_vertex_weight(), 4);
        assert!(level.graph.num_vertices() >= 2);
    }
}
