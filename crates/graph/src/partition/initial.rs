//! Initial partitioning: greedy graph growing, recursive bisection and the
//! naive BFS baseline.

use rand::rngs::StdRng;
use rand::Rng;

use crate::csr::CsrGraph;

/// Reusable scratch of the bisection kernels: the per-bisection vertex flags,
/// gains, candidate list and seed-search BFS state, plus the vertex list
/// [`recursive_bisection_with`] splits in place. A recursive bisection into
/// `k` parts runs `k − 1` bisections, each of which used to allocate all of
/// these afresh. Pure scratch: results do not depend on what it held before.
#[derive(Debug, Default)]
pub(crate) struct BisectionScratch {
    in_subset: Vec<bool>,
    in_left: Vec<bool>,
    /// `gain[v]` = (weight to left) − (weight to right), only meaningful for
    /// candidates (subset vertices not yet in left); `i64::MIN` otherwise.
    gain: Vec<i64>,
    /// Compact list of vertices whose gain is set: the candidate scan walks
    /// this (boundary-sized) list instead of every vertex of the graph.
    cand: Vec<u32>,
    /// The left side, in the order it grew.
    left: Vec<u32>,
    seed: SeedScratch,
    vertices: Vec<u32>,
}

/// The seed search's candidate list and BFS state.
#[derive(Debug, Default)]
struct SeedScratch {
    remaining: Vec<u32>,
    visited: Vec<bool>,
    queue: std::collections::VecDeque<u32>,
}

/// Grows one side of a bisection of the vertex subset `vertices` until its
/// weight reaches `target_left`, preferring at each step the candidate most
/// strongly connected to the growing side (greedy graph growing, GGG).
///
/// `slack` is the fraction of `target_left` the split may deviate by: the
/// left side always grows to at least `target_left * (1 - slack)`, and keeps
/// growing up to `target_left * (1 + slack)` as long as the best candidate
/// still *reduces* the cut (positive gain). A natural cluster boundary just
/// past the proportional target is therefore respected instead of sliced
/// through. `slack = 0.0` reproduces the exact-target behaviour.
///
/// Works in place: reorders `vertices` into the left side (in the order it
/// grew) followed by the right side (in its original order) and returns the
/// split point. Both sides are non-empty as long as `vertices` has at least
/// two elements and `target_left` is positive and below the subset weight;
/// when one side comes out empty the slice is left exactly as it was and
/// `None` is returned (`scratch.left` then tells which side it was), so the
/// caller's fallback sees the original order.
fn bisect_in_place(
    graph: &CsrGraph,
    vertices: &mut [u32],
    target_left: i64,
    slack: f64,
    rng: &mut StdRng,
    scratch: &mut BisectionScratch,
) -> Option<usize> {
    let n_total = graph.num_vertices();
    let BisectionScratch {
        in_subset,
        in_left,
        gain,
        cand,
        left,
        seed,
        ..
    } = scratch;
    left.clear();
    if vertices.len() < 2 {
        left.extend_from_slice(vertices);
        return None;
    }
    in_subset.clear();
    in_subset.resize(n_total, false);
    for &v in vertices.iter() {
        in_subset[v as usize] = true;
    }
    let total: i64 = vertices.iter().map(|&v| graph.vertex_weight(v)).sum();
    let target_left = target_left.clamp(1, total - 1);
    let slack = slack.max(0.0);
    let min_left = ((target_left as f64) * (1.0 - slack)).floor() as i64;
    let min_left = min_left.clamp(1, target_left);
    let max_left = ((target_left as f64) * (1.0 + slack)).ceil() as i64;
    let max_left = max_left.clamp(target_left, total - 1);

    in_left.clear();
    in_left.resize(n_total, false);
    let mut left_weight = 0i64;
    gain.clear();
    gain.resize(n_total, i64::MIN);
    cand.clear();

    while left_weight < max_left {
        // Pick the best candidate among subset vertices adjacent to the left
        // side; if none exists (left is empty or its component is exhausted),
        // seed with a pseudo-peripheral vertex of the remaining subset.
        let candidate = best_candidate(gain, in_left, cand);
        let v = match candidate {
            Some(v) => v,
            None => match seed_vertex(graph, vertices, in_left, in_subset, rng, seed) {
                Some(v) => v,
                None => break,
            },
        };
        // Inside the slack band the mandatory growth is done: only keep
        // absorbing vertices that strictly reduce the cut (a fresh seed of a
        // disconnected component never does).
        if left_weight >= min_left && gain[v as usize] <= 0 {
            break;
        }
        // Adding v to the left may overshoot the target slightly; the
        // refinement phase restores exact balance; stopping early risks an
        // empty side.
        in_left[v as usize] = true;
        left_weight += graph.vertex_weight(v);
        left.push(v);
        gain[v as usize] = i64::MIN;
        // Update candidate gains around v.
        for (u, w) in graph.edges_of(v) {
            if !in_subset[u as usize] || in_left[u as usize] {
                continue;
            }
            if gain[u as usize] == i64::MIN {
                gain[u as usize] = initial_gain(graph, u, in_left, in_subset);
                cand.push(u);
            } else {
                // Edge (u, v) moved from the "right" side to the "left" side
                // of u's gain: +w for the left term, +w for removing it from
                // the right term.
                gain[u as usize] += 2 * w;
            }
        }
    }
    if left.is_empty() || left.len() == vertices.len() {
        return None;
    }
    // Compact the right side towards the end (back to front, so its order
    // is kept), then lay the left side down in front of it.
    let mut write = vertices.len();
    for read in (0..vertices.len()).rev() {
        let v = vertices[read];
        if !in_left[v as usize] {
            write -= 1;
            vertices[write] = v;
        }
    }
    vertices[..write].copy_from_slice(left);
    Some(write)
}

fn initial_gain(graph: &CsrGraph, v: u32, in_left: &[bool], in_subset: &[bool]) -> i64 {
    let mut g = 0i64;
    for (u, w) in graph.edges_of(v) {
        if !in_subset[u as usize] {
            continue;
        }
        if in_left[u as usize] {
            g += w;
        } else {
            g -= w;
        }
    }
    g
}

/// Scans the candidate list for the best `(gain desc, vertex asc)` entry,
/// dropping vertices that joined the left side on the way. The maximum over
/// a set does not depend on scan order, so the swap-removals leave the
/// selection identical to the previous full-vertex scan.
fn best_candidate(gain: &[i64], in_left: &[bool], cand: &mut Vec<u32>) -> Option<u32> {
    let mut best: Option<(i64, u32)> = None;
    let mut i = 0;
    while i < cand.len() {
        let v = cand[i];
        if in_left[v as usize] {
            cand.swap_remove(i);
            continue;
        }
        let g = gain[v as usize];
        match best {
            None => best = Some((g, v)),
            Some((bg, bv)) => {
                if g > bg || (g == bg && v < bv) {
                    best = Some((g, v));
                }
            }
        }
        i += 1;
    }
    best.map(|(_, v)| v)
}

/// Picks a pseudo-peripheral seed: a random unassigned subset vertex, then
/// the farthest vertex from it by BFS (restricted to the subset and to
/// unassigned vertices).
fn seed_vertex(
    graph: &CsrGraph,
    vertices: &[u32],
    in_left: &[bool],
    in_subset: &[bool],
    rng: &mut StdRng,
    scratch: &mut SeedScratch,
) -> Option<u32> {
    let SeedScratch {
        remaining,
        visited,
        queue,
    } = scratch;
    remaining.clear();
    remaining.extend(vertices.iter().copied().filter(|&v| !in_left[v as usize]));
    if remaining.is_empty() {
        return None;
    }
    let start = remaining[rng.gen_range(0..remaining.len())];
    // BFS to find the farthest reachable unassigned vertex.
    visited.clear();
    visited.resize(graph.num_vertices(), false);
    queue.clear();
    visited[start as usize] = true;
    queue.push_back(start);
    let mut last = start;
    while let Some(v) = queue.pop_front() {
        last = v;
        for &u in graph.neighbors(v) {
            if in_subset[u as usize] && !in_left[u as usize] && !visited[u as usize] {
                visited[u as usize] = true;
                queue.push_back(u);
            }
        }
    }
    Some(last)
}

/// Recursive bisection into `k` parts, written over `assignment` (one part
/// id per vertex, contiguous from 0).
///
/// The `imbalance` budget is honoured: it is split evenly across the
/// ~`log2(k)` bisection levels, and each greedy bisection may deviate from
/// its proportional target by that per-level slack when doing so cuts fewer
/// edges. The product of per-level deviations stays within the overall
/// budget (refinement then tightens balance further).
///
/// A call with a warmed [`BisectionScratch`] and a large enough `assignment`
/// does not allocate.
pub(crate) fn recursive_bisection_with(
    graph: &CsrGraph,
    k: usize,
    imbalance: f64,
    rng: &mut StdRng,
    scratch: &mut BisectionScratch,
    assignment: &mut Vec<u32>,
) {
    let n = graph.num_vertices();
    assignment.clear();
    assignment.resize(n, 0);
    let mut vertices = std::mem::take(&mut scratch.vertices);
    vertices.clear();
    vertices.extend(0..n as u32);
    // Distribute the budget over the bisection levels so the compounded
    // per-level deviations stay within `imbalance` overall:
    // (1 + slack)^levels = 1 + imbalance.
    let levels = k.next_power_of_two().trailing_zeros().max(1) as f64;
    let slack = (1.0 + imbalance.max(0.0)).powf(1.0 / levels) - 1.0;
    rb_recurse(graph, &mut vertices, k, 0, slack, rng, assignment, scratch);
    scratch.vertices = vertices;
}

#[allow(clippy::too_many_arguments)]
fn rb_recurse(
    graph: &CsrGraph,
    vertices: &mut [u32],
    k: usize,
    part_offset: u32,
    slack: f64,
    rng: &mut StdRng,
    assignment: &mut [u32],
    scratch: &mut BisectionScratch,
) {
    if k <= 1 || vertices.len() <= 1 {
        for &v in vertices.iter() {
            assignment[v as usize] = part_offset;
        }
        return;
    }
    let k_left = k.div_ceil(2);
    let total: i64 = vertices.iter().map(|&v| graph.vertex_weight(v)).sum();
    let target_left = ((total as f64) * (k_left as f64) / (k as f64)).round() as i64;
    // Guard against degenerate splits on pathological graphs: fall back to a
    // weight-balanced split of the vertex list.
    let split = bisect_in_place(graph, vertices, target_left, slack, rng, scratch)
        .unwrap_or_else(|| split_by_weight(graph, vertices, target_left));
    let (left, right) = vertices.split_at_mut(split);
    rb_recurse(
        graph,
        left,
        k_left,
        part_offset,
        slack,
        rng,
        assignment,
        scratch,
    );
    rb_recurse(
        graph,
        right,
        k - k_left,
        part_offset + k_left as u32,
        slack,
        rng,
        assignment,
        scratch,
    );
}

/// The point at which the prefix of `vertices` first weighs `target_left`,
/// moved so that neither side is empty when there are two vertices to share.
fn split_by_weight(graph: &CsrGraph, vertices: &[u32], target_left: i64) -> usize {
    let mut acc = 0i64;
    let mut split = 0;
    while split < vertices.len() && acc < target_left {
        acc += graph.vertex_weight(vertices[split]);
        split += 1;
    }
    if split == 0 {
        1
    } else if split == vertices.len() && split > 1 {
        split - 1
    } else {
        split
    }
}

/// Naive baseline: breadth-first growth from random seeds, ignoring edge
/// weights entirely. Parts are contiguous chunks of the BFS order balanced by
/// vertex weight, written over `assignment`. This is the "simple heuristic"
/// the paper contrasts graph partitioning against, and the ABL-PART ablation
/// baseline.
pub(crate) fn bfs_growing(graph: &CsrGraph, k: usize, rng: &mut StdRng, assignment: &mut Vec<u32>) {
    let n = graph.num_vertices();
    assignment.clear();
    assignment.resize(n, 0);
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    while order.len() < n {
        // Start a BFS from a random unvisited vertex.
        let unvisited: Vec<u32> = (0..n as u32).filter(|&v| !visited[v as usize]).collect();
        let start = unvisited[rng.gen_range(0..unvisited.len())];
        visited[start as usize] = true;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &u in graph.neighbors(v) {
                if !visited[u as usize] {
                    visited[u as usize] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    // Chop the order into k chunks of roughly equal vertex weight.
    let total = graph.total_vertex_weight();
    let ideal = total as f64 / k as f64;
    let mut acc = 0i64;
    let mut part = 0u32;
    for &v in &order {
        if (acc as f64) >= ideal * (part as f64 + 1.0) && (part as usize) < k - 1 {
            part += 1;
        }
        assignment[v as usize] = part;
        acc += graph.vertex_weight(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::metrics;
    use crate::partition::Partition;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    /// [`bisect_in_place`] on a copy, as `(left, right)` vertex sets: `left`
    /// in the order it grew, `right` in the order of `vertices`.
    fn greedy_bisection(
        graph: &CsrGraph,
        vertices: &[u32],
        target_left: i64,
        slack: f64,
        rng: &mut StdRng,
    ) -> (Vec<u32>, Vec<u32>) {
        let mut order = vertices.to_vec();
        let mut scratch = BisectionScratch::default();
        match bisect_in_place(graph, &mut order, target_left, slack, rng, &mut scratch) {
            Some(split) => {
                let right = order.split_off(split);
                (order, right)
            }
            // One side came out empty: `order` is untouched.
            None if scratch.left.is_empty() => (Vec::new(), order),
            None => (scratch.left, Vec::new()),
        }
    }

    fn recursive_bisection(g: &CsrGraph, k: usize, imbalance: f64) -> Vec<u32> {
        let mut a = Vec::new();
        let mut scratch = BisectionScratch::default();
        recursive_bisection_with(g, k, imbalance, &mut rng(), &mut scratch, &mut a);
        a
    }

    #[test]
    fn greedy_bisection_splits_clusters() {
        let g = generators::two_clusters(6, 20);
        let vertices: Vec<u32> = (0..12).collect();
        let (left, right) = greedy_bisection(&g, &vertices, 6, 0.0, &mut rng());
        assert_eq!(left.len(), 6);
        assert_eq!(right.len(), 6);
        // The left side must be exactly one of the clusters.
        let mut l = left.clone();
        l.sort_unstable();
        assert!(l == (0..6).collect::<Vec<u32>>() || l == (6..12).collect::<Vec<u32>>());
    }

    #[test]
    fn greedy_bisection_handles_subsets() {
        let g = generators::path(10);
        // Bisect only the even vertices (no edges among them).
        let vertices: Vec<u32> = (0..10).filter(|v| v % 2 == 0).collect();
        let (left, right) = greedy_bisection(&g, &vertices, 2, 0.0, &mut rng());
        assert_eq!(left.len() + right.len(), 5);
        assert!(!left.is_empty());
        assert!(!right.is_empty());
    }

    #[test]
    fn slack_lets_the_split_settle_on_a_cluster_boundary() {
        // Two 6-vertex clusters joined by one light edge. An exact target of
        // 5 forces the split through a cluster (cutting heavy edges); a 20%
        // slack lets the left side absorb the 6th vertex and cut only the
        // light bridge.
        let g = generators::two_clusters(6, 20);
        let vertices: Vec<u32> = (0..12).collect();
        let (exact, _) = greedy_bisection(&g, &vertices, 5, 0.0, &mut rng());
        assert_eq!(exact.len(), 5, "exact target must stop at weight 5");
        let (loose, right) = greedy_bisection(&g, &vertices, 5, 0.2, &mut rng());
        assert_eq!(loose.len(), 6, "slack should settle on the cluster");
        let mut l = loose.clone();
        l.sort_unstable();
        assert!(l == (0..6).collect::<Vec<u32>>() || l == (6..12).collect::<Vec<u32>>());
        assert_eq!(right.len(), 6);
    }

    #[test]
    fn slack_does_not_absorb_cut_increasing_vertices() {
        // A uniform path has no cluster boundary: every extra vertex beyond
        // the target has non-positive gain, so slack must not grow the left
        // side past the mandatory minimum.
        let g = generators::path(10);
        let vertices: Vec<u32> = (0..10).collect();
        let (left, _) = greedy_bisection(&g, &vertices, 5, 0.4, &mut rng());
        // min_left = 3, and past it only positive-gain vertices are taken;
        // on a path the frontier vertex always has gain <= 0 once min_left
        // is reached.
        assert!(left.len() <= 5, "slack over-grew the left side: {left:?}");
        assert!(!left.is_empty());
    }

    #[test]
    fn recursive_bisection_stays_within_the_imbalance_budget() {
        let g = generators::grid_2d(16, 16, 1);
        for k in [2usize, 4, 8] {
            for imbalance in [0.05f64, 0.10, 0.30] {
                let a = recursive_bisection(&g, k, imbalance);
                let p = Partition::from_assignment(a, k);
                let weights = metrics::part_weights(&g, &p);
                let ideal = g.total_vertex_weight() as f64 / k as f64;
                let max = *weights.iter().max().unwrap() as f64;
                // One unit of integer-rounding overshoot per bisection level.
                let levels = (k.next_power_of_two().trailing_zeros().max(1)) as f64;
                assert!(
                    max <= ideal * (1.0 + imbalance) + levels,
                    "k={k} imbalance={imbalance}: max part {max} vs ideal {ideal}"
                );
            }
        }
    }

    #[test]
    fn recursive_bisection_produces_k_parts() {
        let g = generators::grid_2d(12, 12, 1);
        for k in [2, 3, 4, 6, 8] {
            let a = recursive_bisection(&g, k, 0.1);
            let p = Partition::from_assignment(a, k);
            let weights = metrics::part_weights(&g, &p);
            assert_eq!(weights.len(), k);
            assert!(weights.iter().all(|&w| w > 0), "k={k}: empty part");
            let imb = metrics::imbalance(&g, &p);
            assert!(imb < 1.6, "k={k}: initial imbalance {imb} is unreasonable");
        }
    }

    #[test]
    fn recursive_bisection_on_disconnected_graph() {
        let mut b = crate::csr::GraphBuilder::new(8);
        b.add_edge(0, 1, 1).add_edge(2, 3, 1);
        b.add_edge(4, 5, 1).add_edge(6, 7, 1);
        let g = b.build();
        let a = recursive_bisection(&g, 4, 0.1);
        let p = Partition::from_assignment(a, 4);
        let weights = metrics::part_weights(&g, &p);
        assert!(weights.iter().all(|&w| w > 0));
    }

    #[test]
    fn bfs_growing_is_balanced_but_weight_oblivious() {
        let g = generators::grid_2d(10, 10, 1);
        let mut a = Vec::new();
        bfs_growing(&g, 4, &mut rng(), &mut a);
        let p = Partition::from_assignment(a, 4);
        let weights = metrics::part_weights(&g, &p);
        assert_eq!(weights.iter().sum::<i64>(), 100);
        let imb = metrics::imbalance(&g, &p);
        assert!(
            imb < 1.3,
            "BFS chunks should be roughly balanced, got {imb}"
        );
    }

    #[test]
    fn bfs_growing_covers_disconnected_graphs() {
        let g = crate::csr::GraphBuilder::new(17).build();
        let mut a = Vec::new();
        bfs_growing(&g, 4, &mut rng(), &mut a);
        assert_eq!(a.len(), 17);
        assert!(a.iter().all(|&p| p < 4));
    }

    #[test]
    fn single_vertex_subset() {
        let g = generators::path(3);
        let (l, r) = greedy_bisection(&g, &[1], 1, 0.1, &mut rng());
        assert_eq!(l, vec![1]);
        assert!(r.is_empty());
    }
}
