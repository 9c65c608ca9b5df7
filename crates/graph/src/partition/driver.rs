//! The multilevel driver: coarsen → initial partition → uncoarsen + refine.
//!
//! One function runs all three [`PartitionScheme`]s; the scheme decides which
//! stage runs at each of the three steps:
//!
//! | scheme | coarsening | initial partition | refinement |
//! |---|---|---|---|
//! | `MultilevelKWay` | heavy-edge matching | recursive bisection | k-way FM |
//! | `RecursiveBisection` | none | recursive bisection | k-way FM |
//! | `BfsGrowing` | none | BFS growing | none |

use rand::rngs::StdRng;

use crate::csr::CsrGraph;
use crate::partition::affinity::AffinityCosts;
use crate::partition::{coarsen, initial, refine};
use crate::partition::{PartitionConfig, PartitionCtx, PartitionScheme};

/// Partitions `graph` (more vertices than parts, more than one part) and
/// returns one part id per vertex.
///
/// With `affinity`, the per-vertex socket-affinity rows are summed through
/// every coarsening level (so the coarsest graph still feels the anchors of
/// the vertices it absorbed), the initial parts are relabelled towards them
/// and the refiner adds them to its move gains at each uncoarsening step.
/// Without, the run — including its RNG stream — is the plain edge-cut one.
///
/// Every stage's scratch, the hierarchy's vectors, the per-level affinity
/// tables and the two projection buffers live in `ctx` and survive across
/// calls: a warmed call on a same-sized unanchored window allocates only the
/// returned assignment. The context never influences the result.
pub(super) fn run(
    graph: &CsrGraph,
    config: &PartitionConfig,
    rng: &mut StdRng,
    affinity: Option<&AffinityCosts>,
    ctx: &mut PartitionCtx,
) -> Vec<u32> {
    use PartitionScheme::{BfsGrowing, MultilevelKWay, RecursiveBisection};
    let k = config.num_parts.max(1);

    // Phase 1: coarsen. Affinity rows follow the hierarchy: entry `i` is the
    // table for `levels[i].graph`. Without levels the initial partitioner
    // sees the input graph directly.
    let levels = match config.scheme {
        MultilevelKWay => {
            let target = config.coarsen_until.max(4 * k);
            coarsen::coarsen_to_with(graph, target, rng, &mut ctx.coarsen)
        }
        RecursiveBisection | BfsGrowing => Vec::new(),
    };
    if let Some(aff) = affinity {
        if ctx.level_affinity.len() < levels.len() {
            ctx.level_affinity
                .resize_with(levels.len(), || AffinityCosts::zeros(0, k));
        }
        for (i, level) in levels.iter().enumerate() {
            let (projected, rest) = ctx.level_affinity.split_at_mut(i);
            let finer = projected.last().unwrap_or(aff);
            finer.project_to_coarse_into(
                &level.fine_to_coarse,
                level.graph.num_vertices(),
                &mut rest[0],
            );
        }
    }
    let level_affinity = &ctx.level_affinity;
    let affinity_at = |i: usize| -> Option<&AffinityCosts> {
        affinity?;
        if i == 0 {
            affinity
        } else {
            Some(&level_affinity[i - 1])
        }
    };
    let scratch = &mut ctx.refine;
    let mut refine = |graph: &CsrGraph, assignment: &mut [u32], i: usize| match config.scheme {
        MultilevelKWay | RecursiveBisection => {
            refine::refine_kway_anchored_with(graph, assignment, config, affinity_at(i), scratch);
        }
        // The naive baseline deliberately skips refinement.
        BfsGrowing => {}
    };

    // Phase 2: initial partition of the coarsest graph. The initial
    // partitioner's part labels are arbitrary, but anchors name *specific*
    // parts — so first relabel the parts to maximise anchor agreement (a
    // pure permutation: the cut is label-invariant, the affinity term is
    // not), then refine.
    let coarsest: &CsrGraph = levels.last().map(|l| &l.graph).unwrap_or(graph);
    // Both projection buffers take the finest level's size up front: which
    // of the two ends up holding it depends on the parity of the hierarchy's
    // depth.
    let mut assignment = std::mem::take(&mut ctx.assignment);
    assignment.clear();
    assignment.reserve(graph.num_vertices());
    ctx.projection.clear();
    ctx.projection.reserve(graph.num_vertices());
    match config.scheme {
        MultilevelKWay | RecursiveBisection => initial::recursive_bisection_with(
            coarsest,
            k,
            config.imbalance,
            rng,
            &mut ctx.initial,
            &mut assignment,
        ),
        BfsGrowing => initial::bfs_growing(coarsest, k, rng, &mut assignment),
    }
    if let Some(aff) = affinity_at(levels.len()) {
        align_parts_to_anchors(&mut assignment, aff, k, &mut ctx.align);
    }
    refine(coarsest, &mut assignment, levels.len());

    // Phase 3: uncoarsen and refine level by level. The projection writes
    // into the context's buffer and swaps it with the assignment, so the two
    // vectors ping-pong across levels (and across runs sharing the context)
    // instead of allocating one fresh vector per level.
    for i in (0..levels.len()).rev() {
        let finer: &CsrGraph = if i == 0 { graph } else { &levels[i - 1].graph };
        ctx.projection.clear();
        ctx.projection.extend(
            levels[i]
                .fine_to_coarse
                .iter()
                .map(|&c| assignment[c as usize]),
        );
        std::mem::swap(&mut assignment, &mut ctx.projection);
        refine(finer, &mut assignment, i);
    }
    // Both ping-pong buffers stay behind, with their capacity; the caller
    // gets an exact-size copy.
    let result = assignment.clone();
    ctx.assignment = assignment;
    ctx.coarsen.recycle(levels);
    result
}

/// Relabels the parts of `assignment` to maximise agreement with the
/// affinity anchors. Part labels coming out of an initial partitioner are
/// arbitrary, but anchors name specific parts; since the edge cut is
/// invariant under a permutation of the labels, matching each part to the
/// anchor label its vertices pull towards is free cut-wise and lets the
/// refiner start from an anchor-consistent labelling instead of fighting a
/// wholesale flip one vertex at a time. Greedy maximum-weight matching,
/// deterministic.
fn align_parts_to_anchors(
    assignment: &mut [u32],
    affinity: &AffinityCosts,
    k: usize,
    scratch: &mut AlignScratch,
) {
    let AlignScratch {
        agreement,
        entries,
        label_of,
        label_taken,
    } = scratch;
    // agreement[p * k + q] = total affinity towards label q of the vertices
    // currently in part p.
    agreement.clear();
    agreement.resize(k * k, 0);
    for (v, &p) in assignment.iter().enumerate() {
        for (q, &c) in affinity.row(v as u32).iter().enumerate() {
            agreement[p as usize * k + q] += c;
        }
    }
    entries.clear();
    for p in 0..k {
        for q in 0..k {
            entries.push((agreement[p * k + q], p, q));
        }
    }
    // Highest agreement first; ties resolve towards the identity mapping
    // (diagonal entries first, then lowest indices) so an anchor-free part
    // keeps its label. No two entries compare equal, so the unstable sort
    // (which never allocates) has one possible outcome.
    entries.sort_unstable_by(|a, b| {
        b.0.cmp(&a.0)
            .then_with(|| (a.1 != a.2).cmp(&(b.1 != b.2)))
            .then_with(|| a.1.cmp(&b.1))
            .then_with(|| a.2.cmp(&b.2))
    });
    label_of.clear();
    label_of.resize(k, usize::MAX);
    label_taken.clear();
    label_taken.resize(k, false);
    let mut matched = 0;
    for &(_, p, q) in entries.iter() {
        if label_of[p] != usize::MAX || label_taken[q] {
            continue;
        }
        label_of[p] = q;
        label_taken[q] = true;
        matched += 1;
        if matched == k {
            break;
        }
    }
    if label_of.iter().enumerate().all(|(p, &q)| p == q) {
        return;
    }
    for a in assignment.iter_mut() {
        *a = label_of[*a as usize] as u32;
    }
}

/// The four `k`-sized tables of [`align_parts_to_anchors`], kept in the
/// [`PartitionCtx`] so an anchored call allocates only its result.
#[derive(Debug, Default)]
pub(super) struct AlignScratch {
    agreement: Vec<i64>,
    entries: Vec<(i64, usize, usize)>,
    label_of: Vec<usize>,
    label_taken: Vec<bool>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::metrics;
    use crate::partition::Partition;
    use rand::SeedableRng;

    fn run_scheme(g: &CsrGraph, cfg: &PartitionConfig) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        run(g, cfg, &mut rng, None, &mut PartitionCtx::default())
    }

    #[test]
    fn multilevel_partitions_large_grid_well() {
        let g = generators::grid_2d(32, 32, 1);
        let cfg = PartitionConfig::new(8);
        let a = run_scheme(&g, &cfg);
        let p = Partition::from_assignment(a, 8);
        let q = metrics::quality(&g, &p);
        assert_eq!(q.nonempty_parts, 8);
        assert!(q.imbalance <= 1.0 + cfg.imbalance + 1e-9);
        // A random 8-way split of a 32x32 grid cuts ~87.5% of the 1984 edges;
        // a decent partitioner should stay far below that.
        assert!(
            q.edge_cut < 600,
            "edge cut {} is too high for a 32x32 grid",
            q.edge_cut
        );
    }

    #[test]
    fn multilevel_handles_heavy_weighted_edges() {
        let g = generators::layered_dag_skeleton(30, 16, 2, 1 << 16);
        let cfg = PartitionConfig::new(4);
        let a = run_scheme(&g, &cfg);
        let p = Partition::from_assignment(a, 4);
        assert!(p.imbalance(&g) <= 1.0 + cfg.imbalance + 1e-9);
        assert!(metrics::part_weights(&g, &p).iter().all(|&w| w > 0));
    }

    #[test]
    fn multilevel_on_graph_smaller_than_target() {
        // Graph already below the coarsening threshold: driver must still work.
        let g = generators::grid_2d(4, 4, 1);
        let cfg = PartitionConfig::new(4).with_seed(1);
        let a = run_scheme(&g, &cfg);
        assert_eq!(a.len(), 16);
        assert!(a.iter().all(|&p| p < 4));
    }

    #[test]
    fn no_coarsening_schemes_skip_the_hierarchy() {
        let g = generators::grid_2d(16, 16, 1);
        for scheme in [
            PartitionScheme::RecursiveBisection,
            PartitionScheme::BfsGrowing,
        ] {
            let cfg = PartitionConfig::new(4).with_scheme(scheme);
            let a = run_scheme(&g, &cfg);
            assert_eq!(a.len(), 256);
            assert!(a.iter().all(|&p| p < 4), "{scheme:?}");
        }
    }
}
