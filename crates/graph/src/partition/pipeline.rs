//! The pluggable multilevel pipeline: every partitioning scheme is a
//! composition of three stage traits, driven by [`MultilevelPipeline`].
//!
//! * [`Coarsener`] — builds the hierarchy of successively smaller graphs
//!   (heavy-edge matching by default, or nothing for flat schemes).
//! * [`InitialPartitioner`] — partitions the coarsest graph (recursive
//!   bisection by default, BFS growing for the ablation baseline).
//! * [`Refiner`] — improves a partition at one level (k-way FM boundary
//!   passes by default).
//!
//! [`MultilevelPipeline::for_scheme`] maps each [`PartitionScheme`] to its
//! canonical stage combination, and [`crate::partition::partition_with`]
//! accepts any custom composition, so experiments can swap a single stage
//! (e.g. a different initial partitioner under the same refiner) without
//! touching the driver.

use rand::rngs::StdRng;

use crate::csr::CsrGraph;
use crate::partition::affinity::AffinityCosts;
use crate::partition::{coarsen, initial, refine, PartitionConfig, PartitionScheme};

use coarsen::CoarseLevel;

/// Builds the coarsening hierarchy, finest level first. An empty vector means
/// the initial partitioner runs directly on the input graph.
pub trait Coarsener {
    /// Coarsens `graph` until roughly `target_vertices` remain (or progress
    /// stalls). Implementations must be deterministic for a fixed `rng`.
    fn coarsen(
        &self,
        graph: &CsrGraph,
        target_vertices: usize,
        rng: &mut StdRng,
    ) -> Vec<CoarseLevel>;

    /// [`Coarsener::coarsen`] through a caller-owned scratch workspace, so
    /// repeated runs (one per RGP window) reuse the matching/contraction
    /// buffers. The default ignores the workspace — stages without reusable
    /// state need not care; results must be identical either way.
    fn coarsen_with(
        &self,
        graph: &CsrGraph,
        target_vertices: usize,
        rng: &mut StdRng,
        ws: &mut coarsen::CoarsenWorkspace,
    ) -> Vec<CoarseLevel> {
        let _ = ws;
        self.coarsen(graph, target_vertices, rng)
    }
}

/// Heavy-edge-matching coarsener (the METIS/SCOTCH recipe). Buffers are
/// reused across the levels of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct HeavyEdgeCoarsener;

impl Coarsener for HeavyEdgeCoarsener {
    fn coarsen(
        &self,
        graph: &CsrGraph,
        target_vertices: usize,
        rng: &mut StdRng,
    ) -> Vec<CoarseLevel> {
        coarsen::coarsen_to(graph, target_vertices, rng)
    }

    fn coarsen_with(
        &self,
        graph: &CsrGraph,
        target_vertices: usize,
        rng: &mut StdRng,
        ws: &mut coarsen::CoarsenWorkspace,
    ) -> Vec<CoarseLevel> {
        coarsen::coarsen_to_with(graph, target_vertices, rng, ws)
    }
}

/// No coarsening: the initial partitioner sees the input graph directly.
/// Used by the flat [`PartitionScheme::RecursiveBisection`] and
/// [`PartitionScheme::BfsGrowing`] schemes.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoCoarsening;

impl Coarsener for NoCoarsening {
    fn coarsen(&self, _graph: &CsrGraph, _target: usize, _rng: &mut StdRng) -> Vec<CoarseLevel> {
        Vec::new()
    }
}

/// Produces the first partition of the coarsest graph.
pub trait InitialPartitioner {
    /// Partitions `graph` into `config.num_parts` parts. The result may be
    /// unbalanced or coarse; the refiner cleans it up.
    fn initial_partition(
        &self,
        graph: &CsrGraph,
        config: &PartitionConfig,
        rng: &mut StdRng,
    ) -> Vec<u32>;

    /// [`InitialPartitioner::initial_partition`] through a caller-owned
    /// [`initial::BisectionScratch`], so the per-bisection flag, gain and
    /// BFS buffers are reused across runs sharing a
    /// [`crate::partition::PartitionCtx`]. The default ignores the scratch —
    /// stages without reusable state need not care; results must be
    /// identical either way.
    fn initial_partition_with(
        &self,
        graph: &CsrGraph,
        config: &PartitionConfig,
        rng: &mut StdRng,
        scratch: &mut initial::BisectionScratch,
    ) -> Vec<u32> {
        let _ = scratch;
        self.initial_partition(graph, config, rng)
    }
}

/// Recursive bisection with greedy graph growing at every split (the
/// default initial partitioner).
#[derive(Clone, Copy, Debug, Default)]
pub struct RecursiveBisectionInitial;

impl InitialPartitioner for RecursiveBisectionInitial {
    fn initial_partition(
        &self,
        graph: &CsrGraph,
        config: &PartitionConfig,
        rng: &mut StdRng,
    ) -> Vec<u32> {
        initial::recursive_bisection(graph, config.num_parts.max(1), config.imbalance, rng)
    }

    fn initial_partition_with(
        &self,
        graph: &CsrGraph,
        config: &PartitionConfig,
        rng: &mut StdRng,
        scratch: &mut initial::BisectionScratch,
    ) -> Vec<u32> {
        initial::recursive_bisection_with(
            graph,
            config.num_parts.max(1),
            config.imbalance,
            rng,
            scratch,
        )
    }
}

/// Edge-weight-oblivious BFS region growing (the ABL-PART ablation
/// baseline).
#[derive(Clone, Copy, Debug, Default)]
pub struct BfsGrowingInitial;

impl InitialPartitioner for BfsGrowingInitial {
    fn initial_partition(
        &self,
        graph: &CsrGraph,
        config: &PartitionConfig,
        rng: &mut StdRng,
    ) -> Vec<u32> {
        initial::bfs_growing(graph, config.num_parts.max(1), rng)
    }
}

/// Improves the partition of one level in place.
pub trait Refiner {
    /// Runs up to `config.refine_passes` improvement passes on `assignment`.
    /// Returns the resulting edge cut when the implementation tracks it as a
    /// by-product (the FM refiner does); implementations that do not may
    /// return 0 — the pipeline driver ignores the value, and callers that
    /// need the final cut compute it once on the finished [`Partition`].
    fn refine(&self, graph: &CsrGraph, assignment: &mut [u32], config: &PartitionConfig) -> i64;

    /// [`Refiner::refine`] with per-vertex socket-affinity anchors for this
    /// level. The default ignores the anchors, so affinity-oblivious
    /// refiners participate in anchored runs unchanged; the FM refiner
    /// overrides it to fold the anchors into its move gains.
    fn refine_anchored(
        &self,
        graph: &CsrGraph,
        assignment: &mut [u32],
        config: &PartitionConfig,
        affinity: &AffinityCosts,
    ) -> i64 {
        let _ = affinity;
        self.refine(graph, assignment, config)
    }

    /// [`Refiner::refine_anchored`] (or [`Refiner::refine`] when `affinity`
    /// is `None`) through a caller-owned [`refine::RefineScratch`], so the
    /// per-level gain-table/boundary/queue buffers are reused across the
    /// uncoarsening levels of one run and across runs sharing a
    /// [`crate::partition::PartitionCtx`]. The default ignores the scratch —
    /// stages without reusable state need not care; results must be
    /// identical either way.
    fn refine_with(
        &self,
        graph: &CsrGraph,
        assignment: &mut [u32],
        config: &PartitionConfig,
        affinity: Option<&AffinityCosts>,
        scratch: &mut refine::RefineScratch,
    ) -> i64 {
        let _ = scratch;
        match affinity {
            Some(aff) => self.refine_anchored(graph, assignment, config, aff),
            None => self.refine(graph, assignment, config),
        }
    }
}

/// K-way Fiduccia–Mattheyses boundary refinement backed by an incremental
/// gain table (see [`refine::GainTable`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct FmRefiner;

impl Refiner for FmRefiner {
    fn refine(&self, graph: &CsrGraph, assignment: &mut [u32], config: &PartitionConfig) -> i64 {
        refine::refine_kway(graph, assignment, config, config.refine_passes)
    }

    fn refine_anchored(
        &self,
        graph: &CsrGraph,
        assignment: &mut [u32],
        config: &PartitionConfig,
        affinity: &AffinityCosts,
    ) -> i64 {
        refine::refine_kway_anchored(
            graph,
            assignment,
            config,
            config.refine_passes,
            Some(affinity),
        )
    }

    fn refine_with(
        &self,
        graph: &CsrGraph,
        assignment: &mut [u32],
        config: &PartitionConfig,
        affinity: Option<&AffinityCosts>,
        scratch: &mut refine::RefineScratch,
    ) -> i64 {
        refine::refine_kway_anchored_with(
            graph,
            assignment,
            config,
            config.refine_passes,
            affinity,
            scratch,
        )
    }
}

/// Identity refiner: leaves the assignment untouched (used by the BFS
/// baseline, which deliberately skips refinement). Returns 0 without
/// walking the graph — an `O(E)` cut sweep here would be pure waste on
/// every BFS-scheme call since the driver discards the value.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoRefinement;

impl Refiner for NoRefinement {
    fn refine(&self, _graph: &CsrGraph, _assignment: &mut [u32], _config: &PartitionConfig) -> i64 {
        0
    }
}

/// The multilevel driver: coarsen → initial partition → uncoarsen + refine,
/// with every stage pluggable.
pub struct MultilevelPipeline {
    coarsener: Box<dyn Coarsener>,
    initial: Box<dyn InitialPartitioner>,
    refiner: Box<dyn Refiner>,
}

impl MultilevelPipeline {
    /// Composes a pipeline from explicit stages.
    pub fn new(
        coarsener: impl Coarsener + 'static,
        initial: impl InitialPartitioner + 'static,
        refiner: impl Refiner + 'static,
    ) -> Self {
        MultilevelPipeline {
            coarsener: Box::new(coarsener),
            initial: Box::new(initial),
            refiner: Box::new(refiner),
        }
    }

    /// The canonical stage combination of a [`PartitionScheme`]:
    ///
    /// | scheme | coarsener | initial | refiner |
    /// |---|---|---|---|
    /// | `MultilevelKWay` | heavy-edge matching | recursive bisection | k-way FM |
    /// | `RecursiveBisection` | none | recursive bisection | k-way FM |
    /// | `BfsGrowing` | none | BFS growing | none |
    pub fn for_scheme(scheme: PartitionScheme) -> Self {
        match scheme {
            PartitionScheme::MultilevelKWay => {
                MultilevelPipeline::new(HeavyEdgeCoarsener, RecursiveBisectionInitial, FmRefiner)
            }
            PartitionScheme::RecursiveBisection => {
                MultilevelPipeline::new(NoCoarsening, RecursiveBisectionInitial, FmRefiner)
            }
            PartitionScheme::BfsGrowing => {
                MultilevelPipeline::new(NoCoarsening, BfsGrowingInitial, NoRefinement)
            }
        }
    }

    /// Runs the full pipeline and returns one part id per vertex of `graph`.
    pub fn run(&self, graph: &CsrGraph, config: &PartitionConfig, rng: &mut StdRng) -> Vec<u32> {
        self.run_anchored(graph, config, rng, None)
    }

    /// [`MultilevelPipeline::run`] with optional per-vertex socket-affinity
    /// anchors: the affinity rows are summed through every coarsening level
    /// (so the coarsest graph still feels the anchors of the vertices it
    /// absorbed) and handed to the refiner at each uncoarsening step. With
    /// `affinity` `None` the run — including its RNG stream — is exactly
    /// [`MultilevelPipeline::run`].
    pub fn run_anchored(
        &self,
        graph: &CsrGraph,
        config: &PartitionConfig,
        rng: &mut StdRng,
        affinity: Option<&AffinityCosts>,
    ) -> Vec<u32> {
        let mut ctx = crate::partition::PartitionCtx::default();
        self.run_anchored_ctx(graph, config, rng, affinity, &mut ctx)
    }

    /// [`MultilevelPipeline::run_anchored`] through a caller-owned
    /// [`crate::partition::PartitionCtx`]: every stage's scratch, the
    /// hierarchy's vectors, the per-level affinity tables and the two
    /// projection buffers survive across calls instead of being rebuilt per
    /// window. A warmed call on a same-sized unanchored window allocates
    /// twice: the initial partitioner's result (its trait contract is an
    /// owned vector) and the returned assignment. The context never
    /// influences the result.
    pub fn run_anchored_ctx(
        &self,
        graph: &CsrGraph,
        config: &PartitionConfig,
        rng: &mut StdRng,
        affinity: Option<&AffinityCosts>,
        ctx: &mut crate::partition::PartitionCtx,
    ) -> Vec<u32> {
        let k = config.num_parts.max(1);
        let target = config.coarsen_until.max(4 * k);

        // Phase 1: coarsen. Affinity rows follow the hierarchy: entry `i`
        // is the table for `levels[i].graph`.
        let levels = self
            .coarsener
            .coarsen_with(graph, target, rng, &mut ctx.coarsen);
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

        // Phase 2: initial partition of the coarsest graph. The initial
        // partitioner's part labels are arbitrary, but anchors name
        // *specific* parts — so first relabel the parts to maximise anchor
        // agreement (a pure permutation: the cut is label-invariant, the
        // affinity term is not), then refine.
        let coarsest: &CsrGraph = levels.last().map(|l| &l.graph).unwrap_or(graph);
        // Both projection buffers take the finest level's size up front:
        // which of the two ends up holding it depends on the parity of the
        // hierarchy's depth.
        let mut assignment = std::mem::take(&mut ctx.assignment);
        assignment.clear();
        assignment.reserve(graph.num_vertices());
        ctx.projection.clear();
        ctx.projection.reserve(graph.num_vertices());
        assignment.extend_from_slice(&self.initial.initial_partition_with(
            coarsest,
            config,
            rng,
            &mut ctx.initial,
        ));
        if let Some(aff) = affinity_at(levels.len()) {
            align_parts_to_anchors(&mut assignment, aff, k);
        }
        self.refiner.refine_with(
            coarsest,
            &mut assignment,
            config,
            affinity_at(levels.len()),
            &mut ctx.refine,
        );

        // Phase 3: uncoarsen and refine level by level. The projection
        // writes into the context's buffer and swaps it with the assignment,
        // so the two vectors ping-pong across levels (and across runs
        // sharing the context) instead of allocating one fresh vector per
        // level.
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
            self.refiner.refine_with(
                finer,
                &mut assignment,
                config,
                affinity_at(i),
                &mut ctx.refine,
            );
        }
        // Both ping-pong buffers stay behind, with their capacity; the
        // caller gets an exact-size copy.
        let result = assignment.clone();
        ctx.assignment = assignment;
        ctx.coarsen.recycle(levels);
        result
    }
}

/// Relabels the parts of `assignment` to maximise agreement with the
/// affinity anchors. Part labels coming out of an initial partitioner are
/// arbitrary, but anchors name specific parts; since the edge cut is
/// invariant under a permutation of the labels, matching each part to the
/// anchor label its vertices pull towards is free cut-wise and lets the
/// refiner start from an anchor-consistent labelling instead of fighting a
/// wholesale flip one vertex at a time. Greedy maximum-weight matching,
/// deterministic; a zero affinity table yields the identity permutation.
fn align_parts_to_anchors(assignment: &mut [u32], affinity: &AffinityCosts, k: usize) {
    // agreement[p * k + q] = total affinity towards label q of the vertices
    // currently in part p.
    let mut agreement = vec![0i64; k * k];
    for (v, &p) in assignment.iter().enumerate() {
        for (q, &c) in affinity.row(v as u32).iter().enumerate() {
            agreement[p as usize * k + q] += c;
        }
    }
    let mut entries: Vec<(i64, usize, usize)> = Vec::with_capacity(k * k);
    for p in 0..k {
        for q in 0..k {
            entries.push((agreement[p * k + q], p, q));
        }
    }
    // Highest agreement first; ties resolve towards the identity mapping
    // (diagonal entries first, then lowest indices) so an anchor-free part
    // keeps its label.
    entries.sort_by(|a, b| {
        b.0.cmp(&a.0)
            .then_with(|| (a.1 != a.2).cmp(&(b.1 != b.2)))
            .then_with(|| a.1.cmp(&b.1))
            .then_with(|| a.2.cmp(&b.2))
    });
    let mut label_of = vec![usize::MAX; k];
    let mut label_taken = vec![false; k];
    let mut matched = 0;
    for &(_, p, q) in &entries {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::metrics;
    use crate::partition::Partition;
    use rand::SeedableRng;

    fn run_scheme(g: &CsrGraph, cfg: &PartitionConfig) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        MultilevelPipeline::for_scheme(cfg.scheme).run(g, cfg, &mut rng)
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
    fn custom_stage_composition_is_accepted() {
        // Swap a single stage: multilevel coarsening with the BFS initial
        // partitioner, refined as usual. Must still produce a valid,
        // balanced partition (this is the kind of ablation the traits are
        // for).
        let g = generators::grid_2d(24, 24, 2);
        let cfg = PartitionConfig::new(4);
        let pipeline = MultilevelPipeline::new(HeavyEdgeCoarsener, BfsGrowingInitial, FmRefiner);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let a = pipeline.run(&g, &cfg, &mut rng);
        let p = Partition::from_assignment(a, 4);
        assert_eq!(metrics::quality(&g, &p).nonempty_parts, 4);
        assert!(p.imbalance(&g) <= 1.0 + cfg.imbalance + 1e-9);
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
