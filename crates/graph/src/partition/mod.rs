//! Graph partitioning: the SCOTCH substitute used by runtime graph
//! partitioning (RGP).
//!
//! One multilevel driver runs three steps, and the configured
//! [`PartitionScheme`] decides what each step does:
//!
//! 1. *coarsening* collapses the graph into a hierarchy of successively
//!    smaller graphs by heavy-edge matching (`coarsen`) — or is skipped,
//! 2. the *initial partition* splits the coarsest graph by recursive
//!    bisection with greedy graph growing, or by BFS growing for the ablation
//!    baseline ([`initial`]),
//! 3. *refinement* improves the partition at every uncoarsening step with
//!    k-way Fiduccia–Mattheyses boundary passes over an incremental gain
//!    table ([`refine`]) — or is skipped.
//!
//! The entry points are [`partition`] and, with socket-affinity anchors,
//! [`partition_anchored`]; their `_ctx` forms take the scratch context from
//! the caller instead of the calling thread. The three schemes:
//!
//! * [`PartitionScheme::MultilevelKWay`] (default, token `ml`) — the
//!   METIS/SCOTCH recipe: coarsen, partition the coarsest graph, uncoarsen
//!   and refine at every level.
//! * [`PartitionScheme::RecursiveBisection`] (token `rb`) — recursive
//!   bisection directly on the input graph (no multilevel), then refinement;
//!   useful for small graphs and as a reference for the multilevel
//!   implementation.
//! * [`PartitionScheme::BfsGrowing`] (token `bfs`) — a deliberately naive,
//!   edge-weight-oblivious BFS partitioner kept as the baseline of the
//!   partitioner ablation (`ablation partitioner`): it produces balanced
//!   parts but much larger cuts.
//!
//! The hot paths are engineered for 100k+ vertex windows: coarsening reuses
//! its matching and contraction buffers across levels and contracts straight
//! into CSR form (no edge-map churn), and refinement maintains a flat
//! vertex×part connectivity table (see `refine::GainTable`) updated in
//! `O(deg)` per move instead of allocating a per-visit connectivity vector.
//!
//! Higher layers configure the partitioner through [`PartitionTuning`]:
//! the scheme and refinement passes that policies (RGP) fill from their
//! knobs, materialised into a [`PartitionConfig`] once the socket count is
//! known.
//!
//! *Anchored* partitioning ([`partition_anchored`]) extends every scheme
//! with per-vertex socket-affinity terms ([`AffinityCosts`]): bytes a vertex
//! pulls from data whose home is already fixed by earlier windows. The
//! affinity rows are summed through the coarsening hierarchy and added to
//! the FM refiner's move gains, so refinement trades edge cut against
//! affinity to fixed data. Without anchors every entry point — including the
//! RNG streams — behaves exactly as before.

pub mod affinity;
mod coarsen;
mod driver;
pub mod initial;
pub mod refine;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::csr::CsrGraph;
use crate::metrics;

pub use affinity::AffinityCosts;

/// Reusable scratch state for repeated partitioning runs.
///
/// A context carries everything that is expensive to rebuild per call: the
/// coarsening workspace (edge lists, matching, contraction scratch and the
/// recycled vectors of the previous hierarchy), the bisection scratch of the
/// initial partitioner, the refinement scratch (gain table, boundary list,
/// per-part rebalance queues — see [`refine::RefineScratch`]), the per-level
/// affinity tables and the part-relabelling tables of anchored runs and the
/// two uncoarsening projection buffers. Once warmed, a call on a same-sized
/// window allocates only its result. The context is pure scratch: results
/// are bit-identical with a fresh context per call.
///
/// The entry points without a `_ctx` suffix ([`partition`] and
/// [`partition_anchored`]) run through one context per thread, so a worker
/// that partitions window after window — one per sweep cell — pays for the
/// buffers once, not once per cell.
#[derive(Debug, Default)]
pub struct PartitionCtx {
    coarsen: coarsen::CoarsenWorkspace,
    initial: initial::BisectionScratch,
    refine: refine::RefineScratch,
    level_affinity: Vec<AffinityCosts>,
    align: driver::AlignScratch,
    projection: Vec<u32>,
    assignment: Vec<u32>,
}

/// Graphs above this size bypass the per-thread context: they amortise a
/// fresh one over their own levels, and a thread must not hold on to
/// hundreds of megabytes of scratch because it once partitioned a
/// 500k-vertex window. At the limit the retained context is a few MB.
const THREAD_CTX_MAX_VERTICES: usize = 1 << 14;

/// Runs `f` with the calling thread's retained [`PartitionCtx`].
fn with_thread_ctx<R>(graph: &CsrGraph, f: impl FnOnce(&mut PartitionCtx) -> R) -> R {
    thread_local! {
        static CTX: std::cell::RefCell<PartitionCtx> = std::cell::RefCell::default();
    }
    if graph.num_vertices() > THREAD_CTX_MAX_VERTICES {
        return f(&mut PartitionCtx::default());
    }
    CTX.with(|ctx| f(&mut ctx.borrow_mut()))
}

/// Which partitioning algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum PartitionScheme {
    /// Multilevel k-way (coarsen → initial partition → refine). The default
    /// and the scheme RGP uses.
    #[default]
    MultilevelKWay,
    /// Recursive bisection directly on the input graph.
    RecursiveBisection,
    /// Naive BFS region growing that ignores edge weights (ablation baseline).
    BfsGrowing,
}

impl PartitionScheme {
    /// Every registered scheme, in ablation-report order.
    pub fn all() -> [PartitionScheme; 3] {
        [
            PartitionScheme::MultilevelKWay,
            PartitionScheme::RecursiveBisection,
            PartitionScheme::BfsGrowing,
        ]
    }

    /// The short, stable token used in policy labels and CLI arguments
    /// (`scheme=ml`, `scheme=rb`, `scheme=bfs`). Round-trips through
    /// [`PartitionScheme::from_token`].
    pub fn token(&self) -> &'static str {
        match self {
            PartitionScheme::MultilevelKWay => "ml",
            PartitionScheme::RecursiveBisection => "rb",
            PartitionScheme::BfsGrowing => "bfs",
        }
    }

    /// Parses a scheme token (short or spelled-out, case-insensitive).
    pub fn from_token(s: &str) -> Option<PartitionScheme> {
        match s.trim().to_ascii_lowercase().as_str() {
            "ml" | "multilevel" | "kway" | "multilevel-kway" => {
                Some(PartitionScheme::MultilevelKWay)
            }
            "rb" | "bisection" | "recursive-bisection" => Some(PartitionScheme::RecursiveBisection),
            "bfs" | "bfs-growing" => Some(PartitionScheme::BfsGrowing),
            _ => None,
        }
    }
}

/// Parameters of the partitioner.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionConfig {
    /// Number of parts (one per NUMA socket for RGP).
    pub(crate) num_parts: usize,
    /// Allowed load imbalance: the heaviest part may weigh up to
    /// `(1 + imbalance) * total / num_parts`.
    pub imbalance: f64,
    /// Seed for all randomised tie-breaking; a fixed seed gives a fully
    /// deterministic partition.
    pub seed: u64,
    /// Coarsening stops when the graph has at most this many vertices
    /// (clamped to at least `4 * num_parts`).
    pub coarsen_until: usize,
    /// Maximum number of refinement passes per level.
    pub refine_passes: usize,
    /// Algorithm to use.
    pub scheme: PartitionScheme,
}

impl PartitionConfig {
    /// A sensible default configuration for `num_parts` parts.
    pub fn new(num_parts: usize) -> Self {
        PartitionConfig {
            num_parts,
            imbalance: 0.10,
            seed: 0x5C07C4,
            coarsen_until: (30 * num_parts).max(80),
            refine_passes: 8,
            scheme: PartitionScheme::MultilevelKWay,
        }
    }

    /// Sets the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the allowed imbalance.
    pub fn with_imbalance(mut self, imbalance: f64) -> Self {
        self.imbalance = imbalance;
        self
    }

    /// Sets the partitioning scheme.
    pub fn with_scheme(mut self, scheme: PartitionScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Sets the maximum number of refinement passes per level.
    pub fn with_refine_passes(mut self, passes: usize) -> Self {
        self.refine_passes = passes;
        self
    }

    /// Sets the coarsening stop threshold.
    pub fn with_coarsen_until(mut self, coarsen_until: usize) -> Self {
        self.coarsen_until = coarsen_until;
        self
    }

    /// Maximum allowed weight of a part for a graph of total weight `total`.
    pub fn max_part_weight(&self, total: i64) -> i64 {
        if self.num_parts == 0 {
            return total;
        }
        let ideal = total as f64 / self.num_parts as f64;
        (ideal * (1.0 + self.imbalance)).ceil() as i64
    }
}

/// The `num_parts`-agnostic partitioner knobs of higher layers: RGP fills
/// one from its label's knobs and, once the socket count is known,
/// [`PartitionTuning::config_for`] turns it into a full [`PartitionConfig`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PartitionTuning {
    /// Partitioning scheme.
    pub scheme: PartitionScheme,
    /// Refinement passes per level (`None` keeps the
    /// [`PartitionConfig::new`] default).
    pub refine_passes: Option<usize>,
}

impl PartitionTuning {
    /// Materialises a full [`PartitionConfig`] once the part count and seed
    /// are known; imbalance and coarsening keep [`PartitionConfig::new`]'s
    /// defaults.
    pub fn config_for(&self, num_parts: usize, seed: u64) -> PartitionConfig {
        let mut config = PartitionConfig::new(num_parts)
            .with_seed(seed)
            .with_scheme(self.scheme);
        if let Some(passes) = self.refine_passes {
            config.refine_passes = passes;
        }
        config
    }
}

/// The result of partitioning: one part id per vertex.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    assignment: Vec<u32>,
    num_parts: usize,
}

impl Partition {
    /// Wraps an explicit assignment vector.
    ///
    /// # Panics
    /// Panics if any entry is `>= num_parts`.
    pub(crate) fn from_assignment(assignment: Vec<u32>, num_parts: usize) -> Self {
        assert!(
            assignment.iter().all(|&p| (p as usize) < num_parts.max(1)),
            "part id out of range"
        );
        Partition {
            assignment,
            num_parts: num_parts.max(1),
        }
    }

    /// Part of vertex `v`.
    #[inline]
    pub fn part_of(&self, v: u32) -> u32 {
        self.assignment[v as usize]
    }

    /// Number of parts this partition was computed for (parts may be empty).
    pub(crate) fn num_parts(&self) -> usize {
        self.num_parts
    }

    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// True if the partition covers no vertices.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// The raw assignment slice.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Builds the part→members index in one `O(n + k)` pass.
    pub fn members(&self) -> PartMembers {
        PartMembers::build(&self.assignment, self.num_parts)
    }

    /// Total weight of cut edges under `graph`.
    pub fn edge_cut(&self, graph: &CsrGraph) -> i64 {
        metrics::edge_cut(graph, self)
    }

    /// Load imbalance under `graph`.
    pub fn imbalance(&self, graph: &CsrGraph) -> f64 {
        metrics::imbalance(graph, self)
    }
}

/// A CSR-shaped part→members index: every part's vertices (ascending) in one
/// shared buffer, built in a single pass over the assignment, for callers
/// that visit every part.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartMembers {
    offsets: Vec<usize>,
    members: Vec<u32>,
}

impl PartMembers {
    fn build(assignment: &[u32], num_parts: usize) -> Self {
        let k = num_parts.max(1);
        let mut counts = vec![0usize; k + 1];
        for &p in assignment {
            counts[p as usize + 1] += 1;
        }
        for i in 0..k {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut members = vec![0u32; assignment.len()];
        for (v, &p) in assignment.iter().enumerate() {
            members[cursor[p as usize]] = v as u32;
            cursor[p as usize] += 1;
        }
        PartMembers { offsets, members }
    }

    /// Number of parts indexed.
    pub(crate) fn num_parts(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The vertices of `part`, in ascending order.
    pub(crate) fn members_of(&self, part: u32) -> &[u32] {
        &self.members[self.offsets[part as usize]..self.offsets[part as usize + 1]]
    }

    /// Iterates over `(part, members)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[u32])> + '_ {
        (0..self.num_parts() as u32).map(move |p| (p, self.members_of(p)))
    }
}

/// Partitions `graph` into `config.num_parts` parts with the configured
/// scheme, through the calling thread's [`PartitionCtx`].
///
/// Degenerate cases are handled explicitly: one part returns the all-zero
/// partition, and a graph with no more vertices than parts gives every
/// vertex a part of its own (leaving some parts empty).
pub fn partition(graph: &CsrGraph, config: &PartitionConfig) -> Partition {
    with_thread_ctx(graph, |ctx| partition_ctx(graph, config, ctx))
}

/// [`partition`] through a caller-owned [`PartitionCtx`], reusing scratch
/// buffers across repeated calls (identical results).
pub fn partition_ctx(
    graph: &CsrGraph,
    config: &PartitionConfig,
    ctx: &mut PartitionCtx,
) -> Partition {
    run(graph, config, None, ctx)
}

/// [`partition`] with per-vertex socket-affinity anchors: refinement trades
/// edge cut against the bytes each vertex pulls from data already fixed on a
/// part (see [`AffinityCosts`]). `affinity` must cover every vertex of
/// `graph` with `config.num_parts` parts per row.
///
/// Degenerate inputs short-circuit like [`partition`], except that a graph
/// with no more vertices than parts follows the anchors: each vertex goes to
/// its strongest-affinity part (its own index — the unanchored choice — when
/// the row is uniform). Small tail windows are exactly where anchoring
/// matters most, so they must not fall back to anchor-oblivious placement.
///
/// An all-zero `affinity` is the unanchored problem and runs as [`partition`]
/// does: same path, same result.
pub fn partition_anchored(
    graph: &CsrGraph,
    config: &PartitionConfig,
    affinity: &AffinityCosts,
) -> Partition {
    with_thread_ctx(graph, |ctx| {
        partition_anchored_ctx(graph, config, affinity, ctx)
    })
}

/// [`partition_anchored`] through a caller-owned [`PartitionCtx`], reusing
/// scratch buffers across repeated calls (identical results).
pub fn partition_anchored_ctx(
    graph: &CsrGraph,
    config: &PartitionConfig,
    affinity: &AffinityCosts,
    ctx: &mut PartitionCtx,
) -> Partition {
    run(graph, config, Some(affinity), ctx)
}

/// The body of the four entry points: the degenerate inputs, then the
/// multilevel driver.
fn run(
    graph: &CsrGraph,
    config: &PartitionConfig,
    affinity: Option<&AffinityCosts>,
    ctx: &mut PartitionCtx,
) -> Partition {
    let n = graph.num_vertices();
    let k = config.num_parts.max(1);
    if let Some(affinity) = affinity {
        assert_eq!(
            affinity.num_vertices(),
            n,
            "affinity must cover every vertex"
        );
        assert_eq!(affinity.num_parts(), k, "affinity must cover every part");
    }
    // No anchor anywhere is the plain problem: take its path up front instead
    // of projecting, relabelling and refining with a table of zeros.
    let affinity = affinity.filter(|affinity| !affinity.is_zero());
    if k == 1 || n == 0 {
        return Partition::from_assignment(vec![0; n], k);
    }
    if n <= k {
        let strongest = |v: u32| {
            let Some(affinity) = affinity else { return v };
            let row = affinity.row(v);
            let mut best = v;
            for (p, &c) in row.iter().enumerate() {
                if c > row[best as usize] {
                    best = p as u32;
                }
            }
            best
        };
        return Partition::from_assignment((0..n as u32).map(strongest).collect(), k);
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let assignment = driver::run(graph, config, &mut rng, affinity, ctx);
    Partition::from_assignment(assignment, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn single_part_is_trivial() {
        let g = generators::grid_2d(4, 4, 1);
        let p = partition(&g, &PartitionConfig::new(1));
        assert!(p.assignment().iter().all(|&x| x == 0));
        assert_eq!(p.edge_cut(&g), 0);
    }

    #[test]
    fn more_parts_than_vertices() {
        let g = generators::path(3);
        let p = partition(&g, &PartitionConfig::new(8));
        assert_eq!(p.len(), 3);
        assert_eq!(p.num_parts(), 8);
        // Every vertex in its own part.
        let mut parts: Vec<u32> = p.assignment().to_vec();
        parts.sort_unstable();
        parts.dedup();
        assert_eq!(parts.len(), 3);
    }

    #[test]
    fn empty_graph() {
        let g = crate::csr::GraphBuilder::new(0).build();
        let p = partition(&g, &PartitionConfig::new(4));
        assert!(p.is_empty());
    }

    #[test]
    fn two_clusters_are_separated() {
        let g = generators::two_clusters(8, 50);
        for scheme in [
            PartitionScheme::MultilevelKWay,
            PartitionScheme::RecursiveBisection,
        ] {
            let cfg = PartitionConfig::new(2).with_scheme(scheme);
            let p = partition(&g, &cfg);
            assert_eq!(
                p.edge_cut(&g),
                1,
                "{scheme:?} must find the single bridge edge"
            );
            let w = metrics::part_weights(&g, &p);
            assert_eq!(w, vec![8, 8]);
        }
    }

    #[test]
    fn determinism_for_fixed_seed() {
        let g = generators::random_graph(300, 8, 16, 9);
        let cfg = PartitionConfig::new(4).with_seed(123);
        let a = partition(&g, &cfg);
        let b = partition(&g, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn balance_is_respected_on_grid() {
        let g = generators::grid_2d(16, 16, 3);
        for k in [2, 4, 8] {
            let cfg = PartitionConfig::new(k);
            let p = partition(&g, &cfg);
            let imb = p.imbalance(&g);
            assert!(
                imb <= 1.0 + cfg.imbalance + 1e-9,
                "k={k}: imbalance {imb} exceeds tolerance"
            );
            assert!(p.assignment().iter().all(|&x| (x as usize) < k));
        }
    }

    #[test]
    fn multilevel_beats_naive_bfs_on_weighted_graph() {
        let g = generators::layered_dag_skeleton(20, 16, 2, 64);
        let k = 4;
        let ml = partition(&g, &PartitionConfig::new(k));
        let naive = partition(
            &g,
            &PartitionConfig::new(k).with_scheme(PartitionScheme::BfsGrowing),
        );
        assert!(
            ml.edge_cut(&g) <= naive.edge_cut(&g),
            "multilevel cut {} should not exceed naive cut {}",
            ml.edge_cut(&g),
            naive.edge_cut(&g)
        );
    }

    #[test]
    fn config_max_part_weight() {
        let cfg = PartitionConfig::new(4).with_imbalance(0.0);
        assert_eq!(cfg.max_part_weight(100), 25);
        let cfg = PartitionConfig::new(4).with_imbalance(0.10);
        assert_eq!(cfg.max_part_weight(100), 28);
    }

    #[test]
    fn members_of_lists_vertices() {
        let idx = Partition::from_assignment(vec![0, 1, 0, 1, 1], 2).members();
        assert_eq!(idx.members_of(0), [0, 2]);
        assert_eq!(idx.members_of(1), [1, 3, 4]);
    }

    #[test]
    fn members_index_matches_an_assignment_scan() {
        let p = Partition::from_assignment(vec![2, 0, 1, 0, 2, 2, 1], 4);
        let idx = p.members();
        assert_eq!(idx.num_parts(), 4);
        for part in 0..4u32 {
            let scanned: Vec<u32> = (0..p.len() as u32)
                .filter(|&v| p.part_of(v) == part)
                .collect();
            assert_eq!(idx.members_of(part), scanned);
        }
        // Part 3 is empty.
        assert!(idx.members_of(3).is_empty());
        let total: usize = idx.iter().map(|(_, m)| m.len()).sum();
        assert_eq!(total, p.len());
    }

    #[test]
    fn scheme_tokens_round_trip() {
        for scheme in PartitionScheme::all() {
            assert_eq!(PartitionScheme::from_token(scheme.token()), Some(scheme));
        }
        assert_eq!(
            PartitionScheme::from_token("Multilevel"),
            Some(PartitionScheme::MultilevelKWay)
        );
        assert_eq!(PartitionScheme::from_token("nope"), None);
    }

    #[test]
    fn tuning_materialises_config() {
        let tuning = PartitionTuning {
            scheme: PartitionScheme::RecursiveBisection,
            refine_passes: Some(3),
        };
        let cfg = tuning.config_for(8, 42);
        assert_eq!(cfg.num_parts, 8);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.scheme, PartitionScheme::RecursiveBisection);
        assert_eq!(cfg.refine_passes, 3);
        // The knobs no tuning sets keep the num_parts-derived defaults.
        let defaults = PartitionConfig::new(8);
        assert_eq!(cfg.imbalance, defaults.imbalance);
        assert_eq!(cfg.coarsen_until, defaults.coarsen_until);
    }

    #[test]
    #[should_panic(expected = "part id out of range")]
    fn from_assignment_validates_range() {
        Partition::from_assignment(vec![0, 5], 2);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// An all-zero table is the unanchored problem — `partition_anchored`
        /// takes `partition`'s path for it — on graphs from a single vertex
        /// (fewer vertices than parts) up to a few coarsening levels.
        #[test]
        fn zero_affinity_partition_matches_unanchored_for_every_scheme(
            n in 1usize..400,
            avg_degree in 1usize..10,
            max_weight in 1u32..64,
            log_k in 1u32..4,
            seed in 0u64..10_000,
        ) {
            let g = generators::random_graph(n, avg_degree, i64::from(max_weight), seed);
            let k = 1usize << log_k;
            let aff = AffinityCosts::zeros(n, k);
            for scheme in PartitionScheme::all() {
                let cfg = PartitionConfig::new(k).with_seed(seed ^ 0x5EED).with_scheme(scheme);
                let plain = partition(&g, &cfg);
                let anchored = partition_anchored(&g, &cfg, &aff);
                proptest::prop_assert_eq!(plain, anchored, "{:?} diverged under zero affinity", scheme);
            }
        }
    }

    #[test]
    fn strong_anchor_attracts_a_cluster_vertex() {
        // Two 6-vertex clusters joined by one bridge edge. Unanchored, each
        // cluster is one part; anchor a vertex of cluster A to cluster B's
        // part with far more bytes than its internal edges and it must move.
        let g = generators::two_clusters(6, 30);
        let cfg = PartitionConfig::new(2).with_imbalance(0.25);
        let base = partition(&g, &cfg);
        let (a_part, b_part) = (base.part_of(0), base.part_of(6));
        assert_ne!(a_part, b_part);
        let mut aff = AffinityCosts::zeros(g.num_vertices(), 2);
        aff.add(0, b_part, 1_000_000);
        let anchored = partition_anchored(&g, &cfg, &aff);
        assert_eq!(
            anchored.part_of(0),
            b_part,
            "vertex 0 must follow its anchor to part {b_part}"
        );
    }

    #[test]
    fn anchored_degenerate_small_window_follows_anchors() {
        // Fewer vertices than parts: the unanchored path spreads by identity;
        // the anchored path must honour the anchors instead.
        let g = generators::path(3);
        let cfg = PartitionConfig::new(8);
        let mut aff = AffinityCosts::zeros(3, 8);
        aff.add(0, 5, 1000);
        aff.add(2, 3, 64);
        let p = partition_anchored(&g, &cfg, &aff);
        assert_eq!(p.part_of(0), 5);
        assert_eq!(p.part_of(1), 1, "uniform row keeps the identity spread");
        assert_eq!(p.part_of(2), 3);
    }

    #[test]
    #[should_panic(expected = "affinity must cover every vertex")]
    fn anchored_rejects_mismatched_affinity() {
        let g = generators::path(3);
        let aff = AffinityCosts::zeros(2, 4);
        partition_anchored(&g, &PartitionConfig::new(4), &aff);
    }
}
