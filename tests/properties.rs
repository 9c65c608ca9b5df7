//! Property-based tests over the core invariants of the stack: the
//! partitioner, the dependence analysis and the simulator must hold their
//! contracts for arbitrary (generated) inputs, not just the hand-written
//! cases.

use proptest::prelude::*;

use numadag::graph::{generators, metrics, partition, PartitionConfig, PartitionScheme};
use numadag::prelude::*;

proptest! {
    // Few cases, big inputs: each case partitions a graph of up to 10k
    // vertices under every scheme, twice (for the determinism check), in
    // debug mode.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The partition contract, for every registered scheme × part count on
    /// random graphs up to 10k vertices: full coverage (the part→members
    /// index is a permutation of the vertices), in-range part ids, balance
    /// within the scheme's budget, and bit-exact seed determinism.
    #[test]
    fn every_scheme_holds_the_partition_contract_at_scale(
        n in 64usize..10_000,
        avg_degree in 2usize..9,
        k in 2usize..9,
        seed in 0u64..10_000,
    ) {
        let graph = generators::random_graph(n, avg_degree, 1 << 12, seed);
        for scheme in PartitionScheme::all() {
            let config = PartitionConfig::new(k).with_seed(seed).with_scheme(scheme);
            let p = partition(&graph, &config);
            // Coverage and range.
            prop_assert_eq!(p.len(), graph.num_vertices());
            prop_assert!(p.assignment().iter().all(|&x| (x as usize) < k),
                "{:?}: part id out of range", scheme);
            let members = p.members();
            let covered: usize = members.iter().map(|(_, m)| m.len()).sum();
            prop_assert_eq!(covered, graph.num_vertices());
            // Balance. The refined schemes enforce the partitioner's own
            // budget (rebalance makes it a hard constraint for feasible,
            // i.e. unit-weight, inputs); the BFS baseline only balances by
            // chunking the BFS order, which with unit weights overshoots the
            // ideal by at most one vertex per part.
            let weights = metrics::part_weights(&graph, &p);
            match scheme {
                PartitionScheme::MultilevelKWay | PartitionScheme::RecursiveBisection => {
                    let max_allowed = config.max_part_weight(graph.total_vertex_weight());
                    prop_assert!(
                        weights.iter().all(|&w| w <= max_allowed),
                        "{:?}: part weights {:?} exceed budget {}", scheme, weights, max_allowed
                    );
                }
                PartitionScheme::BfsGrowing => {
                    let ideal = graph.total_vertex_weight() as f64 / k as f64;
                    let max = *weights.iter().max().unwrap() as f64;
                    prop_assert!(
                        max <= ideal + k as f64,
                        "BFS chunking drifted: max part {} vs ideal {}", max, ideal
                    );
                }
            }
            // Seed determinism, including the derived index.
            let again = partition(&graph, &config);
            prop_assert_eq!(&p, &again, "{:?}: same seed, different partition", scheme);
            prop_assert_eq!(members, again.members());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every partition covers every vertex with a valid part id, respects the
    /// balance constraint on uniform-weight graphs, and never cuts more than
    /// the total edge weight.
    #[test]
    fn partition_invariants(
        width in 3usize..20,
        height in 3usize..20,
        k in 2usize..9,
        seed in 0u64..1000,
    ) {
        let graph = generators::grid_2d(width, height, 3);
        let config = PartitionConfig::new(k).with_seed(seed);
        let p = partition(&graph, &config);
        prop_assert_eq!(p.len(), graph.num_vertices());
        prop_assert!(p.assignment().iter().all(|&x| (x as usize) < k));
        let cut = metrics::edge_cut(&graph, &p);
        prop_assert!(cut >= 0);
        prop_assert!(cut <= graph.total_edge_weight());
        if graph.num_vertices() >= 4 * k {
            // The heaviest part must respect the partitioner's own balance
            // budget (which rounds the ideal weight up, so it can be slightly
            // above (1 + imbalance) × ideal on small odd-sized graphs).
            let weights = metrics::part_weights(&graph, &p);
            let max_allowed = config.max_part_weight(graph.total_vertex_weight());
            prop_assert!(
                weights.iter().all(|&w| w <= max_allowed),
                "part weights {:?} exceed the allowed maximum {}", weights, max_allowed
            );
        }
    }

    /// The multilevel partitioner never produces a worse cut than the naive
    /// BFS baseline — with NO slack. The original seed allowed `1.05× + 1024`
    /// of headroom; an exhaustive sweep of this whole input domain
    /// (12 × 12 × 200 = 28,800 combinations) puts the worst multilevel/naive
    /// ratio at 0.885, i.e. multilevel is always at least ~11% better here,
    /// so the qualitative claim ("the multilevel scheme earns its cost") can
    /// be tested exactly. If this ever fires, the partitioner regressed —
    /// do not widen the bound back.
    #[test]
    fn multilevel_not_worse_than_naive(
        layers in 4usize..16,
        width in 4usize..16,
        seed in 0u64..200,
    ) {
        let graph = generators::layered_dag_skeleton(layers, width, 2, 1024);
        let k = 4;
        let ml = partition(&graph, &PartitionConfig::new(k).with_seed(seed));
        let naive = partition(
            &graph,
            &PartitionConfig::new(k).with_seed(seed).with_scheme(PartitionScheme::BfsGrowing),
        );
        let ml_cut = metrics::edge_cut(&graph, &ml);
        let naive_cut = metrics::edge_cut(&graph, &naive);
        prop_assert!(
            ml_cut <= naive_cut,
            "multilevel cut {} worse than naive {}", ml_cut, naive_cut
        );
    }

    /// Dependence analysis always yields an acyclic graph whose edges point
    /// forward in submission order, no matter the access pattern.
    #[test]
    fn random_access_patterns_build_valid_dags(
        num_regions in 1usize..12,
        tasks in prop::collection::vec((0usize..12, 0usize..12, 0u8..3), 1..80),
    ) {
        let mut builder = TdgBuilder::new();
        let regions: Vec<_> = (0..num_regions).map(|_| builder.region(4096)).collect();
        for (a, b, mode) in &tasks {
            let ra = regions[a % num_regions];
            let rb = regions[b % num_regions];
            let spec = match mode {
                0 => TaskSpec::new("t").work(1.0).reads(ra, 4096).writes(rb, 4096),
                1 => TaskSpec::new("t").work(1.0).reads_writes(ra, 4096),
                _ => TaskSpec::new("t").work(1.0).reads(ra, 4096).reads(rb, 4096).writes(rb, 4096),
            };
            builder.submit(spec);
        }
        let spec = TaskGraphSpec::new("prop", builder.finish());
        for task in spec.graph.task_ids() {
            for &(pred, _) in spec.graph.predecessors(task) {
                prop_assert!(pred < task);
            }
        }
        // Critical path never exceeds total work.
        prop_assert!(spec.graph.critical_path_work() <= spec.graph.total_work() + 1e-9);
    }

    /// Simulator conservation: for any generated workload and any policy,
    /// every declared byte is charged exactly once (local + remote), all
    /// tasks run, and the makespan is at least the critical path.
    #[test]
    fn simulator_conservation(
        num_blocks in 2usize..10,
        iterations in 1usize..5,
        policy_idx in 0usize..5,
        seed in 0u64..500,
    ) {
        let mut builder = TdgBuilder::new();
        let block_bytes = 64 * 1024u64;
        let regions: Vec<_> = (0..num_blocks).map(|_| builder.region(block_bytes)).collect();
        for &r in &regions {
            builder.submit(TaskSpec::new("init").work(100.0).writes(r, block_bytes));
        }
        for _ in 0..iterations {
            for (i, &r) in regions.iter().enumerate() {
                let mut t = TaskSpec::new("step").work(500.0).reads_writes(r, block_bytes);
                if i > 0 {
                    t = t.reads(regions[i - 1], block_bytes);
                }
                builder.submit(t);
            }
        }
        let graph = builder.finish();
        let declared: u64 = graph.tasks().map(|t| t.bytes_touched()).sum();
        let num_tasks = graph.num_tasks();
        let spec = TaskGraphSpec::new("prop-sim", graph)
            .with_ep_placement(vec![0; num_tasks])
            .unwrap();
        let kind = PolicyKind::all()[policy_idx % 5];
        let mut policy = make_policy(kind, &spec, seed).unwrap();
        let executor = Backend::Simulated.executor(ExecutionConfig::bullion_s16());
        let report = executor.execute(&spec, policy.as_mut());
        prop_assert_eq!(report.tasks, spec.num_tasks());
        prop_assert_eq!(report.traffic.total_bytes(), declared);
        prop_assert!(report.makespan_ns + 1e-6 >= spec.graph.critical_path_work());
        prop_assert!(report.traffic.local_fraction() >= 0.0);
        prop_assert!(report.traffic.local_fraction() <= 1.0);
    }

    /// Deferred allocation places every region on the socket of a task that
    /// touched it: after any simulated run, no region that was accessed is
    /// left unallocated.
    #[test]
    fn no_accessed_region_stays_unallocated(
        num_blocks in 1usize..8,
        seed in 0u64..100,
    ) {
        let mut builder = TdgBuilder::new();
        let regions: Vec<_> = (0..num_blocks).map(|_| builder.region(4096)).collect();
        for &r in &regions {
            builder.submit(TaskSpec::new("touch").work(1.0).writes(r, 4096));
        }
        let spec = TaskGraphSpec::new("prop-defer", builder.finish());
        let mut policy = LasPolicy::new(seed);
        let executor = Backend::Simulated.executor(ExecutionConfig::bullion_s16());
        let report = executor.execute(&spec, &mut policy);
        // Every region was written exactly once, so all deferred allocations
        // add up to the total data size.
        prop_assert_eq!(report.deferred_bytes, 4096 * num_blocks as u64);
    }
}

/// The RGP kind numbered `code`, one knob per mixed-radix digit: each knob
/// unset or set to one of a few values, an anchor only under repartition.
fn rgp_kind(mut code: usize) -> PolicyKind {
    use numadag::core::AnchorMode;
    let mut digit = |radix: usize| {
        let d = code % radix;
        code /= radix;
        d
    };
    let window = [None, Some(1), Some(64), Some(99_999)][digit(4)];
    let scheme = match digit(4) {
        0 => None,
        d => Some(PartitionScheme::all()[d - 1]),
    };
    let passes = [None, Some(0), Some(4)][digit(3)];
    let prop = [
        Propagation::Las,
        Propagation::RoundRobin,
        Propagation::Repartition,
    ][digit(3)];
    let anchor = match prop {
        Propagation::Repartition => [
            None,
            Some(AnchorMode::None),
            Some(AnchorMode::Deps),
            Some(AnchorMode::Homes),
            Some(AnchorMode::Both),
        ][digit(5)],
        _ => None,
    };
    PolicyKind::Rgp(RgpTuning {
        window,
        scheme,
        passes,
        prop,
        anchor,
    })
}

/// A random policy kind: one of the three without parameters (so two draws
/// often coincide) or an RGP kind.
fn any_kind(code: usize) -> PolicyKind {
    match code % 8 {
        0 => PolicyKind::Dfifo,
        1 => PolicyKind::Ep,
        2 => PolicyKind::Las,
        _ => rgp_kind(code / 8),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The policy registry is canonical: every kind's label parses back to
    /// exactly that kind, however it is cased, and two kinds share a label
    /// exactly when they are the same kind.
    #[test]
    fn policy_kind_labels_round_trip(a in 0usize..8192, b in 0usize..8192) {
        let (a, b) = (any_kind(a), any_kind(b));
        prop_assert_eq!(a.label().parse::<PolicyKind>(), Ok(a));
        prop_assert_eq!(a.label().to_lowercase().parse::<PolicyKind>(), Ok(a));
        prop_assert_eq!(a.label() == b.label(), a == b, "{} vs {}", a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The event queue (a heap of `u128`-keyed entries) agrees with a
    /// `BinaryHeap<Event>` on arbitrary interleavings of pushes and pops,
    /// with timestamps quantised so hard that most events tie and the `seq`
    /// tie-breaker decides the order — the invariant the simulator's
    /// determinism rests on (event_queue_equivalence). Half the times are
    /// drawn from the values a bit-pattern key could misplace (signed zeros,
    /// a subnormal, ±∞, NaN, the extremes), and `seq` runs up near
    /// `u64::MAX`, the key's low half.
    #[test]
    fn event_queue_equivalence(
        cores in 1usize..16,
        time_levels in 1u64..5,
        ops in prop::collection::vec((0u8..4, 0u64..1000), 20..400),
    ) {
        use numadag::numa::CoreId;
        use numadag::runtime::{Event, EventQueue};
        use std::collections::BinaryHeap;

        const EDGES: [f64; 9] = [
            -0.0, 0.0, 5e-324, 1e-300, 1e300, f64::MAX, f64::INFINITY,
            f64::NEG_INFINITY, f64::NAN,
        ];
        let mut queue = EventQueue::new();
        queue.reset(cores);
        let mut reference: BinaryHeap<Event> = BinaryHeap::new();
        let mut free: Vec<usize> = (0..cores).rev().collect();
        let mut seq = u64::MAX - 500;
        for (op, raw_time) in ops {
            let push = !free.is_empty() && (reference.is_empty() || op != 0);
            if push {
                seq += 1;
                let event = Event {
                    // Coarse quantisation: collisions on `time` are the
                    // common case, so `(time, seq)` ordering is what's
                    // actually exercised.
                    time: if raw_time < 500 {
                        (raw_time % time_levels) as f64
                    } else {
                        EDGES[raw_time as usize % EDGES.len()]
                    },
                    seq,
                    task: TaskId(seq as usize),
                    core: CoreId(free.pop().unwrap()),
                };
                queue.push(event);
                reference.push(event);
            } else {
                let got = queue.pop().unwrap();
                let want = reference.pop().unwrap();
                prop_assert_eq!(got, want);
                prop_assert_eq!(got.time.to_bits(), want.time.to_bits());
                prop_assert_eq!((got.task, got.core), (want.task, want.core));
                free.push(got.core.index());
            }
        }
        // Drain: the queues must agree to the very end.
        while let Some(want) = reference.pop() {
            let got = queue.pop().unwrap();
            prop_assert_eq!(got, want);
            prop_assert_eq!(got.time.to_bits(), want.time.to_bits());
            prop_assert_eq!((got.task, got.core), (want.task, want.core));
        }
        prop_assert!(queue.is_empty());
        prop_assert!(queue.pop().is_none());
    }
}
