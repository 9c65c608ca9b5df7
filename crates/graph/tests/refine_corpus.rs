//! Bit-identity corpus for the queue-driven rebalance: the `GainQueue`
//! implementation must produce the exact assignment (and move count) of the
//! retained `O(n·k)`-per-move linear-scan reference on every case of a
//! 162-case corpus — the same corpus size PR 3 used to pin the multilevel
//! pipeline against the seed partitioner, re-targeted at the rebalance
//! selection loop this PR put behind a priority queue.
//!
//! The corpus (`generators::refine_corpus`) spans the generator families
//! (random, grid, layered DAG), part counts 2/4/8, and the two imbalance
//! shapes of `generators::imbalanced_assignments` per combination.

use numadag_graph::generators::{imbalanced_assignments, refine_corpus};
use numadag_graph::partition::refine::{rebalance, rebalance_reference};

#[test]
fn rebalance_queue_matches_linear_reference_on_corpus() {
    let graphs = refine_corpus();
    let mut cases = 0usize;
    for graph in &graphs {
        let n = graph.num_vertices();
        let total: i64 = graph.vertex_weights().iter().sum();
        for &k in &[2usize, 4, 8] {
            let max_part_weight = (total + k as i64 - 1) / k as i64 + total / 20;
            for seed in imbalanced_assignments(n, k) {
                let mut queued = seed.clone();
                let mut linear = seed.clone();
                let queued_moves = rebalance(graph, &mut queued, k, max_part_weight);
                let linear_moves = rebalance_reference(graph, &mut linear, k, max_part_weight);
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
