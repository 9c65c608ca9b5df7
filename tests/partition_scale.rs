//! Release-mode scaling tests for the partitioner at the problem sizes the
//! paper actually runs (100k+ task windows). Ignored by default — debug
//! builds would take minutes — and wired into CI as a separate step:
//!
//! ```text
//! cargo test --release -- --ignored partition_scales
//! ```

use std::time::Instant;

use numadag::graph::{generators, metrics, partition, PartitionConfig, PartitionScheme};

/// FNV-1a over an assignment, as `tests/partition_golden.rs` hashes them. The
/// two constants below were captured at commit 5134a62, before the
/// contraction stopped sorting its rows: the goldens there stop at window
/// size, these pin the same identity on 100k vertices.
fn fnv1a(assignment: &[u32]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &p in assignment {
        for b in p.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Multilevel partitioning of a 100k-vertex layered-DAG window into 8 parts:
/// must finish promptly, respect the balance budget, and produce a cut no
/// worse than the BFS baseline (in practice ~2× better).
#[test]
#[ignore = "release-mode scaling test; run with: cargo test --release -- --ignored partition_scales"]
fn partition_scales_to_100k_vertex_windows() {
    let g = generators::layered_dag_skeleton(200, 500, 2, 1 << 16);
    assert_eq!(g.num_vertices(), 100_000);
    let k = 8;
    let cfg = PartitionConfig::new(k);

    let start = Instant::now();
    let ml = partition(&g, &cfg);
    let elapsed = start.elapsed();

    let naive = partition(
        &g,
        &PartitionConfig::new(k).with_scheme(PartitionScheme::BfsGrowing),
    );
    let (ml_cut, naive_cut) = (ml.edge_cut(&g), naive.edge_cut(&g));
    assert_eq!(
        fnv1a(ml.assignment()),
        0x0CFF_1E49_0912_B923_u64,
        "100k-vertex multilevel assignment moved"
    );

    assert!(
        ml_cut <= naive_cut,
        "multilevel cut {ml_cut} worse than BFS baseline {naive_cut} at 100k vertices"
    );
    let q = metrics::quality(&g, &ml);
    assert_eq!(q.nonempty_parts, k);
    assert!(
        q.imbalance <= 1.0 + cfg.imbalance + 1e-9,
        "imbalance {} blew the budget",
        q.imbalance
    );
    // Generous wall-clock ceiling (measured ~0.1 s in release on one core):
    // catches an accidental return to quadratic behaviour, not CI jitter.
    assert!(
        elapsed.as_secs() < 30,
        "100k-vertex multilevel partition took {elapsed:?}"
    );
    println!(
        "100k vertices: multilevel {elapsed:?}, cut {ml_cut} vs BFS {naive_cut} \
         ({:.2}x better), imbalance {:.4}",
        naive_cut as f64 / ml_cut.max(1) as f64,
        q.imbalance
    );
}

/// The 500k-vertex stretch size stays tractable and keeps its quality edge.
#[test]
#[ignore = "release-mode scaling test; run with: cargo test --release -- --ignored partition_scales"]
fn partition_scales_to_500k_vertex_windows() {
    let g = generators::layered_dag_skeleton(500, 1000, 2, 1 << 16);
    assert_eq!(g.num_vertices(), 500_000);
    let cfg = PartitionConfig::new(8);

    let start = Instant::now();
    let ml = partition(&g, &cfg);
    let elapsed = start.elapsed();

    let naive = partition(
        &g,
        &PartitionConfig::new(8).with_scheme(PartitionScheme::BfsGrowing),
    );
    assert!(ml.edge_cut(&g) <= naive.edge_cut(&g));
    assert!(
        elapsed.as_secs() < 120,
        "500k-vertex multilevel partition took {elapsed:?}"
    );
}

/// Determinism must survive scale: two runs with the same seed agree on
/// every one of the 100k vertices.
#[test]
#[ignore = "release-mode scaling test; run with: cargo test --release -- --ignored partition_scales"]
fn partition_scales_deterministically() {
    let g = generators::layered_dag_skeleton(200, 500, 2, 1 << 12);
    let cfg = PartitionConfig::new(8).with_seed(77);
    let a = partition(&g, &cfg);
    let b = partition(&g, &cfg);
    assert_eq!(a, b, "same seed must give the same 100k-vertex partition");
    assert_eq!(
        fnv1a(a.assignment()),
        0x6F00_A8B2_5C52_66D7_u64,
        "100k-vertex seed-77 assignment moved"
    );
}
