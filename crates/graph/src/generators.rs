//! Synthetic graph generators for tests, property tests and microbenchmarks.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::csr::{CsrGraph, GraphBuilder};

/// A `width × height` 2-D grid graph (4-point stencil connectivity) with unit
/// vertex weights and the given uniform edge weight.
pub fn grid_2d(width: usize, height: usize, edge_weight: i64) -> CsrGraph {
    let n = width * height;
    let mut b = GraphBuilder::new(n);
    let idx = |x: usize, y: usize| (y * width + x) as u32;
    for y in 0..height {
        for x in 0..width {
            if x + 1 < width {
                b.add_edge(idx(x, y), idx(x + 1, y), edge_weight);
            }
            if y + 1 < height {
                b.add_edge(idx(x, y), idx(x, y + 1), edge_weight);
            }
        }
    }
    b.build()
}

/// A path graph with `n` vertices and unit edge weights (a test fixture).
#[cfg(test)]
pub(crate) fn path(n: usize) -> CsrGraph {
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_edge((v - 1) as u32, v as u32, 1);
    }
    b.build()
}

/// An Erdős–Rényi-style random graph: each of the `n * avg_degree / 2` edges
/// connects two uniformly random distinct vertices, with weight in
/// `1..=max_weight`. Deterministic for a fixed seed.
pub fn random_graph(n: usize, avg_degree: usize, max_weight: i64, seed: u64) -> CsrGraph {
    assert!(max_weight >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    if n < 2 {
        return b.build();
    }
    let edges = n * avg_degree / 2;
    for _ in 0..edges {
        let u = rng.gen_range(0..n as u32);
        let mut v = rng.gen_range(0..n as u32);
        while v == u {
            v = rng.gen_range(0..n as u32);
        }
        b.add_edge(u, v, rng.gen_range(1..=max_weight));
    }
    b.build()
}

/// The undirected skeleton of a layered DAG: `layers` layers of `width`
/// vertices each, every vertex connected to `fanout` vertices of the next
/// layer (wrapping), with the given edge weight. This is the shape of the
/// task graphs produced by iterative stencil applications.
pub fn layered_dag_skeleton(
    layers: usize,
    width: usize,
    fanout: usize,
    edge_weight: i64,
) -> CsrGraph {
    let n = layers * width;
    let mut b = GraphBuilder::new(n);
    for layer in 0..layers.saturating_sub(1) {
        for i in 0..width {
            let u = (layer * width + i) as u32;
            for f in 0..fanout.max(1) {
                let j = (i + f) % width;
                let v = ((layer + 1) * width + j) as u32;
                b.add_edge(u, v, edge_weight);
            }
        }
    }
    b.build()
}

/// Two dense clusters of `cluster_size` vertices (intra-cluster weight
/// `heavy`) joined by a single light bridge edge. The optimal bisection is
/// obvious, which makes this the canonical partitioner sanity test.
pub fn two_clusters(cluster_size: usize, heavy: i64) -> CsrGraph {
    let n = 2 * cluster_size;
    let mut b = GraphBuilder::new(n);
    for c in 0..2 {
        let base = (c * cluster_size) as u32;
        for i in 0..cluster_size as u32 {
            for j in (i + 1)..cluster_size as u32 {
                b.add_edge(base + i, base + j, heavy);
            }
        }
    }
    if cluster_size > 0 {
        b.add_edge(0, cluster_size as u32, 1);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_expected_edges() {
        let g = grid_2d(4, 3, 2);
        assert_eq!(g.num_vertices(), 12);
        // Horizontal: 3 per row * 3 rows = 9; vertical: 4 per column pair * 2 = 8.
        assert_eq!(g.num_edges(), 9 + 8);
        assert_eq!(g.edge_weight(0, 1), Some(2));
        assert_eq!(g.edge_weight(0, 4), Some(2));
        assert!(g.validate().is_ok());
    }

    #[test]
    fn random_graph_is_deterministic() {
        let a = random_graph(100, 6, 8, 42);
        let b = random_graph(100, 6, 8, 42);
        let c = random_graph(100, 6, 8, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.validate().is_ok());
        assert!(a.num_edges() > 0);
    }

    #[test]
    fn layered_skeleton_shape() {
        let g = layered_dag_skeleton(4, 8, 2, 100);
        assert_eq!(g.num_vertices(), 32);
        assert!(g.validate().is_ok());
        // Every vertex in layers 1..3 has incoming edges from the previous layer.
        assert!(!g.neighbors(8).is_empty());
    }

    #[test]
    fn two_clusters_has_single_bridge() {
        let g = two_clusters(4, 10);
        assert_eq!(g.num_vertices(), 8);
        // 2 * C(4,2) intra edges + 1 bridge.
        assert_eq!(g.num_edges(), 13);
        assert_eq!(g.edge_weight(0, 4), Some(1));
    }

    #[test]
    fn degenerate_sizes() {
        assert_eq!(path(0).num_vertices(), 0);
        assert_eq!(path(1).num_edges(), 0);
        assert_eq!(random_graph(1, 4, 3, 7).num_edges(), 0);
        assert_eq!(grid_2d(1, 1, 1).num_edges(), 0);
    }
}
