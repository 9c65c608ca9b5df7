//! Compressed sparse row (CSR) representation of undirected weighted graphs.
//!
//! The partitioner operates on undirected graphs: the task dependency graph
//! (a DAG) is symmetrised before partitioning, because what matters for NUMA
//! placement is the *amount of data shared* between two tasks, not the
//! direction it flows in.

use std::collections::BTreeMap;
use std::fmt;

/// Error returned by [`CsrGraph::validate`] when the structure is inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// `xadj` must have `n + 1` monotonically non-decreasing entries ending
    /// at `adjncy.len()`.
    BadOffsets(String),
    /// A neighbour index is out of range.
    BadNeighbor {
        /// Vertex whose adjacency list is broken.
        vertex: u32,
        /// The offending neighbour index.
        neighbor: u32,
    },
    /// A self loop was found (not allowed in partitioning input).
    SelfLoop(u32),
    /// The graph is not symmetric: edge (u, v) exists but (v, u) does not or
    /// has a different weight.
    NotSymmetric(u32, u32),
    /// Edge and adjacency arrays have different lengths.
    WeightLengthMismatch,
    /// A non-positive vertex or edge weight was found.
    NonPositiveWeight(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::BadOffsets(msg) => write!(f, "bad CSR offsets: {msg}"),
            GraphError::BadNeighbor { vertex, neighbor } => {
                write!(f, "vertex {vertex} has out-of-range neighbour {neighbor}")
            }
            GraphError::SelfLoop(v) => write!(f, "vertex {v} has a self loop"),
            GraphError::NotSymmetric(u, v) => {
                write!(f, "edge ({u}, {v}) is not mirrored with equal weight")
            }
            GraphError::WeightLengthMismatch => write!(f, "adjwgt length != adjncy length"),
            GraphError::NonPositiveWeight(msg) => write!(f, "non-positive weight: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Undirected weighted graph in CSR form.
///
/// Every undirected edge `{u, v}` is stored twice (once in each adjacency
/// list) with the same weight, METIS-style.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    xadj: Vec<usize>,
    adjncy: Vec<u32>,
    adjwgt: Vec<i64>,
    vwgt: Vec<i64>,
}

impl CsrGraph {
    /// Builds a graph from CSR arrays that are known to be valid — symmetric
    /// with equal weights, no self loops, positive weights — because their
    /// producer builds them that way (the contraction path, the conversion
    /// of a task window) and cannot afford the O(E·deg) symmetry check.
    /// Invariants are still checked in debug builds.
    pub fn from_parts_unchecked(
        xadj: Vec<usize>,
        adjncy: Vec<u32>,
        adjwgt: Vec<i64>,
        vwgt: Vec<i64>,
    ) -> Self {
        let g = CsrGraph {
            xadj,
            adjncy,
            adjwgt,
            vwgt,
        };
        debug_assert!(g.validate().is_ok());
        g
    }

    /// Takes the graph apart into its CSR arrays `(xadj, adjncy, adjwgt,
    /// vwgt)`, the inverse of [`CsrGraph::from_parts_unchecked`].
    pub fn into_parts(self) -> (Vec<usize>, Vec<u32>, Vec<i64>, Vec<i64>) {
        (self.xadj, self.adjncy, self.adjwgt, self.vwgt)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.vwgt.len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Neighbours of `v`.
    #[inline]
    pub(crate) fn neighbors(&self, v: u32) -> &[u32] {
        &self.adjncy[self.xadj[v as usize]..self.xadj[v as usize + 1]]
    }

    /// Weights of the edges incident to `v`, aligned with [`Self::neighbors`].
    #[inline]
    pub(crate) fn edge_weights(&self, v: u32) -> &[i64] {
        &self.adjwgt[self.xadj[v as usize]..self.xadj[v as usize + 1]]
    }

    /// Iterate over `(neighbor, weight)` pairs of `v`.
    #[inline]
    pub(crate) fn edges_of(&self, v: u32) -> impl Iterator<Item = (u32, i64)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.edge_weights(v).iter().copied())
    }

    /// Weight of vertex `v`.
    #[inline]
    pub fn vertex_weight(&self, v: u32) -> i64 {
        self.vwgt[v as usize]
    }

    /// All vertex weights.
    pub fn vertex_weights(&self) -> &[i64] {
        &self.vwgt
    }

    /// Sum of all vertex weights.
    pub fn total_vertex_weight(&self) -> i64 {
        self.vwgt.iter().sum()
    }

    /// Sum of the weights of all undirected edges.
    pub fn total_edge_weight(&self) -> i64 {
        self.adjwgt.iter().sum::<i64>() / 2
    }

    /// Weight of edge `(u, v)` if present.
    pub fn edge_weight(&self, u: u32, v: u32) -> Option<i64> {
        self.edges_of(u).find(|(n, _)| *n == v).map(|(_, w)| w)
    }

    /// Checks all CSR invariants. Cheap enough to call in tests and at the
    /// boundary of the partitioner; O(V + E log E).
    pub fn validate(&self) -> Result<(), GraphError> {
        let n = self.num_vertices();
        if self.xadj.len() != n + 1 {
            return Err(GraphError::BadOffsets(format!(
                "xadj has {} entries for {} vertices",
                self.xadj.len(),
                n
            )));
        }
        if self.xadj[0] != 0 || *self.xadj.last().unwrap() != self.adjncy.len() {
            return Err(GraphError::BadOffsets(
                "xadj must start at 0 and end at adjncy.len()".to_string(),
            ));
        }
        if self.adjwgt.len() != self.adjncy.len() {
            return Err(GraphError::WeightLengthMismatch);
        }
        for w in &self.vwgt {
            if *w <= 0 {
                return Err(GraphError::NonPositiveWeight(format!("vertex weight {w}")));
            }
        }
        for w in &self.adjwgt {
            if *w <= 0 {
                return Err(GraphError::NonPositiveWeight(format!("edge weight {w}")));
            }
        }
        for v in 0..n as u32 {
            let (lo, hi) = (self.xadj[v as usize], self.xadj[v as usize + 1]);
            if lo > hi {
                return Err(GraphError::BadOffsets(format!(
                    "xadj decreases at vertex {v}"
                )));
            }
            for &u in &self.adjncy[lo..hi] {
                if u as usize >= n {
                    return Err(GraphError::BadNeighbor {
                        vertex: v,
                        neighbor: u,
                    });
                }
                if u == v {
                    return Err(GraphError::SelfLoop(v));
                }
            }
        }
        // Symmetry check via sorted edge multiset.
        for v in 0..n as u32 {
            for (u, w) in self.edges_of(v) {
                match self.edge_weight(u, v) {
                    Some(back) if back == w => {}
                    _ => return Err(GraphError::NotSymmetric(v, u)),
                }
            }
        }
        Ok(())
    }
}

/// Incremental builder that accumulates edges (merging duplicates by adding
/// their weights) and produces a validated [`CsrGraph`].
#[derive(Clone, Debug, Default)]
pub(crate) struct GraphBuilder {
    num_vertices: usize,
    vwgt: Vec<i64>,
    edges: BTreeMap<(u32, u32), i64>,
}

impl GraphBuilder {
    /// A builder for a graph with `n` vertices of unit weight.
    pub(crate) fn new(n: usize) -> Self {
        GraphBuilder {
            num_vertices: n,
            vwgt: vec![1; n],
            edges: BTreeMap::new(),
        }
    }

    /// Sets the weight of vertex `v` (must be positive). Only tests build
    /// weighted graphs this way; the partitioner's own weighted graphs come
    /// from contraction and window conversion.
    #[cfg(test)]
    pub(crate) fn set_vertex_weight(&mut self, v: u32, w: i64) -> &mut Self {
        assert!(w > 0, "vertex weights must be positive");
        self.vwgt[v as usize] = w;
        self
    }

    /// Adds (or accumulates onto) the undirected edge `{u, v}` with weight
    /// `w`. Self loops and non-positive weights are ignored, matching what a
    /// partitioner front-end would do when symmetrising a DAG.
    pub(crate) fn add_edge(&mut self, u: u32, v: u32, w: i64) -> &mut Self {
        if u == v || w <= 0 {
            return self;
        }
        assert!(
            (u as usize) < self.num_vertices && (v as usize) < self.num_vertices,
            "edge endpoint out of range"
        );
        let key = if u < v { (u, v) } else { (v, u) };
        *self.edges.entry(key).or_insert(0) += w;
        self
    }

    /// Produces the CSR graph.
    pub(crate) fn build(&self) -> CsrGraph {
        let n = self.num_vertices;
        let mut degree = vec![0usize; n];
        for &(u, v) in self.edges.keys() {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut xadj = vec![0usize; n + 1];
        for v in 0..n {
            xadj[v + 1] = xadj[v] + degree[v];
        }
        let mut cursor = xadj.clone();
        let mut adjncy = vec![0u32; self.edges.len() * 2];
        let mut adjwgt = vec![0i64; self.edges.len() * 2];
        for (&(u, v), &w) in &self.edges {
            adjncy[cursor[u as usize]] = v;
            adjwgt[cursor[u as usize]] = w;
            cursor[u as usize] += 1;
            adjncy[cursor[v as usize]] = u;
            adjwgt[cursor[v as usize]] = w;
            cursor[v as usize] += 1;
        }
        let g = CsrGraph {
            xadj,
            adjncy,
            adjwgt,
            vwgt: self.vwgt.clone(),
        };
        debug_assert!(g.validate().is_ok());
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> CsrGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 5).add_edge(1, 2, 7).add_edge(0, 2, 3);
        b.build()
    }

    #[test]
    fn builder_produces_symmetric_csr() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert!(g.validate().is_ok());
        assert_eq!(g.neighbors(0).len(), 2);
        assert_eq!(g.edge_weight(0, 1), Some(5));
        assert_eq!(g.edge_weight(1, 0), Some(5));
        assert_eq!(g.edge_weight(2, 1), Some(7));
        assert_eq!(g.edge_weight(0, 2), Some(3));
        assert_eq!(g.edge_weight(1, 1), None);
        assert_eq!(g.total_edge_weight(), 15);
        assert_eq!(g.total_vertex_weight(), 3);
    }

    #[test]
    fn duplicate_edges_accumulate() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 4).add_edge(1, 0, 6);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(10));
    }

    #[test]
    fn self_loops_and_zero_weights_ignored() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(1, 1, 100).add_edge(0, 1, 0).add_edge(0, 2, -5);
        let g = b.build();
        assert_eq!(g.num_edges(), 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn vertex_weights_can_be_set() {
        let mut b = GraphBuilder::new(2);
        b.set_vertex_weight(0, 10).set_vertex_weight(1, 20);
        b.add_edge(0, 1, 1);
        let g = b.build();
        assert_eq!(g.vertex_weight(0), 10);
        assert_eq!(g.vertex_weight(1), 20);
        assert_eq!(g.total_vertex_weight(), 30);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(5).build();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert!(g.validate().is_ok());
        assert!(g.neighbors(4).is_empty());
    }

    #[test]
    fn validate_rejects_asymmetric() {
        let g = CsrGraph {
            xadj: vec![0, 1, 1],
            adjncy: vec![1],
            adjwgt: vec![1],
            vwgt: vec![1, 1],
        };
        assert!(matches!(g.validate(), Err(GraphError::NotSymmetric(0, 1))));
    }

    #[test]
    fn validate_rejects_self_loop() {
        let g = CsrGraph {
            xadj: vec![0, 1],
            adjncy: vec![0],
            adjwgt: vec![1],
            vwgt: vec![1],
        };
        assert!(matches!(g.validate(), Err(GraphError::SelfLoop(0))));
    }

    #[test]
    fn validate_rejects_bad_neighbor() {
        let g = CsrGraph {
            xadj: vec![0, 1, 2],
            adjncy: vec![9, 0],
            adjwgt: vec![1, 1],
            vwgt: vec![1, 1],
        };
        assert!(matches!(g.validate(), Err(GraphError::BadNeighbor { .. })));
    }

    #[test]
    fn validate_rejects_nonpositive_weights() {
        let g = CsrGraph {
            xadj: vec![0, 0],
            adjncy: vec![],
            adjwgt: vec![],
            vwgt: vec![0],
        };
        assert!(matches!(
            g.validate(),
            Err(GraphError::NonPositiveWeight(_))
        ));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn builder_rejects_out_of_range_edge() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 5, 1);
    }
}
