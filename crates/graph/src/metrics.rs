//! Partition quality metrics: edge cut, communication volume, balance.

use crate::csr::CsrGraph;
use crate::partition::Partition;

/// Total weight of edges whose endpoints lie in different parts.
pub fn edge_cut(graph: &CsrGraph, partition: &Partition) -> i64 {
    let assignment = partition.assignment();
    let mut cut = 0i64;
    for v in 0..graph.num_vertices() as u32 {
        for (u, w) in graph.edges_of(v) {
            if assignment[v as usize] != assignment[u as usize] {
                cut += w;
            }
        }
    }
    cut / 2
}

/// Total communication volume: for every vertex, the number of *distinct*
/// foreign parts among its neighbours, weighted by the vertex weight. This is
/// the METIS "totalv" objective and approximates the bytes a task's outputs
/// must be shipped to.
pub(crate) fn communication_volume(graph: &CsrGraph, partition: &Partition) -> i64 {
    let mut vol = 0i64;
    let mut seen: Vec<u32> = Vec::new();
    for v in 0..graph.num_vertices() as u32 {
        seen.clear();
        let pv = partition.part_of(v);
        for &u in graph.neighbors(v) {
            let pu = partition.part_of(u);
            if pu != pv && !seen.contains(&pu) {
                seen.push(pu);
            }
        }
        vol += graph.vertex_weight(v) * seen.len() as i64;
    }
    vol
}

/// Vertex weight of each part.
pub fn part_weights(graph: &CsrGraph, partition: &Partition) -> Vec<i64> {
    let mut weights = vec![0i64; partition.num_parts()];
    for v in 0..graph.num_vertices() as u32 {
        weights[partition.part_of(v) as usize] += graph.vertex_weight(v);
    }
    weights
}

/// Load imbalance: `max_part_weight / ideal_part_weight`. A perfectly
/// balanced partition has imbalance 1.0; the partitioner targets
/// `1.0 + config.imbalance`.
pub fn imbalance(graph: &CsrGraph, partition: &Partition) -> f64 {
    let weights = part_weights(graph, partition);
    let total: i64 = weights.iter().sum();
    if total == 0 || partition.num_parts() == 0 {
        return 1.0;
    }
    let ideal = total as f64 / partition.num_parts() as f64;
    let max = weights.iter().copied().max().unwrap_or(0) as f64;
    if ideal == 0.0 {
        1.0
    } else {
        max / ideal
    }
}

/// Number of boundary vertices (vertices with at least one neighbour in a
/// different part).
pub(crate) fn boundary_size(graph: &CsrGraph, partition: &Partition) -> usize {
    (0..graph.num_vertices() as u32)
        .filter(|&v| {
            graph
                .neighbors(v)
                .iter()
                .any(|&u| partition.part_of(u) != partition.part_of(v))
        })
        .count()
}

/// A compact quality report used by the ablation harness and by tests.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionQuality {
    /// Total weight of cut edges.
    pub edge_cut: i64,
    /// METIS-style total communication volume.
    pub(crate) communication_volume: i64,
    /// `max part weight / ideal part weight`.
    pub imbalance: f64,
    /// Number of boundary vertices.
    pub(crate) boundary_vertices: usize,
    /// Number of non-empty parts.
    pub nonempty_parts: usize,
}

/// Computes all quality metrics at once.
pub fn quality(graph: &CsrGraph, partition: &Partition) -> PartitionQuality {
    let weights = part_weights(graph, partition);
    PartitionQuality {
        edge_cut: edge_cut(graph, partition),
        communication_volume: communication_volume(graph, partition),
        imbalance: imbalance(graph, partition),
        boundary_vertices: boundary_size(graph, partition),
        nonempty_parts: weights.iter().filter(|&&w| w > 0).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::GraphBuilder;

    fn path4() -> CsrGraph {
        // 0 - 1 - 2 - 3 with weights 1, 10, 1
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1).add_edge(1, 2, 10).add_edge(2, 3, 1);
        b.build()
    }

    #[test]
    fn edge_cut_counts_cross_edges_once() {
        let g = path4();
        let p = Partition::from_assignment(vec![0, 0, 1, 1], 2);
        assert_eq!(edge_cut(&g, &p), 10);
        let p2 = Partition::from_assignment(vec![0, 1, 1, 0], 2);
        assert_eq!(edge_cut(&g, &p2), 2);
    }

    #[test]
    fn zero_cut_for_single_part() {
        let g = path4();
        let p = Partition::from_assignment(vec![0, 0, 0, 0], 1);
        assert_eq!(edge_cut(&g, &p), 0);
        assert_eq!(communication_volume(&g, &p), 0);
        assert_eq!(boundary_size(&g, &p), 0);
    }

    #[test]
    fn imbalance_of_even_split_is_one() {
        let g = path4();
        let p = Partition::from_assignment(vec![0, 0, 1, 1], 2);
        assert!((imbalance(&g, &p) - 1.0).abs() < 1e-12);
        let skew = Partition::from_assignment(vec![0, 0, 0, 1], 2);
        assert!((imbalance(&g, &skew) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn communication_volume_counts_distinct_parts() {
        // Star: centre 0 connected to 1, 2, 3 each in its own part.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1).add_edge(0, 2, 1).add_edge(0, 3, 1);
        let g = b.build();
        let p = Partition::from_assignment(vec![0, 1, 2, 3], 4);
        // Centre sees 3 foreign parts, each leaf sees 1.
        assert_eq!(communication_volume(&g, &p), 3 + 1 + 1 + 1);
    }

    #[test]
    fn quality_report_is_consistent() {
        let g = path4();
        let p = Partition::from_assignment(vec![0, 0, 1, 1], 2);
        let q = quality(&g, &p);
        assert_eq!(q.edge_cut, 10);
        assert_eq!(q.boundary_vertices, 2);
        assert_eq!(q.nonempty_parts, 2);
        assert!((q.imbalance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn part_weights_respect_vertex_weights() {
        let mut b = GraphBuilder::new(3);
        b.set_vertex_weight(0, 5)
            .set_vertex_weight(1, 7)
            .set_vertex_weight(2, 11);
        b.add_edge(0, 1, 1).add_edge(1, 2, 1);
        let g = b.build();
        let p = Partition::from_assignment(vec![0, 1, 1], 2);
        assert_eq!(part_weights(&g, &p), vec![5, 18]);
    }
}
