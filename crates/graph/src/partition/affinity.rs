//! Per-vertex socket-affinity anchors for *anchored* partitioning.
//!
//! A one-shot partition only sees the edges inside its own window. When a
//! later window is partitioned, part of the data its tasks read is already
//! resident on sockets fixed by earlier decisions — those dependences cannot
//! be expressed as graph edges (their other endpoint is not a free vertex),
//! but they are exactly as real as in-window edges: placing a task away from
//! its anchor costs the same remote bytes as cutting an edge.
//!
//! [`AffinityCosts`] carries those terms as a flat `n × k` table —
//! `cost(v, p)` is the number of bytes vertex `v` pulls from data already
//! fixed on part `p` — and flows through the multilevel driver: coarsening
//! sums the rows of merged vertices
//! (`AffinityCosts::project_to_coarse_into`),
//! and refinement adds the row deltas to its move gains, so the partitioner
//! trades edge cut against affinity to fixed data in one objective.

/// Flat row-major `n × k` socket-affinity table (bytes toward each part).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AffinityCosts {
    k: usize,
    costs: Vec<i64>,
}

impl AffinityCosts {
    /// An all-zero table for `num_vertices` vertices and `num_parts` parts.
    pub fn zeros(num_vertices: usize, num_parts: usize) -> Self {
        let k = num_parts.max(1);
        AffinityCosts {
            k,
            costs: vec![0; num_vertices * k],
        }
    }

    /// Makes this an all-zero table for `num_vertices` vertices and
    /// `num_parts` parts, keeping the allocation: what a caller partitioning
    /// window after window does in place of a fresh [`AffinityCosts::zeros`].
    pub fn reset(&mut self, num_vertices: usize, num_parts: usize) {
        self.k = num_parts.max(1);
        self.costs.clear();
        self.costs.resize(num_vertices * self.k, 0);
    }

    /// Number of vertices covered.
    pub(crate) fn num_vertices(&self) -> usize {
        self.costs.len() / self.k
    }

    /// Number of parts per row.
    pub(crate) fn num_parts(&self) -> usize {
        self.k
    }

    /// Adds `bytes` of affinity between vertex `v` and part `part`.
    #[inline]
    pub fn add(&mut self, v: u32, part: u32, bytes: i64) {
        self.costs[v as usize * self.k + part as usize] += bytes;
    }

    /// The affinity row of `v` across all parts.
    #[inline]
    pub(crate) fn row(&self, v: u32) -> &[i64] {
        &self.costs[v as usize * self.k..(v as usize + 1) * self.k]
    }

    /// True if no vertex has any affinity (anchoring is a no-op).
    pub(crate) fn is_zero(&self) -> bool {
        self.costs.iter().all(|&c| c == 0)
    }

    /// The raw flat table (row-major `n × k`).
    pub(crate) fn flat(&self) -> &[i64] {
        &self.costs
    }

    /// Sums the rows of vertices merged by `fine_to_coarse` into `coarse`, the
    /// table for the coarse graph, so anchors survive every coarsening level.
    /// `coarse` is overwritten (and reused without allocating once it has the
    /// capacity).
    pub(crate) fn project_to_coarse_into(
        &self,
        fine_to_coarse: &[u32],
        coarse_vertices: usize,
        coarse: &mut AffinityCosts,
    ) {
        coarse.k = self.k;
        coarse.costs.clear();
        coarse.costs.resize(coarse_vertices * self.k, 0);
        for (v, &c) in fine_to_coarse.iter().enumerate() {
            let src = &self.costs[v * self.k..(v + 1) * self.k];
            let dst = &mut coarse.costs[c as usize * self.k..(c as usize + 1) * self.k];
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_add() {
        let mut a = AffinityCosts::zeros(3, 4);
        assert_eq!(a.num_vertices(), 3);
        assert_eq!(a.num_parts(), 4);
        assert!(a.is_zero());
        a.add(1, 2, 100);
        a.add(1, 2, 50);
        a.add(2, 0, 7);
        assert_eq!(a.row(0), &[0, 0, 0, 0]);
        assert_eq!(a.row(1), &[0, 0, 150, 0]);
        assert_eq!(a.row(2), &[7, 0, 0, 0]);
        assert_eq!(a.flat().iter().sum::<i64>(), 157);
        assert!(!a.is_zero());
    }

    #[test]
    fn reset_is_a_fresh_zero_table() {
        let mut a = AffinityCosts::zeros(3, 4);
        a.add(2, 3, 9);
        a.reset(5, 2);
        assert_eq!(a, AffinityCosts::zeros(5, 2));
        a.reset(0, 0);
        assert_eq!(a, AffinityCosts::zeros(0, 0));
    }

    #[test]
    fn projection_sums_merged_rows() {
        let mut a = AffinityCosts::zeros(4, 2);
        a.add(0, 0, 10);
        a.add(1, 1, 20);
        a.add(2, 0, 5);
        a.add(3, 1, 1);
        // Vertices 0,1 merge into coarse 0; vertices 2,3 into coarse 1.
        let mut coarse = AffinityCosts::zeros(0, 2);
        a.project_to_coarse_into(&[0, 0, 1, 1], 2, &mut coarse);
        assert_eq!(coarse.row(0), &[10, 20]);
        assert_eq!(coarse.row(1), &[5, 1]);
        assert_eq!(
            coarse.flat().iter().sum::<i64>(),
            a.flat().iter().sum::<i64>()
        );
    }

    #[test]
    fn single_part_table_is_well_formed() {
        let a = AffinityCosts::zeros(5, 1);
        assert_eq!(a.num_vertices(), 5);
        assert_eq!(a.row(4), &[0]);
    }
}
