//! Helpers shared by the kernel builders: expert placements, problem
//! scaling and the per-tile flop counts of the dense kernels.

use numadag_tdg::{TaskGraphSpec, TdgBuilder};

/// A kernel's workload: the graph `builder` built and the expert placement
/// `ep`, one socket per task.
pub(crate) fn kernel_spec(name: &str, builder: TdgBuilder, ep: Vec<usize>) -> TaskGraphSpec {
    TaskGraphSpec::new(name, builder.finish())
        .with_ep_placement(ep)
        .expect("a kernel places each of its tasks")
}

/// How large the Figure-1 problem instances should be. The paper uses inputs
/// sized for a 32-core machine; the reproduction offers three scales so tests
/// can run tiny instances while the benchmark harness runs the full ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum ProblemScale {
    /// Tiny instances for unit/integration tests (tens of tasks).
    Tiny,
    /// Small instances for quick local runs (hundreds of tasks).
    Small,
    /// The default evaluation size (one to a few thousand tasks per kernel).
    #[default]
    Full,
}

impl ProblemScale {
    /// The lower-case token the CLIs and the sweep service use on the wire.
    pub fn label(&self) -> &'static str {
        match self {
            ProblemScale::Tiny => "tiny",
            ProblemScale::Small => "small",
            ProblemScale::Full => "full",
        }
    }
}

impl std::fmt::Display for ProblemScale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for ProblemScale {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Ok(ProblemScale::Tiny),
            "small" => Ok(ProblemScale::Small),
            "full" => Ok(ProblemScale::Full),
            other => Err(format!(
                "unknown scale '{other}' (expected tiny|small|full)"
            )),
        }
    }
}

/// Owner-computes block distribution: block `i` of `n` blocks goes to socket
/// `i * sockets / n` (contiguous chunks, the classic expert choice for
/// streams and stencils).
pub(crate) fn block_owner(i: usize, n: usize, sockets: usize) -> usize {
    if n == 0 || sockets == 0 {
        return 0;
    }
    (i * sockets / n).min(sockets - 1)
}

/// 2-D block-cyclic distribution over a near-square process grid — the
/// placement an expert would use for tiled dense factorisations (ScaLAPACK
/// style). Returns the socket owning tile `(i, j)`.
pub(crate) fn block_cyclic_2d(i: usize, j: usize, sockets: usize) -> usize {
    if sockets == 0 {
        return 0;
    }
    let p = (1..=sockets)
        .filter(|d| sockets.is_multiple_of(*d))
        .min_by_key(|&d| {
            let q = sockets / d;
            (d as isize - q as isize).unsigned_abs()
        })
        .unwrap_or(1);
    let q = sockets / p;
    (i % p) * q + (j % q)
}

/// Flop count of a `b × b` GEMM tile (used as task work units).
pub(crate) fn gemm_flops(b: usize) -> f64 {
    2.0 * (b as f64).powi(3)
}

/// Flop count of a `b × b` POTRF tile.
pub(crate) fn potrf_flops(b: usize) -> f64 {
    (b as f64).powi(3) / 3.0
}

/// Flop count of a `b × b` TRSM tile.
pub(crate) fn trsm_flops(b: usize) -> f64 {
    (b as f64).powi(3)
}

/// Flop count of a `b × b` SYRK tile.
pub(crate) fn syrk_flops(b: usize) -> f64 {
    (b as f64).powi(3)
}

/// Flop count of a `b × b` GEQRT tile (Householder panel factorisation).
pub(crate) fn geqrt_flops(b: usize) -> f64 {
    4.0 / 3.0 * (b as f64).powi(3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_owner_is_contiguous_and_balanced() {
        let owners: Vec<usize> = (0..16).map(|i| block_owner(i, 16, 4)).collect();
        assert_eq!(owners, vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]);
        // Non-divisible case still covers all sockets and is monotone.
        let owners: Vec<usize> = (0..10).map(|i| block_owner(i, 10, 4)).collect();
        assert!(owners.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*owners.last().unwrap(), 3);
        assert_eq!(owners[0], 0);
    }

    #[test]
    fn block_owner_degenerate_inputs() {
        assert_eq!(block_owner(3, 0, 4), 0);
        assert_eq!(block_owner(3, 10, 0), 0);
        assert_eq!(block_owner(9, 10, 1), 0);
    }

    #[test]
    fn block_cyclic_grid_is_balanced() {
        // 8 sockets → 2x4 or 4x2 grid; over an 8x8 tile grid every socket
        // owns exactly 8 tiles.
        let mut counts = vec![0usize; 8];
        for i in 0..8 {
            for j in 0..8 {
                counts[block_cyclic_2d(i, j, 8)] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c == 8), "{counts:?}");
    }

    #[test]
    fn block_cyclic_perfect_square() {
        let mut counts = [0usize; 4];
        for i in 0..4 {
            for j in 0..4 {
                counts[block_cyclic_2d(i, j, 4)] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c == 4));
        assert_eq!(block_cyclic_2d(0, 0, 0), 0);
    }

    #[test]
    fn problem_scale_default_is_full() {
        assert_eq!(ProblemScale::default(), ProblemScale::Full);
    }

    #[test]
    fn problem_scale_labels_round_trip() {
        for scale in [ProblemScale::Tiny, ProblemScale::Small, ProblemScale::Full] {
            assert_eq!(scale.label().parse::<ProblemScale>().unwrap(), scale);
            assert_eq!(scale.to_string(), scale.label());
        }
        assert_eq!("FULL".parse::<ProblemScale>().unwrap(), ProblemScale::Full);
        assert!("huge".parse::<ProblemScale>().is_err());
    }

    #[test]
    fn flop_counts_scale_cubically() {
        assert_eq!(gemm_flops(10), 2000.0);
        assert!(potrf_flops(12) < trsm_flops(12));
        assert!(geqrt_flops(8) > potrf_flops(8));
        assert_eq!(syrk_flops(4), 64.0);
    }
}
