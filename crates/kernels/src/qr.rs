//! Tiled QR factorisation (Householder, PLASMA-style kernel set:
//! GEQRT / ORMQR / TSQRT / TSMQR).
//!
//! The tile DAG is the classic dense-factorisation shape: a serial panel
//! chain down the diagonal, trailing-matrix updates fanning out from it, and
//! decreasing parallelism as the factorisation proceeds. Expert programmers
//! place tiles 2-D block-cyclically; the interesting question for RGP is
//! whether the partitioner discovers an equally good grouping from the byte
//! weights alone.

use numadag_tdg::{TaskGraphSpec, TaskSpec, TdgBuilder};

use crate::common::{
    block_cyclic_2d, gemm_flops, geqrt_flops, kernel_spec, trsm_flops, ProblemScale,
};

/// Parameters of the tiled QR kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct QrParams {
    /// Tiles per dimension (the matrix is `nt × nt` tiles).
    pub nt: usize,
    /// Tile side length in elements.
    pub tile_n: usize,
}

impl QrParams {
    /// Parameters for a given problem scale.
    pub(crate) fn with_scale(scale: ProblemScale) -> Self {
        match scale {
            ProblemScale::Tiny => QrParams { nt: 4, tile_n: 16 },
            ProblemScale::Small => QrParams { nt: 8, tile_n: 128 },
            ProblemScale::Full => QrParams {
                nt: 12,
                tile_n: 256,
            },
        }
    }
}

/// Builds the tiled-QR task graph with a 2-D block-cyclic expert placement.
pub(crate) fn build(params: QrParams, num_sockets: usize) -> TaskGraphSpec {
    let nt = params.nt;
    let tile_bytes = (params.tile_n * params.tile_n * std::mem::size_of::<f64>()) as u64;
    let t_bytes = (params.tile_n * std::mem::size_of::<f64>()) as u64 * 32;

    let mut builder = TdgBuilder::new();
    let idx = |i: usize, j: usize| i * nt + j;
    let a: Vec<_> = (0..nt * nt).map(|_| builder.region(tile_bytes)).collect();
    let t_diag: Vec<_> = (0..nt).map(|_| builder.region(t_bytes)).collect();
    let t_sub: Vec<_> = (0..nt * nt).map(|_| builder.region(t_bytes)).collect();

    let mut ep = Vec::new();
    let owner = |i: usize, j: usize| block_cyclic_2d(i, j, num_sockets);
    let b = params.tile_n;

    // Initialise the matrix tiles.
    for i in 0..nt {
        for j in 0..nt {
            builder.submit(
                TaskSpec::new("init_tile")
                    .work((b * b) as f64)
                    .writes(a[idx(i, j)], tile_bytes),
            );
            ep.push(owner(i, j));
        }
    }

    for k in 0..nt {
        // Panel factorisation of the diagonal tile.
        builder.submit(
            TaskSpec::new("geqrt")
                .work(geqrt_flops(b))
                .reads_writes(a[idx(k, k)], tile_bytes)
                .writes(t_diag[k], t_bytes),
        );
        ep.push(owner(k, k));

        // Apply the panel reflectors to the tiles right of the diagonal.
        for j in (k + 1)..nt {
            builder.submit(
                TaskSpec::new("ormqr")
                    .work(gemm_flops(b))
                    .reads(a[idx(k, k)], tile_bytes)
                    .reads(t_diag[k], t_bytes)
                    .reads_writes(a[idx(k, j)], tile_bytes),
            );
            ep.push(owner(k, j));
        }

        // Eliminate the tiles below the diagonal.
        for i in (k + 1)..nt {
            builder.submit(
                TaskSpec::new("tsqrt")
                    .work(geqrt_flops(b) + trsm_flops(b))
                    .reads_writes(a[idx(k, k)], tile_bytes)
                    .reads_writes(a[idx(i, k)], tile_bytes)
                    .writes(t_sub[idx(i, k)], t_bytes),
            );
            ep.push(owner(i, k));

            for j in (k + 1)..nt {
                builder.submit(
                    TaskSpec::new("tsmqr")
                        .work(2.0 * gemm_flops(b))
                        .reads(a[idx(i, k)], tile_bytes)
                        .reads(t_sub[idx(i, k)], t_bytes)
                        .reads_writes(a[idx(k, j)], tile_bytes)
                        .reads_writes(a[idx(i, j)], tile_bytes),
                );
                ep.push(owner(i, j));
            }
        }
    }

    kernel_spec("QR factorization", builder, ep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_validity() {
        let p = QrParams::with_scale(ProblemScale::Tiny);
        let spec = build(p, 4);
        // Factorisation tasks (excluding tile initialisation) for `nt` tiles:
        // `Σ_k 1 + (nt-1-k) + (nt-1-k) + (nt-1-k)²`.
        let factorization: usize = (0..p.nt)
            .map(|k| {
                let rem = p.nt - 1 - k;
                1 + rem + rem + rem * rem
            })
            .sum();
        assert_eq!(spec.num_tasks(), p.nt * p.nt + factorization);
        assert!(spec.ep_placement().is_some());
    }

    #[test]
    fn diagonal_chain_serialises_panels() {
        let p = QrParams { nt: 4, tile_n: 8 };
        let spec = build(p, 4);
        // The second geqrt must be (transitively) after the first: its level
        // is strictly greater.
        let levels = spec.graph.levels();
        let geqrt_levels: Vec<usize> = spec
            .graph
            .tasks()
            .filter(|t| t.kind == "geqrt")
            .map(|t| levels[t.id.index()])
            .collect();
        assert_eq!(geqrt_levels.len(), 4);
        for w in geqrt_levels.windows(2) {
            assert!(w[1] > w[0], "geqrt levels must increase: {geqrt_levels:?}");
        }
    }

    #[test]
    fn trailing_update_reads_panel_tiles() {
        let p = QrParams { nt: 3, tile_n: 8 };
        let spec = build(p, 2);
        let tsmqr = spec.graph.tasks().find(|t| t.kind == "tsmqr").unwrap();
        assert_eq!(tsmqr.accesses.len(), 4);
        assert!(tsmqr.bytes_read() > tsmqr.bytes_written());
    }

    #[test]
    fn parallelism_shrinks_with_factorisation_progress() {
        let p = QrParams { nt: 6, tile_n: 8 };
        let spec = build(p, 4);
        // Average parallelism is positive but far below the task count
        // (the diagonal chain is serial).
        let ap = spec.graph.average_parallelism();
        assert!(ap > 1.5);
        assert!(ap < spec.num_tasks() as f64 / 4.0);
    }
}
