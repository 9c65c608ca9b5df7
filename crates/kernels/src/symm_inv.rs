//! Symmetric (SPD) matrix inversion via Cholesky, in three tiled sweeps:
//!
//! 1. `POTRF` sweep — Cholesky factorisation `A = L Lᵀ`
//!    (potrf / trsm / syrk / gemm tiles on the lower triangle),
//! 2. `TRTRI` sweep — inversion of the triangular factor `W = L⁻¹`,
//! 3. `LAUUM` sweep — the product `A⁻¹ = Wᵀ W` accumulated tile by tile.
//!
//! This is the OmpSs "symmetric matrix inversion" benchmark of the paper's
//! Figure 1 and the richest DAG of the suite: three phases with different
//! parallelism profiles chained on the same tiles.

use numadag_tdg::{TaskGraphSpec, TaskSpec, TdgBuilder};

use crate::common::{
    block_cyclic_2d, gemm_flops, kernel_spec, potrf_flops, syrk_flops, trsm_flops, ProblemScale,
};

/// Parameters of the symmetric-matrix-inversion kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SymmInvParams {
    /// Tiles per dimension.
    pub nt: usize,
    /// Tile side length in elements.
    pub tile_n: usize,
}

impl SymmInvParams {
    /// Parameters for a given problem scale.
    pub(crate) fn with_scale(scale: ProblemScale) -> Self {
        match scale {
            ProblemScale::Tiny => SymmInvParams { nt: 4, tile_n: 16 },
            ProblemScale::Small => SymmInvParams { nt: 8, tile_n: 128 },
            ProblemScale::Full => SymmInvParams {
                nt: 12,
                tile_n: 256,
            },
        }
    }
}

/// Builds the symmetric-matrix-inversion task graph with a 2-D block-cyclic
/// expert placement.
pub fn build(params: SymmInvParams, num_sockets: usize) -> TaskGraphSpec {
    let nt = params.nt;
    let b = params.tile_n;
    let tile_bytes = (b * b * std::mem::size_of::<f64>()) as u64;

    let mut builder = TdgBuilder::new();
    // Lower-triangular tile storage: region for tile (i, j) with i >= j.
    let mut tile = vec![usize::MAX; nt * nt];
    let mut regions = Vec::new();
    for i in 0..nt {
        for j in 0..=i {
            tile[i * nt + j] = regions.len();
            regions.push(builder.region(tile_bytes));
        }
    }
    let region = |i: usize, j: usize| regions[tile[i * nt + j]];

    let mut ep = Vec::new();
    let owner = |i: usize, j: usize| block_cyclic_2d(i, j, num_sockets);

    // Initialise the lower triangle.
    for i in 0..nt {
        for j in 0..=i {
            builder.submit(
                TaskSpec::new("init_tile")
                    .work((b * b) as f64)
                    .writes(region(i, j), tile_bytes),
            );
            ep.push(owner(i, j));
        }
    }

    // Sweep 1: Cholesky factorisation.
    for k in 0..nt {
        builder.submit(
            TaskSpec::new("potrf")
                .work(potrf_flops(b))
                .reads_writes(region(k, k), tile_bytes),
        );
        ep.push(owner(k, k));
        for i in (k + 1)..nt {
            builder.submit(
                TaskSpec::new("trsm")
                    .work(trsm_flops(b))
                    .reads(region(k, k), tile_bytes)
                    .reads_writes(region(i, k), tile_bytes),
            );
            ep.push(owner(i, k));
        }
        for i in (k + 1)..nt {
            builder.submit(
                TaskSpec::new("syrk")
                    .work(syrk_flops(b))
                    .reads(region(i, k), tile_bytes)
                    .reads_writes(region(i, i), tile_bytes),
            );
            ep.push(owner(i, i));
            for j in (k + 1)..i {
                builder.submit(
                    TaskSpec::new("gemm")
                        .work(gemm_flops(b))
                        .reads(region(i, k), tile_bytes)
                        .reads(region(j, k), tile_bytes)
                        .reads_writes(region(i, j), tile_bytes),
                );
                ep.push(owner(i, j));
            }
        }
    }

    // Sweep 2: invert the triangular factor in place (W = L⁻¹).
    for k in 0..nt {
        for i in (k + 1)..nt {
            // Update column k below the diagonal with the tiles between.
            let mut task = TaskSpec::new("trtri_gemm")
                .work(gemm_flops(b))
                .reads(region(k, k), tile_bytes)
                .reads(region(i, i), tile_bytes)
                .reads_writes(region(i, k), tile_bytes);
            if i > k + 1 {
                task = task.reads(region(i, k + 1), tile_bytes);
            }
            builder.submit(task);
            ep.push(owner(i, k));
        }
        builder.submit(
            TaskSpec::new("trtri_diag")
                .work(potrf_flops(b))
                .reads_writes(region(k, k), tile_bytes),
        );
        ep.push(owner(k, k));
    }

    // Sweep 3: A⁻¹ = Wᵀ W (LAUUM), accumulating into the lower triangle.
    for k in 0..nt {
        for j in 0..=k {
            if j < k {
                builder.submit(
                    TaskSpec::new("lauum_gemm")
                        .work(gemm_flops(b))
                        .reads(region(k, k), tile_bytes)
                        .reads(region(k, j), tile_bytes)
                        .reads_writes(region(j, j), tile_bytes),
                );
                ep.push(owner(j, j));
                for i in (j + 1)..=k {
                    builder.submit(
                        TaskSpec::new("lauum_update")
                            .work(gemm_flops(b))
                            .reads(region(k, i), tile_bytes)
                            .reads(region(k, j), tile_bytes)
                            .reads_writes(region(i, j), tile_bytes),
                    );
                    ep.push(owner(i, j));
                }
            }
        }
        builder.submit(
            TaskSpec::new("lauum_diag")
                .work(syrk_flops(b))
                .reads_writes(region(k, k), tile_bytes),
        );
        ep.push(owner(k, k));
    }

    kernel_spec("Symm. mat. inv.", builder, ep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_validity() {
        let p = SymmInvParams::with_scale(ProblemScale::Tiny);
        let spec = build(p, 4);
        assert!(spec.ep_placement().is_some());
        // Lower triangle has nt(nt+1)/2 tiles.
        assert_eq!(spec.num_regions(), p.nt * (p.nt + 1) / 2);
        // More tasks than the Cholesky sweep alone.
        let cholesky_tasks: usize = (0..p.nt)
            .map(|k| {
                let rem = p.nt - 1 - k;
                1 + rem + rem + rem * (rem.saturating_sub(1)) / 2
            })
            .sum();
        assert!(spec.num_tasks() > cholesky_tasks);
    }

    #[test]
    fn three_phases_are_chained_on_the_diagonal() {
        let p = SymmInvParams { nt: 3, tile_n: 8 };
        let spec = build(p, 2);
        let kinds: Vec<&str> = spec.graph.tasks().map(|t| t.kind).collect();
        // potrf of the first sweep appears before trtri_diag, which appears
        // before lauum_diag.
        let first_potrf = kinds.iter().position(|k| *k == "potrf").unwrap();
        let first_trtri = kinds.iter().position(|k| *k == "trtri_diag").unwrap();
        let first_lauum = kinds.iter().position(|k| *k == "lauum_diag").unwrap();
        assert!(first_potrf < first_trtri);
        assert!(first_trtri < first_lauum);
        // And the last lauum_diag transitively depends on the first potrf
        // (the graph has a long spine).
        let depth = spec.graph.levels().into_iter().max().unwrap();
        assert!(depth >= 3 * p.nt - 2, "depth {depth}");
    }

    #[test]
    fn gemm_updates_read_two_panel_tiles() {
        let p = SymmInvParams { nt: 4, tile_n: 8 };
        let spec = build(p, 4);
        let gemm = spec.graph.tasks().find(|t| t.kind == "gemm").unwrap();
        assert_eq!(gemm.accesses.len(), 3);
        assert_eq!(gemm.bytes_written(), (8 * 8 * 8) as u64);
    }

    #[test]
    fn ep_placement_covers_all_sockets() {
        let p = SymmInvParams { nt: 8, tile_n: 8 };
        let spec = build(p, 8);
        let ep = spec.ep_placement().unwrap();
        let mut seen: Vec<usize> = ep.to_vec();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 8, "expert placement should use all sockets");
    }
}
