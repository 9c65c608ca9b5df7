//! Blocked conjugate gradient on a block-tridiagonal SPD system.
//!
//! Every iteration performs a blocked SpMV (each block row of the matrix
//! touches its own and its two neighbouring vector blocks), two global dot
//! products with reduction tasks, and three AXPY-style vector updates. The
//! global reductions periodically pull data from every socket to a single
//! task, making CG sensitive both to data placement and to where the small
//! reduction tasks run.

use numadag_tdg::{TaskGraphSpec, TaskSpec, TdgBuilder};

use crate::common::{block_owner, kernel_spec, ProblemScale};

/// Parameters of the conjugate-gradient kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct CgParams {
    /// Number of vector blocks (the matrix has `blocks` block rows).
    pub blocks: usize,
    /// Elements per vector block.
    pub block_elems: usize,
    /// CG iterations.
    pub iterations: usize,
}

impl CgParams {
    /// Parameters for a given problem scale.
    pub(crate) fn with_scale(scale: ProblemScale) -> Self {
        match scale {
            ProblemScale::Tiny => CgParams {
                blocks: 6,
                block_elems: 64,
                iterations: 3,
            },
            ProblemScale::Small => CgParams {
                blocks: 24,
                block_elems: 8 * 1024,
                iterations: 8,
            },
            ProblemScale::Full => CgParams {
                blocks: 48,
                block_elems: 32 * 1024,
                iterations: 12,
            },
        }
    }
}

/// Builds the CG task graph with expert placement.
pub(crate) fn build(params: CgParams, num_sockets: usize) -> TaskGraphSpec {
    let nb = params.blocks;
    let vec_bytes = (params.block_elems * std::mem::size_of::<f64>()) as u64;
    // Block-tridiagonal matrix: each block row stores three dense blocks.
    let mat_bytes = 3 * (params.block_elems * std::mem::size_of::<f64>()) as u64;
    let scalar_bytes = std::mem::size_of::<f64>() as u64;

    let mut builder = TdgBuilder::new();
    let mut blocks = |bytes: u64| -> Vec<_> { (0..nb).map(|_| builder.region(bytes)).collect() };
    let a = blocks(mat_bytes);
    let x = blocks(vec_bytes);
    let r = blocks(vec_bytes);
    let p = blocks(vec_bytes);
    let q = blocks(vec_bytes);
    let dot_pq = blocks(scalar_bytes);
    let dot_rr = blocks(scalar_bytes);
    let alpha = builder.region(scalar_bytes);
    let beta = builder.region(scalar_bytes);

    let mut ep = Vec::new();
    let owner = |i: usize| block_owner(i, nb, num_sockets);
    let elems = params.block_elems as f64;

    // Initialisation of the matrix and the vectors.
    for i in 0..nb {
        builder.submit(
            TaskSpec::new("init_A")
                .work(3.0 * elems)
                .writes(a[i], mat_bytes),
        );
        ep.push(owner(i));
        builder.submit(TaskSpec::new("init_x").work(elems).writes(x[i], vec_bytes));
        ep.push(owner(i));
        builder.submit(TaskSpec::new("init_r").work(elems).writes(r[i], vec_bytes));
        ep.push(owner(i));
        builder.submit(TaskSpec::new("init_p").work(elems).writes(p[i], vec_bytes));
        ep.push(owner(i));
    }

    for _ in 0..params.iterations {
        // q = A p  (block-tridiagonal SpMV).
        for i in 0..nb {
            let mut task = TaskSpec::new("spmv")
                .work(6.0 * elems)
                .reads(a[i], mat_bytes)
                .reads(p[i], vec_bytes)
                .writes(q[i], vec_bytes);
            if i > 0 {
                task = task.reads(p[i - 1], vec_bytes);
            }
            if i + 1 < nb {
                task = task.reads(p[i + 1], vec_bytes);
            }
            builder.submit(task);
            ep.push(owner(i));
        }
        // Partial dot products p·q and the alpha reduction.
        for i in 0..nb {
            builder.submit(
                TaskSpec::new("dot_pq")
                    .work(2.0 * elems)
                    .reads(p[i], vec_bytes)
                    .reads(q[i], vec_bytes)
                    .writes(dot_pq[i], scalar_bytes),
            );
            ep.push(owner(i));
        }
        let mut reduce_alpha = TaskSpec::new("reduce_alpha")
            .work(nb as f64)
            .writes(alpha, scalar_bytes);
        for &d in &dot_pq {
            reduce_alpha = reduce_alpha.reads(d, scalar_bytes);
        }
        builder.submit(reduce_alpha);
        ep.push(0); // the expert runs tiny reductions on socket 0

        // x += alpha p ; r -= alpha q.
        for i in 0..nb {
            builder.submit(
                TaskSpec::new("axpy_x")
                    .work(2.0 * elems)
                    .reads(alpha, scalar_bytes)
                    .reads(p[i], vec_bytes)
                    .reads_writes(x[i], vec_bytes),
            );
            ep.push(owner(i));
            builder.submit(
                TaskSpec::new("axpy_r")
                    .work(2.0 * elems)
                    .reads(alpha, scalar_bytes)
                    .reads(q[i], vec_bytes)
                    .reads_writes(r[i], vec_bytes),
            );
            ep.push(owner(i));
        }

        // rr = r·r and the beta reduction.
        for i in 0..nb {
            builder.submit(
                TaskSpec::new("dot_rr")
                    .work(2.0 * elems)
                    .reads(r[i], vec_bytes)
                    .writes(dot_rr[i], scalar_bytes),
            );
            ep.push(owner(i));
        }
        let mut reduce_beta = TaskSpec::new("reduce_beta")
            .work(nb as f64)
            .writes(beta, scalar_bytes);
        for &d in &dot_rr {
            reduce_beta = reduce_beta.reads(d, scalar_bytes);
        }
        builder.submit(reduce_beta);
        ep.push(0);

        // p = r + beta p.
        for i in 0..nb {
            builder.submit(
                TaskSpec::new("update_p")
                    .work(2.0 * elems)
                    .reads(beta, scalar_bytes)
                    .reads(r[i], vec_bytes)
                    .reads_writes(p[i], vec_bytes),
            );
            ep.push(owner(i));
        }
    }

    kernel_spec("Conjugate gradient", builder, ep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_validity() {
        let p = CgParams::with_scale(ProblemScale::Tiny);
        let spec = build(p, 4);
        // Per iteration: spmv + dot_pq + axpy_x + axpy_r + dot_rr + update_p
        // (6 per block) + 2 reductions.
        let expected = 4 * p.blocks + p.iterations * (6 * p.blocks + 2);
        assert_eq!(spec.num_tasks(), expected);
    }

    #[test]
    fn reductions_fan_in_from_every_block() {
        let p = CgParams {
            blocks: 5,
            block_elems: 32,
            iterations: 1,
        };
        let spec = build(p, 2);
        let reduce = spec
            .graph
            .tasks()
            .find(|t| t.kind == "reduce_alpha")
            .unwrap();
        assert_eq!(spec.graph.in_degree(reduce.id), p.blocks);
    }

    #[test]
    fn spmv_couples_neighbouring_blocks() {
        let p = CgParams {
            blocks: 4,
            block_elems: 32,
            iterations: 1,
        };
        let spec = build(p, 2);
        let spmv1 = spec
            .graph
            .tasks()
            .filter(|t| t.kind == "spmv")
            .nth(1)
            .unwrap();
        // Interior block: reads A, p[i], p[i-1], p[i+1] and writes q[i].
        assert_eq!(spmv1.accesses.len(), 5);
    }

    #[test]
    fn iteration_boundary_serialises_on_scalars() {
        let p = CgParams {
            blocks: 3,
            block_elems: 16,
            iterations: 2,
        };
        let spec = build(p, 2);
        // The graph must have depth much larger than a single iteration's
        // depth because alpha/beta serialise successive iterations.
        let depth = spec.graph.levels().into_iter().max().unwrap();
        assert!(depth >= 8, "depth {depth}");
    }
}
