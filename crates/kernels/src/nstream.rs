//! NStream: a STREAM-triad style kernel, `a = b + scalar * c`, blocked and
//! iterated.
//!
//! The TDG is a set of fully independent per-block chains (no communication
//! between blocks), which makes it the purest test of *data placement*: once
//! the blocks have a home, the only thing a policy can get wrong is running a
//! block's update far from the block or overloading one socket.

use numadag_tdg::{TaskGraphSpec, TaskId, TaskSpec, TdgBuilder};

use crate::common::{block_owner, kernel_spec, ProblemScale};
use crate::storage::DenseStore;

/// Parameters of the NStream kernel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NStreamParams {
    /// Number of vector blocks.
    pub blocks: usize,
    /// Elements (f64) per block.
    pub block_elems: usize,
    /// Number of triad iterations.
    pub iterations: usize,
    /// The scalar of the triad.
    pub scalar: f64,
}

impl NStreamParams {
    /// Parameters for a given problem scale.
    pub(crate) fn with_scale(scale: ProblemScale) -> Self {
        match scale {
            ProblemScale::Tiny => NStreamParams {
                blocks: 6,
                block_elems: 64,
                iterations: 3,
                scalar: 3.0,
            },
            ProblemScale::Small => NStreamParams {
                blocks: 24,
                block_elems: 16 * 1024,
                iterations: 10,
                scalar: 3.0,
            },
            ProblemScale::Full => NStreamParams {
                blocks: 48,
                block_elems: 256 * 1024,
                iterations: 20,
                scalar: 3.0,
            },
        }
    }
}

/// Builds the NStream task graph with its expert placement for `num_sockets`
/// sockets. Block `i` of `a`, `b` and `c` is region `i`, `blocks + i` and
/// `2 * blocks + i`.
pub fn build(params: NStreamParams, num_sockets: usize) -> TaskGraphSpec {
    let block_bytes = (params.block_elems * std::mem::size_of::<f64>()) as u64;
    let mut builder = TdgBuilder::new();
    let mut vector = || -> Vec<_> {
        (0..params.blocks)
            .map(|_| builder.region(block_bytes))
            .collect()
    };
    let (a, b, c) = (vector(), vector(), vector());

    let mut ep = Vec::new();
    let owner = |i: usize| block_owner(i, params.blocks, num_sockets);

    // Initialisation tasks (the benchmark's parallel first-touch loop).
    for i in 0..params.blocks {
        builder.submit(
            TaskSpec::new("init_b")
                .work(params.block_elems as f64)
                .writes(b[i], block_bytes),
        );
        ep.push(owner(i));
        builder.submit(
            TaskSpec::new("init_c")
                .work(params.block_elems as f64)
                .writes(c[i], block_bytes),
        );
        ep.push(owner(i));
        builder.submit(
            TaskSpec::new("init_a")
                .work(params.block_elems as f64)
                .writes(a[i], block_bytes),
        );
        ep.push(owner(i));
    }

    // Triad iterations.
    for _ in 0..params.iterations {
        for i in 0..params.blocks {
            builder.submit(
                TaskSpec::new("triad")
                    .work(2.0 * params.block_elems as f64)
                    .reads(b[i], block_bytes)
                    .reads(c[i], block_bytes)
                    .writes(a[i], block_bytes),
            );
            ep.push(owner(i));
        }
    }

    kernel_spec("NStream", builder, ep)
}

/// Returns a task body executing the real triad over `store`, suitable for
/// `numadag_runtime::ThreadedExecutor`. The store must have one region per
/// spec region, each with `params.block_elems` elements.
pub fn body<'a>(
    spec: &'a TaskGraphSpec,
    params: &NStreamParams,
    store: &'a DenseStore,
) -> impl Fn(TaskId) + Sync + 'a {
    let scalar = params.scalar;
    move |task: TaskId| {
        let descriptor = spec.graph.task(task);
        let region = |i: usize| descriptor.accesses.regions()[i] as usize;
        match descriptor.kind {
            "init_b" => store.write(region(0), |v| v.fill(1.0)),
            "init_c" => store.write(region(0), |v| v.fill(2.0)),
            "init_a" => store.write(region(0), |v| v.fill(0.0)),
            "triad" => {
                let b = store.snapshot(region(0));
                let c = store.snapshot(region(1));
                store.write(region(2), |a| {
                    for i in 0..a.len() {
                        a[i] = b[i] + scalar * c[i];
                    }
                });
            }
            other => panic!("unknown NStream task kind {other}"),
        }
    }
}

/// The value every element of `a` must hold after any number of iterations.
pub(crate) fn expected_a_value(params: &NStreamParams) -> f64 {
    1.0 + params.scalar * 2.0
}

/// Verifies the store against the sequential semantics. Returns the maximum
/// absolute error over all `a` blocks.
pub fn verify(store: &DenseStore, params: &NStreamParams) -> f64 {
    let expected = expected_a_value(params);
    let mut max_err = 0.0f64;
    for r in 0..params.blocks {
        store.read(r, |v| {
            for x in v {
                max_err = max_err.max((x - expected).abs());
            }
        });
    }
    max_err
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_count_and_structure() {
        let p = NStreamParams::with_scale(ProblemScale::Tiny);
        let spec = build(p, 4);
        assert_eq!(&*spec.name, "NStream");
        // 3 init tasks per block + blocks per iteration.
        assert_eq!(spec.num_tasks(), 3 * p.blocks + p.iterations * p.blocks);
        assert_eq!(spec.num_regions(), 3 * p.blocks);
        assert!(spec.ep_placement().is_some());
    }

    #[test]
    fn blocks_are_independent_chains() {
        let p = NStreamParams::with_scale(ProblemScale::Tiny);
        let spec = build(p, 4);
        // Average parallelism must be at least the number of blocks (each
        // block's chain is independent).
        assert!(spec.graph.average_parallelism() >= p.blocks as f64 * 0.9);
    }

    #[test]
    fn ep_placement_is_block_contiguous() {
        let p = NStreamParams {
            blocks: 8,
            block_elems: 16,
            iterations: 2,
            scalar: 3.0,
        };
        let spec = build(p, 4);
        let ep = spec.ep_placement().unwrap();
        // The first three tasks (inits of block 0) are on socket 0; the
        // last triad of block 7 is on socket 3.
        assert_eq!(ep[0], 0);
        assert_eq!(*ep.last().unwrap(), 3);
        assert!(ep.iter().all(|&s| s < 4));
    }

    #[test]
    fn sequential_body_execution_matches_reference() {
        let p = NStreamParams::with_scale(ProblemScale::Tiny);
        let spec = build(p, 2);
        let store = DenseStore::uniform(spec.num_regions(), p.block_elems);
        let run = body(&spec, &p, &store);
        for t in spec.graph.task_ids() {
            run(t);
        }
        assert_eq!(verify(&store, &p), 0.0);
        assert_eq!(expected_a_value(&p), 7.0);
    }
}
