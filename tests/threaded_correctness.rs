//! Integration tests for the threaded executor: real numerical task bodies
//! executed under every scheduling policy must produce exactly the results of
//! the sequential reference, regardless of placement, stealing or
//! interleaving.

use numadag::kernels::nstream;
use numadag::kernels::stencil::{self, Stencil, StencilParams};
use numadag::prelude::*;

#[test]
fn nstream_results_are_identical_under_every_policy() {
    let params = nstream::NStreamParams {
        blocks: 8,
        block_elems: 256,
        iterations: 4,
        scalar: 3.0,
    };
    let spec = nstream::build(params, 4);
    for kind in PolicyKind::all() {
        let store = DenseStore::uniform(spec.num_regions(), params.block_elems);
        let executor = ThreadedExecutor::new(ExecutionConfig::new(Topology::four_socket(2)));
        let mut policy = make_policy(kind, &spec, 13).expect("policy");
        let body = nstream::body(&spec, &params, &store);
        let report = executor.run(&spec, policy.as_mut(), &body);
        assert_eq!(report.tasks, spec.num_tasks());
        assert_eq!(
            nstream::verify(&store, &params),
            0.0,
            "{kind}: NStream result corrupted by scheduling"
        );
    }
}

#[test]
fn jacobi_results_match_sequential_reference_under_every_policy() {
    let params = StencilParams {
        nb: 6,
        block_elems: 64,
        iterations: 5,
    };
    let spec = stencil::build(Stencil::Jacobi, params, 4);
    for kind in PolicyKind::all() {
        let store = DenseStore::uniform(spec.num_regions(), params.block_elems);
        let executor = ThreadedExecutor::new(ExecutionConfig::new(Topology::two_socket(4)));
        let mut policy = make_policy(kind, &spec, 29).expect("policy");
        let body = stencil::jacobi_body(&spec, &params, &store);
        executor.run(&spec, policy.as_mut(), &body);
        let err = stencil::jacobi_verify(&store, &params);
        assert!(
            err < 1e-12,
            "{kind}: Jacobi diverged from the sequential reference by {err}"
        );
    }
}

#[test]
fn threaded_executor_handles_wide_and_deep_graphs() {
    // A quick stress of both extremes: a very wide graph (all independent)
    // and a very deep one (a single chain). With precise condvar wakeups the
    // deep chain exercises thousands of sleep/wake transitions.
    let executor = ThreadedExecutor::new(ExecutionConfig::new(Topology::two_socket(2)));

    let mut wide = TdgBuilder::new();
    let regions: Vec<_> = (0..200).map(|_| wide.region(8)).collect();
    for &r in &regions {
        wide.submit(TaskSpec::new("leaf").work(1.0).writes(r, 8));
    }
    let wide_spec = TaskGraphSpec::new("wide", wide.finish());
    let counter = std::sync::atomic::AtomicUsize::new(0);
    let mut las = LasPolicy::new(1);
    executor.run(&wide_spec, &mut las, &|_| {
        counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    });
    assert_eq!(counter.load(std::sync::atomic::Ordering::SeqCst), 200);

    let mut deep = TdgBuilder::new();
    let r = deep.region(8);
    for _ in 0..300 {
        deep.submit(TaskSpec::new("link").work(1.0).reads_writes(r, 8));
    }
    let deep_spec = TaskGraphSpec::new("deep", deep.finish());
    let counter = std::sync::atomic::AtomicUsize::new(0);
    let mut rgp = RgpPolicy::rgp_las();
    executor.run(&deep_spec, &mut rgp, &|_| {
        counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    });
    assert_eq!(counter.load(std::sync::atomic::Ordering::SeqCst), 300);
}
