//! Hot-path regression suite: the loops the interactive Full sweep spends
//! its time in — the simulator event loop, the refiner's rebalance pass, the
//! 16 window partitions, the eight spec builds and the end-to-end Figure-1
//! sweep itself — plus the `spec` wire codec that `--backend proc` pays
//! sixteen times per sweep and a `numadag-serve` cache hit on a daemon with a
//! long history behind it.
//!
//! Run `NUMADAG_CRITERION_JSON=PATH cargo bench -p numadag-bench --bench
//! hotpath` to export medians as JSON; `ablation hotpath-diff` compares the
//! export against the committed `BENCH_hotpath.json` trajectory point with a
//! relative tolerance (CI fails on >25% regression).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use numadag_bench::{run_figure1, HarnessConfig};
use numadag_core::{DfifoPolicy, PolicyKind};
use numadag_graph::partition::refine::rebalance;
use numadag_graph::{
    generators, partition_anchored_ctx, partition_ctx, AffinityCosts, CsrGraph, PartitionCtx,
    PartitionTuning,
};
use numadag_kernels::{Application, ProblemScale};
use numadag_proc::protocol::{decode_spec, encode_spec};
use numadag_runtime::{ExecutionConfig, Simulator};
use numadag_serve::{serve, ServeClient, ServeConfig, SweepSpec};
use numadag_tdg::{window_to_csr, TaskWindow, WindowConfig};

/// The simulator event loop in isolation: a Full-scale Jacobi under DFIFO,
/// the cheapest policy, so pop/release/dispatch dominate over policy work.
fn bench_simulator_event_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath");
    group.sample_size(15);
    let config = ExecutionConfig::bullion_s16();
    let sockets = config.topology.num_sockets();
    let spec = Application::Jacobi.build(ProblemScale::Full, sockets);
    group.throughput(Throughput::Elements(spec.num_tasks() as u64));
    let sim = Simulator::new(config);
    group.bench_function("simulator_event_loop/jacobi_full", |b| {
        b.iter(|| {
            let mut policy = DfifoPolicy::new();
            criterion::black_box(sim.run(&spec, &mut policy).makespan_ns)
        });
    });
    group.finish();
}

/// The refiner's queue-driven rebalance on layered-DAG windows with one
/// part overloaded — the shape projection actually produces, and the one
/// the rebalance queue is built for (a single queue build, then `O(log n)`
/// pops). The `O(n·k)`-per-move reference the unit tests keep reads ~3 ms
/// at 2k vertices and would need minutes per call at 100k — exactly the
/// headroom the queue removed.
///
/// Deliberately NOT benchmarked: several simultaneously-overweight parts
/// whose heaviest alternates move to move. That ping-pongs the per-part
/// queue rebuild (`O(n)` each) and is quadratic for both implementations —
/// recorded as remaining headroom in ROADMAP direction 4.
fn bench_refine_rebalance(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath");
    group.sample_size(10);
    let k = 8usize;
    let max_weight = |graph: &numadag_graph::CsrGraph| {
        let total: i64 = graph.vertex_weights().iter().sum();
        (total + k as i64 - 1) / k as i64 + total / 20
    };
    // Balanced modulo-k assignment with every fifth vertex forced into part
    // 0: one part at ~28% of the weight against a ~13% cap.
    let skewed_seed = |graph: &numadag_graph::CsrGraph| -> Vec<u32> {
        (0..graph.num_vertices() as u32)
            .map(|v| if v % 5 == 0 { 0 } else { v % k as u32 })
            .collect()
    };

    let large = generators::layered_dag_skeleton(200, 500, 2, 1 << 16);
    let large_max = max_weight(&large);
    let large_seed = skewed_seed(&large);
    group.throughput(Throughput::Elements(large.num_vertices() as u64));
    group.bench_function("refine_rebalance/layered_100k", |b| {
        b.iter(|| {
            let mut assignment = large_seed.clone();
            criterion::black_box(rebalance(&large, &mut assignment, k, large_max))
        });
    });

    let small = generators::layered_dag_skeleton(64, 32, 2, 1 << 16);
    let small_max = max_weight(&small);
    let small_seed = skewed_seed(&small);
    group.throughput(Throughput::Elements(small.num_vertices() as u64));
    group.bench_function("refine_rebalance/layered_2k", |b| {
        b.iter(|| {
            let mut assignment = small_seed.clone();
            criterion::black_box(rebalance(&small, &mut assignment, k, small_max))
        });
    });
    group.finish();
}

/// The 16 window partitions of one Full sweep through one warm context: per
/// application, window 0 unanchored — computed for the `rgp-las` cell and
/// found on the graph by the `rgp-las:prop=repart` cell — and then every
/// later window of the repart cell anchored on the placement of the windows
/// before it through the cross-window dependences. (The sweep's repart cells
/// also anchor on observed data homes, which only exist inside a simulation.)
fn bench_partition_windows(c: &mut Criterion) {
    /// The seed `RgpConfig::default()` hands the partitioner.
    const RGP_SEED: u64 = 0x56F1;
    let mut group = c.benchmark_group("hotpath");
    group.sample_size(15);
    let sockets = ExecutionConfig::bullion_s16().topology.num_sockets();
    let config = |window: usize| {
        PartitionTuning::default().config_for(sockets, RGP_SEED.wrapping_add(window as u64))
    };
    let mut ctx = PartitionCtx::default();
    let mut calls: Vec<(CsrGraph, usize, Option<AffinityCosts>)> = Vec::new();
    for app in Application::all() {
        let spec = app.build(ProblemScale::Full, sockets);
        let mut placed: Vec<u32> = Vec::new();
        for (i, window) in TaskWindow::split_all(&spec.graph, WindowConfig::default())
            .iter()
            .enumerate()
        {
            let wg = window_to_csr(&spec.graph, window);
            let affinity = (i > 0).then(|| {
                let mut affinity = AffinityCosts::zeros(wg.graph.num_vertices(), sockets);
                for ce in &wg.cross_edges {
                    affinity.add(ce.vertex, placed[ce.predecessor.index()], ce.bytes);
                }
                affinity
            });
            let plan = match &affinity {
                None => partition_ctx(&wg.graph, &config(i), &mut ctx),
                Some(aff) => partition_anchored_ctx(&wg.graph, &config(i), aff, &mut ctx),
            };
            placed.extend_from_slice(plan.assignment());
            calls.push((wg.graph, i, affinity));
        }
    }
    assert_eq!(
        calls.len(),
        16,
        "a Full sweep runs the partitioner on 16 windows: 8 first, 8 later"
    );
    let vertices: usize = calls.iter().map(|(g, _, _)| g.num_vertices()).sum();
    group.throughput(Throughput::Elements(vertices as u64));
    group.bench_function("partition_windows/figure1_full", |b| {
        b.iter(|| {
            for (graph, window, affinity) in &calls {
                criterion::black_box(match affinity {
                    None => partition_ctx(graph, &config(*window), &mut ctx),
                    Some(aff) => partition_anchored_ctx(graph, &config(*window), aff, &mut ctx),
                });
            }
        });
    });
    group.finish();
}

/// Building the eight Full specs: task submission, dependence derivation and
/// edge merging in `numadag-tdg` under the kernels' generators — what every
/// cold sweep pays before its first cell.
fn bench_spec_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath");
    group.sample_size(15);
    let sockets = ExecutionConfig::bullion_s16().topology.num_sockets();
    let tasks: usize = Application::all()
        .iter()
        .map(|app| app.build(ProblemScale::Full, sockets).num_tasks())
        .sum();
    group.throughput(Throughput::Elements(tasks as u64));
    group.bench_function("spec_build/full8", |b| {
        b.iter(|| {
            for app in Application::all() {
                criterion::black_box(app.build(ProblemScale::Full, sockets));
            }
        });
    });
    group.finish();
}

/// The whole Figure-1 Full sweep, serial, exactly as `figure1 --jobs 1`
/// runs it — the number the README's Performance table tracks — and the
/// four-policy sweep behind `BENCH_figure1_full.json`, whose
/// `rgp-las:prop=repart` column is the one that shares the `rgp-las`
/// column's first-window plans. Every iteration builds its own specs, as a
/// cold `figure1` does: nothing is shared from one sweep to the next.
fn bench_full_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath");
    group.sample_size(5);
    let config = HarnessConfig {
        jobs: 1,
        ..HarnessConfig::default()
    };
    group.bench_function("full_sweep/figure1_full", |b| {
        b.iter(|| criterion::black_box(run_figure1(&config).cells.len()));
    });
    let config = HarnessConfig {
        policies: PolicyKind::parse_list("dfifo,rgp-las,rgp-las:prop=repart,ep")
            .expect("registered policy labels"),
        ..config
    };
    group.bench_function("full_sweep/figure1_full4", |b| {
        b.iter(|| criterion::black_box(run_figure1(&config).cells.len()));
    });
    group.finish();
}

/// The codec's share of spec shipping: the eight Full specs encoded to
/// their wire lines (the coordinator, once per spec — their fingerprints
/// are memoised after the first iteration, as they are on a warm
/// `SpecCache`) and rebuilt from the lines, fingerprint check and its one
/// fresh hash per spec included (the worker that gets the spec).
fn bench_proc_spec_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath");
    group.sample_size(10);
    let sockets = ExecutionConfig::bullion_s16().topology.num_sockets();
    let specs: Vec<_> = Application::all()
        .iter()
        .map(|app| app.build(ProblemScale::Full, sockets))
        .collect();
    let tasks: usize = specs.iter().map(|spec| spec.num_tasks()).sum();
    group.throughput(Throughput::Elements(tasks as u64));
    group.bench_function("proc_spec_codec/full8", |b| {
        b.iter(|| {
            for spec in &specs {
                let line = encode_spec(spec);
                criterion::black_box(decode_spec(&line).expect("the spec round-trips"));
            }
        });
    });
    group.finish();
}

/// Report-cache hits on a daemon that has already answered 50,000 of them:
/// admission, job bookkeeping and the reply over loopback TCP. The sweep is
/// the smallest there is, so whatever the daemon does per request that grows
/// with its history is what moves this number. One iteration is a hundred
/// round trips — a single one is too short for a 5-sample median.
///
/// A loopback round trip on a 2-vCPU VM has two speeds, ~20 and ~90 µs,
/// depending on where the scheduler put the two threads, and a process
/// stays in one. `BENCH_hotpath.json` holds the slow one (9.7 ms), so the
/// one-sided `hotpath-diff` gate trips on a per-request cost that grew with
/// the 50,000 requests (63.6 ms before the job table was bounded), not on
/// the host's mood.
fn bench_serve_admit(c: &mut Criterion) {
    const PRIMING_HITS: usize = 50_000;
    const HITS_PER_ITER: u64 = 100;
    let mut group = c.benchmark_group("hotpath");
    group.sample_size(15);
    let handle = serve(ServeConfig::default()).expect("the daemon binds an ephemeral port");
    let mut client = ServeClient::connect(&handle.addr().to_string()).expect("connect");
    let spec = SweepSpec {
        apps: "jacobi".to_string(),
        ..SweepSpec::default()
    };
    let mut submit = || {
        client
            .submit(spec.clone(), false, |_| ())
            .expect("the daemon answers")
    };
    assert!(!submit().cache_hit, "the first submit executes");
    for _ in 0..PRIMING_HITS {
        assert!(submit().cache_hit);
    }
    group.throughput(Throughput::Elements(HITS_PER_ITER));
    group.bench_function("serve_admit/hit_after_50k", |b| {
        b.iter(|| {
            for _ in 0..HITS_PER_ITER {
                criterion::black_box(submit().job);
            }
        });
    });
    group.finish();
    handle.shutdown();
    handle.join();
}

criterion_group!(
    benches,
    bench_simulator_event_loop,
    bench_refine_rebalance,
    bench_partition_windows,
    bench_spec_build,
    bench_full_sweep,
    bench_proc_spec_codec,
    bench_serve_admit
);
criterion_main!(benches);
