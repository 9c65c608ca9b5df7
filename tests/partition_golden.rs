//! Golden partitions: an FNV-1a hash of the assignment vector of every
//! partition below, captured on the commit *before* the partitioner's hot
//! loops were reworked (PR 15). `BENCH_figure1_*.json` only notices a changed
//! partition when a makespan moves; this notices one vertex.
//!
//! Two families:
//!
//! * the window partitions of the Full sweep — for each of the eight
//!   applications, window 0 unanchored (seed `0x56F1`) and window 1 anchored
//!   on window 0's placement through its cross edges (seed `0x56F1 + 1`),
//!   built the way `benchmark/src/probes/graph.rs` builds its inputs, all
//!   through one shared [`PartitionCtx`];
//! * `generators::{grid_2d, layered_dag_skeleton, random_graph}` ×
//!   k ∈ {2, 4, 8} × {`ml`, `rb`, `bfs`} × seeds {1, 0x56F1}.
//!
//! A third table, captured on the commit before the stage traits were folded
//! into one driver (PR 18), pins the anchored path of the two flat schemes —
//! what `rgp-las:scheme=rb,prop=repart` and `scheme=bfs,prop=repart` run:
//! every Full window 1 anchored on a window 0 partitioned by the same scheme,
//! and `random_graph` × k ∈ {2, 8} through the per-thread-context entry
//! point [`partition_anchored`].
//!
//! A partitioner change that is *meant* to move partitions regenerates the
//! table: the failure message prints it in paste-able form.
//!
//! Also run in release mode by CI (`cargo test --release --test
//! partition_golden`), so LTO builds are covered too.

use numadag::graph::{
    generators, partition, partition_anchored, partition_anchored_ctx, partition_ctx,
    AffinityCosts, CsrGraph, PartitionConfig, PartitionCtx, PartitionScheme, PartitionTuning,
};
use numadag::kernels::{Application, ProblemScale};
use numadag::tdg::{window_to_csr, TaskWindow, WindowConfig};

/// Sockets of the paper's machine, which sizes every Full workload.
const SOCKETS: usize = 8;
/// The seed `RgpPolicy::rgp_las()` hands the partitioner.
const RGP_SEED: u64 = 0x56F1;

fn fnv1a(assignment: &[u32]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &p in assignment {
        for b in p.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn window_hashes(scheme: PartitionScheme) -> Vec<(String, u64)> {
    let tuning = PartitionTuning {
        scheme,
        ..PartitionTuning::default()
    };
    let mut ctx = PartitionCtx::default();
    let mut out = Vec::new();
    for app in Application::all() {
        let spec = app.build(ProblemScale::Full, SOCKETS);
        let windows = TaskWindow::split_all(&spec.graph, WindowConfig::default());
        let first = window_to_csr(&spec.graph, &windows[0]);
        let cfg0 = tuning.config_for(SOCKETS, RGP_SEED);
        let p0 = partition_ctx(&first.graph, &cfg0, &mut ctx);
        out.push((format!("{}/w0", app.label()), fnv1a(p0.assignment())));
        let Some(w1) = windows.get(1) else { continue };
        let second = window_to_csr(&spec.graph, w1);
        let base = first.tasks[0].index();
        let mut affinity = AffinityCosts::zeros(second.graph.num_vertices(), SOCKETS);
        for ce in &second.cross_edges {
            let v = (ce.predecessor.index() - base) as u32;
            affinity.add(ce.vertex, p0.part_of(v), ce.bytes);
        }
        let cfg1 = tuning.config_for(SOCKETS, RGP_SEED.wrapping_add(1));
        let p1 = partition_anchored_ctx(&second.graph, &cfg1, &affinity, &mut ctx);
        out.push((format!("{}/w1", app.label()), fnv1a(p1.assignment())));
    }
    out
}

fn generator_hashes() -> Vec<(String, u64)> {
    let graphs: [(&str, CsrGraph); 3] = [
        ("grid", generators::grid_2d(32, 32, 3)),
        (
            "layered",
            generators::layered_dag_skeleton(32, 32, 2, 1 << 16),
        ),
        ("random", generators::random_graph(1000, 8, 50, 11)),
    ];
    let mut out = Vec::new();
    for (name, g) in &graphs {
        for k in [2usize, 4, 8] {
            for scheme in PartitionScheme::all() {
                for seed in [1u64, RGP_SEED] {
                    let cfg = PartitionConfig::new(k).with_scheme(scheme).with_seed(seed);
                    let p = partition(g, &cfg);
                    out.push((
                        format!("{name}/k{k}/{}/s{seed:x}", scheme.token()),
                        fnv1a(p.assignment()),
                    ));
                }
            }
        }
    }
    out
}

fn anchored_flat_scheme_hashes() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let random = generators::random_graph(1000, 8, 50, 11);
    for scheme in [
        PartitionScheme::RecursiveBisection,
        PartitionScheme::BfsGrowing,
    ] {
        let token = scheme.token();
        out.extend(
            window_hashes(scheme)
                .into_iter()
                .filter(|(name, _)| name.ends_with("/w1"))
                .map(|(name, h)| (format!("{name}/{token}"), h)),
        );
        for k in [2usize, 8] {
            let mut affinity = AffinityCosts::zeros(random.num_vertices(), k);
            for v in (0..random.num_vertices() as u32).step_by(7) {
                affinity.add(v, v % k as u32, 64);
            }
            let cfg = PartitionConfig::new(k)
                .with_scheme(scheme)
                .with_seed(RGP_SEED);
            let p = partition_anchored(&random, &cfg, &affinity);
            out.push((
                format!("random/k{k}/{token}/anchored"),
                fnv1a(p.assignment()),
            ));
        }
    }
    out
}

fn check(actual: Vec<(String, u64)>, golden: &[(&str, u64)]) {
    let matches = actual.len() == golden.len()
        && actual
            .iter()
            .zip(golden)
            .all(|((name, h), (gname, gh))| name == gname && h == gh);
    if !matches {
        let table: String = actual
            .iter()
            .map(|(name, h)| format!("    (\"{name}\", 0x{h:016x}),\n"))
            .collect();
        panic!(
            "partitions moved ({} golden entries); actual table:\n{table}",
            golden.len()
        );
    }
}

#[test]
fn full_sweep_window_partitions_match_golden() {
    check(
        window_hashes(PartitionScheme::MultilevelKWay),
        WINDOW_GOLDEN,
    );
}

#[test]
fn generator_partitions_match_golden() {
    check(generator_hashes(), GENERATOR_GOLDEN);
}

#[test]
fn anchored_flat_scheme_partitions_match_golden() {
    check(anchored_flat_scheme_hashes(), ANCHORED_FLAT_GOLDEN);
}

const WINDOW_GOLDEN: &[(&str, u64)] = &[
    ("Conjugate gradient/w0", 0x88262f0d92d2c762),
    ("Conjugate gradient/w1", 0xfc1e5446132d4b97),
    ("Gauss-Seidel/w0", 0xfaf19c1a7e4fec64),
    ("Gauss-Seidel/w1", 0xdbd4bd24c48c7023),
    ("Integral histogram/w0", 0x1acecf5434660b67),
    ("Integral histogram/w1", 0x3ac5e4a198ae59a2),
    ("Jacobi/w0", 0x7090c31086e99800),
    ("Jacobi/w1", 0x1f5b0c20b1ebd0b3),
    ("NStream/w0", 0xdef8b92c110f9a64),
    ("NStream/w1", 0xe45b084399673b94),
    ("QR factorization/w0", 0xb2209460f9dd6ba1),
    ("Red-Black/w0", 0x7d7abe193059c360),
    ("Red-Black/w1", 0x6bbe1874e73c1561),
    ("Symm. mat. inv./w0", 0xe404267b49dcb846),
];

const GENERATOR_GOLDEN: &[(&str, u64)] = &[
    ("grid/k2/ml/s1", 0x334b07a16d0b2bd5),
    ("grid/k2/ml/s56f1", 0xf870adfe37b5f3f5),
    ("grid/k2/rb/s1", 0x50b92d4ac79cfbe4),
    ("grid/k2/rb/s56f1", 0xfa0c81966b164aa5),
    ("grid/k2/bfs/s1", 0x12ed8f73ded48655),
    ("grid/k2/bfs/s56f1", 0x0e20cecd1504bdf5),
    ("grid/k4/ml/s1", 0x8d40c8ed3662f045),
    ("grid/k4/ml/s56f1", 0xac2fa68a9a28e7f5),
    ("grid/k4/rb/s1", 0x18ab38456f08dd05),
    ("grid/k4/rb/s56f1", 0x2d00f90ab1eb6054),
    ("grid/k4/bfs/s1", 0x5590a69e3529ff15),
    ("grid/k4/bfs/s56f1", 0x9c871e00f77d2e25),
    ("grid/k8/ml/s1", 0xc3dfa20245f57871),
    ("grid/k8/ml/s56f1", 0x07f4ca1876656354),
    ("grid/k8/rb/s1", 0x3c8bd344d2c50342),
    ("grid/k8/rb/s56f1", 0x24348dc12ba4adf4),
    ("grid/k8/bfs/s1", 0x41f5d86d76789fa5),
    ("grid/k8/bfs/s56f1", 0xd16faba451a50d45),
    ("layered/k2/ml/s1", 0x94fea9231c9b0c65),
    ("layered/k2/ml/s56f1", 0x7401d5421f3ee8c5),
    ("layered/k2/rb/s1", 0xe0349f5265178e94),
    ("layered/k2/rb/s56f1", 0xe0349f5265178e94),
    ("layered/k2/bfs/s1", 0xc4856cbb6f29d645),
    ("layered/k2/bfs/s56f1", 0xfeebcec18eb315c5),
    ("layered/k4/ml/s1", 0x2ff4f3e33efba5a5),
    ("layered/k4/ml/s56f1", 0x40d0599229072b15),
    ("layered/k4/rb/s1", 0x947bb5054c060a04),
    ("layered/k4/rb/s56f1", 0x792c1dbe48459317),
    ("layered/k4/bfs/s1", 0xa3ff31832ffbe5b5),
    ("layered/k4/bfs/s56f1", 0x1110fecc15688715),
    ("layered/k8/ml/s1", 0xd813f2eae2bc0d40),
    ("layered/k8/ml/s56f1", 0x29aa3566a6e137b1),
    ("layered/k8/rb/s1", 0xf3209308762365c3),
    ("layered/k8/rb/s56f1", 0xf71c5a9b0a87db87),
    ("layered/k8/bfs/s1", 0x1e51f7cde29fbf65),
    ("layered/k8/bfs/s56f1", 0xc60b9f4a68920295),
    ("random/k2/ml/s1", 0x5b741c3d53a0a6f5),
    ("random/k2/ml/s56f1", 0x4a60ee57a35e1ea5),
    ("random/k2/rb/s1", 0x1ca14f8f407cff15),
    ("random/k2/rb/s56f1", 0x0309e68e78ec0bb5),
    ("random/k2/bfs/s1", 0xa5cb224e37460cc5),
    ("random/k2/bfs/s56f1", 0x4fe290f347059525),
    ("random/k4/ml/s1", 0xe11e94bec2876fd5),
    ("random/k4/ml/s56f1", 0xb6de7ab3d62e7df5),
    ("random/k4/rb/s1", 0x50ca9245d749b1d5),
    ("random/k4/rb/s56f1", 0x021c7ca66a8cd045),
    ("random/k4/bfs/s1", 0x40e2a22729cc8c45),
    ("random/k4/bfs/s56f1", 0xc8930a2180f0a2a5),
    ("random/k8/ml/s1", 0x0a4bc4b51a84f045),
    ("random/k8/ml/s56f1", 0x0736c030871562d0),
    ("random/k8/rb/s1", 0xc38ce40fd9a6c5a6),
    ("random/k8/rb/s56f1", 0x0e3ad5755c989d05),
    ("random/k8/bfs/s1", 0xc43c82d7841cd595),
    ("random/k8/bfs/s56f1", 0x7e9dcc825faa2b15),
];

const ANCHORED_FLAT_GOLDEN: &[(&str, u64)] = &[
    ("Conjugate gradient/w1/rb", 0x45273d1cea307065),
    ("Gauss-Seidel/w1/rb", 0xfaeecc1d23291fa5),
    ("Integral histogram/w1/rb", 0x81ba4ff0300390b2),
    ("Jacobi/w1/rb", 0xaaeb0c884f645952),
    ("NStream/w1/rb", 0xc6488583c2859894),
    ("Red-Black/w1/rb", 0x385b6dad2174e5c3),
    ("random/k2/rb/anchored", 0xbdc3f3876a882305),
    ("random/k8/rb/anchored", 0x86589de1ea622287),
    ("Conjugate gradient/w1/bfs", 0xce9673b67a949fe3),
    ("Gauss-Seidel/w1/bfs", 0x55cb6f5be3b31d15),
    ("Integral histogram/w1/bfs", 0x8279d95ece07e771),
    ("Jacobi/w1/bfs", 0x2538ba7544412205),
    ("NStream/w1/bfs", 0x8bfc4cec477f0bf5),
    ("Red-Black/w1/bfs", 0x13cd0a1593861905),
    ("random/k2/bfs/anchored", 0xd0fd3130a9e2b625),
    ("random/k8/bfs/anchored", 0x30b43762571fbcc5),
];
