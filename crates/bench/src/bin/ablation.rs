//! Design-choice ablations (ABL-WIN, ABL-SOCK, ABL-PART: window size,
//! socket count, partitioner quality), the `trace` divergence study and the
//! `bench-diff` baseline comparator.
//!
//! Usage:
//! ```text
//! cargo run -p numadag-bench --bin ablation --release -- \
//!     [window|sockets|partitioner|propagation|all] [--jobs N] \
//!     [--backend simulated|threaded|proc[:w=N]]
//! cargo run -p numadag-bench --bin ablation --release -- \
//!     trace [--scale tiny|small|full] [--jobs N]
//! cargo run -p numadag-bench --bin ablation --release -- \
//!     bench-diff BASELINE.json CANDIDATE.json
//! ```
//!
//! All three ablations are expressed as [`Experiment`] sweeps: the window
//! study is one sweep whose policy axis is RGP+LAS at increasing window
//! sizes (`rgp-las:w=N` registry labels), the socket study is one Figure-1
//! sweep per machine size, and the partitioner study is one sweep whose
//! policy axis is RGP+LAS under each partitioning scheme
//! (`rgp-las:scheme=ml|rb|bfs` registry labels) — every ablation therefore
//! lands in the same `SweepReport` shape. The partitioner study additionally
//! prints the raw window-cut comparison underlying the speedups. `--jobs N`
//! runs every study on N lanes, each pulling whole workloads (0 = one per core);
//! the studies share one `SpecCache`, so each workload spec is built once
//! across all of them. `--backend proc` spawns one worker pool before the
//! studies and runs every sweep on it, each through an executor of its own
//! config (the socket study's machine sizes included), then prints the
//! pool's counters.
//!
//! `trace` runs the apps whose Figure-1 numbers diverge the most from the
//! paper (Integral histogram, Symm. mat. inv., NStream) under RGP+LAS,
//! anchored repartitioning (`rgp-las:prop=repart`) and LAS with full
//! execution tracing, then prints two per-app divergence reports from the
//! `numadag-trace` comparison: one-shot RGP+LAS vs the LAS baseline, and
//! repartitioning vs one-shot RGP+LAS (the before/after evidence for the
//! re-anchored Figure-1 deltas) — each with makespan and critical-path
//! composition side by side, the tasks where the first policy loses the
//! most time, and the regions whose traffic went farthest. `--scale`
//! (trace only) picks the problem scale, default small.
//!
//! `bench-diff` loads two `BENCH_*.json` sweep reports and prints the
//! per-cell measurement deltas (an older file's `timing` member is
//! skipped), exiting 0 when the reports are measurement-identical and 1
//! when they differ — so "regenerate and diff the baseline" is one command
//! instead of a jq exercise. Malformed arguments exit with code 2.

use std::sync::Arc;

use numadag_bench::{execute, spawn_proc_pool, stderr_progress};
use numadag_core::{PolicyKind, Propagation, RgpTuning};
use numadag_graph::{partition, PartitionConfig, PartitionScheme};
use numadag_kernels::{Application, ProblemScale, SpecCache};
use numadag_numa::Topology;
use numadag_proc::WorkerPool;
use numadag_runtime::{Backend, Experiment, SweepReport};
use numadag_tdg::{window_to_csr, TaskWindow, WindowConfig};
use numadag_trace::TraceCollector;

const SCALE: ProblemScale = ProblemScale::Small;
const SEED: u64 = 0xAB1A7E;

/// How every study runs: backend, lanes, the spec cache they share, and
/// the worker pool of a proc run.
struct StudyConfig {
    jobs: usize,
    backend: Backend,
    specs: Arc<SpecCache>,
    pool: Option<Arc<WorkerPool>>,
}

impl StudyConfig {
    /// An experiment pre-wired with this study configuration.
    fn experiment(&self) -> Experiment {
        Experiment::new()
            .seed(SEED)
            .backend(self.backend)
            .spec_cache(Arc::clone(&self.specs))
            .on_cell_complete(stderr_progress)
    }

    /// Runs `experiment` on the study's lanes, and on its pool if it has one.
    fn run(&self, experiment: Experiment) -> SweepReport {
        execute(&experiment.plan(), self.jobs, self.pool.as_ref())
    }
}

/// ABL-WIN: RGP+LAS speedup over LAS as a function of the window size.
fn window_ablation(study: &StudyConfig) {
    println!("\n# ABL-WIN — RGP+LAS speedup over LAS vs window size ({SCALE:?} scale)\n");
    let apps = [
        Application::Jacobi,
        Application::QrFactorization,
        Application::SymmetricMatrixInversion,
    ];
    let columns = [64usize, 128, 256, 512, 1024, 2048, 4096]
        .map(|w| (w.to_string(), PolicyKind::rgp_las_window(w)));
    let report = study.run(
        study
            .experiment()
            .apps(apps)
            .scale(SCALE)
            .policies(columns.iter().map(|(_, kind)| *kind)),
    );
    print_speedups(&report, &apps, &columns, 6, false);
}

/// Prints an application × policy table of speedups over LAS: one column
/// per `(title, policy)`, `width` characters wide, and with `geomean` a
/// closing geometric-mean row.
fn print_speedups(
    report: &SweepReport,
    apps: &[Application],
    columns: &[(String, PolicyKind)],
    width: usize,
    geomean: bool,
) {
    print!("| {:<22} |", "application");
    for (title, _) in columns {
        print!(" {title:>width$} |");
    }
    println!();
    for app in apps {
        print!("| {:<22} |", app.label());
        for (_, kind) in columns {
            let s = report
                .speedup_of(app.label(), &kind.label())
                .unwrap_or(f64::NAN);
            print!(" {s:>width$.3} |");
        }
        println!();
    }
    if geomean {
        print!("| {:<22} |", "geometric mean");
        for (_, kind) in columns {
            let g = report.geomean_of(&kind.label()).unwrap_or(f64::NAN);
            print!(" {g:>width$.3} |");
        }
        println!();
    }
}

/// ABL-SOCK: the gap between the policies as the socket count grows.
fn socket_ablation(study: &StudyConfig) {
    println!("\n# ABL-SOCK — geometric-mean speedup over LAS vs socket count ({SCALE:?} scale)\n");
    println!("| sockets | DFIFO | RGP+LAS | EP |");
    for sockets in [2usize, 4, 8, 16] {
        let report = study.run(
            study
                .experiment()
                .topology(Topology::symmetric(sockets, 4))
                .apps(Application::all())
                .scale(SCALE)
                .policies([PolicyKind::Dfifo, PolicyKind::RGP_LAS, PolicyKind::Ep]),
        );
        print!("| {sockets:>7} |");
        for label in ["DFIFO", "RGP+LAS", "EP"] {
            print!(" {:>5.3} |", report.geomean_of(label).unwrap_or(f64::NAN));
        }
        println!();
    }
}

/// ABL-PART: the end-to-end effect of the window partitioner — RGP+LAS
/// speedup over LAS under each partitioning scheme, as one `Experiment`
/// sweep (each `rgp-las:scheme=…` spelling is its own report column) —
/// followed by the raw window-cut comparison that explains the speedups.
fn partitioner_ablation(study: &StudyConfig) {
    let apps = [
        Application::Jacobi,
        Application::QrFactorization,
        Application::ConjugateGradient,
        Application::IntegralHistogram,
    ];
    let columns = PartitionScheme::all().map(|scheme| {
        let kind = PolicyKind::Rgp(RgpTuning {
            scheme: Some(scheme),
            ..RgpTuning::default()
        });
        (format!("scheme={}", scheme.token()), kind)
    });

    println!("\n# ABL-PART — RGP+LAS speedup over LAS per partitioning scheme ({SCALE:?} scale)\n");
    let report = study.run(
        study
            .experiment()
            .apps(apps)
            .scale(SCALE)
            .policies(columns.iter().map(|(_, kind)| *kind)),
    );
    print_speedups(&report, &apps, &columns, 10, true);

    println!("\n## Window cut quality — multilevel k-way vs naive BFS growing\n");
    let topo = Topology::bullion_s16();
    let k = topo.num_sockets();
    println!(
        "| {:<22} | {:>14} | {:>14} | {:>8} |",
        "application", "ML cut (bytes)", "BFS cut (bytes)", "ratio"
    );
    for app in apps {
        let spec = study.specs.get(app, SCALE, k);
        let window = TaskWindow::initial(&spec.graph, WindowConfig::new(1024));
        let wg = window_to_csr(&spec.graph, &window);
        let ml = partition(&wg.graph, &PartitionConfig::new(k).with_seed(SEED));
        let naive = partition(
            &wg.graph,
            &PartitionConfig::new(k)
                .with_seed(SEED)
                .with_scheme(PartitionScheme::BfsGrowing),
        );
        let ml_cut = ml.edge_cut(&wg.graph);
        let naive_cut = naive.edge_cut(&wg.graph);
        println!(
            "| {:<22} | {:>14} | {:>14} | {:>8.2} |",
            app.label(),
            ml_cut,
            naive_cut,
            naive_cut as f64 / ml_cut.max(1) as f64
        );
    }
}

/// ABL-PROP: what propagating the partition forward buys — RGP speedup
/// over LAS for one-shot windowing (`prop=las`), round-robin propagation
/// (`prop=rr`) and anchored multi-window re-partitioning (`prop=repart`)
/// under each anchoring mode, plus the partitioning cost each variant paid
/// (windows partitioned and partitioner wall time, from the sweep's timing
/// section; in-process only, since proc workers partition their own graphs).
fn propagation_ablation(study: &StudyConfig) {
    use numadag_core::AnchorMode;
    let apps = [
        Application::Jacobi,
        Application::NStream,
        Application::IntegralHistogram,
        Application::SymmetricMatrixInversion,
    ];
    let anchors = [
        AnchorMode::None,
        AnchorMode::Deps,
        AnchorMode::Homes,
        AnchorMode::Both,
    ];
    // A window well below the Small-scale task counts, so every variant
    // actually has multiple windows to propagate across (the 1024 default
    // covers these apps whole, which would reduce the study to the
    // window-0 partition).
    let w = 256usize;
    let rgp = |prop, anchor| {
        PolicyKind::Rgp(RgpTuning {
            window: Some(w),
            prop,
            anchor,
            ..RgpTuning::default()
        })
    };
    let mut policies = vec![
        rgp(Propagation::Las, None),
        rgp(Propagation::RoundRobin, None),
    ];
    policies.extend(
        anchors
            .iter()
            .map(|&a| rgp(Propagation::Repartition, Some(a))),
    );

    println!("\n# ABL-PROP — RGP speedup over LAS per propagation mode ({SCALE:?} scale, w={w})\n");
    let report = study.run(
        study
            .experiment()
            .apps(apps)
            .scale(SCALE)
            .policies(policies.clone()),
    );
    let columns: Vec<(String, PolicyKind)> = policies
        .iter()
        .map(|&kind| {
            let short = kind
                .label()
                .replace(&format!("RGP+LAS:w={w},prop=repart,"), "repart:")
                .replace(&format!("RGP+LAS:w={w}"), "one-shot")
                .replace(&format!("RGP+RR:w={w}"), "rr");
            (short, kind)
        })
        .collect();
    print_speedups(&report, &apps, &columns, 12, true);

    println!("\n## Partitioning cost per propagation mode (mean over cells)\n");
    // Proc workers partition their own decoded copies of the graphs; the
    // coordinator's policies never prepare, so they have no cost to show.
    if study.pool.is_some() {
        println!("  not measured on the coordinator: proc workers partition their own graphs");
        return;
    }
    println!(
        "| {:<28} | {:>8} | {:>12} |",
        "policy", "windows", "wall (ms)"
    );
    for kind in &policies {
        let label = kind.label();
        let mut windows = 0usize;
        let mut wall_ns = 0.0f64;
        let mut n = 0usize;
        for (i, cell) in report.cells.iter().enumerate() {
            if cell.policy == label {
                windows += report.timing.cell_partition_windows[i];
                wall_ns += report.timing.cell_partition_wall_ns[i];
                n += 1;
            }
        }
        if n == 0 {
            continue;
        }
        println!(
            "| {:<28} | {:>8.1} | {:>12.3} |",
            label,
            windows as f64 / n as f64,
            wall_ns / n as f64 / 1e6
        );
    }
}

/// ABL-TRACE: trace the divergent Figure-1 apps under RGP+LAS and LAS, and
/// report per app where RGP+LAS wins or loses time — the tasks whose
/// durations moved the most, the regions whose traffic went farthest, and
/// how the two critical paths decompose into dependence-bound vs
/// core-busy time.
fn trace_study(study: &StudyConfig, scale: ProblemScale) {
    println!("\n# ABL-TRACE — RGP+LAS vs LAS execution-trace divergence ({scale:?} scale)\n");
    let apps = [
        Application::IntegralHistogram,
        Application::SymmetricMatrixInversion,
        Application::NStream,
    ];
    // One explicit topology for both the traced sweep and the spec lookup,
    // so the SpecCache key always matches the graph the traces ran.
    let topology = Topology::bullion_s16();
    let collector = Arc::new(TraceCollector::new());
    let repart = PolicyKind::Rgp(RgpTuning {
        prop: Propagation::Repartition,
        ..RgpTuning::default()
    });
    let repart_label = repart.label();
    study.run(
        study
            .experiment()
            .topology(topology.clone())
            .apps(apps)
            .scale(scale)
            .policies([PolicyKind::RGP_LAS, repart])
            .trace(Arc::clone(&collector)),
    );

    for app in apps {
        let rgp = collector
            .find(app.label(), "RGP+LAS")
            .expect("RGP+LAS trace collected");
        let las = collector
            .find(app.label(), "LAS")
            .expect("LAS trace collected");
        let spec = study.specs.get(app, scale, topology.num_sockets());
        let comparison = rgp
            .compare(&las, &spec.graph)
            .expect("traces of the same workload are comparable");
        println!("{comparison}");
        let (rgp_locality, las_locality) = (
            rgp.locality_histogram(10).mean,
            las.locality_histogram(10).mean,
        );
        println!(
            "  mean per-task locality: {:.1}% vs {:.1}%; max queue depth {} vs {}\n",
            100.0 * rgp_locality,
            100.0 * las_locality,
            rgp.queue_depth_timeline()
                .max_depth
                .iter()
                .max()
                .copied()
                .unwrap_or(0),
            las.queue_depth_timeline()
                .max_depth
                .iter()
                .max()
                .copied()
                .unwrap_or(0),
        );

        // Before/after the propagation refactor: the same app under anchored
        // multi-window repartitioning vs the one-shot RGP+LAS above. This is
        // the evidence trail for the re-anchored Figure-1 deltas.
        let repart_trace = collector
            .find(app.label(), &repart_label)
            .expect("repartition trace collected");
        let delta = repart_trace
            .compare(&rgp, &spec.graph)
            .expect("traces of the same workload are comparable");
        println!("{delta}");
        println!(
            "  mean per-task locality: {:.1}% vs {:.1}%\n",
            100.0 * repart_trace.locality_histogram(10).mean,
            100.0 * rgp.locality_histogram(10).mean,
        );
    }
}

/// Prints a CLI usage error and exits with code 2.
fn usage_error(message: String) -> ! {
    eprintln!("error: {message}");
    eprintln!(
        "usage: ablation [window|sockets|partitioner|propagation|all] [--jobs N] \
         [--backend simulated|threaded|proc[:w=N]]\n\
         \u{20}      ablation trace [--scale tiny|small|full] [--jobs N]\n\
         \u{20}      ablation bench-diff BASELINE.json CANDIDATE.json"
    );
    std::process::exit(2);
}

/// Loads a sweep report from a `BENCH_*.json` file, exiting 2 on failure.
fn load_report(path: &str) -> SweepReport {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage_error(format!("cannot read {path}: {e}")));
    SweepReport::from_json_str(&text)
        .unwrap_or_else(|e| usage_error(format!("cannot parse {path}: {e}")))
}

/// `bench-diff BASELINE CANDIDATE`: prints per-cell measurement deltas and
/// exits 1 when the reports differ.
fn bench_diff(baseline_path: &str, candidate_path: &str) -> ! {
    let baseline = load_report(baseline_path);
    let candidate = load_report(candidate_path);
    let diff = baseline.diff(&candidate);
    println!("# bench-diff {baseline_path} -> {candidate_path}\n");
    print!("{diff}");
    std::process::exit(if diff.is_empty() { 0 } else { 1 });
}

fn main() {
    // Worker re-entry for the proc backend (no-op unless a pool exec'd us).
    numadag_proc::maybe_run_worker();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Option<String> = None;
    let mut jobs = 1usize;
    let mut backend = Backend::default();
    let mut trace_scale: Option<ProblemScale> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "bench-diff" => match (args.get(i + 1), args.get(i + 2), args.get(i + 3)) {
                (Some(baseline), Some(candidate), None) => bench_diff(baseline, candidate),
                _ => usage_error(
                    "bench-diff needs exactly two report paths (BASELINE.json CANDIDATE.json)"
                        .to_string(),
                ),
            },
            "--jobs" => {
                i += 1;
                match args.get(i).map(|s| numadag_bench::parse_jobs(s)) {
                    Some(Ok(n)) => jobs = n,
                    Some(Err(e)) => usage_error(e),
                    None => usage_error("--jobs needs a value".to_string()),
                }
            }
            "--backend" => {
                i += 1;
                match args.get(i).map(|s| s.parse()) {
                    Some(Ok(parsed)) => backend = parsed,
                    Some(Err(e)) => usage_error(e),
                    None => usage_error("--backend needs a value".to_string()),
                }
            }
            "--scale" => {
                i += 1;
                match args.get(i).map(|s| s.parse()) {
                    Some(Ok(scale)) => trace_scale = Some(scale),
                    Some(Err(e)) => usage_error(e),
                    None => usage_error("--scale needs a value".to_string()),
                }
            }
            study @ ("window" | "sockets" | "partitioner" | "propagation" | "trace" | "all") => {
                match &which {
                    None => which = Some(study.to_string()),
                    Some(first) => usage_error(format!(
                        "more than one study selected ({first:?} and {study:?}); pick one, \
                     or \"all\" to run every study"
                    )),
                }
            }
            other => usage_error(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    let which = which.unwrap_or_else(|| "all".to_string());
    if trace_scale.is_some() && which != "trace" {
        usage_error(format!(
            "--scale only applies to the trace study (selected {which:?}); the classic \
             ablations are fixed at {SCALE:?} scale"
        ));
    }

    let study = StudyConfig {
        jobs,
        backend,
        specs: Arc::new(SpecCache::new()),
        pool: spawn_proc_pool(backend),
    };
    match which.as_str() {
        "window" => window_ablation(&study),
        "sockets" => socket_ablation(&study),
        "partitioner" => partitioner_ablation(&study),
        "propagation" => propagation_ablation(&study),
        "trace" => trace_study(&study, trace_scale.unwrap_or(SCALE)),
        _ => {
            window_ablation(&study);
            socket_ablation(&study);
            partitioner_ablation(&study);
            propagation_ablation(&study);
            trace_study(&study, SCALE);
        }
    }
    if let Some(pool) = &study.pool {
        println!("\n## Proc backend pool\n\n  {}", pool.stats());
    }
}
