//! Regenerates the paper's Figure 1: speedup of the selected policies over
//! the LAS baseline on eight task-based applications, simulated on an
//! 8-socket × 4-core bullion S16, plus the geometric mean.
//!
//! Usage:
//! ```text
//! cargo run -p numadag-bench --bin figure1 --release -- \
//!     [--scale tiny|small|full] [--policies dfifo,rgp-las:w=512,ep] \
//!     [--backend simulated|threaded|proc[:w=N]] [--jobs N] [--reps N] [--seed N] \
//!     [--json REPORT] [--json-timing TIMING] [--trace-dir DIR]
//! ```
//!
//! `--scale --policies --backend --seed --reps` are the sweep grammar
//! (`SweepSpec::set_flag`, shared with `serve-client`), defaults included,
//! except that Figure 1 runs at Full scale. A policy named twice is one
//! column.
//!
//! `--backend proc` runs every cell in worker *processes* (the
//! `numadag-proc` coordinator; `proc:w=N` picks the pool size, default 2).
//! Workers execute the same deterministic simulator, so the measurement
//! report is byte-identical to `--backend simulated` — the pool's dispatch
//! counters are printed after the sweep.
//!
//! Policies are parsed through the `PolicyKind` registry, so any registered
//! label works, including parameterised RGP variants: window size
//! (`rgp-las:w=512`), partitioning scheme (`rgp-las:scheme=ml|rb|bfs`) and
//! refinement passes (`rgp-las:passes=4`), in any combination — partitioner
//! ablations run through the same sweep as everything else.
//!
//! `--jobs N` runs the sweep on N lanes, each pulling whole workloads (0 =
//! one per core; `--backend proc` runs at least one per live worker), and
//! the sweep accounting line prints the lanes that ran; on the simulator
//! backend the report is bit-identical for every value. Per-cell progress
//! goes to stderr, keeping stdout tables and the
//! JSON exports clean. `--json` writes the byte-stable measurement report
//! (the `BENCH_*.json` baseline format); `--json-timing` writes the
//! report's wall-time/spec-build accounting alone (`SweepTiming`: lanes,
//! wall totals, spec builds and per-cell columns), which varies run to run.
//!
//! `--trace-dir DIR` records a full execution trace for every cell (policy
//! assign decisions, task start/finish with socket and timestamp, steals,
//! deferred placements, per-access traffic with NUMA distance) and writes
//! one pretty-printed `<app>_<scale>_<policy>_rep<N>.trace.json` per cell
//! into DIR — the input to the `numadag-trace` analytics and the
//! `ablation trace` divergence reports. Tracing never changes the
//! measurements on the simulator backend.
//!
//! Malformed arguments (unknown scale, unknown flag, non-integer `--jobs`/
//! `--reps`/`--seed`, …) are hard errors with exit code 2.

use std::sync::Arc;

use numadag_bench::{execute, paper_reference, spawn_proc_pool, stderr_progress, write_trace_dir};
use numadag_kernels::SpecCache;
use numadag_numa::Topology;
use numadag_runtime::{Backend, ResolvedSweep, SweepReport, SweepSpec};
use numadag_trace::TraceCollector;

/// Prints a CLI usage error and exits with code 2.
fn usage_error(message: String) -> ! {
    eprintln!("error: {message}");
    eprintln!(
        "usage: figure1 [--scale tiny|small|full] [--policies LIST] \
         [--backend simulated|threaded|proc[:w=N]] [--jobs N] [--reps N] [--seed N] \
         [--json REPORT] [--json-timing TIMING] [--trace-dir DIR]"
    );
    std::process::exit(2);
}

/// The value of flag `args[i]`, or a usage error naming the flag.
fn flag_value(args: &[String], i: usize) -> &str {
    match args.get(i + 1) {
        Some(value) => value,
        None => usage_error(format!("{} needs a value", args[i])),
    }
}

/// Figure 1 is the Full-scale sweep of the sweep grammar's defaults.
fn default_sweep() -> SweepSpec {
    SweepSpec {
        scale: "full".to_string(),
        ..SweepSpec::default()
    }
}

/// What the command line asks for.
struct Args {
    sweep: ResolvedSweep,
    jobs: usize,
    json_path: Option<String>,
    json_timing_path: Option<String>,
    trace_dir: Option<String>,
}

fn parse_args() -> Args {
    let mut spec = default_sweep();
    let mut jobs = 1;
    let (mut json_path, mut json_timing_path, mut trace_dir) = (None, None, None);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--jobs" => match numadag_bench::parse_jobs(flag_value(&args, i)) {
                Ok(value) => jobs = value,
                Err(e) => usage_error(e),
            },
            "--json" => json_path = Some(flag_value(&args, i).to_string()),
            "--json-timing" => json_timing_path = Some(flag_value(&args, i).to_string()),
            "--trace-dir" => trace_dir = Some(flag_value(&args, i).to_string()),
            // Figure 1 is the whole suite: every sweep flag but this one.
            "--apps" => usage_error("unknown argument \"--apps\"".to_string()),
            flag => {
                if let Err(e) = spec.set_flag(flag, args.get(i + 1).map(String::as_str)) {
                    usage_error(e);
                }
            }
        }
        i += 2;
    }
    Args {
        sweep: spec.resolve().unwrap_or_else(|e| usage_error(e)),
        jobs,
        json_path,
        json_timing_path,
        trace_dir,
    }
}

fn print_table(report: &SweepReport) {
    let policies = report.policy_labels();

    print!("| {:<22} | {:>6} |", "application", "tasks");
    for p in &policies {
        print!(" {p:>12} |");
    }
    println!(" {:>10} |", "LAS local%");
    print!("|{}|{}|", "-".repeat(24), "-".repeat(8));
    for _ in &policies {
        print!("{}|", "-".repeat(14));
    }
    println!("{}|", "-".repeat(12));

    for app in report.application_labels() {
        let las_cells = report.cells_of(&app, "LAS");
        let tasks = las_cells.first().map_or(0, |c| c.tasks);
        let las_local = las_cells.first().map_or(0.0, |c| c.local_fraction);
        print!("| {app:<22} | {tasks:>6} |");
        for p in &policies {
            match report.speedup_of(&app, p) {
                Some(s) => print!(" {s:>12.3} |"),
                None => print!(" {:>12} |", "n/a"),
            }
        }
        println!(" {:>9.1}% |", 100.0 * las_local);
    }

    print!("| {:<22} | {:>6} |", "Geometric mean", "");
    for p in &policies {
        match report.geomean_of(p) {
            Some(v) => print!(" {v:>12.3} |"),
            None => print!(" {:>12} |", "n/a"),
        }
    }
    println!(" {:>10} |", "");
}

fn main() {
    // If this process was re-exec'd by a proc-backend worker pool, become
    // the worker (never returns in that case).
    numadag_proc::maybe_run_worker();
    let Args {
        sweep,
        jobs,
        json_path,
        json_timing_path,
        trace_dir,
    } = parse_args();
    // The proc backend's pool is this run's: spawned up front, held past
    // the sweep so its stats can be reported after it.
    let proc_pool = spawn_proc_pool(sweep.backend);
    if sweep.backend == Backend::Threaded && jobs != 1 {
        eprintln!(
            "warning: --jobs {jobs} with the threaded backend runs that many thread \
             pools concurrently; wall-clock makespans will contend for CPUs and \
             come out inflated — measure the threaded backend with --jobs 1"
        );
    }
    let topology = Topology::bullion_s16();
    // How many lanes run is known once the sweep has: the accounting line
    // says.
    println!(
        "# Figure 1 — speedup over LAS on {} ({:?} scale, {} backend)\n",
        topology.name(),
        sweep.scale,
        sweep.backend.label(),
    );

    let collector = trace_dir.as_ref().map(|_| Arc::new(TraceCollector::new()));
    let mut experiment = sweep.experiment(topology, Arc::new(SpecCache::new()));
    if let Some(collector) = &collector {
        experiment = experiment.trace(Arc::clone(collector));
    }
    // `Experiment::run` spelled out: the plan's graphs are asked for their
    // window-plan counters after the sweep.
    let plan = experiment.on_cell_complete(stderr_progress).plan();
    let report = execute(&plan, jobs, proc_pool.as_ref());
    print_table(&report);

    if !report.skipped.is_empty() {
        println!(
            "\nskipped (policy not applicable): {}",
            report.skipped.join(", ")
        );
    }

    println!("\n## Paper reference points (read off the published Figure 1)\n");
    for (policy, app, value) in paper_reference() {
        println!("  {policy:<8} {app:<22} {value:.2}x");
    }

    println!("\n## Detailed per-policy metrics\n");
    for cell in &report.cells {
        println!(
            "  {:<22} {:<14} makespan={:>14.0} ns  speedup={:>6.3}  local={:>5.1}%  imbalance={:>5.2}  stolen={:>5.1}%",
            cell.application,
            cell.policy,
            cell.makespan_ns,
            cell.speedup_vs_baseline,
            100.0 * cell.local_fraction,
            cell.load_imbalance,
            100.0 * cell.steal_fraction
        );
    }

    if let Some(pool) = &proc_pool {
        println!("\n## Proc backend pool\n\n  {}", pool.stats());
    }

    print!(
        "\n## Sweep accounting\n\n  total {:.1} ms wall ({} lanes) | cells {:.1} ms | \
         spec builds {} ({:.1} ms, {} cache hits)",
        report.timing.total_wall_ns / 1e6,
        report.timing.jobs,
        report.timing.run_wall_ns / 1e6,
        report.timing.spec_builds,
        report.timing.build_wall_ns / 1e6,
        report.timing.spec_cache_hits,
    );
    // Proc workers partition their own decoded copies of the graphs; the
    // coordinator's never see a plan.
    if proc_pool.is_none() {
        let placed: usize = report.timing.cell_partition_windows.iter().sum();
        let (plans, reused) = plan
            .workloads()
            .iter()
            .map(|workload| workload.spec.graph.window_plan_counts())
            .fold((0, 0), |sum, counts| (sum.0 + counts.0, sum.1 + counts.1));
        print!(
            " | window partitions {placed}: {} computed, {reused} reused from {plans} shared plans",
            placed - reused,
        );
    }
    println!();

    if let Some(path) = json_path {
        match std::fs::write(&path, report.to_json_string()) {
            Ok(()) => println!("\nwrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    if let Some(path) = json_timing_path {
        let timing = serde_json::to_string_pretty(&report.timing).expect("timing serializes");
        match std::fs::write(&path, timing) {
            Ok(()) => println!("\nwrote {path} (timing)"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    if let (Some(dir), Some(collector)) = (trace_dir, collector) {
        let traces = collector.take();
        match write_trace_dir(std::path::Path::new(&dir), &traces) {
            Ok(n) => println!("\nwrote {n} execution traces to {dir}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numadag_core::PolicyKind;
    use numadag_kernels::{Application, ProblemScale};
    use numadag_runtime::{Experiment, SweepPlan};

    /// Everything a plan runs: each job by its labels, then the backend
    /// and seed.
    fn jobs_of(plan: &SweepPlan) -> Vec<String> {
        let mut jobs: Vec<String> = (0..plan.num_jobs())
            .map(|i| {
                let (app, scale, policy) = plan.job_labels(i);
                let rep = plan.job_at(i).repetition;
                format!("{app}/{scale}/{policy}/rep {rep}")
            })
            .collect();
        let seed = plan.executor().config().seed;
        jobs.push(format!("{:?} seed {seed:#x}", plan.backend()));
        jobs
    }

    #[test]
    fn the_default_sweep_is_the_sweep_grammars_at_full_scale() {
        let specs = Arc::new(SpecCache::new());
        let planned = |spec: SweepSpec| {
            let sweep = spec.resolve().unwrap();
            jobs_of(
                &sweep
                    .experiment(Topology::bullion_s16(), Arc::clone(&specs))
                    .plan(),
            )
        };
        let full = SweepSpec {
            scale: "full".to_string(),
            ..SweepSpec::default()
        };
        assert_eq!(planned(default_sweep()), planned(full));
        // ... and what `figure1` ran by default before it read the grammar:
        // the whole suite at Full scale, DFIFO, RGP+LAS and EP against LAS,
        // one simulated repetition, seed 0xF1617E.
        let before = Experiment::new()
            .apps(Application::all())
            .scale(ProblemScale::Full)
            .policies([PolicyKind::Dfifo, PolicyKind::RGP_LAS, PolicyKind::Ep])
            .backend(Backend::Simulated)
            .repetitions(1)
            .seed(0xF1617E)
            .spec_cache(Arc::clone(&specs))
            .plan();
        let jobs = jobs_of(&before);
        assert_eq!(jobs.len(), 8 * 4 + 1);
        assert_eq!(planned(default_sweep()), jobs);
    }
}
