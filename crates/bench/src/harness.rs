//! Shared harness of the `figure1` and `ablation` binaries: `--jobs`
//! parsing, the proc backend's worker pool, progress lines, trace files
//! and the paper's reference numbers.
//!
//! The sweep itself is [`numadag_runtime::SweepSpec`]: its flags, defaults
//! and binding to the paper's machine are the sweep service's too.

use std::path::Path;
use std::sync::Arc;

use numadag_proc::{PoolConfig, ProcExecutor, WorkerPool};
use numadag_runtime::{Backend, CellProgress, SweepPlan, SweepReport};
use numadag_trace::Trace;

/// Parses a `--jobs` CLI value (shared by both bins so their error handling
/// cannot drift): any unsigned integer, where `0` means "one worker per
/// available core".
pub fn parse_jobs(value: &str) -> Result<usize, String> {
    value
        .parse()
        .map_err(|_| format!("--jobs needs an unsigned integer, got {value:?}"))
}

/// Spawns the worker pool of a `--backend proc` run, which the binary
/// owns for the whole run; `None` for the in-process backends. A pool that
/// cannot start ends the process with exit code 1.
pub fn spawn_proc_pool(backend: Backend) -> Option<Arc<WorkerPool>> {
    let Backend::Proc { workers } = backend else {
        return None;
    };
    match WorkerPool::spawn(PoolConfig::new(workers)) {
        Ok(pool) => Some(pool),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Executes `plan` on `jobs` lanes: with a `pool`, on its workers through
/// an executor of the plan's own config (the report is the simulated one
/// byte for byte); without, on the plan's own executor.
pub fn execute(plan: &SweepPlan, jobs: usize, pool: Option<&Arc<WorkerPool>>) -> SweepReport {
    match pool {
        Some(pool) => {
            let executor = ProcExecutor::with_pool(plan.config().clone(), Arc::clone(pool));
            plan.execute_on(&executor, jobs)
        }
        None => plan.execute(jobs),
    }
}

/// Per-cell progress line on stderr — install with
/// `Experiment::on_cell_complete(stderr_progress)` so long sweeps report
/// live progress instead of going dark (stderr keeps stdout tables and
/// `--json` output clean).
pub fn stderr_progress(progress: &CellProgress) {
    if progress.skipped {
        eprintln!(
            "[{:>3}/{}] {} / {} / rep {}: skipped (policy not applicable)",
            progress.completed,
            progress.total,
            progress.application,
            progress.policy,
            progress.repetition,
        );
    } else {
        eprintln!(
            "[{:>3}/{}] {} / {} / rep {}: {:.1} ms",
            progress.completed,
            progress.total,
            progress.application,
            progress.policy,
            progress.repetition,
            progress.wall_ns / 1e6,
        );
    }
}

/// File-system-safe spelling of a workload/policy label: alphanumerics,
/// `-`, `=` and `.` pass through, everything else becomes `-`.
pub(crate) fn sanitize_label(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '=' | '.') {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// Writes one pretty-printed JSON file per trace into `dir` (created if
/// missing), named `<app>_<scale>_<policy>_rep<N>.trace.json`. Returns the
/// number of files written.
pub fn write_trace_dir(dir: &Path, traces: &[Trace]) -> Result<usize, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    for trace in traces {
        let name = format!(
            "{}_{}_{}_rep{}.trace.json",
            sanitize_label(&trace.workload),
            sanitize_label(&trace.scale),
            sanitize_label(&trace.policy),
            trace.repetition,
        );
        let path = dir.join(name);
        let file = std::fs::File::create(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        trace
            .to_json_writer(&mut { file })
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(traces.len())
}

/// The values the paper reports (read off Figure 1) where they are legible:
/// returns `(policy, application, speedup)` triples. The geometric mean of
/// RGP+LAS is the headline 1.12×.
pub fn paper_reference() -> Vec<(&'static str, &'static str, f64)> {
    vec![
        ("DFIFO", "Integral histogram", 0.40),
        ("DFIFO", "Jacobi", 0.42),
        ("DFIFO", "NStream", 0.49),
        ("DFIFO", "Symm. mat. inv.", 0.68),
        ("RGP+LAS", "NStream", 1.75),
        ("EP", "NStream", 1.74),
        ("RGP+LAS", "geometric mean", 1.12),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use numadag_kernels::SpecCache;
    use numadag_numa::Topology;
    use numadag_runtime::{Experiment, SweepSpec};
    use std::sync::Arc;

    /// The tiny sweep `spec` names, on the paper's machine.
    fn tiny(spec: SweepSpec) -> Experiment {
        spec.resolve()
            .unwrap()
            .experiment(Topology::bullion_s16(), Arc::new(SpecCache::new()))
    }

    #[test]
    fn figure1_covers_eight_applications_with_all_policies() {
        let report = tiny(SweepSpec::default()).run();
        assert_eq!(report.application_labels().len(), 8);
        // DFIFO, RGP+LAS, EP + the LAS baseline itself, baseline last.
        assert_eq!(
            report.policy_labels(),
            vec!["DFIFO", "RGP+LAS", "EP", "LAS"]
        );
        assert!(report.skipped.is_empty());
        for app in report.application_labels() {
            let las = report.speedup_of(&app, "LAS").unwrap();
            assert!((las - 1.0).abs() < 1e-12, "{app}: LAS speedup {las}");
            for cell in report.cells_of(&app, "LAS") {
                assert!(cell.tasks > 0);
                assert!(cell.makespan_ns > 0.0);
            }
        }
        for label in ["DFIFO", "RGP+LAS", "EP", "LAS"] {
            let gm = report.geomean_of(label).expect(label);
            assert!(gm > 0.0, "{label} has non-positive geomean");
        }
        // LAS against itself is exactly 1.
        assert!((report.geomean_of("LAS").unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn trace_dir_writes_one_round_trippable_file_per_cell() {
        use numadag_trace::TraceCollector;
        let collector = Arc::new(TraceCollector::new());
        tiny(SweepSpec {
            policies: "rgp-las".to_string(),
            ..SweepSpec::default()
        })
        .trace(Arc::clone(&collector))
        .run();
        let traces = collector.take();
        assert_eq!(traces.len(), 16); // 8 apps × (RGP+LAS + LAS)
        let dir = std::env::temp_dir().join(format!("numadag_tracedir_{}", std::process::id()));
        let written = write_trace_dir(&dir, &traces).unwrap();
        assert_eq!(written, 16);
        let sample = dir.join("NStream_Tiny_RGP-LAS_rep0.trace.json");
        let text = std::fs::read_to_string(&sample).expect("sample trace file exists");
        let trace = Trace::from_json_str(&text).unwrap();
        assert_eq!(trace.workload, "NStream");
        trace.validate().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sanitize_label_keeps_registry_spellings_distinct() {
        assert_eq!(sanitize_label("RGP+LAS:w=512"), "RGP-LAS-w=512");
        assert_eq!(sanitize_label("Symm. mat. inv."), "Symm.-mat.-inv.");
    }

    #[test]
    fn paper_reference_contains_headline_number() {
        let refs = paper_reference();
        assert!(refs.iter().any(|(p, a, v)| *p == "RGP+LAS"
            && *a == "geometric mean"
            && (*v - 1.12).abs() < 1e-9));
    }
}
