//! Parallel-vs-serial determinism of a sweep, which is two steps:
//! `Experiment` plans it, `SweepPlan::execute` runs the plan.
//!
//! The contract of [`SweepPlan::execute`]: sharding a sweep across worker
//! threads changes who computes each cell, never what the report says. On the
//! deterministic simulator backend that contract is byte-level — the
//! serialized `SweepReport` must be identical for jobs ∈ {1, 2, 8}. On the
//! threaded backend, makespans are wall-clock (and work stealing races by
//! design), so the deterministic subset is asserted instead: cell keys and
//! order, task counts, skip lists, aggregate shape.

use numadag::prelude::*;

/// The full-policy tiny-scale experiment the determinism claims cover.
fn experiment(backend: Backend) -> Experiment {
    Experiment::new()
        // A modest machine so the threaded backend runs everywhere.
        .topology(Topology::four_socket(2))
        .apps([
            Application::Jacobi,
            Application::NStream,
            Application::ConjugateGradient,
        ])
        .scale(ProblemScale::Tiny)
        .policies(PolicyKind::all())
        .backend(backend)
        .repetitions(2)
        .seed(0xD1CE)
}

#[test]
fn simulator_reports_are_byte_identical_for_any_worker_count() {
    let serial = experiment(Backend::Simulated).parallelism(1).run();
    let serial_json = serial.to_json_string();
    // With several repetitions the per-rep LAS speedups scatter around 1
    // (reps use different seeds), but the geomean must stay close.
    assert!((serial.geomean_of("LAS").unwrap() - 1.0).abs() < 0.2);

    for jobs in [2usize, 8] {
        let sharded = experiment(Backend::Simulated).parallelism(jobs).run();
        assert_eq!(
            sharded.to_json_string(),
            serial_json,
            "jobs={jobs} changed the serialized report"
        );
    }
}

#[test]
fn threaded_reports_keep_the_deterministic_subset_for_any_worker_count() {
    // Wall-clock makespans and steal counts vary run to run on the threaded
    // backend, so byte identity is impossible even between two serial runs;
    // what sharding must preserve is everything the scheduler decides
    // deterministically: which cells exist, in which order, over how many
    // tasks, and what was skipped.
    let keys = |report: &SweepReport| -> Vec<(String, String, String, usize, usize)> {
        report
            .cells
            .iter()
            .map(|c| {
                (
                    c.application.clone(),
                    c.scale.clone(),
                    c.policy.clone(),
                    c.repetition,
                    c.tasks,
                )
            })
            .collect()
    };

    let serial = experiment(Backend::Threaded).parallelism(1).run();
    for jobs in [2usize, 8] {
        let sharded = experiment(Backend::Threaded).parallelism(jobs).run();
        assert_eq!(keys(&sharded), keys(&serial), "jobs={jobs}");
        assert_eq!(sharded.skipped, serial.skipped, "jobs={jobs}");
        assert_eq!(
            sharded.policy_labels(),
            serial.policy_labels(),
            "jobs={jobs}"
        );
        assert_eq!(
            sharded.aggregates.len(),
            serial.aggregates.len(),
            "jobs={jobs}"
        );
        for cell in &sharded.cells {
            assert!(cell.makespan_ns > 0.0);
        }
    }
}

#[test]
fn one_plan_executes_identically_under_different_drivers() {
    // Stronger than run()-vs-run(): the *same* plan object (shared specs and
    // all) through different worker counts, as the bins use it.
    let plan = experiment(Backend::Simulated).plan();
    let serial = plan.execute(1);
    let sharded = plan.execute(8);
    assert_eq!(serial.to_json_string(), sharded.to_json_string());
    // Timing differs (that's its job) but its shape is consistent.
    assert_eq!(serial.timing.cell_wall_ns.len(), serial.cells.len());
    assert_eq!(sharded.timing.cell_wall_ns.len(), sharded.cells.len());
    // One lane per workload at most.
    assert_eq!(sharded.timing.jobs, 8.min(plan.workloads().len()));
}

#[test]
fn diff_confirms_identity_across_worker_counts() {
    // The bench-diff path agrees with byte comparison: keyed cell diffs see
    // no change between serial and sharded runs, including through a JSON
    // round trip (as CI compares regenerated baselines).
    let serial = experiment(Backend::Simulated).run();
    let sharded = experiment(Backend::Simulated).parallelism(8).run();
    assert!(serial.diff(&sharded).is_empty());
    let reparsed = SweepReport::from_json_str(&sharded.to_json_string()).unwrap();
    assert!(serial.diff(&reparsed).is_empty());
}
