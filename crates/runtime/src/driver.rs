//! The sweep plan and how it executes: a sweep is two steps,
//! [`Experiment`](crate::Experiment) → [`SweepPlan::execute`].
//!
//! * **Plan** ([`Experiment::plan`](crate::Experiment::plan)): every
//!   workload spec is built exactly once (memoized through a
//!   [`numadag_kernels::SpecCache`], shared as `Arc<TaskGraphSpec>`), and the
//!   sweep is flattened into keyed [`SweepJob`]s — one per
//!   (workload, policy, repetition) cell, including the cells of LAS, the
//!   baseline.
//! * **Execute** ([`SweepPlan::execute`]): workloads are independent, so
//!   the plan runs them on N *lanes*: each lane pulls the next workload from
//!   one cursor and runs its cells in plan order, building its own policy
//!   instances. Every lane shares the sweep's one executor: the plan's own,
//!   or the caller's under [`SweepPlan::execute_on`] and
//!   [`Experiment::run_on`](crate::Experiment::run_on). Lane 0 runs on the
//!   calling thread. LAS-relative speedups are computed in a deterministic
//!   keyed post-pass, so the report — cells, aggregates, skip list,
//!   serialization — is **bit-identical** for every lane count on the
//!   deterministic simulator backend.
//!
//! Execution also reports progress (to the callback installed by
//! [`Experiment::on_cell_complete`](crate::Experiment::on_cell_complete))
//! and accounts wall time per cell plus spec-build totals in the report's
//! [`SweepTiming`] section, which is how sweep runtimes are characterized
//! and how tests verify that specs are built once per app×scale.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use numadag_core::{make_policy, PolicyKind};
use numadag_kernels::SpecKey;
use numadag_tdg::TaskGraphSpec;
use numadag_trace::{Trace, TraceCollector};
use serde::Serialize;

use crate::config::ExecutionConfig;
use crate::executor::{CellContext, Executor};
use crate::experiment::{aggregate, mean, Backend, SweepCell, SweepReport, BASELINE};

/// One workload of a [`SweepPlan`]: a label, a scale label and the shared,
/// memoized spec every cell of this workload runs.
#[derive(Clone, Debug)]
pub struct PlannedWorkload {
    /// Workload label (application name, or the spec name for custom
    /// workloads).
    pub(crate) label: String,
    /// Problem-scale label (`"Tiny"`, `"Small"`, `"Full"` or `"custom"`).
    pub(crate) scale_label: String,
    /// The workload spec, built once and shared by every job.
    pub spec: Arc<TaskGraphSpec>,
    /// What built [`PlannedWorkload::spec`]: its application, scale and
    /// socket count (the [`numadag_kernels::SpecCache`] key), or `None` for
    /// a custom workload. A backend whose workers can build the spec
    /// themselves ships this instead of the spec.
    pub recipe: Option<SpecKey>,
}

/// One independent cell job of a [`SweepPlan`]: run one policy once on one
/// workload. Jobs are keyed by (workload, policy slot, repetition), so
/// results can be assembled in canonical order no matter which worker
/// finished them when.
#[derive(Clone, Copy, Debug)]
pub struct SweepJob {
    /// Index into [`SweepPlan::workloads`].
    pub workload: usize,
    /// Index into [`SweepPlan::policies`] (LAS, the baseline, is the last
    /// slot).
    pub policy_slot: usize,
    /// Repetition index (0-based); the policy seed is derived from it.
    pub repetition: usize,
}

/// A fully materialized sweep: shared workload specs plus the flat list of
/// independent cell jobs. Built by [`Experiment::plan`](crate::Experiment::plan),
/// run by [`SweepPlan::execute`].
pub struct SweepPlan {
    pub(crate) config: ExecutionConfig,
    pub(crate) backend: Backend,
    /// Deduped policy list in report order; LAS, the baseline, is always
    /// last.
    pub(crate) policies: Vec<PolicyKind>,
    pub(crate) workloads: Vec<PlannedWorkload>,
    pub(crate) jobs: Vec<SweepJob>,
    pub(crate) repetitions: usize,
    pub(crate) seed: u64,
    /// Wall time spent building specs while planning (ns).
    pub(crate) build_wall_ns: f64,
    /// Specs actually built (cache misses) while planning.
    pub(crate) spec_builds: usize,
    /// Spec lookups served from the cache while planning.
    pub(crate) spec_cache_hits: usize,
    /// Called after every executed cell (see
    /// [`crate::Experiment::on_cell_complete`]); [`SweepPlan::run_cell`]
    /// never calls it.
    pub(crate) progress: Option<ProgressCallback>,
    /// When set, every executed cell is traced into this collector (see
    /// [`crate::Experiment::trace`]): the plan's config then asks for
    /// events, and each cell's report hands its own to the cell's
    /// [`Trace`]. On the deterministic simulator the measurements are
    /// identical to an untraced sweep's.
    pub(crate) trace: Option<Arc<TraceCollector>>,
}

impl SweepPlan {
    /// The workloads of the plan, in report order.
    pub fn workloads(&self) -> &[PlannedWorkload] {
        &self.workloads
    }

    /// The flat job list, in canonical (workload, policy, repetition) order.
    pub fn jobs(&self) -> &[SweepJob] {
        &self.jobs
    }

    /// The policy list in report order (LAS, the baseline, last).
    pub fn policies(&self) -> &[PolicyKind] {
        &self.policies
    }

    /// Number of cell jobs in the plan.
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// The backend the plan will execute on.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The job at `index`, resolved to its labels (handy for progress UIs):
    /// `(application, scale, policy)`.
    pub fn job_labels(&self, index: usize) -> (String, String, String) {
        self.labels_of(&self.jobs[index])
    }

    /// The cell job at `index` (workload/policy-slot/repetition indices).
    pub fn job_at(&self, index: usize) -> &SweepJob {
        &self.jobs[index]
    }

    fn labels_of(&self, job: &SweepJob) -> (String, String, String) {
        let wl = &self.workloads[job.workload];
        (
            wl.label.clone(),
            wl.scale_label.clone(),
            self.policies[job.policy_slot].label(),
        )
    }

    /// The config of the plan's executor (machine, seed, events when
    /// traced): what a caller's executor for [`SweepPlan::execute_on`] runs.
    pub fn config(&self) -> &ExecutionConfig {
        &self.config
    }

    /// Builds an executor for the plan's backend and execution config —
    /// the one [`SweepPlan::execute`] runs every lane on, exposed so a
    /// caller can run cells through [`SweepPlan::run_cell`] on an executor
    /// it owns and reuses across cells. The executor of a traced plan
    /// returns every cell's events with that cell's report. A
    /// [`Backend::Proc`](crate::Backend) plan has none (this panics): run it
    /// with [`SweepPlan::execute_on`].
    pub fn executor(&self) -> Box<dyn Executor> {
        self.backend.executor(self.config.clone())
    }

    /// Executes every job and assembles the report, on as many *lanes* as
    /// `jobs` asks for (`0` means one per available core), raised to what
    /// the plan's executor can keep busy ([`Executor::lanes`]) and capped
    /// at one per workload.
    ///
    /// It is [`SweepPlan::execute_on`] on the plan's own
    /// [`SweepPlan::executor`]: every lane shares that one executor. A lane
    /// pulls the next whole workload and runs its cells in plan order,
    /// building its own policy instances; lane 0 runs on the calling thread,
    /// so a sweep with one workload runs on one lane and starts no thread.
    ///
    /// Results are keyed, not order-dependent: whichever lane finishes a
    /// cell, the post-pass recomputes LAS means and speedups in the plan's
    /// canonical order, so the report is identical for any lane count
    /// (bit-identical on the deterministic simulator backend).
    ///
    /// **Threaded-backend caveat:** every run of a threaded executor starts
    /// its own threads, so several lanes on a
    /// [`Backend::Threaded`](crate::Backend) plan run that many complete
    /// thread pools at once; their wall-clock makespans contend for CPUs and
    /// come out inflated. Measure the threaded backend serially; run the
    /// simulator on any number of lanes.
    ///
    /// ```
    /// use numadag_runtime::Experiment;
    /// use numadag_kernels::{Application, ProblemScale};
    ///
    /// let plan = Experiment::new()
    ///     .apps([Application::NStream, Application::Jacobi])
    ///     .scale(ProblemScale::Tiny)
    ///     .plan();
    /// let report = plan.execute(2);
    /// assert_eq!(report.timing.jobs, 2);
    /// // Two lanes are bit-identical to one on the simulator backend.
    /// assert_eq!(report.to_json_string(), plan.execute(1).to_json_string());
    /// ```
    pub fn execute(&self, jobs: usize) -> SweepReport {
        self.execute_on(self.executor().as_ref(), jobs)
    }

    /// [`SweepPlan::execute`] with every lane sharing `executor`, one the
    /// caller owns (a `numadag_proc::ProcExecutor` on the caller's pool,
    /// whose live workers raise the lane count). The report names its
    /// machine and the plan's backend: a proc plan reports as `"simulator"`.
    pub fn execute_on(&self, executor: &dyn Executor, jobs: usize) -> SweepReport {
        self.share(executor, jobs, self.backend.report_label())
    }

    /// The one lane loop, of [`SweepPlan::execute_on`] and
    /// [`Experiment::run_on`](crate::Experiment::run_on): `jobs` lanes
    /// (`0`: one per available core) raised to `executor`'s, at most one
    /// per workload and at least one, every lane on `executor` and lane 0 on
    /// this thread, each pulling the next workload from one cursor and
    /// running its cells in plan order. The report names `executor`'s
    /// machine and `backend`.
    pub(crate) fn share(&self, executor: &dyn Executor, jobs: usize, backend: &str) -> SweepReport {
        let requested = if jobs == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            jobs
        };
        let lanes = requested
            .max(executor.lanes())
            .clamp(1, self.workloads.len().max(1));
        let t0 = Instant::now();
        // The plan is workload-major: a workload's jobs are one run.
        let per_workload = self.policies.len() * self.repetitions;
        let cursor = AtomicUsize::new(0);
        let completed = AtomicUsize::new(0);
        let lane = |lane: usize| {
            let mut ran = Vec::new();
            loop {
                let w = cursor.fetch_add(1, Ordering::SeqCst);
                let Some(jobs) = self.jobs.get(w * per_workload..(w + 1) * per_workload) else {
                    return ran;
                };
                let run = |job| self.run_and_notify(job, executor, lane, backend, &completed);
                ran.push((w, jobs.iter().map(run).collect::<Vec<_>>()));
            }
        };
        let mut ran = std::thread::scope(|scope| {
            let others: Vec<_> = (1..lanes).map(|at| scope.spawn(move || lane(at))).collect();
            let mut ran = lane(0);
            for other in others {
                match other.join() {
                    Ok(more) => ran.extend(more),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            ran
        });
        ran.sort_unstable_by_key(|(w, _)| *w);
        let outcomes = ran.into_iter().flat_map(|(_, outcomes)| outcomes).collect();
        let machine = executor.config().topology.name();
        assemble(self, outcomes, machine, backend, lanes, t0.elapsed())
    }

    /// Runs one job on `lane` and fires the progress callback.
    fn run_and_notify(
        &self,
        job: &SweepJob,
        executor: &dyn Executor,
        lane: usize,
        backend: &str,
        completed: &AtomicUsize,
    ) -> CellOutcome {
        let outcome = run_job(self, job, executor, Some(lane), backend);
        let done = completed.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(callback) = &self.progress {
            let (application, scale, policy) = self.labels_of(job);
            let (wall_ns, skipped) = match &outcome {
                CellOutcome::Measured(m) => (m.wall_ns, false),
                CellOutcome::Skipped => (0.0, true),
            };
            callback(&CellProgress {
                completed: done,
                total: self.num_jobs(),
                application,
                scale,
                policy,
                repetition: job.repetition,
                wall_ns,
                skipped,
            });
        }
        outcome
    }

    /// Runs the single cell job at `index` on `executor` and returns its
    /// outcome — the cell-granular slice of what [`SweepPlan::execute`]
    /// does, exposed so external schedulers can execute a plan's cells in
    /// any order (or fetch some from a cache) and still assemble the exact
    /// report via [`SweepPlan::assemble_report`]. A traced plan records the
    /// cell's trace when `executor`'s config asks for events (one from
    /// [`SweepPlan::executor`] does), exactly as `execute` does.
    ///
    /// # Panics
    /// Panics if `index >= self.num_jobs()`.
    pub fn run_cell(&self, index: usize, executor: &dyn Executor) -> CellOutcome {
        let backend = self.backend.report_label();
        run_job(self, &self.jobs[index], executor, None, backend)
    }

    /// The deterministic keyed post-pass over per-cell outcomes: walks
    /// workloads and policy slots in the plan's canonical order, anchors
    /// every speedup on LAS's mean makespan, and emits cells, skip list,
    /// aggregates and timing. `outcomes` must be parallel to
    /// [`SweepPlan::jobs`]. Because the pass is keyed, the report is
    /// bit-identical no matter which worker (or cache) produced each
    /// outcome — this is the same function [`SweepPlan::execute`] ends
    /// with, exposed for external schedulers that mix freshly-executed and
    /// cached cell outcomes.
    ///
    /// # Panics
    /// Panics if `outcomes.len() != self.num_jobs()`.
    pub fn assemble_report(
        &self,
        outcomes: Vec<CellOutcome>,
        workers: usize,
        total_wall: std::time::Duration,
    ) -> SweepReport {
        assert_eq!(
            outcomes.len(),
            self.num_jobs(),
            "outcomes must be parallel to the plan's job list"
        );
        assemble(
            self,
            outcomes,
            self.config.topology.name(),
            self.backend.report_label(),
            workers,
            total_wall,
        )
    }
}

/// Wall-time and build accounting of one sweep execution: the report's
/// `timing`, which `figure1 --json-timing` writes on its own.
///
/// Timings are real wall-clock measurements and therefore vary run to run;
/// they stay out of the report's JSON ([`SweepReport::to_json_string`]) so
/// perf baselines stay byte-stable, and
/// [`SweepReport::diff`](crate::SweepReport::diff) ignores them.
#[derive(Clone, Debug, Default, Serialize)]
pub struct SweepTiming {
    /// Lanes the sweep ran on (see [`SweepPlan::execute`]).
    pub jobs: usize,
    /// Wall time of the whole execute phase (ns).
    pub total_wall_ns: f64,
    /// Wall time spent building workload specs during planning (ns).
    pub build_wall_ns: f64,
    /// Sum of per-cell wall times across all lanes (ns); with `jobs` lanes
    /// this exceeds `total_wall_ns` up to `jobs`-fold.
    pub run_wall_ns: f64,
    /// Workload specs actually built (once per app×scale on a cold cache).
    pub spec_builds: usize,
    /// Workload spec lookups served from the cache.
    pub spec_cache_hits: usize,
    /// Per-cell wall time (ns), parallel to the report's `cells` array.
    pub cell_wall_ns: Vec<f64>,
    /// Per-cell count of windows the policy handed to the graph
    /// partitioner, parallel to `cells` (0 for non-partitioning policies).
    pub cell_partition_windows: Vec<usize>,
    /// Per-cell wall time spent inside the graph partitioner (ns),
    /// parallel to `cells`.
    pub cell_partition_wall_ns: Vec<f64>,
}

/// Progress report passed to the callback installed by
/// [`Experiment::on_cell_complete`](crate::Experiment::on_cell_complete)
/// after each cell job finishes (from the lane that ran it).
#[derive(Clone, Debug)]
pub struct CellProgress {
    /// Jobs completed so far, including this one.
    pub completed: usize,
    /// Total jobs in the plan.
    pub total: usize,
    /// Workload label of the finished cell.
    pub application: String,
    /// Scale label of the finished cell.
    pub scale: String,
    /// Policy label of the finished cell.
    pub policy: String,
    /// Repetition index of the finished cell.
    pub repetition: usize,
    /// Wall time of this cell (ns).
    pub wall_ns: f64,
    /// True if the policy could not be built for this workload (the cell
    /// will appear in the report's skip list, not in its cells).
    pub skipped: bool,
}

/// Shared handle to a progress callback (invoked concurrently by workers).
pub(crate) type ProgressCallback = Arc<dyn Fn(&CellProgress) + Send + Sync>;

/// What one cell job produced: a measurement, or a skip marker when the
/// policy cannot be built for the workload (e.g. EP without an expert
/// placement). `Clone` because outcomes are small value bundles — external
/// schedulers (the sweep service) cache them per cell and replay clones
/// into [`SweepPlan::assemble_report`].
#[derive(Clone, Debug)]
pub enum CellOutcome {
    /// The cell ran; its measurements.
    Measured(CellMeasurement),
    /// The policy could not be built.
    Skipped,
}

/// The per-cell measurements a job extracts from its execution report.
/// Deliberately opaque: producers are [`SweepPlan::run_cell`] (or
/// [`SweepPlan::execute`]), the consumer is [`SweepPlan::assemble_report`].
#[derive(Clone, Debug)]
pub struct CellMeasurement {
    makespan_ns: f64,
    tasks: usize,
    local_fraction: f64,
    load_imbalance: f64,
    steal_fraction: f64,
    deferred_bytes: u64,
    wall_ns: f64,
    /// Windows the cell's policy handed to the graph partitioner (0 for
    /// non-partitioning policies).
    partition_windows: usize,
    /// Wall time the cell's policy spent inside the partitioner (ns).
    partition_wall_ns: f64,
}

/// Builds the job's policy and runs its cell on the given executor (for
/// `lane`, if a lane runs it); a traced plan then moves the report's events
/// into the cell's [`Trace`], labelled `backend` as the report is, if the
/// executor's config asked for them.
fn run_job(
    plan: &SweepPlan,
    job: &SweepJob,
    executor: &dyn Executor,
    lane: Option<usize>,
    backend: &str,
) -> CellOutcome {
    let workload = &plan.workloads[job.workload];
    let kind = plan.policies[job.policy_slot];
    let seed = plan.seed.wrapping_add(job.repetition as u64);
    let t = Instant::now();
    let Some(mut policy) = make_policy(kind, &workload.spec, seed) else {
        return CellOutcome::Skipped;
    };
    // The label/seed pair lets out-of-process backends rebuild the policy
    // remotely, the lane lets them keep its cells on one worker and the
    // recipe lets that worker build the spec; in-process backends ignore
    // all three (default execute_cell).
    let policy_label = kind.label();
    let ctx = CellContext {
        policy_label: &policy_label,
        seed,
        lane,
        recipe: workload.recipe,
    };
    let mut report = executor.execute_cell(&workload.spec, policy.as_mut(), Some(&ctx));
    let config = executor.config();
    if let Some(collector) = plan.trace.as_ref().filter(|_| config.events) {
        collector.record(Trace {
            workload: workload.label.clone(),
            policy: policy_label,
            backend: backend.to_string(),
            scale: workload.scale_label.clone(),
            repetition: job.repetition,
            tasks: report.tasks,
            num_sockets: config.topology.num_sockets(),
            makespan_ns: report.makespan_ns,
            events: std::mem::take(&mut report.events),
        });
    }
    let partition_stats = policy.partition_stats().unwrap_or_default();
    CellOutcome::Measured(CellMeasurement {
        makespan_ns: report.makespan_ns,
        tasks: report.tasks,
        local_fraction: report.local_fraction(),
        load_imbalance: report.load_imbalance(),
        steal_fraction: report.steal_fraction(),
        deferred_bytes: report.deferred_bytes,
        wall_ns: t.elapsed().as_nanos() as f64,
        partition_windows: partition_stats.windows,
        partition_wall_ns: partition_stats.wall_ns,
    })
}

/// The deterministic post-pass: walks workloads and policy slots in the
/// plan's canonical order, anchors every speedup on LAS's mean makespan,
/// and emits cells, skip list, aggregates and timing.
fn assemble(
    plan: &SweepPlan,
    outcomes: Vec<CellOutcome>,
    machine: &str,
    backend_name: &str,
    workers: usize,
    total_wall: std::time::Duration,
) -> SweepReport {
    let reps = plan.repetitions;
    let num_policies = plan.policies.len();
    let job_index =
        |workload: usize, slot: usize, rep: usize| (workload * num_policies + slot) * reps + rep;

    let mut cells = Vec::new();
    let mut cell_wall_ns = Vec::new();
    let mut cell_partition_windows = Vec::new();
    let mut cell_partition_wall_ns = Vec::new();
    let mut skipped = Vec::new();
    for (w, workload) in plan.workloads.iter().enumerate() {
        // A slot's repetitions, or `None` if its policy could not be built.
        let runs: Vec<Option<Vec<&CellMeasurement>>> = (0..num_policies)
            .map(|slot| {
                (0..reps)
                    .map(|rep| match &outcomes[job_index(w, slot, rep)] {
                        CellOutcome::Measured(m) => Some(m),
                        CellOutcome::Skipped => None,
                    })
                    .collect()
            })
            .collect();
        // LAS, last in the plan, always builds, so it anchors every speedup.
        let baseline = runs[num_policies - 1].iter().flatten();
        let baseline_mean = mean(baseline.map(|m| m.makespan_ns));

        for (runs, &kind) in runs.iter().zip(&plan.policies) {
            let Some(runs) = runs else {
                skipped.push(format!("{}/{}", workload.label, kind.label()));
                continue;
            };
            for (rep, m) in runs.iter().enumerate() {
                cells.push(SweepCell {
                    application: workload.label.clone(),
                    scale: workload.scale_label.clone(),
                    policy: kind.label(),
                    repetition: rep,
                    tasks: m.tasks,
                    makespan_ns: m.makespan_ns,
                    speedup_vs_baseline: if m.makespan_ns > 0.0 {
                        baseline_mean / m.makespan_ns
                    } else {
                        1.0
                    },
                    local_fraction: m.local_fraction,
                    load_imbalance: m.load_imbalance,
                    steal_fraction: m.steal_fraction,
                    deferred_bytes: m.deferred_bytes,
                });
                cell_wall_ns.push(m.wall_ns);
                cell_partition_windows.push(m.partition_windows);
                cell_partition_wall_ns.push(m.partition_wall_ns);
            }
        }
    }

    let run_wall_ns = outcomes
        .iter()
        .map(|o| match o {
            CellOutcome::Measured(m) => m.wall_ns,
            CellOutcome::Skipped => 0.0,
        })
        .sum();
    let aggregates = aggregate(&cells);
    SweepReport {
        machine: machine.to_string(),
        backend: backend_name.to_string(),
        baseline: BASELINE.label(),
        seed: plan.seed,
        repetitions: reps,
        cells,
        aggregates,
        skipped,
        timing: SweepTiming {
            jobs: workers,
            total_wall_ns: total_wall.as_nanos() as f64,
            build_wall_ns: plan.build_wall_ns,
            run_wall_ns,
            spec_builds: plan.spec_builds,
            spec_cache_hits: plan.spec_cache_hits,
            cell_wall_ns,
            cell_partition_windows,
            cell_partition_wall_ns,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use numadag_kernels::{Application, ProblemScale, SpecCache};
    use std::sync::Mutex;

    fn tiny_experiment() -> Experiment {
        Experiment::new()
            .apps([Application::Jacobi, Application::NStream])
            .scale(ProblemScale::Tiny)
            .policies([PolicyKind::Dfifo, PolicyKind::RGP_LAS])
            .seed(7)
    }

    #[test]
    fn plan_materializes_the_full_job_matrix() {
        let plan = tiny_experiment().repetitions(2).plan();
        assert_eq!(plan.workloads().len(), 2);
        // DFIFO, RGP+LAS + the LAS baseline, last.
        assert_eq!(plan.policies().len(), 3);
        assert_eq!(*plan.policies().last().unwrap(), PolicyKind::Las);
        // 2 workloads × 3 policies × 2 repetitions.
        assert_eq!(plan.num_jobs(), 12);
        // Jobs are in canonical (workload, policy, repetition) order.
        let first = plan.jobs()[0];
        assert_eq!(
            (first.workload, first.policy_slot, first.repetition),
            (0, 0, 0)
        );
        let last = plan.jobs()[11];
        assert_eq!(
            (last.workload, last.policy_slot, last.repetition),
            (1, 2, 1)
        );
        // Specs were built once per workload, no hits on a private cache.
        assert_eq!(plan.spec_builds, 2);
        assert_eq!(plan.spec_cache_hits, 0);
    }

    #[test]
    fn sharded_execution_is_bit_identical_to_serial() {
        let plan = tiny_experiment().plan();
        let serial = plan.execute(1);
        for jobs in [2, 3, 8] {
            let sharded = plan.execute(jobs);
            assert_eq!(
                serial.to_json_string(),
                sharded.to_json_string(),
                "jobs={jobs} must not change the report"
            );
            // One lane per workload at most.
            assert_eq!(sharded.timing.jobs, jobs.min(plan.workloads().len()));
        }
    }

    #[test]
    fn execute_is_execute_on_one_simulator_of_the_plans_config() {
        for traced in [false, true] {
            let collector = Arc::new(TraceCollector::new());
            let experiment = if traced {
                tiny_experiment().trace(Arc::clone(&collector))
            } else {
                tiny_experiment()
            };
            let plan = experiment.plan();
            for jobs in [1, 2, 4] {
                let own = plan.execute(jobs);
                let own_traces = collector.take().len();
                let shared = crate::Simulator::new(plan.config().clone());
                let shared = plan.execute_on(&shared, jobs);
                let at = format!("traced={traced} jobs={jobs}");
                assert_eq!(own.to_json_string(), shared.to_json_string(), "{at}");
                assert_eq!(own.timing.jobs, shared.timing.jobs, "{at}");
                assert_eq!(own_traces, collector.take().len(), "{at}");
                assert_eq!(own_traces, if traced { own.cells.len() } else { 0 });
            }
        }
    }

    #[test]
    fn run_on_reports_progress_through_the_serial_loop() {
        let seen = Arc::new(AtomicUsize::new(0));
        let sink = Arc::clone(&seen);
        let simulator = crate::Simulator::new(ExecutionConfig::bullion_s16());
        let report = tiny_experiment()
            .on_cell_complete(move |_: &CellProgress| {
                sink.fetch_add(1, Ordering::SeqCst);
            })
            .run_on(&simulator);
        assert_eq!(seen.load(Ordering::SeqCst), report.cells.len());
        assert_eq!(
            report.to_json_string(),
            tiny_experiment().run().to_json_string()
        );
    }

    #[test]
    fn timing_accounts_every_cell_and_build() {
        let report = tiny_experiment().run();
        assert_eq!(report.timing.cell_wall_ns.len(), report.cells.len());
        assert!(report.timing.cell_wall_ns.iter().all(|&ns| ns > 0.0));
        assert!(report.timing.total_wall_ns > 0.0);
        assert!(report.timing.run_wall_ns > 0.0);
        assert!(report.timing.build_wall_ns > 0.0);
        assert_eq!(report.timing.spec_builds, 2);
        assert_eq!(report.timing.jobs, 1);
        // Partitioning cost is accounted per cell: RGP cells partitioned at
        // least one window and spent measurable time doing so, non-RGP
        // cells report zero.
        assert_eq!(
            report.timing.cell_partition_windows.len(),
            report.cells.len()
        );
        assert_eq!(
            report.timing.cell_partition_wall_ns.len(),
            report.cells.len()
        );
        for (i, cell) in report.cells.iter().enumerate() {
            let windows = report.timing.cell_partition_windows[i];
            let wall = report.timing.cell_partition_wall_ns[i];
            if cell.policy.starts_with("RGP") {
                assert!(windows >= 1, "{}: windows={windows}", cell.policy);
                assert!(wall > 0.0, "{}: wall={wall}", cell.policy);
            } else {
                assert_eq!(windows, 0, "{}", cell.policy);
                assert_eq!(wall, 0.0, "{}", cell.policy);
            }
        }
    }

    #[test]
    fn shared_spec_cache_skips_rebuilds_across_experiments() {
        let cache = Arc::new(SpecCache::new());
        let first = tiny_experiment().spec_cache(Arc::clone(&cache)).run();
        assert_eq!(first.timing.spec_builds, 2);
        assert_eq!(first.timing.spec_cache_hits, 0);
        let second = tiny_experiment().spec_cache(Arc::clone(&cache)).run();
        assert_eq!(second.timing.spec_builds, 0);
        assert_eq!(second.timing.spec_cache_hits, 2);
        // Cached specs change cost, not results.
        assert_eq!(first.to_json_string(), second.to_json_string());
    }

    #[test]
    fn progress_callback_sees_every_cell() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let report = tiny_experiment()
            .parallelism(2)
            .on_cell_complete(move |p: &CellProgress| {
                sink.lock()
                    .unwrap()
                    .push((p.completed, p.policy.clone(), p.skipped));
            })
            .run();
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 6);
        assert_eq!(report.cells.len(), 6);
        // `completed` counts every job exactly once, in completion order.
        let mut counts: Vec<usize> = seen.iter().map(|(c, _, _)| *c).collect();
        counts.sort_unstable();
        assert_eq!(counts, (1..=6).collect::<Vec<_>>());
        assert!(seen.iter().all(|(_, _, skipped)| !skipped));
    }

    #[test]
    fn skipped_policies_are_reported_not_fatal() {
        use numadag_tdg::{TaskSpec, TdgBuilder};
        let mut b = TdgBuilder::new();
        let r = b.region(64);
        b.submit(TaskSpec::new("t").work(1.0).writes(r, 64));
        let spec = TaskGraphSpec::new("no-ep", b.finish());
        let plan = Experiment::new()
            .workload(spec)
            .policies([PolicyKind::Ep, PolicyKind::Dfifo])
            .plan();
        for jobs in [1, 4] {
            let report = plan.execute(jobs);
            assert_eq!(report.skipped, vec!["no-ep/EP"], "jobs={jobs}");
            assert_eq!(report.policy_labels(), vec!["DFIFO", "LAS"]);
        }
    }

    #[test]
    fn traced_sweeps_collect_one_trace_per_cell_without_changing_results() {
        let untraced = tiny_experiment().run();
        let collector = Arc::new(TraceCollector::new());
        let mut serial_traces = Vec::new();
        for jobs in [1, 2, 4] {
            let traced = tiny_experiment()
                .parallelism(jobs)
                .trace(Arc::clone(&collector))
                .run();
            // Tracing observes; it must not move a single measurement byte.
            assert_eq!(
                untraced.to_json_string(),
                traced.to_json_string(),
                "jobs={jobs}"
            );
            // Each cell's trace is its own report's events: whichever lane
            // ran a cell, its trace is the same.
            let mut traces = collector.take();
            traces.sort_by(|a, b| {
                (&a.workload, &a.policy, a.repetition).cmp(&(&b.workload, &b.policy, b.repetition))
            });
            if jobs == 1 {
                serial_traces = traces.clone();
            }
            assert_eq!(traces, serial_traces, "jobs={jobs}");
            assert_eq!(traces.len(), traced.cells.len(), "jobs={jobs}");
            for trace in &traces {
                trace.validate().expect("sweep trace must be complete");
                assert_eq!(trace.backend, "simulator");
                assert_eq!(trace.scale, "Tiny");
                let cell = traced
                    .cells
                    .iter()
                    .find(|c| {
                        c.application == trace.workload
                            && c.policy == trace.policy
                            && c.repetition == trace.repetition
                    })
                    .expect("every trace matches a cell");
                assert_eq!(cell.makespan_ns, trace.makespan_ns);
                assert_eq!(cell.tasks, trace.tasks);
            }
        }
    }

    #[test]
    fn skipped_cells_leave_no_trace() {
        use numadag_tdg::{TaskSpec, TdgBuilder};
        let mut b = TdgBuilder::new();
        let r = b.region(64);
        b.submit(TaskSpec::new("t").work(1.0).writes(r, 64));
        let spec = TaskGraphSpec::new("no-ep", b.finish());
        let collector = Arc::new(TraceCollector::new());
        let report = Experiment::new()
            .workload(spec)
            .policies([PolicyKind::Ep, PolicyKind::Dfifo])
            .trace(Arc::clone(&collector))
            .run();
        assert_eq!(report.skipped, vec!["no-ep/EP"]);
        // DFIFO + LAS traced, EP skipped.
        assert_eq!(collector.len(), 2);
    }

    #[test]
    fn parallelism_zero_means_available_cores() {
        let report = tiny_experiment().parallelism(0).run();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(report.timing.jobs, cores.clamp(1, 2));
    }
}
