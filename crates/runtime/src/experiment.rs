//! The fluent [`Experiment`] API: declare an (application × scale × policy)
//! sweep once, run it through any [`Executor`] backend, get a structured
//! [`SweepReport`].
//!
//! Before this API every harness, example and test hand-rolled the same
//! loop: build the spec, run the LAS baseline, run each policy, divide
//! makespans, geometric-mean the speedups. `Experiment` owns that loop in
//! two steps: [`Experiment::plan`] materializes a [`crate::SweepPlan`]
//! (independent keyed cell jobs over shared, memoized
//! `Arc<TaskGraphSpec>` workloads), and [`crate::SweepPlan::execute`] runs
//! it — serially, or on several lanes (threads pulling whole workloads) via
//! [`Experiment::parallelism`]:
//!
//! ```
//! use numadag_runtime::{Backend, Experiment};
//! use numadag_core::PolicyKind;
//! use numadag_kernels::{Application, ProblemScale};
//!
//! let report = Experiment::new()
//!     .app(Application::Jacobi)
//!     .scale(ProblemScale::Tiny)
//!     .policies([PolicyKind::Dfifo, PolicyKind::RGP_LAS])
//!     .backend(Backend::Simulated)
//!     .parallelism(2) // up to 2 lanes, one per workload
//!     .repetitions(1)
//!     .run();
//! assert!(report.speedup_of("Jacobi", "RGP+LAS").unwrap() > 0.0);
//! assert!(report.geomean_of("DFIFO").unwrap() > 0.0);
//! ```
//!
//! The report serializes to JSON through the workspace's serde subset, which
//! is how the `BENCH_*.json` perf baselines are produced:
//! [`SweepReport::to_json_string`] emits the deterministic measurement
//! fields only (byte-stable across runs and worker counts on the simulator
//! backend); the wall-time accounting ([`crate::SweepTiming`]) serializes
//! on its own.

use std::sync::Arc;
use std::time::Instant;

use numadag_core::PolicyKind;
use numadag_kernels::{Application, ProblemScale, SpecCache};
use numadag_numa::Topology;
use numadag_tdg::TaskGraphSpec;
use numadag_trace::TraceCollector;
use serde::{Deserialize, Serialize};

use crate::config::ExecutionConfig;
use crate::driver::{
    CellProgress, PlannedWorkload, ProgressCallback, SweepJob, SweepPlan, SweepTiming,
};
use crate::executor::Executor;
use crate::report::geometric_mean;
use crate::simulator::Simulator;
use crate::threaded::ThreadedExecutor;

/// Which [`Executor`] backend an [`Experiment`] runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Backend {
    /// The deterministic discrete-event NUMA simulator (the backend all
    /// timing claims come from).
    #[default]
    Simulated,
    /// The real work-stealing thread pool (placement and traffic statistics
    /// only; wall-clock makespans depend on the host machine).
    Threaded,
}

impl Backend {
    /// Stable name, matching [`Executor::backend_name`].
    pub fn label(&self) -> &'static str {
        match self {
            Backend::Simulated => "simulator",
            Backend::Threaded => "threaded",
        }
    }

    /// Builds the executor for this backend.
    pub fn executor(&self, config: ExecutionConfig) -> Box<dyn Executor> {
        match self {
            Backend::Simulated => Box::new(Simulator::new(config)),
            Backend::Threaded => Box::new(ThreadedExecutor::new(config)),
        }
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "sim" | "simulated" | "simulator" => Ok(Backend::Simulated),
            "thread" | "threads" | "threaded" => Ok(Backend::Threaded),
            other => Err(format!(
                "unknown backend {other:?} (expected \"simulated\" or \"threaded\")"
            )),
        }
    }
}

/// One (workload × scale × policy × repetition) measurement of a sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SweepCell {
    /// Workload label (application name, or the spec name for custom
    /// workloads).
    pub application: String,
    /// Problem-scale label (`"Tiny"`, `"Small"`, `"Full"` or `"custom"`).
    pub scale: String,
    /// Canonical policy label ([`PolicyKind::label`]), so windowed RGP
    /// variants stay distinguishable in the report.
    pub policy: String,
    /// Repetition index (0-based).
    pub repetition: usize,
    /// Number of tasks in the workload instance.
    pub tasks: usize,
    /// Makespan of this run (simulated ns, or wall-clock ns for the threaded
    /// backend).
    pub makespan_ns: f64,
    /// Speedup over the baseline policy's mean makespan on the same
    /// workload (the metric of the paper's Figure 1).
    pub speedup_vs_baseline: f64,
    /// Fraction of accessed bytes served from the local NUMA node.
    pub local_fraction: f64,
    /// Load imbalance (max/mean busy time over sockets).
    pub load_imbalance: f64,
    /// Fraction of tasks stolen across sockets.
    pub steal_fraction: f64,
    /// Bytes placed by deferred allocation.
    pub deferred_bytes: u64,
}

/// Geometric-mean aggregation of one policy over every workload of a scale.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SweepAggregate {
    /// Problem-scale label this aggregate covers.
    pub scale: String,
    /// Canonical policy label.
    pub policy: String,
    /// Geometric mean over workloads of the per-workload mean speedup — the
    /// "geometric mean" bar of Figure 1.
    pub(crate) geomean_speedup: f64,
    /// Number of workloads aggregated.
    pub(crate) applications: usize,
}

/// The structured result of an [`Experiment`] run: every cell measurement
/// plus the per-policy geometric-mean aggregation, serializable to JSON for
/// the `BENCH_*.json` baselines.
///
/// The `timing` section is wall-clock accounting and therefore varies run to
/// run; it stays out of the report's JSON, keeping perf baselines
/// byte-stable.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SweepReport {
    /// Machine (topology) name.
    pub(crate) machine: String,
    /// Backend that produced the measurements.
    pub backend: String,
    /// Canonical label of the baseline policy speedups are relative to.
    pub(crate) baseline: String,
    /// Seed all seeded components derived from.
    pub seed: u64,
    /// Repetitions per cell.
    pub(crate) repetitions: usize,
    /// Every measurement, in (scale, workload, policy, repetition) order.
    pub cells: Vec<SweepCell>,
    /// Per-(scale, policy) geometric means across workloads.
    pub aggregates: Vec<SweepAggregate>,
    /// `"workload/policy"` pairs that could not run (e.g. EP on a workload
    /// without an expert placement).
    pub skipped: Vec<String>,
    /// Wall-time and spec-build accounting of the run. Never serialized:
    /// a decoded report's accounting is zeroed, and a `timing` member in
    /// an older file is skipped.
    #[serde(skip)]
    pub timing: SweepTiming,
}

impl SweepReport {
    /// The distinct policy labels in cell order of first appearance.
    pub fn policy_labels(&self) -> Vec<String> {
        let mut labels: Vec<String> = Vec::new();
        for cell in &self.cells {
            if !labels.contains(&cell.policy) {
                labels.push(cell.policy.clone());
            }
        }
        labels
    }

    /// The distinct workload labels in cell order of first appearance.
    pub fn application_labels(&self) -> Vec<String> {
        let mut labels: Vec<String> = Vec::new();
        for cell in &self.cells {
            if !labels.contains(&cell.application) {
                labels.push(cell.application.clone());
            }
        }
        labels
    }

    /// The cells of one (workload, policy) pair, across scales/repetitions.
    pub fn cells_of(&self, application: &str, policy: &str) -> Vec<&SweepCell> {
        self.cells
            .iter()
            .filter(|c| c.application == application && c.policy == policy)
            .collect()
    }

    /// Mean speedup of `policy` over the baseline on `application` (averaged
    /// over repetitions; first scale if several were swept).
    pub fn speedup_of(&self, application: &str, policy: &str) -> Option<f64> {
        let cells = self.cells_of(application, policy);
        let scale = &cells.first()?.scale;
        let reps: Vec<f64> = cells
            .iter()
            .filter(|c| &c.scale == scale)
            .map(|c| c.speedup_vs_baseline)
            .collect();
        Some(reps.iter().sum::<f64>() / reps.len() as f64)
    }

    /// Geometric-mean speedup of `policy` across workloads (first scale if
    /// several were swept) — the headline metric of the paper.
    pub fn geomean_of(&self, policy: &str) -> Option<f64> {
        self.aggregates
            .iter()
            .find(|a| a.policy == policy)
            .map(|a| a.geomean_speedup)
    }

    /// Pretty-printed JSON of the measurement fields: deterministic on the
    /// simulator backend, used for the byte-compared `BENCH_*.json`
    /// baselines.
    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(self).expect("SweepReport serialization cannot fail")
    }
}

/// The policy every sweep's speedups are relative to, as in the paper.
pub(crate) const BASELINE: PolicyKind = PolicyKind::Las;

/// The policy columns of a sweep in report order: the first occurrence of
/// each of `policies` but LAS, then LAS, the baseline, last as in the
/// paper's figure. [`Experiment::plan`] numbers its policy slots in this
/// order, and the sweep service names a sweep by it.
pub fn report_order(policies: &[PolicyKind]) -> Vec<PolicyKind> {
    let mut ordered: Vec<PolicyKind> = Vec::with_capacity(policies.len() + 1);
    for &kind in policies {
        if kind != BASELINE && !ordered.contains(&kind) {
            ordered.push(kind);
        }
    }
    ordered.push(BASELINE);
    ordered
}

/// Fluent builder for a policy-comparison sweep: the first of the two
/// steps the [crate docs](crate) describe.
///
/// Defaults: bullion S16 topology, simulated backend, Figure-1 policies
/// (DFIFO, RGP+LAS, EP), Tiny scale, 1 repetition, a fixed seed, serial
/// execution (parallelism 1), a private spec cache, no progress callback.
/// Speedups are always over LAS, as in the paper: it runs on every
/// workload and is reported last.
///
/// The machine model is the topology and the default cost model with
/// nearest-socket stealing. To sweep any other model (a flat cost model, no
/// stealing, ...), configure an executor and pass it to
/// [`Experiment::run_on`].
pub struct Experiment {
    topology: Topology,
    backend: Backend,
    policies: Vec<PolicyKind>,
    apps: Vec<Application>,
    scale: ProblemScale,
    workloads: Vec<TaskGraphSpec>,
    repetitions: usize,
    seed: u64,
    parallelism: usize,
    spec_cache: Option<Arc<SpecCache>>,
    progress: Option<ProgressCallback>,
    trace: Option<Arc<TraceCollector>>,
}

impl Default for Experiment {
    fn default() -> Self {
        Experiment {
            topology: Topology::bullion_s16(),
            backend: Backend::default(),
            policies: vec![PolicyKind::Dfifo, PolicyKind::RGP_LAS, PolicyKind::Ep],
            apps: Vec::new(),
            scale: ProblemScale::Tiny,
            workloads: Vec::new(),
            repetitions: 1,
            seed: crate::sweep::DEFAULT_SEED,
            parallelism: 1,
            spec_cache: None,
            progress: None,
            trace: None,
        }
    }
}

impl Experiment {
    /// A new experiment with the defaults listed on the type.
    pub fn new() -> Self {
        Experiment::default()
    }

    /// Sets the machine topology (default: the paper's bullion S16).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Sets the backend (default: the discrete-event simulator).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Does nothing. The simulator's per-stage clocks are gone; this stays
    /// only because the benchmark's `runtime.stage_timing_overhead_pct`
    /// probe still calls it, and goes once that probe is dropped (ROADMAP
    /// direction 1, step 0).
    pub fn stage_timing(self, _on: bool) -> Self {
        self
    }

    /// Replaces the policy list (default: DFIFO, RGP+LAS, EP).
    pub fn policies(mut self, policies: impl IntoIterator<Item = PolicyKind>) -> Self {
        self.policies = policies.into_iter().collect();
        self
    }

    /// Replaces the application list.
    pub fn apps(mut self, apps: impl IntoIterator<Item = Application>) -> Self {
        self.apps = apps.into_iter().collect();
        self
    }

    /// Adds one application.
    pub fn app(mut self, app: Application) -> Self {
        self.apps.push(app);
        self
    }

    /// Sets the scale every application runs at (default: Tiny).
    pub fn scale(mut self, scale: ProblemScale) -> Self {
        self.scale = scale;
        self
    }

    /// Adds a custom workload spec (reported under its spec name with scale
    /// label `"custom"`), for task graphs outside the Figure-1 suite.
    pub fn workload(mut self, spec: TaskGraphSpec) -> Self {
        self.workloads.push(spec);
        self
    }

    /// Sets repetitions per cell (default 1; meaningful for the threaded
    /// backend, whose wall-clock makespans vary).
    pub fn repetitions(mut self, repetitions: usize) -> Self {
        self.repetitions = repetitions.max(1);
        self
    }

    /// Sets the seed all seeded components derive from.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets how many lanes the sweep runs on (default 1, i.e. serial; `0`
    /// means one per available core). A lane pulls the next whole workload
    /// and runs its cells in plan order; lane 0 runs on the calling thread,
    /// the others on threads of their own. The count is raised to what the
    /// executor can keep busy ([`Executor::lanes`]: a proc executor's live
    /// workers) and capped at one per workload, so a sweep with one
    /// workload runs on one lane. Every lane runs its cells on the sweep's
    /// one executor. On the deterministic simulator backend the report is
    /// bit-identical for every value.
    ///
    /// **Threaded-backend caveat:** every [`ThreadedExecutor`] run starts
    /// its own threads (one per core of the topology), so `parallelism(n)`
    /// runs `n` complete thread pools concurrently. The
    /// threaded backend's makespans *are* wall-clock, so they then contend
    /// for CPUs and come out inflated versus a serial sweep — run the
    /// simulator on any number of lanes, but measure the threaded backend with
    /// `parallelism(1)`.
    pub fn parallelism(mut self, jobs: usize) -> Self {
        self.parallelism = jobs;
        self
    }

    /// Shares a [`SpecCache`] with this experiment, so workload specs built
    /// by earlier experiments (same app × scale × socket count) are reused
    /// instead of rebuilt. Each experiment otherwise uses a private cache.
    pub fn spec_cache(mut self, cache: Arc<SpecCache>) -> Self {
        self.spec_cache = Some(cache);
        self
    }

    /// Installs a progress callback invoked after every finished cell;
    /// long sweeps use it to report live progress instead of going dark.
    /// The plan carries it, so [`SweepPlan::execute`] and
    /// [`Experiment::run_on`] call it (concurrently from every lane, when
    /// there are several); [`SweepPlan::run_cell`] does not.
    pub fn on_cell_complete(
        mut self,
        callback: impl Fn(&CellProgress) + Send + Sync + 'static,
    ) -> Self {
        self.progress = Some(Arc::new(callback));
        self
    }

    /// Traces every cell of the sweep into `collector`: the executor of
    /// [`SweepPlan::execute`] is configured to return every cell's events
    /// ([`ExecutionConfig::with_events`]), and each cell's events become a
    /// [`numadag_trace::Trace`] (labelled with the cell's workload, scale,
    /// policy and repetition) recorded in the collector, from every lane.
    /// Drain it after [`Experiment::run`] with [`TraceCollector::take`].
    ///
    /// Tracing never changes the measurements on the deterministic
    /// simulator backend — it only observes. Under [`Experiment::run_on`]
    /// the caller-supplied executor owns its configuration: traces are
    /// recorded if that asks for events.
    pub fn trace(mut self, collector: Arc<TraceCollector>) -> Self {
        self.trace = Some(collector);
        self
    }

    /// Materializes the sweep as a [`SweepPlan`]: builds every workload spec
    /// exactly once (memoized through the experiment's [`SpecCache`]) and
    /// flattens the (workload × policy × repetition) matrix into independent
    /// keyed cell jobs for [`SweepPlan::execute`].
    pub fn plan(&self) -> SweepPlan {
        self.plan_for_sockets(self.topology.num_sockets())
    }

    /// Plans the sweep for a machine with `num_sockets` sockets (used by
    /// [`Experiment::run_on`], where the executor's topology sizes the
    /// workloads).
    fn plan_for_sockets(&self, num_sockets: usize) -> SweepPlan {
        let policies = report_order(&self.policies);
        let cache = self
            .spec_cache
            .clone()
            .unwrap_or_else(|| Arc::new(SpecCache::new()));
        // Builds/hits are counted per lookup of *this* plan, not as deltas of
        // the cache's global counters: a cache shared across concurrently
        // planning experiments would otherwise misattribute their work.
        let mut spec_builds = 0;
        let mut spec_cache_hits = 0;
        let build_start = Instant::now();
        let mut workloads = Vec::new();
        for &app in &self.apps {
            let (spec, built) = cache.get_with_stats(app, self.scale, num_sockets);
            if built {
                spec_builds += 1;
            } else {
                spec_cache_hits += 1;
            }
            workloads.push(PlannedWorkload {
                label: app.label().to_string(),
                scale_label: format!("{:?}", self.scale),
                spec,
                recipe: Some((app, self.scale, num_sockets)),
            });
        }
        for spec in &self.workloads {
            let spec = Arc::new(spec.clone());
            workloads.push(PlannedWorkload {
                label: spec.name.to_string(),
                scale_label: "custom".to_string(),
                spec,
                recipe: None,
            });
        }
        let build_wall_ns = build_start.elapsed().as_nanos() as f64;

        let mut jobs = Vec::with_capacity(workloads.len() * policies.len() * self.repetitions);
        for workload in 0..workloads.len() {
            for policy_slot in 0..policies.len() {
                for repetition in 0..self.repetitions {
                    jobs.push(SweepJob {
                        workload,
                        policy_slot,
                        repetition,
                    });
                }
            }
        }

        SweepPlan {
            config: {
                let mut config = ExecutionConfig::new(self.topology.clone()).with_seed(self.seed);
                config.events = self.trace.is_some();
                config
            },
            backend: self.backend,
            policies,
            workloads,
            jobs,
            repetitions: self.repetitions,
            seed: self.seed,
            build_wall_ns,
            spec_builds,
            spec_cache_hits,
            progress: self.progress.clone(),
            trace: self.trace.clone(),
        }
    }

    /// Runs the sweep: every workload under LAS and every configured
    /// policy, `repetitions` times each, on one executor of the configured
    /// backend — on [`Experiment::parallelism`] lanes, each building its own
    /// policy instances (see [`SweepPlan::execute`]).
    pub fn run(self) -> SweepReport {
        self.plan().execute(self.parallelism)
    }

    /// Runs the sweep on a caller-supplied executor (any [`Executor`]
    /// implementation, including ones outside this crate), through the same
    /// lane loop as [`SweepPlan::execute`]: [`Experiment::parallelism`]
    /// lanes raised to [`Executor::lanes`] (a proc executor's live
    /// workers), at most one per workload, every lane sharing `executor`.
    /// The executor's machine model replaces the experiment's: its topology
    /// sizes the workloads, and its cost model and stealing mode price them.
    /// The report names the executor's machine and
    /// [`Executor::backend_name`].
    pub fn run_on(&self, executor: &dyn Executor) -> SweepReport {
        let plan = self.plan_for_sockets(executor.config().topology.num_sockets());
        plan.share(executor, self.parallelism, executor.backend_name())
    }
}

pub(crate) fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let values: Vec<f64> = values.collect();
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Per-(scale, policy) geometric means of the per-workload mean speedups.
pub(crate) fn aggregate(cells: &[SweepCell]) -> Vec<SweepAggregate> {
    let mut keys: Vec<(String, String)> = Vec::new();
    for cell in cells {
        let key = (cell.scale.clone(), cell.policy.clone());
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    keys.into_iter()
        .map(|(scale, policy)| {
            let mut apps: Vec<&str> = Vec::new();
            for c in cells {
                if c.scale == scale && c.policy == policy && !apps.contains(&c.application.as_str())
                {
                    apps.push(&c.application);
                }
            }
            let speedups: Vec<f64> = apps
                .iter()
                .map(|app| {
                    mean(
                        cells
                            .iter()
                            .filter(|c| {
                                c.scale == scale && c.policy == policy && &c.application == app
                            })
                            .map(|c| c.speedup_vs_baseline),
                    )
                })
                .collect();
            SweepAggregate {
                scale,
                policy,
                geomean_speedup: geometric_mean(&speedups),
                applications: speedups.len(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use numadag_tdg::{TaskSpec, TdgBuilder};

    fn tiny_experiment() -> Experiment {
        Experiment::new()
            .apps([Application::Jacobi, Application::NStream])
            .scale(ProblemScale::Tiny)
            .policies([PolicyKind::Dfifo, PolicyKind::RGP_LAS])
            .seed(7)
    }

    #[test]
    fn sweep_covers_the_full_matrix_with_baseline_last() {
        let report = tiny_experiment().run();
        assert_eq!(report.backend, "simulator");
        assert_eq!(report.baseline, "LAS");
        // 2 apps × (2 policies + baseline) × 1 repetition.
        assert_eq!(report.cells.len(), 6);
        assert_eq!(report.policy_labels(), vec!["DFIFO", "RGP+LAS", "LAS"]);
        assert_eq!(report.application_labels(), vec!["Jacobi", "NStream"]);
        for app in ["Jacobi", "NStream"] {
            let las = report.speedup_of(app, "LAS").unwrap();
            assert!((las - 1.0).abs() < 1e-12, "{app}: baseline speedup {las}");
        }
        assert!(report.skipped.is_empty());
    }

    #[test]
    fn aggregates_hold_one_geomean_per_policy() {
        let report = tiny_experiment().run();
        assert_eq!(report.aggregates.len(), 3);
        for agg in &report.aggregates {
            assert_eq!(agg.applications, 2);
            assert!(agg.geomean_speedup > 0.0);
        }
        let las = report.geomean_of("LAS").unwrap();
        assert!((las - 1.0).abs() < 1e-9);
    }

    #[test]
    fn repetitions_multiply_cells_and_average_cleanly() {
        let report = tiny_experiment().repetitions(2).run();
        // 2 apps × 3 policies × 2 repetitions.
        assert_eq!(report.cells.len(), 12);
        // The simulator is deterministic only for identical seeds; reps use
        // different seeds, so just check the mean is finite and positive.
        let s = report.speedup_of("Jacobi", "DFIFO").unwrap();
        assert!(s.is_finite() && s > 0.0);
    }

    #[test]
    fn custom_workloads_ride_alongside_apps() {
        let mut b = TdgBuilder::new();
        let r = b.region(1 << 16);
        for _ in 0..32 {
            b.submit(TaskSpec::new("step").work(100.0).reads_writes(r, 1 << 16));
        }
        let spec = TaskGraphSpec::new("custom-chain", b.finish());
        let report = Experiment::new()
            .workload(spec)
            .policies([PolicyKind::Dfifo])
            .run();
        assert_eq!(report.application_labels(), vec!["custom-chain"]);
        assert_eq!(report.cells[0].scale, "custom");
        assert_eq!(report.cells.len(), 2);
    }

    #[test]
    fn ep_without_placement_is_skipped_not_fatal() {
        let mut b = TdgBuilder::new();
        let r = b.region(64);
        b.submit(TaskSpec::new("t").work(1.0).writes(r, 64));
        let spec = TaskGraphSpec::new("no-ep", b.finish());
        let report = Experiment::new()
            .workload(spec)
            .policies([PolicyKind::Ep, PolicyKind::Dfifo])
            .run();
        assert_eq!(report.skipped, vec!["no-ep/EP"]);
        assert_eq!(report.policy_labels(), vec!["DFIFO", "LAS"]);
    }

    #[test]
    fn windowed_policy_kinds_are_distinct_columns() {
        let report = Experiment::new()
            .app(Application::Jacobi)
            .policies([
                PolicyKind::rgp_las_window(64),
                PolicyKind::rgp_las_window(1024),
            ])
            .run();
        assert_eq!(
            report.policy_labels(),
            vec!["RGP+LAS:w=64", "RGP+LAS:w=1024", "LAS"]
        );
    }

    #[test]
    fn partitioner_ablations_are_distinct_columns() {
        // Partitioner knobs ride the same registry/sweep path as window
        // knobs: one tuned spelling per scheme, each its own column.
        use numadag_core::{PartitionScheme, RgpTuning};
        let report = Experiment::new()
            .app(Application::Jacobi)
            .policies(PartitionScheme::all().map(|s| {
                PolicyKind::Rgp(RgpTuning {
                    scheme: Some(s),
                    ..RgpTuning::default()
                })
            }))
            .run();
        assert_eq!(
            report.policy_labels(),
            vec![
                "RGP+LAS:scheme=ml",
                "RGP+LAS:scheme=rb",
                "RGP+LAS:scheme=bfs",
                "LAS"
            ]
        );
        for label in report.policy_labels() {
            assert!(report.geomean_of(&label).unwrap() > 0.0);
        }
    }

    #[test]
    fn threaded_backend_runs_the_same_sweep() {
        let report = Experiment::new()
            .topology(Topology::two_socket(2))
            .app(Application::NStream)
            .policies([PolicyKind::Dfifo])
            .backend(Backend::Threaded)
            .run();
        assert_eq!(report.backend, "threaded");
        assert_eq!(report.cells.len(), 2);
        for cell in &report.cells {
            assert!(cell.makespan_ns > 0.0);
            assert!(cell.tasks > 0);
        }
    }

    #[test]
    fn report_serializes_to_json() {
        let report = Experiment::new()
            .topology(Topology::two_socket(2))
            .app(Application::NStream)
            .policies([PolicyKind::Dfifo])
            .run();
        let json = report.to_json_string();
        for key in [
            "\"machine\"",
            "\"backend\"",
            "\"baseline\"",
            "\"cells\"",
            "\"aggregates\"",
            "\"speedup_vs_baseline\"",
        ] {
            assert!(json.contains(key), "JSON missing {key}");
        }
    }

    #[test]
    fn backend_labels_parse_back() {
        for backend in [Backend::Simulated, Backend::Threaded] {
            assert_eq!(backend.label().parse::<Backend>(), Ok(backend));
        }
        assert!("gpu".parse::<Backend>().is_err());
    }

    #[test]
    fn proc_backend_parses_worker_counts_and_reports_as_simulator() {
        // A proc pool is its owner's executor, not a backend a plan names:
        // numadag-bench reads the worker counts, and the grammar refuses
        // every proc spelling, well-formed or not.
        for spelling in [
            "proc",
            "process",
            "processes",
            "proc:w=4",
            "proc:workers=3",
            "proc:w=0",
            "proc:w=x",
        ] {
            let error = spelling.parse::<Backend>().unwrap_err();
            assert!(error.contains("\"threaded\")"), "{error}");
        }
        // A plan reports its own backend's label, so the simulated plan a
        // proc pool runs stays baseline-compatible.
        assert_eq!(Backend::Simulated.label(), "simulator");
        assert_eq!(Backend::Threaded.label(), "threaded");
    }
}
