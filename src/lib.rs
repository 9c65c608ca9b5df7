//! # numadag — graph-partitioning-based DAG scheduling to reduce NUMA effects
//!
//! A from-scratch Rust reproduction of *"Graph partitioning applied to DAG
//! scheduling to reduce NUMA effects"* (Sánchez Barrera et al., PPoPP 2018).
//!
//! Task-based runtimes know, through the task dependency graph (TDG), which
//! tasks share how much data. This workspace implements the paper's idea of
//! feeding that graph to a graph partitioner (one part per NUMA socket, edge
//! weights = bytes) and using the resulting partition to place tasks — plus
//! everything needed around it: a NUMA machine model, the TDG machinery, the
//! partitioner itself, the baseline scheduling policies, two executors and
//! the eight benchmark applications of the paper's evaluation.
//!
//! ## Quick start
//!
//! Execution is unified behind two pieces: the [`runtime::Executor`] trait
//! (implemented by the discrete-event [`runtime::Simulator`] and the real
//! [`runtime::ThreadedExecutor`]) and the fluent [`runtime::Experiment`]
//! builder, which sweeps an (application × policy) matrix at one scale
//! through either backend and returns a structured, JSON-serializable
//! [`runtime::SweepReport`]. A sweep is two steps: `Experiment` →
//! [`runtime::SweepPlan::execute`]. [`runtime::Experiment::plan`]
//! materializes a [`runtime::SweepPlan`] of independent keyed cell jobs
//! (workload specs built once, memoized in a [`kernels::SpecCache`]), and
//! the plan executes itself on one or more lanes, threads that pull whole
//! workloads (`.parallelism(n)`) — with bit-identical reports on the simulator
//! backend either way. A machine model beyond the topology (a flat cost
//! model, no stealing) is an executor's, swept with
//! [`runtime::Experiment::run_on`]:
//!
//! ```rust
//! use numadag::prelude::*;
//!
//! let report = Experiment::new()
//!     .topology(Topology::bullion_s16())        // the paper's machine
//!     .app(Application::Jacobi)                 // one of the eight apps
//!     .scale(ProblemScale::Tiny)
//!     .policies([PolicyKind::Dfifo, PolicyKind::RGP_LAS])
//!     .backend(Backend::Simulated)              // or Backend::Threaded
//!     .seed(42)
//!     .run();
//!
//! // LAS is the baseline; RGP+LAS is the paper's technique.
//! let speedup = report.speedup_of("Jacobi", "RGP+LAS").unwrap();
//! println!("RGP+LAS speedup over LAS: {speedup:.3}x");
//! assert!(report.geomean_of("RGP+LAS").unwrap() > 0.0);
//!
//! // The same sweep on a machine without NUMA penalties.
//! let flat = Simulator::new(ExecutionConfig::bullion_s16().with_cost_model(CostModel::flat()));
//! let control = Experiment::new()
//!     .app(Application::Jacobi)
//!     .policies([PolicyKind::Dfifo, PolicyKind::RGP_LAS])
//!     .run_on(&flat);
//! assert_eq!(control.cells.len(), 3);
//! ```
//!
//! Policies are addressed through the string-parseable [`core::PolicyKind`]
//! registry of four kinds — `Dfifo`, `Ep`, `Las` and `Rgp(RgpTuning)`, with
//! `PolicyKind::RGP_LAS` / `RGP_RR` naming RGP's two default propagations —
//! so CLI tools and configs never hard-code policy lists:
//! `"rgp-las:w=512".parse::<PolicyKind>()` selects RGP+LAS with a 512-task
//! window. Each policy has exactly one value and one label.
//!
//! For a single run (no sweep), use any backend through the
//! [`runtime::Executor`] trait:
//!
//! ```rust
//! use numadag::prelude::*;
//!
//! let spec = Application::NStream.build(ProblemScale::Tiny, 8);
//! let executor = Backend::Simulated.executor(ExecutionConfig::bullion_s16());
//! let mut policy = make_policy(PolicyKind::RGP_LAS, &spec, 42).unwrap();
//! let report = executor.execute(&spec, policy.as_mut());
//! assert!(report.makespan_ns > 0.0);
//! ```
//!
//! ## Every workload is runnable
//!
//! A [`tdg::TaskGraph`] owns its region table, and
//! [`tdg::TaskGraph::push_task`] — the one way a task gets in, behind
//! [`tdg::TdgBuilder::submit`] and the proc backend's spec decoder alike —
//! refuses a task that could not run: a dependence on a task that is not
//! earlier, an access to an unknown region or larger than its region, work
//! that is not finite and non-negative. So executors never check a spec,
//! and `Executor::execute` has no invalid-workload panic:
//!
//! ```rust
//! use numadag::prelude::*;
//!
//! let mut graph = TaskGraph::new();
//! let region = graph.region(10);
//! let refused = graph.push_task("w", 1.0, &[DataAccess::write(region, 128)], &[]);
//! assert_eq!(
//!     refused.unwrap_err().to_string(),
//!     "task T0 accesses 128 bytes of region R0 which only has 10"
//! );
//! assert!(graph.is_empty());
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |-------|----------|
//! | [`numa`] (`numadag-numa`) | topology, distance matrix, page placement, cost model, traffic stats |
//! | [`graph`] (`numadag-graph`) | CSR graphs + multilevel k-way partitioner (SCOTCH substitute): one coarsen / initial-partition / refine driver behind three schemes (`ml`, `rb`, `bfs`) |
//! | [`tdg`] (`numadag-tdg`) | tasks, dependence analysis, the TDG and its region table (the one check of a runnable workload), windows |
//! | [`core`] (`numadag-core`) | the scheduling policies: DFIFO, EP, LAS, RGP(+LAS) + the `PolicyKind` registry |
//! | [`runtime`] (`numadag-runtime`) | `Executor` trait, simulator + threaded backends, sweeps in two steps (`Experiment` → `SweepPlan::execute` → `SweepReport` + `bench-diff`) |
//! | [`kernels`] (`numadag-kernels`) | the eight applications of Figure 1 |
//! | [`trace`] (`numadag-trace`) | execution traces: the event model (an execution's events come back in its report), placements as a view of the events, critical-path/traffic/locality/queue analytics, two-policy divergence comparison |
//! | [`serve`] (`numadag-serve`) | the sweep service: TCP daemon + client speaking newline-delimited JSON, content-addressed report cache, `numadag-serve`/`serve-client` bins |
//! | [`proc`] (`numadag-proc`) | the multi-process backend: self-exec'd worker processes over newline-JSON IPC, oneCCL-style barriers, crash redispatch; the caller owns the pool (`WorkerPool::spawn` → `ProcExecutor::with_pool` → `SweepPlan::execute_on`, as `--backend proc` does) |
//! | `numadag-bench` (not re-exported) | benchmark harness: `figure1`/`ablation` bins |
//!
//! ## Observability
//!
//! Every execution can emit a full event trace (policy assign decisions,
//! task start/finish with socket and timestamp, steals, deferred
//! placements, per-access traffic with NUMA distance) through the
//! [`trace`] subsystem. There is one mechanism and one switch:
//! [`runtime::ExecutionConfig::events`], decided once per executor, makes
//! every execution return its events in
//! [`runtime::ExecutionReport::events`] — off costs nothing, and where each
//! task ran is a view of the events ([`trace::Trace::task_intervals`]), not
//! a second record. A traced sweep turns the switch on for its executors
//! (proc worker processes included) and makes each cell's events one
//! [`trace::Trace`], on every lane:
//!
//! ```rust
//! use std::sync::Arc;
//! use numadag::prelude::*;
//!
//! let collector = Arc::new(TraceCollector::new());
//! Experiment::new()
//!     .app(Application::IntegralHistogram)
//!     .policies([PolicyKind::RGP_LAS])
//!     .trace(Arc::clone(&collector))
//!     .run();
//!
//! let rgp = collector.find("Integral histogram", "RGP+LAS").unwrap();
//! let las = collector.find("Integral histogram", "LAS").unwrap();
//! let spec = Application::IntegralHistogram.build(ProblemScale::Tiny, 8);
//! let diverging = rgp.compare(&las, &spec.graph).unwrap();
//! println!("{diverging}"); // ranked tasks/regions where RGP+LAS loses time
//! ```
//!
//! ## Sweep service
//!
//! The [`serve`] subsystem turns the sweep engine into a long-running
//! daemon: a TCP listener speaking newline-delimited JSON, one process-wide
//! [`kernels::SpecCache`], a worker pool that runs plans cell by cell
//! ([`runtime::SweepPlan::run_cell`]), and a content-addressed LRU report
//! cache keyed by the canonical request fingerprint — repeated requests
//! (however their policy strings are spelled) return byte-identical reports
//! without executing:
//!
//! ```rust,no_run
//! use numadag::prelude::*;
//! use numadag::serve::serve;
//!
//! let handle = serve(ServeConfig::default()).unwrap();
//! let mut client = ServeClient::connect(&handle.addr().to_string()).unwrap();
//! let first = client.submit(SweepSpec::default(), false, |_| ()).unwrap();
//! let again = client.submit(SweepSpec::default(), false, |_| ()).unwrap();
//! assert!(again.cache_hit && again.report_json == first.report_json);
//! client.shutdown().unwrap();
//! handle.join();
//! ```
//!
//! ## Examples
//!
//! Four runnable examples live in `examples/` (`cargo run --example <name> --release`):
//!
//! * `quickstart` — every policy on a small Jacobi instance through one
//!   `Experiment`, with makespans, locality and imbalance side by side.
//! * `cholesky_numa` — the densest DAG of the suite (symmetric matrix
//!   inversion) as a custom `Experiment` workload, with a per-socket
//!   placement breakdown.
//! * `partition_playground` — the multilevel partitioner vs the naive BFS
//!   baseline on synthetic graphs and real task-graph windows, plus the
//!   three schemes side by side.
//! * `stencil_sweep` — the RGP window sweep as a single `Experiment` whose
//!   policy axis is `rgp-las:w=N`.

pub use numadag_core as core;
pub use numadag_graph as graph;
pub use numadag_kernels as kernels;
pub use numadag_numa as numa;
pub use numadag_proc as proc;
pub use numadag_runtime as runtime;
pub use numadag_serve as serve;
pub use numadag_tdg as tdg;
pub use numadag_trace as trace;

/// The most common imports for users of the library.
pub mod prelude {
    pub use numadag_core::{
        make_policy, LasPolicy, PartitionScheme, PartitionTuning, PolicyKind, Propagation,
        RgpPolicy, RgpTuning, SchedulingPolicy,
    };
    pub use numadag_kernels::{Application, DenseStore, ProblemScale, SpecCache};
    pub use numadag_numa::{CostModel, MemoryMap, SocketId, Topology};
    pub use numadag_proc::{PoolConfig, PoolStats, ProcExecutor, WorkerPool};
    pub use numadag_runtime::{
        Backend, CellProgress, ExecutionConfig, ExecutionReport, Executor, Experiment, Simulator,
        StealMode, SweepDiff, SweepPlan, SweepReport, SweepSpec, SweepTiming, ThreadedExecutor,
    };
    pub use numadag_serve::{ServeClient, ServeConfig, ServeHandle, ServerStats};
    pub use numadag_tdg::{
        DataAccess, TaskGraph, TaskGraphSpec, TaskId, TaskSpec, TdgBuilder, WindowConfig,
    };
    pub use numadag_trace::{Trace, TraceCollector, TraceEvent};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let mut builder = TdgBuilder::new();
        let r = builder.region(1024);
        builder.submit(TaskSpec::new("producer").work(10.0).writes(r, 1024));
        builder.submit(TaskSpec::new("consumer").work(10.0).reads(r, 1024));
        let spec = TaskGraphSpec::new("facade", builder.finish());
        let executor = Backend::Simulated.executor(ExecutionConfig::new(Topology::two_socket(2)));
        let mut policy = LasPolicy::new(1);
        let report = executor.execute(&spec, &mut policy);
        assert_eq!(report.tasks, 2);
    }

    #[test]
    fn facade_experiment_composes() {
        let mut builder = TdgBuilder::new();
        let r = builder.region(1024);
        for _ in 0..8 {
            builder.submit(TaskSpec::new("step").work(10.0).reads_writes(r, 1024));
        }
        let spec = TaskGraphSpec::new("facade-sweep", builder.finish());
        let report = Experiment::new()
            .topology(Topology::two_socket(2))
            .workload(spec)
            .policies(["dfifo".parse::<PolicyKind>().unwrap()])
            .run();
        assert_eq!(report.policy_labels(), vec!["DFIFO", "LAS"]);
        assert!(report.to_json_string().contains("\"aggregates\""));
    }
}
