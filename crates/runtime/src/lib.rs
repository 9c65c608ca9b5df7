//! # numadag-runtime — executors and the plan/execute sweep engine
//!
//! The paper's techniques were implemented inside the Nanos++ runtime and
//! measured on an 8-socket machine. This crate provides the two executors the
//! reproduction uses instead:
//!
//! * [`simulator::Simulator`] — a deterministic discrete-event simulator of a
//!   NUMA machine. Every task is charged its compute time plus the time to
//!   move its input/output bytes between the socket it runs on and the NUMA
//!   nodes holding them (with bandwidth contention between cores of the same
//!   socket). This is what produces the makespans behind the README's
//!   Figure-1 baselines ("Running the sweeps").
//! * [`threaded::ThreadedExecutor`] — a real work-pushing/work-stealing
//!   thread pool that executes actual task bodies (closures) while following
//!   the same scheduling-policy decisions and deferred-allocation
//!   bookkeeping. It demonstrates the public API end to end and is used by
//!   the integration tests to check that every policy preserves the numerical
//!   results of the kernels.
//!
//! Both backends implement the [`executor::Executor`] trait, so harnesses
//! and tests are written once against `dyn Executor` and pick the backend at
//! runtime.
//!
//! A sweep is two steps on top of that trait, `Experiment` →
//! `SweepPlan::execute`:
//!
//! 1. The fluent [`experiment::Experiment`] builder declares the
//!    (application × policy × repetition) matrix at one scale;
//!    [`Experiment::plan`](experiment::Experiment::plan) materializes it as
//!    a [`driver::SweepPlan`] — a flat list of independent, keyed cell jobs
//!    over workload specs built exactly once (memoized through a
//!    [`numadag_kernels::SpecCache`] and shared as `Arc<TaskGraphSpec>`).
//! 2. [`SweepPlan::execute`](driver::SweepPlan::execute) runs the plan,
//!    on one or more lanes (each pulling whole workloads and owning its own
//!    `Box<dyn Executor>` and policy instances), reports per-cell progress,
//!    and assembles the structured, JSON-serializable
//!    [`experiment::SweepReport`] in a deterministic keyed post-pass — so
//!    the report is bit-identical for every worker count on the simulator
//!    backend.
//!
//! `Experiment::new()…​.parallelism(n).run()` is both steps in one call, and
//! [`Experiment::run_on`](experiment::Experiment::run_on) runs the serial
//! loop on a caller-configured executor (another cost model or stealing
//! mode). Reports carry wall-time and spec-build accounting
//! ([`driver::SweepTiming`], kept out of their JSON) and diff against each
//! other ([`experiment::SweepReport::diff`]) for the `BENCH_*.json` perf
//! baselines. [`sweep::SweepSpec`] spells the paper's
//! sweep shape in the one command-line grammar that `figure1`,
//! `serve-client` and the sweep service parse.
//!
//! Both executors implement the paper's *deferred allocation*: regions
//! written by a task that have no home yet are first-touched on the socket
//! the task runs on (`deferred`).
//!
//! Executions are **observable** through the `numadag-trace` subsystem:
//! both executors emit [`numadag_trace::TraceEvent`]s (assign decisions,
//! task start/finish with socket and timestamp, steals, deferred
//! placements, per-access traffic with NUMA distance) into the run's own
//! [`report::ExecutionReport::events`] when
//! [`config::ExecutionConfig::events`] asks for them. The switch is off by
//! default and the emission sites guard on it, so tracing is zero-cost
//! unless requested. This event stream is the one record of an execution:
//! where each task ran and when is
//! [`numadag_trace::Trace::task_intervals`], derived from it. Sweeps trace
//! per cell via [`experiment::Experiment::trace`]: each cell's events
//! become one labelled [`numadag_trace::Trace`] in a
//! [`numadag_trace::TraceCollector`], on any number of lanes, for the
//! analytics layer (critical paths, traffic matrices, two-policy divergence
//! reports).

#![warn(missing_docs)]

mod charge;
mod config;
mod deferred;
mod diff;
mod dispatch;
mod driver;
mod event_queue;
mod executor;
mod experiment;
pub mod framing;
mod report;
mod simulator;
mod sweep;
mod threaded;

pub use config::{ExecutionConfig, StealMode};
pub use diff::{CellDelta, FieldDelta, SweepDiff};
pub use driver::{
    CellMeasurement, CellOutcome, CellProgress, PlannedWorkload, SweepJob, SweepPlan, SweepTiming,
};
pub use event_queue::{Event, EventQueue};
pub use executor::{CellContext, Executor};
pub use experiment::{report_order, Backend, Experiment, SweepAggregate, SweepCell, SweepReport};
pub use framing::FrameError;
pub use report::ExecutionReport;
pub use simulator::Simulator;
pub use sweep::{ResolvedSweep, SweepSpec, DEFAULT_POLICIES};
pub use threaded::ThreadedExecutor;
// Re-exported so the sweep service keys its caches with the workspace's one
// content hasher without a direct numadag-tdg dependency.
pub use numadag_tdg::ContentHasher;
