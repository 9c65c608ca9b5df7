//! # numadag-trace — execution traces and the analytics that explain them
//!
//! The sweep reports of `numadag-runtime` are end-of-run aggregates: a
//! makespan, a locality fraction, a geomean. When a per-application number
//! diverges from the paper's Figure 1, aggregates cannot say *where* in the
//! schedule a policy lost its locality advantage. This crate makes
//! executions observable:
//!
//! * [`TraceEvent`] — the event model both executors emit: policy `assign`
//!   decisions, task `start`/`finish` with socket, core and timestamp
//!   (steals flagged), deferred-allocation placements, and per-access
//!   traffic with NUMA distance.
//!   An execution returns its events with its report when its
//!   configuration asks for them, and skips event construction entirely
//!   when it does not (tracing is zero-cost unless requested);
//!   [`TraceCollector`] accumulates one [`Trace`] per cell of a traced
//!   sweep.
//! * [`Trace`] — the container: metadata + events, with a pretty-printed
//!   JSON serialization that round-trips through [`Trace::from_json_str`]
//!   (and streams to disk via [`Trace::to_json_writer`]). Where each task
//!   ran and when is a derived view of the `start` / `finish` events
//!   ([`Trace::task_intervals`]), not a second record.
//! * `analytics` — post-processing: schedule critical-path extraction
//!   (dependence-bound vs core-busy links), socket × socket and
//!   per-distance traffic matrices, per-task locality histograms, and
//!   queue-depth timelines.
//! * `compare` — the two-policy comparison ([`Trace::compare`]): given
//!   the same workload traced under two policies, rank the tasks and data
//!   flows where one loses time to the other — the tool for localizing the
//!   per-app Figure 1 divergences.
//!
//! The runtime turns events on through `ExecutionConfig::with_events` and
//! traces sweeps through `Experiment::trace`; the `figure1 --trace-dir` and
//! `ablation trace` CLI modes expose both end to end.

#![warn(missing_docs)]

mod analytics;
mod compare;
mod event;
mod trace;

pub use analytics::{
    CpBound, CpLink, CriticalPath, LocalityHistogram, QueueSample, QueueTimeline, TrafficMatrix,
};
pub use compare::{FlowDelta, TaskDelta, TraceComparison};
pub use event::TraceEvent;
pub use trace::{TaskInterval, Trace, TraceCollector};
