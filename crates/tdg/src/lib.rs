//! # numadag-tdg — tasks, data dependences and the task dependency graph
//!
//! Task-based programming models (OmpSs/Nanos++, OpenMP tasks with `depend`
//! clauses) let the programmer annotate each task with the data *regions* it
//! reads and writes. The runtime derives the task dependency graph (TDG) from
//! those annotations: an edge `a → b` means `b` must wait for `a`, and the
//! edge carries the number of bytes of the region that induced it. The TDG is
//! the metadata the paper's scheduling techniques exploit.
//!
//! This crate provides:
//!
//! * `task` — task specifications, data accesses (`in`/`out`/`inout`) and
//!   [`TaskDescriptor`], the borrowed view of one task of a graph.
//! * `deps` — incremental dependence derivation with OpenMP `depend`
//!   semantics (RAW, WAR and WAW ordering per region).
//! * `graph` — the [`graph::TaskGraph`] itself, stored as columns (kind,
//!   work, access runs, a predecessor CSR) over the region table it owns,
//!   and its derived [`FlatTdg`]; and [`ContentHasher`], the workspace's
//!   one content hash, which fingerprints a graph in one pass over its
//!   columns.
//! * `builder` — [`builder::TdgBuilder`], the front door: submit tasks in
//!   program order and get the TDG.
//! * `window` — task windows, the unit RGP partitions.
//! * `convert` — symmetrisation of (a window of) the TDG into the weighted
//!   undirected [`numadag_graph::CsrGraph`] the partitioner consumes.
//! * `plan` — [`plan::WindowPlan`], the unanchored partition of a window,
//!   computed once per graph and shared by every policy that asks.
//! * `spec` — [`spec::TaskGraphSpec`], a self-contained workload
//!   description (TDG + optional expert placement) produced by the kernels
//!   crate and consumed by the runtime.
//!
//! ## One rule for a runnable workload
//!
//! [`TaskGraph::push_task`] — the one way in, behind [`TdgBuilder::submit`]
//! — refuses with a [`TdgError`] a task
//! whose dependences are not all earlier, whose accesses do not all fit a
//! region of the graph's table, or whose work is not finite and
//! non-negative. [`TaskGraphSpec::with_ep_placement`] checks a placement's
//! length once. Nothing downstream checks a workload again.

#![warn(missing_docs)]

mod builder;
mod convert;
mod deps;
mod graph;
mod plan;
mod spec;
mod task;
mod window;

pub use builder::TdgBuilder;
pub use convert::{clamp_weight, window_to_csr, window_weight_cap, CrossEdge, WindowGraph};
pub use graph::{ContentHasher, FlatTdg, TaskGraph, TdgError};
pub use plan::WindowPlan;
pub use spec::TaskGraphSpec;
pub use task::{AccessMode, Accesses, DataAccess, TaskDescriptor, TaskId, TaskSpec};
pub use window::{TaskWindow, WindowConfig, WindowCursor};
