//! # numadag-core — NUMA-aware DAG scheduling policies
//!
//! This crate is the paper's contribution: task scheduling policies that use
//! the task dependency graph (TDG) and the physical location of data to
//! decide which NUMA socket each task should run on.
//!
//! Implemented policies, matching the evaluation of the paper:
//!
//! * [`dfifo::DfifoPolicy`] — *distributed FIFO*: locality-blind round-robin
//!   over the sockets; the "no NUMA awareness" lower bound.
//! * EP ([`PolicyKind::Ep`]) — *expert programmer*: the placement hard-coded in the
//!   benchmark source (block/owner-computes distributions).
//! * [`las::LasPolicy`] — *locality-aware scheduling* (Drebes et al.,
//!   PACT'16): deferred allocation plus enhanced work pushing towards the
//!   socket holding most of the task's allocated data. The paper's baseline.
//! * [`rgp::RgpPolicy`] — *runtime graph partitioning*: the first window of
//!   the TDG is partitioned with a graph partitioner (one part per socket,
//!   edge weights = bytes); the partition is then propagated to the rest of
//!   the execution, either with LAS (`RGP+LAS`, the paper's technique) or
//!   with round-robin (an ablation).
//!
//! Policies are deliberately independent from the executor: they only see a
//! [`policy::DataLocator`] (where is each region?) and the ready task, so the
//! same policy drives both the discrete-event simulator and the threaded
//! executor in `numadag-runtime`.

#![warn(missing_docs)]

mod dfifo;
mod ep;
mod factory;
mod las;
mod policy;
mod rgp;
mod weights;

pub use dfifo::DfifoPolicy;

pub use factory::{make_policy, ParsePolicyError, PolicyKind, RgpTuning};
// Re-exported so policy consumers can spell partitioner knobs without a
// direct numadag-graph dependency.
pub use las::LasPolicy;
pub use numadag_graph::{PartitionScheme, PartitionTuning};
pub use policy::{DataLocator, MemoryLocator, PartitionStats, SchedulingPolicy};
pub use rgp::{AnchorMode, Propagation, RgpPolicy};
