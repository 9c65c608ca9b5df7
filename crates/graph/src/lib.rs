//! # numadag-graph — weighted graphs and a multilevel k-way partitioner
//!
//! The paper partitions the task dependency graph with SCOTCH. SCOTCH is not
//! available in this environment, so this crate provides the same capability
//! from scratch:
//!
//! * [`CsrGraph`] — an undirected, vertex- and edge-weighted graph in
//!   compressed sparse row form.
//! * [`mod@partition`] — a multilevel k-way edge-cut partitioner in the
//!   SCOTCH/METIS family: one driver that runs heavy-edge-matching
//!   coarsening, greedy graph-growing / recursive-bisection initial
//!   partitioning, and Fiduccia–Mattheyses-style boundary refinement over an
//!   incremental gain table. Three schemes select which of those steps run:
//!   the full multilevel recipe, flat recursive bisection, and a
//!   deliberately naive BFS-growing ablation baseline.
//! * [`metrics`] — edge cut, communication volume and balance metrics.
//! * [`generators`] — synthetic graphs (grids, layered DAG skeletons, random
//!   graphs) used by tests and microbenchmarks.
//!
//! The partitioner is deterministic for a fixed seed, which the runtime
//! relies on for reproducible scheduling decisions.

#![warn(missing_docs)]

mod csr;
pub mod generators;
pub mod metrics;
pub mod partition;

pub use csr::{CsrGraph, GraphError};
pub use partition::{
    partition, partition_anchored, partition_anchored_ctx, partition_ctx, AffinityCosts,
    PartMembers, Partition, PartitionConfig, PartitionCtx, PartitionScheme, PartitionTuning,
};
