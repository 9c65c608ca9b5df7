//! # numadag-numa — NUMA machine substrate
//!
//! This crate models the non-uniform memory access (NUMA) machine that the
//! paper's evaluation ran on (an Atos Bull bullion S16, 8 sockets with
//! 4 cores each). The real hardware is not available in this reproduction,
//! so every property the scheduling policies care about is modelled
//! explicitly:
//!
//! * [`topology::Topology`] — sockets, cores, NUMA nodes and the distance
//!   matrix between nodes (ACPI-SLIT style, local = 10).
//! * [`memory::MemoryMap`] — placement of data regions onto NUMA nodes
//!   under the paper's *deferred allocation* (a region is only placed once
//!   the task producing it has been scheduled).
//! * [`cost::CostModel`] — translates bytes moved across a given distance
//!   into simulated time, including a simple bandwidth-contention model.
//! * [`stats::TrafficStats`] — two counters, local and remote bytes: the
//!   local fraction the paper's techniques try to raise. The per-link
//!   detail (node pair, distance) lives in a traced run's `Traffic`
//!   events, which `numadag-trace` folds into a traffic matrix.
//!
//! The crate is deliberately free of any scheduling logic; it is the
//! substrate the task runtime (`numadag-runtime`) and the scheduling
//! policies (`numadag-core`) are built on.

#![warn(missing_docs)]

mod cost;
mod ids;
mod memory;
mod stats;
mod topology;

pub use cost::{CostModel, TransferTable as CostTransferTable};
pub use ids::{CoreId, NodeId, RegionId, SocketId};
pub use memory::{MemoryMap, Placement};
pub use stats::TrafficStats;
pub use topology::{DistanceMatrix, Topology};
