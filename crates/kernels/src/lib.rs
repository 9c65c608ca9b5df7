//! # numadag-kernels — the eight task-based applications of the evaluation
//!
//! The paper evaluates its scheduling techniques on eight OmpSs/OpenMP
//! task-based applications. This crate re-creates each of them as a
//! *task-graph builder*: given problem parameters it produces a
//! [`numadag_tdg::TaskGraphSpec`] — the blocked data regions, the tasks with
//! their `in`/`out`/`inout` accesses and compute-cost estimates, and the
//! expert-programmer (EP) placement the benchmark author would hard-code.
//!
//! | module | application | TDG shape |
//! |--------|-------------|-----------|
//! | [`nstream`]            | STREAM-triad style vector update | independent per-block chains |
//! | [`stencil`]            | 2-D Jacobi, Gauss–Seidel (in place) and red–black Gauss–Seidel | 5-point stencil: two grids, wavefront, bipartite phases |
//! | `integral_histogram`   | integral histogram over frames   | right/down propagation |
//! | `cg`                   | blocked conjugate gradient       | SpMV + global reductions |
//! | `qr`                   | tiled QR factorisation           | dense factorisation DAG |
//! | [`symm_inv`]           | symmetric (SPD) matrix inversion | Cholesky + triangular inverse + multiply |
//!
//! NStream ([`nstream::body`]) and Jacobi ([`stencil::jacobi_body`])
//! additionally ship *real* numerical task bodies over a
//! [`storage::DenseStore`], together with checks against their sequential
//! semantics, so the threaded executor can demonstrate that the numerical
//! results are identical under every scheduling policy. Both read their
//! region ids off the params.

#![warn(missing_docs)]

mod cache;
mod cg;
mod common;
mod integral_histogram;
pub mod nstream;
mod qr;
pub mod stencil;
mod storage;
mod suite;
pub mod symm_inv;

pub use cache::{SpecCache, SpecKey};
pub use common::ProblemScale;
pub use storage::DenseStore;
pub use suite::Application;
