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
//! | [`jacobi`]             | 2-D Jacobi heat diffusion        | 5-point stencil, two grids |
//! | [`gauss_seidel`]       | 2-D Gauss–Seidel (in place)      | wavefront |
//! | [`red_black`]          | red–black Gauss–Seidel           | bipartite stencil phases |
//! | [`integral_histogram`] | integral histogram over frames   | right/down propagation |
//! | [`cg`]                 | blocked conjugate gradient       | SpMV + global reductions |
//! | [`qr`]                 | tiled QR factorisation           | dense factorisation DAG |
//! | [`symm_inv`]           | symmetric (SPD) matrix inversion | Cholesky + triangular inverse + multiply |
//!
//! Two of the kernels ([`nstream`], [`jacobi`]) additionally ship *real*
//! numerical task bodies over a [`storage::DenseStore`], together with
//! sequential references, so the threaded executor can demonstrate that the
//! numerical results are identical under every scheduling policy.

#![warn(missing_docs)]

pub mod cache;
pub mod cg;
pub mod common;
pub mod gauss_seidel;
pub mod integral_histogram;
pub mod jacobi;
pub mod nstream;
pub mod qr;
pub mod red_black;
pub mod storage;
pub mod suite;
pub mod symm_inv;

pub use cache::SpecCache;
pub use common::ProblemScale;
pub use storage::DenseStore;
pub use suite::{figure1_suite, Application};
