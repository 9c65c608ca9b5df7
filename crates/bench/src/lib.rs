//! # numadag-bench — the benchmark harness
//!
//! Reproduces the paper's evaluation:
//!
//! * the `figure1` binary regenerates Figure 1 (speedup of DFIFO, EP and
//!   RGP+LAS over the LAS baseline on the eight applications, plus the
//!   geometric mean) on the simulated bullion S16;
//! * the `ablation` binary runs the design-choice studies (window size,
//!   socket count, partitioner quality; README, "Running the sweeps").

mod harness;

pub use harness::{
    execute, paper_reference, parse_jobs, proc_workers, spawn_proc_pool, stderr_progress,
    write_trace_dir,
};
