//! Per-layer probes: every call below `numadag::prelude` lives here, one
//! file per crate of the repository, so a later change that renames or
//! removes an internal function breaks a probe and never a gate.
//!
//! A probe either times a layer's entry points directly on fixed inputs, or
//! records spans around them while a workload-shaped loop runs (the sweep
//! pipeline in `runtime.rs`, the session in `serve.rs`, the pool life cycle
//! in `proc.rs`).

pub mod core;
pub mod graph;
pub mod kernels;
pub mod numa;
pub mod proc;
pub mod runtime;
pub mod serve;
pub mod tdg;
pub mod trace;

use std::time::Instant;

/// Wall of one call, in milliseconds.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let result = f();
    (result, started.elapsed().as_secs_f64() * 1e3)
}

/// Median wall of `reps` calls of `f`, in milliseconds.
pub fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let walls: Vec<f64> = (0..reps).map(|_| time_ms(&mut f).1).collect();
    crate::stats::median(&walls)
}

/// Relative cost of `with` over `without`, in percent, from the medians of
/// `pairs` runs of each, alternating which goes first so drift of the host
/// cancels.
pub fn overhead_pct(pairs: usize, mut without: impl FnMut(), mut with: impl FnMut()) -> f64 {
    let (mut base, mut extra) = (Vec::new(), Vec::new());
    for pair in 0..pairs {
        if pair % 2 == 0 {
            base.push(time_ms(&mut without).1);
            extra.push(time_ms(&mut with).1);
        } else {
            extra.push(time_ms(&mut with).1);
            base.push(time_ms(&mut without).1);
        }
    }
    let base = crate::stats::median(&base);
    100.0 * (crate::stats::median(&extra) - base) / base
}
