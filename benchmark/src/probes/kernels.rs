//! numadag-kernels: what it costs to build the eight Full-scale workloads,
//! and what a `SpecCache` hit costs once they are built.

use std::sync::Arc;

use numadag::kernels::{Application, ProblemScale, SpecCache};
use numadag::tdg::TaskGraphSpec;

use super::{median_ms, time_ms};
use crate::metrics::Metrics;

/// Sockets of the paper's machine (bullion S16), which sizes every workload.
pub const SOCKETS: usize = 8;
const BUILD_REPS: usize = 5;
const HIT_ROUNDS: usize = 1000;

/// Measures the layer and returns the eight Full specs for the other probes.
pub fn run(m: &mut Metrics) -> Vec<Arc<TaskGraphSpec>> {
    let apps = Application::all();
    // Median build time per application, so one preempted build does not
    // land in the sum.
    let per_app: Vec<f64> = apps
        .iter()
        .map(|app| {
            median_ms(BUILD_REPS, || {
                std::hint::black_box(app.build(ProblemScale::Full, SOCKETS));
            })
        })
        .collect();
    m.set("kernels.spec_build_ms", per_app.iter().sum());
    m.set(
        "kernels.spec_build_max_ms",
        per_app.iter().copied().fold(0.0, f64::max),
    );

    let cache = SpecCache::new();
    let specs: Vec<Arc<TaskGraphSpec>> = apps
        .iter()
        .map(|&app| cache.get(app, ProblemScale::Full, SOCKETS))
        .collect();
    m.set(
        "kernels.tasks_total",
        specs.iter().map(|s| s.num_tasks()).sum::<usize>() as f64,
    );
    let ((), hits_ms) = time_ms(|| {
        for _ in 0..HIT_ROUNDS {
            for app in apps {
                std::hint::black_box(cache.get(app, ProblemScale::Full, SOCKETS));
            }
        }
    });
    m.set(
        "kernels.spec_cache_hit_us",
        hits_ms * 1e3 / (HIT_ROUNDS * apps.len()) as f64,
    );
    specs
}
