//! Release-mode sweep-scale test (ignored by default; run in CI as its own
//! step): the Small-scale Figure-1 sweep sharded over two workers must
//! finish within a generous time budget and stay bit-identical to the
//! serial loop.
//!
//! ```sh
//! cargo test --release -- --ignored sweep_scale
//! ```

use std::time::{Duration, Instant};

use numadag::prelude::*;

/// The Figure-1 configuration at Small scale (the bins' default machine).
fn small_figure1() -> Experiment {
    Experiment::new()
        .topology(Topology::bullion_s16())
        .apps(Application::all())
        .scale(ProblemScale::Small)
        .policies([PolicyKind::Dfifo, PolicyKind::RGP_LAS, PolicyKind::Ep])
        .seed(0xF1617E)
}

#[test]
#[ignore = "release-mode scale test; run with --ignored in CI"]
fn sweep_scale_small_sharded_matches_serial_within_budget() {
    let start = Instant::now();
    let serial = small_figure1().parallelism(1).run();
    let serial_elapsed = start.elapsed();

    let start = Instant::now();
    let sharded = small_figure1().parallelism(2).run();
    let sharded_elapsed = start.elapsed();

    // Completion budget: the Small sweep takes tens of milliseconds in
    // release mode on one core; 120 s leaves room for pathological CI hosts
    // while still catching runaway regressions (a 1000× slowdown).
    let budget = Duration::from_secs(120);
    assert!(
        serial_elapsed < budget && sharded_elapsed < budget,
        "Small sweep exceeded its time budget: serial {serial_elapsed:?}, \
         sharded {sharded_elapsed:?} (budget {budget:?})"
    );

    // Sharding must not change a byte of the measurement report.
    assert_eq!(
        serial.to_json_string(),
        sharded.to_json_string(),
        "jobs=2 diverged from serial at Small scale"
    );

    // Spec build accounting: one build per app×scale, cells share the specs.
    assert_eq!(sharded.timing.spec_builds, 8);
    assert_eq!(sharded.timing.spec_cache_hits, 0);
    assert_eq!(sharded.timing.jobs, 2);
    assert_eq!(sharded.timing.cell_wall_ns.len(), sharded.cells.len());

    eprintln!(
        "sweep_scale: Small figure-1 serial {:.1} ms, jobs=2 {:.1} ms \
         (build {:.1} ms, cells {:.1} ms)",
        serial_elapsed.as_secs_f64() * 1e3,
        sharded_elapsed.as_secs_f64() * 1e3,
        sharded.timing.build_wall_ns / 1e6,
        sharded.timing.run_wall_ns / 1e6,
    );
}
