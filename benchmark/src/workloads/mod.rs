//! The four workloads and what they share: the closed loop, the repeated
//! set-up, and the oracle. Everything here and in the workload files drives
//! the program through `numadag::prelude` and `numadag::serve::serve` only,
//! so API churn below that surface can break a probe but never a gate.

pub mod proc_cold;
pub mod serve_mix;
pub mod sweeps;

use std::time::Instant;

use numadag::prelude::*;

use crate::calibrate::Calibrator;
use crate::seeds::CANONICAL_SEED;
use crate::stats::OpInterval;

/// The committed Full-scale baseline every canonical-seed op must reproduce.
pub const BASELINE_FULL: &str = include_str!("../../../BENCH_figure1_full.json");

/// Set-ups per run; the median is reported and the last one's state is
/// what the measured phase runs on.
pub const SETUPS_PER_RUN: usize = 9;

/// Every n-th op is kept and replayed in-process after the timed phase.
pub const REPLAY_EVERY: usize = 16;

/// What one untraced run hands to `main` for reporting.
pub struct Outcome {
    pub ops: Vec<OpInterval>,
    /// Wall of each of the complete back-to-back set-ups, in order, and how
    /// much slower than nominal the host ran around each (see `calibrate`).
    pub setup_s: Vec<f64>,
    pub setup_slowdown: Vec<f64>,
    /// Calibration samples of the measured phase: (seconds since the phase
    /// began, reference-kernel wall in ms).
    pub calibration: Vec<(f64, f64)>,
    /// Oracle failures, one line each (per-op, replay and canonical-seed).
    pub failures: Vec<String>,
    /// Geomean speedup over LAS read from the canonical-seed report the
    /// workload's own path produced (simulated time, must repeat exactly).
    pub sim_geomean_speedup: f64,
    /// `VmHWM` of this process (plus, for `proc_cold`, of its fattest worker)
    /// when the measured phase completed its [`Outcome::rss_mark`]-th op.
    pub peak_rss_mb: f64,
    /// Ops after which memory was read (fewer if the run was shorter).
    pub rss_mark: usize,
    /// `VmHWM` of this process when the ninth set-up was ready: what of
    /// `peak_rss_mb` the measured phase did not add.
    pub setup_peak_rss_mb: f64,
}

/// This process's `VmHWM` in MB.
pub fn own_peak_rss_mb() -> f64 {
    crate::host::peak_rss_mb("self").expect("/proc/self/status has VmHWM")
}

/// The set-ups of one run: the last state, every wall, and the host's
/// slowdown around each wall.
pub struct SetUps<S> {
    pub state: S,
    pub walls_s: Vec<f64>,
    pub slowdown: Vec<f64>,
    /// This process's `VmHWM` once the last set-up is ready.
    pub peak_rss_mb: f64,
}

/// Runs `setup` [`SETUPS_PER_RUN`] times back to back, each from nothing to
/// ready-for-first-measured-op. Tearing the previous state down is not part
/// of a set-up and is not timed; neither are the calibration samples taken
/// just before and just after each set-up.
pub fn repeat_setup<S>(mut setup: impl FnMut() -> S, mut teardown: impl FnMut(S)) -> SetUps<S> {
    let mut calibrator = Calibrator::new(Instant::now());
    let mut walls_s = Vec::with_capacity(SETUPS_PER_RUN);
    let mut slowdown = Vec::with_capacity(SETUPS_PER_RUN);
    let mut last = None;
    for _ in 0..SETUPS_PER_RUN {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        // A set-up is short: three samples on either side, not one.
        let mut around: Vec<f64> = (0..3).map(|_| calibrator.sample()).collect();
        let started = Instant::now();
        last = Some(setup());
        walls_s.push(started.elapsed().as_secs_f64());
        around.extend((0..3).map(|_| calibrator.sample()));
        slowdown.push(crate::stats::median(&around));
    }
    SetUps {
        state: last.expect("SETUPS_PER_RUN is at least 1"),
        walls_s,
        slowdown,
        peak_rss_mb: own_peak_rss_mb(),
    }
}

/// One client of a closed loop: issues its next op only after the previous
/// one completed, until `seconds` have passed since `phase_start`. `op`
/// returns its result and the seconds of benchmark-side bookkeeping to leave
/// out of the op's wall; `check` runs off the clock and says whether the
/// result passed the oracle.
///
/// Memory is read when op number `rss_mark` completes, not at exit: a closed
/// loop of fixed duration does more ops on a faster program, and whatever the
/// program keeps per op (the daemon's job table, for one) would make the
/// faster program look fatter. Returns the ops and this process's `VmHWM`
/// at the mark (at the end of the phase if it was never reached).
///
/// Between ops, at most ten times a second, `calibrator` (whose epoch must
/// be `phase_start`) runs the reference kernel; see `calibrate`.
pub fn closed_loop<T>(
    phase_start: Instant,
    seconds: u64,
    rss_mark: usize,
    calibrator: &mut Calibrator,
    mut op: impl FnMut() -> (T, f64),
    mut check: impl FnMut(usize, T) -> bool,
) -> (Vec<OpInterval>, f64) {
    let mut ops = Vec::new();
    let mut rss_at_mark = None;
    loop {
        calibrator.sample_if_due();
        let start_s = phase_start.elapsed().as_secs_f64();
        if start_s >= seconds as f64 {
            return (ops, rss_at_mark.unwrap_or_else(own_peak_rss_mb));
        }
        let (result, excluded_s) = op();
        let end_s = phase_start.elapsed().as_secs_f64() - excluded_s;
        let ok = check(ops.len(), result);
        ops.push(OpInterval { start_s, end_s, ok });
        if ops.len() == rss_mark {
            rss_at_mark = Some(own_peak_rss_mb());
        }
    }
}

/// The Figure-1 sweep shape every workload runs: all eight applications at
/// `scale` under `policies` plus the LAS baseline, on the simulator, one
/// thread.
pub fn sweep(
    policies: &[PolicyKind],
    scale: ProblemScale,
    seed: u64,
    cache: std::sync::Arc<SpecCache>,
) -> Experiment {
    Experiment::new()
        .apps(Application::all())
        .scale(scale)
        .policies(policies.iter().copied())
        .seed(seed)
        .spec_cache(cache)
        .parallelism(1)
}

pub fn parse_policies(list: &str) -> Vec<PolicyKind> {
    PolicyKind::parse_list(list).expect("the benchmark's policy lists are valid")
}

/// The structural check every op's report must pass: the expected number of
/// cells, nothing skipped, and LAS against itself exactly 1.
pub fn check_structure(report: &SweepReport, expect_cells: usize) -> Result<(), String> {
    if report.cells.len() != expect_cells {
        return Err(format!(
            "{} cells, expected {expect_cells}",
            report.cells.len()
        ));
    }
    if !report.skipped.is_empty() {
        return Err(format!("skipped cells: {:?}", report.skipped));
    }
    for cell in report.cells.iter().filter(|c| c.policy == "LAS") {
        if cell.speedup_vs_baseline != 1.0 {
            return Err(format!(
                "{}: LAS speedup {} is not exactly 1",
                cell.application, cell.speedup_vs_baseline
            ));
        }
    }
    Ok(())
}

/// The committed baseline, parsed.
pub fn baseline_report() -> SweepReport {
    SweepReport::from_json_str(BASELINE_FULL).expect("BENCH_figure1_full.json parses")
}

/// `got` must hold the measurements `expected` holds, cell by cell and
/// geomean by geomean; the header's backend label is the caller's business.
/// `subset` lets `got` lack some of `expected`'s policy columns.
pub fn same_measurements(
    expected: &SweepReport,
    got: &SweepReport,
    subset: bool,
) -> Result<(), String> {
    let diff = expected.diff(got);
    if diff.header.iter().all(|line| line.starts_with("backend"))
        && diff.added.is_empty()
        && (subset || diff.removed.is_empty())
        && diff.changed.is_empty()
        && diff.aggregates.is_empty()
        && diff.skipped.is_empty()
    {
        Ok(())
    } else {
        Err(format!("reports differ:\n{diff}"))
    }
}

/// Checks a canonical-seed report against the committed baseline. `subset`
/// allows the report to hold only some of the baseline's policy columns
/// (`sched_warm`); `backend` is the label the report's header must carry
/// (`proc_cold` reports `proc`).
pub fn check_against_baseline(
    report: &SweepReport,
    subset: bool,
    backend: &str,
) -> Result<(), String> {
    if report.seed != CANONICAL_SEED {
        return Err(format!("canonical op ran with seed {:#x}", report.seed));
    }
    if report.backend != backend {
        return Err(format!("backend label {:?}", report.backend));
    }
    same_measurements(&baseline_report(), report, subset)
        .map_err(|e| format!("against BENCH_figure1_full.json: {e}"))
}

/// Records a failure line, keeping the list bounded.
pub fn note_failure(failures: &mut Vec<String>, line: String) {
    const KEEP: usize = 20;
    if failures.len() < KEEP {
        failures.push(line);
    } else if failures.len() == KEEP {
        failures.push("(further failures not listed)".to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reported_set_up_is_the_median_of_nine_and_the_last_state_survives() {
        let mut built = 0;
        let mut torn_down = Vec::new();
        let set_ups = repeat_setup(
            || {
                built += 1;
                built
            },
            |s| torn_down.push(s),
        );
        assert_eq!(set_ups.state, 9);
        assert_eq!(torn_down, (1..=8).collect::<Vec<_>>());
        assert_eq!(set_ups.walls_s.len(), SETUPS_PER_RUN);
        assert_eq!(set_ups.slowdown.len(), SETUPS_PER_RUN);
        assert!(set_ups.slowdown.iter().all(|&f| f > 0.0));
        // Hand-computed fixture for the statistic itself.
        let fixture = [0.9, 0.2, 0.4, 0.3, 0.8, 0.5, 0.7, 0.6, 0.1];
        assert_eq!(crate::stats::median(&fixture), 0.5);
    }

    #[test]
    fn the_baseline_passes_its_own_checks() {
        let baseline = baseline_report();
        check_structure(&baseline, 40).unwrap();
        check_against_baseline(&baseline, false, "simulator").unwrap();
        let mut relabelled = baseline_report();
        relabelled.backend = "proc".to_string();
        check_against_baseline(&relabelled, false, "proc").unwrap();
        assert!(check_against_baseline(&relabelled, false, "simulator").is_err());
        let mut moved = baseline_report();
        moved.cells[0].makespan_ns += 1.0;
        assert!(check_against_baseline(&moved, false, "simulator").is_err());
        let mut narrowed = baseline_report();
        narrowed.cells.retain(|c| !c.policy.starts_with("RGP"));
        narrowed.aggregates.retain(|a| !a.policy.starts_with("RGP"));
        assert!(check_against_baseline(&narrowed, false, "simulator").is_err());
        check_against_baseline(&narrowed, true, "simulator").unwrap();
    }
}
