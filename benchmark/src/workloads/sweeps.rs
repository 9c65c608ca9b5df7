//! The two in-process workloads: the same Full sweep loop, cold with the
//! figure's policy set (`fig1_cold`) or warm with the policy set that never
//! partitions (`sched_warm`).

use std::sync::Arc;
use std::time::Instant;

use numadag::prelude::*;

use super::{
    check_against_baseline, check_structure, closed_loop, note_failure, parse_policies,
    repeat_setup, sweep, Outcome, REPLAY_EVERY,
};
use crate::calibrate::Calibrator;
use crate::seeds::{SeedSchedule, Stream, CANONICAL_SEED, FIG1_POLICIES, SCHED_POLICIES};

/// What distinguishes the two in-process workloads.
pub struct SweepWorkload {
    pub policies: &'static str,
    /// Warm: every op shares one `SpecCache` filled during set-up. Cold:
    /// every op builds its specs on a fresh cache, as a CLI run does.
    pub warm: bool,
    /// Ops run by each set-up after it built what it builds.
    pub warmup_ops: usize,
    /// Cells per report: 8 applications x (policies + LAS).
    pub cells: usize,
    /// The policy whose geomean the workload reports.
    pub headline: &'static str,
    /// Op of the measured phase after which memory is read.
    pub rss_mark: usize,
}

pub const FIG1_COLD: SweepWorkload = SweepWorkload {
    policies: FIG1_POLICIES,
    warm: false,
    warmup_ops: 8,
    cells: 40,
    headline: "RGP+LAS:prop=repart",
    rss_mark: 200,
};

pub const SCHED_WARM: SweepWorkload = SweepWorkload {
    policies: SCHED_POLICIES,
    warm: true,
    warmup_ops: 30,
    cells: 24,
    headline: "EP",
    rss_mark: 1000,
};

impl SweepWorkload {
    /// One op: sweep -> report -> JSON, exactly what `figure1 --scale full`
    /// computes and writes.
    pub fn op(
        &self,
        policies: &[PolicyKind],
        seed: u64,
        shared: Option<&Arc<SpecCache>>,
    ) -> (SweepReport, String) {
        let cache = shared
            .cloned()
            .unwrap_or_else(|| Arc::new(SpecCache::new()));
        let report = sweep(policies, ProblemScale::Full, seed, cache).run();
        let json = report.to_json_string();
        (report, json)
    }

    pub fn check(&self, report: &SweepReport) -> Result<(), String> {
        check_structure(report, self.cells)?;
        if self.warm && report.timing.cell_partition_windows.iter().any(|&w| w != 0) {
            return Err("a cell of the non-partitioning sweep partitioned".to_string());
        }
        Ok(())
    }

    /// One complete set-up: the warm-up ops (the first of which, when warm,
    /// builds the eight Full specs into the shared cache).
    pub fn set_up(
        &self,
        policies: &[PolicyKind],
        seeds: &mut SeedSchedule,
    ) -> Option<Arc<SpecCache>> {
        let shared = self.warm.then(|| Arc::new(SpecCache::new()));
        for _ in 0..self.warmup_ops {
            std::hint::black_box(self.op(policies, seeds.next_seed(), shared.as_ref()));
        }
        shared
    }

    pub fn run(&self, benchmark_seed: u64, seconds: u64) -> Outcome {
        let policies = parse_policies(self.policies);
        let mut failures = Vec::new();

        let mut setup_seeds = SeedSchedule::new(benchmark_seed, Stream::Setup);
        let set_ups = repeat_setup(|| self.set_up(&policies, &mut setup_seeds), drop);
        let shared = set_ups.state;

        let mut seeds = SeedSchedule::new(benchmark_seed, Stream::Measured);
        let mut kept: Vec<(usize, u64, String)> = Vec::new();
        let phase_start = Instant::now();
        let mut calibrator = Calibrator::new(phase_start);
        let (mut ops, peak_rss_mb) = closed_loop(
            phase_start,
            seconds,
            self.rss_mark,
            &mut calibrator,
            || (self.op(&policies, seeds.next_seed(), shared.as_ref()), 0.0),
            |index, (report, json)| {
                if index % REPLAY_EVERY == 0 {
                    kept.push((index, report.seed, json));
                }
                match self.check(&report) {
                    Ok(()) => true,
                    Err(e) => {
                        note_failure(&mut failures, format!("op {index}: {e}"));
                        false
                    }
                }
            },
        );

        // Replay: an independent in-process run (fresh cache, fresh
        // experiment) of every kept op must give the same bytes.
        for (index, seed, json) in kept {
            if self.op(&policies, seed, None).1 != json {
                note_failure(
                    &mut failures,
                    format!("op {index}: replay of seed {seed:#x} differs"),
                );
                ops[index].ok = false;
            }
        }

        // Canonical seed, through the workload's own path.
        let (canonical, canonical_json) = self.op(&policies, CANONICAL_SEED, shared.as_ref());
        let verdict = if self.warm {
            // The committed baseline holds this sweep's columns among
            // others; the bytes are checked against a cold in-process run.
            let cold_json = self.op(&policies, CANONICAL_SEED, None).1;
            check_against_baseline(&canonical, true, "simulator").and_then(|()| {
                if cold_json == canonical_json {
                    Ok(())
                } else {
                    Err("warm and cold canonical reports differ".to_string())
                }
            })
        } else if canonical_json == super::BASELINE_FULL {
            Ok(())
        } else {
            // Say which cells moved, if any did.
            check_against_baseline(&canonical, false, "simulator").and(Err(
                "same measurements as the baseline, different bytes".to_string(),
            ))
        };
        if let Err(e) = verdict {
            note_failure(&mut failures, format!("canonical seed: {e}"));
        }

        Outcome {
            ops,
            setup_s: set_ups.walls_s,
            setup_slowdown: set_ups.slowdown,
            setup_peak_rss_mb: set_ups.peak_rss_mb,
            calibration: calibrator.samples().to_vec(),
            failures,
            sim_geomean_speedup: canonical.geomean_of(self.headline).unwrap_or(0.0),
            peak_rss_mb,
            rss_mark: self.rss_mark,
        }
    }
}
