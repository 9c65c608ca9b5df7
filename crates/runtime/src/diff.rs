//! Loading and diffing sweep reports: how `BENCH_*.json` perf baselines are
//! regenerated and compared without hand-rolled `jq` pipelines.
//!
//! [`SweepReport::from_json_str`] parses a report the workspace previously
//! serialized (either measurement-only or with the timing section), and
//! [`SweepReport::diff`] compares two reports cell by cell, keyed by
//! (application, scale, policy, repetition) — never by cell order. Timing
//! sections are ignored: wall-clock accounting varies run to run and must
//! not make a baseline comparison fail. The `ablation bench-diff` CLI mode
//! wraps this for the command line, and CI uses it to assert that a
//! regenerated `BENCH_figure1_tiny.json` is measurement-identical to the
//! committed one.

use crate::experiment::{SweepCell, SweepReport};

/// The changes one measurement field underwent between two reports.
#[derive(Clone, Debug, PartialEq)]
pub struct FieldDelta {
    /// Field name (`"makespan_ns"`, `"speedup_vs_baseline"`, …).
    pub(crate) field: &'static str,
    /// Value in `self` (the report `diff` was called on).
    pub(crate) before: f64,
    /// Value in `other`.
    pub(crate) after: f64,
}

/// All measurement changes of one cell, keyed like the report cells.
#[derive(Clone, Debug, PartialEq)]
pub struct CellDelta {
    /// `application/scale/policy/rep` key of the cell.
    pub(crate) key: String,
    /// Every measurement field whose value changed.
    pub(crate) fields: Vec<FieldDelta>,
}

/// The structured difference between two [`SweepReport`]s. Empty
/// ([`SweepDiff::is_empty`]) when every measurement matches; timing
/// sections are never compared.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SweepDiff {
    /// Header fields that differ, as `"field: before -> after"` lines
    /// (machine, backend, baseline, seed, repetitions).
    pub header: Vec<String>,
    /// Cell keys (or `"aggregate scale/policy"` entries) present only in
    /// `other`.
    pub added: Vec<String>,
    /// Cell keys (or `"aggregate scale/policy"` entries) present only in
    /// `self`.
    pub removed: Vec<String>,
    /// Cells present in both whose measurements differ.
    pub changed: Vec<CellDelta>,
    /// `scale/policy` aggregates present in both reports whose geomean
    /// changed, with before/after (aggregates present in only one report go
    /// to `added`/`removed`).
    pub aggregates: Vec<(String, f64, f64)>,
    /// Skip-list entries that appear in exactly one report, as
    /// `"+entry"`/`"-entry"` lines.
    pub skipped: Vec<String>,
}

impl SweepDiff {
    /// True when the two reports are measurement-identical.
    pub fn is_empty(&self) -> bool {
        self.header.is_empty()
            && self.added.is_empty()
            && self.removed.is_empty()
            && self.changed.is_empty()
            && self.aggregates.is_empty()
            && self.skipped.is_empty()
    }
}

impl std::fmt::Display for SweepDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return writeln!(f, "reports are measurement-identical");
        }
        for line in &self.header {
            writeln!(f, "header   {line}")?;
        }
        for key in &self.removed {
            writeln!(f, "removed  {key}")?;
        }
        for key in &self.added {
            writeln!(f, "added    {key}")?;
        }
        for cell in &self.changed {
            for delta in &cell.fields {
                let rel = if delta.before != 0.0 {
                    format!(
                        " ({:+.2}%)",
                        100.0 * (delta.after - delta.before) / delta.before
                    )
                } else {
                    String::new()
                };
                writeln!(
                    f,
                    "changed  {:<58} {:<20} {} -> {}{rel}",
                    cell.key, delta.field, delta.before, delta.after
                )?;
            }
        }
        for (key, before, after) in &self.aggregates {
            writeln!(
                f,
                "geomean  {key:<58} {before:.6} -> {after:.6} ({:+.2}%)",
                100.0 * (after - before) / before
            )?;
        }
        for line in &self.skipped {
            writeln!(f, "skipped  {line}")?;
        }
        Ok(())
    }
}

/// Cell key used for matching across reports.
fn cell_key(cell: &SweepCell) -> String {
    format!(
        "{}/{}/{}/rep{}",
        cell.application, cell.scale, cell.policy, cell.repetition
    )
}

impl SweepReport {
    /// Compares `self` (typically the committed baseline) against `other`
    /// (typically a fresh regeneration). Cells are matched by
    /// (application, scale, policy, repetition), so reorderings do not
    /// register as changes; timing sections are ignored entirely.
    pub fn diff(&self, other: &SweepReport) -> SweepDiff {
        let mut diff = SweepDiff::default();

        for (field, before, after) in [
            ("machine", &self.machine, &other.machine),
            ("backend", &self.backend, &other.backend),
            ("baseline", &self.baseline, &other.baseline),
        ] {
            if before != after {
                diff.header
                    .push(format!("{field}: {before:?} -> {after:?}"));
            }
        }
        if self.seed != other.seed {
            diff.header
                .push(format!("seed: {} -> {}", self.seed, other.seed));
        }
        if self.repetitions != other.repetitions {
            diff.header.push(format!(
                "repetitions: {} -> {}",
                self.repetitions, other.repetitions
            ));
        }

        for cell in &self.cells {
            let key = cell_key(cell);
            match other.cells.iter().find(|c| cell_key(c) == key) {
                None => diff.removed.push(key),
                Some(theirs) => {
                    let fields: Vec<FieldDelta> = [
                        ("tasks", cell.tasks as f64, theirs.tasks as f64),
                        ("makespan_ns", cell.makespan_ns, theirs.makespan_ns),
                        (
                            "speedup_vs_baseline",
                            cell.speedup_vs_baseline,
                            theirs.speedup_vs_baseline,
                        ),
                        ("local_fraction", cell.local_fraction, theirs.local_fraction),
                        ("load_imbalance", cell.load_imbalance, theirs.load_imbalance),
                        ("steal_fraction", cell.steal_fraction, theirs.steal_fraction),
                        (
                            "deferred_bytes",
                            cell.deferred_bytes as f64,
                            theirs.deferred_bytes as f64,
                        ),
                    ]
                    .into_iter()
                    .filter(|(_, before, after)| before != after)
                    .map(|(field, before, after)| FieldDelta {
                        field,
                        before,
                        after,
                    })
                    .collect();
                    if !fields.is_empty() {
                        diff.changed.push(CellDelta { key, fields });
                    }
                }
            }
        }
        for cell in &other.cells {
            let key = cell_key(cell);
            if !self.cells.iter().any(|c| cell_key(c) == key) {
                diff.added.push(key);
            }
        }

        for agg in &self.aggregates {
            let key = format!("{}/{}", agg.scale, agg.policy);
            match other
                .aggregates
                .iter()
                .find(|a| a.scale == agg.scale && a.policy == agg.policy)
            {
                None => diff.removed.push(format!("aggregate {key}")),
                Some(theirs) if theirs.geomean_speedup != agg.geomean_speedup => {
                    diff.aggregates
                        .push((key, agg.geomean_speedup, theirs.geomean_speedup));
                }
                Some(_) => {}
            }
        }
        for agg in &other.aggregates {
            if !self
                .aggregates
                .iter()
                .any(|a| a.scale == agg.scale && a.policy == agg.policy)
            {
                diff.added
                    .push(format!("aggregate {}/{}", agg.scale, agg.policy));
            }
        }

        for entry in &self.skipped {
            if !other.skipped.contains(entry) {
                diff.skipped.push(format!("-{entry}"));
            }
        }
        for entry in &other.skipped {
            if !self.skipped.contains(entry) {
                diff.skipped.push(format!("+{entry}"));
            }
        }

        diff
    }

    /// Parses a report previously serialized by [`SweepReport::to_json_string`].
    /// The accounting never travels: it parses as zeroed, and the `timing`
    /// member older files carry is skipped.
    pub fn from_json_str(text: &str) -> Result<SweepReport, String> {
        Ok(crate::framing::from_line(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use numadag_core::PolicyKind;
    use numadag_kernels::{Application, ProblemScale};

    fn report() -> SweepReport {
        Experiment::new()
            .apps([Application::Jacobi, Application::NStream])
            .scale(ProblemScale::Tiny)
            .policies([PolicyKind::Dfifo, PolicyKind::RGP_LAS])
            .seed(7)
            .run()
    }

    #[test]
    fn json_round_trip_preserves_every_measurement() {
        let mut original = report();
        // Integers an `f64` would round cross exactly.
        let above = (1 << 53) + 1;
        original.seed = above;
        original.cells[0].deferred_bytes = above;
        let text = original.to_json_string();
        let reparsed = SweepReport::from_json_str(&text).unwrap();
        assert_eq!(
            (reparsed.seed, reparsed.cells[0].deferred_bytes),
            (above, above)
        );
        assert_eq!(reparsed.to_json_string(), text);
        assert!(original.diff(&reparsed).is_empty());
    }

    #[test]
    fn identical_reports_diff_empty() {
        let a = report();
        let b = report();
        let diff = a.diff(&b);
        assert!(diff.is_empty(), "{diff}");
        assert!(diff.to_string().contains("measurement-identical"));
    }

    #[test]
    fn timing_differences_are_invisible_to_diff() {
        let a = report();
        let mut b = report();
        b.timing.total_wall_ns = 1e12;
        b.timing.cell_wall_ns.iter_mut().for_each(|ns| *ns *= 3.0);
        assert!(a.diff(&b).is_empty());
    }

    #[test]
    fn measurement_changes_are_keyed_not_positional() {
        let a = report();
        let mut b = report();
        // Reordering cells alone is not a difference…
        b.cells.reverse();
        assert!(a.diff(&b).is_empty());
        // …but changing a measurement is, under its key.
        let i = b
            .cells
            .iter()
            .position(|c| c.application == "Jacobi" && c.policy == "RGP+LAS")
            .unwrap();
        b.cells[i].makespan_ns *= 2.0;
        let diff = a.diff(&b);
        assert_eq!(diff.changed.len(), 1);
        assert_eq!(diff.changed[0].key, "Jacobi/Tiny/RGP+LAS/rep0");
        assert!(diff.changed[0]
            .fields
            .iter()
            .any(|d| d.field == "makespan_ns"));
        let rendered = diff.to_string();
        assert!(rendered.contains("makespan_ns"), "{rendered}");
    }

    #[test]
    fn added_removed_and_skips_are_reported() {
        let a = report();
        let mut b = report();
        let moved = b.cells.pop().unwrap();
        b.skipped
            .push(format!("{}/{}", moved.application, moved.policy));
        let diff = a.diff(&b);
        assert_eq!(diff.removed.len(), 1);
        assert!(diff.added.is_empty());
        assert_eq!(diff.skipped.len(), 1);
        assert!(diff.skipped[0].starts_with('+'));
        assert!(!diff.is_empty());
        // The reverse direction flips the signs.
        let reverse = b.diff(&a);
        assert_eq!(reverse.added.len(), 1);
        assert!(reverse.skipped[0].starts_with('-'));
    }

    #[test]
    fn header_and_aggregate_changes_are_reported() {
        let a = report();
        let mut b = report();
        b.seed = 8;
        b.aggregates[0].geomean_speedup += 0.5;
        let diff = a.diff(&b);
        assert_eq!(diff.header, vec!["seed: 7 -> 8"]);
        assert_eq!(diff.aggregates.len(), 1);
        // An aggregate present in only one report is an add/remove, not a
        // NaN-valued change.
        let dropped = b.aggregates.remove(1);
        let diff = a.diff(&b);
        assert!(diff
            .removed
            .contains(&format!("aggregate {}/{}", dropped.scale, dropped.policy)));
        assert!(diff
            .aggregates
            .iter()
            .all(|(_, x, y)| x.is_finite() && y.is_finite()));
        let reverse = b.diff(&a);
        assert!(reverse
            .added
            .contains(&format!("aggregate {}/{}", dropped.scale, dropped.policy)));
    }

    /// A one-cell report exactly as commit fb5dfe3 — the last with a
    /// hand-written `from_json_str` — serialized it, split where its timed
    /// spelling put the `timing` member: `MEASUREMENTS + "\n}"` is the
    /// report's JSON, `MEASUREMENTS + TIMING + "\n}"` the timed file.
    const PARENT_MEASUREMENTS: &str = r#"{
  "machine": "bullion_s16 (8 sockets x 4 cores)",
  "backend": "simulator",
  "baseline": "LAS",
  "seed": 7,
  "repetitions": 1,
  "cells": [
    {
      "application": "NStream",
      "scale": "Tiny",
      "policy": "LAS",
      "repetition": 0,
      "tasks": 36,
      "makespan_ns": 4367.6,
      "speedup_vs_baseline": 1,
      "local_fraction": 0.5833333333333334,
      "load_imbalance": 1.6582861049067221,
      "steal_fraction": 0,
      "deferred_bytes": 9216
    }
  ],
  "aggregates": [
    {
      "scale": "Tiny",
      "policy": "LAS",
      "geomean_speedup": 1,
      "applications": 1
    }
  ],
  "skipped": []"#;
    const PARENT_TIMING: &str = r#",
  "timing": {
    "jobs": 1,
    "total_wall_ns": 56824,
    "build_wall_ns": 174851,
    "run_wall_ns": 29784,
    "spec_builds": 1,
    "spec_cache_hits": 0,
    "spec_cache_total_builds": 1,
    "spec_cache_total_hits": 0,
    "cell_wall_ns": [
      29784
    ],
    "cell_partition_windows": [
      0
    ],
    "cell_partition_wall_ns": [
      0
    ],
    "cell_policy_wall_ns": [
      180
    ],
    "cell_event_loop_wall_ns": [
      23753
    ]
  }"#;

    #[test]
    fn the_parents_reports_decode_and_re_encode_byte_for_byte() {
        let untimed = format!("{PARENT_MEASUREMENTS}\n}}");
        let timed = format!("{PARENT_MEASUREMENTS}{PARENT_TIMING}\n}}");
        for text in [&untimed, &timed] {
            let report = SweepReport::from_json_str(text).unwrap();
            assert_eq!(report.to_json_string(), untimed);
            assert_eq!(report.timing.jobs, 0, "the accounting is not read");
        }
    }

    #[test]
    fn malformed_reports_are_rejected_with_context() {
        assert!(SweepReport::from_json_str("not json").is_err());
        // The first field of the struct is the first one missed.
        let err = SweepReport::from_json_str("{}").unwrap_err();
        assert!(err.contains("machine"), "{err}");
        // Every field, down to each cell's: missing or mistyped is an error
        // that names it.
        serde::testing::assert_struct_rejects_malformed(
            &format!("{PARENT_MEASUREMENTS}\n}}"),
            &[],
            serde::decode::<SweepReport>,
        );
    }
}
