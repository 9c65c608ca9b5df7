//! Execution reports: the measurements both executors produce.

use std::sync::Arc;

use numadag_numa::TrafficStats;
use numadag_trace::TraceEvent;
use serde::{Deserialize, Serialize};

/// The result of executing a workload under one policy.
///
/// The labels are deliberately cheap: the workload name is shared with the
/// spec (`Arc`) and the policy name is the policy's `'static` literal, so
/// building a report allocates nothing for either — sweeps build thousands.
/// Neither travels in the derived wire form (the proc backend's `done`):
/// whoever decodes one re-attaches its own. Nor do the events, which
/// `done` carries beside the report.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Name of the workload.
    #[serde(skip)]
    pub workload: Arc<str>,
    /// Name of the scheduling policy.
    #[serde(skip)]
    pub policy: &'static str,
    /// Simulated makespan in nanoseconds (wall-clock nanoseconds for the
    /// threaded executor).
    pub makespan_ns: f64,
    /// Number of tasks executed.
    pub tasks: usize,
    /// Memory traffic ledger.
    pub traffic: TrafficStats,
    /// Tasks executed per socket.
    pub tasks_per_socket: Vec<usize>,
    /// Busy time per socket (sum of task durations, ns).
    pub busy_per_socket: Vec<f64>,
    /// Number of tasks executed on a socket other than the one the policy
    /// chose (work stealing).
    pub stolen_tasks: usize,
    /// Bytes placed by deferred allocation.
    pub deferred_bytes: u64,
    /// Real wall time spent inside the scheduling policy (`prepare` plus all
    /// `assign` batches), ns. Filled by the simulator; the threaded executor
    /// leaves it 0. Varies run to run — never part of measurement baselines.
    pub policy_wall_ns: f64,
    /// Real wall time of the executor's run minus `policy_wall_ns` — the
    /// event loop plus the memory-cost model, ns. Filled by the simulator.
    pub(crate) event_loop_wall_ns: f64,
    /// Every trace event of the run, in emission order, when the
    /// executor's configuration asks for them
    /// ([`crate::ExecutionConfig::events`]); empty, and never allocated,
    /// otherwise.
    #[serde(skip)]
    pub events: Vec<TraceEvent>,
}

impl ExecutionReport {
    /// Fraction of accessed bytes served from the local NUMA node.
    pub fn local_fraction(&self) -> f64 {
        self.traffic.local_fraction()
    }

    /// Load imbalance across sockets: max busy time / mean busy time.
    /// 1.0 means perfectly balanced; returns 1.0 for degenerate inputs.
    pub(crate) fn load_imbalance(&self) -> f64 {
        if self.busy_per_socket.is_empty() {
            return 1.0;
        }
        let total: f64 = self.busy_per_socket.iter().sum();
        let mean = total / self.busy_per_socket.len() as f64;
        if mean <= 0.0 {
            return 1.0;
        }
        let max = self.busy_per_socket.iter().cloned().fold(0.0, f64::max);
        max / mean
    }

    /// Fraction of tasks that were stolen.
    pub(crate) fn steal_fraction(&self) -> f64 {
        if self.tasks == 0 {
            0.0
        } else {
            self.stolen_tasks as f64 / self.tasks as f64
        }
    }
}

/// Geometric mean of a slice of positive numbers (used for the "geometric
/// mean" bar of Figure 1). Returns 0.0 for an empty slice.
pub(crate) fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use numadag_numa::NodeId;

    fn report(makespan: f64, busy: Vec<f64>) -> ExecutionReport {
        ExecutionReport {
            workload: "toy".into(),
            policy: "LAS",
            makespan_ns: makespan,
            tasks: 10,
            busy_per_socket: busy,
            tasks_per_socket: vec![5, 5],
            ..Default::default()
        }
    }

    #[test]
    fn load_imbalance_measures_skew() {
        let balanced = report(1.0, vec![10.0, 10.0, 10.0, 10.0]);
        assert!((balanced.load_imbalance() - 1.0).abs() < 1e-12);
        let skewed = report(1.0, vec![40.0, 0.0, 0.0, 0.0]);
        assert!((skewed.load_imbalance() - 4.0).abs() < 1e-12);
        let empty = report(1.0, vec![]);
        assert_eq!(empty.load_imbalance(), 1.0);
    }

    #[test]
    fn local_fraction_delegates_to_traffic() {
        let mut r = report(1.0, vec![1.0]);
        r.traffic.record_access(NodeId(0), NodeId(0), 300);
        r.traffic.record_access(NodeId(0), NodeId(1), 100);
        assert!((r.local_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn steal_fraction() {
        let mut r = report(1.0, vec![1.0]);
        r.stolen_tasks = 5;
        assert!((r.steal_fraction() - 0.5).abs() < 1e-12);
        r.tasks = 0;
        assert_eq!(r.steal_fraction(), 0.0);
    }

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }
}
