//! Traffic accounting: how many bytes were served locally vs. remotely.
//!
//! The whole point of the paper's techniques is to increase the fraction of
//! task input/output bytes that are served from the socket the task runs on.
//! [`TrafficStats`] is the ledger both executors write to, and the local
//! fraction `figure1` reports next to the speedups. A traced run's
//! `Traffic` events carry the per-access detail (node pair, distance).

use serde::{Deserialize, Serialize};

use crate::ids::NodeId;

/// Byte counters accumulated over an execution; the derived form is the
/// wire form.
///
/// Both counters saturate: recording and [`TrafficStats::total_bytes`]
/// stop at `u64::MAX`, so accesses adding up to more than `u64::MAX` bytes
/// report `u64::MAX`.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TrafficStats {
    /// Bytes accessed from the node local to the executing core.
    pub local_bytes: u64,
    /// Bytes accessed from a remote node.
    pub remote_bytes: u64,
}

impl TrafficStats {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an access of `bytes` bytes by a core on `core_node` to data
    /// living on `data_node`.
    #[inline]
    pub fn record_access(&mut self, core_node: NodeId, data_node: NodeId, bytes: u64) {
        let counter = if core_node == data_node {
            &mut self.local_bytes
        } else {
            &mut self.remote_bytes
        };
        *counter = counter.saturating_add(bytes);
    }

    /// Total bytes accessed.
    pub fn total_bytes(&self) -> u64 {
        self.local_bytes.saturating_add(self.remote_bytes)
    }

    /// Fraction of bytes served locally, in `[0, 1]`. Returns 1.0 when no
    /// traffic was recorded (vacuously all-local).
    pub fn local_fraction(&self) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            1.0
        } else {
            self.local_bytes as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_vacuously_local() {
        let s = TrafficStats::new();
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.local_fraction(), 1.0);
    }

    #[test]
    fn local_and_remote_are_separated() {
        let mut s = TrafficStats::new();
        s.record_access(NodeId(0), NodeId(0), 1000);
        s.record_access(NodeId(0), NodeId(3), 3000);
        assert_eq!(s.local_bytes, 1000);
        assert_eq!(s.remote_bytes, 3000);
        assert_eq!(s.total_bytes(), 4000);
        assert!((s.local_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn a_recorded_ledger_round_trips_through_its_wire_form() {
        let mut s = TrafficStats::new();
        s.record_access(NodeId(0), NodeId(0), 1000);
        s.record_access(NodeId(2), NodeId(5), 500);
        s.record_access(NodeId(1), NodeId(0), u64::MAX / 2);
        let line = serde_json::to_string(&s).unwrap();
        assert_eq!(
            line,
            format!(
                r#"{{"local_bytes":1000,"remote_bytes":{}}}"#,
                u64::MAX / 2 + 500
            )
        );
        let rebuilt: TrafficStats = serde::decode(&line).unwrap();
        assert_eq!(rebuilt, s);
        serde::testing::assert_struct_rejects_malformed(&line, &[], serde::decode::<TrafficStats>);
    }

    #[test]
    fn every_counter_saturates() {
        let mut s = TrafficStats::new();
        s.record_access(NodeId(0), NodeId(0), u64::MAX);
        s.record_access(NodeId(0), NodeId(0), 1);
        assert_eq!((s.local_bytes, s.remote_bytes), (u64::MAX, 0));
        assert_eq!(s.total_bytes(), u64::MAX);
        s.record_access(NodeId(0), NodeId(1), u64::MAX);
        s.record_access(NodeId(1), NodeId(0), 1);
        assert_eq!((s.local_bytes, s.remote_bytes), (u64::MAX, u64::MAX));
        assert_eq!(s.total_bytes(), u64::MAX);
    }
}
