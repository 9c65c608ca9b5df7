//! numadag-numa: the traffic ledger of a simulated execution. Simulated
//! bytes, not host time: the host cost of the numa calls sits inside the
//! simulator's event loop (`runtime.event_loop_ms`).

use numadag::runtime::ExecutionReport;

/// (bytes accessed, bytes served by a remote node) of one execution.
pub fn traffic(report: &ExecutionReport) -> (u64, u64) {
    (report.traffic.total_bytes(), report.traffic.remote_bytes)
}
