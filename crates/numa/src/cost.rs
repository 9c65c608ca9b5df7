//! Cost model: how long does it take to move bytes between a core and a
//! NUMA node, and how long does a task take overall.
//!
//! The discrete-event simulator in `numadag-runtime` charges every task
//!
//! ```text
//! duration = compute_time
//!          + Σ_over_accessed_bytes  bytes / effective_bandwidth(distance)
//! ```
//!
//! where the effective bandwidth degrades with NUMA distance and with the
//! number of tasks concurrently hammering the same memory node (a simple
//! M/M/1-style contention multiplier). The absolute numbers are arbitrary
//! simulation units; only the *ratios* matter for reproducing the paper's
//! figure, and those ratios are taken from typical measured local/remote
//! bandwidth and latency gaps on 8-socket glueless/node-controller machines.

use serde::{Deserialize, Serialize};

use crate::topology::DistanceMatrix;

/// Parameters of the memory/compute cost model. Times are in abstract
/// "simulation nanoseconds"; bandwidths in bytes per simulation nanosecond.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Bandwidth, in bytes per ns, of a core streaming from its local node.
    pub local_bandwidth: f64,
    /// Fixed per-access latency charged once per region access, in ns, for a
    /// local access. Models the cost of the first cache miss burst.
    pub local_latency: f64,
    /// Exponent applied to the relative NUMA distance when degrading
    /// bandwidth: `bw(d) = local_bandwidth / (d/10)^bandwidth_exponent`.
    /// 1.0 means bandwidth degrades linearly with the SLIT distance.
    pub bandwidth_exponent: f64,
    /// Additional latency per unit of relative distance beyond local, in ns:
    /// `lat(d) = local_latency * (d/10)^latency_exponent`.
    pub latency_exponent: f64,
    /// Contention: each *additional* concurrent accessor of the same memory
    /// node multiplies effective transfer time by `1 + contention_factor`.
    pub contention_factor: f64,
    /// Time in ns to execute one abstract "work unit" of task compute.
    pub time_per_work_unit: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Local streaming bandwidth of ~8 bytes/ns (8 GB/s per core) and a
        // ~100 ns local memory latency are in line with the Nehalem/Westmere
        // class sockets of the bullion S16. Remote accesses on a
        // node-controller machine lose roughly 2-3x in both latency and
        // bandwidth, which the SLIT distances (15 / 27) encode.
        CostModel {
            local_bandwidth: 8.0,
            local_latency: 100.0,
            bandwidth_exponent: 1.0,
            latency_exponent: 1.0,
            contention_factor: 0.25,
            time_per_work_unit: 1.0,
        }
    }
}

impl CostModel {
    /// A cost model with no NUMA penalty at all (remote behaves like local).
    /// Useful as a control: every policy should perform identically under it.
    pub fn flat() -> Self {
        CostModel {
            bandwidth_exponent: 0.0,
            latency_exponent: 0.0,
            contention_factor: 0.0,
            ..CostModel::default()
        }
    }

    /// Effective bandwidth (bytes per ns) for an access at SLIT `distance`.
    pub(crate) fn bandwidth(&self, distance: u32) -> f64 {
        let rel = distance as f64 / DistanceMatrix::LOCAL as f64;
        self.local_bandwidth / rel.powf(self.bandwidth_exponent)
    }

    /// Effective latency (ns) for an access at SLIT `distance`.
    pub(crate) fn latency(&self, distance: u32) -> f64 {
        let rel = distance as f64 / DistanceMatrix::LOCAL as f64;
        self.local_latency * rel.powf(self.latency_exponent)
    }

    /// Multiplier applied to memory time when `concurrent` tasks (including
    /// the one being charged) are simultaneously accessing the same node.
    pub fn contention_multiplier(&self, concurrent: usize) -> f64 {
        let extra = concurrent.saturating_sub(1) as f64;
        1.0 + self.contention_factor * extra
    }

    /// Time (ns) to execute `work_units` of pure compute.
    #[inline]
    pub fn compute_time(&self, work_units: f64) -> f64 {
        work_units * self.time_per_work_unit
    }

    /// Precomputes a [`TransferTable`] for every distance that occurs in
    /// `distances`: the model's latency and bandwidth at each distance,
    /// without the two `powf` calls per lookup that dominated the
    /// simulator's memory loop.
    pub fn transfer_table(&self, distances: &DistanceMatrix) -> TransferTable {
        let max = distances.max_distance() as usize;
        let mut lat = vec![f64::NAN; max + 1];
        let mut bw = vec![f64::NAN; max + 1];
        for d in distances.distinct_distances() {
            lat[d as usize] = self.latency(d);
            bw[d as usize] = self.bandwidth(d);
        }
        TransferTable { lat, bw }
    }
}

/// Per-distance latency and bandwidth memoized from a [`CostModel`] over a
/// concrete [`DistanceMatrix`] (see [`CostModel::transfer_table`]).
///
/// `transfer_time` is `latency(d) + bytes / bandwidth(d)` of the model on
/// the cached values, so results are bit-identical to evaluating the model,
/// which the byte-compared `BENCH_*.json` baselines rely on.
#[derive(Clone, Debug, Default)]
pub struct TransferTable {
    /// `latency(d)` indexed by distance; NaN at distances absent from the
    /// matrix the table was built for.
    lat: Vec<f64>,
    /// `bandwidth(d)` indexed by distance, NaN likewise.
    bw: Vec<f64>,
}

impl TransferTable {
    /// Time (ns) to transfer `bytes` over a path with SLIT `distance`,
    /// ignoring contention, for every distance of the matrix the table was
    /// built from.
    ///
    /// # Panics
    /// Panics (index out of bounds) on a distance the matrix did not
    /// contain.
    #[inline]
    pub fn transfer_time(&self, bytes: u64, distance: u32) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.lat[distance as usize] + bytes as f64 / self.bw[distance as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The model evaluated directly: what [`TransferTable::transfer_time`]
    /// caches.
    fn transfer_time(m: &CostModel, bytes: u64, distance: u32) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        m.latency(distance) + bytes as f64 / m.bandwidth(distance)
    }

    #[test]
    fn local_access_uses_base_numbers() {
        let m = CostModel::default();
        assert!((m.bandwidth(10) - 8.0).abs() < 1e-12);
        assert!((m.latency(10) - 100.0).abs() < 1e-12);
        // 8000 bytes at 8 B/ns = 1000 ns, plus 100 ns latency.
        assert!((transfer_time(&m, 8000, 10) - 1100.0).abs() < 1e-9);
    }

    #[test]
    fn remote_access_is_slower() {
        let m = CostModel::default();
        let local = transfer_time(&m, 1 << 20, 10);
        let sibling = transfer_time(&m, 1 << 20, 15);
        let far = transfer_time(&m, 1 << 20, 27);
        assert!(local < sibling);
        assert!(sibling < far);
        // With linear exponents the far/local ratio approaches 2.7 for large
        // transfers.
        let ratio = transfer_time(&m, 1 << 30, 27) / transfer_time(&m, 1 << 30, 10);
        assert!((ratio - 2.7).abs() < 0.01);
    }

    #[test]
    fn flat_model_has_no_penalty() {
        let m = CostModel::flat();
        assert_eq!(transfer_time(&m, 4096, 10), transfer_time(&m, 4096, 27));
        assert_eq!(m.contention_multiplier(16), 1.0);
    }

    #[test]
    fn zero_bytes_cost_nothing() {
        let m = CostModel::default();
        assert_eq!(transfer_time(&m, 0, 27), 0.0);
    }

    #[test]
    fn contention_grows_linearly() {
        let m = CostModel::default();
        assert_eq!(m.contention_multiplier(0), 1.0);
        assert_eq!(m.contention_multiplier(1), 1.0);
        assert!((m.contention_multiplier(2) - 1.25).abs() < 1e-12);
        assert!((m.contention_multiplier(5) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn compute_time_scales_with_work() {
        let m = CostModel::default();
        assert_eq!(m.compute_time(0.0), 0.0);
        assert_eq!(m.compute_time(250.0), 250.0);
        let m2 = CostModel {
            time_per_work_unit: 2.5,
            ..CostModel::default()
        };
        assert_eq!(m2.compute_time(100.0), 250.0);
    }
}
