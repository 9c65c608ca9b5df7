//! Executor configuration.

use numadag_numa::{CostModel, Topology};
use serde::{Deserialize, Serialize};

/// What an idle core does when its socket's queue is empty.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum StealMode {
    /// Steal from the nearest socket (by NUMA distance) that has queued
    /// tasks. This is how socket-aware runtimes (Nanos++, OpenStream) behave
    /// and is the default.
    #[default]
    NearestSocket,
    /// Never steal: cores only execute tasks pushed to their own socket.
    /// Exposes the raw load imbalance of a policy (used by ablations/tests).
    NoStealing,
}

/// Configuration shared by the executors. Its derived wire form is the one
/// a proc `assign` carries; the events switch travels beside it, and the
/// seed not at all.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExecutionConfig {
    /// Machine topology (sockets, cores, distances).
    pub topology: Topology,
    /// Cost model translating bytes and work units into simulated time.
    pub(crate) cost_model: CostModel,
    /// Work-stealing behaviour of idle cores.
    pub(crate) steal: StealMode,
    /// Seed forwarded to components that need randomness (none in the
    /// simulator itself — determinism comes from the policies' own seeds).
    /// It stays off the wire, so a sweep's seed does not make a new proc
    /// config epoch.
    #[serde(skip)]
    pub seed: u64,
    /// Whether the simulator accumulates per-stage wall time (policy vs
    /// event loop) into the report. Costs two clock reads per assignment
    /// batch in the hot loop, so it is off unless a timing report was asked
    /// for (`figure1 --json-timing` turns it on).
    pub(crate) stage_timing: bool,
    /// Whether executions return their [`numadag_trace::TraceEvent`]s in
    /// [`crate::ExecutionReport::events`]. Off by default: both executors
    /// then skip event construction entirely, so tracing is zero-cost
    /// unless asked for ([`ExecutionConfig::with_events`]).
    #[serde(skip)]
    pub events: bool,
}

impl ExecutionConfig {
    /// Configuration for the paper's evaluation machine (bullion S16,
    /// 8 sockets × 4 cores) with the default cost model.
    pub fn bullion_s16() -> Self {
        ExecutionConfig::new(Topology::bullion_s16())
    }

    /// Configuration for an arbitrary topology with the default cost model.
    pub fn new(topology: Topology) -> Self {
        ExecutionConfig {
            topology,
            cost_model: CostModel::default(),
            steal: StealMode::default(),
            seed: 0xE0,
            stage_timing: false,
            events: false,
        }
    }

    /// Replaces the cost model.
    pub fn with_cost_model(mut self, cost_model: CostModel) -> Self {
        self.cost_model = cost_model;
        self
    }

    /// Replaces the stealing mode.
    pub fn with_steal(mut self, steal: StealMode) -> Self {
        self.steal = steal;
        self
    }

    /// Enables per-stage wall-time accounting in the simulator (see
    /// `ExecutionConfig::stage_timing`).
    pub fn with_stage_timing(mut self) -> Self {
        self.stage_timing = true;
        self
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Makes executions return their trace events (see
    /// [`ExecutionConfig::events`]).
    pub fn with_events(mut self) -> Self {
        self.events = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bullion_preset_matches_paper_machine() {
        let cfg = ExecutionConfig::bullion_s16();
        assert_eq!(cfg.topology.num_sockets(), 8);
        assert_eq!(cfg.topology.num_cores(), 32);
        assert_eq!(cfg.steal, StealMode::NearestSocket);
    }

    #[test]
    fn builder_methods_chain() {
        let cfg = ExecutionConfig::new(Topology::two_socket(2))
            .with_cost_model(CostModel::flat())
            .with_steal(StealMode::NoStealing)
            .with_seed(99);
        assert_eq!(cfg.cost_model, CostModel::flat());
        assert_eq!(cfg.steal, StealMode::NoStealing);
        assert_eq!(cfg.seed, 99);
    }

    #[test]
    fn events_default_to_off_and_switch_on() {
        let cfg = ExecutionConfig::new(Topology::two_socket(2));
        assert!(!cfg.events);
        assert!(format!("{cfg:?}").contains("events: false"));
        assert!(cfg.with_events().events);
    }
}
