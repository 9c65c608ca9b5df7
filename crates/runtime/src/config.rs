//! Executor configuration.

use std::sync::Arc;

use numadag_numa::{CostModel, Topology};
use numadag_trace::MemorySink;
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

/// Configuration shared by the executors. Its derived wire form is the proc
/// backend's `config`; the sink does not travel.
#[derive(Clone, Serialize, Deserialize)]
pub struct ExecutionConfig {
    /// Machine topology (sockets, cores, distances).
    pub topology: Topology,
    /// Cost model translating bytes and work units into simulated time.
    pub cost_model: CostModel,
    /// Work-stealing behaviour of idle cores.
    pub steal: StealMode,
    /// Seed forwarded to components that need randomness (none in the
    /// simulator itself — determinism comes from the policies' own seeds).
    pub seed: u64,
    /// Whether the simulator accumulates per-stage wall time (policy vs
    /// event loop) into the report. Costs two clock reads per assignment
    /// batch in the hot loop, so it is off unless a timing report was asked
    /// for (`figure1 --json-timing` turns it on).
    pub stage_timing: bool,
    /// Where executors emit [`numadag_trace::TraceEvent`]s. `None` (the
    /// default) is the off switch: both executors skip event construction
    /// entirely, so tracing is zero-cost unless a sink is installed via
    /// [`ExecutionConfig::with_trace_sink`]. An executor keeps its sink for
    /// its lifetime; whoever traces cell by cell drains it
    /// ([`MemorySink::take`]) after each one.
    #[serde(skip)]
    pub trace_sink: Option<Arc<MemorySink>>,
}

impl std::fmt::Debug for ExecutionConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutionConfig")
            .field("topology", &self.topology)
            .field("cost_model", &self.cost_model)
            .field("steal", &self.steal)
            .field("seed", &self.seed)
            .field("tracing", &self.trace_sink.is_some())
            .finish()
    }
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
            trace_sink: None,
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
    /// [`ExecutionConfig::stage_timing`]).
    pub fn with_stage_timing(mut self) -> Self {
        self.stage_timing = true;
        self
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Installs the sink both executors emit
    /// [`numadag_trace::TraceEvent`]s into (default: none, tracing off).
    pub fn with_trace_sink(mut self, sink: Arc<MemorySink>) -> Self {
        self.trace_sink = Some(sink);
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
    fn trace_sink_defaults_to_none_and_installs() {
        let cfg = ExecutionConfig::new(Topology::two_socket(2));
        assert!(cfg.trace_sink.is_none());
        assert!(format!("{cfg:?}").contains("tracing: false"));
        let cfg = cfg.with_trace_sink(Arc::new(MemorySink::new()));
        assert!(cfg.trace_sink.is_some());
    }
}
