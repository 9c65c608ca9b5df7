//! The [`Executor`] trait: one execution interface for every backend.
//!
//! The paper's claim is validated by running the same (application × scale ×
//! policy) matrix through the deterministic discrete-event
//! [`crate::Simulator`] and the real [`crate::ThreadedExecutor`]; the
//! out-of-crate proc backend (`numadag-proc`) runs the simulator in worker
//! processes. All three implement this trait, so harnesses, examples and
//! tests are written once against `dyn Executor` (usually via
//! [`crate::Experiment`]) and choose the backend at runtime.

use numadag_core::SchedulingPolicy;
use numadag_kernels::SpecKey;
use numadag_tdg::TaskGraphSpec;

use crate::config::ExecutionConfig;
use crate::report::ExecutionReport;

/// Out-of-band description of the sweep cell an execution belongs to.
///
/// A [`crate::SweepPlan`] knows which [`numadag_core::PolicyKind`] and seed
/// produced the `&mut dyn SchedulingPolicy` it hands to an executor, but the
/// trait object itself cannot be serialized. Backends that ship work to
/// other processes (the `numadag-proc` coordinator) need that provenance to
/// rebuild the policy remotely, so the plan passes it alongside the call via
/// [`Executor::execute_cell`]. In-process backends ignore it — keeping the hot
/// [`SchedulingPolicy::assign`] path free of any extra indirection.
#[derive(Debug, Clone, Copy)]
pub struct CellContext<'a> {
    /// Canonical policy label, parseable by
    /// `numadag_core::PolicyKind::from_str` (e.g. `"RGP+LAS"`,
    /// `"RGP+LAS:w=64"`).
    pub policy_label: &'a str,
    /// The seed the policy instance was built with.
    pub seed: u64,
    /// The lane of the sweep running the cell (see
    /// [`crate::SweepPlan::execute`]), `None` for a cell run on its own
    /// ([`crate::SweepPlan::run_cell`]). A backend with workers of its own
    /// can keep a lane's cells, and so its workload's spec, on one worker;
    /// the in-process backends ignore it.
    pub lane: Option<usize>,
    /// The kernel recipe of the cell's workload (see
    /// [`crate::PlannedWorkload::recipe`]), `None` for a custom workload. A
    /// backend with workers of its own ships it for the worker to build the
    /// spec from, and runs a cell without one itself; the in-process
    /// backends ignore it.
    pub recipe: Option<SpecKey>,
}

/// A backend that can execute a task-graph workload under a scheduling
/// policy and measure the result.
///
/// Implementations must consult the policy exactly as the paper's runtime
/// does: [`SchedulingPolicy::prepare`] once before execution with the full
/// graph, then [`SchedulingPolicy::assign`] each time a task becomes ready.
///
/// `Send + Sync` are supertraits so the lanes of a sweep
/// ([`crate::SweepPlan::execute`], [`crate::Experiment::run_on`]) share one
/// executor.
pub trait Executor: Send + Sync {
    /// Short stable backend name (`"simulator"`, `"threaded"`, `"proc"`),
    /// used in sweep reports and CLI arguments.
    fn backend_name(&self) -> &'static str;

    /// The machine configuration this executor runs.
    fn config(&self) -> &ExecutionConfig;

    /// Runs `spec` under `policy` and returns the execution report.
    fn execute(&self, spec: &TaskGraphSpec, policy: &mut dyn SchedulingPolicy) -> ExecutionReport;

    /// Runs one sweep cell, with optional provenance ([`CellContext`]) for
    /// backends that need to reconstruct the policy elsewhere.
    ///
    /// The default implementation ignores the context and delegates to
    /// [`Executor::execute`]; in-process backends need not override it. The
    /// sweep plan always calls this entry point with `Some(ctx)`.
    fn execute_cell(
        &self,
        spec: &TaskGraphSpec,
        policy: &mut dyn SchedulingPolicy,
        ctx: Option<&CellContext<'_>>,
    ) -> ExecutionReport {
        let _ = ctx;
        self.execute(spec, policy)
    }

    /// How many lanes of a sweep this executor can keep busy at once
    /// (default 1): a sweep on it runs on at least that many lanes, each
    /// pulling whole workloads (see [`crate::SweepPlan::execute`]).
    fn lanes(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Simulator, ThreadedExecutor};
    use numadag_core::LasPolicy;
    use numadag_numa::Topology;
    use numadag_tdg::{TaskSpec, TdgBuilder};

    fn toy_spec() -> TaskGraphSpec {
        let mut b = TdgBuilder::new();
        let r = b.region(4096);
        b.submit(TaskSpec::new("w").work(10.0).writes(r, 4096));
        b.submit(TaskSpec::new("r").work(10.0).reads(r, 4096));
        TaskGraphSpec::new("toy", b.finish())
    }

    #[test]
    fn both_backends_execute_through_the_trait_object() {
        let spec = toy_spec();
        let backends: Vec<Box<dyn Executor>> = vec![
            Box::new(Simulator::new(ExecutionConfig::new(Topology::two_socket(
                2,
            )))),
            Box::new(ThreadedExecutor::new(ExecutionConfig::new(
                Topology::two_socket(2),
            ))),
        ];
        let names: Vec<&str> = backends.iter().map(|b| b.backend_name()).collect();
        assert_eq!(names, vec!["simulator", "threaded"]);
        for backend in &backends {
            assert_eq!(backend.config().topology.num_sockets(), 2);
            let mut policy = LasPolicy::new(1);
            let report = backend.execute(&spec, &mut policy);
            assert_eq!(report.tasks, 2);
            assert!(report.makespan_ns > 0.0);
        }
    }

    #[test]
    fn execute_cell_defaults_to_execute_for_in_process_backends() {
        let spec = toy_spec();
        let sim = Simulator::new(ExecutionConfig::new(Topology::two_socket(2)));
        let ctx = CellContext {
            policy_label: "las",
            seed: 7,
            lane: Some(1),
            recipe: None,
        };
        let mut p1 = LasPolicy::new(1);
        let mut p2 = LasPolicy::new(1);
        let with_ctx = sim.execute_cell(&spec, &mut p1, Some(&ctx));
        let without = sim.execute_cell(&spec, &mut p2, None);
        assert_eq!(with_ctx.makespan_ns, without.makespan_ns);
        assert_eq!(with_ctx.tasks_per_socket, without.tasks_per_socket);
    }
}
