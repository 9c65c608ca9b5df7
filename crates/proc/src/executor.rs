//! [`ProcExecutor`]: the [`Executor`] implementation backed by the worker
//! pool.

use std::sync::Arc;

use numadag_core::SchedulingPolicy;
use numadag_runtime::{CellContext, ExecutionConfig, ExecutionReport, Executor, Simulator};
use numadag_tdg::TaskGraphSpec;

use crate::pool::{WireConfig, WorkerPool};

/// The multi-process backend: ships sweep cells to the workers of a pool
/// its caller spawned and owns.
///
/// A worker runs only what it can build: a cell over a paper kernel ships
/// as its recipe, and any other cell (a custom graph, or one without a
/// [`CellContext`]) runs here, in the executor's own [`Simulator`].
/// Workers run that same deterministic simulator over the same spec,
/// policy and seed, so a proc-backend report is byte-identical to a
/// simulator report of the same cell wherever it ran — which is why a
/// simulated plan run on it with `numadag_runtime::SweepPlan::execute_on`
/// reports under the `"simulator"` label.
pub struct ProcExecutor {
    config: WireConfig,
    pool: Arc<WorkerPool>,
    /// Runs the cells no worker can build.
    simulator: Simulator,
}

impl ProcExecutor {
    /// An executor of `config` on `pool`. Executors of several configs
    /// (machine sizes, traced or not) can share one pool: each cell
    /// carries its config to a worker whose config differs.
    pub fn with_pool(config: ExecutionConfig, pool: Arc<WorkerPool>) -> Self {
        ProcExecutor {
            simulator: Simulator::new(config.clone()),
            config: WireConfig::new(config),
            pool,
        }
    }
}

impl Executor for ProcExecutor {
    fn backend_name(&self) -> &'static str {
        "proc"
    }

    fn config(&self) -> &ExecutionConfig {
        self.config.config()
    }

    /// Without a [`CellContext`] there is no policy provenance to ship, so
    /// this runs the cell in-process through the same [`Simulator`] the
    /// workers use — identical results, no IPC.
    fn execute(&self, spec: &TaskGraphSpec, policy: &mut dyn SchedulingPolicy) -> ExecutionReport {
        self.simulator.run(spec, policy)
    }

    /// One lane per live worker: a sweep's lanes keep every worker busy,
    /// lane `i` on worker `i`.
    fn lanes(&self) -> usize {
        self.pool.alive_workers() as usize
    }

    /// Ships the cell to the pool when its context has a recipe; runs it
    /// like [`Executor::execute`] otherwise.
    ///
    /// # Panics
    /// Panics with the [`ProcError`](crate::ProcError) rendered into the
    /// message when the pool cannot produce the cell (every worker dead,
    /// or a worker-side structured error) — a loud fast exit instead of a
    /// hang.
    fn execute_cell(
        &self,
        spec: &TaskGraphSpec,
        policy: &mut dyn SchedulingPolicy,
        ctx: Option<&CellContext<'_>>,
    ) -> ExecutionReport {
        match ctx.and_then(|ctx| ctx.recipe.map(|recipe| (ctx, recipe))) {
            None => self.execute(spec, policy),
            Some((ctx, recipe)) => self
                .pool
                .run_cell(spec, recipe, ctx, policy.name(), &self.config)
                .unwrap_or_else(|e| panic!("proc backend failed: {e}")),
        }
    }
}
