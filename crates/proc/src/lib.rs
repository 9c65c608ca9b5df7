//! Multi-process message-passing executor: the third backend behind
//! [`numadag_runtime::Executor`].
//!
//! The simulator and the threaded executor both live inside one address
//! space; this crate runs sweep cells in **separate OS processes**. The
//! coordinator (the process that owns the sweep) re-execs its own
//! executable once per worker with a `--proc-worker` flag, and the
//! processes speak newline-delimited JSON over local TCP sockets — the same
//! framing the `numadag-serve` daemon uses, hoisted into
//! [`numadag_runtime::framing`]. Workers are started through one seam,
//! [`WorkerPool::launch`]: a launcher gets the rendezvous address and a
//! slot and returns a [`WorkerHandle`]; [`WorkerPool::spawn`] is that seam
//! with the re-exec launcher, and a test can run [`run_worker`] on threads
//! instead, or put a relay that breaks lines between the two ends.
//!
//! Messages cover the whole lifecycle: `hello` (a worker connected),
//! `assign` and its one reply, `done` or `error` (one sweep cell: `done`
//! carries the whole report and the cell's trace events; what guards a
//! cell's integrity is the spec fingerprint and the simulator-parity
//! tests), `barrier`/`barrier_ack` (oneCCL-style non-blocking collectives
//! at startup and shutdown) and `shutdown`. An `assign` carries what its
//! worker lacks: the execution config when the worker's differs
//! (fingerprint-keyed; the config says whether cells are traced, so traced
//! and untraced cells are two config epochs and a worker keeps one
//! simulator per epoch), and the recipe of the cell's workload the first
//! time a cell over it is dispatched to that worker (the paper kernel the
//! worker builds the spec from, checked against its fingerprint; dispatch
//! prefers a worker that already holds it, then the worker of the cell's
//! sweep lane). A worker that refuses any part says so in its one reply.
//!
//! A worker runs only what it can build: a cell over a custom graph, which
//! no recipe builds, runs in the coordinator's own simulator instead.
//!
//! Determinism: a worker rebuilds the policy from the `(label, seed)` in
//! the assignment and runs the in-process [`numadag_runtime::Simulator`],
//! so a cell's report is byte-identical to the same cell executed locally —
//! `figure1 --backend proc` regenerates the committed simulator baseline
//! exactly. Worker crashes are detected as framing failures, the worker is
//! killed and the cell redispatched; if every worker dies the sweep fails
//! with a structured error instead of hanging.
//!
//! # Wiring
//!
//! The caller owns the pool: [`WorkerPool::spawn`] (or
//! [`WorkerPool::launch`]) starts the workers, [`ProcExecutor::with_pool`]
//! wraps the pool for one execution config, and the sweep runs on it with
//! `numadag_runtime::SweepPlan::execute_on` (reported under the plan's
//! backend, `"simulator"`) or `numadag_runtime::Experiment::run_on`
//! (reported as `"proc"`). Executors
//! of several configs can share one pool, and the workers shut down when
//! the last `Arc` of it drops. A binary that spawns workers calls
//! [`maybe_run_worker`] first thing in `main`, so the re-exec'd children
//! take the worker path instead of re-running the tool.

#![warn(missing_docs)]

mod executor;
mod pool;
pub mod protocol;
mod worker;

pub use executor::ProcExecutor;
pub use pool::{PoolConfig, PoolStats, ProcError, WireConfig, WorkerHandle, WorkerPool};
use worker::WORKER_FLAG;
pub use worker::{run_worker, run_worker_from_env, CONNECT_ENV, WORKER_ENV};

/// Re-enters the process as a worker when launched by a pool: if the
/// argv contains `WORKER_FLAG` and [`CONNECT_ENV`] is set, runs the
/// worker loop and exits the process. Call this before argument parsing in
/// every binary that can host the proc backend.
pub fn maybe_run_worker() {
    let flagged = std::env::args().any(|arg| arg == WORKER_FLAG);
    if flagged && std::env::var(CONNECT_ENV).is_ok() {
        match run_worker_from_env() {
            Ok(()) => std::process::exit(0),
            Err(e) => {
                eprintln!("numadag-proc worker: {e}");
                std::process::exit(1);
            }
        }
    }
}
