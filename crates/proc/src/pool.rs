//! Coordinator side: the worker-process pool.
//!
//! [`WorkerPool::spawn`] re-execs the current executable once per worker
//! (passing the rendezvous socket through the environment), collects each
//! worker's `hello`, and then runs a startup barrier so every later
//! dispatch starts from a known-good collective state. Barriers follow the
//! oneCCL shape — a non-blocking state machine with an explicit
//! `CollectiveBarrier::start` and repeated `CollectiveBarrier::update`
//! polls — rather than one blocking wait per worker, so a dead worker
//! surfaces as a killed slot instead of a hang.
//!
//! Which worker gets a cell is the paper's own argument applied to the
//! coordinator — run the task where its data already lives: `pick_slot`
//! prefers an idle worker that already holds the cell's spec, then the idle
//! worker holding the fewest specs, and only with every worker busy queues
//! the cell behind one (a holder first). A serial sweep therefore ships each
//! spec once, to one worker, and spreads the specs evenly.
//!
//! Per-cell dispatch is a short serial conversation on one worker's socket:
//! config sync (only when the worker's last-acked config fingerprint
//! differs), spec transfer (only the first time this worker sees the spec),
//! `assign`, then the one `done` reply. Any framing
//! failure or timeout on that conversation kills the worker and redispatches
//! the cell to a live one; a structured `error` reply is deterministic
//! (bad policy, bad spec) and propagates instead of retrying.
//!
//! Between the `assign` and the wait for its `done`, the coordinator posts
//! one more line, the way the oneCCL entries post a `start()` and consume
//! it later: the spec of the sweep's next workload (the cell's
//! [`numadag_runtime::CellContext::next_spec`]), written to the worker
//! `pick_slot` would give that workload's first cell — if no live worker
//! holds it yet, that worker is idle and its lock is free (`try_lock`: a
//! look-ahead never waits). `spec` is un-acked and a worker reads its lines
//! in order, so this is the same message at another time: the encode and
//! the idle worker's decode overlap the current cell instead of preceding
//! the next one. A look-ahead write that fails kills its worker, never the
//! cell in conversation; every write to a worker is bounded by the cell
//! timeout.

use std::collections::{HashMap, HashSet};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, Weak};
use std::time::{Duration, Instant};

use numadag_numa::Hex64;
use numadag_runtime::framing::{
    from_line, read_frame, to_line, write_frame, write_line, FrameError,
};
use numadag_runtime::{ExecutionConfig, ExecutionReport};
use numadag_tdg::{Fnv1a, TaskGraphSpec};
use numadag_trace::TraceEvent;

use crate::protocol::{encode_spec, Assignment, ToCoordinator, ToWorker};
use crate::worker::{CONNECT_ENV, WORKER_ENV, WORKER_FLAG};

/// How a worker pool is launched.
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Number of worker processes.
    pub workers: usize,
    /// Arguments passed to the re-exec'd executable. The default,
    /// `["--proc-worker"]`, is what [`crate::maybe_run_worker`] looks for;
    /// test binaries override this to re-enter through a libtest filter.
    pub worker_args: Vec<String>,
    /// Extra environment for the workers (fault injection in tests).
    pub worker_env: Vec<(String, String)>,
    /// Deadline for all workers to connect and pass the startup barrier.
    pub spawn_timeout: Duration,
    /// Deadline for one cell's conversation; a worker quiet for longer is
    /// treated as lost and its cell redispatched.
    pub cell_timeout: Duration,
}

impl PoolConfig {
    /// A pool of `workers` processes with default timeouts.
    pub fn new(workers: usize) -> Self {
        PoolConfig {
            workers: workers.max(1),
            worker_args: vec![WORKER_FLAG.to_string()],
            worker_env: Vec::new(),
            spawn_timeout: Duration::from_secs(30),
            cell_timeout: Duration::from_secs(120),
        }
    }

    /// Replaces the worker argv (see [`PoolConfig::worker_args`]).
    pub fn with_worker_args(mut self, args: Vec<String>) -> Self {
        self.worker_args = args;
        self
    }

    /// Adds one environment variable to every worker.
    pub fn with_env(mut self, key: &str, value: &str) -> Self {
        self.worker_env.push((key.to_string(), value.to_string()));
        self
    }
}

/// Failures of the multi-process backend.
#[derive(Debug)]
pub enum ProcError {
    /// The pool could not be brought up (exec, bind, or startup barrier).
    Spawn(String),
    /// A worker reported a structured, deterministic failure — retrying on
    /// another worker would fail identically.
    Worker {
        /// The reporting worker's id.
        worker: u64,
        /// Its error message.
        message: String,
    },
    /// Workers kept dying until none were left to run the cell.
    AllWorkersDead {
        /// The cell that could not be placed.
        cell: u64,
    },
}

impl std::fmt::Display for ProcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcError::Spawn(m) => write!(f, "worker pool spawn failed: {m}"),
            ProcError::Worker { worker, message } => {
                write!(f, "worker {worker} reported: {message}")
            }
            ProcError::AllWorkersDead { cell } => {
                write!(f, "no live workers left to execute cell {cell}")
            }
        }
    }
}

impl std::error::Error for ProcError {}

/// Point-in-time snapshot of the pool's counters (see
/// [`WorkerPool::stats`]). `Display` renders the `key=value` line the
/// `figure1` bin prints for CI to grep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker processes launched over the pool's lifetime.
    pub workers_spawned: u64,
    /// Workers currently alive.
    pub workers_alive: u64,
    /// Cells handed to [`WorkerPool::run_cell`].
    pub cells_dispatched: u64,
    /// Cells re-sent to another worker after their first worker was lost.
    pub redispatches: u64,
    /// `config` messages sent (one per worker per distinct config).
    pub config_broadcasts: u64,
    /// `spec` messages sent (one per worker per distinct workload).
    pub spec_transfers: u64,
    /// Of the `spec_transfers`, those written ahead of their first cell,
    /// while the cell before it computed.
    pub spec_prefetches: u64,
    /// Collective barriers completed (startup + shutdown drains).
    pub barriers: u64,
}

impl std::fmt::Display for PoolStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "workers_spawned={} workers_alive={} cells_dispatched={} redispatches={} \
             config_broadcasts={} spec_transfers={} spec_prefetches={} barriers={}",
            self.workers_spawned,
            self.workers_alive,
            self.cells_dispatched,
            self.redispatches,
            self.config_broadcasts,
            self.spec_transfers,
            self.spec_prefetches,
            self.barriers,
        )
    }
}

struct SlotState {
    child: Child,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Fingerprint of the config this worker last acknowledged.
    config_fp: Option<u64>,
}

/// What choosing a worker needs to know about each of them, kept apart from
/// [`SlotState`] so that a choice never waits for a conversation to end.
struct Dispatch {
    /// Cells chosen so far; where the scan for a worker starts, so equally
    /// good workers take turns.
    rotation: usize,
    books: Vec<SlotBook>,
    /// Fingerprint of the spec of the last cell placed. A cell over another
    /// spec starts a workload: the one cell of it whose next-workload hint
    /// is worth fingerprinting (every cell of a workload carries the same).
    last_spec: Option<u64>,
}

#[derive(Default)]
struct SlotBook {
    /// Cells sent this worker's way and not yet answered (one in
    /// conversation, the rest queued on its lock).
    in_flight: usize,
    /// Fingerprints of the specs this worker holds (or is being shipped).
    specs: HashSet<u64>,
}

/// One worker as [`pick_slot`] sees it.
#[derive(Clone, Copy, Debug)]
struct SlotRow {
    alive: bool,
    /// A cell is in conversation with it or queued behind one.
    busy: bool,
    /// It holds the spec of the cell being placed.
    holds: bool,
    /// How many specs it holds.
    specs_held: usize,
}

/// Data-affine choice of the worker for one cell: among live workers, an
/// idle one that holds the cell's spec; else the idle one holding the
/// fewest specs (it pays one transfer, and the specs stay spread); else —
/// every worker busy — one that holds the spec; else any. Equally good
/// workers are taken in turn, scanning from `rotation`.
fn pick_slot(rows: &[SlotRow], rotation: usize) -> Option<usize> {
    let n = rows.len();
    (0..n)
        .map(|offset| (rotation + offset) % n)
        .filter(|&at| rows[at].alive)
        .min_by_key(|&at| match (rows[at].busy, rows[at].holds) {
            (false, true) => (0, 0),
            (false, false) => (1, rows[at].specs_held),
            (true, true) => (2, 0),
            (true, false) => (3, 0),
        })
}

/// Where a spec whose cells come next is worth writing ahead: nowhere when
/// a live worker already holds it (or is being shipped it); else the worker
/// [`pick_slot`] would place its first cell on right now, if that one is
/// idle.
fn ahead_slot(rows: &[SlotRow], rotation: usize) -> Option<usize> {
    if rows.iter().any(|row| row.alive && row.holds) {
        return None;
    }
    pick_slot(rows, rotation).filter(|&at| !rows[at].busy)
}

struct WorkerSlot {
    id: u64,
    alive: AtomicBool,
    state: Mutex<SlotState>,
}

impl WorkerSlot {
    fn lock(&self) -> MutexGuard<'_, SlotState> {
        // A panic while holding the lock leaves the worker in an unknown
        // protocol state; the slot is killed below either way, so the
        // poisoned state is safe to take over.
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn kill(&self, state: &mut SlotState) {
        self.alive.store(false, Ordering::SeqCst);
        let _ = state.child.kill();
        let _ = state.child.wait();
    }
}

#[derive(Default)]
struct Counters {
    cells_dispatched: AtomicU64,
    redispatches: AtomicU64,
    config_broadcasts: AtomicU64,
    spec_transfers: AtomicU64,
    spec_prefetches: AtomicU64,
    barriers: AtomicU64,
}

/// An [`ExecutionConfig`] together with the stable fingerprint of its wire
/// form, which is both the config's epoch tag and the "has this worker seen
/// it" key. Built once per executor, so the config is encoded for hashing
/// once rather than once per cell.
#[derive(Clone, Debug)]
pub struct WireConfig {
    config: ExecutionConfig,
    fingerprint: u64,
}

impl WireConfig {
    /// Fingerprints `config`.
    pub fn new(config: ExecutionConfig) -> Self {
        let wire = ToWorker::configure(0, &config);
        let mut hash = Fnv1a::default();
        hash.write_bytes(to_line(&wire).as_bytes());
        WireConfig {
            config,
            fingerprint: hash.0,
        }
    }

    /// The config itself.
    pub fn config(&self) -> &ExecutionConfig {
        &self.config
    }
}

enum DispatchFailure {
    /// The worker died or corrupted its stream: killed, cell redispatchable.
    WorkerLost,
    /// Deterministic failure; retrying elsewhere would reproduce it.
    Fatal(ProcError),
}

/// A pool of worker processes executing sweep cells over newline-JSON IPC.
pub struct WorkerPool {
    slots: Vec<Arc<WorkerSlot>>,
    dispatch: Mutex<Dispatch>,
    next_cell: AtomicU64,
    next_epoch: AtomicU64,
    cell_timeout: Duration,
    counters: Counters,
}

impl WorkerPool {
    /// Launches the workers and runs the startup barrier.
    pub fn spawn(config: PoolConfig) -> Result<Arc<WorkerPool>, ProcError> {
        let spawn_err = |m: String| ProcError::Spawn(m);
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| spawn_err(format!("cannot bind rendezvous socket: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| spawn_err(format!("cannot read rendezvous address: {e}")))?;
        let exe = std::env::current_exe()
            .map_err(|e| spawn_err(format!("cannot locate own executable: {e}")))?;

        let mut unmatched: HashMap<u64, Child> = HashMap::new();
        for id in 0..config.workers {
            let mut cmd = Command::new(&exe);
            cmd.args(&config.worker_args)
                .env(CONNECT_ENV, addr.to_string())
                .env(WORKER_ENV, id.to_string())
                .stdin(Stdio::null())
                // Workers of a test binary re-enter through libtest, which
                // chats on stdout; none of it is protocol (IPC is TCP).
                .stdout(Stdio::null());
            for (key, value) in &config.worker_env {
                cmd.env(key, value);
            }
            let child = cmd
                .spawn()
                .map_err(|e| spawn_err(format!("cannot spawn worker {id}: {e}")))?;
            unmatched.insert(id as u64, child);
        }

        // Rendezvous: accept until every worker said hello. Non-blocking
        // accept so a worker that dies before connecting trips the deadline
        // instead of blocking forever.
        listener
            .set_nonblocking(true)
            .map_err(|e| spawn_err(format!("cannot configure rendezvous socket: {e}")))?;
        let deadline = Instant::now() + config.spawn_timeout;
        let mut slots: Vec<Arc<WorkerSlot>> = Vec::new();
        while slots.len() < config.workers {
            if Instant::now() > deadline {
                for (_, mut child) in unmatched {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                return Err(spawn_err(format!(
                    "only {}/{} workers connected within {:?}",
                    slots.len(),
                    config.workers,
                    config.spawn_timeout
                )));
            }
            let (stream, _) = match listener.accept() {
                Ok(accepted) => accepted,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // A worker connects a few ms after its exec; a coarse
                    // poll here is pure added start-up latency.
                    std::thread::sleep(Duration::from_micros(250));
                    continue;
                }
                Err(e) => return Err(spawn_err(format!("rendezvous accept failed: {e}"))),
            };
            // A write no worker drains for a whole cell timeout fails like a
            // read that long would: the worker is lost, never waited on.
            stream
                .set_nonblocking(false)
                .and_then(|_| stream.set_nodelay(true))
                .and_then(|_| stream.set_read_timeout(Some(config.spawn_timeout)))
                .and_then(|_| stream.set_write_timeout(Some(config.cell_timeout)))
                .map_err(|e| spawn_err(format!("cannot configure worker socket: {e}")))?;
            let reader_stream = stream
                .try_clone()
                .map_err(|e| spawn_err(format!("cannot clone worker socket: {e}")))?;
            let mut reader = BufReader::new(reader_stream);
            let hello = read_frame(&mut reader)
                .map_err(|e| spawn_err(format!("bad hello frame: {e}")))?
                .ok_or_else(|| spawn_err("worker closed before hello".to_string()))?;
            let worker = match from_line(&hello) {
                Ok(ToCoordinator::Hello { worker, .. }) => worker,
                _ => return Err(spawn_err(format!("expected hello, got {hello:?}"))),
            };
            let child = unmatched
                .remove(&worker)
                .ok_or_else(|| spawn_err(format!("unexpected hello from worker {worker}")))?;
            slots.push(Arc::new(WorkerSlot {
                id: worker,
                alive: AtomicBool::new(true),
                state: Mutex::new(SlotState {
                    child,
                    reader,
                    writer: stream,
                    config_fp: None,
                }),
            }));
        }
        slots.sort_by_key(|slot| slot.id);

        let pool = Arc::new(WorkerPool {
            dispatch: Mutex::new(Dispatch {
                rotation: 0,
                books: slots.iter().map(|_| SlotBook::default()).collect(),
                last_spec: None,
            }),
            slots,
            next_cell: AtomicU64::new(0),
            next_epoch: AtomicU64::new(0),
            cell_timeout: config.cell_timeout,
            counters: Counters::default(),
        });
        // Startup collective: every worker must answer the epoch-0 barrier
        // before any cell is dispatched.
        pool.barrier(config.spawn_timeout);
        if pool.alive_workers() == 0 {
            return Err(spawn_err(
                "all workers died during the startup barrier".to_string(),
            ));
        }
        Ok(pool)
    }

    /// Number of worker slots (dead or alive).
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Number of workers still alive.
    pub fn alive_workers(&self) -> u64 {
        self.slots
            .iter()
            .filter(|slot| slot.alive.load(Ordering::SeqCst))
            .count() as u64
    }

    /// Snapshot of the pool's counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers_spawned: self.slots.len() as u64,
            workers_alive: self.alive_workers(),
            cells_dispatched: self.counters.cells_dispatched.load(Ordering::Relaxed),
            redispatches: self.counters.redispatches.load(Ordering::Relaxed),
            config_broadcasts: self.counters.config_broadcasts.load(Ordering::Relaxed),
            spec_transfers: self.counters.spec_transfers.load(Ordering::Relaxed),
            spec_prefetches: self.counters.spec_prefetches.load(Ordering::Relaxed),
            barriers: self.counters.barriers.load(Ordering::Relaxed),
        }
    }

    /// Runs a full collective barrier (start + update polls) against every
    /// live worker, killing any that fail to answer before `timeout`.
    fn barrier(&self, timeout: Duration) {
        let epoch = self.next_epoch.fetch_add(1, Ordering::SeqCst);
        let mut collective = CollectiveBarrier::new(&self.slots, epoch);
        collective.start();
        let deadline = Instant::now() + timeout;
        while !collective.update() {
            if Instant::now() > deadline {
                for slot in &collective.pending {
                    let mut state = slot.lock();
                    slot.kill(&mut state);
                }
                break;
            }
        }
        self.counters.barriers.fetch_add(1, Ordering::Relaxed);
    }

    fn dispatch(&self) -> MutexGuard<'_, Dispatch> {
        // Every update of the books is one insert, remove or count step, so
        // they are valid even if a holder of the lock panicked.
        match self.dispatch.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Every worker as [`pick_slot`] sees it for a cell over the spec with
    /// fingerprint `fp`.
    fn rows(&self, dispatch: &Dispatch, fp: u64) -> Vec<SlotRow> {
        self.slots
            .iter()
            .zip(&dispatch.books)
            .map(|(slot, book)| SlotRow {
                alive: slot.alive.load(Ordering::SeqCst),
                busy: book.in_flight > 0,
                holds: book.specs.contains(&fp),
                specs_held: book.specs.len(),
            })
            .collect()
    }

    /// Chooses the worker (by slot index) for a cell over the spec with
    /// fingerprint `fp` and counts the cell as in flight on it;
    /// [`WorkerPool::release_slot`] undoes the count.
    fn acquire_slot(&self, fp: u64) -> Option<usize> {
        let mut dispatch = self.dispatch();
        let rows = self.rows(&dispatch, fp);
        let chosen = pick_slot(&rows, dispatch.rotation)?;
        dispatch.rotation = dispatch.rotation.wrapping_add(1);
        dispatch.books[chosen].in_flight += 1;
        Some(chosen)
    }

    fn release_slot(&self, index: usize) {
        self.dispatch().books[index].in_flight -= 1;
    }

    /// Executes one sweep cell on some live worker, redispatching on worker
    /// loss. `policy_label` must parse back to the policy that produced
    /// `policy_name` (its `'static` display name, re-attached to the report
    /// on this side of the wire — labels never travel). The events are the
    /// cell's trace, empty unless `config` carries a sink. `next_spec` is
    /// the spec the cells after this workload's need, written ahead to an
    /// idle worker while this cell computes (see the module doc).
    pub fn run_cell(
        &self,
        spec: &TaskGraphSpec,
        next_spec: Option<&TaskGraphSpec>,
        policy_label: &str,
        policy_name: &'static str,
        policy_seed: u64,
        config: &WireConfig,
    ) -> Result<(ExecutionReport, Vec<TraceEvent>), ProcError> {
        let cell = self.next_cell.fetch_add(1, Ordering::Relaxed);
        self.counters
            .cells_dispatched
            .fetch_add(1, Ordering::Relaxed);
        let assignment = Assignment {
            cell,
            fp: Hex64(spec.fingerprint()),
            policy: policy_label.to_string(),
            policy_seed: Hex64(policy_seed),
        };
        // `fingerprint()` still folds the region table (~20 µs on a Full
        // spec): the hint is fingerprinted on its workload's first cell only.
        let starts_workload =
            self.dispatch().last_spec.replace(assignment.fp.0) != Some(assignment.fp.0);
        let ahead = next_spec
            .filter(|_| starts_workload)
            .map(|next| (next.fingerprint(), next));
        loop {
            let index = self
                .acquire_slot(assignment.fp.0)
                .ok_or(ProcError::AllWorkersDead { cell })?;
            let outcome = self.dispatch_on(index, &assignment, spec, ahead, policy_name, config);
            self.release_slot(index);
            match outcome {
                Ok(result) => return Ok(result),
                Err(DispatchFailure::WorkerLost) => {
                    self.counters.redispatches.fetch_add(1, Ordering::Relaxed);
                }
                Err(DispatchFailure::Fatal(e)) => return Err(e),
            }
        }
    }

    fn dispatch_on(
        &self,
        index: usize,
        assignment: &Assignment,
        spec: &TaskGraphSpec,
        ahead: Option<(u64, &TaskGraphSpec)>,
        policy_name: &'static str,
        config: &WireConfig,
    ) -> Result<(ExecutionReport, Vec<TraceEvent>), DispatchFailure> {
        let slot: &WorkerSlot = &self.slots[index];
        let mut state = slot.lock();
        if !slot.alive.load(Ordering::SeqCst) {
            return Err(DispatchFailure::WorkerLost);
        }
        let lost = |slot: &WorkerSlot, state: &mut SlotState| {
            slot.kill(state);
            DispatchFailure::WorkerLost
        };
        if state
            .reader
            .get_ref()
            .set_read_timeout(Some(self.cell_timeout))
            .is_err()
        {
            return Err(lost(slot, &mut state));
        }

        // Config sync: only when this worker's acked fingerprint differs.
        let config_fp = config.fingerprint;
        if state.config_fp != Some(config_fp) {
            let message = ToWorker::configure(config_fp, &config.config);
            if write_frame(&mut state.writer, &message).is_err() {
                return Err(lost(slot, &mut state));
            }
            self.counters
                .config_broadcasts
                .fetch_add(1, Ordering::Relaxed);
            // The conversation is serial under the slot lock, so the next
            // frame must be the ack (or a structured rejection).
            match read_message(&mut state.reader) {
                Some(ToCoordinator::ConfigAck { epoch }) if epoch.0 == config_fp => {
                    state.config_fp = Some(config_fp)
                }
                Some(ToCoordinator::Error { message }) => {
                    return Err(DispatchFailure::Fatal(ProcError::Worker {
                        worker: slot.id,
                        message,
                    }));
                }
                _ => return Err(lost(slot, &mut state)),
            }
        }

        // Spec transfer: ship once per worker, reference by fingerprint after.
        if self.dispatch().books[index].specs.insert(assignment.fp.0) {
            if write_line(&mut state.writer, encode_spec(spec)).is_err() {
                return Err(lost(slot, &mut state));
            }
            self.counters.spec_transfers.fetch_add(1, Ordering::Relaxed);
        }

        // The message owns its assignment; the clone is one short label.
        if write_frame(&mut state.writer, &ToWorker::Assign(assignment.clone())).is_err() {
            return Err(lost(slot, &mut state));
        }
        if let Some((fp, next)) = ahead {
            self.ship_ahead(fp, next);
        }

        // One reply per `assign`: `done`, or a structured `error`. A reply
        // about another cell falls through to the last arm like any other
        // corruption of the conversation.
        match read_message(&mut state.reader) {
            Some(ToCoordinator::Done {
                cell,
                mut report,
                events,
            }) if cell == assignment.cell => {
                report.workload = spec.name.clone();
                report.policy = policy_name;
                Ok((report, events))
            }
            Some(ToCoordinator::Error { message }) => {
                // The complaint may be about this cell's spec, shipped now
                // or ahead and refused (`spec` is un-acked; its refusal
                // answers the first `assign` over it): the worker does not
                // hold it.
                self.dispatch().books[index].specs.remove(&assignment.fp.0);
                Err(DispatchFailure::Fatal(ProcError::Worker {
                    worker: slot.id,
                    message,
                }))
            }
            _ => Err(lost(slot, &mut state)),
        }
    }

    /// Writes the spec with fingerprint `fp` to the worker [`ahead_slot`]
    /// names, if its lock is free, and books it there. Called between an
    /// `assign` and the wait for its reply, so it never waits itself: a
    /// taken lock skips the write, and a failed one kills its own worker,
    /// not the conversation it interrupted.
    fn ship_ahead(&self, fp: u64, spec: &TaskGraphSpec) {
        let (slot, mut state) = {
            let mut dispatch = self.dispatch();
            let rows = self.rows(&dispatch, fp);
            let Some(at) = ahead_slot(&rows, dispatch.rotation) else {
                return;
            };
            let slot: &WorkerSlot = &self.slots[at];
            let Ok(state) = slot.state.try_lock() else {
                return;
            };
            // Killed since its row was read: nothing to book.
            if !slot.alive.load(Ordering::SeqCst) {
                return;
            }
            dispatch.books[at].specs.insert(fp);
            (slot, state)
        };
        if write_line(&mut state.writer, encode_spec(spec)).is_err() {
            slot.kill(&mut state);
            return;
        }
        self.counters.spec_transfers.fetch_add(1, Ordering::Relaxed);
        self.counters
            .spec_prefetches
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// Reads and decodes one frame; any failure (EOF, timeout, framing, JSON, a
/// message that is not a [`ToCoordinator`]) collapses to `None` — the caller
/// kills the worker for all of them.
fn read_message(reader: &mut BufReader<TcpStream>) -> Option<ToCoordinator> {
    from_line(&read_frame(reader).ok()??).ok()
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Drain barrier: prove every channel is quiet, then dismiss the
        // workers and reap them.
        self.barrier(Duration::from_secs(5));
        for slot in &self.slots {
            if !slot.alive.load(Ordering::SeqCst) {
                continue;
            }
            let mut state = slot.lock();
            let _ = write_frame(&mut state.writer, &ToWorker::Shutdown);
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        for slot in &self.slots {
            let mut state = slot.lock();
            // A dismissed worker closes its socket by exiting, so EOF (or any
            // read failure, including the deadline) is the wake-up — not a
            // poll interval.
            if slot.alive.load(Ordering::SeqCst) {
                let left = deadline.saturating_duration_since(Instant::now());
                let timeout = left.max(Duration::from_millis(1));
                if state
                    .reader
                    .get_ref()
                    .set_read_timeout(Some(timeout))
                    .is_ok()
                {
                    while Instant::now() < deadline
                        && matches!(read_frame(&mut state.reader), Ok(Some(_)))
                    {
                    }
                }
            }
            // The socket closes a moment before the process becomes
            // reapable; workers that ignore the dismissal are killed.
            loop {
                match state.child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_micros(100))
                    }
                    _ => {
                        let _ = state.child.kill();
                        let _ = state.child.wait();
                        break;
                    }
                }
            }
        }
    }
}

/// oneCCL-style non-blocking barrier: `start()` posts the barrier message to
/// every live worker, `update()` polls each pending worker with a short read
/// deadline and reports completion. Workers that fail mid-barrier are killed
/// and dropped from the pending set (a dead worker cannot hold a barrier).
struct CollectiveBarrier {
    epoch: u64,
    pending: Vec<Arc<WorkerSlot>>,
    started: bool,
}

impl CollectiveBarrier {
    fn new(slots: &[Arc<WorkerSlot>], epoch: u64) -> Self {
        CollectiveBarrier {
            epoch,
            pending: slots
                .iter()
                .filter(|slot| slot.alive.load(Ordering::SeqCst))
                .cloned()
                .collect(),
            started: false,
        }
    }

    fn start(&mut self) {
        let epoch = self.epoch;
        self.pending.retain(|slot| {
            let mut state = slot.lock();
            let barrier = ToWorker::Barrier {
                epoch: Hex64(epoch),
            };
            if write_frame(&mut state.writer, &barrier).is_err() {
                slot.kill(&mut state);
                return false;
            }
            true
        });
        self.started = true;
    }

    /// One poll round; returns true when every pending worker has answered.
    fn update(&mut self) -> bool {
        assert!(self.started, "update() before start()");
        let epoch = self.epoch;
        self.pending.retain(|slot| {
            let mut state = slot.lock();
            if state
                .reader
                .get_ref()
                .set_read_timeout(Some(Duration::from_millis(25)))
                .is_err()
            {
                slot.kill(&mut state);
                return false;
            }
            match read_frame(&mut state.reader) {
                Ok(Some(line)) => {
                    let acked = matches!(
                        from_line(&line),
                        Ok(ToCoordinator::BarrierAck { epoch: Hex64(e) }) if e == epoch
                    );
                    if !acked {
                        // Anything else on a quiesced channel is corruption.
                        slot.kill(&mut state);
                    }
                    false // answered or dead: out of the pending set
                }
                Err(FrameError::Io(e))
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    true // still pending
                }
                Ok(None) | Err(_) => {
                    slot.kill(&mut state);
                    false
                }
            }
        });
        self.pending.is_empty()
    }
}

static SHARED: OnceLock<Mutex<Weak<WorkerPool>>> = OnceLock::new();

/// Returns the process-wide shared pool, spawning one if none is live or
/// the live one is smaller than `config.workers`. Executors hold `Arc`s;
/// the pool shuts its workers down when the last executor drops.
pub fn shared_pool(config: PoolConfig) -> Result<Arc<WorkerPool>, ProcError> {
    let cell = SHARED.get_or_init(|| Mutex::new(Weak::new()));
    let mut guard = match cell.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    if let Some(pool) = guard.upgrade() {
        if pool.num_slots() >= config.workers && pool.alive_workers() > 0 {
            return Ok(pool);
        }
    }
    let pool = WorkerPool::spawn(config)?;
    *guard = Arc::downgrade(&pool);
    Ok(pool)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `"AIH3"`: **A**live or **D**ead, **I**dle or **B**usy, **H**olds the
    /// spec or `-`, and how many specs it holds.
    fn row(text: &str) -> SlotRow {
        let bytes = text.as_bytes();
        SlotRow {
            alive: bytes[0] == b'A',
            busy: bytes[1] == b'B',
            holds: bytes[2] == b'H',
            specs_held: usize::from(bytes[3] - b'0'),
        }
    }

    #[test]
    fn pick_slot_prefers_idle_holders_then_empty_hands_then_busy_holders() {
        for (rows, rotation, want, why) in [
            ("", 0, None, "no workers"),
            ("DI-0 DBH1", 0, None, "no live workers"),
            ("AI-0 AI-0", 0, Some(0), "a fresh pool: the rotation"),
            ("AI-0 AI-0", 1, Some(1), "... wherever it is"),
            ("AI-0 AI-0", 7, Some(1), "... modulo the pool"),
            ("AI-2 AIH3", 0, Some(1), "an idle holder beats fewer specs"),
            ("AIH1 AIH1", 1, Some(1), "idle holders take turns"),
            ("AI-2 AI-1", 0, Some(1), "no holder: fewest specs"),
            ("AI-1 AI-2 AI-1", 1, Some(2), "fewest specs, in turn"),
            ("ABH1 AI-5", 0, Some(1), "idle beats a busy holder"),
            ("AB-0 ABH4", 0, Some(1), "all busy: behind a holder"),
            ("AB-0 AB-9", 0, Some(0), "all busy, no holder: rotation"),
            ("AB-0 AB-9", 1, Some(1), "... wherever it is"),
            ("DIH1 AB-0", 0, Some(1), "a dead holder holds nothing"),
            ("DI-0 AI-3 DIH0", 2, Some(1), "the only survivor"),
        ] {
            let rows: Vec<SlotRow> = rows.split_whitespace().map(row).collect();
            assert_eq!(pick_slot(&rows, rotation), want, "{why}");
        }
    }

    #[test]
    fn ahead_slot_is_the_idle_worker_the_first_cell_would_get() {
        for (rows, rotation, want, why) in [
            ("", 0, None, "no workers"),
            ("AB-1 AI-0", 0, Some(1), "the idle worker"),
            (
                "AB-1 AI-3 AI-1",
                1,
                Some(2),
                "the idle one with fewest specs",
            ),
            ("AI-0 AI-0", 1, Some(1), "the rotation among equals"),
            ("AB-1 AIH1", 0, None, "an idle worker holds it"),
            (
                "ABH1 AI-0",
                0,
                None,
                "a busy worker holds (or is shipped) it",
            ),
            ("DIH1 AI-0", 0, Some(1), "a dead holder holds nothing"),
            ("AB-1 AB-0", 0, None, "every worker busy"),
            ("AB-1 DI-0", 0, None, "the only idle worker is dead"),
        ] {
            let rows: Vec<SlotRow> = rows.split_whitespace().map(row).collect();
            assert_eq!(ahead_slot(&rows, rotation), want, "{why}");
        }
    }

    /// The books of `workers` processes driven the way [`WorkerPool`]
    /// drives them: a placed cell ships its spec to a worker that lacks it,
    /// the first cell of a workload writes the next workload's spec ahead,
    /// and a finished cell leaves its worker.
    struct Model {
        held: Vec<Vec<u64>>,
        in_flight: Vec<usize>,
        rotation: usize,
        last_spec: Option<u64>,
        transfers: usize,
        ahead: usize,
    }

    impl Model {
        fn new(workers: usize) -> Model {
            Model {
                held: vec![Vec::new(); workers],
                in_flight: vec![0; workers],
                rotation: 0,
                last_spec: None,
                transfers: 0,
                ahead: 0,
            }
        }

        fn rows(&self, fp: u64) -> Vec<SlotRow> {
            (0..self.held.len())
                .map(|at| SlotRow {
                    alive: true,
                    busy: self.in_flight[at] > 0,
                    holds: self.held[at].contains(&fp),
                    specs_held: self.held[at].len(),
                })
                .collect()
        }

        /// Places a cell over `fp` with `next` as its hint; returns its
        /// worker.
        fn place(&mut self, fp: u64, next: Option<u64>) -> usize {
            let at = pick_slot(&self.rows(fp), self.rotation).expect("all alive");
            self.rotation += 1;
            self.in_flight[at] += 1;
            if !self.held[at].contains(&fp) {
                self.held[at].push(fp);
                self.transfers += 1;
            }
            let starts_workload = self.last_spec.replace(fp) != Some(fp);
            if let Some(next) = next.filter(|_| starts_workload) {
                if let Some(to) = ahead_slot(&self.rows(next), self.rotation) {
                    self.held[to].push(next);
                    self.transfers += 1;
                    self.ahead += 1;
                }
            }
            at
        }

        fn release(&mut self, at: usize) {
            self.in_flight[at] -= 1;
        }
    }

    /// The serial Full sweep in miniature: eight specs, five cells each, two
    /// idle workers — every spec shipped once, four to each worker; with the
    /// look-ahead, every spec after the first while the cell before it ran.
    #[test]
    fn a_serial_sweep_ships_each_spec_once_and_splits_them_evenly() {
        for look_ahead in [false, true] {
            let mut model = Model::new(2);
            for cell in 0..40u64 {
                let (fp, next) = (cell / 5, cell / 5 + 1);
                if look_ahead && cell % 5 == 0 && fp > 0 {
                    assert!(
                        model.held.iter().any(|specs| specs.contains(&fp)),
                        "spec {fp} is held before its first cell is placed"
                    );
                }
                let hint = (look_ahead && next < 8).then_some(next);
                let at = model.place(fp, hint);
                model.release(at);
            }
            assert_eq!(model.transfers, 8, "look_ahead={look_ahead}");
            assert_eq!((model.held[0].len(), model.held[1].len()), (4, 4));
            assert_eq!(model.ahead, if look_ahead { 7 } else { 0 });
        }
    }

    /// Two cells in flight (the `--jobs 2` sweep), finishing in either
    /// order: each spec reaches a worker at most once, so 8..=16 transfers.
    #[test]
    fn two_cells_in_flight_ship_each_spec_at_most_once_per_worker() {
        for newer_finishes_first in [false, true] {
            let mut model = Model::new(2);
            let mut in_flight: Vec<usize> = Vec::new();
            for cell in 0..40u64 {
                let (fp, next) = (cell / 5, cell / 5 + 1);
                in_flight.push(model.place(fp, (next < 8).then_some(next)));
                if in_flight.len() == 2 {
                    let done = in_flight.remove(usize::from(newer_finishes_first));
                    model.release(done);
                }
            }
            assert!((8..=16).contains(&model.transfers), "{}", model.transfers);
            for specs in &model.held {
                let mut distinct = specs.clone();
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(distinct.len(), specs.len(), "a spec shipped twice");
            }
        }
    }
}
