//! Coordinator side: the worker pool.
//!
//! [`WorkerPool::launch`] binds a rendezvous socket and hands its address
//! and a slot id to a launcher once per worker; whatever the launcher
//! starts connects back and says `hello`, and the launcher returns a
//! [`WorkerHandle`] the pool ends it through (kill, has-exited, wait). The
//! pool then runs a startup barrier, so every later dispatch starts from a
//! known-good collective state; a launch that fails on the way reaps every
//! worker already launched. [`WorkerPool::spawn`] is `launch` with the
//! production launcher: re-exec the current executable as a worker process
//! (passing the rendezvous socket through the environment). Barriers follow
//! the oneCCL shape — a non-blocking state machine with an explicit
//! `CollectiveBarrier::start` and repeated `CollectiveBarrier::update` polls
//! — so a dead worker surfaces as a lost worker instead of a hang.
//!
//! What the coordinator knows about its workers (alive, cells booked, specs
//! held), its cell and barrier numbering and its counters are one
//! `PoolState` behind one lock. Only its transitions change it: `book`,
//! `book_spec`, `answered`, `refused` and `lost`, `barrier`;
//! each is one step with no I/O and no panic. Sockets, launching and reaping
//! are the shell's: one `Conn` per worker behind its own lock. The shell
//! never takes a `Conn` while holding the state, so choosing a worker never
//! waits for a conversation; only the holder of a worker's `Conn` books it
//! lost.
//!
//! Which worker gets a cell is the paper's own argument applied to the
//! coordinator — run the task where its data already lives: `pick_slot`
//! prefers an idle worker that already holds the cell's spec, then the
//! worker of the cell's lane, if idle, then the idle worker holding the
//! fewest specs, and only with every worker busy queues the cell behind one
//! (a holder first). A sweep's lanes each pull whole workloads (see
//! [`numadag_runtime::SweepPlan::execute`]), and a proc executor asks for
//! one lane per live worker, lane `i` preferring worker `i`: each lane keeps
//! its workload on its own worker, so every worker computes, each spec is
//! shipped once, to the worker that runs its cells, and the window plans
//! its policies build are built there once.
//!
//! A cell is one `assign` on its worker's socket and its one reply. The
//! `assign` carries the config unless the last config the worker answered
//! `done` under is this one, and the spec's kernel recipe the first time
//! the spec is booked on the worker; after that, the spec is named by
//! fingerprint. Any framing failure or timeout on that conversation kills
//! the worker and redispatches the cell to a live one; a structured `error`
//! reply is deterministic (bad config, recipe or policy) and propagates
//! instead of retrying. Every write to a worker is bounded by
//! [`CELL_TIMEOUT`].

use std::collections::HashSet;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use numadag_kernels::SpecKey;
use numadag_runtime::framing::{from_line, read_frame, to_line, write_frame, FrameError};
use numadag_runtime::{CellContext, ExecutionConfig, ExecutionReport};
use numadag_tdg::{ContentHasher, TaskGraphSpec};

use crate::protocol::{Assignment, EpochConfig, Recipe, ToCoordinator, ToWorker};
use crate::worker::{CONNECT_ENV, WORKER_ENV, WORKER_FLAG};

/// Deadline for every worker of a new pool to connect and pass the startup
/// barrier.
pub(crate) const SPAWN_TIMEOUT: Duration = Duration::from_secs(30);

/// Deadline for one cell's conversation and for any one write to a worker:
/// a worker quiet for longer is treated as lost and its cell redispatched.
pub(crate) const CELL_TIMEOUT: Duration = Duration::from_secs(120);

/// Deadline for a dropped pool's drain barrier, and then for its dismissed
/// workers to exit before they are killed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// How a worker pool is launched.
#[derive(Clone, Debug)]
pub struct PoolConfig {
    workers: usize,
}

impl PoolConfig {
    /// A pool of `workers` processes (at least one), each launched with
    /// `--proc-worker`, the argument [`crate::maybe_run_worker`] looks for.
    pub fn new(workers: usize) -> Self {
        PoolConfig {
            workers: workers.max(1),
        }
    }
}

/// A launched worker, as the pool ends it: everything else goes over its
/// socket.
pub trait WorkerHandle: Send {
    /// Ends the worker now.
    fn kill(&mut self);
    /// Whether the worker has exited (a process: and been reaped).
    fn has_exited(&mut self) -> bool;
    /// Waits for the worker to exit.
    fn wait(&mut self);
}

impl WorkerHandle for Child {
    fn kill(&mut self) {
        let _ = Child::kill(self);
    }

    /// A child that cannot be waited for has nothing left to reap.
    fn has_exited(&mut self) -> bool {
        !matches!(self.try_wait(), Ok(None))
    }

    fn wait(&mut self) {
        let _ = Child::wait(self);
    }
}

/// Failures of the multi-process backend.
#[derive(Debug)]
pub enum ProcError {
    /// The pool could not be brought up (launch, bind, or startup barrier).
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
/// `figure1` bin prints.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Workers launched over the pool's lifetime.
    pub workers_spawned: u64,
    /// Workers currently alive.
    pub workers_alive: u64,
    /// Cells handed to [`WorkerPool::run_cell`].
    pub cells_dispatched: u64,
    /// Cells re-sent to another worker after their first worker was lost.
    pub redispatches: u64,
    /// Configs sent in an `assign` (one per worker per distinct config).
    pub config_broadcasts: u64,
    /// Workloads shipped as the `recipe` in an `assign` (one per worker per
    /// distinct workload).
    pub spec_transfers: u64,
    /// Collective barriers completed (startup + shutdown drains).
    pub barriers: u64,
}

impl std::fmt::Display for PoolStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "workers_spawned={} workers_alive={} cells_dispatched={} redispatches={} \
             config_broadcasts={} spec_transfers={} barriers={}",
            self.workers_spawned,
            self.workers_alive,
            self.cells_dispatched,
            self.redispatches,
            self.config_broadcasts,
            self.spec_transfers,
            self.barriers,
        )
    }
}

/// One worker as the pool's book keeps it (by default, live and idle).
#[derive(Default)]
struct Worker {
    dead: bool,
    /// Cells booked on it and not yet ended: one in conversation, the rest
    /// waiting for its `Conn`.
    in_flight: usize,
    /// Fingerprints of the specs it holds (or is being shipped).
    specs: HashSet<u64>,
}

/// Everything the coordinator knows about its workers (see the module doc).
#[derive(Default)]
struct PoolState {
    workers: Vec<Worker>,
    /// Cells booked so far; where the scan for a worker starts, so equally
    /// good workers take turns.
    rotation: usize,
    next_cell: u64,
    next_epoch: u64,
    /// The counters; `workers_alive` is derived when they are read.
    counts: PoolStats,
}

impl PoolState {
    fn new(workers: usize) -> Self {
        PoolState {
            workers: (0..workers).map(|_| Worker::default()).collect(),
            counts: PoolStats {
                workers_spawned: workers as u64,
                ..PoolStats::default()
            },
            ..PoolState::default()
        }
    }

    /// Numbers a new cell.
    fn dispatched(&mut self) -> u64 {
        let cell = self.next_cell;
        self.next_cell = cell.wrapping_add(1);
        self.counts.cells_dispatched += 1;
        cell
    }

    /// Books a cell over the spec `fp` on the worker [`pick_slot`] chooses,
    /// `prefer`ring its lane's worker.
    fn book(&mut self, fp: u64, prefer: Option<usize>) -> Option<usize> {
        let at = pick_slot(&self.workers, fp, prefer, self.rotation)?;
        self.rotation = self.rotation.wrapping_add(1);
        self.workers[at].in_flight += 1;
        Some(at)
    }

    fn live(&self, at: usize) -> bool {
        self.workers.get(at).is_some_and(|worker| !worker.dead)
    }

    /// Books the spec `fp` on the worker at `at`: true when it was not
    /// there yet, so it must be shipped.
    fn book_spec(&mut self, at: usize, fp: u64) -> bool {
        self.workers
            .get_mut(at)
            .is_some_and(|worker| worker.specs.insert(fp))
    }

    /// An `assign` carrying a config was written.
    fn configured(&mut self) {
        self.counts.config_broadcasts += 1;
    }

    /// An `assign` carrying a recipe was written.
    fn shipped(&mut self) {
        self.counts.spec_transfers += 1;
    }

    /// The cell booked on `at` got its `done`.
    fn answered(&mut self, at: usize) {
        if let Some(worker) = self.workers.get_mut(at) {
            worker.in_flight = worker.in_flight.saturating_sub(1);
        }
    }

    /// The cell booked on `at` got a structured `error`. `unbook`: the spec
    /// whose recipe its `assign` carried, which the worker then does not
    /// hold.
    fn refused(&mut self, at: usize, unbook: Option<u64>) {
        self.answered(at);
        if let (Some(worker), Some(fp)) = (self.workers.get_mut(at), unbook) {
            worker.specs.remove(&fp);
        }
    }

    /// The worker at `at` is dead: it holds nothing and is never booked
    /// again. `booked`: a cell booked on it ends here too, to be
    /// redispatched.
    fn lost(&mut self, at: usize, booked: bool) {
        if let Some(worker) = self.workers.get_mut(at) {
            worker.dead = true;
            worker.specs.clear();
        }
        if booked {
            self.answered(at);
            self.counts.redispatches += 1;
        }
    }

    /// A new collective barrier: its epoch and its members, every live
    /// worker.
    fn barrier(&mut self) -> (u64, Vec<usize>) {
        let epoch = self.next_epoch;
        self.next_epoch = epoch.wrapping_add(1);
        self.counts.barriers += 1;
        let members = (0..self.workers.len()).filter(|&at| self.live(at));
        (epoch, members.collect())
    }

    fn stats(&self) -> PoolStats {
        let alive = self.workers.iter().filter(|worker| !worker.dead).count();
        PoolStats {
            workers_alive: alive as u64,
            ..self.counts
        }
    }
}

/// Data-affine choice of the worker for a cell over the spec `fp`: among
/// live workers, an idle one that holds the spec; else the `prefer`red one
/// (its lane's), if idle; else the idle one holding the fewest specs (it
/// pays one transfer, and the specs stay spread); else — every worker busy
/// — one that holds the spec; else any. Equally good workers are taken in
/// turn, scanning from `rotation`.
fn pick_slot(workers: &[Worker], fp: u64, prefer: Option<usize>, rotation: usize) -> Option<usize> {
    let n = workers.len().max(1);
    (0..workers.len())
        .map(|offset| (rotation % n + offset) % n)
        .filter(|&at| !workers[at].dead)
        .min_by_key(|&at| {
            let worker = &workers[at];
            match (worker.in_flight > 0, worker.specs.contains(&fp)) {
                (false, true) => (0, 0),
                (false, false) if prefer == Some(at) => (1, 0),
                (false, false) => (2, worker.specs.len()),
                (true, true) => (3, 0),
                (true, false) => (4, 0),
            }
        })
}

/// An [`ExecutionConfig`] as an `assign` carries it, its epoch the stable
/// fingerprint of its wire form (under epoch 0), which is also the "has this
/// worker seen it" key. Built once per executor, so the config is encoded
/// for hashing once rather than once per cell.
#[derive(Clone, Debug)]
pub struct WireConfig(EpochConfig);

impl WireConfig {
    /// Fingerprints `config`.
    pub fn new(config: ExecutionConfig) -> Self {
        let mut wire = EpochConfig::new(0, config);
        let mut hash = ContentHasher::default();
        hash.write_bytes(to_line(&wire).as_bytes());
        wire.epoch = hash.finish();
        WireConfig(wire)
    }

    /// The config itself.
    pub(crate) fn config(&self) -> &ExecutionConfig {
        &self.0.config
    }
}

/// One worker's handle and connection: the shell's half of the pool.
struct Conn {
    child: Box<dyn WorkerHandle>,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Fingerprint of the config of this worker's last `done` to an
    /// `assign` that carried one.
    config_fp: Option<u64>,
}

/// How one cell's conversation with its worker ended.
enum End {
    Done(ExecutionReport),
    /// A structured `error`.
    Refused(String),
    /// The worker died or corrupted its stream.
    Lost,
}

/// Locks `mutex`, taking over a poisoned one: every transition leaves the
/// state whole, and a `Conn` left mid-conversation fails its next reply.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Waits for `child` to exit until `deadline`, then kills it and waits: the
/// one way a worker ends on this side, so none is left a zombie. An already
/// reaped child returns at once.
fn reap(child: &mut dyn WorkerHandle, deadline: Instant) {
    while !child.has_exited() {
        if Instant::now() >= deadline {
            child.kill();
            child.wait();
            return;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// A pool of workers executing sweep cells over newline-JSON IPC.
pub struct WorkerPool {
    state: Mutex<PoolState>,
    conns: Vec<Mutex<Conn>>,
}

impl WorkerPool {
    /// Launches `config`'s workers as processes re-exec'ing the current
    /// executable and runs the startup barrier.
    pub fn spawn(config: PoolConfig) -> Result<Arc<WorkerPool>, ProcError> {
        let exe = std::env::current_exe()
            .map_err(|e| ProcError::Spawn(format!("cannot locate own executable: {e}")))?;
        WorkerPool::launch(config.workers, |addr, id| {
            Command::new(&exe)
                .arg(WORKER_FLAG)
                .env(CONNECT_ENV, addr.to_string())
                .env(WORKER_ENV, id.to_string())
                .stdin(Stdio::null())
                // None of a worker's stdout is protocol (IPC is TCP).
                .stdout(Stdio::null())
                .spawn()
        })
    }

    /// Launches `workers` workers through `launcher` and runs the startup
    /// barrier. `launcher(addr, slot)` starts a worker that connects to
    /// `addr` and says `hello` as `slot`, and returns its handle.
    pub fn launch<H: WorkerHandle + 'static>(
        workers: usize,
        launcher: impl FnMut(SocketAddr, usize) -> std::io::Result<H>,
    ) -> Result<Arc<WorkerPool>, ProcError> {
        let mut children = Vec::with_capacity(workers);
        let streams = match rendezvous(workers, launcher, &mut children) {
            Ok(streams) => streams,
            Err(message) => {
                let now = Instant::now();
                for child in &mut children {
                    reap(child.as_mut(), now);
                }
                return Err(ProcError::Spawn(message));
            }
        };
        let conns = children.into_iter().zip(streams);
        let pool = Arc::new(WorkerPool {
            state: Mutex::new(PoolState::new(workers)),
            conns: conns
                .map(|(child, (reader, writer))| {
                    Mutex::new(Conn {
                        child,
                        reader,
                        writer,
                        config_fp: None,
                    })
                })
                .collect(),
        });
        // Startup collective: every worker must answer the epoch-0 barrier
        // before any cell is dispatched. A pool that fails it is dropped
        // here, which reaps its workers.
        pool.barrier(SPAWN_TIMEOUT);
        if pool.alive_workers() == 0 {
            return Err(ProcError::Spawn(
                "all workers died during the startup barrier".to_string(),
            ));
        }
        Ok(pool)
    }

    /// Number of worker slots (dead or alive).
    pub(crate) fn num_slots(&self) -> usize {
        self.conns.len()
    }

    /// Number of workers still alive.
    pub(crate) fn alive_workers(&self) -> u64 {
        self.stats().workers_alive
    }

    /// Snapshot of the pool's counters.
    pub fn stats(&self) -> PoolStats {
        self.state().stats()
    }

    fn state(&self) -> MutexGuard<'_, PoolState> {
        lock(&self.state)
    }

    /// Reaps the worker at `at`, whose `Conn` the caller holds, and books it
    /// lost (with the cell booked on it, when `booked`).
    fn lose(&self, at: usize, conn: &mut Conn, booked: bool) {
        reap(conn.child.as_mut(), Instant::now());
        self.state().lost(at, booked);
    }

    /// Runs a full collective barrier (start + update polls) against every
    /// live worker, losing any that fail to answer before `timeout`.
    fn barrier(&self, timeout: Duration) {
        let (epoch, pending) = self.state().barrier();
        let mut collective = CollectiveBarrier {
            pool: self,
            epoch,
            pending,
            started: false,
        };
        collective.start();
        let deadline = Instant::now() + timeout;
        while !collective.update() {
            if Instant::now() > deadline {
                for &at in &collective.pending {
                    self.lose(at, &mut lock(&self.conns[at]), false);
                }
                break;
            }
        }
    }

    /// Executes one sweep cell on some live worker, redispatching on worker
    /// loss. `cell.policy_label` must parse back to the policy that produced
    /// `policy_name` (its `'static` display name, re-attached to the report
    /// on this side of the wire — labels never travel). The report's events
    /// are the cell's trace, empty unless `config` asks for them. A cell of sweep
    /// lane `i` prefers worker `i` (modulo the pool; see the module doc). A
    /// worker that lacks the spec is shipped `recipe`, which must be what
    /// built `spec` (the worker refuses it otherwise).
    pub fn run_cell(
        &self,
        spec: &TaskGraphSpec,
        recipe: SpecKey,
        cell: &CellContext<'_>,
        policy_name: &'static str,
        config: &WireConfig,
    ) -> Result<ExecutionReport, ProcError> {
        let fp = spec.fingerprint();
        let id = self.state().dispatched();
        let assignment = Assignment {
            cell: id,
            fp,
            policy: cell.policy_label.to_string(),
            policy_seed: cell.seed,
            configure: None,
            recipe: None,
        };
        let prefer = cell.lane.map(|lane| lane % self.num_slots());
        loop {
            let at = self
                .state()
                .book(fp, prefer)
                .ok_or(ProcError::AllWorkersDead { cell: id })?;
            let mut conn = lock(&self.conns[at]);
            match self.converse(at, &mut conn, &assignment, recipe, config) {
                End::Done(mut report) => {
                    report.workload = spec.name.clone();
                    report.policy = policy_name;
                    return Ok(report);
                }
                End::Refused(message) => {
                    let worker = at as u64;
                    return Err(ProcError::Worker { worker, message });
                }
                End::Lost => self.lose(at, &mut conn, true),
            }
        }
    }

    /// One cell's conversation with the worker at `at`, on which the cell
    /// is booked and whose `Conn` the caller holds, over the spec `recipe`
    /// builds: one `assign`, carrying what the worker lacks, and its one
    /// reply. A reply ends the cell in the books; a lost worker is the
    /// caller's to book.
    fn converse(
        &self,
        at: usize,
        conn: &mut Conn,
        assignment: &Assignment,
        recipe: SpecKey,
        config: &WireConfig,
    ) -> End {
        // A worker lost while this cell waited for its `Conn` stays lost.
        let timeout = conn.reader.get_ref().set_read_timeout(Some(CELL_TIMEOUT));
        if !self.state().live(at) || timeout.is_err() {
            return End::Lost;
        }

        let configure = conn.config_fp != Some(config.0.epoch);
        let ship = self.state().book_spec(at, assignment.fp);
        let assign = Assignment {
            configure: configure.then(|| Box::new(config.0.clone())),
            recipe: ship.then(|| Recipe::new(recipe)),
            ..assignment.clone()
        };
        if write_frame(&mut conn.writer, &ToWorker::Assign(assign)).is_err() {
            return End::Lost;
        }
        if configure {
            self.state().configured();
        }
        if ship {
            self.state().shipped();
        }

        // One reply per `assign`: `done`, or a structured `error`. A reply
        // about another cell falls through to the last arm like any other
        // corruption of the conversation.
        match read_message(&mut conn.reader) {
            Some(ToCoordinator::Done {
                cell,
                mut report,
                events,
            }) if cell == assignment.cell => {
                if configure {
                    conn.config_fp = Some(config.0.epoch);
                }
                self.state().answered(at);
                report.events = events;
                End::Done(*report)
            }
            // A refused `assign` leaves the worker as it was: without the
            // spec of the recipe it carried.
            Some(ToCoordinator::Error { message }) => {
                self.state().refused(at, ship.then_some(assignment.fp));
                End::Refused(message)
            }
            _ => End::Lost,
        }
    }
}

/// Binds a rendezvous socket, launches `workers` workers into `children`,
/// and collects each one's `hello`: every worker's reader and writer, in
/// worker order. On an error the caller reaps `children`.
fn rendezvous<H: WorkerHandle + 'static>(
    workers: usize,
    mut launcher: impl FnMut(SocketAddr, usize) -> std::io::Result<H>,
    children: &mut Vec<Box<dyn WorkerHandle>>,
) -> Result<Vec<(BufReader<TcpStream>, TcpStream)>, String> {
    let listener = TcpListener::bind("127.0.0.1:0")
        .map_err(|e| format!("cannot bind rendezvous socket: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot read rendezvous address: {e}"))?;
    for id in 0..workers {
        let child = launcher(addr, id).map_err(|e| format!("cannot spawn worker {id}: {e}"))?;
        children.push(Box::new(child));
    }

    // Accept until every worker said hello. Non-blocking accept so a worker
    // that dies before connecting trips the deadline instead of blocking
    // forever.
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot configure rendezvous socket: {e}"))?;
    let deadline = Instant::now() + SPAWN_TIMEOUT;
    let mut streams: Vec<Option<(BufReader<TcpStream>, TcpStream)>> =
        (0..workers).map(|_| None).collect();
    for connected in 0..workers {
        let stream = loop {
            if Instant::now() > deadline {
                return Err(format!(
                    "only {connected}/{workers} workers connected within {SPAWN_TIMEOUT:?}"
                ));
            }
            match listener.accept() {
                Ok((stream, _)) => break stream,
                // A worker connects a few ms after its exec; a coarse poll
                // here is pure added start-up latency.
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_micros(250))
                }
                Err(e) => return Err(format!("rendezvous accept failed: {e}")),
            }
        };
        // A write no worker drains for a whole cell timeout fails like a
        // read that long would: the worker is lost, never waited on.
        stream
            .set_nonblocking(false)
            .and_then(|_| stream.set_nodelay(true))
            .and_then(|_| stream.set_read_timeout(Some(SPAWN_TIMEOUT)))
            .and_then(|_| stream.set_write_timeout(Some(CELL_TIMEOUT)))
            .map_err(|e| format!("cannot configure worker socket: {e}"))?;
        let reader_stream = stream
            .try_clone()
            .map_err(|e| format!("cannot clone worker socket: {e}"))?;
        let mut reader = BufReader::new(reader_stream);
        let hello = read_frame(&mut reader)
            .map_err(|e| format!("bad hello frame: {e}"))?
            .ok_or_else(|| "worker closed before hello".to_string())?;
        let worker = match from_line(&hello) {
            Ok(ToCoordinator::Hello { worker }) => worker,
            _ => return Err(format!("expected hello, got {hello:?}")),
        };
        match usize::try_from(worker)
            .ok()
            .and_then(|at| streams.get_mut(at))
        {
            Some(slot) if slot.is_none() => *slot = Some((reader, stream)),
            _ => return Err(format!("unexpected hello from worker {worker}")),
        }
    }
    Ok(streams.into_iter().flatten().collect())
}

/// Reads and decodes one frame; any failure (EOF, timeout, framing, JSON, a
/// message that is not a [`ToCoordinator`]) collapses to `None` — the caller
/// loses the worker for all of them.
fn read_message(reader: &mut BufReader<TcpStream>) -> Option<ToCoordinator> {
    from_line(&read_frame(reader).ok()??).ok()
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Drain barrier: prove every channel is quiet, then dismiss the
        // workers and reap them.
        self.barrier(DRAIN_TIMEOUT);
        let live: Vec<bool> = (0..self.conns.len())
            .map(|at| self.state().live(at))
            .collect();
        for (conn, _) in self.conns.iter().zip(&live).filter(|(_, &live)| live) {
            let _ = write_frame(&mut lock(conn).writer, &ToWorker::Shutdown);
        }
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        for (conn, live) in self.conns.iter().zip(live) {
            let conn = &mut *lock(conn);
            // A dismissed worker closes its socket by exiting, so EOF (or any
            // read failure, including the deadline) is the wake-up — not a
            // poll interval.
            let left = deadline.saturating_duration_since(Instant::now());
            let timeout = Some(left.max(Duration::from_millis(1)));
            if live && conn.reader.get_ref().set_read_timeout(timeout).is_ok() {
                while Instant::now() < deadline
                    && matches!(read_frame(&mut conn.reader), Ok(Some(_)))
                {}
            }
            // The socket closes a moment before the process becomes
            // reapable; workers that ignore the dismissal are killed.
            reap(conn.child.as_mut(), deadline);
        }
    }
}

/// oneCCL-style non-blocking barrier: `start()` posts the barrier message to
/// every member, `update()` polls each pending one with a short read
/// deadline and reports completion. Members that fail mid-barrier are lost
/// and dropped from the pending set (a dead worker cannot hold a barrier).
struct CollectiveBarrier<'a> {
    pool: &'a WorkerPool,
    epoch: u64,
    /// Members (worker indices) that have not answered yet.
    pending: Vec<usize>,
    started: bool,
}

impl CollectiveBarrier<'_> {
    fn start(&mut self) {
        let (pool, epoch) = (self.pool, self.epoch);
        self.pending.retain(|&at| {
            let mut conn = lock(&pool.conns[at]);
            if write_frame(&mut conn.writer, &ToWorker::Barrier { epoch }).is_err() {
                pool.lose(at, &mut conn, false);
                return false;
            }
            true
        });
        self.started = true;
    }

    /// One poll round; returns true when every pending member has answered.
    fn update(&mut self) -> bool {
        assert!(self.started, "update() before start()");
        let (pool, epoch) = (self.pool, self.epoch);
        self.pending.retain(|&at| {
            let mut conn = lock(&pool.conns[at]);
            let poll = Some(Duration::from_millis(25));
            let answer = conn.reader.get_ref().set_read_timeout(poll).ok();
            let acked = match answer.map(|()| read_frame(&mut conn.reader)) {
                Some(Ok(Some(line))) => matches!(
                    from_line(&line),
                    Ok(ToCoordinator::BarrierAck { epoch: e }) if e == epoch
                ),
                Some(Err(FrameError::Io(e)))
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return true; // still pending
                }
                _ => false,
            };
            // Anything but the ack on a quiesced channel is corruption.
            if !acked {
                pool.lose(at, &mut conn, false);
            }
            false // answered or dead: out of the pending set
        });
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fingerprint of the spec the cell being placed is over.
    const FP: u64 = 0;

    /// `"AIH3"`: **A**live or **D**ead, **I**dle or **B**usy, **H**olds the
    /// spec [`FP`] or `-`, and how many specs it holds; a trailing `*` marks
    /// the worker of the cell's lane.
    fn row(text: &str) -> Worker {
        let bytes = text.as_bytes();
        let holds = bytes[2] == b'H';
        let held = u64::from(bytes[3] - b'0').max(u64::from(holds));
        Worker {
            dead: bytes[0] == b'D',
            in_flight: usize::from(bytes[1] == b'B'),
            specs: (0..held)
                .map(|s| if holds && s == 0 { FP } else { FP + 1 + s })
                .collect(),
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
            ("AI-1 AI-1*", 0, Some(1), "the lane's idle worker"),
            ("AI-0 AI-4*", 0, Some(1), "... beats fewer specs"),
            ("AIH1 AI-0*", 1, Some(0), "an idle holder beats it"),
            ("AI-1 AB-0*", 1, Some(0), "a busy lane worker: an idle one"),
            ("AB-0 AB-0*", 0, Some(0), "all busy: the rotation"),
            ("AI-2 DI-0*", 1, Some(0), "a dead lane worker: the survivor"),
        ] {
            let rows: Vec<&str> = rows.split_whitespace().collect();
            let prefer = rows.iter().position(|row| row.ends_with('*'));
            let rows: Vec<Worker> = rows.into_iter().map(row).collect();
            assert_eq!(pick_slot(&rows, FP, prefer, rotation), want, "{why}");
        }
    }

    /// Books a cell over `fp` for `lane` the way [`WorkerPool::run_cell`]
    /// does, every write succeeding; returns its worker, on which the cell
    /// stays booked.
    fn place(state: &mut PoolState, fp: u64, lane: Option<usize>) -> usize {
        state.dispatched();
        let at = state.book(fp, lane).expect("a live worker");
        if state.book_spec(at, fp) {
            state.shipped();
        }
        at
    }

    /// The serial Full sweep in miniature, one cell at a time and outside
    /// any lane: eight specs, five cells each, two idle workers — every spec
    /// shipped once, four to each worker.
    #[test]
    fn a_serial_sweep_ships_each_spec_once_and_splits_them_evenly() {
        let mut state = PoolState::new(2);
        for cell in 0..40u64 {
            let at = place(&mut state, cell / 5, None);
            state.answered(at);
        }
        assert_eq!(state.stats().spec_transfers, 8);
        let held: Vec<usize> = state.workers.iter().map(|w| w.specs.len()).collect();
        assert_eq!(held, [4, 4]);
    }

    /// The same sweep on two lanes, lane `i` preferring worker `i`: however
    /// the lanes' cells interleave and whichever lane pulls which workload,
    /// a lane's workload stays on its worker, so each spec is shipped once,
    /// to the worker that runs every cell over it.
    #[test]
    fn two_lanes_ship_each_spec_once_however_their_cells_interleave() {
        for schedule in 0u64..256 {
            let mut state = PoolState::new(2);
            // Per lane: its workload, cells left of it, the cell in flight.
            let mut lanes = [(0u64, 0u64, None::<usize>); 2];
            let (mut next_workload, mut turns) = (0u64, schedule);
            while next_workload < 8 || lanes.iter().any(|lane| lane.1 > 0 || lane.2.is_some()) {
                // Which lane moves next: a bit of an LCG seeded by `schedule`.
                turns = turns
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let lane = (turns >> 33) as usize & 1;
                let (workload, left, in_flight) = &mut lanes[lane];
                if let Some(at) = in_flight.take() {
                    assert_eq!(at, lane, "schedule {schedule}: lane {lane}'s cell moved");
                    state.answered(at);
                    continue;
                }
                if *left == 0 {
                    if next_workload == 8 {
                        continue;
                    }
                    (*workload, *left) = (next_workload, 5);
                    next_workload += 1;
                }
                *left -= 1;
                *in_flight = Some(place(&mut state, *workload, Some(lane)));
            }
            assert_eq!(state.stats().spec_transfers, 8, "schedule {schedule}");
        }
    }

    /// Two cells in flight (the `--jobs 2` sweep), finishing in either
    /// order: each spec reaches a worker at most once, so 8..=16 transfers.
    #[test]
    fn two_cells_in_flight_ship_each_spec_at_most_once_per_worker() {
        for newer_finishes_first in [false, true] {
            let mut state = PoolState::new(2);
            let mut in_flight: Vec<usize> = Vec::new();
            for cell in 0..40u64 {
                in_flight.push(place(&mut state, cell / 5, None));
                if in_flight.len() == 2 {
                    let done = in_flight.remove(usize::from(newer_finishes_first));
                    state.answered(done);
                }
            }
            let transfers = state.stats().spec_transfers;
            let held: usize = state.workers.iter().map(|w| w.specs.len()).sum();
            assert!((8..=16).contains(&transfers), "{transfers}");
            assert_eq!(held as u64, transfers, "a spec shipped twice");
        }
    }

    /// A [`PoolState`] driven by random transitions, each checked against
    /// what the shell's calls promise.
    struct Checked {
        state: PoolState,
        /// Worker of every cell booked and not yet ended.
        booked: Vec<usize>,
        dead: HashSet<usize>,
        /// `(worker, spec)` booked on a live worker and not unbooked since.
        held: HashSet<(usize, u64)>,
        redispatches: u64,
        epochs: u64,
    }

    impl Checked {
        /// Books a cell over `fp`, for the lane of worker `prefer` if any.
        fn book(&mut self, fp: u64, prefer: Option<usize>) {
            // The lane's worker is taken when it is live and idle, unless an
            // idle live worker holds the spec.
            let idle = |at: usize| !self.dead.contains(&at) && !self.booked.contains(&at);
            let idle_holder = self.held.iter().any(|&(at, held)| held == fp && idle(at));
            let lane_worker = prefer.filter(|&at| at < self.state.workers.len() && idle(at));
            match self.state.book(fp, prefer) {
                Some(at) => {
                    assert!(!self.dead.contains(&at), "booked dead worker {at}");
                    if let (Some(lane), false) = (lane_worker, idle_holder) {
                        assert_eq!(at, lane, "passed over the lane's idle worker");
                    }
                    self.booked.push(at);
                }
                None => assert_eq!(self.dead.len(), self.state.workers.len()),
            }
        }

        fn book_spec(&mut self, pick: usize, fp: u64) {
            // The shell books a spec only for a cell whose worker is live.
            let Some(&at) = self.booked.get(pick % self.booked.len().max(1)) else {
                return;
            };
            if self.state.live(at) {
                let fresh = self.state.book_spec(at, fp);
                assert_eq!(fresh, self.held.insert((at, fp)), "spec {fp} on {at}");
            }
        }

        /// Ends the cell booked at `pick`: `how` 0..=4 answered, 5 refused,
        /// 6 refused over its spec `fp`, else lost.
        fn end(&mut self, pick: usize, how: usize, fp: u64) {
            if self.booked.is_empty() {
                return;
            }
            let at = self.booked.swap_remove(pick % self.booked.len());
            match how {
                0..=4 => self.state.answered(at),
                5 => self.state.refused(at, None),
                6 => {
                    self.state.refused(at, Some(fp));
                    self.held.remove(&(at, fp));
                }
                _ => self.lose(at, true),
            }
        }

        fn lose(&mut self, at: usize, booked: bool) {
            self.state.lost(at, booked);
            self.dead.insert(at);
            self.held.retain(|&(worker, _)| worker != at);
            self.redispatches += u64::from(booked);
        }

        fn barrier(&mut self) {
            let (epoch, members) = self.state.barrier();
            assert_eq!(epoch, self.epochs);
            self.epochs += 1;
            let live = (0..self.state.workers.len()).filter(|at| !self.dead.contains(at));
            assert_eq!(members, live.collect::<Vec<_>>());
        }

        fn check(&self) {
            for (at, worker) in self.state.workers.iter().enumerate() {
                let booked = self.booked.iter().filter(|&&b| b == at).count();
                assert_eq!(worker.in_flight, booked, "worker {at}'s books");
                assert_eq!(worker.dead, self.dead.contains(&at), "worker {at}");
                for fp in &worker.specs {
                    assert!(self.held.contains(&(at, *fp)), "worker {at} spec {fp}");
                }
            }
            let stats = self.state.stats();
            let alive = self.state.workers.len() - self.dead.len();
            assert_eq!(stats.workers_alive, alive as u64);
            assert_eq!(stats.redispatches, self.redispatches);
            assert_eq!(stats.barriers, self.epochs);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Random book / spec / answered / refused / lost / barrier
        /// sequences: every booked cell is released exactly once, whether
        /// answered or lost; a dead worker is never booked; a lane's idle
        /// worker is booked unless an idle one holds the spec; a spec is
        /// booked at most once per live worker; `in_flight` never
        /// underflows.
        #[test]
        fn the_pool_state_keeps_its_invariants_under_any_transition_sequence(
            workers in 1usize..4,
            steps in proptest::prop::collection::vec((0u8..9, 0usize..64), 1..120),
        ) {
            let mut checked = Checked {
                state: PoolState::new(workers),
                booked: Vec::new(),
                dead: HashSet::new(),
                held: HashSet::new(),
                redispatches: 0,
                epochs: 0,
            };
            for (step, pick) in steps {
                let fp = (pick % 3) as u64;
                match step {
                    0 => checked.book(fp, None),
                    1 | 3 => checked.book(fp, Some(pick % 4)),
                    2 => checked.book_spec(pick / 3, fp),
                    4 | 5 => checked.end(pick / 3, pick % 8, fp),
                    6 if pick % 8 == 0 => checked.lose(pick % workers, false),
                    7 => checked.barrier(),
                    _ => checked.end(pick / 3, 0, fp),
                }
                checked.check();
            }
            while !checked.booked.is_empty() {
                checked.end(0, 0, 0);
            }
            checked.check();
        }
    }
}
