//! The sweep daemon: a TCP listener, a cell-granular admission stage, and
//! a pool of worker threads draining cell batches fairly (round-robin
//! across active jobs) over the process-wide [`SpecCache`].
//!
//! Life of a request:
//!
//! 1. A connection handler parses one JSON line into a [`Request`].
//!    Malformed lines are answered with a structured `Error` and the
//!    connection survives (the service analogue of the bins' exit-2 usage
//!    convention).
//! 2. `SubmitSweep` resolves the spec through the CLI grammar and computes
//!    the canonical sweep fingerprint. Identical in-flight jobs coalesce
//!    and exact repeats are answered byte-identically from the sweep-level
//!    report cache without planning anything — the fast path. Otherwise
//!    the sweep is planned and each job of the plan is keyed as a
//!    content-addressed cell ([`crate::protocol::cell_fingerprint`]):
//!    cells some earlier sweep already executed hydrate instantly from the
//!    [`CellCache`] — so
//!    overlapping sweeps of *different* shapes (added policy columns, app
//!    subsets, extra repetitions) share work — and only the novel cells
//!    are batched onto the pool queue. Submissions that would blow the
//!    admission quotas bounce with a structured `Overloaded` instead of
//!    queueing unboundedly. The handler then blocks on the job's
//!    subscriber channel, forwarding `Progress` lines (when streaming)
//!    until the terminal `Report`.
//! 3. Pool workers take one batch at a time from the job at the front of
//!    the round-robin rotation, so a tiny sweep keeps making progress
//!    while a Full sweep is in flight instead of starving behind it.
//!    Executed outcomes always feed the cell cache; when a job's last
//!    cell resolves, the resolving worker assembles the report through
//!    the deterministic keyed post-pass — byte-identical to direct
//!    execution no matter how many cells were hydrated, executed out of
//!    order, or shared with other sweeps — serializes the measurement
//!    bytes and escapes them into a JSON string literal, stores both in the
//!    LRU report cache and hands every subscriber one `Report` line
//!    rendered around that literal. A cache hit's `Report` line is rendered
//!    around the same literal, so a report is escaped once in the daemon's
//!    life however often it is served.
//!
//! What a request costs does not depend on how many the daemon has served.
//! Everything above happens under one state mutex, so its bookkeeping is
//! bounded: identical in-flight jobs are found through an index keyed by
//! sweep fingerprint, not by scanning jobs; the job table holds only queued
//! and running jobs (at most `max_active_jobs`); a job reaching a terminal
//! state — a report-cache hit is born in one — shrinks to a
//! `(id, state, completed, total)` record in a ring of [`JOB_HISTORY`],
//! releasing its plan, outcomes and subscribers; and both caches are O(1)
//! [`Lru`](crate::cache::Lru)s that alone keep finished reports alive.
//! `Status`/`CancelJob` answer from the table, then the ring; an id that has
//! left the ring answers `job N retired`, one never handed out `unknown job
//! N`.

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use numadag_kernels::SpecCache;
use numadag_numa::Topology;
use numadag_runtime::framing::{from_line, read_frame, to_line, Hex64};
use numadag_runtime::{CellOutcome, Executor, SweepPlan};
use serde::{Deserialize, Serialize};

use crate::cache::{CachedReport, CellCache, ReportCache};
use crate::protocol::{
    cell_keys, push_report_line, sweep_fingerprint, Request, Response, ServerStats, SweepSpec,
};

/// Configuration of a daemon instance.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address; port 0 binds an ephemeral port (read the actual one
    /// from [`ServeHandle::addr`]).
    pub addr: String,
    /// Sweep-level report-cache capacity (LRU evicts beyond this).
    pub cache_capacity: usize,
    /// Cell-cache capacity in cell outcomes (LRU evicts beyond this).
    pub cell_capacity: usize,
    /// Pool worker threads executing cell batches (minimum 1). Each worker
    /// owns one executor, rebuilt only when it switches plans.
    pub pool: usize,
    /// Cells a worker takes from a job per rotation turn (minimum 1):
    /// smaller batches are fairer, larger ones amortize locking.
    pub batch_cells: usize,
    /// Admission quota: a submission whose novel cells would push the pool
    /// queue beyond this bounces with `Overloaded`.
    pub max_queued_cells: usize,
    /// Admission quota: maximum queued/running jobs before submissions
    /// bounce with `Overloaded`.
    pub max_active_jobs: usize,
    /// Machine topology every sweep runs on (the paper's bullion S16 by
    /// default, matching the `figure1` harness).
    pub topology: Topology,
    /// When set, the report cache is loaded from this file at boot and
    /// snapshotted back on shutdown, so a restarted daemon answers previous
    /// sweeps from cache (`cache_hit=true`, zero executed cells). Missing or
    /// unreadable files are logged and ignored — persistence is an
    /// optimization, never a boot failure.
    pub cache_file: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            cache_capacity: 64,
            cell_capacity: 4096,
            pool: 1,
            batch_cells: 4,
            max_queued_cells: 4096,
            max_active_jobs: 64,
            topology: Topology::bullion_s16(),
            cache_file: None,
        }
    }
}

/// Job lifecycle states, as reported by `Status`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done,
    Cancelled,
    Failed,
}

impl JobState {
    fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }
}

/// What a job sends the connection handler of each of its subscribers.
enum Notice {
    /// `Progress`, or a terminal `Cancelled` / `Error`, still to encode.
    Message(Response),
    /// The terminal `Report`: one wire line, newline included, rendered
    /// once for every subscriber of the job.
    Report(Arc<str>),
}

/// One subscriber of a job: the sending half of the handler's channel, plus
/// whether it asked for per-cell progress.
struct Subscriber {
    tx: Sender<Notice>,
    wants_progress: bool,
}

/// A job that is still queued or running. Terminal jobs leave the table and
/// keep only a [`JobRecord`].
struct Job {
    key: u64,
    /// `Queued` or `Running`, nothing else.
    state: JobState,
    /// Cells resolved so far (hydrated at admission + executed).
    completed: usize,
    total: usize,
    plan: Arc<SweepPlan>,
    /// Per-cell content fingerprints, in plan job order.
    cell_keys: Vec<u64>,
    /// Per-cell outcomes; filled at admission (cell-cache hydration) and by
    /// pool workers, drained by the finalizing post-pass.
    outcomes: Vec<Option<CellOutcome>>,
    /// Batches of novel cell indices still waiting for a pool worker.
    pending: VecDeque<Vec<usize>>,
    /// Novel cells not yet resolved; the job finalizes when this hits 0.
    remaining: usize,
    /// Cells this job actually executed.
    executed: usize,
    /// Cells hydrated from the cell cache instead of executed.
    hydrated: usize,
    subscribers: Vec<Subscriber>,
}

/// Terminal jobs `Status`/`CancelJob` can still name. Older ids answer
/// `job N retired`.
pub const JOB_HISTORY: usize = 1024;

/// All that outlives a job once it is done, cancelled or failed.
struct JobRecord {
    id: u64,
    state: JobState,
    completed: usize,
    total: usize,
}

#[derive(Default)]
struct Counters {
    submitted: u64,
    coalesced: u64,
    completed: u64,
    cancelled: u64,
    failed: u64,
    rejected: u64,
    malformed: u64,
    executed_cells: u64,
    hydrated_cells: u64,
}

struct State {
    next_job: u64,
    /// Round-robin rotation of jobs with pending batches: workers pop the
    /// front, take one batch, and push the job back while it has more.
    active: VecDeque<u64>,
    /// Cells currently sitting in pending batches (the `max_queued_cells`
    /// quota gauge).
    queued_cells: usize,
    /// The live table: queued and running jobs only, so its length is the
    /// `max_active_jobs` gauge.
    jobs: HashMap<u64, Job>,
    /// Sweep fingerprint → id of the live job executing that sweep; what
    /// identical submissions coalesce onto. One entry per live job.
    in_flight: HashMap<u64, u64>,
    /// The last [`JOB_HISTORY`] terminal jobs, oldest first.
    history: VecDeque<JobRecord>,
    /// Records pushed out of `history`.
    retired: u64,
    cache: ReportCache,
    cells: CellCache,
    counters: Counters,
}

impl State {
    /// Files the record of a job that just reached a terminal state,
    /// retiring the oldest one when the ring is full.
    fn record(&mut self, id: u64, state: JobState, completed: usize, total: usize) {
        if self.history.len() == JOB_HISTORY {
            self.history.pop_front();
            self.retired += 1;
        }
        self.history.push_back(JobRecord {
            id,
            state,
            completed,
            total,
        });
    }

    /// Takes a job out of the live table and the coalescing index; the
    /// caller files its [`State::record`].
    fn remove_live(&mut self, id: u64) -> Option<Job> {
        let job = self.jobs.remove(&id)?;
        self.in_flight.remove(&job.key);
        Some(job)
    }

    /// The record of an id that is not live, or why there is none — the
    /// error message `Status` and `CancelJob` answer with.
    fn terminal(&self, id: u64) -> Result<&JobRecord, String> {
        // The ring holds at most JOB_HISTORY compact records, newest last.
        if let Some(record) = self.history.iter().rev().find(|r| r.id == id) {
            Ok(record)
        } else if (1..self.next_job).contains(&id) {
            Err(format!("job {id} retired"))
        } else {
            Err(format!("unknown job {id}"))
        }
    }
}

struct Shared {
    config: ServeConfig,
    addr: SocketAddr,
    specs: Arc<SpecCache>,
    state: Mutex<State>,
    work: Condvar,
    shutdown: AtomicBool,
}

/// A running daemon: join it to block until shutdown.
pub struct ServeHandle {
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl ServeHandle {
    /// The actual bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The process-wide spec cache the daemon serves from.
    pub fn specs(&self) -> Arc<SpecCache> {
        Arc::clone(&self.shared.specs)
    }

    /// The resident report-cache entries, least-recently-used first: what
    /// [`ServeHandle::join`] persists. The cache holds the only long-lived
    /// reference to each report, so an evicted one is freed.
    pub fn cached_reports(&self) -> Vec<(u64, Arc<CachedReport>)> {
        self.shared.state.lock().unwrap().cache.snapshot()
    }

    /// Requests shutdown without a client connection (used by tests and the
    /// load generator; remote clients send [`Request::Shutdown`]).
    pub fn shutdown(&self) {
        begin_shutdown(&self.shared);
    }

    /// Blocks until the daemon has shut down, then (when configured with a
    /// cache file) snapshots the report cache so the next boot can answer
    /// previous sweeps without executing anything.
    pub fn join(self) {
        self.accept.join().expect("accept thread panicked");
        for worker in self.workers {
            worker.join().expect("pool worker panicked");
        }
        if let Some(path) = &self.shared.config.cache_file {
            let snapshot = self.shared.state.lock().unwrap().cache.snapshot();
            match save_cache_file(path, &snapshot) {
                Ok(()) => eprintln!(
                    "numadag-serve: saved {} cached report(s) to {path}",
                    snapshot.len()
                ),
                Err(e) => eprintln!("numadag-serve: could not save cache file {path}: {e}"),
            }
        }
    }
}

/// The persisted report cache (`--cache-file`): one JSON object,
/// `{"version": 1, "entries": [{key, executed_cells, total_cells, report}]}`,
/// with entries least-recently-used first (so reloading in file order
/// reproduces the LRU ranking) and keys in the hex wire form fingerprints
/// use everywhere else (u64 does not survive the f64-backed JSON numbers).
#[derive(Serialize, Deserialize)]
struct CacheFile {
    version: u64,
    entries: Vec<CacheEntry>,
}

#[derive(Serialize, Deserialize)]
struct CacheEntry {
    key: Hex64,
    executed_cells: usize,
    total_cells: usize,
    report: String,
}

fn save_cache_file(path: &str, snapshot: &[(u64, Arc<CachedReport>)]) -> std::io::Result<()> {
    let file = CacheFile {
        version: 1,
        entries: snapshot
            .iter()
            .map(|(key, report)| CacheEntry {
                key: Hex64(*key),
                executed_cells: report.executed_cells,
                total_cells: report.total_cells,
                report: report.bytes.clone(),
            })
            .collect(),
    };
    // Write-then-rename so a crash mid-write never truncates a good file.
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, to_line(&file))?;
    std::fs::rename(&tmp, path)
}

/// Loads a [`save_cache_file`] snapshot into `cache`, returning how many
/// entries were restored. The whole file is decoded before anything is
/// inserted, so a malformed file — even one whose first entries are fine —
/// is an error the boot path logs and ignores, and the cache stays empty.
fn load_cache_file(path: &str, cache: &mut ReportCache) -> Result<usize, String> {
    if !std::path::Path::new(path).exists() {
        return Ok(0);
    }
    let body = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let file: CacheFile = from_line(&body)?;
    if file.version != 1 {
        return Err(format!("unsupported cache file version {}", file.version));
    }
    let loaded = file.entries.len();
    for entry in file.entries {
        let report = CachedReport::new(entry.report, entry.executed_cells, entry.total_cells);
        cache.insert(entry.key.0, Arc::new(report));
    }
    Ok(loaded)
}

/// Binds the listener and spawns the accept + pool worker threads. Returns
/// once the address is bound, so callers can immediately connect.
pub fn serve(config: ServeConfig) -> std::io::Result<ServeHandle> {
    serve_with_specs(config, Arc::new(SpecCache::new()))
}

/// Like [`serve`], but over a caller-provided spec cache (so embedding
/// processes — tests, the load generator — can share or inspect it).
pub fn serve_with_specs(
    mut config: ServeConfig,
    specs: Arc<SpecCache>,
) -> std::io::Result<ServeHandle> {
    config.pool = config.pool.max(1);
    config.batch_cells = config.batch_cells.max(1);
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let cache_capacity = config.cache_capacity;
    let cell_capacity = config.cell_capacity;
    let pool = config.pool;
    let mut cache = ReportCache::new(cache_capacity);
    if let Some(path) = &config.cache_file {
        match load_cache_file(path, &mut cache) {
            Ok(loaded) if loaded > 0 => {
                eprintln!("numadag-serve: loaded {loaded} cached report(s) from {path}");
            }
            Ok(_) => {}
            Err(e) => eprintln!("numadag-serve: ignoring cache file {path}: {e}"),
        }
    }
    let shared = Arc::new(Shared {
        config,
        addr,
        specs,
        state: Mutex::new(State {
            next_job: 1,
            active: VecDeque::new(),
            queued_cells: 0,
            jobs: HashMap::new(),
            in_flight: HashMap::new(),
            history: VecDeque::with_capacity(JOB_HISTORY),
            retired: 0,
            cache,
            cells: CellCache::new(cell_capacity),
            counters: Counters::default(),
        }),
        work: Condvar::new(),
        shutdown: AtomicBool::new(false),
    });

    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(listener, shared))
    };
    let workers = (0..pool)
        .map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(shared))
        })
        .collect();
    Ok(ServeHandle {
        shared,
        accept,
        workers,
    })
}

/// Flags shutdown and wakes both the pool (condvar) and the accept loop
/// (self-connection, since `accept` has no timeout in std).
fn begin_shutdown(shared: &Arc<Shared>) {
    shared.shutdown.store(true, Ordering::SeqCst);
    shared.work.notify_all();
    let _ = TcpStream::connect(shared.addr);
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(&shared);
        // Handlers are detached: they exit when their client disconnects or
        // after answering the terminal response of a dead daemon.
        std::thread::spawn(move || handle_connection(stream, shared));
    }
}

fn write_line(stream: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let mut line = crate::protocol::to_line(response);
    line.push('\n');
    stream.write_all(line.as_bytes())
}

fn handle_connection(stream: TcpStream, shared: Arc<Shared>) {
    // See `ServeClient::connect`: without this, Nagle + delayed ACK cost
    // ~40 ms per request/response turnaround.
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_frame(&mut reader) {
            Ok(Some(line)) => line,
            // Clean EOF: the client is done.
            Ok(None) => break,
            Err(e) => {
                // Oversized, truncated or non-UTF-8 frames poison the
                // stream: answer with a structured error (best effort — the
                // peer may already be gone) and close the connection.
                shared.state.lock().unwrap().counters.malformed += 1;
                let _ = write_line(
                    &mut writer,
                    &Response::Error {
                        message: format!("bad frame: {e}"),
                    },
                );
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match Request::from_line(&line) {
            Ok(request) => request,
            Err(message) => {
                // Malformed request: structured error, connection survives.
                shared.state.lock().unwrap().counters.malformed += 1;
                if write_line(&mut writer, &Response::Error { message }).is_err() {
                    break;
                }
                continue;
            }
        };
        let keep_going = match request {
            Request::SubmitSweep { spec, stream } => {
                handle_submit(&shared, &mut writer, &spec, stream)
            }
            Request::Status { job } => {
                write_line(&mut writer, &status_response(&shared, job)).is_ok()
            }
            Request::CancelJob { job } => {
                write_line(&mut writer, &cancel_job(&shared, job)).is_ok()
            }
            Request::Stats => write_line(&mut writer, &Response::Stats(stats(&shared))).is_ok(),
            Request::Shutdown => {
                let _ = write_line(&mut writer, &Response::ShuttingDown);
                begin_shutdown(&shared);
                false
            }
        };
        if !keep_going {
            break;
        }
    }
}

enum Admission {
    Enqueued,
    Coalesced,
    CacheHit(Arc<CachedReport>),
    /// Every cell hydrated from the cell cache: the submitting thread runs
    /// the finalizing post-pass itself, no pool involvement.
    Hydrated,
    Rejected {
        queued_cells: u64,
        limit: u64,
    },
}

/// Admits a submission and forwards its responses; returns false when the
/// connection died.
fn handle_submit(
    shared: &Arc<Shared>,
    writer: &mut TcpStream,
    spec: &SweepSpec,
    wants_progress: bool,
) -> bool {
    if shared.shutdown.load(Ordering::SeqCst) {
        return write_line(
            writer,
            &Response::Error {
                message: "server is shutting down".to_string(),
            },
        )
        .is_ok();
    }
    let resolved = match spec.resolve() {
        Ok(resolved) => resolved,
        Err(message) => {
            return write_line(writer, &Response::Error { message }).is_ok();
        }
    };
    let num_sockets = shared.config.topology.num_sockets();
    // Fingerprinting may build workload specs (warming the shared spec
    // cache for the run itself) — do it outside the state lock.
    let key = sweep_fingerprint(&resolved, &shared.specs, num_sockets);
    let (tx, rx) = channel::<Notice>();

    // Fast path: coalesce onto an identical in-flight job or serve a
    // repeat from the sweep-level report cache, without planning anything.
    let fast = {
        let mut state = shared.state.lock().unwrap();
        fast_admit(&mut state, key, &tx, wants_progress)
    };
    if let Some((job_id, admission)) = fast {
        return respond(shared, writer, job_id, admission, rx);
    }

    // Novel sweep shape: materialize the plan and the per-cell content
    // fingerprints (both potentially expensive — also outside the lock).
    let plan = Arc::new(
        resolved
            .experiment(shared.config.topology.clone(), Arc::clone(&shared.specs))
            .plan(),
    );
    let cell_keys = cell_keys(&plan, &resolved, &shared.specs, num_sockets);

    let (job_id, admission) = {
        let mut state = shared.state.lock().unwrap();
        // Close the race with an identical submission admitted while we
        // were planning.
        if let Some(fast) = fast_admit(&mut state, key, &tx, wants_progress) {
            fast
        } else if state.jobs.len() >= shared.config.max_active_jobs {
            state.counters.rejected += 1;
            (
                0,
                Admission::Rejected {
                    queued_cells: state.queued_cells as u64,
                    limit: shared.config.max_queued_cells as u64,
                },
            )
        } else {
            // Hydrate every cell some earlier sweep already produced; only
            // the novel ones go to the pool.
            let mut outcomes: Vec<Option<CellOutcome>> = Vec::with_capacity(cell_keys.len());
            let mut novel: Vec<usize> = Vec::new();
            for (index, &cell_key) in cell_keys.iter().enumerate() {
                match state.cells.lookup(cell_key) {
                    Some(outcome) => outcomes.push(Some(outcome)),
                    None => {
                        outcomes.push(None);
                        novel.push(index);
                    }
                }
            }
            if state.queued_cells + novel.len() > shared.config.max_queued_cells {
                state.counters.rejected += 1;
                (
                    0,
                    Admission::Rejected {
                        queued_cells: state.queued_cells as u64,
                        limit: shared.config.max_queued_cells as u64,
                    },
                )
            } else {
                let hydrated = cell_keys.len() - novel.len();
                let fully_hydrated = novel.is_empty();
                let pending: VecDeque<Vec<usize>> = novel
                    .chunks(shared.config.batch_cells)
                    .map(<[usize]>::to_vec)
                    .collect();
                let id = state.next_job;
                state.next_job += 1;
                // The one report-cache miss of this submission: counted when
                // the job actually executes, so racing identical submissions
                // (which coalesce or hit) keep misses == executed sweeps.
                state.cache.note_miss();
                state.counters.submitted += 1;
                state.counters.hydrated_cells += hydrated as u64;
                state.queued_cells += novel.len();
                state.in_flight.insert(key, id);
                let total = cell_keys.len();
                state.jobs.insert(
                    id,
                    Job {
                        key,
                        state: if fully_hydrated {
                            JobState::Running
                        } else {
                            JobState::Queued
                        },
                        completed: hydrated,
                        total,
                        plan: Arc::clone(&plan),
                        cell_keys,
                        outcomes,
                        pending,
                        remaining: novel.len(),
                        executed: 0,
                        hydrated,
                        subscribers: vec![Subscriber { tx, wants_progress }],
                    },
                );
                if fully_hydrated {
                    (id, Admission::Hydrated)
                } else {
                    state.active.push_back(id);
                    shared.work.notify_all();
                    (id, Admission::Enqueued)
                }
            }
        }
    };
    respond(shared, writer, job_id, admission, rx)
}

/// The lock-held fast admission paths: coalescing and the sweep-level
/// report cache. Runs twice per novel submission (before and after the
/// expensive planning step), so it revalidates rather than looks up — the
/// single miss is counted where the executing job is created.
fn fast_admit(
    state: &mut State,
    key: u64,
    tx: &Sender<Notice>,
    wants_progress: bool,
) -> Option<(u64, Admission)> {
    // 1) Coalesce onto an identical queued/running job: it executes once,
    //    every subscriber gets the same bytes.
    if let Some(&id) = state.in_flight.get(&key) {
        state.counters.coalesced += 1;
        let job = state.jobs.get_mut(&id).expect("indexed job must be live");
        job.subscribers.push(Subscriber {
            tx: tx.clone(),
            wants_progress,
        });
        return Some((id, Admission::Coalesced));
    }
    // 2) Serve a repeat from the report cache without executing: the job
    //    is born done, so all it leaves is its record.
    let report = state.cache.revalidate(key)?;
    let id = state.next_job;
    state.next_job += 1;
    state.record(id, JobState::Done, report.total_cells, report.total_cells);
    Some((id, Admission::CacheHit(report)))
}

/// Writes the admission outcome and forwards the job's responses; returns
/// false when the connection died.
fn respond(
    shared: &Arc<Shared>,
    writer: &mut TcpStream,
    job_id: u64,
    admission: Admission,
    rx: Receiver<Notice>,
) -> bool {
    match admission {
        Admission::Rejected {
            queued_cells,
            limit,
        } => write_line(
            writer,
            &Response::Overloaded {
                queued_cells,
                limit,
            },
        )
        .is_ok(),
        Admission::CacheHit(report) => writer
            .write_all(cache_hit_reply(job_id, &report).as_bytes())
            .is_ok(),
        Admission::Hydrated => {
            let wrote = write_line(
                writer,
                &Response::Submitted {
                    job: job_id,
                    cached: false,
                },
            )
            .is_ok();
            // Finalize even if the submitter vanished, so the assembled
            // sweep still lands in the report cache.
            finalize_job(shared, job_id);
            wrote && forward(writer, rx)
        }
        Admission::Coalesced | Admission::Enqueued => {
            if write_line(
                writer,
                &Response::Submitted {
                    job: job_id,
                    cached: false,
                },
            )
            .is_err()
            {
                return false;
            }
            forward(writer, rx)
        }
    }
}

/// The two lines a report-cache hit answers with, for one `write_all`:
/// `Submitted`, then the `Report` around the cached literal.
fn cache_hit_reply(job: u64, report: &CachedReport) -> String {
    let mut reply = to_line(&Response::Submitted { job, cached: true });
    reply.push('\n');
    push_report_line(&mut reply, job, true, 0, 0, report.literal());
    reply.push('\n');
    reply
}

/// Forwards progress + terminal responses from the job's channel. The
/// sender side is dropped once the job reaches a terminal state, ending the
/// iteration even if we somehow miss a terminal message.
fn forward(writer: &mut TcpStream, rx: Receiver<Notice>) -> bool {
    for notice in rx {
        let (written, terminal) = match &notice {
            Notice::Message(response) => (
                write_line(writer, response),
                matches!(
                    response,
                    Response::Error { .. } | Response::Cancelled { .. }
                ),
            ),
            Notice::Report(line) => (writer.write_all(line.as_bytes()), true),
        };
        if written.is_err() {
            return false;
        }
        if terminal {
            break;
        }
    }
    true
}

fn status_response(shared: &Arc<Shared>, job: u64) -> Response {
    let state = shared.state.lock().unwrap();
    let (job_state, completed, total) = match state.jobs.get(&job) {
        Some(j) => (j.state, j.completed, j.total),
        None => match state.terminal(job) {
            Ok(record) => (record.state, record.completed, record.total),
            Err(message) => return Response::Error { message },
        },
    };
    Response::JobStatus {
        job,
        state: job_state.label().to_string(),
        completed: completed as u64,
        total: total as u64,
    }
}

fn cancel_job(shared: &Arc<Shared>, job: u64) -> Response {
    let mut state = shared.state.lock().unwrap();
    let Some(j) = state.remove_live(job) else {
        let message = match state.terminal(job) {
            Ok(record) => format!(
                "job {job} is {}; only queued or running jobs can be cancelled",
                record.state.label()
            ),
            Err(message) => message,
        };
        return Response::Error { message };
    };
    // Free the cells still queued; batches already taken by a worker stop
    // at its next per-cell liveness check (and whatever it executed
    // meanwhile still feeds the cell cache).
    state.queued_cells -= j.pending.iter().map(Vec::len).sum::<usize>();
    state.active.retain(|&id| id != job);
    state.record(job, JobState::Cancelled, j.completed, j.total);
    state.counters.cancelled += 1;
    for sub in j.subscribers {
        let _ = sub.tx.send(Notice::Message(Response::Cancelled { job }));
    }
    Response::Cancelled { job }
}

fn stats(shared: &Arc<Shared>) -> ServerStats {
    let state = shared.state.lock().unwrap();
    debug_assert_eq!(state.in_flight.len(), state.jobs.len());
    ServerStats {
        jobs_submitted: state.counters.submitted,
        jobs_coalesced: state.counters.coalesced,
        jobs_completed: state.counters.completed,
        jobs_cancelled: state.counters.cancelled,
        jobs_failed: state.counters.failed,
        jobs_rejected: state.counters.rejected,
        requests_malformed: state.counters.malformed,
        executed_cells_total: state.counters.executed_cells,
        cells_hydrated_total: state.counters.hydrated_cells,
        report_cache_entries: state.cache.len() as u64,
        report_cache_capacity: state.cache.capacity() as u64,
        report_cache_hits: state.cache.hits(),
        report_cache_misses: state.cache.misses(),
        report_cache_evictions: state.cache.evictions(),
        cell_cache_entries: state.cells.len() as u64,
        cell_cache_capacity: state.cells.capacity() as u64,
        cell_cache_hits: state.cells.hits(),
        cell_cache_misses: state.cells.misses(),
        cell_cache_evictions: state.cells.evictions(),
        pool_workers: shared.config.pool as u64,
        spec_cache_builds: shared.specs.builds() as u64,
        spec_cache_hits: shared.specs.hits() as u64,
        spec_cache_entries: shared.specs.len() as u64,
        jobs_in_flight: state.in_flight.len() as u64,
        jobs_tracked: (state.jobs.len() + state.history.len()) as u64,
        jobs_retired: state.retired,
    }
}

/// One pool worker: takes one batch of cells from the job at the front of
/// the round-robin rotation, executes them on a worker-owned executor
/// (rebuilt only when the plan changes), and finalizes whichever job it
/// resolves the last cell of.
fn worker_loop(shared: Arc<Shared>) {
    let mut executor_cache: Option<(Arc<SweepPlan>, Box<dyn Executor>)> = None;
    loop {
        let (job_id, plan, batch) = {
            let mut state = shared.state.lock().unwrap();
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    drain_on_shutdown(&mut state);
                    return;
                }
                let Some(id) = state.active.pop_front() else {
                    state = shared.work.wait(state).unwrap();
                    continue;
                };
                let job = state.jobs.get_mut(&id).expect("active job must exist");
                let Some(batch) = job.pending.pop_front() else {
                    // Defensive: a job with nothing pending leaves the
                    // rotation.
                    continue;
                };
                if job.state == JobState::Queued {
                    job.state = JobState::Running;
                }
                let plan = Arc::clone(&job.plan);
                if !job.pending.is_empty() {
                    // Fair rotation: one batch per turn, then back of the
                    // line so no sweep starves behind a bigger one.
                    state.active.push_back(id);
                }
                state.queued_cells -= batch.len();
                break (id, plan, batch);
            }
        };

        let stale = match &executor_cache {
            Some((cached, _)) => !Arc::ptr_eq(cached, &plan),
            None => true,
        };
        if stale {
            executor_cache = Some((Arc::clone(&plan), plan.executor()));
        }
        let executor: &dyn Executor = executor_cache.as_ref().unwrap().1.as_ref();

        let mut finished = false;
        for index in batch {
            let labels = plan.job_labels(index);
            let repetition = plan.job_at(index).repetition;
            let pending_key = {
                let mut state = shared.state.lock().unwrap();
                // Cancelled (or failed by shutdown) jobs have left the live
                // table: the rest of the batch is moot.
                let Some(job) = state.jobs.get(&job_id) else {
                    break;
                };
                let cell_key = job.cell_keys[index];
                // Another job may have executed this very cell since
                // admission — resolve it from the cache instead.
                match state.cells.peek(cell_key) {
                    Some(outcome) => {
                        finished = record_cell(
                            &mut state, job_id, index, outcome, false, &labels, repetition,
                        );
                        None
                    }
                    None => Some(cell_key),
                }
            };
            if let Some(cell_key) = pending_key {
                let outcome = plan.run_cell(index, executor);
                let mut state = shared.state.lock().unwrap();
                // Executed outcomes always feed the cell cache, even when
                // the job was cancelled mid-cell — the work is done either
                // way, so future sweeps may as well share it.
                state.cells.insert(cell_key, outcome.clone());
                if state.jobs.contains_key(&job_id) {
                    finished = record_cell(
                        &mut state, job_id, index, outcome, true, &labels, repetition,
                    );
                }
            }
            if finished {
                break;
            }
        }
        if finished {
            finalize_job(&shared, job_id);
        }
    }
}

/// Records one resolved cell of a running job under the state lock: stores
/// the outcome, advances progress (fanning out `Progress` lines to
/// streaming subscribers), and reports whether the job just resolved its
/// last cell — the caller then finalizes outside the lock.
fn record_cell(
    state: &mut State,
    job_id: u64,
    index: usize,
    outcome: CellOutcome,
    executed: bool,
    labels: &(String, String, String),
    repetition: usize,
) -> bool {
    if executed {
        state.counters.executed_cells += 1;
    } else {
        state.counters.hydrated_cells += 1;
    }
    let job = state
        .jobs
        .get_mut(&job_id)
        .expect("recorded job must exist");
    job.outcomes[index] = Some(outcome);
    job.completed += 1;
    job.remaining -= 1;
    if executed {
        job.executed += 1;
    } else {
        job.hydrated += 1;
    }
    for sub in job.subscribers.iter().filter(|s| s.wants_progress) {
        let _ = sub.tx.send(Notice::Message(Response::Progress {
            job: job_id,
            completed: job.completed as u64,
            total: job.total as u64,
            application: labels.0.clone(),
            policy: labels.2.clone(),
            repetition: repetition as u64,
        }));
    }
    job.remaining == 0
}

/// Assembles and publishes a finished job's report: the deterministic keyed
/// post-pass over hydrated + executed outcomes, serialized once, stored in
/// the sweep-level report cache and handed to every subscriber. Called by
/// whichever thread resolves the job's last cell (a pool worker, or the
/// submitting handler when every cell hydrated at admission).
fn finalize_job(shared: &Arc<Shared>, job_id: u64) {
    let (plan, outcomes, key, executed, hydrated, total) = {
        let mut state = shared.state.lock().unwrap();
        let Some(job) = state.jobs.get_mut(&job_id) else {
            return;
        };
        if job.state != JobState::Running || job.remaining != 0 {
            return;
        }
        let plan = Arc::clone(&job.plan);
        let outcomes: Vec<CellOutcome> = std::mem::take(&mut job.outcomes)
            .into_iter()
            .map(|slot| slot.expect("finished job has every outcome"))
            .collect();
        (
            plan,
            outcomes,
            job.key,
            job.executed,
            job.hydrated,
            job.total,
        )
    };

    // The post-pass, serialization, escaping and the subscribers' line all
    // run outside the lock. The first two are deterministic functions of
    // the keyed outcomes, so the bytes are identical to a direct
    // `SweepPlan::execute` of the same plan.
    let report = plan.assemble_report(outcomes, shared.config.pool, std::time::Duration::ZERO);
    let cached = CachedReport::new(report.to_json_string(), executed, total);
    let mut line = String::new();
    push_report_line(
        &mut line,
        job_id,
        false,
        executed as u64,
        hydrated as u64,
        cached.literal(),
    );
    line.push('\n');
    let line: Arc<str> = line.into();

    let mut state = shared.state.lock().unwrap();
    state.cache.insert(key, Arc::new(cached));
    let Some(job) = state.remove_live(job_id) else {
        // Cancelled (or failed) while assembling: the bytes still went
        // into the report cache, but nobody is listening any more.
        return;
    };
    state.record(job_id, JobState::Done, total, total);
    for sub in job.subscribers {
        let _ = sub.tx.send(Notice::Report(Arc::clone(&line)));
    }
    state.counters.completed += 1;
}

/// Fails everything still queued or running when the daemon stops, so
/// blocked submitters get a terminal response instead of hanging. Safe to
/// call from every pool worker: it empties the coalescing index it walks,
/// so repeated calls are no-ops.
fn drain_on_shutdown(state: &mut State) {
    state.active.clear();
    state.queued_cells = 0;
    for id in std::mem::take(&mut state.in_flight).into_values() {
        let job = state.jobs.remove(&id).expect("indexed job must be live");
        state.counters.failed += 1;
        state.record(id, JobState::Failed, job.completed, job.total);
        for sub in job.subscribers {
            let _ = sub.tx.send(Notice::Message(Response::Error {
                message: "server shut down before the job ran".to_string(),
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_binds_ephemeral_loopback() {
        let config = ServeConfig::default();
        assert_eq!(config.addr, "127.0.0.1:0");
        assert_eq!(config.topology.num_sockets(), 8);
        assert_eq!(config.cache_capacity, 64);
        assert_eq!(config.cell_capacity, 4096);
        assert_eq!(config.pool, 1);
        assert_eq!(config.batch_cells, 4);
        assert_eq!(config.max_queued_cells, 4096);
        assert_eq!(config.max_active_jobs, 64);
        assert_eq!(config.cache_file, None);
    }

    #[test]
    fn job_states_have_stable_labels() {
        for (state, label) in [
            (JobState::Queued, "queued"),
            (JobState::Running, "running"),
            (JobState::Done, "done"),
            (JobState::Cancelled, "cancelled"),
            (JobState::Failed, "failed"),
        ] {
            assert_eq!(state.label(), label);
        }
    }

    /// A one-entry cache file exactly as the daemon of commit fb5dfe3 (the
    /// last with a hand-written loader) saved it after one NStream sweep.
    const PARENT_CACHE_FILE: &str = r#"{"version":1,"entries":[{"key":"de10a53c7defda1d","executed_cells":2,"total_cells":2,"report":"{\n  \"machine\": \"bullion_s16 (8 sockets x 4 cores)\",\n  \"backend\": \"simulator\",\n  \"baseline\": \"LAS\",\n  \"seed\": 15819134,\n  \"repetitions\": 1,\n  \"cells\": [\n    {\n      \"application\": \"NStream\",\n      \"scale\": \"Tiny\",\n      \"policy\": \"DFIFO\",\n      \"repetition\": 0,\n      \"tasks\": 36,\n      \"makespan_ns\": 7020.300000000001,\n      \"speedup_vs_baseline\": 0.7225902026978902,\n      \"local_fraction\": 0.25,\n      \"load_imbalance\": 1.7804238635214433,\n      \"steal_fraction\": 0,\n      \"deferred_bytes\": 9216\n    },\n    {\n      \"application\": \"NStream\",\n      \"scale\": \"Tiny\",\n      \"policy\": \"LAS\",\n      \"repetition\": 0,\n      \"tasks\": 36,\n      \"makespan_ns\": 5072.799999999999,\n      \"speedup_vs_baseline\": 1,\n      \"local_fraction\": 0.5,\n      \"load_imbalance\": 2.4953818028022976,\n      \"steal_fraction\": 0,\n      \"deferred_bytes\": 9216\n    }\n  ],\n  \"aggregates\": [\n    {\n      \"scale\": \"Tiny\",\n      \"policy\": \"DFIFO\",\n      \"geomean_speedup\": 0.7225902026978902,\n      \"applications\": 1\n    },\n    {\n      \"scale\": \"Tiny\",\n      \"policy\": \"LAS\",\n      \"geomean_speedup\": 1,\n      \"applications\": 1\n    }\n  ],\n  \"skipped\": []\n}"}]}"#;

    fn scratch_file(name: &str, body: &str) -> String {
        let dir = std::env::temp_dir().join(format!("numadag-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name).to_string_lossy().into_owned();
        std::fs::write(&path, body).unwrap();
        path
    }

    #[test]
    fn the_parents_cache_file_loads_and_saves_back_byte_for_byte() {
        let path = scratch_file("parent.json", PARENT_CACHE_FILE);
        let mut cache = ReportCache::new(4);
        assert_eq!(load_cache_file(&path, &mut cache), Ok(1));
        let entry = cache
            .peek(0xde10a53c7defda1d)
            .expect("keyed by the hex fingerprint");
        assert_eq!((entry.executed_cells, entry.total_cells), (2, 2));
        assert!(entry.bytes.starts_with("{\n  \"machine\": \"bullion_s16"));
        // A hit on it writes what the derived encoder writes for its two
        // responses, one line each.
        let derived = [
            Response::Submitted {
                job: 9,
                cached: true,
            },
            Response::Report {
                job: 9,
                cache_hit: true,
                executed_cells: 0,
                hydrated_cells: 0,
                report_json: entry.bytes.clone(),
            },
        ]
        .map(|response| to_line(&response) + "\n");
        assert_eq!(cache_hit_reply(9, &entry), derived.concat());
        save_cache_file(&path, &cache.snapshot()).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), PARENT_CACHE_FILE);
        let _ = std::fs::remove_file(&path);
        // Every field of the file and of an entry: missing or mistyped is an
        // error that names it.
        let sample = serde_json::from_str(PARENT_CACHE_FILE).unwrap();
        serde::testing::assert_struct_rejects_malformed(&sample, &[], CacheFile::from_value);
    }

    #[test]
    fn a_cache_file_with_one_bad_entry_loads_nothing() {
        // A second entry whose key is not hex: the file is refused whole,
        // and the good entry before it must not already be in the cache.
        let second = r#",{"key":"not hex","executed_cells":1,"total_cells":1,"report":"{}"}]}"#;
        let body = PARENT_CACHE_FILE.replacen("]}", second, 1);
        assert!(body.ends_with(second));
        let path = scratch_file("bad-entry.json", &body);
        let mut cache = ReportCache::new(4);
        let err = load_cache_file(&path, &mut cache).unwrap_err();
        assert!(err.contains("entries: [1]: CacheEntry.key"), "{err}");
        assert!(cache.is_empty());
        let _ = std::fs::remove_file(&path);
        // So is a version this daemon does not know, however well-formed.
        let path = scratch_file(
            "next-version.json",
            &PARENT_CACHE_FILE.replacen("\"version\":1", "\"version\":2", 1),
        );
        let err = load_cache_file(&path, &mut cache).unwrap_err();
        assert!(err.contains("unsupported cache file version 2"), "{err}");
        assert!(cache.is_empty());
        let _ = std::fs::remove_file(&path);
        assert_eq!(load_cache_file("/no/such/cache/file", &mut cache), Ok(0));
    }
}
