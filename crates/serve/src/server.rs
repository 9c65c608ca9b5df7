//! The sweep daemon: a TCP listener, a cell-granular admission stage, and
//! a pool of worker threads draining cell batches fairly (round-robin
//! across active jobs) over the process-wide [`SpecCache`].
//!
//! All daemon state is one `State` behind one mutex, and only `State`'s
//! methods change it: one transition each, with no I/O, no lock and no
//! panic on a job invariant. The shell — connection handlers, pool workers,
//! [`ServeHandle`] — locks for one call at a time and acts on its result
//! outside the lock, where fingerprinting, planning, executing cells,
//! assembling reports and socket writes happen. Life of a request:
//!
//! 1. A connection handler parses one JSON line into a [`Request`].
//!    Malformed lines are answered with a structured `Error` and the
//!    connection survives (the service analogue of the bins' exit-2 usage
//!    convention).
//! 2. **admit.** `SubmitSweep` resolves the spec through the CLI grammar
//!    (refusing the threaded backend, whose wall-clock makespans the pool
//!    would measure under contention and the caches would replay) and
//!    admits its canonical fingerprint: onto an identical live job
//!    (coalesced), from the report cache (a byte-identical hit, nothing
//!    planned), or, for a novel key, back with "needs a plan". The handler
//!    plans the sweep, keys each cell
//!    (`crate::protocol::cell_fingerprint`) and admits again: cells an
//!    earlier sweep of any shape executed hydrate from the `CellCache`,
//!    and only the novel ones are queued, one batch per workload — unless
//!    that would exceed a quota, which bounces with `Overloaded`. The
//!    handler then forwards the job's `Progress` (when streaming) and
//!    terminal lines.
//! 3. **take.** A pool worker takes one batch from the job at the front of
//!    the rotation, so a tiny sweep keeps moving while a Full one runs.
//! 4. **resolve.** Each cell resolves from the cell cache (another job may
//!    have executed it meanwhile) or with the outcome the worker executed,
//!    which feeds the cell cache even if its job has left. The last cell
//!    hands back the job's outcomes.
//! 5. **publish.** Whoever resolved it (the worker, or the submitter when
//!    every cell hydrated) assembles the report through the deterministic
//!    keyed post-pass — byte-identical to direct execution — maps it once
//!    to its wire form, and publishes it to the LRU report cache and as one
//!    `Report` line to every subscriber. A hit's line is rendered around the
//!    same wire form.
//! 6. **cancel** ends a live job and frees its queued cells; a batch a
//!    worker already took stops at its next cell.
//! 7. **close** is shutdown. Batches already taken finish, so a job whose
//!    remaining cells they hold still publishes; a job with a batch still
//!    queued fails with "server shut down before the job ran"; later
//!    submissions are refused with "server is shutting down". Pool workers
//!    exit at their next take.
//!
//! What a request costs does not depend on how many the daemon has served:
//! the job table holds only live jobs (at most `max_active_jobs`, all that
//! coalescing scans); a terminal job — a cache hit is born one — shrinks to
//! a `(id, state, completed, total)` record in a ring of [`JOB_HISTORY`];
//! both caches are O(1) `Lru`s that alone keep reports
//! alive. `Status`/`CancelJob` answer from the table, then the ring; an id
//! that has left the ring answers `job N retired`, one never issued
//! `unknown job N`.

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use numadag_kernels::SpecCache;
use numadag_runtime::framing::{from_line, read_frame, to_line};
use numadag_runtime::{
    Backend, CellOutcome, ExecutionConfig, Executor, Simulator, SweepPlan, SweepReport,
};
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
    /// Pool worker threads executing cell batches, one workload's novel
    /// cells each (minimum 1). Every worker runs its cells on the daemon's
    /// one simulator.
    pub pool: usize,
    /// Admission quota: a submission whose novel cells would push the pool
    /// queue beyond this bounces with `Overloaded`.
    pub max_queued_cells: usize,
    /// Admission quota: maximum queued/running jobs before submissions
    /// bounce with `Overloaded`.
    pub max_active_jobs: usize,
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
            max_queued_cells: 4096,
            max_active_jobs: 64,
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
#[derive(Clone)]
enum Notice {
    /// `Progress`, or a terminal `Cancelled` / `Error`, still to encode.
    Message(Response),
    /// The terminal `Report`: one wire line, newline included, rendered
    /// once for every subscriber of the job.
    Report(Arc<str>),
}

/// One subscriber of a job: the sending half of the handler's channel, plus
/// whether it asked for per-cell progress.
#[derive(Clone)]
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
    plan: Arc<SweepPlan>,
    /// Per-cell content fingerprints, in plan job order.
    cell_keys: Vec<u64>,
    /// Per-cell outcomes; filled at admission (cell-cache hydration) and by
    /// `resolve`, handed over whole when the last one is.
    outcomes: Vec<Option<CellOutcome>>,
    /// Batches of novel cell indices still waiting for a pool worker.
    pending: VecDeque<Vec<usize>>,
    /// Cells this job executed.
    executed: usize,
    /// Cells resolved from the cell cache instead of executed.
    hydrated: usize,
    subscribers: Vec<Subscriber>,
}

impl Job {
    fn completed(&self) -> usize {
        self.executed + self.hydrated
    }

    /// Hands over what assembling the report takes, once every cell has
    /// resolved.
    fn finish(&mut self) -> Finished {
        Finished {
            key: self.key,
            plan: Arc::clone(&self.plan),
            outcomes: std::mem::take(&mut self.outcomes)
                .into_iter()
                .flatten()
                .collect(),
            executed: self.executed,
            hydrated: self.hydrated,
        }
    }
}

/// A job whose every cell has resolved: the outcomes its report is
/// assembled from, outside the lock.
struct Finished {
    key: u64,
    plan: Arc<SweepPlan>,
    outcomes: Vec<CellOutcome>,
    executed: usize,
    hydrated: usize,
}

impl Finished {
    /// Job `id`'s report, serialized and mapped to its wire form once, and
    /// the `Report` line around it: the keyed post-pass is deterministic, so
    /// the bytes are those of a direct `SweepPlan::execute`.
    fn render(self, id: u64, workers: usize) -> (Arc<CachedReport>, Arc<str>) {
        let total = self.outcomes.len();
        let report = self
            .plan
            .assemble_report(self.outcomes, workers, std::time::Duration::ZERO);
        let report = CachedReport::new(report.to_json_string(), self.executed, total);
        let mut line = String::new();
        push_report_line(
            &mut line,
            id,
            false,
            self.executed as u64,
            self.hydrated as u64,
            report.wire(),
        );
        line.push('\n');
        (Arc::new(report), line.into())
    }
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

/// What [`State::admit`] made of a submission.
enum Admission {
    /// A novel sweep: plan it, key its cells and admit it again with them.
    NeedsPlan,
    /// Refused: the daemon is closed (`Error`) or a quota is full
    /// (`Overloaded`).
    Refused(Response),
    /// Answered from the report cache by a job born done.
    CacheHit(u64, Arc<CachedReport>),
    /// Subscribed to an identical live job.
    Coalesced(u64),
    /// A new job with batches queued for the pool.
    Enqueued(u64),
    /// A new job whose every cell hydrated: the submitter publishes it.
    Hydrated(u64, Finished),
}

/// What a pool worker gets from [`State::take`].
enum Take {
    /// Cells of one job to resolve, as `(index, cell key)`.
    Run {
        job: u64,
        plan: Arc<SweepPlan>,
        cells: Vec<(usize, u64)>,
    },
    /// Nothing queued: wait for work.
    Wait,
    /// Closed: exit.
    Exit,
}

/// What resolving one cell of a taken batch came to.
enum Resolved {
    /// No cache holds the cell: execute it and resolve it with the outcome.
    Execute,
    /// Recorded; the job has cells to go.
    Recorded,
    /// The job's last cell: assemble its report and publish it.
    Finished(Finished),
    /// The job was cancelled or failed: the rest of the batch is moot.
    Gone,
}

/// The daemon's state; its methods are the transitions of the module doc.
struct State {
    max_active_jobs: usize,
    max_queued_cells: usize,
    /// Set by [`State::close`]: nothing is admitted or taken after it.
    closed: bool,
    next_job: u64,
    /// Round-robin rotation of jobs with pending batches: `take` pops the
    /// front and pushes the job back while it has more.
    active: VecDeque<u64>,
    /// Cells currently sitting in pending batches (the `max_queued_cells`
    /// quota gauge).
    queued_cells: usize,
    /// The live table: queued and running jobs only, so its length is the
    /// `max_active_jobs` gauge.
    jobs: HashMap<u64, Job>,
    /// The last [`JOB_HISTORY`] terminal jobs, oldest first.
    history: VecDeque<JobRecord>,
    /// Records pushed out of `history`.
    retired: u64,
    cache: ReportCache,
    cells: CellCache,
    /// The counters `Stats` reports; [`State::stats`] adds the gauges.
    stats: ServerStats,
}

impl State {
    fn new(config: &ServeConfig, cache: ReportCache) -> State {
        State {
            max_active_jobs: config.max_active_jobs,
            max_queued_cells: config.max_queued_cells,
            closed: false,
            next_job: 1,
            active: VecDeque::new(),
            queued_cells: 0,
            jobs: HashMap::new(),
            history: VecDeque::with_capacity(JOB_HISTORY),
            retired: 0,
            cache,
            cells: CellCache::new(config.cell_capacity),
            stats: ServerStats {
                pool_workers: config.pool as u64,
                ..ServerStats::default()
            },
        }
    }

    /// Admits the submission of sweep `key` for `subscriber`. Without
    /// `planned` (the plan and its cell keys) a novel key answers
    /// [`Admission::NeedsPlan`]; with it, the sweep becomes a job unless an
    /// identical one was admitted meanwhile.
    fn admit(
        &mut self,
        key: u64,
        planned: Option<(Arc<SweepPlan>, Vec<u64>)>,
        subscriber: &Subscriber,
    ) -> Admission {
        if self.closed {
            return Admission::Refused(Response::Error {
                message: "server is shutting down".to_string(),
            });
        }
        if let Some((&id, job)) = self.jobs.iter_mut().find(|(_, job)| job.key == key) {
            self.stats.jobs_coalesced += 1;
            job.subscribers.push(subscriber.clone());
            return Admission::Coalesced(id);
        }
        // A hit counts here; the one miss counts when a job is created, so
        // racing identical submissions keep misses == executed sweeps.
        if let Some(report) = self.cache.revalidate(key) {
            let id = self.issue();
            self.record(id, JobState::Done, report.total_cells, report.total_cells);
            return Admission::CacheHit(id, report);
        }
        let Some((plan, cell_keys)) = planned else {
            return Admission::NeedsPlan;
        };
        if self.jobs.len() >= self.max_active_jobs {
            return self.overloaded();
        }
        // Hydrate every cell some earlier sweep already produced; only the
        // novel ones go to the pool.
        let outcomes: Vec<_> = cell_keys.iter().map(|&k| self.cells.lookup(k)).collect();
        let novel: Vec<usize> = (0..outcomes.len())
            .filter(|&index| outcomes[index].is_none())
            .collect();
        if self.queued_cells + novel.len() > self.max_queued_cells {
            return self.overloaded();
        }
        let id = self.issue();
        let hydrated = cell_keys.len() - novel.len();
        self.cache.note_miss();
        self.stats.jobs_submitted += 1;
        self.stats.cells_hydrated_total += hydrated as u64;
        self.queued_cells += novel.len();
        // One batch per workload: the plan is workload-major.
        let pending = novel
            .chunk_by(|&a, &b| plan.job_at(a).workload == plan.job_at(b).workload)
            .map(<[usize]>::to_vec)
            .collect();
        let mut job = Job {
            key,
            state: JobState::Queued,
            plan,
            cell_keys,
            outcomes,
            pending,
            executed: 0,
            hydrated,
            subscribers: vec![subscriber.clone()],
        };
        let admission = if novel.is_empty() {
            job.state = JobState::Running;
            Admission::Hydrated(id, job.finish())
        } else {
            self.active.push_back(id);
            Admission::Enqueued(id)
        };
        self.jobs.insert(id, job);
        admission
    }

    fn overloaded(&mut self) -> Admission {
        self.stats.jobs_rejected += 1;
        Admission::Refused(Response::Overloaded {
            queued_cells: self.queued_cells as u64,
            limit: self.max_queued_cells as u64,
        })
    }

    fn issue(&mut self) -> u64 {
        self.next_job += 1;
        self.next_job - 1
    }

    /// Takes one batch from the job at the front of the rotation, then
    /// sends that job to the back while it has more, so no sweep starves
    /// behind a bigger one.
    fn take(&mut self) -> Take {
        if self.closed {
            return Take::Exit;
        }
        while let Some(id) = self.active.pop_front() {
            let Some(job) = self.jobs.get_mut(&id) else {
                continue;
            };
            let Some(batch) = job.pending.pop_front() else {
                continue;
            };
            job.state = JobState::Running;
            if !job.pending.is_empty() {
                self.active.push_back(id);
            }
            self.queued_cells -= batch.len();
            return Take::Run {
                job: id,
                plan: Arc::clone(&job.plan),
                cells: batch.into_iter().map(|i| (i, job.cell_keys[i])).collect(),
            };
        }
        Take::Wait
    }

    /// Resolves cell `index` (content key `cell`) of job `id`: with the
    /// outcome a worker `executed`, or else from the cell cache if another
    /// job executed it since admission. Streaming subscribers get one
    /// `Progress` per resolved cell.
    fn resolve(
        &mut self,
        id: u64,
        index: usize,
        cell: u64,
        executed: Option<CellOutcome>,
    ) -> Resolved {
        if let Some(outcome) = &executed {
            // Executed work feeds the cell cache even when its job has
            // left: it is done either way, so future sweeps may share it.
            self.cells.insert(cell, outcome.clone());
        }
        let Some(job) = self.jobs.get_mut(&id) else {
            return Resolved::Gone;
        };
        let outcome = match executed {
            Some(outcome) => {
                job.executed += 1;
                self.stats.executed_cells_total += 1;
                outcome
            }
            None => match self.cells.peek(cell) {
                Some(outcome) => {
                    job.hydrated += 1;
                    self.stats.cells_hydrated_total += 1;
                    outcome
                }
                None => return Resolved::Execute,
            },
        };
        job.outcomes[index] = Some(outcome);
        if job.subscribers.iter().any(|s| s.wants_progress) {
            let (application, _, policy) = job.plan.job_labels(index);
            let progress = Response::Progress {
                job: id,
                completed: job.completed() as u64,
                total: job.cell_keys.len() as u64,
                application,
                policy,
                repetition: job.plan.job_at(index).repetition as u64,
            };
            for sub in job.subscribers.iter().filter(|s| s.wants_progress) {
                let _ = sub.tx.send(Notice::Message(progress.clone()));
            }
        }
        if job.completed() < job.cell_keys.len() {
            Resolved::Recorded
        } else {
            Resolved::Finished(job.finish())
        }
    }

    /// Files job `id`'s rendered report under sweep `key` in the report
    /// cache and hands every subscriber its `line`. A job cancelled while
    /// its report was assembled still leaves the bytes in the cache.
    fn publish(&mut self, id: u64, key: u64, report: Arc<CachedReport>, line: Arc<str>) {
        self.cache.insert(key, report);
        if self.end(id, JobState::Done, Notice::Report(line)) {
            self.stats.jobs_completed += 1;
        }
    }

    /// Cancels live job `id`, or says why it cannot be.
    fn cancel(&mut self, id: u64) -> Response {
        let cancelled = Response::Cancelled { job: id };
        if self.end(id, JobState::Cancelled, Notice::Message(cancelled.clone())) {
            self.stats.jobs_cancelled += 1;
            return cancelled;
        }
        let message = match self.terminal(id) {
            Ok(record) => format!(
                "job {id} is {}; only queued or running jobs can be cancelled",
                record.state.label()
            ),
            Err(message) => message,
        };
        Response::Error { message }
    }

    /// Shuts the daemon down: nothing is admitted or taken from now on, and
    /// every job with a batch still queued fails. Batches already taken
    /// finish, so a job whose remaining cells they all are still publishes.
    fn close(&mut self) {
        self.closed = true;
        let waiting: Vec<u64> = self
            .jobs
            .iter()
            .filter(|(_, job)| !job.pending.is_empty())
            .map(|(&id, _)| id)
            .collect();
        self.stats.jobs_failed += waiting.len() as u64;
        let failed = Notice::Message(Response::Error {
            message: "server shut down before the job ran".to_string(),
        });
        for id in waiting {
            self.end(id, JobState::Failed, failed.clone());
        }
    }

    /// Ends live job `id` in terminal `state`: frees its queued cells,
    /// files its record and sends each subscriber `notice`. False when the
    /// job is not live.
    fn end(&mut self, id: u64, state: JobState, notice: Notice) -> bool {
        let Some(job) = self.jobs.remove(&id) else {
            return false;
        };
        self.queued_cells -= job.pending.iter().map(Vec::len).sum::<usize>();
        self.active.retain(|&active| active != id);
        self.record(id, state, job.completed(), job.cell_keys.len());
        for sub in job.subscribers {
            let _ = sub.tx.send(notice.clone());
        }
        true
    }

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

    fn status(&self, id: u64) -> Response {
        let (state, completed, total) = match self.jobs.get(&id) {
            Some(job) => (job.state, job.completed(), job.cell_keys.len()),
            None => match self.terminal(id) {
                Ok(record) => (record.state, record.completed, record.total),
                Err(message) => return Response::Error { message },
            },
        };
        Response::JobStatus {
            job: id,
            state: state.label().to_string(),
            completed: completed as u64,
            total: total as u64,
        }
    }

    fn stats(&self, specs: &SpecCache) -> ServerStats {
        ServerStats {
            report_cache_entries: self.cache.len() as u64,
            report_cache_capacity: self.cache.capacity() as u64,
            report_cache_hits: self.cache.hits(),
            report_cache_misses: self.cache.misses(),
            report_cache_evictions: self.cache.evictions(),
            cell_cache_entries: self.cells.len() as u64,
            cell_cache_capacity: self.cells.capacity() as u64,
            cell_cache_hits: self.cells.hits(),
            cell_cache_misses: self.cells.misses(),
            cell_cache_evictions: self.cells.evictions(),
            spec_cache_builds: specs.builds() as u64,
            spec_cache_hits: specs.hits() as u64,
            spec_cache_entries: specs.len() as u64,
            jobs_in_flight: self.jobs.len() as u64,
            jobs_tracked: (self.jobs.len() + self.history.len()) as u64,
            jobs_retired: self.retired,
            ..self.stats.clone()
        }
    }

    fn malformed(&mut self) {
        self.stats.requests_malformed += 1;
    }

    fn closed(&self) -> bool {
        self.closed
    }

    fn cached_reports(&self) -> Vec<(u64, Arc<CachedReport>)> {
        self.cache.snapshot()
    }
}

struct Shared {
    config: ServeConfig,
    /// What every sweep runs on: the paper's bullion S16 (the machine of
    /// the `figure1` harness), events off. A plan's own config differs from
    /// it only in the seed, which no execution reads, so its cells come out
    /// as they would on the plan's own executor.
    simulator: Simulator,
    addr: SocketAddr,
    specs: Arc<SpecCache>,
    state: Mutex<State>,
    /// Signalled when a batch is queued and when the state closes.
    work: Condvar,
}

const POISONED: &str = "a thread panicked while holding the daemon state";

impl Shared {
    /// The daemon state, locked: the one way to reach it.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect(POISONED)
    }
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
        self.shared.state().cached_reports()
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
            let snapshot = self.shared.state().cached_reports();
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
/// `{"version": 3, "entries": [{key, executed_cells, total_cells, report}]}`,
/// with entries least-recently-used first (so reloading in file order
/// reproduces the LRU ranking) and each key the sweep's fingerprint as a
/// plain integer. Version 1 spelled the keys in hex, and version 2's keys
/// were another hash; a file of either is refused whole, and the daemon
/// boots with an empty cache.
#[derive(Serialize, Deserialize)]
struct CacheFile {
    version: u64,
    entries: Vec<CacheEntry>,
}

/// The version of [`CacheFile`] this daemon writes and reads.
const CACHE_FILE_VERSION: u64 = 3;

/// A file's `version`, read before its entries, whose spelling it decides.
#[derive(Deserialize)]
struct CacheFileVersion {
    version: u64,
}

#[derive(Serialize, Deserialize)]
struct CacheEntry {
    key: u64,
    executed_cells: usize,
    total_cells: usize,
    report: String,
}

fn save_cache_file(path: &str, snapshot: &[(u64, Arc<CachedReport>)]) -> std::io::Result<()> {
    let file = CacheFile {
        version: CACHE_FILE_VERSION,
        entries: snapshot
            .iter()
            .map(|(key, report)| CacheEntry {
                key: *key,
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
/// entries were restored. The whole file is decoded and checked before
/// anything is inserted, so a malformed file — even one whose first entries
/// are fine — is an error the boot path logs and ignores, and the cache
/// stays empty. An entry's report must be a `SweepReport` document with no
/// raw CR, the one report a `Report` line can carry.
fn load_cache_file(path: &str, cache: &mut ReportCache) -> Result<usize, String> {
    if !std::path::Path::new(path).exists() {
        return Ok(0);
    }
    let body = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let CacheFileVersion { version } = from_line(&body)?;
    if version != CACHE_FILE_VERSION {
        return Err(format!("unsupported cache file version {version}"));
    }
    let file: CacheFile = from_line(&body)?;
    for (i, entry) in file.entries.iter().enumerate() {
        let refuse = |why: String| format!("entries: [{i}]: CacheEntry.report: {why}");
        if entry.report.contains('\r') {
            return Err(refuse("holds a raw CR".to_string()));
        }
        SweepReport::from_json_str(&entry.report).map_err(refuse)?;
    }
    let loaded = file.entries.len();
    for entry in file.entries {
        let report = CachedReport::new(entry.report, entry.executed_cells, entry.total_cells);
        cache.insert(entry.key, Arc::new(report));
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
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let mut cache = ReportCache::new(config.cache_capacity);
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
        state: Mutex::new(State::new(&config, cache)),
        config,
        simulator: Simulator::new(ExecutionConfig::bullion_s16()),
        addr,
        specs,
        work: Condvar::new(),
    });

    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(listener, shared))
    };
    let workers = (0..shared.config.pool)
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

/// Closes the state, then wakes the pool (condvar) and the accept loop
/// (self-connection, since `accept` has no timeout in std). The flag is set
/// under the lock a waiting worker checks it under, so no worker can miss
/// the wake-up between its check and its wait.
fn begin_shutdown(shared: &Shared) {
    shared.state().close();
    shared.work.notify_all();
    let _ = TcpStream::connect(shared.addr);
}

/// Hands every accepted connection to a handler. After `close` it drains
/// the backlog without blocking and returns: a client that connected before
/// the listener went away is answered (a submission with "server is
/// shutting down"), never reset.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        match stream {
            // Blocking, also when accepted off the draining listener.
            Ok(stream) if stream.set_nonblocking(false).is_ok() => {
                let shared = Arc::clone(&shared);
                // Handlers are detached: they exit when their client
                // disconnects or after answering the terminal response of a
                // dead daemon.
                std::thread::spawn(move || handle_connection(stream, shared));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            _ => {}
        }
        if shared.state().closed() && listener.set_nonblocking(true).is_err() {
            break;
        }
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
                shared.state().malformed();
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
        // Each arm's guard is dropped at the end of the arm, before the
        // socket write.
        let response = match Request::from_line(&line) {
            Ok(Request::SubmitSweep { spec, stream }) => {
                if handle_submit(&shared, &mut writer, &spec, stream) {
                    continue;
                }
                break;
            }
            Ok(Request::Status { job }) => shared.state().status(job),
            Ok(Request::CancelJob { job }) => shared.state().cancel(job),
            Ok(Request::Stats) => Response::Stats(shared.state().stats(&shared.specs)),
            Ok(Request::Shutdown) => {
                let _ = write_line(&mut writer, &Response::ShuttingDown);
                begin_shutdown(&shared);
                break;
            }
            // Malformed request: structured error, connection survives.
            Err(message) => {
                shared.state().malformed();
                Response::Error { message }
            }
        };
        if write_line(&mut writer, &response).is_err() {
            break;
        }
    }
}

/// Why a `backend: threaded` submission is refused.
pub const THREADED_REFUSAL: &str = "the service does not run the threaded backend: its \
     makespans are wall-clock, so cells beside the pool's others would measure the \
     contention and the caches would replay it (run figure1 --backend threaded --jobs 1)";

/// Admits a submission and forwards its responses; returns false when the
/// connection died.
fn handle_submit(
    shared: &Shared,
    writer: &mut TcpStream,
    spec: &SweepSpec,
    wants_progress: bool,
) -> bool {
    let resolved = spec.resolve().and_then(|resolved| match resolved.backend {
        Backend::Simulated => Ok(resolved),
        Backend::Threaded => Err(THREADED_REFUSAL.to_string()),
    });
    let resolved = match resolved {
        Ok(resolved) => resolved,
        Err(message) => return write_line(writer, &Response::Error { message }).is_ok(),
    };
    let topology = &shared.simulator.config().topology;
    let num_sockets = topology.num_sockets();
    // Fingerprinting may build workload specs (warming the shared spec
    // cache for the run itself) — do it outside the state lock.
    let key = sweep_fingerprint(&resolved, &shared.specs, num_sockets);
    let (tx, rx) = channel();
    let subscriber = Subscriber { tx, wants_progress };
    let mut planned = None;
    let (job, finished) = loop {
        let admission = shared.state().admit(key, planned.take(), &subscriber);
        match admission {
            Admission::NeedsPlan => {
                // A novel sweep shape: materialize the plan and the per-cell
                // content fingerprints, both potentially expensive.
                let plan = resolved
                    .experiment(topology.clone(), Arc::clone(&shared.specs))
                    .plan();
                let keys = cell_keys(&plan, &resolved, &shared.specs, num_sockets);
                planned = Some((Arc::new(plan), keys));
            }
            Admission::Refused(response) => return write_line(writer, &response).is_ok(),
            Admission::CacheHit(job, report) => {
                return writer
                    .write_all(cache_hit_reply(job, &report).as_bytes())
                    .is_ok()
            }
            Admission::Coalesced(job) => break (job, None),
            Admission::Enqueued(job) => {
                shared.work.notify_all();
                break (job, None);
            }
            Admission::Hydrated(job, finished) => break (job, Some(finished)),
        }
    };
    // The job now holds the only sender: the channel ends with the job.
    drop(subscriber);
    let wrote = write_line(writer, &Response::Submitted { job, cached: false }).is_ok();
    if let Some(finished) = finished {
        // Publish even if the submitter vanished, so the assembled sweep
        // still lands in the report cache.
        assemble(shared, job, finished);
    }
    wrote && forward(writer, rx)
}

/// The two lines a report-cache hit answers with, for one `write_all`:
/// `Submitted`, then the `Report` around the cached wire form.
fn cache_hit_reply(job: u64, report: &CachedReport) -> String {
    let mut reply = to_line(&Response::Submitted { job, cached: true });
    reply.push('\n');
    push_report_line(&mut reply, job, true, 0, 0, report.wire());
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

/// Renders a finished job's report outside the lock and publishes it.
/// Called by whichever thread resolved the job's last cell (a pool worker,
/// or the submitting handler when every cell hydrated at admission).
fn assemble(shared: &Shared, job: u64, finished: Finished) {
    let key = finished.key;
    let (report, line) = finished.render(job, shared.config.pool);
    shared.state().publish(job, key, report, line);
}

/// One pool worker: takes one batch of cells at a time, resolves each on
/// the daemon's simulator, and assembles whichever job it resolves the last
/// cell of.
fn worker_loop(shared: Arc<Shared>) {
    loop {
        let (job, plan, cells) = {
            let mut state = shared.state();
            loop {
                match state.take() {
                    Take::Run { job, plan, cells } => break (job, plan, cells),
                    Take::Wait => state = shared.work.wait(state).expect(POISONED),
                    Take::Exit => return,
                }
            }
        };
        for (index, cell) in cells {
            let mut resolved = shared.state().resolve(job, index, cell, None);
            if let Resolved::Execute = resolved {
                let outcome = plan.run_cell(index, &shared.simulator);
                resolved = shared.state().resolve(job, index, cell, Some(outcome));
            }
            match resolved {
                Resolved::Execute | Resolved::Recorded => {}
                Resolved::Finished(finished) => {
                    assemble(&shared, job, finished);
                    break;
                }
                Resolved::Gone => break,
            }
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
        assert_eq!(config.cache_capacity, 64);
        assert_eq!(config.cell_capacity, 4096);
        assert_eq!(config.pool, 1);
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

    /// [`PARENT_CACHE_FILE`] in version 3, its key a plain integer.
    fn cache_file() -> String {
        PARENT_CACHE_FILE
            .replacen("\"version\":1", "\"version\":3", 1)
            .replacen("\"de10a53c7defda1d\"", "16001471155276864029", 1)
    }

    fn scratch_file(name: &str, body: &str) -> String {
        let dir = std::env::temp_dir().join(format!("numadag-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name).to_string_lossy().into_owned();
        std::fs::write(&path, body).unwrap();
        path
    }

    /// The parent's version-1 file is refused whole, and so is its
    /// version-2 spelling, whose keys are another hash; its version-3
    /// spelling loads and saves back byte for byte.
    #[test]
    fn the_parents_cache_file_loads_and_saves_back_byte_for_byte() {
        let path = scratch_file("parent.json", PARENT_CACHE_FILE);
        let mut cache = ReportCache::new(4);
        let err = load_cache_file(&path, &mut cache).unwrap_err();
        assert_eq!(err, "unsupported cache file version 1");
        assert_eq!(cache.len(), 0);
        let file = cache_file();
        let version_2 = file.replacen("\"version\":3", "\"version\":2", 1);
        std::fs::write(&path, &version_2).unwrap();
        let err = load_cache_file(&path, &mut cache).unwrap_err();
        assert_eq!(err, "unsupported cache file version 2");
        assert_eq!(cache.len(), 0);
        std::fs::write(&path, &file).unwrap();
        assert_eq!(load_cache_file(&path, &mut cache), Ok(1));
        let entry = cache
            .peek(0xde10a53c7defda1d)
            .expect("keyed by the fingerprint");
        assert_eq!((entry.executed_cells, entry.total_cells), (2, 2));
        assert!(entry.bytes.starts_with("{\n  \"machine\": \"bullion_s16"));
        // A hit on it writes two lines that decode to its two responses.
        let reply = cache_hit_reply(9, &entry);
        let lines: Vec<Response> = reply
            .lines()
            .map(|line| Response::from_line(line).unwrap())
            .collect();
        assert_eq!(
            lines,
            [
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
        );
        assert!(reply.ends_with('\n'));
        save_cache_file(&path, &cache.snapshot()).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), file);
        let _ = std::fs::remove_file(&path);
        // Every field of the file and of an entry: missing or mistyped is an
        // error that names it.
        serde::testing::assert_struct_rejects_malformed(&file, &[], serde::decode::<CacheFile>);
    }

    #[test]
    fn a_cache_file_with_one_bad_entry_loads_nothing() {
        // A second entry whose key is not an integer: the file is refused
        // whole, and the good entry before it must not already be in the
        // cache.
        let second = r#",{"key":"1f","executed_cells":1,"total_cells":1,"report":"{}"}]}"#;
        let body = cache_file().replacen("]}", second, 1);
        assert!(body.ends_with(second));
        let path = scratch_file("bad-entry.json", &body);
        let mut cache = ReportCache::new(4);
        let err = load_cache_file(&path, &mut cache).unwrap_err();
        assert!(err.contains("entries: [1]: CacheEntry.key"), "{err}");
        assert_eq!(cache.len(), 0);
        let _ = std::fs::remove_file(&path);
        // So is a version this daemon does not know, however well-formed.
        let path = scratch_file(
            "next-version.json",
            &cache_file().replacen("\"version\":3", "\"version\":4", 1),
        );
        let err = load_cache_file(&path, &mut cache).unwrap_err();
        assert!(err.contains("unsupported cache file version 4"), "{err}");
        assert_eq!(cache.len(), 0);
        let _ = std::fs::remove_file(&path);
        assert_eq!(load_cache_file("/no/such/cache/file", &mut cache), Ok(0));
    }

    /// A report the wire cannot carry as it is — not a `SweepReport`, or
    /// holding a raw CR, which a `Report` line would hand back as a line
    /// feed — refuses the whole file, like any malformed entry.
    #[test]
    fn a_cache_file_entry_the_wire_cannot_carry_loads_nothing() {
        let tag = r#""report":"#;
        let file = cache_file();
        let head = &file[..file.find(tag).unwrap() + tag.len()];
        let with_report = |report: &str| format!("{head}{report}}}]}}");
        let rows = [
            (with_report(r#""garbage\r""#), "holds a raw CR"),
            (with_report(r#""garbage""#), "invalid JSON"),
            (with_report(r#""{}""#), "missing field"),
            // The parent's report with one CR as whitespace: still a
            // `SweepReport` document, still refused.
            (
                file.replacen(r#""report":"{\n"#, r#""report":"{\r\n"#, 1),
                "holds a raw CR",
            ),
        ];
        for (i, (body, says)) in rows.iter().enumerate() {
            assert_ne!(body, &file);
            let path = scratch_file(&format!("unwireable-{i}.json"), body);
            let mut cache = ReportCache::new(4);
            let err = load_cache_file(&path, &mut cache).unwrap_err();
            assert!(
                err.contains("entries: [0]: CacheEntry.report") && err.contains(says),
                "{i}: {err}"
            );
            assert_eq!(cache.len(), 0);
            let _ = std::fs::remove_file(&path);
        }
    }

    /// A Tiny sweep the model test submits: its fingerprint, plan, cell keys
    /// and the report direct execution gives.
    struct Fixture {
        key: u64,
        plan: Arc<SweepPlan>,
        cell_keys: Vec<u64>,
        report: String,
    }

    /// Four overlapping Tiny sweeps — one, a policy column more, an app
    /// subset, another seed — and the outcome of each of their cells by
    /// cell key, each computed once.
    fn fixtures() -> &'static (Vec<Fixture>, HashMap<u64, CellOutcome>) {
        static FIXTURES: std::sync::OnceLock<(Vec<Fixture>, HashMap<u64, CellOutcome>)> =
            std::sync::OnceLock::new();
        FIXTURES.get_or_init(|| {
            let specs = Arc::new(SpecCache::new());
            let tiny = |apps: &str, policies: &str| SweepSpec {
                apps: apps.to_string(),
                policies: policies.to_string(),
                ..SweepSpec::default()
            };
            let sweeps = [
                tiny("jacobi,nstream", "dfifo,rgp-las,ep"),
                tiny("jacobi,nstream", "dfifo,rgp-las,ep,rgp-las:prop=repart"),
                tiny("jacobi", "dfifo,rgp-las,ep"),
                SweepSpec {
                    seed: 7,
                    ..tiny("jacobi,nstream", "dfifo,rgp-las,ep")
                },
            ];
            let mut outcomes = HashMap::new();
            let fixtures = sweeps.map(|spec| {
                let sweep = spec.resolve().unwrap();
                let plan = sweep
                    .experiment(numadag_numa::Topology::bullion_s16(), Arc::clone(&specs))
                    .plan();
                let cell_keys = cell_keys(&plan, &sweep, &specs, 8);
                let executor = plan.executor();
                let cells: Vec<CellOutcome> = cell_keys
                    .iter()
                    .enumerate()
                    .map(|(index, cell)| {
                        outcomes
                            .entry(*cell)
                            .or_insert_with(|| plan.run_cell(index, executor.as_ref()))
                            .clone()
                    })
                    .collect();
                let report = plan.assemble_report(cells, 1, std::time::Duration::ZERO);
                Fixture {
                    key: sweep_fingerprint(&sweep, &specs, 8),
                    plan: Arc::new(plan),
                    cell_keys,
                    report: report.to_json_string(),
                }
            });
            (fixtures.into(), outcomes)
        })
    }

    /// One subscriber of an admitted job, and every notice it received so
    /// far as `(terminal, text)`.
    struct Listener {
        job: u64,
        rx: Receiver<Notice>,
        seen: Vec<(bool, String)>,
    }

    /// `State` driven the way the shell drives it, with channels standing in
    /// for connections and a list of taken batches for the pool.
    struct Model {
        state: State,
        listeners: Vec<Listener>,
        batches: Vec<(u64, VecDeque<(usize, u64)>)>,
        finished: Vec<(u64, Finished)>,
        closed: bool,
    }

    impl Model {
        fn admit(&mut self, fixture: &Fixture, wants_progress: bool) {
            let (tx, rx) = channel();
            let subscriber = Subscriber { tx, wants_progress };
            let (issued, submitted) = (self.state.next_job, self.state.stats.jobs_submitted);
            let mut planned = None;
            let admission = loop {
                match self.state.admit(fixture.key, planned.take(), &subscriber) {
                    Admission::NeedsPlan => {
                        planned = Some((Arc::clone(&fixture.plan), fixture.cell_keys.clone()))
                    }
                    admission => break admission,
                }
            };
            let job = match admission {
                Admission::CacheHit(_, report) => {
                    assert_eq!(report.bytes, fixture.report);
                    None
                }
                Admission::Coalesced(job) | Admission::Enqueued(job) => Some(job),
                Admission::Hydrated(job, finished) => {
                    self.finished.push((job, finished));
                    Some(job)
                }
                Admission::Refused(response) => {
                    if self.closed {
                        assert!(matches!(response, Response::Error { .. }), "{response:?}");
                    }
                    None
                }
                Admission::NeedsPlan => unreachable!("the loop plans"),
            };
            if self.closed {
                assert_eq!(job, None, "admitted after close");
                assert_eq!(self.state.next_job, issued);
                assert_eq!(self.state.stats.jobs_submitted, submitted);
            }
            if let Some(job) = job {
                let seen = Vec::new();
                self.listeners.push(Listener { job, rx, seen });
            }
        }

        fn take(&mut self) {
            match self.state.take() {
                Take::Run { job, cells, .. } => self.batches.push((job, cells.into())),
                Take::Wait => assert!(!self.closed && self.state.queued_cells == 0),
                Take::Exit => assert!(self.closed),
            }
        }

        /// Resolves the next cell of a taken batch, executing it (from the
        /// fixture outcomes) when no cache holds it.
        fn resolve(&mut self, pick: usize) {
            if self.batches.is_empty() {
                return;
            }
            let at = pick % self.batches.len();
            let (job, cells) = &mut self.batches[at];
            let (job, (index, cell)) = (*job, cells.pop_front().unwrap());
            let mut resolved = self.state.resolve(job, index, cell, None);
            if let Resolved::Execute = resolved {
                let outcome = fixtures().1[&cell].clone();
                resolved = self.state.resolve(job, index, cell, Some(outcome));
            }
            let exhausted = self.batches[at].1.is_empty();
            match resolved {
                Resolved::Execute => panic!("an executed cell resolves"),
                Resolved::Recorded if !exhausted => return,
                Resolved::Recorded | Resolved::Gone => {}
                Resolved::Finished(finished) => {
                    assert!(exhausted, "job {job} finished with cells still taken");
                    self.finished.push((job, finished));
                }
            }
            self.batches.swap_remove(at);
        }

        /// Renders a finished job's report, checks it against direct
        /// execution, and publishes it.
        fn publish(&mut self, pick: usize) {
            if self.finished.is_empty() {
                return;
            }
            let (job, finished) = self.finished.swap_remove(pick % self.finished.len());
            let key = finished.key;
            let (report, line) = finished.render(job, 1);
            let fixture = fixtures().0.iter().find(|f| f.key == key).unwrap();
            assert_eq!(report.bytes, fixture.report);
            self.state.publish(job, key, report, line);
        }

        fn cancel(&mut self, pick: usize) {
            let id = pick as u64 % (self.state.next_job + 1);
            let live = self.state.jobs.contains_key(&id);
            let cancelled =
                matches!(self.state.cancel(id), Response::Cancelled { job } if job == id);
            assert_eq!(cancelled, live);
        }

        fn close(&mut self) {
            self.state.close();
            self.closed = true;
        }

        /// The invariants that hold between any two transitions.
        fn check(&mut self) {
            let state = &self.state;
            assert!(state.jobs.len() <= state.max_active_jobs);
            let pending = state.jobs.values().flat_map(|job| &job.pending);
            assert_eq!(state.queued_cells, pending.map(Vec::len).sum::<usize>());
            assert!(state.queued_cells <= state.max_queued_cells);
            assert!(state.history.len() <= JOB_HISTORY);
            for id in 1..state.next_job {
                match state.status(id) {
                    Response::JobStatus { .. } => {}
                    Response::Error { message } => assert_eq!(message, format!("job {id} retired")),
                    other => panic!("status of job {id}: {other:?}"),
                }
            }
            for listener in &mut self.listeners {
                for notice in listener.rx.try_iter() {
                    let seen = match notice {
                        Notice::Report(line) => (true, line.to_string()),
                        Notice::Message(response) => (
                            !matches!(response, Response::Progress { .. }),
                            to_line(&response),
                        ),
                    };
                    let job = listener.job;
                    assert!(
                        !listener.seen.iter().any(|s| s.0),
                        "job {job}: past its end"
                    );
                    listener.seen.push(seen);
                }
            }
        }

        /// Closes, lets the pool finish what it took, publishes, and checks
        /// that every subscriber got exactly one terminal line, the same one
        /// as every other subscriber of its job.
        fn drain(mut self) {
            self.close();
            self.check();
            self.take();
            while !self.batches.is_empty() {
                self.resolve(0);
                self.check();
            }
            while !self.finished.is_empty() {
                self.publish(0);
                self.check();
            }
            assert!(self.state.jobs.is_empty() && self.state.active.is_empty());
            assert_eq!(self.state.queued_cells, 0);
            let mut reports = HashMap::new();
            for listener in &self.listeners {
                let job = listener.job;
                assert!(listener.rx.try_recv().is_err(), "job {job} kept a sender");
                let terminal: Vec<&String> =
                    listener.seen.iter().filter(|s| s.0).map(|s| &s.1).collect();
                assert_eq!(terminal.len(), 1, "job {job}: {:?}", listener.seen);
                assert_eq!(*reports.entry(job).or_insert(terminal[0]), terminal[0]);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// Random admit / take / resolve / publish / cancel / close
        /// sequences over small quotas and caches keep every invariant, and
        /// end with every subscriber answered exactly once.
        #[test]
        fn the_state_keeps_its_invariants_under_any_transition_sequence(
            steps in proptest::prop::collection::vec((0u8..8, 0usize..64), 1..160),
        ) {
            let config = ServeConfig {
                cache_capacity: 2,
                cell_capacity: 16,
                max_queued_cells: 12,
                max_active_jobs: 2,
                ..ServeConfig::default()
            };
            let mut model = Model {
                state: State::new(&config, ReportCache::new(config.cache_capacity)),
                listeners: Vec::new(),
                batches: Vec::new(),
                finished: Vec::new(),
                closed: false,
            };
            for (step, pick) in steps {
                match step {
                    0 | 1 => model.admit(&fixtures().0[pick % 4], pick % 8 >= 4),
                    2 => model.take(),
                    3 | 4 => model.resolve(pick),
                    5 => model.publish(pick),
                    6 => model.cancel(pick),
                    _ if pick == 0 => model.close(),
                    _ => model.take(),
                }
                model.check();
            }
            model.drain();
        }
    }
}
