//! `serve_mix`: two closed-loop clients on two TCP connections against an
//! in-process daemon, each walking its own script of sessions. A session is
//! the unit timed, so the two requests per session that execute cells sit
//! inside the median instead of being outvoted by the cache hits.

use std::sync::Arc;
use std::time::Instant;

use numadag::prelude::*;
use numadag::serve::serve;

use super::{
    check_structure, closed_loop, note_failure, parse_policies, repeat_setup, Outcome,
    BASELINE_FULL, REPLAY_EVERY,
};
use crate::calibrate::Calibrator;
use crate::seeds::{
    Session, SessionScript, Stream, CANONICAL_SEED, FIG1_POLICIES, HOT_PER_SESSION, NOVEL_POLICIES,
};
use crate::stats::OpInterval;

pub const CLIENTS: usize = 2;
/// Warm-up sessions per client in each set-up.
const WARMUP_SESSIONS: usize = 20;
/// Session of the first client after which memory is read.
const RSS_MARK: usize = 500;

/// The daemon under test: two pool workers, default caches (64 reports,
/// 4096 cells), so the script's inserts evict steadily.
pub fn daemon_config() -> ServeConfig {
    ServeConfig {
        pool: 2,
        ..ServeConfig::default()
    }
}

fn spec(apps: &str, scale: &str, policies: &str, seed: u64) -> SweepSpec {
    SweepSpec {
        apps: apps.to_string(),
        scale: scale.to_string(),
        policies: policies.to_string(),
        seed,
        ..SweepSpec::default()
    }
}

/// The sweep every session reads six times: the paper's figure at the
/// canonical seed, answered from the report cache with the baseline's bytes.
pub fn hot_spec() -> SweepSpec {
    spec("all", "full", FIG1_POLICIES, CANONICAL_SEED)
}

/// Never-seen (app, seed): all three cells execute.
pub fn novel_spec(session: &Session) -> SweepSpec {
    spec(session.app.label(), "small", NOVEL_POLICIES, session.seed)
}

/// Same (app, seed), the four-policy superset: the novel step's three cells
/// hydrate from the cell cache, the two new columns execute.
pub fn widen_spec(session: &Session) -> SweepSpec {
    spec(session.app.label(), "small", FIG1_POLICIES, session.seed)
}

/// What a submit brought back.
pub struct Reply {
    pub cache_hit: bool,
    pub executed_cells: u64,
    pub hydrated_cells: u64,
    pub report_json: String,
}

/// What one session brought back, for the off-clock oracle.
pub struct SessionReplies {
    pub novel: Reply,
    pub widen: Reply,
    pub hot: Vec<Reply>,
    pub stats: ServerStats,
}

pub fn submit(client: &mut ServeClient, spec: SweepSpec) -> Reply {
    let outcome = client
        .submit(spec, false, |_| ())
        .expect("the daemon answers every scripted submit");
    Reply {
        cache_hit: outcome.cache_hit,
        executed_cells: outcome.executed_cells,
        hydrated_cells: outcome.hydrated_cells,
        report_json: outcome.report_json,
    }
}

pub fn run_session(client: &mut ServeClient, session: &Session) -> SessionReplies {
    let novel = submit(client, novel_spec(session));
    let widen = submit(client, widen_spec(session));
    let hot = (0..HOT_PER_SESSION)
        .map(|_| submit(client, hot_spec()))
        .collect();
    let stats = client.stats().expect("the daemon answers stats");
    SessionReplies {
        novel,
        widen,
        hot,
        stats,
    }
}

fn expect_counts(
    step: &str,
    got: &Reply,
    cache_hit: bool,
    executed: u64,
    hydrated: u64,
) -> Result<(), String> {
    if (got.cache_hit, got.executed_cells, got.hydrated_cells) == (cache_hit, executed, hydrated) {
        Ok(())
    } else {
        Err(format!(
            "{step}: cache_hit={} executed={} hydrated={}, expected {cache_hit}/{executed}/{hydrated}",
            got.cache_hit, got.executed_cells, got.hydrated_cells
        ))
    }
}

/// The per-session oracle. Returns the simulated tasks the daemon executed
/// for the session (every cell of a one-app report has the app's task count).
pub fn check_session(replies: &SessionReplies) -> Result<u64, String> {
    expect_counts("novel", &replies.novel, false, 3, 0)?;
    expect_counts("widen", &replies.widen, false, 2, 3)?;
    let mut executed_tasks = 0;
    for (step, reply, cells) in [("novel", &replies.novel, 3), ("widen", &replies.widen, 5)] {
        let report = SweepReport::from_json_str(&reply.report_json)
            .map_err(|e| format!("{step}: unparseable report: {e}"))?;
        check_structure(&report, cells).map_err(|e| format!("{step}: {e}"))?;
        executed_tasks += reply.executed_cells * report.cells[0].tasks as u64;
    }
    for reply in &replies.hot {
        expect_counts("hot", reply, true, 0, 0)?;
        if reply.report_json != BASELINE_FULL {
            return Err("hot: reply is not BENCH_figure1_full.json byte for byte".to_string());
        }
    }
    let s = &replies.stats;
    if (s.jobs_failed, s.jobs_rejected, s.requests_malformed) != (0, 0, 0) {
        return Err(format!(
            "stats: jobs_failed={} jobs_rejected={} requests_malformed={}",
            s.jobs_failed, s.jobs_rejected, s.requests_malformed
        ));
    }
    Ok(executed_tasks)
}

/// The same one-app Small sweep the daemon ran, in-process, on `cache`.
pub fn in_process(session: &Session, policies: &str, cache: &Arc<SpecCache>) -> String {
    Experiment::new()
        .app(session.app)
        .scale(ProblemScale::Small)
        .policies(parse_policies(policies))
        .seed(session.seed)
        .spec_cache(Arc::clone(cache))
        .parallelism(1)
        .run()
        .to_json_string()
}

/// A booted daemon with one connected client per script.
pub struct Service {
    pub handle: ServeHandle,
    pub clients: Vec<ServeClient>,
}

impl Service {
    /// Boots the daemon and connects the clients; nothing is cached yet.
    pub fn boot() -> Service {
        let handle = serve(daemon_config()).expect("the daemon binds an ephemeral port");
        let addr = handle.addr().to_string();
        let clients = (0..CLIENTS)
            .map(|_| ServeClient::connect(&addr).expect("the daemon accepts connections"))
            .collect();
        Service { handle, clients }
    }

    /// Stops the daemon and waits until all of it is freed. The connection
    /// handlers are detached threads that let go of the daemon's state only
    /// once they notice their client is gone; a set-up that began while one
    /// still lived would sit on top of the previous daemon's memory, and the
    /// run's peak RSS would depend on who won that race.
    pub fn shut_down(self) {
        let specs = self.handle.specs();
        drop(self.clients);
        self.handle.shutdown();
        self.handle.join();
        let deadline = Instant::now() + std::time::Duration::from_secs(2);
        while std::sync::Arc::strong_count(&specs) > 1 && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
}

/// One complete set-up: boot, execute the hot sweep once (40 cells, fills
/// the report cache and the daemon's spec cache), then warm-up sessions on
/// both connections at once.
pub fn set_up(scripts: &mut [SessionScript]) -> Service {
    let mut service = Service::boot();
    let first = submit(&mut service.clients[0], hot_spec());
    assert!(!first.cache_hit, "a fresh daemon cannot have the hot sweep");
    std::thread::scope(|scope| {
        for (client, script) in service.clients.iter_mut().zip(scripts.iter_mut()) {
            scope.spawn(move || {
                for _ in 0..WARMUP_SESSIONS {
                    std::hint::black_box(run_session(client, &script.next_session()));
                }
            });
        }
    });
    service
}

/// The two clients' set-up scripts.
pub fn setup_scripts(benchmark_seed: u64) -> [SessionScript; CLIENTS] {
    [
        SessionScript::new(benchmark_seed, Stream::Setup, 0),
        SessionScript::new(benchmark_seed, Stream::SetupB, 1),
    ]
}

pub fn run(benchmark_seed: u64, seconds: u64) -> Outcome {
    let mut failures = Vec::new();
    let mut setup_scripts = setup_scripts(benchmark_seed);
    let set_ups = repeat_setup(|| set_up(&mut setup_scripts), Service::shut_down);
    let mut service = set_ups.state;

    let scripts = [
        SessionScript::new(benchmark_seed, Stream::Measured, 0),
        SessionScript::new(benchmark_seed, Stream::MeasuredB, 1),
    ];
    let phase_start = Instant::now();
    /// What one client's measured phase brings back.
    struct ClientRun {
        ops: Vec<OpInterval>,
        peak_rss_mb: f64,
        failures: Vec<String>,
        /// Kept sessions: index, script entry, novel and widen replies.
        kept: Vec<(usize, Session, String, String)>,
        calibration: Vec<(f64, f64)>,
    }
    let per_client: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = service
            .clients
            .iter_mut()
            .zip(scripts)
            .map(|(client, mut script)| {
                scope.spawn(move || {
                    let mut failures = Vec::new();
                    let mut kept = Vec::new();
                    let mut calibrator = Calibrator::new(phase_start);
                    let (ops, peak_rss_mb) = closed_loop(
                        phase_start,
                        seconds,
                        RSS_MARK,
                        &mut calibrator,
                        || {
                            let session = script.next_session();
                            let replies = run_session(client, &session);
                            ((session, replies), 0.0)
                        },
                        |index, (session, replies)| {
                            let verdict = check_session(&replies);
                            if index % REPLAY_EVERY == 0 {
                                kept.push((
                                    index,
                                    session,
                                    replies.novel.report_json,
                                    replies.widen.report_json,
                                ));
                            }
                            match verdict {
                                Ok(_) => true,
                                Err(e) => {
                                    note_failure(&mut failures, format!("session {index}: {e}"));
                                    false
                                }
                            }
                        },
                    );
                    ClientRun {
                        ops,
                        peak_rss_mb,
                        failures,
                        kept,
                        calibration: calibrator.samples().to_vec(),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    // Canonical seed through the workload's own path: one more hot reply.
    let hot = submit(&mut service.clients[0], hot_spec());
    if hot.report_json != BASELINE_FULL || !hot.cache_hit {
        note_failure(
            &mut failures,
            "canonical seed: the hot reply is not the cached baseline".to_string(),
        );
    }
    let sim_geomean_speedup = SweepReport::from_json_str(&hot.report_json)
        .ok()
        .and_then(|r| r.geomean_of("RGP+LAS:prop=repart"))
        .unwrap_or(0.0);
    service.shut_down();

    // Replay the kept sessions in-process: the daemon's cache hydration and
    // keyed reassembly must give the bytes a direct run gives.
    let replay_specs = Arc::new(SpecCache::new());
    let mut ops = Vec::new();
    // One address space: the first client's reading is the process's.
    let peak_rss_mb = per_client[0].peak_rss_mb;
    let mut calibration = Vec::new();
    for (client, run) in per_client.into_iter().enumerate() {
        let mut client_ops = run.ops;
        calibration.extend(run.calibration);
        for line in run.failures {
            note_failure(&mut failures, format!("client {client} {line}"));
        }
        for (index, session, novel_json, widen_json) in run.kept {
            if in_process(&session, NOVEL_POLICIES, &replay_specs) != novel_json
                || in_process(&session, FIG1_POLICIES, &replay_specs) != widen_json
            {
                note_failure(
                    &mut failures,
                    format!("client {client} session {index}: replay differs"),
                );
                client_ops[index].ok = false;
            }
        }
        ops.append(&mut client_ops);
    }

    Outcome {
        ops,
        setup_s: set_ups.walls_s,
        setup_slowdown: set_ups.slowdown,
        setup_peak_rss_mb: set_ups.peak_rss_mb,
        calibration,
        failures,
        sim_geomean_speedup,
        peak_rss_mb,
        rss_mark: RSS_MARK,
    }
}
