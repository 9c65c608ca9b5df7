//! End-to-end tests of the sweep service over real TCP connections:
//! concurrent-client determinism, cache behaviour, malformed-request
//! survival, progress streaming and the byte-identity of service-path
//! reports with directly executed experiments.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use numadag_kernels::SpecCache;
use numadag_numa::Topology;
use numadag_serve::client::{ClientError, ServeClient};
use numadag_serve::protocol::{Request, Response, SweepSpec, DEFAULT_POLICIES};
use numadag_serve::server::{serve, serve_with_specs, ServeConfig, JOB_HISTORY, THREADED_REFUSAL};

fn tiny_spec() -> SweepSpec {
    SweepSpec {
        apps: "jacobi,nstream".to_string(),
        ..SweepSpec::default()
    }
}

/// The cells a sweep executes: the jobs of its plan.
fn total_cells(spec: &SweepSpec) -> usize {
    spec.resolve()
        .unwrap()
        .experiment(Topology::bullion_s16(), Arc::new(SpecCache::new()))
        .plan()
        .num_jobs()
}

#[test]
fn concurrent_identical_submissions_execute_once_with_identical_bytes() {
    let handle = serve(ServeConfig::default()).unwrap();
    let addr = handle.addr().to_string();

    let workers: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(&addr).unwrap();
                client.submit(tiny_spec(), false, |_| ()).unwrap()
            })
        })
        .collect();
    let outcomes: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    let reference = &outcomes[0].report_json;
    assert!(!reference.is_empty());
    for outcome in &outcomes {
        assert_eq!(
            &outcome.report_json, reference,
            "every client must receive byte-identical report bytes"
        );
    }

    let mut client = ServeClient::connect(&addr).unwrap();
    let stats = client.stats().unwrap();
    // However the four submissions raced (coalesced onto the in-flight job
    // or served from the cache after it finished), the sweep executed once.
    assert_eq!(stats.jobs_submitted, 1, "identical sweeps execute once");
    assert_eq!(stats.jobs_completed, 1);
    assert_eq!(stats.report_cache_misses, 1);
    assert_eq!(
        stats.jobs_coalesced + stats.report_cache_hits,
        3,
        "the other three submissions must not have executed"
    );
    let executed_once = stats.executed_cells_total;
    assert!(executed_once > 0);

    // A later repeat is a pure cache hit: no new cells execute.
    let again = client.submit(tiny_spec(), false, |_| ()).unwrap();
    assert!(again.cache_hit);
    assert_eq!(again.executed_cells, 0);
    assert_eq!(&again.report_json, reference);
    let stats = client.stats().unwrap();
    assert_eq!(stats.executed_cells_total, executed_once);
    assert_eq!(stats.jobs_submitted, 1);
    // The executed job left the coalescing index when it finished; every
    // submission that got an id (one job, the cache hits) is still tracked.
    assert_eq!(stats.jobs_in_flight, 0);
    assert_eq!(stats.jobs_tracked, 1 + stats.report_cache_hits);
    assert_eq!(stats.jobs_retired, 0);

    handle.shutdown();
    handle.join();
}

#[test]
fn equivalent_policy_spellings_share_one_cache_entry() {
    let handle = serve(ServeConfig::default()).unwrap();
    let mut client = ServeClient::connect(&handle.addr().to_string()).unwrap();

    let first = client
        .submit(
            SweepSpec {
                apps: "jacobi".to_string(),
                policies: "dfifo,rgp-las:scheme=rb,w=512,prop=repart,ep".to_string(),
                ..SweepSpec::default()
            },
            false,
            |_| (),
        )
        .unwrap();
    assert!(!first.cache_hit);

    // Same sweep with the tuning params reordered: canonical labels make it
    // the same fingerprint, hence a cache hit without executing.
    let second = client
        .submit(
            SweepSpec {
                apps: "jacobi".to_string(),
                policies: "dfifo,RGP+LAS:prop=repart,w=512,scheme=rb,ep".to_string(),
                ..SweepSpec::default()
            },
            false,
            |_| (),
        )
        .unwrap();
    assert!(
        second.cache_hit,
        "equivalent spellings must share one entry"
    );
    assert_eq!(second.report_json, first.report_json);

    let stats = client.stats().unwrap();
    assert_eq!(stats.jobs_submitted, 1);
    assert_eq!(stats.report_cache_entries, 1);

    handle.shutdown();
    handle.join();
}

#[test]
fn malformed_requests_get_structured_errors_and_the_connection_survives() {
    let handle = serve(ServeConfig::default()).unwrap();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let recv = |reader: &mut BufReader<TcpStream>| {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        Response::from_line(line.trim_end()).unwrap()
    };

    // Not JSON at all, an unknown envelope, and a bad spec field — each gets
    // a structured Error and the connection keeps working.
    for garbage in [
        "this is not json",
        r#"{"LaunchMissiles": {}}"#,
        r#"{"SubmitSweep": {"spec": {"scale": "huge"}}}"#,
    ] {
        writer.write_all(format!("{garbage}\n").as_bytes()).unwrap();
        match recv(&mut reader) {
            Response::Error { message } => assert!(!message.is_empty()),
            other => panic!("expected Error for {garbage:?}, got {other:?}"),
        }
    }

    // The same connection still serves valid requests.
    writer.write_all(b"\"Stats\"\n").unwrap();
    match recv(&mut reader) {
        Response::Stats(stats) => {
            // The bad-spec line parses as a request (the envelope is fine)
            // but fails resolution, so only two lines count as malformed.
            assert_eq!(stats.requests_malformed, 2);
            assert_eq!(stats.jobs_submitted, 0);
        }
        other => panic!("expected Stats, got {other:?}"),
    }

    handle.shutdown();
    handle.join();
}

/// The service runs the simulator only. The threaded backend's makespans
/// are wall-clock, and `proc` is no backend of the sweep grammar (a pool is
/// `figure1`'s): each is refused with a structured error, caches nothing,
/// and the daemon serves the next sweep.
#[test]
fn a_threaded_submission_is_refused_and_nothing_is_cached() {
    // One pool worker: a submission that reached it and wedged it would
    // leave the default sweep after it unanswered.
    let config = ServeConfig {
        pool: 1,
        ..ServeConfig::default()
    };
    let handle = serve(config).unwrap();
    // An answer slower than this is a hang, not a refusal: every read past
    // it fails with `ClientError::Timeout` instead of waiting.
    let addr = handle.addr().to_string();
    let mut client = ServeClient::connect_with_timeout(&addr, Duration::from_secs(5)).unwrap();
    let spec_of = |backend: &str| SweepSpec {
        backend: backend.to_string(),
        ..SweepSpec::default()
    };
    let grammar = |backend: &str| spec_of(backend).resolve().expect_err(backend);
    for (backend, refusal) in [
        ("threaded", THREADED_REFUSAL.to_string()),
        ("proc", grammar("proc")),
        ("proc:w=3", grammar("proc:w=3")),
    ] {
        assert!(refusal.contains(backend), "{backend}: {refusal}");
        match client.submit(spec_of(backend), false, |_| ()) {
            Err(ClientError::Server(message)) => assert_eq!(message, refusal, "{backend}"),
            other => panic!("{backend}: expected a structured error, got {other:?}"),
        }
        let stats = client.stats().unwrap();
        assert_eq!(
            (stats.jobs_submitted, stats.report_cache_entries),
            (0, 0),
            "{backend}: {stats:?}"
        );
    }
    let outcome = client.submit(SweepSpec::default(), false, |_| ()).unwrap();
    assert!(!outcome.cache_hit);
    assert!(outcome.report_json == include_str!("../../../BENCH_figure1_tiny.json"));
    handle.shutdown();
    handle.join();
}

#[test]
fn service_reports_match_directly_executed_experiments_byte_for_byte() {
    let specs = Arc::new(SpecCache::new());
    let handle = serve_with_specs(ServeConfig::default(), Arc::clone(&specs)).unwrap();
    let mut client = ServeClient::connect(&handle.addr().to_string()).unwrap();
    let outcome = client.submit(tiny_spec(), false, |_| ()).unwrap();
    handle.shutdown();
    handle.join();

    let direct = tiny_spec().resolve().unwrap();
    let plan = direct
        .experiment(Topology::bullion_s16(), Arc::new(SpecCache::new()))
        .plan();
    let report = plan.execute(1);
    assert_eq!(
        outcome.report_json,
        report.to_json_string(),
        "the service path must reproduce the direct path byte-for-byte"
    );
    assert_eq!(outcome.executed_cells as usize, report.cells.len());
}

#[test]
fn progress_streams_every_cell_to_subscribers_that_ask() {
    let handle = serve(ServeConfig::default()).unwrap();
    let mut client = ServeClient::connect(&handle.addr().to_string()).unwrap();

    let mut seen = Vec::new();
    let outcome = client
        .submit(tiny_spec(), true, |progress| {
            if let Response::Progress {
                completed, total, ..
            } = progress
            {
                seen.push((*completed, *total));
            }
        })
        .unwrap();

    let total = total_cells(&tiny_spec()) as u64;
    assert_eq!(seen.len() as u64, outcome.executed_cells);
    assert_eq!(seen.last().map(|&(c, _)| c), Some(total));
    assert!(seen.iter().all(|&(_, t)| t == total));

    // A non-streaming repeat must not receive Progress lines (the submit
    // helper errors on any unrequested Progress).
    let again = client.submit(tiny_spec(), false, |_| ()).unwrap();
    assert!(again.cache_hit);

    handle.shutdown();
    handle.join();
}

#[test]
fn status_tracks_jobs_and_cancel_rejects_finished_or_unknown_ones() {
    let handle = serve(ServeConfig::default()).unwrap();
    let addr = handle.addr().to_string();
    let mut client = ServeClient::connect(&addr).unwrap();

    match client.status(999) {
        Err(e) => assert!(e.to_string().contains("unknown job")),
        Ok(other) => panic!("expected an error, got {other:?}"),
    }

    let outcome = client.submit(tiny_spec(), false, |_| ()).unwrap();
    match client.status(outcome.job).unwrap() {
        Response::JobStatus {
            state,
            completed,
            total,
            ..
        } => {
            assert_eq!(state, "done");
            assert_eq!(completed, total);
        }
        other => panic!("expected JobStatus, got {other:?}"),
    }
    // A finished job and a cache hit (born finished) live on only as
    // history records; cancelling either is refused the same way.
    let repeat = client.submit(tiny_spec(), false, |_| ()).unwrap();
    assert!(repeat.cache_hit);
    assert_ne!(repeat.job, outcome.job);
    for job in [outcome.job, repeat.job] {
        match client.cancel(job) {
            Err(e) => assert!(
                e.to_string()
                    .contains("is done; only queued or running jobs can be cancelled"),
                "{e}"
            ),
            Ok(other) => panic!("expected an error, got {other:?}"),
        }
    }
    match client.status(0) {
        Err(e) => assert!(e.to_string().contains("unknown job 0"), "{e}"),
        Ok(other) => panic!("expected an error, got {other:?}"),
    }

    handle.shutdown();
    handle.join();
}

#[test]
fn cancelling_a_sweep_mid_flight_frees_its_queued_cells() {
    // A batch is one workload's cells: the single worker takes the whole
    // one-workload busy sweep as one batch, so the doomed sweep
    // deterministically stays queued until the cancel lands.
    let handle = serve(ServeConfig::default()).unwrap();
    let addr = handle.addr().to_string();

    // Occupy the pool with a slower sweep, confirmed running by its first
    // streamed Progress line.
    let busy_spec = SweepSpec {
        apps: "jacobi".to_string(),
        scale: "small".to_string(),
        reps: 24,
        ..SweepSpec::default()
    };
    let busy_total = total_cells(&busy_spec) as u64;
    let mut busy = ServeClient::connect(&addr).unwrap();
    busy.send(&Request::SubmitSweep {
        spec: busy_spec,
        stream: true,
    })
    .unwrap();
    let busy_job = match busy.recv().unwrap() {
        Response::Submitted { job, .. } => job,
        other => panic!("expected Submitted, got {other:?}"),
    };
    match busy.recv().unwrap() {
        Response::Progress { .. } => {}
        other => panic!("expected Progress, got {other:?}"),
    }

    // Another slow sweep (different seed, so no shared cells) enters the
    // round-robin rotation; cancel it long before it can finish.
    let doomed_spec = SweepSpec {
        scale: "small".to_string(),
        seed: 99,
        ..SweepSpec::default()
    };
    let doomed_total = total_cells(&doomed_spec) as u64;
    let mut doomed = ServeClient::connect(&addr).unwrap();
    doomed
        .send(&Request::SubmitSweep {
            spec: doomed_spec.clone(),
            stream: false,
        })
        .unwrap();
    let doomed_job = match doomed.recv().unwrap() {
        Response::Submitted { job, .. } => job,
        other => panic!("expected Submitted, got {other:?}"),
    };
    assert_ne!(doomed_job, busy_job);

    let mut canceller = ServeClient::connect(&addr).unwrap();
    match canceller.cancel(doomed_job).unwrap() {
        Response::Cancelled { job } => assert_eq!(job, doomed_job),
        other => panic!("expected Cancelled, got {other:?}"),
    }
    // The blocked submitter receives the terminal Cancelled response.
    match doomed.recv().unwrap() {
        Response::Cancelled { job } => assert_eq!(job, doomed_job),
        other => panic!("expected Cancelled, got {other:?}"),
    }

    // The cancel took the job out of the coalescing index: an identical
    // resubmission starts a fresh job instead of joining the dead one, and
    // a second identical submission coalesces onto that fresh job.
    let mut resubmitters = Vec::new();
    for coalesced in [0, 1] {
        let mut again = ServeClient::connect(&addr).unwrap();
        again
            .send(&Request::SubmitSweep {
                spec: doomed_spec.clone(),
                stream: false,
            })
            .unwrap();
        match again.recv().unwrap() {
            Response::Submitted { job, cached } => {
                assert!(!cached);
                assert_eq!(job, doomed_job + 1, "a fresh job, shared by both");
            }
            other => panic!("expected Submitted, got {other:?}"),
        }
        let stats = canceller.stats().unwrap();
        assert_eq!(stats.jobs_coalesced, coalesced);
        assert_eq!(stats.jobs_submitted, 3);
        assert_eq!(stats.jobs_in_flight, 2, "the busy job and the fresh one");
        resubmitters.push(again);
    }

    // Shut down while the only worker is still inside the busy sweep's one
    // batch: the busy sweep finishes normally ...
    handle.shutdown();
    loop {
        match busy.recv().unwrap() {
            Response::Progress { .. } => continue,
            Response::Report { cache_hit, .. } => {
                assert!(!cache_hit);
                break;
            }
            other => panic!("expected Progress or Report, got {other:?}"),
        }
    }

    // ... and the drain fails the fresh job, which never got a worker.
    for mut again in resubmitters {
        match again.recv().unwrap() {
            Response::Error { message } => assert!(message.contains("shut down"), "{message}"),
            other => panic!("expected Error, got {other:?}"),
        }
    }
    handle.join();

    // Connections outlive the listener, so the counters are still readable.
    let stats = canceller.stats().unwrap();
    assert_eq!(stats.jobs_cancelled, 1);
    assert_eq!(stats.jobs_completed, 1);
    assert_eq!(stats.jobs_failed, 1);
    assert_eq!(stats.jobs_in_flight, 0, "the drain empties the index");
    assert_eq!(stats.jobs_tracked, 3, "done, cancelled and failed records");
    for (job, expected) in [
        (busy_job, "done"),
        (doomed_job, "cancelled"),
        (doomed_job + 1, "failed"),
    ] {
        match canceller.status(job).unwrap() {
            Response::JobStatus { state, .. } => assert_eq!(state, expected),
            other => panic!("expected JobStatus, got {other:?}"),
        }
    }
    // Cancellation freed the doomed sweep's queued cells: far fewer cells
    // executed than the two sweeps would have taken together (the doomed
    // job ran at most the few batches dispatched before the cancel).
    assert!(
        stats.executed_cells_total < busy_total + doomed_total,
        "cancel must free queued cells ({} executed)",
        stats.executed_cells_total
    );
}

#[test]
fn overlapping_sweeps_hydrate_shared_cells_and_execute_only_novel_ones() {
    let handle = serve(ServeConfig::default()).unwrap();
    let addr = handle.addr().to_string();
    let mut client = ServeClient::connect(&addr).unwrap();

    // Seed the cell cache with the default all-apps sweep (4 policy columns
    // including the appended LAS baseline).
    let base = client.submit(SweepSpec::default(), false, |_| ()).unwrap();
    let base_cells = total_cells(&SweepSpec::default());
    assert!(!base.cache_hit);
    assert_eq!(base.executed_cells as usize, base_cells);
    assert_eq!(base.hydrated_cells, 0);

    // Adding one policy column executes exactly apps × reps novel cells;
    // every cell of the original columns hydrates from the cell cache.
    let wider_spec = SweepSpec {
        policies: format!("{DEFAULT_POLICIES},rgp-las:prop=repart"),
        ..SweepSpec::default()
    };
    let wider_resolved = wider_spec.resolve().unwrap();
    let wider_cells = total_cells(&wider_spec);
    let wider = client.submit(wider_spec, false, |_| ()).unwrap();
    assert!(!wider.cache_hit, "a different sweep shape is not a repeat");
    let novel = wider_resolved.apps.len() * wider_resolved.reps;
    assert_eq!(wider.executed_cells as usize, novel);
    assert_eq!(wider.hydrated_cells as usize, wider_cells - novel);

    // The report reassembled from hydrated + fresh cells is byte-identical
    // to executing the widened sweep directly.
    let direct_plan = wider_resolved
        .experiment(Topology::bullion_s16(), Arc::new(SpecCache::new()))
        .plan();
    let direct = direct_plan.execute(1);
    assert_eq!(wider.report_json, direct.to_json_string());

    // An app subset of the cached sweep hydrates completely: a fresh job
    // id and report, zero executions.
    let subset_spec = SweepSpec {
        apps: "jacobi,nstream".to_string(),
        ..SweepSpec::default()
    };
    let subset_resolved = subset_spec.resolve().unwrap();
    let subset_cells = total_cells(&subset_spec);
    let subset = client.submit(subset_spec, false, |_| ()).unwrap();
    assert!(!subset.cache_hit);
    assert_eq!(subset.executed_cells, 0, "every subset cell must hydrate");
    assert_eq!(subset.hydrated_cells as usize, subset_cells);
    let direct_plan = subset_resolved
        .experiment(Topology::bullion_s16(), Arc::new(SpecCache::new()))
        .plan();
    let direct = direct_plan.execute(1);
    assert_eq!(subset.report_json, direct.to_json_string());

    let stats = client.stats().unwrap();
    assert_eq!(stats.executed_cells_total as usize, base_cells + novel);
    assert_eq!(
        stats.cells_hydrated_total,
        wider.hydrated_cells + subset.hydrated_cells
    );
    assert_eq!(
        stats.cell_cache_entries as usize,
        base_cells + novel,
        "each executed cell is cached exactly once"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn pool_workers_keep_a_tiny_sweep_flowing_past_a_big_one() {
    let handle = serve(ServeConfig {
        pool: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();

    // A slow sweep occupies the pool, confirmed running by its first
    // streamed Progress line. High reps keep it in flight long enough for
    // the tiny sweep to overtake it even in release builds.
    let mut big = ServeClient::connect(&addr).unwrap();
    big.send(&Request::SubmitSweep {
        spec: SweepSpec {
            scale: "small".to_string(),
            reps: 8,
            ..SweepSpec::default()
        },
        stream: true,
    })
    .unwrap();
    let big_job = match big.recv().unwrap() {
        Response::Submitted { job, .. } => job,
        other => panic!("expected Submitted, got {other:?}"),
    };
    match big.recv().unwrap() {
        Response::Progress { .. } => {}
        other => panic!("expected Progress, got {other:?}"),
    }

    // A tiny sweep submitted afterwards completes while the big one is
    // still in flight — round-robin batching, not FIFO job order.
    let mut small = ServeClient::connect(&addr).unwrap();
    let outcome = small.submit(tiny_spec(), false, |_| ()).unwrap();
    assert!(!outcome.cache_hit);
    assert!(outcome.executed_cells > 0);

    let mut observer = ServeClient::connect(&addr).unwrap();
    match observer.status(big_job).unwrap() {
        Response::JobStatus { state, .. } => {
            assert_eq!(
                state, "running",
                "the big sweep must still be in flight when the tiny one finishes"
            );
        }
        other => panic!("expected JobStatus, got {other:?}"),
    }
    assert_eq!(observer.stats().unwrap().pool_workers, 2);

    // The big sweep still completes normally.
    loop {
        match big.recv().unwrap() {
            Response::Progress { .. } => continue,
            Response::Report { cache_hit, .. } => {
                assert!(!cache_hit);
                break;
            }
            other => panic!("expected Progress or Report, got {other:?}"),
        }
    }

    handle.shutdown();
    handle.join();
}

#[test]
fn submissions_bounce_with_overloaded_when_the_cell_quota_is_exceeded() {
    // A quota smaller than the default sweep's cell count: the all-apps
    // sweep bounces, a single-app sweep still fits.
    let handle = serve(ServeConfig {
        max_queued_cells: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    let mut client = ServeClient::connect(&addr).unwrap();

    match client.submit(SweepSpec::default(), false, |_| ()) {
        Err(ClientError::Overloaded {
            queued_cells,
            limit,
        }) => {
            assert_eq!(queued_cells, 0);
            assert_eq!(limit, 4);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }

    // The connection survives, and a sweep within the quota is admitted.
    let ok = client
        .submit(
            SweepSpec {
                apps: "jacobi".to_string(),
                ..SweepSpec::default()
            },
            false,
            |_| (),
        )
        .unwrap();
    assert!(!ok.cache_hit);
    assert_eq!(ok.executed_cells, 4);

    let stats = client.stats().unwrap();
    assert_eq!(stats.jobs_rejected, 1);
    assert_eq!(stats.jobs_submitted, 1);

    handle.shutdown();
    handle.join();
}

#[test]
fn evicted_reports_are_freed_once_their_jobs_are_done() {
    let handle = serve(ServeConfig {
        cache_capacity: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = ServeClient::connect(&handle.addr().to_string()).unwrap();

    // Ten distinct sweeps through a two-entry report cache; after each, the
    // most recently used cache entry is the report just served.
    let mut reports = Vec::new();
    for seed in 0..10 {
        let spec = SweepSpec {
            apps: "jacobi".to_string(),
            seed,
            ..SweepSpec::default()
        };
        let outcome = client.submit(spec, false, |_| ()).unwrap();
        assert!(!outcome.cache_hit);
        let (_, newest) = handle.cached_reports().pop().unwrap();
        assert_eq!(newest.bytes, outcome.report_json);
        reports.push(Arc::downgrade(&newest));
    }

    // Every job is still tracked, yet only the cache keeps reports alive.
    let stats = client.stats().unwrap();
    assert_eq!((stats.jobs_tracked, stats.report_cache_evictions), (10, 8));
    let alive = reports.iter().filter(|r| r.upgrade().is_some()).count();
    assert_eq!(alive, 2, "finished jobs must not pin evicted reports");

    handle.shutdown();
    handle.join();
}

#[test]
fn the_job_table_stays_bounded_however_many_requests_are_served() {
    let config = ServeConfig::default();
    let max_active_jobs = config.max_active_jobs as u64;
    let handle = serve(config).unwrap();
    let mut client = ServeClient::connect(&handle.addr().to_string()).unwrap();

    let first = client.submit(tiny_spec(), false, |_| ()).unwrap();
    assert!(!first.cache_hit);
    let mut last_job = first.job;
    for request in 0..5_000u64 {
        if request % 100 == 0 {
            let novel = SweepSpec {
                seed: 1_000 + request,
                ..tiny_spec()
            };
            assert!(!client.submit(novel, false, |_| ()).unwrap().cache_hit);
        }
        let hit = client.submit(tiny_spec(), false, |_| ()).unwrap();
        assert!(hit.cache_hit);
        last_job = hit.job;
    }

    let stats = client.stats().unwrap();
    assert_eq!((stats.jobs_submitted, stats.report_cache_hits), (51, 5_000));
    assert_eq!(stats.jobs_in_flight, 0);
    assert!(stats.jobs_tracked <= JOB_HISTORY as u64 + max_active_jobs);
    assert_eq!(
        stats.jobs_retired,
        stats.jobs_submitted + stats.report_cache_hits - stats.jobs_tracked,
        "every id handed out is either tracked or retired"
    );

    let status_of = |client: &mut ServeClient, job: u64| match client.status(job) {
        Ok(Response::JobStatus { state, .. }) => state,
        Ok(other) => panic!("expected JobStatus, got {other:?}"),
        Err(e) => e.to_string(),
    };
    assert_eq!(last_job, 5_051);
    assert_eq!(status_of(&mut client, last_job), "done");
    let retired = status_of(&mut client, first.job);
    assert!(retired.contains("job 1 retired"), "{retired}");
    let unknown = status_of(&mut client, last_job + 1 + 7);
    assert!(unknown.contains("unknown job 5059"), "{unknown}");
    // A retired id cannot be cancelled either, and says why.
    match client.cancel(first.job) {
        Err(e) => assert!(e.to_string().contains("job 1 retired"), "{e}"),
        Ok(other) => panic!("expected an error, got {other:?}"),
    }

    handle.shutdown();
    handle.join();
}

#[test]
fn the_report_cache_survives_a_daemon_restart_through_the_cache_file() {
    let dir = std::env::temp_dir().join(format!("numadag-serve-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache_file = dir.join("reports.json").to_string_lossy().into_owned();
    let config = ServeConfig {
        cache_file: Some(cache_file.clone()),
        ..ServeConfig::default()
    };

    // The committed Full baseline: executed, then hit, the same bytes.
    let full = SweepSpec {
        scale: "full".to_string(),
        policies: "dfifo,rgp-las,rgp-las:prop=repart,ep".to_string(),
        ..SweepSpec::default()
    };
    let baseline = include_str!("../../../BENCH_figure1_full.json");

    // First daemon lifetime: execute one sweep, snapshot on shutdown.
    let handle = serve(config.clone()).unwrap();
    let mut client = ServeClient::connect(&handle.addr().to_string()).unwrap();
    let first = client.submit(full.clone(), false, |_| ()).unwrap();
    assert!(!first.cache_hit);
    assert_eq!(first.executed_cells, 40);
    assert_eq!(first.report_json, baseline);
    let hit = client.submit(full.clone(), false, |_| ()).unwrap();
    assert_eq!((hit.cache_hit, hit.executed_cells), (true, 0));
    assert_eq!(hit.report_json, baseline);
    drop(client);
    handle.shutdown();
    handle.join();
    assert!(
        std::fs::metadata(&cache_file).is_ok(),
        "join() must write the snapshot"
    );

    // Second lifetime, same cache file: the sweep answers from the reloaded
    // cache, byte-identical, without executing a single cell.
    let handle = serve(config).unwrap();
    let mut client = ServeClient::connect(&handle.addr().to_string()).unwrap();
    let again = client.submit(full, false, |_| ()).unwrap();
    assert!(again.cache_hit, "restarted daemon must remember the report");
    assert_eq!(again.executed_cells, 0);
    assert_eq!(again.report_json, baseline);
    let stats = client.stats().unwrap();
    assert_eq!(stats.jobs_submitted, 0, "nothing may have executed");
    assert_eq!(stats.report_cache_hits, 1);
    drop(client);
    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn poisoned_frames_close_the_connection_cleanly_and_the_server_survives() {
    let handle = serve(ServeConfig::default()).unwrap();

    // Invalid UTF-8: the frame layer rejects it before request parsing. The
    // server answers with a structured error (best effort — the reset may
    // beat it) and closes; it must never panic.
    {
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(b"\xff\xfe{not utf8}\n").unwrap();
        let mut line = String::new();
        if reader.read_line(&mut line).is_ok() && !line.is_empty() {
            match Response::from_line(line.trim_end()).unwrap() {
                Response::Error { message } => assert!(message.contains("bad frame")),
                other => panic!("expected Error, got {other:?}"),
            }
        }
        // Either way the server hung up on us.
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap_or(0), 0);
    }

    // A line past the 64 MiB frame limit: same story, and the server must
    // not buffer it all first.
    {
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let chunk = vec![b'a'; 1 << 20];
        for _ in 0..65 {
            if writer.write_all(&chunk).is_err() {
                break; // server already gave up on us, as it should
            }
        }
        let _ = writer.write_all(b"\n");
        let mut line = String::new();
        let _ = reader.read_line(&mut line); // error frame, or reset — both fine
    }

    // The daemon is still alive and serving.
    let mut client = ServeClient::connect(&handle.addr().to_string()).unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.requests_malformed >= 1);
    handle.shutdown();
    handle.join();
}

#[test]
fn a_server_that_never_answers_times_out_instead_of_hanging() {
    // A bound listener that never accepts: connects succeed (kernel
    // backlog), but no byte ever comes back.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();

    let mut client =
        ServeClient::connect_with_timeout(&addr, std::time::Duration::from_millis(300)).unwrap();
    let started = std::time::Instant::now();
    match client.stats() {
        Err(ClientError::Timeout) => {}
        other => panic!("expected Timeout, got {other:?}"),
    }
    assert!(
        started.elapsed() < std::time::Duration::from_secs(10),
        "the deadline must actually bound the wait"
    );
    drop(listener);
}
