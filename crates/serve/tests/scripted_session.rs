//! One scripted client session on a one-worker daemon, pinned response by
//! response: every line the daemon answers to a fixed request sequence, and
//! its counters at the end. A change to how the daemon keeps its job table,
//! queue or caches that moves any answer or counter fails here.

use std::sync::Arc;

use numadag_kernels::SpecCache;
use numadag_serve::client::ServeClient;
use numadag_serve::protocol::{Request, Response, ServerStats, SweepSpec};
use numadag_serve::server::{serve_with_specs, ServeConfig};

/// Two Tiny applications under the default policies: 8 cells.
fn tiny(policies: &str) -> SweepSpec {
    SweepSpec {
        apps: "jacobi,nstream".to_string(),
        policies: policies.to_string(),
        ..SweepSpec::default()
    }
}

/// What the session pins of a response: itself, with a report's bytes
/// replaced by their FNV-1a hash.
fn pinned(response: Response) -> Response {
    match response {
        Response::Report {
            job,
            cache_hit,
            executed_cells,
            hydrated_cells,
            report_json,
        } => {
            let hash = report_json
                .bytes()
                .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
                    (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
                });
            Response::Report {
                job,
                cache_hit,
                executed_cells,
                hydrated_cells,
                report_json: format!("{hash:016x}"),
            }
        }
        other => other,
    }
}

/// Sends `request` and reads responses up to the one that ends it.
fn exchange(client: &mut ServeClient, request: Request, seen: &mut Vec<Response>) {
    client.send(&request).unwrap();
    let submit = matches!(request, Request::SubmitSweep { .. });
    loop {
        let response = pinned(client.recv().unwrap());
        let more = submit
            && matches!(
                response,
                Response::Submitted { .. } | Response::Progress { .. }
            );
        seen.push(response);
        if !more {
            break;
        }
    }
}

/// The session's answers, one wire line each, as the daemon of the commit
/// before its state machine was rewritten wrote them.
const EXPECTED: &[&str] = &[
    r#"{"Submitted":{"job":1,"cached":false}}"#,
    r#"{"Progress":{"job":1,"completed":1,"total":8,"application":"Jacobi","policy":"DFIFO","repetition":0}}"#,
    r#"{"Progress":{"job":1,"completed":2,"total":8,"application":"Jacobi","policy":"RGP+LAS","repetition":0}}"#,
    r#"{"Progress":{"job":1,"completed":3,"total":8,"application":"Jacobi","policy":"EP","repetition":0}}"#,
    r#"{"Progress":{"job":1,"completed":4,"total":8,"application":"Jacobi","policy":"LAS","repetition":0}}"#,
    r#"{"Progress":{"job":1,"completed":5,"total":8,"application":"NStream","policy":"DFIFO","repetition":0}}"#,
    r#"{"Progress":{"job":1,"completed":6,"total":8,"application":"NStream","policy":"RGP+LAS","repetition":0}}"#,
    r#"{"Progress":{"job":1,"completed":7,"total":8,"application":"NStream","policy":"EP","repetition":0}}"#,
    r#"{"Progress":{"job":1,"completed":8,"total":8,"application":"NStream","policy":"LAS","repetition":0}}"#,
    r#"{"Report":{"job":1,"cache_hit":false,"executed_cells":8,"hydrated_cells":0,"report_json":"b606af69d7ac4565"}}"#,
    r#"{"Submitted":{"job":2,"cached":true}}"#,
    r#"{"Report":{"job":2,"cache_hit":true,"executed_cells":0,"hydrated_cells":0,"report_json":"b606af69d7ac4565"}}"#,
    r#"{"Submitted":{"job":3,"cached":true}}"#,
    r#"{"Report":{"job":3,"cache_hit":true,"executed_cells":0,"hydrated_cells":0,"report_json":"b606af69d7ac4565"}}"#,
    r#"{"Submitted":{"job":4,"cached":false}}"#,
    r#"{"Progress":{"job":4,"completed":9,"total":10,"application":"Jacobi","policy":"RGP+LAS:prop=repart","repetition":0}}"#,
    r#"{"Progress":{"job":4,"completed":10,"total":10,"application":"NStream","policy":"RGP+LAS:prop=repart","repetition":0}}"#,
    r#"{"Report":{"job":4,"cache_hit":false,"executed_cells":2,"hydrated_cells":8,"report_json":"87a57a17c978f595"}}"#,
    r#"{"Submitted":{"job":5,"cached":false}}"#,
    r#"{"Report":{"job":5,"cache_hit":false,"executed_cells":0,"hydrated_cells":4,"report_json":"6f6c7ca0c1dc703f"}}"#,
    r#"{"Overloaded":{"queued_cells":0,"limit":16}}"#,
    r#"{"Error":{"message":"unknown job 0"}}"#,
    r#"{"JobStatus":{"job":1,"state":"done","completed":8,"total":8}}"#,
    r#"{"JobStatus":{"job":2,"state":"done","completed":8,"total":8}}"#,
    r#"{"JobStatus":{"job":3,"state":"done","completed":8,"total":8}}"#,
    r#"{"JobStatus":{"job":4,"state":"done","completed":10,"total":10}}"#,
    r#"{"JobStatus":{"job":5,"state":"done","completed":4,"total":4}}"#,
    r#"{"Error":{"message":"unknown job 99"}}"#,
    r#"{"Error":{"message":"unknown job 0"}}"#,
    r#"{"Error":{"message":"job 1 is done; only queued or running jobs can be cancelled"}}"#,
    r#"{"Error":{"message":"unknown job 99"}}"#,
    r#"{"Error":{"message":"server is shutting down"}}"#,
];

#[test]
fn a_scripted_session_answers_as_the_parent_did() {
    let handle = serve_with_specs(
        ServeConfig {
            max_queued_cells: 16,
            ..ServeConfig::default()
        },
        Arc::new(SpecCache::new()),
    )
    .unwrap();
    let mut client = ServeClient::connect(&handle.addr().to_string()).unwrap();
    let mut seen = Vec::new();
    let submit = |spec: SweepSpec, stream: bool| Request::SubmitSweep { spec, stream };
    let script = [
        // Novel, streamed: every executed cell reports progress.
        submit(tiny("dfifo,rgp-las,ep"), true),
        // An exact repeat and a re-spelled one: report-cache hits.
        submit(tiny("dfifo,rgp-las,ep"), false),
        submit(tiny("dfifo,DFIFO,rgp-las,ep"), false),
        // One more policy column: 8 cells hydrate, 2 execute.
        submit(tiny("dfifo,rgp-las,ep,rgp-las:prop=repart"), true),
        // A subset: every cell hydrates at admission.
        submit(
            SweepSpec {
                apps: "jacobi".to_string(),
                ..SweepSpec::default()
            },
            true,
        ),
        // 24 novel cells against a quota of 16: bounced.
        submit(
            SweepSpec {
                seed: 7,
                reps: 3,
                ..tiny("dfifo,rgp-las,ep")
            },
            false,
        ),
    ];
    for request in script {
        exchange(&mut client, request, &mut seen);
    }
    for job in [0, 1, 2, 3, 4, 5, 99] {
        exchange(&mut client, Request::Status { job }, &mut seen);
    }
    for job in [0, 1, 99] {
        exchange(&mut client, Request::CancelJob { job }, &mut seen);
    }
    let stats = client.stats().unwrap();

    // Connections outlive the daemon: the counters stay readable and
    // unmoved, and a submission is refused.
    handle.shutdown();
    handle.join();
    assert_eq!(client.stats().unwrap(), stats);
    exchange(
        &mut client,
        submit(tiny("dfifo,rgp-las,ep"), false),
        &mut seen,
    );

    let expected: Vec<Response> = EXPECTED
        .iter()
        .map(|line| Response::from_line(line).unwrap())
        .collect();
    assert_eq!(seen, expected);
    assert_eq!(
        stats,
        ServerStats {
            jobs_submitted: 3,
            jobs_coalesced: 0,
            jobs_completed: 3,
            jobs_cancelled: 0,
            jobs_failed: 0,
            jobs_rejected: 1,
            requests_malformed: 0,
            executed_cells_total: 10,
            cells_hydrated_total: 12,
            report_cache_entries: 3,
            report_cache_capacity: 64,
            report_cache_hits: 2,
            report_cache_misses: 3,
            report_cache_evictions: 0,
            cell_cache_entries: 10,
            cell_cache_capacity: 4096,
            cell_cache_hits: 12,
            cell_cache_misses: 34,
            cell_cache_evictions: 0,
            pool_workers: 1,
            spec_cache_builds: 2,
            spec_cache_hits: 7,
            spec_cache_entries: 2,
            jobs_in_flight: 0,
            jobs_tracked: 5,
            jobs_retired: 0,
        }
    );
}
