//! The wire at its edges, over real sockets: a seed an `f64` would round
//! still names its own sweep, and a `Report` line the decoder refuses, or
//! a line for another job, reaches the client as a protocol error that
//! names the problem.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::Arc;

use numadag_kernels::SpecCache;
use numadag_numa::Topology;
use numadag_serve::client::{ClientError, ServeClient, SubmitOutcome};
use numadag_serve::protocol::SweepSpec;
use numadag_serve::server::{serve, ServeConfig};

fn spec_at(seed: u64) -> SweepSpec {
    SweepSpec {
        apps: "jacobi,nstream".to_string(),
        policies: "dfifo".to_string(),
        seed,
        ..SweepSpec::default()
    }
}

/// The report of `spec` run in this process.
fn in_process(spec: &SweepSpec) -> String {
    spec.resolve()
        .unwrap()
        .experiment(Topology::bullion_s16(), Arc::new(SpecCache::new()))
        .plan()
        .execute(1)
        .to_json_string()
}

#[test]
fn a_seed_above_2_pow_53_runs_its_own_sweep_through_the_daemon() {
    // An `f64` rounds 2^53 + 1 to 2^53: the two sweeps differ, and each
    // report served in one session spells its own seed.
    let handle = serve(ServeConfig::default()).unwrap();
    let mut client = ServeClient::connect(&handle.addr().to_string()).unwrap();
    let mut reports = Vec::new();
    for seed in [1u64 << 53, (1 << 53) + 1] {
        let served = client.submit(spec_at(seed), false, |_| ()).unwrap();
        assert_eq!(served.report_json, in_process(&spec_at(seed)));
        let spelled = format!("\n  \"seed\": {seed},\n");
        assert!(served.report_json.contains(&spelled), "{seed}");
        reports.push(served.report_json);
    }
    assert_ne!(reports[0], reports[1]);
    client.shutdown().unwrap();
    handle.join();
}

/// A listener that answers one request with `lines`; returns its address.
fn fake_daemon(lines: String) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut request = String::new();
        BufReader::new(stream).read_line(&mut request).unwrap();
        writer.write_all(lines.as_bytes()).unwrap();
    });
    (addr, server)
}

/// What `submit` (streaming) makes of a daemon that answers with `lines`.
fn submit_to(lines: String) -> Result<SubmitOutcome, ClientError> {
    let (addr, server) = fake_daemon(lines);
    let mut client = ServeClient::connect(&addr).unwrap();
    let outcome = client.submit(spec_at(1), true, |_| ());
    server.join().unwrap();
    outcome
}

#[test]
fn a_bad_report_line_is_a_protocol_error_at_the_client() {
    // `Submitted`, then a `Report` whose stated length runs past its line.
    let outcome = submit_to(
        concat!(
            r#"{"Submitted":{"job":1,"cached":true}}"#,
            "\n",
            r#"{"Report":{"job":1,"cache_hit":true,"executed_cells":0,"hydrated_cells":0,"report_bytes":99,"report":{}}}"#,
            "\n",
        )
        .to_string(),
    );
    match outcome {
        Err(ClientError::Protocol(message)) => assert!(
            message.contains("Report.report: 99 raw bytes run past the input"),
            "{message}"
        ),
        other => panic!("expected a protocol error, got {other:?}"),
    }
}

#[test]
fn a_line_for_another_job_is_a_protocol_error_at_the_client() {
    const SUBMITTED: &str = "{\"Submitted\":{\"job\":1,\"cached\":false}}\n";
    const PROGRESS_2: &str = concat!(
        r#"{"Progress":{"job":2,"completed":1,"total":2,"application":"Jacobi","policy":"DFIFO","repetition":0}}"#,
        "\n",
    );
    const REPORT_2: &str = concat!(
        r#"{"Report":{"job":2,"cache_hit":false,"executed_cells":2,"hydrated_cells":0,"report_bytes":2,"report":{}}}"#,
        "\n",
    );
    for lines in [
        [SUBMITTED, REPORT_2].concat(),
        [SUBMITTED, PROGRESS_2, REPORT_2].concat(),
    ] {
        match submit_to(lines) {
            Err(ClientError::Protocol(message)) => {
                assert_eq!(message, "a line for job 2 answered job 1")
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }
}
