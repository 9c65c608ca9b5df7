//! `serve-client` — CLI client of the sweep service (used by CI).
//!
//! ```text
//! serve-client --addr HOST:PORT [--timeout SECS] submit [--apps LIST]
//!              [--scale S] [--policies LIST] [--backend B] [--seed N]
//!              [--reps N] [--stream] [--json PATH]
//! serve-client --addr HOST:PORT [--timeout SECS] status JOB
//! serve-client --addr HOST:PORT [--timeout SECS] stats
//! serve-client --addr HOST:PORT [--timeout SECS] cancel JOB
//! serve-client --addr HOST:PORT [--timeout SECS] shutdown
//! ```
//!
//! The sweep flags of `submit` are `figure1`'s, plus `--apps`: one parser
//! (`SweepSpec::set_flag`) reads them for both.
//!
//! `--timeout SECS` bounds both the connect and every read: a server that
//! accepts but never answers (or a firewalled address) produces a
//! `timed out waiting for the server` error and exit code 1 instead of a
//! hung client. Without the flag, the client waits indefinitely — the right
//! default for long `submit` jobs.
//!
//! `submit` blocks until the report arrives, prints a one-line summary
//! (`job=1 cache_hit=true executed_cells=0 hydrated_cells=0`) on stdout
//! and, with `--json`,
//! writes the exact report bytes to disk — byte-identical to `figure1
//! --json` output for the same sweep, so `cmp`/`bench-diff` against the
//! committed baselines both work. `--stream` echoes per-cell progress on
//! stderr. Malformed arguments exit 2; connection or server errors exit 1.

use numadag_serve::client::ServeClient;
use numadag_serve::protocol::{Response, SweepSpec};

fn usage_error(message: String) -> ! {
    eprintln!("error: {message}");
    eprintln!(
        "usage: serve-client --addr HOST:PORT [--timeout SECS] \
         submit [--apps LIST] [--scale S] [--policies LIST] [--backend B] \
         [--seed N] [--reps N] [--stream] [--json PATH] \
         | status JOB | stats | cancel JOB | shutdown"
    );
    std::process::exit(2);
}

fn flag_value(args: &[String], i: usize) -> &str {
    match args.get(i + 1) {
        Some(value) => value,
        None => usage_error(format!("{} needs a value", args[i])),
    }
}

fn connect(addr: &str, timeout: Option<std::time::Duration>) -> ServeClient {
    let connected = match timeout {
        Some(timeout) => ServeClient::connect_with_timeout(addr, timeout),
        None => ServeClient::connect(addr).map_err(Into::into),
    };
    match connected {
        Ok(client) => client,
        Err(e) => {
            eprintln!("error: could not connect to {addr}: {e}");
            std::process::exit(1);
        }
    }
}

fn fail(e: impl std::fmt::Display) -> ! {
    eprintln!("error: {e}");
    std::process::exit(1);
}

fn parse_job(value: &str) -> u64 {
    match value.parse() {
        Ok(job) => job,
        Err(_) => usage_error(format!("job id must be an unsigned integer, got {value:?}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr: Option<String> = None;
    let mut timeout: Option<std::time::Duration> = None;
    let mut i = 0;
    while i < args.len() && args[i].starts_with("--") {
        match args[i].as_str() {
            "--addr" => addr = Some(flag_value(&args, i).to_string()),
            "--timeout" => match flag_value(&args, i).parse::<u64>() {
                Ok(secs) if secs > 0 => timeout = Some(std::time::Duration::from_secs(secs)),
                _ => usage_error(format!(
                    "--timeout needs a positive number of seconds, got {:?}",
                    flag_value(&args, i)
                )),
            },
            other => usage_error(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    let Some(addr) = addr else {
        usage_error("--addr HOST:PORT is required".to_string());
    };
    let Some(command) = args.get(i) else {
        usage_error("missing command".to_string());
    };
    let rest = &args[i + 1..];

    match command.as_str() {
        "submit" => run_submit(&addr, timeout, rest),
        "status" => {
            let job = parse_job(rest.first().map(String::as_str).unwrap_or_else(|| {
                usage_error("status needs a job id".to_string());
            }));
            let mut client = connect(&addr, timeout);
            match client.status(job) {
                Ok(Response::JobStatus {
                    job,
                    state,
                    completed,
                    total,
                }) => println!("job={job} state={state} completed={completed} total={total}"),
                Ok(other) => fail(format!("unexpected response {other:?}")),
                Err(e) => fail(e),
            }
        }
        "stats" => {
            let mut client = connect(&addr, timeout);
            match client.stats() {
                Ok(stats) => {
                    let pretty =
                        serde_json::to_string_pretty(&stats).expect("stats are always encodable");
                    println!("{pretty}");
                }
                Err(e) => fail(e),
            }
        }
        "cancel" => {
            let job = parse_job(rest.first().map(String::as_str).unwrap_or_else(|| {
                usage_error("cancel needs a job id".to_string());
            }));
            let mut client = connect(&addr, timeout);
            match client.cancel(job) {
                Ok(Response::Cancelled { job }) => println!("job={job} cancelled"),
                Ok(other) => fail(format!("unexpected response {other:?}")),
                Err(e) => fail(e),
            }
        }
        "shutdown" => {
            let mut client = connect(&addr, timeout);
            match client.shutdown() {
                Ok(()) => println!("server shutting down"),
                Err(e) => fail(e),
            }
        }
        other => usage_error(format!("unknown command {other:?}")),
    }
}

fn run_submit(addr: &str, timeout: Option<std::time::Duration>, args: &[String]) {
    let mut spec = SweepSpec::default();
    let mut stream = false;
    let mut json_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--stream" => {
                stream = true;
                i += 1;
                continue;
            }
            "--json" => json_path = Some(flag_value(args, i).to_string()),
            flag => {
                if let Err(e) = spec.set_flag(flag, args.get(i + 1).map(String::as_str)) {
                    usage_error(e);
                }
            }
        }
        i += 2;
    }

    // Validate locally first so spelling mistakes exit 2 (usage) rather
    // than 1 (server error) — the same errors the server would return.
    if let Err(e) = spec.resolve() {
        usage_error(e);
    }

    let mut client = connect(addr, timeout);
    let outcome = client.submit(spec, stream, |progress| {
        if let Response::Progress {
            completed,
            total,
            application,
            policy,
            repetition,
            ..
        } = progress
        {
            eprintln!("[{completed:>3}/{total}] {application} / {policy} / rep {repetition}");
        }
    });
    match outcome {
        Ok(outcome) => {
            println!(
                "job={} cache_hit={} executed_cells={} hydrated_cells={}",
                outcome.job, outcome.cache_hit, outcome.executed_cells, outcome.hydrated_cells
            );
            if let Some(path) = json_path {
                if let Err(e) = std::fs::write(&path, &outcome.report_json) {
                    fail(format!("could not write {path}: {e}"));
                }
            }
        }
        Err(e) => fail(e),
    }
}
