//! Worker side of the proc backend.
//!
//! [`run_worker`] serves one coordinator over one connected socket: it
//! introduces itself with `hello`, then answers each `assign` with one
//! `done` or `error` and each `barrier` with its `barrier_ack` until the
//! coordinator sends `shutdown` or closes the conversation. A worker
//! process is the same executable as the coordinator, re-entered through
//! [`crate::maybe_run_worker`]: the pool self-execs `current_exe()` with a
//! `--proc-worker` argument and passes the coordinator's socket address via
//! the environment, which [`run_worker_from_env`] reads; a worker on a
//! thread is `run_worker` over a socket its launcher connected. All
//! randomness comes from the seeds in the messages, so a cell executed here
//! is byte-identical to the same cell executed by an in-process
//! [`Simulator`].

use std::collections::HashMap;
use std::io::BufReader;
use std::net::TcpStream;

use numadag_core::{make_policy, PolicyKind};
use numadag_runtime::framing::{from_line, read_frame, write_frame, DecodeError, FrameError};
use numadag_runtime::{ExecutionReport, Simulator};
use numadag_tdg::TaskGraphSpec;

use crate::protocol::{Assignment, ToCoordinator, ToWorker};

/// Environment variable carrying the coordinator's `host:port`.
pub const CONNECT_ENV: &str = "NUMADAG_PROC_CONNECT";
/// Environment variable carrying this worker's numeric id.
pub const WORKER_ENV: &str = "NUMADAG_PROC_WORKER";
/// The argv flag the pool appends to re-enter the executable as a worker.
pub(crate) const WORKER_FLAG: &str = "--proc-worker";

/// Runs the worker loop, connecting to the address in [`CONNECT_ENV`] as
/// the worker numbered in [`WORKER_ENV`] (see [`run_worker`]).
pub fn run_worker_from_env() -> Result<(), String> {
    let addr = std::env::var(CONNECT_ENV)
        .map_err(|_| format!("{CONNECT_ENV} is not set: not launched by a worker pool"))?;
    let worker = std::env::var(WORKER_ENV)
        .ok()
        .and_then(|id| id.parse().ok())
        .ok_or_else(|| format!("{WORKER_ENV} is not set or not a number"))?;
    let stream = TcpStream::connect(&addr)
        .map_err(|e| format!("worker {worker}: cannot connect to coordinator {addr}: {e}"))?;
    run_worker(stream, worker)
}

/// Serves the coordinator on `stream` as worker `worker`. Returns when the
/// coordinator sends `shutdown` or closes the socket; errors are
/// connection-level failures (protocol-level problems are reported back to
/// the coordinator as `error` messages instead).
pub fn run_worker(stream: TcpStream, worker: u64) -> Result<(), String> {
    stream
        .set_nodelay(true)
        .map_err(|e| format!("worker {worker}: set_nodelay failed: {e}"))?;
    let writer = stream
        .try_clone()
        .map_err(|e| format!("worker {worker}: cannot clone socket: {e}"))?;
    serve(worker, BufReader::new(stream), writer).map_err(|e| format!("worker {worker}: {e}"))
}

fn serve(
    worker: u64,
    mut reader: BufReader<TcpStream>,
    mut writer: TcpStream,
) -> Result<(), String> {
    let send = |writer: &mut TcpStream, message: &ToCoordinator| -> Result<(), String> {
        write_frame(writer, message).map_err(|e| format!("write to coordinator failed: {e}"))
    };
    let error = |message: String| ToCoordinator::Error { message };

    send(&mut writer, &ToCoordinator::Hello { worker })?;

    // What the `assign`s so far left here: the simulator of the last config
    // one carried (its topology tables and scratch arena built once and
    // reused by every cell under it), and every spec a recipe built.
    let mut simulator: Option<Simulator> = None;
    let mut specs: HashMap<u64, TaskGraphSpec> = HashMap::new();

    loop {
        let line = match read_frame(&mut reader) {
            Ok(Some(line)) => line,
            // Coordinator gone (clean close either way): nothing left to do.
            Ok(None) | Err(FrameError::Io(_)) => return Ok(()),
            // A malformed frame is not anything the coordinator wrote: the
            // line was broken on the way, and framing is lost. Leaving
            // without a reply loses this worker, and the cell is
            // redispatched; the complaint goes to the caller.
            Err(e) => return Err(format!("coordinator sent an unreadable frame: {e}")),
        };
        // So is a line that is not JSON; one that is JSON but refused is
        // answered and the conversation goes on.
        let message = match from_line(&line) {
            Ok(message) => message,
            Err(DecodeError::Syntax(e)) => {
                return Err(format!("coordinator sent invalid JSON: {e}"))
            }
            Err(DecodeError::Refused(e)) => {
                send(&mut writer, &error(format!("bad message: {e}")))?;
                continue;
            }
        };
        match message {
            ToWorker::Assign(assign) => {
                let cell = assign.cell;
                let reply = match run_assign(assign, &mut simulator, &mut specs) {
                    Ok(mut report) => ToCoordinator::Done {
                        cell,
                        events: std::mem::take(&mut report.events),
                        report: Box::new(report),
                    },
                    Err(complaint) => error(complaint),
                };
                send(&mut writer, &reply)?;
            }
            ToWorker::Barrier { epoch } => send(&mut writer, &ToCoordinator::BarrierAck { epoch })?,
            ToWorker::Shutdown => {
                // The process exits next; freeing every spec task by task
                // first would only keep the coordinator waiting to reap it.
                std::mem::forget(specs);
                return Ok(());
            }
        }
    }
}

/// Runs one assignment under the config it carries, else `simulator`, over
/// the spec its recipe builds, else the one `specs` holds under its `fp`.
/// What it carried is kept only once the cell has run, so a refused
/// `assign` leaves the worker as it was. An `Err` is the message of the
/// structured `error` reply (deterministic: another worker would fail the
/// same way).
fn run_assign(
    assign: Assignment,
    simulator: &mut Option<Simulator>,
    specs: &mut HashMap<u64, TaskGraphSpec>,
) -> Result<ExecutionReport, String> {
    let Assignment {
        fp,
        policy,
        policy_seed,
        configure,
        recipe,
        ..
    } = assign;
    let configured = configure.map(|c| c.simulator()).transpose();
    let configured = configured.map_err(|e| format!("bad config: {e}"))?;
    let built = recipe.map(|r| r.build(fp)).transpose();
    let built = built.map_err(|e| format!("bad recipe: {e}"))?;
    let run_on = configured.as_ref().or(simulator.as_ref());
    let run_on = run_on.ok_or("assign before any config was shipped")?;
    let spec = built.as_ref().or_else(|| specs.get(&fp));
    let spec = spec.ok_or_else(|| format!("assign references unknown spec {fp:#x}"))?;
    let kind: PolicyKind = policy.parse().map_err(|e| format!("bad policy: {e}"))?;
    let mut policy = make_policy(kind, spec, policy_seed).ok_or_else(|| {
        format!(
            "policy {policy:?} is unavailable for workload {:?} (no expert placement?)",
            spec.name
        )
    })?;
    let report = run_on.run(spec, policy.as_mut());
    if configured.is_some() {
        *simulator = configured;
    }
    if let Some(spec) = built {
        specs.insert(fp, spec);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;
    use std::time::Duration;

    use numadag_kernels::{Application, ProblemScale};
    use numadag_numa::Topology;
    use numadag_runtime::framing::to_line;
    use numadag_runtime::ExecutionConfig;

    use crate::protocol::{EpochConfig, Recipe};

    /// The coordinator's end of a loopback conversation with `run_worker`.
    struct Coordinator {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    impl Coordinator {
        fn send(&mut self, message: &ToWorker) {
            write_frame(&mut self.writer, message).unwrap();
        }

        /// Sends `line` as written, a frame of its own.
        fn send_line(&mut self, line: &str) {
            self.writer
                .write_all(format!("{line}\n").as_bytes())
                .unwrap();
        }

        fn reply(&mut self) -> ToCoordinator {
            let line = read_frame(&mut self.reader)
                .expect("the worker is still talking")
                .expect("the worker has not hung up");
            from_line(&line).unwrap()
        }

        fn expect_error(&mut self, prefix: &str, complaint: &str) {
            let ToCoordinator::Error { message } = self.reply() else {
                panic!("expected an error reply to {prefix}{complaint}");
            };
            assert!(message.starts_with(prefix), "{message}");
            assert!(message.contains(complaint), "{message}");
        }

        /// Expects the `done` of cell `cell`, its report the in-process one
        /// of [`assign`]'s cell over `app` under [`config`].
        fn expect_done(&mut self, cell: u64, app: Application) {
            let ToCoordinator::Done {
                cell: got,
                report,
                events,
            } = self.reply()
            else {
                panic!("expected done for cell {cell}");
            };
            assert_eq!(got, cell);
            assert!(events.is_empty(), "the config did not ask for events");
            let spec = app.build(ProblemScale::Tiny, 2);
            let mut policy = make_policy("las".parse().unwrap(), &spec, 5).unwrap();
            let want = Simulator::new(config()).run(&spec, policy.as_mut());
            assert_eq!(report.makespan_ns.to_bits(), want.makespan_ns.to_bits());
            assert_eq!(report.traffic, want.traffic);
            assert_eq!(report.deferred_bytes, want.deferred_bytes);
            assert_eq!(report.stolen_tasks, want.stolen_tasks);
        }
    }

    type Worker = std::thread::JoinHandle<Result<(), String>>;

    /// A `run_worker` thread (worker 7), started the way a thread launcher
    /// starts one, and the coordinator's end of its socket, past the
    /// `hello`.
    fn loopback() -> (Coordinator, Worker) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let worker = std::thread::spawn(move || run_worker(stream, 7));
        let (stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let mut coordinator = Coordinator {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        };
        assert!(matches!(
            coordinator.reply(),
            ToCoordinator::Hello { worker: 7 }
        ));
        (coordinator, worker)
    }

    fn shut_down(mut coordinator: Coordinator, worker: Worker) {
        coordinator.send(&ToWorker::Shutdown);
        worker
            .join()
            .expect("the worker never panicked")
            .expect("the worker left cleanly");
    }

    /// The config every good `assign` here runs under.
    fn config() -> ExecutionConfig {
        ExecutionConfig::new(Topology::two_socket(2))
    }

    /// The `assign` of cell `cell` (LAS, seed 5) over `app` at Tiny scale
    /// for two sockets, carrying its recipe and no config.
    fn assign(app: Application, cell: u64) -> Assignment {
        Assignment {
            cell,
            fp: app.build(ProblemScale::Tiny, 2).fingerprint(),
            policy: "las".to_string(),
            policy_seed: 5,
            configure: None,
            recipe: Some(Recipe::new((app, ProblemScale::Tiny, 2))),
        }
    }

    /// [`assign`] carrying [`config`] too.
    fn first_assign(app: Application, cell: u64) -> Assignment {
        Assignment {
            configure: Some(Box::new(EpochConfig::new(1, config()))),
            ..assign(app, cell)
        }
    }

    /// Each row is an `assign` with one bad part, and the one reply to it
    /// is an `error` naming that part. What a refused `assign` carried is
    /// not kept: the next good `assign`, bare, runs under the config and
    /// over the spec the worker held before it.
    #[test]
    fn each_refused_part_of_an_assign_is_its_one_reply_and_the_worker_keeps_serving() {
        let (mut coordinator, worker) = loopback();
        let jacobi = assign(Application::Jacobi, 0);
        coordinator.send(&ToWorker::Assign(jacobi.clone()));
        coordinator.expect_error("", "assign before any config was shipped");
        coordinator.send(&ToWorker::Assign(first_assign(Application::Jacobi, 0)));
        coordinator.expect_done(0, Application::Jacobi);

        let bare = Assignment {
            recipe: None,
            ..jacobi
        };
        let configure = |topology| {
            Some(Box::new(EpochConfig::new(
                2,
                ExecutionConfig::new(topology),
            )))
        };
        let recipe = |app: &str, scale: &str, sockets| {
            Some(Recipe {
                app: app.to_string(),
                scale: scale.to_string(),
                sockets,
            })
        };
        let rows = [
            (
                Assignment {
                    configure: Some(Box::new(EpochConfig {
                        version: 10,
                        ..EpochConfig::new(2, config())
                    })),
                    ..bare.clone()
                },
                "bad config: config.version 10 is not the supported protocol version 11",
            ),
            (
                Assignment {
                    configure: configure(Topology::symmetric(65, 1)),
                    ..bare.clone()
                },
                "bad config: the simulator supports at most 64 sockets",
            ),
            (
                Assignment {
                    recipe: recipe("fft", "tiny", 2),
                    ..bare.clone()
                },
                "bad recipe: unknown application 'fft'",
            ),
            (
                Assignment {
                    recipe: recipe("jacobi", "huge", 2),
                    ..bare.clone()
                },
                "bad recipe: unknown scale 'huge'",
            ),
            (
                Assignment {
                    recipe: recipe("jacobi", "tiny", 0),
                    ..bare.clone()
                },
                "bad recipe: recipe.sockets is 0, expected 1..=64",
            ),
            (
                Assignment {
                    recipe: recipe("jacobi", "tiny", 65),
                    ..bare.clone()
                },
                "bad recipe: recipe.sockets is 65, expected 1..=64",
            ),
            (
                Assignment {
                    recipe: recipe("jacobi", "tiny", 4),
                    ..bare.clone()
                },
                "bad recipe: recipe fingerprint mismatch",
            ),
            // A good config beside a refused recipe is not kept either.
            (
                Assignment {
                    configure: configure(Topology::four_socket(2)),
                    recipe: recipe("rb", "tiny", 2),
                    ..bare.clone()
                },
                "bad recipe: recipe fingerprint mismatch",
            ),
            // Nor is a good config or recipe beside a policy no worker knows.
            (
                Assignment {
                    configure: configure(Topology::four_socket(2)),
                    policy: "fifo".to_string(),
                    ..bare.clone()
                },
                "bad policy: ",
            ),
            (
                Assignment {
                    policy: "fifo".to_string(),
                    ..assign(Application::NStream, 0)
                },
                "bad policy: ",
            ),
            (
                Assignment {
                    fp: 1,
                    ..bare.clone()
                },
                "assign references unknown spec 0x1",
            ),
        ];
        for (cell, (bad, complaint)) in (1..).zip(rows) {
            coordinator.send(&ToWorker::Assign(bad));
            coordinator.expect_error("", complaint);
            coordinator.send(&ToWorker::Assign(Assignment {
                cell,
                ..bare.clone()
            }));
            coordinator.expect_done(cell, Application::Jacobi);
        }
        // Lines the decoder refuses are answered the same way.
        let line = to_line(&ToWorker::Assign(assign(Application::Jacobi, 20)));
        for (from, to, complaint) in [
            ("\"sockets\":2", "\"sockets\":\"2\"", "Recipe.sockets: "),
            ("\"app\":\"Jacobi\",", "", "missing field \"app\""),
            ("\"policy_seed\":5", "\"policy_seed\":-5", "policy_seed"),
        ] {
            let bad = line.replacen(from, to, 1);
            assert_ne!(bad, line);
            coordinator.send_line(&bad);
            coordinator.expect_error("bad message: ", complaint);
        }
        coordinator.send_line("\"warp\"");
        coordinator.expect_error("bad message: ", "unknown ToWorker variant \"warp\"");

        // NStream's spec went with its refused `assign`; Jacobi's stays.
        coordinator.send(&ToWorker::Assign(Assignment {
            recipe: None,
            ..assign(Application::NStream, 21)
        }));
        coordinator.expect_error("", "assign references unknown spec");
        coordinator.send(&ToWorker::Assign(assign(Application::NStream, 22)));
        coordinator.expect_done(22, Application::NStream);
        shut_down(coordinator, worker);
    }

    #[test]
    fn a_spec_line_that_is_not_json_ends_the_conversation() {
        let (mut coordinator, worker) = loopback();
        // An `assign` cut in the middle of its recipe: no reply, for the
        // worker cannot tell what it was.
        let line = to_line(&ToWorker::Assign(first_assign(Application::Jacobi, 3)));
        let cut = line.find("\"scale\"").unwrap() + 3;
        coordinator.send_line(&line[..cut]);
        assert!(matches!(read_frame(&mut coordinator.reader), Ok(None)));
        let left = worker.join().expect("the worker never panicked");
        let left = left.unwrap_err();
        assert!(
            left.contains("invalid JSON: ") && left.contains("at byte"),
            "{left}"
        );
    }

    /// Each of these configs is well-formed JSON naming a machine
    /// `Topology::new` / `DistanceMatrix::from_rows` would panic on, or one
    /// the simulator would allocate per core for without bound; each used to
    /// panic (or exhaust) the worker, and the coordinator read EOF where the
    /// reply should have been. So is a distance that only fits a `u32` after
    /// truncation (2^32 + 10), once cast to 10 silently, and another
    /// protocol version. Each is refused as the reply to its `assign`.
    #[test]
    fn a_config_naming_an_impossible_machine_is_refused_and_the_worker_keeps_serving() {
        let (mut coordinator, worker) = loopback();
        let line = to_line(&ToWorker::Assign(first_assign(Application::Jacobi, 3)));
        for (from, to, complaint) in [
            (
                "\"sockets\":2",
                "\"sockets\":0",
                "a machine needs at least one socket",
            ),
            (
                "\"cores\":2",
                "\"cores\":0",
                "a socket needs at least one core",
            ),
            (
                "[10,21,21,10]",
                "[10,21,30,10]",
                "distance matrix must be symmetric",
            ),
            (
                "[10,21,21,10]",
                "[0,21,21,10]",
                "diagonal of distance matrix must be the local",
            ),
            (
                "\"cores\":2",
                "\"cores\":1099511627776",
                "the simulator supports at most 65536 cores",
            ),
            (
                "\"distances\":[10,",
                "\"distances\":[4294967306,",
                "4294967306 does not fit in a u32",
            ),
            // The last version and the next.
            (
                "\"version\":11",
                "\"version\":10",
                "not the supported protocol version 11",
            ),
            (
                "\"version\":11",
                "\"version\":12",
                "not the supported protocol version 11",
            ),
        ] {
            let bad = line.replacen(from, to, 1);
            assert_ne!(bad, line);
            coordinator.send_line(&bad);
            coordinator.expect_error("bad ", complaint);
        }

        // The same worker takes the intact `assign` and runs its cell.
        coordinator.send_line(&line);
        coordinator.expect_done(3, Application::Jacobi);
        shut_down(coordinator, worker);
    }
}
