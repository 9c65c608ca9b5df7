//! Worker side of the proc backend.
//!
//! [`run_worker`] serves one coordinator over one connected socket: it
//! introduces itself with `hello`, then serves a simple request loop —
//! `config`, `recipe`, `assign`, `barrier`, `shutdown` — until the
//! coordinator closes the conversation. A worker process is the same
//! executable as the coordinator, re-entered through
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
use serde::{de, Reader};

use crate::protocol::{build_recipe, simulator_for, Assignment, ToCoordinator, ToWorker};

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

    send(
        &mut writer,
        &ToCoordinator::Hello {
            worker,
            pid: std::process::id() as u64,
        },
    )?;

    // One simulator per config epoch: its topology tables and scratch arena
    // are built on `config` and reused by every cell that follows.
    let mut simulator: Option<Simulator> = None;
    let mut specs: HashMap<u64, TaskGraphSpec> = HashMap::new();
    // A `recipe` is un-acked, so a refused one may not be answered on the
    // spot: the coordinator reads one reply per `assign`, and the
    // complaint is that reply for the first `assign` over a spec this
    // worker does not hold — the one the refused recipe was shipped for.
    // Cells over specs it holds run as usual in between.
    let mut refused_spec: Option<String> = None;

    loop {
        let line = match read_frame(&mut reader) {
            Ok(Some(line)) => line,
            // Coordinator gone (clean close either way): nothing left to do.
            Ok(None) | Err(FrameError::Io(_)) => return Ok(()),
            Err(e) => {
                // A malformed frame *from the coordinator* is unrecoverable
                // (framing is lost), but say so before going.
                let _ = write_frame(&mut writer, &error(format!("bad frame: {e}")));
                return Err(format!("coordinator sent an unreadable frame: {e}"));
            }
        };
        // A line that is not JSON is unrecoverable (framing is lost), but
        // say so before going; one that is JSON but refused is answered and
        // the conversation goes on.
        let message = match from_line(&line) {
            Ok(message) => message,
            Err(DecodeError::Syntax(e)) => {
                let _ = write_frame(&mut writer, &error(format!("bad frame: {e}")));
                return Err(format!("coordinator sent invalid JSON: {e}"));
            }
            Err(DecodeError::Refused(e)) => {
                let tag = de::tag(&mut Reader::new(&line)).map_or("envelope".to_string(), |t| t.0);
                let complaint = format!("bad {tag}: {e}");
                match tag.as_str() {
                    "recipe" => refused_spec = Some(complaint),
                    _ => send(&mut writer, &error(complaint))?,
                }
                continue;
            }
        };
        match message {
            ToWorker::Recipe {
                fp,
                app,
                scale,
                sockets,
            } => match build_recipe(fp, &app, &scale, sockets) {
                Ok(spec) => {
                    specs.insert(fp, spec);
                }
                Err(e) => refused_spec = Some(format!("bad recipe: {e}")),
            },
            ToWorker::Config {
                version,
                epoch,
                events,
                config,
            } => match simulator_for(version, events, config) {
                Ok(built) => {
                    simulator = Some(built);
                    send(&mut writer, &ToCoordinator::ConfigAck { epoch })?;
                }
                Err(e) => send(&mut writer, &error(format!("bad config: {e}")))?,
            },
            ToWorker::Assign(assign) => {
                let outcome = match refused_spec.take_if(|_| !specs.contains_key(&assign.fp)) {
                    Some(complaint) => Err(complaint),
                    None => run_cell(&assign, simulator.as_ref(), &specs),
                };
                let mut report = match outcome {
                    Ok(report) => report,
                    Err(complaint) => {
                        send(&mut writer, &error(complaint))?;
                        continue;
                    }
                };
                let done = ToCoordinator::Done {
                    cell: assign.cell,
                    events: std::mem::take(&mut report.events),
                    report: Box::new(report),
                };
                send(&mut writer, &done)?;
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

/// Executes one assignment; an `Err` is the message of the structured
/// `error` reply (deterministic: another worker would fail the same way).
fn run_cell(
    assign: &Assignment,
    simulator: Option<&Simulator>,
    specs: &HashMap<u64, TaskGraphSpec>,
) -> Result<ExecutionReport, String> {
    let simulator = simulator.ok_or("assign before any config was shipped")?;
    let spec = specs
        .get(&assign.fp)
        .ok_or_else(|| format!("assign references unknown spec {:#x}", assign.fp))?;
    let kind: PolicyKind = assign
        .policy
        .parse()
        .map_err(|e| format!("bad policy: {e}"))?;
    let mut policy = make_policy(kind, spec, assign.policy_seed).ok_or_else(|| {
        format!(
            "policy {:?} is unavailable for workload {:?} (no expert placement?)",
            assign.policy, spec.name
        )
    })?;
    Ok(simulator.run(spec, policy.as_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Duration;

    use numadag_kernels::{Application, ProblemScale};
    use numadag_numa::Topology;
    use numadag_runtime::framing::{from_line, to_line, write_line};
    use numadag_runtime::ExecutionConfig;

    /// The coordinator's end of a loopback conversation with `run_worker`.
    struct Coordinator {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    impl Coordinator {
        fn send(&mut self, message: &ToWorker) {
            write_frame(&mut self.writer, message).unwrap();
        }

        fn reply(&mut self) -> ToCoordinator {
            let line = read_frame(&mut self.reader)
                .expect("the worker is still talking")
                .expect("the worker has not hung up");
            from_line(&line).unwrap()
        }

        /// Puts the worker on `config` under `epoch`, checking the ack.
        fn configure(&mut self, epoch: u64, config: &ExecutionConfig) {
            self.send(&ToWorker::configure(epoch, config));
            let reply = self.reply();
            assert!(
                matches!(reply, ToCoordinator::ConfigAck { epoch: e } if e == epoch),
                "{reply:?}"
            );
        }

        fn expect_error(&mut self, prefix: &str, complaint: &str) {
            let ToCoordinator::Error { message } = self.reply() else {
                panic!("expected an error reply");
            };
            assert!(message.starts_with(prefix), "{message}");
            assert!(message.contains(complaint), "{message}");
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
            ToCoordinator::Hello { worker: 7, .. }
        ));
        (coordinator, worker)
    }

    /// `app` at Tiny scale for two sockets, the `recipe` line that ships
    /// it, and the `assign` of cell `cell` (LAS, seed 5) on it.
    fn recipe_cell(app: Application, cell: u64) -> (TaskGraphSpec, String, Assignment) {
        let spec = app.build(ProblemScale::Tiny, 2);
        let fp = spec.fingerprint();
        let line = to_line(&ToWorker::recipe(fp, (app, ProblemScale::Tiny, 2)));
        let assign = Assignment {
            cell,
            fp,
            policy: "las".to_string(),
            policy_seed: 5,
        };
        (spec, line, assign)
    }

    /// A recipe written ahead is refused while the worker runs cells over a
    /// spec it holds: the refusal waits for the `assign` it belongs to.
    #[test]
    fn a_refused_spec_written_ahead_answers_its_own_assign_not_the_next_one() {
        let (mut coordinator, worker) = loopback();
        coordinator.configure(1, &ExecutionConfig::new(Topology::two_socket(2)));
        let (_, held, held_assign) = recipe_cell(Application::Jacobi, 3);
        write_line(&mut coordinator.writer, held).unwrap();

        // The next workload's recipe, ahead of its cells and refused.
        let (_, line, next_assign) = recipe_cell(Application::NStream, 4);
        let poison = line.replacen("\"sockets\":2", "\"sockets\":4", 1);
        assert_ne!(poison, line);
        write_line(&mut coordinator.writer, poison).unwrap();

        // The cell in conversation is over the spec the worker holds.
        coordinator.send(&ToWorker::Assign(held_assign));
        assert!(matches!(
            coordinator.reply(),
            ToCoordinator::Done { cell: 3, .. }
        ));
        // The first cell over the refused recipe hears why.
        coordinator.send(&ToWorker::Assign(next_assign));
        coordinator.expect_error("bad recipe: ", "recipe fingerprint mismatch");

        coordinator.send(&ToWorker::Shutdown);
        worker
            .join()
            .expect("the worker never panicked")
            .expect("the worker left cleanly");
    }

    /// Each refused recipe, whether its line decodes or not, is the one
    /// reply to the first `assign` over its fingerprint; then the worker
    /// builds a good recipe and runs a cell over it.
    #[test]
    fn a_refused_recipe_answers_the_assign_behind_it_and_the_worker_keeps_serving() {
        let (mut coordinator, worker) = loopback();
        let config = ExecutionConfig::new(Topology::two_socket(2));
        coordinator.configure(1, &config);
        let (spec, good, assign) = recipe_cell(Application::Jacobi, 8);
        for (from, to, complaint) in [
            (
                "\"app\":\"Jacobi\"",
                "\"app\":\"fft\"",
                "unknown application 'fft'",
            ),
            (
                "\"scale\":\"tiny\"",
                "\"scale\":\"huge\"",
                "unknown scale 'huge'",
            ),
            (
                "\"sockets\":2",
                "\"sockets\":0",
                "recipe.sockets is 0, expected 1..=64",
            ),
            (
                "\"sockets\":2",
                "\"sockets\":65",
                "recipe.sockets is 65, expected 1..=64",
            ),
            (
                "\"sockets\":2",
                "\"sockets\":4",
                "recipe fingerprint mismatch",
            ),
            (
                "\"app\":\"Jacobi\"",
                "\"app\":\"rb\"",
                "recipe fingerprint mismatch",
            ),
            ("\"sockets\":2", "\"sockets\":\"2\"", "recipe.sockets: "),
            ("\"app\":\"Jacobi\",", "", "missing field \"app\""),
        ] {
            let bad = good.replacen(from, to, 1);
            assert_ne!(bad, good);
            write_line(&mut coordinator.writer, bad).unwrap();
            coordinator.send(&ToWorker::Assign(assign.clone()));
            coordinator.expect_error("bad recipe: ", complaint);
            // One reply, not two.
            coordinator.send(&ToWorker::Barrier { epoch: 9 });
            assert!(matches!(
                coordinator.reply(),
                ToCoordinator::BarrierAck { epoch: 9 }
            ));
        }

        write_line(&mut coordinator.writer, good).unwrap();
        coordinator.send(&ToWorker::Assign(assign));
        let ToCoordinator::Done {
            cell: 8,
            report,
            events,
        } = coordinator.reply()
        else {
            panic!("expected done for cell 8");
        };
        assert!(events.is_empty(), "the config did not ask for events");
        let mut policy = make_policy("las".parse().unwrap(), &spec, 5).unwrap();
        let want = Simulator::new(config).run(&spec, policy.as_mut());
        assert_eq!(report.makespan_ns.to_bits(), want.makespan_ns.to_bits());
        assert_eq!(report.traffic, want.traffic);
        assert_eq!(report.deferred_bytes, want.deferred_bytes);
        assert_eq!(report.stolen_tasks, want.stolen_tasks);

        coordinator.send(&ToWorker::Shutdown);
        worker
            .join()
            .expect("the worker never panicked")
            .expect("the worker left cleanly");
    }

    #[test]
    fn a_spec_line_that_is_not_json_ends_the_conversation() {
        let (mut coordinator, worker) = loopback();
        // A recipe cut in the middle: no `assign` follows it, and the
        // complaint cannot be held back.
        let (_, line, _) = recipe_cell(Application::Jacobi, 3);
        let cut = line.find("\"scale\"").unwrap() + 3;
        write_line(&mut coordinator.writer, line[..cut].to_string()).unwrap();
        coordinator.expect_error("bad frame: ", "at byte");
        let left = worker.join().expect("the worker never panicked");
        assert!(left.unwrap_err().contains("invalid JSON"));
    }

    /// Each of these `config` lines is well-formed JSON naming a machine
    /// `Topology::new` / `DistanceMatrix::from_rows` would panic on, or one
    /// the simulator would allocate per core for without bound; each used to
    /// panic (or exhaust) the worker, and the coordinator read EOF where the
    /// reply should have been. So is a distance that only fits a `u32` after
    /// truncation (2^32 + 10), once cast to 10 silently, and another
    /// protocol version.
    #[test]
    fn a_config_naming_an_impossible_machine_is_refused_and_the_worker_keeps_serving() {
        let (mut coordinator, worker) = loopback();
        let config = ExecutionConfig::new(Topology::two_socket(2));
        let line = to_line(&ToWorker::configure(1, &config));
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
                "\"version\":7",
                "\"version\":6",
                "not the supported protocol version 7",
            ),
            (
                "\"version\":7",
                "\"version\":8",
                "not the supported protocol version 7",
            ),
        ] {
            let bad = line.replacen(from, to, 1);
            assert_ne!(bad, line);
            write_line(&mut coordinator.writer, bad).unwrap();
            coordinator.expect_error("bad config: ", complaint);
        }
        write_line(&mut coordinator.writer, "\"warp\"".to_string()).unwrap();
        coordinator.expect_error("bad warp: ", "unknown ToWorker variant \"warp\"");

        // The same worker takes the intact config and runs a cell under it.
        coordinator.configure(1, &config);
        let (_, recipe, assign) = recipe_cell(Application::Jacobi, 3);
        write_line(&mut coordinator.writer, recipe).unwrap();
        coordinator.send(&ToWorker::Assign(assign));
        assert!(matches!(
            coordinator.reply(),
            ToCoordinator::Done { cell: 3, .. }
        ));

        coordinator.send(&ToWorker::Shutdown);
        worker
            .join()
            .expect("the worker never panicked")
            .expect("the worker left cleanly");
    }
}
