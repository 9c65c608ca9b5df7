//! Test support for the proc backend: the two launchers a test pool is
//! built from, and a relay that breaks the conversation between a pool and
//! its workers. `crates/proc/tests/*.rs` declare it as `mod relay;`; the
//! root `tests/*.rs` that need it include it by `#[path]`.
//!
//! - [`processes`] re-execs the test binary through its
//!   `proc_worker_entry` test: a worker process, as `WorkerPool::spawn`
//!   starts one.
//! - [`threads`] runs `run_worker` on a thread over loopback TCP.
//! - A [`Relay`] wraps either launcher. Each worker connects to a socket of
//!   the relay's own, which forwards every line between it and the pool and
//!   applies its rules, keyed by worker, direction, message kind and count:
//!   "worker 1 dies on its fourth `assign`" is
//!   `Relay::new().on(1, Dir::ToWorker, "assign", 4, Action::Die)`. A rule
//!   may also hold its line until a line of another worker's connection has
//!   passed ([`Action::Await`]). Its [`Tally`] counts the lines it forwarded
//!   and the workers the pool has reaped.

// Each test binary uses its own part of this file.
#![allow(dead_code)]

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use numadag_proc::{run_worker, WorkerHandle, CONNECT_ENV, WORKER_ENV};

/// Launches worker `slot` as a process: this test binary, re-entered
/// through its `proc_worker_entry` test.
pub(crate) fn processes(addr: SocketAddr, slot: usize) -> io::Result<Child> {
    Command::new(std::env::current_exe()?)
        .args(["proc_worker_entry", "--exact"])
        .env(CONNECT_ENV, addr.to_string())
        .env(WORKER_ENV, slot.to_string())
        .stdin(Stdio::null())
        // libtest chats on stdout; none of it is protocol (IPC is TCP).
        .stdout(Stdio::null())
        .spawn()
}

/// Launches worker `slot` on a thread of this process, over loopback TCP.
pub(crate) fn threads(addr: SocketAddr, slot: usize) -> io::Result<ThreadWorker> {
    let stream = TcpStream::connect(addr)?;
    let (socket, end) = (stream.try_clone()?, stream.try_clone()?);
    let thread = std::thread::spawn(move || {
        let left = run_worker(stream, slot as u64);
        // The handle's clone keeps the socket open: close it, as a worker
        // process's exit would.
        let _ = end.shutdown(Shutdown::Both);
        left
    });
    Ok(ThreadWorker {
        socket,
        thread: Some(thread),
    })
}

/// A worker on a thread: killed by shutting its socket down, waited for by
/// joining the thread.
pub(crate) struct ThreadWorker {
    socket: TcpStream,
    thread: Option<JoinHandle<Result<(), String>>>,
}

impl WorkerHandle for ThreadWorker {
    fn kill(&mut self) {
        let _ = self.socket.shutdown(Shutdown::Both);
    }

    fn has_exited(&mut self) -> bool {
        self.thread.as_ref().is_none_or(JoinHandle::is_finished)
    }

    fn wait(&mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Which way a line travels through the relay.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Dir {
    ToWorker,
    ToCoordinator,
}

/// What the relay does with the line a rule matches.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Action {
    /// Closes both ends instead of forwarding it.
    Die,
    /// Forwards a line that is not JSON instead.
    Garbage,
    /// Forwards its first half, without the newline, then dies.
    Truncate,
    /// Forwards it twice.
    Duplicate,
    /// Forwards it this much later.
    Delay(Duration),
    /// Forwards it once a `kind` line has travelled `dir` on worker
    /// `slot`'s connection; dies instead if none has within `within`.
    Await {
        slot: usize,
        dir: Dir,
        kind: &'static str,
        within: Duration,
    },
}

#[derive(Clone, Copy, Debug)]
struct Rule {
    slot: usize,
    dir: Dir,
    kind: &'static str,
    nth: u64,
    action: Action,
}

/// A launcher wrapper that puts itself between the pool and each worker
/// (see the module doc).
#[derive(Default)]
pub(crate) struct Relay {
    rules: Vec<Rule>,
    ledger: Arc<Ledger>,
}

/// The lines every connection of one relay has seen, by worker, direction
/// and kind: what an [`Action::Await`] waits on. Also the number of its
/// workers the pool has reaped.
#[derive(Default)]
struct Ledger {
    seen: Mutex<HashMap<(usize, Dir, String), u64>>,
    moved: Condvar,
    reaped: AtomicU64,
}

impl Ledger {
    /// Counts a `kind` line on worker `slot`'s connection going `dir`;
    /// returns its count, from 1.
    fn count(&self, slot: usize, dir: Dir, kind: String) -> u64 {
        let mut seen = self.seen.lock().unwrap_or_else(PoisonError::into_inner);
        let nth = seen.entry((slot, dir, kind)).or_default();
        *nth += 1;
        let nth = *nth;
        self.moved.notify_all();
        nth
    }

    /// Whether a `kind` line went `dir` on worker `slot`'s connection
    /// before `within` ran out.
    fn wait(&self, slot: usize, dir: Dir, kind: &str, within: Duration) -> bool {
        let key = (slot, dir, kind.to_string());
        let seen = self.seen.lock().unwrap_or_else(PoisonError::into_inner);
        let (seen, _) = self
            .moved
            .wait_timeout_while(seen, within, |seen| !seen.contains_key(&key))
            .unwrap_or_else(PoisonError::into_inner);
        seen.contains_key(&key)
    }
}

/// A relay's count of the lines it forwarded, readable after the relay has
/// gone into a launcher.
pub(crate) struct Tally(Arc<Ledger>);

impl Tally {
    /// How many `kind` lines have travelled `dir`, on every worker's
    /// connection together.
    pub(crate) fn lines(&self, dir: Dir, kind: &str) -> u64 {
        let seen = self.0.seen.lock().unwrap_or_else(PoisonError::into_inner);
        let matching = seen
            .iter()
            .filter(|((_, way, seen), _)| (*way, seen.as_str()) == (dir, kind));
        matching.map(|(_, n)| n).sum()
    }

    /// How many of the relay's workers the pool has seen exit (a process:
    /// and reaped), through `has_exited` or `wait`.
    pub(crate) fn reaped(&self) -> u64 {
        self.0.reaped.load(Ordering::SeqCst)
    }
}

impl Relay {
    /// A relay that forwards every line unchanged.
    pub(crate) fn new() -> Relay {
        Relay::default()
    }

    /// The count of the lines this relay forwards.
    pub(crate) fn tally(&self) -> Tally {
        Tally(Arc::clone(&self.ledger))
    }

    /// Applies `action` to the `nth` line (counting from 1) of message kind
    /// `kind` (`"assign"`, `"barrier"`, `"done"`, ...) travelling `dir` on
    /// worker `slot`'s connection.
    pub(crate) fn on(
        mut self,
        slot: usize,
        dir: Dir,
        kind: &'static str,
        nth: u64,
        action: Action,
    ) -> Relay {
        self.rules.push(Rule {
            slot,
            dir,
            kind,
            nth,
            action,
        });
        self
    }

    /// A launcher: `launch` starts each worker against a socket of the
    /// relay's, which the relay then joins to the pool's `addr`.
    pub(crate) fn around<H: WorkerHandle + 'static>(
        self,
        mut launch: impl FnMut(SocketAddr, usize) -> io::Result<H>,
    ) -> impl FnMut(SocketAddr, usize) -> io::Result<Relayed> {
        move |addr, slot| {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            let mut inner = launch(listener.local_addr()?, slot)?;
            let ends = accept(&listener).and_then(|worker| {
                let coordinator = TcpStream::connect(addr)?;
                coordinator.set_nodelay(true)?;
                Ok((worker, coordinator))
            });
            let (worker, coordinator) = match ends {
                Ok(ends) => ends,
                Err(e) => {
                    inner.kill();
                    inner.wait();
                    return Err(e);
                }
            };
            for (from, to, dir) in [
                (&worker, &coordinator, Dir::ToCoordinator),
                (&coordinator, &worker, Dir::ToWorker),
            ] {
                let rules = self
                    .rules
                    .iter()
                    .filter(|rule| (rule.slot, rule.dir) == (slot, dir));
                let rules: Vec<Rule> = rules.copied().collect();
                let (from, to) = (from.try_clone()?, to.try_clone()?);
                let ledger = Arc::clone(&self.ledger);
                std::thread::spawn(move || pump(from, to, &rules, (slot, dir), &ledger));
            }
            Ok(Relayed {
                inner: Box::new(inner),
                ends: [worker, coordinator],
                ledger: Arc::clone(&self.ledger),
                reaped: false,
            })
        }
    }
}

/// The worker's connection to the relay, within the time a pool gives its
/// workers to connect.
fn accept(listener: &TcpListener) -> io::Result<TcpStream> {
    listener.set_nonblocking(true)?;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                stream.set_nodelay(true)?;
                return Ok(stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock && Instant::now() < deadline => {
                std::thread::sleep(Duration::from_micros(250))
            }
            Err(e) => return Err(e),
        }
    }
}

/// A relayed worker: killing it closes both of the relay's ends, then kills
/// the worker behind them. The first time the pool sees it exit, it counts
/// itself reaped in the relay's ledger.
pub(crate) struct Relayed {
    inner: Box<dyn WorkerHandle>,
    ends: [TcpStream; 2],
    ledger: Arc<Ledger>,
    reaped: bool,
}

impl Relayed {
    fn reaped(&mut self) {
        if !std::mem::replace(&mut self.reaped, true) {
            self.ledger.reaped.fetch_add(1, Ordering::SeqCst);
        }
    }
}

impl WorkerHandle for Relayed {
    fn kill(&mut self) {
        for end in &self.ends {
            let _ = end.shutdown(Shutdown::Both);
        }
        self.inner.kill();
    }

    fn has_exited(&mut self) -> bool {
        let exited = self.inner.has_exited();
        if exited {
            self.reaped();
        }
        exited
    }

    fn wait(&mut self) {
        self.inner.wait();
        self.reaped();
    }
}

/// Forwards lines from `from` to `to` on worker `slot`'s connection going
/// `dir`, counting each in `ledger` and applying `rules` (this worker's, in
/// this direction). When either end closes or a rule kills the link, closes
/// both, so the other direction's pump ends too.
fn pump(
    from: TcpStream,
    mut to: TcpStream,
    rules: &[Rule],
    (slot, dir): (usize, Dir),
    ledger: &Ledger,
) {
    let mut reader = BufReader::new(&from);
    let mut line = Vec::new();
    loop {
        line.clear();
        if !matches!(reader.read_until(b'\n', &mut line), Ok(n) if n > 0) {
            break;
        }
        let kind = kind_of(&line);
        let nth = ledger.count(slot, dir, kind.clone());
        let rule = rules
            .iter()
            .find(|rule| rule.kind == kind && rule.nth == nth);
        let forwarded = match rule.map(|rule| rule.action) {
            None => to.write_all(&line),
            Some(Action::Die) => break,
            Some(Action::Garbage) => to.write_all(b"{this is not json\n"),
            Some(Action::Truncate) => {
                let _ = to.write_all(&line[..line.len() / 2]);
                break;
            }
            Some(Action::Duplicate) => to.write_all(&line).and_then(|()| to.write_all(&line)),
            Some(Action::Delay(pause)) => {
                std::thread::sleep(pause);
                to.write_all(&line)
            }
            Some(Action::Await {
                slot: other,
                dir: way,
                kind: awaited,
                within,
            }) => {
                if !ledger.wait(other, way, awaited, within) {
                    break;
                }
                to.write_all(&line)
            }
        };
        if forwarded.is_err() {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

/// The message kind of a wire line: its envelope's tag (`assign`, `barrier`,
/// `done`, ...), or the bare string a unit message is (`shutdown`).
fn kind_of(line: &[u8]) -> String {
    let text = String::from_utf8_lossy(line);
    let tag = text.trim_start().trim_start_matches('{').trim_start();
    let tag = tag.strip_prefix('"').and_then(|tag| tag.split('"').next());
    tag.unwrap_or_default().to_string()
}
