//! A pool that fails to come up leaves no child process behind: every
//! worker it launched is killed and reaped before `WorkerPool::launch`
//! returns its error.
//!
//! Its own test binary, because it counts the children of the test process
//! by scanning `/proc`.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

mod relay;

use numadag_proc::{ProcError, WorkerPool, CONNECT_ENV, WORKER_ENV};

/// Worker re-entry point. Worker 1 connects and greets with a line that is
/// not a `hello`, then waits for the coordinator to hang up; every other
/// worker is a real one. Without the rendezvous environment it is an
/// instant pass.
#[test]
fn proc_worker_entry() {
    let Ok(addr) = std::env::var(CONNECT_ENV) else {
        return;
    };
    if std::env::var(WORKER_ENV).as_deref() != Ok("1") {
        numadag_proc::run_worker_from_env().expect("worker loop failed");
        return;
    }
    let mut stream = TcpStream::connect(addr).expect("worker 1 connects");
    stream
        .write_all(b"{\"type\":\"not_a_hello\"}\n")
        .expect("worker 1 writes");
    let _ = BufReader::new(stream).read_line(&mut String::new());
}

/// Pids of the live or unreaped (zombie) children of this process.
fn children() -> Vec<u32> {
    let me = std::process::id();
    let entries = std::fs::read_dir("/proc").expect("/proc lists");
    entries
        .filter_map(|entry| {
            let pid: u32 = entry.ok()?.file_name().to_str()?.parse().ok()?;
            let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
            // `pid (comm) state ppid ...`; `comm` may hold spaces and parens.
            let ppid: u32 = stat
                .rsplit_once(')')?
                .1
                .split_whitespace()
                .nth(1)?
                .parse()
                .ok()?;
            (ppid == me).then_some(pid)
        })
        .collect()
}

#[test]
fn a_spawn_that_fails_on_a_bad_hello_reaps_every_worker() {
    assert_eq!(
        children(),
        Vec::<u32>::new(),
        "no children before the spawn"
    );
    match WorkerPool::launch(2, relay::processes) {
        Err(ProcError::Spawn(message)) => assert!(message.contains("hello"), "{message}"),
        Err(e) => panic!("expected a spawn failure, got {e}"),
        Ok(_) => panic!("a pool whose worker 1 never says hello came up"),
    }
    assert_eq!(children(), Vec::<u32>::new(), "a worker outlived the spawn");
}
