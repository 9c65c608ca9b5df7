//! `numadag-serve` — the sweep-service daemon.
//!
//! ```text
//! numadag-serve [--addr HOST:PORT] [--pool N] [--cache-capacity N]
//!               [--cell-capacity N] [--max-queued-cells N]
//!               [--max-active-jobs N] [--port-file PATH] [--cache-file PATH]
//! ```
//!
//! Binds the listener (port 0 picks an ephemeral port), prints the actual
//! address on stdout (and into `--port-file`, which scripts can poll), then
//! serves until a client sends `Shutdown`. Malformed arguments exit with
//! code 2 like the other bins; a bind failure exits with code 1.
//!
//! `--cache-file PATH` makes the report cache persistent: the daemon loads
//! the snapshot at boot (a missing file is fine, a corrupt one is a warning)
//! and rewrites it on clean shutdown, so a restarted daemon answers the
//! previous run's sweeps with `cache_hit=true` without executing a cell.
//!
//! The daemon runs the simulated backend only: a submission that asks for
//! `threaded` gets a structured error, and the daemon serves on. A pool
//! worker runs one workload's novel cells per batch.

use numadag_serve::server::{serve, ServeConfig};

fn usage_error(message: String) -> ! {
    eprintln!("error: {message}");
    eprintln!(
        "usage: numadag-serve [--addr HOST:PORT] [--pool N] \
         [--cache-capacity N] [--cell-capacity N] \
         [--max-queued-cells N] [--max-active-jobs N] [--port-file PATH] \
         [--cache-file PATH]"
    );
    std::process::exit(2);
}

fn flag_value(args: &[String], i: usize) -> &str {
    match args.get(i + 1) {
        Some(value) => value,
        None => usage_error(format!("{} needs a value", args[i])),
    }
}

fn positive(args: &[String], i: usize) -> usize {
    match flag_value(args, i).parse() {
        Ok(value) if value > 0 => value,
        _ => usage_error(format!(
            "{} needs a positive integer, got {:?}",
            args[i],
            flag_value(args, i)
        )),
    }
}

fn main() {
    let mut config = ServeConfig::default();
    let mut port_file: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => config.addr = flag_value(&args, i).to_string(),
            "--pool" => config.pool = positive(&args, i),
            "--cache-capacity" => config.cache_capacity = positive(&args, i),
            "--cell-capacity" => config.cell_capacity = positive(&args, i),
            "--max-queued-cells" => config.max_queued_cells = positive(&args, i),
            "--max-active-jobs" => config.max_active_jobs = positive(&args, i),
            "--port-file" => port_file = Some(flag_value(&args, i).to_string()),
            "--cache-file" => config.cache_file = Some(flag_value(&args, i).to_string()),
            other => usage_error(format!("unknown argument {other:?}")),
        }
        i += 2;
    }

    let handle = match serve(config.clone()) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("error: could not bind {}: {e}", config.addr);
            std::process::exit(1);
        }
    };
    let addr = handle.addr();
    println!(
        "numadag-serve listening on {addr} (pool={}, report-cache={}, cell-cache={})",
        config.pool, config.cache_capacity, config.cell_capacity
    );
    use std::io::Write;
    let _ = std::io::stdout().flush();
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, format!("{addr}\n")) {
            eprintln!("error: could not write {path}: {e}");
            handle.shutdown();
            handle.join();
            std::process::exit(1);
        }
    }
    handle.join();
    println!("numadag-serve: shutdown complete");
}
