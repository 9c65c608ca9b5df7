//! `numadag-benchmark`: one workload per invocation, a fixed measured phase,
//! every metric printed by name with its unit, every result checked.
//!
//! ```text
//! numadag-benchmark --workload fig1_cold --seed 7 --seconds 20 --trace 0
//! numadag-benchmark compare before.json after.json
//! numadag-benchmark aa out/aa
//! ```
//!
//! The last line of standard output is the result object the driver reads;
//! the lines before it are for people. See README.md.

mod calibrate;
mod compare;
mod host;
mod metrics;
mod probes;
mod seeds;
mod spans;
mod stats;
mod traced;
mod workloads;

use std::path::PathBuf;

use serde::Value;

use metrics::{Metrics, END_TO_END, PER_LAYER};
use workloads::Outcome;

pub const WORKLOADS: [&str; 4] = ["fig1_cold", "sched_warm", "serve_mix", "proc_cold"];
/// `run_seconds` of BENCHMARK.json.
pub const DEFAULT_SECONDS: u64 = 20;
/// The paper's headline geomean for RGP+LAS (Figure 1).
pub const PAPER_GEOMEAN: f64 = 1.12;

/// Where results and span files go unless `--out` says otherwise.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: numadag-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n\
         \x20      numadag-benchmark compare <a.json> <b.json>\n\
         \x20      numadag-benchmark aa <dir>",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Args {
    let mut parsed = Args {
        workload: String::new(),
        seed: seeds::CANONICAL_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = parse_u64(value).unwrap_or_else(|| usage()),
            "--seconds" => {
                parsed.seconds = parse_u64(value)
                    .filter(|s| (1..=60).contains(s))
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        usage();
    }
    parsed
}

fn untraced(workload: &str, seed: u64, seconds: u64) -> Outcome {
    match workload {
        "fig1_cold" => workloads::sweeps::FIG1_COLD.run(seed, seconds),
        "sched_warm" => workloads::sweeps::SCHED_WARM.run(seed, seconds),
        "serve_mix" => workloads::serve_mix::run(seed, seconds),
        "proc_cold" => workloads::proc_cold::run(seed, seconds),
        _ => unreachable!("parse_args admits only known workloads"),
    }
}

/// One finished run, ready to print and save.
pub struct RunResult {
    pub metrics: Metrics,
    /// Printed and saved, never gated: (name, value, unit).
    pub diagnostics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    pub buckets: usize,
    /// (start in seconds since the phase began, wall in ms) of every op of an
    /// untraced run, saved so drift within a run can be looked at afterwards.
    pub op_series: Vec<(f64, f64)>,
    /// (seconds since the phase began, reference-kernel wall in ms).
    pub calibration: Vec<(f64, f64)>,
}

fn summarize(outcome: Outcome, seconds: u64) -> RunResult {
    let buckets = seconds as usize;
    let attempted = outcome.ops.len();
    let failed = outcome.ops.iter().filter(|op| !op.ok).count();

    // Host times are reported at nominal host speed: each op's wall is
    // divided by how much slower than nominal the reference kernel ran in
    // the second the op was in the middle of (see `calibrate`).
    let slowdown = calibrate::slowdown_per_bucket(&outcome.calibration, buckets);
    let slowdown_at = |t_s: f64| slowdown[(t_s.max(0.0) as usize).min(buckets - 1)];
    let raw_walls: Vec<f64> = outcome.ops.iter().map(|op| op.wall_ms()).collect();
    let walls: Vec<f64> = outcome
        .ops
        .iter()
        .map(|op| op.wall_ms() / slowdown_at((op.start_s + op.end_s) / 2.0))
        .collect();
    let raw_credits = stats::bucket_credits(&outcome.ops, buckets);
    let credits: Vec<f64> = raw_credits
        .iter()
        .zip(&slowdown)
        .map(|(c, f)| c * f)
        .collect();
    let set_ups: Vec<f64> = outcome
        .setup_s
        .iter()
        .zip(&outcome.setup_slowdown)
        .map(|(wall, f)| wall / f)
        .collect();

    let mut m = Metrics::default();
    m.set("op_ms_p50", stats::median(&walls));
    m.set("ops_per_s", stats::median(&credits));
    m.set("setup_s", stats::median(&set_ups));
    m.set("peak_rss_mb", outcome.peak_rss_mb);
    m.set(
        "correct_ops_pct",
        100.0 * (attempted - failed) as f64 / attempted as f64,
    );
    m.set("sim_geomean_speedup", outcome.sim_geomean_speedup);

    let mut diagnostics = vec![
        ("raw.op_ms_p50", stats::median(&raw_walls), "ms"),
        ("raw.ops_per_s", stats::median(&raw_credits), "1/s"),
        ("raw.setup_s", stats::median(&outcome.setup_s), "s"),
        ("host.slowdown_p50", stats::median(&slowdown), "x"),
        (
            "host.slowdown_max",
            stats::percentile(&slowdown, 100.0),
            "x",
        ),
        ("tail.op_ms_p90", stats::percentile(&walls, 90.0), "ms"),
        ("tail.op_ms_max", stats::percentile(&walls, 100.0), "ms"),
        ("run.samples", attempted as f64, "count"),
        (
            "run.rss_mark_ops",
            outcome.rss_mark.min(attempted) as f64,
            "count",
        ),
        ("run.rss_after_setup_mb", outcome.setup_peak_rss_mb, "MB"),
        ("setup.first_s", outcome.setup_s[0], "s"),
    ];
    if attempted >= 1000 {
        diagnostics.insert(6, ("tail.op_ms_p99", stats::percentile(&walls, 99.0), "ms"));
    }
    RunResult {
        metrics: m,
        diagnostics,
        attempted,
        failed,
        failures: outcome.failures,
        buckets,
        op_series: outcome
            .ops
            .iter()
            .map(|op| (op.start_s, op.wall_ms()))
            .collect(),
        calibration: outcome.calibration,
    }
}

/// One column of the op series, rounded to a microsecond to keep files small.
fn series(ops: &[(f64, f64)], column: impl Fn(&(f64, f64)) -> f64) -> Vec<Value> {
    ops.iter()
        .map(|op| Value::Number((column(op) * 1e6).round() / 1e6))
        .collect()
}

fn run(args: &Args) {
    let provenance = host::Provenance::collect();
    let (result, catalogue) = if args.trace {
        (
            traced::run(&args.workload, args.seed, args.seconds),
            PER_LAYER,
        )
    } else {
        (
            summarize(
                untraced(&args.workload, args.seed, args.seconds),
                args.seconds,
            ),
            END_TO_END,
        )
    };
    let correct = result.failed == 0 && result.failures.is_empty();
    let metrics = result.metrics.to_value(catalogue);

    println!(
        "workload {} seed {:#x} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "host nproc {} cpu \"{}\" commit {} {}",
        provenance.nproc, provenance.cpu_model, provenance.git_commit, provenance.rustc
    );
    println!(
        "ops attempted {} failed {} buckets {}",
        result.attempted, result.failed, result.buckets
    );
    for (name, unit) in catalogue {
        let value = result.metrics.get(name).expect("checked by to_value");
        println!("{name:<36} {value:>18.6} {unit}");
    }
    for (name, value, unit) in &result.diagnostics {
        println!("{name:<36} {value:>18.6} {unit}  (diagnostic)");
    }
    for line in &result.failures {
        println!("FAILED {line}");
    }

    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        (
            "attempted".to_string(),
            Value::Number(result.attempted.max(1) as f64),
        ),
        ("failed".to_string(), Value::Number(result.failed as f64)),
        ("metrics".to_string(), metrics.clone()),
    ]);

    // The saved result carries its provenance; `compare` reads these files.
    let saved = Value::Object(vec![
        ("workload".to_string(), Value::String(args.workload.clone())),
        ("trace".to_string(), Value::Bool(args.trace)),
        ("seed".to_string(), Value::Number(args.seed as f64)),
        ("seconds".to_string(), Value::Number(args.seconds as f64)),
        ("nproc".to_string(), Value::Number(provenance.nproc as f64)),
        ("cpu_model".to_string(), Value::String(provenance.cpu_model)),
        (
            "git_commit".to_string(),
            Value::String(provenance.git_commit),
        ),
        ("rustc".to_string(), Value::String(provenance.rustc)),
        (
            "samples".to_string(),
            Value::Number(result.attempted as f64),
        ),
        ("buckets".to_string(), Value::Number(result.buckets as f64)),
        ("correct".to_string(), Value::Bool(correct)),
        ("failed".to_string(), Value::Number(result.failed as f64)),
        ("metrics".to_string(), metrics),
        (
            "diagnostics".to_string(),
            Value::Object(
                result
                    .diagnostics
                    .iter()
                    .map(|(name, value, unit)| (name.to_string(), metrics::entry(*value, unit)))
                    .collect(),
            ),
        ),
        (
            "failures".to_string(),
            Value::Array(result.failures.iter().cloned().map(Value::String).collect()),
        ),
        (
            "op_start_s".to_string(),
            Value::Array(series(&result.op_series, |op| op.0)),
        ),
        (
            "op_wall_ms".to_string(),
            Value::Array(series(&result.op_series, |op| op.1)),
        ),
        (
            "kernel_at_s".to_string(),
            Value::Array(series(&result.calibration, |k| k.0)),
        ),
        (
            "kernel_ms".to_string(),
            Value::Array(series(&result.calibration, |k| k.1)),
        ),
    ]);
    let path = args.out.clone().unwrap_or_else(|| {
        out_dir().join(format!("{}.trace{}.json", args.workload, args.trace as u8))
    });
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("the result directory can be created");
    }
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&saved).expect("results are encodable"),
    )
    .expect("the result file can be written");

    println!(
        "{}",
        serde_json::to_string(&line).expect("results are encodable")
    );
}

fn main() {
    // Proc workers self-exec this binary: they must take the worker path
    // before anything else looks at the arguments.
    numadag::proc::maybe_run_worker();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => compare::compare(&args[1], &args[2]),
        Some("aa") if args.len() == 2 => compare::aa(&args[1]),
        Some("compare" | "aa") | None => usage(),
        Some(_) => {
            // An incorrect result is still a result: exit 0 and let the
            // `correct` field say so. Exit codes are for runs that could
            // not be made at all (panics, bad arguments).
            run(&parse_args(&args));
            0
        }
    };
    std::process::exit(code);
}
