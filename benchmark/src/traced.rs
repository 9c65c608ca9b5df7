//! The traced run (`--trace 1`): per-layer numbers, never gates. It sets the
//! workload up once (cold: that is `setup.first_s`), runs the direct probes,
//! then three span-recording loops — the sweep pipeline, the serve session,
//! the proc life cycle. The loop that is the workload's own op runs longest
//! and alternates traced with untraced ops, which gives `run.*`/`tail.*`;
//! the other two run briefly so every per-layer metric is measured in every
//! run. Spans go to `out/<workload>.spans.jsonl`.

use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use numadag::prelude::*;

use crate::metrics::Metrics;
use crate::probes::runtime::{pipeline_metrics, traced_sweep, ExecState};
use crate::probes::{self, time_ms};
use crate::seeds::{SeedSchedule, Stream, FIG1_POLICIES};
use crate::spans::{self_time_by_name, self_times_ns, Span, SpanBuffer, NO_PARENT};
use crate::stats::{median, percentile};
use crate::workloads::sweeps::{SweepWorkload, FIG1_COLD, SCHED_WARM};
use crate::workloads::{
    check_structure, note_failure, parse_policies, proc_cold, same_measurements, serve_mix, sweep,
    BASELINE_FULL,
};
use crate::{RunResult, PAPER_GEOMEAN};

/// Share of `--seconds` the workload's own loop runs for; the two other
/// loops get [`OTHER_LOOP_SHARE`] each and the direct probes the rest.
const OWN_LOOP_SHARE: f64 = 0.4;
const OTHER_LOOP_SHARE: f64 = 0.05;

/// What a span-recording loop hands back for `run.*` and `tail.*`.
#[derive(Default)]
struct LoopSummary {
    /// Walls of the traced ops (root spans), ms.
    traced_ms: Vec<f64>,
    /// Walls of the untraced ops run in alternation, ms.
    untraced_ms: Vec<f64>,
    /// Root-span self time over root-span time: what no child span covers.
    unattributed_pct: f64,
    /// CPU of this process and its reaped children per op.
    cpu_ms_per_op: f64,
    sim_tasks_per_s: f64,
    failed_ops: usize,
}

fn unattributed_pct<'a>(buffers: impl IntoIterator<Item = &'a [Span]>) -> f64 {
    let (mut root_self, mut root_total) = (0u64, 0u64);
    for spans in buffers {
        for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
            if span.parent == NO_PARENT {
                root_self += self_ns;
                root_total += span.duration_ns();
            }
        }
    }
    100.0 * root_self as f64 / root_total.max(1) as f64
}

fn root_walls_ms(spans: &[Span]) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.parent == NO_PARENT)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

fn process_cpu_ms() -> f64 {
    crate::host::cpu_ms("self", true).unwrap_or(0.0)
}

/// The sweep pipeline loop: `shape`'s op, traced, for `budget_s` seconds.
#[allow(clippy::too_many_arguments)]
fn sweep_loop(
    m: &mut Metrics,
    shape: &SweepWorkload,
    shared: Option<&Arc<SpecCache>>,
    benchmark_seed: u64,
    budget_s: f64,
    alternate: bool,
    epoch: Instant,
    failures: &mut Vec<String>,
) -> (LoopSummary, SpanBuffer) {
    let policies = parse_policies(shape.policies);
    let mut seeds = SeedSchedule::new(benchmark_seed, Stream::TracedSweep);
    let mut state = ExecState::new(SpanBuffer::with_capacity(epoch, 1 << 17));
    let mut summary = LoopSummary::default();
    let (mut ops, mut sim_tasks, mut report_bytes) = (0u32, 0usize, 0usize);
    let cpu_before = process_cpu_ms();
    let started = Instant::now();
    while ops < 3 || started.elapsed().as_secs_f64() < budget_s {
        let seed = seeds.next_seed();
        state.op_id = ops;
        // The pair shares a seed so the hand-spelled op can be held to the
        // bytes of `Experiment::run()`; who goes first alternates.
        let mut untraced = None;
        if alternate && ops % 2 == 0 {
            untraced = Some(time_ms(|| shape.op(&policies, seed, shared)));
        }
        let (traced, next) = traced_sweep(state, &policies, seed, shared);
        state = next;
        if alternate && ops % 2 == 1 {
            untraced = Some(time_ms(|| shape.op(&policies, seed, shared)));
        }
        let mut verdict = shape.check(&traced.report);
        let tasks_per_op: usize = traced.report.cells.iter().map(|c| c.tasks).sum();
        sim_tasks += tasks_per_op;
        if let Some(((_, json), wall_ms)) = untraced {
            summary.untraced_ms.push(wall_ms);
            sim_tasks += tasks_per_op;
            if json != traced.json {
                verdict = Err("hand-spelled op differs from Experiment::run()".to_string());
            }
        }
        if let Err(e) = verdict {
            note_failure(failures, format!("traced sweep {ops}: {e}"));
            summary.failed_ops += 1;
        }
        report_bytes = traced.json.len();
        ops += 1;
    }
    let wall_s = started.elapsed().as_secs_f64();
    let total_ops = ops as usize + summary.untraced_ms.len();
    summary.cpu_ms_per_op = (process_cpu_ms() - cpu_before) / total_ops as f64;
    summary.sim_tasks_per_s = sim_tasks as f64 / wall_s;
    summary.traced_ms = root_walls_ms(state.buf.spans());
    summary.unattributed_pct = unattributed_pct([state.buf.spans()]);
    pipeline_metrics(
        m,
        state.buf.spans(),
        ops as usize,
        (state.tasks, state.sim_bytes, state.remote_bytes),
    );
    m.set("runtime.report_bytes", report_bytes as f64);
    (summary, state.buf)
}

/// The serve session loop plus the direct serve probes.
fn serve_loop(
    m: &mut Metrics,
    mut service: serve_mix::Service,
    benchmark_seed: u64,
    budget_s: f64,
    alternate: bool,
    epoch: Instant,
    failures: &mut Vec<String>,
) -> (LoopSummary, Vec<SpanBuffer>) {
    let cpu_before = process_cpu_ms();
    let started = Instant::now();
    let traces =
        probes::serve::session_loop(&mut service, benchmark_seed, budget_s, alternate, epoch);
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_ms = process_cpu_ms() - cpu_before;

    let mut summary = LoopSummary::default();
    for (client, trace) in traces.iter().enumerate() {
        summary.traced_ms.extend(root_walls_ms(trace.buf.spans()));
        summary.untraced_ms.extend(&trace.untraced_ms);
        summary.failed_ops += trace.failed_sessions;
        for line in &trace.failures {
            note_failure(failures, format!("serve client {client} {line}"));
        }
    }
    let sessions = summary.traced_ms.len() + summary.untraced_ms.len();
    summary.cpu_ms_per_op = cpu_ms / sessions.max(1) as f64;
    summary.sim_tasks_per_s = traces.iter().map(|t| t.sim_tasks).sum::<u64>() as f64 / wall_s;
    summary.unattributed_pct = unattributed_pct(traces.iter().map(|t| t.buf.spans()));

    let stats = service.clients[0]
        .stats()
        .expect("the daemon answers stats");
    probes::serve::loop_metrics(m, &traces, &stats);
    probes::serve::direct(m, &mut service, benchmark_seed);
    service.shut_down();
    probes::serve::boot(m);
    (summary, traces.into_iter().map(|t| t.buf).collect())
}

/// The proc life-cycle loop plus the warm-pool probe.
fn proc_loop(
    m: &mut Metrics,
    specs: &Arc<SpecCache>,
    benchmark_seed: u64,
    budget_s: f64,
    alternate: bool,
    epoch: Instant,
    failures: &mut Vec<String>,
) -> (LoopSummary, SpanBuffer) {
    let policies = parse_policies(FIG1_POLICIES);
    let mut seeds = SeedSchedule::new(benchmark_seed, Stream::TracedProc);
    let mut state = ExecState::new(SpanBuffer::with_capacity(epoch, 1 << 14));
    let mut summary = LoopSummary::default();
    let mut workers = Vec::new();
    let mut reports = Vec::new();
    let mut last_stats = None;
    let (mut ops, mut sim_tasks) = (0u32, 0usize);
    let cpu_before = process_cpu_ms();
    let own_cpu_before = crate::host::cpu_ms("self", false).unwrap_or(0.0);
    let started = Instant::now();
    while ops < 2 || started.elapsed().as_secs_f64() < budget_s {
        if alternate {
            let ((result, excluded_s), wall_ms) =
                time_ms(|| proc_cold::op(&policies, seeds.next_seed(), specs));
            summary.untraced_ms.push(wall_ms - excluded_s * 1e3);
            sim_tasks += result.report.cells.iter().map(|c| c.tasks).sum::<usize>();
            if let Err(e) = proc_cold::check_op(&result) {
                note_failure(failures, format!("untraced proc op {ops}: {e}"));
                summary.failed_ops += 1;
            }
        }
        let seed = seeds.next_seed();
        state.op_id = ops;
        let (report, stats, sample, next) = probes::proc::traced_op(state, &policies, seed, specs);
        state = next;
        sim_tasks += report.cells.iter().map(|c| c.tasks).sum::<usize>();
        workers.push(sample);
        last_stats = Some(stats);
        reports.push(report);
        ops += 1;
    }
    let wall_s = started.elapsed().as_secs_f64();
    let total_ops = ops as usize + summary.untraced_ms.len();
    summary.cpu_ms_per_op = (process_cpu_ms() - cpu_before) / total_ops as f64;
    let own_cpu_ms_per_op =
        (crate::host::cpu_ms("self", false).unwrap_or(0.0) - own_cpu_before) / total_ops as f64;
    // After the CPU accounting: the cells that went through the workers
    // must match the same sweep run here.
    for (index, report) in reports.iter().enumerate() {
        let local = sweep(
            &policies,
            ProblemScale::Full,
            report.seed,
            Arc::clone(specs),
        )
        .run();
        if let Err(e) =
            check_structure(report, 40).and_then(|()| same_measurements(&local, report, false))
        {
            note_failure(failures, format!("traced proc op {index}: {e}"));
            summary.failed_ops += 1;
        }
    }
    summary.sim_tasks_per_s = sim_tasks as f64 / wall_s;
    summary.traced_ms = probes::proc::op_walls_ms(state.buf.spans(), ops as usize);
    summary.unattributed_pct = unattributed_pct([state.buf.spans()]);
    probes::proc::loop_metrics(
        m,
        state.buf.spans(),
        ops as usize,
        &last_stats.expect("at least two ops ran"),
        &workers,
        own_cpu_ms_per_op,
    );
    let first_sweep_ms = m.get("proc.first_sweep_ms").expect("set by loop_metrics");
    let mut probe_seeds = SeedSchedule::new(benchmark_seed, Stream::ProbeProc);
    probes::proc::warm_pool(m, &policies, specs, &mut probe_seeds, first_sweep_ms);
    (summary, state.buf)
}

fn print_self_times(scope: &str, spans: &[Span]) {
    let rows = self_time_by_name(spans);
    let total: u64 = rows.iter().map(|r| r.1).sum();
    println!("self time by span, {scope} loop ({} spans):", spans.len());
    for (name, self_ns, calls) in rows {
        println!(
            "  {name:<32} {:>12.3} ms {:>6.2} %  {calls} calls",
            self_ns as f64 / 1e6,
            100.0 * self_ns as f64 / total.max(1) as f64
        );
    }
}

pub fn run(workload: &str, benchmark_seed: u64, seconds: u64) -> RunResult {
    let epoch = Instant::now();
    let mut m = Metrics::default();
    let mut failures = Vec::new();
    let fig1 = parse_policies(FIG1_POLICIES);
    let budget = |own: bool| {
        seconds as f64
            * if own {
                OWN_LOOP_SHARE
            } else {
                OTHER_LOOP_SHARE
            }
    };

    // The workload's set-up comes first, while the process is still cold:
    // one-time costs (page faults, lazy statics, the first spawn) land in
    // `setup.first_s`, which is why the gated `setup_s` is a median.
    let shape = if workload == "sched_warm" {
        &SCHED_WARM
    } else {
        &FIG1_COLD
    };
    let shape_policies = parse_policies(shape.policies);
    let mut setup_seeds = SeedSchedule::new(benchmark_seed, Stream::Setup);
    let mut setup_scripts = serve_mix::setup_scripts(benchmark_seed);
    let started = Instant::now();
    let mut shared = None;
    let mut service = None;
    let mut proc_specs = None;
    match workload {
        "serve_mix" => service = Some(serve_mix::set_up(&mut setup_scripts)),
        "proc_cold" => proc_specs = Some(proc_cold::set_up(&fig1, &mut setup_seeds)),
        _ => shared = shape.set_up(&shape_policies, &mut setup_seeds),
    }
    m.set("setup.first_s", started.elapsed().as_secs_f64());
    // The loops that are not the workload's own need only the bare minimum.
    let service = service.unwrap_or_else(|| {
        let mut service = serve_mix::Service::boot();
        serve_mix::submit(&mut service.clients[0], serve_mix::hot_spec());
        service
    });
    let proc_specs = proc_specs.unwrap_or_else(proc_cold::warm_specs);

    // Direct probes, one file per layer.
    let specs = probes::kernels::run(&mut m);
    probes::tdg::run(&mut m, &specs);
    probes::graph::run(
        &mut m,
        &probes::tdg::window_graphs(&specs, WindowConfig::default().window_size, 2),
        &probes::tdg::window_graphs(&specs, 256, 4),
    );
    let mut probe_seeds = SeedSchedule::new(benchmark_seed, Stream::Probe);
    probes::core::run(&mut m, &specs, &shape_policies, probe_seeds.next_seed());
    probes::runtime::frame_roundtrip(&mut m, BASELINE_FULL);
    let canonical = probes::runtime::stage_timing(&mut m, &fig1, &proc_specs);
    if canonical.to_json_string() != BASELINE_FULL {
        note_failure(
            &mut failures,
            "canonical seed: the probe's sweep is not BENCH_figure1_full.json".to_string(),
        );
    }
    let geomean = canonical
        .geomean_of("RGP+LAS:prop=repart")
        .unwrap_or(PAPER_GEOMEAN);
    m.set(
        "sim.paper_geomean_error_pct",
        100.0 * (geomean - PAPER_GEOMEAN) / PAPER_GEOMEAN,
    );
    probes::trace::run(&mut m, &fig1, probe_seeds.next_seed());

    // The three loops; the workload's own runs long and alternates.
    let own = |name: &str| workload == name;
    let in_process = !own("serve_mix") && !own("proc_cold");
    let (sweep_summary, sweep_spans) = sweep_loop(
        &mut m,
        shape,
        shared.as_ref(),
        benchmark_seed,
        budget(in_process),
        in_process,
        epoch,
        &mut failures,
    );
    let (serve_summary, serve_spans) = serve_loop(
        &mut m,
        service,
        benchmark_seed,
        budget(own("serve_mix")),
        own("serve_mix"),
        epoch,
        &mut failures,
    );
    let (proc_summary, proc_spans) = proc_loop(
        &mut m,
        &proc_specs,
        benchmark_seed,
        budget(own("proc_cold")),
        own("proc_cold"),
        epoch,
        &mut failures,
    );
    let summary = match workload {
        "serve_mix" => serve_summary,
        "proc_cold" => proc_summary,
        _ => sweep_summary,
    };

    let untraced_p50 = median(&summary.untraced_ms);
    m.set("tail.op_ms_p90", percentile(&summary.untraced_ms, 90.0));
    // Below 1,000 samples a 99th percentile is one or two ops: report the
    // maximum, which is what it then is.
    let p99 = if summary.untraced_ms.len() >= 1000 {
        99.0
    } else {
        100.0
    };
    m.set("tail.op_ms_p99", percentile(&summary.untraced_ms, p99));
    m.set("tail.op_ms_max", percentile(&summary.untraced_ms, 100.0));
    m.set("run.samples", summary.untraced_ms.len() as f64);
    m.set("run.cpu_ms_per_op", summary.cpu_ms_per_op);
    m.set("run.sim_tasks_per_s", summary.sim_tasks_per_s);
    m.set(
        "run.span_overhead_pct",
        100.0 * (median(&summary.traced_ms) - untraced_p50) / untraced_p50,
    );
    m.set("run.unattributed_pct", summary.unattributed_pct);

    // Spans out, and a self-time table for people.
    let mut scoped: Vec<(String, &SpanBuffer)> = vec![("sweep".to_string(), &sweep_spans)];
    for (client, buf) in serve_spans.iter().enumerate() {
        scoped.push((format!("serve.{client}"), buf));
    }
    scoped.push(("proc".to_string(), &proc_spans));
    let dir = crate::out_dir();
    std::fs::create_dir_all(&dir).expect("the output directory can be created");
    let path = dir.join(format!("{workload}.spans.jsonl"));
    let mut file = std::io::BufWriter::new(
        std::fs::File::create(&path).expect("the spans file can be created"),
    );
    let mut dropped = 0;
    for (scope, buf) in &scoped {
        buf.write_jsonl(&mut file, scope)
            .expect("the spans file can be written");
        dropped += buf.dropped();
        print_self_times(scope, buf.spans());
    }
    file.flush().expect("the spans file can be flushed");
    if dropped > 0 {
        note_failure(
            &mut failures,
            format!("{dropped} spans did not fit their buffer"),
        );
    }
    println!("spans written to {}", path.display());

    let attempted = summary.traced_ms.len() + summary.untraced_ms.len();
    RunResult {
        metrics: m,
        diagnostics: Vec::new(),
        attempted,
        failed: summary.failed_ops,
        failures,
        buckets: 0,
        op_series: Vec::new(),
        calibration: Vec::new(),
    }
}
