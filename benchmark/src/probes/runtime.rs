//! numadag-runtime: the sweep pipeline spelled out by hand with a span
//! around every stage (`Experiment::plan` -> per cell `SweepPlan::run_cell`
//! on an executor decorator -> `assemble_report` -> `to_json_string`), and
//! two direct probes: a frame round trip on the hot reply and the cost of the
//! simulator's own stage timing.

use std::io::{BufReader, Cursor};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use numadag::core::SchedulingPolicy;
use numadag::kernels::{Application, ProblemScale, SpecCache};
use numadag::runtime::framing::{read_frame, to_line};
use numadag::runtime::{
    CellContext, CellOutcome, ExecutionConfig, ExecutionReport, Executor, SweepPlan, SweepReport,
};
use numadag::tdg::TaskGraphSpec;
use serde::Value;

use super::core::{policy_key, TimedPolicy, POLICY_KEYS};
use super::kernels::SOCKETS;
use super::{median_ms, overhead_pct};
use crate::metrics::Metrics;
use crate::spans::{self_times_ns, Span, SpanBuffer, SpanId, NO_PARENT};
use crate::stats::median;
use crate::workloads::sweep;

/// Names of the per-policy cell spans and metrics, indexed like
/// [`POLICY_KEYS`].
const CELL_SPANS: [&str; 5] = [
    "runtime.cell.dfifo",
    "runtime.cell.las",
    "runtime.cell.ep",
    "runtime.cell.rgp-las",
    "runtime.cell.rgp-las.repart",
];
const CELL_METRICS: [&str; 5] = [
    "runtime.cell_ms.dfifo",
    "runtime.cell_ms.las",
    "runtime.cell_ms.ep",
    "runtime.cell_ms.rgp-las",
    "runtime.cell_ms.rgp-las.repart",
];
const POLICY_METRICS: [&str; 5] = [
    "core.policy_ms.dfifo",
    "core.policy_ms.las",
    "core.policy_ms.ep",
    "core.policy_ms.rgp-las",
    "core.policy_ms.rgp-las.repart",
];

fn key_index(label: &str) -> usize {
    let key = policy_key(label);
    POLICY_KEYS
        .iter()
        .position(|k| *k == key)
        .expect("policy_key returns a listed key")
}

/// What a [`SpanExecutor`] writes into while a sweep runs.
pub struct ExecState {
    pub buf: SpanBuffer,
    /// The op and the cell span the next `execute_cell` belongs to.
    pub op_id: u32,
    pub cell: SpanId,
    /// Simulated counts of the cells executed so far in this op.
    pub tasks: u64,
    pub sim_bytes: u64,
    pub remote_bytes: u64,
}

impl ExecState {
    pub fn new(buf: SpanBuffer) -> Self {
        ExecState {
            buf,
            op_id: 0,
            cell: NO_PARENT,
            tasks: 0,
            sim_bytes: 0,
            remote_bytes: 0,
        }
    }
}

/// An [`Executor`] decorator: one span per `execute_cell`, and (in-process)
/// the cell's policy wrapped in [`TimedPolicy`] so `prepare`/`assign` show
/// up as summed child spans. Results are the inner executor's, untouched.
pub struct SpanExecutor {
    inner: Box<dyn Executor>,
    /// Name of the span around the inner call.
    call_span: &'static str,
    /// Whether the policy runs here (simulator) or elsewhere (proc workers).
    time_policy: bool,
    /// A `Mutex` only because `Executor: Sync`; one thread ever takes it.
    state: Mutex<ExecState>,
}

impl SpanExecutor {
    pub fn new(
        inner: Box<dyn Executor>,
        call_span: &'static str,
        time_policy: bool,
        state: ExecState,
    ) -> Self {
        SpanExecutor {
            inner,
            call_span,
            time_policy,
            state: Mutex::new(state),
        }
    }

    pub fn state(&self) -> std::sync::MutexGuard<'_, ExecState> {
        self.state.lock().expect("no span recorder panicked")
    }

    pub fn into_state(self) -> ExecState {
        self.state.into_inner().expect("no span recorder panicked")
    }
}

impl Executor for SpanExecutor {
    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }

    fn config(&self) -> &ExecutionConfig {
        self.inner.config()
    }

    fn execute(&self, spec: &TaskGraphSpec, policy: &mut dyn SchedulingPolicy) -> ExecutionReport {
        self.execute_cell(spec, policy, None)
    }

    fn execute_cell(
        &self,
        spec: &TaskGraphSpec,
        policy: &mut dyn SchedulingPolicy,
        ctx: Option<&CellContext<'_>>,
    ) -> ExecutionReport {
        let (call, op_id) = {
            let mut st = self.state();
            let (cell, op_id) = (st.cell, st.op_id);
            (st.buf.open(self.call_span, cell, op_id), op_id)
        };
        let (report, timing) = if self.time_policy {
            let mut timed = TimedPolicy::new(policy);
            let report = self.inner.execute_cell(spec, &mut timed, ctx);
            (report, Some(timed.finish()))
        } else {
            (self.inner.execute_cell(spec, policy, ctx), None)
        };
        let mut st = self.state();
        st.buf.close(call);
        let (bytes, remote) = super::numa::traffic(&report);
        st.tasks += report.tasks as u64;
        st.sim_bytes += bytes;
        st.remote_bytes += remote;
        if let (Some(t), Some(started)) = (timing, st.buf.spans().get(call as usize)) {
            // Summed spans: laid out from the call's start, prepare first.
            let start = started.start_ns;
            let mut summed = |name, at: u64, ns: f64, parent, calls: u64| {
                st.buf.push(Span {
                    name,
                    start_ns: at,
                    end_ns: at + ns as u64,
                    parent,
                    op_id,
                    calls: calls as u32,
                })
            };
            let prepare = summed("core.prepare", start, t.prepare_ns, call, 1);
            let assign_at = start + t.prepare_ns as u64;
            let assign = summed("core.assign", assign_at, t.assign_ns, call, t.assign_calls);
            if t.partition_windows > 0 {
                // The first window is partitioned in `prepare`, the rest
                // lazily inside `assign`.
                let later = t.partition_windows.saturating_sub(1) as u64;
                summed(
                    "graph.partition",
                    start,
                    t.partition_in_prepare_ns,
                    prepare,
                    1,
                );
                if later > 0 {
                    summed(
                        "graph.partition",
                        assign_at,
                        t.partition_in_assign_ns,
                        assign,
                        later,
                    );
                }
            }
        }
        report
    }
}

/// Runs every cell of `plan` on `executor` inside per-policy cell spans
/// under `root`, then assembles the report: `SweepDriver::execute` by hand.
pub fn run_cells(plan: &SweepPlan, executor: &SpanExecutor, root: SpanId) -> SweepReport {
    let names: Vec<&'static str> = plan
        .policies()
        .iter()
        .map(|kind| CELL_SPANS[key_index(&kind.label())])
        .collect();
    let started = Instant::now();
    let outcomes: Vec<CellOutcome> = (0..plan.num_jobs())
        .map(|index| {
            let cell = {
                let mut st = executor.state();
                let op_id = st.op_id;
                let cell = st
                    .buf
                    .open(names[plan.job_at(index).policy_slot], root, op_id);
                st.cell = cell;
                cell
            };
            let outcome = plan.run_cell(index, executor);
            executor.state().buf.close(cell);
            outcome
        })
        .collect();
    let wall = started.elapsed();
    let mut st = executor.state();
    let op_id = st.op_id;
    let assemble = st.buf.open("runtime.assemble", root, op_id);
    drop(st);
    let report = plan.assemble_report(outcomes, 1, wall);
    executor.state().buf.close(assemble);
    report
}

/// What one traced sweep op produced besides its spans.
pub struct TracedSweep {
    pub report: SweepReport,
    pub json: String,
}

/// One traced in-process op: the workload's op (`Experiment::run()` +
/// `to_json_string()`) spelled out stage by stage. `shared` is the warm
/// cache of `sched_warm`; without it every op builds its specs.
pub fn traced_sweep(
    state: ExecState,
    policies: &[numadag::core::PolicyKind],
    seed: u64,
    shared: Option<&Arc<SpecCache>>,
) -> (TracedSweep, ExecState) {
    let mut state = state;
    let op_id = state.op_id;
    (state.tasks, state.sim_bytes, state.remote_bytes) = (0, 0, 0);
    let root = state.buf.open("op", NO_PARENT, op_id);
    let cache = shared
        .cloned()
        .unwrap_or_else(|| Arc::new(SpecCache::new()));
    for app in Application::all() {
        let span = state.buf.open("kernels.spec", root, op_id);
        std::hint::black_box(cache.get(app, ProblemScale::Full, SOCKETS));
        state.buf.close(span);
    }
    let span = state.buf.open("runtime.plan", root, op_id);
    let plan = sweep(policies, ProblemScale::Full, seed, cache).plan();
    state.buf.close(span);

    let executor = SpanExecutor::new(plan.executor(), "runtime.simulate", true, state);
    let report = run_cells(&plan, &executor, root);
    let mut state = executor.into_state();
    let span = state.buf.open("runtime.encode", root, op_id);
    let json = report.to_json_string();
    state.buf.close(span);
    state.buf.close(root);
    (TracedSweep { report, json }, state)
}

/// Per op: the sum over spans of `value(index, span)` where it is `Some`.
pub fn per_op(
    spans: &[Span],
    ops: usize,
    mut value: impl FnMut(usize, &Span) -> Option<f64>,
) -> Vec<f64> {
    let mut sums = vec![0.0; ops];
    for (i, span) in spans.iter().enumerate() {
        if let (Some(v), Some(slot)) = (value(i, span), sums.get_mut(span.op_id as usize)) {
            *slot += v;
        }
    }
    sums
}

fn ms(span: &Span) -> f64 {
    span.duration_ns() as f64 / 1e6
}

/// The per-op median of the summed duration of spans named `name`, in ms.
pub fn median_span_ms(spans: &[Span], ops: usize, name: &str) -> f64 {
    median(&per_op(spans, ops, |_, s| (s.name == name).then(|| ms(s))))
}

/// Sets the runtime/core/graph/numa metrics a pipeline loop of `ops` traced
/// sweeps supports. `counts` holds (tasks, bytes, remote bytes) of one op:
/// simulated, so the same for every op of a shape.
pub fn pipeline_metrics(m: &mut Metrics, spans: &[Span], ops: usize, counts: (u64, u64, u64)) {
    let selfs = self_times_ns(spans);
    let by_name = |name: &'static str| median_span_ms(spans, ops, name);
    m.set("runtime.plan_ms", by_name("runtime.plan"));
    m.set("runtime.assemble_ms", by_name("runtime.assemble"));
    m.set("runtime.report_encode_ms", by_name("runtime.encode"));
    m.set("core.prepare_ms", by_name("core.prepare"));
    let assign_ms = by_name("core.assign");
    m.set("core.assign_ms", assign_ms);
    let calls = median(&per_op(spans, ops, |_, s| {
        (s.name == "core.assign").then_some(f64::from(s.calls))
    }));
    m.set("core.assign_calls", calls);
    m.set("core.assign_ns_per_call", assign_ms * 1e6 / calls.max(1.0));
    m.set("graph.in_sweep_ms", by_name("graph.partition"));
    m.set(
        "graph.partition_calls",
        median(&per_op(spans, ops, |_, s| {
            (s.name == "graph.partition").then_some(f64::from(s.calls))
        })),
    );

    let event_loop_ms = median(&per_op(spans, ops, |i, s| {
        (s.name == "runtime.simulate").then(|| selfs[i] as f64 / 1e6)
    }));
    m.set("runtime.event_loop_ms", event_loop_ms);
    m.set(
        "runtime.event_loop_ns_per_task",
        event_loop_ms * 1e6 / (counts.0 as f64).max(1.0),
    );
    m.set(
        "runtime.driver_overhead_ms",
        median(&per_op(spans, ops, |i, s| {
            s.name
                .starts_with("runtime.cell.")
                .then(|| selfs[i] as f64 / 1e6)
        })),
    );
    for (k, cell_span) in CELL_SPANS.iter().enumerate() {
        m.set(CELL_METRICS[k], by_name(cell_span));
        // Policy time of a cell: the core.* spans two levels below it.
        let policy_ms = median(&per_op(spans, ops, |_, s| {
            let cell = spans.get(spans.get(s.parent as usize)?.parent as usize)?;
            (s.name.starts_with("core.") && cell.name == *cell_span).then(|| ms(s))
        }));
        m.set(POLICY_METRICS[k], policy_ms);
    }
    m.set("numa.sim_bytes_total", counts.1 as f64);
    m.set("numa.remote_bytes_total", counts.2 as f64);
}

/// `runtime.frame_roundtrip_us`: `framing::to_line` + `read_frame` on a
/// reply the size of the hot one.
pub fn frame_roundtrip(m: &mut Metrics, hot_report_json: &str) {
    let reply = Value::Object(vec![(
        "Report".to_string(),
        Value::Object(vec![
            ("job".to_string(), Value::Number(1.0)),
            ("cache_hit".to_string(), Value::Bool(true)),
            ("executed_cells".to_string(), Value::Number(0.0)),
            ("hydrated_cells".to_string(), Value::Number(0.0)),
            (
                "report_json".to_string(),
                Value::String(hot_report_json.to_string()),
            ),
        ]),
    )]);
    let round_trip_ms = median_ms(200, || {
        let mut line = to_line(&reply);
        line.push('\n');
        let mut reader = BufReader::new(Cursor::new(line.into_bytes()));
        let frame = read_frame(&mut reader).expect("a frame just written reads back");
        std::hint::black_box(frame);
    });
    m.set("runtime.frame_roundtrip_us", round_trip_ms * 1e3);
}

/// `runtime.stage_timing_overhead_pct`: the figure's sweep on a warm cache
/// with `stage_timing(true)` against the same sweep without. Returns the
/// canonical-seed report the plain side produced.
pub fn stage_timing(
    m: &mut Metrics,
    policies: &[numadag::core::PolicyKind],
    cache: &Arc<SpecCache>,
) -> SweepReport {
    let run = |on: bool| {
        sweep(
            policies,
            ProblemScale::Full,
            crate::seeds::CANONICAL_SEED,
            Arc::clone(cache),
        )
        .stage_timing(on)
        .run()
    };
    let canonical = run(false);
    m.set(
        "runtime.stage_timing_overhead_pct",
        overhead_pct(
            6,
            || {
                std::hint::black_box(run(false));
            },
            || {
                std::hint::black_box(run(true));
            },
        ),
    );
    m.set(
        "runtime.report_bytes",
        canonical.to_json_string().len() as f64,
    );
    canonical
}
