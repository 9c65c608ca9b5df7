//! Wire codec for the coordinator ↔ worker IPC.
//!
//! Every message is one newline-delimited JSON value (the framing itself —
//! line limits, truncation detection, UTF-8 validation — lives in
//! [`numadag_runtime::framing`], shared with the serve protocol). Messages
//! are externally tagged, `{"assign": {...}}`, with unit messages encoded as
//! bare strings (`"shutdown"`).
//!
//! Two encoding rules keep cross-process results byte-identical to
//! in-process runs:
//!
//! * **`f64` travels as a JSON number.** The vendored `serde_json`
//!   guarantees that parsing reproduces every finite shortest-round-trip
//!   formatted number exactly, so simulated makespans survive the hop
//!   bit-for-bit.
//! * **`u64`/`u128` never lose bits to the `f64` behind a JSON number**,
//!   which only holds 53 bits of integer. In the small messages they travel
//!   as lowercase hex strings. In the bulk columns of `spec` they follow
//!   the number-or-hex rule of [`push_wire_u64`]: a plain JSON integer when
//!   exactly representable (below 2^53), the hex string otherwise, and the
//!   decoder accepts both forms.
//!
//! Every message but one is built as a small [`Value`] tree and rendered by
//! reference ([`numadag_runtime::framing::to_line`] clones nothing). The
//! exception is `spec`, the only message whose size grows with the
//! workload (1.3 MB for the eight paper applications at Full scale, shipped
//! to every worker): [`encode_spec`] writes its line straight into one
//! `String`, in a columnar layout that costs a worker one flat array per
//! field instead of one object per task, and [`decode_spec`] validates
//! those columns before it constructs anything, so a malformed `spec` is a
//! structured `error` reply and never a worker panic.

use std::collections::HashMap;
use std::sync::Arc;

use numadag_numa::{CostModel, DistanceMatrix, NodeId, SocketId, Topology, TrafficStats};
use numadag_runtime::framing::{
    bool_field, f64_field, field, hex_u128, hex_u128_field, hex_u64, hex_u64_field, push_wire_u64,
    str_field, u64_field, wire_u64,
};
use numadag_runtime::{ExecutionConfig, ExecutionReport, Simulator, StealMode, TaskPlacement};
use numadag_tdg::{AccessMode, DataAccess, TaskDescriptor, TaskGraph, TaskGraphSpec, TaskId};
use numadag_trace::{parse_event, TraceEvent};
use serde::{Serialize, Value};

/// Protocol version, sent in every `config` message. A worker that sees a
/// version it does not speak replies with `error` instead of guessing.
pub const PROTOCOL_VERSION: u64 = 2;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn tag(name: &str, payload: Value) -> Value {
    Value::Object(vec![(name.to_string(), payload)])
}

fn s(text: impl Into<String>) -> Value {
    Value::String(text.into())
}

fn num(value: f64) -> Value {
    Value::Number(value)
}

fn arr(values: Vec<Value>) -> Value {
    Value::Array(values)
}

fn usize_field(value: &Value, variant: &str, name: &str) -> Result<usize, String> {
    Ok(u64_field(value, variant, name)? as usize)
}

fn array_field<'v>(value: &'v Value, variant: &str, name: &str) -> Result<&'v [Value], String> {
    field(value, variant, name)?
        .as_array()
        .map(|v| v.as_slice())
        .ok_or_else(|| format!("{variant}.{name} is not an array"))
}

// ---------------------------------------------------------------------------
// Coordinator → worker
// ---------------------------------------------------------------------------

/// One cell of work: run `policy` (seeded with `policy_seed`) over the spec
/// identified by `spec_fp` and report back under id `cell`.
#[derive(Clone, Debug, PartialEq)]
pub struct Assignment {
    /// Coordinator-side cell id, echoed back in `data_home`/`steal`/`done`.
    pub cell: u64,
    /// Fingerprint of a spec previously shipped with a `spec` message.
    pub spec_fp: u64,
    /// Canonical policy label ([`numadag_core::PolicyKind`] `FromStr` form).
    pub policy: String,
    /// Seed handed to the policy factory.
    pub policy_seed: u64,
    /// Emit `TraceEvent`s while executing and return them in `done`.
    pub events: bool,
    /// Collect the per-task placement trace into the report.
    pub placements: bool,
}

/// Encodes the `config` message: the full [`ExecutionConfig`] a worker needs
/// to mirror the coordinator's executor, tagged with `epoch` (the config's
/// own fingerprint) so acks can be matched to the config they acknowledge.
pub fn encode_config(epoch: u64, config: &ExecutionConfig) -> Value {
    let topo = &config.topology;
    let n = topo.num_sockets();
    let mut distances = Vec::with_capacity(n * n);
    for i in 0..n {
        for j in 0..n {
            distances.push(num(topo.distance(NodeId(i), NodeId(j)) as f64));
        }
    }
    let cost = &config.cost_model;
    tag(
        "config",
        obj(vec![
            ("version", num(PROTOCOL_VERSION as f64)),
            ("epoch", s(hex_u64(epoch))),
            (
                "topology",
                obj(vec![
                    ("name", s(topo.name())),
                    ("sockets", num(n as f64)),
                    ("cores", num(topo.cores_per_socket() as f64)),
                    ("distances", arr(distances)),
                ]),
            ),
            (
                "cost",
                obj(vec![
                    ("local_bandwidth", num(cost.local_bandwidth)),
                    ("local_latency", num(cost.local_latency)),
                    ("bandwidth_exponent", num(cost.bandwidth_exponent)),
                    ("latency_exponent", num(cost.latency_exponent)),
                    ("contention_factor", num(cost.contention_factor)),
                    ("time_per_work_unit", num(cost.time_per_work_unit)),
                ]),
            ),
            (
                "steal",
                s(match config.steal {
                    StealMode::NearestSocket => "nearest",
                    StealMode::NoStealing => "none",
                }),
            ),
            ("stage_timing", Value::Bool(config.stage_timing)),
            ("seed", s(hex_u64(config.seed))),
        ]),
    )
}

/// Decodes a `config` payload into its epoch and the reconstructed
/// [`ExecutionConfig`] (trace flags and sink are per-assignment, not part of
/// the shipped config).
pub fn decode_config(payload: &Value) -> Result<(u64, ExecutionConfig), String> {
    let version = u64_field(payload, "config", "version")?;
    if version != PROTOCOL_VERSION {
        return Err(format!(
            "config.version {version} is not the supported protocol version {PROTOCOL_VERSION}"
        ));
    }
    let epoch = hex_u64_field(payload, "config", "epoch")?;
    let topo = field(payload, "config", "topology")?;
    let name = str_field(topo, "config.topology", "name")?;
    let sockets = usize_field(topo, "config.topology", "sockets")?;
    if sockets > Simulator::MAX_SOCKETS {
        return Err(format!(
            "config.topology.sockets {sockets} exceeds the simulator's limit of {}",
            Simulator::MAX_SOCKETS
        ));
    }
    let cores = usize_field(topo, "config.topology", "cores")?;
    let distances = array_field(topo, "config.topology", "distances")?;
    if distances.len() != sockets * sockets {
        return Err(format!(
            "config.topology.distances has {} entries, expected {}",
            distances.len(),
            sockets * sockets
        ));
    }
    let values = distances
        .iter()
        .map(|v| {
            v.as_u64()
                .map(|d| d as u32)
                .ok_or_else(|| "config.topology.distances entry is not a number".to_string())
        })
        .collect::<Result<Vec<u32>, String>>()?;
    let topology = Topology::new(
        name,
        sockets,
        cores,
        DistanceMatrix::from_rows(sockets, values),
    );
    let cost = field(payload, "config", "cost")?;
    let cost_model = CostModel {
        local_bandwidth: f64_field(cost, "config.cost", "local_bandwidth")?,
        local_latency: f64_field(cost, "config.cost", "local_latency")?,
        bandwidth_exponent: f64_field(cost, "config.cost", "bandwidth_exponent")?,
        latency_exponent: f64_field(cost, "config.cost", "latency_exponent")?,
        contention_factor: f64_field(cost, "config.cost", "contention_factor")?,
        time_per_work_unit: f64_field(cost, "config.cost", "time_per_work_unit")?,
    };
    let steal = match str_field(payload, "config", "steal")?.as_str() {
        "nearest" => StealMode::NearestSocket,
        "none" => StealMode::NoStealing,
        other => return Err(format!("config.steal {other:?} is not a known steal mode")),
    };
    let mut config = ExecutionConfig::new(topology)
        .with_cost_model(cost_model)
        .with_steal(steal)
        .with_seed(hex_u64_field(payload, "config", "seed")?);
    if bool_field(payload, "config", "stage_timing")? {
        config = config.with_stage_timing();
    }
    Ok((epoch, config))
}

/// Starts a column of the `spec` message: `,"name":[`.
fn open_column(out: &mut String, name: &str) {
    out.push_str(",\"");
    out.push_str(name);
    out.push_str("\":[");
}

/// Appends one `u64` entry (and its separator) to the open column.
fn push_entry(out: &mut String, value: u64) {
    push_wire_u64(out, value);
    out.push(',');
}

/// Ends the open column, turning the last entry's separator into the `]`.
fn close_column(out: &mut String) {
    if out.ends_with(',') {
        out.pop();
    }
    out.push(']');
}

fn push_json_str(out: &mut String, text: &str) {
    out.push_str(&serde_json::to_string(&text).expect("strings are always encodable"));
}

/// Encodes the `spec` message — a complete [`TaskGraphSpec`], keyed by its
/// fingerprint, shipped once per worker and referenced by `fp` afterwards —
/// straight into its wire line (no trailing newline, no intermediate
/// [`Value`] nodes).
///
/// The layout is columnar: the distinct task kinds form a string table
/// (`kinds`) and everything per task, per access and per dependence is a
/// flat numeric array — `kind` (index into `kinds`), `work`, `n_acc` /
/// `n_dep` (how many accesses / dependences each task owns), `acc`
/// (`region, mode, bytes` runs in task order), `dep` (`pred, bytes` runs in
/// task order), then `regions` and `ep` (`null` without an expert
/// placement). Every `u64` is in the number-or-hex form of
/// [`push_wire_u64`]; `work` is the shortest decimal that parses back to the
/// same bits.
pub fn encode_spec(spec: &TaskGraphSpec) -> String {
    use std::fmt::Write as _;

    let graph = &spec.graph;
    let tasks = graph.tasks();
    let accesses: usize = tasks.iter().map(|task| task.accesses.len()).sum();
    // A little over 4 bytes per number on the eight paper applications.
    let numbers = 4 * tasks.len()
        + 3 * accesses
        + 2 * graph.num_edges()
        + spec.region_sizes.len()
        + spec.ep_socket.as_ref().map_or(0, Vec::len);
    let mut out = String::with_capacity(256 + 5 * numbers);

    out.push_str("{\"spec\":{\"fp\":");
    push_wire_u64(&mut out, spec.fingerprint());
    out.push_str(",\"name\":");
    push_json_str(&mut out, &spec.name);

    // The string table first (in order of first appearance), remembering
    // each task's index into it for the `kind` column.
    let mut kind_index: HashMap<&str, u64> = HashMap::new();
    let mut kind_column = Vec::with_capacity(tasks.len());
    open_column(&mut out, "kinds");
    for task in tasks {
        let next = kind_index.len() as u64;
        let index = *kind_index.entry(task.kind.as_str()).or_insert_with(|| {
            push_json_str(&mut out, &task.kind);
            out.push(',');
            next
        });
        kind_column.push(index);
    }
    close_column(&mut out);

    open_column(&mut out, "kind");
    for index in kind_column {
        push_entry(&mut out, index);
    }
    close_column(&mut out);

    open_column(&mut out, "work");
    for task in tasks {
        if task.work_units.is_finite() {
            write!(out, "{},", task.work_units).expect("writing to a String cannot fail");
        } else {
            // JSON has no NaN/Infinity; the decoder rejects the null.
            out.push_str("null,");
        }
    }
    close_column(&mut out);

    open_column(&mut out, "n_acc");
    for task in tasks {
        push_entry(&mut out, task.accesses.len() as u64);
    }
    close_column(&mut out);

    open_column(&mut out, "n_dep");
    for task in tasks {
        push_entry(&mut out, graph.predecessors(task.id).len() as u64);
    }
    close_column(&mut out);

    open_column(&mut out, "acc");
    for access in tasks.iter().flat_map(|task| &task.accesses) {
        push_entry(&mut out, access.region.0 as u64);
        push_entry(
            &mut out,
            match access.mode {
                AccessMode::In => 0,
                AccessMode::Out => 1,
                AccessMode::InOut => 2,
            },
        );
        push_entry(&mut out, access.bytes);
    }
    close_column(&mut out);

    open_column(&mut out, "dep");
    for task in tasks {
        for &(pred, bytes) in graph.predecessors(task.id) {
            push_entry(&mut out, pred.0 as u64);
            push_entry(&mut out, bytes);
        }
    }
    close_column(&mut out);

    open_column(&mut out, "regions");
    for &bytes in &spec.region_sizes {
        push_entry(&mut out, bytes);
    }
    close_column(&mut out);

    match &spec.ep_socket {
        Some(placement) => {
            open_column(&mut out, "ep");
            for &socket in placement {
                push_entry(&mut out, socket as u64);
            }
            close_column(&mut out);
        }
        None => out.push_str(",\"ep\":null"),
    }
    out.push_str("}}");
    out
}

/// One `u64` column of a `spec` payload, decoded.
fn u64_column(payload: &Value, name: &str) -> Result<Vec<u64>, String> {
    array_field(payload, "spec", name)?
        .iter()
        .enumerate()
        .map(|(i, value)| wire_u64(value).map_err(|e| format!("spec.{name}[{i}]: {e}")))
        .collect()
}

/// A per-task column: exactly one entry per task.
fn task_column(payload: &Value, name: &str, tasks: usize) -> Result<Vec<u64>, String> {
    let column = u64_column(payload, name)?;
    if column.len() != tasks {
        return Err(format!(
            "spec.{name} has {} entries for {tasks} tasks",
            column.len()
        ));
    }
    Ok(column)
}

/// Checks that a flattened run column holds exactly the `width`-number
/// entries its per-task count column announces.
fn check_runs(name: &str, run: &[u64], width: usize, counts: &[u64]) -> Result<(), String> {
    let announced = counts
        .iter()
        .try_fold(0u64, |sum, &n| sum.checked_add(n))
        .and_then(|entries| entries.checked_mul(width as u64));
    if announced != Some(run.len() as u64) {
        return Err(format!(
            "spec.{name} has {} numbers, its per-task counts announce {}",
            run.len(),
            announced.map_or("an overflowing total".to_string(), |n| n.to_string()),
        ));
    }
    Ok(())
}

/// Decodes a `spec` payload into the advertised fingerprint and the rebuilt
/// [`TaskGraphSpec`].
///
/// Everything [`TaskGraph::push_task`] and
/// [`TaskGraphSpec::with_ep_placement`] would `assert!` — and the table
/// bounds they take on trust — is validated on the columns first, so a
/// malformed message is an `Err`, never a worker panic: column lengths
/// against the task count and their own counts, kind indices against the
/// string table, region ids against the region table, modes in `0..=2`,
/// every dependence on a strictly earlier task (ascending within a task,
/// the order the encoder emits, so none repeats) and the EP length. Last,
/// the rebuilt spec's own fingerprint must match the advertised one or the
/// transfer corrupted something the shape checks cannot see.
pub fn decode_spec(payload: &Value) -> Result<(u64, TaskGraphSpec), String> {
    let fp = wire_u64(field(payload, "spec", "fp")?).map_err(|e| format!("spec.fp: {e}"))?;
    let name = str_field(payload, "spec", "name")?;
    let kinds = array_field(payload, "spec", "kinds")?
        .iter()
        .map(|kind| kind.as_str().ok_or("spec.kinds entry is not a string"))
        .collect::<Result<Vec<&str>, _>>()?;
    let work = array_field(payload, "spec", "work")?;
    let tasks = work.len();
    let kind = task_column(payload, "kind", tasks)?;
    let n_acc = task_column(payload, "n_acc", tasks)?;
    let n_dep = task_column(payload, "n_dep", tasks)?;
    let acc = u64_column(payload, "acc")?;
    let dep = u64_column(payload, "dep")?;
    check_runs("acc", &acc, 3, &n_acc)?;
    check_runs("dep", &dep, 2, &n_dep)?;
    let regions = u64_column(payload, "regions")?;
    let ep = match field(payload, "spec", "ep")? {
        Value::Null => None,
        _ => Some(task_column(payload, "ep", tasks)?),
    };

    let mut graph = TaskGraph::new();
    let mut acc = acc.chunks_exact(3);
    let mut dep = dep.chunks_exact(2);
    let mut deps = Vec::new();
    for index in 0..tasks {
        let kind = *kinds.get(kind[index] as usize).ok_or_else(|| {
            format!(
                "spec.kind[{index}] is {}, the kinds table has {} entries",
                kind[index],
                kinds.len()
            )
        })?;
        let work_units = work[index]
            .as_f64()
            .ok_or_else(|| format!("spec.work[{index}] is not a number"))?;
        let accesses = acc
            .by_ref()
            .take(n_acc[index] as usize)
            .map(|entry| {
                let (region, mode, bytes) = (entry[0], entry[1], entry[2]);
                if region >= regions.len() as u64 {
                    return Err(format!(
                        "task {index} accesses region {region}, the region table has {} entries",
                        regions.len()
                    ));
                }
                let mode = match mode {
                    0 => AccessMode::In,
                    1 => AccessMode::Out,
                    2 => AccessMode::InOut,
                    other => {
                        return Err(format!(
                            "task {index} has access mode {other}, expected 0, 1 or 2"
                        ))
                    }
                };
                Ok(DataAccess {
                    region: numadag_numa::RegionId(region as usize),
                    mode,
                    bytes,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        deps.clear();
        for entry in dep.by_ref().take(n_dep[index] as usize) {
            let (pred, bytes) = (entry[0], entry[1]);
            if pred >= index as u64 {
                return Err(format!(
                    "task {index} depends on task {pred}, which is not an earlier task"
                ));
            }
            if matches!(deps.last(), Some(&(TaskId(last), _)) if pred <= last as u64) {
                return Err(format!(
                    "task {index} lists its dependences out of order at task {pred}"
                ));
            }
            deps.push((TaskId(pred as usize), bytes));
        }
        graph.push_task(
            TaskDescriptor {
                id: TaskId(index),
                kind: kind.to_string(),
                work_units,
                accesses,
            },
            &deps,
        );
    }

    let mut spec = TaskGraphSpec::new(name, graph, regions);
    if let Some(placement) = ep {
        spec = spec.with_ep_placement(placement.into_iter().map(|s| s as usize).collect());
    }
    let rebuilt = spec.fingerprint();
    if rebuilt != fp {
        return Err(format!(
            "spec fingerprint mismatch: advertised {:#x}, rebuilt {:#x}",
            fp, rebuilt
        ));
    }
    Ok((fp, spec))
}

/// Encodes the `assign` message.
pub fn encode_assign(assign: &Assignment) -> Value {
    tag(
        "assign",
        obj(vec![
            ("cell", num(assign.cell as f64)),
            ("fp", s(hex_u64(assign.spec_fp))),
            ("policy", s(assign.policy.as_str())),
            ("policy_seed", s(hex_u64(assign.policy_seed))),
            ("events", Value::Bool(assign.events)),
            ("placements", Value::Bool(assign.placements)),
        ]),
    )
}

/// Decodes an `assign` payload.
pub fn decode_assign(payload: &Value) -> Result<Assignment, String> {
    Ok(Assignment {
        cell: u64_field(payload, "assign", "cell")?,
        spec_fp: hex_u64_field(payload, "assign", "fp")?,
        policy: str_field(payload, "assign", "policy")?,
        policy_seed: hex_u64_field(payload, "assign", "policy_seed")?,
        events: bool_field(payload, "assign", "events")?,
        placements: bool_field(payload, "assign", "placements")?,
    })
}

/// Encodes the `barrier` message (coordinator side of a collective barrier).
pub fn encode_barrier(epoch: u64) -> Value {
    tag("barrier", obj(vec![("epoch", s(hex_u64(epoch)))]))
}

/// Encodes the `shutdown` message (unit: a bare string on the wire).
pub fn encode_shutdown() -> Value {
    s("shutdown")
}

// ---------------------------------------------------------------------------
// Worker → coordinator
// ---------------------------------------------------------------------------

/// Encodes the `hello` message a worker sends right after connecting.
pub fn encode_hello(worker: u64, pid: u64) -> Value {
    tag(
        "hello",
        obj(vec![
            ("worker", num(worker as f64)),
            ("pid", num(pid as f64)),
        ]),
    )
}

/// Decodes a `hello` payload into `(worker, pid)`.
pub fn decode_hello(payload: &Value) -> Result<(u64, u64), String> {
    Ok((
        u64_field(payload, "hello", "worker")?,
        u64_field(payload, "hello", "pid")?,
    ))
}

/// Encodes the `config_ack` message.
pub fn encode_config_ack(epoch: u64) -> Value {
    tag("config_ack", obj(vec![("epoch", s(hex_u64(epoch)))]))
}

/// Decodes a `config_ack` (or `barrier`/`barrier_ack`) payload's epoch.
pub fn decode_epoch(payload: &Value, variant: &str) -> Result<u64, String> {
    hex_u64_field(payload, variant, "epoch")
}

/// Encodes the `data_home` notification: how many bytes the cell placed by
/// deferred allocation (first touch) while executing.
pub fn encode_data_home(cell: u64, deferred_bytes: u64) -> Value {
    tag(
        "data_home",
        obj(vec![
            ("cell", num(cell as f64)),
            ("deferred_bytes", s(hex_u64(deferred_bytes))),
        ]),
    )
}

/// Decodes a `data_home` payload into `(cell, deferred_bytes)`.
pub fn decode_data_home(payload: &Value) -> Result<(u64, u64), String> {
    Ok((
        u64_field(payload, "data_home", "cell")?,
        hex_u64_field(payload, "data_home", "deferred_bytes")?,
    ))
}

/// Encodes the `steal` notification: how many tasks of the cell ran on a
/// socket other than the one the policy chose.
pub fn encode_steal(cell: u64, stolen: u64) -> Value {
    tag(
        "steal",
        obj(vec![
            ("cell", num(cell as f64)),
            ("stolen", num(stolen as f64)),
        ]),
    )
}

/// Decodes a `steal` payload into `(cell, stolen)`.
pub fn decode_steal(payload: &Value) -> Result<(u64, u64), String> {
    Ok((
        u64_field(payload, "steal", "cell")?,
        u64_field(payload, "steal", "stolen")?,
    ))
}

/// Encodes the `barrier_ack` message.
pub fn encode_barrier_ack(epoch: u64) -> Value {
    tag("barrier_ack", obj(vec![("epoch", s(hex_u64(epoch)))]))
}

/// Encodes the `error` message (worker-side structured failure).
pub fn encode_error(message: &str) -> Value {
    tag("error", obj(vec![("message", s(message))]))
}

/// Decodes an `error` payload's message.
pub fn decode_error(payload: &Value) -> Result<String, String> {
    str_field(payload, "error", "message")
}

fn encode_report(report: &ExecutionReport) -> Value {
    let traffic = &report.traffic;
    let links = traffic
        .link_entries()
        .map(|((from, to), bytes)| arr(vec![num(from as f64), num(to as f64), s(hex_u64(bytes))]))
        .collect();
    let trace = report
        .trace
        .iter()
        .map(|p| {
            arr(vec![
                num(p.task.0 as f64),
                num(p.socket.0 as f64),
                num(p.start),
                num(p.end),
                Value::Bool(p.stolen),
            ])
        })
        .collect();
    obj(vec![
        ("makespan_ns", num(report.makespan_ns)),
        ("tasks", num(report.tasks as f64)),
        (
            "traffic",
            obj(vec![
                ("local", s(hex_u64(traffic.local_bytes))),
                ("remote", s(hex_u64(traffic.remote_bytes))),
                ("deferred", s(hex_u64(traffic.deferred_allocated_bytes))),
                ("dw", s(hex_u128(traffic.distance_weighted()))),
                ("links", arr(links)),
            ]),
        ),
        (
            "tasks_per_socket",
            arr(report
                .tasks_per_socket
                .iter()
                .map(|n| num(*n as f64))
                .collect()),
        ),
        (
            "busy_per_socket",
            arr(report.busy_per_socket.iter().map(|b| num(*b)).collect()),
        ),
        ("stolen_tasks", num(report.stolen_tasks as f64)),
        ("deferred_bytes", s(hex_u64(report.deferred_bytes))),
        ("policy_wall_ns", num(report.policy_wall_ns)),
        ("event_loop_wall_ns", num(report.event_loop_wall_ns)),
        ("trace", arr(trace)),
    ])
}

fn decode_report(
    payload: &Value,
    workload: Arc<str>,
    policy: &'static str,
) -> Result<ExecutionReport, String> {
    let traffic_value = field(payload, "done.report", "traffic")?;
    let links = array_field(traffic_value, "done.report.traffic", "links")?
        .iter()
        .map(|link| {
            let parts = link
                .as_array()
                .ok_or_else(|| "traffic link is not an array".to_string())?;
            if parts.len() != 3 {
                return Err(format!(
                    "traffic link has {} entries, expected 3",
                    parts.len()
                ));
            }
            let from = parts[0]
                .as_u64()
                .ok_or_else(|| "traffic link from is not a number".to_string())?;
            let to = parts[1]
                .as_u64()
                .ok_or_else(|| "traffic link to is not a number".to_string())?;
            let bytes = parts[2]
                .as_str()
                .ok_or_else(|| "traffic link bytes is not a hex string".to_string())
                .and_then(numadag_runtime::framing::parse_hex_u64)?;
            Ok(((from as usize, to as usize), bytes))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let traffic = TrafficStats::from_parts(
        hex_u64_field(traffic_value, "done.report.traffic", "local")?,
        hex_u64_field(traffic_value, "done.report.traffic", "remote")?,
        hex_u64_field(traffic_value, "done.report.traffic", "deferred")?,
        links,
        hex_u128_field(traffic_value, "done.report.traffic", "dw")?,
    );
    let tasks_per_socket = array_field(payload, "done.report", "tasks_per_socket")?
        .iter()
        .map(|n| {
            n.as_u64()
                .map(|v| v as usize)
                .ok_or_else(|| "tasks_per_socket entry is not a number".to_string())
        })
        .collect::<Result<Vec<usize>, String>>()?;
    let busy_per_socket = array_field(payload, "done.report", "busy_per_socket")?
        .iter()
        .map(|b| {
            b.as_f64()
                .ok_or_else(|| "busy_per_socket entry is not a number".to_string())
        })
        .collect::<Result<Vec<f64>, String>>()?;
    let trace = array_field(payload, "done.report", "trace")?
        .iter()
        .map(|p| {
            let parts = p
                .as_array()
                .ok_or_else(|| "trace entry is not an array".to_string())?;
            if parts.len() != 5 {
                return Err(format!(
                    "trace entry has {} entries, expected 5",
                    parts.len()
                ));
            }
            Ok(TaskPlacement {
                task: TaskId(
                    parts[0]
                        .as_u64()
                        .ok_or_else(|| "trace task is not a number".to_string())?
                        as usize,
                ),
                socket: SocketId(
                    parts[1]
                        .as_u64()
                        .ok_or_else(|| "trace socket is not a number".to_string())?
                        as usize,
                ),
                start: parts[2]
                    .as_f64()
                    .ok_or_else(|| "trace start is not a number".to_string())?,
                end: parts[3]
                    .as_f64()
                    .ok_or_else(|| "trace end is not a number".to_string())?,
                stolen: parts[4]
                    .as_bool()
                    .ok_or_else(|| "trace stolen is not a bool".to_string())?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ExecutionReport {
        workload,
        policy,
        makespan_ns: f64_field(payload, "done.report", "makespan_ns")?,
        tasks: usize_field(payload, "done.report", "tasks")?,
        traffic,
        tasks_per_socket,
        busy_per_socket,
        stolen_tasks: usize_field(payload, "done.report", "stolen_tasks")?,
        deferred_bytes: hex_u64_field(payload, "done.report", "deferred_bytes")?,
        policy_wall_ns: f64_field(payload, "done.report", "policy_wall_ns")?,
        event_loop_wall_ns: f64_field(payload, "done.report", "event_loop_wall_ns")?,
        trace,
    })
}

/// Encodes the `done` message carrying the cell's full [`ExecutionReport`]
/// and any collected [`TraceEvent`]s. The report's string labels do not
/// travel (the coordinator re-attaches them from its own policy/workload
/// handles, which is what keeps `policy` a `'static` literal).
pub fn encode_done(cell: u64, report: &ExecutionReport, events: &[TraceEvent]) -> Value {
    tag(
        "done",
        obj(vec![
            ("cell", num(cell as f64)),
            ("report", encode_report(report)),
            (
                "events",
                arr(events.iter().map(|event| event.to_value()).collect()),
            ),
        ]),
    )
}

/// Decodes a `done` payload. `workload` and `policy` are supplied by the
/// coordinator (it knows which assignment the cell id maps to).
pub fn decode_done(
    payload: &Value,
    workload: Arc<str>,
    policy: &'static str,
) -> Result<(u64, ExecutionReport, Vec<TraceEvent>), String> {
    let cell = u64_field(payload, "done", "cell")?;
    let report = decode_report(field(payload, "done", "report")?, workload, policy)?;
    let events = array_field(payload, "done", "events")?
        .iter()
        .map(parse_event)
        .collect::<Result<Vec<_>, String>>()?;
    Ok((cell, report, events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use numadag_runtime::framing::{to_line, untag};
    use numadag_tdg::TaskGraphSpec;

    fn roundtrip(value: &Value) -> Value {
        serde_json::from_str(&to_line(value)).expect("wire line parses back")
    }

    fn task(
        index: usize,
        kind: &str,
        work_units: f64,
        accesses: &[(usize, AccessMode, u64)],
    ) -> TaskDescriptor {
        TaskDescriptor {
            id: TaskId(index),
            kind: kind.to_string(),
            work_units,
            accesses: accesses
                .iter()
                .map(|&(region, mode, bytes)| DataAccess {
                    region: numadag_numa::RegionId(region),
                    mode,
                    bytes,
                })
                .collect(),
        }
    }

    /// Two writers and a reader of both: every column has an entry.
    fn sample_spec() -> TaskGraphSpec {
        let mut graph = TaskGraph::new();
        let a = graph.push_task(task(0, "init", 3.5, &[(0, AccessMode::Out, 1 << 20)]), &[]);
        let b = graph.push_task(task(1, "init", 0.25, &[(1, AccessMode::InOut, 4096)]), &[]);
        graph.push_task(
            task(
                2,
                "use",
                7.0,
                &[(0, AccessMode::In, 1 << 20), (1, AccessMode::In, 4096)],
            ),
            &[(a, 1 << 20), (b, 4096)],
        );
        TaskGraphSpec::new("wire-spec", graph, vec![1 << 20, 4096]).with_ep_placement(vec![1, 0, 1])
    }

    /// What a worker does with a `spec` line.
    fn decode_line(line: &str) -> Result<(u64, TaskGraphSpec), String> {
        let message = serde_json::from_str(line).map_err(|e| e.to_string())?;
        let (name, payload) = untag(&message)?;
        assert_eq!(name, "spec");
        decode_spec(payload)
    }

    fn assert_spec_round_trips(spec: &TaskGraphSpec) {
        let line = encode_spec(spec);
        assert!(!line.contains('\n'), "{}: a frame is one line", spec.name);
        let (fp, decoded) = decode_line(&line).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert_eq!(fp, spec.fingerprint());
        assert_eq!(decoded.fingerprint(), fp);
        assert_eq!(decoded.name, spec.name);
        assert_eq!(decoded.region_sizes, spec.region_sizes);
        assert_eq!(decoded.ep_socket, spec.ep_socket);
        assert_eq!(decoded.graph.num_edges(), spec.graph.num_edges());
        for (got, want) in decoded.graph.tasks().iter().zip(spec.graph.tasks()) {
            assert_eq!((got.id, &got.kind), (want.id, &want.kind));
            assert_eq!(got.work_units.to_bits(), want.work_units.to_bits());
            assert_eq!(got.accesses, want.accesses);
            assert_eq!(
                decoded.graph.predecessors(got.id),
                spec.graph.predecessors(want.id)
            );
            assert!(decoded
                .graph
                .successors(got.id)
                .eq(spec.graph.successors(want.id)));
        }
        assert_eq!(decoded.graph.num_tasks(), spec.graph.num_tasks());
    }

    /// The payload of `spec`'s wire line, for the malformed-input rows.
    fn spec_payload(spec: &TaskGraphSpec) -> Value {
        let message: Value = serde_json::from_str(&encode_spec(spec)).unwrap();
        untag(&message).unwrap().1.clone()
    }

    fn column(payload: &Value, name: &str) -> Vec<Value> {
        array_field(payload, "spec", name).unwrap().to_vec()
    }

    /// `payload` with field `name` replaced (`Some`) or removed (`None`).
    fn with_field(payload: &Value, name: &str, value: Option<Value>) -> Value {
        let mut fields = payload.as_object().unwrap().clone();
        let at = fields.iter().position(|(key, _)| key == name).unwrap();
        match value {
            Some(value) => fields[at].1 = value,
            None => {
                fields.remove(at);
            }
        }
        Value::Object(fields)
    }

    /// `payload` with entry `index` of column `name` replaced.
    fn with_entry(payload: &Value, name: &str, index: usize, value: Value) -> Value {
        let mut entries = column(payload, name);
        entries[index] = value;
        with_field(payload, name, Some(arr(entries)))
    }

    #[test]
    fn config_round_trips_including_multi_node_distances() {
        let config = ExecutionConfig::new(Topology::multi_node(2, 2, 3, 120))
            .with_cost_model(CostModel::steep())
            .with_steal(StealMode::NoStealing)
            .with_seed(0xF1617E_00F1617E)
            .with_stage_timing();
        let wire = roundtrip(&encode_config(7, &config));
        let (name, payload) = untag(&wire).unwrap();
        assert_eq!(name, "config");
        let (epoch, decoded) = decode_config(payload).unwrap();
        assert_eq!(epoch, 7);
        assert_eq!(decoded.topology, config.topology);
        assert_eq!(decoded.cost_model, config.cost_model);
        assert_eq!(decoded.steal, config.steal);
        assert_eq!(decoded.seed, config.seed);
        assert!(decoded.stage_timing);
    }

    #[test]
    fn a_worker_offered_another_protocol_version_refuses_it() {
        let config = ExecutionConfig::new(Topology::two_socket(2));
        let wire = roundtrip(&encode_config(7, &config));
        let (_, payload) = untag(&wire).unwrap();
        assert!(decode_config(payload).is_ok());
        for version in [1.0, 3.0] {
            let offered = with_field(payload, "version", Some(num(version)));
            let err = decode_config(&offered).unwrap_err();
            assert!(
                err.contains("not the supported protocol version 2"),
                "{err}"
            );
        }
    }

    #[test]
    fn a_topology_beyond_the_simulators_socket_limit_is_refused_not_built() {
        let config = ExecutionConfig::new(Topology::symmetric(65, 1));
        let wire = roundtrip(&encode_config(1, &config));
        let (_, payload) = untag(&wire).unwrap();
        let err = decode_config(payload).unwrap_err();
        assert!(
            err.contains("sockets 65 exceeds the simulator's limit of 64"),
            "{err}"
        );
        let config = ExecutionConfig::new(Topology::symmetric(64, 1));
        let wire = roundtrip(&encode_config(1, &config));
        assert!(decode_config(untag(&wire).unwrap().1).is_ok());
    }

    #[test]
    fn every_application_round_trips_at_tiny_and_small() {
        use numadag_kernels::{Application, ProblemScale};
        for scale in [ProblemScale::Tiny, ProblemScale::Small] {
            for app in Application::all() {
                assert_spec_round_trips(&app.build(scale, 8));
            }
        }
    }

    #[test]
    fn hand_built_specs_round_trip_bit_exactly() {
        let spec = sample_spec();
        assert_spec_round_trips(&spec);
        let mut without_ep = spec.clone();
        without_ep.ep_socket = None;
        assert_spec_round_trips(&without_ep);
        assert!(encode_spec(&without_ep).contains("\"ep\":null"));

        // Byte counts the f64 behind a JSON number cannot hold travel as hex.
        let big = [1u64 << 53, (1 << 53) + 1, u64::MAX - 1, u64::MAX];
        let mut graph = TaskGraph::new();
        let first = graph.push_task(task(0, "big", 1.0, &[(0, AccessMode::Out, big[1])]), &[]);
        graph.push_task(
            task(1, "big", 1.0, &[(1, AccessMode::InOut, big[3])]),
            &[(first, big[2])],
        );
        let huge = TaskGraphSpec::new("huge", graph, vec![big[0], big[3]]);
        assert_spec_round_trips(&huge);
        let line = encode_spec(&huge);
        assert!(line.contains("\"ffffffffffffffff\""), "{line}");
        assert!(line.contains("\"20000000000000\""), "{line}");
        // ... and everything below 2^53 as a plain integer.
        assert!(encode_spec(&spec).contains("\"regions\":[1048576,4096]"));

        // Work units that are not integers, not normal, or not short.
        let works = [
            0.1,
            3.0000000000000004,
            1e300,
            5e-324,
            f64::MIN_POSITIVE / 2.0,
            f64::MAX,
            0.0,
            -0.0,
            (1u64 << 53) as f64 + 2.0,
        ];
        let mut graph = TaskGraph::new();
        for (index, work) in works.iter().enumerate() {
            graph.push_task(task(index, "w", *work, &[]), &[]);
        }
        assert_spec_round_trips(&TaskGraphSpec::new("works", graph, vec![]));

        // The empty graph, with and without an (empty) expert placement.
        let empty = TaskGraphSpec::new("", TaskGraph::new(), vec![]);
        assert_spec_round_trips(&empty);
        assert_spec_round_trips(&empty.clone().with_ep_placement(vec![]));

        // Strings the line must escape.
        let mut graph = TaskGraph::new();
        for (index, kind) in [
            "quo\"te",
            "back\\slash",
            "new\nline",
            "ünï∑ 🦀",
            "",
            "quo\"te",
        ]
        .iter()
        .enumerate()
        {
            graph.push_task(task(index, kind, 1.0, &[]), &[]);
        }
        assert_spec_round_trips(&TaskGraphSpec::new("na\"me\\with\nall ∑", graph, vec![]));
    }

    #[test]
    fn a_spec_with_work_that_json_cannot_carry_is_refused_not_mangled() {
        for work in [f64::NAN, f64::INFINITY] {
            let mut graph = TaskGraph::new();
            graph.push_task(task(0, "w", work, &[]), &[]);
            let err =
                decode_line(&encode_spec(&TaskGraphSpec::new("nan", graph, vec![]))).unwrap_err();
            assert!(err.contains("spec.work[0] is not a number"), "{err}");
        }
    }

    #[test]
    fn every_malformed_spec_is_an_error_never_a_panic() {
        let spec = sample_spec();
        let good = spec_payload(&spec);
        assert!(decode_spec(&good).is_ok());
        let hex_max = || s(hex_u64(u64::MAX));
        let mut rows: Vec<(String, Value, String)> = Vec::new();
        fn push(
            rows: &mut Vec<(String, Value, String)>,
            row: impl Into<String>,
            payload: Value,
            complaint: impl Into<String>,
        ) {
            rows.push((row.into(), payload, complaint.into()));
        }

        // Every field missing; every column one entry short.
        for name in [
            "fp", "name", "kinds", "kind", "work", "n_acc", "n_dep", "acc", "dep", "regions", "ep",
        ] {
            push(
                &mut rows,
                format!("{name} missing"),
                with_field(&good, name, None),
                "missing field",
            );
        }
        for (name, complaint) in [
            ("kinds", "the kinds table has 1 entries"),
            ("kind", "spec.kind has 2 entries for 3 tasks"),
            ("work", "entries for 2 tasks"),
            ("n_acc", "spec.n_acc has 2 entries for 3 tasks"),
            ("n_dep", "spec.n_dep has 2 entries for 3 tasks"),
            (
                "acc",
                "spec.acc has 11 numbers, its per-task counts announce 12",
            ),
            (
                "dep",
                "spec.dep has 3 numbers, its per-task counts announce 4",
            ),
            (
                "regions",
                "accesses region 1, the region table has 1 entries",
            ),
            ("ep", "spec.ep has 2 entries for 3 tasks"),
        ] {
            let mut entries = column(&good, name);
            entries.pop();
            push(
                &mut rows,
                format!("{name} truncated"),
                with_field(&good, name, Some(arr(entries))),
                complaint,
            );
        }

        // Counts that disagree with the runs they describe.
        push(
            &mut rows,
            "one access too many announced",
            with_entry(&good, "n_acc", 0, num(2.0)),
            "spec.acc has 12 numbers, its per-task counts announce 15",
        );
        push(
            &mut rows,
            "one dependence too few announced",
            with_entry(&good, "n_dep", 2, num(1.0)),
            "spec.dep has 4 numbers, its per-task counts announce 2",
        );
        push(
            &mut rows,
            "counts that overflow",
            with_field(
                &good,
                "n_acc",
                Some(arr(vec![hex_max(), hex_max(), hex_max()])),
            ),
            "an overflowing total",
        );
        // A count moved between tasks keeps every length right and here
        // even every ordering rule: only the fingerprint can tell.
        push(
            &mut rows,
            "a dependence moved to an earlier task",
            with_field(
                &good,
                "n_dep",
                Some(arr(vec![num(0.0), num(1.0), num(1.0)])),
            ),
            "fingerprint mismatch",
        );

        // Dependences: forward, on itself, repeated, out of order.
        for (pred, complaint) in [
            (
                2.0,
                "task 2 depends on task 2, which is not an earlier task",
            ),
            (
                7.0,
                "task 2 depends on task 7, which is not an earlier task",
            ),
            (0.0, "task 2 lists its dependences out of order at task 0"),
        ] {
            push(
                &mut rows,
                format!("second dependence of task 2 on task {pred}"),
                with_entry(&good, "dep", 2, num(pred)),
                complaint,
            );
        }
        push(
            &mut rows,
            "dependences of task 2 swapped",
            with_field(
                &good,
                "dep",
                Some(arr(vec![num(1.0), num(4096.0), num(0.0), num(1048576.0)])),
            ),
            "out of order at task 0",
        );
        push(
            &mut rows,
            "a source task given a dependence on itself",
            with_field(
                &with_field(
                    &good,
                    "n_dep",
                    Some(arr(vec![num(1.0), num(0.0), num(1.0)])),
                ),
                "dep",
                Some(arr(vec![num(0.0), num(1.0), num(0.0), num(1.0)])),
            ),
            "task 0 depends on task 0",
        );

        // Table indices and enumerations out of range.
        push(
            &mut rows,
            "unknown region",
            with_entry(&good, "acc", 3, num(2.0)),
            "task 1 accesses region 2, the region table has 2 entries",
        );
        push(
            &mut rows,
            "unknown region (hex)",
            with_entry(&good, "acc", 0, hex_max()),
            "accesses region 18446744073709551615",
        );
        push(
            &mut rows,
            "bad access mode",
            with_entry(&good, "acc", 1, num(3.0)),
            "task 0 has access mode 3, expected 0, 1 or 2",
        );
        push(
            &mut rows,
            "kind index out of range",
            with_entry(&good, "kind", 1, num(2.0)),
            "spec.kind[1] is 2, the kinds table has 2 entries",
        );

        // Entries of the wrong type or outside the number-or-hex rule.
        for name in ["kind", "n_acc", "n_dep", "acc", "dep", "regions", "ep"] {
            for bad in [
                num(-1.0),
                num(0.5),
                num((1u64 << 53) as f64),
                s("not hex"),
                Value::Null,
                arr(vec![]),
            ] {
                push(
                    &mut rows,
                    format!("{name}[0] = {bad:?}"),
                    with_entry(&good, name, 0, bad),
                    format!("spec.{name}[0]: "),
                );
            }
        }
        push(
            &mut rows,
            "work entry is a string",
            with_entry(&good, "work", 1, s("3.5")),
            "spec.work[1] is not a number",
        );
        push(
            &mut rows,
            "kinds entry is a number",
            with_entry(&good, "kinds", 0, num(1.0)),
            "spec.kinds entry is not a string",
        );
        for name in [
            "kinds", "kind", "work", "n_acc", "n_dep", "acc", "dep", "regions",
        ] {
            push(
                &mut rows,
                format!("{name} is not an array"),
                with_field(&good, name, Some(num(3.0))),
                "is not an array",
            );
        }
        push(
            &mut rows,
            "ep is neither null nor an array",
            with_field(&good, "ep", Some(num(3.0))),
            "spec.ep is not an array",
        );
        push(
            &mut rows,
            "name is a number",
            with_field(&good, "name", Some(num(3.0))),
            "spec.name must be a string",
        );

        // Well-formed but not what the fingerprint advertises.
        push(
            &mut rows,
            "wrong fingerprint",
            with_field(&good, "fp", Some(s(hex_u64(spec.fingerprint() ^ 1)))),
            "fingerprint mismatch",
        );
        push(
            &mut rows,
            "a region resized in transit",
            with_entry(&good, "regions", 1, num(42.0)),
            "fingerprint mismatch",
        );
        push(
            &mut rows,
            "a task moved to another socket in transit",
            with_entry(&good, "ep", 0, num(0.0)),
            "fingerprint mismatch",
        );
        push(
            &mut rows,
            "the expert placement dropped in transit",
            with_field(&good, "ep", Some(Value::Null)),
            "fingerprint mismatch",
        );

        assert!(rows.len() > 90, "the table lost rows: {}", rows.len());
        for (row, payload, complaint) in rows {
            match decode_spec(&payload) {
                Ok(_) => panic!("{row}: decoded"),
                Err(e) => assert!(e.contains(&complaint), "{row}: {e}"),
            }
        }
        // Not an object at all.
        for payload in [Value::Null, num(1.0), arr(vec![]), s("spec")] {
            assert!(decode_spec(&payload).is_err());
        }
    }

    #[test]
    fn assignment_round_trips() {
        let assign = Assignment {
            cell: 9000,
            spec_fp: u64::MAX - 3,
            policy: "rgp+las".to_string(),
            policy_seed: 0xF1617E,
            events: true,
            placements: false,
        };
        let wire = roundtrip(&encode_assign(&assign));
        let (name, payload) = untag(&wire).unwrap();
        assert_eq!(name, "assign");
        assert_eq!(decode_assign(payload).unwrap(), assign);
    }

    #[test]
    fn control_messages_round_trip() {
        let wire = roundtrip(&encode_hello(3, 4242));
        let (name, payload) = untag(&wire).unwrap();
        assert_eq!(name, "hello");
        assert_eq!(decode_hello(payload).unwrap(), (3, 4242));

        let wire = roundtrip(&encode_barrier(u64::MAX));
        let (name, payload) = untag(&wire).unwrap();
        assert_eq!(name, "barrier");
        assert_eq!(decode_epoch(payload, "barrier").unwrap(), u64::MAX);

        let wire = roundtrip(&encode_barrier_ack(2));
        let (name, payload) = untag(&wire).unwrap();
        assert_eq!(name, "barrier_ack");
        assert_eq!(decode_epoch(payload, "barrier_ack").unwrap(), 2);

        let wire = roundtrip(&encode_config_ack(5));
        let (name, payload) = untag(&wire).unwrap();
        assert_eq!(name, "config_ack");
        assert_eq!(decode_epoch(payload, "config_ack").unwrap(), 5);

        let wire = roundtrip(&encode_data_home(11, u64::MAX));
        let (name, payload) = untag(&wire).unwrap();
        assert_eq!(name, "data_home");
        assert_eq!(decode_data_home(payload).unwrap(), (11, u64::MAX));

        let wire = roundtrip(&encode_steal(12, 7));
        let (name, payload) = untag(&wire).unwrap();
        assert_eq!(name, "steal");
        assert_eq!(decode_steal(payload).unwrap(), (12, 7));

        let wire = roundtrip(&encode_error("boom"));
        let (name, payload) = untag(&wire).unwrap();
        assert_eq!(name, "error");
        assert_eq!(decode_error(payload).unwrap(), "boom");

        let wire = roundtrip(&encode_shutdown());
        let (name, payload) = untag(&wire).unwrap();
        assert_eq!(name, "shutdown");
        assert!(matches!(payload, Value::Null));
    }

    #[test]
    fn done_round_trips_a_full_report_bit_exactly() {
        let traffic = TrafficStats::from_parts(
            u64::MAX / 3,
            1 << 61,
            12345,
            vec![((0, 1), 777), ((1, 0), u64::MAX / 5)],
            (u64::MAX as u128) * 27,
        );
        let report = ExecutionReport {
            workload: Arc::from("wire-spec"),
            policy: "RGP+LAS",
            makespan_ns: std::f64::consts::PI * 1e9,
            tasks: 42,
            traffic,
            tasks_per_socket: vec![10, 12, 9, 11],
            busy_per_socket: vec![0.1, 1e300, 3.0000000000000004, 0.0],
            stolen_tasks: 5,
            deferred_bytes: 1 << 55,
            policy_wall_ns: 17.5,
            event_loop_wall_ns: 0.125,
            trace: vec![TaskPlacement {
                task: TaskId(3),
                socket: SocketId(1),
                start: 0.30000000000000004,
                end: 2e-308,
                stolen: true,
            }],
        };
        let events = vec![
            TraceEvent::Assign {
                task: TaskId(3),
                socket: SocketId(1),
                time: 1.5,
            },
            TraceEvent::Finish {
                task: TaskId(3),
                socket: SocketId(1),
                core: numadag_numa::CoreId(5),
                time: 9.75,
            },
        ];
        let wire = roundtrip(&encode_done(77, &report, &events));
        let (name, payload) = untag(&wire).unwrap();
        assert_eq!(name, "done");
        let (cell, decoded, decoded_events) =
            decode_done(payload, Arc::from("wire-spec"), "RGP+LAS").unwrap();
        assert_eq!(cell, 77);
        assert_eq!(decoded.workload.as_ref(), "wire-spec");
        assert_eq!(decoded.policy, "RGP+LAS");
        assert_eq!(decoded.makespan_ns.to_bits(), report.makespan_ns.to_bits());
        assert_eq!(decoded.tasks, report.tasks);
        assert_eq!(decoded.traffic.local_bytes, report.traffic.local_bytes);
        assert_eq!(decoded.traffic.remote_bytes, report.traffic.remote_bytes);
        assert_eq!(
            decoded.traffic.distance_weighted(),
            report.traffic.distance_weighted()
        );
        assert_eq!(
            decoded.traffic.link_entries().collect::<Vec<_>>(),
            report.traffic.link_entries().collect::<Vec<_>>()
        );
        assert_eq!(decoded.tasks_per_socket, report.tasks_per_socket);
        for (got, want) in decoded
            .busy_per_socket
            .iter()
            .zip(report.busy_per_socket.iter())
        {
            assert_eq!(got.to_bits(), want.to_bits());
        }
        assert_eq!(decoded.stolen_tasks, report.stolen_tasks);
        assert_eq!(decoded.deferred_bytes, report.deferred_bytes);
        assert_eq!(decoded.trace, report.trace);
        assert_eq!(decoded_events, events);
    }
}
