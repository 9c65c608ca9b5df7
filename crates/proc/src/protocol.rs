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
//! * **`f64` travels as a JSON number.** The vendored serde writes every
//!   finite value in its shortest round-trip form (`-0.0` as `-0`) and
//!   reads it back exactly, so simulated makespans survive the hop
//!   bit-for-bit.
//! * **Integers travel as plain JSON integers, exactly.** The codec writes
//!   every integer type in exact decimal and reads it back into its own
//!   type, so fingerprints, seeds and the `u128` distance ledger keep every
//!   bit, in the small messages and in the bulk columns of `spec` alike.
//!
//! Every message but one is a variant of [`ToWorker`] or [`ToCoordinator`]:
//! plain data whose `#[derive(Serialize, Deserialize)]` *is* the wire
//! format, so the two directions cannot drift and both ends `match` on
//! variants instead of string tags. The runtime types the messages carry
//! ([`ExecutionConfig`], [`ExecutionReport`]) are wire types themselves:
//! their own derives (and the hand-written ones of `Topology` and
//! `TrafficStats`) are the format, and a decoded config is refused with the
//! words the in-process constructors panic with. A cell is one `assign`
//! answered by one `done` (or one `error`); whether it is traced travels
//! beside the config (`events`, since protocol version 3), and its events
//! come back inside that `done`.
//!
//! A workload reaches a worker in one of two forms, each un-acked: its
//! refusal is the reply to the first `assign` over the spec.
//!
//! * **`recipe`**, for the paper's kernels: the application, scale and
//!   socket count that build the spec, and its fingerprint. The worker
//!   builds the spec itself (`build_recipe`) and refuses it unless the
//!   built fingerprint is the advertised one, so a recipe is a few dozen
//!   bytes where the eight Full specs' columns are 1.3 MB.
//! * **`spec`**, for a custom graph, which has no recipe: the spec itself,
//!   the only message whose size grows with the workload, in a columnar
//!   layout — one flat array per field instead of one object per task.
//!   [`encode_spec`] writes it by hand from the graph's own columns;
//!   `decode_spec` reads it with a derived decoder and validates it before
//!   it constructs anything. A worker peeks the envelope key
//!   (`is_spec_line`) and decodes everything else as a [`ToWorker`].

use numadag_kernels::{Application, ProblemScale, SpecKey};
use numadag_runtime::framing::{from_line, DecodeError};
use numadag_runtime::{ExecutionConfig, ExecutionReport, Simulator};
use numadag_tdg::{AccessMode, DataAccess, TaskGraph, TaskGraphSpec, TaskId};
use numadag_trace::TraceEvent;
use serde::{Deserialize, Reader, Serialize, Token};

/// Protocol version, sent in every `config` message. A worker that sees a
/// version it does not speak replies with `error` instead of guessing.
pub(crate) const PROTOCOL_VERSION: u64 = 6;

/// Everything the coordinator sends except `spec` (which has its own codec:
/// [`encode_spec`] / `decode_spec`). Externally tagged with snake-case
/// tags: `{"assign": {...}}`, `"shutdown"`.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ToWorker {
    /// The executor configuration every later `assign` runs under.
    Config {
        /// Must equal `PROTOCOL_VERSION`.
        version: u64,
        /// The config's own fingerprint, so acks can be matched to the
        /// config they acknowledge.
        epoch: u64,
        /// Whether the config asks for events
        /// ([`ExecutionConfig::events`]): the worker's simulator then
        /// returns each cell's events, sent back in its `done`. Part of the
        /// config's fingerprint, so traced and untraced cells are two
        /// epochs.
        events: bool,
        /// The executor configuration; its events switch is `events`.
        config: ExecutionConfig,
    },
    /// A kernel workload, as the recipe that builds its spec: the worker
    /// builds `app` at `scale` for `sockets` sockets and holds the spec
    /// under `fp` if that is the built spec's fingerprint.
    Recipe {
        /// The fingerprint the built spec must have; `assign`s name it.
        fp: u64,
        /// The application, in a spelling `Application`'s `FromStr` reads.
        app: String,
        /// The problem scale: `tiny`, `small` or `full`.
        scale: String,
        /// The socket count the spec is built for.
        sockets: u64,
    },
    /// One cell of work.
    Assign(Assignment),
    /// The coordinator's side of a collective barrier.
    Barrier {
        /// Barrier epoch, echoed in the `barrier_ack`.
        epoch: u64,
    },
    /// Leave the request loop and exit.
    Shutdown,
}

/// Everything a worker sends.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ToCoordinator {
    /// Sent once, right after connecting.
    Hello {
        /// The worker id the pool assigned through the environment.
        worker: u64,
        /// The worker's process id.
        pid: u64,
    },
    /// The worker now runs under the config with this epoch.
    ConfigAck {
        /// The `epoch` of the acknowledged config.
        epoch: u64,
    },
    /// The worker's side of a collective barrier.
    BarrierAck {
        /// The epoch of the `barrier` being answered.
        epoch: u64,
    },
    /// A structured, deterministic failure (bad config, unknown spec, …).
    Error {
        /// What went wrong.
        message: String,
    },
    /// The cell's result, and the one reply to its `assign`. The report's
    /// string labels do not travel: the coordinator re-attaches them.
    Done {
        /// The assignment's cell id.
        cell: u64,
        /// The full execution report, labels and events empty (boxed: it
        /// is most of the message's size).
        report: Box<ExecutionReport>,
        /// The cell's trace events, in emission order; empty unless the
        /// config it ran under asked for them (`events`).
        events: Vec<TraceEvent>,
    },
}

/// One cell of work: run `policy` (seeded with `policy_seed`) over the spec
/// identified by `fp` and report back under id `cell`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Assignment {
    /// Coordinator-side cell id, echoed back in `done`.
    pub(crate) cell: u64,
    /// Fingerprint of a spec previously shipped as `spec` or `recipe`.
    pub(crate) fp: u64,
    /// Canonical policy label ([`numadag_core::PolicyKind`] `FromStr` form).
    pub policy: String,
    /// Seed handed to the policy factory.
    pub(crate) policy_seed: u64,
}

impl ToWorker {
    /// The `config` message that puts a worker on `config`, tagged with
    /// `epoch`.
    pub(crate) fn configure(epoch: u64, config: &ExecutionConfig) -> ToWorker {
        ToWorker::Config {
            version: PROTOCOL_VERSION,
            epoch,
            events: config.events,
            config: config.clone(),
        }
    }

    /// The `recipe` message of the kernel spec `recipe` builds, whose
    /// fingerprint is `fp`.
    pub(crate) fn recipe(fp: u64, (app, scale, sockets): SpecKey) -> ToWorker {
        ToWorker::Recipe {
            fp,
            app: app.label().to_string(),
            scale: scale.label().to_string(),
            sockets: sockets as u64,
        }
    }
}

/// The spec a decoded `recipe` message builds, refusing what a worker must
/// not build or hold: an application or scale their `FromStr` does not know
/// (in its words), a socket count outside `1..=`[`Simulator::MAX_SOCKETS`],
/// or a spec whose fingerprint is not the advertised `fp`.
pub(crate) fn build_recipe(
    fp: u64,
    app: &str,
    scale: &str,
    sockets: u64,
) -> Result<TaskGraphSpec, String> {
    let app: Application = app.parse()?;
    let scale: ProblemScale = scale.parse()?;
    let most = Simulator::MAX_SOCKETS;
    let sockets = usize::try_from(sockets)
        .ok()
        .filter(|n| (1..=most).contains(n))
        .ok_or_else(|| format!("recipe.sockets is {sockets}, expected 1..={most}"))?;
    let spec = app.build(scale, sockets);
    let built = spec.fingerprint();
    if built != fp {
        return Err(format!(
            "recipe fingerprint mismatch: advertised {fp:#x}, built {built:#x}"
        ));
    }
    Ok(spec)
}

/// The simulator a worker builds for a decoded `config` message, refusing
/// what it must not guess at or build: another protocol version, or a
/// machine [`Simulator::new`] would panic on (in its words). A machine
/// `Topology::new` would panic on never decodes.
pub(crate) fn simulator_for(
    version: u64,
    events: bool,
    mut config: ExecutionConfig,
) -> Result<Simulator, String> {
    if version != PROTOCOL_VERSION {
        return Err(format!(
            "config.version {version} is not the supported protocol version {PROTOCOL_VERSION}"
        ));
    }
    config.events = events;
    Simulator::try_new(config)
}

/// Starts a column of the `spec` message: `,"name":[`.
fn open_column(out: &mut String, name: &str) {
    out.push_str(",\"");
    out.push_str(name);
    out.push_str("\":[");
}

/// Appends one `u64` entry and its separator to the open column.
fn push_entry(out: &mut String, value: u64) {
    let mut digits = [0; 39];
    out.push_str(serde::ser::decimal(value.into(), &mut digits));
    out.push(',');
}

/// A `work` value `{}` writes as a plain integer — integral, not negative
/// (`-0.0` is written `-0`) and below 2^53 — as that integer, so that
/// [`push_entry`] writes the same bytes without the float formatter.
fn integral_work(work: f64) -> Option<u64> {
    (work.is_sign_positive() && work.trunc() == work && work < (1u64 << 53) as f64)
        .then_some(work as u64)
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
/// straight into its wire line (no trailing newline).
///
/// The layout is columnar: the distinct task kinds form a string table
/// (`kinds`) and everything per task, per access and per dependence is a
/// flat numeric array — `kind` (index into `kinds`), `work`, `n_acc` /
/// `n_dep` (how many accesses / dependences each task owns), `acc`
/// (`region, mode, bytes` runs in task order), `dep` (`pred, bytes` runs in
/// task order), then `regions` and `ep` (`null` without an expert
/// placement). Every `u64` is a plain integer; `work` is the shortest
/// decimal that parses back to the same bits.
pub fn encode_spec(spec: &TaskGraphSpec) -> String {
    use std::fmt::Write as _;

    let graph = &spec.graph;
    let (kinds, kind) = graph.kind_table();
    let accesses = graph.all_accesses();
    // A little over 4 bytes per number on the eight paper applications.
    let numbers = 4 * graph.num_tasks()
        + 3 * accesses.len()
        + 2 * graph.num_edges()
        + graph.region_sizes().len()
        + spec.ep_placement().map_or(0, <[usize]>::len);
    let mut out = String::with_capacity(256 + 5 * numbers);

    out.push_str("{\"spec\":{\"fp\":");
    push_entry(&mut out, spec.fingerprint());
    out.push_str("\"name\":");
    push_json_str(&mut out, &spec.name);

    // The graph's kind table is the string table: every kind once, in
    // order of first appearance.
    open_column(&mut out, "kinds");
    for name in kinds {
        push_json_str(&mut out, name);
        out.push(',');
    }
    close_column(&mut out);

    open_column(&mut out, "kind");
    for &index in kind {
        push_entry(&mut out, u64::from(index));
    }
    close_column(&mut out);

    open_column(&mut out, "work");
    for task in graph.tasks() {
        // Work is finite: a graph holds no other.
        match integral_work(task.work_units) {
            Some(work) => push_entry(&mut out, work),
            None => write!(out, "{},", task.work_units).expect("writing to a String cannot fail"),
        }
    }
    close_column(&mut out);

    open_column(&mut out, "n_acc");
    for task in graph.tasks() {
        push_entry(&mut out, task.accesses.len() as u64);
    }
    close_column(&mut out);

    open_column(&mut out, "n_dep");
    for task in graph.task_ids() {
        push_entry(&mut out, graph.predecessors(task).len() as u64);
    }
    close_column(&mut out);

    open_column(&mut out, "acc");
    for access in accesses.iter() {
        push_entry(&mut out, access.region.0 as u64);
        push_entry(&mut out, access.mode.code());
        push_entry(&mut out, access.bytes);
    }
    close_column(&mut out);

    open_column(&mut out, "dep");
    for task in graph.task_ids() {
        for &(pred, bytes) in graph.predecessors(task) {
            push_entry(&mut out, pred.0 as u64);
            push_entry(&mut out, bytes);
        }
    }
    close_column(&mut out);

    open_column(&mut out, "regions");
    for &bytes in graph.region_sizes() {
        push_entry(&mut out, bytes);
    }
    close_column(&mut out);

    match spec.ep_placement() {
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

/// The payload of a `spec` line, named as the wire names it (errors quote
/// it: `spec.kind: ...`).
#[derive(Deserialize)]
#[allow(non_camel_case_types)]
struct spec {
    fp: u64,
    name: String,
    kinds: Vec<String>,
    /// Which entry is `null` is said where the task is built, after the
    /// checks on the tasks before it.
    work: Vec<Option<f64>>,
    kind: Vec<u64>,
    n_acc: Vec<u64>,
    n_dep: Vec<u64>,
    acc: Vec<u64>,
    dep: Vec<u64>,
    regions: Vec<u64>,
    /// `null` for a spec without an expert placement.
    #[serde(with = "Placement")]
    ep: Option<Vec<u64>>,
}

/// `ep`: `null`, or a column. Unlike an `Option` field it may not be absent.
struct Placement(Option<Vec<u64>>);

impl Deserialize for Placement {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, String> {
        match input.peek()? {
            Token::Null => Ok(Placement(input.null().map(|()| None)?)),
            _ => Vec::deserialize(input).map(|column| Placement(Some(column))),
        }
    }
}

/// The `spec` envelope: `{"spec": payload}`, one key.
struct SpecLine(spec);

impl Deserialize for SpecLine {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, String> {
        if input.begin_object()?.as_deref() != Some("spec") {
            return Err("not a spec envelope".to_string());
        }
        let payload = spec::deserialize(input)?;
        if input.next_key()?.is_some() {
            return Err("a spec envelope has one key".to_string());
        }
        Ok(SpecLine(payload))
    }
}

/// A per-task column: exactly one entry per task.
fn per_task(name: &str, column: Vec<u64>, tasks: usize) -> Result<Vec<u64>, String> {
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

/// True when `line` opens as the `spec` envelope does (`{"spec":`): the
/// one message a worker hands to [`decode_spec`] instead of [`ToWorker`].
pub(crate) fn is_spec_line(line: &str) -> bool {
    matches!(Reader::new(line).begin_object(), Ok(Some(key)) if key == "spec")
}

/// Decodes a `spec` wire line into the advertised fingerprint and the
/// rebuilt [`TaskGraphSpec`].
///
/// The decoder checks the wire's shape: column lengths against the task
/// count and their own counts, kind indices against the string table,
/// modes in `0..=2`, each task's dependences ascending (the order the
/// encoder emits, so none repeats) and `work` entries that are numbers.
/// Whether the tasks make a runnable graph is [`TaskGraph::push_task`]'s
/// call, in its words. Last, the rebuilt spec's fingerprint must match the
/// advertised one. A malformed line is an `Err`, never a worker panic.
pub(crate) fn decode_spec(line: &str) -> Result<(u64, TaskGraphSpec), DecodeError> {
    let SpecLine(columns) = from_line(line)?;
    build_spec(columns).map_err(DecodeError::Refused)
}

/// The build half of [`decode_spec`].
fn build_spec(columns: spec) -> Result<(u64, TaskGraphSpec), String> {
    let spec {
        fp,
        name,
        kinds,
        work,
        kind,
        n_acc,
        n_dep,
        acc,
        dep,
        regions,
        ep,
    } = columns;
    let tasks = work.len();
    let kind = per_task("kind", kind, tasks)?;
    let n_acc = per_task("n_acc", n_acc, tasks)?;
    let n_dep = per_task("n_dep", n_dep, tasks)?;
    check_runs("acc", &acc, 3, &n_acc)?;
    check_runs("dep", &dep, 2, &n_dep)?;
    let ep = match ep {
        None => None,
        Some(placement) => Some(per_task("ep", placement, tasks)?),
    };

    let mut graph = TaskGraph::new();
    for size in regions {
        graph.region(size);
    }
    let mut acc = acc.chunks_exact(3);
    let mut dep = dep.chunks_exact(2);
    let (mut accesses, mut deps) = (Vec::new(), Vec::new());
    for index in 0..tasks {
        let kind = kinds.get(kind[index] as usize).ok_or_else(|| {
            format!(
                "spec.kind[{index}] is {}, the kinds table has {} entries",
                kind[index],
                kinds.len()
            )
        })?;
        let work_units =
            work[index].ok_or_else(|| format!("spec.work[{index}] is not a number"))?;
        accesses.clear();
        for entry in acc.by_ref().take(n_acc[index] as usize) {
            let (region, mode, bytes) = (entry[0], entry[1], entry[2]);
            let mode = AccessMode::from_code(mode).ok_or_else(|| {
                format!("task {index} has access mode {mode}, expected 0, 1 or 2")
            })?;
            accesses.push(DataAccess {
                region: numadag_numa::RegionId(usize::try_from(region).unwrap_or(usize::MAX)),
                mode,
                bytes,
            });
        }
        deps.clear();
        for entry in dep.by_ref().take(n_dep[index] as usize) {
            let (pred, bytes) = (entry[0], entry[1]);
            if matches!(deps.last(), Some(&(TaskId(last), _)) if pred <= last as u64) {
                return Err(format!(
                    "task {index} lists its dependences out of order at task {pred}"
                ));
            }
            deps.push((TaskId(usize::try_from(pred).unwrap_or(usize::MAX)), bytes));
        }
        graph
            .push_task(kind, work_units, &accesses, &deps)
            .map_err(|refused| refused.to_string())?;
    }

    let mut spec = TaskGraphSpec::new(name, graph);
    if let Some(placement) = ep {
        spec = spec
            .with_ep_placement(placement.into_iter().map(|s| s as usize).collect())
            .map_err(|refused| refused.to_string())?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use numadag_numa::Topology;
    use numadag_runtime::framing::to_line;
    use serde::testing::assert_enum_rejects_malformed;
    use serde::Value;

    // Shorthands for the malformed-`spec` table's hand-built payloads.
    fn s(text: impl Into<String>) -> Value {
        Value::String(text.into())
    }

    fn num(value: f64) -> Value {
        Value::Number(value)
    }

    fn arr(values: Vec<Value>) -> Value {
        Value::Array(values)
    }

    /// One wire line per coordinator → worker message kind (`config` twice),
    /// as the hand-written `encode_*` functions this module had up to commit
    /// fb5dfe3 rendered them, edited for protocol version 3 (`config` gained
    /// `events`, which `assign` lost together with `placements`), re-captured
    /// for version 4, where the executor configuration began to travel in
    /// its own derived form, re-spelled for version 5, where every integer
    /// is a plain number (the second `config`'s seed is `u64::MAX`), and
    /// extended for version 6 by `recipe`: Symm. mat. inv. at Tiny scale on
    /// eight sockets, whose fingerprint is above 2^63.
    const TO_WORKER_LINES: [&str; 6] = [
        r#"{"config":{"version":6,"epoch":7,"events":false,"config":{"topology":{"name":"2-socket x 2 cores","sockets":2,"cores":2,"distances":[10,21,21,10]},"cost_model":{"local_bandwidth":8,"local_latency":100,"bandwidth_exponent":1,"latency_exponent":1,"contention_factor":0.25,"time_per_work_unit":1},"steal":"nearest_socket","seed":224,"stage_timing":false}}}"#,
        r#"{"config":{"version":6,"epoch":18446744073709551615,"events":true,"config":{"topology":{"name":"2-node cluster (2 sockets x 3 cores, far=120)","sockets":4,"cores":3,"distances":[10,15,120,120,15,10,120,120,120,120,10,15,120,120,15,10]},"cost_model":{"local_bandwidth":8,"local_latency":100,"bandwidth_exponent":2,"latency_exponent":1.5,"contention_factor":0.25,"time_per_work_unit":1},"steal":"no_stealing","seed":18446744073709551615,"stage_timing":true}}}"#,
        r#"{"recipe":{"fp":10207178263391561073,"app":"Symm. mat. inv.","scale":"tiny","sockets":8}}"#,
        r#"{"assign":{"cell":9000,"fp":18446744073709551612,"policy":"rgp-las:w=512","policy_seed":15819134}}"#,
        r#"{"barrier":{"epoch":18446744073709551615}}"#,
        r#""shutdown""#,
    ];

    /// The same for worker → coordinator: full-range `u64`s, the `u128`
    /// ledger total at `u128::MAX`, an escaped string, `1e300`, and a `done`
    /// with all five event kinds. Version 3 dropped the two notification
    /// lines that used to precede `done` and the report's `trace` array;
    /// version 5 re-spelled the hex integers as plain numbers.
    const TO_COORDINATOR_LINES: [&str; 5] = [
        r#"{"hello":{"worker":3,"pid":4242}}"#,
        r#"{"config_ack":{"epoch":5}}"#,
        r#"{"barrier_ack":{"epoch":2}}"#,
        r#"{"error":{"message":"bad \"spec\": back\\slash\nnew line\ttab ∑ \u0001"}}"#,
        r#"{"done":{"cell":77,"report":{"makespan_ns":3141592653.589793,"tasks":42,"traffic":{"local":6148914691236517205,"remote":2305843009213693952,"deferred":12345,"dw":340282366920938463463374607431768211455,"links":[[0,1,777],[1,0,3689348814741910323]]},"tasks_per_socket":[10,12,9,11],"busy_per_socket":[0.1,1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000,3.0000000000000004,0],"stolen_tasks":5,"deferred_bytes":36028797018963968,"policy_wall_ns":17.5,"event_loop_wall_ns":0.125},"events":[{"type":"assign","task":3,"socket":1,"time":1.5},{"type":"start","task":3,"socket":1,"core":5,"time":2.25,"stolen":true},{"type":"deferred_alloc","task":3,"node":1,"bytes":1099511627776,"time":2.25},{"type":"traffic","task":3,"region":17,"from":0,"to":1,"distance":21,"bytes":4096,"time":2.25},{"type":"finish","task":3,"socket":1,"core":5,"time":9.75}]}}"#,
    ];

    fn parse(line: &str) -> Value {
        serde_json::from_str(line).expect("a golden line is JSON")
    }

    #[test]
    fn the_parents_wire_lines_decode_and_re_encode_byte_for_byte() {
        for line in TO_WORKER_LINES {
            let message: ToWorker = from_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(to_line(&message), line);
            // ... and through what a worker builds from it.
            let rebuilt = match message {
                ToWorker::Config {
                    version,
                    epoch,
                    events,
                    config,
                } => {
                    let simulator = simulator_for(version, events, config).unwrap();
                    ToWorker::configure(epoch, simulator.config())
                }
                ToWorker::Recipe {
                    fp,
                    app,
                    scale,
                    sockets,
                } => {
                    let spec = build_recipe(fp, &app, &scale, sockets).unwrap();
                    let recipe = (
                        app.parse().unwrap(),
                        scale.parse().unwrap(),
                        sockets as usize,
                    );
                    assert_eq!(spec.fingerprint(), fp);
                    ToWorker::recipe(fp, recipe)
                }
                other => other,
            };
            assert_eq!(to_line(&rebuilt), line);
        }
        for line in TO_COORDINATOR_LINES {
            let message: ToCoordinator = from_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(to_line(&message), line);
            if let ToCoordinator::Done { report, .. } = message {
                // The labels do not travel; everything else arrives exactly.
                assert_eq!((report.workload.as_ref(), report.policy), ("", ""));
                assert_eq!(report.traffic.local_bytes, u64::MAX / 3);
                assert_eq!(report.traffic.distance_weighted(), u128::MAX);
                assert_eq!(report.deferred_bytes, 1 << 55);
                assert_eq!(report.busy_per_socket[1], 1e300);
            }
        }
        assert_eq!(PROTOCOL_VERSION, 6);
    }

    /// `-0.0` keeps its sign across the wire: in a `done` report, whose
    /// writer printed it `0` once, and as `spec` work.
    #[test]
    fn negative_zero_crosses_the_wire_bit_for_bit() {
        let done =
            TO_COORDINATOR_LINES[4].replacen("\"policy_wall_ns\":17.5", "\"policy_wall_ns\":-0", 1);
        let Ok(ToCoordinator::Done { report, .. }) = from_line(&done) else {
            panic!("{done}");
        };
        assert_eq!(report.policy_wall_ns.to_bits(), (-0.0f64).to_bits());
        assert_eq!(
            to_line(&ToCoordinator::Done {
                cell: 77,
                report,
                events: Vec::new()
            })
            .matches("\"policy_wall_ns\":-0,")
            .count(),
            1
        );

        let mut graph = TaskGraph::new();
        push(&mut graph, "w", -0.0, &[], &[]);
        let spec = TaskGraphSpec::new("negative zero", graph);
        let (_, decoded) = decode_spec(&encode_spec(&spec)).unwrap();
        let work = decoded.graph.tasks().next().unwrap().work_units;
        assert_eq!(work.to_bits(), (-0.0f64).to_bits());
    }

    /// Every golden line, its full-range integers (`u64::MAX` epochs and
    /// seeds, the recipe's fingerprint, the `u128::MAX` ledger) as written.
    #[test]
    fn every_malformed_message_is_an_error_that_names_what_is_wrong() {
        for line in TO_WORKER_LINES {
            assert_enum_rejects_malformed(line, &[], from_line::<ToWorker>);
        }
        for line in TO_COORDINATOR_LINES {
            assert_enum_rejects_malformed(line, &[], from_line::<ToCoordinator>);
        }
        // One direction's messages are not the other's.
        assert!(serde_json::from_value::<ToWorker>(&parse(TO_COORDINATOR_LINES[0])).is_err());
        assert!(serde_json::from_value::<ToCoordinator>(&parse(TO_WORKER_LINES[5])).is_err());
    }

    fn push(
        graph: &mut TaskGraph,
        kind: &str,
        work_units: f64,
        accesses: &[(usize, AccessMode, u64)],
        deps: &[(TaskId, u64)],
    ) -> TaskId {
        let accesses: Vec<DataAccess> = accesses
            .iter()
            .map(|&(region, mode, bytes)| DataAccess {
                region: numadag_numa::RegionId(region),
                mode,
                bytes,
            })
            .collect();
        graph.push_task(kind, work_units, &accesses, deps).unwrap()
    }

    /// A graph whose region table is `sizes`.
    fn graph_over(sizes: &[u64]) -> TaskGraph {
        let mut graph = TaskGraph::new();
        for &size in sizes {
            graph.region(size);
        }
        graph
    }

    /// Two writers and a reader of both: every column has an entry.
    fn sample_spec() -> TaskGraphSpec {
        let mut graph = graph_over(&[1 << 20, 4096]);
        let a = push(
            &mut graph,
            "init",
            3.5,
            &[(0, AccessMode::Out, 1 << 20)],
            &[],
        );
        let b = push(
            &mut graph,
            "init",
            0.25,
            &[(1, AccessMode::InOut, 4096)],
            &[],
        );
        push(
            &mut graph,
            "use",
            7.0,
            &[(0, AccessMode::In, 1 << 20), (1, AccessMode::In, 4096)],
            &[(a, 1 << 20), (b, 4096)],
        );
        TaskGraphSpec::new("wire-spec", graph)
            .with_ep_placement(vec![1, 0, 1])
            .unwrap()
    }

    // The decoder `decode_spec` replaced looked its columns up in the parsed
    // tree. It is kept, with the `framing` accessors only it used, as the
    // reference the line decoder is compared against.

    fn field<'v>(value: &'v Value, variant: &str, name: &str) -> Result<&'v Value, String> {
        value
            .get(name)
            .ok_or_else(|| format!("{variant} is missing field {name:?}"))
    }

    fn str_field(value: &Value, variant: &str, name: &str) -> Result<String, String> {
        field(value, variant, name)?
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("{variant}.{name}: must be a string"))
    }

    fn array_field<'v>(value: &'v Value, variant: &str, name: &str) -> Result<&'v [Value], String> {
        field(value, variant, name)?
            .as_array()
            .map(|v| v.as_slice())
            .ok_or_else(|| format!("{variant}.{name}: must be an array"))
    }

    /// Whether `text` is a plain JSON integer of 16 or more digits. A tree's
    /// numbers are `f64`s, exact only below 2^53, so such an integer is
    /// quoted before a line becomes a tree ([`respell`]) and read back from
    /// its digits.
    fn long_integer(text: &str) -> bool {
        text.len() >= 16 && !text.starts_with('0') && text.bytes().all(|b| b.is_ascii_digit())
    }

    /// `line` with every [`long_integer`] quoted, or (`bare`) unquoted: the
    /// tree's spelling of a line, or the wire's of a tree written as a line.
    fn respell(line: &str, bare: bool) -> String {
        let mut out = String::with_capacity(line.len());
        let mut rest = line;
        while let Some(at) = rest.find(|c: char| c == '"' || c == '-' || c.is_ascii_digit()) {
            out.push_str(&rest[..at]);
            rest = &rest[at..];
            let len = match rest.strip_prefix('"') {
                // A string, through its closing quote.
                Some(body) => {
                    let mut escaped = false;
                    let end = body.find(|c| {
                        let end = c == '"' && !escaped;
                        escaped = c == '\\' && !escaped;
                        end
                    });
                    end.map_or(rest.len(), |end| end + 2)
                }
                None => rest
                    .find(|c: char| !matches!(c, '0'..='9' | '.' | 'e' | 'E' | '+' | '-'))
                    .unwrap_or(rest.len()),
            };
            let (token, tail) = rest.split_at(len);
            let digits = token.trim_matches('"');
            let key = tail.trim_start().starts_with(':');
            match long_integer(digits) && !key {
                true if bare => out.push_str(digits),
                true => out.push_str(&format!("\"{digits}\"")),
                false => out.push_str(token),
            }
            rest = tail;
        }
        out.push_str(rest);
        out
    }

    /// `n` as a row's tree holds it exactly: a number below 2^53, else its
    /// quoted digits.
    fn exact(n: u64) -> Value {
        match n < 1 << 53 {
            true => num(n as f64),
            false => s(n.to_string()),
        }
    }

    fn wire_u64(value: &Value) -> Result<u64, String> {
        match value {
            Value::String(digits) if long_integer(digits) => digits
                .parse()
                .map_err(|_| format!("{digits} does not fit in a u64")),
            Value::Number(n) if *n >= 0.0 && n.trunc() == *n && *n < (1u64 << 53) as f64 => {
                Ok(*n as u64)
            }
            _ => Err("must be an unsigned integer".to_string()),
        }
    }

    fn u64_column(payload: &Value, name: &str) -> Result<Vec<u64>, String> {
        array_field(payload, "spec", name)?
            .iter()
            .enumerate()
            .map(|(i, value)| wire_u64(value).map_err(|e| format!("spec.{name}: [{i}]: {e}")))
            .collect()
    }

    /// The tag and payload of an externally tagged envelope tree.
    fn untag(message: &Value) -> Option<(&str, &Value)> {
        match message.as_object()?.as_slice() {
            [(tag, payload)] => Some((tag, payload)),
            _ => None,
        }
    }

    #[test]
    fn field_accessors_name_the_variant_in_errors() {
        let value = serde_json::from_str(r#"{"n": 3, "s": "x"}"#).unwrap();
        assert_eq!(str_field(&value, "V", "s"), Ok("x".to_string()));
        let err = field(&value, "V", "missing").unwrap_err();
        assert!(err.contains('V') && err.contains("missing"), "{err}");
        let err = str_field(&value, "V", "n").unwrap_err();
        assert!(err.contains("must be a string"), "{err}");
    }

    /// The reference: the columns of a `spec` payload looked up in its
    /// parsed tree, then the same [`build_spec`].
    fn decode_spec_reference(payload: &Value) -> Result<(u64, TaskGraphSpec), String> {
        if payload.as_object().is_none() {
            return Err("spec must be an object".to_string());
        }
        let fp = wire_u64(field(payload, "spec", "fp")?).map_err(|e| format!("spec.fp: {e}"))?;
        let columns = spec {
            fp,
            name: str_field(payload, "spec", "name")?,
            kinds: array_field(payload, "spec", "kinds")?
                .iter()
                .enumerate()
                .map(|(i, kind)| {
                    kind.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("spec.kinds: [{i}]: must be a string"))
                })
                .collect::<Result<_, _>>()?,
            work: array_field(payload, "spec", "work")?
                .iter()
                .enumerate()
                .map(|(i, work)| match work {
                    Value::Null | Value::Number(_) => Ok(work.as_f64()),
                    Value::String(digits) if long_integer(digits) => Ok(digits.parse().ok()),
                    _ => Err(format!("spec.work: [{i}]: must be a number")),
                })
                .collect::<Result<_, _>>()?,
            kind: u64_column(payload, "kind")?,
            n_acc: u64_column(payload, "n_acc")?,
            n_dep: u64_column(payload, "n_dep")?,
            acc: u64_column(payload, "acc")?,
            dep: u64_column(payload, "dep")?,
            regions: u64_column(payload, "regions")?,
            ep: match field(payload, "spec", "ep")? {
                Value::Null => None,
                _ => Some(u64_column(payload, "ep")?),
            },
        };
        build_spec(columns)
    }

    /// What a worker that parsed every line into a tree first made of
    /// `line`: not JSON, not a spec, or a spec.
    fn reference(line: &str) -> Result<(u64, TaskGraphSpec), DecodeError> {
        let message: Value = serde_json::from_str(&respell(line, false))
            .map_err(|e| DecodeError::Syntax(e.to_string()))?;
        match untag(&message) {
            Some(("spec", payload)) => decode_spec_reference(payload).map_err(DecodeError::Refused),
            _ => Err(DecodeError::Refused("not a spec envelope".to_string())),
        }
    }

    /// Decodes `line` both ways and checks that they agree: on the
    /// fingerprint bits of a spec both take, on which kind of error both
    /// make of anything else. Returns the line decoder's verdict.
    fn decode_both_ways(line: &str) -> Result<(u64, TaskGraphSpec), DecodeError> {
        let got = decode_spec(line);
        match (&got, reference(line)) {
            (Ok((fp, spec)), Ok((want_fp, want))) => {
                assert_eq!((*fp, spec.fingerprint()), (want_fp, want.fingerprint()));
            }
            (Err(DecodeError::Syntax(_)), Err(DecodeError::Syntax(_))) => {}
            (Err(DecodeError::Refused(_)), Err(DecodeError::Refused(_))) => {}
            (got, want) => panic!(
                "{line}\nline decoder: {:?}\nreference: {:?}",
                got.as_ref().map(|(fp, _)| fp),
                want.as_ref().map(|(fp, _)| fp)
            ),
        }
        got
    }

    /// The wire line of a `spec` whose payload is `payload`.
    fn spec_line(payload: &Value) -> String {
        respell(&format!("{{\"spec\":{}}}", to_line(payload)), true)
    }

    fn assert_spec_round_trips(spec: &TaskGraphSpec) {
        let line = encode_spec(spec);
        assert!(!line.contains('\n'), "{}: a frame is one line", spec.name);
        let (fp, decoded) =
            decode_both_ways(&line).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert_eq!(fp, spec.fingerprint());
        assert_eq!(decoded.fingerprint(), fp);
        assert_eq!(decoded.name, spec.name);
        assert_eq!(decoded.graph.region_sizes(), spec.graph.region_sizes());
        assert_eq!(decoded.ep_placement(), spec.ep_placement());
        assert_eq!(decoded.graph.num_edges(), spec.graph.num_edges());
        for (got, want) in decoded.graph.tasks().zip(spec.graph.tasks()) {
            assert_eq!((got.id, &got.kind), (want.id, &want.kind));
            assert_eq!(got.work_units.to_bits(), want.work_units.to_bits());
            assert_eq!(got.accesses, want.accesses);
            assert_eq!(
                decoded.graph.predecessors(got.id),
                spec.graph.predecessors(want.id)
            );
            let (got_flat, want_flat) = (decoded.graph.flat(), spec.graph.flat());
            assert_eq!(got_flat.successors(got.id), want_flat.successors(want.id));
            assert_eq!(
                got_flat.successor_bytes(got.id),
                want_flat.successor_bytes(want.id)
            );
        }
        assert_eq!(decoded.graph.num_tasks(), spec.graph.num_tasks());
    }

    /// The payload of `spec`'s wire line, for the malformed-input rows.
    fn spec_payload(spec: &TaskGraphSpec) -> Value {
        let message: Value = serde_json::from_str(&respell(&encode_spec(spec), false)).unwrap();
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

    /// What a worker makes of a `config` line: the simulator, or the
    /// complaint of the decode or of [`simulator_for`].
    fn simulator_from(message: &Value) -> Result<Simulator, String> {
        match serde_json::from_value::<ToWorker>(message)? {
            ToWorker::Config {
                version,
                events,
                config,
                ..
            } => simulator_for(version, events, config),
            other => panic!("not a config: {other:?}"),
        }
    }

    /// `message` with the value at `path` (object keys, from the envelope
    /// down) replaced.
    fn with_path(message: &Value, path: &[&str], value: Value) -> Value {
        let mut message = message.clone();
        let mut at = &mut message;
        for key in path {
            let Value::Object(fields) = at else {
                panic!("{key}: not an object");
            };
            at = &mut fields.iter_mut().find(|(name, _)| name == key).unwrap().1;
        }
        *at = value;
        message
    }

    #[test]
    fn a_config_a_worker_must_not_build_is_refused() {
        let two_socket = ExecutionConfig::new(Topology::two_socket(2));
        let good = serde_json::to_value(&ToWorker::configure(7, &two_socket));
        // The events switch travels beside the config.
        let untraced = simulator_from(&good).unwrap();
        assert!(!untraced.config().events);
        let traced = serde_json::to_value(&ToWorker::configure(7, &two_socket.with_events()));
        assert!(simulator_from(&traced).unwrap().config().events);

        let topology = ["config", "config", "topology"];
        let at = |leaf: &'static str| [&topology[..], &[leaf]].concat();
        let numbers =
            |values: &[f64]| Value::Array(values.iter().map(|&n| Value::Number(n)).collect());
        for (path, value, complaint) in [
            (
                vec!["config", "version"],
                Value::Number(5.0),
                "config.version 5 is not the supported protocol version 6",
            ),
            (
                vec!["config", "version"],
                Value::Number(7.0),
                "config.version 7 is not the supported protocol version 6",
            ),
            (
                vec!["config", "config", "steal"],
                Value::String("sometimes".to_string()),
                "unknown StealMode variant \"sometimes\"",
            ),
            (
                at("distances"),
                numbers(&[10.0, 21.0, 21.0]),
                "distance matrix must be n*n: 3 entries for 2 nodes",
            ),
            // Each of these four panicked the worker: the coordinator read
            // EOF where the reply should have been.
            (
                at("sockets"),
                Value::Number(0.0),
                "a machine needs at least one socket",
            ),
            (
                at("cores"),
                Value::Number(0.0),
                "a socket needs at least one core",
            ),
            (
                at("distances"),
                numbers(&[10.0, 21.0, 30.0, 10.0]),
                "distance matrix must be symmetric: d[0][1] = 21, d[1][0] = 30",
            ),
            (
                at("distances"),
                numbers(&[0.0, 21.0, 21.0, 10.0]),
                "diagonal of distance matrix must be the local distance 10: d[0][0] = 0",
            ),
        ] {
            let err = simulator_from(&with_path(&good, &path, value))
                .err()
                .unwrap();
            assert!(err.ends_with(complaint), "{path:?}: {err}");
        }
        // The simulator dispatches over at most 64 sockets, here and in
        // process alike.
        let sockets = |n| ToWorker::configure(1, &ExecutionConfig::new(Topology::symmetric(n, 1)));
        let err = simulator_from(&serde_json::to_value(&sockets(65)))
            .err()
            .unwrap();
        assert_eq!(
            err,
            "the simulator supports at most 64 sockets, topology \"65-socket x 1 cores\" has 65"
        );
        assert!(simulator_from(&serde_json::to_value(&sockets(64))).is_ok());
    }

    /// A recipe names a spec a worker can build, or is refused: an unknown
    /// application or scale in `FromStr`'s words, a socket count the
    /// simulator does not take, and a spec that is not the advertised one.
    #[test]
    fn a_recipe_a_worker_must_not_build_is_refused() {
        const FP: u64 = 0x8da7_2e8c_f48a_e571; // Symm. mat. inv., Tiny, 8 sockets
        assert_eq!(
            build_recipe(FP, "symm", "TINY", 8).unwrap().fingerprint(),
            FP
        );
        let mismatch = "recipe fingerprint mismatch: advertised 0x8da72e8cf48ae571, built 0x";
        for (app, scale, sockets, complaint) in [
            ("fft", "tiny", 8, "unknown application 'fft' (expected cg|gs|ih|jacobi|nstream|qr|rb|symm or a Figure-1 label)"),
            ("symm", "huge", 8, "unknown scale 'huge' (expected tiny|small|full)"),
            ("symm", "tiny", 0, "recipe.sockets is 0, expected 1..=64"),
            ("symm", "tiny", 65, "recipe.sockets is 65, expected 1..=64"),
            ("symm", "tiny", u64::MAX, "recipe.sockets is 18446744073709551615, expected 1..=64"),
            ("symm", "tiny", 4, mismatch),
            ("symm", "small", 8, mismatch),
            ("cg", "tiny", 8, mismatch),
        ] {
            let err = build_recipe(FP, app, scale, sockets).err();
            let err = err.unwrap_or_else(|| panic!("{app} {scale} {sockets}: built"));
            assert!(err.starts_with(complaint), "{app} {scale} {sockets}: {err}");
        }
        // The range is the simulator's.
        for sockets in [1, 64] {
            let fp = Application::Jacobi
                .build(ProblemScale::Tiny, sockets)
                .fingerprint();
            assert!(build_recipe(fp, "jacobi", "tiny", sockets as u64).is_ok());
        }
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
        let without_ep = TaskGraphSpec::new(spec.name.clone(), spec.graph.clone());
        assert_spec_round_trips(&without_ep);
        assert!(encode_spec(&without_ep).contains("\"ep\":null"));

        // Byte counts an f64 cannot hold travel as plain integers.
        let big = [1u64 << 53, (1 << 53) + 1, u64::MAX - 1, u64::MAX];
        let mut graph = graph_over(&[big[1], big[3]]);
        let first = push(&mut graph, "big", 1.0, &[(0, AccessMode::Out, big[0])], &[]);
        push(
            &mut graph,
            "big",
            1.0,
            &[(1, AccessMode::InOut, big[3])],
            &[(first, big[2])],
        );
        let huge = TaskGraphSpec::new("huge", graph);
        assert_spec_round_trips(&huge);
        let line = encode_spec(&huge);
        for n in big {
            assert!(line.contains(&n.to_string()), "{line}");
        }
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
        for work in &works {
            push(&mut graph, "w", *work, &[], &[]);
        }
        assert_spec_round_trips(&TaskGraphSpec::new("works", graph));

        // The empty graph, with and without an (empty) expert placement.
        let empty = TaskGraphSpec::new("", TaskGraph::new());
        assert_spec_round_trips(&empty);
        assert_spec_round_trips(&empty.clone().with_ep_placement(vec![]).unwrap());

        // Strings the line must escape.
        let mut graph = TaskGraph::new();
        for kind in [
            "quo\"te",
            "back\\slash",
            "new\nline",
            "ünï∑ 🦀",
            "",
            "quo\"te",
        ] {
            push(&mut graph, kind, 1.0, &[], &[]);
        }
        assert_spec_round_trips(&TaskGraphSpec::new("na\"me\\with\nall ∑", graph));
    }

    /// No graph holds work JSON cannot carry, so these lines are written by
    /// hand: a `null` entry is not a number, a number too large for an `f64`
    /// reads as infinite, and a negative one is refused by `push_task`, in
    /// its words.
    #[test]
    fn a_spec_with_work_no_graph_can_hold_is_refused_not_mangled() {
        let mut graph = TaskGraph::new();
        push(&mut graph, "w", 1.0, &[], &[]);
        let line = encode_spec(&TaskGraphSpec::new("nan", graph));
        for (work, complaint) in [
            ("null", "spec.work[0] is not a number"),
            (
                "1e999",
                "task T0 has work inf, which is not a finite non-negative number",
            ),
            (
                "-5",
                "task T0 has work -5, which is not a finite non-negative number",
            ),
        ] {
            let bad = line.replacen("\"work\":[1]", &format!("\"work\":[{work}]"), 1);
            assert_ne!(bad, line);
            let err = decode_both_ways(&bad).unwrap_err();
            assert_eq!(err, DecodeError::Refused(complaint.to_string()));
        }
    }

    /// The integer path of the `work` column writes exactly what `{}` wrote
    /// for every value it takes: 100k integers spread over `[0, 2^53)` by a
    /// fixed-seed SplitMix64, every power of two and of ten below the limit
    /// and their neighbours.
    #[test]
    fn integral_work_is_written_as_the_float_formatter_wrote_it() {
        let limit = 1u64 << 53;
        let mut state = 0x2511u64;
        let mut splitmix = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut values: Vec<u64> = (0..100_000).map(|i| splitmix() >> (11 + i % 53)).collect();
        for k in 0..53 {
            values.extend([(1u64 << k) - 1, 1 << k, (1 << k) + 1]);
        }
        values.extend(
            (0..16)
                .map(|k| 10u64.pow(k))
                .flat_map(|p| [p - 1, p, p + 1]),
        );
        values.push(limit - 1);
        for n in values.into_iter().filter(|&n| n < limit) {
            let work = n as f64;
            assert_eq!(integral_work(work), Some(n), "{work}");
            let mut entry = String::new();
            push_entry(&mut entry, n);
            assert_eq!(entry, format!("{work},"));
        }
        // Everything else keeps the float formatter (or the `null`).
        for work in [
            -0.0,
            0.5,
            -1.0,
            limit as f64,
            (limit + 2) as f64,
            1e300,
            f64::MAX,
            5e-324,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(integral_work(work), None, "{work}");
        }
    }

    #[test]
    fn every_malformed_spec_is_an_error_never_a_panic() {
        let spec = sample_spec();
        let good = spec_payload(&spec);
        assert!(decode_both_ways(&spec_line(&good)).is_ok());
        let max = || exact(u64::MAX);
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
            ("regions", "task T1 accesses unknown region R1"),
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
            with_field(&good, "n_acc", Some(arr(vec![max(), max(), max()]))),
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
                "task T2 depends on task T2, which is not an earlier task",
            ),
            (
                7.0,
                "task T2 depends on task T7, which is not an earlier task",
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
            "task T0 depends on task T0",
        );

        // Table indices and enumerations out of range.
        push(
            &mut rows,
            "unknown region",
            with_entry(&good, "acc", 3, num(2.0)),
            "task T1 accesses unknown region R2",
        );
        push(
            &mut rows,
            "unknown region u64::MAX",
            with_entry(&good, "acc", 0, max()),
            "task T0 accesses unknown region R18446744073709551615",
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

        // Entries of the wrong type or outside `u64`.
        for name in ["kind", "n_acc", "n_dep", "acc", "dep", "regions", "ep"] {
            for bad in [
                num(-1.0),
                num(0.5),
                num(1e20),
                s("7"),
                Value::Null,
                arr(vec![]),
            ] {
                push(
                    &mut rows,
                    format!("{name}[0] = {bad:?}"),
                    with_entry(&good, name, 0, bad),
                    format!("spec.{name}: [0]: "),
                );
            }
        }
        push(
            &mut rows,
            "work entry is a string",
            with_entry(&good, "work", 1, s("3.5")),
            "spec.work: [1]: must be a number",
        );
        push(
            &mut rows,
            "kinds entry is a number",
            with_entry(&good, "kinds", 0, num(1.0)),
            "spec.kinds: [0]: must be a string",
        );
        for name in [
            "kinds", "kind", "work", "n_acc", "n_dep", "acc", "dep", "regions",
        ] {
            push(
                &mut rows,
                format!("{name} is not an array"),
                with_field(&good, name, Some(num(3.0))),
                ": must be an array",
            );
        }
        push(
            &mut rows,
            "ep is neither null nor an array",
            with_field(&good, "ep", Some(num(3.0))),
            "spec.ep: must be an array",
        );
        push(
            &mut rows,
            "name is a number",
            with_field(&good, "name", Some(num(3.0))),
            "spec.name: must be a string",
        );

        // Well-formed but not what the fingerprint advertises.
        push(
            &mut rows,
            "wrong fingerprint",
            with_field(&good, "fp", Some(exact(spec.fingerprint() ^ 1))),
            "fingerprint mismatch",
        );
        push(
            &mut rows,
            "a region shrunk in transit",
            with_entry(&good, "regions", 1, num(42.0)),
            "task T1 accesses 4096 bytes of region R1 which only has 42",
        );
        push(
            &mut rows,
            "a region grown in transit",
            with_entry(&good, "regions", 1, num(8192.0)),
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
            // The row as it would arrive, and as the tree decoder saw it.
            match decode_both_ways(&spec_line(&payload)) {
                Err(DecodeError::Refused(e)) => assert!(e.contains(&complaint), "{row}: {e}"),
                other => panic!("{row}: {:?}", other.map(|(fp, _)| fp)),
            }
            match decode_spec_reference(&payload) {
                Ok(_) => panic!("{row}: decoded"),
                Err(e) => assert!(e.contains(&complaint), "{row}: {e}"),
            }
        }
        // Not an object at all.
        for payload in [Value::Null, num(1.0), arr(vec![]), s("spec")] {
            assert!(matches!(
                decode_both_ways(&spec_line(&payload)),
                Err(DecodeError::Refused(_))
            ));
        }
    }

    #[test]
    fn columns_are_found_by_key_whatever_the_order_or_the_company() {
        let spec = sample_spec();
        let good = spec_payload(&spec);
        let fields = good.as_object().unwrap().clone();
        let fp = |payload: Value| decode_both_ways(&spec_line(&payload)).map(|(fp, _)| fp);

        // Any key order: back to front.
        let reversed = Value::Object(fields.iter().rev().cloned().collect());
        assert_ne!(spec_line(&reversed), spec_line(&good));
        assert_eq!(fp(reversed), Ok(spec.fingerprint()));

        // Unknown keys, scalar and nested, are skipped.
        let mut extended = fields.clone();
        extended.insert(0, ("version".to_string(), num(3.0)));
        extended.insert(
            5,
            (
                "notes".to_string(),
                serde_json::json!({ "by": "x", "n": vec![vec![1u8], vec![]] }),
            ),
        );
        extended.push(("acc2".to_string(), Value::Null));
        assert_eq!(fp(Value::Object(extended)), Ok(spec.fingerprint()));

        // A repeated key keeps its first value, as a lookup in the tree does:
        // a bad repeat is never looked at, a good repeat does not rescue.
        let regions = fields.iter().position(|(key, _)| key == "regions").unwrap();
        let mut repeated = fields.clone();
        repeated.push(("regions".to_string(), arr(vec![s("7")])));
        repeated.push(("fp".to_string(), Value::Null));
        assert_eq!(fp(Value::Object(repeated)), Ok(spec.fingerprint()));
        let mut shadowed = fields.clone();
        shadowed[regions].1 = arr(vec![num(2097152.0), num(4096.0)]);
        shadowed.push(fields[regions].clone());
        match fp(Value::Object(shadowed)) {
            Err(DecodeError::Refused(e)) => assert!(e.contains("fingerprint mismatch"), "{e}"),
            other => panic!("{other:?}"),
        }

        // Whitespace a hand-written line might carry.
        let spaced = spec_line(&good).replace(',', " ,\t").replace(':', " : ");
        assert_eq!(
            decode_both_ways(&format!("  {spaced}  ")).map(|(fp, _)| fp),
            Ok(spec.fingerprint())
        );
        // An envelope is one key.
        for line in [
            format!("{{\"spec\":{},\"spec\":{{}}}}", to_line(&good)),
            format!("{{\"assign\":{}}}", to_line(&good)),
            "\"spec\"".to_string(),
        ] {
            assert!(matches!(
                decode_both_ways(&line),
                Err(DecodeError::Refused(_))
            ));
        }
        assert!(is_spec_line(&spec_line(&good)));
        assert!(is_spec_line("  { \"spec\" : 3"));
        for line in TO_WORKER_LINES {
            assert!(!is_spec_line(line), "{line}");
        }
    }

    /// Every token of a `spec` line: numbers, strings, `null` and each
    /// punctuation mark, as byte ranges.
    fn tokens(line: &str) -> Vec<std::ops::Range<usize>> {
        let bytes = line.as_bytes();
        let mut tokens = Vec::new();
        let mut at = 0;
        while at < bytes.len() {
            let start = at;
            match bytes[at] {
                b'"' => {
                    at += 1;
                    while bytes[at] != b'"' {
                        at += if bytes[at] == b'\\' { 2 } else { 1 };
                    }
                    at += 1;
                }
                b'[' | b']' | b'{' | b'}' | b',' | b':' => at += 1,
                _ => {
                    while !matches!(bytes[at], b'[' | b']' | b'{' | b'}' | b',' | b':' | b'"') {
                        at += 1;
                    }
                }
            }
            tokens.push(start..at);
        }
        tokens
    }

    #[test]
    fn any_single_token_mutation_is_judged_as_the_tree_decoder_judged_it() {
        const REPLACEMENTS: [&str; 16] = [
            "",
            "0",
            "1",
            "2",
            "-1",
            "0.5",
            "1e0",
            "-0",
            "9007199254740992",
            "\"2\"",
            "\"x\"",
            "null",
            "true",
            "[]",
            "{}",
            ",",
        ];
        let spec = sample_spec();
        let without_ep = TaskGraphSpec::new(spec.name.clone(), spec.graph.clone());
        let mut judged = [0usize; 3];
        for spec in [&spec, &without_ep] {
            let line = encode_spec(spec);
            for token in tokens(&line) {
                for replacement in REPLACEMENTS {
                    let mut mutated = line.clone();
                    mutated.replace_range(token.clone(), replacement);
                    judged[match decode_both_ways(&mutated) {
                        Ok(_) => 0,
                        Err(DecodeError::Refused(_)) => 1,
                        Err(DecodeError::Syntax(_)) => 2,
                    }] += 1;
                }
            }
        }
        // Some mutations are harmless (`1e0` for `1`, a kind renamed with
        // its only user), many break the spec, many break the line.
        assert!(judged.iter().all(|&n| n > 50), "{judged:?}");
    }

    #[test]
    fn a_line_cut_anywhere_is_an_error_never_a_panic() {
        use numadag_kernels::{Application, ProblemScale};
        let line = Application::all()
            .iter()
            .map(|app| encode_spec(&app.build(ProblemScale::Tiny, 8)))
            .min_by_key(String::len)
            .unwrap();
        assert!(decode_spec(&line).is_ok());
        for cut in 0..line.len() {
            assert!(
                matches!(decode_spec(&line[..cut]), Err(DecodeError::Syntax(_))),
                "cut at {cut}"
            );
        }
    }
}
