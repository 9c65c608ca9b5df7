//! The [`Trace`] container: one execution's events plus the metadata needed
//! to interpret them, with a JSON serialization that round-trips through
//! [`Trace::from_json_str`].

use parking_lot::Mutex;
use serde::{de, Deserialize, Serialize, Value};

use numadag_numa::{CoreId, NodeId, SocketId};
use numadag_tdg::TaskId;

use crate::event::TraceEvent;

/// A complete execution trace: which workload ran under which policy on
/// which backend, and every event the executor emitted.
///
/// Traces are produced by the executors in `numadag-runtime` (through a
/// [`crate::MemorySink`] installed on the execution configuration) and by
/// the sweep plan for every cell of a traced `Experiment`. The analytics
/// layer ([`crate::analytics`], [`crate::compare`]) works on this type.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Workload label (application name or spec name).
    pub workload: String,
    /// Canonical policy label.
    pub policy: String,
    /// Backend that produced the trace, as sweep reports name it
    /// (`"simulator"` — also for cells run by proc workers — or
    /// `"threaded"`).
    pub backend: String,
    /// Problem-scale label (`"Tiny"`, `"Small"`, `"Full"` or `"custom"`).
    pub scale: String,
    /// Repetition index of the sweep cell this trace came from.
    pub repetition: usize,
    /// Number of tasks in the workload.
    pub tasks: usize,
    /// Number of sockets of the machine the trace was recorded on.
    pub num_sockets: usize,
    /// Makespan of the traced execution (ns).
    pub makespan_ns: f64,
    /// Every event, in emission order.
    pub events: Vec<TraceEvent>,
}

/// Per-task execution interval extracted from a trace's `Start`/`Finish`
/// events (`None` for tasks the trace never saw run).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TaskInterval {
    /// Execution start (ns).
    pub start: f64,
    /// Execution end (ns).
    pub end: f64,
    /// Socket the task ran on.
    pub socket: SocketId,
    /// Core the task ran on.
    pub core: CoreId,
    /// Socket the policy originally assigned (equals `socket` unless the
    /// task was stolen).
    pub assigned: SocketId,
    /// True if the task was stolen.
    pub stolen: bool,
}

impl TaskInterval {
    /// Execution duration (ns).
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// How many events [`Trace::to_json_writer`] renders and writes at a time.
const EVENTS_PER_WRITE: usize = 512;

impl Trace {
    /// Events of one kind, by their serialization tag.
    pub fn events_tagged<'a>(&'a self, tag: &'a str) -> impl Iterator<Item = &'a TraceEvent> {
        self.events.iter().filter(move |e| e.tag() == tag)
    }

    /// Per-task execution intervals, indexed by task id. A well-formed trace
    /// has an interval for every task.
    pub fn task_intervals(&self) -> Vec<Option<TaskInterval>> {
        let mut assigned: Vec<Option<SocketId>> = vec![None; self.tasks];
        let mut intervals: Vec<Option<TaskInterval>> = vec![None; self.tasks];
        for event in &self.events {
            match event {
                TraceEvent::Assign { task, socket, .. } => {
                    assigned[task.index()] = Some(*socket);
                }
                TraceEvent::Start {
                    task,
                    socket,
                    core,
                    time,
                    stolen,
                } => {
                    intervals[task.index()] = Some(TaskInterval {
                        start: *time,
                        end: *time,
                        socket: *socket,
                        core: *core,
                        assigned: assigned[task.index()].unwrap_or(*socket),
                        stolen: *stolen,
                    });
                }
                TraceEvent::Finish { task, time, .. } => {
                    if let Some(interval) = intervals[task.index()].as_mut() {
                        interval.end = *time;
                    }
                }
                _ => {}
            }
        }
        intervals
    }

    /// Checks the structural invariants every complete trace satisfies:
    /// exactly one `Assign`, `Start` and `Finish` per task, `Finish` never
    /// before `Start`, and timestamps within `[0, makespan]` (with a small
    /// tolerance for the threaded backend's wall-clock measurement skew).
    /// Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let mut counts = vec![[0usize; 3]; self.tasks];
        for event in &self.events {
            let t = event.task().index();
            if t >= self.tasks {
                return Err(format!("{} event for out-of-range task {t}", event.tag()));
            }
            let slot = match event {
                TraceEvent::Assign { .. } => 0,
                TraceEvent::Start { .. } => 1,
                TraceEvent::Finish { .. } => 2,
                _ => continue,
            };
            counts[t][slot] += 1;
        }
        for (t, c) in counts.iter().enumerate() {
            if *c != [1, 1, 1] {
                return Err(format!(
                    "task {t}: expected 1 assign/start/finish, saw {c:?}"
                ));
            }
        }
        let tolerance = 1e-6 * self.makespan_ns.max(1.0);
        for interval in self.task_intervals().iter().flatten() {
            if interval.end < interval.start {
                return Err(format!("interval ends before it starts: {interval:?}"));
            }
            if interval.start < 0.0 || interval.end > self.makespan_ns + tolerance {
                return Err(format!(
                    "interval {interval:?} outside [0, makespan {}]",
                    self.makespan_ns
                ));
            }
        }
        Ok(())
    }

    /// Pretty-printed JSON of the whole trace: [`Trace::to_json_writer`]
    /// into memory.
    pub fn to_json_string(&self) -> String {
        // An event renders to ~150 bytes; growing to megabytes copies them.
        let mut bytes = Vec::with_capacity(512 + 160 * self.events.len());
        self.to_json_writer(&mut bytes)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(bytes).expect("the renderer emits UTF-8")
    }

    /// Streams the pretty-printed JSON into `writer` without materializing
    /// the document as one `Value` tree (which for a trace means a copy of
    /// every event): trace files grow with event count, so the events are
    /// rendered and written a bounded run at a time. The one renderer of a
    /// trace; the bytes are what `serde_json::to_string_pretty` makes of the
    /// derived `Serialize`.
    pub fn to_json_writer(&self, writer: &mut dyn std::io::Write) -> Result<(), String> {
        let io = |e: std::io::Error| format!("I/O error while writing trace JSON: {e}");
        let scalar = |v: &Value| serde_json::to_string(v).expect("scalar serialization is total");
        // Header scalars, rendered through the vendored serializer so
        // escaping and number formatting are its own.
        let header: [(&str, Value); 8] = [
            ("workload", self.workload.to_value()),
            ("policy", self.policy.to_value()),
            ("backend", self.backend.to_value()),
            ("scale", self.scale.to_value()),
            ("repetition", self.repetition.to_value()),
            ("tasks", self.tasks.to_value()),
            ("num_sockets", self.num_sockets.to_value()),
            ("makespan_ns", self.makespan_ns.to_value()),
        ];
        writer.write_all(b"{").map_err(io)?;
        for (key, value) in &header {
            // The comma is correct unconditionally: "events" always follows.
            write!(writer, "\n  \"{key}\": {},", scalar(value)).map_err(io)?;
        }
        writer.write_all(b"\n  \"events\": ").map_err(io)?;
        if self.events.is_empty() {
            writer.write_all(b"[]").map_err(io)?;
        } else {
            writer.write_all(b"[").map_err(io)?;
            // Rendered as the `events` member of an object, a run of events
            // comes out at the nesting depth it lives at: what is between
            // the brackets of each rendering is written, run after run.
            const OPEN: &str = "{\n  \"events\": [";
            const CLOSE: &str = "\n  ]\n}";
            for (i, run) in self.events.chunks(EVENTS_PER_WRITE).enumerate() {
                let run = Value::Array(run.iter().map(Serialize::to_value).collect());
                let nested = Value::Object(vec![("events".to_string(), run)]);
                let text = serde_json::to_string_pretty(&nested).expect("events always render");
                if i > 0 {
                    writer.write_all(b",").map_err(io)?;
                }
                writer
                    .write_all(&text.as_bytes()[OPEN.len()..text.len() - CLOSE.len()])
                    .map_err(io)?;
            }
            writer.write_all(b"\n  ]").map_err(io)?;
        }
        writer.write_all(b"\n}").map_err(io)?;
        Ok(())
    }

    /// Parses a trace previously serialized by [`Trace::to_json_string`].
    pub fn from_json_str(text: &str) -> Result<Trace, String> {
        let value = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
        Trace::from_value(&value)
    }
}

impl Serialize for TraceEvent {
    fn to_value(&self) -> Value {
        let mut entries = vec![("type".to_string(), self.tag().to_value())];
        match self {
            TraceEvent::Assign { task, socket, time } => {
                entries.push(("task".to_string(), task.index().to_value()));
                entries.push(("socket".to_string(), socket.index().to_value()));
                entries.push(("time".to_string(), time.to_value()));
            }
            TraceEvent::Start {
                task,
                socket,
                core,
                time,
                stolen,
            } => {
                entries.push(("task".to_string(), task.index().to_value()));
                entries.push(("socket".to_string(), socket.index().to_value()));
                entries.push(("core".to_string(), core.index().to_value()));
                entries.push(("time".to_string(), time.to_value()));
                entries.push(("stolen".to_string(), stolen.to_value()));
            }
            TraceEvent::Finish {
                task,
                socket,
                core,
                time,
            } => {
                entries.push(("task".to_string(), task.index().to_value()));
                entries.push(("socket".to_string(), socket.index().to_value()));
                entries.push(("core".to_string(), core.index().to_value()));
                entries.push(("time".to_string(), time.to_value()));
            }
            TraceEvent::DeferredAlloc {
                task,
                node,
                bytes,
                time,
            } => {
                entries.push(("task".to_string(), task.index().to_value()));
                entries.push(("node".to_string(), node.index().to_value()));
                entries.push(("bytes".to_string(), bytes.to_value()));
                entries.push(("time".to_string(), time.to_value()));
            }
            TraceEvent::Traffic {
                task,
                region,
                from,
                to,
                distance,
                bytes,
                time,
            } => {
                entries.push(("task".to_string(), task.index().to_value()));
                entries.push(("region".to_string(), region.to_value()));
                entries.push(("from".to_string(), from.index().to_value()));
                entries.push(("to".to_string(), to.index().to_value()));
                entries.push(("distance".to_string(), distance.to_value()));
                entries.push(("bytes".to_string(), bytes.to_value()));
                entries.push(("time".to_string(), time.to_value()));
            }
        }
        Value::Object(entries)
    }
}

// By hand like the `Serialize` above: the event is internally tagged
// (`{"type": "assign", ...}`), a shape the derive does not have, and its id
// newtypes live in crates that know nothing of serde. This is also the wire
// form the multi-process executor ships event streams in.
impl Deserialize for TraceEvent {
    fn from_value(value: &Value) -> Result<Self, String> {
        let index = |name: &str| de::field::<usize>(value, "event", name);
        let tag: String = de::field(value, "event", "type")?;
        let task = TaskId(index("task")?);
        let time = de::field(value, "event", "time")?;
        match tag.as_str() {
            "assign" => Ok(TraceEvent::Assign {
                task,
                socket: SocketId(index("socket")?),
                time,
            }),
            "start" => Ok(TraceEvent::Start {
                task,
                socket: SocketId(index("socket")?),
                core: CoreId(index("core")?),
                time,
                stolen: de::field(value, "event", "stolen")?,
            }),
            "finish" => Ok(TraceEvent::Finish {
                task,
                socket: SocketId(index("socket")?),
                core: CoreId(index("core")?),
                time,
            }),
            "deferred_alloc" => Ok(TraceEvent::DeferredAlloc {
                task,
                node: NodeId(index("node")?),
                bytes: de::field(value, "event", "bytes")?,
                time,
            }),
            "traffic" => Ok(TraceEvent::Traffic {
                task,
                region: index("region")?,
                from: NodeId(index("from")?),
                to: NodeId(index("to")?),
                distance: de::field(value, "event", "distance")?,
                bytes: de::field(value, "event", "bytes")?,
                time,
            }),
            other => Err(format!("unknown event type {other:?}")),
        }
    }
}

/// Thread-safe accumulator for the traces of a sweep: the sweep plan
/// records one [`Trace`] per executed cell, and harnesses drain it after the
/// run (to write trace files or feed the comparison analytics).
#[derive(Debug, Default)]
pub struct TraceCollector {
    traces: Mutex<Vec<Trace>>,
}

impl TraceCollector {
    /// An empty collector.
    pub fn new() -> Self {
        TraceCollector::default()
    }

    /// Records one cell's trace.
    pub fn record(&self, trace: Trace) {
        self.traces.lock().push(trace);
    }

    /// Number of traces collected.
    pub fn len(&self) -> usize {
        self.traces.lock().len()
    }

    /// True if nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.traces.lock().is_empty()
    }

    /// Removes and returns every collected trace.
    pub fn take(&self) -> Vec<Trace> {
        std::mem::take(&mut *self.traces.lock())
    }

    /// A clone of the lowest-repetition trace matching `(workload, policy)`.
    /// Cells of a sharded sweep are recorded in completion order, so "first
    /// recorded" would be nondeterministic; keying on the repetition index
    /// keeps multi-rep comparisons anchored on matching repetitions.
    pub fn find(&self, workload: &str, policy: &str) -> Option<Trace> {
        self.traces
            .lock()
            .iter()
            .filter(|t| t.workload == workload && t.policy == policy)
            .min_by_key(|t| t.repetition)
            .cloned()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn toy_trace() -> Trace {
        // Two tasks on a 2-socket machine: task 0 local on S0, task 1
        // assigned to S0 but stolen by S1, reading task 0's region remotely.
        Trace {
            workload: "toy".to_string(),
            policy: "LAS".to_string(),
            backend: "simulator".to_string(),
            scale: "custom".to_string(),
            repetition: 0,
            tasks: 2,
            num_sockets: 2,
            makespan_ns: 30.0,
            events: vec![
                TraceEvent::Assign {
                    task: TaskId(0),
                    socket: SocketId(0),
                    time: 0.0,
                },
                TraceEvent::Start {
                    task: TaskId(0),
                    socket: SocketId(0),
                    core: CoreId(0),
                    time: 0.0,
                    stolen: false,
                },
                TraceEvent::DeferredAlloc {
                    task: TaskId(0),
                    node: NodeId(0),
                    bytes: 256,
                    time: 0.0,
                },
                TraceEvent::Traffic {
                    task: TaskId(0),
                    region: 0,
                    from: NodeId(0),
                    to: NodeId(0),
                    distance: 10,
                    bytes: 256,
                    time: 0.0,
                },
                TraceEvent::Finish {
                    task: TaskId(0),
                    socket: SocketId(0),
                    core: CoreId(0),
                    time: 10.0,
                },
                TraceEvent::Assign {
                    task: TaskId(1),
                    socket: SocketId(0),
                    time: 10.0,
                },
                TraceEvent::Start {
                    task: TaskId(1),
                    socket: SocketId(1),
                    core: CoreId(1),
                    time: 10.0,
                    stolen: true,
                },
                TraceEvent::Traffic {
                    task: TaskId(1),
                    region: 0,
                    from: NodeId(0),
                    to: NodeId(1),
                    distance: 21,
                    bytes: 256,
                    time: 10.0,
                },
                TraceEvent::Finish {
                    task: TaskId(1),
                    socket: SocketId(1),
                    core: CoreId(1),
                    time: 30.0,
                },
            ],
        }
    }

    #[test]
    fn intervals_capture_placement_and_steals() {
        let trace = toy_trace();
        let intervals = trace.task_intervals();
        let t0 = intervals[0].unwrap();
        assert_eq!(t0.socket, SocketId(0));
        assert_eq!(t0.assigned, SocketId(0));
        assert!(!t0.stolen);
        assert_eq!(t0.duration(), 10.0);
        let t1 = intervals[1].unwrap();
        assert_eq!(t1.socket, SocketId(1));
        assert_eq!(t1.assigned, SocketId(0));
        assert!(t1.stolen);
        assert_eq!(t1.duration(), 20.0);
    }

    #[test]
    fn validation_accepts_complete_traces_and_rejects_broken_ones() {
        let trace = toy_trace();
        assert!(trace.validate().is_ok());

        let mut missing = trace.clone();
        missing.events.pop(); // drop task 1's finish
        assert!(missing.validate().unwrap_err().contains("task 1"));

        let mut out_of_range = trace.clone();
        out_of_range.tasks = 1;
        assert!(out_of_range
            .validate()
            .unwrap_err()
            .contains("out-of-range"));

        // Traffic/deferred events are bounds-checked too: a complete
        // assign/start/finish set must not mask a rogue analytics event.
        let mut rogue_traffic = trace.clone();
        rogue_traffic.events.push(TraceEvent::Traffic {
            task: TaskId(9),
            region: 0,
            from: NodeId(0),
            to: NodeId(0),
            distance: 10,
            bytes: 1,
            time: 0.0,
        });
        let err = rogue_traffic.validate().unwrap_err();
        assert!(
            err.contains("traffic") && err.contains("out-of-range"),
            "{err}"
        );

        let mut late = trace;
        late.makespan_ns = 5.0;
        assert!(late.validate().is_err());
    }

    #[test]
    fn json_round_trips_every_event_kind() {
        let trace = toy_trace();
        let text = trace.to_json_string();
        assert_eq!(Trace::from_json_str(&text).unwrap(), trace);
        // The first task of the toy trace, byte for byte: the header and one
        // event of every kind.
        let mut one_task = trace;
        one_task.tasks = 1;
        one_task.events.truncate(5);
        assert_eq!(one_task.to_json_string(), ONE_TASK_TRACE_FILE);
    }

    /// What `Trace::to_json_string` wrote for the first five events of the
    /// toy trace at commit ecc5ee4, when it still pretty-printed the
    /// `Value` tree of the whole trace.
    const ONE_TASK_TRACE_FILE: &str = r#"{
  "workload": "toy",
  "policy": "LAS",
  "backend": "simulator",
  "scale": "custom",
  "repetition": 0,
  "tasks": 1,
  "num_sockets": 2,
  "makespan_ns": 30,
  "events": [
    {
      "type": "assign",
      "task": 0,
      "socket": 0,
      "time": 0
    },
    {
      "type": "start",
      "task": 0,
      "socket": 0,
      "core": 0,
      "time": 0,
      "stolen": false
    },
    {
      "type": "deferred_alloc",
      "task": 0,
      "node": 0,
      "bytes": 256,
      "time": 0
    },
    {
      "type": "traffic",
      "task": 0,
      "region": 0,
      "from": 0,
      "to": 0,
      "distance": 10,
      "bytes": 256,
      "time": 0
    },
    {
      "type": "finish",
      "task": 0,
      "socket": 0,
      "core": 0,
      "time": 10
    }
  ]
}"#;

    #[test]
    fn the_writer_renders_what_the_derived_serializer_would() {
        let mut empty = toy_trace();
        // Empty event list: the one shape the streamed array can't derive
        // from the loop.
        empty.events.clear();
        // Metadata needing JSON escapes.
        let mut quoted = toy_trace();
        quoted.workload = "odd \"name\"\nwith\tescapes \\".to_string();
        // More events than one run, and exactly two runs' worth.
        let mut long = toy_trace();
        long.events = long
            .events
            .iter()
            .cycle()
            .take(2 * EVENTS_PER_WRITE + 1)
            .cloned()
            .collect();
        let mut two_runs = long.clone();
        two_runs.events.pop();
        for trace in [toy_trace(), empty, quoted, long, two_runs] {
            let text = trace.to_json_string();
            assert_eq!(text, serde_json::to_string_pretty(&trace).unwrap());
            assert_eq!(Trace::from_json_str(&text).unwrap(), trace);
        }
    }

    #[test]
    fn streaming_writer_surfaces_io_errors() {
        struct Broken;
        impl std::io::Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let err = toy_trace().to_json_writer(&mut Broken).unwrap_err();
        assert!(err.contains("disk full"), "{err}");
    }

    /// A two-event trace exactly as `Trace::to_json_string` wrote it at
    /// commit fb5dfe3, the last with a hand-written `from_json_str`.
    const PARENT_TRACE_FILE: &str = r#"{
  "workload": "toy \"quoted\"",
  "policy": "LAS",
  "backend": "simulator",
  "scale": "custom",
  "repetition": 1,
  "tasks": 1,
  "num_sockets": 2,
  "makespan_ns": 30.5,
  "events": [
    {
      "type": "start",
      "task": 0,
      "socket": 1,
      "core": 3,
      "time": 0.1,
      "stolen": true
    },
    {
      "type": "traffic",
      "task": 0,
      "region": 2,
      "from": 0,
      "to": 1,
      "distance": 21,
      "bytes": 256,
      "time": 0.1
    }
  ]
}"#;

    #[test]
    fn the_parents_trace_file_decodes_and_re_encodes_byte_for_byte() {
        let trace = Trace::from_json_str(PARENT_TRACE_FILE).unwrap();
        assert_eq!(trace.workload, "toy \"quoted\"");
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.to_json_string(), PARENT_TRACE_FILE);
    }

    #[test]
    fn malformed_json_is_rejected_with_context() {
        assert!(Trace::from_json_str("not json").is_err());
        // The first field of the struct is the first one missed.
        assert!(Trace::from_json_str("{}").unwrap_err().contains("workload"));
        let warp = PARENT_TRACE_FILE.replacen("\"start\"", "\"warp\"", 1);
        assert!(Trace::from_json_str(&warp)
            .unwrap_err()
            .contains("unknown event type \"warp\""));
        // A distance that only fits a u32 truncated is refused, not cast.
        let far = PARENT_TRACE_FILE.replacen("\"distance\": 21", "\"distance\": 4294967306", 1);
        assert!(Trace::from_json_str(&far)
            .unwrap_err()
            .contains("event.distance: 4294967306 does not fit in a u32"));
        // Every field of the file and of every event kind: missing or
        // mistyped is an error that names it.
        let every_kind = toy_trace().to_value();
        for sample in [serde_json::from_str(PARENT_TRACE_FILE).unwrap(), every_kind] {
            serde::testing::assert_struct_rejects_malformed(&sample, &[], Trace::from_value);
        }
    }

    #[test]
    fn collector_records_and_finds() {
        let collector = TraceCollector::new();
        assert!(collector.is_empty());
        collector.record(toy_trace());
        assert_eq!(collector.len(), 1);
        assert!(collector.find("toy", "LAS").is_some());
        assert!(collector.find("toy", "DFIFO").is_none());
        assert_eq!(collector.take().len(), 1);
        assert!(collector.is_empty());
    }
}
