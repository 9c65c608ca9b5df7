//! The [`Trace`] container: one execution's events plus the metadata needed
//! to interpret them, with a JSON serialization that round-trips through
//! [`Trace::from_json_str`].

use std::io::Write as _;
use std::sync::{Mutex, MutexGuard, PoisonError};

use serde::{Deserialize, Serialize};

use numadag_numa::{CoreId, SocketId};

use crate::event::TraceEvent;

/// A complete execution trace: which workload ran under which policy on
/// which backend, and every event the executor emitted.
///
/// Traces are built from the events an execution of `numadag-runtime`
/// returns when its configuration asks for them, and by the sweep plan for
/// every cell of a traced `Experiment`. The analytics
/// layer (`crate::analytics`, `crate::compare`) works on this type.
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
    pub(crate) assigned: SocketId,
    /// True if the task was stolen.
    pub(crate) stolen: bool,
}

impl TaskInterval {
    /// Execution duration (ns).
    pub(crate) fn duration(&self) -> f64 {
        self.end - self.start
    }
}

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

    /// Pretty-printed JSON of the whole trace, as [`Trace::to_json_writer`]
    /// writes it.
    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(self).expect("a String takes any JSON")
    }

    /// Streams the pretty-printed JSON into `writer` through a buffer, token
    /// by token: nothing of the trace is copied on the way.
    pub fn to_json_writer(&self, writer: &mut dyn std::io::Write) -> Result<(), String> {
        let mut buffered = std::io::BufWriter::new(writer);
        serde_json::to_writer_pretty(&mut buffered, self)?;
        buffered.flush().map_err(serde_json::Error::from)?;
        Ok(())
    }

    /// Parses a trace previously serialized by [`Trace::to_json_string`].
    pub fn from_json_str(text: &str) -> Result<Trace, String> {
        Ok(serde::decode(text)?)
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

    /// The traces, taking over a poisoned lock: every method leaves the
    /// list whole.
    fn traces(&self) -> MutexGuard<'_, Vec<Trace>> {
        self.traces.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one cell's trace.
    pub fn record(&self, trace: Trace) {
        self.traces().push(trace);
    }

    /// Number of traces collected.
    pub fn len(&self) -> usize {
        self.traces().len()
    }

    /// True if nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.traces().is_empty()
    }

    /// Removes and returns every collected trace.
    pub fn take(&self) -> Vec<Trace> {
        std::mem::take(&mut *self.traces())
    }

    /// A clone of the lowest-repetition trace matching `(workload, policy)`.
    /// The lanes of a sweep record their cells in completion order, so
    /// "first recorded" would be nondeterministic; keying on the repetition
    /// index keeps multi-rep comparisons anchored on matching repetitions.
    pub fn find(&self, workload: &str, policy: &str) -> Option<Trace> {
        self.traces()
            .iter()
            .filter(|t| t.workload == workload && t.policy == policy)
            .min_by_key(|t| t.repetition)
            .cloned()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use numadag_numa::NodeId;
    use numadag_tdg::TaskId;

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
            .contains("unknown TraceEvent variant \"warp\""));
        // An event's tag comes first: a later one is refused, not searched.
        let late = PARENT_TRACE_FILE.replacen(
            "\"type\": \"start\",\n      \"task\": 0,",
            "\"task\": 0,\n      \"type\": \"start\",",
            1,
        );
        assert_ne!(late, PARENT_TRACE_FILE);
        assert!(Trace::from_json_str(&late)
            .unwrap_err()
            .contains("TraceEvent must begin with its \"type\" tag"));
        // A distance that only fits a u32 truncated is refused, not cast.
        let far = PARENT_TRACE_FILE.replacen("\"distance\": 21", "\"distance\": 4294967306", 1);
        assert!(Trace::from_json_str(&far)
            .unwrap_err()
            .contains("traffic.distance: 4294967306 does not fit in a u32"));
        // Every field of the file and of every event kind: missing or
        // mistyped is an error that names it.
        let every_kind = serde_json::to_string(&toy_trace()).unwrap();
        for sample in [PARENT_TRACE_FILE, &every_kind] {
            serde::testing::assert_struct_rejects_malformed(sample, &[], serde::decode::<Trace>);
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
