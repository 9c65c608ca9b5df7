//! A real work-pushing / work-stealing thread pool that follows the
//! scheduling policies.
//!
//! One worker thread is spawned per (virtual) core of the topology; the cores
//! of a socket share one task queue, mirroring the socket-level queues of
//! NUMA-aware runtimes. When a task's dependences are satisfied the policy is
//! consulted and the task is *pushed* to the chosen socket's queue; idle
//! workers first drain their own socket's queue and then *steal* from other
//! sockets (nearest first).
//!
//! Idle workers block on a condition variable and are woken precisely: a
//! completing worker notifies only when it published newly ready tasks (or
//! when the last task finished, for termination). There is no timeout
//! polling.
//!
//! The executor runs arbitrary task bodies supplied as a `Fn(TaskId)`
//! callback, so the kernels crate can execute real numerical kernels under
//! every policy and the integration tests can verify that scheduling does not
//! change results. The machine this reproduction runs on is not a NUMA
//! machine, so no performance claims are derived from this executor — the
//! timing claims all come from [`crate::simulator::Simulator`].

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use numadag_core::{MemoryLocator, SchedulingPolicy};
use numadag_numa::{CoreId, MemoryMap, SocketId, TrafficStats};
use numadag_tdg::{TaskGraphSpec, TaskId};
use numadag_trace::TraceEvent;

use crate::charge::charge_accesses;
use crate::config::{ExecutionConfig, StealMode};
use crate::deferred::apply_deferred_allocation;
use crate::executor::Executor;
use crate::report::ExecutionReport;

/// Shared scheduler state protected by one lock (contention is irrelevant at
/// the scale of the functional tests this executor serves). Every trace
/// event is emitted under it, so `events` is in emission order.
struct Shared<'p> {
    queues: Vec<VecDeque<TaskId>>,
    indegree: Vec<u32>,
    memory: MemoryMap,
    stats: TrafficStats,
    policy: &'p mut dyn SchedulingPolicy,
    remaining: usize,
    tasks_per_socket: Vec<usize>,
    stolen: usize,
    deferred_bytes: u64,
    /// The run's trace events; empty unless the config asks for them.
    events: Vec<TraceEvent>,
}

/// Locks the shared state, taking over a poisoned lock. Task bodies run
/// outside it, so a panicking body never leaves it half-updated.
fn lock<'a, 'p>(mutex: &'a Mutex<Shared<'p>>) -> MutexGuard<'a, Shared<'p>> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The threaded executor.
pub struct ThreadedExecutor {
    config: ExecutionConfig,
}

impl ThreadedExecutor {
    /// Creates a threaded executor for the given machine configuration. The
    /// number of worker threads equals the number of cores in the topology.
    pub fn new(config: ExecutionConfig) -> Self {
        ThreadedExecutor { config }
    }

    /// Executes the workload: `body(task_id)` is invoked exactly once per
    /// task, respecting all dependences, on whichever worker the scheduling
    /// decisions place it. Returns an [`ExecutionReport`] whose `makespan_ns`
    /// is the wall-clock time of the parallel section (placement and traffic
    /// statistics use the same virtual-NUMA bookkeeping as the simulator).
    pub fn run(
        &self,
        spec: &TaskGraphSpec,
        policy: &mut dyn SchedulingPolicy,
        body: &(dyn Fn(TaskId) + Sync),
    ) -> ExecutionReport {
        let topo = &self.config.topology;
        let num_sockets = topo.num_sockets();
        let n = spec.num_tasks();
        let policy_name = policy.name();

        let memory = MemoryMap::with_regions(spec.graph.region_sizes());
        {
            let locator = MemoryLocator::new(topo, &memory);
            policy.prepare(&spec.graph, &locator);
        }

        let mut shared = Shared {
            queues: vec![VecDeque::new(); num_sockets],
            indegree: spec.graph.flat().in_degrees().to_vec(),
            memory,
            stats: TrafficStats::new(),
            policy,
            remaining: n,
            tasks_per_socket: vec![0; num_sockets],
            stolen: 0,
            deferred_bytes: 0,
            events: Vec::new(),
        };

        // Seed the queues with the source tasks. Seeding happens before the
        // makespan clock starts (the parallel section is what is measured),
        // so the seeding `Assign` events are stamped 0.0.
        let sources = spec.graph.sources();
        for &task in &sources {
            let socket = {
                let locator = MemoryLocator::new(topo, &shared.memory);
                shared.policy.assign(&spec.graph.task(task), &locator)
            };
            shared.queues[socket.index()].push_back(task);
            if self.config.events {
                shared.events.push(TraceEvent::Assign {
                    task,
                    socket,
                    time: 0.0,
                });
            }
        }

        let sync = (Mutex::new(shared), Condvar::new());
        let start = std::time::Instant::now();

        std::thread::scope(|scope| {
            for core in topo.cores() {
                let my_socket = topo.socket_of(core);
                let sync = &sync;
                let config = &self.config;
                scope.spawn(move || {
                    worker_loop(spec, config, my_socket, core, start, sync, body);
                });
            }
        });

        let elapsed = start.elapsed();
        let mut guard = lock(&sync.0);
        let mut report = ExecutionReport {
            workload: spec.name.clone(),
            policy: policy_name,
            makespan_ns: elapsed.as_nanos() as f64,
            tasks: n,
            traffic: guard.stats.clone(),
            tasks_per_socket: guard.tasks_per_socket.clone(),
            busy_per_socket: vec![0.0; num_sockets],
            stolen_tasks: guard.stolen,
            deferred_bytes: guard.deferred_bytes,
            events: std::mem::take(&mut guard.events),
        };
        // Busy time is not meaningful for the host machine; report task
        // counts as a proxy so load_imbalance() still says something useful.
        for (s, &count) in guard.tasks_per_socket.iter().enumerate() {
            report.busy_per_socket[s] = count as f64;
        }
        report
    }
}

impl Executor for ThreadedExecutor {
    fn backend_name(&self) -> &'static str {
        "threaded"
    }

    fn config(&self) -> &ExecutionConfig {
        &self.config
    }

    fn execute(&self, spec: &TaskGraphSpec, policy: &mut dyn SchedulingPolicy) -> ExecutionReport {
        self.run(spec, policy, &|_| {})
    }
}

fn worker_loop(
    spec: &TaskGraphSpec,
    config: &ExecutionConfig,
    my_socket: SocketId,
    my_core: CoreId,
    t0: std::time::Instant,
    sync: &(Mutex<Shared<'_>>, Condvar),
    body: &(dyn Fn(TaskId) + Sync),
) {
    let topo = &config.topology;
    let traced = config.events;
    let (shared, cv) = sync;
    loop {
        // Grab a task: local queue first, then steal (nearest socket first).
        let grabbed = {
            let mut s = lock(shared);
            loop {
                if s.remaining == 0 {
                    return;
                }
                let mut found: Option<(TaskId, bool)> = None;
                if let Some(task) = s.queues[my_socket.index()].pop_front() {
                    found = Some((task, false));
                } else if config.steal == StealMode::NearestSocket {
                    let order = topo.nodes_by_distance(my_socket.node());
                    for node in order {
                        let v = node.socket().index();
                        if v == my_socket.index() {
                            continue;
                        }
                        if let Some(task) = s.queues[v].pop_back() {
                            found = Some((task, true));
                            break;
                        }
                    }
                }
                match found {
                    Some((task, stolen)) => {
                        let now = t0.elapsed().as_nanos() as f64;
                        if traced {
                            s.events.push(TraceEvent::Start {
                                task,
                                socket: my_socket,
                                core: my_core,
                                time: now,
                                stolen,
                            });
                        }
                        // Deferred allocation happens when the task is picked
                        // up by the socket that will actually run it.
                        let node = my_socket.node();
                        let accesses = spec.graph.task(task).accesses;
                        let placed =
                            apply_deferred_allocation(&mut s.memory, accesses.regions(), node);
                        s.deferred_bytes = s.deferred_bytes.saturating_add(placed);
                        if traced && placed > 0 {
                            s.events.push(TraceEvent::DeferredAlloc {
                                task,
                                node,
                                bytes: placed,
                                time: now,
                            });
                        }
                        // Account traffic against the virtual NUMA map.
                        let Shared {
                            memory,
                            stats,
                            events,
                            ..
                        } = &mut *s;
                        charge_accesses(
                            topo,
                            memory,
                            traced.then_some(events),
                            stats,
                            task,
                            accesses,
                            node,
                            now,
                            |_, _| {},
                        );
                        s.tasks_per_socket[my_socket.index()] += 1;
                        if stolen {
                            s.stolen += 1;
                        }
                        break task;
                    }
                    None => {
                        // Nothing runnable: sleep until a completion publishes
                        // new ready tasks or the last task finishes. `wait`
                        // releases the lock atomically, so a notification
                        // cannot be missed between the check and the sleep.
                        s = cv.wait(s).unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        };

        // Execute the real task body outside the lock.
        body(grabbed);

        // Publish completion: release successors and push newly ready tasks.
        let mut s = lock(shared);
        let now = t0.elapsed().as_nanos() as f64;
        if traced {
            s.events.push(TraceEvent::Finish {
                task: grabbed,
                socket: my_socket,
                core: my_core,
                time: now,
            });
        }
        s.remaining -= 1;
        let mut newly_ready = Vec::new();
        for &succ in spec.graph.flat().successors(grabbed) {
            s.indegree[succ as usize] -= 1;
            if s.indegree[succ as usize] == 0 {
                newly_ready.push(TaskId(succ as usize));
            }
        }
        let published = !newly_ready.is_empty();
        for ready in newly_ready {
            let socket = {
                let Shared { memory, policy, .. } = &mut *s;
                let locator = MemoryLocator::new(topo, memory);
                policy.assign(&spec.graph.task(ready), &locator)
            };
            s.queues[socket.index()].push_back(ready);
            if traced {
                s.events.push(TraceEvent::Assign {
                    task: ready,
                    socket,
                    time: now,
                });
            }
        }
        let finished = s.remaining == 0;
        drop(s);
        // Precise wakeups: only a task-ready transition or termination can
        // unblock a sleeping worker. `notify_all` (not `notify_one`) because
        // with stealing disabled only the pushed-to socket's workers can take
        // the task, and the condvar cannot target a socket.
        if published || finished {
            cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numadag_core::{DfifoPolicy, LasPolicy, RgpPolicy};
    use numadag_numa::Topology;
    use numadag_tdg::{TaskGraph, TaskSpec, TdgBuilder};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A reduction tree: `leaves` leaf tasks each produce a value; inner
    /// tasks sum pairs. The final task must see the sum of all leaves
    /// regardless of scheduling.
    fn reduction_spec(leaves: usize) -> (TaskGraphSpec, usize) {
        let mut b = TdgBuilder::new();
        let regions: Vec<_> = (0..2 * leaves - 1).map(|_| b.region(8)).collect();
        // Leaf tasks write regions [0, leaves).
        for r in regions.iter().take(leaves) {
            b.submit(TaskSpec::new("leaf").work(1.0).writes(*r, 8));
        }
        // Inner tasks: region leaves+i = sum of regions 2i and 2i+1.
        let mut next = leaves;
        let mut frontier: Vec<usize> = (0..leaves).collect();
        while frontier.len() > 1 {
            let mut new_frontier = Vec::new();
            for pair in frontier.chunks(2) {
                if pair.len() == 2 {
                    b.submit(
                        TaskSpec::new("sum")
                            .work(1.0)
                            .reads(regions[pair[0]], 8)
                            .reads(regions[pair[1]], 8)
                            .writes(regions[next], 8),
                    );
                    new_frontier.push(next);
                    next += 1;
                } else {
                    new_frontier.push(pair[0]);
                }
            }
            frontier = new_frontier;
        }
        let root = frontier[0];
        (TaskGraphSpec::new("reduction", b.finish()), root)
    }

    #[test]
    fn executes_every_task_exactly_once() {
        let (spec, _) = reduction_spec(32);
        let counter = AtomicU64::new(0);
        let executed: Vec<AtomicU64> = (0..spec.num_tasks()).map(|_| AtomicU64::new(0)).collect();
        let exec = ThreadedExecutor::new(ExecutionConfig::new(Topology::two_socket(2)));
        let mut policy = DfifoPolicy::new();
        let report = exec.run(&spec, &mut policy, &|t| {
            executed[t.index()].fetch_add(1, Ordering::SeqCst);
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst) as usize, spec.num_tasks());
        assert!(executed.iter().all(|e| e.load(Ordering::SeqCst) == 1));
        assert_eq!(
            report.tasks_per_socket.iter().sum::<usize>(),
            spec.num_tasks()
        );
    }

    #[test]
    fn dependences_are_respected() {
        // A chain: each task appends its index; the result must be ordered.
        let mut b = TdgBuilder::new();
        let r = b.region(8);
        for i in 0..64 {
            b.submit(TaskSpec::new(format!("s{i}")).work(1.0).reads_writes(r, 8));
        }
        let spec = TaskGraphSpec::new("chain", b.finish());
        let log = Mutex::new(Vec::new());
        let exec = ThreadedExecutor::new(ExecutionConfig::new(Topology::two_socket(2)));
        let mut policy = LasPolicy::new(1);
        exec.run(&spec, &mut policy, &|t| {
            log.lock().unwrap().push(t.index());
        });
        let log = log.into_inner().unwrap();
        assert_eq!(log, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn reduction_result_is_policy_independent() {
        let (spec, _) = reduction_spec(16);
        let run = |policy: &mut dyn SchedulingPolicy| {
            // values[r] holds the value of region r; leaves write 1.0.
            let values: Vec<Mutex<f64>> =
                (0..spec.num_regions()).map(|_| Mutex::new(0.0)).collect();
            let exec = ThreadedExecutor::new(ExecutionConfig::new(Topology::four_socket(1)));
            exec.run(&spec, policy, &|t| {
                let task = spec.graph.task(t);
                if task.kind == "leaf" {
                    let out = task.accesses.regions()[0] as usize;
                    *values[out].lock().unwrap() = 1.0;
                } else {
                    let [a, b, out] = [0, 1, 2].map(|i| task.accesses.regions()[i] as usize);
                    let sum = *values[a].lock().unwrap() + *values[b].lock().unwrap();
                    *values[out].lock().unwrap() = sum;
                }
            });
            let root = spec.num_regions() - 1;
            let v = *values[root].lock().unwrap();
            v
        };
        assert_eq!(run(&mut DfifoPolicy::new()), 16.0);
        assert_eq!(run(&mut LasPolicy::new(9)), 16.0);
        assert_eq!(run(&mut RgpPolicy::rgp_las()), 16.0);
    }

    #[test]
    fn traffic_bookkeeping_matches_simulator_semantics() {
        let (spec, _) = reduction_spec(8);
        let exec = ThreadedExecutor::new(ExecutionConfig::new(Topology::two_socket(2)));
        let mut policy = LasPolicy::new(4);
        let report = exec.run(&spec, &mut policy, &|_| {});
        // Every leaf region is deferred-allocated exactly once.
        assert!(report.deferred_bytes >= 8 * 8);
        assert!(report.traffic.total_bytes() > 0);
        assert_eq!(report.tasks, spec.num_tasks());
    }

    #[test]
    fn no_stealing_mode_terminates_with_precise_wakeups() {
        // A chain forces repeated sleep/wake cycles: only one task is ever
        // ready, and under NoStealing only the pushed-to socket may run it.
        // With imprecise notifications this test would hang.
        let mut b = TdgBuilder::new();
        let r = b.region(8);
        for _ in 0..128 {
            b.submit(TaskSpec::new("link").work(1.0).reads_writes(r, 8));
        }
        let spec = TaskGraphSpec::new("chain", b.finish());
        let config =
            ExecutionConfig::new(Topology::four_socket(2)).with_steal(StealMode::NoStealing);
        let exec = ThreadedExecutor::new(config);
        let counter = AtomicU64::new(0);
        let mut policy = DfifoPolicy::new();
        let report = exec.run(&spec, &mut policy, &|_| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 128);
        assert_eq!(report.stolen_tasks, 0);
    }

    #[test]
    fn events_form_a_complete_wall_clock_trace() {
        use numadag_trace::Trace;
        let (spec, _) = reduction_spec(16);
        let cfg = ExecutionConfig::new(Topology::two_socket(2)).with_events();
        let exec = ThreadedExecutor::new(cfg);
        let mut policy = LasPolicy::new(4);
        let mut report = exec.run(&spec, &mut policy, &|_| {});
        let trace = Trace {
            workload: spec.name.to_string(),
            policy: report.policy.to_string(),
            backend: "threaded".to_string(),
            scale: "custom".to_string(),
            repetition: 0,
            tasks: spec.num_tasks(),
            num_sockets: 2,
            makespan_ns: report.makespan_ns,
            events: std::mem::take(&mut report.events),
        };
        trace.validate().expect("threaded trace must be complete");
        assert_eq!(
            trace.traffic_matrix().total_bytes(),
            report.traffic.total_bytes()
        );
        // Wall-clock ordering: every task finishes no earlier than it starts.
        for interval in trace.task_intervals().into_iter().flatten() {
            assert!(interval.end >= interval.start);
        }
    }

    #[test]
    fn empty_workload_returns_immediately() {
        let spec = TaskGraphSpec::new("empty", TaskGraph::new());
        let exec = ThreadedExecutor::new(ExecutionConfig::new(Topology::two_socket(2)));
        let mut policy = DfifoPolicy::new();
        let report = exec.run(&spec, &mut policy, &|_| panic!("no tasks to run"));
        assert_eq!(report.tasks, 0);
    }

    #[test]
    fn execute_via_trait_object_matches_run() {
        let (spec, _) = reduction_spec(8);
        let exec: Box<dyn Executor> = Box::new(ThreadedExecutor::new(ExecutionConfig::new(
            Topology::two_socket(2),
        )));
        assert_eq!(exec.backend_name(), "threaded");
        let mut policy = LasPolicy::new(4);
        let report = exec.execute(&spec, &mut policy);
        assert_eq!(report.tasks, spec.num_tasks());
        assert_eq!(
            report.tasks_per_socket.iter().sum::<usize>(),
            spec.num_tasks()
        );
    }
}
