//! Discrete-event simulator of a task-based runtime on a NUMA machine.
//!
//! The simulator plays the role of the Atos bullion S16 testbed of the paper:
//! it executes the task dependency graph respecting dependences, queues,
//! work pushing and stealing, and charges every task the time to compute and
//! the time to move its bytes between the socket it runs on and the NUMA
//! nodes holding them. The output is a makespan and a traffic ledger, from
//! which the benchmark harness derives the speedups of Figure 1.
//!
//! The simulation is fully deterministic: the only randomness lives inside
//! the policies (and is seeded).

use std::sync::Mutex;

use numadag_core::{MemoryLocator, SchedulingPolicy};
use numadag_numa::{CoreId, CostTransferTable, MemoryMap, SocketId};
use numadag_tdg::{FlatTdg, TaskGraph, TaskGraphSpec, TaskId};
use numadag_trace::TraceEvent;

use crate::charge::charge_accesses;
use crate::config::ExecutionConfig;
use crate::deferred::apply_deferred_allocation;
use crate::dispatch::{SocketQueues, MAX_SOCKETS};
use crate::event_queue::{Event, EventQueue};
use crate::executor::Executor;
use crate::report::ExecutionReport;

/// Per-run working state, reused across cells of a sweep.
///
/// A Full sweep runs hundreds of simulations on the same executor; rebuilding
/// these vectors per cell dominated the event loop's allocation profile. All
/// fields are reset (lengths and contents), never freed, so steady-state runs
/// allocate nothing here.
#[derive(Debug, Default)]
struct SimScratch {
    /// Remaining unfinished predecessors per task.
    indegree: Vec<u32>,
    /// Per-socket task queues and idle-core stacks.
    sockets: SocketQueues,
    /// Number of running tasks per socket (bandwidth contention input).
    busy_count: Vec<usize>,
    /// Tasks whose last dependence was just released.
    ready: Vec<TaskId>,
    /// In-flight completion events.
    events: EventQueue,
}

impl SimScratch {
    fn reset(&mut self, flat: &FlatTdg, num_cores: usize, idle_template: &[Vec<CoreId>]) {
        let num_sockets = idle_template.len();
        self.indegree.clear();
        self.indegree.extend_from_slice(flat.in_degrees());
        self.sockets.reset(idle_template);
        self.busy_count.clear();
        self.busy_count.resize(num_sockets, 0);
        self.ready.clear();
        self.events.reset(num_cores);
    }
}

/// The discrete-event simulator.
pub struct Simulator {
    config: ExecutionConfig,
    /// Per-socket steal order: the other sockets' indices sorted by NUMA
    /// distance from the stealing socket (ties by node id). Static per
    /// topology.
    steal_order: Vec<Vec<u32>>,
    /// Initial idle-core stack per socket (reversed so `pop()` hands out the
    /// lowest core id first).
    idle_template: Vec<Vec<CoreId>>,
    /// Per-distance latency/bandwidth cache (bit-identical to evaluating
    /// the cost model, minus its two `powf` calls per access).
    transfer: CostTransferTable,
    /// Reusable run states, one per run in flight at its peak. A run pops
    /// one (or builds a fresh one) and pushes it back when it ends, holding
    /// the lock only for the pop and the push: the lanes of a sweep sharing
    /// this simulator run their cells at the same time.
    scratch: Mutex<Vec<SimScratch>>,
}

/// What starting a task reads and writes besides the socket queues: the
/// run's memory state, clocks and report accumulators.
struct Run<'a> {
    sim: &'a Simulator,
    graph: &'a TaskGraph,
    memory: MemoryMap,
    report: ExecutionReport,
    busy_count: &'a mut [usize],
    events: &'a mut EventQueue,
    seq: u64,
}

impl Run<'_> {
    /// Starts `task` on `core` at time `now`: deferred allocation on the
    /// executing node, the memory time of every access, and the completion
    /// event.
    fn start_task(&mut self, task: TaskId, core: CoreId, now: f64, stolen: bool) {
        let sim = self.sim;
        let topo = &sim.config.topology;
        let cost = &sim.config.cost_model;
        let traced = sim.config.events;
        let socket = topo.socket_of(core);
        let node = socket.node();
        let row = self.graph.task(task);

        if traced {
            self.report.events.push(TraceEvent::Start {
                task,
                socket,
                core,
                time: now,
                stolen,
            });
        }

        // Deferred allocation / first touch on the executing node.
        let placed = apply_deferred_allocation(&mut self.memory, row.accesses.regions(), node);
        self.report.deferred_bytes = self.report.deferred_bytes.saturating_add(placed);
        if traced && placed > 0 {
            self.report.events.push(TraceEvent::DeferredAlloc {
                task,
                node,
                bytes: placed,
                time: now,
            });
        }

        // Memory time: move every accessed byte between its home node and
        // the executing socket, summed access by access.
        let mut memory_time = 0.0f64;
        charge_accesses(
            topo,
            &self.memory,
            traced.then_some(&mut self.report.events),
            &mut self.report.traffic,
            task,
            row.accesses,
            node,
            now,
            |bytes, distance| memory_time += sim.transfer.transfer_time(bytes, distance),
        );
        // Bandwidth contention between the cores of this socket.
        let concurrent = self.busy_count[socket.index()] + 1;
        let duration = cost.compute_time(row.work_units)
            + memory_time * cost.contention_multiplier(concurrent);

        self.busy_count[socket.index()] += 1;
        self.report.tasks_per_socket[socket.index()] += 1;
        self.report.busy_per_socket[socket.index()] += duration;
        if stolen {
            self.report.stolen_tasks += 1;
        }
        self.seq += 1;
        self.events.push(Event {
            time: now + duration,
            seq: self.seq,
            task,
            core,
        });
    }
}

impl Simulator {
    /// The most sockets a simulated machine may have: the dispatcher tracks
    /// per-socket state in one 64-bit mask.
    pub const MAX_SOCKETS: usize = MAX_SOCKETS;

    /// The most cores a simulated machine may have: the simulator allocates
    /// per core, so without a bound a decoded config could make it allocate
    /// without one. 2^16 is [`Simulator::MAX_SOCKETS`] sockets of 1,024
    /// cores, more than any NUMA machine built and 1,024 times the largest
    /// topology the repository simulates (64 sockets of 1 core).
    pub(crate) const MAX_CORES: usize = 1 << 16;

    /// Creates a simulator for the given machine configuration.
    ///
    /// # Panics
    /// Panics if the topology has more than [`Simulator::MAX_SOCKETS`]
    /// sockets or `Simulator::MAX_CORES` cores.
    pub fn new(config: ExecutionConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Simulator::new`], refusing a machine it cannot simulate instead of
    /// panicking (a proc worker refuses a config it cannot build this way).
    pub fn try_new(config: ExecutionConfig) -> Result<Self, String> {
        let topo = &config.topology;
        if topo.num_sockets() > Self::MAX_SOCKETS {
            return Err(format!(
                "the simulator supports at most {} sockets, topology {:?} has {}",
                Self::MAX_SOCKETS,
                topo.name(),
                topo.num_sockets()
            ));
        }
        // Sockets are at most 64 here, so the product cannot overflow once
        // one socket's cores are within the bound.
        if topo.cores_per_socket() > Self::MAX_CORES || topo.num_cores() > Self::MAX_CORES {
            return Err(format!(
                "the simulator supports at most {} cores, topology {:?} has {} x {}",
                Self::MAX_CORES,
                topo.name(),
                topo.num_sockets(),
                topo.cores_per_socket()
            ));
        }
        let steal_order = (0..topo.num_sockets())
            .map(|s| {
                topo.nodes_by_distance(SocketId(s).node())
                    .into_iter()
                    .map(|nd| nd.socket().index() as u32)
                    .filter(|&v| v as usize != s)
                    .collect()
            })
            .collect();
        let idle_template = topo
            .sockets()
            .map(|s| {
                let mut cores: Vec<CoreId> = topo.cores_of(s).collect();
                cores.reverse(); // pop() hands out the lowest core id first
                cores
            })
            .collect();
        let transfer = config
            .cost_model
            .transfer_table(config.topology.distances());
        Ok(Simulator {
            config,
            steal_order,
            idle_template,
            transfer,
            scratch: Mutex::new(Vec::new()),
        })
    }

    /// Runs `spec` under `policy` and returns the execution report. Every
    /// spec is runnable (see [`numadag_tdg::TaskGraph::push_task`]), so
    /// there is nothing to check first.
    pub fn run(&self, spec: &TaskGraphSpec, policy: &mut dyn SchedulingPolicy) -> ExecutionReport {
        let topo = &self.config.topology;
        let num_sockets = topo.num_sockets();
        let flat = spec.graph.flat();
        let n = flat.num_tasks();
        let traced = self.config.events;

        // Memory state: all regions start unallocated (deferred allocation).
        let memory = MemoryMap::with_regions(spec.graph.region_sizes());

        // Let the policy look at the graph (RGP partitions its window here).
        policy.prepare(&spec.graph, &MemoryLocator::new(topo, &memory));

        // Reusable run state (queues, indegrees, idle stacks, event heap):
        // reset, not reallocated, between cells of a sweep.
        let mut scratch = self.scratch_pool().pop().unwrap_or_default();
        scratch.reset(flat, topo.num_cores(), &self.idle_template);
        let SimScratch {
            indegree,
            sockets,
            busy_count,
            ready,
            events,
        } = &mut scratch;

        let mut run = Run {
            sim: self,
            graph: &spec.graph,
            memory,
            report: ExecutionReport {
                workload: spec.name.clone(),
                policy: policy.name(),
                tasks: n,
                tasks_per_socket: vec![0; num_sockets],
                busy_per_socket: vec![0.0; num_sockets],
                // An assign, a start and a finish per task, and a traffic
                // event per access with a single home.
                events: match traced {
                    true => Vec::with_capacity(3 * n + spec.graph.all_accesses().len()),
                    false => Vec::new(),
                },
                ..Default::default()
            },
            busy_count,
            events,
            seq: 0,
        };
        let mut completed = 0usize;
        let mut makespan = 0.0f64;

        // Hands the ready tasks to the policy and queues them where it says.
        let mut assign_ready =
            |ready: &[TaskId], run: &mut Run, sockets: &mut SocketQueues, now| {
                let locator = MemoryLocator::new(topo, &run.memory);
                for &task in ready {
                    let socket = policy.assign(&spec.graph.task(task), &locator);
                    debug_assert!(socket.index() < num_sockets);
                    sockets.push(socket, task);
                    if traced {
                        run.report.events.push(TraceEvent::Assign {
                            task,
                            socket,
                            time: now,
                        });
                    }
                }
            };

        // Assign the initial ready tasks (the graph's sources, in ascending
        // task order — exactly `TaskGraph::sources`, without the Vec).
        ready.extend((0..n).filter(|&t| indegree[t] == 0).map(TaskId));
        assign_ready(ready, &mut run, sockets, 0.0);
        // Dispatch: match idle cores with queued tasks (local first, then
        // steal from the nearest socket).
        sockets.dispatch(
            self.config.steal,
            &self.steal_order,
            |task, core, stolen| run.start_task(task, core, 0.0, stolen),
        );

        while completed < n {
            // Every graph is acyclic, so a task runs until every task has.
            let event = run.events.pop().expect("an unfinished task is running");
            let now = event.time;
            makespan = makespan.max(now);
            completed += 1;

            // Free the core.
            let socket = topo.socket_of(event.core);
            run.busy_count[socket.index()] -= 1;
            sockets.release(socket, event.core);
            if traced {
                run.report.events.push(TraceEvent::Finish {
                    task: event.task,
                    socket,
                    core: event.core,
                    time: now,
                });
            }

            // Release successors.
            ready.clear();
            for &succ in flat.successors(event.task) {
                let remaining = &mut indegree[succ as usize];
                *remaining -= 1;
                if *remaining == 0 {
                    ready.push(TaskId(succ as usize));
                }
            }
            if !ready.is_empty() {
                assign_ready(ready, &mut run, sockets, now);
            }
            sockets.dispatch(
                self.config.steal,
                &self.steal_order,
                |task, core, stolen| run.start_task(task, core, now, stolen),
            );
        }

        let mut report = run.report;
        report.makespan_ns = makespan;
        self.scratch_pool().push(scratch);
        report
    }

    /// The pool of idle run states. A run that panicked never returned its
    /// state, so a poisoned pool is still whole.
    fn scratch_pool(&self) -> std::sync::MutexGuard<'_, Vec<SimScratch>> {
        self.scratch
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl Executor for Simulator {
    fn backend_name(&self) -> &'static str {
        "simulator"
    }

    fn config(&self) -> &ExecutionConfig {
        &self.config
    }

    fn execute(&self, spec: &TaskGraphSpec, policy: &mut dyn SchedulingPolicy) -> ExecutionReport {
        self.run(spec, policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StealMode;
    use numadag_core::{DfifoPolicy, LasPolicy, RgpPolicy};
    use numadag_numa::CostModel;
    use numadag_tdg::{TaskGraphSpec, TaskSpec, TdgBuilder};

    /// `blocks` independent chains of `iters` tasks, each chain repeatedly
    /// rewriting its own 1 MiB block. The archetype of an iterative blocked
    /// kernel.
    fn chains(blocks: usize, iters: usize) -> TaskGraphSpec {
        let mut b = TdgBuilder::new();
        let block_bytes = 1 << 20;
        let regions: Vec<_> = (0..blocks).map(|_| b.region(block_bytes)).collect();
        for _ in 0..iters {
            for &r in &regions {
                b.submit(
                    TaskSpec::new("update")
                        .work(1000.0)
                        .reads_writes(r, block_bytes),
                );
            }
        }
        TaskGraphSpec::new("chains", b.finish())
    }

    fn sim() -> Simulator {
        Simulator::new(ExecutionConfig::bullion_s16())
    }

    #[test]
    fn all_tasks_complete_and_accounting_is_consistent() {
        let spec = chains(16, 4);
        let mut policy = LasPolicy::new(3);
        let report = sim().run(&spec, &mut policy);
        assert_eq!(report.tasks, 64);
        assert_eq!(report.tasks_per_socket.iter().sum::<usize>(), 64);
        assert!(report.makespan_ns > 0.0);
        // Conservation: every byte accessed is either local or remote.
        assert_eq!(
            report.traffic.total_bytes(),
            report.traffic.local_bytes + report.traffic.remote_bytes
        );
        // Each task touches one 1 MiB block.
        assert_eq!(report.traffic.total_bytes(), 64 * (1 << 20));
        // Deferred allocation placed every block exactly once.
        assert_eq!(report.deferred_bytes, 16 * (1 << 20));
    }

    #[test]
    fn makespan_at_least_critical_path() {
        let spec = chains(4, 8);
        let cfg = ExecutionConfig::bullion_s16().with_cost_model(CostModel::flat());
        let simulator = Simulator::new(cfg);
        let mut policy = DfifoPolicy::new();
        let report = simulator.run(&spec, &mut policy);
        let cp = spec.graph.critical_path_work(); // work units == ns here
        assert!(
            report.makespan_ns >= cp - 1e-6,
            "makespan {} below critical path {}",
            report.makespan_ns,
            cp
        );
    }

    #[test]
    fn locality_policy_beats_round_robin_on_numa() {
        let spec = chains(25, 8);
        let simulator = sim();
        let mut las = LasPolicy::new(7);
        let mut dfifo = DfifoPolicy::new();
        let las_report = simulator.run(&spec, &mut las);
        let dfifo_report = simulator.run(&spec, &mut dfifo);
        // LAS keeps each chain on the socket that first touched its block;
        // DFIFO moves it around every iteration.
        assert!(
            las_report.local_fraction() > dfifo_report.local_fraction(),
            "LAS local {} <= DFIFO local {}",
            las_report.local_fraction(),
            dfifo_report.local_fraction()
        );
        assert!(
            las_report.makespan_ns < dfifo_report.makespan_ns,
            "LAS {} not faster than DFIFO {}",
            las_report.makespan_ns,
            dfifo_report.makespan_ns
        );
    }

    #[test]
    fn flat_cost_model_equalises_policies() {
        // Without NUMA penalties and with plenty of parallel slack the
        // policies should produce very similar makespans.
        let spec = chains(32, 4);
        let cfg = ExecutionConfig::bullion_s16().with_cost_model(CostModel::flat());
        let simulator = Simulator::new(cfg);
        let mut las = LasPolicy::new(1);
        let mut dfifo = DfifoPolicy::new();
        let a = simulator.run(&spec, &mut las).makespan_ns;
        let b = simulator.run(&spec, &mut dfifo).makespan_ns;
        let ratio = a.max(b) / a.min(b);
        assert!(
            ratio < 1.10,
            "flat model should equalise policies, ratio {ratio}"
        );
    }

    #[test]
    fn simulation_is_deterministic() {
        let spec = chains(8, 4);
        let simulator = sim();
        let r1 = simulator.run(&spec, &mut LasPolicy::new(5));
        let r2 = simulator.run(&spec, &mut LasPolicy::new(5));
        assert_eq!(r1.makespan_ns, r2.makespan_ns);
        assert_eq!(r1.traffic, r2.traffic);
        assert_eq!(r1.tasks_per_socket, r2.tasks_per_socket);
    }

    #[test]
    fn events_hold_one_assign_start_finish_per_task() {
        use numadag_trace::Trace;
        let spec = chains(4, 2);
        let cfg = ExecutionConfig::bullion_s16().with_events();
        let mut report = Simulator::new(cfg).run(&spec, &mut LasPolicy::new(3));
        let trace = Trace {
            workload: spec.name.to_string(),
            policy: report.policy.to_string(),
            backend: "simulator".to_string(),
            scale: "custom".to_string(),
            repetition: 0,
            tasks: spec.num_tasks(),
            num_sockets: 8,
            makespan_ns: report.makespan_ns,
            events: std::mem::take(&mut report.events),
        };
        trace.validate().expect("simulator trace must be complete");
        // Every task has an interval, on a socket of the machine.
        for interval in trace.task_intervals() {
            let interval = interval.expect("every task ran");
            assert!(interval.end >= interval.start);
            assert!(interval.socket.index() < 8);
        }
        // The traffic ledger and the trace agree byte for byte.
        let matrix = trace.traffic_matrix();
        assert_eq!(matrix.total_bytes(), report.traffic.total_bytes());
        assert_eq!(matrix.local_bytes(), report.traffic.local_bytes);
        // Deferred placements in the trace match the report.
        let deferred: u64 = trace
            .events_tagged("deferred_alloc")
            .map(|e| match e {
                numadag_trace::TraceEvent::DeferredAlloc { bytes, .. } => *bytes,
                _ => unreachable!(),
            })
            .sum();
        assert_eq!(deferred, report.deferred_bytes);
    }

    #[test]
    fn tracing_does_not_change_the_simulation() {
        let spec = chains(8, 4);
        let plain = sim().run(&spec, &mut LasPolicy::new(5));
        assert_eq!(plain.events.capacity(), 0, "no events were asked for");
        let traced_cfg = ExecutionConfig::bullion_s16().with_events();
        let traced = Simulator::new(traced_cfg).run(&spec, &mut LasPolicy::new(5));
        assert!(!traced.events.is_empty());
        assert_eq!(plain.makespan_ns, traced.makespan_ns);
        assert_eq!(plain.traffic, traced.traffic);
        assert_eq!(plain.tasks_per_socket, traced.tasks_per_socket);
    }

    #[test]
    fn no_stealing_mode_keeps_tasks_on_assigned_socket() {
        let spec = chains(4, 4);
        let cfg = ExecutionConfig::bullion_s16().with_steal(StealMode::NoStealing);
        let simulator = Simulator::new(cfg);
        let report = simulator.run(&spec, &mut LasPolicy::new(2));
        assert_eq!(report.stolen_tasks, 0);
    }

    #[test]
    #[should_panic(expected = "the simulator supports at most 64 sockets")]
    fn a_65_socket_topology_is_refused() {
        use numadag_numa::Topology;
        Simulator::new(ExecutionConfig::new(Topology::symmetric(65, 1)));
    }

    #[test]
    fn a_machine_over_the_core_bound_is_refused_before_it_allocates() {
        use numadag_numa::Topology;
        let build = |topology| Simulator::try_new(ExecutionConfig::new(topology)).err();
        assert_eq!(build(Topology::symmetric(64, 1024)), None);
        assert_eq!(
            build(Topology::symmetric(64, 1025)).unwrap(),
            "the simulator supports at most 65536 cores, topology \"64-socket x 1025 cores\" has 64 x 1025"
        );
        for cores in [(1 << 16) + 1, 1 << 40, usize::MAX] {
            let refused = build(Topology::uma(cores)).unwrap();
            assert!(refused.starts_with("the simulator supports at most 65536 cores"));
        }
    }

    #[test]
    fn a_64_socket_machine_uses_every_socket() {
        use numadag_numa::Topology;
        let spec = chains(128, 2);
        let simulator = Simulator::new(ExecutionConfig::new(Topology::symmetric(64, 1)));
        let report = simulator.run(&spec, &mut DfifoPolicy::new());
        assert_eq!(report.tasks_per_socket.iter().sum::<usize>(), 256);
        assert!(report.tasks_per_socket.iter().all(|&t| t > 0));
    }

    #[test]
    fn rgp_prepare_is_invoked_by_run() {
        let spec = chains(16, 4);
        let mut rgp = RgpPolicy::rgp_las();
        let report = sim().run(&spec, &mut rgp);
        assert_eq!(report.policy, "RGP+LAS");
        assert!(rgp.window_size_used() > 0);
        // Independent chains: the partitioner should achieve a zero-byte cut.
        assert_eq!(rgp.window_edge_cut(), 0);
        // And an all-local execution (beyond unavoidable steals).
        assert!(report.local_fraction() > 0.9);
    }

    #[test]
    fn single_task_workload() {
        let mut b = TdgBuilder::new();
        let r = b.region(4096);
        b.submit(TaskSpec::new("only").work(10.0).writes(r, 4096));
        let spec = TaskGraphSpec::new("single", b.finish());
        let report = sim().run(&spec, &mut LasPolicy::new(0));
        assert_eq!(report.tasks, 1);
        assert!(report.makespan_ns > 0.0);
        assert_eq!(report.traffic.remote_bytes, 0);
    }

    /// A policy whose first assignment waits (up to ten seconds) until a
    /// second policy sharing `arrived` has reached its own first one.
    struct Rendezvous {
        arrived: std::sync::Arc<(Mutex<usize>, std::sync::Condvar)>,
        first: bool,
        met: bool,
    }

    impl SchedulingPolicy for Rendezvous {
        fn name(&self) -> &'static str {
            "rendezvous"
        }

        fn assign(
            &mut self,
            _task: &numadag_tdg::TaskDescriptor<'_>,
            _locator: &dyn numadag_core::DataLocator,
        ) -> SocketId {
            if std::mem::take(&mut self.first) {
                let (count, arrival) = &*self.arrived;
                let mut count = count.lock().unwrap();
                *count += 1;
                arrival.notify_all();
                let timeout = std::time::Duration::from_secs(10);
                let (count, _) = arrival
                    .wait_timeout_while(count, timeout, |count| *count < 2)
                    .unwrap();
                self.met = *count == 2;
            }
            SocketId(0)
        }
    }

    #[test]
    fn runs_sharing_one_simulator_overlap() {
        // Each run's policy waits inside the event loop for the other run
        // to reach its event loop too, which it can only do if the first
        // run's working state does not lock the simulator.
        let (simulator, spec) = (&sim(), &chains(4, 2));
        let arrived = std::sync::Arc::new((Mutex::new(0), std::sync::Condvar::new()));
        let met: Vec<bool> = std::thread::scope(|scope| {
            let runs: Vec<_> = (0..2)
                .map(|_| {
                    let arrived = std::sync::Arc::clone(&arrived);
                    scope.spawn(move || {
                        let mut policy = Rendezvous {
                            arrived,
                            first: true,
                            met: false,
                        };
                        simulator.run(spec, &mut policy);
                        policy.met
                    })
                })
                .collect();
            runs.into_iter().map(|run| run.join().unwrap()).collect()
        });
        assert_eq!(met, [true, true], "one run waited for the other to finish");
    }
}
