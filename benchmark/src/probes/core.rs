//! numadag-core: the scheduling policies. A benchmark-side decorator times
//! `prepare` and `assign` of whatever policy a cell runs; `make_policy` is
//! timed directly.

use std::sync::Arc;
use std::time::Instant;

use numadag::core::{make_policy, DataLocator, PolicyKind, SchedulingPolicy};
use numadag::numa::SocketId;
use numadag::tdg::{TaskDescriptor, TaskGraph, TaskGraphSpec};

use super::median_ms;
use crate::metrics::Metrics;

/// Every n-th `assign` call is clocked. A Full sweep makes tens
/// of thousands of calls of a few hundred nanoseconds each; clocking all of them
/// would cost more than the calls.
const ASSIGN_SAMPLE_EVERY: u64 = 32;

/// What the decorator saw over one cell.
#[derive(Clone, Copy, Debug, Default)]
pub struct PolicyTiming {
    pub prepare_ns: f64,
    /// Estimated: sampled light calls scaled by the stride, plus the
    /// partitioner time spent inside `assign` (exact, from the policy's own
    /// accounting), which a sample would either miss or multiply.
    pub assign_ns: f64,
    pub assign_calls: u64,
    /// Partitioner wall inside `prepare` / inside `assign`, and its calls.
    pub partition_in_prepare_ns: f64,
    pub partition_in_assign_ns: f64,
    pub partition_windows: usize,
}

/// Wraps the policy of one cell; the executor sees the same decisions.
pub struct TimedPolicy<'a> {
    inner: &'a mut dyn SchedulingPolicy,
    timing: PolicyTiming,
    sampled_light_ns: f64,
    sampled_calls: u64,
}

impl<'a> TimedPolicy<'a> {
    pub fn new(inner: &'a mut dyn SchedulingPolicy) -> Self {
        TimedPolicy {
            inner,
            timing: PolicyTiming::default(),
            sampled_light_ns: 0.0,
            sampled_calls: 0,
        }
    }

    fn partition_wall_ns(&self) -> f64 {
        self.inner.partition_stats().map_or(0.0, |s| s.wall_ns)
    }

    pub fn finish(mut self) -> PolicyTiming {
        let stats = self.inner.partition_stats().unwrap_or_default();
        self.timing.partition_windows = stats.windows;
        self.timing.partition_in_assign_ns =
            (stats.wall_ns - self.timing.partition_in_prepare_ns).max(0.0);
        let light_per_call = if self.sampled_calls > 0 {
            self.sampled_light_ns / self.sampled_calls as f64
        } else {
            0.0
        };
        self.timing.assign_ns =
            light_per_call * self.timing.assign_calls as f64 + self.timing.partition_in_assign_ns;
        self.timing
    }
}

impl SchedulingPolicy for TimedPolicy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn prepare(&mut self, graph: &Arc<TaskGraph>, locator: &dyn DataLocator) {
        let started = Instant::now();
        self.inner.prepare(graph, locator);
        self.timing.prepare_ns = started.elapsed().as_nanos() as f64;
        self.timing.partition_in_prepare_ns = self.partition_wall_ns();
    }

    fn assign(&mut self, task: &TaskDescriptor, locator: &dyn DataLocator) -> SocketId {
        let call = self.timing.assign_calls;
        self.timing.assign_calls += 1;
        if !call.is_multiple_of(ASSIGN_SAMPLE_EVERY) {
            return self.inner.assign(task, locator);
        }
        let partition_before = self.partition_wall_ns();
        let started = Instant::now();
        let socket = self.inner.assign(task, locator);
        let wall = started.elapsed().as_nanos() as f64;
        let partition = self.partition_wall_ns() - partition_before;
        self.sampled_light_ns += (wall - partition).max(0.0);
        self.sampled_calls += 1;
        socket
    }
}

/// `core.make_policy_ms`: building the policy of every cell of one sweep.
pub fn run(m: &mut Metrics, specs: &[Arc<TaskGraphSpec>], policies: &[PolicyKind], seed: u64) {
    m.set(
        "core.make_policy_ms",
        median_ms(5, || {
            for spec in specs {
                for &kind in policies.iter().chain([&PolicyKind::Las]) {
                    std::hint::black_box(make_policy(kind, spec, seed).is_some());
                }
            }
        }),
    );
}

/// The metric-name suffix of a canonical policy label.
pub fn policy_key(label: &str) -> &'static str {
    match label {
        "DFIFO" => "dfifo",
        "LAS" => "las",
        "EP" => "ep",
        "RGP+LAS" => "rgp-las",
        "RGP+LAS:prop=repart" => "rgp-las.repart",
        other => panic!("no metric key for policy {other:?}"),
    }
}

/// Every policy key, in catalogue order.
pub const POLICY_KEYS: [&str; 5] = ["dfifo", "las", "ep", "rgp-las", "rgp-las.repart"];
