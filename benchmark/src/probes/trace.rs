//! numadag-trace: what collecting an execution trace adds to a sweep, and
//! what serialising, parsing and validating the collected traces costs. No
//! workload traces (all four run with the `NullSink`), so none of this sits
//! on a gated path; it is here so a tracing change can be measured at all.

use std::sync::Arc;

use numadag::core::PolicyKind;
use numadag::kernels::{ProblemScale, SpecCache};
use numadag::trace::{Trace, TraceCollector};

use super::{overhead_pct, time_ms};
use crate::metrics::Metrics;
use crate::workloads::sweep;

pub fn run(m: &mut Metrics, policies: &[PolicyKind], seed: u64) {
    let cache = Arc::new(SpecCache::new());
    let small = |collector: Option<Arc<TraceCollector>>| {
        let experiment = sweep(policies, ProblemScale::Small, seed, Arc::clone(&cache));
        match collector {
            Some(c) => experiment.trace(c).run(),
            None => experiment.run(),
        }
    };
    std::hint::black_box(small(None)); // builds the Small specs
    let collector = Arc::new(TraceCollector::new());
    m.set(
        "trace.collect_overhead_pct",
        overhead_pct(
            5,
            || {
                std::hint::black_box(small(None));
            },
            || {
                collector.take();
                std::hint::black_box(small(Some(Arc::clone(&collector))));
            },
        ),
    );

    // One trace per application: the LAS cells of the last traced sweep.
    let traces: Vec<Trace> = collector
        .take()
        .into_iter()
        .filter(|t| t.policy == "LAS")
        .collect();
    m.set(
        "trace.events_total",
        traces.iter().map(|t| t.events.len()).sum::<usize>() as f64,
    );
    let (texts, to_json_ms) = time_ms(|| {
        traces
            .iter()
            .map(Trace::to_json_string)
            .collect::<Vec<String>>()
    });
    m.set("trace.to_json_ms", to_json_ms);
    let (parsed, from_json_ms) = time_ms(|| {
        texts
            .iter()
            .map(|text| Trace::from_json_str(text).expect("a trace just written parses"))
            .collect::<Vec<Trace>>()
    });
    m.set("trace.from_json_ms", from_json_ms);
    let ((), validate_ms) = time_ms(|| {
        for trace in &parsed {
            trace.validate().expect("a simulator trace is complete");
        }
    });
    m.set("trace.validate_ms", validate_ms);
}
