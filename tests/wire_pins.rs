//! Byte pins of JSON documents no wire golden covers: the trace files of
//! the four Figure-1 policies on one Tiny application, a Tiny report whose
//! timing stays out of its bytes, and the timing export on its own. A
//! serializer rewrite that keeps the format keeps every row; each trace
//! also reads back as itself.

use std::sync::Arc;

use numadag::prelude::*;
use numadag::runtime::SweepTiming;

/// FNV-1a, 64-bit, of `text`'s bytes.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(application, policy, events, bytes, FNV-1a of Trace::to_json_string())`
/// of the Tiny Jacobi traces and, since no Tiny trace reaches 1,024 events,
/// the Small NStream ones; seed 0xF1617E.
const TRACE_PINS: [(&str, &str, usize, usize, u64); 8] = [
    ("Jacobi", "DFIFO", 480, 69_621, 0xf909_8982_8726_a42d),
    ("Jacobi", "EP", 480, 71_792, 0xb1af_14e0_a23a_3c51),
    ("Jacobi", "LAS", 480, 69_453, 0x1679_c842_b59f_371f),
    ("Jacobi", "RGP+LAS", 480, 69_575, 0x1719_1118_29aa_b171),
    ("NStream", "DFIFO", 1800, 266_730, 0x5ec8_9ded_4b82_a576),
    ("NStream", "EP", 1800, 253_912, 0x8dde_6891_7582_7ff6),
    ("NStream", "LAS", 1800, 264_425, 0xa7e2_f450_3f63_20cd),
    ("NStream", "RGP+LAS", 1800, 253_917, 0x0e36_f594_e60d_8f1b),
];

#[test]
fn the_traces_of_the_four_policies_keep_their_bytes() {
    let collector = Arc::new(TraceCollector::new());
    for (app, scale) in [
        (Application::Jacobi, ProblemScale::Tiny),
        (Application::NStream, ProblemScale::Small),
    ] {
        Experiment::new()
            .apps([app])
            .scale(scale)
            .policies([PolicyKind::Dfifo, PolicyKind::RGP_LAS, PolicyKind::Ep])
            .seed(0xF1617E)
            .trace(Arc::clone(&collector))
            .run();
    }
    let mut traces = collector.take();
    traces.sort_by(|a, b| (&a.workload, &a.policy).cmp(&(&b.workload, &b.policy)));
    let got: Vec<(String, String, usize, usize, u64)> = traces
        .iter()
        .map(|trace| {
            let text = trace.to_json_string();
            assert_eq!(Trace::from_json_str(&text).as_ref(), Ok(trace));
            let (workload, policy) = (trace.workload.clone(), trace.policy.clone());
            (workload, policy, trace.events.len(), text.len(), fnv(&text))
        })
        .collect();
    let want: Vec<(String, String, usize, usize, u64)> = TRACE_PINS
        .iter()
        .map(|&(app, policy, events, bytes, hash)| {
            (app.to_string(), policy.to_string(), events, bytes, hash)
        })
        .collect();
    assert_eq!(got, want);
    assert!(got.iter().any(|&(_, _, events, _, _)| events > 1024));
}

/// The cells of a Tiny `figure1` report: eight applications, four policies.
const TINY_CELLS: usize = 32;

#[test]
fn a_tiny_report_keeps_its_bytes_whatever_its_timing() {
    const TINY: &str = include_str!("../BENCH_figure1_tiny.json");
    let mut sweep = SweepSpec::default();
    sweep.set_flag("--scale", Some("tiny")).expect("a scale");
    let mut report = sweep
        .resolve()
        .expect("the sweep resolves")
        .experiment(Topology::bullion_s16(), Arc::new(SpecCache::new()))
        .plan()
        .execute(1);
    assert_eq!(report.cells.len(), TINY_CELLS);
    report.timing = SweepTiming {
        jobs: 3,
        total_wall_ns: 1.5e9,
        build_wall_ns: 2.5e8,
        run_wall_ns: 1.25e9,
        spec_builds: 8,
        spec_cache_hits: 5,
        cell_wall_ns: vec![7.0; TINY_CELLS],
        cell_partition_windows: vec![2; TINY_CELLS],
        cell_partition_wall_ns: vec![0.5; TINY_CELLS],
    };
    assert_eq!(report.to_json_string(), TINY);
    assert_eq!(
        SweepReport::from_json_str(TINY).map(|r| r.to_json_string()),
        Ok(TINY.to_string())
    );
}

/// `figure1 --json-timing`'s format: the accounting of a Tiny sweep with
/// every clock and counter zeroed, one zero per cell in each column.
#[test]
fn the_timing_export_of_a_zeroed_tiny_sweep_keeps_its_bytes() {
    let timing = SweepTiming {
        cell_wall_ns: vec![0.0; TINY_CELLS],
        cell_partition_windows: vec![0; TINY_CELLS],
        cell_partition_wall_ns: vec![0.0; TINY_CELLS],
        ..SweepTiming::default()
    };
    let zeros = format!("[\n{}\n  ]", vec!["    0"; TINY_CELLS].join(",\n"));
    let want = format!(
        "{{\n  \"jobs\": 0,\n  \"total_wall_ns\": 0,\n  \"build_wall_ns\": 0,\n  \
         \"run_wall_ns\": 0,\n  \"spec_builds\": 0,\n  \"spec_cache_hits\": 0,\n  \
         \"cell_wall_ns\": {zeros},\n  \"cell_partition_windows\": {zeros},\n  \
         \"cell_partition_wall_ns\": {zeros}\n}}"
    );
    assert_eq!(serde_json::to_string_pretty(&timing).unwrap(), want);
}
