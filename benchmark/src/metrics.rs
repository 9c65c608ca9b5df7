//! The metric catalogue: every name the benchmark can print, with its unit.
//! `BENCHMARK.json` lists the same names (a test below holds the two
//! together), and a run refuses to finish with a catalogue entry unset.

use serde::Value;

/// (name, unit). Every untraced run reports exactly these.
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("correct_ops_pct", "%"),
    ("sim_geomean_speedup", "x"),
];

/// (name, unit). Every traced run reports exactly these.
pub const PER_LAYER: &[(&str, &str)] = &[
    // kernels
    ("kernels.spec_build_ms", "ms"),
    ("kernels.spec_build_max_ms", "ms"),
    ("kernels.tasks_total", "count"),
    ("kernels.spec_cache_hit_us", "us"),
    // tdg
    ("tdg.window_to_csr_ms", "ms"),
    ("tdg.csr_vertices", "count"),
    ("tdg.csr_edges", "count"),
    ("tdg.fingerprint_us", "us"),
    // graph
    ("graph.partition_oneshot_ms", "ms"),
    ("graph.partition_anchored_ms", "ms"),
    ("graph.partition_small_windows_ms", "ms"),
    ("graph.partition_norefine_ms", "ms"),
    ("graph.in_sweep_ms", "ms"),
    ("graph.partition_calls", "count"),
    ("graph.edge_cut_total", "count"),
    ("graph.max_imbalance_ppm", "count"),
    // core
    ("core.make_policy_ms", "ms"),
    ("core.prepare_ms", "ms"),
    ("core.assign_ms", "ms"),
    ("core.assign_calls", "count"),
    ("core.assign_ns_per_call", "ns"),
    ("core.policy_ms.dfifo", "ms"),
    ("core.policy_ms.las", "ms"),
    ("core.policy_ms.ep", "ms"),
    ("core.policy_ms.rgp-las", "ms"),
    ("core.policy_ms.rgp-las.repart", "ms"),
    // numa (simulated, exact)
    ("numa.sim_bytes_total", "count"),
    ("numa.remote_bytes_total", "count"),
    // runtime
    ("runtime.plan_ms", "ms"),
    ("runtime.event_loop_ms", "ms"),
    ("runtime.event_loop_ns_per_task", "ns"),
    ("runtime.assemble_ms", "ms"),
    ("runtime.report_encode_ms", "ms"),
    ("runtime.report_bytes", "count"),
    ("runtime.driver_overhead_ms", "ms"),
    ("runtime.cell_ms.dfifo", "ms"),
    ("runtime.cell_ms.las", "ms"),
    ("runtime.cell_ms.ep", "ms"),
    ("runtime.cell_ms.rgp-las", "ms"),
    ("runtime.cell_ms.rgp-las.repart", "ms"),
    ("runtime.frame_roundtrip_us", "us"),
    ("runtime.stage_timing_overhead_pct", "%"),
    // trace
    ("trace.collect_overhead_pct", "%"),
    ("trace.to_json_ms", "ms"),
    ("trace.from_json_ms", "ms"),
    ("trace.validate_ms", "ms"),
    ("trace.events_total", "count"),
    // serve
    ("serve.boot_ms", "ms"),
    ("serve.stats_rtt_us", "us"),
    ("serve.hot_rtt_us", "us"),
    ("serve.hot_client_overhead_us", "us"),
    ("serve.hot_response_bytes", "count"),
    ("serve.step_ms_p50.novel", "ms"),
    ("serve.step_ms_p50.widen", "ms"),
    ("serve.step_ms_p50.hot", "ms"),
    ("serve.step_ms_p50.stats", "ms"),
    ("serve.novel_overhead_ms", "ms"),
    ("serve.report_cache_hit_ratio", "ratio"),
    ("serve.cell_cache_hit_ratio", "ratio"),
    ("serve.report_cache_evictions", "count"),
    ("serve.cell_cache_evictions", "count"),
    ("serve.executed_cells", "count"),
    ("serve.hydrated_cells", "count"),
    ("serve.jobs_coalesced", "count"),
    ("serve.jobs_rejected", "count"),
    ("serve.jobs_failed", "count"),
    ("serve.requests_malformed", "count"),
    // proc
    ("proc.spawn_ms", "ms"),
    ("proc.first_sweep_ms", "ms"),
    ("proc.steady_sweep_ms", "ms"),
    ("proc.ship_ms", "ms"),
    ("proc.overhead_ms_per_cell", "ms"),
    ("proc.cell_rtt_tiny_ms", "ms"),
    ("proc.drop_ms", "ms"),
    ("proc.spec_transfers", "count"),
    ("proc.config_broadcasts", "count"),
    ("proc.cells_dispatched", "count"),
    ("proc.redispatches", "count"),
    ("proc.barriers", "count"),
    ("proc.workers_alive", "count"),
    ("proc.worker_cpu_ms_per_op", "ms"),
    ("proc.coordinator_cpu_ms_per_op", "ms"),
    ("proc.worker_peak_rss_mb", "MB"),
    // run (diagnostic)
    ("tail.op_ms_p90", "ms"),
    ("tail.op_ms_p99", "ms"),
    ("tail.op_ms_max", "ms"),
    ("run.samples", "count"),
    ("run.cpu_ms_per_op", "ms"),
    ("run.sim_tasks_per_s", "1/s"),
    ("run.span_overhead_pct", "%"),
    ("run.unattributed_pct", "%"),
    ("setup.first_s", "s"),
    ("sim.paper_geomean_error_pct", "%"),
];

/// One metric as the result line carries it: `{"value": v, "unit": u}`.
pub fn entry(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".to_string(), Value::Number(value)),
        ("unit".to_string(), Value::String(unit.to_string())),
    ])
}

/// Metric values by name, in insertion order.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Sets `name` (overwriting an earlier value).
    ///
    /// # Panics
    /// Panics on a non-finite value: JSON cannot carry it and a gate must
    /// never silently read `null`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is {value}");
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The `metrics` object of the result line: exactly the catalogue's
    /// entries, in catalogue order, as `{"value": v, "unit": u}`.
    ///
    /// # Panics
    /// Panics if a catalogue entry was never set or a value outside the
    /// catalogue was: both are bugs in the benchmark, not results.
    pub fn to_value(&self, catalogue: &[(&str, &str)]) -> Value {
        for (name, _) in &self.values {
            assert!(
                catalogue.iter().any(|(n, _)| n == name),
                "metric {name} is not in the catalogue"
            );
        }
        Value::Object(
            catalogue
                .iter()
                .map(|(name, unit)| {
                    let value = self
                        .get(name)
                        .unwrap_or_else(|| panic!("metric {name} was never measured"));
                    (name.to_string(), entry(value, unit))
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &Value) -> Vec<(String, String)> {
        section
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").unwrap().as_str().unwrap().to_string(),
                    m.get("unit").unwrap().as_str().unwrap().to_string(),
                )
            })
            .collect()
    }

    fn catalogue(entries: &[(&str, &str)]) -> Vec<(String, String)> {
        entries
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let root = serde_json::from_str(&text).unwrap();
        assert_eq!(
            declared(root.get("end_to_end").unwrap()),
            catalogue(END_TO_END)
        );
        assert_eq!(
            declared(root.get("per_layer").unwrap()),
            catalogue(PER_LAYER)
        );
        let workloads: Vec<&str> = root
            .get("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
        assert_eq!(
            root.get("run_seconds").unwrap().as_u64(),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} is used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn the_result_object_is_the_catalogue_in_order() {
        let mut m = Metrics::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate().rev() {
            m.set(name, i as f64 + 0.5);
        }
        let value = m.to_value(END_TO_END);
        let keys: Vec<&str> = value
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let names: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(keys, names);
        assert_eq!(
            serde_json::to_string(value.get("setup_s").unwrap()).unwrap(),
            "{\"value\":2.5,\"unit\":\"s\"}"
        );
    }
}
