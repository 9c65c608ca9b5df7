//! numadag-tdg: symmetrising task windows into the partitioner's CSR graphs
//! (what `prop=repart` does for every window of every cell), and the content
//! fingerprint the serve and proc layers key their caches and transfers on.

use std::sync::Arc;

use numadag::tdg::{window_to_csr, TaskGraphSpec, TaskWindow, WindowConfig, WindowGraph};

use super::median_ms;
use crate::metrics::Metrics;

const REPS: usize = 5;

/// The first `per_spec` windows of `size` tasks of every spec, as CSR graphs
/// (the inputs of the graph probe).
pub fn window_graphs(
    specs: &[Arc<TaskGraphSpec>],
    size: usize,
    per_spec: usize,
) -> Vec<Vec<WindowGraph>> {
    specs
        .iter()
        .map(|spec| {
            TaskWindow::split_all(&spec.graph, WindowConfig::new(size))
                .iter()
                .take(per_spec)
                .map(|w| window_to_csr(&spec.graph, w))
                .collect()
        })
        .collect()
}

pub fn run(m: &mut Metrics, specs: &[Arc<TaskGraphSpec>]) {
    // Every window of every spec, at the window size RGP uses by default.
    let windows: Vec<(usize, TaskWindow)> = specs
        .iter()
        .enumerate()
        .flat_map(|(i, spec)| {
            TaskWindow::split_all(&spec.graph, WindowConfig::default())
                .into_iter()
                .map(move |w| (i, w))
        })
        .collect();
    let (mut vertices, mut edges) = (0usize, 0usize);
    for (i, w) in &windows {
        let wg = window_to_csr(&specs[*i].graph, w);
        vertices += wg.graph.num_vertices();
        edges += wg.graph.num_edges();
    }
    m.set("tdg.csr_vertices", vertices as f64);
    m.set("tdg.csr_edges", edges as f64);
    m.set(
        "tdg.window_to_csr_ms",
        median_ms(REPS, || {
            for (i, w) in &windows {
                std::hint::black_box(window_to_csr(&specs[*i].graph, w));
            }
        }),
    );
    m.set(
        "tdg.fingerprint_us",
        1e3 * median_ms(REPS, || {
            for spec in specs {
                std::hint::black_box(spec.fingerprint());
            }
        }),
    );
}
