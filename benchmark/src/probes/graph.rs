//! numadag-graph: the partitioner on the windows the sweep hands it, timed
//! directly, plus the two quality counts a pure speed-up must not move.

use numadag::graph::{
    partition_anchored_ctx, partition_ctx, AffinityCosts, Partition, PartitionConfig, PartitionCtx,
    PartitionTuning,
};
use numadag::tdg::WindowGraph;

use super::kernels::SOCKETS;
use super::median_ms;
use crate::metrics::Metrics;

const REPS: usize = 5;
/// The seed `RgpConfig::default()` hands the partitioner.
const RGP_SEED: u64 = 0x56F1;

fn config(window_index: usize) -> PartitionConfig {
    // One seed per window, as RGP derives them.
    PartitionTuning::default().config_for(SOCKETS, RGP_SEED.wrapping_add(window_index as u64))
}

/// `windows1024`: the first two default-size windows of every Full spec;
/// `windows256`: the first four 256-task windows.
pub fn run(m: &mut Metrics, windows1024: &[Vec<WindowGraph>], windows256: &[Vec<WindowGraph>]) {
    let mut ctx = PartitionCtx::default();

    // One-shot: window 0 of every application, what RGP+LAS partitions.
    let firsts: Vec<&WindowGraph> = windows1024.iter().filter_map(|w| w.first()).collect();
    let mut p0: Vec<Partition> = Vec::new();
    m.set(
        "graph.partition_oneshot_ms",
        median_ms(REPS, || {
            p0 = firsts
                .iter()
                .map(|wg| partition_ctx(&wg.graph, &config(0), &mut ctx))
                .collect();
        }),
    );
    // Refinement's share is oneshot - norefine.
    m.set(
        "graph.partition_norefine_ms",
        median_ms(REPS, || {
            for wg in &firsts {
                let cfg = config(0).with_refine_passes(0);
                std::hint::black_box(partition_ctx(&wg.graph, &cfg, &mut ctx));
            }
        }),
    );

    // Anchored: window 1 tied to window 0's placement through the
    // cross-window edges, the second call of a `prop=repart` cell.
    let anchored_inputs: Vec<(&WindowGraph, AffinityCosts)> = windows1024
        .iter()
        .zip(&p0)
        .filter_map(|(windows, placed)| {
            let (first, second) = (windows.first()?, windows.get(1)?);
            let base = first.tasks[0].index();
            let mut affinity = AffinityCosts::zeros(second.graph.num_vertices(), SOCKETS);
            for ce in &second.cross_edges {
                let v = (ce.predecessor.index() - base) as u32;
                affinity.add(ce.vertex, placed.part_of(v), ce.bytes);
            }
            Some((second, affinity))
        })
        .collect();
    let mut p1: Vec<Partition> = Vec::new();
    m.set(
        "graph.partition_anchored_ms",
        median_ms(REPS, || {
            p1 = anchored_inputs
                .iter()
                .map(|(wg, aff)| partition_anchored_ctx(&wg.graph, &config(1), aff, &mut ctx))
                .collect();
        }),
    );

    let smalls: Vec<&WindowGraph> = windows256.iter().flatten().collect();
    let mut p_small: Vec<Partition> = Vec::new();
    m.set(
        "graph.partition_small_windows_ms",
        median_ms(REPS, || {
            p_small = smalls
                .iter()
                .enumerate()
                .map(|(i, wg)| partition_ctx(&wg.graph, &config(i % 4), &mut ctx))
                .collect();
        }),
    );

    let all = firsts
        .iter()
        .zip(&p0)
        .chain(anchored_inputs.iter().map(|(wg, _)| wg).zip(&p1))
        .chain(smalls.iter().zip(&p_small));
    let (mut cut, mut worst) = (0i64, 0.0f64);
    for (wg, p) in all {
        cut += p.edge_cut(&wg.graph);
        worst = worst.max(p.imbalance(&wg.graph));
    }
    m.set("graph.edge_cut_total", cut as f64);
    m.set("graph.max_imbalance_ppm", (worst * 1e6).round());
}
