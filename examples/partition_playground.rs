//! The graph partitioner on its own: partition synthetic graphs and the
//! first window of a real task graph, and compare the multilevel scheme with
//! the naive BFS baseline.
//!
//! Run with:
//! ```text
//! cargo run --example partition_playground --release
//! ```

use numadag::graph::{generators, metrics, partition, PartitionConfig, PartitionScheme};
use numadag::prelude::*;
use numadag::tdg::{window_to_csr, TaskWindow};

fn report(name: &str, graph: &numadag::graph::CsrGraph, k: usize) {
    let ml = partition(graph, &PartitionConfig::new(k));
    let bfs = partition(
        graph,
        &PartitionConfig::new(k).with_scheme(PartitionScheme::BfsGrowing),
    );
    let qm = metrics::quality(graph, &ml);
    let qb = metrics::quality(graph, &bfs);
    println!(
        "{name:<28} |V|={:>6} |E|={:>7}  multilevel: cut={:>9} imb={:.3}   bfs: cut={:>9} imb={:.3}",
        graph.num_vertices(),
        graph.num_edges(),
        qm.edge_cut,
        qm.imbalance,
        qb.edge_cut,
        qb.imbalance
    );
}

fn main() {
    let k = 8;
    println!("Partitioning into {k} parts (one per socket of the bullion S16):\n");

    report("32x32 grid", &generators::grid_2d(32, 32, 4), k);
    report("64x64 grid", &generators::grid_2d(64, 64, 4), k);
    report(
        "layered DAG skeleton",
        &generators::layered_dag_skeleton(40, 32, 2, 1 << 14),
        k,
    );
    report(
        "random graph (d=8)",
        &generators::random_graph(2000, 8, 64, 3),
        k,
    );
    report("two heavy clusters", &generators::two_clusters(64, 100), 2);

    println!("\nFirst window (1024 tasks) of real task graphs:\n");
    for app in [
        Application::Jacobi,
        Application::QrFactorization,
        Application::ConjugateGradient,
    ] {
        let spec = app.build(ProblemScale::Small, k);
        let window = TaskWindow::initial(&spec.graph, WindowConfig::new(1024));
        let wg = window_to_csr(&spec.graph, &window);
        report(app.label(), &wg.graph, k);
    }

    println!(
        "\nThe multilevel scheme consistently cuts fewer (byte-weighted) edges at the same\n\
         balance, which is exactly why RGP uses it instead of a simple heuristic."
    );

    // The three schemes (`scheme=ml|rb|bfs` in a policy label) side by side:
    // flat recursive bisection keeps the FM refinement but not the coarsening.
    println!("\nThe three schemes (64x64 grid, k = {k}):\n");
    let g = generators::grid_2d(64, 64, 4);
    for scheme in PartitionScheme::all() {
        let p = partition(&g, &PartitionConfig::new(k).with_scheme(scheme));
        let q = metrics::quality(&g, &p);
        let name = scheme.token();
        println!("  {name:<4} cut={:>7} imb={:.3}", q.edge_cut, q.imbalance);
    }
}
