//! Symmetric matrix inversion (Cholesky → TRTRI → LAUUM) under all four
//! scheduling policies, with a per-socket placement breakdown.
//!
//! This is the densest DAG of the paper's suite and the one where the
//! partitioner has the most structure to exploit. The custom-sized instance
//! rides the `Experiment` API as a custom workload.
//!
//! Run with:
//! ```text
//! cargo run --example cholesky_numa --release
//! ```

use numadag::kernels::symm_inv::{build, SymmInvParams};
use numadag::prelude::*;

fn main() {
    let topology = Topology::bullion_s16();
    let sockets = topology.num_sockets();

    let params = SymmInvParams {
        nt: 10,
        tile_n: 192,
    };
    let spec = build(params, sockets);
    println!(
        "Symmetric matrix inversion: {} tiles per dimension, {} tasks, critical path {:.0} work units\n",
        params.nt,
        spec.num_tasks(),
        spec.graph.critical_path_work()
    );

    let report = Experiment::new()
        .topology(topology.clone())
        .workload(spec.clone())
        .policies([PolicyKind::Dfifo, PolicyKind::RGP_LAS, PolicyKind::Ep])
        .seed(7)
        .run();

    for cell in &report.cells {
        println!(
            "{:<8}  speedup {:>6.3}  local {:>5.1}%  stolen {:>5.1}%  imbalance {:>5.2}",
            cell.policy,
            cell.speedup_vs_baseline,
            100.0 * cell.local_fraction,
            100.0 * cell.steal_fraction,
            cell.load_imbalance,
        );
    }

    // Show where the partitioner put the first window's panel tasks; the
    // introspection run goes through the same Executor interface.
    let executor = Backend::Simulated.executor(ExecutionConfig::new(topology));
    let mut rgp = RgpPolicy::rgp_las();
    let _ = executor.execute(&spec, &mut rgp);
    println!(
        "\nRGP window: {} tasks partitioned, window edge cut = {} bytes",
        rgp.window_size_used(),
        rgp.window_edge_cut()
    );
    let panel_sockets: Vec<String> = spec
        .graph
        .tasks()
        .filter(|t| t.kind == "potrf")
        .filter_map(|t| rgp.window_socket_of(t.id).map(|s| format!("{}→{s}", t.id)))
        .collect();
    println!(
        "diagonal POTRF tasks in the window: {}",
        panel_sockets.join(", ")
    );
}
