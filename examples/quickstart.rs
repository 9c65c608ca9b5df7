//! Quickstart: declare a policy-comparison sweep with the fluent
//! `Experiment` API, run it on the simulated 8-socket machine of the paper,
//! and compare makespans, locality and balance.
//!
//! Run with:
//! ```text
//! cargo run --example quickstart --release
//! ```

use numadag::prelude::*;

fn main() {
    // 1. The machine: the paper's Atos bullion S16 (8 sockets x 4 cores).
    let topology = Topology::bullion_s16();
    println!(
        "machine: {} ({} cores)\n",
        topology.name(),
        topology.num_cores()
    );

    // 2. The sweep: one of the paper's eight applications under every policy
    //    of Figure 1 (LAS is the baseline and is reported last).
    let report = Experiment::new()
        .topology(topology)
        .app(Application::Jacobi)
        .scale(ProblemScale::Small)
        .policies([PolicyKind::Dfifo, PolicyKind::RGP_LAS, PolicyKind::Ep])
        .backend(Backend::Simulated)
        .seed(42)
        .run();

    // 3. The report: one cell per (application, policy) pair.
    println!(
        "workload: {} — {} tasks\n",
        report.application_labels().join(", "),
        report.cells.first().map_or(0, |c| c.tasks),
    );
    println!(
        "{:<10} {:>14} {:>10} {:>9} {:>11}",
        "policy", "makespan (ns)", "speedup", "local %", "imbalance"
    );
    for cell in &report.cells {
        println!(
            "{:<10} {:>14.0} {:>10.3} {:>8.1}% {:>11.2}",
            cell.policy,
            cell.makespan_ns,
            cell.speedup_vs_baseline,
            100.0 * cell.local_fraction,
            cell.load_imbalance
        );
    }

    println!(
        "\nRGP+LAS should serve a larger fraction of bytes locally than LAS, and DFIFO a much\n\
         smaller one — that difference is exactly the NUMA effect the paper targets."
    );
}
