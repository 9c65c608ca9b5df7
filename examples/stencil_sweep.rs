//! Window-size sweep on the three stencil kernels (Jacobi, Gauss–Seidel,
//! red–black): how much of the TDG does RGP need to see before its placement
//! beats plain LAS?
//!
//! The window axis is expressed through the policy registry: each column is
//! the `rgp-las:w=N` policy, so the whole study is a single `Experiment` —
//! sharded across two worker threads here (`parallelism`), with live
//! per-cell progress on stderr (`on_cell_complete`). On the simulator
//! backend the sharded report is bit-identical to a serial run.
//!
//! Run with:
//! ```text
//! cargo run --example stencil_sweep --release
//! ```

use numadag::kernels::stencil::{self, Stencil, StencilParams};
use numadag::prelude::*;

fn main() {
    let topology = Topology::bullion_s16();
    let sockets = topology.num_sockets();

    let params = StencilParams {
        nb: 10,
        block_elems: 32 * 1024,
        iterations: 8,
    };
    let specs: Vec<TaskGraphSpec> = [Stencil::Jacobi, Stencil::GaussSeidel, Stencil::RedBlack]
        .map(|kind| stencil::build(kind, params, sockets))
        .into();
    let names: Vec<String> = specs.iter().map(|s| s.name.to_string()).collect();

    let windows = [32usize, 64, 128, 256, 512, 1024];
    let mut experiment = Experiment::new()
        .topology(topology)
        .policies(windows.map(PolicyKind::rgp_las_window))
        .seed(11)
        .parallelism(2)
        .on_cell_complete(|p: &CellProgress| {
            eprintln!(
                "[{}/{}] {} under {} done in {:.1} ms",
                p.completed,
                p.total,
                p.application,
                p.policy,
                p.wall_ns / 1e6
            );
        });
    for spec in specs {
        experiment = experiment.workload(spec);
    }
    let report = experiment.run();
    println!(
        "sweep: {} cells in {:.1} ms wall on {} worker threads\n",
        report.cells.len(),
        report.timing.total_wall_ns / 1e6,
        report.timing.jobs
    );

    println!("RGP+LAS speedup over LAS as the partitioned window grows:\n");
    print!("{:<16}", "kernel");
    for w in windows {
        print!("{w:>9}");
    }
    println!();
    for name in &names {
        print!("{name:<16}");
        for w in windows {
            let label = PolicyKind::rgp_las_window(w).label();
            let s = report.speedup_of(name, &label).unwrap_or(f64::NAN);
            print!("{s:>9.3}");
        }
        println!();
    }

    println!(
        "\nSmall windows only cover the initialisation tasks, so the partition has little to\n\
         propagate; once the window spans a full sweep the neighbouring tiles get co-located\n\
         and the halo exchanges become local."
    );
}
