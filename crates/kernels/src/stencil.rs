//! The three 2-D stencils of the suite, blocked into an `nb × nb` grid of
//! tiles with a 5-point neighbourhood. Every tile update reads its four
//! neighbours, so the TDG couples neighbouring tiles: a good placement keeps
//! a tile and its neighbours on the same (or a nearby) socket.
//!
//! - [`Stencil::Jacobi`] (heat diffusion) keeps two grids: sweep `s` reads
//!   grid `s % 2` and writes the other one, so the tiles of one sweep are
//!   independent.
//! - [`Stencil::GaussSeidel`] updates one grid in place: a tile reads the
//!   already updated left and upper neighbours of the current sweep and the
//!   not yet updated right and lower ones of the previous sweep. The
//!   dependence analysis turns this into the classic wavefront DAG, whose
//!   limited parallelism makes placement and stealing decisions much more
//!   visible.
//! - [`Stencil::RedBlack`] colours the tiles like a checkerboard and updates
//!   all red tiles, then all black ones, in place. Within a phase every tile
//!   is independent, giving far more parallelism than plain Gauss–Seidel
//!   while still reusing neighbour data across sockets.
//!
//! Grid `g`'s tile `(i, j)` is region `g·nb² + i·nb + j`. The expert
//! placement cuts the grid into `num_sockets` horizontal slabs.

use numadag_tdg::{TaskGraphSpec, TaskId, TaskSpec, TdgBuilder};

use crate::common::{block_owner, kernel_spec, ProblemScale};
use crate::storage::DenseStore;

/// Which 2-D stencil to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stencil {
    /// Jacobi heat diffusion over two grids.
    Jacobi,
    /// In-place Gauss–Seidel relaxation.
    GaussSeidel,
    /// Red–black Gauss–Seidel.
    RedBlack,
}

impl Stencil {
    /// The phases of one sweep: a task kind and the checkerboard colour it
    /// updates (`None`: every tile), in visit order.
    fn phases(self) -> &'static [(&'static str, Option<usize>)] {
        match self {
            Stencil::Jacobi => &[("sweep", None)],
            Stencil::GaussSeidel => &[("gs_update", None)],
            Stencil::RedBlack => &[("red_update", Some(0)), ("black_update", Some(1))],
        }
    }
}

/// Parameters of a stencil.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StencilParams {
    /// Blocks per dimension (the grid has `nb × nb` tiles).
    pub nb: usize,
    /// Elements (f64) per tile.
    pub block_elems: usize,
    /// Number of sweeps (a red–black sweep is both colours).
    pub iterations: usize,
}

impl StencilParams {
    /// Parameters for a given problem scale.
    pub(crate) fn with_scale(scale: ProblemScale) -> Self {
        match scale {
            ProblemScale::Tiny => StencilParams {
                nb: 4,
                block_elems: 64,
                iterations: 3,
            },
            ProblemScale::Small => StencilParams {
                nb: 8,
                block_elems: 16 * 1024,
                iterations: 6,
            },
            ProblemScale::Full => StencilParams {
                nb: 12,
                block_elems: 64 * 1024,
                iterations: 10,
            },
        }
    }
}

/// Builds the task graph of `stencil` with its expert placement.
pub fn build(stencil: Stencil, params: StencilParams, num_sockets: usize) -> TaskGraphSpec {
    let StencilParams {
        nb,
        block_elems,
        iterations,
    } = params;
    let block_bytes = (block_elems * std::mem::size_of::<f64>()) as u64;
    let grids = if stencil == Stencil::Jacobi { 2 } else { 1 };
    let mut builder = TdgBuilder::new();
    let regions: Vec<_> = (0..grids * nb * nb)
        .map(|_| builder.region(block_bytes))
        .collect();
    let tile = |grid: usize, i: usize, j: usize| regions[grid * nb * nb + i * nb + j];
    let mut ep = Vec::new();

    for i in 0..nb {
        for j in 0..nb {
            builder.submit(
                TaskSpec::new("init")
                    .work(block_elems as f64)
                    .writes(tile(0, i, j), block_bytes),
            );
            ep.push(block_owner(i, nb, num_sockets));
        }
    }

    for iter in 0..iterations {
        // The grid this sweep reads: Jacobi alternates, the others have one.
        let src = if stencil == Stencil::Jacobi {
            iter % 2
        } else {
            0
        };
        for &(kind, colour) in stencil.phases() {
            for i in 0..nb {
                for j in 0..nb {
                    if colour.is_some_and(|c| (i + j) % 2 != c) {
                        continue;
                    }
                    let task = TaskSpec::new(kind).work(5.0 * block_elems as f64);
                    let mut task = match stencil {
                        Stencil::Jacobi => task
                            .reads(tile(src, i, j), block_bytes)
                            .writes(tile(1 - src, i, j), block_bytes),
                        Stencil::GaussSeidel | Stencil::RedBlack => {
                            task.reads_writes(tile(src, i, j), block_bytes)
                        }
                    };
                    if i > 0 {
                        task = task.reads(tile(src, i - 1, j), block_bytes);
                    }
                    if i + 1 < nb {
                        task = task.reads(tile(src, i + 1, j), block_bytes);
                    }
                    if j > 0 {
                        task = task.reads(tile(src, i, j - 1), block_bytes);
                    }
                    if j + 1 < nb {
                        task = task.reads(tile(src, i, j + 1), block_bytes);
                    }
                    builder.submit(task);
                    ep.push(block_owner(i, nb, num_sockets));
                }
            }
        }
    }

    let name = match stencil {
        Stencil::Jacobi => "Jacobi",
        Stencil::GaussSeidel => "Gauss-Seidel",
        Stencil::RedBlack => "Red-Black",
    };
    kernel_spec(name, builder, ep)
}

/// Initial tile value used by both the task body and the reference: tile
/// `(i, j)` starts at `(i + 2 j + 1)` in every element.
fn initial_value(i: usize, j: usize) -> f64 {
    (i + 2 * j + 1) as f64
}

/// Real task bodies of a [`Stencil::Jacobi`] spec over a [`DenseStore`].
/// Each tile is kept spatially constant (all its elements hold the tile
/// average), which preserves the communication pattern while keeping the
/// reference computation simple.
pub fn jacobi_body<'a>(
    spec: &'a TaskGraphSpec,
    params: &StencilParams,
    store: &'a DenseStore,
) -> impl Fn(TaskId) + Sync + 'a {
    let nb = params.nb;
    move |task: TaskId| {
        let descriptor = spec.graph.task(task);
        let regions = descriptor.accesses.regions();
        match descriptor.kind {
            "init" => {
                let region = regions[0] as usize;
                let k = region % (nb * nb);
                let value = initial_value(k / nb, k % nb);
                store.write(region, |v| v.fill(value));
            }
            "sweep" => {
                // accesses[0] = own tile (read), accesses[1] = output tile,
                // the rest are the neighbours.
                let (own, out) = (regions[0] as usize, regions[1] as usize);
                let mut sum = store.read(own, |v| v[0]);
                let mut count = 1.0;
                for &neighbour in &regions[2..] {
                    sum += store.read(neighbour as usize, |v| v[0]);
                    count += 1.0;
                }
                let new = sum / count;
                store.write(out, |v| v.fill(new));
            }
            other => panic!("unknown Jacobi task kind {other}"),
        }
    }
}

/// Sequential Jacobi reference: one value per tile, same averaging rule.
fn jacobi_reference(params: &StencilParams) -> Vec<f64> {
    let nb = params.nb;
    let mut current: Vec<f64> = (0..nb * nb)
        .map(|k| initial_value(k / nb, k % nb))
        .collect();
    for _ in 0..params.iterations {
        let mut next = vec![0.0; nb * nb];
        for i in 0..nb {
            for j in 0..nb {
                let mut sum = current[i * nb + j];
                let mut count = 1.0;
                if i > 0 {
                    sum += current[(i - 1) * nb + j];
                    count += 1.0;
                }
                if i + 1 < nb {
                    sum += current[(i + 1) * nb + j];
                    count += 1.0;
                }
                if j > 0 {
                    sum += current[i * nb + (j - 1)];
                    count += 1.0;
                }
                if j + 1 < nb {
                    sum += current[i * nb + (j + 1)];
                    count += 1.0;
                }
                next[i * nb + j] = sum / count;
            }
        }
        current = next;
    }
    current
}

/// Verifies a store [`jacobi_body`] ran on against the sequential
/// reference. Returns the maximum absolute error across all tiles.
pub fn jacobi_verify(store: &DenseStore, params: &StencilParams) -> f64 {
    let tiles = params.nb * params.nb;
    let result_grid = params.iterations % 2;
    let mut max_err = 0.0f64;
    for (k, expected) in jacobi_reference(params).into_iter().enumerate() {
        let got = store.read(result_grid * tiles + k, |v| v[0]);
        max_err = max_err.max((got - expected).abs());
    }
    max_err
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(nb: usize, block_elems: usize, iterations: usize) -> StencilParams {
        StencilParams {
            nb,
            block_elems,
            iterations,
        }
    }

    fn preds(spec: &TaskGraphSpec, task: usize) -> Vec<usize> {
        spec.graph
            .predecessors(TaskId(task))
            .iter()
            .map(|(t, _)| t.index())
            .collect()
    }

    #[test]
    fn counts_and_validity() {
        let p = StencilParams::with_scale(ProblemScale::Tiny);
        for (stencil, grids) in [
            (Stencil::Jacobi, 2),
            (Stencil::GaussSeidel, 1),
            (Stencil::RedBlack, 1),
        ] {
            let spec = build(stencil, p, 4);
            assert_eq!(spec.num_regions(), grids * p.nb * p.nb, "{stencil:?}");
            assert_eq!(spec.num_tasks(), p.nb * p.nb * (1 + p.iterations));
            assert!(spec.ep_placement().is_some(), "{stencil:?}");
        }
    }

    #[test]
    fn jacobi_sweep_depends_on_the_inits_of_its_neighbours() {
        let spec = build(Stencil::Jacobi, params(3, 8, 1), 2);
        // First sweep task of tile (0,0) is task 9 (after 9 init tasks); it
        // must depend on the init tasks of (0,0), (0,1) and (1,0).
        assert_eq!(spec.graph.task(TaskId(9)).kind, "sweep");
        let mut preds = preds(&spec, 9);
        preds.sort_unstable();
        assert_eq!(preds, vec![0, 1, 3]);
    }

    #[test]
    fn expert_placement_splits_rows() {
        let spec = build(Stencil::Jacobi, params(8, 8, 1), 4);
        let ep = spec.ep_placement().unwrap();
        // Init of tile (0, *) on socket 0, tile (7, *) on socket 3.
        assert_eq!(ep[0], 0);
        assert_eq!(ep[7 * 8], 3);
    }

    #[test]
    fn gauss_seidel_sweep_depends_on_the_previous_sweep_of_its_tile() {
        let spec = build(Stencil::GaussSeidel, params(2, 4, 2), 2);
        // Task ids: 4 inits, 4 first-sweep, 4 second-sweep.
        assert_eq!(spec.graph.task(TaskId(8)).kind, "gs_update");
        let preds = preds(&spec, 8);
        assert!(preds.iter().any(|t| (4..8).contains(t)), "{preds:?}");
    }

    #[test]
    fn gauss_seidel_is_a_wavefront() {
        let p = params(4, 4, 3);
        let spec = build(Stencil::GaussSeidel, p, 2);
        let depth = spec.graph.levels().into_iter().max().unwrap_or(0);
        // Each sweep adds at least a diagonal wavefront of depth ~2*nb-1.
        assert!(depth >= p.iterations * (p.nb - 1), "depth {depth}");
    }

    #[test]
    fn red_black_phases_alternate_colours() {
        let spec = build(Stencil::RedBlack, params(2, 4, 1), 2);
        let kinds: Vec<&str> = spec.graph.tasks().map(|t| t.kind).collect();
        // 4 inits, then 2 red tiles ((0,0), (1,1)), then 2 black tiles.
        assert_eq!(
            kinds,
            [
                "init",
                "init",
                "init",
                "init",
                "red_update",
                "red_update",
                "black_update",
                "black_update"
            ]
        );
        // A black tile depends on its red neighbours from the same sweep.
        let preds = preds(&spec, 6);
        assert!(preds.iter().any(|&t| t == 4 || t == 5), "{preds:?}");
    }

    #[test]
    fn parallelism_orders_the_stencils() {
        let parallelism = |stencil, iterations| {
            build(stencil, params(6, 8, iterations), 2)
                .graph
                .average_parallelism()
        };
        // The wavefront serialises tiles within a sweep, so Gauss–Seidel has
        // strictly less average parallelism than Jacobi on the same grid...
        let (gs, jacobi) = (
            parallelism(Stencil::GaussSeidel, 1),
            parallelism(Stencil::Jacobi, 1),
        );
        assert!(
            gs < jacobi,
            "GS parallelism {gs} should be below Jacobi {jacobi}"
        );
        // ... and colouring restores it within each phase.
        assert!(parallelism(Stencil::RedBlack, 2) > parallelism(Stencil::GaussSeidel, 2));
    }

    #[test]
    fn jacobi_bodies_match_the_sequential_reference() {
        let p = params(4, 16, 5);
        let spec = build(Stencil::Jacobi, p, 2);
        let store = DenseStore::uniform(spec.num_regions(), p.block_elems);
        let run = jacobi_body(&spec, &p, &store);
        for t in spec.graph.task_ids() {
            run(t);
        }
        assert!(jacobi_verify(&store, &p) < 1e-12);
    }

    #[test]
    fn jacobi_reference_converges_towards_mean() {
        let r = jacobi_reference(&params(4, 1, 200));
        let spread =
            r.iter().cloned().fold(f64::MIN, f64::max) - r.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            spread < 0.5,
            "diffusion should smooth the field, spread {spread}"
        );
    }
}
