//! Integral histogram: for a stream of image frames, each tile's cumulative
//! histogram is the histogram of its own pixels plus the integral histograms
//! of the tile above and the tile to the left. The per-frame propagation
//! pattern (down and to the right) produces a dense wavefront with large
//! histogram regions flowing between neighbouring tiles, which is why the
//! paper's DFIFO does so poorly on it (0.40× in Figure 1).

use numadag_tdg::{TaskGraphSpec, TaskSpec, TdgBuilder};

use crate::common::{block_owner, kernel_spec, ProblemScale};

/// Parameters of the integral-histogram kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct IntegralHistogramParams {
    /// Tiles per dimension.
    pub nb: usize,
    /// Pixels per tile.
    pub(crate) tile_pixels: usize,
    /// Histogram bins per tile.
    pub(crate) bins: usize,
    /// Number of frames processed.
    pub(crate) frames: usize,
}

impl IntegralHistogramParams {
    /// Parameters for a given problem scale.
    pub(crate) fn with_scale(scale: ProblemScale) -> Self {
        match scale {
            ProblemScale::Tiny => IntegralHistogramParams {
                nb: 4,
                tile_pixels: 256,
                bins: 32,
                frames: 2,
            },
            ProblemScale::Small => IntegralHistogramParams {
                nb: 8,
                tile_pixels: 16 * 1024,
                bins: 128,
                frames: 4,
            },
            ProblemScale::Full => IntegralHistogramParams {
                nb: 10,
                tile_pixels: 64 * 1024,
                bins: 256,
                frames: 8,
            },
        }
    }
}

/// Builds the integral-histogram task graph with expert placement.
pub(crate) fn build(params: IntegralHistogramParams, num_sockets: usize) -> TaskGraphSpec {
    let nb = params.nb;
    let img_bytes = params.tile_pixels as u64; // one byte per pixel
    let hist_bytes = (params.bins * std::mem::size_of::<u32>()) as u64 * 64; // per-tile integral histograms are large
    let mut builder = TdgBuilder::new();
    let idx = |i: usize, j: usize| i * nb + j;
    let img: Vec<_> = (0..nb * nb).map(|_| builder.region(img_bytes)).collect();
    let hist: Vec<_> = (0..nb * nb).map(|_| builder.region(hist_bytes)).collect();

    let mut ep = Vec::new();
    let owner = |i: usize| block_owner(i, nb, num_sockets);

    for frame in 0..params.frames {
        // Capture the new frame tile by tile.
        for i in 0..nb {
            for j in 0..nb {
                builder.submit(
                    TaskSpec::new(if frame == 0 { "capture" } else { "recapture" })
                        .work(params.tile_pixels as f64 * 0.25)
                        .writes(img[idx(i, j)], img_bytes),
                );
                ep.push(owner(i));
            }
        }
        // Integral histogram propagation (row-major, so the dependence
        // analysis links each tile to its up and left neighbours).
        for i in 0..nb {
            for j in 0..nb {
                let mut task = TaskSpec::new("integral_histogram")
                    .work(params.tile_pixels as f64 + 2.0 * params.bins as f64)
                    .reads(img[idx(i, j)], img_bytes)
                    .writes(hist[idx(i, j)], hist_bytes);
                if i > 0 {
                    task = task.reads(hist[idx(i - 1, j)], hist_bytes);
                }
                if j > 0 {
                    task = task.reads(hist[idx(i, j - 1)], hist_bytes);
                }
                builder.submit(task);
                ep.push(owner(i));
            }
        }
    }

    kernel_spec("Integral histogram", builder, ep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_validity() {
        let p = IntegralHistogramParams::with_scale(ProblemScale::Tiny);
        let spec = build(p, 4);
        assert_eq!(spec.num_regions(), 2 * p.nb * p.nb);
        assert_eq!(spec.num_tasks(), p.frames * 2 * p.nb * p.nb);
    }

    #[test]
    fn corner_tile_waits_for_the_whole_wavefront() {
        let p = IntegralHistogramParams {
            nb: 4,
            tile_pixels: 64,
            bins: 8,
            frames: 1,
        };
        let spec = build(p, 2);
        // The last integral-histogram task (bottom-right tile) is at depth at
        // least 2*(nb-1) below the first one (a diagonal wavefront).
        let levels = spec.graph.levels();
        let depth = levels.iter().max().copied().unwrap();
        assert!(depth >= 2 * (p.nb - 1), "depth {depth}");
    }

    #[test]
    fn second_frame_reuses_histogram_regions() {
        let p = IntegralHistogramParams {
            nb: 2,
            tile_pixels: 64,
            bins: 8,
            frames: 2,
        };
        let spec = build(p, 2);
        // Frame 1 histogram of tile (0,0) is rewritten: the frame-2 task must
        // be ordered after every frame-1 reader of that histogram (WAR).
        assert_eq!(spec.num_tasks(), 16);
        // Total edge bytes must include the large histogram transfers.
        assert!(spec.graph.total_edge_bytes() > 0);
    }
}
