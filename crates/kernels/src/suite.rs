//! The application suite of the paper's Figure 1 and the entry point the
//! benchmark harness uses to build it.

use numadag_tdg::TaskGraphSpec;

use crate::common::ProblemScale;
use crate::stencil::{self, Stencil, StencilParams};
use crate::{cg, integral_histogram, nstream, qr, symm_inv};

/// The eight applications of the paper's evaluation, in the order Figure 1
/// plots them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Application {
    /// Blocked conjugate gradient.
    ConjugateGradient,
    /// In-place Gauss–Seidel relaxation.
    GaussSeidel,
    /// Integral histogram over a stream of frames.
    IntegralHistogram,
    /// Jacobi heat diffusion (two grids).
    Jacobi,
    /// STREAM-triad style vector update.
    NStream,
    /// Tiled Householder QR factorisation.
    QrFactorization,
    /// Red–black Gauss–Seidel.
    RedBlack,
    /// Symmetric (SPD) matrix inversion via Cholesky.
    SymmetricMatrixInversion,
}

impl Application {
    /// All eight applications in Figure 1 order.
    pub fn all() -> [Application; 8] {
        [
            Application::ConjugateGradient,
            Application::GaussSeidel,
            Application::IntegralHistogram,
            Application::Jacobi,
            Application::NStream,
            Application::QrFactorization,
            Application::RedBlack,
            Application::SymmetricMatrixInversion,
        ]
    }

    /// The display name the paper uses.
    pub fn label(&self) -> &'static str {
        match self {
            Application::ConjugateGradient => "Conjugate gradient",
            Application::GaussSeidel => "Gauss-Seidel",
            Application::IntegralHistogram => "Integral histogram",
            Application::Jacobi => "Jacobi",
            Application::NStream => "NStream",
            Application::QrFactorization => "QR factorization",
            Application::RedBlack => "Red-Black",
            Application::SymmetricMatrixInversion => "Symm. mat. inv.",
        }
    }

    /// Builds the application's task graph at the given scale for a machine
    /// with `num_sockets` sockets.
    pub fn build(&self, scale: ProblemScale, num_sockets: usize) -> TaskGraphSpec {
        let build_stencil =
            |kind| stencil::build(kind, StencilParams::with_scale(scale), num_sockets);
        match self {
            Application::ConjugateGradient => {
                cg::build(cg::CgParams::with_scale(scale), num_sockets)
            }
            Application::GaussSeidel => build_stencil(Stencil::GaussSeidel),
            Application::IntegralHistogram => integral_histogram::build(
                integral_histogram::IntegralHistogramParams::with_scale(scale),
                num_sockets,
            ),
            Application::Jacobi => build_stencil(Stencil::Jacobi),
            Application::NStream => {
                nstream::build(nstream::NStreamParams::with_scale(scale), num_sockets)
            }
            Application::QrFactorization => qr::build(qr::QrParams::with_scale(scale), num_sockets),
            Application::RedBlack => build_stencil(Stencil::RedBlack),
            Application::SymmetricMatrixInversion => {
                symm_inv::build(symm_inv::SymmInvParams::with_scale(scale), num_sockets)
            }
        }
    }
}

impl std::fmt::Display for Application {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Application {
    type Err = String;

    /// Parses either the Figure-1 display label (`"Symm. mat. inv."`,
    /// case-insensitive, punctuation-tolerant) or a short CLI/wire token
    /// (`cg`, `gs`, `ih`, `jacobi`, `nstream`, `qr`, `rb`, `symm`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        // Normalize: drop dots, lower-case, map spaces/underscores to dashes
        // so "Symm. mat. inv." and "symm-mat-inv" both match.
        let mut norm = String::with_capacity(s.len());
        for c in s.trim().chars() {
            match c {
                '.' => {}
                ' ' | '_' => {
                    if !norm.ends_with('-') {
                        norm.push('-');
                    }
                }
                c => norm.push(c.to_ascii_lowercase()),
            }
        }
        match norm.trim_matches('-') {
            "conjugate-gradient" | "cg" => Ok(Application::ConjugateGradient),
            "gauss-seidel" | "gs" => Ok(Application::GaussSeidel),
            "integral-histogram" | "ih" => Ok(Application::IntegralHistogram),
            "jacobi" => Ok(Application::Jacobi),
            "nstream" => Ok(Application::NStream),
            "qr-factorization" | "qr" => Ok(Application::QrFactorization),
            "red-black" | "rb" => Ok(Application::RedBlack),
            "symm-mat-inv" | "symm" | "smi" => Ok(Application::SymmetricMatrixInversion),
            other => Err(format!(
                "unknown application '{other}' (expected cg|gs|ih|jacobi|nstream|qr|rb|symm or a Figure-1 label)"
            )),
        }
    }
}

impl Application {
    /// Parses a comma-separated application list; empty input or `"all"`
    /// selects the whole Figure-1 suite in plot order.
    pub fn parse_list(s: &str) -> Result<Vec<Application>, String> {
        let s = s.trim();
        if s.is_empty() || s.eq_ignore_ascii_case("all") {
            return Ok(Application::all().to_vec());
        }
        s.split(',')
            .map(|token| token.parse::<Application>())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_eight_applications_build_and_validate() {
        for app in Application::all() {
            let spec = app.build(ProblemScale::Tiny, 8);
            assert!(spec.num_tasks() > 0, "{app}: no tasks");
            assert!(
                spec.ep_placement().is_some(),
                "{app}: missing expert placement"
            );
            assert_eq!(&*spec.name, app.label());
        }
    }

    #[test]
    fn labels_match_figure_order() {
        let labels: Vec<&str> = Application::all().iter().map(|a| a.label()).collect();
        assert_eq!(
            labels,
            vec![
                "Conjugate gradient",
                "Gauss-Seidel",
                "Integral histogram",
                "Jacobi",
                "NStream",
                "QR factorization",
                "Red-Black",
                "Symm. mat. inv.",
            ]
        );
        assert_eq!(Application::NStream.to_string(), "NStream");
    }

    #[test]
    fn every_label_parses_back_to_its_application() {
        for app in Application::all() {
            assert_eq!(app.label().parse::<Application>().unwrap(), app);
        }
    }

    #[test]
    fn short_tokens_and_case_variants_parse() {
        assert_eq!(
            "cg".parse::<Application>().unwrap(),
            Application::ConjugateGradient
        );
        assert_eq!(
            "symm-mat-inv".parse::<Application>().unwrap(),
            Application::SymmetricMatrixInversion
        );
        assert_eq!(
            "QR".parse::<Application>().unwrap(),
            Application::QrFactorization
        );
        assert_eq!(
            "red_black".parse::<Application>().unwrap(),
            Application::RedBlack
        );
        assert!("fft".parse::<Application>().is_err());
    }

    #[test]
    fn parse_list_handles_all_and_explicit_subsets() {
        assert_eq!(
            Application::parse_list("all").unwrap(),
            Application::all().to_vec()
        );
        assert_eq!(
            Application::parse_list("").unwrap(),
            Application::all().to_vec()
        );
        assert_eq!(
            Application::parse_list("jacobi,nstream").unwrap(),
            vec![Application::Jacobi, Application::NStream]
        );
        assert!(Application::parse_list("jacobi,bogus").is_err());
    }

    #[test]
    fn full_scale_produces_substantial_graphs() {
        // Only build the cheapest kernels at full scale in unit tests; the
        // dense ones are exercised by the bench harness.
        let spec = Application::NStream.build(ProblemScale::Full, 8);
        assert!(spec.num_tasks() > 500);
        let spec = Application::Jacobi.build(ProblemScale::Full, 8);
        assert!(spec.num_tasks() > 1000);
    }

    /// The flat view the executors read equals the nested accessors —
    /// descriptors and predecessor lists, which the graph stores natively —
    /// element for element, on the workloads every committed number comes
    /// from.
    #[test]
    fn flat_view_equals_the_nested_accessors_on_the_eight_full_specs() {
        use numadag_tdg::TaskId;
        for app in Application::all() {
            let spec = app.build(ProblemScale::Full, 8);
            let g = &spec.graph;
            let flat = g.flat();
            assert_eq!(flat.num_tasks(), g.num_tasks(), "{app}");
            // Successors, re-derived the way `push_task` used to keep them.
            let mut successors = vec![Vec::new(); g.num_tasks()];
            for t in g.task_ids() {
                for &(pred, bytes) in g.predecessors(t) {
                    successors[pred.index()].push((t, bytes));
                }
            }
            for t in g.task_ids() {
                let want = &successors[t.index()];
                assert!(
                    flat.successors(t)
                        .iter()
                        .map(|&s| TaskId(s as usize))
                        .zip(flat.successor_bytes(t).iter().copied())
                        .eq(want.iter().copied()),
                    "{app} {t}"
                );
                assert_eq!(flat.in_degrees()[t.index()] as usize, g.in_degree(t));
            }
            assert_eq!(
                g.all_accesses().len(),
                g.tasks().map(|t| t.accesses.len()).sum::<usize>()
            );
        }
    }

    #[test]
    fn scales_are_ordered_by_size() {
        for app in Application::all() {
            let tiny = app.build(ProblemScale::Tiny, 4).num_tasks();
            let small = app.build(ProblemScale::Small, 4).num_tasks();
            assert!(
                tiny < small,
                "{app}: tiny {tiny} not smaller than small {small}"
            );
        }
    }
}
