//! Content fingerprints of workload instances the golden table in
//! `cache.rs` does not reach: every application at Small scale, and the
//! three 2-D stencils at sizes and socket counts no Figure-1 scale uses
//! (`nb = 1` without neighbours, odd `nb` for the red–black colouring,
//! zero sweeps, a one-socket expert placement). A fingerprint folds the
//! spec's name, every task's kind, work and accesses in order, the edges,
//! the region sizes and the expert placement, so a builder that drifts in
//! any of them fails here. The values were captured before the three
//! stencil builders were merged into one, with the byte-wise fold the
//! `reference` module keeps.

#[path = "../../tdg/tests/reference/mod.rs"]
mod reference;

use numadag_kernels::stencil::{self, Stencil, StencilParams};
use numadag_kernels::{Application, ProblemScale};
use numadag_tdg::TaskGraphSpec;
use reference::reference_fingerprint;

/// The fingerprint of the stencil whose spec is named `name`.
fn stencil_fingerprint(name: &str, nb: usize, iterations: usize, sockets: usize) -> u64 {
    let stencil = match name {
        "Jacobi" => Stencil::Jacobi,
        "Gauss-Seidel" => Stencil::GaussSeidel,
        "Red-Black" => Stencil::RedBlack,
        other => panic!("no stencil {other}"),
    };
    let params = StencilParams {
        nb,
        block_elems: 8,
        iterations,
    };
    let spec = stencil::build(stencil, params, sockets);
    assert_eq!(&*spec.name, name);
    reference_fingerprint(&spec)
}

#[test]
fn small_scale_fingerprints_are_the_parents() {
    use Application::*;
    const PINS: [(Application, u64); 8] = [
        (ConjugateGradient, 0xb8db614659a997d8),
        (GaussSeidel, 0xac337c1504ae7b07),
        (IntegralHistogram, 0x2e7ba1b423a120fd),
        (Jacobi, 0x93f5200177aab98b),
        (NStream, 0x88d6edb04976bf22),
        (QrFactorization, 0xc22cb4251c6d9e75),
        (RedBlack, 0x8f87906c808e9e13),
        (SymmetricMatrixInversion, 0x6dd65b8e8ee934d9),
    ];
    for (app, want) in PINS {
        let got = reference_fingerprint(&app.build(ProblemScale::Small, 8));
        assert_eq!(got, want, "{app:?}: {got:#018x}");
    }
}

#[test]
fn stencil_fingerprints_are_the_parents() {
    /// `(stencil, nb, iterations, [1, 3, 8 sockets])`, 8 elements a tile.
    #[rustfmt::skip]
    const PINS: [(&str, usize, usize, [u64; 3]); 36] = [
        ("Jacobi", 1, 0, [0x9f58d09d69224303, 0x9f58d09d69224303, 0x9f58d09d69224303]),
        ("Jacobi", 1, 1, [0x5836bb63d38c3c9e, 0x5836bb63d38c3c9e, 0x5836bb63d38c3c9e]),
        ("Jacobi", 1, 2, [0xc7a74e197ff01828, 0xc7a74e197ff01828, 0xc7a74e197ff01828]),
        ("Jacobi", 2, 0, [0xd5c33ec422f87ce5, 0xa5bff0051ad2aec5, 0x15b603c802614465]),
        ("Jacobi", 2, 1, [0x93e9c31e8f01659d, 0xb988d28ea586b95d, 0x2a6600dee916b49d]),
        ("Jacobi", 2, 2, [0x68b5be41f8ab0675, 0x2faffe3d99246c15, 0x849ebe307a909cf5]),
        ("Jacobi", 3, 0, [0x9698e5bb9afc63e3, 0xf999dc0aac290cc0, 0x1b194bc2b2327b64]),
        ("Jacobi", 3, 1, [0x09b52a15ca4536b2, 0xc75e9322678b2f92, 0xb5b324d74bf9b812]),
        ("Jacobi", 3, 2, [0xb68491ad2e442000, 0x302c5285c7bf0883, 0x6ebb674537e34467]),
        ("Jacobi", 5, 0, [0xaf27317dc07f3073, 0xcb3f6238aa598911, 0xc14451dc507cc9d3]),
        ("Jacobi", 5, 1, [0x452c46f88e8897c6, 0x7dbe1b5f03a64ec6, 0xbed64a63257a2f06]),
        ("Jacobi", 5, 2, [0x2c13c6818f170504, 0x0f17b7de7865b7e6, 0x170107b2850d94e4]),
        ("Gauss-Seidel", 1, 0, [0xe371e755109e902f, 0xe371e755109e902f, 0xe371e755109e902f]),
        ("Gauss-Seidel", 1, 1, [0x1da7ebd15456ddfd, 0x1da7ebd15456ddfd, 0x1da7ebd15456ddfd]),
        ("Gauss-Seidel", 1, 2, [0xa7779fb73895f8a6, 0xa7779fb73895f8a6, 0xa7779fb73895f8a6]),
        ("Gauss-Seidel", 2, 0, [0x6b5c033e240459b9, 0x3b58b47f1bde8b99, 0x2b693e3a449b9239]),
        ("Gauss-Seidel", 2, 1, [0xe988ca17210951d1, 0x0f27d987378ea591, 0x530c8c56c6f402d1]),
        ("Gauss-Seidel", 2, 2, [0xfefb93460b74d5a9, 0xc5f5d341abee3b49, 0xe3129357898f3f29]),
        ("Gauss-Seidel", 3, 0, [0xcd291ee4bb567daf, 0x302a1533cc83268c, 0x9c86b106286bb328]),
        ("Gauss-Seidel", 3, 1, [0xbefa01385da4a841, 0x0150982bc05eaf61, 0x4d826d4cbdf3bfe1]),
        ("Gauss-Seidel", 3, 2, [0x22d28f371ce4d386, 0x88dd00745bba6e85, 0xf46a616cc09855e1]),
        ("Gauss-Seidel", 5, 0, [0x1f661f9adbfe767f, 0x3b7e5055c5d8cf1d, 0xd3300da123695adf]),
        ("Gauss-Seidel", 5, 1, [0xd0342b8ebc061b6d, 0x97a2572846e8646d, 0x5007777d9a077a2d]),
        ("Gauss-Seidel", 5, 2, [0x4232a0807b28c51e, 0x370adcdd2a0c29fc, 0xa54560bb26f9a5fe]),
        ("Red-Black", 1, 0, [0xbd7cbfb927c6110b, 0xbd7cbfb927c6110b, 0xbd7cbfb927c6110b]),
        ("Red-Black", 1, 1, [0x06bd71bf8a4dbd0f, 0x06bd71bf8a4dbd0f, 0x06bd71bf8a4dbd0f]),
        ("Red-Black", 1, 2, [0x76a1cc07edd4fbb2, 0x76a1cc07edd4fbb2, 0x76a1cc07edd4fbb2]),
        ("Red-Black", 2, 0, [0x5fdba815cc53f4bd, 0x2fd85956c42e269d, 0x9fce6d19abbcbc3d]),
        ("Red-Black", 2, 1, [0x57109ef674d86c15, 0xa5061af2e108edb5, 0x8ee68ee8259a7295]),
        ("Red-Black", 2, 2, [0x88ff2414e9a3293d, 0xa6c13584abc1da9d, 0x000769d3f21deebd]),
        ("Red-Black", 3, 0, [0x2460c8f6868cddbb, 0x8761bf4597b98698, 0xa8e12efd9dc2f53c]),
        ("Red-Black", 3, 1, [0xec37aaa73035dd7b, 0xc9db8872697b9a3b, 0xf7c89bac478428db]),
        ("Red-Black", 3, 2, [0x1becaff6fafba826, 0x070b8ed23f9b9f25, 0x2d4482b11940f281]),
        ("Red-Black", 5, 0, [0x97900b5d88f8ed2b, 0xb3a83c1872d345c9, 0xa9ad2bbc18f6868b]),
        ("Red-Black", 5, 1, [0x2e3d231b37fef83b, 0x971619b02fa20a3b, 0x01a366b628c61c5b]),
        ("Red-Black", 5, 2, [0x86c761ea497c2a1a, 0x492db3033c4088f8, 0x2011e7ddf1cd643a]),
    ];
    for (name, nb, iterations, want) in PINS {
        for (sockets, want) in [1, 3, 8].into_iter().zip(want) {
            let got = stencil_fingerprint(name, nb, iterations, sockets);
            assert_eq!(
                got, want,
                "{name} nb={nb} iterations={iterations} sockets={sockets}: {got:#018x}"
            );
        }
    }
}
