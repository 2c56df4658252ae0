//! Cross-backend equivalence on random workloads: the analytic spectral
//! response must equal the gate-level statevector circuit *exactly*
//! (same unitary algebra), which is what justifies running the paper's
//! Fig. 3 sweep on the fast backend. The serving path's spectra — dense
//! Jacobi and sparse Lanczos on the *unpadded* Laplacian, padding added
//! in closed form — are pinned to that same backend on the padded,
//! rescaled matrix.

use qtda::core::backend::{
    p_zero_by_basis_average, LanczosBackend, QpeBackend, SpectralBackend, StatevectorBackend,
};
use qtda::core::estimator::{BettiEstimator, EstimatorConfig};
use qtda::core::padding::{pad_laplacian, pad_laplacian_bounded, LambdaMaxBound, PaddingScheme};
use qtda::core::pipeline::PipelineConfig;
use qtda::core::query::BettiRequest;
use qtda::core::scaling::{rescale, Delta};
use qtda::core::spectrum::PaddedSpectrum;
use qtda::linalg::{CsrMatrix, Mat};
use qtda::tda::complex::worked_example_complex;
use qtda::tda::laplacian::{combinatorial_laplacian, combinatorial_laplacian_sparse};
use qtda::tda::point_cloud::synthetic;
use qtda::tda::random::RandomComplexModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random_laplacians(seed: u64, count: usize) -> Vec<Mat> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    while out.len() < count {
        let complex = RandomComplexModel::ErdosRenyiFlag { n: 6, edge_prob: 0.5, max_dim: 2 }
            .sample(&mut rng);
        for k in 0..=2usize {
            // Keep systems small so the purified circuit stays cheap.
            let d = complex.count(k);
            if d == 0 || d > 8 {
                continue;
            }
            out.push(combinatorial_laplacian(&complex, k));
            if out.len() == count {
                break;
            }
        }
    }
    out
}

#[test]
fn spectral_equals_statevector_on_random_laplacians() {
    for (i, l) in random_laplacians(31, 6).iter().enumerate() {
        let padded = pad_laplacian(l, PaddingScheme::IdentityHalfLambdaMax);
        let h = rescale(&padded, Delta::Auto);
        for precision in [1usize, 3] {
            let a = SpectralBackend.p_zero(&h, precision);
            let b = StatevectorBackend.p_zero(&h, precision);
            assert!(
                (a - b).abs() < 1e-9,
                "laplacian {i}, precision {precision}: spectral {a} vs statevector {b}"
            );
        }
    }
}

#[test]
fn purified_equals_basis_average() {
    for l in random_laplacians(37, 4) {
        let padded = pad_laplacian(&l, PaddingScheme::IdentityHalfLambdaMax);
        let h = rescale(&padded, Delta::Auto);
        let a = StatevectorBackend.p_zero(&h, 2);
        let b = p_zero_by_basis_average(&h, 2);
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }
}

/// `SpectralBackend` on the padded, rescaled matrix — the reference the
/// serving path's spectra are pinned to.
fn padded_reference(l: &Mat, config: &EstimatorConfig) -> f64 {
    let padded = pad_laplacian_bounded(l, config.padding, config.lambda_bound);
    SpectralBackend.p_zero(&rescale(&padded, config.delta), config.precision_qubits)
}

/// The sparse route's spectrum under the default estimator settings.
fn sparse_spectrum(l: &CsrMatrix) -> PaddedSpectrum {
    let config = EstimatorConfig::default();
    let seed = LanczosBackend::default().seed;
    PaddedSpectrum::of_sparse_laplacian_bounded(
        l,
        config.padding,
        config.delta,
        seed,
        config.lambda_bound,
    )
}

/// The dense route — Jacobi on the unpadded Laplacian plus the
/// closed-form padding term, behind both `PaddedSpectrum::of_laplacian`
/// and `BettiEstimator::new` — reproduces the padded-matrix reference
/// under both padding schemes, both λ̃_max bounds and every precision.
#[test]
fn spectrum_helper_equals_backends() {
    let bounds =
        [LambdaMaxBound::Gershgorin, LambdaMaxBound::PowerIteration { iterations: 200, seed: 3 }];
    for l in random_laplacians(41, 6) {
        for padding in [PaddingScheme::IdentityHalfLambdaMax, PaddingScheme::Zeros] {
            for lambda_bound in bounds {
                let spectrum = PaddedSpectrum::of_laplacian(&l, padding, Delta::Auto, lambda_bound);
                for precision_qubits in 1..=8 {
                    let config = EstimatorConfig {
                        precision_qubits,
                        padding,
                        lambda_bound,
                        ..Default::default()
                    };
                    let reference = padded_reference(&l, &config);
                    let served = BettiEstimator::new(config).estimate(&l).p_zero_exact;
                    for (route, got) in
                        [("spectrum", spectrum.p_zero(precision_qubits)), ("estimator", served)]
                    {
                        assert!(
                            (got - reference).abs() < 1e-12,
                            "{route}, {padding:?}, {lambda_bound:?}, precision {precision_qubits}: \
                             {got} vs {reference}"
                        );
                    }
                }
            }
        }
    }
}

/// The sparse route's equivalence: full-run Lanczos on the unpadded CSR
/// Δ₁ of the paper's worked example, plus the closed-form padding term,
/// reproduces the padded-matrix spectral response, |Δp(0)| < 1e-6 at
/// every precision.
#[test]
fn lanczos_equals_spectral_on_worked_example() {
    let l1 = combinatorial_laplacian(&worked_example_complex(), 1);
    let spectrum = sparse_spectrum(&combinatorial_laplacian_sparse(&worked_example_complex(), 1));
    for precision_qubits in 1..=6 {
        let config = EstimatorConfig { precision_qubits, ..Default::default() };
        let spectral = padded_reference(&l1, &config);
        let lanczos = spectrum.p_zero(precision_qubits);
        assert!(
            (spectral - lanczos).abs() < 1e-6,
            "p = {precision_qubits}: spectral {spectral} vs lanczos {lanczos}"
        );
    }
    // And the worked example's β̃₁ estimate agrees through the dense and
    // sparse routes.
    let config =
        EstimatorConfig { precision_qubits: 3, shots: 1000, seed: 7, ..Default::default() };
    let dense = BettiEstimator::new(config).estimate(&l1);
    let sparse = BettiEstimator::new(config).estimate_from_spectrum(&spectrum);
    assert_eq!(dense.rounded(), 1);
    assert_eq!(sparse.rounded(), 1);
    assert!((dense.p_zero_exact - sparse.p_zero_exact).abs() < 1e-6);
}

#[test]
fn lanczos_equals_spectral_on_random_laplacians() {
    for (i, l) in random_laplacians(47, 6).iter().enumerate() {
        let spectrum = sparse_spectrum(&CsrMatrix::from_dense(l, 0.0));
        for precision_qubits in [2usize, 4] {
            let a =
                padded_reference(l, &EstimatorConfig { precision_qubits, ..Default::default() });
            let b = spectrum.p_zero(precision_qubits);
            assert!(
                (a - b).abs() < 1e-6,
                "laplacian {i}, precision {precision_qubits}: spectral {a} vs lanczos {b}"
            );
        }
    }
}

/// The sparse pipeline agrees with the dense pipeline end to end on the
/// circle and figure-eight workloads (ISSUE acceptance): same rounded
/// β̃ and |Δp(0)| < 1e-6 per dimension.
#[test]
fn sparse_pipeline_equals_dense_pipeline_on_known_topologies() {
    let mut rng = StdRng::seed_from_u64(101);
    let scenarios = [
        ("circle", synthetic::circle(14, 1.0, 0.02, &mut rng), 0.55),
        ("figure-eight", synthetic::figure_eight(10, 1.0, 0.0, &mut rng), 0.7),
    ];
    for (name, cloud, epsilon) in scenarios {
        let base = PipelineConfig {
            epsilon,
            max_homology_dim: 1,
            estimator: EstimatorConfig {
                precision_qubits: 7,
                shots: 20_000,
                seed: 5,
                ..Default::default()
            },
            ..Default::default()
        };
        let dense = BettiRequest::of_cloud(&cloud)
            .configured(&PipelineConfig { sparse_threshold: usize::MAX, ..base })
            .build()
            .run();
        let dense = dense.single_slice();
        let sparse = BettiRequest::of_cloud(&cloud)
            .configured(&PipelineConfig { sparse_threshold: 0, ..base })
            .build()
            .run();
        let sparse = sparse.single_slice();
        assert_eq!(dense.classical, sparse.classical, "{name}: classical routes disagree");
        assert_eq!(dense.rounded(), sparse.rounded(), "{name}: rounded β̃ disagree");
        for (k, (d, s)) in dense.estimates.iter().zip(&sparse.estimates).enumerate() {
            assert!(
                (d.p_zero_exact - s.p_zero_exact).abs() < 1e-6,
                "{name}, k = {k}: dense p(0) {} vs sparse p(0) {}",
                d.p_zero_exact,
                s.p_zero_exact
            );
        }
    }
}

#[test]
fn zero_padding_and_identity_padding_converge_at_high_precision() {
    for l in random_laplacians(43, 4) {
        let id = PaddedSpectrum::of_laplacian(
            &l,
            PaddingScheme::IdentityHalfLambdaMax,
            Delta::Auto,
            LambdaMaxBound::Gershgorin,
        )
        .estimate_exact(9);
        let zeros = PaddedSpectrum::of_laplacian(
            &l,
            PaddingScheme::Zeros,
            Delta::Auto,
            LambdaMaxBound::Gershgorin,
        )
        .estimate_exact(9);
        assert!(
            (id - zeros).abs() < 0.1,
            "corrected schemes must agree at high precision: {id} vs {zeros}"
        );
    }
}
