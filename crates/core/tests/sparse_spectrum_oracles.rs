//! The sparse route pinned to the exact oracles rather than to earlier
//! bits. Each sparse unit is one full Lanczos run behind
//! `PaddedSpectrum::of_sparse_laplacian_bounded`; over gearbox
//! Laplacians across the sparse range and over degenerate-kernel ones
//! (many identical components, hence highly repeated eigenvalues) it
//! must reproduce
//!
//! * the dense Jacobi spectrum (`SymEigen`) to 1e-10,
//! * β_k of the `compute_barcode` oracle as its `kernel_dim`,
//! * the dense route's `p_zero` (`PaddedSpectrum::of_laplacian`) to
//!   1e-12.

use qtda_core::backend::LanczosBackend;
use qtda_core::padding::{LambdaMaxBound, PaddingScheme};
use qtda_core::scaling::Delta;
use qtda_core::spectrum::PaddedSpectrum;
use qtda_data::gearbox::GearboxConfig;
use qtda_data::windows::sliding_window_stream;
use qtda_linalg::profile::profiled;
use qtda_linalg::{lanczos_ritz_values, CsrMatrix, SymEigen};
use qtda_tda::filtration::Filtration;
use qtda_tda::laplacian_filtration::LaplacianFiltration;
use qtda_tda::persistence::compute_barcode;
use qtda_tda::point_cloud::{Metric, PointCloud};
use qtda_tda::takens::{takens_embedding, TakensParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The smallest `|S_k|` the default dispatch sends down the sparse route.
const SPARSE_MIN: usize = qtda_core::pipeline::DEFAULT_SPARSE_THRESHOLD;

/// The default gearbox job's ε-grid and dimensions.
const EPSILONS: [f64; 3] = [0.6, 1.0, 1.4];
const MAX_DIM: usize = 1;

/// One sparse unit with its exact Betti number.
struct Unit {
    label: String,
    laplacian: CsrMatrix,
    beta: usize,
}

/// Every `(ε, k)` unit of `cloud` whose `|S_k|` falls in `rows`, with β_k
/// read off the barcode of the same Rips filtration.
fn units(label: &str, cloud: &PointCloud, rows: std::ops::RangeInclusive<usize>) -> Vec<Unit> {
    let max_eps = EPSILONS[EPSILONS.len() - 1];
    let arena = LaplacianFiltration::rips(cloud, max_eps, MAX_DIM + 1, Metric::Euclidean);
    let barcode =
        compute_barcode(&Filtration::rips(cloud, max_eps, MAX_DIM + 1, Metric::Euclidean));
    let mut out = Vec::new();
    for eps in EPSILONS {
        for k in 0..=MAX_DIM {
            if rows.contains(&arena.count_at(k, eps)) {
                out.push(Unit {
                    label: format!("{label} ε = {eps} k = {k}"),
                    laplacian: arena.laplacian_at(k, eps),
                    beta: barcode.betti_at(k, eps),
                });
            }
        }
    }
    out
}

/// Default gearbox windows (RMS-normalised, Takens d = 3, τ = 3,
/// stride 12), spread across the sparse range: the candidate units are
/// sorted by size and `count` of them picked at even quantiles.
fn gearbox_units(count: usize) -> Vec<Unit> {
    let mut rng = StdRng::seed_from_u64(14);
    let windows = sliding_window_stream(&GearboxConfig::default(), 6, 500, 250, &mut rng);
    let takens = TakensParams { dimension: 3, delay: 3, stride: 12 };
    let mut candidates: Vec<Unit> = windows
        .iter()
        .enumerate()
        .flat_map(|(w, window)| {
            let rms = (window.samples.iter().map(|v| v * v).sum::<f64>()
                / window.samples.len() as f64)
                .sqrt();
            let samples: Vec<f64> = window.samples.iter().map(|v| v / rms).collect();
            units(&format!("window {w}"), &takens_embedding(&samples, &takens), SPARSE_MIN..=260)
        })
        .collect();
    candidates.sort_by_key(|u| u.laplacian.n_rows());
    let last = candidates.len() - 1;
    let picks: Vec<usize> = (0..count).map(|i| i * last / (count - 1)).collect();
    candidates.into_iter().enumerate().filter(|(i, _)| picks.contains(i)).map(|(_, u)| u).collect()
}

/// `rings` identical 8-point rings of radius 1, far apart. At ε = 1.0
/// only ring neighbours connect, so each ring is a cycle: β₀ = β₁ =
/// `rings`, and every eigenvalue of Δ₀ and Δ₁ repeats `rings` times.
fn ring_cloud(rings: usize) -> PointCloud {
    let points: Vec<Vec<f64>> = (0..rings)
        .flat_map(|r| {
            (0..8).map(move |i| {
                let angle = std::f64::consts::TAU * i as f64 / 8.0;
                vec![10.0 * r as f64 + angle.cos(), angle.sin()]
            })
        })
        .collect();
    PointCloud::from_points(&points)
}

/// `count` points far apart: Δ₀ at every ε is the zero matrix.
fn scattered_cloud(count: usize) -> PointCloud {
    PointCloud::from_points(&(0..count).map(|i| vec![5.0 * i as f64, 0.0]).collect::<Vec<_>>())
}

/// Checks one unit against the three oracles; returns the Lanczos
/// restarts its decomposition took.
fn check(unit: &Unit) -> u64 {
    let Unit { label, laplacian, beta } = unit;
    let n = laplacian.n_rows();
    let seed = LanczosBackend::default().seed;
    let (padding, delta) = (PaddingScheme::IdentityHalfLambdaMax, Delta::Auto);
    let (sparse, profile) = profiled(|| {
        PaddedSpectrum::of_sparse_laplacian_bounded(
            laplacian,
            padding,
            delta,
            seed,
            LambdaMaxBound::Gershgorin,
        )
    });
    assert_eq!(profile.matvecs, n as u64, "{label}: a full run takes n matvecs");

    let dense = laplacian.to_dense();
    let exact = SymEigen::eigenvalues(&dense);
    let ritz = lanczos_ritz_values(laplacian, seed);
    assert_eq!(ritz.len(), n, "{label}");
    for (i, (got, want)) in ritz.iter().zip(&exact).enumerate() {
        assert!((got - want).abs() <= 1e-10, "{label}: λ_{i} = {got} vs {want}");
    }

    assert_eq!(sparse.kernel_dim(), *beta, "{label}: kernel dimension vs barcode β");

    let reference = PaddedSpectrum::of_laplacian(&dense, padding, delta);
    assert_eq!(sparse.q, reference.q, "{label}");
    for precision in [3usize, 5, 8] {
        let (got, want) = (sparse.p_zero(precision), reference.p_zero(precision));
        assert!((got - want).abs() <= 1e-12, "{label}: p(0) at {precision} bits {got} vs {want}");
    }
    profile.restarts
}

#[test]
fn gearbox_units_across_the_sparse_range_match_the_oracles() {
    let picks = gearbox_units(6);
    let sizes: Vec<usize> = picks.iter().map(|u| u.laplacian.n_rows()).collect();
    assert!(sizes[0] < 80 && sizes[5] > 200, "the picks must span the range: {sizes:?}");
    for unit in &picks {
        check(unit);
    }
}

#[test]
fn degenerate_kernels_match_the_oracles_and_restart() {
    let mut cases = units("12 rings", &ring_cloud(12), SPARSE_MIN..=usize::MAX);
    cases.extend(units("70 scattered points", &scattered_cloud(70), SPARSE_MIN..=usize::MAX));
    assert!(cases.iter().any(|u| u.beta == 12 && u.laplacian.n_rows() == 96), "Δ₁ of the rings");
    let restarts: Vec<u64> = cases.iter().map(check).collect();
    assert!(
        restarts.iter().all(|&r| r > 0),
        "every degenerate kernel must exercise the restart path: {restarts:?}"
    );
}
