//! Precomputed padded spectra for large parameter sweeps.
//!
//! The Fig. 3 experiment evaluates the same Laplacian under 50
//! (shots × precision) settings. Eigendecomposing once and replaying the
//! analytic QPE response per setting turns an `O(settings · d³)` sweep
//! into `O(d³ + settings · d)`. Padding eigenvalues are appended
//! analytically (the padded block is diagonal), so the decomposition runs
//! at the *original* dimension.

use crate::padding::{effective_lambda_max, LambdaMaxBound, PaddingScheme};
use crate::scaling::{eigenvalue_to_phase, Delta};
use qtda_linalg::eigen::SymEigen;
use qtda_linalg::gershgorin::max_eigenvalue_bound;
use qtda_linalg::lanczos::lanczos_ritz_values;
use qtda_linalg::sparse::CsrMatrix;
use qtda_linalg::Mat;
use qtda_qsim::measure::sample_zero_count;
use qtda_qsim::qpe::qpe_outcome_probability;
use rand::Rng;

/// The QPE-ready spectrum of a padded, rescaled Laplacian.
#[derive(Clone, Debug)]
pub struct PaddedSpectrum {
    /// QPE phases θ_j ∈ [0, 1) of all `2^q` eigenvalues.
    pub phases: Vec<f64>,
    /// System qubits.
    pub q: usize,
    /// Spurious zeros to subtract post-estimation (zero-fill padding only).
    pub spurious_zeros: usize,
}

impl PaddedSpectrum {
    /// Builds the spectrum of `H = (δ/λ̃_max)·Δ̃` from an unpadded
    /// Laplacian. Panics on an empty matrix.
    pub fn of_laplacian(laplacian: &Mat, padding: PaddingScheme, delta: Delta) -> Self {
        assert!(laplacian.rows() > 0, "empty Laplacian has no spectrum");
        let d = laplacian.rows();
        let lambda_max = max_eigenvalue_bound(laplacian);
        let bound = effective_lambda_max(lambda_max);
        let resolved_delta = delta.resolve(lambda_max);
        let scale = resolved_delta / bound;

        let q = (usize::BITS - (d - 1).leading_zeros()).max(1) as usize;
        let target = 1usize << q;
        let (fill, spurious_zeros) = match padding {
            PaddingScheme::IdentityHalfLambdaMax => (bound / 2.0, 0),
            PaddingScheme::Zeros => (0.0, target - d),
        };

        let mut eigs = SymEigen::eigenvalues(laplacian);
        snap_kernel_dust(&mut eigs);
        eigs.extend(std::iter::repeat_n(fill, target - d));
        let phases = eigs.into_iter().map(|l| eigenvalue_to_phase(l * scale)).collect();
        PaddedSpectrum { phases, q, spurious_zeros }
    }

    /// Sparse-path variant: eigenvalues via a full Lanczos run on a CSR
    /// Laplacian (matvec-only; no dense matrix is ever formed). Intended
    /// for large sparse complexes where Jacobi's dense O(d³) is the
    /// bottleneck. Deterministic given `seed`.
    pub fn of_sparse_laplacian(
        laplacian: &CsrMatrix,
        padding: PaddingScheme,
        delta: Delta,
        seed: u64,
    ) -> Self {
        Self::of_sparse_laplacian_bounded(
            laplacian,
            padding,
            delta,
            seed,
            LambdaMaxBound::Gershgorin,
        )
    }

    /// [`Self::of_sparse_laplacian`] with an explicit `λ̃_max` strategy
    /// (e.g. the power-iteration bound on very large complexes).
    pub fn of_sparse_laplacian_bounded(
        laplacian: &CsrMatrix,
        padding: PaddingScheme,
        delta: Delta,
        seed: u64,
        lambda_bound: LambdaMaxBound,
    ) -> Self {
        let d = laplacian.n_rows();
        assert!(d > 0, "empty Laplacian has no spectrum");
        let lambda_max = lambda_bound.resolve(laplacian).max(0.0);
        let bound = effective_lambda_max(lambda_max);
        let resolved_delta = delta.resolve(lambda_max);
        let scale = resolved_delta / bound;

        let q = (usize::BITS - (d - 1).leading_zeros()).max(1) as usize;
        let target = 1usize << q;
        let (fill, spurious_zeros) = match padding {
            PaddingScheme::IdentityHalfLambdaMax => (bound / 2.0, 0),
            PaddingScheme::Zeros => (0.0, target - d),
        };

        let mut eigs = lanczos_ritz_values(laplacian, seed);
        snap_kernel_dust(&mut eigs);
        eigs.extend(std::iter::repeat_n(fill, target - d));
        let phases = eigs.into_iter().map(|l| eigenvalue_to_phase(l * scale)).collect();
        PaddedSpectrum { phases, q, spurious_zeros }
    }

    /// Kernel dimension of the *original* Laplacian, read off the
    /// precomputed spectrum for free: zero phases minus the zeros the
    /// padding itself introduced. Both constructors snap solver dust on
    /// kernel eigenvalues to exactly zero, so this equals β_k (Eq. 6) —
    /// the classical cross-check costs no extra decomposition.
    pub fn kernel_dim(&self) -> usize {
        let zero_phases = self.phases.iter().filter(|&&t| t == 0.0).count();
        zero_phases - self.spurious_zeros
    }

    /// Exact `p(0)` for the given precision (identical to
    /// [`crate::backend::SpectralBackend`] on the padded matrix).
    pub fn p_zero(&self, precision: usize) -> f64 {
        self.phases.iter().map(|&theta| qpe_outcome_probability(theta, precision, 0)).sum::<f64>()
            / self.phases.len() as f64
    }

    /// One shot-sampled, padding-corrected Betti estimate.
    pub fn estimate(&self, precision: usize, shots: usize, rng: &mut impl Rng) -> f64 {
        let p0 = self.p_zero(precision);
        let zeros = sample_zero_count(p0, shots, rng);
        let raw = (1usize << self.q) as f64 * zeros as f64 / shots as f64;
        (raw - self.spurious_zeros as f64).max(0.0)
    }

    /// The infinite-shot estimate.
    pub fn estimate_exact(&self, precision: usize) -> f64 {
        let raw = (1usize << self.q) as f64 * self.p_zero(precision);
        (raw - self.spurious_zeros as f64).max(0.0)
    }
}

/// Eigensolvers leave O(1e-8) numerical dust on exact kernel values;
/// snap anything within the integer Laplacian's safe window so kernel
/// phases are exactly zero.
fn snap_kernel_dust(eigs: &mut [f64]) {
    for e in eigs {
        if e.abs() < 1e-7 {
            *e = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{QpeBackend, SpectralBackend};
    use crate::padding::pad_laplacian;
    use crate::scaling::rescale;
    use qtda_tda::complex::worked_example_complex;
    use qtda_tda::laplacian::combinatorial_laplacian;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn l1() -> Mat {
        combinatorial_laplacian(&worked_example_complex(), 1)
    }

    #[test]
    fn matches_full_matrix_backend() {
        let spectrum =
            PaddedSpectrum::of_laplacian(&l1(), PaddingScheme::IdentityHalfLambdaMax, Delta::Auto);
        let padded = pad_laplacian(&l1(), PaddingScheme::IdentityHalfLambdaMax);
        let h = rescale(&padded, Delta::Auto);
        for p in 1..=6 {
            let fast = spectrum.p_zero(p);
            let slow = SpectralBackend.p_zero(&h, p);
            assert!((fast - slow).abs() < 1e-10, "p = {p}: {fast} vs {slow}");
        }
    }

    #[test]
    fn phase_count_is_padded_dimension() {
        let s =
            PaddedSpectrum::of_laplacian(&l1(), PaddingScheme::IdentityHalfLambdaMax, Delta::Auto);
        assert_eq!(s.phases.len(), 8);
        assert_eq!(s.q, 3);
    }

    #[test]
    fn zero_padding_spectrum_counts_spurious() {
        let s = PaddedSpectrum::of_laplacian(&l1(), PaddingScheme::Zeros, Delta::Auto);
        assert_eq!(s.spurious_zeros, 2);
        // Exact estimate still recovers β₁ = 1 at high precision.
        assert!((s.estimate_exact(9) - 1.0).abs() < 0.05);
    }

    #[test]
    fn sampled_estimate_concentrates() {
        let s =
            PaddedSpectrum::of_laplacian(&l1(), PaddingScheme::IdentityHalfLambdaMax, Delta::Auto);
        let mut rng = StdRng::seed_from_u64(1);
        let estimate = s.estimate(8, 100_000, &mut rng);
        assert!((estimate - s.estimate_exact(8)).abs() < 0.05);
    }

    #[test]
    fn sparse_lanczos_path_matches_dense_path() {
        let dense_spectrum =
            PaddedSpectrum::of_laplacian(&l1(), PaddingScheme::IdentityHalfLambdaMax, Delta::Auto);
        let csr = CsrMatrix::from_dense(&l1(), 0.0);
        let sparse_spectrum = PaddedSpectrum::of_sparse_laplacian(
            &csr,
            PaddingScheme::IdentityHalfLambdaMax,
            Delta::Auto,
            13,
        );
        assert_eq!(sparse_spectrum.q, dense_spectrum.q);
        for p in [2usize, 5, 8] {
            let a = dense_spectrum.p_zero(p);
            let b = sparse_spectrum.p_zero(p);
            assert!((a - b).abs() < 1e-6, "p = {p}: dense {a} vs sparse {b}");
        }
        assert!((sparse_spectrum.estimate_exact(9) - 1.0).abs() < 0.05);
    }

    #[test]
    fn sparse_path_zero_padding_correction() {
        let csr = CsrMatrix::from_dense(&l1(), 0.0);
        let s = PaddedSpectrum::of_sparse_laplacian(&csr, PaddingScheme::Zeros, Delta::Auto, 7);
        assert_eq!(s.spurious_zeros, 2);
        assert!((s.estimate_exact(9) - 1.0).abs() < 0.05);
    }

    #[test]
    fn kernel_dim_reads_off_both_constructors_and_schemes() {
        let csr = CsrMatrix::from_dense(&l1(), 0.0);
        for scheme in [PaddingScheme::IdentityHalfLambdaMax, PaddingScheme::Zeros] {
            let dense = PaddedSpectrum::of_laplacian(&l1(), scheme, Delta::Auto);
            let sparse = PaddedSpectrum::of_sparse_laplacian(&csr, scheme, Delta::Auto, 13);
            // β₁ of the worked example is 1; padding zeros must not
            // leak into the count under either scheme.
            assert_eq!(dense.kernel_dim(), 1, "{scheme:?} dense");
            assert_eq!(sparse.kernel_dim(), 1, "{scheme:?} sparse");
        }
    }

    #[test]
    fn bounded_constructor_with_power_iteration_still_recovers_beta() {
        use crate::padding::LambdaMaxBound;
        let csr = CsrMatrix::from_dense(&l1(), 0.0);
        let s = PaddedSpectrum::of_sparse_laplacian_bounded(
            &csr,
            PaddingScheme::IdentityHalfLambdaMax,
            Delta::Auto,
            13,
            LambdaMaxBound::PowerIteration { iterations: 200, seed: 3 },
        );
        assert_eq!(s.kernel_dim(), 1);
        assert!((s.estimate_exact(9) - 1.0).abs() < 0.05);
    }

    #[test]
    fn zero_laplacian_phases_all_zero() {
        let s = PaddedSpectrum::of_laplacian(
            &Mat::zeros(3, 3),
            PaddingScheme::IdentityHalfLambdaMax,
            Delta::Auto,
        );
        assert_eq!(s.phases.iter().filter(|&&t| t == 0.0).count(), 3);
        assert!((s.estimate_exact(8) - 3.0).abs() < 0.05);
    }
}
