//! The QPE-ready spectrum every served estimate reads `p(0)` from.
//!
//! Emulated classically, `p(0)` is the QPE zero-outcome response
//! averaged over the spectrum of the padded, rescaled Laplacian
//! `H = (δ/λ̃_max)·Δ̃` (Eqs. 7–9). The padded block is diagonal, so its
//! `2^q − n` eigenvalues are all the fill value: they form one known
//! point mass. A [`PaddedSpectrum`] therefore decomposes only the
//! *unpadded* `n × n` Laplacian — Jacobi on the dense route
//! ([`PaddedSpectrum::of_laplacian`]), full-run Lanczos on the sparse one
//! ([`PaddedSpectrum::of_sparse_laplacian_bounded`]) — and adds the
//! padding phases as one closed-form term:
//!
//! `2^q · p(0) = Σ_{j<n} f(θ_j) + (2^q − n) · f(θ_fill)`.
//!
//! No `2^q` matrix is ever built. Decomposing once and replaying the
//! analytic response also turns a (shots × precision) sweep such as
//! Fig. 3 into `O(n³ + settings · n)`.

use crate::estimator::{padding_corrected, BettiEstimate};
use crate::padding::{effective_lambda_max, system_qubits, LambdaMaxBound, PaddingScheme};
use crate::scaling::{eigenvalue_to_phase, Delta};
use qtda_linalg::eigen::SymEigen;
use qtda_linalg::lanczos::lanczos_ritz_values;
use qtda_linalg::op::LaplacianOp;
use qtda_linalg::sparse::CsrMatrix;
use qtda_linalg::Mat;
use qtda_qsim::qpe::qpe_outcome_probability;
use rand::Rng;

/// The QPE-ready spectrum of a padded, rescaled Laplacian, kept as its
/// `n` unpadded phases plus the one padding phase and its multiplicity.
#[derive(Clone, Debug)]
pub struct PaddedSpectrum {
    /// QPE phases θ_j ∈ [0, 1) of the `n` unpadded eigenvalues.
    pub phases: Vec<f64>,
    /// QPE phase of the padding eigenvalue, shared by all
    /// [`Self::fill_count`] padded dimensions.
    pub fill_phase: f64,
    /// System qubits.
    pub q: usize,
    /// Spurious zeros to subtract post-estimation (zero-fill padding only).
    pub spurious_zeros: usize,
}

impl PaddedSpectrum {
    /// Builds the spectrum of `H = (δ/λ̃_max)·Δ̃` from a dense unpadded
    /// Laplacian (Jacobi on `n × n`). Panics on an empty matrix.
    pub fn of_laplacian(
        laplacian: &Mat,
        padding: PaddingScheme,
        delta: Delta,
        lambda_bound: LambdaMaxBound,
    ) -> Self {
        Self::from_eigensolver(laplacian, padding, delta, lambda_bound, SymEigen::eigenvalues)
    }

    /// Sparse-path variant: eigenvalues via a full Lanczos run on a CSR
    /// Laplacian (matvec-only; no dense matrix is ever formed).
    /// Deterministic given `seed`.
    pub fn of_sparse_laplacian_bounded(
        laplacian: &CsrMatrix,
        padding: PaddingScheme,
        delta: Delta,
        seed: u64,
        lambda_bound: LambdaMaxBound,
    ) -> Self {
        Self::from_eigensolver(laplacian, padding, delta, lambda_bound, |l| {
            lanczos_ritz_values(l, seed)
        })
    }

    /// The one body behind both constructors: `λ̃_max`, `q`, the fill,
    /// the rescale and the phases, given the unpadded eigenvalues.
    fn from_eigensolver<M: LaplacianOp>(
        laplacian: &M,
        padding: PaddingScheme,
        delta: Delta,
        lambda_bound: LambdaMaxBound,
        eigenvalues: impl FnOnce(&M) -> Vec<f64>,
    ) -> Self {
        let n = laplacian.dim();
        assert!(n > 0, "empty Laplacian has no spectrum");
        let lambda_max = lambda_bound.resolve(laplacian).max(0.0);
        let scale = delta.resolve(lambda_max) / effective_lambda_max(lambda_max);
        let q = system_qubits(n);
        let to_phase = |lambda: f64| eigenvalue_to_phase(lambda * scale);
        let mut eigs = eigenvalues(laplacian);
        snap_kernel_dust(&mut eigs);
        PaddedSpectrum {
            phases: eigs.into_iter().map(to_phase).collect(),
            fill_phase: to_phase(padding.fill(lambda_max)),
            q,
            spurious_zeros: padding.spurious_zeros((1 << q) - n),
        }
    }

    /// Number of padding eigenvalues, `2^q − n`.
    pub fn fill_count(&self) -> usize {
        (1 << self.q) - self.phases.len()
    }

    /// Kernel dimension of the *original* Laplacian: the zeros among the
    /// unpadded phases. Both constructors snap solver dust on kernel
    /// eigenvalues to exactly zero, so this equals β_k (Eq. 6) — the
    /// classical cross-check costs no extra decomposition.
    pub fn kernel_dim(&self) -> usize {
        self.phases.iter().filter(|&&t| t == 0.0).count()
    }

    /// Exact `p(0)` for the given precision: the QPE zero response
    /// summed over the unpadded phases, plus the padding phases as one
    /// closed-form term (equal to [`crate::backend::SpectralBackend`] on
    /// the padded matrix up to rounding).
    pub fn p_zero(&self, precision: usize) -> f64 {
        let response = |theta: f64| qpe_outcome_probability(theta, precision, 0);
        let unpadded = self.phases.iter().map(|&theta| response(theta)).sum::<f64>();
        let padding = self.fill_count() as f64 * response(self.fill_phase);
        (unpadded + padding) / (1usize << self.q) as f64
    }

    /// One shot-sampled, padding-corrected Betti estimate.
    pub fn estimate(&self, precision: usize, shots: usize, rng: &mut impl Rng) -> f64 {
        BettiEstimate::sample(self.p_zero(precision), self.q, self.spurious_zeros, shots, rng)
            .corrected
    }

    /// The infinite-shot estimate.
    pub fn estimate_exact(&self, precision: usize) -> f64 {
        padding_corrected(self.p_zero(precision), self.q, self.spurious_zeros)
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

    const GERSHGORIN: LambdaMaxBound = LambdaMaxBound::Gershgorin;

    fn l1() -> Mat {
        combinatorial_laplacian(&worked_example_complex(), 1)
    }

    fn dense(scheme: PaddingScheme) -> PaddedSpectrum {
        PaddedSpectrum::of_laplacian(&l1(), scheme, Delta::Auto, GERSHGORIN)
    }

    fn sparse(scheme: PaddingScheme, seed: u64, bound: LambdaMaxBound) -> PaddedSpectrum {
        let csr = CsrMatrix::from_dense(&l1(), 0.0);
        PaddedSpectrum::of_sparse_laplacian_bounded(&csr, scheme, Delta::Auto, seed, bound)
    }

    #[test]
    fn matches_full_matrix_backend() {
        let spectrum = dense(PaddingScheme::IdentityHalfLambdaMax);
        let padded = pad_laplacian(&l1(), PaddingScheme::IdentityHalfLambdaMax);
        let h = rescale(&padded, Delta::Auto);
        for p in 1..=6 {
            let fast = spectrum.p_zero(p);
            let slow = SpectralBackend.p_zero(&h, p);
            assert!((fast - slow).abs() < 1e-10, "p = {p}: {fast} vs {slow}");
        }
    }

    #[test]
    fn phases_are_unpadded_with_a_counted_fill() {
        // Δ₁ of the worked example is 6×6, padded to 8 = 2³: six
        // decomposed phases and one fill phase of multiplicity two, at
        // (λ̃_max/2)·(δ/λ̃_max)/2π = 3/2π with δ = λ̃_max = 6.
        let s = dense(PaddingScheme::IdentityHalfLambdaMax);
        assert_eq!(s.phases.len(), 6);
        assert_eq!((s.q, s.fill_count()), (3, 2));
        assert_eq!(s.fill_phase, eigenvalue_to_phase(3.0));
    }

    #[test]
    fn zero_padding_spectrum_counts_spurious() {
        let s = dense(PaddingScheme::Zeros);
        assert_eq!(s.spurious_zeros, 2);
        assert_eq!(s.fill_phase, 0.0);
        // Exact estimate still recovers β₁ = 1 at high precision.
        assert!((s.estimate_exact(9) - 1.0).abs() < 0.05);
    }

    #[test]
    fn sampled_estimate_concentrates() {
        let s = dense(PaddingScheme::IdentityHalfLambdaMax);
        let mut rng = StdRng::seed_from_u64(1);
        let estimate = s.estimate(8, 100_000, &mut rng);
        assert!((estimate - s.estimate_exact(8)).abs() < 0.05);
    }

    #[test]
    fn sparse_lanczos_path_matches_dense_path() {
        let dense_spectrum = dense(PaddingScheme::IdentityHalfLambdaMax);
        let sparse_spectrum = sparse(PaddingScheme::IdentityHalfLambdaMax, 13, GERSHGORIN);
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
        let s = sparse(PaddingScheme::Zeros, 7, GERSHGORIN);
        assert_eq!(s.spurious_zeros, 2);
        assert!((s.estimate_exact(9) - 1.0).abs() < 0.05);
    }

    #[test]
    fn kernel_dim_reads_off_both_constructors_and_schemes() {
        for scheme in [PaddingScheme::IdentityHalfLambdaMax, PaddingScheme::Zeros] {
            // β₁ of the worked example is 1; padding zeros must not
            // leak into the count under either scheme.
            assert_eq!(dense(scheme).kernel_dim(), 1, "{scheme:?} dense");
            assert_eq!(sparse(scheme, 13, GERSHGORIN).kernel_dim(), 1, "{scheme:?} sparse");
        }
    }

    #[test]
    fn bounded_constructor_with_power_iteration_still_recovers_beta() {
        let power = LambdaMaxBound::PowerIteration { iterations: 200, seed: 3 };
        let s = sparse(PaddingScheme::IdentityHalfLambdaMax, 13, power);
        assert_eq!(s.kernel_dim(), 1);
        assert!((s.estimate_exact(9) - 1.0).abs() < 0.05);
    }

    #[test]
    fn zero_laplacian_phases_all_zero() {
        let s = PaddedSpectrum::of_laplacian(
            &Mat::zeros(3, 3),
            PaddingScheme::IdentityHalfLambdaMax,
            Delta::Auto,
            GERSHGORIN,
        );
        assert_eq!(s.kernel_dim(), 3);
        assert!(s.fill_phase > 0.0, "the fill adds no zero");
        assert!((s.estimate_exact(8) - 3.0).abs() < 0.05);
    }
}
