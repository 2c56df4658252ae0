//! Spectral rescaling into the QPE phase window (paper Eqs. 8–9).
//!
//! QPE phases live on the circle: eigenvalues of `H` must sit in
//! `[0, 2π)` or they alias. The paper rescales the padded Laplacian by
//! `δ/λ̃_max` with δ "slightly less than 2π"; the worked example takes
//! δ = λ̃_max = 6 (< 2π), i.e. no rescaling at all when the spectrum
//! already fits.

use crate::padding::{effective_lambda_max, PaddedLaplacian};
use qtda_linalg::Mat;
use std::f64::consts::TAU;

/// Choice of the paper's δ parameter.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum Delta {
    /// `δ = min(λ̃_max, 63/64·2π)`: leave the spectrum untouched when it
    /// already fits below 2π (the worked example's choice), otherwise
    /// compress to just under a full turn.
    #[default]
    Auto,
    /// An explicit δ; must lie in `(0, 2π)`.
    Fixed(f64),
}

/// Maximum δ used by [`Delta::Auto`]: one sixty-fourth short of 2π.
pub const DELTA_MAX: f64 = TAU * 63.0 / 64.0;

impl Delta {
    /// `true` unless an explicit δ falls outside `(0, 2π)` (NaN
    /// included) — the precondition [`Self::resolve`] asserts, exposed
    /// so callers can refuse a bad δ before any work starts.
    pub fn is_valid(self) -> bool {
        match self {
            Delta::Auto => true,
            Delta::Fixed(d) => d > 0.0 && d < TAU,
        }
    }

    /// Resolves to a concrete δ for a given λ̃_max bound.
    ///
    /// # Panics
    /// If [`Self::is_valid`] does not hold.
    pub fn resolve(self, lambda_max: f64) -> f64 {
        match self {
            Delta::Auto => effective_lambda_max(lambda_max).min(DELTA_MAX),
            Delta::Fixed(d) => {
                assert!(self.is_valid(), "δ must lie in (0, 2π), got {d}");
                d
            }
        }
    }
}

/// The QPE Hamiltonian `H = (δ/λ̃_max)·Δ̃` (Eq. 9).
pub fn rescale(padded: &PaddedLaplacian, delta: Delta) -> Mat {
    let bound = effective_lambda_max(padded.lambda_max);
    padded.matrix.scale(delta.resolve(padded.lambda_max) / bound)
}

/// Maps a Laplacian eigenvalue `λ` of the *rescaled* `H` to its QPE phase
/// `θ = λ/2π ∈ [0, 1)`.
pub fn eigenvalue_to_phase(lambda: f64) -> f64 {
    let theta = lambda / TAU;
    theta - theta.floor()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::padding::{pad_laplacian, PaddingScheme};
    use qtda_linalg::eigen::SymEigen;
    use qtda_tda::complex::worked_example_complex;
    use qtda_tda::laplacian::combinatorial_laplacian;

    #[test]
    fn worked_example_is_left_unscaled() {
        // λ̃_max = 6 < 2π ⇒ δ = 6 ⇒ H = Δ̃ (the paper's Appendix A).
        let l1 = combinatorial_laplacian(&worked_example_complex(), 1);
        let padded = pad_laplacian(&l1, PaddingScheme::IdentityHalfLambdaMax);
        let h = rescale(&padded, Delta::Auto);
        assert!(h.max_abs_diff(&padded.matrix) < 1e-12, "δ = λ̃_max ⇒ H = Δ̃");
    }

    #[test]
    fn large_spectrum_is_compressed_below_two_pi() {
        let l = Mat::from_diag(&[0.0, 5.0, 9.0, 14.0]); // λ̃_max = 14 > 2π
        let padded = pad_laplacian(&l, PaddingScheme::IdentityHalfLambdaMax);
        let h = rescale(&padded, Delta::Auto);
        let eigs = SymEigen::eigenvalues(&h);
        for &e in &eigs {
            assert!((0.0..TAU).contains(&(e + 1e-12)), "eigenvalue {e} aliases");
        }
        let top = eigs.last().unwrap();
        assert!((top - DELTA_MAX).abs() < 1e-9, "max eigenvalue lands on δ");
    }

    #[test]
    fn zero_eigenvalues_stay_exactly_zero() {
        let l1 = combinatorial_laplacian(&worked_example_complex(), 1);
        let padded = pad_laplacian(&l1, PaddingScheme::IdentityHalfLambdaMax);
        let h = rescale(&padded, Delta::Fixed(3.0));
        let zeros_before = SymEigen::kernel_dim(&padded.matrix, 1e-8);
        let zeros_after = SymEigen::kernel_dim(&h, 1e-8);
        assert_eq!(zeros_before, zeros_after, "rescaling is kernel-preserving");
    }

    #[test]
    fn fixed_delta_scales_linearly() {
        let l = Mat::from_diag(&[0.0, 4.0]);
        let padded = pad_laplacian(&l, PaddingScheme::IdentityHalfLambdaMax);
        let h = rescale(&padded, Delta::Fixed(2.0));
        assert!((h[(1, 1)] - 4.0 * 2.0 / 4.0).abs() < 1e-12, "λ̃_max = 4, δ = 2");
    }

    #[test]
    fn phase_mapping_wraps_to_unit_interval() {
        assert!((eigenvalue_to_phase(0.0) - 0.0).abs() < 1e-15);
        assert!((eigenvalue_to_phase(TAU / 4.0) - 0.25).abs() < 1e-15);
        assert!((eigenvalue_to_phase(TAU + 0.1) - 0.1 / TAU).abs() < 1e-12, "wraps");
        assert!(eigenvalue_to_phase(TAU * 0.999) < 1.0);
    }

    #[test]
    #[should_panic(expected = "must lie in (0, 2π)")]
    fn out_of_range_fixed_delta_rejected() {
        Delta::Fixed(7.0).resolve(1.0);
    }

    #[test]
    fn zero_laplacian_rescale_is_finite() {
        let l = Mat::zeros(2, 2);
        let padded = pad_laplacian(&l, PaddingScheme::IdentityHalfLambdaMax);
        let h = rescale(&padded, Delta::Auto);
        assert!(h.data().iter().all(|v| v.is_finite()));
    }
}

#[cfg(test)]
mod delta_ablation {
    use super::*;
    use crate::backend::{QpeBackend, SpectralBackend};
    use crate::padding::{pad_laplacian, PaddingScheme};
    use qtda_tda::complex::worked_example_complex;
    use qtda_tda::laplacian::combinatorial_laplacian;

    /// Over-compressing the spectrum (tiny δ) squeezes the nonzero
    /// eigenvalues toward phase 0 and inflates the zero-bin leakage at
    /// fixed precision — the quantitative reason the paper wants δ
    /// "slightly less than 2π" rather than merely "small enough".
    #[test]
    fn small_delta_increases_leakage() {
        let l1 = combinatorial_laplacian(&worked_example_complex(), 1);
        let padded = pad_laplacian(&l1, PaddingScheme::IdentityHalfLambdaMax);
        let precision = 4;
        let p_zero_at = |delta: f64| {
            let h = rescale(&padded, Delta::Fixed(delta));
            SpectralBackend.p_zero(&h, precision)
        };
        let wide = p_zero_at(6.0); // the worked example's choice
        let squeezed = p_zero_at(0.5); // spectrum crammed into [0, 0.5)
                                       // True kernel fraction is 1/8 = 0.125; leakage is the excess.
        assert!(wide - 0.125 < squeezed - 0.125, "wide {wide} vs squeezed {squeezed}");
        assert!(squeezed > 0.3, "compressed spectrum must leak badly: {squeezed}");
    }

    /// δ only rescales phases — the *rounded* estimate stays correct as
    /// long as precision compensates.
    #[test]
    fn delta_choice_recoverable_with_precision() {
        let l1 = combinatorial_laplacian(&worked_example_complex(), 1);
        let padded = pad_laplacian(&l1, PaddingScheme::IdentityHalfLambdaMax);
        let h = rescale(&padded, Delta::Fixed(1.0));
        let p0 = SpectralBackend.p_zero(&h, 9);
        let estimate = 8.0 * p0;
        assert_eq!(estimate.round() as usize, 1, "β̃₁ = {estimate}");
    }
}
