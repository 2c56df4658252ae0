//! Laplacian padding to the nearest power of two (paper Eq. 7).
//!
//! QPE's unitary must act on `2^q` dimensions. The paper pads with an
//! identity block scaled by `λ̃_max/2` — a value strictly inside the
//! spectrum's rescaled range — so the padding introduces no new zero
//! eigenvalues and the estimate needs no correction. The zero-fill
//! alternative of Gyurik et al. adds `2^q − |S_k|` spurious zeros that
//! must be subtracted after estimation; both schemes are implemented so
//! the ablation bench can compare them.
//!
//! Padding is **representation-generic**: [`pad_operator`] works on any
//! [`LaplacianOp`] (dense `Mat` or CSR), and the `λ̃_max` bound it embeds
//! can be the paper's Gershgorin scan or an iterative power-iteration
//! bound ([`LambdaMaxBound`]) that is usually tighter and touches the
//! operator only through `matvec`.

use qtda_linalg::op::{lambda_max_power_checked, LaplacianOp};
use qtda_linalg::Mat;

/// How to fill the padded diagonal.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PaddingScheme {
    /// The paper's scheme: `λ̃_max/2 · I` on the padded block (Eq. 7).
    #[default]
    IdentityHalfLambdaMax,
    /// Zero fill (the baseline the paper argues against): adds
    /// `2^q − |S_k|` spurious zero eigenvalues, recorded in
    /// [`PaddedLaplacian::spurious_zeros`] for post-correction.
    Zeros,
}

/// How the spectral upper bound `λ̃_max` used for padding and rescaling
/// is obtained.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum LambdaMaxBound {
    /// The paper's choice: the Gershgorin circle bound (exact `O(nnz)`
    /// scan, often loose — e.g. 4 vs the true ≈3.9 for path Laplacians).
    #[default]
    Gershgorin,
    /// Power iteration with a Rayleigh-residual safety margin: usually
    /// tighter than Gershgorin (a tighter `λ̃_max` wastes less of the QPE
    /// phase window), matvec-only, deterministic given `seed`.
    PowerIteration {
        /// Number of power-iteration steps.
        iterations: usize,
        /// Seed of the internal start vector.
        seed: u64,
    },
}

impl LambdaMaxBound {
    /// Computes the bound for `laplacian`.
    ///
    /// `PowerIteration` is guarded: a run whose residual has not
    /// converged could report a value *below* the true `λ_max`, which
    /// would alias the top eigenvalues into the QPE zero bin and
    /// silently inflate the Betti estimate — so a non-converged run
    /// falls back to the always-sound Gershgorin bound, and a converged
    /// one is capped by it (the minimum of two upper bounds is the
    /// tighter upper bound).
    pub fn resolve<M: LaplacianOp + ?Sized>(self, laplacian: &M) -> f64 {
        match self {
            LambdaMaxBound::Gershgorin => laplacian.gershgorin_max(),
            LambdaMaxBound::PowerIteration { iterations, seed } => {
                let gershgorin = laplacian.gershgorin_max();
                let power = lambda_max_power_checked(laplacian, iterations, seed);
                if power.converged {
                    power.estimate.min(gershgorin)
                } else {
                    gershgorin
                }
            }
        }
    }
}

/// A Laplacian embedded in `2^q × 2^q`, with the metadata the estimator
/// needs downstream. Generic over the representation (`Mat` by default,
/// `CsrMatrix` on the sparse path).
#[derive(Clone, Debug)]
pub struct PaddedLaplacian<M = Mat> {
    /// The padded matrix `Δ̃` (`2^q × 2^q`).
    pub matrix: M,
    /// Original dimension `|S_k|`.
    pub original_dim: usize,
    /// Number of system qubits `q = max(1, ⌈log₂|S_k|⌉)`.
    pub q: usize,
    /// Upper bound `λ̃_max` of the *original* Laplacian's spectrum (per
    /// the configured [`LambdaMaxBound`]; Gershgorin by default).
    pub lambda_max: f64,
    /// Zero eigenvalues introduced by the padding itself (nonzero only
    /// for [`PaddingScheme::Zeros`]).
    pub spurious_zeros: usize,
    /// The scheme used.
    pub scheme: PaddingScheme,
}

impl<M> PaddedLaplacian<M> {
    /// Padded dimension `2^q`.
    pub fn padded_dim(&self) -> usize {
        1 << self.q
    }

    /// The fill value used on the padded diagonal.
    pub fn fill_value(&self) -> f64 {
        match self.scheme {
            PaddingScheme::IdentityHalfLambdaMax => effective_lambda_max(self.lambda_max) / 2.0,
            PaddingScheme::Zeros => 0.0,
        }
    }
}

/// The Gershgorin bound actually used for padding/rescaling: the paper's
/// `λ̃_max`, replaced by 2 when the Laplacian is (numerically) zero so the
/// downstream rescale `δ/λ̃_max` stays finite. A zero Laplacian has every
/// eigenvalue in the kernel, so any positive stand-in is sound.
pub fn effective_lambda_max(bound: f64) -> f64 {
    if bound < 1e-9 {
        2.0
    } else {
        bound
    }
}

/// Pads any [`LaplacianOp`] per Eq. 7, staying in its representation.
/// Panics on an empty operator (an empty `S_k` has no Laplacian to
/// estimate — callers report β̃ = 0 directly).
pub fn pad_operator<M: LaplacianOp>(
    laplacian: &M,
    scheme: PaddingScheme,
    bound: LambdaMaxBound,
) -> PaddedLaplacian<M> {
    let d = laplacian.dim();
    assert!(d > 0, "cannot pad an empty Laplacian");
    let lambda_max = bound.resolve(laplacian);
    let q = (usize::BITS - (d - 1).leading_zeros()).max(1) as usize; // ⌈log₂ d⌉, min 1
    let target = 1usize << q;
    let fill = match scheme {
        PaddingScheme::IdentityHalfLambdaMax => effective_lambda_max(lambda_max) / 2.0,
        PaddingScheme::Zeros => 0.0,
    };
    let matrix = laplacian.embed_top_left(target, fill);
    let spurious_zeros = match scheme {
        PaddingScheme::IdentityHalfLambdaMax => 0,
        PaddingScheme::Zeros => target - d,
    };
    PaddedLaplacian { matrix, original_dim: d, q, lambda_max, spurious_zeros, scheme }
}

/// Pads a dense combinatorial Laplacian per Eq. 7 with the paper's
/// Gershgorin bound. Panics on a non-square or empty matrix.
pub fn pad_laplacian(laplacian: &Mat, scheme: PaddingScheme) -> PaddedLaplacian {
    assert!(laplacian.is_square(), "Laplacian must be square");
    pad_operator(laplacian, scheme, LambdaMaxBound::Gershgorin)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtda_linalg::eigen::SymEigen;
    use qtda_tda::complex::worked_example_complex;
    use qtda_tda::laplacian::combinatorial_laplacian;

    #[test]
    fn worked_example_padding_matches_eq18() {
        let l1 = combinatorial_laplacian(&worked_example_complex(), 1);
        let padded = pad_laplacian(&l1, PaddingScheme::IdentityHalfLambdaMax);
        assert_eq!(padded.q, 3);
        assert_eq!(padded.padded_dim(), 8);
        assert_eq!(padded.lambda_max, 6.0, "paper: λ̃_max = 6");
        let expect = Mat::from_rows(&[
            vec![3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.0, 3.0, 0.0, -1.0, -1.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 3.0, -1.0, -1.0, 0.0, 0.0, 0.0],
            vec![0.0, -1.0, -1.0, 2.0, 1.0, -1.0, 0.0, 0.0],
            vec![0.0, -1.0, -1.0, 1.0, 2.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, -1.0, 1.0, 2.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0],
        ]);
        assert!(padded.matrix.max_abs_diff(&expect) < 1e-12, "Eq. 18 mismatch");
    }

    #[test]
    fn identity_padding_preserves_kernel_dimension() {
        let l1 = combinatorial_laplacian(&worked_example_complex(), 1);
        let before = SymEigen::kernel_dim(&l1, 1e-8);
        let padded = pad_laplacian(&l1, PaddingScheme::IdentityHalfLambdaMax);
        let after = SymEigen::kernel_dim(&padded.matrix, 1e-8);
        assert_eq!(before, after, "Eq. 7 padding must add no zero eigenvalues");
        assert_eq!(padded.spurious_zeros, 0);
    }

    #[test]
    fn zero_padding_adds_counted_spurious_zeros() {
        let l1 = combinatorial_laplacian(&worked_example_complex(), 1);
        let before = SymEigen::kernel_dim(&l1, 1e-8);
        let padded = pad_laplacian(&l1, PaddingScheme::Zeros);
        let after = SymEigen::kernel_dim(&padded.matrix, 1e-8);
        assert_eq!(after, before + padded.spurious_zeros);
        assert_eq!(padded.spurious_zeros, 2, "6 → 8 adds two");
    }

    #[test]
    fn power_of_two_input_is_not_padded() {
        let l = Mat::from_diag(&[1.0, 2.0, 3.0, 4.0]);
        let padded = pad_laplacian(&l, PaddingScheme::IdentityHalfLambdaMax);
        assert_eq!(padded.q, 2);
        assert_eq!(padded.padded_dim(), 4);
        assert!(padded.matrix.max_abs_diff(&l) < 1e-15);
        assert_eq!(padded.spurious_zeros, 0);
    }

    #[test]
    fn one_by_one_laplacian_gets_one_qubit() {
        let l = Mat::from_diag(&[3.0]);
        let padded = pad_laplacian(&l, PaddingScheme::IdentityHalfLambdaMax);
        assert_eq!(padded.q, 1);
        assert_eq!(padded.padded_dim(), 2);
        assert_eq!(padded.matrix[(1, 1)], 1.5, "fill = λ̃_max/2 = 1.5");
    }

    #[test]
    fn zero_laplacian_uses_effective_bound() {
        // Isolated-vertices Δ₀ = 0: padding must not create a zero fill
        // (the downstream rescale needs a positive λ̃_max stand-in).
        let l = Mat::zeros(3, 3);
        let padded = pad_laplacian(&l, PaddingScheme::IdentityHalfLambdaMax);
        assert_eq!(padded.lambda_max, 0.0);
        assert_eq!(padded.fill_value(), 1.0, "effective λ̃_max = 2 → fill 1");
        assert_eq!(padded.matrix[(3, 3)], 1.0);
        // The three true zeros stay zeros.
        assert_eq!(SymEigen::kernel_dim(&padded.matrix, 1e-9), 3);
    }

    #[test]
    fn sparse_padding_matches_dense_padding() {
        let l1 = combinatorial_laplacian(&worked_example_complex(), 1);
        let sparse = qtda_linalg::CsrMatrix::from_dense(&l1, 0.0);
        for scheme in [PaddingScheme::IdentityHalfLambdaMax, PaddingScheme::Zeros] {
            let dense_pad = pad_laplacian(&l1, scheme);
            let sparse_pad = pad_operator(&sparse, scheme, LambdaMaxBound::Gershgorin);
            assert_eq!(sparse_pad.q, dense_pad.q);
            assert_eq!(sparse_pad.lambda_max, dense_pad.lambda_max);
            assert_eq!(sparse_pad.spurious_zeros, dense_pad.spurious_zeros);
            assert!(sparse_pad.matrix.to_dense().max_abs_diff(&dense_pad.matrix) < 1e-12);
        }
    }

    #[test]
    fn power_iteration_bound_is_tighter_but_sound() {
        // Path Laplacian: Gershgorin gives 4, the true λ_max ≈ 3.902.
        let l = Mat::from_rows(&[
            vec![1.0, -1.0, 0.0, 0.0],
            vec![-1.0, 2.0, -1.0, 0.0],
            vec![0.0, -1.0, 2.0, -1.0],
            vec![0.0, 0.0, -1.0, 1.0],
        ]);
        let power = LambdaMaxBound::PowerIteration { iterations: 300, seed: 9 };
        let padded = pad_operator(&l, PaddingScheme::IdentityHalfLambdaMax, power);
        let exact = SymEigen::eigenvalues(&l).last().copied().unwrap();
        assert!(padded.lambda_max >= exact - 1e-9, "unsound bound {}", padded.lambda_max);
        assert!(
            padded.lambda_max < LambdaMaxBound::Gershgorin.resolve(&l),
            "power bound {} not tighter than Gershgorin",
            padded.lambda_max
        );
        // Tighter λ̃_max ⇒ no new kernel either.
        assert_eq!(SymEigen::kernel_dim(&padded.matrix, 1e-8), SymEigen::kernel_dim(&l, 1e-8));
    }

    #[test]
    fn unconverged_power_iteration_falls_back_to_gershgorin() {
        // One iteration on a 60-vertex path Laplacian cannot converge;
        // the resolved bound must be the sound Gershgorin value, never
        // the (possibly too-small) raw power estimate.
        let n = 60;
        let l = Mat::from_fn(n, n, |i, j| {
            if i == j {
                if i == 0 || i == n - 1 {
                    1.0
                } else {
                    2.0
                }
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        });
        let one_step = LambdaMaxBound::PowerIteration { iterations: 1, seed: 5 }.resolve(&l);
        assert_eq!(one_step, LambdaMaxBound::Gershgorin.resolve(&l));
        // A converged run is capped by Gershgorin (min of two upper
        // bounds) and still dominates the true spectrum.
        let converged = LambdaMaxBound::PowerIteration { iterations: 500, seed: 5 }.resolve(&l);
        let exact = SymEigen::eigenvalues(&l).last().copied().unwrap();
        assert!(converged >= exact - 1e-9);
        assert!(converged <= LambdaMaxBound::Gershgorin.resolve(&l));
    }

    #[test]
    fn q_formula_across_sizes() {
        for (d, expect_q) in [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4), (17, 5)] {
            let l = Mat::identity(d);
            let padded = pad_laplacian(&l, PaddingScheme::IdentityHalfLambdaMax);
            assert_eq!(padded.q, expect_q, "d = {d}");
        }
    }
}
