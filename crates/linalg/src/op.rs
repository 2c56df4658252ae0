//! The [`LaplacianOp`] abstraction: what the QPE pipeline actually needs
//! from a combinatorial Laplacian.
//!
//! Every stage above the matrix layer — padding (Eq. 7), rescaling
//! (Eqs. 8–9), and the `p(0)` backends — consumes a Laplacian only
//! through `matvec`, its dimension, and a spectral upper bound. Defining
//! that contract as a trait lets the whole pipeline run **sparse-first**:
//! dense [`Mat`] and [`CsrMatrix`] are interchangeable, and iterative
//! algorithms (power iteration, Lanczos) are written once against the
//! trait instead of once per representation.

use crate::matrix::Mat;
use crate::sparse::CsrMatrix;
use std::borrow::Cow;

/// A real symmetric operator standing in for a combinatorial Laplacian.
///
/// Object-safe core (`dim`, `matvec`, `gershgorin_max`, `nnz`,
/// `to_dense`, `dense`) plus sized constructors (`embed_top_left`,
/// `scale_by`) that padding and rescaling use to stay within the same
/// representation.
pub trait LaplacianOp {
    /// Operator dimension (rows of the square matrix).
    fn dim(&self) -> usize;

    /// `A·x`.
    fn matvec(&self, x: &[f64]) -> Vec<f64>;

    /// `A·x` into a caller-owned buffer (`y.len() == dim()`), letting
    /// iterative solvers reuse scratch instead of allocating per
    /// matvec. Implementations must produce bit-identical results to
    /// [`LaplacianOp::matvec`]. The default allocates and copies;
    /// representations with a native kernel override it.
    fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        y.copy_from_slice(&self.matvec(x));
    }

    /// Gershgorin upper bound on the spectrum (the paper's `λ̃_max`).
    fn gershgorin_max(&self) -> f64;

    /// Number of stored entries (dense: all of them; CSR: nonzeros).
    fn nnz(&self) -> usize;

    /// An owned dense copy.
    fn to_dense(&self) -> Mat;

    /// A dense view: borrowed when the operator already is dense,
    /// owned otherwise. Lets dense-only backends avoid copying the
    /// common dense case.
    fn dense(&self) -> Cow<'_, Mat> {
        Cow::Owned(self.to_dense())
    }

    /// Embeds into the top-left of an `n × n` operator whose remaining
    /// diagonal is `fill` (the Eq. 7 padding shape), staying in the same
    /// representation.
    fn embed_top_left(&self, n: usize, fill: f64) -> Self
    where
        Self: Sized;

    /// The operator scaled by `s`, staying in the same representation.
    fn scale_by(&self, s: f64) -> Self
    where
        Self: Sized;
}

impl LaplacianOp for Mat {
    fn dim(&self) -> usize {
        self.rows()
    }

    fn matvec(&self, x: &[f64]) -> Vec<f64> {
        Mat::matvec(self, x)
    }

    fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        Mat::matvec_into(self, x, y);
    }

    fn gershgorin_max(&self) -> f64 {
        crate::gershgorin::max_eigenvalue_bound(self)
    }

    fn nnz(&self) -> usize {
        self.rows() * self.cols()
    }

    fn to_dense(&self) -> Mat {
        self.clone()
    }

    fn dense(&self) -> Cow<'_, Mat> {
        Cow::Borrowed(self)
    }

    fn embed_top_left(&self, n: usize, fill: f64) -> Mat {
        Mat::embed_top_left(self, n, fill)
    }

    fn scale_by(&self, s: f64) -> Mat {
        self.scale(s)
    }
}

impl LaplacianOp for CsrMatrix {
    fn dim(&self) -> usize {
        self.n_rows()
    }

    fn matvec(&self, x: &[f64]) -> Vec<f64> {
        CsrMatrix::matvec(self, x)
    }

    fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        CsrMatrix::matvec_into(self, x, y);
    }

    fn gershgorin_max(&self) -> f64 {
        CsrMatrix::gershgorin_max(self)
    }

    fn nnz(&self) -> usize {
        CsrMatrix::nnz(self)
    }

    fn to_dense(&self) -> Mat {
        CsrMatrix::to_dense(self)
    }

    fn embed_top_left(&self, n: usize, fill: f64) -> CsrMatrix {
        CsrMatrix::embed_top_left(self, n, fill)
    }

    fn scale_by(&self, s: f64) -> CsrMatrix {
        CsrMatrix::scale(self, s)
    }
}

/// Outcome of a [`lambda_max_power_checked`] run: the residual-inflated
/// estimate plus whether the iteration actually converged, so callers
/// needing a *sound* bound can fall back (e.g. to Gershgorin) when it
/// did not.
#[derive(Clone, Copy, Debug)]
pub struct PowerBound {
    /// `ρ + ‖Av − ρv‖` — the Rayleigh quotient inflated by its residual.
    pub estimate: f64,
    /// `true` when the final residual is small relative to the Rayleigh
    /// quotient (the iterate has locked onto an eigenvector; for a
    /// random start vector that eigenvector is the top one with
    /// probability 1).
    pub converged: bool,
}

/// Power-iteration estimate of `λ_max` for a **symmetric PSD** operator,
/// inflated by the final Rayleigh residual so the returned value is a
/// (probabilistic) upper bound suitable for the Eq. 7/9 rescale. It only
/// touches the operator through `matvec` — `O(iterations · nnz)` instead
/// of the dense Gershgorin scan, and usually *tighter* than Gershgorin.
/// Deterministic given `seed`.
///
/// The residual `‖Av − ρv‖` only bounds the distance to the *nearest*
/// eigenvalue, so a run that has not converged (too few iterations)
/// can report a value **below** `λ_max`; use
/// [`lambda_max_power_checked`] when that must be detected.
pub fn lambda_max_power<A: LaplacianOp + ?Sized>(a: &A, iterations: usize, seed: u64) -> f64 {
    lambda_max_power_checked(a, iterations, seed).estimate
}

/// Residual tolerance (relative to the Rayleigh quotient) below which a
/// power iteration counts as converged. Deliberately strict: with
/// clustered top eigenvalues the iterate can sit on a *mixture* whose
/// residual is small (≈ the cluster spread) while `ρ + ‖Av − ρv‖` still
/// undershoots `λ_max`; at 1e-6 relative residual any remaining
/// undershoot is far inside the `δ < 2π` headroom of the rescale.
const POWER_CONVERGENCE_RTOL: f64 = 1e-6;

/// [`lambda_max_power`] with an explicit convergence verdict.
pub fn lambda_max_power_checked<A: LaplacianOp + ?Sized>(
    a: &A,
    iterations: usize,
    seed: u64,
) -> PowerBound {
    let n = a.dim();
    if n == 0 {
        return PowerBound { estimate: 0.0, converged: true };
    }
    let mut next = xorshift_stream(seed);
    let mut v: Vec<f64> = (0..n).map(|_| next()).collect();
    normalise(&mut v);
    let mut rayleigh = 0.0;
    let mut residual = f64::INFINITY;
    let mut av = vec![0.0f64; n];
    for _ in 0..iterations.max(1) {
        a.matvec_into(&v, &mut av);
        crate::profile::record(|p| p.matvecs += 1);
        rayleigh = dot(&av, &v);
        // residual ‖Av − ρv‖ bounds |λ_max − ρ| for symmetric A.
        residual = av
            .iter()
            .zip(&v)
            .map(|(x, y)| (x - rayleigh * y) * (x - rayleigh * y))
            .sum::<f64>()
            .sqrt();
        let norm = av.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm < 1e-14 {
            // Zero operator (PSD ⇒ all eigenvalues 0).
            return PowerBound { estimate: 0.0, converged: true };
        }
        for x in &mut av {
            *x /= norm;
        }
        std::mem::swap(&mut v, &mut av);
    }
    let converged = residual <= POWER_CONVERGENCE_RTOL * rayleigh.abs().max(f64::MIN_POSITIVE);
    PowerBound { estimate: rayleigh + residual, converged }
}

/// The dependency-free xorshift stream behind the power-iteration
/// start vector.
fn xorshift_stream(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn normalise(v: &mut [f64]) {
    let n = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-300);
    for x in v {
        *x /= n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen::SymEigen;

    fn laplacian_path4() -> Mat {
        Mat::from_rows(&[
            vec![1.0, -1.0, 0.0, 0.0],
            vec![-1.0, 2.0, -1.0, 0.0],
            vec![0.0, -1.0, 2.0, -1.0],
            vec![0.0, 0.0, -1.0, 1.0],
        ])
    }

    #[test]
    fn dense_and_sparse_agree_through_the_trait() {
        let m = laplacian_path4();
        let csr = CsrMatrix::from_dense(&m, 0.0);
        let ops: [&dyn LaplacianOp; 2] = [&m, &csr];
        let x = vec![1.0, -2.0, 0.5, 3.0];
        for op in ops {
            assert_eq!(op.dim(), 4);
            let y = op.matvec(&x);
            let reference = m.matvec(&x);
            for (a, b) in y.iter().zip(&reference) {
                assert!((a - b).abs() < 1e-14);
            }
            assert!((op.gershgorin_max() - 4.0).abs() < 1e-12);
            assert!(op.to_dense().max_abs_diff(&m) < 1e-15);
        }
    }

    #[test]
    fn dense_view_borrows_for_mat() {
        let m = laplacian_path4();
        assert!(matches!(LaplacianOp::dense(&m), Cow::Borrowed(_)));
        let csr = CsrMatrix::from_dense(&m, 0.0);
        assert!(matches!(LaplacianOp::dense(&csr), Cow::Owned(_)));
    }

    #[test]
    fn embed_and_scale_stay_in_representation() {
        let m = laplacian_path4();
        let csr = CsrMatrix::from_dense(&m, 0.0);
        let padded_dense = LaplacianOp::embed_top_left(&m, 8, 2.5);
        let padded_sparse = LaplacianOp::embed_top_left(&csr, 8, 2.5);
        assert!(padded_sparse.to_dense().max_abs_diff(&padded_dense) < 1e-15);
        let scaled_dense = m.scale_by(0.25);
        let scaled_sparse = csr.scale_by(0.25);
        assert!(scaled_sparse.to_dense().max_abs_diff(&scaled_dense) < 1e-15);
    }

    #[test]
    fn power_iteration_generic_over_representation() {
        let m = laplacian_path4();
        let csr = CsrMatrix::from_dense(&m, 0.0);
        let exact = SymEigen::eigenvalues(&m).last().copied().unwrap();
        for bound in [lambda_max_power(&m, 200, 42), lambda_max_power(&csr, 200, 42)] {
            assert!(bound >= exact - 1e-9, "bound {bound} < λ_max {exact}");
            assert!(bound <= exact * 1.05 + 1e-9, "bound {bound} far above {exact}");
        }
        // Same seed, same stream, same result across representations.
        assert!((lambda_max_power(&m, 200, 42) - lambda_max_power(&csr, 200, 42)).abs() < 1e-12);
    }
}
