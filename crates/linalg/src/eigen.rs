//! Symmetric eigendecomposition via the cyclic Jacobi method.
//!
//! Combinatorial Laplacians are real symmetric and small-to-moderate
//! (≤ a few hundred rows for the paper's workloads), which is squarely the
//! regime where the Jacobi method is attractive: simple, unconditionally
//! stable, and it delivers both eigenvalues and an orthonormal eigenbasis
//! to near machine precision.

use crate::matrix::Mat;

/// Result of a symmetric eigendecomposition: `a = V · diag(λ) · Vᵀ`.
#[derive(Clone, Debug)]
pub struct SymEigen {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors; column `j` pairs with `values[j]`.
    pub vectors: Mat,
}

/// Maximum number of Jacobi sweeps before giving up.
const MAX_SWEEPS: usize = 100;

impl SymEigen {
    /// Decomposes a symmetric matrix. Panics if `a` is not square or not
    /// symmetric within `1e-9`.
    pub fn decompose(a: &Mat) -> SymEigen {
        assert!(a.is_square(), "eigendecomposition requires a square matrix");
        assert!(a.is_symmetric(1e-9), "matrix is not symmetric");
        let n = a.rows();
        let mut m = a.clone();
        let mut v = Mat::identity(n);

        if n <= 1 {
            return SymEigen { values: (0..n).map(|i| m[(i, i)]).collect(), vectors: v };
        }

        // Convergence threshold relative to the matrix scale; an absolute
        // floor keeps the all-zero matrix from spinning.
        let scale = m.frobenius_norm().max(1.0);
        let tol = 1e-14 * scale;

        for _sweep in 0..MAX_SWEEPS {
            let off = off_diagonal_norm(&m);
            if off <= tol {
                break;
            }
            for p in 0..n - 1 {
                for q in p + 1..n {
                    let apq = m[(p, q)];
                    if apq.abs() <= tol / (n * n) as f64 {
                        continue;
                    }
                    let (c, s) = jacobi_rotation(m[(p, p)], m[(q, q)], apq);
                    apply_rotation(&mut m, p, q, c, s);
                    accumulate_vectors(&mut v, p, q, c, s);
                }
            }
        }

        let mut values: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
        // Sort ascending, permuting eigenvector columns along.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| values[i].partial_cmp(&values[j]).expect("NaN eigenvalue"));
        let vectors = Mat::from_fn(n, n, |i, j| v[(i, order[j])]);
        values.sort_by(|x, y| x.partial_cmp(y).expect("NaN eigenvalue"));
        SymEigen { values, vectors }
    }

    /// Eigenvalues only (same cost as the full decomposition here; kept as
    /// a semantic convenience).
    pub fn eigenvalues(a: &Mat) -> Vec<f64> {
        Self::decompose(a).values
    }

    /// Counts eigenvalues with `|λ| ≤ tol` — the kernel dimension, which
    /// for a combinatorial Laplacian is the Betti number (paper Eq. 6).
    pub fn kernel_dim(a: &Mat, tol: f64) -> usize {
        Self::eigenvalues(a).iter().filter(|l| l.abs() <= tol).count()
    }

    /// Reconstructs `V · diag(λ) · Vᵀ` (used by tests and `expm`).
    pub fn reconstruct(&self) -> Mat {
        let n = self.values.len();
        let scaled = Mat::from_fn(n, n, |i, j| self.vectors[(i, j)] * self.values[j]);
        scaled.matmul(&self.vectors.transpose())
    }
}

/// Frobenius norm of the strictly upper triangle.
fn off_diagonal_norm(m: &Mat) -> f64 {
    let n = m.rows();
    let mut s = 0.0;
    for i in 0..n {
        for j in i + 1..n {
            s += m[(i, j)] * m[(i, j)];
        }
    }
    s.sqrt()
}

/// Computes the (cos, sin) of the Jacobi rotation that zeroes `a[p][q]`,
/// using the numerically stable formulation from Golub & Van Loan §8.5.
fn jacobi_rotation(app: f64, aqq: f64, apq: f64) -> (f64, f64) {
    let tau = (aqq - app) / (2.0 * apq);
    let t = if tau >= 0.0 {
        1.0 / (tau + (1.0 + tau * tau).sqrt())
    } else {
        -1.0 / (-tau + (1.0 + tau * tau).sqrt())
    };
    let c = 1.0 / (1.0 + t * t).sqrt();
    (c, t * c)
}

/// Applies the two-sided rotation `Jᵀ · m · J` in place on rows/cols `p, q`.
fn apply_rotation(m: &mut Mat, p: usize, q: usize, c: f64, s: f64) {
    let n = m.rows();
    for k in 0..n {
        let mkp = m[(k, p)];
        let mkq = m[(k, q)];
        m[(k, p)] = c * mkp - s * mkq;
        m[(k, q)] = s * mkp + c * mkq;
    }
    for k in 0..n {
        let mpk = m[(p, k)];
        let mqk = m[(q, k)];
        m[(p, k)] = c * mpk - s * mqk;
        m[(q, k)] = s * mpk + c * mqk;
    }
}

/// Accumulates the rotation into the eigenvector matrix: `v ← v · J`.
fn accumulate_vectors(v: &mut Mat, p: usize, q: usize, c: f64, s: f64) {
    let n = v.rows();
    for k in 0..n {
        let vkp = v[(k, p)];
        let vkq = v[(k, q)];
        v[(k, p)] = c * vkp - s * vkq;
        v[(k, q)] = s * vkp + c * vkq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn diagonal_matrix_eigenvalues_sorted() {
        let a = Mat::from_diag(&[3.0, -1.0, 2.0]);
        let e = SymEigen::decompose(&a);
        assert_eq!(e.values.len(), 3);
        assert_close(e.values[0], -1.0, 1e-12);
        assert_close(e.values[1], 2.0, 1e-12);
        assert_close(e.values[2], 3.0, 1e-12);
    }

    #[test]
    fn two_by_two_known_spectrum() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = Mat::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let e = SymEigen::decompose(&a);
        assert_close(e.values[0], 1.0, 1e-12);
        assert_close(e.values[1], 3.0, 1e-12);
    }

    #[test]
    fn reconstruction_matches_original() {
        let a = Mat::from_rows(&[
            vec![4.0, 1.0, -2.0, 2.0],
            vec![1.0, 2.0, 0.0, 1.0],
            vec![-2.0, 0.0, 3.0, -2.0],
            vec![2.0, 1.0, -2.0, -1.0],
        ]);
        let e = SymEigen::decompose(&a);
        assert!(e.reconstruct().max_abs_diff(&a) < 1e-9);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = Mat::from_fn(6, 6, |i, j| 1.0 / (1.0 + (i as f64 - j as f64).abs()));
        let e = SymEigen::decompose(&a);
        let vtv = e.vectors.transpose().matmul(&e.vectors);
        assert!(vtv.max_abs_diff(&Mat::identity(6)) < 1e-9);
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a =
            Mat::from_fn(8, 8, |i, j| ((i * j) % 5) as f64 * 0.5 + if i == j { 2.0 } else { 0.0 })
                .add(&Mat::from_fn(8, 8, |i, j| ((j * i) % 5) as f64 * 0.5))
                .scale(0.5);
        let sym = a.add(&a.transpose()).scale(0.5);
        let e = SymEigen::decompose(&sym);
        assert_close(e.values.iter().sum::<f64>(), sym.trace(), 1e-9);
    }

    #[test]
    fn kernel_dim_counts_zero_eigenvalues() {
        // Graph Laplacian of two disconnected edges: kernel dim = number of
        // components = 2.
        let a = Mat::from_rows(&[
            vec![1.0, -1.0, 0.0, 0.0],
            vec![-1.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0, -1.0],
            vec![0.0, 0.0, -1.0, 1.0],
        ]);
        assert_eq!(SymEigen::kernel_dim(&a, 1e-9), 2);
    }

    #[test]
    fn worked_example_laplacian_has_one_zero_eigenvalue() {
        // Δ₁ from the paper's Appendix A (Eq. 17): β₁ = 1.
        let a = Mat::from_rows(&[
            vec![3.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.0, 3.0, 0.0, -1.0, -1.0, 0.0],
            vec![0.0, 0.0, 3.0, -1.0, -1.0, 0.0],
            vec![0.0, -1.0, -1.0, 2.0, 1.0, -1.0],
            vec![0.0, -1.0, -1.0, 1.0, 2.0, 1.0],
            vec![0.0, 0.0, 0.0, -1.0, 1.0, 2.0],
        ]);
        assert_eq!(SymEigen::kernel_dim(&a, 1e-9), 1);
        // Laplacians are PSD.
        let e = SymEigen::decompose(&a);
        assert!(e.values.iter().all(|&l| l > -1e-9));
    }

    #[test]
    fn zero_matrix_has_full_kernel() {
        let a = Mat::zeros(5, 5);
        assert_eq!(SymEigen::kernel_dim(&a, 1e-12), 5);
    }

    #[test]
    fn one_by_one() {
        let a = Mat::from_rows(&[vec![7.5]]);
        let e = SymEigen::decompose(&a);
        assert_eq!(e.values, vec![7.5]);
    }

    #[test]
    fn moderately_large_random_symmetric() {
        // Deterministic pseudo-random symmetric 64×64; checks residual
        // ‖AV − VΛ‖ instead of exact values.
        let n = 64;
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let raw = Mat::from_fn(n, n, |_, _| next());
        let a = raw.add(&raw.transpose()).scale(0.5);
        let e = SymEigen::decompose(&a);
        let av = a.matmul(&e.vectors);
        let vl = Mat::from_fn(n, n, |i, j| e.vectors[(i, j)] * e.values[j]);
        assert!(av.max_abs_diff(&vl) < 1e-8);
    }
}
