//! Compressed sparse row (CSR) matrices and iterative spectral bounds.
//!
//! Combinatorial Laplacians are extremely sparse (row degree bounded by
//! the simplex adjacency), so large complexes want CSR storage, a
//! cache-blocked rayon-parallel `matvec` (with the allocation-free
//! [`CsrMatrix::matvec_into`] variant for the Lanczos hot loop), and
//! *iterative* spectral estimates instead of dense factorisations:
//!
//! * [`CsrMatrix::lambda_max_power`] — power iteration for λ_max, with a
//!   certified safety margin so it can replace the (often loose)
//!   Gershgorin bound in the paper's Eq. 7 padding;
//! * the Hutchinson/Chebyshev kernel-dimension estimator built on top of
//!   this lives in `qtda-tda::spectral_betti` (the classical baseline of
//!   the paper's reference 15).

use rayon::prelude::*;

/// Row count above which the matvec kernel parallelises. Below it the
/// fork/join overhead of even a warm pool exceeds the kernel itself.
pub const PAR_ROWS: usize = 256;

/// Rows per kernel block. The block schedule is **fixed**: rows are
/// always processed in contiguous `ROW_BLOCK`-row blocks and every
/// block is computed by exactly one worker with a fixed intra-row
/// summation order, so the output is bit-identical at any worker
/// count (1, 2, 8, …) and in any cache state.
const ROW_BLOCK: usize = 128;

/// One CSR row · vector product with a fixed 4-lane summation order.
///
/// Four independent accumulators over the unrolled body (the compiler
/// autovectorises the multiply-adds; the gathers on `x` stay scalar)
/// plus a scalar tail, combined as `(a₀+a₁)+(a₂+a₃)+tail`. The order
/// depends only on the row contents — never on threading — which is
/// what lets `matvec` and `matvec_into` promise bit-identical outputs.
#[inline]
fn row_kernel(cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
    let len = vals.len();
    let quads = len / 4;
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for q in 0..quads {
        let k = 4 * q;
        a0 += vals[k] * x[cols[k] as usize];
        a1 += vals[k + 1] * x[cols[k + 1] as usize];
        a2 += vals[k + 2] * x[cols[k + 2] as usize];
        a3 += vals[k + 3] * x[cols[k + 3] as usize];
    }
    let mut tail = 0.0f64;
    for k in 4 * quads..len {
        tail += vals[k] * x[cols[k] as usize];
    }
    (a0 + a1) + (a2 + a3) + tail
}

/// A sparse matrix in compressed sparse row form.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds from (row, col, value) triplets; duplicates are summed,
    /// exact zeros dropped.
    pub fn from_triplets(
        n_rows: usize,
        n_cols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Self {
        let mut entries: Vec<(usize, usize, f64)> = triplets.into_iter().collect();
        entries.sort_unstable_by_key(|&(r, c, _)| (r, c));

        let mut row_ptr = Vec::with_capacity(n_rows + 1);
        let mut col_idx = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());
        row_ptr.push(0);
        let mut current_row = 0usize;
        let mut i = 0;
        while i < entries.len() {
            let (r, c, mut v) = entries[i];
            assert!(r < n_rows && c < n_cols, "triplet out of bounds");
            i += 1;
            while i < entries.len() && entries[i].0 == r && entries[i].1 == c {
                v += entries[i].2;
                i += 1;
            }
            while current_row < r {
                row_ptr.push(col_idx.len());
                current_row += 1;
            }
            if v != 0.0 {
                col_idx.push(c as u32);
                values.push(v);
            }
        }
        while current_row < n_rows {
            row_ptr.push(col_idx.len());
            current_row += 1;
        }
        CsrMatrix { n_rows, n_cols, row_ptr, col_idx, values }
    }

    /// Builds from triplets **already sorted by `(row, col)`** — the
    /// O(nnz) fast path behind prefix slicing of a presorted triplet
    /// arena (`qtda-tda`'s `LaplacianFiltration`). Semantics match
    /// [`Self::from_triplets`] exactly (duplicates summed in slice
    /// order, exact-zero sums dropped) minus its O(nnz log nnz) sort.
    /// Debug builds verify the sort invariant; release builds trust the
    /// caller.
    pub fn from_sorted_triplets(
        n_rows: usize,
        n_cols: usize,
        triplets: &[(u32, u32, f64)],
    ) -> Self {
        debug_assert!(
            triplets.windows(2).all(|w| (w[0].0, w[0].1) <= (w[1].0, w[1].1)),
            "triplets must be sorted by (row, col)"
        );
        let mut row_ptr = Vec::with_capacity(n_rows + 1);
        let mut col_idx = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        row_ptr.push(0);
        let mut current_row = 0usize;
        let mut i = 0;
        while i < triplets.len() {
            let (r, c, mut v) = triplets[i];
            let r = r as usize;
            assert!(r < n_rows && (c as usize) < n_cols, "triplet out of bounds");
            i += 1;
            while i < triplets.len() && triplets[i].0 as usize == r && triplets[i].1 == c {
                v += triplets[i].2;
                i += 1;
            }
            while current_row < r {
                row_ptr.push(col_idx.len());
                current_row += 1;
            }
            if v != 0.0 {
                col_idx.push(c);
                values.push(v);
            }
        }
        while current_row < n_rows {
            row_ptr.push(col_idx.len());
            current_row += 1;
        }
        CsrMatrix { n_rows, n_cols, row_ptr, col_idx, values }
    }

    /// Converts a dense matrix (entries with |v| ≤ `drop_tol` dropped).
    pub fn from_dense(m: &crate::Mat, drop_tol: f64) -> Self {
        let mut triplets = Vec::new();
        for i in 0..m.rows() {
            for (j, &v) in m.row(i).iter().enumerate() {
                if v.abs() > drop_tol {
                    triplets.push((i, j, v));
                }
            }
        }
        CsrMatrix::from_triplets(m.rows(), m.cols(), triplets)
    }

    /// Densifies (for tests and small systems).
    pub fn to_dense(&self) -> crate::Mat {
        let mut m = crate::Mat::zeros(self.n_rows, self.n_cols);
        for i in 0..self.n_rows {
            for (&c, &v) in self.row_entries(i) {
                m[(i, c as usize)] = v;
            }
        }
        m
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterator over the `(col, value)` entries of row `i`.
    pub fn row_entries(&self, i: usize) -> impl Iterator<Item = (&u32, &f64)> {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi].iter().zip(&self.values[lo..hi])
    }

    /// `y = A·x` (rayon-parallel over row blocks past [`PAR_ROWS`]).
    /// Allocates the output; the hot paths use [`Self::matvec_into`].
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n_rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Allocation-free `y ← A·x` through the cache-blocked kernel.
    ///
    /// Rows are processed in fixed `ROW_BLOCK`-row blocks (parallel
    /// past [`PAR_ROWS`], serial below); each row sums through
    /// `row_kernel`'s fixed 4-lane order, so the result is
    /// bit-identical to [`Self::matvec`] at any worker count.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols, "dimension mismatch");
        assert_eq!(y.len(), self.n_rows, "output dimension mismatch");
        let block = |b: usize, out: &mut [f64]| {
            let base = b * ROW_BLOCK;
            for (r, slot) in out.iter_mut().enumerate() {
                let i = base + r;
                let lo = self.row_ptr[i];
                let hi = self.row_ptr[i + 1];
                *slot = row_kernel(&self.col_idx[lo..hi], &self.values[lo..hi], x);
            }
        };
        if self.n_rows >= PAR_ROWS {
            y.par_chunks_mut(ROW_BLOCK).enumerate().for_each(|(b, out)| block(b, out));
        } else {
            for (b, out) in y.chunks_mut(ROW_BLOCK).enumerate() {
                block(b, out);
            }
        }
    }

    /// Quadratic form `xᵀAx` (square matrices).
    pub fn quadratic_form(&self, x: &[f64]) -> f64 {
        self.matvec(x).iter().zip(x).map(|(y, xi)| y * xi).sum()
    }

    /// Embeds `self` into the top-left of an `n × n` matrix whose
    /// remaining diagonal is `fill` (the Eq. 7 padding shape), staying
    /// sparse. Panics on a non-square input or a shrinking target.
    pub fn embed_top_left(&self, n: usize, fill: f64) -> CsrMatrix {
        assert_eq!(self.n_rows, self.n_cols, "padding requires a square matrix");
        assert!(n >= self.n_rows, "target must not shrink the matrix");
        let extra = if fill != 0.0 { n - self.n_rows } else { 0 };
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.extend_from_slice(&self.row_ptr);
        let mut col_idx = Vec::with_capacity(self.col_idx.len() + extra);
        col_idx.extend_from_slice(&self.col_idx);
        let mut values = Vec::with_capacity(self.values.len() + extra);
        values.extend_from_slice(&self.values);
        for i in self.n_rows..n {
            if fill != 0.0 {
                col_idx.push(i as u32);
                values.push(fill);
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix { n_rows: n, n_cols: n, row_ptr, col_idx, values }
    }

    /// The matrix scaled by `s`, staying sparse. Scaling by exactly zero
    /// drops every stored entry (keeps the "no explicit zeros" invariant).
    pub fn scale(&self, s: f64) -> CsrMatrix {
        if s == 0.0 {
            return CsrMatrix::from_triplets(self.n_rows, self.n_cols, Vec::new());
        }
        let mut out = self.clone();
        for v in &mut out.values {
            *v *= s;
        }
        out
    }

    /// Gershgorin upper bound on the spectrum (square, any symmetry).
    pub fn gershgorin_max(&self) -> f64 {
        assert_eq!(self.n_rows, self.n_cols, "square matrices only");
        if self.n_rows == 0 {
            return 0.0;
        }
        (0..self.n_rows)
            .map(|i| {
                let mut diag = 0.0;
                let mut radius = 0.0;
                for (&c, &v) in self.row_entries(i) {
                    if c as usize == i {
                        diag = v;
                    } else {
                        radius += v.abs();
                    }
                }
                diag + radius
            })
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Power iteration estimate of λ_max for a **symmetric PSD** matrix,
    /// inflated by the final Rayleigh residual so the returned value is a
    /// (probabilistic) upper bound suitable for the Eq. 7/9 rescale.
    /// Deterministic given `seed`. (Thin wrapper over the
    /// representation-generic [`crate::op::lambda_max_power`].)
    pub fn lambda_max_power(&self, iterations: usize, seed: u64) -> f64 {
        assert_eq!(self.n_rows, self.n_cols, "square matrices only");
        crate::op::lambda_max_power(self, iterations, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen::SymEigen;
    use crate::Mat;

    fn laplacian_path4() -> Mat {
        Mat::from_rows(&[
            vec![1.0, -1.0, 0.0, 0.0],
            vec![-1.0, 2.0, -1.0, 0.0],
            vec![0.0, -1.0, 2.0, -1.0],
            vec![0.0, 0.0, -1.0, 1.0],
        ])
    }

    #[test]
    fn dense_roundtrip() {
        let m = laplacian_path4();
        let csr = CsrMatrix::from_dense(&m, 0.0);
        assert_eq!(csr.nnz(), 10);
        assert!(csr.to_dense().max_abs_diff(&m) < 1e-15);
    }

    #[test]
    fn triplets_sum_duplicates_and_drop_zeros() {
        let csr = CsrMatrix::from_triplets(
            2,
            2,
            vec![(0, 0, 1.0), (0, 0, 2.0), (1, 1, 3.0), (1, 0, 0.0)],
        );
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.to_dense()[(0, 0)], 3.0);
        assert_eq!(csr.to_dense()[(1, 0)], 0.0);
    }

    #[test]
    fn from_sorted_triplets_matches_from_triplets() {
        let triplets = vec![
            (0u32, 0u32, 1.0),
            (0, 0, 2.0),
            (0, 2, -1.0),
            (1, 1, 3.0),
            (2, 0, 1.0),
            (2, 0, -1.0),
        ];
        let sorted = CsrMatrix::from_sorted_triplets(3, 3, &triplets);
        let general = CsrMatrix::from_triplets(
            3,
            3,
            triplets.iter().map(|&(r, c, v)| (r as usize, c as usize, v)),
        );
        assert_eq!(sorted, general, "the fast path must be structurally identical");
        assert_eq!(sorted.nnz(), 3, "duplicate (0,0) summed, cancelled (2,0) dropped");
        let empty = CsrMatrix::from_sorted_triplets(2, 2, &[]);
        assert_eq!(empty.nnz(), 0);
        assert_eq!(empty.n_rows(), 2);
    }

    #[test]
    fn matvec_matches_dense() {
        let m = laplacian_path4();
        let csr = CsrMatrix::from_dense(&m, 0.0);
        let x = vec![1.0, -2.0, 0.5, 3.0];
        let sparse = csr.matvec(&x);
        let dense = m.matvec(&x);
        for (a, b) in sparse.iter().zip(&dense) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn large_matvec_parallel_path() {
        let n = 600; // crosses PAR_ROWS
        let triplets: Vec<_> = (0..n)
            .flat_map(|i| {
                let mut row = vec![(i, i, 2.0)];
                if i + 1 < n {
                    row.push((i, i + 1, -1.0));
                    row.push((i + 1, i, -1.0));
                }
                row
            })
            .collect();
        let csr = CsrMatrix::from_triplets(n, n, triplets);
        let x = vec![1.0; n];
        let y = csr.matvec(&x);
        // Tridiagonal Laplacian-like: interior rows sum to 0.
        assert!((y[1]).abs() < 1e-12);
        assert!((y[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gershgorin_matches_dense_version() {
        let m = laplacian_path4();
        let csr = CsrMatrix::from_dense(&m, 0.0);
        assert!((csr.gershgorin_max() - crate::gershgorin::max_eigenvalue_bound(&m)).abs() < 1e-15);
    }

    #[test]
    fn power_iteration_bounds_true_lambda_max() {
        let m = laplacian_path4();
        let csr = CsrMatrix::from_dense(&m, 0.0);
        let exact = SymEigen::eigenvalues(&m).last().copied().unwrap();
        let estimate = csr.lambda_max_power(200, 42);
        assert!(estimate >= exact - 1e-9, "estimate {estimate} < λ_max {exact}");
        assert!(estimate <= exact * 1.05 + 1e-9, "estimate {estimate} far above {exact}");
    }

    #[test]
    fn power_iteration_tighter_than_gershgorin() {
        // Path Laplacian: Gershgorin gives 4, true λ_max < 4.
        let m = laplacian_path4();
        let csr = CsrMatrix::from_dense(&m, 0.0);
        let power = csr.lambda_max_power(300, 7);
        assert!(power < csr.gershgorin_max(), "{power} vs {}", csr.gershgorin_max());
    }

    #[test]
    fn zero_matrix_lambda_max_is_zero() {
        let csr = CsrMatrix::from_triplets(5, 5, Vec::<(usize, usize, f64)>::new());
        assert_eq!(csr.lambda_max_power(50, 3), 0.0);
        assert_eq!(csr.nnz(), 0);
    }

    #[test]
    fn quadratic_form_psd() {
        let m = laplacian_path4();
        let csr = CsrMatrix::from_dense(&m, 0.0);
        for trial in 0..5 {
            let x: Vec<f64> = (0..4).map(|i| ((i * 7 + trial * 3) % 5) as f64 - 2.0).collect();
            assert!(csr.quadratic_form(&x) >= -1e-12, "Laplacians are PSD");
        }
    }

    #[test]
    fn empty_rows_handled() {
        let csr = CsrMatrix::from_triplets(3, 3, vec![(2, 0, 1.0)]);
        assert_eq!(csr.matvec(&[1.0, 1.0, 1.0]), vec![0.0, 0.0, 1.0]);
    }

    /// A pseudo-random sparse Laplacian-shaped matrix crossing the
    /// parallel threshold, with ragged row lengths so the unrolled
    /// kernel's quad body and scalar tail both run.
    fn ragged_csr(n: usize, seed: u64) -> CsrMatrix {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut triplets = Vec::new();
        for i in 0..n {
            triplets.push((i, i, 2.0 + (next() % 7) as f64));
            let deg = (next() % 9) as usize; // 0..=8 off-diagonals
            for _ in 0..deg {
                let j = (next() as usize) % n;
                let v = (next() % 5) as f64 - 2.0;
                triplets.push((i, j, v));
            }
        }
        CsrMatrix::from_triplets(n, n, triplets)
    }

    #[test]
    fn matvec_into_is_bit_identical_to_matvec() {
        for n in [3usize, 57, 600] {
            let csr = ragged_csr(n, 0xBEEF + n as u64);
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let alloc = csr.matvec(&x);
            let mut into = vec![f64::NAN; n];
            csr.matvec_into(&x, &mut into);
            for (a, b) in alloc.iter().zip(&into) {
                assert_eq!(a.to_bits(), b.to_bits(), "n = {n}");
            }
        }
    }
}
