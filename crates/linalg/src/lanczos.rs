//! Lanczos tridiagonalisation for sparse symmetric matrices.
//!
//! The dense Jacobi eigensolver is cubic with a dense-matrix footprint;
//! for the large, very sparse combinatorial Laplacians of bigger
//! complexes the Lanczos process needs only `matvec`s — it is therefore
//! written against the [`LaplacianOp`] abstraction and works for any
//! representation (CSR in practice; dense for cross-checks). With full
//! reorthogonalisation and a complete `n`-step run it reproduces the
//! exact spectrum behind the sparse route of `qtda-core`'s
//! `PaddedSpectrum`.

use crate::op::LaplacianOp;
use crate::profile;

/// Eigenvalues of a symmetric tridiagonal matrix, ascending, by the
/// implicit-shift QL of EISPACK `tql1`. `diag` is the diagonal, `off`
/// the subdiagonal (`off.len() == diag.len() − 1`).
pub fn tridiagonal_eigenvalues(diag: &[f64], off: &[f64]) -> Vec<f64> {
    let n = diag.len();
    assert!(n > 0, "empty matrix");
    assert_eq!(off.len() + 1, n, "off-diagonal length must be n − 1");
    let mut d = diag.to_vec();
    // e is padded to length n with a trailing zero (classic tql layout).
    let mut e: Vec<f64> = off.to_vec();
    e.push(0.0);

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a small subdiagonal element to split at.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            assert!(iter <= 50, "tridiagonal QL failed to converge");

            // Form the implicit shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let radius = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + radius.copysign(g));
            let (mut s, mut c) = (1.0f64, 1.0f64);
            let mut p = 0.0f64;
            // A rotation whose radius underflows to zero splits the
            // matrix: the sweep stops and restarts on the shorter block
            // without the closing update (Numerical Recipes'
            // `r == 0 && i >= l`). Only that early stop may skip it — a
            // completed sweep whose last product happens to be zero
            // must still close.
            let mut split = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                let r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    split = true;
                    break;
                }
                s = f / r;
                c = g / r;
                let shifted = d[i + 1] - p;
                let r = (d[i] - shifted) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = shifted + p;
                g = c * r - b;
            }
            if split {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    d.sort_by(|a, b| a.partial_cmp(b).expect("NaN eigenvalue"));
    d
}

/// The internal xorshift stream (keeps linalg dependency-free).
fn xorshift(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }
}

/// Runs the full (`n`-step) Lanczos recurrence with full
/// reorthogonalisation and returns the Ritz values: the exact spectrum,
/// ascending. Deterministic given `seed`, bit-identical at any worker
/// count.
pub fn lanczos_ritz_values<A: LaplacianOp + ?Sized>(a: &A, seed: u64) -> Vec<f64> {
    let (alphas, betas) = lanczos_tridiagonal(a, seed);
    if alphas.is_empty() {
        return Vec::new();
    }
    tridiagonal_eigenvalues(&alphas, &betas[..alphas.len() - 1])
}

/// The Lanczos three-term recurrence with full reorthogonalisation:
/// up to `n` iterations from the seeded random start vector, returning
/// the tridiagonal coefficients `(α, β)` (`β.len() ≥ α.len() − 1`;
/// [`lanczos_ritz_values`] slices to exactly that).
///
/// * The basis lives in one preallocated column-major `n × n` slab, so
///   no step allocates.
/// * Each residual is reorthogonalised against the whole basis by
///   classical Gram–Schmidt ([`gram_schmidt`]) under the Kahan–Parlett
///   "twice is enough" test: a second pass runs only when the first
///   removed more than half of `‖w‖²`, the cancellation that can leave
///   one pass short of working precision. A restart direction is always
///   orthogonalised twice.
/// * Every inner product takes the fixed-order [`dot`], and the matvec
///   sums its rows in a fixed order, so the coefficients are
///   bit-identical at any worker count.
fn lanczos_tridiagonal<A: LaplacianOp + ?Sized>(a: &A, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let n = a.dim();
    if n == 0 {
        return (Vec::new(), Vec::new());
    }
    let mut next = xorshift(seed);

    // Basis column j is `basis[j·n..(j + 1)·n]`.
    let mut basis = vec![0.0f64; n * n];
    let mut alphas: Vec<f64> = Vec::with_capacity(n);
    let mut betas: Vec<f64> = Vec::with_capacity(n);
    // The Gram–Schmidt coefficients and the matvec / residual scratch.
    let mut h = vec![0.0f64; n];
    let mut w = vec![0.0f64; n];

    basis[..n].fill_with(&mut next);
    normalise(&mut basis[..n]);

    for j in 0..n {
        let (done, rest) = basis.split_at_mut((j + 1) * n);
        let v = &done[j * n..];
        a.matvec_into(v, &mut w);
        profile::record(|p| {
            p.matvecs += 1;
            p.lanczos_iterations += 1;
        });
        let alpha = dot(&w, v);
        alphas.push(alpha);
        if j + 1 == n {
            break;
        }
        axpy(-alpha, v, &mut w);
        if let Some(prev) = j.checked_sub(1) {
            axpy(-betas[prev], &done[prev * n..j * n], &mut w);
        }
        let before = dot(&w, &w);
        let mut norm2 = gram_schmidt(done, &mut w, &mut h);
        if norm2 < 0.5 * before {
            norm2 = gram_schmidt(done, &mut w, &mut h);
        }
        let mut beta = norm2.sqrt();
        if beta < 1e-12 {
            // Invariant subspace exhausted: restart with a fresh random
            // direction orthogonal to the basis.
            profile::record(|p| p.restarts += 1);
            w.fill_with(&mut next);
            gram_schmidt(done, &mut w, &mut h);
            beta = gram_schmidt(done, &mut w, &mut h).sqrt();
            if beta < 1e-12 {
                break; // true dimension exhausted
            }
            betas.push(0.0);
        } else {
            betas.push(beta);
        }
        for (slot, wi) in rest[..n].iter_mut().zip(&w) {
            *slot = wi / beta;
        }
    }

    (alphas, betas)
}

/// One classical Gram–Schmidt pass of `w` against the column-major
/// basis columns in `basis` (each `w.len()` long): `h = Vᵀw`, then
/// `w −= V·h`. Returns `‖w‖²` after the pass. Columns go two at a time,
/// so each sweep over `w` serves two columns; every inner product and
/// every update keeps the bits of its one-column form.
fn gram_schmidt(basis: &[f64], w: &mut [f64], h: &mut [f64]) -> f64 {
    let n = w.len();
    let k = basis.len() / n;
    let column = |i: usize| &basis[i * n..(i + 1) * n];
    for i in (0..k - 1).step_by(2) {
        [h[i], h[i + 1]] = dots([column(i), column(i + 1)], w);
    }
    if k % 2 == 1 {
        h[k - 1] = dot(column(k - 1), w);
    }
    for i in (0..k - 1).step_by(2) {
        axpys([-h[i], -h[i + 1]], [column(i), column(i + 1)], w);
    }
    if k % 2 == 1 {
        axpy(-h[k - 1], column(k - 1), w);
    }
    dot(w, w)
}

/// `y += s·x`.
fn axpy(s: f64, x: &[f64], y: &mut [f64]) {
    axpys([s], [x], y);
}

/// `y += Σ_l s_l·x_l`, each entry updated column after column: the
/// bits of `K` successive [`axpy`] calls from one sweep over `y`.
fn axpys<const K: usize>(s: [f64; K], xs: [&[f64]; K], y: &mut [f64]) {
    for (r, yr) in y.iter_mut().enumerate() {
        for (sl, xl) in s.iter().zip(xs) {
            *yr += sl * xl[r];
        }
    }
}

/// Inner product in a fixed 4-lane order: four partial sums over the
/// unrolled body plus a scalar tail, combined as `(s₀+s₁)+(s₂+s₃)+tail`
/// (the order of `sparse.rs`'s row kernel). The independent lanes let
/// the compiler vectorise; the order depends only on the length.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    dots([a], b)[0]
}

/// [`dot`] of each of `K` vectors with `y`, from one sweep over `y`.
fn dots<const K: usize>(xs: [&[f64]; K], y: &[f64]) -> [f64; K] {
    let body = y.len() - y.len() % 4;
    let mut lanes = [[0.0f64; 4]; K];
    for e in (0..body).step_by(4) {
        let yq: &[f64; 4] = y[e..e + 4].try_into().expect("a four-wide chunk");
        for (s, x) in lanes.iter_mut().zip(xs) {
            let xq: &[f64; 4] = x[e..e + 4].try_into().expect("a four-wide chunk");
            for l in 0..4 {
                s[l] += xq[l] * yq[l];
            }
        }
    }
    std::array::from_fn(|i| {
        let mut tail = 0.0f64;
        for e in body..y.len() {
            tail += xs[i][e] * y[e];
        }
        let s = lanes[i];
        (s[0] + s[1]) + (s[2] + s[3]) + tail
    })
}

fn normalise(v: &mut [f64]) {
    let n = dot(v, v).sqrt().max(1e-300);
    for x in v {
        *x /= n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen::SymEigen;
    use crate::sparse::CsrMatrix;
    use crate::Mat;

    fn assert_spectra_match(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len(), "{a:?} vs {b:?}");
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    /// The dense symmetric matrix of a tridiagonal `(diag, off)` pair.
    fn tridiagonal_dense(diag: &[f64], off: &[f64]) -> Mat {
        Mat::from_fn(diag.len(), diag.len(), |i, j| match i.abs_diff(j) {
            0 => diag[i],
            1 => off[i.min(j)],
            _ => 0.0,
        })
    }

    /// Kernel dimension of a full Lanczos run.
    fn lanczos_kernel_dim(a: &CsrMatrix, tol: f64, seed: u64) -> usize {
        lanczos_ritz_values(a, seed).iter().filter(|l| l.abs() <= tol).count()
    }

    #[test]
    fn tridiagonal_known_spectrum() {
        // Tridiag(-1, 2, -1) of size n has eigenvalues 2−2cos(kπ/(n+1)).
        let n = 8;
        let diag = vec![2.0; n];
        let off = vec![-1.0; n - 1];
        let got = tridiagonal_eigenvalues(&diag, &off);
        let expect: Vec<f64> = (1..=n)
            .map(|k| 2.0 - 2.0 * (k as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos())
            .collect();
        assert_spectra_match(&got, &expect, 1e-10);
    }

    #[test]
    fn tridiagonal_diagonal_case() {
        let got = tridiagonal_eigenvalues(&[3.0, -1.0, 2.0], &[0.0, 0.0]);
        assert_spectra_match(&got, &[-1.0, 2.0, 3.0], 1e-12);
    }

    #[test]
    fn tridiagonal_single_entry() {
        assert_eq!(tridiagonal_eigenvalues(&[5.5], &[]), vec![5.5]);
    }

    #[test]
    fn ql_closes_a_completed_sweep_whose_last_product_is_zero() {
        // The first sweep runs to completion with a final product
        // (d[0] − shifted)·s + 2·c·b of exactly 0. A solver that takes
        // that zero for an early split skips the closing update and
        // returns [−0.9766, 0.8490, 4.1275]: the right trace, the wrong
        // spectrum.
        let (diag, off) = ([2.0, 2.0, 0.0], [2.0, -1.0]);
        let got = tridiagonal_eigenvalues(&diag, &off);
        let jacobi = SymEigen::eigenvalues(&tridiagonal_dense(&diag, &off));
        assert_spectra_match(&got, &jacobi, 1e-12);
        assert_spectra_match(&got, &[-0.7616, 0.6367, 4.1249], 1e-4);
    }

    #[test]
    fn ql_matches_jacobi_on_every_small_integer_tridiagonal() {
        // Every unreduced tridiagonal with n ≤ 5, diagonal entries in
        // {0, 1, 2, 3} and off-diagonal entries in {−1, 1, 2}.
        const DIAG: [f64; 4] = [0.0, 1.0, 2.0, 3.0];
        const OFF: [f64; 3] = [-1.0, 1.0, 2.0];
        let mut checked = 0;
        for n in 1..=5usize {
            for code in 0..DIAG.len().pow(n as u32) * OFF.len().pow(n as u32 - 1) {
                let mut rest = code;
                let mut pick = |choices: &[f64]| {
                    let value = choices[rest % choices.len()];
                    rest /= choices.len();
                    value
                };
                let diag: Vec<f64> = (0..n).map(|_| pick(&DIAG)).collect();
                let off: Vec<f64> = (1..n).map(|_| pick(&OFF)).collect();
                let got = tridiagonal_eigenvalues(&diag, &off);
                let jacobi = SymEigen::eigenvalues(&tridiagonal_dense(&diag, &off));
                for (x, y) in got.iter().zip(&jacobi) {
                    assert!((x - y).abs() < 1e-10, "{diag:?} / {off:?}: {got:?} vs {jacobi:?}");
                }
                checked += 1;
            }
        }
        assert_eq!(checked, 4 + 4 * 4 * 3 + 64 * 9 + 256 * 27 + 1024 * 81);
    }

    #[test]
    fn full_lanczos_matches_jacobi() {
        let m = Mat::from_rows(&[
            vec![3.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.0, 3.0, 0.0, -1.0, -1.0, 0.0],
            vec![0.0, 0.0, 3.0, -1.0, -1.0, 0.0],
            vec![0.0, -1.0, -1.0, 2.0, 1.0, -1.0],
            vec![0.0, -1.0, -1.0, 1.0, 2.0, 1.0],
            vec![0.0, 0.0, 0.0, -1.0, 1.0, 2.0],
        ]);
        let csr = CsrMatrix::from_dense(&m, 0.0);
        let lanczos = lanczos_ritz_values(&csr, 17);
        let jacobi = SymEigen::eigenvalues(&m);
        assert_spectra_match(&lanczos, &jacobi, 1e-8);
    }

    #[test]
    fn full_lanczos_on_pseudo_random_matrix() {
        let n = 24;
        let mut state = 0xABCDu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let raw = Mat::from_fn(n, n, |_, _| next());
        let sym = raw.add(&raw.transpose()).scale(0.5);
        let csr = CsrMatrix::from_dense(&sym, 0.0);
        let lanczos = lanczos_ritz_values(&csr, 3);
        let jacobi = SymEigen::eigenvalues(&sym);
        assert_spectra_match(&lanczos, &jacobi, 1e-7);
    }

    #[test]
    fn kernel_dim_matches_dense_route() {
        // Degenerate kernel (two components → 2 zero eigenvalues) — the
        // hard case for plain Lanczos, handled by the restart logic.
        let m = Mat::from_rows(&[
            vec![1.0, -1.0, 0.0, 0.0],
            vec![-1.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0, -1.0],
            vec![0.0, 0.0, -1.0, 1.0],
        ]);
        let csr = CsrMatrix::from_dense(&m, 0.0);
        assert_eq!(lanczos_kernel_dim(&csr, 1e-8, 11), SymEigen::kernel_dim(&m, 1e-8));
    }

    #[test]
    fn zero_matrix_full_kernel() {
        let csr = CsrMatrix::from_triplets(5, 5, Vec::<(usize, usize, f64)>::new());
        let ((), profile) = crate::profile::profiled(|| {
            assert_eq!(lanczos_kernel_dim(&csr, 1e-10, 1), 5);
        });
        assert_eq!(profile.restarts, 4, "every step after the first restarts");
    }

    #[test]
    fn empty_matrix() {
        let csr = CsrMatrix::from_triplets(0, 0, Vec::<(usize, usize, f64)>::new());
        assert!(lanczos_ritz_values(&csr, 1).is_empty());
    }

    #[test]
    fn dot_sums_in_the_fixed_four_lane_order() {
        let a: Vec<f64> = (0..11).map(|i| 1.0 + i as f64 * 1e-9).collect();
        let b: Vec<f64> = (0..11).map(|i| (i as f64 * 0.7).sin()).collect();
        let lane = |k: usize| (k..8).step_by(4).map(|i| a[i] * b[i]).fold(0.0, |s, t| s + t);
        let tail = (8..11).map(|i| a[i] * b[i]).fold(0.0, |s, t| s + t);
        let expect = (lane(0) + lane(1)) + (lane(2) + lane(3)) + tail;
        assert_eq!(dot(&a, &b).to_bits(), expect.to_bits());
        assert_eq!(dot(&[], &[]), 0.0);
    }

    /// A pseudo-random sparse Laplacian-like PSD matrix: `BᵀB` for a
    /// sparse-ish random `B` (so it has a plausible kernel).
    fn random_psd(n: usize, seed: u64) -> CsrMatrix {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let b = Mat::from_fn(n, n, |_, _| if next() > 0.2 { 0.0 } else { next() });
        let psd = b.transpose().matmul(&b);
        CsrMatrix::from_dense(&psd, 1e-15)
    }

    #[test]
    fn full_lanczos_matches_jacobi_on_random_psd_matrices() {
        for (n, seed) in [(6usize, 17u64), (24, 3), (40, 9), (96, 5)] {
            let csr = random_psd(n, seed);
            let lanczos = lanczos_ritz_values(&csr, 17);
            let jacobi = SymEigen::eigenvalues(&csr.to_dense());
            assert_spectra_match(&lanczos, &jacobi, 1e-9);
        }
    }
}
