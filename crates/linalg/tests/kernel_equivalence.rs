//! Kernel-equivalence suite: the allocation-free, cache-blocked matvec
//! the Lanczos recurrence calls must be a drop-in replacement for the
//! reference `matvec` — **bit-identical** on ragged sparsity patterns
//! straddling every block and parallel-cutover boundary.
//!
//! CI runs this file as its named "Kernel equivalence" step; the
//! benchmark harness (`benches/sparse_vs_dense.rs`) asserts the same
//! identity on its own inputs before any timing, so a kernel that
//! drifts can never post a number.

use qtda_linalg::{CsrMatrix, LaplacianOp, Mat, PAR_ROWS};

/// Deterministic xorshift64* stream in [-1, 1).
fn rng(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }
}

/// A random sparse symmetric matrix with a ragged sparsity pattern:
/// some dense rows, some empty, row lengths varying with the row index
/// so block boundaries and remainders are all exercised.
fn ragged_symmetric(n: usize, seed: u64) -> CsrMatrix {
    let mut next = rng(seed);
    let mut dense = Mat::zeros(n, n);
    for i in 0..n {
        // Row i keeps entries at strides that depend on i: row 0 is
        // dense, later rows thin out, every 7th row stays empty.
        if i % 7 == 3 {
            continue;
        }
        let stride = 1 + i % 5;
        let mut j = i % stride;
        while j < n {
            let v = next();
            dense[(i, j)] = v;
            dense[(j, i)] = v;
            j += stride;
        }
    }
    CsrMatrix::from_dense(&dense, 0.0)
}

fn random_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut next = rng(seed);
    (0..n).map(|_| next()).collect()
}

fn assert_bits_eq(a: &[f64], b: &[f64], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: lengths");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{context}: lane {i} ({x} vs {y})");
    }
}

/// Sizes straddling every kernel regime: sub-block, one block, a ragged
/// tail past a block boundary, and past the `PAR_ROWS` parallel cutover.
fn probe_sizes() -> Vec<usize> {
    vec![1, 3, 17, 64, 128, 131, 300, PAR_ROWS + 37]
}

#[test]
fn matvec_into_is_bit_identical_to_matvec() {
    for (case, n) in probe_sizes().into_iter().enumerate() {
        let m = ragged_symmetric(n, 1000 + case as u64);
        let x = random_vec(n, 2000 + case as u64);
        let reference = m.matvec(&x);
        let mut y = vec![f64::NAN; n];
        m.matvec_into(&x, &mut y);
        assert_bits_eq(&y, &reference, &format!("matvec_into n={n}"));
        // And through the trait object, which the solvers call.
        let op: &dyn LaplacianOp = &m;
        let mut z = vec![f64::NAN; n];
        op.matvec_into(&x, &mut z);
        assert_bits_eq(&z, &reference, &format!("dyn matvec_into n={n}"));
    }
}

#[test]
fn dense_fallback_matvec_into_matches_matvec() {
    for n in [1usize, 5, 33] {
        let mut next = rng(7000 + n as u64);
        let mut dense = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = next();
                dense[(i, j)] = v;
                dense[(j, i)] = v;
            }
        }
        let x = random_vec(n, 8000 + n as u64);
        let reference = dense.matvec(&x);
        let mut y = vec![f64::NAN; n];
        LaplacianOp::matvec_into(&dense, &x, &mut y);
        assert_bits_eq(&y, &reference, &format!("Mat matvec_into n={n}"));
    }
}
