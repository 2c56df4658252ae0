//! Quantum phase estimation.
//!
//! Layout convention used across the workspace: precision qubits occupy
//! `[0, p)` (qubit `j` controls `U^{2^j}`), the system register occupies
//! `[p, p + q)`. After the inverse QFT, reading the precision register as
//! an LSB-first integer `m` estimates the eigenphase `θ ≈ m/2^p` of
//! `U|ψ⟩ = e^{2πiθ}|ψ⟩`.

use crate::circuit::Circuit;
use crate::qft::inverse_qft_circuit;
use qtda_linalg::CMat;

/// Builds the textbook QPE circuit for a dense system unitary `u`
/// (`2^q × 2^q`) with `p` precision qubits. Controlled powers `U^{2^j}`
/// are computed by repeated squaring.
pub fn qpe_circuit(u: &CMat, precision: usize) -> Circuit {
    assert!(precision >= 1, "need at least one precision qubit");
    let dim = u.rows();
    assert!(dim.is_power_of_two() && dim > 1, "system unitary must be 2^q, q ≥ 1");
    assert!(u.is_unitary(1e-8), "matrix is not unitary");
    let q = dim.trailing_zeros() as usize;
    let n = precision + q;
    let system: Vec<usize> = (precision..precision + q).collect();

    let mut c = Circuit::new(n);
    for j in 0..precision {
        c.h(j);
    }
    let mut power = u.clone();
    for j in 0..precision {
        c.controlled_unitary(vec![j], system.clone(), power.clone(), format!("U^{}", 1u64 << j));
        if j + 1 < precision {
            power = power.matmul(&power);
        }
    }
    c.append_mapped(&inverse_qft_circuit(precision), &(0..precision).collect::<Vec<_>>());
    c
}

/// Builds a QPE circuit whose controlled powers are *circuits* (e.g.
/// Trotterised evolution) rather than dense matrices: `U^{2^j}` is the
/// base circuit repeated `2^j` times under control of precision qubit
/// `j`. The base circuit must act on `q` system qubits; its qubit `i` is
/// mapped to `precision + i`.
pub fn qpe_circuit_from_evolution(base: &Circuit, precision: usize) -> Circuit {
    assert!(precision >= 1, "need at least one precision qubit");
    let q = base.n_qubits();
    let n = precision + q;
    let map: Vec<usize> = (precision..precision + q).collect();

    // Relocate the base circuit onto the system register.
    let mut relocated = Circuit::new(n);
    relocated.append_mapped(base, &map);

    let mut c = Circuit::new(n);
    for j in 0..precision {
        c.h(j);
    }
    for j in 0..precision {
        let controlled = relocated.controlled(&[j]);
        for _ in 0..(1u64 << j) {
            c.append(&controlled);
        }
    }
    c.append_mapped(&inverse_qft_circuit(precision), &(0..precision).collect::<Vec<_>>());
    c
}

/// The precision-register qubits of a QPE circuit built by this module.
pub fn precision_register(precision: usize) -> Vec<usize> {
    (0..precision).collect()
}

/// The system-register qubits of a QPE circuit built by this module.
pub fn system_register(precision: usize, q: usize) -> Vec<usize> {
    (precision..precision + q).collect()
}

/// `true` when `p`-qubit QPE has a defined outcome distribution here: at
/// least one precision qubit, and few enough that the `2^p` outcomes
/// index a `u64`. The precondition [`qpe_outcome_probability`] asserts,
/// exposed so callers can refuse a bad precision before any work starts.
pub fn is_valid_precision(precision: usize) -> bool {
    precision >= 1 && precision < u64::BITS as usize
}

/// Analytic QPE outcome distribution: the probability that `p`-qubit QPE
/// on an eigenstate of phase `θ ∈ [0, 1)` reads the integer `m`
/// (the Fejér/Dirichlet kernel):
///
/// `Pr[m|θ] = |2^{−p} Σ_k e^{2πik(θ − m/2^p)}|²
///          = sin²(2^p πΔ) / (4^p sin²(πΔ))`, `Δ = θ − m/2^p`.
///
/// # Panics
/// If [`is_valid_precision`] does not hold.
pub fn qpe_outcome_probability(theta: f64, precision: usize, m: u64) -> f64 {
    assert!(is_valid_precision(precision), "no QPE outcome distribution at precision {precision}");
    let big_n = (1u64 << precision) as f64;
    let delta = theta - (m as f64) / big_n;
    // Wrap Δ to (−0.5, 0.5] — phases are periodic.
    let delta = delta - delta.round();
    let s = (std::f64::consts::PI * delta).sin();
    if s.abs() < 1e-15 {
        return 1.0;
    }
    let num = (big_n * std::f64::consts::PI * delta).sin();
    (num * num) / (big_n * big_n * s * s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateVector;
    use qtda_linalg::C64;

    /// diag(e^{2πiθ_0}, e^{2πiθ_1}) on one system qubit.
    fn diag_unitary(thetas: &[f64]) -> CMat {
        CMat::from_diag(
            &thetas.iter().map(|&t| C64::cis(std::f64::consts::TAU * t)).collect::<Vec<_>>(),
        )
    }

    /// Runs QPE on eigenstate `eig_index` and returns the precision-
    /// register distribution.
    fn qpe_distribution(u: &CMat, precision: usize, eig_index: usize) -> Vec<f64> {
        let c = qpe_circuit(u, precision);
        let mut s = StateVector::basis(c.n_qubits(), eig_index << precision);
        c.run(&mut s);
        s.register_probabilities(&precision_register(precision))
    }

    #[test]
    fn exact_phase_is_read_exactly() {
        // θ = 3/8 with 3 precision qubits → outcome 3 with certainty.
        let u = diag_unitary(&[3.0 / 8.0, 0.0]);
        let probs = qpe_distribution(&u, 3, 0);
        assert!((probs[3] - 1.0).abs() < 1e-9, "{probs:?}");
    }

    #[test]
    fn zero_phase_reads_zero() {
        let u = diag_unitary(&[0.0, 0.25]);
        let probs = qpe_distribution(&u, 4, 0);
        assert!((probs[0] - 1.0).abs() < 1e-9);
        // And the other eigenstate reads 4 (= 0.25·16).
        let probs2 = qpe_distribution(&u, 4, 1);
        assert!((probs2[4] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn inexact_phase_matches_analytic_kernel() {
        let theta = 0.3;
        let p = 3;
        let u = diag_unitary(&[theta, 0.7]);
        let probs = qpe_distribution(&u, p, 0);
        for (m, &prob) in probs.iter().enumerate() {
            let expect = qpe_outcome_probability(theta, p, m as u64);
            assert!((prob - expect).abs() < 1e-9, "m = {m}: circuit {prob} vs analytic {expect}");
        }
    }

    #[test]
    fn analytic_kernel_is_a_distribution() {
        for &theta in &[0.0, 0.1234, 0.5, 0.875, 0.9999] {
            for p in 1..=6usize {
                let total: f64 =
                    (0..(1u64 << p)).map(|m| qpe_outcome_probability(theta, p, m)).sum();
                assert!((total - 1.0).abs() < 1e-9, "θ = {theta}, p = {p}: Σ = {total}");
            }
        }
    }

    #[test]
    fn analytic_kernel_peaks_at_nearest_grid_point() {
        let p = 4;
        let theta = 0.30; // nearest grid point: 5/16 = 0.3125
        let best = (0..16u64)
            .max_by(|&a, &b| {
                qpe_outcome_probability(theta, p, a)
                    .partial_cmp(&qpe_outcome_probability(theta, p, b))
                    .unwrap()
            })
            .unwrap();
        assert_eq!(best, 5);
    }

    #[test]
    fn two_qubit_system_register() {
        // 4×4 diagonal unitary; eigenstate 2 has θ = 0.75.
        let u = diag_unitary(&[0.0, 0.25, 0.75, 0.5]);
        let probs = qpe_distribution(&u, 2, 2);
        assert!((probs[3] - 1.0).abs() < 1e-9, "0.75·4 = 3: {probs:?}");
    }

    #[test]
    fn evolution_based_qpe_matches_dense_qpe() {
        // Base evolution circuit: RZ-like diagonal rotation on one qubit.
        let theta0 = 0.0;
        let theta1 = 0.375;
        let mut base = Circuit::new(1);
        base.phase(0, std::f64::consts::TAU * theta1);
        // phase(φ) = diag(1, e^{iφ}) ⇒ eigenphases (0, θ1).
        let u = diag_unitary(&[theta0, theta1]);
        let p = 3;
        let dense = qpe_circuit(&u, p);
        let circ = qpe_circuit_from_evolution(&base, p);
        // Compare on eigenstate |1⟩ of the system register.
        let mut s1 = StateVector::basis(dense.n_qubits(), 1 << p);
        dense.run(&mut s1);
        let mut s2 = StateVector::basis(circ.n_qubits(), 1 << p);
        circ.run(&mut s2);
        let d1 = s1.register_probabilities(&precision_register(p));
        let d2 = s2.register_probabilities(&precision_register(p));
        for (a, b) in d1.iter().zip(&d2) {
            assert!((a - b).abs() < 1e-9);
        }
        assert!((d1[3] - 1.0).abs() < 1e-9, "0.375·8 = 3");
    }

    #[test]
    fn register_helpers() {
        assert_eq!(precision_register(3), vec![0, 1, 2]);
        assert_eq!(system_register(3, 2), vec![3, 4]);
    }

    #[test]
    #[should_panic(expected = "not unitary")]
    fn non_unitary_input_rejected() {
        let m = CMat::from_diag(&[C64::real(2.0), C64::ONE]);
        let _ = qpe_circuit(&m, 2);
    }
}
