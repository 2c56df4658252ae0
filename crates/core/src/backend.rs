//! Interchangeable QPE backends on the padded, rescaled matrix.
//!
//! Every backend answers one question: *given the rescaled Hamiltonian
//! `H` and `p` precision qubits, what is the probability `p(0)` that QPE
//! with a maximally mixed input reads phase zero?* Shot noise is layered
//! on top by the estimator (one Bernoulli(`p(0)`) trial per shot), which
//! is statistically identical to sampling the full circuit — see the
//! backend-equivalence tests.
//!
//! Served estimates do not come through here: they read `p(0)` off a
//! [`PaddedSpectrum`](crate::spectrum::PaddedSpectrum), which never
//! builds the `2^q` matrix. Backends serve the gate-level circuits and,
//! in [`SpectralBackend`], the padded-matrix reference that spectrum is
//! pinned against.

use qtda_linalg::eigen::SymEigen;
use qtda_linalg::Mat;
use qtda_qsim::circuit::Circuit;
use qtda_qsim::decompose::PauliDecomposition;
use qtda_qsim::evolution::{exact_unitary, trotter_circuit, TrotterOrder};
use qtda_qsim::mixed::append_mixed_state_prep;
use qtda_qsim::qpe::{qpe_circuit, qpe_circuit_from_evolution, qpe_outcome_probability};
use qtda_qsim::state::StateVector;

/// A way of computing the QPE zero-outcome probability from the padded,
/// rescaled Hamiltonian.
pub trait QpeBackend {
    /// Human-readable backend name (reported by experiment harnesses).
    fn name(&self) -> &'static str;

    /// `p(0)` for `p`-qubit QPE on `U = e^{iH}` with input `I/2^q`.
    fn p_zero(&self, h: &Mat, precision: usize) -> f64;
}

/// Analytic spectral backend: eigendecompose `H`, average the QPE
/// response `Pr[0 | θ_j]` over the eigenphases. Polynomial in the
/// Laplacian size — the only backend that scales to the paper's Fig. 3
/// sweep — and provably distribution-identical to the gate-level circuit.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpectralBackend;

impl QpeBackend for SpectralBackend {
    fn name(&self) -> &'static str {
        "spectral"
    }

    fn p_zero(&self, h: &Mat, precision: usize) -> f64 {
        let eigs = SymEigen::eigenvalues(h);
        let dim = eigs.len() as f64;
        eigs.iter()
            .map(|&lambda| {
                let theta = crate::scaling::eigenvalue_to_phase(lambda);
                qpe_outcome_probability(theta, precision, 0)
            })
            .sum::<f64>()
            / dim
    }
}

/// The sparse route's Lanczos settings: the default `seed` is the start
/// vector of every sparse unit's
/// [`PaddedSpectrum::of_sparse_laplacian_bounded`](crate::spectrum::PaddedSpectrum::of_sparse_laplacian_bounded)
/// run. The run is a full one, so the seed changes only rounding.
#[derive(Clone, Copy, Debug)]
pub struct LanczosBackend {
    /// Seed of the Lanczos start vector (deterministic per seed).
    pub seed: u64,
}

impl Default for LanczosBackend {
    fn default() -> Self {
        LanczosBackend { seed: 0x1A2C_705F }
    }
}

/// Gate-level statevector backend: builds the paper's full circuit
/// (Fig. 6) — ancilla-purified maximally mixed state (Fig. 2), QPE with
/// exact dense controlled powers `U^{2^j}`, inverse QFT — and reads the
/// exact zero-probability of the precision register. Exponential in
/// `p + 2q` qubits; intended for small systems and for validating the
/// spectral backend.
#[derive(Clone, Copy, Debug, Default)]
pub struct StatevectorBackend;

impl StatevectorBackend {
    /// Builds the complete Fig. 6 circuit for `H` (without measurement):
    /// qubits `[0, p)` precision, `[p, p+q)` system, `[p+q, p+2q)`
    /// ancillas.
    pub fn full_circuit(h: &Mat, precision: usize) -> Circuit {
        let dim = h.rows();
        assert!(dim.is_power_of_two() && dim > 1, "H must be padded (2^q, q ≥ 1)");
        let q = dim.trailing_zeros() as usize;
        let u = exact_unitary(h, 1.0);
        let qpe = qpe_circuit(&u, precision);

        let n = precision + 2 * q;
        let mut c = Circuit::new(n);
        let system: Vec<usize> = (precision..precision + q).collect();
        let ancillas: Vec<usize> = (precision + q..precision + 2 * q).collect();
        append_mixed_state_prep(&mut c, &system, &ancillas);
        c.append_mapped(&qpe, &(0..precision + q).collect::<Vec<_>>());
        c
    }
}

impl QpeBackend for StatevectorBackend {
    fn name(&self) -> &'static str {
        "statevector"
    }

    fn p_zero(&self, h: &Mat, precision: usize) -> f64 {
        let c = Self::full_circuit(h, precision);
        let state = c.simulate();
        let register: Vec<usize> = (0..precision).collect();
        state.probability_register_zero(&register)
    }
}

/// Trotterised gate-level backend: like [`StatevectorBackend`] but the
/// controlled powers are product-formula circuits built from the Pauli
/// decomposition of `H` (the paper's Fig. 7 construction). Exposes the
/// product-formula error that an actual near-term implementation incurs.
#[derive(Clone, Copy, Debug)]
pub struct TrotterBackend {
    /// Trotter steps per unit evolution.
    pub steps: usize,
    /// Product-formula order.
    pub order: TrotterOrder,
}

impl Default for TrotterBackend {
    fn default() -> Self {
        TrotterBackend { steps: 8, order: TrotterOrder::Second }
    }
}

impl TrotterBackend {
    /// Builds the gate-level circuit: mixed prep + QPE whose controlled
    /// `U^{2^j}` are repeated Trotter blocks.
    pub fn full_circuit(&self, h: &Mat, precision: usize) -> Circuit {
        let dim = h.rows();
        assert!(dim.is_power_of_two() && dim > 1, "H must be padded (2^q, q ≥ 1)");
        let q = dim.trailing_zeros() as usize;
        let decomposition = PauliDecomposition::of_symmetric(h);
        let base = trotter_circuit(&decomposition, 1.0, self.steps, self.order);
        let qpe = qpe_circuit_from_evolution(&base, precision);

        let n = precision + 2 * q;
        let mut c = Circuit::new(n);
        let system: Vec<usize> = (precision..precision + q).collect();
        let ancillas: Vec<usize> = (precision + q..precision + 2 * q).collect();
        append_mixed_state_prep(&mut c, &system, &ancillas);
        c.append_mapped(&qpe, &(0..precision + q).collect::<Vec<_>>());
        c
    }
}

impl QpeBackend for TrotterBackend {
    fn name(&self) -> &'static str {
        "trotter"
    }

    fn p_zero(&self, h: &Mat, precision: usize) -> f64 {
        let c = self.full_circuit(h, precision);
        let state = c.simulate();
        let register: Vec<usize> = (0..precision).collect();
        state.probability_register_zero(&register)
    }
}

/// Basis-sampled mixed-state evaluation: average the zero-probability of
/// `p`-qubit QPE over every computational basis input. Equivalent to the
/// purified circuit but with `q` fewer qubits; used by tests as a third
/// independent route to `p(0)`.
pub fn p_zero_by_basis_average(h: &Mat, precision: usize) -> f64 {
    let dim = h.rows();
    assert!(dim.is_power_of_two() && dim > 1, "H must be padded");
    let u = exact_unitary(h, 1.0);
    let qpe = qpe_circuit(&u, precision);
    let register: Vec<usize> = (0..precision).collect();
    let mut total = 0.0;
    for b in 0..dim {
        let mut s = StateVector::basis(qpe.n_qubits(), b << precision);
        qpe.run(&mut s);
        total += s.probability_register_zero(&register);
    }
    total / dim as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::padding::{pad_laplacian, PaddingScheme};
    use crate::scaling::{rescale, Delta};
    use qtda_tda::complex::worked_example_complex;
    use qtda_tda::laplacian::combinatorial_laplacian;

    fn worked_example_h() -> Mat {
        let l1 = combinatorial_laplacian(&worked_example_complex(), 1);
        let padded = pad_laplacian(&l1, PaddingScheme::IdentityHalfLambdaMax);
        rescale(&padded, Delta::Auto)
    }

    #[test]
    fn spectral_and_statevector_agree_on_worked_example() {
        let h = worked_example_h();
        for precision in 1..=4 {
            let a = SpectralBackend.p_zero(&h, precision);
            let b = StatevectorBackend.p_zero(&h, precision);
            assert!((a - b).abs() < 1e-9, "p = {precision}: spectral {a} vs statevector {b}");
        }
    }

    #[test]
    fn basis_average_matches_purified_circuit() {
        let h = worked_example_h();
        let p = 3;
        let purified = StatevectorBackend.p_zero(&h, p);
        let averaged = p_zero_by_basis_average(&h, p);
        assert!((purified - averaged).abs() < 1e-9);
    }

    #[test]
    fn worked_example_p_zero_near_paper_value() {
        // Paper Appendix A: 1000 shots gave p(0) = 0.149 ⇒ the exact
        // value must be within binomial noise of that (≈ ±0.023 at 2σ).
        let h = worked_example_h();
        let p0 = SpectralBackend.p_zero(&h, 3);
        assert!(
            (p0 - 0.149).abs() < 0.03,
            "exact p(0) = {p0} too far from the paper's sampled 0.149"
        );
        // And β̃₁ = 2³·p(0) rounds to the true β₁ = 1.
        let estimate = 8.0 * p0;
        assert_eq!(estimate.round() as usize, 1, "β̃₁ = {estimate}");
    }

    #[test]
    fn p_zero_grows_with_kernel_dimension() {
        // diag(0, 0, x, x) has a 2-dim kernel vs diag(0, x, x, x)'s 1-dim.
        let mk = |zeros: usize| {
            let d: Vec<f64> = (0..4).map(|i| if i < zeros { 0.0 } else { 3.0 }).collect();
            let padded = pad_laplacian(&Mat::from_diag(&d), PaddingScheme::IdentityHalfLambdaMax);
            rescale(&padded, Delta::Auto)
        };
        let p = 6;
        let p1 = SpectralBackend.p_zero(&mk(1), p);
        let p2 = SpectralBackend.p_zero(&mk(2), p);
        assert!(p2 > p1, "more kernel mass ⇒ larger p(0): {p1} vs {p2}");
        // With high precision, p(0) ≈ kernel/2^q.
        assert!((p1 - 0.25).abs() < 0.05, "{p1}");
        assert!((p2 - 0.5).abs() < 0.05, "{p2}");
    }

    #[test]
    fn trotter_approaches_exact_with_more_steps() {
        let h = worked_example_h();
        let p = 2;
        let exact = SpectralBackend.p_zero(&h, p);
        let coarse = TrotterBackend { steps: 1, order: TrotterOrder::First }.p_zero(&h, p);
        let fine = TrotterBackend { steps: 12, order: TrotterOrder::Second }.p_zero(&h, p);
        assert!(
            (fine - exact).abs() <= (coarse - exact).abs() + 1e-9,
            "coarse {coarse}, fine {fine}, exact {exact}"
        );
        assert!((fine - exact).abs() < 0.02, "fine Trotter off by {}", (fine - exact).abs());
    }

    #[test]
    fn p_zero_is_a_probability() {
        let h = worked_example_h();
        for p in 1..=5 {
            let v = SpectralBackend.p_zero(&h, p);
            assert!((0.0..=1.0).contains(&v), "p(0) = {v}");
        }
    }

    #[test]
    fn more_precision_reduces_leakage_into_zero() {
        // With no kernel, p(0) should fall toward 0 as precision grows.
        let l = Mat::from_diag(&[2.0, 3.0, 4.0, 5.0]);
        let padded = pad_laplacian(&l, PaddingScheme::IdentityHalfLambdaMax);
        let h = rescale(&padded, Delta::Auto);
        let lo = SpectralBackend.p_zero(&h, 1);
        let hi = SpectralBackend.p_zero(&h, 8);
        assert!(hi < lo, "leakage must shrink: p=1 → {lo}, p=8 → {hi}");
        assert!(hi < 0.02);
    }
}
