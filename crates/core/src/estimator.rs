//! The QPE Betti-number estimator (paper Eqs. 10–11).
//!
//! `β̃_k = 2^q · p̂(0)` where `p̂(0)` is the observed zero-outcome fraction
//! over `shots` runs of QPE on `e^{iH}` with a maximally mixed input.
//! [`BettiEstimator::new`] reads the exact `p(0)` off the unpadded
//! [`PaddedSpectrum`]; only [`BettiEstimator::with_backend`] pads and
//! rescales a matrix for a [`QpeBackend`]. Either way one body turns
//! `p(0)` into the estimate: sample the shots, scale by `2^q`, subtract
//! the spurious padding zeros.

use crate::backend::{QpeBackend, SpectralBackend};
use crate::padding::{pad_laplacian_bounded, LambdaMaxBound, PaddingScheme};
use crate::scaling::{rescale, Delta};
use crate::spectrum::PaddedSpectrum;
use qtda_linalg::Mat;
use qtda_qsim::measure::sample_zero_count;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Estimator parameters.
#[derive(Clone, Copy, Debug)]
pub struct EstimatorConfig {
    /// Number of QPE precision qubits (the paper sweeps 1–10).
    pub precision_qubits: usize,
    /// Number of measurement shots α (the paper sweeps 10²–10⁶).
    pub shots: usize,
    /// Padding scheme (paper default: identity·λ̃_max/2).
    pub padding: PaddingScheme,
    /// Spectral rescaling strategy.
    pub delta: Delta,
    /// How `λ̃_max` is bounded (paper default: Gershgorin; power
    /// iteration is tighter and matvec-only on the sparse path).
    pub lambda_bound: LambdaMaxBound,
    /// RNG seed for shot sampling (every run is reproducible).
    pub seed: u64,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig {
            precision_qubits: 3,
            shots: 1000,
            padding: PaddingScheme::IdentityHalfLambdaMax,
            delta: Delta::Auto,
            lambda_bound: LambdaMaxBound::Gershgorin,
            seed: 0,
        }
    }
}

/// One Betti-number estimate with its full provenance.
#[derive(Clone, Copy, Debug)]
pub struct BettiEstimate {
    /// Exact zero-outcome probability p(0) of the backend's circuit.
    pub p_zero_exact: f64,
    /// Observed zero fraction p̂(0) over the configured shots.
    pub p_zero_sampled: f64,
    /// Raw estimate `2^q · p̂(0)` before any padding correction.
    pub raw: f64,
    /// Estimate after subtracting spurious padding zeros (equals `raw`
    /// under the paper's identity padding), clamped at 0.
    pub corrected: f64,
    /// System qubits q.
    pub q: usize,
    /// Shots used.
    pub shots: usize,
    /// Spurious padding zeros subtracted in `corrected`.
    pub spurious_zeros: usize,
}

impl BettiEstimate {
    /// The one step from an exact `p(0)` to an estimate: `shots`
    /// Bernoulli(`p(0)`) draws, scaled by `2^q`, minus the spurious
    /// padding zeros (clamped at 0).
    pub(crate) fn sample(
        p_zero_exact: f64,
        q: usize,
        spurious_zeros: usize,
        shots: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let p_zero_sampled = sample_zero_count(p_zero_exact, shots, rng) as f64 / shots as f64;
        BettiEstimate {
            p_zero_exact,
            p_zero_sampled,
            raw: (1usize << q) as f64 * p_zero_sampled,
            corrected: padding_corrected(p_zero_sampled, q, spurious_zeros),
            q,
            shots,
            spurious_zeros,
        }
    }

    /// The corrected estimate rounded to the nearest whole number
    /// (the paper's final step; "can also be fed directly" to ML).
    pub fn rounded(&self) -> usize {
        self.corrected.round().max(0.0) as usize
    }

    /// The *noise-free* estimate `2^q · p(0)` (corrected), what infinite
    /// shots would converge to.
    pub fn exact_value(&self) -> f64 {
        padding_corrected(self.p_zero_exact, self.q, self.spurious_zeros)
    }
}

/// `2^q · p − spurious zeros`, clamped at 0: a zero probability turned
/// into a padding-corrected Betti estimate.
pub(crate) fn padding_corrected(p_zero: f64, q: usize, spurious_zeros: usize) -> f64 {
    ((1usize << q) as f64 * p_zero - spurious_zeros as f64).max(0.0)
}

/// The QPE Betti-number estimator.
pub struct BettiEstimator {
    config: EstimatorConfig,
    /// `None` reads `p(0)` off the unpadded spectrum (the serving path).
    backend: Option<Box<dyn QpeBackend + Send + Sync>>,
}

impl BettiEstimator {
    /// An estimator that reads `p(0)` off the unpadded
    /// [`PaddedSpectrum`] — the analytic spectral response, with no
    /// `2^q` matrix built.
    pub fn new(config: EstimatorConfig) -> Self {
        BettiEstimator { config, backend: None }
    }

    /// An estimator that pads and rescales the Laplacian and hands the
    /// `2^q` matrix to `backend` (the gate-level circuits, or
    /// [`SpectralBackend`] as the padded-matrix reference).
    pub fn with_backend(
        config: EstimatorConfig,
        backend: Box<dyn QpeBackend + Send + Sync>,
    ) -> Self {
        BettiEstimator { config, backend: Some(backend) }
    }

    /// The configuration.
    pub fn config(&self) -> &EstimatorConfig {
        &self.config
    }

    /// The backend name.
    pub fn backend_name(&self) -> &'static str {
        self.backend.as_ref().map_or(SpectralBackend.name(), |backend| backend.name())
    }

    /// Estimates `β̃` for a dense combinatorial Laplacian, using a seed
    /// derived from the config. An empty Laplacian (`|S_k| = 0`) yields
    /// a zero estimate directly.
    pub fn estimate(&self, laplacian: &Mat) -> BettiEstimate {
        if laplacian.rows() == 0 {
            return BettiEstimate {
                p_zero_exact: 0.0,
                p_zero_sampled: 0.0,
                raw: 0.0,
                corrected: 0.0,
                q: 0,
                shots: self.config.shots,
                spurious_zeros: 0,
            };
        }
        let (p_zero, q, spurious_zeros) = self.p_zero(laplacian);
        self.sample(p_zero, q, spurious_zeros)
    }

    /// Estimates `β̃` from a precomputed [`PaddedSpectrum`], reusing a
    /// decomposition the caller already paid for (the spectrum must have
    /// been built with this config's padding/δ/λ̃-bound settings). The
    /// backend is bypassed — the spectrum *is* the spectral response.
    pub fn estimate_from_spectrum(&self, spectrum: &PaddedSpectrum) -> BettiEstimate {
        let p_zero = spectrum.p_zero(self.config.precision_qubits);
        self.sample(p_zero, spectrum.q, spectrum.spurious_zeros)
    }

    /// The infinite-shot estimate `2^q · p(0)` (corrected), bypassing
    /// sampling entirely.
    pub fn estimate_exact(&self, laplacian: &Mat) -> f64 {
        if laplacian.rows() == 0 {
            return 0.0;
        }
        let (p_zero, q, spurious_zeros) = self.p_zero(laplacian);
        padding_corrected(p_zero, q, spurious_zeros)
    }

    /// Exact `p(0)` with the system qubits and spurious zeros of the
    /// padding it was computed at.
    fn p_zero(&self, laplacian: &Mat) -> (f64, usize, usize) {
        let EstimatorConfig { precision_qubits, padding, delta, lambda_bound, .. } = self.config;
        match &self.backend {
            None => {
                let spectrum =
                    PaddedSpectrum::of_laplacian(laplacian, padding, delta, lambda_bound);
                (spectrum.p_zero(precision_qubits), spectrum.q, spectrum.spurious_zeros)
            }
            Some(backend) => {
                let padded = pad_laplacian_bounded(laplacian, padding, lambda_bound);
                let p_zero = backend.p_zero(&rescale(&padded, delta), precision_qubits);
                (p_zero, padded.q, padded.spurious_zeros)
            }
        }
    }

    fn sample(&self, p_zero: f64, q: usize, spurious_zeros: usize) -> BettiEstimate {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        BettiEstimate::sample(p_zero, q, spurious_zeros, self.config.shots, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::StatevectorBackend;
    use qtda_tda::betti::betti_via_rank;
    use qtda_tda::complex::worked_example_complex;
    use qtda_tda::laplacian::combinatorial_laplacian;

    fn worked_example_l1() -> Mat {
        combinatorial_laplacian(&worked_example_complex(), 1)
    }

    #[test]
    fn appendix_a_estimate_rounds_to_one() {
        // 3 precision qubits, 1000 shots — the paper's exact setup.
        let estimator = BettiEstimator::new(EstimatorConfig {
            precision_qubits: 3,
            shots: 1000,
            seed: 7,
            ..EstimatorConfig::default()
        });
        let est = estimator.estimate(&worked_example_l1());
        assert_eq!(est.q, 3);
        assert_eq!(est.rounded(), 1, "β̃₁ must round to the true β₁ = 1 (raw {})", est.raw);
        assert!((est.p_zero_sampled - est.p_zero_exact).abs() < 0.05);
    }

    #[test]
    fn power_iteration_bound_still_recovers_beta() {
        let l = worked_example_l1();
        let estimator = BettiEstimator::new(EstimatorConfig {
            precision_qubits: 8,
            lambda_bound: LambdaMaxBound::PowerIteration { iterations: 200, seed: 3 },
            ..Default::default()
        });
        let exact = estimator.estimate_exact(&l);
        assert!((exact - 1.0).abs() < 0.05, "β̃₁ with power-iteration bound: {exact}");
    }

    #[test]
    fn estimate_is_seed_deterministic() {
        let estimator = BettiEstimator::new(EstimatorConfig { seed: 42, ..Default::default() });
        let l = worked_example_l1();
        let a = estimator.estimate(&l);
        let b = estimator.estimate(&l);
        assert_eq!(a.raw, b.raw);
        assert_eq!(a.p_zero_sampled, b.p_zero_sampled);
    }

    #[test]
    fn different_seeds_vary_but_stay_near_exact() {
        let l = worked_example_l1();
        let mut estimates = Vec::new();
        for seed in 0..10 {
            let estimator = BettiEstimator::new(EstimatorConfig {
                precision_qubits: 4,
                shots: 2000,
                seed,
                ..Default::default()
            });
            estimates.push(estimator.estimate(&l).corrected);
        }
        let mean: f64 = estimates.iter().sum::<f64>() / estimates.len() as f64;
        assert!((mean - 1.0).abs() < 0.5, "mean over seeds {mean}");
    }

    #[test]
    fn more_precision_tightens_exact_estimate() {
        let l = worked_example_l1();
        let truth = betti_via_rank(&worked_example_complex(), 1) as f64;
        let err = |p: usize| {
            let estimator =
                BettiEstimator::new(EstimatorConfig { precision_qubits: p, ..Default::default() });
            (estimator.estimate_exact(&l) - truth).abs()
        };
        assert!(err(8) <= err(2) + 1e-12, "p=2 err {} vs p=8 err {}", err(2), err(8));
        assert!(err(8) < 0.05);
    }

    #[test]
    fn zero_padding_correction_recovers_truth() {
        let l = worked_example_l1();
        let estimator = BettiEstimator::new(EstimatorConfig {
            precision_qubits: 8,
            padding: PaddingScheme::Zeros,
            ..Default::default()
        });
        let exact = estimator.estimate_exact(&l);
        assert!((exact - 1.0).abs() < 0.1, "corrected zero-padding estimate {exact}");
    }

    #[test]
    fn empty_laplacian_estimates_zero() {
        let estimator = BettiEstimator::new(EstimatorConfig::default());
        let est = estimator.estimate(&Mat::zeros(0, 0));
        assert_eq!(est.rounded(), 0);
        assert_eq!(estimator.estimate_exact(&Mat::zeros(0, 0)), 0.0);
    }

    #[test]
    fn zero_laplacian_estimates_full_dimension() {
        // Δ₀ of 3 isolated vertices: β₀ = 3.
        let l = Mat::zeros(3, 3);
        let estimator = BettiEstimator::new(EstimatorConfig {
            precision_qubits: 6,
            shots: 4000,
            seed: 3,
            ..Default::default()
        });
        let est = estimator.estimate(&l);
        assert_eq!(est.rounded(), 3, "raw = {}", est.raw);
    }

    #[test]
    fn statevector_backend_plugs_in() {
        let estimator = BettiEstimator::with_backend(
            EstimatorConfig { precision_qubits: 3, shots: 500, seed: 1, ..Default::default() },
            Box::new(StatevectorBackend),
        );
        assert_eq!(estimator.backend_name(), "statevector");
        let est = estimator.estimate(&worked_example_l1());
        assert_eq!(est.rounded(), 1);
    }

    #[test]
    fn exact_value_matches_estimate_exact() {
        let l = worked_example_l1();
        let estimator = BettiEstimator::new(EstimatorConfig {
            precision_qubits: 5,
            seed: 11,
            ..Default::default()
        });
        let est = estimator.estimate(&l);
        let direct = estimator.estimate_exact(&l);
        assert!((est.exact_value() - direct).abs() < 1e-12);
    }

    #[test]
    fn shots_reduce_sampling_spread() {
        let l = worked_example_l1();
        let spread = |shots: usize| {
            let vals: Vec<f64> = (0..20)
                .map(|seed| {
                    BettiEstimator::new(EstimatorConfig {
                        precision_qubits: 3,
                        shots,
                        seed,
                        ..Default::default()
                    })
                    .estimate(&l)
                    .corrected
                })
                .collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64
        };
        let coarse = spread(50);
        let fine = spread(50_000);
        assert!(fine < coarse, "variance must fall with shots: {coarse} vs {fine}");
    }
}
