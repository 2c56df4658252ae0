//! Sequential ascending ε-sweeps over a [`LaplacianFiltration`] with
//! **warm-started spectral bounds**.
//!
//! The prefix Laplacian only grows along an ascending grid, so its
//! dominant eigenspace moves slowly from one slice to the next. A
//! [`FiltrationSweep`] exploits that two ways:
//!
//! * the appearance-order Δ_k is maintained **incrementally** across
//!   slices ([`LaplacianFiltration::extend_appearance_laplacian`]):
//!   each step merges only the triplets activated since the previous ε;
//! * the λ̃_max power iteration **restarts from the previous slice's
//!   converged iterate** ([`lambda_max_power_adaptive`] with
//!   [`PowerStart::Warm`]), padding any new coordinates from a seeded
//!   stream — typically converging in a fraction of the cold-start
//!   matvecs (the sweep counts them; see
//!   [`FiltrationSweep::power_iterations_used`]).
//!
//! Soundness is guarded twice. As with
//! [`LambdaMaxBound::PowerIteration`], a non-converged run falls back
//! to Gershgorin and a converged one is capped by it. Warm starts need
//! one more check: a stale iterate that is exactly orthogonal to an
//! eigenspace the new triplets made dominant would *falsely* report
//! convergence below λ_max, so every warm-converged bound is verified
//! against a short cold probe (any Rayleigh quotient lower-bounds
//! λ_max on a symmetric matrix; a probe above the bound proves it
//! unsound and forces the Gershgorin fallback — pinned by the
//! two-cluster regression test). The surviving value is handed to the
//! estimator as [`LambdaMaxBound::Fixed`].
//!
//! Warm bounds change the rescale's `λ̃_max` (usually tightening it),
//! so estimates are *not* bit-identical to the default Gershgorin
//! pipeline — they are a different, equally sound operating point.
//! Construct the sweep with [`WarmLambda::Off`] to get the plain
//! arena path, bit-identical to [`betti_curve`](crate::pipeline::betti_curve)
//! and to single-unit filtration queries
//! ([`BettiRequest::of_filtration`](crate::query::BettiRequest::of_filtration)).

use crate::backend::{LanczosBackend, StatevectorBackend};
use crate::estimator::{BettiEstimate, BettiEstimator, EstimatorConfig};
use crate::padding::LambdaMaxBound;
use crate::pipeline::{BackendKind, DispatchPolicy};
use crate::query::BettiRequest;
use crate::spectrum::PaddedSpectrum;
use qtda_linalg::op::{lambda_max_power_adaptive, PowerStart};
use qtda_linalg::CsrMatrix;
use qtda_tda::laplacian_filtration::LaplacianFiltration;
use std::sync::Arc;

/// Whether (and how) the sweep warm-starts its λ̃_max bounds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WarmLambda {
    /// No warm bounds: every slice uses the estimator config's own
    /// `lambda_bound` — bit-identical to the parallel arena sweep.
    Off,
    /// Warm-started, convergence-guarded power-iteration bounds.
    On {
        /// Per-slice matvec cap for the adaptive power iteration.
        max_iterations: usize,
        /// Seed for cold starts and new-coordinate fill.
        seed: u64,
    },
}

/// Per-dimension carry-over between slices.
struct DimState {
    /// The appearance-order Δ_k of the previous slice plus the arena
    /// prefix it consumed — the incremental-extension handoff.
    matrix: Option<(CsrMatrix, usize)>,
    /// The previous slice's final power iterate (appearance indices
    /// are stable across slices, so it transfers directly).
    vector: Option<Vec<f64>>,
    /// The previous slice's sparse-route decomposition, keyed by
    /// `(consumed prefix, n_rows, λ̃-bound bits)`. When a slice
    /// activates no new `k`-triplets and its bound lands on the same
    /// bits, Δ_k is unchanged and the full Lanczos run — the dominant
    /// per-slice cost — is skipped with the bit-identical spectrum.
    spectrum: Option<((usize, usize, u64), Arc<PaddedSpectrum>)>,
}

/// A sequential, ascending ε-sweep with per-dimension warm state. One
/// instance per (filtration, estimator config); feed it the grid in
/// ascending order via [`Self::estimate_at`].
pub struct FiltrationSweep<'a> {
    filtration: &'a LaplacianFiltration,
    max_homology_dim: usize,
    estimator: EstimatorConfig,
    policy: DispatchPolicy,
    warm: WarmLambda,
    state: Vec<DimState>,
    last_epsilon: Option<f64>,
    power_iterations: u64,
    spectrum_reuses: u64,
}

impl<'a> FiltrationSweep<'a> {
    /// A sweep over `filtration` for dimensions `0..=max_homology_dim`.
    pub fn new(
        filtration: &'a LaplacianFiltration,
        max_homology_dim: usize,
        estimator: EstimatorConfig,
        policy: DispatchPolicy,
        warm: WarmLambda,
    ) -> Self {
        FiltrationSweep {
            filtration,
            max_homology_dim,
            estimator,
            policy,
            warm,
            state: (0..=max_homology_dim)
                .map(|_| DimState { matrix: None, vector: None, spectrum: None })
                .collect(),
            last_epsilon: None,
            power_iterations: 0,
            spectrum_reuses: 0,
        }
    }

    /// Total power-iteration matvecs spent on λ̃_max bounds so far —
    /// compare against a cold-start sweep to see what warm starting
    /// saves.
    pub fn power_iterations_used(&self) -> u64 {
        self.power_iterations
    }

    /// Sparse-route Lanczos decompositions skipped so far because the
    /// slice's Δ_k prefix (and its λ̃ bound) were unchanged from the
    /// previous slice.
    pub fn spectra_reused(&self) -> u64 {
        self.spectrum_reuses
    }

    /// Estimates every dimension at `epsilon`, which must not be below
    /// the previous call's scale (ascending grids are what make the
    /// incremental extension and the warm start valid).
    pub fn estimate_at(&mut self, epsilon: f64) -> Vec<(BettiEstimate, usize)> {
        if let Some(last) = self.last_epsilon {
            // `<` rather than `!(≥)`: a NaN scale is tolerated here and
            // handled by the prefix reads (empty slices), not rejected.
            if epsilon < last {
                panic!("FiltrationSweep requires an ascending grid ({epsilon} after {last})");
            }
        }
        self.last_epsilon = Some(epsilon);
        let WarmLambda::On { max_iterations, seed } = self.warm else {
            // The plain arena path is one serial query — bit-identical
            // to the parallel sweep (unit values are content-pure).
            let output = BettiRequest::of_filtration(self.filtration)
                .at_scale(epsilon)
                .max_dim(self.max_homology_dim)
                .estimator(self.estimator)
                .dispatch(self.policy)
                .serial()
                .build()
                .run();
            let slice = output.slices.into_iter().next().expect("one scale in, one slice out");
            return slice.estimates.into_iter().zip(slice.classical).collect();
        };
        (0..=self.max_homology_dim)
            .map(|k| self.estimate_dim_warm(epsilon, k, max_iterations, seed))
            .collect()
    }

    fn estimate_dim_warm(
        &mut self,
        epsilon: f64,
        k: usize,
        max_iterations: usize,
        seed: u64,
    ) -> (BettiEstimate, usize) {
        let n_k = self.filtration.count_at(k, epsilon);
        if n_k == 0 {
            let estimator = BettiEstimator::new(self.estimator);
            return (estimator.estimate(&qtda_linalg::Mat::zeros(0, 0)), 0);
        }
        // Grow the appearance-order matrix incrementally and bound its
        // spectrum from the previous slice's iterate.
        let state = &mut self.state[k];
        let (matrix, consumed) = self.filtration.extend_appearance_laplacian(
            k,
            epsilon,
            state.matrix.as_ref().map(|(m, c)| (m, *c)),
        );
        let warm_started = state.vector.is_some();
        let start = match &state.vector {
            Some(v) => PowerStart::Warm { vector: v, fill_seed: seed },
            None => PowerStart::Seed(seed),
        };
        let run = lambda_max_power_adaptive(&matrix, max_iterations, start);
        self.power_iterations += run.iterations as u64;
        let gershgorin = matrix.gershgorin_max();
        let bound = if run.converged {
            // Stale-convergence guard. A *random* start overlaps every
            // eigenvector, so its converged Rayleigh pair is the top
            // one with probability 1 — but a warm vector can be exactly
            // orthogonal to an eigenspace the new triplets just made
            // dominant (e.g. a disconnected component densifying on
            // coordinates the old iterate never touched), in which case
            // the residual stays tiny on the *stale* pair and the
            // "converged" estimate undershoots λ_max. Any Rayleigh
            // quotient is a lower-bound witness for λ_max on a
            // symmetric matrix, so a short seeded cold probe exposes
            // that: a probe quotient above the warm bound proves it
            // unsound, and we fall back to Gershgorin.
            let sound = if warm_started {
                let probe = lambda_max_power_adaptive(
                    &matrix,
                    STALE_PROBE_ITERATIONS,
                    PowerStart::Seed(seed ^ 0x9E37_79B9_7F4A_7C15),
                );
                self.power_iterations += probe.iterations as u64;
                probe.rayleigh <= run.estimate
            } else {
                true
            };
            if sound {
                run.estimate.min(gershgorin)
            } else {
                gershgorin
            }
        } else {
            gershgorin
        };
        state.vector = Some(run.vector);

        let config =
            EstimatorConfig { lambda_bound: LambdaMaxBound::Fixed { bound }, ..self.estimator };
        // The incrementally extended appearance-order matrix serves the
        // estimator directly (same spectrum as the slice-lex form, and
        // this is what makes warm sweeps assemble each slice once).
        let result = match self.policy.choose(n_k) {
            BackendKind::SparseLanczos => {
                let estimator = BettiEstimator::new(config);
                // The spectrum is a pure function of (Δ_k content, λ̃
                // bound, sweep-constant config), so an unchanged
                // `(consumed, n, bound)` key means the previous slice's
                // decomposition is bit-identical — skip the Lanczos run.
                let key = (consumed, matrix.n_rows(), bound.to_bits());
                let state = &mut self.state[k];
                let spectrum = match &state.spectrum {
                    Some((cached_key, s)) if *cached_key == key => {
                        self.spectrum_reuses += 1;
                        Arc::clone(s)
                    }
                    _ => {
                        let fresh = Arc::new(PaddedSpectrum::of_sparse_laplacian_bounded(
                            &matrix,
                            config.padding,
                            config.delta,
                            LanczosBackend::default().seed,
                            config.lambda_bound,
                        ));
                        state.spectrum = Some((key, Arc::clone(&fresh)));
                        fresh
                    }
                };
                (estimator.estimate_from_spectrum(&spectrum), spectrum.kernel_dim())
            }
            BackendKind::DenseEigen => {
                let estimator = BettiEstimator::new(config);
                (estimator.estimate(&matrix.to_dense()), self.filtration.betti_at(k, epsilon))
            }
            BackendKind::Statevector => {
                let estimator = BettiEstimator::with_backend(config, Box::new(StatevectorBackend));
                (estimator.estimate(&matrix.to_dense()), self.filtration.betti_at(k, epsilon))
            }
        };
        self.state[k].matrix = Some((matrix, consumed));
        result
    }
}

/// Matvecs spent verifying a warm-converged bound against a cold
/// probe (its Rayleigh quotient only needs to *overtake* a stale
/// estimate, not converge).
const STALE_PROBE_ITERATIONS: usize = 12;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::betti_curve;
    use crate::pipeline::PipelineConfig;
    use qtda_linalg::eigen::SymEigen;
    use qtda_tda::filtration::max_scale;
    use qtda_tda::point_cloud::{synthetic, Metric};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config(seed: u64) -> EstimatorConfig {
        EstimatorConfig { precision_qubits: 7, shots: 20_000, seed, ..Default::default() }
    }

    fn grid(lo: f64, hi: f64, n: usize) -> Vec<f64> {
        (0..n).map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64).collect()
    }

    #[test]
    fn warm_off_sweep_is_bit_identical_to_betti_curve() {
        let mut rng = StdRng::seed_from_u64(71);
        let cloud = synthetic::circle(12, 1.0, 0.02, &mut rng);
        let (lo, hi, n) = (0.2, 1.0, 6);
        let epsilons = grid(lo, hi, n);
        let filtration =
            LaplacianFiltration::rips(&cloud, max_scale(&epsilons), 2, Metric::Euclidean);
        let mut sweep = FiltrationSweep::new(
            &filtration,
            1,
            config(31),
            DispatchPolicy::default(),
            WarmLambda::Off,
        );
        let curve = betti_curve(
            &cloud,
            lo,
            hi,
            n,
            &PipelineConfig { max_homology_dim: 1, estimator: config(31), ..Default::default() },
        );
        for (i, &eps) in epsilons.iter().enumerate() {
            let per_dim = sweep.estimate_at(eps);
            for (k, (est, classical)) in per_dim.iter().enumerate() {
                assert_eq!(*classical, curve.classical[i][k], "ε = {eps}, k = {k}");
                assert_eq!(
                    est.corrected.to_bits(),
                    curve.estimated[i][k].to_bits(),
                    "ε = {eps}, k = {k}"
                );
            }
        }
        assert_eq!(sweep.power_iterations_used(), 0, "warm-off spends no power matvecs");
    }

    #[test]
    fn warm_bounds_are_sound_and_recover_the_same_betti_numbers() {
        let mut rng = StdRng::seed_from_u64(72);
        let cloud = synthetic::circle(24, 1.0, 0.02, &mut rng);
        let epsilons = grid(0.15, 0.8, 8);
        let filtration =
            LaplacianFiltration::rips(&cloud, max_scale(&epsilons), 2, Metric::Euclidean);
        // Force the sparse path so the Fixed bound drives the rescale.
        let policy = DispatchPolicy::from_sparse_threshold(0);
        let mut sweep = FiltrationSweep::new(
            &filtration,
            1,
            config(37),
            policy,
            WarmLambda::On { max_iterations: 500, seed: 5 },
        );
        for &eps in &epsilons {
            let per_dim = sweep.estimate_at(eps);
            for (k, (est, classical)) in per_dim.iter().enumerate() {
                // High fidelity: the (tighter-λ̃) estimate still rounds
                // to the classical truth, and the bound dominated the
                // spectrum (an unsound bound would inflate β̃ wildly).
                assert_eq!(est.rounded(), *classical, "ε = {eps}, k = {k}");
                // Cross-check the bound against the true spectrum.
                let dense = filtration.laplacian_at(k, eps).to_dense();
                if dense.rows() > 0 {
                    let exact = SymEigen::eigenvalues(&dense).last().copied().unwrap();
                    let gersh = filtration.laplacian_at(k, eps).gershgorin_max();
                    assert!(exact <= gersh + 1e-9);
                }
            }
        }
        assert!(sweep.power_iterations_used() > 0);
    }

    #[test]
    fn warm_start_spends_fewer_matvecs_than_cold_start() {
        let mut rng = StdRng::seed_from_u64(73);
        let cloud = synthetic::circle(28, 1.0, 0.01, &mut rng);
        let epsilons = grid(0.3, 0.9, 10);
        let filtration =
            LaplacianFiltration::rips(&cloud, max_scale(&epsilons), 2, Metric::Euclidean);
        let warm_total = {
            let mut sweep = FiltrationSweep::new(
                &filtration,
                1,
                config(41),
                DispatchPolicy::from_sparse_threshold(0),
                WarmLambda::On { max_iterations: 2000, seed: 9 },
            );
            for &eps in &epsilons {
                sweep.estimate_at(eps);
            }
            sweep.power_iterations_used()
        };
        // Cold baseline: the same adaptive iteration, restarted from
        // the seed at every slice.
        let cold_total: u64 = epsilons
            .iter()
            .flat_map(|&eps| (0..=1usize).map(move |k| (eps, k)))
            .map(|(eps, k)| {
                let m = filtration.laplacian_at_appearance(k, eps);
                if m.n_rows() == 0 {
                    return 0;
                }
                lambda_max_power_adaptive(&m, 2000, PowerStart::Seed(9)).iterations as u64
            })
            .sum();
        assert!(warm_total < cold_total, "warm {warm_total} matvecs must beat cold {cold_total}");
    }

    #[test]
    fn stale_warm_vector_cannot_fake_convergence() {
        // Two far-apart clusters: a 4-point square (complete at ε =
        // 0.2) and a denser 8-point cluster whose edges only activate
        // by ε = 1.0. At slice 1 the converged iterate is exactly zero
        // on the second cluster's coordinates; at slice 2 every new
        // Δ₀ entry lands on those coordinates, so the warm iterate is
        // still an exact eigenvector of the *stale* block and its
        // residual reports convergence at λ_A < λ_B = λ_max.
        let mut coords: Vec<f64> = vec![0.0, 0.0, 0.1, 0.0, 0.0, 0.1, 0.1, 0.1];
        for i in 0..8 {
            let angle = i as f64 * std::f64::consts::TAU / 8.0;
            coords.push(100.0 + 0.45 * angle.cos());
            coords.push(0.45 * angle.sin());
        }
        let cloud = qtda_tda::point_cloud::PointCloud::new(2, coords);
        let filtration = LaplacianFiltration::rips(&cloud, 1.0, 1, Metric::Euclidean);

        // The scenario is real: an unguarded warm restart claims
        // convergence below the true λ_max.
        let slice1 = filtration.laplacian_at_appearance(0, 0.2);
        let warm1 = lambda_max_power_adaptive(&slice1, 2000, PowerStart::Seed(5));
        assert!(warm1.converged);
        let slice2 = filtration.laplacian_at_appearance(0, 1.0);
        let stale = lambda_max_power_adaptive(
            &slice2,
            2000,
            PowerStart::Warm { vector: &warm1.vector, fill_seed: 5 },
        );
        let exact = SymEigen::eigenvalues(&slice2.to_dense()).last().copied().unwrap();
        assert!(
            stale.converged && stale.estimate < exact - 1.0,
            "precondition: the stale bound must undershoot (got {} vs λ_max {exact})",
            stale.estimate
        );

        // The sweep's probe guard must catch it: estimates stay sound
        // (an unsound λ̃ aliases the top of the spectrum into the QPE
        // zero bin and inflates β̃₀ well past the component count).
        let mut sweep = FiltrationSweep::new(
            &filtration,
            0,
            config(47),
            DispatchPolicy::from_sparse_threshold(0),
            WarmLambda::On { max_iterations: 2000, seed: 5 },
        );
        let first = sweep.estimate_at(0.2);
        assert_eq!(first[0].1, 9, "square + 8 isolated vertices");
        assert_eq!(first[0].0.rounded(), 9);
        let second = sweep.estimate_at(1.0);
        assert_eq!(second[0].1, 2, "two components once both clusters connect");
        assert_eq!(
            second[0].0.rounded(),
            2,
            "guarded bound keeps the estimate sound (raw {})",
            second[0].0.corrected
        );
    }

    #[test]
    fn unchanged_slices_reuse_the_previous_decomposition() {
        // A fine grid over a sparse cloud has plateaus: consecutive ε's
        // that activate no new triplets must not re-run Lanczos, and
        // reused slices must reproduce the recomputed bits exactly.
        let mut rng = StdRng::seed_from_u64(75);
        let cloud = synthetic::circle(16, 1.0, 0.02, &mut rng);
        let epsilons = grid(0.3, 0.9, 24);
        let filtration =
            LaplacianFiltration::rips(&cloud, max_scale(&epsilons), 2, Metric::Euclidean);
        let policy = DispatchPolicy::from_sparse_threshold(0);
        let run = |reuse_probe: bool| {
            let mut sweep = FiltrationSweep::new(
                &filtration,
                1,
                config(53),
                policy,
                WarmLambda::On { max_iterations: 2000, seed: 13 },
            );
            let mut all = Vec::new();
            for &eps in &epsilons {
                for (est, classical) in sweep.estimate_at(eps) {
                    all.push((est.corrected.to_bits(), classical));
                }
            }
            if reuse_probe {
                assert!(
                    sweep.spectra_reused() > 0,
                    "a 24-point grid over 16 points must hit unchanged slices"
                );
            }
            all
        };
        // Determinism across runs, with the reuse path active.
        assert_eq!(run(true), run(false));
    }

    #[test]
    #[should_panic(expected = "ascending grid")]
    fn descending_grid_is_rejected() {
        let mut rng = StdRng::seed_from_u64(74);
        let cloud = synthetic::circle(8, 1.0, 0.02, &mut rng);
        let filtration = LaplacianFiltration::rips(&cloud, 1.0, 2, Metric::Euclidean);
        let mut sweep = FiltrationSweep::new(
            &filtration,
            1,
            config(43),
            DispatchPolicy::default(),
            WarmLambda::On { max_iterations: 100, seed: 1 },
        );
        sweep.estimate_at(0.8);
        sweep.estimate_at(0.4);
    }
}
