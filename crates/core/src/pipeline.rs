//! The end-to-end QTDA pipeline: point cloud → Rips complex →
//! combinatorial Laplacians → QPE Betti estimates (paper §§2–5).
//!
//! The **one executor** is [`crate::query::Query::run`] over a
//! [`crate::query::BettiRequest`]. This module owns the routing
//! vocabulary that request consumes ([`DispatchPolicy`],
//! [`BackendKind`], [`PipelineConfig`]) and the multi-scale
//! [`betti_curve`] convenience.
//!
//! The pipeline is **sparse-first**: per homology dimension it picks the
//! Laplacian representation by size — small `S_k` take the dense route
//! (Gershgorin + dense spectral backend, bit-compatible with the paper's
//! worked example), large `S_k` assemble a CSR Laplacian straight from
//! the boundary maps and run **one** matvec-only Lanczos decomposition
//! ([`PaddedSpectrum`](crate::spectrum::PaddedSpectrum)) that yields the QPE estimate and the classical
//! kernel-count cross-check together. Multi-scale [`betti_curve`]
//! sweeps run every ε (and every dimension within an ε) in parallel via
//! rayon.

use crate::estimator::EstimatorConfig;
use crate::query::BettiRequest;
use qtda_tda::filtration::max_scale;
use qtda_tda::laplacian_filtration::LaplacianFiltration;
use qtda_tda::point_cloud::{Metric, PointCloud};

/// Default `|S_k|` above which the pipeline switches to the sparse
/// (CSR + Lanczos) path. Below this the dense eigensolver is faster in
/// absolute terms and matches the paper's worked example bit for bit.
pub const DEFAULT_SPARSE_THRESHOLD: usize = 64;

/// Which concrete backend a `(complex, dimension)` unit is routed to.
///
/// The three tiers trade asymptotics against constants: the gate-level
/// statevector circuit (paper Fig. 6) is exponential in the padded qubit
/// count but exact and faithful to hardware, the dense eigensolve is
/// cubic with tiny constants, and the CSR + Lanczos path is matvec-only
/// and the only one that scales. [`DispatchPolicy::choose`] picks by
/// `|S_k|`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// Gate-level statevector QPE (Fig. 6 circuit, exponential — tiny
    /// complexes only).
    Statevector,
    /// Dense combinatorial Laplacian + analytic spectral backend.
    DenseEigen,
    /// CSR Laplacian + single matvec-only Lanczos decomposition.
    SparseLanczos,
}

/// Size-based backend routing for one estimation unit.
///
/// `statevector_max` wins first: `0 < |S_k| ≤ statevector_max` runs the
/// full gate-level circuit (useful as a hardware-faithful validation
/// tier on the smallest complexes; `0` disables it, the default). Above
/// that, `|S_k| ≥ sparse_min` takes the sparse Lanczos path and
/// everything else the dense eigensolve — so small complexes stop
/// paying sparse setup and large ones never densify.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DispatchPolicy {
    /// Largest `|S_k|` routed to the gate-level statevector backend
    /// (`0` disables the tier).
    pub statevector_max: usize,
    /// `|S_k|` at or above which a unit runs the sparse Lanczos path.
    pub sparse_min: usize,
}

impl DispatchPolicy {
    /// The policy equivalent to the pre-dispatch pipeline: dense below
    /// `sparse_threshold`, sparse at or above it, no statevector tier.
    pub const fn from_sparse_threshold(sparse_threshold: usize) -> Self {
        DispatchPolicy { statevector_max: 0, sparse_min: sparse_threshold }
    }

    /// Routes one unit by its `|S_k|`. Empty dimensions short-circuit
    /// before any backend runs, so the answer for `n_k == 0` is moot.
    pub fn choose(&self, n_k: usize) -> BackendKind {
        if n_k > 0 && n_k <= self.statevector_max {
            BackendKind::Statevector
        } else if n_k >= self.sparse_min {
            BackendKind::SparseLanczos
        } else {
            BackendKind::DenseEigen
        }
    }
}

impl Default for DispatchPolicy {
    fn default() -> Self {
        DispatchPolicy::from_sparse_threshold(DEFAULT_SPARSE_THRESHOLD)
    }
}

/// End-to-end pipeline parameters.
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// Grouping scale ε for the Rips complex.
    pub epsilon: f64,
    /// Highest homology dimension to estimate (complex is built one
    /// dimension higher so Δ_k includes its up-Laplacian part).
    pub max_homology_dim: usize,
    /// Distance metric.
    pub metric: Metric,
    /// Estimator parameters.
    pub estimator: EstimatorConfig,
    /// `|S_k|` at or above which dimension `k` runs the sparse path
    /// (`0` forces sparse everywhere, `usize::MAX` forces dense).
    pub sparse_threshold: usize,
    /// Largest `|S_k|` routed to the gate-level statevector backend
    /// (`0`, the default, disables the tier — see [`DispatchPolicy`]).
    pub statevector_max: usize,
}

impl PipelineConfig {
    /// The size-based routing this configuration describes: statevector
    /// up to `statevector_max`, sparse from `sparse_threshold`, dense in
    /// between.
    pub fn dispatch_policy(&self) -> DispatchPolicy {
        DispatchPolicy { statevector_max: self.statevector_max, sparse_min: self.sparse_threshold }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            epsilon: 1.0,
            max_homology_dim: 1,
            metric: Metric::Euclidean,
            estimator: EstimatorConfig::default(),
            sparse_threshold: DEFAULT_SPARSE_THRESHOLD,
            statevector_max: 0,
        }
    }
}

/// A multi-scale Betti curve: for each grouping scale, the quantum
/// estimates and classical values per homology dimension. The stepping
/// stone from the paper's single-ε estimates to its persistent-Betti
/// future work (§6).
#[derive(Clone, Debug)]
pub struct BettiCurve {
    /// The evaluated grouping scales.
    pub epsilons: Vec<f64>,
    /// `values[i][k]` = corrected estimate of β_k at `epsilons[i]`.
    pub estimated: Vec<Vec<f64>>,
    /// `classical[i][k]` = exact β_k at `epsilons[i]`.
    pub classical: Vec<Vec<usize>>,
}

impl BettiCurve {
    /// Largest absolute estimate-vs-exact error over the whole curve.
    pub fn max_error(&self) -> f64 {
        self.estimated
            .iter()
            .zip(&self.classical)
            .flat_map(|(est, cls)| est.iter().zip(cls).map(|(e, &c)| (e - c as f64).abs()))
            .fold(0.0, f64::max)
    }
}

/// Sweeps the pipeline over linearly spaced scales `[lo, hi]` with
/// **amortised incremental Laplacian assembly**: the Rips construction
/// runs once at the largest scale and its Laplacians are emitted into a
/// single activation-sorted triplet arena
/// ([`LaplacianFiltration`]) — every `(ε, dimension)` unit then reads
/// Δ_k as a *prefix* of that arena instead of re-slicing a complex and
/// re-walking boundary incidences per scale. No intermediate complexes
/// are ever materialised; the ε's (and the homology dimensions within
/// each ε) fan out in parallel via rayon. Results are bit-identical to
/// a single-scale [`BettiRequest::of_cloud`] query at each scale (the
/// arena's slice-lexicographic Laplacians are bit-identical to direct
/// assembly).
pub fn betti_curve(
    cloud: &PointCloud,
    lo: f64,
    hi: f64,
    n_points: usize,
    config: &PipelineConfig,
) -> BettiCurve {
    assert!(n_points >= 2, "need at least two scales");
    assert!(lo <= hi, "scale range reversed");
    let epsilons: Vec<f64> =
        (0..n_points).map(|i| lo + (hi - lo) * i as f64 / (n_points - 1) as f64).collect();
    // Build at the grid's actual maximum, not at `hi`: the last computed
    // scale can land one ulp above `hi`, and a slice is only exact at or
    // below the construction scale.
    let filtration = LaplacianFiltration::rips(
        cloud,
        max_scale(&epsilons),
        config.max_homology_dim + 1,
        config.metric,
    );
    let output = BettiRequest::of_filtration(&filtration)
        .on_grid(epsilons.clone())
        .max_dim(config.max_homology_dim)
        .estimator(config.estimator)
        .dispatch(config.dispatch_policy())
        .build()
        .run();
    let estimated = output.slices.iter().map(|s| s.features()).collect();
    let classical = output.slices.into_iter().map(|s| s.classical).collect();
    BettiCurve { epsilons, estimated, classical }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryOutput;
    use qtda_tda::point_cloud::synthetic;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn high_fidelity(seed: u64) -> EstimatorConfig {
        EstimatorConfig { precision_qubits: 7, shots: 20_000, seed, ..Default::default() }
    }

    /// The single-scale cloud query a [`PipelineConfig`] describes.
    fn run(cloud: &PointCloud, config: &PipelineConfig) -> QueryOutput {
        BettiRequest::of_cloud(cloud).configured(config).build().run()
    }

    #[test]
    fn circle_pipeline_recovers_beta_0_and_1() {
        let mut rng = StdRng::seed_from_u64(21);
        let cloud = synthetic::circle(14, 1.0, 0.02, &mut rng);
        let config = PipelineConfig {
            epsilon: 0.55,
            max_homology_dim: 1,
            estimator: high_fidelity(5),
            ..Default::default()
        };
        let output = run(&cloud, &config);
        let result = output.single_slice();
        assert_eq!(result.classical, vec![1, 1]);
        assert_eq!(result.rounded(), vec![1, 1], "features {:?}", result.features());
    }

    #[test]
    fn two_clusters_give_beta0_two() {
        let mut rng = StdRng::seed_from_u64(22);
        let cloud = synthetic::two_clusters(6, 4.0, 0.4, &mut rng);
        let config = PipelineConfig {
            epsilon: 1.4,
            max_homology_dim: 1,
            estimator: high_fidelity(6),
            ..Default::default()
        };
        let output = run(&cloud, &config);
        let result = output.single_slice();
        assert_eq!(result.classical[0], 2);
        assert_eq!(result.rounded()[0], 2);
    }

    #[test]
    fn absolute_errors_are_small_at_high_fidelity() {
        let mut rng = StdRng::seed_from_u64(23);
        let cloud = synthetic::figure_eight(10, 1.0, 0.0, &mut rng);
        let config = PipelineConfig {
            epsilon: 0.7,
            max_homology_dim: 1,
            estimator: high_fidelity(7),
            ..Default::default()
        };
        let output = run(&cloud, &config);
        for (k, err) in output.single_slice().absolute_errors().iter().enumerate() {
            assert!(*err < 0.5, "k = {k}: AE = {err}");
        }
    }

    #[test]
    fn empty_dimensions_report_zero() {
        // Sparse cloud with ε too small for any edges: β₁ trivially 0,
        // and S₁ is empty.
        let cloud = PointCloud::new(1, vec![0.0, 10.0, 20.0]);
        let config = PipelineConfig {
            epsilon: 0.5,
            max_homology_dim: 1,
            estimator: high_fidelity(8),
            ..Default::default()
        };
        let output = run(&cloud, &config);
        let result = output.single_slice();
        assert_eq!(result.classical, vec![3, 0]);
        assert_eq!(result.rounded()[1], 0);
        assert_eq!(result.estimates[1].q, 0, "empty S₁ short-circuits");
    }

    #[test]
    fn betti_curve_tracks_classical_truth() {
        let mut rng = StdRng::seed_from_u64(25);
        let cloud = synthetic::circle(12, 1.0, 0.02, &mut rng);
        let config = PipelineConfig {
            max_homology_dim: 1,
            estimator: high_fidelity(11),
            ..PipelineConfig::default()
        };
        let curve = betti_curve(&cloud, 0.1, 1.2, 6, &config);
        assert_eq!(curve.epsilons.len(), 6);
        assert!(curve.max_error() < 0.5, "max error {}", curve.max_error());
        // β₀ is monotone non-increasing along a Rips sweep.
        let b0: Vec<usize> = curve.classical.iter().map(|c| c[0]).collect();
        assert!(b0.windows(2).all(|w| w[1] <= w[0]), "{b0:?}");
    }

    #[test]
    fn betti_curve_is_bit_identical_to_per_epsilon_pipeline() {
        // The amortised filtration slicing must not change a single bit
        // versus rebuilding the Rips complex from the cloud at every ε.
        let mut rng = StdRng::seed_from_u64(26);
        let cloud = synthetic::figure_eight(11, 1.0, 0.03, &mut rng);
        let config = PipelineConfig {
            max_homology_dim: 1,
            estimator: high_fidelity(13),
            ..PipelineConfig::default()
        };
        let curve = betti_curve(&cloud, 0.2, 1.1, 7, &config);
        for (i, &eps) in curve.epsilons.iter().enumerate() {
            let output = run(&cloud, &PipelineConfig { epsilon: eps, ..config });
            let direct = output.single_slice();
            assert_eq!(curve.classical[i], direct.classical, "ε = {eps}");
            for (k, (curve_v, direct_v)) in
                curve.estimated[i].iter().zip(direct.features()).enumerate()
            {
                assert_eq!(
                    curve_v.to_bits(),
                    direct_v.to_bits(),
                    "ε = {eps}, k = {k}: {curve_v} vs {direct_v}"
                );
            }
        }
    }

    #[test]
    fn sparse_and_dense_paths_agree_on_circle() {
        let mut rng = StdRng::seed_from_u64(21);
        let cloud = synthetic::circle(14, 1.0, 0.02, &mut rng);
        let base = PipelineConfig {
            epsilon: 0.55,
            max_homology_dim: 1,
            estimator: high_fidelity(5),
            ..Default::default()
        };
        let dense = run(&cloud, &PipelineConfig { sparse_threshold: usize::MAX, ..base });
        let sparse = run(&cloud, &PipelineConfig { sparse_threshold: 0, ..base });
        let (dense, sparse) = (dense.single_slice(), sparse.single_slice());
        assert_eq!(dense.classical, sparse.classical, "classical Betti routes disagree");
        assert_eq!(dense.rounded(), sparse.rounded());
        for (d, s) in dense.estimates.iter().zip(&sparse.estimates) {
            assert!(
                (d.p_zero_exact - s.p_zero_exact).abs() < 1e-6,
                "p(0): dense {} vs sparse {}",
                d.p_zero_exact,
                s.p_zero_exact
            );
        }
    }

    #[test]
    fn sparse_path_engages_above_threshold() {
        // 40 points on a circle at a scale giving well over `threshold`
        // edges: force a tiny threshold and check the result still
        // matches the classical truth computed iteratively.
        let mut rng = StdRng::seed_from_u64(33);
        let cloud = synthetic::circle(40, 1.0, 0.01, &mut rng);
        let config = PipelineConfig {
            epsilon: 0.45,
            max_homology_dim: 1,
            estimator: high_fidelity(9),
            sparse_threshold: 8,
            ..Default::default()
        };
        let output = run(&cloud, &config);
        let complex = output.complex.as_ref().expect("single-scale cloud queries materialise one");
        assert!(complex.count(1) >= 8, "scenario must engage the sparse path");
        let result = output.single_slice();
        assert_eq!(result.classical, vec![1, 1]);
        assert_eq!(result.rounded(), vec![1, 1], "features {:?}", result.features());
    }

    #[test]
    fn dispatch_policy_routes_by_size() {
        let policy = DispatchPolicy { statevector_max: 8, sparse_min: 64 };
        assert_eq!(policy.choose(1), BackendKind::Statevector);
        assert_eq!(policy.choose(8), BackendKind::Statevector);
        assert_eq!(policy.choose(9), BackendKind::DenseEigen);
        assert_eq!(policy.choose(63), BackendKind::DenseEigen);
        assert_eq!(policy.choose(64), BackendKind::SparseLanczos);
        assert_eq!(policy.choose(10_000), BackendKind::SparseLanczos);

        // The threshold-derived policy reproduces the pre-dispatch rules.
        let legacy = DispatchPolicy::from_sparse_threshold(64);
        assert_eq!(legacy.choose(1), BackendKind::DenseEigen);
        assert_eq!(legacy.choose(64), BackendKind::SparseLanczos);
        assert_eq!(
            DispatchPolicy::from_sparse_threshold(0).choose(1),
            BackendKind::SparseLanczos,
            "threshold 0 still forces sparse everywhere"
        );
        assert_eq!(
            DispatchPolicy::from_sparse_threshold(usize::MAX).choose(1_000_000),
            BackendKind::DenseEigen,
            "usize::MAX still forces dense everywhere"
        );
    }

    #[test]
    fn statevector_tier_agrees_with_dense_on_small_complexes() {
        let mut rng = StdRng::seed_from_u64(52);
        let cloud = synthetic::circle(10, 1.0, 0.02, &mut rng);
        let base = PipelineConfig {
            epsilon: 0.7,
            max_homology_dim: 1,
            estimator: high_fidelity(9),
            ..Default::default()
        };
        let dense = run(&cloud, &base);
        let gate = run(&cloud, &PipelineConfig { statevector_max: usize::MAX, ..base });
        let (dense, gate) = (dense.single_slice(), gate.single_slice());
        assert_eq!(dense.classical, gate.classical, "classical truth is backend-free");
        assert_eq!(dense.rounded(), gate.rounded());
        for (d, g) in dense.estimates.iter().zip(&gate.estimates) {
            assert!(
                (d.p_zero_exact - g.p_zero_exact).abs() < 1e-9,
                "p(0): dense {} vs statevector {}",
                d.p_zero_exact,
                g.p_zero_exact
            );
            assert_eq!(d.q, g.q);
        }
    }

    #[test]
    fn features_are_unrounded() {
        let mut rng = StdRng::seed_from_u64(24);
        let cloud = synthetic::circle(10, 1.0, 0.05, &mut rng);
        let config = PipelineConfig {
            epsilon: 0.7,
            max_homology_dim: 1,
            estimator: EstimatorConfig {
                precision_qubits: 2,
                shots: 100,
                seed: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let output = run(&cloud, &config);
        let result = output.single_slice();
        // Low fidelity: features are generally fractional.
        assert_eq!(result.features().len(), 2);
        for f in result.features() {
            assert!(f.is_finite() && f >= 0.0);
        }
    }
}
