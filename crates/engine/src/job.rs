//! The batch engine's request type and its content fingerprint.

use qtda_core::estimator::EstimatorConfig;
use qtda_core::padding::{LambdaMaxBound, PaddingScheme};
use qtda_core::persist::is_ascending_grid;
use qtda_core::pipeline::DEFAULT_SPARSE_THRESHOLD;
use qtda_core::scaling::Delta;
use qtda_tda::point_cloud::{Metric, PointCloud};

/// One Betti-serving request: estimate `β̃_0 … β̃_K` of a point cloud at
/// every scale of an ε-grid.
///
/// The engine overrides `estimator.seed` with its own per-slice seed
/// stream (see [`crate::seed`]); the field's value is ignored, which is
/// also why it is excluded from [`BettiJob::fingerprint`].
#[derive(Clone, Debug)]
pub struct BettiJob {
    /// The point cloud to analyse.
    pub cloud: PointCloud,
    /// Grouping scales to serve, in request order.
    pub epsilons: Vec<f64>,
    /// Highest homology dimension to estimate (the complex is built one
    /// dimension higher, as in the one-shot pipeline).
    pub max_homology_dim: usize,
    /// Distance metric.
    pub metric: Metric,
    /// Estimator parameters (`seed` ignored — engine-derived).
    pub estimator: EstimatorConfig,
    /// `|S_k|` at or above which a dimension runs the sparse path.
    pub sparse_threshold: usize,
    /// Also serve **persistent homology**: every slice gains its
    /// persistent-Betti row over the grid prefix (per dimension) and
    /// the job result gains per-dimension persistence diagrams — exact
    /// integer/interval payloads read from the job's filtration arena,
    /// bit-identical to the classical barcode reduction. Requires an
    /// ascending ε-grid. Part of the fingerprint (a persistence job
    /// and its plain twin cache separately).
    pub persistence: bool,
}

impl BettiJob {
    /// A job with the pipeline's defaults: dimensions β₀/β₁, Euclidean
    /// metric, default estimator, default sparse switchover.
    pub fn new(cloud: PointCloud, epsilons: Vec<f64>) -> Self {
        BettiJob {
            cloud,
            epsilons,
            max_homology_dim: 1,
            metric: Metric::Euclidean,
            estimator: EstimatorConfig::default(),
            sparse_threshold: DEFAULT_SPARSE_THRESHOLD,
            persistence: false,
        }
    }

    /// The job with persistence serving switched on (see
    /// [`Self::persistence`]).
    pub fn with_persistence(mut self) -> Self {
        self.persistence = true;
        self
    }

    /// Checks that the job can be served: every coordinate and every ε
    /// is finite, the grid ascends when persistence is on, an explicit
    /// δ lies in `(0, 2π)` and at least one shot is sampled. Negative
    /// scales stay legal (they serve empty slices). The service runs
    /// this at admission, so a malformed job is refused with its cause
    /// instead of reaching the batcher.
    pub fn validate(&self) -> Result<(), JobError> {
        let finite = |xs: &[f64]| xs.iter().all(|x| x.is_finite());
        if let Some(point) = (0..self.cloud.len()).find(|&i| !finite(self.cloud.point(i))) {
            return Err(JobError::NonFiniteCoordinate { point });
        }
        if let Some(index) = self.epsilons.iter().position(|e| !e.is_finite()) {
            return Err(JobError::NonFiniteEpsilon { index });
        }
        if self.persistence && !is_ascending_grid(&self.epsilons) {
            return Err(JobError::DescendingGrid);
        }
        if !self.estimator.delta.is_valid() {
            return Err(JobError::DeltaOutOfRange);
        }
        if self.estimator.shots == 0 {
            return Err(JobError::ZeroShots);
        }
        Ok(())
    }

    /// The largest scale in the grid (`−∞` for an empty grid) — the
    /// scale the amortised Rips construction is built at, delegating to
    /// the same fold `rips_slices` uses so the two can never disagree.
    pub fn max_epsilon(&self) -> f64 {
        qtda_tda::filtration::max_scale(&self.epsilons)
    }

    /// `true` when `other` describes the same request. Compares the same
    /// canonical content stream [`Self::fingerprint`] hashes, so the two
    /// can never drift apart. The engine verifies this on every cache
    /// hit **and** on every in-batch dedup representative, so a 64-bit
    /// fingerprint collision degrades to a recompute instead of serving
    /// another request's results.
    pub fn same_request(&self, other: &BettiJob) -> bool {
        self.content_words() == other.content_words()
    }

    /// A 64-bit content fingerprint over everything that determines this
    /// job's results: cloud geometry, ε-grid, dimensions, metric,
    /// estimator parameters (minus the ignored seed) and the sparse
    /// switchover. Identical windows therefore collide on purpose — this
    /// is the LRU cache key and the root of the job's seed stream.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        for word in self.content_words() {
            h.write_u64(word);
        }
        h.finish()
    }

    /// The job's full result-determining content as one canonical word
    /// stream — **the single place to extend when a field is added**.
    /// [`Self::fingerprint`] hashes this stream and
    /// [`Self::same_request`] compares it, so cache keying and hit
    /// verification cannot fall out of sync. Floats contribute their bit
    /// patterns (`-0.0 ≠ 0.0`, NaN payloads distinct); variable-length
    /// sections are length-prefixed and enum variants tagged, keeping
    /// the encoding injective. `estimator.seed` is deliberately absent
    /// (the engine overrides it).
    fn content_words(&self) -> Vec<u64> {
        let mut w =
            Vec::with_capacity(self.cloud.len() * self.cloud.dim() + self.epsilons.len() + 16);
        w.push(self.cloud.dim() as u64);
        w.push(self.cloud.len() as u64);
        for i in 0..self.cloud.len() {
            for &c in self.cloud.point(i) {
                w.push(c.to_bits());
            }
        }
        w.push(self.epsilons.len() as u64);
        for &e in &self.epsilons {
            w.push(e.to_bits());
        }
        w.push(self.max_homology_dim as u64);
        w.push(match self.metric {
            Metric::Euclidean => 0,
            Metric::Manhattan => 1,
            Metric::Chebyshev => 2,
        });
        w.push(self.sparse_threshold as u64);
        let est = &self.estimator;
        w.push(est.precision_qubits as u64);
        w.push(est.shots as u64);
        w.push(match est.padding {
            PaddingScheme::IdentityHalfLambdaMax => 0,
            PaddingScheme::Zeros => 1,
        });
        match est.delta {
            Delta::Auto => w.push(0),
            Delta::Fixed(d) => {
                w.push(1);
                w.push(d.to_bits());
            }
        }
        match est.lambda_bound {
            LambdaMaxBound::Gershgorin => w.push(0),
            LambdaMaxBound::PowerIteration { iterations, seed } => {
                w.push(1);
                w.push(iterations as u64);
                w.push(seed);
            }
        }
        // Appended only when set, so every pre-persistence fingerprint
        // (cache keys, seed roots) is preserved bit for bit.
        if self.persistence {
            w.push(0x5045_5253_4953_5431); // "PERSIST1"
        }
        w
    }
}

/// Why [`BettiJob::validate`] refused a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobError {
    /// A coordinate of this point is NaN or infinite.
    NonFiniteCoordinate {
        /// Index of the offending point in the cloud.
        point: usize,
    },
    /// This grid scale is NaN or infinite.
    NonFiniteEpsilon {
        /// Index of the offending scale in the grid.
        index: usize,
    },
    /// Persistence is on, but the ε-grid does not ascend.
    DescendingGrid,
    /// The estimator's explicit δ lies outside `(0, 2π)`.
    DeltaOutOfRange,
    /// The estimator samples no shots, so `p(0)` is undefined.
    ZeroShots,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::NonFiniteCoordinate { point } => {
                write!(f, "point {point} has a non-finite coordinate")
            }
            JobError::NonFiniteEpsilon { index } => write!(f, "ε-grid entry {index} is not finite"),
            JobError::DescendingGrid => write!(f, "persistence mode requires an ascending ε-grid"),
            JobError::DeltaOutOfRange => write!(f, "estimator δ must lie in (0, 2π)"),
            JobError::ZeroShots => write!(f, "estimator needs at least one shot"),
        }
    }
}

impl std::error::Error for JobError {}

/// FNV-1a over 64-bit words: tiny, dependency-free, and stable across
/// platforms and versions (unlike `DefaultHasher`, whose algorithm is
/// explicitly unspecified — fingerprints are cache keys and seed roots,
/// so they must never drift).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }

    fn write_u64(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_cloud() -> PointCloud {
        PointCloud::new(2, vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    }

    #[test]
    fn identical_jobs_share_a_fingerprint() {
        let a = BettiJob::new(square_cloud(), vec![0.5, 1.0]);
        let b = BettiJob::new(square_cloud(), vec![0.5, 1.0]);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn every_relevant_field_perturbs_the_fingerprint() {
        let base = BettiJob::new(square_cloud(), vec![0.5, 1.0]);
        let fp = base.fingerprint();

        let mut cloud = base.clone();
        cloud.cloud = PointCloud::new(2, vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.001]);
        assert_ne!(cloud.fingerprint(), fp, "cloud coordinates");

        let mut grid = base.clone();
        grid.epsilons = vec![0.5, 1.1];
        assert_ne!(grid.fingerprint(), fp, "ε-grid");

        let mut dim = base.clone();
        dim.max_homology_dim = 2;
        assert_ne!(dim.fingerprint(), fp, "max homology dim");

        let mut metric = base.clone();
        metric.metric = Metric::Manhattan;
        assert_ne!(metric.fingerprint(), fp, "metric");

        let mut shots = base.clone();
        shots.estimator.shots = 999;
        assert_ne!(shots.fingerprint(), fp, "shots");

        let mut precision = base.clone();
        precision.estimator.precision_qubits = 9;
        assert_ne!(precision.fingerprint(), fp, "precision qubits");

        let mut threshold = base.clone();
        threshold.sparse_threshold = 7;
        assert_ne!(threshold.fingerprint(), fp, "sparse threshold");

        let persistence = base.clone().with_persistence();
        assert_ne!(persistence.fingerprint(), fp, "persistence mode");
        assert!(!base.same_request(&persistence));
    }

    #[test]
    fn estimator_seed_is_excluded() {
        let mut a = BettiJob::new(square_cloud(), vec![0.5]);
        let mut b = BettiJob::new(square_cloud(), vec![0.5]);
        a.estimator.seed = 1;
        b.estimator.seed = 2;
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "the engine overrides the seed, so it must not split cache entries"
        );
    }

    #[test]
    fn grid_order_matters() {
        // Slices are returned in grid order; a reordered grid is a
        // different request.
        let a = BettiJob::new(square_cloud(), vec![0.5, 1.0]);
        let b = BettiJob::new(square_cloud(), vec![1.0, 0.5]);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn max_epsilon_over_unsorted_grid() {
        let job = BettiJob::new(square_cloud(), vec![0.9, 1.4, 0.3]);
        assert_eq!(job.max_epsilon(), 1.4);
        assert_eq!(
            BettiJob::new(square_cloud(), vec![-2.0, -0.5]).max_epsilon(),
            -0.5,
            "all-negative grids report their true maximum"
        );
        assert_eq!(BettiJob::new(square_cloud(), Vec::new()).max_epsilon(), f64::NEG_INFINITY);
    }

    #[test]
    fn same_request_tracks_fingerprint_fields() {
        let base = BettiJob::new(square_cloud(), vec![0.5, 1.0]);
        let mut seed_only = base.clone();
        seed_only.estimator.seed = 99;
        assert!(base.same_request(&seed_only), "the ignored seed must not split requests");

        let mut other_cloud = base.clone();
        other_cloud.cloud = PointCloud::new(2, vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.001]);
        assert!(!base.same_request(&other_cloud));

        let mut other_grid = base.clone();
        other_grid.epsilons = vec![1.0, 0.5];
        assert!(!base.same_request(&other_grid), "grid order is part of the request");

        let mut other_shots = base.clone();
        other_shots.estimator.shots = 123;
        assert!(!base.same_request(&other_shots));
    }

    #[test]
    fn validate_refuses_non_finite_content_and_descending_persistence_grids() {
        assert_eq!(BettiJob::new(square_cloud(), vec![0.5, 1.0]).validate(), Ok(()));
        assert_eq!(
            BettiJob::new(square_cloud(), vec![-2.0, -0.5]).validate(),
            Ok(()),
            "negative scales are legal"
        );
        assert_eq!(
            BettiJob::new(square_cloud(), vec![1.0, 0.5]).validate(),
            Ok(()),
            "plain jobs serve any grid order"
        );

        let nan_cloud = PointCloud::new(2, vec![0.0, 0.0, 1.0, f64::NAN]);
        assert_eq!(
            BettiJob::new(nan_cloud, vec![0.5]).validate(),
            Err(JobError::NonFiniteCoordinate { point: 1 })
        );
        assert_eq!(
            BettiJob::new(square_cloud(), vec![0.5, f64::INFINITY]).validate(),
            Err(JobError::NonFiniteEpsilon { index: 1 })
        );
        assert_eq!(
            BettiJob::new(square_cloud(), vec![0.9, 0.6]).with_persistence().validate(),
            Err(JobError::DescendingGrid)
        );
        for delta in [7.0, std::f64::consts::TAU, 0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut job = BettiJob::new(square_cloud(), vec![0.5]);
            job.estimator.delta = Delta::Fixed(delta);
            assert_eq!(job.validate(), Err(JobError::DeltaOutOfRange), "δ = {delta}");
        }
        let mut no_shots = BettiJob::new(square_cloud(), vec![0.5]);
        no_shots.estimator.shots = 0;
        assert_eq!(no_shots.validate(), Err(JobError::ZeroShots));
    }

    #[test]
    fn fingerprints_are_stable_across_versions() {
        // Fingerprints are cache keys and seed roots, so their values
        // must not move when the word layout is edited. These literals
        // were recorded once; a change here re-keys every cache and
        // re-seeds every job.
        let base = BettiJob::new(square_cloud(), vec![0.5, 1.0]);
        let mut power = base.clone();
        power.estimator.lambda_bound = LambdaMaxBound::PowerIteration { iterations: 200, seed: 3 };
        let mut delta = base.clone();
        delta.estimator.delta = Delta::Fixed(2.0);
        let persistence = base.clone().with_persistence();
        assert_eq!(base.fingerprint(), 0xF037_6E04_77E9_6F56);
        assert_eq!(power.fingerprint(), 0x0CAA_015F_D34E_331C);
        assert_eq!(delta.fingerprint(), 0x5BC7_4F2C_20B7_A537);
        assert_eq!(persistence.fingerprint(), 0x1A8A_65B0_7421_FEC3);
    }
}
