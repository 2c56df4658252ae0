//! The unified request API: one [`BettiRequest`] builder, one
//! [`Query::run`] executor, one [`QosPolicy`] vocabulary.
//!
//! Every Betti query answers the same question — *estimate β̃_k of
//! some source at some scales* — so one builder and one executor serve
//! all of them, whatever the source type or routing:
//!
//! * [`BettiRequest`] is the builder. Pick a source
//!   ([`BettiRequest::of_cloud`] / [`of_complex`](BettiRequest::of_complex)
//!   / [`of_filtration`](BettiRequest::of_filtration)), then chain the
//!   scales, dimensions, estimator, and [`DispatchPolicy`] the request
//!   needs. Everything defaults to the pipeline's defaults.
//! * [`Query`] is the validated request; [`Query::run`] executes it to
//!   completion and returns a [`QueryOutput`] — per-scale
//!   [`QuerySlice`]s of estimates next to the classical truth.
//! * [`unit_on_filtration`] is one `(ε, dimension)` unit over a
//!   prebuilt arena — the body [`Query::run`] fans out over a grid, and
//!   the one the batch engine calls per scheduled unit.
//! * [`QosPolicy`] is the quality-of-service vocabulary: a [`Priority`]
//!   class, an optional absolute deadline, and a cooperative
//!   [`CancelToken`]. The batch engine is the executor that checks it
//!   (at unit boundaries, returning [`AbortReason`] instead of wasting
//!   further work), and the streaming service carries it per ticket, so
//!   one policy travels from a front-end ticket down to individual
//!   units.
//!
//! Unit values are pure functions of `(source content, ε, k,
//! estimator config, policy)`, so equivalent request shapes — a cloud,
//! its complex, or its filtration arena; a sparse threshold or the
//! policy it abbreviates; a grid or its single-unit requests — give
//! **bit-identical** outputs (pinned by this module's tests), and
//! nothing about priorities, deadlines, or parallelism can change a
//! completed result's bits.

use crate::backend::{LanczosBackend, StatevectorBackend};
use crate::estimator::{BettiEstimate, BettiEstimator, EstimatorConfig};
use crate::persist::{PersistenceDiagrams, SlicePersistence};
use crate::pipeline::DispatchPolicy;
use crate::spectrum::PaddedSpectrum;
use qtda_linalg::SolveProfile;
use qtda_tda::betti::betti_via_rank;
use qtda_tda::filtration::max_scale;
use qtda_tda::laplacian::{combinatorial_laplacian, combinatorial_laplacian_sparse};
use qtda_tda::laplacian_filtration::LaplacianFiltration;
use qtda_tda::point_cloud::{Metric, PointCloud};
use qtda_tda::rips::{rips_complex, RipsParams};
use qtda_tda::SimplicialComplex;
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Cross-unit spectrum sharing
// ---------------------------------------------------------------------

/// A cross-unit cache of sparse-route [`PaddedSpectrum`]s, deduplicating
/// the full Lanczos decompositions of `(ε, dim)` units whose Laplacians
/// are **the same arena prefix**.
///
/// Along an ε-grid, consecutive scales frequently activate no new
/// `dim`-simplices, so their Δ_k at those scales are bit-identical
/// prefixes of the filtration arena — yet each unit would re-run the
/// (dominant) full-spectrum decomposition. Units key the cache by
/// `(k, |S_k|, triplets_at(k, ε))`: within one arena that triple pins
/// the exact triplet prefix, hence the exact matrix. The spectrum is a
/// pure function of that matrix and the (request-constant) estimator
/// parameters, so a cache hit returns the **bit-identical** spectrum
/// the unit would have computed — sharing can change cost, never
/// results, regardless of worker count or hit/miss timing.
///
/// Scope one share per (arena, estimator config) context: grid sweeps
/// create one automatically per [`Query::run`]; the batch engine keeps
/// one per job so the many units sharing a job's arena coalesce. Do
/// **not** reuse a share across different arenas or estimator configs.
#[derive(Debug, Default)]
pub struct SpectrumShare {
    map: Mutex<HashMap<(usize, usize, usize), Arc<PaddedSpectrum>>>,
}

impl SpectrumShare {
    /// An empty share.
    pub fn new() -> Self {
        Self::default()
    }

    /// The spectrum under `key`, computing (outside the lock, so
    /// concurrent misses on different keys don't serialise) and
    /// inserting on miss. A racing duplicate computation is harmless:
    /// both producers derive bit-identical spectra from identical
    /// content, and the first insert wins.
    fn get_or_compute(
        &self,
        key: (usize, usize, usize),
        compute: impl FnOnce() -> PaddedSpectrum,
    ) -> Arc<PaddedSpectrum> {
        if let Some(hit) = self.map.lock().expect("spectrum share poisoned").get(&key) {
            return Arc::clone(hit);
        }
        let fresh = Arc::new(compute());
        Arc::clone(self.map.lock().expect("spectrum share poisoned").entry(key).or_insert(fresh))
    }

    /// Number of distinct spectra currently cached.
    pub fn len(&self) -> usize {
        self.map.lock().expect("spectrum share poisoned").len()
    }

    /// `true` when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------
// Quality of service
// ---------------------------------------------------------------------

/// The three serving classes, ordered: `Interactive < Normal < Bulk`
/// (smaller sorts earlier, i.e. is served first). Priority shapes
/// *scheduling only* — which units run first, how long a micro-batch
/// lingers — never results: completed estimates are bit-identical under
/// any priority mix because every unit's value is a pure function of
/// request content.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Latency-sensitive probes: served first, and their presence lets
    /// the service close a micro-batch early instead of lingering.
    Interactive,
    /// The default class.
    #[default]
    Normal,
    /// Throughput traffic (re-analysis sweeps, backfills): served after
    /// the other classes, but protected from starvation by the
    /// submission queue's bounded bypass.
    Bulk,
}

impl Priority {
    /// All classes, highest priority first — the queue iteration order.
    pub const CLASSES: [Priority; 3] = [Priority::Interactive, Priority::Normal, Priority::Bulk];

    /// Dense index of the class (0 = Interactive … 2 = Bulk).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A shared, cooperative cancellation flag. Cloning shares the flag;
/// [`CancelToken::cancel`] is sticky (there is no un-cancel).
/// Cancellation is **cooperative**: executors poll the token at unit
/// boundaries — one `(ε, dimension)` estimate — so a unit already
/// running completes before the abort is observed.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation (sticky, thread-safe).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// `true` once [`Self::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Why an execution was aborted instead of completed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// The request's [`CancelToken`] was triggered.
    Cancelled,
    /// The request's absolute deadline passed before its work finished.
    DeadlineExceeded,
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbortReason::Cancelled => write!(f, "cancelled"),
            AbortReason::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

/// Quality-of-service for one request: a [`Priority`] class, an
/// optional absolute deadline, and a [`CancelToken`].
///
/// # Semantics
///
/// * **Priority** orders scheduling (units of higher-priority requests
///   run first; the service's micro-batcher stops lingering when an
///   interactive request is waiting). It never changes completed
///   results — determinism is content-derived.
/// * **Deadline is best-effort at unit granularity.** Executors check
///   the clock *between* `(ε, dimension)` units, never inside one, so a
///   request can overrun its deadline by at most the unit in flight.
///   A result that completed anyway (e.g. answered by cache, or whose
///   last unit was already running) is still delivered — the deadline
///   exists to stop wasting compute, not to discard finished answers.
/// * **Cancellation is cooperative.** [`CancelToken::cancel`] sets a
///   flag that executors poll at the same unit boundaries. Unlike the
///   deadline, cancellation is a statement of lost interest, so it is
///   honoured *at delivery* too: a cancelled request reports
///   [`AbortReason::Cancelled`] even if its computation happened to
///   finish (shared work for an identical uncancelled request continues
///   unaffected).
///
/// The default policy ([`QosPolicy::default`]) is `Normal` priority, no
/// deadline, fresh token — it can never abort, which is what makes the
/// engine's plain `run_batch` path infallible.
#[derive(Clone, Debug, Default)]
pub struct QosPolicy {
    /// The serving class.
    pub priority: Priority,
    /// Absolute best-effort deadline (checked at unit boundaries).
    pub deadline: Option<Instant>,
    /// The cooperative cancellation flag (clone it to keep a handle).
    pub cancel: CancelToken,
}

impl QosPolicy {
    /// A policy in the given class, no deadline, fresh token.
    pub fn with_priority(priority: Priority) -> Self {
        QosPolicy { priority, ..QosPolicy::default() }
    }

    /// Shorthand for [`Priority::Interactive`].
    pub fn interactive() -> Self {
        Self::with_priority(Priority::Interactive)
    }

    /// Shorthand for [`Priority::Normal`] (the default).
    pub fn normal() -> Self {
        Self::with_priority(Priority::Normal)
    }

    /// Shorthand for [`Priority::Bulk`].
    pub fn bulk() -> Self {
        Self::with_priority(Priority::Bulk)
    }

    /// Sets an absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deadline `timeout` from now.
    pub fn with_deadline_in(self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }

    /// A handle on the policy's cancellation flag — keep it to cancel
    /// the request later from any thread.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Whether the request should abort as of `now`: cancellation wins
    /// over an expired deadline when both hold (the user's explicit
    /// request is the stronger signal). `None` means keep working.
    pub fn abort_reason(&self, now: Instant) -> Option<AbortReason> {
        if self.cancel.is_cancelled() {
            return Some(AbortReason::Cancelled);
        }
        match self.deadline {
            Some(deadline) if now >= deadline => Some(AbortReason::DeadlineExceeded),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// The request builder
// ---------------------------------------------------------------------

/// What a query estimates Betti numbers *of*. Borrowed, so building a
/// request is allocation-light and the shims stay zero-cost.
#[derive(Clone, Copy)]
pub enum QuerySource<'a> {
    /// A point cloud: the query builds the Rips construction itself
    /// (a complex for a single scale, a [`LaplacianFiltration`] arena
    /// for a grid).
    Cloud(&'a PointCloud),
    /// A prebuilt simplicial complex (no scale semantics — exactly one
    /// slice, `epsilon: None`).
    Complex(&'a SimplicialComplex),
    /// A prebuilt Laplacian filtration arena: every `(ε, dim)` unit is
    /// a prefix read, valid at any ε at or below the construction
    /// scale.
    Filtration(&'a LaplacianFiltration),
}

impl std::fmt::Debug for QuerySource<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuerySource::Cloud(cloud) => {
                write!(f, "Cloud({} points, dim {})", cloud.len(), cloud.dim())
            }
            QuerySource::Complex(complex) => {
                write!(f, "Complex({} vertices)", complex.count(0))
            }
            QuerySource::Filtration(_) => write!(f, "Filtration(..)"),
        }
    }
}

/// The unified Betti-query builder. Start from a source, chain what the
/// request needs, [`build`](Self::build) into a [`Query`], [`run`](Query::run).
///
/// ```
/// use qtda_core::query::BettiRequest;
/// use qtda_tda::point_cloud::PointCloud;
///
/// let cloud = PointCloud::new(2, vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
/// let output = BettiRequest::of_cloud(&cloud).at_scale(1.2).max_dim(1).build().run();
/// assert_eq!(output.slices.len(), 1);
/// assert_eq!(output.slices[0].classical.len(), 2); // β₀, β₁
/// ```
#[derive(Clone, Debug)]
pub struct BettiRequest<'a> {
    source: QuerySource<'a>,
    epsilons: Vec<f64>,
    dim_lo: usize,
    dim_hi: usize,
    metric: Metric,
    estimator: EstimatorConfig,
    policy: DispatchPolicy,
    persistence: bool,
    share: Option<&'a SpectrumShare>,
}

impl<'a> BettiRequest<'a> {
    fn new(source: QuerySource<'a>) -> Self {
        BettiRequest {
            source,
            epsilons: Vec::new(),
            dim_lo: 0,
            dim_hi: 1,
            metric: Metric::Euclidean,
            estimator: EstimatorConfig::default(),
            policy: DispatchPolicy::default(),
            persistence: false,
            share: None,
        }
    }

    /// A request over a point cloud; set at least one scale via
    /// [`Self::at_scale`] or [`Self::on_grid`].
    pub fn of_cloud(cloud: &'a PointCloud) -> Self {
        Self::new(QuerySource::Cloud(cloud))
    }

    /// A request over a prebuilt complex (scale-free: one slice out).
    pub fn of_complex(complex: &'a SimplicialComplex) -> Self {
        Self::new(QuerySource::Complex(complex))
    }

    /// A request over a prebuilt filtration arena; set the scales via
    /// [`Self::at_scale`] or [`Self::on_grid`]. Every scale must be at
    /// or below the arena's construction scale, and every requested
    /// dimension below its construction dimension ([`Self::build`]
    /// checks both).
    pub fn of_filtration(filtration: &'a LaplacianFiltration) -> Self {
        Self::new(QuerySource::Filtration(filtration))
    }

    /// Evaluate at a single grouping scale ε.
    pub fn at_scale(mut self, epsilon: f64) -> Self {
        self.epsilons = vec![epsilon];
        self
    }

    /// Evaluate at every scale of an ε-grid, in grid order.
    pub fn on_grid(mut self, epsilons: Vec<f64>) -> Self {
        self.epsilons = epsilons;
        self
    }

    /// Estimate every homology dimension `0 ..= max_dim` (default 1).
    pub fn max_dim(mut self, max_dim: usize) -> Self {
        self.dim_lo = 0;
        self.dim_hi = max_dim;
        self
    }

    /// Estimate exactly one homology dimension `k` — the finest-grained
    /// request, the unit batch drivers schedule.
    pub fn dimension(mut self, k: usize) -> Self {
        self.dim_lo = k;
        self.dim_hi = k;
        self
    }

    /// Absorbs a [`crate::pipeline::PipelineConfig`] in one call:
    /// scale, dimensions, metric, estimator, and routing.
    pub fn configured(self, config: &crate::pipeline::PipelineConfig) -> Self {
        self.at_scale(config.epsilon)
            .max_dim(config.max_homology_dim)
            .metric(config.metric)
            .estimator(config.estimator)
            .dispatch(config.dispatch_policy())
    }

    /// Distance metric for cloud sources (default Euclidean; ignored
    /// for prebuilt complexes and filtrations, which fixed their metric
    /// at construction).
    pub fn metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Estimator parameters (precision qubits, shots, seed, padding,
    /// δ, λ̃-bound).
    pub fn estimator(mut self, estimator: EstimatorConfig) -> Self {
        self.estimator = estimator;
        self
    }

    /// Explicit size-based backend routing (statevector / dense /
    /// sparse by `|S_k|`).
    pub fn dispatch(mut self, policy: DispatchPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The classic dense/sparse split: sparse at or above `threshold`,
    /// no statevector tier — shorthand for
    /// [`DispatchPolicy::from_sparse_threshold`].
    pub fn sparse_threshold(mut self, threshold: usize) -> Self {
        self.policy = DispatchPolicy::from_sparse_threshold(threshold);
        self
    }

    /// Also serve **persistent homology**: every slice gains its row of
    /// the persistent-Betti triangle (`β_k(ε_i, ε_j)` for each earlier
    /// grid scale ε_i, per requested dimension) and the output gains
    /// per-dimension persistence diagrams — all exact integer/interval
    /// data read from the filtration arena, bit-identical to the
    /// classical barcode reduction (pinned by the persistence
    /// equivalence suite in `qtda-tda`).
    ///
    /// Requires a cloud or filtration source with an **ascending**
    /// ε-grid ([`Self::build`] validates; a prebuilt complex has no
    /// scale semantics to persist over). A single-scale cloud request
    /// in this mode sweeps through the filtration arena instead of
    /// materialising a complex, so [`QueryOutput::complex`] is `None`.
    pub fn persistence(mut self) -> Self {
        self.persistence = true;
        self
    }

    /// Deduplicate sparse-route decompositions through a caller-owned
    /// [`SpectrumShare`] — for drivers that split one arena's
    /// `(ε, dim)` units across many single-unit requests and want them
    /// to coalesce like a grid sweep does automatically. Only
    /// filtration-source units consult the share; the share must be
    /// scoped to this arena and estimator config. Never changes results
    /// (see [`SpectrumShare`]), only cost.
    pub fn share_spectra(mut self, share: &'a SpectrumShare) -> Self {
        self.share = Some(share);
        self
    }

    /// Validates the request into a runnable [`Query`].
    ///
    /// # Panics
    /// If a cloud or filtration source has no scales, a complex source
    /// has scales (a prebuilt complex has no scale semantics),
    /// persistence mode is requested of a complex source or with a
    /// non-ascending ε-grid, or a filtration source is asked beyond its
    /// arena: a dimension at or above its construction dimension, or a
    /// scale above its construction scale (NaN and negative scales keep
    /// their degenerate semantics).
    pub fn build(self) -> Query<'a> {
        match self.source {
            QuerySource::Cloud(_) | QuerySource::Filtration(_) => assert!(
                !self.epsilons.is_empty(),
                "cloud and filtration queries need at least one scale (at_scale / on_grid)"
            ),
            QuerySource::Complex(_) => {
                assert!(
                    self.epsilons.is_empty(),
                    "a prebuilt complex has no scale semantics; slice the source instead"
                );
                assert!(
                    !self.persistence,
                    "persistence mode needs a filtration (cloud or arena source), \
                     not a prebuilt complex"
                );
            }
        }
        if let QuerySource::Filtration(filtration) = self.source {
            assert!(
                self.dim_hi < filtration.construction_dim(),
                "dimension {} needs an arena built to dimension {} or higher; \
                 this one was built to {}",
                self.dim_hi,
                self.dim_hi + 1,
                filtration.construction_dim()
            );
            let limit = filtration.construction_epsilon();
            if let Some(epsilon) = self.epsilons.iter().find(|&&epsilon| epsilon > limit) {
                panic!("scale {epsilon} exceeds the arena's construction scale {limit}");
            }
        }
        if self.persistence {
            crate::persist::assert_ascending_grid(&self.epsilons);
        }
        assert!(self.dim_lo <= self.dim_hi, "dimension range reversed");
        Query { req: self }
    }
}

// ---------------------------------------------------------------------
// The executor
// ---------------------------------------------------------------------

/// A validated [`BettiRequest`], ready to execute. This is the **one**
/// request executor: [`crate::pipeline::betti_curve`] routes through
/// it, and its filtration units are the [`unit_on_filtration`] body the
/// batch engine schedules.
#[derive(Clone, Debug)]
pub struct Query<'a> {
    req: BettiRequest<'a>,
}

/// One evaluated slice of a query: every requested homology dimension
/// at one scale (or of the prebuilt complex).
#[derive(Clone, Debug)]
pub struct QuerySlice {
    /// The grouping scale (`None` for complex-source queries).
    pub epsilon: Option<f64>,
    /// Per-dimension estimates, in request dimension order.
    pub estimates: Vec<BettiEstimate>,
    /// Classical Betti numbers for the same dimensions: over Z/2,
    /// counted off the arena's persistence pairing, for grid and
    /// filtration sources; by rank or kernel dimension for a complex
    /// (and a single-scale cloud). The two agree wherever the homology
    /// has no torsion.
    pub classical: Vec<usize>,
    /// Aggregated iterative-solver cost of this slice's units (matvec,
    /// Lanczos iteration, restart counts; see
    /// [`qtda_linalg::profile`]). Empty for dense-route or cache-hit
    /// units, and always empty with the `obs` feature off. Telemetry
    /// only: never part of result identity.
    pub profile: SolveProfile,
    /// The slice's persistent-homology payload — its row of the
    /// persistent-Betti triangle per requested dimension. `Some` only
    /// in [`BettiRequest::persistence`] mode.
    pub persistence: Option<SlicePersistence>,
}

impl QuerySlice {
    /// Estimates rounded to whole Betti numbers.
    pub fn rounded(&self) -> Vec<usize> {
        self.estimates.iter().map(BettiEstimate::rounded).collect()
    }

    /// Raw corrected estimates — the per-scale feature vector.
    pub fn features(&self) -> Vec<f64> {
        self.estimates.iter().map(|e| e.corrected).collect()
    }

    /// Per-dimension absolute errors |β̃ − β| (paper Eq. 12).
    pub fn absolute_errors(&self) -> Vec<f64> {
        self.estimates
            .iter()
            .zip(&self.classical)
            .map(|(e, &c)| (e.corrected - c as f64).abs())
            .collect()
    }
}

/// The result of [`Query::run`]: one [`QuerySlice`] per requested scale
/// (exactly one for complex-source queries), in grid order.
#[derive(Clone, Debug)]
pub struct QueryOutput {
    /// Per-scale results.
    pub slices: Vec<QuerySlice>,
    /// The Rips complex the query materialised, when it built one (a
    /// cloud source evaluated at a single scale). Grid sweeps go
    /// through the filtration arena and never materialise per-scale
    /// complexes.
    pub complex: Option<SimplicialComplex>,
    /// Per-dimension persistence diagrams of the swept filtration.
    /// `Some` only in [`BettiRequest::persistence`] mode.
    pub diagrams: Option<PersistenceDiagrams>,
}

impl QueryOutput {
    /// The only slice of a single-scale (or complex-source) query.
    ///
    /// # Panics
    /// If the query evaluated more than one scale.
    pub fn single_slice(&self) -> &QuerySlice {
        assert_eq!(self.slices.len(), 1, "query evaluated {} slices", self.slices.len());
        &self.slices[0]
    }

    /// The `(estimate, classical)` pair of a single-scale,
    /// single-dimension query — the unit shape batch drivers consume.
    ///
    /// # Panics
    /// If the query evaluated more than one scale or dimension.
    pub fn unit(&self) -> (BettiEstimate, usize) {
        let slice = self.single_slice();
        assert_eq!(
            slice.estimates.len(),
            1,
            "query evaluated {} dimensions",
            slice.estimates.len()
        );
        (slice.estimates[0], slice.classical[0])
    }
}

impl<'a> Query<'a> {
    /// Executes the query, returning every requested `(scale,
    /// dimension)` estimate. Runs to completion — QoS checks live in
    /// the batch engine, the executor that serves [`QosPolicy`]. Fully
    /// deterministic in the request content — worker counts and
    /// scheduling cannot change a single bit.
    pub fn run(&self) -> QueryOutput {
        let dims: Vec<usize> = (self.req.dim_lo..=self.req.dim_hi).collect();
        match self.req.source {
            QuerySource::Complex(complex) => QueryOutput {
                slices: vec![assemble_slice(None, self.dims_on_complex(complex, &dims))],
                complex: None,
                diagrams: None,
            },
            QuerySource::Cloud(cloud) => {
                if self.req.epsilons.len() == 1 && !self.req.persistence {
                    // Single scale: materialise the complex (callers of
                    // the one-shot pipeline get it back) and estimate
                    // its dimensions directly.
                    let epsilon = self.req.epsilons[0];
                    let complex = rips_complex(
                        cloud,
                        &RipsParams {
                            epsilon,
                            max_dim: self.req.dim_hi + 1,
                            metric: self.req.metric,
                        },
                    );
                    let per_dim = self.dims_on_complex(&complex, &dims);
                    QueryOutput {
                        slices: vec![assemble_slice(Some(epsilon), per_dim)],
                        complex: Some(complex),
                        diagrams: None,
                    }
                } else {
                    // Grid sweep: one filtration arena at the grid's
                    // maximum, every unit a prefix read (bit-identical
                    // to per-scale construction; see PR 4's equivalence
                    // suite).
                    let filtration = LaplacianFiltration::rips(
                        cloud,
                        max_scale(&self.req.epsilons),
                        self.req.dim_hi + 1,
                        self.req.metric,
                    );
                    self.sweep_filtration(&filtration, &dims)
                }
            }
            QuerySource::Filtration(filtration) => self.sweep_filtration(filtration, &dims),
        }
    }

    /// Every requested dimension of one complex; a single dimension
    /// runs inline, several fan out via rayon.
    fn dims_on_complex(&self, complex: &SimplicialComplex, dims: &[usize]) -> Vec<UnitValue> {
        let unit = |&k: &usize| unit_on_complex(complex, k, &self.req.estimator, self.req.policy);
        if dims.len() == 1 {
            return dims.iter().map(unit).collect();
        }
        dims.par_iter().map(unit).collect()
    }

    /// Every `(ε, dimension)` unit of a grid over one filtration arena;
    /// a single-unit request runs inline, anything larger fans out via
    /// rayon.
    fn sweep_filtration(&self, filtration: &LaplacianFiltration, dims: &[usize]) -> QueryOutput {
        // Grid sweeps share sparse decompositions across their own
        // units automatically: consecutive ε's whose Δ_k prefixes are
        // identical coalesce into one Lanczos run. Callers can inject a
        // wider-scoped share (`share_spectra`) instead.
        let local_share = SpectrumShare::new();
        let share = self.req.share.unwrap_or(&local_share);
        let unit = |eps: f64, k: usize| {
            unit_on_filtration(
                filtration,
                eps,
                k,
                &self.req.estimator,
                self.req.policy,
                Some(share),
            )
        };
        let epsilons = &self.req.epsilons;
        let mut slices: Vec<QuerySlice> = if epsilons.len() == 1 && dims.len() == 1 {
            vec![assemble_slice(Some(epsilons[0]), vec![unit(epsilons[0], dims[0])])]
        } else {
            // The ε's (and the dimensions within each ε) fan out in
            // parallel, exactly like the historical `betti_curve`.
            epsilons
                .par_iter()
                .map(|&eps| {
                    assemble_slice(Some(eps), dims.par_iter().map(|&k| unit(eps, k)).collect())
                })
                .collect()
        };
        let diagrams = if self.req.persistence {
            // Persistence post-pass: exact integer payloads read off
            // the arena — each slice's persistent-Betti rows over its
            // grid prefix, then the request-wide diagrams.
            for (j, slice) in slices.iter_mut().enumerate() {
                slice.persistence = Some(crate::persist::slice_rows(
                    filtration,
                    self.req.dim_lo,
                    self.req.dim_hi,
                    &epsilons[..=j],
                    epsilons[j],
                ));
            }
            Some(crate::persist::diagrams(filtration, self.req.dim_lo, self.req.dim_hi))
        } else {
            None
        };
        QueryOutput { slices, complex: None, diagrams }
    }
}

/// What one `(ε, dimension)` unit produces: the estimate, the classical
/// cross-check, and the solver cost it burned (telemetry only).
type UnitValue = (BettiEstimate, usize, SolveProfile);

fn assemble_slice(epsilon: Option<f64>, per_dim: Vec<UnitValue>) -> QuerySlice {
    let mut profile = SolveProfile::default();
    let mut estimates = Vec::with_capacity(per_dim.len());
    let mut classical = Vec::with_capacity(per_dim.len());
    for (estimate, betti, unit_profile) in per_dim {
        estimates.push(estimate);
        classical.push(betti);
        profile.merge(&unit_profile);
    }
    QuerySlice { epsilon, estimates, classical, profile, persistence: None }
}

// ---------------------------------------------------------------------
// The units (shared with `pipeline`'s shims via `Query` itself)
// ---------------------------------------------------------------------

/// The three-way backend dispatch shared by every unit source: the
/// Laplacian and classical-count providers differ (direct assembly vs
/// arena prefix read), the routing and estimator construction must not —
/// a single body is what keeps [`unit_on_complex`] and
/// [`unit_on_filtration`] bit-identical by construction. `classical`
/// receives the spectrum when the sparse route decomposed one, so a
/// provider without an exact count may read β_k = dim ker Δ_k (Eq. 6)
/// off its zero count.
fn unit_dispatch(
    n_k: usize,
    estimator_config: &EstimatorConfig,
    policy: DispatchPolicy,
    shared: Option<(&SpectrumShare, (usize, usize, usize))>,
    sparse_laplacian: impl FnOnce() -> qtda_linalg::CsrMatrix,
    dense_laplacian: impl FnOnce() -> qtda_linalg::Mat,
    classical: impl FnOnce(Option<&PaddedSpectrum>) -> usize,
) -> UnitValue {
    let estimator = BettiEstimator::new(*estimator_config);
    if n_k == 0 {
        // Empty S_k short-circuits to a zero estimate (q = 0).
        return (estimator.estimate(&qtda_linalg::Mat::zeros(0, 0)), 0, SolveProfile::default());
    }
    // The dense and sparse routes read p(0) off the same unpadded
    // `PaddedSpectrum`; they differ only in the eigensolver.
    let ((estimate, betti), profile) = run_profiled(|| match policy.choose(n_k) {
        crate::pipeline::BackendKind::SparseLanczos => {
            let decompose = || {
                PaddedSpectrum::of_sparse_laplacian_bounded(
                    &sparse_laplacian(),
                    estimator_config.padding,
                    estimator_config.delta,
                    LanczosBackend::default().seed,
                    estimator_config.lambda_bound,
                )
            };
            // The spectrum is a pure function of the Laplacian content
            // and the config, so units sharing an arena prefix can share
            // one decomposition without touching their bits. A unit that
            // finds the spectrum already shared profiles (truthfully) as
            // zero solver cost.
            let spectrum = match shared {
                Some((share, key)) => share.get_or_compute(key, decompose),
                None => Arc::new(decompose()),
            };
            (estimator.estimate_from_spectrum(&spectrum), classical(Some(&spectrum)))
        }
        crate::pipeline::BackendKind::DenseEigen => {
            (estimator.estimate(&dense_laplacian()), classical(None))
        }
        crate::pipeline::BackendKind::Statevector => {
            let estimator =
                BettiEstimator::with_backend(*estimator_config, Box::new(StatevectorBackend));
            (estimator.estimate(&dense_laplacian()), classical(None))
        }
    });
    (estimate, betti, profile)
}

/// The profiling scope around one unit's compute. With `obs` off this
/// is the identity plus an empty profile — the solvers' recording hooks
/// find no open scope either way when disabled, so the computed bits
/// cannot differ.
#[cfg(feature = "obs")]
fn run_profiled<T>(f: impl FnOnce() -> T) -> (T, SolveProfile) {
    qtda_linalg::profile::profiled(f)
}

#[cfg(not(feature = "obs"))]
fn run_profiled<T>(f: impl FnOnce() -> T) -> (T, SolveProfile) {
    (f(), SolveProfile::default())
}

/// One homology dimension of a prebuilt complex: the QPE estimate next
/// to the classical cross-check, routed by the policy. The sparse route
/// reads β_k off its spectrum's zero count, the others take the Bareiss
/// rank. Pure in its arguments — this purity is what makes every layer
/// above scheduling-invariant.
pub(crate) fn unit_on_complex(
    complex: &SimplicialComplex,
    k: usize,
    estimator_config: &EstimatorConfig,
    policy: DispatchPolicy,
) -> UnitValue {
    unit_dispatch(
        complex.count(k),
        estimator_config,
        policy,
        None,
        || combinatorial_laplacian_sparse(complex, k),
        || combinatorial_laplacian(complex, k),
        |spectrum| spectrum.map_or_else(|| betti_via_rank(complex, k), PaddedSpectrum::kernel_dim),
    )
}

/// One `(ε, dimension)` unit served from a prebuilt filtration arena:
/// Δ_k at ε is a prefix read (slice-lexicographic order), bit-identical
/// to the complex-source unit (`unit_on_complex`) on the slice complex.
/// Returns the QPE estimate, the classical β_k cross-check — on every
/// route a count over the arena's stored Z/2 pairing
/// ([`LaplacianFiltration::betti_at`]), exact by construction — and the
/// solver cost the unit burned (telemetry only; empty with the `obs`
/// feature off). `share` deduplicates sparse decompositions across
/// units of the same arena and estimator parameters (see
/// [`SpectrumShare`]); it never changes a bit.
pub fn unit_on_filtration(
    filtration: &LaplacianFiltration,
    epsilon: f64,
    k: usize,
    estimator_config: &EstimatorConfig,
    policy: DispatchPolicy,
    share: Option<&SpectrumShare>,
) -> (BettiEstimate, usize, SolveProfile) {
    let n_k = filtration.count_at(k, epsilon);
    // `(k, |S_k|, triplet prefix length)` pins the exact Δ_k content
    // within this arena — the share key (see [`SpectrumShare`]).
    let shared = share.map(|s| (s, (k, n_k, filtration.triplets_at(k, epsilon))));
    unit_dispatch(
        n_k,
        estimator_config,
        policy,
        shared,
        || filtration.laplacian_at(k, epsilon),
        || filtration.laplacian_at(k, epsilon).to_dense(),
        |_| filtration.betti_at(k, epsilon),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtda_tda::point_cloud::synthetic;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn high_fidelity(seed: u64) -> EstimatorConfig {
        EstimatorConfig { precision_qubits: 6, shots: 10_000, seed, ..Default::default() }
    }

    #[test]
    fn priority_classes_order_interactive_first() {
        assert!(Priority::Interactive < Priority::Normal);
        assert!(Priority::Normal < Priority::Bulk);
        assert_eq!(Priority::CLASSES.map(Priority::index), [0, 1, 2]);
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn cancel_token_is_shared_and_sticky() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled(), "clones share the flag");
    }

    #[test]
    fn default_policy_never_aborts() {
        let qos = QosPolicy::default();
        assert_eq!(qos.priority, Priority::Normal);
        assert_eq!(qos.abort_reason(Instant::now()), None);
    }

    #[test]
    fn cancellation_wins_over_expired_deadline() {
        let qos = QosPolicy::bulk().with_deadline(Instant::now() - Duration::from_secs(1));
        assert_eq!(qos.abort_reason(Instant::now()), Some(AbortReason::DeadlineExceeded));
        qos.cancel_token().cancel();
        assert_eq!(qos.abort_reason(Instant::now()), Some(AbortReason::Cancelled));
    }

    #[test]
    fn future_deadline_does_not_abort() {
        let qos = QosPolicy::interactive().with_deadline_in(Duration::from_secs(3600));
        assert_eq!(qos.abort_reason(Instant::now()), None);
    }

    #[test]
    fn grid_runs_match_single_unit_requests() {
        // A multi-unit request fans its units out via rayon; each unit
        // must carry the bits of the same (ε, k) requested alone, which
        // runs inline.
        let mut rng = StdRng::seed_from_u64(13);
        let cloud = synthetic::figure_eight(10, 1.0, 0.02, &mut rng);
        let mut rng = StdRng::seed_from_u64(27);
        let circle = synthetic::circle(13, 1.0, 0.02, &mut rng);
        let complex = rips_complex(&circle, &RipsParams::new(0.6, 2));
        let grid = [0.3, 0.5, 0.7, 0.9];
        let assert_unit = |slice: &QuerySlice, k: usize, alone: (BettiEstimate, usize)| {
            assert_eq!(slice.classical[k], alone.1);
            let swept = &slice.estimates[k];
            assert_eq!(swept.p_zero_sampled.to_bits(), alone.0.p_zero_sampled.to_bits());
            assert_eq!(swept.corrected.to_bits(), alone.0.corrected.to_bits());
        };
        let swept = BettiRequest::of_cloud(&cloud)
            .on_grid(grid.to_vec())
            .estimator(high_fidelity(5))
            .build()
            .run();
        assert_eq!(swept.slices.len(), grid.len());
        for (slice, &eps) in swept.slices.iter().zip(&grid) {
            for k in 0..=1usize {
                let alone = BettiRequest::of_cloud(&cloud)
                    .at_scale(eps)
                    .dimension(k)
                    .estimator(high_fidelity(5))
                    .build()
                    .run()
                    .unit();
                assert_unit(slice, k, alone);
            }
        }
        let whole = BettiRequest::of_complex(&complex)
            .max_dim(1)
            .estimator(high_fidelity(17))
            .build()
            .run();
        for k in 0..=1usize {
            let alone = BettiRequest::of_complex(&complex)
                .dimension(k)
                .estimator(high_fidelity(17))
                .build()
                .run()
                .unit();
            assert_unit(whole.single_slice(), k, alone);
        }
    }

    /// The regular tetrahedron: all six edges are √2 long, so at 1.5
    /// the 3-simplex fills the void its four triangles enclose.
    fn tetrahedron() -> PointCloud {
        PointCloud::new(3, vec![1., 0., 0., 0., 1., 0., 0., 0., 1., 1., 1., 1.])
    }

    /// The unit square: its loop is filled once the √2 diagonals enter.
    fn unit_square() -> PointCloud {
        PointCloud::new(2, vec![0., 0., 1., 0., 1., 1., 0., 1.])
    }

    #[test]
    #[should_panic(expected = "dimension 2 needs an arena built to dimension 3 or higher")]
    fn filtration_requests_at_the_construction_dimension_are_refused() {
        let cloud = tetrahedron();
        let truth = BettiRequest::of_cloud(&cloud).at_scale(1.5).dimension(2).build().run();
        assert_eq!(truth.unit().1, 0);
        let deep = LaplacianFiltration::rips(&cloud, 1.5, 3, Metric::Euclidean);
        let served = BettiRequest::of_filtration(&deep).at_scale(1.5).dimension(2).build().run();
        assert_eq!(served.unit().1, 0);
        // Built to dimension 2, Δ₂ lacks the 3-simplex's up-term and β₂
        // would read 1.
        let shallow = LaplacianFiltration::rips(&cloud, 1.5, 2, Metric::Euclidean);
        let _ = BettiRequest::of_filtration(&shallow).at_scale(1.5).dimension(2).build();
    }

    #[test]
    #[should_panic(expected = "scale 1.5 exceeds the arena's construction scale 1.2")]
    fn filtration_requests_above_the_construction_scale_are_refused() {
        let cloud = unit_square();
        let truth = BettiRequest::of_cloud(&cloud).at_scale(1.5).max_dim(1).build().run();
        assert_eq!(truth.single_slice().classical, [1, 0]);
        let arena = LaplacianFiltration::rips(&cloud, 1.2, 2, Metric::Euclidean);
        let within = BettiRequest::of_filtration(&arena).at_scale(1.2).max_dim(1).build().run();
        assert_eq!(within.single_slice().classical, [1, 1]);
        // The diagonals that fill the loop at 1.5 were never built, so
        // β₁ would read 1.
        let _ = BettiRequest::of_filtration(&arena).at_scale(1.5).max_dim(1).build();
    }

    #[test]
    fn degenerate_scales_stay_servable_from_a_filtration() {
        let cloud = unit_square();
        let arena = LaplacianFiltration::rips(&cloud, 1.2, 2, Metric::Euclidean);
        let output =
            BettiRequest::of_filtration(&arena).on_grid(vec![f64::NAN, -1.0]).build().run();
        for slice in &output.slices {
            assert_eq!(slice.classical, [4, 0], "vertices survive ε = {:?}", slice.epsilon);
        }
    }

    #[test]
    fn sparse_threshold_is_bit_identical_to_the_threshold_policy() {
        let mut rng = StdRng::seed_from_u64(51);
        let cloud = synthetic::circle(12, 1.0, 0.02, &mut rng);
        let complex = rips_complex(&cloud, &RipsParams::new(0.6, 2));
        let request = BettiRequest::of_complex(&complex).dimension(1).estimator(high_fidelity(19));
        for threshold in [0, 8, usize::MAX] {
            let direct = request.clone().sparse_threshold(threshold).build().run().unit();
            let dispatched = request
                .clone()
                .dispatch(DispatchPolicy::from_sparse_threshold(threshold))
                .build()
                .run()
                .unit();
            assert_eq!(direct.1, dispatched.1, "classical, threshold {threshold}");
            assert_eq!(
                direct.0.corrected.to_bits(),
                dispatched.0.corrected.to_bits(),
                "estimate, threshold {threshold}"
            );
        }
    }

    #[test]
    fn filtration_units_are_bit_identical_to_complex_units_across_backends() {
        let mut rng = StdRng::seed_from_u64(61);
        let cloud = synthetic::circle(14, 1.0, 0.02, &mut rng);
        let grid = [0.2, 0.35, 0.5, 0.65, 0.8];
        let filtration = LaplacianFiltration::rips(&cloud, max_scale(&grid), 2, Metric::Euclidean);
        // Exercise all three routes: statevector on tiny S_k, dense in
        // the middle, sparse Lanczos from 12 up.
        let policy = DispatchPolicy { statevector_max: 4, sparse_min: 12 };
        for &eps in &grid {
            let complex = rips_complex(&cloud, &RipsParams::new(eps, 2));
            for k in 0..=1usize {
                let direct = BettiRequest::of_complex(&complex)
                    .dimension(k)
                    .estimator(high_fidelity(23))
                    .dispatch(policy)
                    .build()
                    .run()
                    .unit();
                let filtered = BettiRequest::of_filtration(&filtration)
                    .at_scale(eps)
                    .dimension(k)
                    .estimator(high_fidelity(23))
                    .dispatch(policy)
                    .build()
                    .run()
                    .unit();
                assert_eq!(direct.1, filtered.1, "classical at ε = {eps}, k = {k}");
                assert_eq!(
                    direct.0.corrected.to_bits(),
                    filtered.0.corrected.to_bits(),
                    "estimate at ε = {eps}, k = {k}"
                );
                assert_eq!(direct.0.p_zero_exact.to_bits(), filtered.0.p_zero_exact.to_bits());
                assert_eq!(direct.0.q, filtered.0.q);
            }
        }
    }

    #[test]
    fn filtration_slices_match_complex_slices() {
        let mut rng = StdRng::seed_from_u64(62);
        let cloud = synthetic::figure_eight(11, 1.0, 0.03, &mut rng);
        let eps = 0.6;
        let filtration = LaplacianFiltration::rips(&cloud, eps, 2, Metric::Euclidean);
        let complex = rips_complex(&cloud, &RipsParams::new(eps, 2));
        for threshold in [0, 8, usize::MAX] {
            let via_complex = BettiRequest::of_complex(&complex)
                .max_dim(1)
                .estimator(high_fidelity(29))
                .sparse_threshold(threshold)
                .build()
                .run();
            let via_filtration = BettiRequest::of_filtration(&filtration)
                .at_scale(eps)
                .max_dim(1)
                .estimator(high_fidelity(29))
                .sparse_threshold(threshold)
                .build()
                .run();
            let (c, f) = (via_complex.single_slice(), via_filtration.single_slice());
            assert_eq!(c.estimates.len(), f.estimates.len());
            assert_eq!(c.classical, f.classical, "classical, threshold {threshold}");
            for (ec, ef) in c.estimates.iter().zip(&f.estimates) {
                assert_eq!(ec.corrected.to_bits(), ef.corrected.to_bits());
                assert_eq!(ec.p_zero_sampled.to_bits(), ef.p_zero_sampled.to_bits());
            }
        }
    }

    #[test]
    fn single_scale_cloud_query_returns_the_complex() {
        let mut rng = StdRng::seed_from_u64(14);
        let cloud = synthetic::circle(10, 1.0, 0.02, &mut rng);
        let out =
            BettiRequest::of_cloud(&cloud).at_scale(0.6).estimator(high_fidelity(7)).build().run();
        let complex = out.complex.as_ref().expect("single-scale cloud queries materialise one");
        assert!(complex.count(0) == 10);
        assert_eq!(out.single_slice().epsilon, Some(0.6));
    }

    #[test]
    fn unit_accessor_returns_the_single_pair() {
        let mut rng = StdRng::seed_from_u64(15);
        let cloud = synthetic::circle(8, 1.0, 0.02, &mut rng);
        let out = BettiRequest::of_cloud(&cloud)
            .at_scale(0.7)
            .dimension(0)
            .estimator(high_fidelity(9))
            .build()
            .run();
        let (estimate, classical) = out.unit();
        assert_eq!(estimate.rounded(), classical);
    }

    #[test]
    fn shared_spectra_do_not_change_unit_bits() {
        // Split a grid into single-unit requests over one explicit
        // share (the batch-engine shape) and compare against the grid
        // sweep (which shares internally) — bits must match in every
        // position, and the dedup must actually fire (fewer cached
        // spectra than sparse units).
        use qtda_tda::filtration::max_scale;
        let mut rng = StdRng::seed_from_u64(16);
        let cloud = synthetic::circle(16, 1.0, 0.02, &mut rng);
        let grid = vec![0.35, 0.4, 0.45, 0.5, 0.55, 0.6];
        let filtration = LaplacianFiltration::rips(
            &cloud,
            max_scale(&grid),
            2,
            qtda_tda::point_cloud::Metric::Euclidean,
        );
        // Force the sparse route so the share is on the hot path.
        let policy = DispatchPolicy::from_sparse_threshold(1);
        let swept = BettiRequest::of_filtration(&filtration)
            .on_grid(grid.clone())
            .max_dim(1)
            .estimator(high_fidelity(21))
            .dispatch(policy)
            .build()
            .run();
        let share = SpectrumShare::new();
        let mut sparse_units = 0usize;
        for (i, &eps) in grid.iter().enumerate() {
            for k in 0..=1usize {
                let (est, classical) = BettiRequest::of_filtration(&filtration)
                    .at_scale(eps)
                    .dimension(k)
                    .estimator(high_fidelity(21))
                    .dispatch(policy)
                    .share_spectra(&share)
                    .build()
                    .run()
                    .unit();
                if filtration.count_at(k, eps) > 0 {
                    sparse_units += 1;
                }
                assert_eq!(classical, swept.slices[i].classical[k], "ε = {eps}, k = {k}");
                assert_eq!(
                    est.corrected.to_bits(),
                    swept.slices[i].estimates[k].corrected.to_bits(),
                    "ε = {eps}, k = {k}"
                );
            }
        }
        assert!(!share.is_empty());
        assert!(
            share.len() < sparse_units,
            "a fine grid must have identical-prefix units ({} cached / {} units)",
            share.len(),
            sparse_units
        );
    }

    #[test]
    #[cfg(feature = "obs")]
    fn sparse_units_surface_their_solver_cost() {
        let mut rng = StdRng::seed_from_u64(23);
        let cloud = synthetic::circle(14, 1.0, 0.02, &mut rng);
        let policy = DispatchPolicy::from_sparse_threshold(1);
        let request = |share: Option<&SpectrumShare>| {
            let mut req = BettiRequest::of_cloud(&cloud)
                .at_scale(0.6)
                .dimension(1)
                .estimator(high_fidelity(9))
                .dispatch(policy);
            if let Some(s) = share {
                req = req.share_spectra(s);
            }
            req.build().run()
        };
        let out = request(None);
        let profile = out.slices[0].profile;
        assert!(profile.matvecs > 0, "the sparse route spends matvecs: {profile:?}");
        assert!(profile.lanczos_iterations > 0);

        // A unit whose spectrum is already shared burns (and therefore
        // reports) no solver cost — and its bits cannot move.
        use qtda_tda::filtration::max_scale;
        let filtration = LaplacianFiltration::rips(
            &cloud,
            max_scale(&[0.6]),
            2,
            qtda_tda::point_cloud::Metric::Euclidean,
        );
        let share = SpectrumShare::new();
        let unit = |share: &SpectrumShare| {
            BettiRequest::of_filtration(&filtration)
                .at_scale(0.6)
                .dimension(1)
                .estimator(high_fidelity(9))
                .dispatch(policy)
                .share_spectra(share)
                .build()
                .run()
        };
        let first = unit(&share);
        let second = unit(&share);
        assert!(first.slices[0].profile.matvecs > 0);
        assert!(second.slices[0].profile.is_empty(), "cache hit reports zero cost");
        assert_eq!(
            first.slices[0].estimates[0].corrected.to_bits(),
            second.slices[0].estimates[0].corrected.to_bits(),
        );
    }

    #[test]
    #[should_panic(expected = "at least one scale")]
    fn cloud_request_without_scales_is_rejected() {
        let cloud = PointCloud::new(1, vec![0.0, 1.0]);
        let _ = BettiRequest::of_cloud(&cloud).build();
    }

    #[test]
    #[should_panic(expected = "no scale semantics")]
    fn complex_request_with_scales_is_rejected() {
        let complex = qtda_tda::complex::worked_example_complex();
        let _ = BettiRequest::of_complex(&complex).at_scale(0.5).build();
    }

    #[test]
    fn persistence_mode_serves_rows_and_diagrams_from_the_arena() {
        use qtda_tda::filtration::max_scale;
        let mut rng = StdRng::seed_from_u64(31);
        let cloud = synthetic::circle(12, 1.0, 0.05, &mut rng);
        let grid = vec![0.3, 0.6, 0.9, 1.2];
        let out = BettiRequest::of_cloud(&cloud)
            .on_grid(grid.clone())
            .max_dim(1)
            .estimator(high_fidelity(17))
            .persistence()
            .build()
            .run();
        // Against direct arena reads — the layers must agree exactly.
        let filtration = LaplacianFiltration::rips(
            &cloud,
            max_scale(&grid),
            2,
            qtda_tda::point_cloud::Metric::Euclidean,
        );
        assert_eq!(out.slices.len(), grid.len());
        for (j, slice) in out.slices.iter().enumerate() {
            let payload = slice.persistence.as_ref().expect("persistence mode fills every slice");
            for k in 0..=1usize {
                let row = payload.row(k).expect("requested dimension served");
                assert_eq!(row.len(), j + 1, "row spans the grid prefix");
                for (i, &eps_i) in grid[..=j].iter().enumerate() {
                    assert_eq!(
                        row[i],
                        filtration.persistent_betti_at(k, eps_i, grid[j]),
                        "k = {k}, ε = ({eps_i}, {})",
                        grid[j]
                    );
                }
                // Diagonal = the slice's own classical Betti number.
                assert_eq!(row[j], slice.classical[k], "k = {k}, j = {j}");
            }
        }
        let diagrams = out.diagrams.as_ref().expect("persistence mode attaches diagrams");
        for k in 0..=1usize {
            assert_eq!(
                diagrams.bars(k).expect("requested dimension served"),
                filtration.bars(k).as_slice(),
                "k = {k}"
            );
        }
        // Estimates are untouched by the mode: bit-identical to the
        // plain sweep of the same request.
        let plain = BettiRequest::of_cloud(&cloud)
            .on_grid(grid)
            .max_dim(1)
            .estimator(high_fidelity(17))
            .build()
            .run();
        assert!(plain.slices.iter().all(|s| s.persistence.is_none()));
        assert!(plain.diagrams.is_none());
        for (p, s) in out.slices.iter().zip(&plain.slices) {
            assert_eq!(p.classical, s.classical);
            for (a, b) in p.features().iter().zip(s.features()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn single_scale_persistence_cloud_query_sweeps_the_arena() {
        let mut rng = StdRng::seed_from_u64(33);
        let cloud = synthetic::circle(10, 1.0, 0.02, &mut rng);
        let out = BettiRequest::of_cloud(&cloud)
            .at_scale(0.7)
            .estimator(high_fidelity(19))
            .persistence()
            .build()
            .run();
        assert!(out.complex.is_none(), "persistence mode never materialises a complex");
        let payload = out.slices[0].persistence.as_ref().expect("payload attached");
        assert_eq!(payload.row(0).map(<[usize]>::len), Some(1), "one-scale grid, one column");
        assert_eq!(payload.betti(0, 0), Some(out.slices[0].classical[0]));
        assert!(out.diagrams.is_some());
    }

    #[test]
    fn persistence_sweeps_match_single_unit_requests() {
        let mut rng = StdRng::seed_from_u64(35);
        let cloud = synthetic::figure_eight(10, 1.0, 0.02, &mut rng);
        let grid = vec![0.3, 0.5, 0.7, 0.9];
        let swept = BettiRequest::of_cloud(&cloud)
            .on_grid(grid.clone())
            .estimator(high_fidelity(5))
            .persistence()
            .build()
            .run();
        let diagrams = swept.diagrams.as_ref().expect("persistence mode attaches diagrams");
        let filtration = LaplacianFiltration::rips(&cloud, max_scale(&grid), 2, Metric::Euclidean);
        for (j, (slice, &eps)) in swept.slices.iter().zip(&grid).enumerate() {
            let rows = slice.persistence.as_ref().expect("persistence mode fills every slice");
            for k in 0..=1usize {
                let alone = BettiRequest::of_filtration(&filtration)
                    .at_scale(eps)
                    .dimension(k)
                    .estimator(high_fidelity(5))
                    .persistence()
                    .build()
                    .run();
                let unit = alone.single_slice();
                assert_eq!(unit.classical, [slice.classical[k]], "ε = {eps}, k = {k}");
                assert_eq!(
                    unit.estimates[0].corrected.to_bits(),
                    slice.estimates[k].corrected.to_bits(),
                    "ε = {eps}, k = {k}"
                );
                // A one-scale grid's row is the sweep row's diagonal.
                let diagonal = rows.betti(k, j).expect("requested dimension served");
                let row = unit.persistence.as_ref().and_then(|p| p.row(k));
                assert_eq!(row, Some(&[diagonal][..]), "ε = {eps}, k = {k}");
                let bars = alone.diagrams.as_ref().and_then(|d| d.bars(k));
                assert_eq!(bars, diagrams.bars(k), "k = {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a prebuilt complex")]
    fn persistence_over_a_complex_is_rejected() {
        let complex = qtda_tda::complex::worked_example_complex();
        let _ = BettiRequest::of_complex(&complex).persistence().build();
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn persistence_over_a_descending_grid_is_rejected() {
        let cloud = PointCloud::new(1, vec![0.0, 1.0]);
        let _ = BettiRequest::of_cloud(&cloud).on_grid(vec![0.9, 0.3]).persistence().build();
    }
}
