//! # qtda-engine
//!
//! A batched multi-cloud Betti-serving subsystem over the one-shot
//! pipeline in `qtda-core`. The paper's gearbox workload (§5, Table 1)
//! estimates Betti numbers for *thousands* of independent small
//! sliding-window point clouds; Lloyd et al. (arXiv:1408.3106) frame
//! QTDA as a big-data primitive run over many datasets. Serving that
//! kind of traffic one single-scale `BettiRequest` at a time wastes
//! work three ways, and this crate exists to stop all three:
//!
//! * **Per-ε rebuilds.** A [`BettiJob`] carries a whole ε-grid; the
//!   engine runs neighbour search, flag expansion, *and Laplacian
//!   triplet emission* once per job at the grid's largest scale
//!   (`tda::laplacian_filtration::LaplacianFiltration`), then serves
//!   every `(ε, dim)` unit's Δ_k as a prefix read of the
//!   activation-sorted arena — no per-slice complexes or boundary
//!   walks at all.
//! * **Head-of-line blocking.** Work is scheduled at `(job, ε, dim)`
//!   granularity from a shared queue, so a single big job spreads over
//!   all workers instead of serialising behind small ones.
//! * **Recomputing repeated windows.** Results are cached in an LRU keyed
//!   by a content [fingerprint](BettiJob::fingerprint); repeat traffic
//!   (multiple consumers of the same window, re-analysis sweeps) is
//!   served from memory.
//!
//! Determinism is the load-bearing design decision: every estimator seed
//! is derived from the engine's batch seed and the job's *content*
//! ([`seed`]), never from positions or timing — so outputs are
//! bit-identical across worker counts, batch compositions and cache
//! states, and every slice can be replayed through the one-shot pipeline
//! (`SliceResult::seed` is the `EstimatorConfig::seed` to pass).
//!
//! ```
//! use qtda_engine::{BatchEngine, BettiJob};
//! use qtda_tda::point_cloud::PointCloud;
//!
//! let engine = BatchEngine::with_defaults();
//! let cloud = PointCloud::new(2, vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
//! let results = engine.run_batch(&[BettiJob::new(cloud, vec![1.0, 1.5])]);
//! assert_eq!(results[0].slices.len(), 2);
//! ```

#![deny(missing_docs)]
#![deny(deprecated)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod cache;
pub mod gearbox;
pub mod job;
pub mod seed;

pub use batch::{
    BatchEngine, EngineConfig, EngineStats, JobOutcome, JobRequest, JobResult, SliceEvent,
    SliceResult, SliceSink,
};
pub use cache::LruCache;
pub use gearbox::{jobs_from_windows, window_to_job, GearboxJobSpec};
pub use job::{BettiJob, JobError};
pub use qtda_core::query::{AbortReason, CancelToken, Priority, QosPolicy};
// Re-exported so callers wiring telemetry (the service, examples) need
// not depend on `qtda-obs` directly.
pub use qtda_obs::{
    Event, EventKind, FlightRecorder, MetricsRegistry, MetricsSnapshot, Trace, Tracer,
};
