//! # qtda-service
//!
//! The streaming front-end over the batch engine: production QTDA
//! traffic is *requests arriving over time*, not pre-assembled batches.
//! Lloyd et al. (arXiv:1408.3106) frame QTDA as a big-data primitive
//! queried continuously, and the paper's gearbox workload (§5) is a
//! live sliding-window stream — windows show up one sensor tick at a
//! time, and consumers want each window's features as soon as they
//! exist, not when an arbitrary batch boundary happens to flush.
//!
//! [`QtdaService`] closes that gap over
//! [`BatchEngine`](qtda_engine::BatchEngine):
//!
//! * **Submission, not batch assembly.** Many producer threads call
//!   [`QtdaService::submit`] / [`QtdaService::try_submit`] and get a
//!   [`Ticket`] each; a background batcher gathers requests into
//!   micro-batches under a (max-size, max-linger-deadline) policy, so
//!   the engine still amortises construction and dedup without any
//!   caller coordinating a batch.
//! * **Backpressure.** The submission queue is bounded:
//!   [`QtdaService::try_submit`] refuses with
//!   [`SubmitError::Overloaded`] instead of letting latency hide in an
//!   unbounded buffer, and [`QtdaService::submit`] blocks.
//! * **Admission.** Both run [`BettiJob::validate`](qtda_engine::BettiJob::validate)
//!   first and refuse a malformed job with [`SubmitError::Invalid`], so
//!   it never reaches the batcher or its micro-batch neighbours.
//! * **Streaming results.** Each [`Ticket`] yields per-ε
//!   [`SliceResult`](qtda_engine::SliceResult)s *as their estimation
//!   units complete* — the engine's incremental-completion hook fires
//!   mid-batch — and finishes with the assembled
//!   [`JobResult`](qtda_engine::JobResult).
//! * **Size-based routing.** Each job's `sparse_threshold` routes its
//!   `(job, ε, dim)` units to the dense-eigensolve or sparse-Lanczos
//!   backend by `|S_k|`.
//! * **Determinism survives.** Seeds are content-derived, so streamed
//!   results are bit-identical to
//!   [`BatchEngine::run_batch`](qtda_engine::BatchEngine::run_batch)
//!   for the same jobs and batch seed, at any worker count and under
//!   any micro-batch grouping; [`QtdaService::shutdown`] drains
//!   in-flight work. Pinned in `tests/streaming.rs`.
//!
//! Built on std threads + channels in the style of the vendored rayon
//! shim (the environment is offline — no async runtime), which keeps
//! the whole crate dependency-free.
//!
//! ```
//! use qtda_service::{QtdaService, ServiceConfig};
//! use qtda_engine::BettiJob;
//! use qtda_tda::point_cloud::PointCloud;
//!
//! let service = QtdaService::new(ServiceConfig::default());
//! let cloud = PointCloud::new(2, vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
//! let mut ticket = service.submit(BettiJob::new(cloud, vec![1.0, 1.5])).unwrap();
//! while let Some(slice) = ticket.next_slice() {
//!     // slices arrive as they complete, before the micro-batch finishes
//!     assert!(slice.slice_index < 2);
//! }
//! let result = ticket.wait();
//! assert_eq!(result.slices.len(), 2);
//! service.shutdown();
//! ```

#![deny(missing_docs)]
#![deny(deprecated)]
#![forbid(unsafe_code)]

pub mod queue;
pub mod service;
pub mod stats;
pub mod ticket;

// `MetricsRegistry`/`MetricsSnapshot` — and the whole ops surface
// (flight recorder, scrape server, rolling windows, SLO tracking) —
// re-exported so callers can build a [`Telemetry`], serve scrapes, and
// wire burn-rate alerts without depending on `qtda-obs` directly.
pub use qtda_engine::{
    AbortReason, CancelToken, Event, EventKind, FlightRecorder, JobError, MetricsRegistry,
    MetricsSnapshot, Priority, QosPolicy,
};
pub use qtda_obs::{
    OpsState, RollingWindow, ScrapeServer, Slo, SloObjective, SloStatus, SloTracker, WindowConfig,
    WindowDriver, DEFAULT_LATENCY_BUCKETS,
};
pub use queue::SubmitError;
pub use service::{QtdaService, ServiceConfig, Telemetry};
pub use stats::ServiceStats;
pub use ticket::{StreamedSlice, Ticket, TicketOutcome, TicketTrace};
