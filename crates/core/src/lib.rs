//! # qtda-core
//!
//! The paper's primary contribution (arXiv:2302.09553 §3): estimating the
//! Betti numbers of a simplicial complex by running Quantum Phase
//! Estimation on `U = e^{iH}`, where `H` is the padded, rescaled
//! combinatorial Laplacian, with a maximally mixed input state.
//!
//! The estimate is `β̃_k = 2^q · p(0)` (Eq. 11): the fraction of QPE shots
//! that read phase zero, scaled by the padded dimension.
//!
//! Pipeline stages, one module each:
//!
//! * [`padding`] — embed Δ into the next power of two. The paper's scheme
//!   (Eq. 7) fills the new diagonal with `λ̃_max/2` so padding adds **no**
//!   spurious zero eigenvalues; the zero-fill baseline (with its
//!   post-correction) is also provided for the ablation bench.
//! * [`scaling`] — rescale by `δ/λ̃_max` (Eqs. 8–9) with δ slightly below
//!   2π, using the Gershgorin bound `λ̃_max`, so every eigenvalue maps to
//!   a QPE phase in `[0, 1)` without aliasing.
//! * [`backend`] — four interchangeable ways to obtain `p(0)`, all
//!   consuming the Hamiltonian through `qtda_linalg`'s `LaplacianOp`
//!   abstraction: gate-level statevector QPE with ancilla-purified
//!   mixed state (faithful to Figs. 2 & 6), the analytic spectral
//!   response (distribution-identical, polynomial cost), Trotterised
//!   QPE (Fig. 7, with controllable product-formula error), and the
//!   matvec-only Lanczos spectral response that powers the sparse path.
//! * [`estimator`] — shot sampling, padding correction, rounding.
//! * [`query`] — the unified request API: the [`query::BettiRequest`]
//!   builder, the one [`query::Query::run`] executor, and the
//!   [`query::QosPolicy`] (priority / deadline / cancellation)
//!   vocabulary shared with the batch engine and streaming service.
//! * [`persist`] — the persistence payloads grid queries can opt into
//!   ([`query::BettiRequest::persistence`]): persistent Betti numbers
//!   β_k(ε_i, ε_j) per slice and per-dimension persistence diagrams,
//!   exact and bit-identical to the classical barcode reduction.
//! * [`pipeline`] — the routing vocabulary ([`pipeline::DispatchPolicy`],
//!   [`pipeline::PipelineConfig`]) and the multi-scale
//!   [`pipeline::betti_curve`].
//! * [`analysis`] — absolute errors and boxplot statistics for Fig. 3.

#![deny(missing_docs)]
#![deny(deprecated)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod backend;
pub mod estimator;
pub mod padding;
pub mod persist;
pub mod pipeline;
pub mod query;
pub mod scaling;
pub mod spectrum;

pub use backend::{
    LanczosBackend, QpeBackend, SpectralBackend, StatevectorBackend, TrotterBackend,
};
pub use estimator::{BettiEstimate, BettiEstimator, EstimatorConfig};
pub use padding::{pad_laplacian, pad_operator, LambdaMaxBound, PaddedLaplacian, PaddingScheme};
pub use persist::{PersistenceDiagrams, PersistencePair, SlicePersistence};
pub use pipeline::{betti_curve, BackendKind, BettiCurve, DispatchPolicy, PipelineConfig};
pub use query::{
    AbortReason, BettiRequest, CancelToken, Priority, QosPolicy, Query, QueryOutput, QuerySlice,
    QuerySource,
};
// Re-exported so layers reading `QuerySlice::profile` need not name
// `qtda-linalg` directly.
pub use qtda_linalg::SolveProfile;
pub use scaling::rescale_operator;
