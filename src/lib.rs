//! # qtda — Quantum-Enhanced Topological Data Analysis
//!
//! Umbrella crate for the Rust reproduction of *“Quantum-Enhanced
//! Topological Data Analysis: A Peep from an Implementation Perspective”*
//! (Khandelwal & Chandra, arXiv:2302.09553). It re-exports every layer of
//! the stack so downstream users can depend on a single crate:
//!
//! * [`linalg`] — dense real/complex linear algebra (eigensolver, rank,
//!   `exp(iH)`, Gershgorin bounds);
//! * [`tda`] — classical TDA (Rips complexes, boundary operators,
//!   Laplacians, Betti numbers, Takens embeddings, persistence);
//! * [`qsim`] — gate-level statevector quantum simulator (circuits, QFT,
//!   Pauli decomposition, Trotterisation, QPE);
//! * [`core`] — the paper's contribution: the QPE-based Betti-number
//!   estimator and the end-to-end point-cloud → Betti pipeline;
//! * [`ml`] — logistic regression, splits and metrics for the paper's §5
//!   classification experiments;
//! * [`data`] — the synthetic gearbox dataset standing in for the SEU
//!   vibration data;
//! * [`engine`] — the batched multi-cloud Betti-serving subsystem
//!   (amortised Rips slicing, `(job, ε, dim)` scheduling, deterministic
//!   seed streams, LRU result cache);
//! * [`service`] — the streaming front-end over the engine: bounded
//!   submission queue with backpressure, deadline micro-batching,
//!   per-slice result streaming, size-based backend dispatch.
//!
//! ## Quickstart
//!
//! ```
//! use qtda::tda::complex::worked_example_complex;
//! use qtda::tda::laplacian::combinatorial_laplacian;
//! use qtda::core::estimator::{BettiEstimator, EstimatorConfig};
//!
//! // The paper's Appendix A example: estimate β₁ of the 5-point complex.
//! let complex = worked_example_complex();
//! let laplacian = combinatorial_laplacian(&complex, 1);
//! let estimator = BettiEstimator::new(EstimatorConfig {
//!     precision_qubits: 3,
//!     shots: 1000,
//!     seed: 7,
//!     ..EstimatorConfig::default()
//! });
//! let estimate = estimator.estimate(&laplacian);
//! assert_eq!(estimate.rounded(), 1); // matches the classical β₁
//! ```

#![deny(missing_docs)]
#![deny(deprecated)]
#![forbid(unsafe_code)]

pub use qtda_core as core;
pub use qtda_data as data;
pub use qtda_engine as engine;
pub use qtda_linalg as linalg;
pub use qtda_ml as ml;
pub use qtda_qsim as qsim;
pub use qtda_service as service;
pub use qtda_tda as tda;
