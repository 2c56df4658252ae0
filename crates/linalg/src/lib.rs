//! # qtda-linalg
//!
//! Dense real/complex linear algebra substrate for the `qtda` workspace.
//!
//! The quantum-TDA pipeline of arXiv:2302.09553 needs a small but exacting
//! set of kernels that the paper's Python stack outsourced to NumPy/SciPy:
//!
//! * a **symmetric eigensolver** (combinatorial Laplacians are real
//!   symmetric; QPE backends need their spectra) — [`eigen`],
//! * **matrix rank / nullity** (classical Betti numbers via rank–nullity)
//!   — [`rank`], in both floating-point and exact integer arithmetic,
//! * the **Hermitian matrix exponential** `exp(iH)` (the QPE walk unitary)
//!   — [`expm`],
//! * **Gershgorin eigenvalue bounds** (the paper's Eq. 7 padding scale)
//!   — [`gershgorin`],
//! * plain dense real ([`matrix::Mat`]) and complex ([`cmatrix::CMat`])
//!   matrices with the handful of operations the rest of the workspace
//!   needs (products, Kronecker products, adjoints, block embedding),
//! * the **sparse-first operator layer**: CSR storage ([`sparse`]),
//!   Lanczos tridiagonalisation ([`lanczos`]) and the [`op::LaplacianOp`]
//!   abstraction over `matvec`/dimension/spectral bounds that lets the
//!   pipeline above treat dense and sparse Laplacians interchangeably,
//! * scoped **solver cost profiling** ([`profile`]): matvec / Lanczos
//!   iteration / restart counters collected per work unit — the
//!   "Laplacian applications per estimate" cost the QTDA literature
//!   prices quantum advantage in.
//!
//! Everything is implemented from scratch on `Vec<f64>` storage; larger
//! matrix products switch to [rayon] row-parallel kernels.

#![deny(missing_docs)]
#![deny(deprecated)]
#![forbid(unsafe_code)]

pub mod cmatrix;
pub mod complex;
pub mod eigen;
pub mod expm;
pub mod gershgorin;
pub mod lanczos;
pub mod matrix;
pub mod op;
pub mod profile;
pub mod rank;
pub mod sparse;

pub use cmatrix::CMat;
pub use complex::C64;
pub use eigen::SymEigen;
pub use lanczos::lanczos_ritz_values;
pub use matrix::Mat;
pub use op::LaplacianOp;
pub use profile::SolveProfile;
pub use sparse::{CsrMatrix, PAR_ROWS};
