//! # qtda-tda
//!
//! Classical topological data analysis substrate — the role GUDHI and
//! giotto-tda play in the paper's Python pipeline (arXiv:2302.09553 §2, §5).
//!
//! Provided machinery:
//!
//! * [`point_cloud`] — point clouds, metrics, distance matrices, plus
//!   synthetic generators (circles, clusters, figure-eights) used by
//!   examples and tests;
//! * [`simplex`] / [`complex`] — oriented simplices and downward-closed
//!   simplicial complexes with deterministic (lexicographic) ordering;
//! * [`rips`] — Vietoris–Rips (clique/flag) complexes by incremental
//!   expansion;
//! * [`boundary`] / [`laplacian`] — the restricted boundary operators
//!   ∂<sub>k</sub> (paper Eq. 1) and combinatorial Laplacians
//!   Δ<sub>k</sub> = ∂<sub>k</sub>ᵀ∂<sub>k</sub> + ∂<sub>k+1</sub>∂<sub>k+1</sub>ᵀ (Eq. 5);
//! * [`betti`] — classical Betti numbers via rank–nullity *and* via the
//!   Laplacian kernel (Eq. 6), cross-checked in tests;
//! * [`laplacian_filtration`] — the incremental ε-sweep substrate: one
//!   activation-sorted triplet arena per dimension below the
//!   construction dimension, every slice's Δ_k a prefix read
//!   (bit-identical to direct assembly), and one stored Z/2 persistence
//!   pairing that classical β_k (a count), bars and the barcode read;
//! * [`random`] — the random-complex generators behind the paper's Fig. 3;
//! * [`takens`] — time-delay embedding of scalar series (giotto-tda's
//!   `TakensEmbedding`);
//! * [`filtration`] / [`persistence`] — Rips filtrations and Z/2
//!   persistent homology (the paper's "future work" §6, included here as
//!   a working extension and as an independent check on Betti numbers).

#![deny(missing_docs)]
#![deny(deprecated)]
#![forbid(unsafe_code)]

pub mod betti;
pub mod boundary;
pub mod complex;
pub mod filtration;
pub mod laplacian;
pub mod laplacian_filtration;
pub mod persistence;
pub mod point_cloud;
pub mod random;
pub mod rips;
pub mod simplex;
pub mod spectral_betti;
pub mod takens;

pub use complex::SimplicialComplex;
pub use laplacian_filtration::LaplacianFiltration;
pub use point_cloud::{Metric, PointCloud};
pub use simplex::Simplex;
