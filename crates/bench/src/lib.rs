//! # qtda-bench
//!
//! Experiment regenerators for every table and figure in the paper's
//! evaluation (arXiv:2302.09553 §4–5 and Appendix A), plus the shared
//! harness utilities. Each binary under `src/bin/` prints the same rows
//! or series the paper reports and writes a CSV next to it:
//!
//! | binary       | reproduces |
//! |--------------|------------|
//! | `fig3`       | Fig. 3(a–c): AE boxplots vs shots × precision qubits |
//! | `table1`     | Table 1: accuracy & Betti-MAE vs precision qubits |
//! | `fig4`       | Fig. 4: training accuracy vs grouping scale ε |
//! | `appendix_a` | Appendix A: worked example incl. Eq. 17–19 & p(0) |
//! | `circuits`   | Figs. 2, 6, 7: circuit diagrams and gate censuses |
//!
//! The five benches under `benches/` are harness-free `main`s, and each
//! checks its answers before it times anything: `sparse_vs_dense`
//! (`BENCH_PR8.json`), `betti_curve_incremental` (`BENCH_PR4.json`),
//! `persistence_serving` (`BENCH_PR10.json`), `batched_gearbox` and
//! `service_stream`. Serving performance is judged end to end by the
//! `e2e_serving` benchmark.

#![deny(missing_docs)]
#![deny(deprecated)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod experiments;
pub mod table;
