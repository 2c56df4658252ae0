//! Fig. 3 regenerator: absolute error |β̃ − β| of the QPE estimator on
//! random simplicial complexes, swept over shots (10²–10⁶) and precision
//! qubits (1–10), for n ∈ {5, 10, 15}, 100 complexes per n.
//!
//! Per complex, every Laplacian is eigendecomposed once
//! ([`qtda_core::spectrum::PaddedSpectrum`]); the 50 (shots × precision)
//! settings then replay the analytic QPE response and draw fresh shot
//! noise. Complexes are processed rayon-parallel.

use qtda_core::analysis::FiveNumber;
use qtda_core::padding::{LambdaMaxBound, PaddingScheme};
use qtda_core::scaling::Delta;
use qtda_core::spectrum::PaddedSpectrum;
use qtda_tda::betti::betti_via_rank;
use qtda_tda::laplacian::combinatorial_laplacian;
use qtda_tda::random::fig3_default_model;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct Fig3Params {
    /// Vertex counts (paper: 5, 10, 15).
    pub n_values: Vec<usize>,
    /// Shot counts (paper: 10²–10⁶).
    pub shots: Vec<usize>,
    /// Precision-qubit counts (paper: 1–10).
    pub precisions: Vec<usize>,
    /// Random complexes per n (paper: 100).
    pub complexes_per_n: usize,
    /// Highest homology dimension evaluated per complex.
    pub max_k: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Fig3Params {
    /// The paper's full sweep.
    pub fn paper(seed: u64) -> Self {
        Fig3Params {
            n_values: vec![5, 10, 15],
            shots: vec![100, 1_000, 10_000, 100_000, 1_000_000],
            precisions: (1..=10).collect(),
            complexes_per_n: 100,
            max_k: 2,
            seed,
        }
    }

    /// A minutes-scale smoke version with the same shape.
    pub fn fast(seed: u64) -> Self {
        Fig3Params {
            n_values: vec![5, 10],
            shots: vec![100, 10_000],
            precisions: vec![1, 3, 5, 8],
            complexes_per_n: 12,
            max_k: 2,
            seed,
        }
    }
}

/// One aggregated cell of the boxplot grid.
#[derive(Clone, Debug)]
pub struct Fig3Cell {
    /// Vertex count.
    pub n: usize,
    /// Shots.
    pub shots: usize,
    /// Precision qubits.
    pub precision: usize,
    /// Five-number summary of the pooled absolute errors.
    pub summary: FiveNumber,
    /// Mean absolute error.
    pub mean: f64,
    /// Number of pooled (complex, k) samples.
    pub samples: usize,
}

/// The precomputed spectra and truths of one random complex.
struct PreparedComplex {
    /// One entry per homology dimension with a nonempty `S_k`.
    entries: Vec<(PaddedSpectrum, usize)>, // (spectrum, classical betti)
}

/// Samples and prepares one complex (eigendecompositions included).
fn prepare_complex(n: usize, max_k: usize, seed: u64) -> PreparedComplex {
    let mut rng = StdRng::seed_from_u64(seed);
    let complex = fig3_default_model(n, &mut rng);
    let mut entries = Vec::new();
    for k in 0..=max_k {
        if complex.count(k) == 0 {
            continue;
        }
        let laplacian = combinatorial_laplacian(&complex, k);
        let spectrum = PaddedSpectrum::of_laplacian(
            &laplacian,
            PaddingScheme::IdentityHalfLambdaMax,
            Delta::Auto,
            LambdaMaxBound::Gershgorin,
        );
        let truth = betti_via_rank(&complex, k);
        entries.push((spectrum, truth));
    }
    PreparedComplex { entries }
}

/// Runs the sweep; returns one cell per (n, shots, precision).
pub fn run(params: &Fig3Params) -> Vec<Fig3Cell> {
    let mut cells = Vec::new();
    for &n in &params.n_values {
        // Parallel over complexes: the eigendecompositions dominate.
        let prepared: Vec<PreparedComplex> = (0..params.complexes_per_n)
            .into_par_iter()
            .map(|i| prepare_complex(n, params.max_k, params.seed ^ (n as u64) << 32 ^ i as u64))
            .collect();

        for &precision in &params.precisions {
            for &shots in &params.shots {
                let errors: Vec<f64> = prepared
                    .par_iter()
                    .enumerate()
                    .flat_map_iter(|(ci, pc)| {
                        let mut rng = StdRng::seed_from_u64(
                            params.seed
                                ^ 0x9E37_79B9_7F4A_7C15
                                ^ ((n as u64) << 48)
                                ^ ((precision as u64) << 40)
                                ^ ((shots as u64) << 8)
                                ^ ci as u64,
                        );
                        pc.entries
                            .iter()
                            .map(|(spectrum, truth)| {
                                let estimate = spectrum.estimate(precision, shots, &mut rng);
                                (estimate - *truth as f64).abs()
                            })
                            .collect::<Vec<_>>()
                    })
                    .collect();
                cells.push(Fig3Cell {
                    n,
                    shots,
                    precision,
                    summary: FiveNumber::from_samples(&errors),
                    mean: errors.iter().sum::<f64>() / errors.len() as f64,
                    samples: errors.len(),
                });
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Fig3Params {
        Fig3Params {
            n_values: vec![5],
            shots: vec![100, 100_000],
            precisions: vec![1, 8],
            complexes_per_n: 8,
            max_k: 2,
            seed: 3,
        }
    }

    #[test]
    fn produces_full_grid() {
        let cells = run(&tiny());
        assert_eq!(cells.len(), 4, "1 n-value × 2 shot counts × 2 precisions");
        assert!(cells.iter().all(|c| c.samples > 0));
    }

    #[test]
    fn error_shrinks_with_precision_and_shots() {
        let cells = run(&tiny());
        let get = |p: usize, s: usize| {
            cells.iter().find(|c| c.precision == p && c.shots == s).map(|c| c.mean).unwrap()
        };
        let coarse = get(1, 100);
        let fine = get(8, 100_000);
        assert!(fine < coarse, "high precision+shots must beat low: {fine} vs {coarse}");
        // Paper: "the error reduces to zero, given enough resources".
        assert!(fine < 0.35, "fine-setting mean AE = {fine}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(&tiny());
        let b = run(&tiny());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.mean, y.mean);
            assert_eq!(x.summary, y.summary);
        }
    }

    #[test]
    fn summaries_are_ordered() {
        for c in run(&tiny()) {
            assert!(c.summary.min <= c.summary.q1);
            assert!(c.summary.q1 <= c.summary.median);
            assert!(c.summary.median <= c.summary.q3);
            assert!(c.summary.q3 <= c.summary.max);
        }
    }
}
