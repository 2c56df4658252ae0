//! The incremental-assembly contract, property-based: at **every** ε of
//! **every** grid, the arena's Δ_k must be indistinguishable from
//! assembling the slice complex directly —
//!
//! * `LaplacianFiltration::laplacian_at(k, ε)` is **structurally
//!   identical** (CSR arrays and value bits) to
//!   `combinatorial_laplacian_sparse(rips_complex(cloud, ε), k)`;
//! * classical Betti numbers read off the arena match rank–nullity on
//!   the slice complex.
//!
//! Run explicitly in CI next to the engine determinism suite.

use proptest::prelude::*;
use qtda_tda::betti::betti_via_rank;
use qtda_tda::laplacian::combinatorial_laplacian_sparse;
use qtda_tda::laplacian_filtration::LaplacianFiltration;
use qtda_tda::point_cloud::{synthetic, Metric, PointCloud};
use qtda_tda::rips::{rips_complex, RipsParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a small random point cloud in the unit square/cube.
fn arb_cloud() -> impl Strategy<Value = PointCloud> {
    (5usize..13, 2usize..4, any::<u64>()).prop_map(|(n, d, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        synthetic::uniform_cube(n, d, &mut rng)
    })
}

/// Strategy: an ascending ε-grid inside the construction scale, with a
/// degenerate leading scale thrown in some of the time.
fn arb_grid() -> impl Strategy<Value = Vec<f64>> {
    (2usize..7, 0.05f64..0.25, any::<bool>()).prop_map(|(n, step, with_degenerate)| {
        let mut grid: Vec<f64> = (0..n).map(|i| 0.1 + step * i as f64).collect();
        if with_degenerate {
            grid.insert(0, -0.5);
        }
        grid
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn incremental_laplacians_match_direct_assembly(
        cloud in arb_cloud(),
        grid in arb_grid(),
        max_dim in 2usize..4,
    ) {
        let construction = grid.iter().fold(f64::NEG_INFINITY, |a, &e| a.max(e));
        let filt = LaplacianFiltration::rips(&cloud, construction, max_dim, Metric::Euclidean);
        for &eps in &grid {
            let complex = rips_complex(
                &cloud,
                &RipsParams { epsilon: eps, max_dim, metric: Metric::Euclidean },
            );
            for k in 0..max_dim {
                let direct = combinatorial_laplacian_sparse(&complex, k);
                let sliced = filt.laplacian_at(k, eps);
                // Structural equality: row pointers, column indices,
                // and value bits — CsrMatrix's derived PartialEq.
                prop_assert_eq!(&sliced, &direct, "ε = {}, k = {}", eps, k);
                prop_assert_eq!(
                    filt.betti_at(k, eps),
                    betti_via_rank(&complex, k),
                    "classical β at ε = {}, k = {}", eps, k
                );
            }
        }
    }
}
