//! Persistence payloads for the query/serving stack: persistent Betti
//! numbers β_k(ε_i, ε_j) over an ε-grid and per-dimension persistence
//! diagrams, all read from one `LaplacianFiltration` arena.
//!
//! The numbers themselves come from `qtda-tda`
//! ([`LaplacianFiltration::persistent_betti_row`] /
//! [`LaplacianFiltration::bars`]), where they are pinned bit-identical
//! to the classical barcode oracle (`compute_barcode`). This module
//! wraps them in the shapes the layers above serve: a
//! [`SlicePersistence`] per grid slice (one row of the persistent-Betti
//! triangle per homology dimension) and one [`PersistenceDiagrams`] per
//! request. Everything here is exact integer/interval data — no seeds,
//! no estimators — so payloads are trivially bit-stable across worker
//! counts, cache states, and serving tiers.

use qtda_tda::laplacian_filtration::LaplacianFiltration;
pub use qtda_tda::persistence::PersistencePair;

/// `true` when the grid is ascending — persistence mode reads
/// β_k(ε_i, ε_j) for every grid prefix i ≤ j, which needs ε_i ≤ ε_j.
/// A NaN scale orders nothing, so a grid holding one (next to any
/// other scale) is not ascending.
pub fn is_ascending_grid(epsilons: &[f64]) -> bool {
    epsilons.windows(2).all(|w| w[0] <= w[1])
}

/// Panics unless [`is_ascending_grid`] holds.
///
/// # Panics
/// If any consecutive pair of scales decreases (NaNs also panic: they
/// order nothing).
pub fn assert_ascending_grid(epsilons: &[f64]) {
    assert!(is_ascending_grid(epsilons), "persistence mode requires an ascending ε-grid");
}

/// The persistence payload of one grid slice at death scale ε_j: for
/// each requested homology dimension, the j-th row of the
/// persistent-Betti triangle — `row[i] = β_k(ε_i, ε_j)` over the grid
/// prefix ε_0 ≤ … ≤ ε_j. The diagonal entry (`i = j`) is the ordinary
/// Betti number the slice's estimates target.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlicePersistence {
    /// The lowest homology dimension served (rows are dense from here).
    pub dim_lo: usize,
    /// `rows[k - dim_lo][i] = β_k(ε_i, ε_j)`, one row per dimension.
    pub rows: Vec<Vec<usize>>,
}

impl SlicePersistence {
    /// The persistent-Betti row for homology dimension `k`, if served.
    pub fn row(&self, k: usize) -> Option<&[usize]> {
        k.checked_sub(self.dim_lo).and_then(|i| self.rows.get(i)).map(Vec::as_slice)
    }

    /// `β_k(ε_i, ε_j)` by grid index `i`, if served.
    pub fn betti(&self, k: usize, i: usize) -> Option<usize> {
        self.row(k).and_then(|row| row.get(i)).copied()
    }
}

/// Per-dimension persistence diagrams (barcodes) of one filtration, in
/// the canonical pair layout (`canonical_pair_order` — sorted by birth,
/// then death with ∞ last, then dimension, ties kept in creation
/// order). Bit-identical to the classical `compute_barcode` reduction
/// on the same filtration.
#[derive(Clone, Debug, PartialEq)]
pub struct PersistenceDiagrams {
    /// The lowest homology dimension served.
    pub dim_lo: usize,
    /// `diagrams[k - dim_lo]` holds dimension `k`'s pairs.
    pub diagrams: Vec<Vec<PersistencePair>>,
}

impl PersistenceDiagrams {
    /// Dimension `k`'s pairs, if served.
    pub fn bars(&self, k: usize) -> Option<&[PersistencePair]> {
        k.checked_sub(self.dim_lo).and_then(|i| self.diagrams.get(i)).map(Vec::as_slice)
    }

    /// Total pairs across every served dimension.
    pub fn len(&self) -> usize {
        self.diagrams.iter().map(Vec::len).sum()
    }

    /// `true` when no dimension holds any pair.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The persistence payload of the slice at death scale `death`: one
/// persistent-Betti row per dimension `dim_lo ..= dim_hi`, with birth
/// scales `births` (an ascending grid prefix ending at or below
/// `death`). Every entry reads the arena's exact integer ranks — the
/// engine's per-unit rows and the query sweep's post-pass both call
/// this, so the layers cannot disagree.
///
/// # Panics
/// If any birth scale exceeds `death` (delegated to
/// [`LaplacianFiltration::persistent_betti_row`]).
pub fn slice_rows(
    filtration: &LaplacianFiltration,
    dim_lo: usize,
    dim_hi: usize,
    births: &[f64],
    death: f64,
) -> SlicePersistence {
    let rows =
        (dim_lo..=dim_hi).map(|k| filtration.persistent_betti_row(k, births, death)).collect();
    SlicePersistence { dim_lo, rows }
}

/// The filtration's persistence diagrams for dimensions
/// `dim_lo ..= dim_hi`, each in canonical layout — bit-identical to the
/// global `compute_barcode` reduction restricted to that dimension.
pub fn diagrams(
    filtration: &LaplacianFiltration,
    dim_lo: usize,
    dim_hi: usize,
) -> PersistenceDiagrams {
    let diagrams = (dim_lo..=dim_hi).map(|k| filtration.bars(k)).collect();
    PersistenceDiagrams { dim_lo, diagrams }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtda_tda::persistence::compute_barcode;
    use qtda_tda::point_cloud::{synthetic, Metric};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cloud() -> qtda_tda::point_cloud::PointCloud {
        let mut rng = StdRng::seed_from_u64(40);
        synthetic::uniform_cube(12, 2, &mut rng)
    }

    #[test]
    fn slice_rows_index_by_dimension_and_grid_position() {
        let grid: Vec<f64> = (0..=5).map(|i| 0.15 * i as f64).collect();
        let filt = LaplacianFiltration::rips(&cloud(), 0.75, 3, Metric::Euclidean);
        let death = grid[4];
        let slice = slice_rows(&filt, 0, 2, &grid[..=4], death);
        assert_eq!(slice.rows.len(), 3);
        for k in 0..=2usize {
            let row = slice.row(k).expect("dimension served");
            assert_eq!(row.len(), 5);
            for (i, &eps) in grid[..=4].iter().enumerate() {
                assert_eq!(row[i], filt.persistent_betti_at(k, eps, death), "k = {k}, i = {i}");
                assert_eq!(slice.betti(k, i), Some(row[i]));
            }
            // The diagonal is the ordinary Betti number.
            assert_eq!(row[4], filt.betti_at(k, death), "k = {k}");
        }
        assert_eq!(slice.row(3), None, "dimension above the served range");
        assert_eq!(slice.betti(0, 9), None, "grid index out of range");
    }

    #[test]
    fn dim_lo_offsets_both_payloads() {
        let filt = LaplacianFiltration::rips(&cloud(), 0.7, 3, Metric::Euclidean);
        let slice = slice_rows(&filt, 1, 2, &[0.3, 0.6], 0.6);
        assert_eq!(slice.rows.len(), 2);
        assert_eq!(slice.row(0), None, "below dim_lo");
        assert_eq!(slice.row(1).map(<[usize]>::len), Some(2));
        let diag = diagrams(&filt, 1, 2);
        assert_eq!(diag.bars(0), None);
        assert_eq!(diag.bars(1).expect("served"), filt.bars(1).as_slice());
    }

    #[test]
    fn diagrams_match_the_classical_barcode_oracle() {
        let c = cloud();
        let filt = LaplacianFiltration::rips(&c, 0.8, 3, Metric::Euclidean);
        let oracle =
            compute_barcode(&qtda_tda::filtration::Filtration::rips(&c, 0.8, 3, Metric::Euclidean));
        let served = diagrams(&filt, 0, 2);
        let in_range = oracle.pairs.iter().filter(|p| p.dim <= 2).count();
        assert_eq!(served.len(), in_range, "one served pair per oracle pair of dim ≤ 2");
        for k in 0..=2usize {
            let bars = served.bars(k).expect("dimension served");
            let expected: Vec<_> = oracle.pairs.iter().filter(|p| p.dim == k).cloned().collect();
            assert_eq!(bars, expected.as_slice(), "k = {k}");
        }
        assert!(!served.is_empty());
    }

    #[test]
    fn ascending_grids_pass_the_guard() {
        assert_ascending_grid(&[]);
        assert_ascending_grid(&[0.5]);
        assert_ascending_grid(&[0.1, 0.1, 0.4]);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn descending_grids_are_rejected() {
        assert_ascending_grid(&[0.4, 0.2]);
    }
}
