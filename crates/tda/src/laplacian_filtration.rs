//! Incremental filtration-ordered Laplacian assembly: every ε-slice of
//! an ε-sweep served as a **prefix of one sorted triplet arena**, with
//! no per-slice rebuild.
//!
//! # The activation-value / prefix invariant
//!
//! Number the k-simplices of the Rips construction by *appearance
//! order* within each dimension — stable-sorted by appearance value
//! (vertex-set diameter), ties broken by the complex's lexicographic
//! order. Diameters are monotone under faces, so the k-simplices alive
//! at any ε are exactly the index prefix `0..n_k(ε)`.
//!
//! Each entry of Δ_k = ∂_kᵀ∂_k + ∂_{k+1}∂_{k+1}ᵀ is a sum of ±1
//! contributions, each created by one coface/face incidence:
//!
//! * an **up-term** contribution `(i, j, s_i·s_j)` exists once the
//!   (k+1)-simplex σ coupling faces `i, j` exists — its *activation*
//!   is `value(σ)`;
//! * a **down-term** contribution `(a, b, s_a·s_b)` through a shared
//!   (k−1)-face exists once both k-simplices do — its activation is
//!   `max(value(a), value(b))` (the shared face appears no later).
//!
//! Activations are therefore monotone along the filtration, and every
//! contribution's endpoints are alive by its activation. Sorting the
//! triplets once by `(activation, row, col)` makes the active triplet
//! set at any ε a **prefix** of the arena, and Δ_k at ε is assembled
//! from that prefix in `O(nnz(ε) + n_k(ε))` — a counting-sort pass plus
//! [`CsrMatrix::from_sorted_triplets`] — instead of re-walking boundary
//! incidences and re-sorting per slice.
//!
//! [`LaplacianFiltration::laplacian_at`] additionally applies the
//! appearance → slice-lexicographic symmetric permutation, making its
//! output **bit-identical** (structure and values) to
//! [`combinatorial_laplacian_sparse`](crate::laplacian::combinatorial_laplacian_sparse)
//! on [`rips_complex`] at the same ε — pinned by the
//! `filtration_equivalence` property suite — which is what lets the
//! pipeline and batch engine sweep through the arena without changing
//! a single output bit.

use crate::complex::SimplicialComplex;
use crate::filtration::diameter;
use crate::persistence::{canonical_pair_order, symmetric_difference, Barcode, PersistencePair};
use crate::point_cloud::{Metric, PointCloud};
use crate::rips::{rips_complex, RipsParams};
use qtda_linalg::rank::rank_integral;
use qtda_linalg::sparse::CsrMatrix;
use qtda_linalg::Mat;
use std::collections::HashMap;

/// One Laplacian triplet tagged with the ε at which it activates.
#[derive(Clone, Copy, Debug)]
struct LapTriplet {
    /// Scale at which this contribution enters Δ_k (monotone key).
    activation: f64,
    /// Row, in appearance order.
    row: u32,
    /// Column, in appearance order.
    col: u32,
    /// The ±1 contribution.
    value: f64,
}

/// Per-dimension arena: appearance ordering plus the sorted triplets.
struct DimensionArena {
    /// Appearance value per k-simplex, ascending (index = appearance
    /// index; the prefix `0..n_k(ε)` is the alive set).
    values: Vec<f64>,
    /// Appearance index of the simplex at each full-complex
    /// lexicographic position (the inverse of appearance order).
    app_of_lex: Vec<u32>,
    /// ∂_k columns in appearance order: `(row appearance index in
    /// dimension k−1, sign)`. Empty columns for k = 0.
    boundary_cols: Vec<Vec<(u32, i8)>>,
    /// Δ_k triplets sorted by `(activation, row, col)` — nested
    /// prefixes along ε.
    triplets: Vec<LapTriplet>,
}

/// The filtration-ordered Laplacian arena of a Rips construction: one
/// build at the construction scale, then any number of ε-slices of
/// Δ_k (and of the classical rank–nullity Betti numbers) served as
/// prefix reads. See the module docs for the invariant.
pub struct LaplacianFiltration {
    construction_epsilon: f64,
    dims: Vec<DimensionArena>,
}

impl LaplacianFiltration {
    /// Builds the arena for the Rips construction of `cloud` at
    /// `max_epsilon` up to simplex dimension `max_dim` (one above the
    /// highest homology dimension to estimate, as everywhere else).
    /// Slices are exact for every ε at or below the construction scale,
    /// with the same degenerate-ε semantics as
    /// [`RipsSlicer`](crate::filtration::RipsSlicer): vertices survive
    /// any ε (negative, NaN), higher simplices need `value ≤ ε`.
    pub fn rips(cloud: &PointCloud, max_epsilon: f64, max_dim: usize, metric: Metric) -> Self {
        let complex = rips_complex(cloud, &RipsParams { epsilon: max_epsilon, max_dim, metric });
        Self::build(&complex, cloud, metric, max_epsilon)
    }

    fn build(
        complex: &SimplicialComplex,
        cloud: &PointCloud,
        metric: Metric,
        construction_epsilon: f64,
    ) -> Self {
        let top = complex.max_dim().map_or(0, |d| d + 1);
        // Pass 1: appearance ordering per dimension.
        let mut dims: Vec<DimensionArena> = (0..top)
            .map(|k| {
                let sims = complex.simplices(k);
                let diams: Vec<f64> = sims.iter().map(|s| diameter(s, cloud, metric)).collect();
                // Stable sort keeps lexicographic order within ties —
                // the same (value, lex) order a `Filtration` uses.
                let mut order: Vec<u32> = (0..sims.len() as u32).collect();
                order.sort_by(|&a, &b| diams[a as usize].total_cmp(&diams[b as usize]));
                let mut app_of_lex = vec![0u32; sims.len()];
                for (app, &lex) in order.iter().enumerate() {
                    app_of_lex[lex as usize] = app as u32;
                }
                let values: Vec<f64> = order.iter().map(|&lex| diams[lex as usize]).collect();
                DimensionArena {
                    values,
                    app_of_lex,
                    boundary_cols: Vec::new(),
                    triplets: Vec::new(),
                }
            })
            .collect();

        // Pass 2: boundary columns in appearance order. Face rows are
        // resolved through the previous dimension's lex order (binary
        // search) and remapped to appearance indices.
        for k in 1..top {
            let sims = complex.simplices(k);
            let order_lex_of_app: Vec<usize> = {
                // Invert app_of_lex once; cheaper than carrying `order`.
                let mut lex_of_app = vec![0usize; sims.len()];
                for (lex, &app) in dims[k].app_of_lex.iter().enumerate() {
                    lex_of_app[app as usize] = lex;
                }
                lex_of_app
            };
            let cols: Vec<Vec<(u32, i8)>> = order_lex_of_app
                .iter()
                .map(|&lex| {
                    sims[lex]
                        .boundary()
                        .into_iter()
                        .map(|(face, sign)| {
                            let flex =
                                complex.index_of(&face).expect("Rips complex is downward closed");
                            (dims[k - 1].app_of_lex[flex], sign as i8)
                        })
                        .collect()
                })
                .collect();
            dims[k].boundary_cols = cols;
        }

        // Pass 3: Δ_k triplets per dimension. Walking simplices in
        // appearance order makes each term's stream activation-sorted
        // for free (an up-contribution activates with its coface, a
        // down-contribution with the *later* of its two simplices), so
        // the arena is a two-pointer merge — no comparison sort at all.
        for k in 0..top {
            let up = if k + 1 < top { up_triplets(&dims[k + 1]) } else { Vec::new() };
            let down =
                if k > 0 { down_triplets(&dims[k], dims[k - 1].values.len()) } else { Vec::new() };
            dims[k].triplets = merge_by_activation(up, down);
        }

        LaplacianFiltration { construction_epsilon, dims }
    }

    /// The scale the arena was constructed at; slices are exact at or
    /// below it.
    pub fn construction_epsilon(&self) -> f64 {
        self.construction_epsilon
    }

    /// Highest simplex dimension with at least one simplex, or `None`
    /// for an empty construction.
    pub fn max_dim(&self) -> Option<usize> {
        if self.dims.is_empty() {
            None
        } else {
            Some(self.dims.len() - 1)
        }
    }

    /// `|S_k^ε|`: k-simplices alive at ε. Vertices survive every ε
    /// (Rips construction semantics — negative and NaN scales included).
    pub fn count_at(&self, k: usize, epsilon: f64) -> usize {
        match self.dims.get(k) {
            None => 0,
            Some(d) if k == 0 => d.values.len(),
            Some(d) => d.values.partition_point(|&v| v <= epsilon),
        }
    }

    /// Stored Δ_k arena triplets active at ε (the prefix length).
    pub fn triplets_at(&self, k: usize, epsilon: f64) -> usize {
        self.dims.get(k).map_or(0, |d| d.triplets.partition_point(|t| t.activation <= epsilon))
    }

    /// Approximate resident bytes of the arena (triplets, boundary
    /// columns, orderings) — the number serving stats report as the
    /// amortisation footprint.
    pub fn arena_bytes(&self) -> usize {
        self.dims
            .iter()
            .map(|d| {
                d.values.len() * std::mem::size_of::<f64>()
                    + d.app_of_lex.len() * std::mem::size_of::<u32>()
                    + d.triplets.len() * std::mem::size_of::<LapTriplet>()
                    + d.boundary_cols
                        .iter()
                        .map(|c| {
                            c.len() * std::mem::size_of::<(u32, i8)>()
                                + std::mem::size_of::<Vec<(u32, i8)>>()
                        })
                        .sum::<usize>()
            })
            .sum()
    }

    /// Δ_k at ε in **slice-lexicographic order** — bit-identical
    /// (structure, value bits, dropped zeros) to
    /// `combinatorial_laplacian_sparse(rips_complex(cloud, ε), k)`,
    /// assembled from the arena prefix in `O(nnz(ε) + N_k)`.
    pub fn laplacian_at(&self, k: usize, epsilon: f64) -> CsrMatrix {
        let n = self.count_at(k, epsilon);
        let Some(arena) = self.dims.get(k) else {
            return CsrMatrix::from_sorted_triplets(n, n, &[]);
        };
        let prefix = &arena.triplets[..self.triplets_at(k, epsilon)];
        if prefix.is_empty() {
            return CsrMatrix::from_sorted_triplets(n, n, &[]);
        }
        // Appearance → slice-lex permutation: scan the full lex order,
        // renumber the alive prefix in encounter order.
        let mut perm = vec![0u32; n];
        let mut next = 0u32;
        for &app in &arena.app_of_lex {
            if (app as usize) < n {
                perm[app as usize] = next;
                next += 1;
            }
        }
        // The relabelling happens inside the counting sort's first
        // scatter, feeding the no-sort CSR constructor.
        let sorted = counting_sort_by_row_col(n, prefix.len(), |i| {
            let t = &prefix[i];
            (perm[t.row as usize], perm[t.col as usize], t.value)
        });
        CsrMatrix::from_sorted_triplets(n, n, &sorted)
    }

    /// Classical β_k at ε via rank–nullity on the boundary prefixes —
    /// the same exact-integer ranks as
    /// [`betti_via_rank`](crate::betti::betti_via_rank) on the slice
    /// complex (rank is invariant under the appearance permutation).
    pub fn betti_at(&self, k: usize, epsilon: f64) -> usize {
        let n_k = self.count_at(k, epsilon);
        if n_k == 0 {
            return 0;
        }
        let rank_k = if k == 0 { 0 } else { rank_integral(&self.boundary_dense_at(k, epsilon)) };
        let rank_k1 = rank_integral(&self.boundary_dense_at(k + 1, epsilon));
        n_k - rank_k - rank_k1
    }

    /// Persistent Betti number β_k(ε_i, ε_j): classes alive at ε_i that
    /// still live at ε_j ≥ ε_i — one entry of
    /// [`Self::persistent_betti_row`]. Matches
    /// [`Barcode::persistent_betti`] on the same Rips construction for
    /// every ε_i ≥ 0 (for k = 0 the arena's degenerate-scale semantics
    /// keep vertices alive at *any* ε_i, including negative ones, while
    /// barcode births sit at 0).
    pub fn persistent_betti_at(&self, k: usize, eps_i: f64, eps_j: f64) -> usize {
        self.persistent_betti_row(k, std::slice::from_ref(&eps_i), eps_j)[0]
    }

    /// The persistent-Betti row of one death scale:
    /// `row[i] = β_k(birth_epsilons[i], ε_j)`, computed from the arena's boundary
    /// prefixes by exact integer rank.
    ///
    /// Because appearance order makes `C_k(ε_i)` a coordinate prefix of
    /// `C_k(ε_j)` — and a boundary supported on that prefix is
    /// automatically a cycle of the ε_i-subcomplex — the inclusion-image
    /// dimension reduces to ranks of prefix submatrices:
    ///
    /// ```text
    /// β_k(ε_i, ε_j) = n_k(ε_i) − rank ∂_k(ε_i)
    ///               − rank ∂_{k+1}(ε_j)
    ///               + rank (∂_{k+1}(ε_j) rows ≥ n_k(ε_i))
    /// ```
    ///
    /// The dominant `rank ∂_{k+1}(ε_j)` term depends only on the death
    /// scale, so one row shares it across every birth scale — the
    /// amortisation `benches/persistence_serving.rs` gates on.
    ///
    /// # Panics
    /// If any birth scale exceeds `death_epsilon`.
    pub fn persistent_betti_row(
        &self,
        k: usize,
        birth_epsilons: &[f64],
        death_epsilon: f64,
    ) -> Vec<usize> {
        let rank_death = rank_integral(&self.boundary_dense_at(k + 1, death_epsilon));
        birth_epsilons
            .iter()
            .map(|&eps_i| {
                assert!(eps_i <= death_epsilon, "ε₁ must not exceed ε₂");
                let n_k = self.count_at(k, eps_i);
                if n_k == 0 {
                    return 0;
                }
                let rank_k =
                    if k == 0 { 0 } else { rank_integral(&self.boundary_dense_at(k, eps_i)) };
                let rank_quotient =
                    rank_integral(&self.boundary_dense_rows_from(k + 1, death_epsilon, n_k));
                // Grouped so the non-negative total never underflows
                // through an intermediate.
                (n_k + rank_quotient) - (rank_k + rank_death)
            })
            .collect()
    }

    /// The dimension-k bars of the arena's filtration (birth/death in
    /// scale values, essential classes `None`), in the canonical
    /// [`canonical_pair_order`]. Computed by per-dimension Z/2 column
    /// reduction over the appearance-ordered boundary prefixes — the
    /// same pairing as the global reduction in
    /// [`compute_barcode`](crate::persistence::compute_barcode), because
    /// within one dimension the global filtration order *is* appearance
    /// order and reduction never mixes dimensions.
    pub fn bars(&self, k: usize) -> Vec<PersistencePair> {
        let Some(arena) = self.dims.get(k) else {
            return Vec::new();
        };
        let (positive, _) = self.reduce_boundary(k);
        let (_, deaths) = self.reduce_boundary(k + 1);
        let mut pairs: Vec<PersistencePair> = positive
            .iter()
            .enumerate()
            .filter(|&(_, &pos)| pos)
            .map(|(j, _)| PersistencePair { dim: k, birth: arena.values[j], death: deaths[j] })
            .collect();
        pairs.sort_by(canonical_pair_order);
        pairs
    }

    /// The full barcode of the arena's filtration — every dimension up
    /// to the construction dimension, canonically sorted. Bit-identical
    /// (values and layout) to
    /// [`compute_barcode`](crate::persistence::compute_barcode) on the
    /// [`Filtration::rips`](crate::filtration::Filtration::rips) of the
    /// same cloud, construction scale, max dimension, and metric: both
    /// orderings restrict to (value, lex) within each dimension, and
    /// both birth/death values come from the same
    /// `diameter` computation.
    pub fn barcode(&self) -> Barcode {
        let top = self.dims.len();
        let mut pairs = Vec::new();
        let mut prev_positive: Vec<bool> = Vec::new();
        for k in 0..=top {
            let (positive, deaths) = self.reduce_boundary(k);
            if k > 0 {
                let values = &self.dims[k - 1].values;
                for (j, &pos) in prev_positive.iter().enumerate() {
                    if pos {
                        pairs.push(PersistencePair {
                            dim: k - 1,
                            birth: values[j],
                            death: deaths[j],
                        });
                    }
                }
            }
            prev_positive = positive;
        }
        pairs.sort_by(canonical_pair_order);
        Barcode { pairs }
    }

    /// Z/2 column reduction of the full ∂_k arena (construction scale).
    /// Returns, per k-simplex, whether its column reduced to zero (a
    /// *positive* simplex, creating a k-class), and per (k−1)-simplex
    /// the scale at which the class it created dies (`None` if nothing
    /// in dimension k kills it). `k = 0` has no boundary: every vertex
    /// is positive. Past the top dimension: no columns, no deaths.
    fn reduce_boundary(&self, k: usize) -> (Vec<bool>, Vec<Option<f64>>) {
        let n_prev = if k == 0 { 0 } else { self.dims.get(k - 1).map_or(0, |d| d.values.len()) };
        let mut deaths: Vec<Option<f64>> = vec![None; n_prev];
        let Some(arena) = self.dims.get(k) else {
            return (Vec::new(), deaths);
        };
        if k == 0 {
            return (vec![true; arena.values.len()], deaths);
        }
        let n = arena.boundary_cols.len();
        let mut columns: Vec<Vec<u32>> = Vec::with_capacity(n);
        let mut low_to_col: HashMap<u32, usize> = HashMap::with_capacity(n);
        let mut positive = vec![false; n];
        for (j, rows) in arena.boundary_cols.iter().enumerate() {
            let mut col: Vec<u32> = rows.iter().map(|&(r, _)| r).collect();
            col.sort_unstable();
            while let Some(&low) = col.last() {
                match low_to_col.get(&low) {
                    Some(&earlier) => col = symmetric_difference(&col, &columns[earlier]),
                    None => break,
                }
            }
            if let Some(&low) = col.last() {
                low_to_col.insert(low, j);
                deaths[low as usize] = Some(arena.values[j]);
            } else {
                positive[j] = true;
            }
            columns.push(col);
        }
        (positive, deaths)
    }

    /// Dense ∂_k restricted to the ε-prefix, in appearance order
    /// (`n_{k−1}(ε) × n_k(ε)`; the zero map for k = 0, an empty-column
    /// matrix past the top dimension — mirroring `boundary_matrix`).
    fn boundary_dense_at(&self, k: usize, epsilon: f64) -> Mat {
        if k == 0 {
            return Mat::zeros(0, self.count_at(0, epsilon));
        }
        let rows = self.count_at(k - 1, epsilon);
        let cols = self.count_at(k, epsilon);
        let mut m = Mat::zeros(rows, cols);
        if let Some(arena) = self.dims.get(k) {
            for (j, col) in arena.boundary_cols[..cols].iter().enumerate() {
                for &(r, s) in col {
                    m[(r as usize, j)] = f64::from(s);
                }
            }
        }
        m
    }

    /// The bottom block of [`Self::boundary_dense_at`]: ∂_k at ε with
    /// only the face rows of appearance index ≥ `row_from` kept — the
    /// quotient block whose rank measures how much of the ε-boundary
    /// image escapes the `row_from`-prefix subspace. Never called with
    /// k = 0 (the zero map has no rows to restrict).
    fn boundary_dense_rows_from(&self, k: usize, epsilon: f64, row_from: usize) -> Mat {
        debug_assert!(k > 0, "∂₀ has no rows to restrict");
        let rows = self.count_at(k - 1, epsilon);
        let cols = self.count_at(k, epsilon);
        let kept = rows.saturating_sub(row_from);
        let mut m = Mat::zeros(kept, cols);
        if let Some(arena) = self.dims.get(k) {
            for (j, col) in arena.boundary_cols[..cols].iter().enumerate() {
                for &(r, s) in col {
                    if (r as usize) >= row_from {
                        m[(r as usize - row_from, j)] = f64::from(s);
                    }
                }
            }
        }
        m
    }
}

/// Up-term ∂_{k+1}∂_{k+1}ᵀ contributions: every (k+1)-simplex couples
/// each pair of its k-faces the moment it appears. Walking the
/// (k+1)-simplices in appearance order yields an activation-ascending
/// stream directly.
fn up_triplets(above: &DimensionArena) -> Vec<LapTriplet> {
    let mut out = Vec::new();
    for (s, col) in above.boundary_cols.iter().enumerate() {
        let activation = above.values[s];
        for &(i, si) in col {
            for &(j, sj) in col {
                out.push(LapTriplet {
                    activation,
                    row: i,
                    col: j,
                    value: f64::from(si) * f64::from(sj),
                });
            }
        }
    }
    out
}

/// Down-term ∂_kᵀ∂_k contributions: a pair of k-simplices sharing a
/// (k−1)-face couples the moment the **later** of the two appears.
/// Growing the coface lists while walking k-simplices in appearance
/// order emits each pair exactly when it activates — an ascending
/// stream, and the same contribution multiset as iterating all
/// ordered coface pairs per shared face.
fn down_triplets(arena: &DimensionArena, n_faces: usize) -> Vec<LapTriplet> {
    let mut cofaces: Vec<Vec<(u32, i8)>> = vec![Vec::new(); n_faces];
    let mut out = Vec::new();
    for (b, col) in arena.boundary_cols.iter().enumerate() {
        let activation = arena.values[b];
        let b = b as u32;
        for &(tau, sb) in col {
            let list = &mut cofaces[tau as usize];
            for &(a, sa) in list.iter() {
                let value = f64::from(sa) * f64::from(sb);
                out.push(LapTriplet { activation, row: a, col: b, value });
                out.push(LapTriplet { activation, row: b, col: a, value });
            }
            out.push(LapTriplet {
                activation,
                row: b,
                col: b,
                value: f64::from(sb) * f64::from(sb),
            });
            list.push((b, sb));
        }
    }
    out
}

/// Merges two activation-ascending streams into one (stable
/// two-pointer; ties keep the up-stream first, which is irrelevant to
/// prefix boundaries — `partition_point` splits between distinct
/// activation values only).
fn merge_by_activation(a: Vec<LapTriplet>, b: Vec<LapTriplet>) -> Vec<LapTriplet> {
    debug_assert!(a.windows(2).all(|w| w[0].activation <= w[1].activation));
    debug_assert!(b.windows(2).all(|w| w[0].activation <= w[1].activation));
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].activation <= b[j].activation {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Fused two-pass stable counting sort by `(row, col)` of the `len`
/// triplets produced by `get` — `O(len + n)`, no comparisons: the
/// per-slice replacement for the re-sort the arena exists to avoid (the
/// prefix assembly relabels inside `get`).
fn counting_sort_by_row_col(
    n: usize,
    len: usize,
    get: impl Fn(usize) -> (u32, u32, f64),
) -> Vec<(u32, u32, f64)> {
    let mut counts = vec![0usize; n + 1];
    // Pass 1 (stable, by col).
    for i in 0..len {
        counts[get(i).1 as usize + 1] += 1;
    }
    for i in 0..n {
        counts[i + 1] += counts[i];
    }
    let mut by_col: Vec<(u32, u32, f64)> = vec![(0, 0, 0.0); len];
    for i in 0..len {
        let t = get(i);
        by_col[counts[t.1 as usize]] = t;
        counts[t.1 as usize] += 1;
    }
    // Pass 2 (stable, by row) → fully (row, col)-sorted.
    counts.clear();
    counts.resize(n + 1, 0);
    for t in by_col.iter() {
        counts[t.0 as usize + 1] += 1;
    }
    for i in 0..n {
        counts[i + 1] += counts[i];
    }
    let mut sorted: Vec<(u32, u32, f64)> = vec![(0, 0, 0.0); len];
    for &t in by_col.iter() {
        sorted[counts[t.0 as usize]] = t;
        counts[t.0 as usize] += 1;
    }
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laplacian::{combinatorial_laplacian, combinatorial_laplacian_sparse};
    use crate::point_cloud::synthetic;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cloud() -> PointCloud {
        let mut rng = StdRng::seed_from_u64(17);
        synthetic::uniform_cube(14, 2, &mut rng)
    }

    fn grid() -> Vec<f64> {
        (0..=8).map(|i| 0.12 * i as f64).collect()
    }

    #[test]
    fn lex_slices_are_bit_identical_to_direct_sparse_assembly() {
        let pc = cloud();
        let filt = LaplacianFiltration::rips(&pc, 0.96, 3, Metric::Euclidean);
        for &eps in &grid() {
            let complex = rips_complex(
                &pc,
                &RipsParams { epsilon: eps, max_dim: 3, metric: Metric::Euclidean },
            );
            for k in 0..=2usize {
                let direct = combinatorial_laplacian_sparse(&complex, k);
                let sliced = filt.laplacian_at(k, eps);
                assert_eq!(sliced, direct, "ε = {eps}, k = {k}");
                assert_eq!(filt.count_at(k, eps), complex.count(k), "ε = {eps}, k = {k}");
            }
        }
    }

    #[test]
    fn lex_slices_densify_bit_identical_to_dense_assembly() {
        let pc = cloud();
        let filt = LaplacianFiltration::rips(&pc, 0.96, 3, Metric::Euclidean);
        for &eps in &[0.3, 0.6, 0.96] {
            let complex = rips_complex(
                &pc,
                &RipsParams { epsilon: eps, max_dim: 3, metric: Metric::Euclidean },
            );
            for k in 0..=2usize {
                let dense = combinatorial_laplacian(&complex, k);
                let sliced = filt.laplacian_at(k, eps).to_dense();
                assert_eq!(sliced.rows(), dense.rows());
                for i in 0..dense.rows() {
                    for j in 0..dense.cols() {
                        assert_eq!(
                            sliced[(i, j)].to_bits(),
                            dense[(i, j)].to_bits(),
                            "ε = {eps}, k = {k}, entry ({i}, {j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn classical_betti_matches_rank_nullity_on_slices() {
        use crate::betti::betti_via_rank;
        let pc = cloud();
        let filt = LaplacianFiltration::rips(&pc, 0.96, 3, Metric::Euclidean);
        for &eps in &grid() {
            let complex = rips_complex(
                &pc,
                &RipsParams { epsilon: eps, max_dim: 3, metric: Metric::Euclidean },
            );
            for k in 0..=2usize {
                assert_eq!(
                    filt.betti_at(k, eps),
                    betti_via_rank(&complex, k),
                    "ε = {eps}, k = {k}"
                );
            }
        }
    }

    #[test]
    fn degenerate_scales_keep_vertices_and_nothing_else() {
        let pc = cloud();
        let filt = LaplacianFiltration::rips(&pc, 0.9, 2, Metric::Euclidean);
        for eps in [-1.0, f64::NAN] {
            assert_eq!(filt.count_at(0, eps), 14, "vertices survive ε = {eps}");
            assert_eq!(filt.count_at(1, eps), 0);
            let l0 = filt.laplacian_at(0, eps);
            assert_eq!(l0.n_rows(), 14);
            assert_eq!(l0.nnz(), 0, "no edges ⇒ zero Δ₀");
            assert_eq!(filt.betti_at(0, eps), 14);
            assert_eq!(filt.betti_at(1, eps), 0);
        }
        // Out-of-range dimensions are empty, not a panic.
        assert_eq!(filt.count_at(9, 0.5), 0);
        assert_eq!(filt.laplacian_at(9, 0.5).n_rows(), 0);
        assert_eq!(filt.betti_at(9, 0.5), 0);
    }

    #[test]
    fn empty_cloud_yields_empty_arena() {
        let pc = PointCloud::new(2, vec![]);
        let filt = LaplacianFiltration::rips(&pc, 1.0, 2, Metric::Euclidean);
        assert_eq!(filt.max_dim(), None);
        assert_eq!(filt.count_at(0, 1.0), 0);
        assert_eq!(filt.laplacian_at(0, 1.0).n_rows(), 0);
        assert_eq!(filt.arena_bytes(), 0);
    }

    #[test]
    fn triplet_prefixes_are_nested_and_within_alive_range() {
        let pc = cloud();
        let filt = LaplacianFiltration::rips(&pc, 0.96, 3, Metric::Euclidean);
        for k in 0..=2usize {
            let mut last = 0;
            for &eps in &grid() {
                let nnz = filt.triplets_at(k, eps);
                assert!(nnz >= last, "prefixes must be nested (k = {k})");
                last = nnz;
                let n = filt.count_at(k, eps) as u32;
                let arena = &filt.dims[k];
                for t in &arena.triplets[..nnz] {
                    assert!(t.row < n && t.col < n, "triplet endpoints alive at ε = {eps}");
                }
            }
            assert_eq!(
                filt.triplets_at(k, f64::INFINITY),
                filt.dims.get(k).map_or(0, |d| d.triplets.len())
            );
        }
    }

    #[test]
    fn arena_barcode_is_bit_identical_to_the_global_reduction() {
        use crate::filtration::Filtration;
        use crate::persistence::compute_barcode;
        let pc = cloud();
        let filt = LaplacianFiltration::rips(&pc, 0.96, 3, Metric::Euclidean);
        let oracle = compute_barcode(&Filtration::rips(&pc, 0.96, 3, Metric::Euclidean));
        let arena = filt.barcode();
        assert_eq!(arena.pairs.len(), oracle.pairs.len());
        for (a, b) in arena.pairs.iter().zip(&oracle.pairs) {
            assert_eq!(a.dim, b.dim);
            assert_eq!(a.birth.to_bits(), b.birth.to_bits(), "{a:?} vs {b:?}");
            assert_eq!(a.death.map(f64::to_bits), b.death.map(f64::to_bits), "{a:?} vs {b:?}");
        }
        // Per-dimension bars are the same pairs, filtered.
        for k in 0..=3usize {
            let per_dim = filt.bars(k);
            let filtered: Vec<_> = arena.bars(k).cloned().collect();
            assert_eq!(per_dim, filtered, "k = {k}");
        }
    }

    #[test]
    fn persistent_betti_matches_the_barcode_oracle() {
        use crate::filtration::Filtration;
        use crate::persistence::compute_barcode;
        let pc = cloud();
        let filt = LaplacianFiltration::rips(&pc, 0.96, 3, Metric::Euclidean);
        let oracle = compute_barcode(&Filtration::rips(&pc, 0.96, 3, Metric::Euclidean));
        let grid = grid();
        for (j, &eps_j) in grid.iter().enumerate() {
            for k in 0..=2usize {
                let row = filt.persistent_betti_row(k, &grid[..=j], eps_j);
                for (i, &eps_i) in grid[..=j].iter().enumerate() {
                    let expected = oracle.persistent_betti(k, eps_i, eps_j);
                    assert_eq!(row[i], expected, "k = {k}, ε = ({eps_i}, {eps_j})");
                    assert_eq!(filt.persistent_betti_at(k, eps_i, eps_j), expected);
                }
            }
        }
    }

    #[test]
    fn persistent_betti_at_equal_scales_is_plain_betti() {
        let pc = cloud();
        let filt = LaplacianFiltration::rips(&pc, 0.96, 3, Metric::Euclidean);
        for &eps in &grid() {
            for k in 0..=2usize {
                assert_eq!(
                    filt.persistent_betti_at(k, eps, eps),
                    filt.betti_at(k, eps),
                    "ε = {eps}, k = {k}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "ε₁ must not exceed ε₂")]
    fn persistent_betti_rejects_reversed_scales() {
        let pc = cloud();
        let filt = LaplacianFiltration::rips(&pc, 0.96, 2, Metric::Euclidean);
        let _ = filt.persistent_betti_at(0, 0.8, 0.2);
    }

    #[test]
    fn arena_bytes_reports_a_plausible_footprint() {
        let pc = cloud();
        let filt = LaplacianFiltration::rips(&pc, 0.9, 3, Metric::Euclidean);
        let bytes = filt.arena_bytes();
        let triplets: usize = filt.dims.iter().map(|d| d.triplets.len()).sum();
        assert!(bytes >= triplets * std::mem::size_of::<LapTriplet>());
        assert!(bytes < 64 << 20, "14-point cloud must not claim {bytes} bytes");
    }
}
