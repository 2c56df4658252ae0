//! Incremental-arena vs per-slice-rebuild Laplacian assembly on a dense
//! ε-grid — the PR 4 acceptance bench.
//!
//! The workload is the gearbox-scale sweep the serving stack runs all
//! day: one Takens-embedded vibration window (≈ 42 points), dims 0–2,
//! a ≥ 16-slice ε-grid. Two paths produce **bit-identical** CSR
//! Laplacians (asserted before timing):
//!
//! * **rebuild**: the pre-PR formulation — share the Rips complexes via
//!   `rips_slices`, then assemble Δ_k from scratch per `(ε, dim)`
//!   exactly as a complex-source `BettiRequest` consumes it: dense gram
//!   products below the default sparse threshold, CSR from hash-heavy
//!   boundary walking plus an O(nnz log nnz) triplet sort at or above
//!   it;
//! * **incremental**: build one `LaplacianFiltration` arena at the
//!   grid's max ε, then serve every `(ε, dim)` as a prefix read
//!   (densified on the same units the dense route takes, exactly as
//!   a filtration-source `BettiRequest` consumes it).
//!
//! A construction-only control isolates the one-off build costs. Run
//! with `--json [path]` to emit machine-readable results (the checked-in
//! `BENCH_PR4.json` comes from `cargo bench --bench
//! betti_curve_incremental -- --json`).

use qtda_core::estimator::EstimatorConfig;
use qtda_core::pipeline::DEFAULT_SPARSE_THRESHOLD;
use qtda_data::gearbox::GearboxConfig;
use qtda_data::windows::sliding_window_stream;
use qtda_engine::{jobs_from_windows, GearboxJobSpec};
use qtda_tda::filtration::{max_scale, rips_slices};
use qtda_tda::laplacian::{combinatorial_laplacian, combinatorial_laplacian_sparse};
use qtda_tda::laplacian_filtration::LaplacianFiltration;
use qtda_tda::point_cloud::{Metric, PointCloud};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Homology dims 0–2 ⇒ complexes built one dimension higher.
const MAX_DIM: usize = 3;
/// Dense grid: the acceptance floor is 16 slices.
const SLICES: usize = 24;

fn workload() -> (PointCloud, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(0x9EA2);
    let windows = sliding_window_stream(&GearboxConfig::default(), 1, 500, 250, &mut rng);
    let spec = GearboxJobSpec {
        max_homology_dim: MAX_DIM - 1,
        estimator: EstimatorConfig::default(),
        ..GearboxJobSpec::default()
    };
    let cloud = jobs_from_windows(&windows, &spec).remove(0).cloud;
    let grid: Vec<f64> = (0..SLICES).map(|i| 0.4 + 0.8 * i as f64 / (SLICES - 1) as f64).collect();
    (cloud, grid)
}

/// Best-of-N wall-clock for `f`, with one untimed warm-up.
fn time_best(reps: usize, mut f: impl FnMut()) -> Duration {
    f();
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .min()
        .expect("at least one rep")
}

fn rebuild_sweep(cloud: &PointCloud, grid: &[f64]) {
    let slices = rips_slices(cloud, grid, MAX_DIM, Metric::Euclidean);
    for slice in &slices {
        for k in 0..MAX_DIM {
            // The pre-PR unit routing: dense gram assembly below the
            // sparse threshold, boundary-walking CSR at or above it.
            if slice.count(k) >= DEFAULT_SPARSE_THRESHOLD {
                black_box(combinatorial_laplacian_sparse(slice, k));
            } else {
                black_box(combinatorial_laplacian(slice, k));
            }
        }
    }
}

fn incremental_sweep(cloud: &PointCloud, grid: &[f64]) {
    let filt = LaplacianFiltration::rips(cloud, max_scale(grid), MAX_DIM, Metric::Euclidean);
    for &eps in grid {
        for k in 0..MAX_DIM {
            // Same routing, served from the arena: prefix read, plus
            // the densification the dense backend consumes.
            if filt.count_at(k, eps) >= DEFAULT_SPARSE_THRESHOLD {
                black_box(filt.laplacian_at(k, eps));
            } else {
                black_box(filt.laplacian_at(k, eps).to_dense());
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = args.iter().position(|a| a == "--json").map(|i| {
        args.get(i + 1).filter(|a| !a.starts_with('-')).cloned().unwrap_or_else(|| {
            // Default to the workspace root regardless of the bench
            // binary's working directory.
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR4.json").to_string()
        })
    });
    // `cargo bench` may pass harness flags like `--bench`; ignore them.

    let (cloud, grid) = workload();
    println!(
        "betti_curve_incremental: {} points, {} slices x dims 0-{}, ε ∈ [{:.2}, {:.2}]",
        cloud.len(),
        grid.len(),
        MAX_DIM - 1,
        grid[0],
        grid[grid.len() - 1],
    );

    // Correctness gate: both paths must produce bit-identical CSR
    // Laplacians at every (ε, dim) before any timing is believed.
    {
        let filt = LaplacianFiltration::rips(&cloud, max_scale(&grid), MAX_DIM, Metric::Euclidean);
        let slices = rips_slices(&cloud, &grid, MAX_DIM, Metric::Euclidean);
        for (slice, &eps) in slices.iter().zip(&grid) {
            for k in 0..MAX_DIM {
                assert_eq!(
                    filt.laplacian_at(k, eps),
                    combinatorial_laplacian_sparse(slice, k),
                    "sparse paths diverge at ε = {eps}, k = {k}"
                );
                let dense_direct = combinatorial_laplacian(slice, k);
                let dense_arena = filt.laplacian_at(k, eps).to_dense();
                for i in 0..dense_direct.rows() {
                    for j in 0..dense_direct.cols() {
                        assert_eq!(
                            dense_arena[(i, j)].to_bits(),
                            dense_direct[(i, j)].to_bits(),
                            "dense paths diverge at ε = {eps}, k = {k}, ({i}, {j})"
                        );
                    }
                }
            }
        }
    }
    println!("correctness gate passed: bit-identical Laplacians at every (ε, dim)");

    let reps = 10;
    let rebuild = time_best(reps, || rebuild_sweep(&cloud, &grid));
    let incremental = time_best(reps, || incremental_sweep(&cloud, &grid));
    let construction_rebuild =
        time_best(reps, || drop(black_box(rips_slices(&cloud, &grid, MAX_DIM, Metric::Euclidean))));
    let construction_incremental = time_best(reps, || {
        drop(black_box(LaplacianFiltration::rips(
            &cloud,
            max_scale(&grid),
            MAX_DIM,
            Metric::Euclidean,
        )))
    });

    let per_slice = |d: Duration| d.as_secs_f64() * 1e6 / grid.len() as f64;
    let speedup = rebuild.as_secs_f64() / incremental.as_secs_f64();
    println!(
        "per-slice rebuild     : {:8.1} µs  (sweep {:.2} ms)",
        per_slice(rebuild),
        rebuild.as_secs_f64() * 1e3
    );
    println!(
        "per-slice incremental : {:8.1} µs  (sweep {:.2} ms)",
        per_slice(incremental),
        incremental.as_secs_f64() * 1e3
    );
    println!("end-to-end speedup    : {speedup:8.2}x");
    println!(
        "construction only     : rips_slices {:.2} ms vs arena {:.2} ms",
        construction_rebuild.as_secs_f64() * 1e3,
        construction_incremental.as_secs_f64() * 1e3
    );

    if let Some(path) = json_path {
        let json = format!(
            "{{\n  \"bench\": \"betti_curve_incremental\",\n  \"points\": {},\n  \"slices\": {},\n  \"dims\": {},\n  \"rebuild_per_slice_us\": {:.2},\n  \"incremental_per_slice_us\": {:.2},\n  \"speedup\": {:.2},\n  \"construction_rebuild_us\": {:.2},\n  \"construction_incremental_us\": {:.2}\n}}\n",
            cloud.len(),
            grid.len(),
            MAX_DIM,
            per_slice(rebuild),
            per_slice(incremental),
            speedup,
            construction_rebuild.as_secs_f64() * 1e6,
            construction_incremental.as_secs_f64() * 1e6,
        );
        std::fs::write(&path, json).expect("writing bench JSON");
        println!("wrote {path}");
    }

    assert!(
        speedup >= 1.0,
        "incremental path regressed below the per-slice rebuild ({speedup:.2}x)"
    );
}
