//! Batched gearbox serving: `qtda-engine` vs the naive per-cloud loop.
//!
//! The workload models steady-state serving traffic for the paper's §5
//! time-series case: a 200-request batch of 500-sample vibration
//! windows (Takens-embedded to ≈ 42-point clouds), each requesting
//! {β̃₀, β̃₁} on a 3-scale ε-grid. Requests repeat: the 200 jobs cover 50
//! distinct windows, the pattern an LRU result cache exists for
//! (several downstream consumers — classifier ensembles, dashboards,
//! alert rules — querying the same recent windows). A second group
//! serves 200 *all-distinct* windows, isolating what the amortised
//! ε-slicing and scheduling buy without any repetition.
//!
//! The naive baseline is the pre-engine formulation: one single-scale
//! `BettiRequest::of_cloud` query per (request, ε), re-running neighbour
//! search + flag expansion every time. It is driven with the engine's
//! own derived seeds, and the bench asserts the two paths are
//! **bit-identical** before timing anything — the speedup is for the
//! same answers, not approximately the same.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qtda_core::estimator::EstimatorConfig;
use qtda_core::query::BettiRequest;
use qtda_data::gearbox::GearboxConfig;
use qtda_data::windows::sliding_window_stream;
use qtda_engine::seed::{job_seed, slice_seed};
use qtda_engine::{jobs_from_windows, BatchEngine, BettiJob, EngineConfig, GearboxJobSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Batch seed shared by both paths so results are comparable bitwise.
const BATCH_SEED: u64 = 0xBA7C;
/// Requests per served batch (the acceptance workload).
const REQUESTS: usize = 200;
/// Distinct windows behind the repeat-traffic batch (4× repetition).
const DISTINCT_PER_CLASS: usize = 25;

fn serving_spec() -> GearboxJobSpec {
    GearboxJobSpec {
        epsilons: vec![0.5, 0.75, 1.0],
        estimator: EstimatorConfig { precision_qubits: 4, shots: 1000, ..Default::default() },
        ..GearboxJobSpec::default()
    }
}

/// `n` jobs over `distinct` underlying windows, cycling in stream order.
fn requests(n: usize, distinct_per_class: usize, rng_seed: u64) -> Vec<BettiJob> {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let windows =
        sliding_window_stream(&GearboxConfig::default(), distinct_per_class, 500, 250, &mut rng);
    let distinct = jobs_from_windows(&windows, &serving_spec());
    (0..n).map(|i| distinct[i % distinct.len()].clone()).collect()
}

fn engine() -> BatchEngine {
    BatchEngine::new(EngineConfig { batch_seed: BATCH_SEED, ..EngineConfig::default() })
}

/// The pre-engine serving loop: every (request, ε) rebuilds the Rips
/// complex from the raw cloud, with no dedup and no caching. Seeds
/// mirror the engine's streams exactly.
fn naive_serve(jobs: &[BettiJob]) -> Vec<Vec<f64>> {
    jobs.iter()
        .map(|job| {
            let js = job_seed(BATCH_SEED, job.fingerprint());
            job.epsilons
                .iter()
                .flat_map(|&eps| {
                    BettiRequest::of_cloud(&job.cloud)
                        .at_scale(eps)
                        .max_dim(job.max_homology_dim)
                        .metric(job.metric)
                        .estimator(EstimatorConfig { seed: slice_seed(js, eps), ..job.estimator })
                        .sparse_threshold(job.sparse_threshold)
                        .build()
                        .run()
                        .single_slice()
                        .features()
                })
                .collect()
        })
        .collect()
}

fn engine_serve(jobs: &[BettiJob]) -> Vec<Vec<f64>> {
    engine().run_batch(jobs).iter().map(|r| r.features()).collect()
}

/// Bitwise comparison of both paths' feature rows.
fn assert_paths_bit_identical(jobs: &[BettiJob]) {
    let naive = naive_serve(jobs);
    let served = engine_serve(jobs);
    assert_eq!(naive.len(), served.len());
    for (i, (n, s)) in naive.iter().zip(&served).enumerate() {
        assert_eq!(n.len(), s.len(), "job {i}: feature arity");
        for (a, b) in n.iter().zip(s) {
            assert_eq!(a.to_bits(), b.to_bits(), "job {i}: naive {a} vs engine {b}");
        }
    }
}

fn bench_serving_traffic(c: &mut Criterion) {
    // Correctness gate first: identical bits on a real (repeating) batch.
    let probe = requests(20, 3, 99);
    assert_paths_bit_identical(&probe);

    let repeat_batch = requests(REQUESTS, DISTINCT_PER_CLASS, 7);

    // Headline wall-clock comparison on the full 200-request batch, run
    // once outside the statistics loop so the ratio is printed even if
    // someone only skims the output.
    let t = Instant::now();
    let naive = naive_serve(&repeat_batch);
    let naive_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let served = engine_serve(&repeat_batch);
    let engine_s = t.elapsed().as_secs_f64();
    assert_eq!(naive.len(), served.len());
    println!(
        "batched_gearbox: 200-request batch (50 distinct windows): \
         naive {naive_s:.2} s, engine {engine_s:.2} s, speedup {:.1}x",
        naive_s / engine_s
    );

    let mut group = c.benchmark_group("batched_gearbox_serving");
    group.bench_with_input(
        BenchmarkId::new("naive_per_cloud_loop", REQUESTS),
        &repeat_batch,
        |b, jobs| b.iter(|| black_box(naive_serve(jobs))),
    );
    group.bench_with_input(BenchmarkId::new("engine", REQUESTS), &repeat_batch, |b, jobs| {
        // A fresh engine per iteration: hits come from in-batch dedup and
        // amortisation, never from a previous timing iteration.
        b.iter(|| black_box(engine_serve(jobs)))
    });
    group.finish();
}

fn bench_all_distinct(c: &mut Criterion) {
    // 200 distinct windows: no repetition for the cache/dedup to exploit,
    // so this isolates amortised ε-slicing + scheduling.
    let distinct_batch = requests(REQUESTS, REQUESTS / 2, 11);
    let mut group = c.benchmark_group("batched_gearbox_all_distinct");
    group.bench_with_input(
        BenchmarkId::new("naive_per_cloud_loop", REQUESTS),
        &distinct_batch,
        |b, jobs| b.iter(|| black_box(naive_serve(jobs))),
    );
    group.bench_with_input(BenchmarkId::new("engine", REQUESTS), &distinct_batch, |b, jobs| {
        b.iter(|| black_box(engine_serve(jobs)))
    });
    group.finish();
}

fn bench_construction_only(c: &mut Criterion) {
    // Isolates the amortised construction itself (no estimation): one
    // max-ε expansion + value slicing vs one full Rips build per ε.
    use qtda_tda::filtration::rips_slices;
    use qtda_tda::rips::{rips_complex, RipsParams};
    let jobs = requests(20, 10, 13);
    let mut group = c.benchmark_group("batched_gearbox_construction");
    group.bench_with_input(BenchmarkId::new("rips_per_epsilon", 20), &jobs, |b, jobs| {
        b.iter(|| {
            for job in jobs {
                for &eps in &job.epsilons {
                    black_box(rips_complex(
                        &job.cloud,
                        &RipsParams {
                            epsilon: eps,
                            max_dim: job.max_homology_dim + 1,
                            metric: job.metric,
                        },
                    ));
                }
            }
        })
    });
    group.bench_with_input(BenchmarkId::new("rips_slices", 20), &jobs, |b, jobs| {
        b.iter(|| {
            for job in jobs {
                black_box(rips_slices(
                    &job.cloud,
                    &job.epsilons,
                    job.max_homology_dim + 1,
                    job.metric,
                ));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_serving_traffic, bench_all_distinct, bench_construction_only);
criterion_main!(benches);
