//! Batched gearbox serving: `qtda-engine` vs the naive per-cloud loop.
//!
//! The workload models steady-state serving traffic for the paper's §5
//! time-series case: a 200-request batch of 500-sample vibration
//! windows (Takens-embedded to ≈ 42-point clouds), each requesting
//! {β̃₀, β̃₁} on a 3-scale ε-grid. Requests repeat: the 200 jobs cover 50
//! distinct windows, the pattern an LRU result cache exists for
//! (several downstream consumers — classifier ensembles, dashboards,
//! alert rules — querying the same recent windows). All-distinct
//! traffic is what `e2e_serving`'s `stream_plain` workload measures.
//!
//! The naive baseline is the pre-engine formulation: one single-scale
//! `BettiRequest::of_cloud` query per (request, ε), re-running neighbour
//! search + flag expansion every time. It is driven with the engine's
//! own derived seeds, and the bench asserts the two paths are
//! **bit-identical** before timing anything — the speedup is for the
//! same answers, not approximately the same. The batch is then timed
//! once per path, with a fresh engine, so hits come from in-batch dedup
//! and amortisation only.

use qtda_core::estimator::EstimatorConfig;
use qtda_core::query::BettiRequest;
use qtda_data::gearbox::GearboxConfig;
use qtda_data::windows::sliding_window_stream;
use qtda_engine::seed::{job_seed, slice_seed};
use qtda_engine::{jobs_from_windows, BatchEngine, BettiJob, EngineConfig, GearboxJobSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
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

fn main() {
    // `cargo bench` may pass harness flags like `--bench`; ignore them.
    // Correctness gate first: identical bits on a real (repeating) batch.
    let probe = requests(20, 3, 99);
    assert_paths_bit_identical(&probe);
    println!("correctness gate passed: engine bit-identical to the per-cloud loop");

    let repeat_batch = requests(REQUESTS, DISTINCT_PER_CLASS, 7);
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
}
