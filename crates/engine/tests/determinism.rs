//! The engine's serving contract: scheduling must be invisible.
//!
//! * Same batch seed ⇒ bit-identical results across 1, 2 and 8 workers.
//! * Every slice replays through the one-shot pipeline at the slice's
//!   seed, bit for bit.
//! * Estimates agree with the independent `persistence::Barcode` oracle
//!   on random clouds.
//! * Batch composition, job order and cache state change nothing.

use qtda_core::estimator::{BettiEstimate, EstimatorConfig};
use qtda_core::query::BettiRequest;
use qtda_engine::{BatchEngine, BettiJob, EngineConfig, JobResult};
use qtda_tda::filtration::Filtration;
use qtda_tda::persistence::compute_barcode;
use qtda_tda::point_cloud::{synthetic, Metric};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small mixed batch exercising both Laplacian paths (the circle at
/// ε = 0.55 stays dense; the low-threshold figure-eight goes sparse).
fn mixed_batch() -> Vec<BettiJob> {
    let mut rng = StdRng::seed_from_u64(40);
    let mut jobs = vec![
        BettiJob::new(synthetic::circle(12, 1.0, 0.02, &mut rng), vec![0.4, 0.55, 0.8]),
        BettiJob::new(synthetic::two_clusters(5, 4.0, 0.4, &mut rng), vec![1.0, 1.4]),
        BettiJob::new(synthetic::figure_eight(9, 1.0, 0.02, &mut rng), vec![0.5, 0.7, 0.9]),
    ];
    jobs[2].sparse_threshold = 8;
    for (i, job) in jobs.iter_mut().enumerate() {
        job.estimator =
            EstimatorConfig { precision_qubits: 5, shots: 3000, ..EstimatorConfig::default() };
        job.max_homology_dim = 1 + i % 2;
    }
    jobs
}

fn assert_job_results_identical(a: &JobResult, b: &JobResult, context: &str) {
    assert_eq!(a.fingerprint, b.fingerprint, "{context}: fingerprints");
    assert_eq!(a.job_seed, b.job_seed, "{context}: job seeds");
    assert_eq!(a.slices.len(), b.slices.len(), "{context}: slice counts");
    for (sa, sb) in a.slices.iter().zip(&b.slices) {
        assert_eq!(sa.seed, sb.seed, "{context}: slice seeds at ε = {}", sa.epsilon);
        assert_eq!(sa.classical, sb.classical, "{context}: classical at ε = {}", sa.epsilon);
        for (ea, eb) in sa.estimates.iter().zip(&sb.estimates) {
            assert_estimates_identical(ea, eb, context);
        }
    }
}

fn assert_estimates_identical(a: &BettiEstimate, b: &BettiEstimate, context: &str) {
    assert_eq!(a.p_zero_exact.to_bits(), b.p_zero_exact.to_bits(), "{context}: p(0) exact");
    assert_eq!(a.p_zero_sampled.to_bits(), b.p_zero_sampled.to_bits(), "{context}: p̂(0)");
    assert_eq!(a.raw.to_bits(), b.raw.to_bits(), "{context}: raw");
    assert_eq!(a.corrected.to_bits(), b.corrected.to_bits(), "{context}: corrected");
    assert_eq!(a.q, b.q, "{context}: q");
    assert_eq!(a.shots, b.shots, "{context}: shots");
    assert_eq!(a.spurious_zeros, b.spurious_zeros, "{context}: spurious zeros");
}

#[test]
fn determinism_same_seed_across_1_2_and_8_workers() {
    let jobs = mixed_batch();
    let reference =
        BatchEngine::new(EngineConfig { workers: 1, batch_seed: 0xBA7C, cache_capacity: 0 })
            .run_batch(&jobs);
    for workers in [2usize, 8] {
        let results =
            BatchEngine::new(EngineConfig { workers, batch_seed: 0xBA7C, cache_capacity: 0 })
                .run_batch(&jobs);
        for (i, (r, expect)) in results.iter().zip(&reference).enumerate() {
            assert_job_results_identical(r, expect, &format!("job {i}, {workers} workers"));
        }
    }
}

/// A job big enough that its Δ_1 has at least 128 rows, the serving
/// sizes where the sparse decomposition dominates a job — the serving
/// contract must hold on those long Lanczos runs too, and each slice
/// must still replay through the one-shot pipeline bit for bit.
#[test]
fn large_sparse_route_is_deterministic_across_worker_counts() {
    let mut rng = StdRng::seed_from_u64(41);
    let cloud = synthetic::circle(24, 1.0, 0.02, &mut rng);
    let epsilon = 1.66;
    // Sanity: the ε-slice must really be that large, or this test
    // silently degrades to short recurrences.
    let arena = qtda_tda::laplacian_filtration::LaplacianFiltration::rips(
        &cloud,
        epsilon,
        2,
        Metric::Euclidean,
    );
    assert!(arena.count_at(1, epsilon) >= 128, "|S_1| = {}", arena.count_at(1, epsilon));
    let mut job = BettiJob::new(cloud, vec![1.2, epsilon]);
    job.sparse_threshold = 8; // force the sparse route at both scales
    job.estimator =
        EstimatorConfig { precision_qubits: 5, shots: 2000, ..EstimatorConfig::default() };
    job.max_homology_dim = 1;
    let reference =
        BatchEngine::new(EngineConfig { workers: 1, batch_seed: 0x5EED, cache_capacity: 0 })
            .run_job(&job);
    for workers in [2usize, 8] {
        let result =
            BatchEngine::new(EngineConfig { workers, batch_seed: 0x5EED, cache_capacity: 0 })
                .run_job(&job);
        assert_job_results_identical(&result, &reference, &format!("{workers} workers"));
    }
    // Replay every slice through the one-shot pipeline (which routes the
    // same units through its own spectrum share) — bit for bit.
    for slice in &reference.slices {
        let replay = BettiRequest::of_cloud(&job.cloud)
            .at_scale(slice.epsilon)
            .max_dim(job.max_homology_dim)
            .metric(job.metric)
            .estimator(EstimatorConfig { seed: slice.seed, ..job.estimator })
            .sparse_threshold(job.sparse_threshold)
            .build()
            .run();
        let replay = replay.single_slice();
        assert_eq!(slice.classical, replay.classical, "ε = {}", slice.epsilon);
        for (engine_est, pipeline_est) in slice.estimates.iter().zip(&replay.estimates) {
            assert_estimates_identical(
                engine_est,
                pipeline_est,
                &format!("large-job replay at ε = {}", slice.epsilon),
            );
        }
    }
}

#[test]
fn different_batch_seed_changes_sampling_but_not_truth() {
    let jobs = mixed_batch();
    let a = BatchEngine::new(EngineConfig { batch_seed: 1, ..EngineConfig::default() })
        .run_batch(&jobs);
    let b = BatchEngine::new(EngineConfig { batch_seed: 2, ..EngineConfig::default() })
        .run_batch(&jobs);
    let mut any_sample_differs = false;
    for (ra, rb) in a.iter().zip(&b) {
        for (sa, sb) in ra.slices.iter().zip(&rb.slices) {
            assert_eq!(sa.classical, sb.classical, "classical truth is seed-free");
            for (ea, eb) in sa.estimates.iter().zip(&sb.estimates) {
                assert_eq!(ea.p_zero_exact.to_bits(), eb.p_zero_exact.to_bits());
                any_sample_differs |= ea.p_zero_sampled.to_bits() != eb.p_zero_sampled.to_bits();
            }
        }
    }
    assert!(any_sample_differs, "distinct batch seeds must draw distinct shot noise");
}

#[test]
fn every_slice_replays_through_the_single_cloud_pipeline() {
    let jobs = mixed_batch();
    let results = BatchEngine::with_defaults().run_batch(&jobs);
    for (job, result) in jobs.iter().zip(&results) {
        for slice in &result.slices {
            let replay = BettiRequest::of_cloud(&job.cloud)
                .at_scale(slice.epsilon)
                .max_dim(job.max_homology_dim)
                .metric(job.metric)
                .estimator(EstimatorConfig { seed: slice.seed, ..job.estimator })
                .sparse_threshold(job.sparse_threshold)
                .build()
                .run();
            let replay = replay.single_slice();
            assert_eq!(slice.classical, replay.classical, "ε = {}", slice.epsilon);
            for (engine_est, pipeline_est) in slice.estimates.iter().zip(&replay.estimates) {
                assert_estimates_identical(
                    engine_est,
                    pipeline_est,
                    &format!("replay at ε = {}", slice.epsilon),
                );
            }
        }
    }
}

#[test]
fn engine_agrees_with_the_barcode_oracle_on_random_clouds() {
    let epsilons = vec![0.35, 0.55, 0.75];
    let mut jobs = Vec::new();
    let mut clouds = Vec::new();
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let cloud = synthetic::uniform_cube(11, 2, &mut rng);
        let mut job = BettiJob::new(cloud.clone(), epsilons.clone());
        job.estimator =
            EstimatorConfig { precision_qubits: 7, shots: 20_000, ..EstimatorConfig::default() };
        clouds.push(cloud);
        jobs.push(job);
    }
    // Forced-sparse twins: every unit on the Lanczos route, so the
    // sparse route's classical β is pinned to the oracle as well.
    let twins: Vec<BettiJob> =
        jobs.iter().cloned().map(|job| BettiJob { sparse_threshold: 0, ..job }).collect();
    jobs.extend(twins);
    clouds.extend(clouds.clone());
    let results = BatchEngine::with_defaults().run_batch(&jobs);
    for (cloud, result) in clouds.iter().zip(&results) {
        let filtration = Filtration::rips(cloud, 0.8, 2, Metric::Euclidean);
        let barcode = compute_barcode(&filtration);
        for slice in &result.slices {
            for dim in 0..=1 {
                let oracle = barcode.betti_at(dim, slice.epsilon);
                assert_eq!(
                    slice.classical[dim], oracle,
                    "classical β_{dim} at ε = {} disagrees with column reduction",
                    slice.epsilon
                );
                assert_eq!(
                    slice.rounded()[dim],
                    oracle,
                    "high-fidelity estimate β̃_{dim} at ε = {} must round to the oracle",
                    slice.epsilon
                );
            }
        }
    }
}

#[test]
fn batch_composition_and_order_do_not_change_results() {
    let jobs = mixed_batch();
    let together =
        BatchEngine::new(EngineConfig { cache_capacity: 0, ..Default::default() }).run_batch(&jobs);
    // Each job alone.
    for (i, job) in jobs.iter().enumerate() {
        let alone =
            BatchEngine::new(EngineConfig { cache_capacity: 0, ..Default::default() }).run_job(job);
        assert_job_results_identical(&alone, &together[i], &format!("job {i} alone"));
    }
    // Reversed order.
    let reversed_jobs: Vec<BettiJob> = jobs.iter().rev().cloned().collect();
    let reversed = BatchEngine::new(EngineConfig { cache_capacity: 0, ..Default::default() })
        .run_batch(&reversed_jobs);
    for (i, r) in reversed.iter().rev().enumerate() {
        assert_job_results_identical(r, &together[i], &format!("job {i} reversed"));
    }
}

#[test]
fn cache_state_is_unobservable_in_results() {
    let jobs = mixed_batch();
    let warm = BatchEngine::with_defaults();
    warm.run_batch(&jobs);
    let warm_results = warm.run_batch(&jobs);
    assert!(warm.stats().cache_hits >= jobs.len() as u64, "second pass must hit");
    let cold_results =
        BatchEngine::new(EngineConfig { cache_capacity: 0, ..Default::default() }).run_batch(&jobs);
    for (i, (w, c)) in warm_results.iter().zip(&cold_results).enumerate() {
        assert_job_results_identical(w, c, &format!("job {i} warm vs cold"));
    }
}
