//! Persistence through the serving stack: a persistence job submitted
//! to the streaming service gets its persistent-Betti rows streamed
//! with every slice and its diagrams on the final result — bit-identical
//! to the raw engine across 1/2/8 workers and micro-batch groupings.

use qtda_core::estimator::EstimatorConfig;
use qtda_engine::{BatchEngine, BettiJob, EngineConfig, JobResult};
use qtda_service::{QtdaService, ServiceConfig, StreamedSlice};
use qtda_tda::point_cloud::synthetic;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const BATCH_SEED: u64 = 0x9E25;

/// A persistence workload over both Laplacian paths: ascending grids,
/// both homology depths, one job forced sparse — plus one plain job
/// riding along to pin that the mode never leaks across tickets.
fn persistence_jobs() -> Vec<BettiJob> {
    let mut rng = StdRng::seed_from_u64(88);
    let mut jobs = vec![
        BettiJob::new(synthetic::circle(12, 1.0, 0.02, &mut rng), vec![0.4, 0.55, 0.8])
            .with_persistence(),
        BettiJob::new(synthetic::uniform_cube(10, 2, &mut rng), vec![0.2, 0.4, 0.6])
            .with_persistence(),
        BettiJob::new(synthetic::figure_eight(9, 1.0, 0.02, &mut rng), vec![0.5, 0.7, 0.9])
            .with_persistence(),
        BettiJob::new(synthetic::two_clusters(5, 4.0, 0.4, &mut rng), vec![1.0, 1.4]),
    ];
    jobs[2].sparse_threshold = 8;
    for (i, job) in jobs.iter_mut().enumerate() {
        job.estimator =
            EstimatorConfig { precision_qubits: 5, shots: 2000, ..EstimatorConfig::default() };
        job.max_homology_dim = 1 + i % 2;
    }
    jobs
}

fn engine_config(workers: usize) -> EngineConfig {
    EngineConfig { workers, batch_seed: BATCH_SEED, cache_capacity: 0 }
}

fn assert_persistence_streams_match(
    streamed: &[StreamedSlice],
    final_result: &JobResult,
    reference: &JobResult,
    context: &str,
) {
    assert_eq!(final_result.fingerprint, reference.fingerprint, "{context}: fingerprint");
    assert_eq!(streamed.len(), reference.slices.len(), "{context}: one event per slice");
    let mut ordered: Vec<&StreamedSlice> = streamed.iter().collect();
    ordered.sort_by_key(|s| s.slice_index);
    for (i, (s, r)) in ordered.iter().zip(&reference.slices).enumerate() {
        assert_eq!(s.slice_index, i, "{context}: every slice index exactly once");
        assert_eq!(s.result.persistence, r.persistence, "{context}: streamed rows, slice {i}");
        for (a, b) in s.result.features().iter().zip(r.features()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{context}: slice {i} features");
        }
    }
    for (f, r) in final_result.slices.iter().zip(&reference.slices) {
        assert_eq!(f.persistence, r.persistence, "{context}: final rows at ε = {}", f.epsilon);
    }
    assert_eq!(final_result.diagrams, reference.diagrams, "{context}: diagrams");
}

#[test]
fn persistence_streams_bit_identical_to_the_engine_across_worker_counts() {
    let jobs = persistence_jobs();
    let reference = BatchEngine::new(engine_config(1)).run_batch(&jobs);
    assert!(reference[3].diagrams.is_none(), "the plain job rides along without payloads");
    for workers in [1usize, 2, 8] {
        let service = QtdaService::new(ServiceConfig {
            engine: engine_config(workers),
            max_batch_size: jobs.len(),
            max_linger: Duration::from_millis(250),
            queue_capacity: 64,
        });
        let tickets: Vec<_> =
            jobs.iter().map(|j| service.submit(j.clone()).expect("accepting")).collect();
        for ((i, ticket), reference) in tickets.into_iter().enumerate().zip(&reference) {
            let (streamed, final_result) = ticket.collect();
            assert_persistence_streams_match(
                &streamed,
                &final_result,
                reference,
                &format!("job {i}, {workers} workers"),
            );
        }
        service.shutdown();
    }
}

#[test]
fn singleton_micro_batches_do_not_perturb_persistence() {
    let jobs = persistence_jobs();
    let reference = BatchEngine::new(engine_config(1)).run_batch(&jobs);
    let service = QtdaService::new(ServiceConfig {
        engine: engine_config(2),
        max_batch_size: 1,
        max_linger: Duration::from_millis(1),
        queue_capacity: 64,
    });
    let tickets: Vec<_> =
        jobs.iter().map(|j| service.submit(j.clone()).expect("accepting")).collect();
    for ((i, ticket), reference) in tickets.into_iter().enumerate().zip(&reference) {
        let (streamed, final_result) = ticket.collect();
        assert_persistence_streams_match(
            &streamed,
            &final_result,
            reference,
            &format!("job {i}, singleton micro-batches"),
        );
    }
    service.shutdown();
}
