//! The streaming serving contract:
//!
//! * Streamed slices are **bit-identical** to `BatchEngine::run_batch`
//!   for the same jobs and batch seed, across 1/2/8 service workers and
//!   any micro-batch grouping.
//! * Slices arrive *before* the batch completes (first-slice latency <
//!   full-batch latency on a multi-job batch).
//! * The bounded queue exerts backpressure (`try_submit` →
//!   `Overloaded`) and `shutdown()` drains in-flight work.
//! * The adaptive linger dispatches a deep queue without waiting out
//!   the full deadline.

use qtda_core::estimator::EstimatorConfig;
use qtda_engine::{BatchEngine, BettiJob, EngineConfig, JobResult};
use qtda_service::{QtdaService, ServiceConfig, StreamedSlice, SubmitError, Ticket};
use qtda_tda::point_cloud::synthetic;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCH_SEED: u64 = 0x5EED;

/// A small mixed workload exercising both Laplacian paths and uneven
/// per-job unit counts.
fn mixed_jobs() -> Vec<BettiJob> {
    let mut rng = StdRng::seed_from_u64(77);
    let mut jobs = vec![
        BettiJob::new(synthetic::circle(12, 1.0, 0.02, &mut rng), vec![0.4, 0.55, 0.8]),
        BettiJob::new(synthetic::two_clusters(5, 4.0, 0.4, &mut rng), vec![1.0, 1.4]),
        BettiJob::new(synthetic::figure_eight(9, 1.0, 0.02, &mut rng), vec![0.5, 0.7, 0.9]),
        BettiJob::new(synthetic::uniform_cube(10, 2, &mut rng), vec![0.3, 0.6]),
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

fn assert_streamed_matches_reference(
    streamed: &[StreamedSlice],
    final_result: &JobResult,
    reference: &JobResult,
    context: &str,
) {
    assert_eq!(streamed.len(), reference.slices.len(), "{context}: one event per slice");
    let mut ordered: Vec<&StreamedSlice> = streamed.iter().collect();
    ordered.sort_by_key(|s| s.slice_index);
    for (i, (s, r)) in ordered.iter().zip(&reference.slices).enumerate() {
        assert_eq!(s.slice_index, i, "{context}: every slice index exactly once");
        assert_eq!(s.result.seed, r.seed, "{context}: slice {i} seed");
        assert_eq!(s.result.classical, r.classical, "{context}: slice {i} classical");
        for (a, b) in s.result.features().iter().zip(r.features()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{context}: slice {i} features");
        }
    }
    assert_eq!(final_result.fingerprint, reference.fingerprint, "{context}: fingerprint");
    assert_eq!(final_result.job_seed, reference.job_seed, "{context}: job seed");
    for (a, b) in final_result.features().iter().zip(reference.features()) {
        assert_eq!(a.to_bits(), b.to_bits(), "{context}: final features");
    }
}

#[test]
fn streamed_results_are_bit_identical_to_run_batch_across_worker_counts() {
    let jobs = mixed_jobs();
    let reference = BatchEngine::new(engine_config(1)).run_batch(&jobs);
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
            assert_streamed_matches_reference(
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
fn micro_batch_grouping_is_unobservable_in_results() {
    let jobs = mixed_jobs();
    let reference = BatchEngine::new(engine_config(1)).run_batch(&jobs);
    // Forcing one-job micro-batches regroups the work completely.
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
        assert_streamed_matches_reference(
            &streamed,
            &final_result,
            reference,
            &format!("job {i}, singleton micro-batches"),
        );
    }
    assert!(service.stats().batches_formed >= jobs.len() as u64);
    service.shutdown();
}

#[test]
fn first_slice_arrives_before_the_batch_completes() {
    // One micro-batch of several jobs on a single engine worker, whose
    // shared-counter schedule runs job 0's units before the last job's:
    // job 0's first slice must be *observable while the batch is still
    // computing*. A collect-then-return regression (slices only sent
    // once the whole batch finishes) would have the last job's slices
    // already buffered — and the batch marked complete — by the time
    // any slice can be read, so both assertions below discriminate.
    let jobs = mixed_jobs();
    let service = QtdaService::new(ServiceConfig {
        engine: engine_config(1),
        max_batch_size: jobs.len(),
        max_linger: Duration::from_millis(250),
        queue_capacity: 64,
    });
    let submitted = Instant::now();
    let mut tickets: Vec<_> =
        jobs.iter().map(|j| service.submit(j.clone()).expect("accepting")).collect();
    let first_slice = tickets[0].next_slice().expect("at least one slice streams");
    let first_slice_latency = submitted.elapsed();
    assert_eq!(first_slice.result.estimates.len(), jobs[0].max_homology_dim + 1);
    let last = tickets.len() - 1;
    assert!(
        tickets[last].try_next_slice().is_none() && !tickets[last].is_done(),
        "job 0's first slice streamed while the batch was still computing — \
         the last job must have produced nothing yet"
    );
    assert_eq!(
        service.stats().completed,
        0,
        "no job may be complete when the first slice is observable"
    );
    let results: Vec<Arc<JobResult>> = tickets.into_iter().map(Ticket::wait).collect();
    let full_batch_latency = submitted.elapsed();
    assert!(results.iter().all(|r| !r.slices.is_empty()));
    assert!(
        first_slice_latency < full_batch_latency,
        "first slice ({first_slice_latency:?}) must beat the full batch \
         ({full_batch_latency:?})"
    );
    service.shutdown();
}

#[test]
fn bounded_queue_pushes_back_when_overloaded() {
    // A deliberately slow job occupies the batcher while the 1-slot
    // queue fills behind it.
    let mut rng = StdRng::seed_from_u64(5);
    let mut heavy = BettiJob::new(synthetic::circle(40, 1.0, 0.01, &mut rng), vec![0.45, 0.5]);
    heavy.estimator =
        EstimatorConfig { precision_qubits: 6, shots: 4000, ..EstimatorConfig::default() };
    let light = BettiJob::new(synthetic::two_clusters(4, 4.0, 0.3, &mut rng), vec![1.0]);

    let service = QtdaService::new(ServiceConfig {
        engine: engine_config(1),
        max_batch_size: 1,
        max_linger: Duration::ZERO,
        queue_capacity: 1,
    });
    let heavy_ticket = service.submit(heavy).expect("accepting the heavy job");
    // Wait until the batcher has picked the heavy job up, then park one
    // light job in the queue's only slot.
    let queued_ticket = loop {
        match service.try_submit(light.clone()) {
            Ok(ticket) => break ticket,
            Err(SubmitError::Overloaded(_)) => std::thread::yield_now(),
            Err(err) => panic!("unexpected submit error: {err}"),
        }
    };
    // The queue is now full and the batcher busy: submission must
    // report overload rather than buffer unboundedly.
    match service.try_submit(light.clone()) {
        Err(SubmitError::Overloaded(job)) => {
            assert_eq!(job.epsilons, light.epsilons, "the job is handed back for retry")
        }
        Ok(_) => panic!("queue of capacity 1 accepted a second queued job"),
        Err(err) => panic!("unexpected submit error: {err}"),
    }
    assert!(service.stats().rejected_overloaded >= 1);
    // Backpressure sheds load; it never corrupts accepted work.
    assert_eq!(heavy_ticket.wait().slices.len(), 2);
    assert_eq!(queued_ticket.wait().slices.len(), 1);
    service.shutdown();
}

#[test]
fn shutdown_drains_accepted_work() {
    let jobs = mixed_jobs();
    let reference = BatchEngine::new(engine_config(1)).run_batch(&jobs);
    let service = QtdaService::new(ServiceConfig {
        engine: engine_config(2),
        max_batch_size: jobs.len() + 8,
        // A linger far longer than the test: only shutdown's drain can
        // flush these.
        max_linger: Duration::from_secs(30),
        queue_capacity: 64,
    });
    let tickets: Vec<_> =
        jobs.iter().map(|j| service.submit(j.clone()).expect("accepting")).collect();
    service.shutdown();
    for ((i, ticket), reference) in tickets.into_iter().enumerate().zip(&reference) {
        let (streamed, final_result) = ticket.collect();
        assert_streamed_matches_reference(
            &streamed,
            &final_result,
            reference,
            &format!("job {i} drained through shutdown"),
        );
    }
}

#[test]
fn deep_queues_dispatch_without_waiting_out_the_full_deadline() {
    // Seven jobs burst in against a micro-batch size of 8: the batch
    // gathers them instantly but never fills. The adaptive linger
    // shrinks the deadline to an eighth of `max_linger` at the 7/8
    // backlog, so the almost-full batch does not wait out the entire
    // deadline with the engine idle.
    let mut rng = StdRng::seed_from_u64(91);
    let mut blocker = BettiJob::new(synthetic::circle(30, 1.0, 0.01, &mut rng), vec![0.4, 0.5]);
    blocker.estimator =
        EstimatorConfig { precision_qubits: 5, shots: 2000, ..EstimatorConfig::default() };
    let light: Vec<BettiJob> = (0..6)
        .map(|i| {
            BettiJob::new(
                synthetic::two_clusters(4, 4.0 + i as f64 * 0.1, 0.3, &mut rng),
                vec![1.0],
            )
        })
        .collect();
    let max_linger = Duration::from_millis(1500);
    let service = QtdaService::new(ServiceConfig {
        engine: engine_config(1),
        max_batch_size: 8,
        max_linger,
        queue_capacity: 64,
    });
    let start = Instant::now();
    let blocker_ticket = service.submit(blocker.clone()).expect("accepting");
    let tickets: Vec<_> =
        light.iter().map(|j| service.submit(j.clone()).expect("accepting")).collect();
    for ticket in tickets {
        ticket.wait();
    }
    blocker_ticket.wait();
    let adaptive = start.elapsed();
    service.shutdown();
    assert!(
        adaptive < Duration::from_millis(1000),
        "deep queue must dispatch early: took {adaptive:?} against a {max_linger:?} linger"
    );
}
