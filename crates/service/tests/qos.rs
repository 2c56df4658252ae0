//! The QoS serving contract:
//!
//! * `Ticket::cancel()` and an expired deadline both terminate a
//!   streamed job with an `Aborted` terminal state — across 1/2/8
//!   engine workers — with **no cache poisoning** (a resubmit computes
//!   the full, bit-identical result from scratch) and the job's
//!   filtration arena freed (`arena_bytes_live` back to zero).
//! * Completed results under priority scheduling are **bit-identical**
//!   to FIFO `run_batch` at 1/2/8 workers: priorities shape when units
//!   run, never what they compute.
//! * Bulk jobs still complete under sustained Interactive load (the
//!   submission queue's bounded bypass).
//! * An Interactive request closes a micro-batch early instead of
//!   waiting out the linger deadline.

use qtda_core::estimator::EstimatorConfig;
use qtda_engine::{AbortReason, BatchEngine, BettiJob, EngineConfig, JobRequest, QosPolicy};
use qtda_service::{QtdaService, ServiceConfig, TicketOutcome};
use qtda_tda::point_cloud::{synthetic, PointCloud};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCH_SEED: u64 = 0x5EED;

fn engine_config(workers: usize) -> EngineConfig {
    EngineConfig { workers, batch_seed: BATCH_SEED, cache_capacity: 0 }
}

/// A job with enough `(ε, dim)` units (and enough work per unit) that a
/// cancellation issued after its first slice always lands while units
/// are still outstanding. The ε grid straddles the 32-gon's chord-birth
/// thresholds (2·sin(kπ/32) ≈ 0.39, 0.58, 0.77, 0.94, 1.11), so every
/// slice activates a distinct simplex prefix — the engine's per-job
/// spectrum share cannot collapse the later units into cheap reuse
/// hits, which would let the whole job finish before the cancel lands.
fn heavy_job(seed: u64) -> BettiJob {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut job = BettiJob::new(
        synthetic::circle(32, 1.0, 0.01, &mut rng),
        vec![0.3, 0.5, 0.7, 0.85, 1.0, 1.2],
    );
    job.max_homology_dim = 2;
    job.estimator =
        EstimatorConfig { precision_qubits: 6, shots: 8000, ..EstimatorConfig::default() };
    job
}

fn light_job(seed: u64) -> BettiJob {
    let mut rng = StdRng::seed_from_u64(seed);
    BettiJob::new(synthetic::two_clusters(4, 4.0, 0.3, &mut rng), vec![1.0])
}

fn service(workers: usize, max_batch: usize) -> QtdaService {
    QtdaService::new(ServiceConfig {
        engine: engine_config(workers),
        max_batch_size: max_batch,
        max_linger: Duration::from_millis(250),
        queue_capacity: 64,
    })
}

/// `Ticket::cancel` terminates a streamed job with `Aborted`, skips its
/// remaining units, frees its arena, and leaves the cache clean: the
/// same job resubmitted afterwards computes from scratch, bit-identical
/// to a fresh engine.
#[test]
fn cancel_terminates_streamed_job_without_poisoning_cache_or_leaking_arenas() {
    let cancelled_job = heavy_job(1);
    let companion = light_job(2);
    let reference_cancelled = BatchEngine::new(engine_config(1)).run_job(&cancelled_job);
    let reference_companion = BatchEngine::new(engine_config(1)).run_job(&companion);
    for workers in [1usize, 2, 8] {
        // Cache ON: the poisoning check needs one.
        let service = QtdaService::new(ServiceConfig {
            engine: EngineConfig { cache_capacity: 64, ..engine_config(workers) },
            max_batch_size: 2,
            max_linger: Duration::from_millis(250),
            queue_capacity: 64,
        });
        let mut ticket = service.submit(cancelled_job.clone()).expect("accepting");
        let companion_ticket = service.submit(companion.clone()).expect("accepting");
        let first = ticket.next_slice().expect("at least one slice streams before the cancel");
        assert!(first.slice_index < cancelled_job.epsilons.len());
        ticket.cancel();
        match ticket.outcome() {
            TicketOutcome::Aborted(AbortReason::Cancelled) => {}
            other => panic!("{workers} workers: expected Aborted(Cancelled), got {other:?}"),
        }
        // The companion shares the micro-batch and must be untouched.
        let companion_result = companion_ticket.wait();
        for (a, b) in companion_result.features().iter().zip(reference_companion.features()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{workers} workers: companion corrupted");
        }
        let stats = service.engine().stats();
        assert_eq!(stats.arena_bytes_live, 0, "{workers} workers: abort leaked an arena");
        assert_eq!(stats.jobs_cancelled, 1, "{workers} workers");
        // No cache poisoning: the resubmit recomputes the whole job and
        // matches the FIFO reference bit for bit. (A poisoned entry
        // would either hit with partial slices or alter results.)
        let hits_before = stats.cache_hits;
        let resubmit =
            service.submit(cancelled_job.clone()).expect("accepting the resubmit").wait();
        assert_eq!(resubmit.slices.len(), cancelled_job.epsilons.len());
        for (a, b) in resubmit.features().iter().zip(reference_cancelled.features()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{workers} workers: resubmit diverged");
        }
        assert_eq!(
            service.engine().stats().cache_hits,
            hits_before,
            "{workers} workers: nothing of the cancelled job may be served from cache"
        );
        service.shutdown();
    }
}

/// A deadline that expires mid-computation terminates the streamed job
/// with `Aborted(DeadlineExceeded)` at a unit boundary, freeing its
/// arena; one that expired while still queued never reaches the engine
/// at all.
#[test]
fn expired_deadline_terminates_streamed_job() {
    for workers in [1usize, 2, 8] {
        let service = service(workers, 2);
        // Mid-computation expiry: the job takes far longer than 40 ms.
        let qos = QosPolicy::default().with_deadline_in(Duration::from_millis(40));
        let ticket = service.submit_with(heavy_job(3), qos).expect("accepting");
        match ticket.outcome() {
            TicketOutcome::Aborted(AbortReason::DeadlineExceeded) => {}
            other => panic!("{workers} workers: expected DeadlineExceeded, got {other:?}"),
        }
        // The expiry is counted when the batcher delivers outcomes,
        // which can trail the ticket's streamed abort by a moment —
        // poll briefly instead of racing it.
        let counted = Instant::now();
        while service.stats().deadline_expired < 1 {
            assert!(
                counted.elapsed() < Duration::from_secs(2),
                "{workers} workers: the expiry was never counted"
            );
            std::thread::yield_now();
        }
        // Outcome delivery happens after the engine run returned, and
        // the run's last unit freed the arena.
        assert_eq!(
            service.engine().stats().arena_bytes_live,
            0,
            "{workers} workers: abort leaked an arena"
        );
        // Dead on arrival: expired before the batcher ever popped it.
        // It still flows through the engine (deadlines are enforced at
        // unit boundaries), which skips every unit and aborts it.
        let dead_on_arrival =
            QosPolicy::bulk().with_deadline(Instant::now() - Duration::from_secs(1));
        let ticket = service.submit_with(light_job(4), dead_on_arrival).expect("accepting");
        match ticket.outcome() {
            TicketOutcome::Aborted(AbortReason::DeadlineExceeded) => {}
            other => panic!("{workers} workers: expected DeadlineExceeded, got {other:?}"),
        }
        service.shutdown();
    }
}

/// Best-effort deadlines never discard a ready answer: a request whose
/// result already sits in the LRU cache is served — for free — even if
/// its deadline expired while it waited in the submission queue.
#[test]
fn expired_deadline_still_served_from_a_ready_cache_hit() {
    let service = QtdaService::new(ServiceConfig {
        engine: EngineConfig { cache_capacity: 16, ..engine_config(2) },
        max_batch_size: 4,
        max_linger: Duration::from_millis(50),
        queue_capacity: 64,
    });
    let job = light_job(9);
    // Prime the cache with a completed run of the same job.
    let reference = service.submit(job.clone()).expect("accepting").wait();
    // Same content, deadline already expired: the engine's cache-hit
    // path must deliver the completed result rather than aborting.
    let expired = QosPolicy::normal().with_deadline(Instant::now() - Duration::from_secs(1));
    match service.submit_with(job, expired).expect("accepting").outcome() {
        TicketOutcome::Completed(result) => {
            for (a, b) in result.features().iter().zip(reference.features()) {
                assert_eq!(a.to_bits(), b.to_bits(), "hit must be the cached result");
            }
        }
        TicketOutcome::Aborted(reason) => {
            panic!("a ready cache hit was discarded by an expired deadline ({reason})")
        }
    }
    assert!(service.engine().stats().cache_hits >= 1, "the hit actually came from the cache");
    service.shutdown();
}

/// QoS determinism: a mixed-priority workload's completed results are
/// bit-identical to FIFO `run_batch` of the same jobs, at 1/2/8
/// workers — priority scheduling reorders units, never values.
#[test]
fn completed_results_under_priority_scheduling_match_fifo_run_batch() {
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
    let classes = [
        QosPolicy::bulk(),
        QosPolicy::interactive(),
        QosPolicy::normal(),
        QosPolicy::interactive(),
    ];
    let reference = BatchEngine::new(engine_config(1)).run_batch(&jobs);
    for workers in [1usize, 2, 8] {
        // Direct engine path.
        let requests: Vec<JobRequest> = jobs
            .iter()
            .zip(&classes)
            .map(|(job, qos)| JobRequest::with_qos(job.clone(), qos.clone()))
            .collect();
        let outcomes = BatchEngine::new(engine_config(workers)).run(&requests, None);
        for (i, (outcome, reference)) in outcomes.iter().zip(&reference).enumerate() {
            let result = outcome.result().expect("no abort was requested");
            for (a, b) in result.features().iter().zip(reference.features()) {
                assert_eq!(a.to_bits(), b.to_bits(), "engine path, job {i}, {workers} workers");
            }
        }
        // Service path: same jobs submitted with their classes.
        let service = service(workers, jobs.len());
        let tickets: Vec<_> = jobs
            .iter()
            .zip(&classes)
            .map(|(job, qos)| service.submit_with(job.clone(), qos.clone()).expect("accepting"))
            .collect();
        for (i, (ticket, reference)) in tickets.into_iter().zip(&reference).enumerate() {
            let (streamed, result) = ticket.collect();
            assert_eq!(streamed.len(), reference.slices.len(), "job {i}, {workers} workers");
            for (a, b) in result.features().iter().zip(reference.features()) {
                assert_eq!(a.to_bits(), b.to_bits(), "service path, job {i}, {workers} workers");
            }
        }
        let stats = service.engine().stats();
        assert_eq!(stats.served_interactive, 2, "{workers} workers");
        assert_eq!(stats.served_normal, 1, "{workers} workers");
        assert_eq!(stats.served_bulk, 1, "{workers} workers");
        service.shutdown();
    }
}

/// Starvation resistance: one Bulk job submitted behind a standing wall
/// of Interactive traffic still completes — long before the interactive
/// flood ends — because the queue's bounded bypass reaches the tail at
/// least every fifth pop.
#[test]
fn bulk_completes_under_sustained_interactive_load() {
    const FLOOD: usize = 30;
    let service = Arc::new(QtdaService::new(ServiceConfig {
        engine: engine_config(1),
        max_batch_size: 1, // every pop is a batch: pop order is visible
        max_linger: Duration::from_millis(1),
        queue_capacity: 4, // keeps the producer refilling the queue
    }));
    // Park interactive work in every queue slot first, so the bulk job
    // is always contended.
    let mut flood_tickets = Vec::new();
    for i in 0..4 {
        flood_tickets.push(
            service
                .submit_with(light_job(100 + i), QosPolicy::interactive())
                .expect("accepting the initial flood"),
        );
    }
    let bulk_ticket =
        service.submit_with(heavy_job(5), QosPolicy::bulk()).expect("accepting the bulk job");
    // A producer keeps the interactive pressure up from another thread.
    let submitted = Arc::new(AtomicUsize::new(4));
    let producer = {
        let service = Arc::clone(&service);
        let submitted = Arc::clone(&submitted);
        std::thread::spawn(move || {
            let mut tickets = Vec::new();
            for i in 0..FLOOD {
                match service.submit_with(light_job(200 + i as u64), QosPolicy::interactive()) {
                    Ok(ticket) => {
                        submitted.fetch_add(1, Ordering::SeqCst);
                        tickets.push(ticket);
                    }
                    Err(_) => break, // shutdown raced — fine
                }
            }
            tickets
        })
    };
    let bulk_result = bulk_ticket.wait();
    assert_eq!(bulk_result.slices.len(), heavy_job(5).epsilons.len());
    let interactive_pending = FLOOD + 4 - submitted.load(Ordering::SeqCst).min(FLOOD + 4);
    let _ = interactive_pending;
    assert!(
        submitted.load(Ordering::SeqCst) < FLOOD + 4,
        "the bulk job must complete while interactive load is still arriving \
         (producer had already submitted everything)"
    );
    let flood_rest = producer.join().expect("producer thread");
    for ticket in flood_tickets.into_iter().chain(flood_rest) {
        ticket.wait();
    }
    match Arc::try_unwrap(service) {
        Ok(service) => service.shutdown(),
        Err(_) => panic!("all ticket holders are done; the Arc must be unique"),
    }
}

/// Priority-aware lingering: an Interactive request closes its
/// micro-batch immediately, while a Normal request alone waits out
/// most of the (deliberately long) linger deadline — the adaptive
/// linger leaves a lone request 7/8 of it at this batch size.
#[test]
fn interactive_requests_close_micro_batches_early() {
    let max_linger = Duration::from_millis(1200);
    let serve = |qos: QosPolicy| -> Duration {
        let service = QtdaService::new(ServiceConfig {
            engine: engine_config(1),
            max_batch_size: 8,
            max_linger,
            queue_capacity: 16,
        });
        let start = Instant::now();
        let ticket = service.submit_with(light_job(6), qos).expect("accepting");
        ticket.wait();
        let elapsed = start.elapsed();
        service.shutdown();
        elapsed
    };
    let interactive = serve(QosPolicy::interactive());
    assert!(
        interactive < Duration::from_millis(600),
        "interactive must close the batch early: took {interactive:?} against {max_linger:?}"
    );
    let normal = serve(QosPolicy::normal());
    assert!(
        normal >= Duration::from_millis(900),
        "control: a lone Normal request should wait out most of the linger, took {normal:?}"
    );
    assert!(interactive < normal);
}

/// The ticket's cancellation token is shared: cancelling through a
/// clone (e.g. a watchdog) aborts the ticket exactly like
/// `Ticket::cancel`, even when the job was already finished computing —
/// cancellation is honoured at delivery.
#[test]
fn cancel_token_clone_aborts_even_a_finished_job() {
    let service = service(1, 1);
    let ticket = service.submit(light_job(8)).expect("accepting");
    let token = ticket.cancel_token();
    // Let the tiny job finish computing, then cancel before draining.
    std::thread::sleep(Duration::from_millis(150));
    token.cancel();
    match ticket.outcome() {
        TicketOutcome::Aborted(AbortReason::Cancelled) => {}
        other => panic!("expected Aborted(Cancelled) at delivery, got {other:?}"),
    }
    service.shutdown();
}

/// Empty-cloud sanity under QoS: priorities and deadlines on trivial
/// jobs neither wedge the queue nor change the trivial answers.
#[test]
fn trivial_jobs_flow_through_every_class() {
    let service = service(2, 4);
    let cloud = PointCloud::new(1, vec![0.0, 10.0]);
    let classes = [QosPolicy::interactive(), QosPolicy::normal(), QosPolicy::bulk()];
    let tickets: Vec<_> = classes
        .iter()
        .map(|qos| {
            service
                .submit_with(BettiJob::new(cloud.clone(), vec![0.5]), qos.clone())
                .expect("accepting")
        })
        .collect();
    for ticket in tickets {
        let result = ticket.wait();
        assert_eq!(result.slices[0].classical, vec![2, 0], "two isolated points");
    }
    let stats = service.stats();
    assert_eq!(
        (stats.submitted_interactive, stats.submitted_normal, stats.submitted_bulk),
        (1, 1, 1),
        "per-class submission counters"
    );
    service.shutdown();
}
