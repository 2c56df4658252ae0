//! Admission control: a malformed job is refused at `submit` with a
//! typed [`SubmitError::Invalid`] and never reaches the batcher, so it
//! cannot hurt the jobs around it.
//!
//! * A persistence job with a descending ε-grid, submitted between two
//!   healthy jobs, is refused; both neighbours complete bit-identical
//!   to `run_batch`, `/ready` stays up, and the service keeps
//!   accepting work.
//! * A NaN coordinate is refused by `try_submit` too. The error hands
//!   the job back, names its cause in `Display` and in the rejected
//!   journal chain, and its `Debug` form summarises the job instead of
//!   printing every coordinate.

use qtda_core::estimator::EstimatorConfig;
use qtda_engine::{BatchEngine, BettiJob, EngineConfig};
use qtda_service::{
    EventKind, JobError, QtdaService, ServiceConfig, SubmitError, Telemetry, TicketOutcome,
};
use qtda_tda::point_cloud::{synthetic, PointCloud};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn service_config() -> ServiceConfig {
    ServiceConfig {
        engine: EngineConfig { workers: 2, batch_seed: 0xAD17, ..EngineConfig::default() },
        max_batch_size: 4,
        max_linger: Duration::from_millis(5),
        ..ServiceConfig::default()
    }
}

fn circle_job(seed: u64, epsilons: Vec<f64>) -> BettiJob {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut job = BettiJob::new(synthetic::circle(10, 1.0, 0.03, &mut rng), epsilons);
    job.estimator =
        EstimatorConfig { precision_qubits: 4, shots: 800, ..EstimatorConfig::default() };
    job
}

#[test]
fn invalid_job_is_refused_and_its_neighbours_complete() {
    let healthy =
        [circle_job(1, vec![0.4, 0.7, 1.0]).with_persistence(), circle_job(2, vec![0.6, 1.1])];
    let invalid = circle_job(3, vec![0.9, 0.6]).with_persistence();
    let reference = BatchEngine::new(service_config().engine).run_batch(&healthy);

    let service = QtdaService::new(service_config());
    let first = service.submit(healthy[0].clone()).expect("healthy job accepted");
    let Err(err) = service.submit(invalid.clone()) else {
        panic!("a descending persistence grid must be refused");
    };
    assert!(matches!(err, SubmitError::Invalid(_, JobError::DescendingGrid)), "{err:?}");
    assert!(err.into_job().same_request(&invalid), "the refused job is handed back");
    let second = service.submit(healthy[1].clone()).expect("service still accepts");

    for (i, (ticket, want)) in [first, second].into_iter().zip(&reference).enumerate() {
        match ticket.outcome() {
            TicketOutcome::Completed(got) => {
                // `{:?}` prints every float in shortest round-trip form,
                // so equal strings mean equal bits (no NaNs are served).
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "neighbour {i}");
            }
            TicketOutcome::Aborted(reason) => panic!("neighbour {i} aborted: {reason:?}"),
        }
    }
    assert!(service.is_ready(), "a refused job leaves the service ready");
    service.shutdown();
}

#[test]
fn non_finite_job_is_refused_with_its_cause() {
    let service =
        QtdaService::with_telemetry(service_config(), Telemetry::with_flight_recorder(1 << 10));
    let mut coords = vec![0.0; 2 * 40];
    coords[2 * 7 + 1] = f64::NAN;
    let invalid = BettiJob::new(PointCloud::new(2, coords), vec![0.5, 1.0]);

    let Err(err) = service.try_submit(invalid.clone()) else {
        panic!("a NaN coordinate must be refused");
    };
    let SubmitError::Invalid(_, cause) = &err else { panic!("{err:?}") };
    assert_eq!(*cause, JobError::NonFiniteCoordinate { point: 7 });
    let cause = cause.to_string();
    assert!(err.to_string().contains(&cause), "Display names the cause: {err}");
    let debug = format!("{err:?}");
    assert!(debug.contains("points: 40") && debug.contains("NonFiniteCoordinate"), "{debug}");
    assert!(debug.len() < 200, "Debug summarises the job: {debug}");

    // The refusal closes the ticket's journal chain, cause attached.
    // Ticket ids start at 1 and this is the service's first submission.
    let recorder = service.flight_recorder().expect("recorder configured").clone();
    let chain = recorder.events_for_ticket(1);
    let kinds: Vec<EventKind> = chain.iter().map(|e| e.kind).collect();
    assert_eq!(kinds, [EventKind::Submit, EventKind::Cancel, EventKind::Abort]);
    assert!(chain[1].detail.contains(&cause), "journal carries the cause: {}", chain[1].detail);
    assert!(err.into_job().same_request(&invalid));

    let ticket = service.try_submit(circle_job(4, vec![0.8])).expect("service still accepts");
    assert!(matches!(ticket.outcome(), TicketOutcome::Completed(_)));
    assert!(service.is_ready());
    service.shutdown();
}
