//! The observability contract of the serving stack:
//!
//! * Telemetry is **invisible in results**: a service publishing into a
//!   live registry with ticket tracing on, one over a disabled
//!   registry, and one with defaults all produce answers bit-identical
//!   to a plain `BatchEngine::run_batch` of the same jobs and seed.
//! * One registry snapshot exposes the whole stack — `qtda_service_*`
//!   counters matching `ServiceStats`, per-class request-latency
//!   histograms, queue-wait histograms, and the owned engine's
//!   `qtda_engine_*` families — in Prometheus text form.
//! * Ticket traces break the serving path into stages: `queue_wait`,
//!   `linger`, `delivery` from the service, `cache_probe` /
//!   `arena_build` / `solve` from the engine.
//! * The queue-depth gauge returns to exactly zero once the service
//!   drains.

use qtda_core::estimator::EstimatorConfig;
use qtda_engine::{BatchEngine, BettiJob, EngineConfig, JobResult};
use qtda_service::{MetricsRegistry, QtdaService, ServiceConfig, Telemetry, Ticket};
use qtda_tda::point_cloud::synthetic;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

const BATCH_SEED: u64 = 0xB5EED;

fn small_jobs() -> Vec<BettiJob> {
    let mut rng = StdRng::seed_from_u64(41);
    let mut jobs = vec![
        BettiJob::new(synthetic::circle(10, 1.0, 0.02, &mut rng), vec![0.5, 0.8]),
        BettiJob::new(synthetic::two_clusters(5, 4.0, 0.4, &mut rng), vec![1.0, 1.4]),
    ];
    for job in &mut jobs {
        job.estimator =
            EstimatorConfig { precision_qubits: 5, shots: 1500, ..EstimatorConfig::default() };
    }
    jobs
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        engine: EngineConfig { workers: 2, batch_seed: BATCH_SEED, cache_capacity: 4 },
        max_batch_size: 4,
        max_linger: Duration::from_millis(30),
        ..ServiceConfig::default()
    }
}

fn run_all(service: &QtdaService, jobs: &[BettiJob]) -> Vec<Arc<JobResult>> {
    let tickets: Vec<Ticket> =
        jobs.iter().map(|j| service.submit(j.clone()).expect("submit")).collect();
    tickets.into_iter().map(Ticket::wait).collect()
}

fn assert_bit_identical(results: &[Arc<JobResult>], reference: &[Arc<JobResult>], context: &str) {
    assert_eq!(results.len(), reference.len());
    for (got, want) in results.iter().zip(reference) {
        assert_eq!(got.fingerprint, want.fingerprint, "{context}: fingerprint");
        assert_eq!(got.job_seed, want.job_seed, "{context}: job seed");
        for (a, b) in got.features().iter().zip(want.features()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{context}: feature bits");
        }
    }
}

/// Telemetry observes; it never steers. Live registry + ticket traces,
/// disabled registry, and the default wiring all yield bit-identical
/// results — the pin that lets instrumentation ship inside the serving
/// path without a determinism caveat.
#[test]
fn telemetry_is_invisible_in_results() {
    let jobs = small_jobs();
    let reference = BatchEngine::new(service_config().engine).run_batch(&jobs);

    let plain = QtdaService::new(service_config());
    let got_plain = run_all(&plain, &jobs);
    plain.shutdown();
    assert_bit_identical(&got_plain, &reference, "default telemetry");

    let traced = QtdaService::with_telemetry(service_config(), Telemetry::with_ticket_traces());
    let got_traced = run_all(&traced, &jobs);
    traced.shutdown();
    assert_bit_identical(&got_traced, &reference, "live registry + traces");

    let disabled = QtdaService::with_telemetry(
        service_config(),
        Telemetry {
            registry: Arc::new(MetricsRegistry::disabled()),
            trace_tickets: false,
            events: None,
        },
    );
    let got_disabled = run_all(&disabled, &jobs);
    assert_bit_identical(&got_disabled, &reference, "disabled registry");
    // A disabled registry also reads all-zero stats — no partial
    // telemetry, and still the same answers.
    assert_eq!(disabled.stats().submitted, 0, "disabled registry counts nothing");
    disabled.shutdown();
}

/// One snapshot covers the stack: service counters agree with
/// `ServiceStats`, latency histograms carry per-class samples, the
/// engine's families are present, and the queue-depth gauge is back to
/// zero after the drain.
#[test]
fn registry_snapshot_exposes_service_and_engine_together() {
    let jobs = small_jobs();
    let service = QtdaService::with_telemetry(service_config(), Telemetry::default());
    let results = run_all(&service, &jobs);
    assert_eq!(results.len(), jobs.len());

    let stats = service.stats();
    let snap = service.registry().snapshot();
    assert_eq!(snap.counter_family("qtda_service_submitted_total"), stats.submitted);
    assert_eq!(snap.counter("qtda_service_completed_total"), stats.completed);
    assert_eq!(snap.counter("qtda_service_batches_formed_total"), stats.batches_formed);
    // The owned engine publishes into the same registry.
    assert_eq!(snap.counter("qtda_engine_jobs_served_total"), jobs.len() as u64);
    assert_eq!(snap.gauge("qtda_service_queue_depth"), 0, "drained queue reads zero depth");

    let exposition = snap.to_prometheus();
    assert!(
        exposition.contains("qtda_service_request_seconds_bucket{class=\"normal\",le=\"+Inf\"}"),
        "per-class latency histogram missing:\n{exposition}"
    );
    assert!(exposition.contains("qtda_service_queue_wait_seconds_count"));
    assert!(exposition.contains("qtda_engine_units_executed_total"));

    service.shutdown();
}

/// Every ticket's trace names the serving stages end to end. Compute
/// traffic shows the engine's arena build and solves; a repeat of the
/// same job is answered from the cache and must NOT record a solve.
#[cfg(feature = "obs")]
#[test]
fn ticket_traces_break_down_the_serving_path() {
    let jobs = small_jobs();
    let service = QtdaService::with_telemetry(service_config(), Telemetry::with_ticket_traces());

    let mut first = service.submit(jobs[0].clone()).expect("submit");
    while first.next_slice().is_some() {}
    let trace = first.trace().expect("tracing is on");
    for stage in ["queue_wait", "linger", "cache_probe", "arena_build", "solve", "delivery"] {
        assert!(
            trace.stage(stage).is_some(),
            "stage {stage} missing from trace:\n{}",
            trace.render()
        );
    }

    let repeat = service.submit(jobs[0].clone()).expect("submit repeat");
    let repeat = {
        let mut t = repeat;
        while t.next_slice().is_some() {}
        t
    };
    let trace = repeat.trace().expect("tracing is on");
    assert!(trace.stage("cache_probe").is_some(), "the probe itself is always traced");
    assert!(trace.stage("solve").is_none(), "a cache hit never solves:\n{}", trace.render());

    service.shutdown();
}

/// With tracing off (the default), tickets carry no trace at all — the
/// disabled tracer records nothing and snapshots to `None`.
#[test]
fn tracing_off_means_no_trace() {
    let jobs = small_jobs();
    let service = QtdaService::new(service_config());
    let mut ticket = service.submit(jobs[1].clone()).expect("submit");
    while ticket.next_slice().is_some() {}
    assert!(ticket.trace().is_none());
    service.shutdown();
}
