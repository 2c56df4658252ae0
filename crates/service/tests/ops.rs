//! The ops-surface contract of the serving stack (PR 8 acceptance):
//!
//! * A live service is scrapeable over real TCP while serving traffic:
//!   `GET /metrics` returns well-formed Prometheus text (escaped
//!   labels and all), `/metrics.json` the same snapshot as JSON,
//!   `/health` stays 200, and `/ready` flips to 503 after shutdown —
//!   the probe outlives the service it watches.
//! * A rolling window over the service registry reports a p95 for
//!   `qtda_service_request_seconds{class=interactive}` that matches
//!   the trace of per-ticket latencies measured at the callsite, to
//!   within one histogram bucket width.
//! * An SLO on that family fires after an injected slow-solve
//!   regression breaches both burn-rate windows, surfaces as a
//!   `qtda_slo_firing` gauge in the same exposition, and clears at
//!   fast-window speed after recovery — fully deterministic (manual
//!   ticks are the clock; the test never sleeps).
//! * A cancelled ticket leaves a complete flight-recorder chain
//!   (`submit → cancel → abort`) joined by its ticket id, dumped as
//!   JSONL both on demand and automatically at the abort.
//! * A completed ticket's chain runs `submit → batch_formed →
//!   unit_done` through the same recorder.
//! * The full ops surface — live registry, ticket traces, flight
//!   recorder, background window driver, and a scraper hammering the
//!   HTTP endpoint mid-batch — never changes result bits.

use qtda_core::estimator::EstimatorConfig;
use qtda_engine::{BatchEngine, BettiJob, EngineConfig, JobResult};
use qtda_service::{
    EventKind, QosPolicy, QtdaService, RollingWindow, ServiceConfig, Slo, SloTracker, Telemetry,
    Ticket, TicketOutcome, WindowConfig, DEFAULT_LATENCY_BUCKETS,
};
use qtda_tda::point_cloud::synthetic;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCH_SEED: u64 = 0x0B5;

fn service_config() -> ServiceConfig {
    ServiceConfig {
        engine: EngineConfig {
            workers: 2,
            batch_seed: BATCH_SEED,
            cache_capacity: 8,
            ..EngineConfig::default()
        },
        max_batch_size: 4,
        max_linger: Duration::from_millis(5),
        ..ServiceConfig::default()
    }
}

/// A small job whose ε-grid varies with `tag`, so fingerprints differ
/// per submission and the cache does not collapse the whole trace.
fn job(tag: usize) -> BettiJob {
    let mut rng = StdRng::seed_from_u64(17 + tag as u64 % 3);
    let cloud = synthetic::circle(8, 1.0, 0.05, &mut rng);
    let mut job = BettiJob::new(cloud, vec![0.6 + 0.01 * (tag % 16) as f64]);
    job.estimator =
        EstimatorConfig { precision_qubits: 4, shots: 600, ..EstimatorConfig::default() };
    job
}

/// Minimal blocking HTTP/1.1 GET: returns `(status_line, body)`.
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to scrape server");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: qtda\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
    (head.lines().next().expect("status line").to_string(), body.to_string())
}

/// Every non-empty, non-comment exposition line must be
/// `name{optional labels} <float>` with a parseable value.
fn assert_valid_prometheus(body: &str) {
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("exposition line without value: {line:?}");
        });
        assert!(value.parse::<f64>().is_ok(), "unparseable sample value in line {line:?}");
        let name = name_part.split('{').next().unwrap();
        assert!(
            !name.is_empty()
                && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name in line {line:?}"
        );
        if let Some(rest) = name_part.split_once('{').map(|(_, r)| r) {
            assert!(rest.ends_with('}'), "unterminated label set in line {line:?}");
        }
    }
}

/// A live service under a deterministic Poisson-ish submission trace is
/// scrapeable over real TCP the whole time; `/ready` reports 503 once
/// the service shuts down, from a server that outlives it.
#[test]
fn live_service_is_scrapeable_over_tcp_under_load() {
    let telemetry = Telemetry::with_flight_recorder(1 << 12);
    let service = Arc::new(QtdaService::with_telemetry(service_config(), telemetry));
    let server = service.serve_ops("127.0.0.1:0").expect("bind scrape server");
    let addr = server.local_addr();

    // Producer: 24 submissions with LCG-derived inter-arrival gaps and
    // priority classes — a deterministic stand-in for Poisson traffic.
    let producer = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            let mut lcg: u64 = 0x9E3779B97F4A7C15;
            let mut tickets = Vec::new();
            for tag in 0..24 {
                lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let class = match lcg >> 61 {
                    0 | 1 => QosPolicy::interactive(),
                    2..=5 => QosPolicy::normal(),
                    _ => QosPolicy::bulk(),
                };
                tickets.push(service.submit_with(job(tag), class).expect("submit"));
                std::thread::sleep(Duration::from_micros((lcg >> 48) % 3000));
            }
            for ticket in tickets {
                let _ = ticket.outcome();
            }
        })
    };

    // Concurrent scrapers while the trace is in flight: every response
    // is a complete, well-formed exposition (each scrape serializes one
    // registry snapshot — never a torn mix of two).
    let scrapers: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                for _ in 0..10 {
                    let (status, body) = http_get(addr, "/metrics");
                    assert_eq!(status, "HTTP/1.1 200 OK");
                    assert_valid_prometheus(&body);
                    assert!(
                        body.contains("qtda_service_submitted_total"),
                        "service families present"
                    );
                }
            })
        })
        .collect();
    for scraper in scrapers {
        scraper.join().expect("scraper thread");
    }
    producer.join().expect("producer thread");

    // After the drain, the exposition carries the whole stack.
    let (status, body) = http_get(addr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_valid_prometheus(&body);
    for family in [
        "qtda_service_submitted_total",
        "qtda_service_request_seconds_bucket",
        "qtda_service_queue_depth",
        "qtda_engine_jobs_served_total",
    ] {
        assert!(body.contains(family), "missing family {family}");
    }
    let (status, json) = http_get(addr, "/metrics.json");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(json.trim_start().starts_with('{'), "JSON exposition");
    assert!(json.contains("qtda_service_submitted_total"), "JSON carries the same families");

    let (status, body) = http_get(addr, "/health");
    assert_eq!((status.as_str(), body.as_str()), ("HTTP/1.1 200 OK", "ok\n"));
    let (status, _) = http_get(addr, "/ready");
    assert_eq!(status, "HTTP/1.1 200 OK", "ready while serving");

    // Shut the service down; the probe holds its own handle, so the
    // still-running server now answers 503.
    Arc::try_unwrap(service).ok().expect("sole owner").shutdown();
    let (status, _) = http_get(addr, "/ready");
    assert_eq!(status, "HTTP/1.1 503 Service Unavailable", "not ready after shutdown");
    let (status, _) = http_get(addr, "/health");
    assert_eq!(status, "HTTP/1.1 200 OK", "health is liveness, not readiness");
}

/// The rolling window's interpolated p95 for
/// `qtda_service_request_seconds{class=interactive}` agrees with the
/// per-ticket latencies measured at the callsite, to within one bucket
/// width of the default latency buckets.
#[test]
fn window_p95_matches_measured_ticket_latencies_within_one_bucket() {
    let telemetry = Telemetry::default();
    let registry = Arc::clone(&telemetry.registry);
    let service = QtdaService::with_telemetry(service_config(), telemetry);
    // The window baseline must predate the traffic it will measure.
    let window =
        RollingWindow::new(registry, WindowConfig { cadence: Duration::from_secs(1), slots: 60 });

    let mut measured: Vec<f64> = Vec::new();
    for tag in 0..20 {
        let started = Instant::now();
        let ticket = service.submit_with(job(tag), QosPolicy::interactive()).expect("submit");
        let _ = ticket.wait();
        measured.push(started.elapsed().as_secs_f64());
    }
    window.tick();

    let p95 = window
        .quantile(
            "qtda_service_request_seconds",
            &[("class", "interactive")],
            0.95,
            Duration::from_secs(1),
        )
        .expect("interactive latency recorded in the window");

    measured.sort_by(f64::total_cmp);
    let truth = measured[(0.95f64 * measured.len() as f64).ceil() as usize - 1];
    // Histogram quantiles are exact only up to bucket resolution, and
    // callsite timing brackets (slightly exceeds) the service's own
    // accepted→delivered measurement — allow one bucket on either side
    // of the bucket holding the ground truth.
    let bounds = DEFAULT_LATENCY_BUCKETS;
    let idx = bounds.iter().position(|&b| truth <= b).unwrap_or(bounds.len() - 1);
    let lo = if idx == 0 { 0.0 } else { bounds[idx - 1] };
    let hi = bounds[(idx + 1).min(bounds.len() - 1)];
    assert!(
        (lo..=hi).contains(&p95),
        "window p95 {p95} outside [{lo}, {hi}] around measured p95 {truth}"
    );
    service.shutdown();
}

/// An SLO over the service's own latency family fires only after an
/// injected slow-solve regression has breached both burn-rate windows,
/// surfaces in the scrape exposition as a `qtda_slo_firing` gauge, and
/// clears at fast-window speed once healthy traffic resumes. The clock
/// is manual ticks — no sleeps, bit-for-bit repeatable.
#[test]
fn slo_fires_on_injected_slow_solves_and_clears_after_recovery() {
    let telemetry = Telemetry::default();
    let registry = Arc::clone(&telemetry.registry);
    let service = QtdaService::with_telemetry(service_config(), telemetry);
    // The same sharded cell the service records into: identical family,
    // labels, and buckets resolve to one histogram.
    let latency = registry.histogram_with(
        "qtda_service_request_seconds",
        &[("class", "interactive")],
        &DEFAULT_LATENCY_BUCKETS,
    );

    let window = Arc::new(RollingWindow::new(
        Arc::clone(&registry),
        WindowConfig { cadence: Duration::from_secs(1), slots: 6 },
    ));
    let mut tracker = SloTracker::new(Arc::clone(&window), Arc::clone(&registry));
    tracker.track(
        Slo::latency_quantile(
            "interactive-p95",
            "qtda_service_request_seconds",
            &[("class", "interactive")],
            0.95,
            0.1,
        )
        .with_windows(Duration::from_secs(1), Duration::from_secs(6)),
    );

    let healthy_tick = |n: usize| {
        for _ in 0..n {
            for _ in 0..100 {
                latency.observe(0.002);
            }
            window.tick();
        }
    };
    let slow_tick = || {
        for _ in 0..20 {
            latency.observe(0.4);
        }
        window.tick();
    };

    healthy_tick(4);
    let status = &tracker.evaluate()[0];
    assert!(!status.firing, "healthy traffic never fires");

    // Injected slow solves: one bad tick breaches the fast window only.
    slow_tick();
    let status = &tracker.evaluate()[0];
    assert!(status.fast_breached && !status.slow_breached && !status.firing);

    // A second bad tick tips the slow window too — the alert fires and
    // shows up in the same exposition every scraper reads.
    slow_tick();
    let status = &tracker.evaluate()[0];
    assert!(status.firing, "sustained regression fires");
    let exposition = registry.snapshot().to_prometheus();
    assert!(
        exposition.contains("qtda_slo_firing{slo=\"interactive-p95\"} 1"),
        "firing gauge in exposition:\n{exposition}"
    );

    // Recovery: one healthy tick clears the fast window and the alert.
    healthy_tick(1);
    let status = &tracker.evaluate()[0];
    assert!(!status.firing, "alert clears at fast-window speed");
    assert!(status.slow_breached, "the slow window still remembers the incident");
    assert!(registry
        .snapshot()
        .to_prometheus()
        .contains("qtda_slo_firing{slo=\"interactive-p95\"} 0"));
    service.shutdown();
}

/// A ticket cancelled before the batcher reaches it leaves a complete
/// journal chain — submit, cancel, abort — joined by its ticket id,
/// available as JSONL on demand, via the auto-captured abort dump, and
/// over HTTP.
#[test]
fn cancelled_ticket_leaves_a_full_flight_record() {
    let service =
        QtdaService::with_telemetry(service_config(), Telemetry::with_flight_recorder(1 << 10));
    let server = service.serve_ops("127.0.0.1:0").expect("bind scrape server");

    let qos = QosPolicy::interactive();
    qos.cancel_token().cancel(); // dead on arrival — deterministically aborted
    let ticket = service.submit_with(job(0), qos).expect("submit");
    let id = ticket.id();
    assert!(id >= 1, "service ticket ids start at 1");
    match ticket.outcome() {
        TicketOutcome::Aborted(_) => {}
        TicketOutcome::Completed(_) => panic!("a pre-cancelled ticket cannot complete"),
    }

    let recorder = service.flight_recorder().expect("recorder configured").clone();
    let chain = recorder.events_for_ticket(id);
    let kinds: Vec<EventKind> = chain.iter().map(|e| e.kind).collect();
    assert_eq!(kinds.first(), Some(&EventKind::Submit), "chain starts at submission");
    assert!(kinds.contains(&EventKind::Cancel), "cancellation stamped: {kinds:?}");
    assert_eq!(kinds.last(), Some(&EventKind::Abort), "chain ends at the abort");

    // The abort auto-captured its chain; both dumps carry the full
    // submit→abort story for this ticket, as line-delimited JSON.
    let auto = recorder.last_abort_dump().expect("abort auto-captures a dump");
    for needle in ["\"kind\":\"submit\"", "\"kind\":\"cancel\"", "\"kind\":\"abort\""] {
        assert!(auto.contains(needle), "auto dump misses {needle}:\n{auto}");
    }
    assert!(auto.contains(&format!("\"ticket\":{id}")));
    assert_eq!(auto, recorder.dump_ticket_jsonl(id), "auto dump is the ticket's chain");

    let (status, body) = http_get(server.local_addr(), "/abort.jsonl");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(body, auto, "HTTP serves the captured abort dump");
    let (status, body) = http_get(server.local_addr(), "/events.jsonl");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("\"kind\":\"submit\""), "journal dump over HTTP");
    service.shutdown();
}

/// A completed ticket's journal chains its whole path through the
/// engine — accepted, batched, estimation units done — joined on its
/// ticket id, and the ticket's JSONL dump carries the same chain.
#[test]
fn completed_ticket_journal_chains_submit_batch_and_unit_done() {
    let service =
        QtdaService::with_telemetry(service_config(), Telemetry::with_flight_recorder(1 << 12));
    let tickets: Vec<Ticket> =
        (0..6).map(|tag| service.submit(job(tag)).expect("submit")).collect();
    let probe_id = tickets[0].id();
    for ticket in tickets {
        assert!(matches!(ticket.outcome(), TicketOutcome::Completed(_)));
    }

    let recorder = service.flight_recorder().expect("recorder configured").clone();
    let kinds: Vec<EventKind> =
        recorder.events_for_ticket(probe_id).iter().map(|e| e.kind).collect();
    assert_eq!(kinds.first(), Some(&EventKind::Submit), "chain starts at submission");
    let batched = kinds
        .iter()
        .position(|&k| k == EventKind::BatchFormed)
        .expect("micro-batch formation journalled");
    let unit =
        kinds.iter().rposition(|&k| k == EventKind::UnitDone).expect("estimation units journalled");
    assert!(batched < unit, "batching precedes the unit work it dispatched: {kinds:?}");
    let dump = recorder.dump_ticket_jsonl(probe_id);
    assert!(dump.contains("\"kind\":\"unit_done\""), "unit_done in the ticket's JSONL: {dump}");
    service.shutdown();
}

/// The determinism pin, extended to the full ops surface: live
/// registry, ticket traces, flight recorder, a background window
/// driver, and a scraper hammering `/metrics` mid-batch — results stay
/// bit-identical to a bare engine run of the same jobs and seed.
#[test]
fn full_ops_surface_never_changes_result_bits() {
    let jobs: Vec<BettiJob> = (0..6).map(job).collect();
    let reference: Vec<Arc<JobResult>> = BatchEngine::new(service_config().engine).run_batch(&jobs);

    let mut telemetry = Telemetry::with_flight_recorder(1 << 12);
    telemetry.trace_tickets = true;
    let registry = Arc::clone(&telemetry.registry);
    let service = QtdaService::with_telemetry(service_config(), telemetry);
    let server = service.serve_ops("127.0.0.1:0").expect("bind scrape server");
    let addr = server.local_addr();
    let window = Arc::new(RollingWindow::new(
        registry,
        WindowConfig { cadence: Duration::from_millis(2), slots: 32 },
    ));
    let driver = window.spawn();

    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let (status, _) = http_get(addr, "/metrics");
                assert_eq!(status, "HTTP/1.1 200 OK");
            }
        })
    };

    let tickets: Vec<Ticket> =
        jobs.iter().map(|j| service.submit(j.clone()).expect("submit")).collect();
    let results: Vec<Arc<JobResult>> = tickets.into_iter().map(Ticket::wait).collect();

    stop.store(true, Ordering::Relaxed);
    scraper.join().expect("scraper thread");
    drop(driver);
    service.shutdown();

    for (got, want) in results.iter().zip(&reference) {
        assert_eq!(got.fingerprint, want.fingerprint, "fingerprint");
        assert_eq!(got.job_seed, want.job_seed, "job seed");
        for (a, b) in got.features().iter().zip(want.features()) {
            assert_eq!(a.to_bits(), b.to_bits(), "feature bits under full ops surface");
        }
    }
}
