//! Streaming gearbox serving through `qtda-service`, with QoS.
//!
//! The paper's §5 workload as it actually arrives in production: a
//! producer thread submits sliding-window jobs one at a time (no
//! pre-assembled batch), the service gathers them into deadline
//! micro-batches over its `BatchEngine`, and the consumer prints each
//! window's per-ε slices **as they complete** — before the micro-batch,
//! let alone the whole stream, has finished. Mixed in: an
//! `Interactive` probe (closes its micro-batch early), a `Bulk`
//! re-analysis job (yields the queue, still completes), and a window
//! cancelled mid-stream (`Ticket::cancel` → `Aborted`, arena freed,
//! cache untouched). The whole run is live on the **ops surface**: a
//! scrape server bound on loopback answers `/metrics`, `/health`,
//! `/ready` and the flight-recorder dumps while the stream is in
//! flight (the example scrapes itself over real TCP to prove it), a
//! rolling window ticks in the background, and an SLO with fast/slow
//! burn-rate windows watches interactive latency. At the end: the
//! service's micro-batch shapes and abort counters, the engine's
//! cache/unit/QoS counters, per-ticket stage traces, the windowed p95
//! and SLO verdicts, the tail of the flight-recorder journal (including
//! the cancelled window's auto-captured submit→abort chain), and the
//! full Prometheus exposition — the submit → stream → cancel →
//! observe → shutdown lifecycle.
//!
//! Run with: `cargo run --release --example streaming_service`

use qtda::core::estimator::EstimatorConfig;
use qtda::data::gearbox::GearboxConfig;
use qtda::data::windows::sliding_window_stream;
use qtda::engine::{window_to_job, EngineConfig, GearboxJobSpec};
use qtda::service::{
    QosPolicy, QtdaService, RollingWindow, ServiceConfig, Slo, SloTracker, Telemetry,
    TicketOutcome, WindowConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    // 16 distinct windows arriving as a stream, ~1 ms apart.
    let mut rng = StdRng::seed_from_u64(7);
    let windows = sliding_window_stream(&GearboxConfig::default(), 8, 500, 250, &mut rng);
    let spec = GearboxJobSpec {
        estimator: EstimatorConfig { precision_qubits: 4, shots: 1000, ..Default::default() },
        ..GearboxJobSpec::default()
    };

    // Ticket tracing on, plus a flight recorder: every ticket carries a
    // per-stage wall-time breakdown, the service + engine publish into
    // one registry, and every submit/batch/unit/abort stamps a
    // structured event into a bounded journal.
    let mut telemetry = Telemetry::with_flight_recorder(1 << 12);
    telemetry.trace_tickets = true;
    let registry = Arc::clone(&telemetry.registry);
    let service = QtdaService::with_telemetry(
        ServiceConfig {
            engine: EngineConfig { batch_seed: 0xBA7C, ..Default::default() },
            max_batch_size: 8,
            max_linger: Duration::from_millis(4),
            queue_capacity: 64,
        },
        telemetry,
    );

    // The ops surface, live for the whole run: a scrape server on an
    // ephemeral loopback port, and a rolling window ticking every 25 ms
    // in the background so windowed rates/quantiles and SLO burn rates
    // are available while traffic is still flowing.
    let server = service.serve_ops("127.0.0.1:0").expect("bind ops server");
    println!("ops surface live on http://{}/metrics", server.local_addr());
    let window = Arc::new(RollingWindow::new(
        registry.clone(),
        WindowConfig { cadence: Duration::from_millis(25), slots: 400 },
    ));
    let driver = window.spawn();
    let mut slos = SloTracker::new(Arc::clone(&window), registry);
    slos.track(
        Slo::latency_quantile(
            "interactive-p95",
            "qtda_service_request_seconds",
            &[("class", "interactive")],
            0.95,
            0.1,
        )
        .with_windows(Duration::from_millis(100), Duration::from_secs(1)),
    );
    slos.track(Slo::event_ratio(
        "abort-ratio",
        "qtda_service_cancelled_total",
        "qtda_service_submitted_total",
        0.25,
    ));

    let start = Instant::now();
    // The steady stream arrives in the Normal class; every fourth
    // window is a Bulk backfill (it yields the queue but the bounded
    // bypass keeps it flowing).
    let tickets: Vec<_> = windows
        .iter()
        .enumerate()
        .map(|(i, w)| {
            std::thread::sleep(Duration::from_millis(1)); // arrival spacing
            let qos = if i % 4 == 3 { QosPolicy::bulk() } else { QosPolicy::normal() };
            service
                .submit_with(window_to_job(&w.samples, &spec), qos)
                .expect("service accepts while open")
        })
        .collect();
    // An interactive probe jumps the queue and closes its micro-batch
    // early instead of lingering for company.
    let probe = service
        .submit_with(window_to_job(&windows[0].samples, &spec), QosPolicy::interactive())
        .expect("service accepts while open");

    // The last window's consumer loses interest immediately and
    // cancels — pending units are skipped, any arena freed, and
    // nothing partial enters the cache.
    let cancel_index = windows.len() - 1;
    tickets[cancel_index].cancel();
    println!("window {cancel_index:2} cancelled right after submission");

    // Consume: slices stream per ticket as their units complete.
    let mut sample_trace = None;
    for (i, (window, mut ticket)) in windows.iter().zip(tickets).enumerate() {
        let label = if window.label == 0 { "healthy" } else { "fault  " };
        let mut first_slice_at = None;
        while let Some(slice) = ticket.next_slice() {
            first_slice_at.get_or_insert_with(|| start.elapsed());
            println!(
                "window {i:2} ({label}) ε-slice {} @ ε = {:.2}: β̃ = {:?}",
                slice.slice_index,
                slice.result.epsilon,
                slice.result.rounded(),
            );
        }
        if i == 0 {
            sample_trace = ticket.trace();
        }
        match ticket.outcome() {
            TicketOutcome::Completed(result) => println!(
                "window {i:2} ({label}) complete: {} slices, first streamed at {:.1?}",
                result.slices.len(),
                first_slice_at.expect("every job has slices"),
            ),
            TicketOutcome::Aborted(reason) => {
                println!("window {i:2} ({label}) aborted: {reason}")
            }
        }
    }
    let probe_trace = probe.trace();
    let probe_result = probe.wait();
    println!("interactive probe: {} slices (query-jumping class)", probe_result.slices.len());

    // Per-ticket stage breakdowns: where each request's latency went.
    if let Some(trace) = sample_trace {
        println!("\nwindow  0 stage trace:\n{}", trace.render());
    }
    if let Some(trace) = probe_trace {
        println!("interactive probe stage trace:\n{}", trace.render());
    }

    let stats = service.stats();
    println!(
        "\nservice: {} submitted ({} interactive / {} normal / {} bulk) over {} micro-batches \
         (mean {:.1}, largest {}), {} completed, {} cancelled, {} deadline-expired",
        stats.submitted,
        stats.submitted_interactive,
        stats.submitted_normal,
        stats.submitted_bulk,
        stats.batches_formed,
        stats.mean_batch_size(),
        stats.largest_batch,
        stats.completed,
        stats.cancelled,
        stats.deadline_expired,
    );
    let engine = service.engine().stats();
    println!(
        "engine : {} units over {} batches | cache {} hits / {} misses | {} computed",
        engine.units_executed,
        engine.batches_served,
        engine.cache_hits,
        engine.cache_misses,
        engine.computed_jobs,
    );
    println!(
        "qos    : served {} interactive / {} normal / {} bulk | {} units cancelled, \
         {} jobs cancelled, {} deadline-expired | {} arena bytes live after aborts",
        engine.served_interactive,
        engine.served_normal,
        engine.served_bulk,
        engine.units_cancelled,
        engine.jobs_cancelled,
        engine.jobs_deadline_expired,
        engine.arena_bytes_live,
    );

    // Windowed view + SLO verdicts: what a dashboard would show for
    // the last second of serving, evaluated from the ticking window.
    window.tick(); // fold the freshest delta in before reading
    let p95 = window.quantile(
        "qtda_service_request_seconds",
        &[("class", "interactive")],
        0.95,
        Duration::from_secs(1),
    );
    let rate = window.rate("qtda_service_submitted_total", Duration::from_secs(1));
    match p95 {
        Some(p95) => println!(
            "\nwindow : interactive p95 ≈ {:.1} ms over the last 1 s, {rate:.1} submits/s",
            p95 * 1e3
        ),
        None => println!("\nwindow : no interactive traffic in the last 1 s ({rate:.1} submits/s)"),
    }
    for status in slos.evaluate() {
        println!(
            "slo    : {:<16} {} (fast {:?}, slow {:?})",
            status.name,
            if status.firing { "FIRING" } else { "ok" },
            status.fast_value,
            status.slow_value,
        );
    }

    // The flight recorder joined every layer's stamps into one journal;
    // the cancelled window auto-captured its submit→abort chain.
    let recorder = service.flight_recorder().expect("recorder configured").clone();
    let journal = recorder.dump_jsonl();
    let events = journal.lines().count();
    println!("\n── flight recorder: last 5 of {events} events (JSONL) ──");
    for line in journal.lines().skip(events.saturating_sub(5)) {
        println!("{line}");
    }
    if let Some(abort) = recorder.last_abort_dump() {
        println!("── auto-captured abort chain (also at /abort.jsonl) ──");
        print!("{abort}");
    }
    // The same exposition every scraper sees — fetched over real TCP
    // from our own ops server, exactly as Prometheus would.
    println!("\n── GET /metrics (scraped over TCP) ──");
    print!("{}", scrape(&server, "/metrics"));

    // Shutdown drains anything still queued, then joins the batcher;
    // the ops server (still up) now answers 503 on /ready.
    drop(driver);
    service.shutdown();
    let ready = scrape_status(&server, "/ready");
    println!("after shutdown, GET /ready → {ready}");
    println!("shut down cleanly in {:.2?} total", start.elapsed());
}

/// Scrapes our own ops server over TCP, returning the response body.
fn scrape(server: &qtda::service::ScrapeServer, path: &str) -> String {
    let response = raw_get(server, path);
    response.split_once("\r\n\r\n").map(|(_, body)| body.to_string()).unwrap_or_default()
}

/// Like [`scrape`], but returns only the status line.
fn scrape_status(server: &qtda::service::ScrapeServer, path: &str) -> String {
    raw_get(server, path).lines().next().unwrap_or_default().to_string()
}

fn raw_get(server: &qtda::service::ScrapeServer, path: &str) -> String {
    let mut stream =
        std::net::TcpStream::connect(server.local_addr()).expect("connect to ops server");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: qtda\r\nConnection: close\r\n\r\n")
        .expect("send scrape");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read scrape");
    response
}
