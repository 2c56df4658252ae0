//! The long-lived streaming service: submit from many threads, get
//! tickets, stream slices, cancel what you stop caring about.
//!
//! One background **batcher** thread owns the serving loop:
//!
//! 1. Block for the first queued request (the submission queue serves
//!    priority classes with a bounded starvation bypass — see
//!    [`crate::queue`]). A request cancelled while queued is aborted
//!    right here — its ticket gets the terminal `Aborted` event and it
//!    never occupies a micro-batch slot. A deadline-expired request
//!    still enters its batch: the engine skips its units at the first
//!    boundary check, but a ready cache hit is delivered for free
//!    (best-effort deadlines never discard ready answers).
//! 2. **Linger**: keep gathering requests until the micro-batch reaches
//!    [`ServiceConfig::max_batch_size`] or the first request has waited
//!    out the linger deadline — the classic (size, deadline)
//!    micro-batching policy, made **priority-aware**: the moment the
//!    batch holds (or the queue offers) an [`Priority::Interactive`]
//!    request, the linger collapses to zero and the batch closes early.
//!    Lingering exists to gather company for throughput; an interactive
//!    request is paying latency for it. Shutdown also cuts a linger
//!    short.
//! 3. Hand the micro-batch to the engine's streaming QoS entry point;
//!    every completed `(job, ε)` slice is forwarded to its ticket the
//!    moment the engine announces it, aborts forward as terminal
//!    `Aborted` events, and the assembled outcomes follow.
//!
//! Batching amortises exactly what [`BatchEngine`] amortises (in-batch
//! dedup, parallel `(job, ε, dim)` scheduling), and because every seed
//! is content-derived, *how* requests get grouped into micro-batches —
//! and in which priority order their units run — is unobservable in
//! completed results: a job's answer is bit-identical whether it
//! lingered into a 16-job batch or ran alone, at any worker count. The
//! QoS test suite pins this across 1/2/8 workers.

use crate::queue::{Request, SubmissionQueue, SubmitError};
use crate::stats::{Counters, ServiceStats};
use crate::ticket::{StreamedSlice, Ticket, TicketEvent};
use qtda_engine::{
    BatchEngine, BettiJob, EngineConfig, EventKind, FlightRecorder, JobOutcome, JobRequest,
    MetricsRegistry, Priority, QosPolicy, SliceEvent, Tracer,
};
use qtda_obs::{OpsState, ScrapeServer};
use std::net::ToSocketAddrs;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Records a completed stage on a per-ticket trace. Compiled out
/// entirely without the `obs` feature; results are bit-identical either
/// way (pinned in `tests/obs.rs`) — telemetry observes wall time, never
/// seeds or scheduling.
#[cfg(feature = "obs")]
fn record_stage(trace: &Tracer, name: &str, start: Instant, end: Instant) {
    trace.record_span(name, start, end);
}

#[cfg(not(feature = "obs"))]
fn record_stage(_trace: &Tracer, _name: &str, _start: Instant, _end: Instant) {}

/// Stamps one flight-recorder event for a request (ticket id and job
/// fingerprint are taken from the request itself). Both the detail
/// closure and the fingerprint hash run only against a live recorder;
/// with the `obs` feature off the whole call compiles away.
#[cfg(feature = "obs")]
fn record_request_event(
    recorder: &FlightRecorder,
    kind: EventKind,
    request: &Request,
    detail: impl FnOnce() -> String,
) {
    if recorder.is_enabled() {
        recorder.record(kind, request.ticket, request.job.fingerprint(), detail());
    }
}

#[cfg(not(feature = "obs"))]
fn record_request_event(
    _recorder: &FlightRecorder,
    _kind: EventKind,
    _request: &Request,
    _detail: impl FnOnce() -> String,
) {
}

/// Pre-computes the `(ticket, fingerprint, detail)` of a `Submit` event
/// while the request is still borrowable — the stamp itself happens
/// only after the queue push succeeds. `None` whenever the recorder is
/// disabled (or the `obs` feature is off), so the fingerprint hash is
/// never paid for an unobserved submission.
#[cfg(feature = "obs")]
fn prepared_submit_event(
    recorder: &FlightRecorder,
    request: &Request,
) -> Option<(u64, u64, String)> {
    if recorder.is_enabled() {
        let detail = format!("class={}", class_label(request.qos.priority));
        Some((request.ticket, request.job.fingerprint(), detail))
    } else {
        None
    }
}

#[cfg(not(feature = "obs"))]
fn prepared_submit_event(
    _recorder: &FlightRecorder,
    _request: &Request,
) -> Option<(u64, u64, String)> {
    None
}

/// Stamps `BatchFormed` for every member of a freshly closed
/// micro-batch (detail carries the batch size).
#[cfg(feature = "obs")]
fn record_batch_formed(recorder: &FlightRecorder, batch: &[(Request, Instant)]) {
    if recorder.is_enabled() {
        let size = batch.len();
        for (request, _) in batch {
            recorder.record(
                EventKind::BatchFormed,
                request.ticket,
                request.job.fingerprint(),
                format!("size={size}"),
            );
        }
    }
}

#[cfg(not(feature = "obs"))]
fn record_batch_formed(_recorder: &FlightRecorder, _batch: &[(Request, Instant)]) {}

/// The lowercase class label used in event details and metric labels.
#[cfg(feature = "obs")]
fn class_label(priority: Priority) -> &'static str {
    match priority {
        Priority::Interactive => "interactive",
        Priority::Normal => "normal",
        Priority::Bulk => "bulk",
    }
}

/// Streaming front-end parameters.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// The owned engine's configuration (workers, batch seed, cache,
    /// dispatch policy). Worker count shapes only throughput, never
    /// results.
    pub engine: EngineConfig,
    /// Most jobs a micro-batch may gather before it must run.
    pub max_batch_size: usize,
    /// Longest the *first* request of a micro-batch may wait for
    /// company before the batch runs regardless of size.
    pub max_linger: Duration,
    /// Bounded submission-queue capacity (shared across priority
    /// classes); beyond it `try_submit` returns
    /// [`SubmitError::Overloaded`] and `submit` blocks.
    pub queue_capacity: usize,
    /// Shrink the linger deadline toward zero as the backlog (gathered
    /// batch + queued submissions) approaches the batch size: lingering
    /// exists to gather company for *sparse* traffic, so when the
    /// batcher is already behind, waiting out the full deadline only
    /// adds latency while the engine idles. At a backlog of `b` the
    /// effective linger is `max_linger · (1 − b/max_batch_size)` —
    /// zero once the batch can fill. Never affects results (micro-batch
    /// grouping is unobservable; seeds are content-derived), only
    /// latency.
    pub adaptive_linger: bool,
    /// Starvation guard for the priority queue: after this many
    /// consecutive pops that bypassed a waiting lower class, the next
    /// pop serves the **oldest** passed-over request instead, so Bulk
    /// (and Normal) work keeps flowing under sustained higher-class
    /// load. Must be ≥ 1.
    pub priority_bypass: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            engine: EngineConfig::default(),
            max_batch_size: 16,
            max_linger: Duration::from_millis(2),
            queue_capacity: 256,
            adaptive_linger: true,
            priority_bypass: 4,
        }
    }
}

/// How a service publishes telemetry: where its metrics land, and
/// whether tickets carry per-stage traces.
///
/// Deliberately separate from [`ServiceConfig`] (which stays `Copy` and
/// describes *serving policy*): telemetry is about observation, and the
/// registry is a shared handle. Telemetry never changes results — the
/// determinism suites run identically with it on, off, or disabled.
#[derive(Clone, Debug)]
pub struct Telemetry {
    /// The registry every `qtda_service_*` metric — and, via the owned
    /// engine, every `qtda_engine_*` metric — registers into. Share one
    /// registry across services to aggregate their exposition; pass
    /// `Arc::new(MetricsRegistry::disabled())` to turn every metric
    /// write into a no-op.
    pub registry: Arc<MetricsRegistry>,
    /// When `true`, every ticket carries a live tracer and
    /// [`Ticket::trace`] reports per-stage wall times (`queue_wait`,
    /// `linger`, `delivery` from the service; `cache_probe`,
    /// `arena_build`, `solve` from the engine — spans require the `obs`
    /// feature, on by default). Off by default: tracing allocates per
    /// request.
    pub trace_tickets: bool,
    /// A flight recorder for the structured event journal (`Submit`,
    /// `BatchFormed`, `UnitDone`, `CacheHit`, `Cancel`,
    /// `DeadlineExpired`, `Abort`). `None` (the default) records
    /// nothing at zero cost; pass `Some(Arc::new(FlightRecorder::new(
    /// capacity)))` — or use [`Telemetry::with_flight_recorder`] — and
    /// both the service and its engine stamp into the same bounded
    /// ring, dumpable as JSONL (see [`QtdaService::serve_ops`] and
    /// [`FlightRecorder::dump_jsonl`]). Recording never changes result
    /// bits.
    pub events: Option<Arc<FlightRecorder>>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry { registry: Arc::new(MetricsRegistry::new()), trace_tickets: false, events: None }
    }
}

impl Telemetry {
    /// Telemetry with ticket tracing on (fresh live registry).
    pub fn with_ticket_traces() -> Self {
        Telemetry { trace_tickets: true, ..Telemetry::default() }
    }

    /// Telemetry with a flight recorder holding up to `capacity` events
    /// (fresh live registry, no ticket traces).
    pub fn with_flight_recorder(capacity: usize) -> Self {
        Telemetry { events: Some(Arc::new(FlightRecorder::new(capacity))), ..Telemetry::default() }
    }
}

/// Liveness/readiness flags shared between a service and any ops
/// servers it spawned: the probe closure holds its own `Arc`, so
/// `/ready` keeps answering (503) even after the service itself has
/// been shut down and dropped.
#[derive(Debug)]
struct ServiceHealth {
    /// Cleared when shutdown begins — the queue stops accepting.
    accepting: AtomicBool,
    /// Cleared when the batcher thread exits, normally or by unwind.
    batcher_alive: AtomicBool,
}

impl ServiceHealth {
    fn new() -> Self {
        ServiceHealth { accepting: AtomicBool::new(true), batcher_alive: AtomicBool::new(true) }
    }

    fn is_ready(&self) -> bool {
        self.accepting.load(Ordering::Relaxed) && self.batcher_alive.load(Ordering::Relaxed)
    }
}

/// The streaming Betti-serving service: one [`BatchEngine`] behind a
/// bounded three-class priority queue and a deadline micro-batcher,
/// returning a [`Ticket`] per submission.
pub struct QtdaService {
    engine: Arc<BatchEngine>,
    queue: Arc<SubmissionQueue>,
    counters: Arc<Counters>,
    registry: Arc<MetricsRegistry>,
    trace_tickets: bool,
    events: Option<Arc<FlightRecorder>>,
    health: Arc<ServiceHealth>,
    next_ticket: AtomicU64,
    batcher: Option<JoinHandle<()>>,
}

impl QtdaService {
    /// Starts a service (and its batcher thread) with the given
    /// configuration and default [`Telemetry`] (own live registry, no
    /// ticket traces).
    pub fn new(config: ServiceConfig) -> Self {
        Self::with_telemetry(config, Telemetry::default())
    }

    /// Starts a service publishing into the given [`Telemetry`] — the
    /// owned engine registers its `qtda_engine_*` metrics into the same
    /// registry, so one
    /// [`registry().snapshot()`](MetricsRegistry::snapshot) exposes the
    /// whole serving stack.
    pub fn with_telemetry(config: ServiceConfig, telemetry: Telemetry) -> Self {
        assert!(config.max_batch_size >= 1, "micro-batches need at least one job");
        let registry = telemetry.registry;
        let events = telemetry.events;
        let engine = Arc::new(BatchEngine::with_observability(
            config.engine,
            Arc::clone(&registry),
            events.clone(),
        ));
        let queue = Arc::new(SubmissionQueue::with_depth_gauge(
            config.queue_capacity,
            config.priority_bypass,
            registry.gauge("qtda_service_queue_depth"),
        ));
        let counters = Arc::new(Counters::register(&registry));
        let health = Arc::new(ServiceHealth::new());
        let batcher = {
            let engine = Arc::clone(&engine);
            let queue = Arc::clone(&queue);
            let counters = Arc::clone(&counters);
            let health = Arc::clone(&health);
            std::thread::Builder::new()
                .name("qtda-service-batcher".into())
                .spawn(move || batcher_loop(&engine, &queue, &counters, &health, config))
                .expect("spawning the batcher thread")
        };
        QtdaService {
            engine,
            queue,
            counters,
            registry,
            trace_tickets: telemetry.trace_tickets,
            events,
            health,
            next_ticket: AtomicU64::new(0),
            batcher: Some(batcher),
        }
    }

    /// A service with [`ServiceConfig::default`].
    pub fn with_defaults() -> Self {
        Self::new(ServiceConfig::default())
    }

    /// Submits a job under the default QoS (Normal class, no deadline),
    /// blocking while the queue is full (backpressure by waiting).
    /// Fails during shutdown, or with [`SubmitError::Invalid`] when the
    /// job fails [`BettiJob::validate`].
    pub fn submit(&self, job: BettiJob) -> Result<Ticket, SubmitError> {
        self.submit_with(job, QosPolicy::default())
    }

    /// Submits a job under an explicit [`QosPolicy`] — priority class,
    /// optional deadline, cancellation (also reachable later through
    /// [`Ticket::cancel`]). Blocks while the queue is full.
    pub fn submit_with(&self, job: BettiJob, qos: QosPolicy) -> Result<Ticket, SubmitError> {
        let (request, ticket) = self.make_request(job, qos);
        let priority = request.qos.priority;
        let submit_event = prepared_submit_event(self.engine.recorder(), &request);
        let journal_key = submit_event.as_ref().map(|(t, f, _)| (*t, *f));
        self.stamp_submit(submit_event);
        let request = self.admit(request, journal_key)?;
        if let Err(err) = self.queue.push_blocking(request) {
            self.stamp_rejected(journal_key, "shutting-down");
            return Err(err);
        }
        self.counters.record_submit(priority);
        Ok(ticket)
    }

    /// Submits without blocking: [`SubmitError::Overloaded`] hands the
    /// job straight back when the bounded queue is full — the caller
    /// decides whether to retry, shed, or block via [`Self::submit`].
    pub fn try_submit(&self, job: BettiJob) -> Result<Ticket, SubmitError> {
        self.try_submit_with(job, QosPolicy::default())
    }

    /// [`Self::submit_with`] without blocking.
    pub fn try_submit_with(&self, job: BettiJob, qos: QosPolicy) -> Result<Ticket, SubmitError> {
        let (request, ticket) = self.make_request(job, qos);
        let priority = request.qos.priority;
        let submit_event = prepared_submit_event(self.engine.recorder(), &request);
        let journal_key = submit_event.as_ref().map(|(t, f, _)| (*t, *f));
        self.stamp_submit(submit_event);
        let request = self.admit(request, journal_key)?;
        match self.queue.try_push(request) {
            Ok(()) => {
                self.counters.record_submit(priority);
                Ok(ticket)
            }
            Err(err) => {
                let reason = if matches!(err, SubmitError::Overloaded(_)) {
                    self.counters.rejected_overloaded.inc();
                    "overloaded"
                } else {
                    "shutting-down"
                };
                self.stamp_rejected(journal_key, reason);
                Err(err)
            }
        }
    }

    /// Refuses a request whose job fails [`BettiJob::validate`] before
    /// it can reach the queue, closing its journal chain with the cause.
    fn admit(
        &self,
        request: Request,
        journal_key: Option<(u64, u64)>,
    ) -> Result<Request, SubmitError> {
        match request.job.validate() {
            Ok(()) => Ok(request),
            Err(cause) => {
                self.stamp_rejected(journal_key, &format!("invalid cause=\"{cause}\""));
                Err(SubmitError::Invalid(Box::new(request.job), cause))
            }
        }
    }

    /// Stamps a `Submit` event prepared *before* the request was moved
    /// into the queue. The stamp happens **before** the push: once the
    /// request is queued, the batcher may pop (and abort) it at any
    /// moment, and a ticket's journal chain must still start at its
    /// submission. A push the queue then refuses is closed out by
    /// [`Self::stamp_rejected`].
    fn stamp_submit(&self, event: Option<(u64, u64, String)>) {
        if let Some((ticket, fingerprint, detail)) = event {
            self.engine.recorder().record(EventKind::Submit, ticket, fingerprint, detail);
        }
    }

    /// Terminates the journal chain of a submission the queue refused —
    /// the push never succeeded, so no batcher or engine event will
    /// ever follow for this ticket. `key` is `None` whenever the
    /// recorder is disabled (no `Submit` was stamped either).
    fn stamp_rejected(&self, key: Option<(u64, u64)>, reason: &str) {
        if let Some((ticket, fingerprint)) = key {
            let recorder = self.engine.recorder();
            recorder.record(
                EventKind::Cancel,
                ticket,
                fingerprint,
                format!("at=admission reason={reason}"),
            );
            recorder.record(EventKind::Abort, ticket, fingerprint, "reason=rejected".to_string());
        }
    }

    fn make_request(&self, job: BettiJob, qos: QosPolicy) -> (Request, Ticket) {
        let (tx, rx) = channel();
        let cancel = qos.cancel_token();
        let trace = if self.trace_tickets { Tracer::new() } else { Tracer::disabled() };
        // Ticket ids start at 1: id 0 is the engine's "no ticket"
        // sentinel for jobs submitted through the raw batch API.
        let id = self.next_ticket.fetch_add(1, Ordering::Relaxed) + 1;
        let request =
            Request { job, qos, tx, accepted_at: Instant::now(), trace: trace.clone(), ticket: id };
        (request, Ticket { rx, outcome: None, cancel, trace, id })
    }

    /// The engine behind the service (for its cache/dedup/unit/QoS
    /// counters; the engine's cache persists across micro-batches).
    pub fn engine(&self) -> &BatchEngine {
        &self.engine
    }

    /// The metrics registry behind this service and its engine. Call
    /// [`snapshot()`](MetricsRegistry::snapshot) for a mergeable
    /// point-in-time view with Prometheus text and JSON exposition of
    /// every `qtda_service_*` and `qtda_engine_*` metric.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The flight recorder this service (and its engine) stamp events
    /// into, when [`Telemetry::events`] configured one.
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.events.as_ref()
    }

    /// `true` while the service accepts submissions and its batcher
    /// thread is alive — exactly what an ops server's `/ready`
    /// endpoint reports.
    pub fn is_ready(&self) -> bool {
        self.health.is_ready()
    }

    /// Binds a [`ScrapeServer`] on `addr` (use port 0 for an ephemeral
    /// port; see [`ScrapeServer::local_addr`]) exposing this service's
    /// whole stack over plain HTTP/1.1:
    ///
    /// * `GET /metrics` — Prometheus text exposition of every
    ///   `qtda_service_*` and `qtda_engine_*` metric,
    /// * `GET /metrics.json` — the same snapshot as JSON,
    /// * `GET /health` — `200 ok` while the process is up,
    /// * `GET /ready` — `200` while accepting and batching, `503` after
    ///   shutdown or a batcher death (the probe holds its own handle
    ///   and outlives the service),
    /// * `GET /events.jsonl` / `GET /abort.jsonl` — flight-recorder
    ///   dumps, when [`Telemetry::events`] configured a recorder.
    ///
    /// The returned server owns one background accept thread; drop it
    /// (or call [`ScrapeServer::shutdown`]) to stop serving. Serving
    /// scrapes never perturbs results — scraping reads atomics.
    pub fn serve_ops(&self, addr: impl ToSocketAddrs) -> std::io::Result<ScrapeServer> {
        let health = Arc::clone(&self.health);
        let mut state =
            OpsState::new(Arc::clone(&self.registry)).with_ready_probe(move || health.is_ready());
        if let Some(recorder) = &self.events {
            state = state.with_recorder(Arc::clone(recorder));
        }
        ScrapeServer::bind(addr, state)
    }

    /// A snapshot of the service-level counters.
    pub fn stats(&self) -> ServiceStats {
        self.counters.snapshot()
    }

    /// Jobs accepted but not yet picked into a micro-batch.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Stops accepting work, **drains** everything already accepted
    /// (every outstanding ticket still resolves — completed or
    /// aborted), and joins the batcher thread.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.health.accepting.store(false, Ordering::Relaxed);
        self.queue.close();
        if let Some(handle) = self.batcher.take() {
            if handle.join().is_err() {
                // The batcher only panics if the engine did (a worker
                // panic propagated through the scoped pool). Outstanding
                // tickets observe a closed channel; surfacing the panic
                // here would double-report it during unwinding.
                eprintln!("qtda-service: batcher thread panicked; in-flight tickets abandoned");
            }
        }
    }
}

impl Drop for QtdaService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Closes the queue when the batcher exits — crucially also on
/// *unwind*: if an engine worker panic kills the batcher, producers
/// parked in `push_blocking` (and all future submitters) must observe
/// `ShuttingDown` instead of waiting on a queue nobody will ever pop
/// again. Also clears the shared `batcher_alive` readiness flag, so a
/// live ops server's `/ready` flips to 503 the moment batching stops.
struct CloseOnExit<'a> {
    queue: &'a SubmissionQueue,
    health: &'a ServiceHealth,
}

impl Drop for CloseOnExit<'_> {
    fn drop(&mut self) {
        self.health.batcher_alive.store(false, Ordering::Relaxed);
        self.queue.close();
    }
}

/// The batcher thread: gather → serve → stream, until closed and
/// drained.
fn batcher_loop(
    engine: &BatchEngine,
    queue: &SubmissionQueue,
    counters: &Counters,
    health: &ServiceHealth,
    config: ServiceConfig,
) {
    let _close_on_exit = CloseOnExit { queue, health };
    let recorder = engine.recorder();
    while let Some(first) = queue.pop_blocking() {
        let accepted_at = first.accepted_at;
        let mut batch: Vec<(Request, Instant)> = Vec::with_capacity(config.max_batch_size);
        admit(first, counters, recorder, &mut batch);
        // Gather while the batch is short of its size cap. An empty
        // `batch` (first request dead on arrival) keeps gathering with
        // the dead request's clock — bounded and simple; the next loop
        // iteration re-anchors.
        while batch.len() < config.max_batch_size {
            // Re-derive the deadline as the batch fills: the backlog
            // (batch + queue) only grows, so the adaptive linger is
            // monotone non-increasing and a deep backlog dispatches
            // without waiting out the full deadline. An interactive
            // request anywhere in the batch (or already waiting in the
            // queue) zeroes it outright: express traffic never waits
            // for company it does not need.
            let interactive = batch.iter().any(|(r, _)| r.qos.priority == Priority::Interactive)
                || queue.interactive_waiting();
            let linger = if interactive {
                Duration::ZERO
            } else if config.adaptive_linger {
                effective_linger(
                    config.max_linger,
                    batch.len() + queue.len(),
                    config.max_batch_size,
                )
            } else {
                config.max_linger
            };
            match queue.pop_until(accepted_at + linger) {
                Some(request) => admit(request, counters, recorder, &mut batch),
                None => break,
            }
        }
        if batch.is_empty() {
            continue;
        }
        counters.record_batch(batch.len() as u64);
        record_batch_formed(recorder, &batch);

        // The linger stage ends for every member when the batch
        // dispatches — time spent gathering company, paid for
        // throughput.
        let dispatched_at = Instant::now();
        for (r, popped_at) in &batch {
            record_stage(&r.trace, "linger", *popped_at, dispatched_at);
        }
        let requests: Vec<JobRequest> = batch
            .iter()
            .map(|(r, _)| JobRequest {
                job: r.job.clone(),
                qos: r.qos.clone(),
                trace: r.trace.clone(),
                ticket: r.ticket,
            })
            .collect();
        let parties: Vec<Request> = batch.into_iter().map(|(r, _)| r).collect();
        // Stream every slice to its ticket as the engine announces it;
        // engine-side aborts forward as terminal events immediately.
        // A send only fails when the consumer dropped the ticket —
        // results are simply discarded then, like any lost interest.
        let outcomes =
            engine.run_batch_streaming_qos(&requests, &|event: SliceEvent| match event {
                SliceEvent::Slice { job_index, slice_index, result } => {
                    let slice = StreamedSlice { slice_index, result };
                    let _ = parties[job_index].tx.send(TicketEvent::Slice(slice));
                }
                SliceEvent::Aborted { job_index, reason } => {
                    let _ = parties[job_index].tx.send(TicketEvent::Aborted(reason));
                }
            });
        let delivery_started = Instant::now();
        for (request, outcome) in parties.iter().zip(outcomes) {
            // Count (and close the trace) before sending: a consumer
            // that observes a terminal event must never read a counter
            // that excludes its job, nor a trace missing its delivery.
            counters.record_request_latency(request.qos.priority, request.accepted_at.elapsed());
            record_stage(&request.trace, "delivery", delivery_started, Instant::now());
            match outcome {
                JobOutcome::Completed(result) => {
                    counters.completed.inc();
                    let _ = request.tx.send(TicketEvent::Done(result));
                }
                JobOutcome::Aborted(reason) => {
                    counters.record_abort(reason);
                    // The engine stamped the `Abort` event while mapping
                    // outcomes; here the journal chain for this ticket
                    // is complete, so snapshot it for `/abort.jsonl`.
                    recorder.capture_abort(request.ticket);
                    // Possibly a duplicate of the engine's streamed
                    // abort — the ticket keeps the first terminal event.
                    let _ = request.tx.send(TicketEvent::Aborted(reason));
                }
            }
        }
    }
}

/// Records queue wait (histogram + trace span) for a freshly popped
/// request, then admits it to the gathering micro-batch — unless it was
/// cancelled while queued, in which case it is aborted on the spot and
/// never occupies a slot. The paired `Instant` is the pop time, where
/// the request's `linger` stage begins.
fn admit(
    request: Request,
    counters: &Counters,
    recorder: &FlightRecorder,
    batch: &mut Vec<(Request, Instant)>,
) {
    let popped_at = Instant::now();
    counters.record_queue_wait(popped_at.duration_since(request.accepted_at));
    record_stage(&request.trace, "queue_wait", request.accepted_at, popped_at);
    if !abort_if_dead(&request, counters, recorder) {
        batch.push((request, popped_at));
    }
}

/// Aborts a request cancelled while queued by sending the terminal
/// event directly — it never occupies a micro-batch slot. Returns
/// `true` when the request was aborted (and must not be batched).
///
/// Only **cancellation** is final here. A deadline-expired request
/// still flows into a micro-batch: the engine skips its units at the
/// first boundary check (no compute is wasted), but an answer already
/// sitting in the LRU cache is delivered for free — the same
/// "best-effort deadline never discards a ready answer" semantics the
/// engine implements, kept uniform across layers.
fn abort_if_dead(request: &Request, counters: &Counters, recorder: &FlightRecorder) -> bool {
    if request.qos.cancel.is_cancelled() {
        counters.record_abort(qtda_engine::AbortReason::Cancelled);
        // This request dies before ever reaching the engine, so the
        // service stamps the full terminal chain itself.
        record_request_event(recorder, EventKind::Cancel, request, || "at=queue".into());
        record_request_event(recorder, EventKind::Abort, request, || "reason=cancelled".into());
        recorder.capture_abort(request.ticket);
        let _ = request.tx.send(TicketEvent::Aborted(qtda_engine::AbortReason::Cancelled));
        true
    } else {
        false
    }
}

/// The adaptive linger policy: full deadline for a lone request, shrunk
/// proportionally as the backlog approaches the batch size, zero once
/// the batch could fill without waiting.
fn effective_linger(max_linger: Duration, backlog: usize, max_batch_size: usize) -> Duration {
    if backlog >= max_batch_size {
        return Duration::ZERO;
    }
    max_linger.mul_f64(1.0 - backlog as f64 / max_batch_size as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_linger_shrinks_toward_zero_with_backlog() {
        let max = Duration::from_millis(800);
        assert_eq!(effective_linger(max, 16, 16), Duration::ZERO, "full backlog waits nothing");
        assert_eq!(effective_linger(max, 40, 16), Duration::ZERO, "overfull backlog too");
        assert_eq!(
            effective_linger(max, 8, 16),
            Duration::from_millis(400),
            "half backlog, half wait"
        );
        let lone = effective_linger(max, 1, 16);
        assert_eq!(lone, Duration::from_millis(750), "a lone request lingers almost fully");
        // Monotone non-increasing in backlog.
        let mut last = Duration::MAX;
        for backlog in 1..=17 {
            let l = effective_linger(max, backlog, 16);
            assert!(l <= last, "backlog {backlog}");
            last = l;
        }
    }
}
