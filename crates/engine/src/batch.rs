//! The batch engine: scheduling, amortised construction, caching, QoS.
//!
//! [`BatchEngine::run_batch`] serves a whole batch of [`BettiJob`]s
//! through three stages:
//!
//! 1. **Cache + dedup.** Each job's content fingerprint is looked up in
//!    the LRU result cache and duplicate jobs *within* the batch
//!    collapse onto one computation. Every fingerprint match is verified
//!    against the full request ([`BettiJob::same_request`]), so a hash
//!    collision means a recompute, never a wrong answer.
//! 2. **Amortised construction, lazily.** The first `(job, ε, dim)`
//!    unit to touch a job builds its **Laplacian filtration arena**
//!    once at the grid's largest ε
//!    (`tda::laplacian_filtration::LaplacianFiltration`): neighbour
//!    search, flag expansion, boundary walking, and triplet sorting run
//!    once per job, and every ε-unit then reads its Δ_k as a *prefix*
//!    of the activation-sorted arena — no per-slice complexes are
//!    materialised at all. The arena lives in a per-job slot that is
//!    built by the first unit and **freed by the last**, so it stays
//!    hot in cache for the estimates that follow and peak memory tracks
//!    the jobs in flight, not the batch size
//!    (`EngineStats::arena_bytes_peak` reports the high-water mark).
//! 3. **Estimate (one unit per `(job, ε, dim)`).** Units fan out at the
//!    finest granularity the request API exposes (a single-dimension
//!    `qtda_core::query::Query`), pulled from a shared counter by
//!    `workers` threads — work-stealing-style dynamic assignment, so
//!    one slow job cannot idle the rest of the pool behind it.
//!
//! Every estimator seed is derived from the batch seed and job content
//! ([`crate::seed`]), so results are **bit-identical** across worker
//! counts, completion orders, batch compositions, and cache states.
//!
//! Serving-oriented extensions ride on the same machinery:
//!
//! * **Incremental completion.** [`BatchEngine::run_batch_streaming`]
//!   announces every `(job, ε)` slice through a [`SliceSink`] the moment
//!   its last dimension unit finishes, so a streaming front-end (the
//!   `qtda-service` crate) can deliver results while the rest of the
//!   batch is still computing. What streams is bit-identical to what
//!   [`BatchEngine::run_batch`] returns.
//! * **Size-based dispatch.** [`EngineConfig::dispatch`] routes each
//!   unit to the statevector / dense / sparse backend by `|S_k|`
//!   (`qtda_core::pipeline::DispatchPolicy`); the default derives the
//!   classic dense/sparse split from each job's `sparse_threshold`.
//! * **Persistent homology.** A [`BettiJob::persistence`] job's units
//!   additionally read exact persistent-Betti rows β_k(ε_i, ε_j) off
//!   the shared arena (each ε against every earlier grid scale), and
//!   the last scale's units reduce per-dimension persistence diagrams —
//!   so [`SliceResult::persistence`] streams with the slice and
//!   [`JobResult::diagrams`] rides the same cache entry. All of it is
//!   integer/interval data pinned bit-identical to the classical
//!   barcode reduction, and `qtda_persist_*` counters track the spend.
//! * **Quality of service.** [`BatchEngine::run_batch_qos`] accepts a
//!   [`QosPolicy`] per job ([`JobRequest`]): the unit queue is ordered
//!   by [`Priority`] class (Interactive first, Bulk last; ties keep the
//!   plain-batch interleaving, so an all-[`Priority::Normal`] batch
//!   schedules exactly like [`BatchEngine::run_batch`]), and each
//!   job's deadline/cancellation flags are checked at **unit
//!   boundaries**: once every request interested in a computed job
//!   (its submitter plus in-batch duplicates) asks to abort, the job's
//!   remaining units are skipped, its arena is freed through the normal
//!   last-unit path, and **nothing is inserted into the LRU cache**
//!   (no partial results, and — regression-pinned — no doorkeeper
//!   sighting either, so a cancelled probe never "pre-admits" a
//!   fingerprint). Aborted jobs return [`JobOutcome::Aborted`];
//!   priorities and aborts never change a *completed* result's bits.

use crate::cache::LruCache;
use crate::job::BettiJob;
use crate::seed::{job_seed, slice_seed};
use qtda_core::estimator::BettiEstimate;
use qtda_core::persist::{self, PersistenceDiagrams, PersistencePair, SlicePersistence};
use qtda_core::pipeline::DispatchPolicy;
use qtda_core::query::{AbortReason, BettiRequest, Priority, QosPolicy, SpectrumShare};
use qtda_obs::{Counter, EventKind, FlightRecorder, Gauge, MetricsRegistry, Tracer};
use qtda_tda::laplacian_filtration::LaplacianFiltration;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One request as `run_batch_inner` sees it: the job, its QoS policy,
/// the (possibly disabled) per-ticket tracer, and the service-assigned
/// ticket id (0 for direct engine callers).
type Submission<'a> = (&'a BettiJob, &'a QosPolicy, &'a Tracer, u64);

/// Records a per-request stage span when the `obs` feature is on. The
/// disabled-`Tracer` check inside makes an untraced request cost one
/// branch; with the feature off the whole call compiles away.
#[cfg(feature = "obs")]
fn record_stage(trace: &Tracer, name: &str, start: Instant, end: Instant) {
    trace.record_span(name, start, end);
}

#[cfg(not(feature = "obs"))]
fn record_stage(_trace: &Tracer, _name: &str, _start: Instant, _end: Instant) {}

/// Stamps one flight-recorder event when the `obs` feature is on. The
/// detail closure only runs against a live recorder, so hot paths pay
/// one branch (and no allocation) when recording is off; with the
/// feature off the whole call compiles away.
#[cfg(feature = "obs")]
fn record_event(
    recorder: &FlightRecorder,
    kind: EventKind,
    ticket: u64,
    fingerprint: u64,
    detail: impl FnOnce() -> String,
) {
    if recorder.is_enabled() {
        recorder.record(kind, ticket, fingerprint, detail());
    }
}

#[cfg(not(feature = "obs"))]
fn record_event(
    _recorder: &FlightRecorder,
    _kind: EventKind,
    _ticket: u64,
    _fingerprint: u64,
    _detail: impl FnOnce() -> String,
) {
}

/// Engine parameters.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Worker threads for both stages (`0` = one per available core).
    /// Results do not depend on this — only throughput does.
    pub workers: usize,
    /// Root of every derived estimator seed (see [`crate::seed`]).
    pub batch_seed: u64,
    /// LRU result-cache entries to retain across batches (`0` disables).
    pub cache_capacity: usize,
    /// Gate cache admission behind a doorkeeper: a fingerprint is
    /// admitted into the LRU only on its *second* sighting, so one-shot
    /// sliding-window traffic cannot flush entries that earned their
    /// place by repeating (see [`LruCache::with_doorkeeper`]). Results
    /// never depend on this — only hit rates do.
    pub cache_doorkeeper: bool,
    /// Size-based backend routing for every `(job, ε, dim)` unit. `None`
    /// (the default) derives the classic dense/sparse split from each
    /// job's own `sparse_threshold`; `Some` overrides all jobs with one
    /// engine-wide [`DispatchPolicy`] (including the gate-level
    /// statevector tier for the smallest complexes). Replaying a slice
    /// through the one-shot pipeline then needs the matching
    /// `PipelineConfig` routing fields.
    pub dispatch: Option<DispatchPolicy>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 0,
            batch_seed: 0,
            cache_capacity: 256,
            cache_doorkeeper: false,
            dispatch: None,
        }
    }
}

/// One QoS-carrying submission: a [`BettiJob`] plus the [`QosPolicy`]
/// governing its scheduling class, deadline, and cancellation. The
/// request shape [`BatchEngine::run_batch_qos`] consumes — the
/// engine-level counterpart of a `qtda_core::query::BettiRequest`
/// (owned job content instead of borrows, because requests outlive
/// their submitters in a serving queue).
#[derive(Clone, Debug)]
pub struct JobRequest {
    /// The job to serve.
    pub job: BettiJob,
    /// Its quality-of-service policy.
    pub qos: QosPolicy,
    /// Per-request stage tracer. Disabled by default; attach a live
    /// [`Tracer`] with [`JobRequest::with_trace`] and the engine
    /// records `cache_probe` / `arena_build` / `solve` spans into it
    /// as the request moves through the batch. Tracing never touches
    /// seeds or scheduling order — results are bit-identical with it
    /// on or off.
    pub trace: Tracer,
    /// The submitter's ticket id, carried into flight-recorder events
    /// so a journal dump can be joined back to the service's tickets.
    /// `0` (the default) means "no ticket" — direct engine callers.
    pub ticket: u64,
}

impl From<BettiJob> for JobRequest {
    fn from(job: BettiJob) -> Self {
        JobRequest { job, qos: QosPolicy::default(), trace: Tracer::disabled(), ticket: 0 }
    }
}

impl JobRequest {
    /// A request under the default (Normal, never-aborting) policy.
    pub fn new(job: BettiJob) -> Self {
        job.into()
    }

    /// A request under an explicit policy.
    pub fn with_qos(job: BettiJob, qos: QosPolicy) -> Self {
        JobRequest { job, qos, trace: Tracer::disabled(), ticket: 0 }
    }

    /// Attaches a per-request stage tracer.
    pub fn with_trace(mut self, trace: Tracer) -> Self {
        self.trace = trace;
        self
    }

    /// Attaches the submitting ticket's id (flight-recorder metadata;
    /// never influences scheduling or results).
    pub fn with_ticket(mut self, ticket: u64) -> Self {
        self.ticket = ticket;
        self
    }
}

/// How one request ended: the assembled result, or the abort that
/// terminated it. A request is aborted when its own policy asked for it
/// (cancellation is honoured even if a duplicate kept the shared
/// computation alive); a *computed job* is only abandoned engine-side
/// once every interested request has aborted.
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// The request completed; slices are bit-identical to a plain
    /// [`BatchEngine::run_batch`] of the same job and batch seed.
    Completed(Arc<JobResult>),
    /// The request was aborted before (or instead of) completion.
    Aborted(AbortReason),
}

impl JobOutcome {
    /// The result, if the request completed.
    pub fn result(&self) -> Option<&Arc<JobResult>> {
        match self {
            JobOutcome::Completed(result) => Some(result),
            JobOutcome::Aborted(_) => None,
        }
    }

    /// The abort reason, if the request aborted.
    pub fn abort_reason(&self) -> Option<AbortReason> {
        match self {
            JobOutcome::Completed(_) => None,
            JobOutcome::Aborted(reason) => Some(*reason),
        }
    }

    /// Unwraps the completed result.
    ///
    /// # Panics
    /// If the request was aborted.
    pub fn expect_completed(self) -> Arc<JobResult> {
        match self {
            JobOutcome::Completed(result) => result,
            JobOutcome::Aborted(reason) => {
                panic!("request aborted ({reason}) where completion was required")
            }
        }
    }
}

/// One ε-slice of a served job.
#[derive(Clone, Debug)]
pub struct SliceResult {
    /// The grouping scale this slice was evaluated at.
    pub epsilon: f64,
    /// The estimator seed the engine derived for this slice. Replaying
    /// the one-shot pipeline with this seed reproduces `estimates`
    /// bit for bit.
    pub seed: u64,
    /// Per-dimension estimates β̃_0 … β̃_K.
    pub estimates: Vec<BettiEstimate>,
    /// Classical Betti numbers for the same dimensions.
    pub classical: Vec<usize>,
    /// The slice's persistent-homology payload: its row of the
    /// persistent-Betti triangle per dimension (`row[i] = β_k(ε_i,
    /// ε_j)` over the grid prefix). `Some` only for
    /// [`BettiJob::persistence`] jobs — exact integers, bit-identical
    /// across worker counts and cache states like everything else.
    pub persistence: Option<SlicePersistence>,
}

impl SliceResult {
    /// Estimates rounded to whole Betti numbers.
    pub fn rounded(&self) -> Vec<usize> {
        self.estimates.iter().map(BettiEstimate::rounded).collect()
    }

    /// Raw corrected estimates — the per-scale feature vector.
    pub fn features(&self) -> Vec<f64> {
        self.estimates.iter().map(|e| e.corrected).collect()
    }
}

/// A served job: one [`SliceResult`] per requested ε, in grid order.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The job's content fingerprint (cache key).
    pub fingerprint: u64,
    /// Root of this job's seed stream.
    pub job_seed: u64,
    /// Per-ε results in the order the grid requested them.
    pub slices: Vec<SliceResult>,
    /// Per-dimension persistence diagrams of the job's filtration,
    /// computed once from the shared arena (at the grid's largest
    /// scale). `Some` only for [`BettiJob::persistence`] jobs with a
    /// non-empty grid.
    pub diagrams: Option<PersistenceDiagrams>,
}

impl JobResult {
    /// All slices' features concatenated (grid-major) — the row a
    /// downstream classifier consumes.
    pub fn features(&self) -> Vec<f64> {
        self.slices.iter().flat_map(SliceResult::features).collect()
    }
}

/// Monotone serving counters (since engine construction), except the
/// `arena_bytes_live` gauge. A view over the engine's
/// [`MetricsRegistry`] (`qtda_engine_*` metrics) — engines built over
/// a shared registry with [`BatchEngine::with_observability`] share
/// the cells, and an engine over a *disabled* registry reads all zeros.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Jobs requested across all batches.
    pub jobs_served: u64,
    /// Batches run (`run_batch`/`run_batch_streaming`/`…_qos` calls).
    pub batches_served: u64,
    /// Jobs answered from the LRU cache.
    pub cache_hits: u64,
    /// Jobs that looked up the cache and found nothing usable.
    pub cache_misses: u64,
    /// Result-cache entries evicted under capacity pressure.
    pub cache_evictions: u64,
    /// Jobs collapsed onto an identical job in the same batch.
    pub deduplicated: u64,
    /// Jobs actually computed.
    pub computed_jobs: u64,
    /// `(job, ε, dim)` estimation units executed (cancelled units are
    /// counted in `units_cancelled` instead).
    pub units_executed: u64,
    /// Units scheduled for the most recent batch (micro-batch size
    /// telemetry; includes any later cancelled).
    pub units_last_batch: u64,
    /// Units skipped at the boundary check because their job had been
    /// cancelled or had exceeded every interested deadline.
    pub units_cancelled: u64,
    /// Requests that ended [`JobOutcome::Aborted`] with
    /// [`AbortReason::Cancelled`].
    pub jobs_cancelled: u64,
    /// Requests that ended [`JobOutcome::Aborted`] with
    /// [`AbortReason::DeadlineExceeded`].
    pub jobs_deadline_expired: u64,
    /// Requests completed in the [`Priority::Interactive`] class.
    pub served_interactive: u64,
    /// Requests completed in the [`Priority::Normal`] class (all of
    /// plain `run_batch`'s traffic lands here).
    pub served_normal: u64,
    /// Requests completed in the [`Priority::Bulk`] class.
    pub served_bulk: u64,
    /// Laplacian filtration arenas constructed (more than
    /// `computed_jobs` only when workers raced on a job's first touch).
    pub arenas_built: u64,
    /// `(job, ε, dim)` units whose Δ_k came as a prefix read of an
    /// arena another unit had already built — the amortisation the
    /// incremental ε-sweep buys.
    pub slices_assembled_incrementally: u64,
    /// High-water mark of concurrently resident arena bytes (peak
    /// amortisation footprint; arenas are freed by their job's last
    /// unit — executed *or cancelled*).
    pub arena_bytes_peak: u64,
    /// Arena bytes resident right now — a gauge, not a counter. Zero
    /// between batches: every arena is freed by its job's last unit,
    /// including the units an abort skipped.
    pub arena_bytes_live: u64,
}

impl EngineStats {
    /// Mean executed `(job, ε, dim)` units per batch served so far.
    pub fn mean_units_per_batch(&self) -> f64 {
        if self.batches_served == 0 {
            0.0
        } else {
            self.units_executed as f64 / self.batches_served as f64
        }
    }
}

/// A streamed announcement out of a running batch. Emitted from worker
/// threads in completion order; after a job aborts, a slice whose last
/// unit was already in flight may still race out behind the
/// [`SliceEvent::Aborted`] — consumers treat `Aborted` as terminal and
/// drop stragglers (the service's `Ticket` does).
#[derive(Clone, Debug)]
pub enum SliceEvent {
    /// The `slice_index`-th ε of job `job_index` finished all its
    /// homology dimensions — emitted the moment the slice's last
    /// `(job, ε, dim)` unit completes, long before the batch returns,
    /// and also (from the calling thread, before any unit runs) for
    /// every slice answered by the cache. Duplicate jobs receive their
    /// representative's slices under their own `job_index`.
    Slice {
        /// Index of the job in the submitted batch.
        job_index: usize,
        /// Index of the slice in that job's ε-grid.
        slice_index: usize,
        /// The completed slice — bit-identical to the corresponding
        /// entry of the final [`JobResult`].
        result: SliceResult,
    },
    /// Job `job_index` was aborted; no further slices will be computed
    /// for it. Emitted once per aborted request the moment the engine
    /// abandons the computation (requests aborted at delivery time —
    /// e.g. cancelled while a duplicate kept the job alive — surface
    /// through [`JobOutcome::Aborted`] instead).
    Aborted {
        /// Index of the job in the submitted batch.
        job_index: usize,
        /// Why it aborted.
        reason: AbortReason,
    },
}

/// The incremental-completion hook: called as slices finish (or jobs
/// abort). Must be `Sync` — worker threads invoke it concurrently, in
/// completion order (use the slice index to reorder).
pub type SliceSink<'a> = dyn Fn(SliceEvent) + Sync + 'a;

/// The batched multi-cloud Betti-serving engine. Construct once, call
/// [`Self::run_batch`] (or the QoS-aware [`Self::run_batch_qos`]) per
/// request batch; the result cache persists across calls.
pub struct BatchEngine {
    config: EngineConfig,
    cache: Mutex<LruCache<Arc<CachedJob>>>,
    registry: Arc<MetricsRegistry>,
    metrics: EngineMetrics,
    recorder: Arc<FlightRecorder>,
}

/// The engine's handles into its [`MetricsRegistry`] — the storage
/// behind [`EngineStats`]. Every handle is a single atomic cell; the
/// hot path never takes a lock after construction.
struct EngineMetrics {
    jobs_served: Counter,
    batches_served: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_evictions: Gauge,
    deduplicated: Counter,
    computed_jobs: Counter,
    units_executed: Counter,
    units_last_batch: Gauge,
    units_cancelled: Counter,
    jobs_cancelled: Counter,
    jobs_deadline_expired: Counter,
    served_by_class: [Counter; 3],
    arenas_built: Counter,
    slices_assembled_incrementally: Counter,
    arena_bytes_live: Gauge,
    arena_bytes_peak: Gauge,
    solve_matvecs: Counter,
    lanczos_iterations: Counter,
    lanczos_restarts: Counter,
    persist_units: Counter,
    persist_rows: Counter,
    persist_pairs: Counter,
}

impl EngineMetrics {
    /// Registers every `qtda_engine_*` metric, unlabelled except for
    /// the class label of `qtda_engine_served_total`.
    fn register(registry: &MetricsRegistry) -> Self {
        let counter = |name: &str| registry.counter(name);
        let gauge = |name: &str| registry.gauge(name);
        let served =
            |class: &str| registry.counter_with("qtda_engine_served_total", &[("class", class)]);
        EngineMetrics {
            jobs_served: counter("qtda_engine_jobs_served_total"),
            batches_served: counter("qtda_engine_batches_total"),
            cache_hits: counter("qtda_engine_cache_hits_total"),
            cache_misses: counter("qtda_engine_cache_misses_total"),
            cache_evictions: gauge("qtda_engine_cache_evictions"),
            deduplicated: counter("qtda_engine_deduplicated_total"),
            computed_jobs: counter("qtda_engine_computed_jobs_total"),
            units_executed: counter("qtda_engine_units_executed_total"),
            units_last_batch: gauge("qtda_engine_units_last_batch"),
            units_cancelled: counter("qtda_engine_units_cancelled_total"),
            jobs_cancelled: counter("qtda_engine_jobs_cancelled_total"),
            jobs_deadline_expired: counter("qtda_engine_jobs_deadline_expired_total"),
            served_by_class: [served("interactive"), served("normal"), served("bulk")],
            arenas_built: counter("qtda_engine_arenas_built_total"),
            slices_assembled_incrementally: counter("qtda_engine_slices_incremental_total"),
            arena_bytes_live: gauge("qtda_engine_arena_bytes_live"),
            arena_bytes_peak: gauge("qtda_engine_arena_bytes_peak"),
            solve_matvecs: counter("qtda_engine_solve_matvecs_total"),
            lanczos_iterations: counter("qtda_engine_lanczos_iterations_total"),
            lanczos_restarts: counter("qtda_engine_lanczos_restarts_total"),
            // Persistence serving: units that computed a persistent-
            // Betti row, total row entries (β_k(ε_i, ε_j) reads), and
            // total diagram pairs emitted.
            persist_units: counter("qtda_persist_units_total"),
            persist_rows: counter("qtda_persist_rows_total"),
            persist_pairs: counter("qtda_persist_pairs_total"),
        }
    }
}

/// Stage 1's in-batch dedup plan over the cache-missed requests: the
/// first sighting of each distinct job becomes a **miss** (it will be
/// computed) and every later identical job a duplicate pointing at its
/// representative. A fingerprint match alone is never trusted — a
/// candidate representative must match the full canonical content
/// stream ([`BettiJob::same_request`]), so a forged or colliding
/// fingerprint falls back to independent execution instead of borrowing
/// another request's results (the same verification the LRU applies on
/// cache hits). Returns `(misses, dup_of)`, both indexed like the full
/// batch.
fn plan_dedup(
    jobs: &[&BettiJob],
    fingerprints: &[u64],
    uncached: &[usize],
) -> (Vec<usize>, Vec<Option<usize>>) {
    let mut misses: Vec<usize> = Vec::new();
    let mut dup_of: Vec<Option<usize>> = vec![None; jobs.len()];
    // fp → miss indices sharing it (more than one only on collision).
    let mut seen: HashMap<u64, Vec<usize>> = HashMap::new();
    for &i in uncached {
        let candidates = seen.entry(fingerprints[i]).or_default();
        if let Some(&rep) = candidates.iter().find(|&&j| jobs[j].same_request(jobs[i])) {
            dup_of[i] = Some(rep);
        } else {
            candidates.push(i);
            misses.push(i);
        }
    }
    (misses, dup_of)
}

impl BatchEngine {
    /// An engine with the given configuration and its own private
    /// [`MetricsRegistry`].
    pub fn new(config: EngineConfig) -> Self {
        Self::with_observability(config, Arc::new(MetricsRegistry::new()), None)
    }

    /// An engine publishing its serving counters into a caller-owned
    /// registry and stamping events into a caller-owned
    /// [`FlightRecorder`] (the service shares one of each across its
    /// whole stack). Engines sharing a registry share the
    /// `qtda_engine_*` metric cells — their counts add. The engine
    /// stamps `cache_hit` / `unit_done` / `cancel` / `deadline_expired`
    /// / `abort` events as requests move through batches, so engine
    /// events join service events by job fingerprint; `None` disables
    /// engine-side event recording.
    pub fn with_observability(
        config: EngineConfig,
        registry: Arc<MetricsRegistry>,
        recorder: Option<Arc<FlightRecorder>>,
    ) -> Self {
        let cache = if config.cache_doorkeeper {
            // Track first sightings for several cache generations so
            // a repeat separated by a scan still proves itself.
            LruCache::with_doorkeeper(config.cache_capacity, config.cache_capacity.max(1) * 8)
        } else {
            LruCache::new(config.cache_capacity)
        };
        let metrics = EngineMetrics::register(&registry);
        let recorder = recorder.unwrap_or_else(|| Arc::new(FlightRecorder::disabled()));
        BatchEngine { config, cache: Mutex::new(cache), registry, metrics, recorder }
    }

    /// An engine with [`EngineConfig::default`].
    pub fn with_defaults() -> Self {
        Self::new(EngineConfig::default())
    }

    /// The configuration this engine was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The registry holding this engine's `qtda_engine_*` metrics —
    /// snapshot it for the Prometheus/JSON exposition.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The flight recorder this engine stamps events into (a disabled
    /// recorder unless one was attached via
    /// [`Self::with_observability`]).
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// A snapshot of the serving counters ([`EngineStats`] is a view
    /// over the engine's [`MetricsRegistry`]).
    pub fn stats(&self) -> EngineStats {
        let evictions = self.cache.lock().expect("cache poisoned").evictions();
        self.metrics.cache_evictions.set(evictions);
        EngineStats {
            jobs_served: self.metrics.jobs_served.get(),
            batches_served: self.metrics.batches_served.get(),
            cache_hits: self.metrics.cache_hits.get(),
            cache_misses: self.metrics.cache_misses.get(),
            cache_evictions: evictions,
            deduplicated: self.metrics.deduplicated.get(),
            computed_jobs: self.metrics.computed_jobs.get(),
            units_executed: self.metrics.units_executed.get(),
            units_last_batch: self.metrics.units_last_batch.get(),
            units_cancelled: self.metrics.units_cancelled.get(),
            jobs_cancelled: self.metrics.jobs_cancelled.get(),
            jobs_deadline_expired: self.metrics.jobs_deadline_expired.get(),
            served_interactive: self.metrics.served_by_class[0].get(),
            served_normal: self.metrics.served_by_class[1].get(),
            served_bulk: self.metrics.served_by_class[2].get(),
            arenas_built: self.metrics.arenas_built.get(),
            slices_assembled_incrementally: self.metrics.slices_assembled_incrementally.get(),
            arena_bytes_peak: self.metrics.arena_bytes_peak.get(),
            arena_bytes_live: self.metrics.arena_bytes_live.get(),
        }
    }

    /// Serves a single job (a one-element [`Self::run_batch`]).
    pub fn run_job(&self, job: &BettiJob) -> Arc<JobResult> {
        self.run_batch(std::slice::from_ref(job)).pop().expect("one job in, one result out")
    }

    /// Serves a batch, returning one result per job in input order.
    /// Identical jobs are computed once, whether the duplicate sits in
    /// this batch or in a previous one still cached. Every fingerprint
    /// match is verified against the full request content
    /// ([`BettiJob::same_request`]), so a 64-bit hash collision degrades
    /// to a recompute, never to another request's results.
    ///
    /// This is [`Self::run_batch_qos`] under the default (Normal class,
    /// never-aborting) policy — the FIFO reference the QoS determinism
    /// tests pin against.
    pub fn run_batch(&self, jobs: &[BettiJob]) -> Vec<Arc<JobResult>> {
        let default_qos = QosPolicy::default();
        let no_trace = Tracer::disabled();
        let refs: Vec<Submission<'_>> =
            jobs.iter().map(|j| (j, &default_qos, &no_trace, 0)).collect();
        self.run_batch_inner(&refs, None).into_iter().map(JobOutcome::expect_completed).collect()
    }

    /// [`Self::run_batch`] with an incremental-completion hook: `sink`
    /// is called once per `(job, slice)` the moment the slice's last
    /// `(job, ε, dim)` unit finishes — cache-answered slices fire before
    /// any unit runs, duplicates fire when their representative's slice
    /// completes. The streamed [`SliceEvent`]s carry exactly the
    /// [`SliceResult`]s of the returned [`JobResult`]s (bit-identical;
    /// determinism is per-slice content, so *what* streams never depends
    /// on worker count — only the completion order does).
    pub fn run_batch_streaming(
        &self,
        jobs: &[BettiJob],
        sink: &SliceSink<'_>,
    ) -> Vec<Arc<JobResult>> {
        let default_qos = QosPolicy::default();
        let no_trace = Tracer::disabled();
        let refs: Vec<Submission<'_>> =
            jobs.iter().map(|j| (j, &default_qos, &no_trace, 0)).collect();
        self.run_batch_inner(&refs, Some(sink))
            .into_iter()
            .map(JobOutcome::expect_completed)
            .collect()
    }

    /// Serves a batch of QoS-carrying requests: units are scheduled in
    /// [`Priority`] order and each request's deadline/cancellation is
    /// checked at unit boundaries (see the module docs for the exact
    /// abort semantics). Completed outcomes are **bit-identical** to
    /// [`Self::run_batch`] of the same jobs and batch seed at any
    /// worker count — QoS shapes scheduling and early exits, never
    /// values.
    pub fn run_batch_qos(&self, requests: &[JobRequest]) -> Vec<JobOutcome> {
        let refs: Vec<Submission<'_>> =
            requests.iter().map(|r| (&r.job, &r.qos, &r.trace, r.ticket)).collect();
        self.run_batch_inner(&refs, None)
    }

    /// [`Self::run_batch_qos`] with the incremental-completion hook:
    /// completed slices stream as [`SliceEvent::Slice`], and a request
    /// abandoned mid-batch fires one final [`SliceEvent::Aborted`].
    pub fn run_batch_streaming_qos(
        &self,
        requests: &[JobRequest],
        sink: &SliceSink<'_>,
    ) -> Vec<JobOutcome> {
        let refs: Vec<Submission<'_>> =
            requests.iter().map(|r| (&r.job, &r.qos, &r.trace, r.ticket)).collect();
        self.run_batch_inner(&refs, Some(sink))
    }

    fn run_batch_inner(
        &self,
        requests: &[Submission<'_>],
        sink: Option<&SliceSink<'_>>,
    ) -> Vec<JobOutcome> {
        self.metrics.jobs_served.add(requests.len() as u64);
        self.metrics.batches_served.inc();
        // Persistence jobs read β_k(ε_i, ε_j) over grid prefixes, which
        // only makes sense on an ascending grid — reject up front,
        // before any cache or unit work.
        for (job, ..) in requests {
            if job.persistence {
                persist::assert_ascending_grid(&job.epsilons);
            }
        }
        let fingerprints: Vec<u64> = requests.iter().map(|(job, ..)| job.fingerprint()).collect();

        // Stage 1: verified cache lookups + in-batch dedup. `misses`
        // keeps the first job index per distinct uncached request;
        // `dup_of[i]` points a duplicate at its representative miss.
        let mut results: Vec<Option<Arc<JobResult>>> = vec![None; requests.len()];
        let mut uncached: Vec<usize> = Vec::new();
        {
            let mut cache = self.cache.lock().expect("cache poisoned");
            for (i, &fp) in fingerprints.iter().enumerate() {
                let probe_started = Instant::now();
                let cached = cache.get(fp).and_then(|entry| {
                    entry.job.same_request(requests[i].0).then(|| Arc::clone(&entry.result))
                });
                record_stage(requests[i].2, "cache_probe", probe_started, Instant::now());
                if let Some(result) = cached {
                    self.metrics.cache_hits.inc();
                    record_event(&self.recorder, EventKind::CacheHit, requests[i].3, fp, || {
                        format!("slices={}", result.slices.len())
                    });
                    results[i] = Some(result);
                } else {
                    self.metrics.cache_misses.inc();
                    uncached.push(i);
                }
            }
        }
        let jobs: Vec<&BettiJob> = requests.iter().map(|(job, ..)| *job).collect();
        let (misses, dup_of) = plan_dedup(&jobs, &fingerprints, &uncached);
        self.metrics.deduplicated.add(dup_of.iter().filter(|d| d.is_some()).count() as u64);
        self.metrics.computed_jobs.add(misses.len() as u64);

        // Per computed job: every request index interested in it (the
        // submitter plus its in-batch duplicates). Drives both slice
        // fan-out and the all-parties-aborted check.
        let parties: Vec<Vec<usize>> = {
            let mut parties: Vec<Vec<usize>> = misses.iter().map(|&j| vec![j]).collect();
            let miss_pos: HashMap<usize, usize> =
                misses.iter().enumerate().map(|(p, &j)| (j, p)).collect();
            for (i, dup) in dup_of.iter().enumerate() {
                if let Some(rep) = dup {
                    parties[miss_pos[rep]].push(i);
                }
            }
            parties
        };

        // Cache-answered jobs stream immediately (outside the cache
        // lock — the sink is arbitrary user code). A hit whose request
        // already cancelled gets its Aborted event instead; an expired
        // deadline does *not* discard a ready answer (best-effort
        // semantics: the deadline stops work, a hit costs none).
        if let Some(sink) = sink {
            for (i, result) in results.iter().enumerate() {
                if let Some(result) = result {
                    if requests[i].1.cancel.is_cancelled() {
                        sink(SliceEvent::Aborted { job_index: i, reason: AbortReason::Cancelled });
                        continue;
                    }
                    for (slice_index, slice) in result.slices.iter().enumerate() {
                        sink(SliceEvent::Slice {
                            job_index: i,
                            slice_index,
                            result: slice.clone(),
                        });
                    }
                }
            }
        }

        let workers = if self.config.workers == 0 {
            std::thread::available_parallelism().map(usize::from).unwrap_or(1)
        } else {
            self.config.workers
        };

        // Stages 2+3: flatten to (job, ε, dim) units and fan out; the
        // amortised per-job construction happens lazily inside the first
        // unit that touches each job. The unit queue is **priority
        // ordered**: misses are bucketed by the best (lowest) Priority
        // among their interested requests — Interactive before Normal
        // before Bulk — and the shared counter drains the queue front to
        // back. Within a class, units are interleaved round-robin
        // across a window of `workers` jobs so that concurrent workers
        // start on *different* jobs (parallel construction instead of
        // racing to build the same one), while the window bound keeps
        // roughly `workers` jobs' slices resident at a time. With one
        // worker and one class this degenerates to the contiguous
        // per-job order, which maximises cache locality on the serial
        // path; with every job Normal (plain `run_batch`) the order is
        // exactly the historical FIFO interleaving.
        let class_of: Vec<Priority> = parties
            .iter()
            .map(|ps| ps.iter().map(|&i| requests[i].1.priority).min().unwrap_or(Priority::Normal))
            .collect();
        let dims_of: Vec<usize> =
            misses.iter().map(|&j| requests[j].0.max_homology_dim + 1).collect();
        let unit_counts: Vec<usize> = misses
            .iter()
            .zip(&dims_of)
            .map(|(&j, &dims)| requests[j].0.epsilons.len() * dims)
            .collect();
        let units = build_unit_queue(&class_of, &unit_counts, &dims_of, workers);
        self.metrics.units_last_batch.set(units.len() as u64);
        let preps: Vec<PrepSlot> = misses
            .iter()
            .map(|&j| PrepSlot {
                arena: Mutex::new(None),
                spectra: SpectrumShare::new(),
                remaining_units: AtomicUsize::new(
                    requests[j].0.epsilons.len() * (requests[j].0.max_homology_dim + 1),
                ),
                aborted: AtomicU8::new(ABORT_NONE),
            })
            .collect();
        // Streaming bookkeeping: a per-(job, ε) countdown of outstanding
        // dimensions so the slice can be announced the instant its last
        // unit lands.
        let stream_slots: Option<Vec<Vec<StreamSlot>>> = sink.map(|_| {
            misses
                .iter()
                .map(|&j| {
                    let dims = requests[j].0.max_homology_dim + 1;
                    requests[j]
                        .0
                        .epsilons
                        .iter()
                        .map(|_| StreamSlot {
                            dims: Mutex::new(vec![None; dims]),
                            remaining: AtomicUsize::new(dims),
                        })
                        .collect()
                })
                .collect()
        });
        let estimates: Vec<Option<UnitOutput>> = run_units(workers, units.len(), |u| {
            let unit = &units[u];
            let job = requests[misses[unit.prep]].0;
            let slot = &preps[unit.prep];
            // Unit-boundary QoS check, *before* any construction: a
            // job is abandoned once every interested request has
            // asked to abort (cancellation or expired deadline). The
            // first unit to observe it emits the Aborted events;
            // every skipped unit still runs the last-unit arena
            // bookkeeping below, so aborts free memory exactly like
            // completions.
            let skip = slot.aborted.load(Ordering::Acquire) != ABORT_NONE || {
                let now = Instant::now();
                let all_aborted =
                    parties[unit.prep].iter().all(|&i| requests[i].1.abort_reason(now).is_some());
                if all_aborted
                    && slot
                        .aborted
                        .compare_exchange(
                            ABORT_NONE,
                            ABORT_FLAGGED,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                {
                    for &i in &parties[unit.prep] {
                        let reason =
                            requests[i].1.abort_reason(now).expect("every party reported an abort");
                        let kind = match reason {
                            AbortReason::Cancelled => EventKind::Cancel,
                            AbortReason::DeadlineExceeded => EventKind::DeadlineExpired,
                        };
                        record_event(&self.recorder, kind, requests[i].3, fingerprints[i], || {
                            "at=unit_boundary".to_string()
                        });
                        if let Some(sink) = sink {
                            sink(SliceEvent::Aborted { job_index: i, reason });
                        }
                    }
                }
                all_aborted
            };
            let result = if skip {
                self.metrics.units_cancelled.inc();
                None
            } else {
                let prebuilt =
                    slot.arena.lock().expect("prep slot poisoned").as_ref().map(Arc::clone);
                let arena = match prebuilt {
                    Some(built) => {
                        self.metrics.slices_assembled_incrementally.inc();
                        built
                    }
                    None => {
                        // Build *outside* the lock: workers landing on
                        // the same fresh job overlap on the
                        // (deterministic, identical) construction
                        // instead of idling on the mutex; the first to
                        // finish publishes, racers drop their copy.
                        // Duplicate work is bounded by the worker count
                        // and only at a job's first touch.
                        let build_started = Instant::now();
                        let built = Arc::new(LaplacianFiltration::rips(
                            &job.cloud,
                            job.max_epsilon(),
                            job.max_homology_dim + 1,
                            job.metric,
                        ));
                        let build_done = Instant::now();
                        self.metrics.arenas_built.inc();
                        let mut guard = slot.arena.lock().expect("prep slot poisoned");
                        match guard.as_ref() {
                            Some(existing) => Arc::clone(existing),
                            None => {
                                *guard = Some(Arc::clone(&built));
                                // Count only the published arena toward
                                // the resident footprint (racers' copies
                                // die right here) — and only the
                                // published build's span toward the
                                // interested tickets' traces.
                                let bytes = built.arena_bytes() as u64;
                                let live = self.metrics.arena_bytes_live.add(bytes);
                                self.metrics.arena_bytes_peak.set_max(live);
                                for &i in &parties[unit.prep] {
                                    record_stage(
                                        requests[i].2,
                                        "arena_build",
                                        build_started,
                                        build_done,
                                    );
                                }
                                built
                            }
                        }
                    }
                };
                let js = job_seed(self.config.batch_seed, fingerprints[misses[unit.prep]]);
                let epsilon = job.epsilons[unit.eps];
                let seed = slice_seed(js, epsilon);
                let config = qtda_core::estimator::EstimatorConfig { seed, ..job.estimator };
                let policy = self
                    .config
                    .dispatch
                    .unwrap_or_else(|| DispatchPolicy::from_sparse_threshold(job.sparse_threshold));
                // One unit = one single-dimension query against the
                // shared arena — the same executor every layer runs.
                // The job-wide spectrum share lets ε-units whose slice
                // resolves to the same triplet prefix reuse one block-
                // Lanczos decomposition (bit-identical by construction).
                let solve_started = Instant::now();
                let output = BettiRequest::of_filtration(&arena)
                    .at_scale(epsilon)
                    .dimension(unit.dim)
                    .estimator(config)
                    .dispatch(policy)
                    .share_spectra(&slot.spectra)
                    .build()
                    .run();
                let solve_done = Instant::now();
                for &i in &parties[unit.prep] {
                    record_stage(requests[i].2, "solve", solve_started, solve_done);
                }
                // Solver cost profiling: the unit's QuerySlice carries
                // the aggregated matvec/Lanczos counts its backends
                // recorded (empty on the dense path or with `obs` off).
                let profile = output.slices.first().map(|s| s.profile).unwrap_or_default();
                self.metrics.solve_matvecs.add(profile.matvecs);
                self.metrics.lanczos_iterations.add(profile.lanczos_iterations);
                self.metrics.lanczos_restarts.add(profile.restarts);
                let (estimate, classical) = output.unit();
                // Persistence payload: this unit's persistent-Betti row
                // (grid prefix → this ε) read from the same shared
                // arena; the last grid scale's units also reduce their
                // dimension's diagram. Exact integer/interval data —
                // worker counts and scheduling cannot move a bit.
                let unit_persist = job.persistence.then(|| {
                    let persist_started = Instant::now();
                    let row =
                        arena.persistent_betti_row(unit.dim, &job.epsilons[..=unit.eps], epsilon);
                    let bars = (unit.eps + 1 == job.epsilons.len()).then(|| arena.bars(unit.dim));
                    let persist_done = Instant::now();
                    for &i in &parties[unit.prep] {
                        record_stage(requests[i].2, "persistence", persist_started, persist_done);
                    }
                    self.metrics.persist_units.inc();
                    self.metrics.persist_rows.add(row.len() as u64);
                    if let Some(bars) = &bars {
                        self.metrics.persist_pairs.add(bars.len() as u64);
                    }
                    UnitPersist { row, bars }
                });
                let result = (estimate, classical, unit_persist);
                self.metrics.units_executed.inc();
                record_event(
                    &self.recorder,
                    EventKind::UnitDone,
                    requests[misses[unit.prep]].3,
                    fingerprints[misses[unit.prep]],
                    || format!("eps={epsilon},dim={}", unit.dim),
                );
                // Stream the slice the moment its last dimension
                // lands (suppressed once the job aborted — the
                // Aborted event is terminal for its consumers).
                if let (Some(sink), Some(slots)) = (sink, stream_slots.as_ref()) {
                    let stream = &slots[unit.prep][unit.eps];
                    stream.dims.lock().expect("stream slot poisoned")[unit.dim] =
                        Some(result.clone());
                    if stream.remaining.fetch_sub(1, Ordering::AcqRel) == 1
                        && slot.aborted.load(Ordering::Acquire) == ABORT_NONE
                    {
                        let dims = stream.dims.lock().expect("stream slot poisoned");
                        let slice = assemble_slice_result(epsilon, seed, job.persistence, &dims);
                        for &job_index in &parties[unit.prep] {
                            if !requests[job_index].1.cancel.is_cancelled() {
                                sink(SliceEvent::Slice {
                                    job_index,
                                    slice_index: unit.eps,
                                    result: slice.clone(),
                                });
                            }
                        }
                    }
                }
                Some(result)
            };
            // Last unit of the job frees its arena — on the executed
            // *and* the cancelled path — so peak memory tracks the
            // jobs in flight and an abort can never leak its arena.
            if slot.remaining_units.fetch_sub(1, Ordering::AcqRel) == 1 {
                let freed = slot.arena.lock().expect("prep slot poisoned").take();
                if let Some(freed) = freed {
                    // Monotone-safe: `Gauge::sub` saturates at zero and
                    // debug-asserts on underflow, so a double free can
                    // never wrap the gauge to ~2⁶⁴.
                    self.metrics.arena_bytes_live.sub(freed.arena_bytes() as u64);
                }
            }
            result
        });

        // Scatter unit results back into (job, ε, dim) slots — the
        // assembly below is then independent of the interleaved unit
        // order.
        let mut per_job: PerJobResults = misses
            .iter()
            .map(|&j| {
                vec![vec![None; requests[j].0.max_homology_dim + 1]; requests[j].0.epsilons.len()]
            })
            .collect();
        for (unit, est) in units.iter().zip(estimates) {
            per_job[unit.prep][unit.eps][unit.dim] = est;
        }

        // One cancellation snapshot drives both cache admission and
        // outcome delivery below, so the two can never disagree: a
        // request delivered as `Aborted(Cancelled)` is guaranteed to
        // have left nothing in the cache, even when the cancel landed
        // after the last unit's boundary check (a fast job can finish
        // all its units before a cancel issued mid-stream arrives).
        let cancelled: Vec<bool> =
            requests.iter().map(|(_, qos, ..)| qos.cancel.is_cancelled()).collect();

        // Assemble per computed job, publish to the cache, then resolve
        // the in-batch duplicates through their representative miss.
        // Aborted jobs are **skipped entirely**: no partial result is
        // assembled, nothing touches the LRU — neither an entry nor a
        // doorkeeper sighting — so an abort can never poison future
        // lookups. Colliding requests overwrite each other's cache slot
        // (last wins); the loser's next lookup fails verification and
        // simply recomputes.
        {
            let mut cache = self.cache.lock().expect("cache poisoned");
            for (p, &job_idx) in misses.iter().enumerate() {
                if preps[p].aborted.load(Ordering::Acquire) != ABORT_NONE
                    || parties[p].iter().all(|&i| cancelled[i])
                {
                    continue;
                }
                let job = requests[job_idx].0;
                let js = job_seed(self.config.batch_seed, fingerprints[job_idx]);
                let slices: Vec<SliceResult> = job
                    .epsilons
                    .iter()
                    .enumerate()
                    .map(|(e, &eps)| {
                        assemble_slice_result(
                            eps,
                            slice_seed(js, eps),
                            job.persistence,
                            &per_job[p][e],
                        )
                    })
                    .collect();
                // The last grid scale's units reduced their dimension's
                // diagram against the full arena — collect them once
                // per job, in dimension order.
                let diagrams = (job.persistence && !job.epsilons.is_empty()).then(|| {
                    let last = &per_job[p][job.epsilons.len() - 1];
                    PersistenceDiagrams {
                        dim_lo: 0,
                        diagrams: last
                            .iter()
                            .map(|slot| {
                                slot.as_ref()
                                    .and_then(|(_, _, persist)| persist.as_ref())
                                    .and_then(|persist| persist.bars.clone())
                                    .expect("every last-scale persistence unit reduced its diagram")
                            })
                            .collect(),
                    }
                });
                let result = Arc::new(JobResult {
                    fingerprint: fingerprints[job_idx],
                    job_seed: js,
                    slices,
                    diagrams,
                });
                cache.insert(
                    fingerprints[job_idx],
                    Arc::new(CachedJob { job: job.clone(), result: Arc::clone(&result) }),
                );
                results[job_idx] = Some(result);
            }
            // Mirror the cache's eviction count into its gauge while
            // the lock is held, so an exposition scraped right after
            // the batch is current.
            self.metrics.cache_evictions.set(cache.evictions());
        }

        // Outcomes, per original request: cancellation is honoured at
        // delivery (a cancelled request reports Aborted even when a
        // duplicate kept the computation alive, and even on a cache
        // hit); otherwise a resolved result completes and anything else
        // aborted engine-side. Delivery reads the same `cancelled`
        // snapshot that gated cache admission — see above.
        let now = Instant::now();
        (0..requests.len())
            .map(|i| {
                if cancelled[i] {
                    self.metrics.jobs_cancelled.inc();
                    record_event(
                        &self.recorder,
                        EventKind::Abort,
                        requests[i].3,
                        fingerprints[i],
                        || "reason=cancelled".to_string(),
                    );
                    return JobOutcome::Aborted(AbortReason::Cancelled);
                }
                let resolved = match (&results[i], dup_of[i]) {
                    (Some(r), _) => Some(Arc::clone(r)),
                    (None, Some(rep)) => results[rep].as_ref().map(Arc::clone),
                    (None, None) => None,
                };
                match resolved {
                    Some(result) => {
                        self.metrics.served_by_class[requests[i].1.priority.index()].inc();
                        JobOutcome::Completed(result)
                    }
                    None => {
                        // The computed job was abandoned; this request's
                        // own policy names the reason (all parties had
                        // one — cancellation was handled above, so this
                        // is a deadline).
                        let reason = requests[i]
                            .1
                            .abort_reason(now)
                            .unwrap_or(AbortReason::DeadlineExceeded);
                        self.metrics.jobs_deadline_expired.inc();
                        record_event(
                            &self.recorder,
                            EventKind::Abort,
                            requests[i].3,
                            fingerprints[i],
                            || format!("reason={reason}"),
                        );
                        JobOutcome::Aborted(reason)
                    }
                }
            })
            .collect()
    }
}

/// What one `(job, ε, dim)` unit produces: the estimate, the classical
/// cross-check, and (persistence jobs only) the persistence payload.
type UnitOutput = (BettiEstimate, usize, Option<UnitPersist>);

/// The persistence payload of one `(ε, dim)` unit: the dimension's
/// persistent-Betti row over the grid prefix ending at this ε, plus —
/// for the last grid scale only — the dimension's reduced diagram.
#[derive(Clone, Debug)]
struct UnitPersist {
    row: Vec<usize>,
    bars: Option<Vec<PersistencePair>>,
}

/// Assembles one [`SliceResult`] from its per-dimension unit outputs —
/// the single body behind both the streaming announcement and the final
/// collection, so the two can never drift.
fn assemble_slice_result(
    epsilon: f64,
    seed: u64,
    persistence: bool,
    per_dim: &[Option<UnitOutput>],
) -> SliceResult {
    fn landed(slot: &Option<UnitOutput>) -> &UnitOutput {
        slot.as_ref().expect("every dimension unit landed")
    }
    let persistence = persistence.then(|| SlicePersistence {
        dim_lo: 0,
        rows: per_dim
            .iter()
            .map(|slot| {
                landed(slot).2.as_ref().expect("persistence units carry their row").row.clone()
            })
            .collect(),
    });
    SliceResult {
        epsilon,
        seed,
        estimates: per_dim.iter().map(|slot| landed(slot).0).collect(),
        classical: per_dim.iter().map(|slot| landed(slot).1).collect(),
        persistence,
    }
}

/// Scattered unit results, indexed `[miss job][ε index][dimension]`.
type PerJobResults = Vec<Vec<Vec<Option<UnitOutput>>>>;

/// A cache entry: the served result together with the request it
/// answers, so a fingerprint collision is caught by content
/// verification instead of returning another request's results.
struct CachedJob {
    job: BettiJob,
    result: Arc<JobResult>,
}

/// A `(job, ε, dim)` estimation unit.
struct Unit {
    prep: usize,
    eps: usize,
    dim: usize,
}

/// Builds the priority-ordered unit queue the shared counter drains:
/// one bucket per [`Priority`] class (Interactive first, Bulk last),
/// each bucket interleaved round-robin across worker-sized windows.
/// Windows never straddle a class boundary — a mixed window would
/// round-robin lower-class units in among higher-class ones and push an
/// Interactive job's tail behind Bulk work. Within a bucket, jobs keep
/// their submission order, so an all-Normal batch reproduces the
/// historical FIFO interleaving exactly (and one worker degenerates to
/// the contiguous per-job order that maximises cache locality).
///
/// `unit_counts[p]` is job `p`'s total unit count, `dims_of[p]` its
/// homology-dimension count (`round = eps · dims + dim`).
fn build_unit_queue(
    class_of: &[Priority],
    unit_counts: &[usize],
    dims_of: &[usize],
    workers: usize,
) -> Vec<Unit> {
    let mut units = Vec::with_capacity(unit_counts.iter().sum());
    for class in Priority::CLASSES {
        let bucket: Vec<usize> = (0..class_of.len()).filter(|&p| class_of[p] == class).collect();
        for block in bucket.chunks(workers.max(1)) {
            let mut emitted_any = true;
            let mut round = 0usize;
            while emitted_any {
                emitted_any = false;
                for &p in block {
                    if round < unit_counts[p] {
                        units.push(Unit {
                            prep: p,
                            eps: round / dims_of[p],
                            dim: round % dims_of[p],
                        });
                        emitted_any = true;
                    }
                }
                round += 1;
            }
        }
    }
    units
}

/// `PrepSlot::aborted` values: active vs. abandoned.
const ABORT_NONE: u8 = 0;
const ABORT_FLAGGED: u8 = 1;

/// Lazily built, eagerly freed per-job arena storage: one
/// [`LaplacianFiltration`] shared by every `(ε, dim)` unit of the job,
/// plus the job's abort latch (set once, by the first unit whose
/// boundary check observes every interested request aborting) and the
/// job's [`SpectrumShare`] — many ε on the same grid slice to the same
/// activation-sorted triplet prefix, so their sparse units reuse one
/// Lanczos decomposition instead of re-running it per ε (spectra are
/// content-pure, so sharing never changes a unit's bits).
struct PrepSlot {
    arena: Mutex<Option<Arc<LaplacianFiltration>>>,
    spectra: SpectrumShare,
    remaining_units: AtomicUsize,
    aborted: AtomicU8,
}

/// Streaming bookkeeping for one `(job, ε)` slice: per-dimension results
/// land here as their units complete, and the countdown reaching zero is
/// the moment the slice is announced to the sink.
struct StreamSlot {
    dims: Mutex<Vec<Option<UnitOutput>>>,
    remaining: AtomicUsize,
}

/// Runs `f(0..n)` on `workers` threads pulling unit indices from a
/// shared counter (dynamic assignment ≙ work stealing at unit
/// granularity), returning results in unit order. `f` must be a pure
/// function of the index — that, plus index-ordered collection, is what
/// makes engine output independent of scheduling. (QoS abort checks
/// make `f`'s *side effects* time-dependent, but never the value of a
/// completed job: a unit either returns its content-pure estimate or
/// `None`.)
///
/// Deliberately scoped threads rather than the vendored-rayon global
/// pool: the serving contract is "bit-identical at any worker count",
/// so the count must be an explicit, testable parameter (the global
/// pool's size is fixed at process level). The spawn cost is paid once
/// per *batch*, not per kernel — the fine-grained per-call cost the
/// global pool exists to remove.
fn run_units<T: Send>(workers: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..workers.min(n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                out.lock().expect("unit worker panicked").push((i, r));
            });
        }
    });
    let mut v = out.into_inner().expect("unit worker panicked");
    v.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(v.len(), n);
    v.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtda_tda::point_cloud::PointCloud;

    fn job(coords: Vec<f64>) -> BettiJob {
        BettiJob::new(PointCloud::new(2, coords), vec![0.6, 1.2])
    }

    #[test]
    fn run_units_preserves_order_across_worker_counts() {
        let serial = run_units(1, 37, |i| i * i);
        for workers in [2, 3, 8] {
            assert_eq!(run_units(workers, 37, |i| i * i), serial);
        }
        assert!(run_units(4, 0, |i| i).is_empty());
    }

    #[test]
    fn duplicate_jobs_in_one_batch_compute_once() {
        let engine = BatchEngine::with_defaults();
        let j = job(vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0]);
        let results = engine.run_batch(&[j.clone(), j.clone(), j]);
        assert_eq!(engine.stats().computed_jobs, 1);
        assert_eq!(engine.stats().deduplicated, 2);
        assert!(Arc::ptr_eq(&results[0], &results[1]));
        assert!(Arc::ptr_eq(&results[0], &results[2]));
    }

    #[test]
    fn second_batch_hits_the_cache() {
        let engine = BatchEngine::with_defaults();
        let j = job(vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0]);
        let first = engine.run_batch(std::slice::from_ref(&j));
        let second = engine.run_batch(std::slice::from_ref(&j));
        assert_eq!(engine.stats().computed_jobs, 1);
        assert_eq!(engine.stats().cache_hits, 1);
        assert!(Arc::ptr_eq(&first[0], &second[0]), "cache returns the shared result");
    }

    #[test]
    fn zero_capacity_cache_recomputes_identically() {
        let engine =
            BatchEngine::new(EngineConfig { cache_capacity: 0, ..EngineConfig::default() });
        let j = job(vec![0.0, 0.0, 2.0, 0.0, 0.0, 2.0, 2.0, 2.0]);
        let a = engine.run_job(&j);
        let b = engine.run_job(&j);
        assert_eq!(engine.stats().computed_jobs, 2, "nothing cached");
        assert_eq!(a.features(), b.features(), "recompute is bit-identical anyway");
    }

    #[test]
    fn empty_grid_job_yields_no_slices() {
        let engine = BatchEngine::with_defaults();
        let mut j = job(vec![0.0, 0.0, 1.0, 0.0]);
        j.epsilons.clear();
        let r = engine.run_job(&j);
        assert!(r.slices.is_empty());
        assert!(r.features().is_empty());
    }

    /// Every job index — computed, duplicated, or cache-answered — must
    /// receive each of its slices exactly once, bit-identical to the
    /// returned results.
    #[test]
    fn streaming_sink_covers_hits_duplicates_and_computes() {
        let engine = BatchEngine::with_defaults();
        let a = job(vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0]);
        let b = job(vec![0.0, 0.0, 2.0, 0.0, 0.0, 2.0, 2.0, 2.0]);
        engine.run_job(&a); // put `a` in the cache
        let jobs = [b.clone(), a.clone(), b]; // compute, hit, duplicate
        let events: Mutex<Vec<SliceEvent>> = Mutex::new(Vec::new());
        let results =
            engine.run_batch_streaming(&jobs, &|ev| events.lock().expect("sink poisoned").push(ev));
        let events = events.into_inner().expect("sink poisoned");
        let expected: usize = jobs.iter().map(|j| j.epsilons.len()).sum();
        assert_eq!(events.len(), expected, "one event per (job, slice)");
        for (i, (jb, result)) in jobs.iter().zip(&results).enumerate() {
            for slice_index in 0..jb.epsilons.len() {
                let matching: Vec<&SliceResult> = events
                    .iter()
                    .filter_map(|e| match e {
                        SliceEvent::Slice { job_index, slice_index: s, result }
                            if *job_index == i && *s == slice_index =>
                        {
                            Some(result)
                        }
                        _ => None,
                    })
                    .collect();
                assert_eq!(matching.len(), 1, "job {i} slice {slice_index} announced once");
                let streamed = matching[0];
                let returned = &result.slices[slice_index];
                assert_eq!(streamed.seed, returned.seed);
                assert_eq!(streamed.classical, returned.classical);
                for (s, r) in streamed.features().iter().zip(returned.features()) {
                    assert_eq!(s.to_bits(), r.to_bits(), "job {i} slice {slice_index}");
                }
            }
        }
    }

    #[test]
    fn streaming_and_collect_paths_are_bit_identical() {
        let jobs =
            [job(vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0]), job(vec![0.0, 0.0, 2.0, 0.0, 0.0, 2.0])];
        let collected =
            BatchEngine::new(EngineConfig { cache_capacity: 0, ..EngineConfig::default() })
                .run_batch(&jobs);
        let streamed =
            BatchEngine::new(EngineConfig { cache_capacity: 0, ..EngineConfig::default() })
                .run_batch_streaming(&jobs, &|_| {});
        for (c, s) in collected.iter().zip(&streamed) {
            assert_eq!(c.fingerprint, s.fingerprint);
            for (a, b) in c.features().iter().zip(s.features()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// A forged fingerprint collision (another request's entry planted
    /// under this job's key) must degrade to a recompute — never to
    /// serving the other request's results.
    #[test]
    fn fingerprint_collision_recomputes_instead_of_serving_wrong_results() {
        let engine = BatchEngine::with_defaults();
        let a = job(vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0]);
        let b = job(vec![0.0, 0.0, 3.0, 0.0, 0.0, 3.0, 3.0, 3.0]);
        let result_a = engine.run_job(&a);
        // Plant A's cached entry under B's fingerprint, as a real 64-bit
        // collision would.
        engine.cache.lock().expect("cache poisoned").insert(
            b.fingerprint(),
            Arc::new(CachedJob { job: a.clone(), result: Arc::clone(&result_a) }),
        );
        let result_b = engine.run_job(&b);
        assert_eq!(engine.stats().computed_jobs, 2, "the collision must recompute");
        assert_eq!(engine.stats().cache_hits, 0);
        let fresh = BatchEngine::with_defaults().run_job(&b);
        assert_eq!(result_b.fingerprint, fresh.fingerprint);
        for (x, y) in result_b.features().iter().zip(fresh.features()) {
            assert_eq!(x.to_bits(), y.to_bits(), "recompute serves B's own results");
        }
    }

    #[test]
    fn forged_in_batch_collision_runs_jobs_independently() {
        // Two *different* jobs forged onto one fingerprint, as a real
        // 64-bit collision inside a single batch would present: the
        // dedup plan must verify the full content stream and fall back
        // to independent execution, never collapse B onto A.
        let a = job(vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0]);
        let b = job(vec![0.0, 0.0, 3.0, 0.0, 0.0, 3.0, 3.0, 3.0]);
        let a2 = a.clone();
        let jobs: Vec<&BettiJob> = vec![&a, &b, &a2];
        let forged = vec![0xDEAD_BEEF_u64; 3]; // all three collide
        let (misses, dup_of) = plan_dedup(&jobs, &forged, &[0, 1, 2]);
        assert_eq!(misses, vec![0, 1], "A and B each compute independently");
        assert_eq!(dup_of[0], None);
        assert_eq!(dup_of[1], None, "the forged collision must not dedup B onto A");
        assert_eq!(dup_of[2], Some(0), "the genuine duplicate still collapses onto A");
        // End to end: the engine's own (honest) fingerprints plus the
        // verified plan serve each job its own results.
        let engine = BatchEngine::new(EngineConfig { cache_capacity: 0, ..Default::default() });
        let batch = engine.run_batch(&[a.clone(), b.clone(), a.clone()]);
        assert_eq!(engine.stats().computed_jobs, 2);
        assert_eq!(engine.stats().deduplicated, 1);
        let b_alone =
            BatchEngine::new(EngineConfig { cache_capacity: 0, ..Default::default() }).run_job(&b);
        for (x, y) in batch[1].features().iter().zip(b_alone.features()) {
            assert_eq!(x.to_bits(), y.to_bits(), "B keeps its own results in the mixed batch");
        }
    }

    #[test]
    fn doorkeeper_keeps_hot_entries_through_one_shot_scans() {
        let engine = BatchEngine::new(EngineConfig {
            cache_capacity: 2,
            cache_doorkeeper: true,
            ..EngineConfig::default()
        });
        let hot = job(vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0]);
        engine.run_job(&hot); // first sighting: computed, not admitted
        engine.run_job(&hot); // second sighting: recomputed and admitted
        assert_eq!(engine.stats().cache_hits, 0);
        // A scan of one-shot windows (each seen once) must not evict it.
        for i in 0..6 {
            engine.run_job(&job(vec![0.0, 0.0, 1.0 + i as f64, 0.0]));
        }
        engine.run_job(&hot);
        let stats = engine.stats();
        assert_eq!(stats.cache_hits, 1, "the hot entry survived the scan");
        assert_eq!(stats.cache_evictions, 0, "one-shot traffic was never admitted");
        assert_eq!(stats.cache_misses, stats.jobs_served - 1);
    }

    #[test]
    fn stats_track_batches_and_units() {
        let engine = BatchEngine::with_defaults();
        let j = job(vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0]);
        engine.run_batch(std::slice::from_ref(&j));
        let first = engine.stats();
        assert_eq!(first.batches_served, 1);
        assert_eq!(first.units_last_batch, 4, "2 ε × 2 dims");
        assert_eq!(first.cache_misses, 1);
        assert_eq!(first.served_normal, 1, "plain batches serve in the Normal class");
        assert_eq!(first.units_cancelled, 0);
        engine.run_batch(std::slice::from_ref(&j)); // all hits → no units
        let second = engine.stats();
        assert_eq!(second.batches_served, 2);
        assert_eq!(second.units_last_batch, 0);
        assert_eq!(second.served_normal, 2);
        assert!((second.mean_units_per_batch() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn arena_counters_track_builds_reuse_and_peak_bytes() {
        // Serial worker: the arena is built by the first unit and every
        // later unit of the job reads it incrementally.
        let engine = BatchEngine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
        let j = job(vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0]); // 2 ε × 2 dims = 4 units
        engine.run_job(&j);
        let stats = engine.stats();
        assert_eq!(stats.arenas_built, 1, "one arena per computed job");
        assert_eq!(
            stats.slices_assembled_incrementally, 3,
            "all units after the first reuse the arena"
        );
        assert!(stats.arena_bytes_peak > 0);
        assert_eq!(stats.arena_bytes_live, 0, "the last unit freed the arena");
        // A cache hit runs no units and builds nothing new.
        engine.run_job(&j);
        let after = engine.stats();
        assert_eq!(after.arenas_built, 1);
        assert_eq!(after.slices_assembled_incrementally, 3);
    }

    #[test]
    fn slices_come_back_in_grid_order() {
        let engine = BatchEngine::with_defaults();
        let mut j = job(vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0]);
        j.epsilons = vec![1.2, 0.3, 0.9];
        let r = engine.run_job(&j);
        let served: Vec<f64> = r.slices.iter().map(|s| s.epsilon).collect();
        assert_eq!(served, vec![1.2, 0.3, 0.9]);
    }

    #[test]
    fn qos_batch_with_default_policies_matches_run_batch() {
        let jobs =
            [job(vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0]), job(vec![0.0, 0.0, 2.0, 0.0, 0.0, 2.0])];
        let reference =
            BatchEngine::new(EngineConfig { cache_capacity: 0, ..EngineConfig::default() })
                .run_batch(&jobs);
        let engine =
            BatchEngine::new(EngineConfig { cache_capacity: 0, ..EngineConfig::default() });
        let outcomes =
            engine.run_batch_qos(&jobs.iter().cloned().map(JobRequest::new).collect::<Vec<_>>());
        for (outcome, reference) in outcomes.iter().zip(&reference) {
            let result = outcome.result().expect("default QoS always completes");
            for (a, b) in result.features().iter().zip(reference.features()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn cancelled_request_aborts_without_touching_the_cache() {
        let engine = BatchEngine::with_defaults();
        let j = job(vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0]);
        let qos = QosPolicy::default();
        qos.cancel_token().cancel();
        let outcomes = engine.run_batch_qos(&[JobRequest::with_qos(j.clone(), qos)]);
        assert!(
            matches!(outcomes[0], JobOutcome::Aborted(AbortReason::Cancelled)),
            "pre-cancelled request must abort"
        );
        let stats = engine.stats();
        assert_eq!(stats.jobs_cancelled, 1);
        assert_eq!(stats.units_cancelled, 4, "2 ε × 2 dims all skipped");
        assert_eq!(stats.units_executed, 0);
        assert_eq!(stats.arena_bytes_live, 0, "no arena survives an abort");
        // Nothing was cached: the next run computes from scratch.
        engine.run_job(&j);
        assert_eq!(engine.stats().cache_hits, 0);
    }

    #[test]
    fn expired_deadline_aborts_while_a_live_duplicate_completes() {
        // Two identical jobs, one with an already-expired deadline: the
        // computation must stay alive for the healthy duplicate, and
        // the expired request still gets its own result (abort needs
        // *all* parties — here the healthy one holds the job open, and
        // a completed job serves everyone who didn't cancel).
        let engine = BatchEngine::with_defaults();
        let j = job(vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0]);
        let expired =
            QosPolicy::default().with_deadline(Instant::now() - std::time::Duration::from_secs(1));
        let outcomes = engine
            .run_batch_qos(&[JobRequest::with_qos(j.clone(), expired), JobRequest::new(j.clone())]);
        let healthy = outcomes[1].result().expect("healthy duplicate completes");
        let via_expired = outcomes[0]
            .result()
            .expect("the duplicate kept the job alive, so the ready answer is delivered");
        assert!(Arc::ptr_eq(healthy, via_expired));
        assert_eq!(engine.stats().units_cancelled, 0, "no unit was skipped");
    }

    #[test]
    fn solo_expired_deadline_is_abandoned_at_the_first_unit() {
        let engine = BatchEngine::with_defaults();
        let j = job(vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0]);
        let expired =
            QosPolicy::default().with_deadline(Instant::now() - std::time::Duration::from_secs(1));
        let outcomes = engine.run_batch_qos(&[JobRequest::with_qos(j, expired)]);
        assert!(matches!(outcomes[0], JobOutcome::Aborted(AbortReason::DeadlineExceeded)));
        let stats = engine.stats();
        assert_eq!(stats.jobs_deadline_expired, 1);
        assert_eq!(stats.units_cancelled, 4);
        assert_eq!(stats.units_executed, 0);
    }

    /// Worker windows must never straddle a class boundary, or the
    /// round-robin would interleave Bulk units among Interactive ones
    /// and push an express job's tail behind throughput work. Pinned on
    /// the queue construction itself (pure, scheduling-free).
    #[test]
    fn unit_queue_windows_never_straddle_class_boundaries() {
        // 1 Interactive + 2 Bulk jobs, 4 units each (2 ε × 2 dims),
        // 2 workers: all Interactive units precede every Bulk unit —
        // the straddling window [I, B] would emit I, B, I, B, … — and
        // the Bulk bucket keeps the worker-window interleaving.
        let classes = [Priority::Bulk, Priority::Interactive, Priority::Bulk];
        let queue = build_unit_queue(&classes, &[4, 4, 4], &[2, 2, 2], 2);
        let preps: Vec<usize> = queue.iter().map(|u| u.prep).collect();
        assert_eq!(preps[..4], [1, 1, 1, 1], "interactive bucket drains first: {preps:?}");
        assert_eq!(preps[4..], [0, 2, 0, 2, 0, 2, 0, 2], "bulk window round-robin: {preps:?}");
        // Units within a job stay row-major over (ε, dim).
        assert_eq!((queue[0].eps, queue[0].dim), (0, 0));
        assert_eq!((queue[1].eps, queue[1].dim), (0, 1));
        assert_eq!((queue[2].eps, queue[2].dim), (1, 0));

        // All-Normal reproduces the historical FIFO interleaving:
        // worker-sized windows over submission order.
        let fifo = build_unit_queue(&[Priority::Normal; 3], &[4, 4, 4], &[2, 2, 2], 2);
        let fifo_preps: Vec<usize> = fifo.iter().map(|u| u.prep).collect();
        assert_eq!(fifo_preps, [0, 1, 0, 1, 0, 1, 0, 1, 2, 2, 2, 2]);

        // Uneven unit counts drain without gaps or duplicates.
        let ragged = build_unit_queue(&[Priority::Normal, Priority::Normal], &[2, 6], &[2, 2], 2);
        let mut seen = std::collections::HashSet::new();
        for u in &ragged {
            assert!(seen.insert((u.prep, u.eps, u.dim)), "duplicate unit");
        }
        assert_eq!(ragged.len(), 8);
    }

    #[test]
    fn priority_ordering_moves_interactive_units_first() {
        // One worker, three jobs in Bulk/Normal/Interactive submission
        // order: the interleaved unit queue must start with the
        // interactive job's units. Observed through the streaming sink's
        // completion order (serial worker ⇒ queue order).
        let engine = BatchEngine::new(EngineConfig {
            workers: 1,
            cache_capacity: 0,
            ..EngineConfig::default()
        });
        let jobs = [
            JobRequest::with_qos(job(vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0]), QosPolicy::bulk()),
            JobRequest::with_qos(job(vec![0.0, 0.0, 2.0, 0.0, 0.0, 2.0]), QosPolicy::normal()),
            JobRequest::with_qos(job(vec![0.0, 0.0, 3.0, 0.0, 0.0, 3.0]), QosPolicy::interactive()),
        ];
        let first_done: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let outcomes = engine.run_batch_streaming_qos(&jobs, &|event| {
            if let SliceEvent::Slice { job_index, .. } = event {
                first_done.lock().expect("sink poisoned").push(job_index);
            }
        });
        assert!(outcomes.iter().all(|o| o.result().is_some()));
        let order = first_done.into_inner().expect("sink poisoned");
        assert_eq!(order[0], 2, "the interactive job's first slice completes first: {order:?}");
        assert_eq!(*order.last().expect("slices streamed"), 0, "bulk finishes last: {order:?}");
        let stats = engine.stats();
        assert_eq!(
            (stats.served_interactive, stats.served_normal, stats.served_bulk),
            (1, 1, 1),
            "per-class served counts"
        );
    }

    #[test]
    fn engine_stats_are_a_view_over_the_metrics_registry() {
        let engine = BatchEngine::with_defaults();
        let j = job(vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0]);
        engine.run_batch(&[j.clone(), j]);
        let stats = engine.stats();
        let snap = engine.registry().snapshot();
        assert_eq!(snap.counter("qtda_engine_jobs_served_total"), stats.jobs_served);
        assert_eq!(snap.counter("qtda_engine_cache_misses_total"), stats.cache_misses);
        assert_eq!(snap.counter("qtda_engine_deduplicated_total"), stats.deduplicated);
        assert_eq!(snap.counter("qtda_engine_units_executed_total"), stats.units_executed);
        assert_eq!(snap.counter_family("qtda_engine_served_total"), 2);
        assert_eq!(snap.gauge("qtda_engine_arena_bytes_live"), 0);
        assert_eq!(snap.gauge("qtda_engine_arena_bytes_peak"), stats.arena_bytes_peak);
        let exposition = snap.to_prometheus();
        assert!(
            exposition.contains("qtda_engine_served_total{class=\"normal\"} 2"),
            "per-class served sample missing:\n{exposition}"
        );
        assert!(exposition.contains("# TYPE qtda_engine_arena_bytes_live gauge"));
    }

    /// The `arena_bytes_live` regression the saturating gauge guards:
    /// a mid-batch cancellation of *both* parties sharing one computed
    /// arena must drain the gauge to exactly zero through the
    /// cancelled-unit free path.
    #[test]
    fn mid_batch_cancellation_frees_the_shared_arena_to_exactly_zero() {
        let engine = BatchEngine::new(EngineConfig {
            workers: 1,
            cache_capacity: 0,
            ..EngineConfig::default()
        });
        let mut j = job(vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0]);
        j.epsilons = vec![0.4, 0.8, 1.2]; // 3 ε × 2 dims = 6 units
        let qos_a = QosPolicy::default();
        let qos_b = QosPolicy::default();
        let (token_a, token_b) = (qos_a.cancel_token(), qos_b.cancel_token());
        let requests = [JobRequest::with_qos(j.clone(), qos_a), JobRequest::with_qos(j, qos_b)];
        // Serial worker: the first completed slice cancels both
        // parties, so the next unit's boundary check abandons the job
        // with the arena still resident.
        let outcomes = engine.run_batch_streaming_qos(&requests, &|event| {
            if matches!(event, SliceEvent::Slice { .. }) {
                token_a.cancel();
                token_b.cancel();
            }
        });
        for outcome in &outcomes {
            assert!(matches!(outcome, JobOutcome::Aborted(AbortReason::Cancelled)));
        }
        let stats = engine.stats();
        assert!(stats.units_executed >= 2, "the first slice's units ran");
        assert!(stats.units_cancelled >= 1, "cancellation skipped the tail");
        assert!(stats.arena_bytes_peak > 0, "an arena was resident");
        assert_eq!(stats.arena_bytes_live, 0, "the cancelled free path drained the gauge");
    }

    #[test]
    fn per_request_traces_record_stage_spans() {
        let engine = BatchEngine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
        let j = job(vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0]);
        let tracer = Tracer::new();
        let outcomes =
            engine.run_batch_qos(&[JobRequest::new(j.clone()).with_trace(tracer.clone())]);
        assert!(outcomes[0].result().is_some());
        let trace = tracer.snapshot().expect("live tracer");
        #[cfg(feature = "obs")]
        {
            assert!(trace.stage("cache_probe").is_some());
            assert!(trace.stage("arena_build").is_some());
            let solves = trace.spans.iter().filter(|s| s.name == "solve").count();
            assert_eq!(solves, 4, "one solve span per (ε, dim) unit");
        }
        #[cfg(not(feature = "obs"))]
        assert!(trace.spans.is_empty(), "spans compile away without the obs feature");

        // A cache-answered repeat probes but never builds or solves.
        let repeat = Tracer::new();
        engine.run_batch_qos(&[JobRequest::new(j).with_trace(repeat.clone())]);
        let trace = repeat.snapshot().expect("live tracer");
        assert!(trace.stage("arena_build").is_none());
        assert!(trace.stage("solve").is_none());
    }

    /// The determinism contract observability rides under: attaching a
    /// live registry and per-request tracers changes no output bit, and
    /// neither does a fully disabled registry.
    #[test]
    fn telemetry_never_changes_result_bits() {
        let jobs =
            [job(vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0]), job(vec![0.0, 0.0, 2.0, 0.0, 0.0, 2.0])];
        let config = EngineConfig { cache_capacity: 0, ..EngineConfig::default() };
        let reference = BatchEngine::new(config).run_batch(&jobs);
        for registry in [MetricsRegistry::new(), MetricsRegistry::disabled()] {
            let engine = BatchEngine::with_observability(config, Arc::new(registry), None);
            let traced: Vec<JobRequest> =
                jobs.iter().map(|j| JobRequest::new(j.clone()).with_trace(Tracer::new())).collect();
            let outcomes = engine.run_batch_qos(&traced);
            for (outcome, reference) in outcomes.iter().zip(&reference) {
                let result = outcome.result().expect("default QoS completes");
                assert_eq!(result.fingerprint, reference.fingerprint);
                for (a, b) in result.features().iter().zip(reference.features()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[cfg(feature = "obs")]
    #[test]
    fn sparse_units_feed_the_solver_cost_counters() {
        use qtda_tda::point_cloud::synthetic;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(23);
        let cloud = synthetic::circle(14, 1.0, 0.02, &mut rng);
        let engine = BatchEngine::new(EngineConfig {
            dispatch: Some(DispatchPolicy::from_sparse_threshold(1)),
            cache_capacity: 0,
            ..EngineConfig::default()
        });
        engine.run_job(&BettiJob::new(cloud, vec![0.6]));
        let snap = engine.registry().snapshot();
        assert!(
            snap.counter("qtda_engine_solve_matvecs_total") > 0,
            "sparse units report their matvec spend"
        );
        assert!(snap.counter("qtda_engine_lanczos_iterations_total") > 0);
    }
}
