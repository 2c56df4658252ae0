//! Serving counters for the streaming front-end.
//!
//! [`ServiceStats`] is a point-in-time snapshot of the service's own
//! monotone counters — submissions (total and per priority class),
//! rejections, micro-batch shapes, completions, and aborts —
//! complementing the engine-level
//! [`EngineStats`](qtda_engine::EngineStats) (cache, dedup, units,
//! per-class served counts) available through
//! `QtdaService::engine().stats()`.
//!
//! The storage behind both is the service's [`MetricsRegistry`]:
//! `Counters` is a bundle of `qtda_service_*` metric handles, so the
//! same numbers that feed `ServiceStats` appear in the Prometheus/JSON
//! exposition — alongside the per-class request latency histogram
//! (`qtda_service_request_seconds`) and the queue-wait histogram
//! (`qtda_service_queue_wait_seconds`) that have no `ServiceStats`
//! field at all.

use qtda_engine::{AbortReason, Priority};
use qtda_obs::{Counter, Gauge, Histogram, MetricsRegistry, DEFAULT_LATENCY_BUCKETS};
use std::time::Duration;

/// A snapshot of the service's serving counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStats {
    /// Jobs accepted into the submission queue (all classes).
    pub submitted: u64,
    /// Jobs accepted in the `Interactive` class.
    pub submitted_interactive: u64,
    /// Jobs accepted in the `Normal` class.
    pub submitted_normal: u64,
    /// Jobs accepted in the `Bulk` class.
    pub submitted_bulk: u64,
    /// `try_submit` calls refused with `Overloaded` (backpressure).
    pub rejected_overloaded: u64,
    /// Micro-batches handed to the engine.
    pub batches_formed: u64,
    /// Jobs across all micro-batches (≤ `submitted`; the rest are
    /// queued, in flight, or were aborted before batching).
    pub jobs_batched: u64,
    /// Largest micro-batch formed so far.
    pub largest_batch: u64,
    /// Jobs fully served (final result delivered to their ticket).
    pub completed: u64,
    /// Jobs terminated by cancellation — whether while queued or
    /// mid-computation.
    pub cancelled: u64,
    /// Jobs terminated by an expired deadline — whether while queued or
    /// mid-computation.
    pub deadline_expired: u64,
}

impl ServiceStats {
    /// Mean jobs per micro-batch formed so far.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches_formed == 0 {
            0.0
        } else {
            self.jobs_batched as f64 / self.batches_formed as f64
        }
    }

    /// Jobs that reached a terminal state (completed or aborted).
    pub fn resolved(&self) -> u64 {
        self.completed + self.cancelled + self.deadline_expired
    }
}

/// The service's handles into its metrics registry — the storage
/// behind [`ServiceStats`]. Every handle is one atomic cell; no lock
/// is taken after registration.
#[derive(Debug)]
pub(crate) struct Counters {
    submitted_by_class: [Counter; 3],
    pub rejected_overloaded: Counter,
    batches_formed: Counter,
    jobs_batched: Counter,
    largest_batch: Gauge,
    pub completed: Counter,
    cancelled: Counter,
    deadline_expired: Counter,
    /// End-to-end latency (submission → terminal event) per class.
    request_seconds: [Histogram; 3],
    /// Time from submission to being popped into a micro-batch.
    queue_wait_seconds: Histogram,
}

impl Counters {
    pub fn register(registry: &MetricsRegistry) -> Self {
        let class_counter = |class: &str| {
            registry.counter_with("qtda_service_submitted_total", &[("class", class)])
        };
        let class_histogram = |class: &str| {
            registry.histogram_with(
                "qtda_service_request_seconds",
                &[("class", class)],
                &DEFAULT_LATENCY_BUCKETS,
            )
        };
        Counters {
            submitted_by_class: [
                class_counter("interactive"),
                class_counter("normal"),
                class_counter("bulk"),
            ],
            rejected_overloaded: registry.counter("qtda_service_rejected_overloaded_total"),
            batches_formed: registry.counter("qtda_service_batches_formed_total"),
            jobs_batched: registry.counter("qtda_service_jobs_batched_total"),
            largest_batch: registry.gauge("qtda_service_largest_batch"),
            completed: registry.counter("qtda_service_completed_total"),
            cancelled: registry.counter("qtda_service_cancelled_total"),
            deadline_expired: registry.counter("qtda_service_deadline_expired_total"),
            request_seconds: [
                class_histogram("interactive"),
                class_histogram("normal"),
                class_histogram("bulk"),
            ],
            queue_wait_seconds: registry
                .histogram("qtda_service_queue_wait_seconds", &DEFAULT_LATENCY_BUCKETS),
        }
    }

    pub fn record_submit(&self, priority: Priority) {
        self.submitted_by_class[priority.index()].inc();
    }

    pub fn record_batch(&self, size: u64) {
        self.batches_formed.inc();
        self.jobs_batched.add(size);
        self.largest_batch.set_max(size);
    }

    pub fn record_abort(&self, reason: AbortReason) {
        match reason {
            AbortReason::Cancelled => self.cancelled.inc(),
            AbortReason::DeadlineExceeded => self.deadline_expired.inc(),
        };
    }

    /// One observation in the per-class end-to-end latency histogram.
    pub fn record_request_latency(&self, priority: Priority, latency: Duration) {
        self.request_seconds[priority.index()].observe_duration(latency);
    }

    /// One observation in the submission-to-batch queue-wait histogram.
    pub fn record_queue_wait(&self, wait: Duration) {
        self.queue_wait_seconds.observe_duration(wait);
    }

    pub fn snapshot(&self) -> ServiceStats {
        let by_class: Vec<u64> = self.submitted_by_class.iter().map(Counter::get).collect();
        ServiceStats {
            submitted: by_class.iter().sum(),
            submitted_interactive: by_class[0],
            submitted_normal: by_class[1],
            submitted_bulk: by_class[2],
            rejected_overloaded: self.rejected_overloaded.get(),
            batches_formed: self.batches_formed.get(),
            jobs_batched: self.jobs_batched.get(),
            largest_batch: self.largest_batch.get(),
            completed: self.completed.get(),
            cancelled: self.cancelled.get(),
            deadline_expired: self.deadline_expired.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_recording_tracks_mean_and_max() {
        let registry = MetricsRegistry::new();
        let c = Counters::register(&registry);
        c.record_batch(4);
        c.record_batch(2);
        c.record_batch(6);
        let s = c.snapshot();
        assert_eq!(s.batches_formed, 3);
        assert_eq!(s.jobs_batched, 12);
        assert_eq!(s.largest_batch, 6);
        assert!((s.mean_batch_size() - 4.0).abs() < 1e-12);
        assert_eq!(ServiceStats::default().mean_batch_size(), 0.0);
    }

    #[test]
    fn submissions_and_aborts_count_per_class_and_reason() {
        let registry = MetricsRegistry::new();
        let c = Counters::register(&registry);
        c.record_submit(Priority::Interactive);
        c.record_submit(Priority::Interactive);
        c.record_submit(Priority::Normal);
        c.record_submit(Priority::Bulk);
        c.record_abort(AbortReason::Cancelled);
        c.record_abort(AbortReason::DeadlineExceeded);
        c.record_abort(AbortReason::DeadlineExceeded);
        c.completed.inc();
        let s = c.snapshot();
        assert_eq!(s.submitted, 4);
        assert_eq!((s.submitted_interactive, s.submitted_normal, s.submitted_bulk), (2, 1, 1));
        assert_eq!(s.cancelled, 1);
        assert_eq!(s.deadline_expired, 2);
        assert_eq!(s.resolved(), 4);
    }

    /// The same numbers ServiceStats reports must appear in the
    /// registry's exposition under the `qtda_service_*` families.
    #[test]
    fn counters_publish_into_the_registry() {
        let registry = MetricsRegistry::new();
        let c = Counters::register(&registry);
        c.record_submit(Priority::Normal);
        c.record_submit(Priority::Bulk);
        c.record_batch(2);
        c.record_request_latency(Priority::Normal, Duration::from_millis(3));
        c.record_queue_wait(Duration::from_micros(200));
        let snap = registry.snapshot();
        assert_eq!(snap.counter_family("qtda_service_submitted_total"), 2);
        assert_eq!(snap.counter("qtda_service_batches_formed_total"), 1);
        let exposition = snap.to_prometheus();
        assert!(exposition.contains("qtda_service_submitted_total{class=\"bulk\"} 1"));
        assert!(
            exposition
                .contains("qtda_service_request_seconds_bucket{class=\"normal\",le=\"0.005\"} 1"),
            "per-class latency histogram sample missing:\n{exposition}"
        );
        assert!(exposition.contains("qtda_service_queue_wait_seconds_count 1"));
    }
}
