//! The bounded **priority** submission queue: where backpressure and
//! serving classes live.
//!
//! Producers push [`Request`]s, the batcher thread pops them. The queue
//! holds one ring per [`Priority`] class under a shared capacity bound:
//! [`SubmissionQueue::try_push`] refuses instead of growing
//! ([`SubmitError::Overloaded`]), and [`SubmissionQueue::push_blocking`]
//! parks the producer until a slot frees — the two standard
//! backpressure contracts. Closing the queue
//! ([`SubmissionQueue::close`]) rejects new submissions but lets the
//! batcher drain everything already accepted, which is what gives
//! `shutdown()` its no-lost-work guarantee.
//!
//! **Pop order.** A pop serves the highest-priority non-empty class
//! (Interactive → Normal → Bulk), FIFO within a class. Strict priority
//! starves: sustained interactive load would park bulk work forever, so
//! the queue runs a **bounded bypass** — after `bypass_limit`
//! consecutive pops that jumped past a waiting lower class, the next
//! pop serves the **oldest waiting head among the passed-over classes**
//! and the streak resets. At least every `bypass_limit + 1`-th pop
//! therefore reaches the passed-over tail, and because each bypass
//! picks by arrival age (and every new arrival is strictly newer than
//! the heads already waiting), no individual request — in *any* class —
//! can be bypassed forever. Priority shapes only *when* a request is
//! served, never its results (seeds are content-derived).
//!
//! Built on `Mutex` + `Condvar` in the style of the vendored rayon
//! shim's pool (the environment has no async runtime): one condvar for
//! "no longer full" (producers wait), one for "no longer empty" (the
//! batcher waits, with a deadline while lingering for a micro-batch).

use crate::ticket::TicketEvent;
use qtda_engine::{BettiJob, JobError, Priority, QosPolicy, Tracer};
use qtda_obs::Gauge;
use std::collections::VecDeque;
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// One accepted submission travelling from a producer to the batcher.
pub(crate) struct Request {
    /// The job to serve.
    pub job: BettiJob,
    /// Its quality-of-service policy (class, deadline, cancel token).
    pub qos: QosPolicy,
    /// Where this request's ticket listens.
    pub tx: Sender<TicketEvent>,
    /// When the producer handed the job over (micro-batch deadlines and
    /// latency accounting key off this).
    pub accepted_at: Instant,
    /// Per-ticket stage tracer (disabled unless the service was built
    /// with ticket tracing on).
    pub trace: Tracer,
    /// The service-assigned ticket id (starts at 1) stamped on every
    /// flight-recorder event this request produces, service- and
    /// engine-side alike.
    pub ticket: u64,
}

/// Why a submission was not accepted. Boxed so the error path stays as
/// cheap to return as the success path (a `BettiJob` carries a whole
/// point cloud).
pub enum SubmitError {
    /// The bounded queue is full — backpressure. The job is handed back
    /// so the producer can retry, shed, or block via `submit`.
    Overloaded(Box<BettiJob>),
    /// The service is shutting down and accepts no new work.
    ShuttingDown(Box<BettiJob>),
    /// The job failed [`BettiJob::validate`] and was never queued.
    Invalid(Box<BettiJob>, JobError),
}

impl SubmitError {
    /// Recovers the job that was not accepted.
    pub fn into_job(self) -> BettiJob {
        match self {
            SubmitError::Overloaded(job)
            | SubmitError::ShuttingDown(job)
            | SubmitError::Invalid(job, _) => *job,
        }
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded(_) => write!(f, "submission queue full (backpressure)"),
            SubmitError::ShuttingDown(_) => write!(f, "service is shutting down"),
            SubmitError::Invalid(_, cause) => write!(f, "invalid job: {cause}"),
        }
    }
}

/// A summary of the refused job — fingerprint, point count, grid and
/// persistence flag — rather than every coordinate of its cloud.
impl std::fmt::Debug for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (variant, job) = match self {
            SubmitError::Overloaded(job) => ("Overloaded", job),
            SubmitError::ShuttingDown(job) => ("ShuttingDown", job),
            SubmitError::Invalid(job, _) => ("Invalid", job),
        };
        let mut out = f.debug_struct(variant);
        out.field("fingerprint", &format_args!("{:#018x}", job.fingerprint()))
            .field("points", &job.cloud.len())
            .field("epsilons", &job.epsilons)
            .field("persistence", &job.persistence);
        if let SubmitError::Invalid(_, cause) = self {
            out.field("cause", cause);
        }
        out.finish()
    }
}

struct QueueState {
    /// One FIFO ring per priority class, indexed by [`Priority::index`].
    classes: [VecDeque<Request>; 3],
    /// Consecutive pops that bypassed a waiting lower-priority class.
    express_streak: usize,
    closed: bool,
}

impl QueueState {
    fn len(&self) -> usize {
        self.classes.iter().map(VecDeque::len).sum()
    }

    /// The bounded-bypass pop policy (see module docs). A bypass serves
    /// the **oldest waiting head** among the passed-over classes — not
    /// blindly the lowest class — so no class can starve: a Normal
    /// request stuck behind sustained Interactive traffic only yields
    /// bypasses to Bulk heads that have waited *longer*, and every new
    /// arrival is strictly newer than the heads it queues behind.
    fn pop(&mut self, bypass_limit: usize) -> Option<Request> {
        let highest =
            Priority::CLASSES.iter().map(|p| p.index()).find(|&c| !self.classes[c].is_empty())?;
        let passed_over: Vec<usize> = (highest + 1..Priority::CLASSES.len())
            .filter(|&c| !self.classes[c].is_empty())
            .collect();
        let chosen = if !passed_over.is_empty() && self.express_streak >= bypass_limit {
            self.express_streak = 0;
            passed_over
                .into_iter()
                .min_by_key(|&c| {
                    self.classes[c].front().expect("passed-over classes are non-empty").accepted_at
                })
                .expect("at least one passed-over class")
        } else {
            if passed_over.is_empty() {
                // Nothing is being passed over — the streak is moot.
                self.express_streak = 0;
            } else {
                self.express_streak += 1;
            }
            highest
        };
        self.classes[chosen].pop_front()
    }
}

/// A bounded MPSC priority queue with blocking and non-blocking
/// producers and a deadline-aware consumer.
pub(crate) struct SubmissionQueue {
    capacity: usize,
    bypass_limit: usize,
    state: Mutex<QueueState>,
    not_full: Condvar,
    not_empty: Condvar,
    /// Published queue depth (`qtda_service_queue_depth`), updated
    /// under the state lock on every push/pop so the gauge can never
    /// drift from `len()`.
    depth: Gauge,
}

impl SubmissionQueue {
    /// A queue admitting at most `capacity` requests across all
    /// classes, serving the oldest passed-over request after
    /// `bypass_limit` consecutive priority bypasses. Unit tests only —
    /// the service always constructs through
    /// [`SubmissionQueue::with_depth_gauge`].
    #[cfg(test)]
    pub fn new(capacity: usize, bypass_limit: usize) -> Self {
        Self::with_depth_gauge(capacity, bypass_limit, Gauge::noop())
    }

    /// [`SubmissionQueue::new`] publishing its depth into `depth`.
    pub fn with_depth_gauge(capacity: usize, bypass_limit: usize, depth: Gauge) -> Self {
        assert!(capacity >= 1, "queue capacity must be at least 1");
        assert!(bypass_limit >= 1, "a zero bypass limit would invert the priority order");
        SubmissionQueue {
            capacity,
            bypass_limit,
            state: Mutex::new(QueueState {
                classes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                express_streak: 0,
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            depth,
        }
    }

    /// Non-blocking push: `Overloaded` when full, `ShuttingDown` after
    /// close.
    pub fn try_push(&self, request: Request) -> Result<(), SubmitError> {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.closed {
            return Err(SubmitError::ShuttingDown(Box::new(request.job)));
        }
        if state.len() >= self.capacity {
            return Err(SubmitError::Overloaded(Box::new(request.job)));
        }
        let class = request.qos.priority.index();
        state.classes[class].push_back(request);
        self.depth.set(state.len() as u64);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking push: parks until a slot frees; `ShuttingDown` if the
    /// queue closes while waiting.
    pub fn push_blocking(&self, request: Request) -> Result<(), SubmitError> {
        let mut state = self.state.lock().expect("queue poisoned");
        while state.len() >= self.capacity && !state.closed {
            state = self.not_full.wait(state).expect("queue poisoned");
        }
        if state.closed {
            return Err(SubmitError::ShuttingDown(Box::new(request.job)));
        }
        let class = request.qos.priority.index();
        state.classes[class].push_back(request);
        self.depth.set(state.len() as u64);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking pop for the batcher's *first* request of a micro-batch:
    /// parks until something arrives; `None` once the queue is closed
    /// **and** drained (the batcher's exit signal).
    pub fn pop_blocking(&self) -> Option<Request> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(request) = state.pop(self.bypass_limit) {
                self.depth.set(state.len() as u64);
                drop(state);
                self.not_full.notify_one();
                return Some(request);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("queue poisoned");
        }
    }

    /// Deadline-bounded pop for lingering: returns an already-queued
    /// request immediately; otherwise waits until `deadline` for one.
    /// `None` means the linger window closed empty (deadline passed, or
    /// the queue closed while empty — shutdown cuts the linger short).
    pub fn pop_until(&self, deadline: Instant) -> Option<Request> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(request) = state.pop(self.bypass_limit) {
                self.depth.set(state.len() as u64);
                drop(state);
                self.not_full.notify_one();
                return Some(request);
            }
            if state.closed {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _timeout) =
                self.not_empty.wait_timeout(state, deadline - now).expect("queue poisoned");
            state = guard;
        }
    }

    /// Stops accepting submissions and wakes every waiter. Queued
    /// requests stay poppable so the batcher can drain them.
    pub fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// Requests currently queued (not yet picked into a micro-batch),
    /// across all classes.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue poisoned").len()
    }

    /// Whether any *interactive* request is waiting — the batcher stops
    /// lingering the moment one is.
    pub fn interactive_waiting(&self) -> bool {
        !self.state.lock().expect("queue poisoned").classes[Priority::Interactive.index()]
            .is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtda_tda::point_cloud::PointCloud;
    use std::sync::mpsc::channel;
    use std::time::Duration;

    fn request_with(qos: QosPolicy, tag: f64) -> Request {
        let (tx, _rx) = channel();
        Request {
            job: BettiJob::new(PointCloud::new(1, vec![0.0, 1.0]), vec![tag]),
            qos,
            tx,
            accepted_at: Instant::now(),
            trace: Tracer::disabled(),
            ticket: 0,
        }
    }

    fn request() -> Request {
        request_with(QosPolicy::default(), 0.5)
    }

    #[test]
    fn try_push_reports_overload_at_capacity() {
        let q = SubmissionQueue::new(2, 4);
        assert!(q.try_push(request()).is_ok());
        assert!(q.try_push(request()).is_ok());
        match q.try_push(request()) {
            Err(SubmitError::Overloaded(_)) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(q.len(), 2);
        q.pop_blocking();
        assert!(q.try_push(request()).is_ok(), "popping frees a slot");
    }

    #[test]
    fn capacity_is_shared_across_classes() {
        let q = SubmissionQueue::new(2, 4);
        q.try_push(request_with(QosPolicy::bulk(), 0.1)).unwrap();
        q.try_push(request_with(QosPolicy::interactive(), 0.2)).unwrap();
        match q.try_push(request_with(QosPolicy::interactive(), 0.3)) {
            Err(SubmitError::Overloaded(_)) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
    }

    #[test]
    fn close_rejects_new_but_drains_queued() {
        let q = SubmissionQueue::new(4, 4);
        q.try_push(request()).unwrap();
        q.try_push(request()).unwrap();
        q.close();
        match q.try_push(request()) {
            Err(SubmitError::ShuttingDown(_)) => {}
            other => panic!("expected ShuttingDown, got {other:?}"),
        }
        assert!(q.pop_blocking().is_some());
        assert!(q.pop_blocking().is_some());
        assert!(q.pop_blocking().is_none(), "closed and drained");
    }

    #[test]
    fn pop_until_returns_queued_items_past_deadline() {
        let q = SubmissionQueue::new(4, 4);
        q.try_push(request()).unwrap();
        // A deadline in the past still drains what is already queued.
        let past = Instant::now() - Duration::from_millis(10);
        assert!(q.pop_until(past).is_some());
        assert!(q.pop_until(past).is_none(), "empty + expired deadline");
    }

    #[test]
    fn pop_until_times_out_empty() {
        let q = SubmissionQueue::new(1, 4);
        let t = Instant::now();
        assert!(q.pop_until(Instant::now() + Duration::from_millis(20)).is_none());
        assert!(t.elapsed() >= Duration::from_millis(15), "waited for the deadline");
    }

    #[test]
    fn submit_error_hands_the_job_back() {
        let q = SubmissionQueue::new(1, 4);
        q.try_push(request()).unwrap();
        let job = q.try_push(request()).unwrap_err().into_job();
        assert_eq!(job.epsilons, vec![0.5]);
    }

    #[test]
    fn pops_serve_higher_classes_first_fifo_within_a_class() {
        let q = SubmissionQueue::new(8, 100);
        q.try_push(request_with(QosPolicy::bulk(), 1.0)).unwrap();
        q.try_push(request_with(QosPolicy::normal(), 2.0)).unwrap();
        q.try_push(request_with(QosPolicy::interactive(), 3.0)).unwrap();
        q.try_push(request_with(QosPolicy::interactive(), 4.0)).unwrap();
        q.try_push(request_with(QosPolicy::normal(), 5.0)).unwrap();
        let order: Vec<f64> = (0..5).map(|_| q.pop_blocking().unwrap().job.epsilons[0]).collect();
        assert_eq!(order, vec![3.0, 4.0, 2.0, 5.0, 1.0]);
    }

    /// The starvation guard: with interactive traffic always waiting,
    /// every `bypass_limit + 1`-th pop must reach the bulk tail.
    #[test]
    fn bounded_bypass_serves_the_starved_tail() {
        let q = SubmissionQueue::new(64, 3);
        q.try_push(request_with(QosPolicy::bulk(), 100.0)).unwrap();
        q.try_push(request_with(QosPolicy::bulk(), 101.0)).unwrap();
        for i in 0..10 {
            q.try_push(request_with(QosPolicy::interactive(), i as f64)).unwrap();
        }
        let order: Vec<f64> = (0..12).map(|_| q.pop_blocking().unwrap().job.epsilons[0]).collect();
        // Three interactive pops bypass the waiting bulk, then the
        // fourth serves the bulk tail; same again; the rest drain FIFO.
        assert_eq!(order, vec![0.0, 1.0, 2.0, 100.0, 3.0, 4.0, 5.0, 101.0, 6.0, 7.0, 8.0, 9.0]);
    }

    /// The middle class cannot starve: bypasses pick the **oldest**
    /// passed-over head, so a Normal request behind sustained
    /// Interactive traffic only yields to Bulk heads that arrived
    /// earlier — never to the whole Bulk backlog.
    #[test]
    fn bypass_cannot_starve_the_middle_class() {
        let q = SubmissionQueue::new(64, 2);
        // Distinct arrival instants (the bypass orders by age).
        q.try_push(request_with(QosPolicy::bulk(), 100.0)).unwrap();
        std::thread::sleep(Duration::from_millis(2));
        q.try_push(request_with(QosPolicy::bulk(), 101.0)).unwrap();
        std::thread::sleep(Duration::from_millis(2));
        q.try_push(request_with(QosPolicy::normal(), 50.0)).unwrap();
        std::thread::sleep(Duration::from_millis(2));
        for i in 0..8 {
            q.try_push(request_with(QosPolicy::interactive(), i as f64)).unwrap();
        }
        let order: Vec<f64> = (0..11).map(|_| q.pop_blocking().unwrap().job.epsilons[0]).collect();
        // Bypasses at every 3rd pop serve, by age: Bulk 100, Bulk 101,
        // then the Normal request — it waits behind older Bulk heads
        // only, not behind the entire Bulk tail.
        assert_eq!(order, vec![0.0, 1.0, 100.0, 2.0, 3.0, 101.0, 4.0, 5.0, 50.0, 6.0, 7.0]);
    }

    /// A sole class never trips the bypass accounting: draining pure
    /// interactive (or pure bulk) traffic is plain FIFO.
    #[test]
    fn bypass_streak_resets_when_nothing_is_passed_over() {
        let q = SubmissionQueue::new(16, 2);
        for i in 0..5 {
            q.try_push(request_with(QosPolicy::interactive(), i as f64)).unwrap();
        }
        let order: Vec<f64> = (0..5).map(|_| q.pop_blocking().unwrap().job.epsilons[0]).collect();
        assert_eq!(order, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        // A bulk job arriving later is not owed an immediate bypass.
        q.try_push(request_with(QosPolicy::interactive(), 10.0)).unwrap();
        q.try_push(request_with(QosPolicy::bulk(), 11.0)).unwrap();
        assert_eq!(q.pop_blocking().unwrap().job.epsilons[0], 10.0);
        assert_eq!(q.pop_blocking().unwrap().job.epsilons[0], 11.0);
    }

    #[test]
    fn interactive_waiting_reports_only_the_express_class() {
        let q = SubmissionQueue::new(8, 4);
        q.try_push(request_with(QosPolicy::bulk(), 1.0)).unwrap();
        assert!(!q.interactive_waiting());
        q.try_push(request_with(QosPolicy::interactive(), 2.0)).unwrap();
        assert!(q.interactive_waiting());
        q.pop_blocking();
        assert!(!q.interactive_waiting());
    }
}
