//! The consumer's handle on a submitted job: a stream of slices, then a
//! terminal outcome — the assembled result, or an abort.
//!
//! A [`Ticket`] is the receiving half of a per-request channel. The
//! batcher forwards every [`SliceEvent`](qtda_engine::SliceEvent) for
//! the request as the engine announces it — so slices arrive *while the
//! micro-batch is still computing* — and finishes with exactly one
//! terminal event: the job's assembled [`JobResult`], or an
//! [`AbortReason`] if the request was cancelled or its deadline
//! expired. Slices arrive in completion order, which is
//! scheduling-dependent; their *content* is not (seeds are
//! content-derived), and each carries its ε-grid index, so
//! [`Ticket::collect`] can always restore grid order bit-identically to
//! [`BatchEngine::run_batch`](qtda_engine::BatchEngine::run_batch).
//!
//! **Cancellation** is a method on the ticket: [`Ticket::cancel`] trips
//! the request's [`CancelToken`], which the
//! queue, batcher, and engine all poll at their unit boundaries. It is
//! cooperative and sticky — the ticket's terminal state is then
//! guaranteed to be [`TicketOutcome::Aborted`] with
//! [`AbortReason::Cancelled`], even if the shared computation finished
//! anyway (e.g. an identical uncancelled request kept it alive).

use qtda_engine::{AbortReason, CancelToken, JobResult, SliceResult, Tracer};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::Arc;

/// Per-stage wall times for one request — the service's `queue_wait`,
/// `linger`, and `delivery` stages plus the engine's `cache_probe`,
/// `arena_build`, and `solve`, as nested spans. Read a stage's total
/// with [`TicketTrace::stage`], or format the tree with
/// [`TicketTrace::render`]. Obtained from [`Ticket::trace`] when the
/// service was built with
/// [`Telemetry::trace_tickets`](crate::Telemetry) on.
pub use qtda_engine::Trace as TicketTrace;

/// One slice of a job, streamed before the job (let alone its batch)
/// completes.
#[derive(Clone, Debug)]
pub struct StreamedSlice {
    /// Index of this slice in the job's ε-grid (restores grid order).
    pub slice_index: usize,
    /// The completed slice — bit-identical to the same entry of the
    /// final [`JobResult`].
    pub result: SliceResult,
}

/// What the batcher sends a ticket.
pub(crate) enum TicketEvent {
    /// A slice finished.
    Slice(StreamedSlice),
    /// The whole job finished; no more slices follow.
    Done(Arc<JobResult>),
    /// The job was aborted; no more slices follow. (The batcher may
    /// send this twice — once from the engine's streamed abort, once
    /// when delivering outcomes; the first one wins.)
    Aborted(AbortReason),
}

/// How a ticket's job ended — the same shape at every layer, so this is
/// the engine's [`qtda_engine::JobOutcome`] re-exported under the name
/// the ticket API reads naturally: `Completed(Arc<JobResult>)` (slices
/// bit-identical to a plain `run_batch` of the same job and batch
/// seed) or `Aborted(AbortReason)` (cancelled, or overran its
/// deadline).
pub use qtda_engine::JobOutcome as TicketOutcome;

/// A handle on one submitted job, yielding its per-ε slices as their
/// estimation units complete and a terminal [`TicketOutcome`] at the
/// end.
pub struct Ticket {
    pub(crate) rx: Receiver<TicketEvent>,
    pub(crate) outcome: Option<TicketOutcome>,
    pub(crate) cancel: CancelToken,
    pub(crate) trace: Tracer,
    pub(crate) id: u64,
}

impl Ticket {
    /// The service-assigned ticket id (starting at 1) — the `ticket`
    /// field on every flight-recorder event this request produced, so
    /// a journal dump can be joined back to the handle that caused it
    /// (see [`qtda_engine::FlightRecorder::events_for_ticket`]).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The per-stage trace recorded for this request so far — `None`
    /// unless the service was built with
    /// [`Telemetry::trace_tickets`](crate::Telemetry) on. Spans appear
    /// as their stages complete (and require the `obs` feature, on by
    /// default), so read it after the terminal outcome for the full
    /// breakdown: queue wait, micro-batch linger, cache probe, arena
    /// build, per-unit solves, and delivery.
    pub fn trace(&self) -> Option<TicketTrace> {
        self.trace.snapshot()
    }

    /// Requests cancellation of this job (cooperative and sticky): the
    /// engine stops scheduling its units at the next unit boundary, the
    /// batcher refuses to batch it if still queued, and the ticket's
    /// terminal state becomes [`TicketOutcome::Aborted`] with
    /// [`AbortReason::Cancelled`]. Slices already streamed stay valid;
    /// in-flight events are dropped. Callable from any thread (the
    /// token is shared), any number of times.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// A clone of this request's cancellation token — e.g. to hand a
    /// watchdog thread the means to cancel without owning the ticket.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Blocks for the next completed slice. `None` once the job reached
    /// its terminal state (inspect via [`Self::outcome_ref`], or drain
    /// with [`Self::outcome`] / [`Self::wait`]) — or if the service
    /// died before finishing the job. After [`Self::cancel`], returns
    /// `None` immediately and drops any straggler slices.
    pub fn next_slice(&mut self) -> Option<StreamedSlice> {
        loop {
            if self.outcome.is_some() {
                return None;
            }
            match self.rx.recv() {
                Ok(TicketEvent::Slice(slice)) => {
                    if self.cancel.is_cancelled() {
                        // Lost interest: drop the slice, keep draining
                        // toward the terminal Aborted event.
                        continue;
                    }
                    return Some(slice);
                }
                Ok(TicketEvent::Done(result)) => {
                    self.outcome = Some(self.resolve_done(result));
                    return None;
                }
                Ok(TicketEvent::Aborted(reason)) => {
                    self.outcome = Some(TicketOutcome::Aborted(reason));
                    return None;
                }
                Err(_) => return None,
            }
        }
    }

    /// Non-blocking variant of [`Self::next_slice`]: `None` when no
    /// slice has completed *yet* (distinguish via [`Self::is_done`]).
    pub fn try_next_slice(&mut self) -> Option<StreamedSlice> {
        loop {
            if self.outcome.is_some() {
                return None;
            }
            match self.rx.try_recv() {
                Ok(TicketEvent::Slice(slice)) => {
                    if self.cancel.is_cancelled() {
                        continue;
                    }
                    return Some(slice);
                }
                Ok(TicketEvent::Done(result)) => {
                    self.outcome = Some(self.resolve_done(result));
                    return None;
                }
                Ok(TicketEvent::Aborted(reason)) => {
                    self.outcome = Some(TicketOutcome::Aborted(reason));
                    return None;
                }
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => return None,
            }
        }
    }

    /// Cancellation beats a ready result: a `Done` landing on a
    /// cancelled ticket resolves Aborted (the computation may have been
    /// kept alive by a duplicate; *this* consumer said stop).
    fn resolve_done(&self, result: Arc<JobResult>) -> TicketOutcome {
        if self.cancel.is_cancelled() {
            TicketOutcome::Aborted(AbortReason::Cancelled)
        } else {
            TicketOutcome::Completed(result)
        }
    }

    /// `true` once the job reached its terminal state (completed or
    /// aborted).
    pub fn is_done(&self) -> bool {
        self.outcome.is_some()
    }

    /// The terminal state observed so far, if any (never blocks).
    pub fn outcome_ref(&self) -> Option<&TicketOutcome> {
        self.outcome.as_ref()
    }

    /// Drains remaining slices and returns the terminal outcome.
    ///
    /// # Panics
    /// If the service terminated without resolving this job (batcher
    /// thread died) — the one state with nothing truthful to return.
    pub fn outcome(mut self) -> TicketOutcome {
        while self.next_slice().is_some() {}
        self.outcome.expect("service terminated before resolving this job")
    }

    /// Drains remaining slices and returns the assembled result.
    ///
    /// # Panics
    /// If the job was aborted (use [`Self::outcome`] when cancellation
    /// or deadlines are in play), or if the service terminated without
    /// completing it.
    pub fn wait(self) -> Arc<JobResult> {
        match self.outcome() {
            TicketOutcome::Completed(result) => result,
            TicketOutcome::Aborted(reason) => {
                panic!("job aborted ({reason}) — use Ticket::outcome to observe aborts")
            }
        }
    }

    /// Drains the whole stream, returning every slice in *arrival*
    /// order alongside the assembled result — the convenient shape for
    /// tests and latency probes. Grid order is `slice_index` order.
    ///
    /// # Panics
    /// As [`Self::wait`].
    pub fn collect(mut self) -> (Vec<StreamedSlice>, Arc<JobResult>) {
        let mut slices = Vec::new();
        while let Some(slice) = self.next_slice() {
            slices.push(slice);
        }
        match self.outcome.expect("service terminated before resolving this job") {
            TicketOutcome::Completed(result) => (slices, result),
            TicketOutcome::Aborted(reason) => {
                panic!("job aborted ({reason}) — use Ticket::outcome to observe aborts")
            }
        }
    }
}
