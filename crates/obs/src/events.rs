//! The flight recorder: a bounded, lock-sharded ring of structured
//! serving events, dumpable as JSONL.
//!
//! Metrics say *how much*; traces say *how long*; neither says **what
//! happened, in order**, when a request goes wrong. The
//! [`FlightRecorder`] closes that gap: the service and engine stamp a
//! small [`Event`] at each lifecycle point that already holds the
//! tracer (submit, batch formed, cache hit, unit done, cancel,
//! deadline expiry, abort), and the recorder keeps the most recent
//! `capacity` of them in a ring — old events fall off, recording never
//! blocks serving for more than one shard lock, and memory is bounded
//! no matter how long the process runs.
//!
//! Two read paths:
//!
//! * [`FlightRecorder::dump_jsonl`] — the whole ring, one JSON object
//!   per line, in global sequence order (what `/events.jsonl` on the
//!   scrape server returns).
//! * [`FlightRecorder::capture_abort`] — called by the service the
//!   moment a request resolves `Aborted`; it extracts that ticket's
//!   event chain (its own stamps plus every event sharing a fingerprint
//!   with them) into a JSONL snapshot retrievable via
//!   [`FlightRecorder::last_abort_dump`], so the post-mortem is taken
//!   *at* the abort, before the ring rolls past it.
//!
//! Events observe; they never steer. Like every telemetry layer in this
//! workspace, results are bit-identical with the recorder live,
//! disabled, or absent.

use crate::metrics::json_escape;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How many independently locked ring shards a recorder keeps. Events
/// are sharded by sequence number, so concurrent stampers (engine
/// workers, the batcher, producers) rarely contend on one mutex.
const EVENT_SHARDS: usize = 8;

/// What happened — the closed vocabulary of serving lifecycle points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A job was accepted into the submission queue.
    Submit,
    /// The batcher dispatched a micro-batch to the engine.
    BatchFormed,
    /// One `(job, ε, dim)` estimation unit completed.
    UnitDone,
    /// A request was answered from the LRU result cache.
    CacheHit,
    /// A request's cancellation was observed (queued or mid-batch).
    Cancel,
    /// A request's deadline expiry was observed at a unit boundary.
    DeadlineExpired,
    /// A request resolved with an `Aborted` outcome.
    Abort,
}

impl EventKind {
    /// The snake_case name used in the JSONL dump.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Submit => "submit",
            EventKind::BatchFormed => "batch_formed",
            EventKind::UnitDone => "unit_done",
            EventKind::CacheHit => "cache_hit",
            EventKind::Cancel => "cancel",
            EventKind::DeadlineExpired => "deadline_expired",
            EventKind::Abort => "abort",
        }
    }
}

/// One recorded lifecycle event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Global sequence number — the recorder-wide total order.
    pub seq: u64,
    /// Offset from the recorder's creation instant.
    pub at: Duration,
    /// What happened.
    pub kind: EventKind,
    /// The service-assigned ticket id, `0` when the stamping layer has
    /// no ticket in hand (e.g. a batch-scoped event).
    pub ticket: u64,
    /// The job's content fingerprint, `0` when not applicable.
    pub fingerprint: u64,
    /// Free-form context (`"class=interactive"`, `"eps=0.5,dim=1"`).
    pub detail: String,
}

impl Event {
    /// One JSONL line: `{"seq":…,"t_us":…,"kind":"…","ticket":…,
    /// "fp":"…","detail":"…"}` (fingerprint in hex, detail escaped).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\":{},\"t_us\":{},\"kind\":\"{}\",\"ticket\":{},\"fp\":\"{:016x}\",\"detail\":\"{}\"}}",
            self.seq,
            self.at.as_micros(),
            self.kind.as_str(),
            self.ticket,
            self.fingerprint,
            json_escape(&self.detail)
        )
    }
}

/// The bounded, lock-sharded event journal. Construct one per serving
/// stack (the service's `Telemetry` owns it and shares it with the
/// engine); share it with a scrape server to expose `/events.jsonl`.
#[derive(Debug)]
pub struct FlightRecorder {
    t0: Instant,
    enabled: bool,
    per_shard: usize,
    seq: AtomicU64,
    shards: Vec<Mutex<VecDeque<Event>>>,
    last_abort: Mutex<Option<String>>,
}

impl FlightRecorder {
    /// A live recorder retaining (at least) the most recent `capacity`
    /// events across its shards.
    pub fn new(capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(EVENT_SHARDS).max(1);
        FlightRecorder {
            t0: Instant::now(),
            enabled: true,
            per_shard,
            seq: AtomicU64::new(0),
            shards: (0..EVENT_SHARDS).map(|_| Mutex::new(VecDeque::new())).collect(),
            last_abort: Mutex::new(None),
        }
    }

    /// A disabled recorder: [`FlightRecorder::record`] is a no-op and
    /// every dump is empty — the "telemetry off" representation.
    pub fn disabled() -> Self {
        FlightRecorder {
            t0: Instant::now(),
            enabled: false,
            per_shard: 0,
            seq: AtomicU64::new(0),
            shards: Vec::new(),
            last_abort: Mutex::new(None),
        }
    }

    /// Whether this recorder records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Stamps one event: one atomic fetch-add for the sequence number,
    /// one shard lock for the ring push (evicting the shard's oldest
    /// event when full). Safe from any thread, on hot paths.
    pub fn record(&self, kind: EventKind, ticket: u64, fingerprint: u64, detail: String) {
        if !self.enabled {
            return;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let event = Event { seq, at: self.t0.elapsed(), kind, ticket, fingerprint, detail };
        let mut shard =
            self.shards[(seq % EVENT_SHARDS as u64) as usize].lock().expect("event shard poisoned");
        if shard.len() >= self.per_shard {
            shard.pop_front();
        }
        shard.push_back(event);
    }

    /// Every retained event, merged across shards in global sequence
    /// order.
    pub fn events(&self) -> Vec<Event> {
        let mut all: Vec<Event> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.lock().expect("event shard poisoned").iter().cloned().collect::<Vec<_>>()
            })
            .collect();
        all.sort_unstable_by_key(|e| e.seq);
        all
    }

    /// The event chain of one ticket: its own stamps, plus every event
    /// sharing a fingerprint with them (engine-side unit/cache events
    /// carry the fingerprint of the computed job, not a ticket id), in
    /// sequence order.
    pub fn events_for_ticket(&self, ticket: u64) -> Vec<Event> {
        let all = self.events();
        let fingerprints: Vec<u64> = all
            .iter()
            .filter(|e| e.ticket == ticket && e.fingerprint != 0)
            .map(|e| e.fingerprint)
            .collect();
        all.into_iter()
            .filter(|e| {
                (ticket != 0 && e.ticket == ticket)
                    || (e.fingerprint != 0 && fingerprints.contains(&e.fingerprint))
            })
            .collect()
    }

    /// The whole retained journal as JSONL, one event per line.
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.events() {
            out.push_str(&event.to_json());
            out.push('\n');
        }
        out
    }

    /// [`Self::dump_jsonl`] restricted to one ticket's chain
    /// ([`Self::events_for_ticket`]).
    pub fn dump_ticket_jsonl(&self, ticket: u64) -> String {
        let mut out = String::new();
        for event in self.events_for_ticket(ticket) {
            out.push_str(&event.to_json());
            out.push('\n');
        }
        out
    }

    /// Takes the post-mortem snapshot for an aborted request: extracts
    /// the ticket's chain as JSONL and stores it as the last abort dump
    /// — called automatically by the service on any `Aborted` outcome,
    /// so the recording exists even after the ring rolls on.
    pub fn capture_abort(&self, ticket: u64) {
        if !self.enabled {
            return;
        }
        let dump = self.dump_ticket_jsonl(ticket);
        *self.last_abort.lock().expect("abort dump poisoned") = Some(dump);
    }

    /// The JSONL flight recording captured at the most recent abort,
    /// if any request has aborted since construction.
    pub fn last_abort_dump(&self) -> Option<String> {
        self.last_abort.lock().expect("abort dump poisoned").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_ordered() {
        let rec = FlightRecorder::new(16);
        for i in 0..100 {
            rec.record(EventKind::UnitDone, 0, i, String::new());
        }
        let events = rec.events();
        assert!(events.len() <= 16 + EVENT_SHARDS, "bounded: got {}", events.len());
        assert!(events.len() >= 16, "retains at least the requested capacity");
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq), "sequence-ordered");
        assert_eq!(events.last().expect("non-empty").fingerprint, 99, "newest survives");
    }

    #[test]
    fn disabled_recorder_is_empty() {
        let rec = FlightRecorder::disabled();
        rec.record(EventKind::Submit, 1, 2, "x".into());
        rec.capture_abort(1);
        assert!(rec.events().is_empty());
        assert!(rec.dump_jsonl().is_empty());
        assert!(rec.last_abort_dump().is_none());
    }

    #[test]
    fn ticket_chain_follows_fingerprints() {
        let rec = FlightRecorder::new(64);
        rec.record(EventKind::Submit, 7, 0xAB, "class=normal".into());
        rec.record(EventKind::Submit, 8, 0xCD, "class=bulk".into());
        rec.record(EventKind::UnitDone, 0, 0xAB, "eps=0,dim=0".into());
        rec.record(EventKind::UnitDone, 0, 0xCD, "eps=0,dim=0".into());
        rec.record(EventKind::Cancel, 7, 0xAB, String::new());
        rec.record(EventKind::Abort, 7, 0xAB, "cancelled".into());
        let chain = rec.events_for_ticket(7);
        assert_eq!(chain.len(), 4, "submit + shared-fingerprint unit + cancel + abort");
        assert!(chain.iter().all(|e| e.ticket == 7 || e.fingerprint == 0xAB));
        assert_eq!(chain.first().expect("chain non-empty").kind, EventKind::Submit);
        assert_eq!(chain.last().expect("chain non-empty").kind, EventKind::Abort);
    }

    #[test]
    fn jsonl_escapes_detail() {
        let rec = FlightRecorder::new(4);
        rec.record(EventKind::Abort, 1, 0x2A, "say \"why\"\nnewline".into());
        let dump = rec.dump_jsonl();
        assert_eq!(dump.lines().count(), 1);
        assert!(dump.contains("\"fp\":\"000000000000002a\""));
        assert!(dump.contains("say \\\"why\\\"\\nnewline"));
    }
}
