//! Load generation against `QtdaService::submit` → `Ticket`.
//!
//! An open loop runs one generator thread, which sends each request
//! when it is due, and one collector thread, which polls the
//! outstanding tickets and timestamps slices and outcomes as they land.
//! A closed loop runs one thread per client; each blocks on its own
//! ticket, so its timestamps are exact.

use crate::workload::Arrival;
use qtda_engine::{BettiJob, JobResult, Priority, QosPolicy};
use qtda_service::{QtdaService, StreamedSlice, Ticket, TicketOutcome, TicketTrace};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often the open-loop collector sweeps its tickets when nothing
/// changed on the previous sweep. Bounds the timestamp error.
const POLL: Duration = Duration::from_micros(200);

/// How long a run waits for tickets still open after the last request
/// was sent before counting them as unresolved.
const STRAGGLER_TIMEOUT: Duration = Duration::from_secs(60);

/// One request as the load generator saw it.
pub struct Record {
    /// Index of the job in the workload pool.
    pub job: usize,
    /// When the request was due (open loop) or submitted (closed loop).
    pub due: Instant,
    /// When the submission returned.
    pub sent: Instant,
    pub first_slice: Option<Instant>,
    pub done: Option<Instant>,
    /// The assembled result, when the ticket completed.
    pub result: Option<Arc<JobResult>>,
    /// Every streamed slice, in arrival order.
    pub slices: Vec<StreamedSlice>,
    pub trace: Option<TicketTrace>,
}

impl Record {
    fn new(job: usize, due: Instant) -> Self {
        Record {
            job,
            due,
            sent: due,
            first_slice: None,
            done: None,
            result: None,
            slices: Vec::new(),
            trace: None,
        }
    }

    /// Drains whatever the ticket has delivered so far, timestamping the
    /// first slice and the terminal outcome. Returns whether anything
    /// arrived.
    fn poll(&mut self, ticket: &mut Ticket) -> bool {
        let mut progressed = false;
        while let Some(slice) = ticket.try_next_slice() {
            self.first_slice.get_or_insert_with(Instant::now);
            self.slices.push(slice);
            progressed = true;
        }
        if ticket.is_done() {
            self.finish(ticket);
            progressed = true;
        }
        progressed
    }

    /// Records the terminal outcome of a resolved ticket.
    fn finish(&mut self, ticket: &Ticket) {
        self.done = Some(Instant::now());
        if let Some(TicketOutcome::Completed(result)) = ticket.outcome_ref() {
            self.result = Some(Arc::clone(result));
        }
        self.trace = ticket.trace();
    }

    pub fn completed(&self) -> bool {
        self.result.is_some()
    }

    /// How late the request went out against its due time.
    pub fn lag(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }

    pub fn latency(&self) -> Option<Duration> {
        self.result.as_ref().and(self.done).map(|d| d.duration_since(self.due))
    }

    pub fn first_slice_latency(&self) -> Option<Duration> {
        self.result.as_ref().and(self.first_slice).map(|f| f.duration_since(self.due))
    }
}

/// Everything one timed run produced.
pub struct RunOutput {
    pub records: Vec<Record>,
    pub start: Instant,
    /// Latest terminal outcome (or `start` if nothing resolved).
    pub end: Instant,
    /// Worst lateness of the open-loop generator against its schedule.
    pub gen_lag_max: Duration,
    /// Requests sent but unresolved when the schedule ended (open loop).
    pub backlog_end: usize,
}

impl RunOutput {
    fn new(records: Vec<Record>, start: Instant, backlog: usize) -> Self {
        let end = records.iter().filter_map(|r| r.done).max().unwrap_or(start);
        let gen_lag_max = records.iter().map(Record::lag).max().unwrap_or_default();
        RunOutput { records, start, end, gen_lag_max, backlog_end: backlog }
    }

    pub fn completed(&self) -> usize {
        self.records.iter().filter(|r| r.completed()).count()
    }

    pub fn wall(&self) -> Duration {
        self.end.duration_since(self.start)
    }
}

/// Sends `arrivals` on schedule and collects every outcome.
pub fn run_open(service: &QtdaService, pool: &[BettiJob], arrivals: &[Arrival]) -> RunOutput {
    let start = Instant::now() + Duration::from_millis(20);
    let (tx, rx) = channel::<(usize, Instant, Instant, Option<Ticket>)>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for (i, arrival) in arrivals.iter().enumerate() {
                let due = start + arrival.offset;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let qos = QosPolicy::with_priority(arrival.priority);
                let ticket = service.try_submit_with(pool[arrival.job].clone(), qos).ok();
                if tx.send((i, due, Instant::now(), ticket)).is_err() {
                    break;
                }
            }
        });
        let collector = scope.spawn(move || {
            let mut records: Vec<Option<Record>> = (0..arrivals.len()).map(|_| None).collect();
            let mut open: Vec<(usize, Ticket)> = Vec::new();
            let mut schedule_done: Option<(Instant, usize)> = None;
            loop {
                let mut progressed = false;
                loop {
                    match rx.try_recv() {
                        Ok((i, due, sent, ticket)) => {
                            // A refused request stays a record with no
                            // outcome: it counts as failed.
                            let mut record = Record::new(arrivals[i].job, due);
                            record.sent = sent;
                            if ticket.is_none() {
                                record.done = Some(Instant::now());
                            }
                            records[i] = Some(record);
                            if let Some(ticket) = ticket {
                                open.push((i, ticket));
                            }
                            progressed = true;
                        }
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => {
                            schedule_done.get_or_insert((Instant::now(), open.len()));
                            break;
                        }
                    }
                }
                open.retain_mut(|(i, ticket)| {
                    let record =
                        records[*i].as_mut().expect("record exists for every sent request");
                    progressed |= record.poll(ticket);
                    !ticket.is_done()
                });
                if let Some((ended, _)) = schedule_done {
                    if open.is_empty() || ended.elapsed() > STRAGGLER_TIMEOUT {
                        break;
                    }
                }
                if !progressed {
                    std::thread::sleep(POLL);
                }
            }
            let backlog = schedule_done.map_or(0, |(_, backlog)| backlog);
            (records.into_iter().flatten().collect::<Vec<_>>(), backlog)
        });
        let (records, backlog) = collector.join().expect("collector thread panicked");
        RunOutput::new(records, start, backlog)
    })
}

/// Runs `clients` closed-loop callers over the pool, in pool order,
/// until `seconds` have passed. Returns `None` if the pool ran dry
/// before the time was up.
pub fn run_closed(
    service: &QtdaService,
    pool: &[BettiJob],
    clients: usize,
    seconds: f64,
) -> Option<RunOutput> {
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let next = AtomicUsize::new(0);
    let ran_dry = AtomicBool::new(false);
    let records: Vec<Vec<Record>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let (next, ran_dry) = (&next, &ran_dry);
                scope.spawn(move || {
                    let mut records = Vec::new();
                    while Instant::now() < stop {
                        let job = next.fetch_add(1, Ordering::Relaxed);
                        if job >= pool.len() {
                            ran_dry.store(true, Ordering::Relaxed);
                            break;
                        }
                        let due = Instant::now();
                        let mut record = Record::new(job, due);
                        let qos = QosPolicy::with_priority(Priority::Normal);
                        if let Ok(mut ticket) = service.submit_with(pool[job].clone(), qos) {
                            while let Some(slice) = ticket.next_slice() {
                                record.first_slice.get_or_insert_with(Instant::now);
                                record.slices.push(slice);
                            }
                            record.finish(&ticket);
                        }
                        records.push(record);
                    }
                    records
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    if ran_dry.load(Ordering::Relaxed) {
        return None;
    }
    let mut records: Vec<Record> = records.into_iter().flatten().collect();
    records.sort_by_key(|r| r.due);
    Some(RunOutput::new(records, start, 0))
}
