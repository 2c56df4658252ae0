//! The seeded gearbox workloads.
//!
//! Every job, arrival offset, Zipf draw and priority class derives from
//! the workload seed; the service under test only ever sees the
//! generated `BettiJob`s.

use qtda_data::gearbox::GearboxConfig;
use qtda_data::windows::{sliding_window_stream, WINDOW_LEN};
use qtda_engine::{jobs_from_windows, BettiJob, GearboxJobSpec, Priority};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Samples between the starts of consecutive windows of one record
/// (half-overlapping windows, as a sliding-window feed produces).
const WINDOW_STRIDE: usize = 250;

/// Windows cut from each recorded signal, per class.
const WINDOWS_PER_RECORD: usize = 4;

/// Open-loop rate of `stream_plain`. A plain job costs ≈ 30 ms of CPU
/// and ≈ 40 ms of wall time on the critical path of its biggest unit,
/// and the default service completes ≈ 48 plain jobs/s on a 2-core
/// x86-64 VM. At a fifth of that, requests rarely queue, so latency
/// tracks the serving path rather than the host's scheduling noise.
const STREAM_RATE: f64 = 10.0;

/// Open-loop rate of `hot_repeat`: almost every request is a cache hit,
/// so the service sustains a higher rate than on `stream_plain`.
const HOT_RATE: f64 = 60.0;

/// Distinct windows behind `hot_repeat`: twice the default LRU capacity,
/// so hits, misses, admissions and evictions interleave.
const HOT_POOL: usize = 512;

/// Zipf exponent of the `hot_repeat` popularity law.
const HOT_ZIPF_S: f64 = 1.6;

/// Most popular `hot_repeat` windows served once before timing: they
/// fill the default 256-entry LRU and carry ≈ 99 % of the Zipf mass, so
/// the timed stream starts from a warm, full cache. The rare tail draw
/// misses, is admitted and evicts the least recently used entry.
const HOT_PREFILL: usize = 256;

/// Closed-loop clients (one per core of the reference machine).
const CLIENTS: usize = 2;

/// Upper bound on closed-loop completions per second, used to size the
/// pool of distinct jobs a closed-loop run draws from.
const PERSIST_MAX_RATE: f64 = 20.0;
const SHOTS_MAX_RATE: f64 = 100.0;

/// The `shots_sweep` estimator grid: precision qubits × shots, the top
/// of the paper's shot axis, where the O(shots) sampler costs real time.
const SHOTS_GRID: [(usize, usize); 6] =
    [(3, 500_000), (5, 500_000), (8, 500_000), (3, 1_000_000), (5, 1_000_000), (8, 1_000_000)];

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    StreamPlain,
    PersistClosed,
    HotRepeat,
    ShotsSweep,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "stream_plain" => Some(Kind::StreamPlain),
            "persist_closed" => Some(Kind::PersistClosed),
            "hot_repeat" => Some(Kind::HotRepeat),
            "shots_sweep" => Some(Kind::ShotsSweep),
            _ => None,
        }
    }
}

/// One open-loop arrival: when it is due (offset from the run's start),
/// which pool job it sends, and in which class.
#[derive(Clone, Copy, Debug)]
pub struct Arrival {
    pub offset: Duration,
    pub job: usize,
    pub priority: Priority,
}

/// How load is offered.
#[derive(Clone, Debug)]
pub enum Arrivals {
    /// Requests sent on a fixed schedule, whatever the service does.
    Open(Vec<Arrival>),
    /// `clients` callers, each sending pool jobs in order and waiting
    /// for the terminal outcome before sending the next.
    Closed { clients: usize },
}

/// A generated workload: the distinct jobs and how they arrive.
pub struct Workload {
    pub pool: Vec<BettiJob>,
    pub arrivals: Arrivals,
    /// Pool jobs served once, untimed, right before the timed run.
    pub prefill: Vec<usize>,
}

/// An independent RNG stream of the workload seed.
fn stream(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag)
}

/// `count` distinct gearbox windows (healthy and faulty interleaved) as
/// jobs under `spec`, cut from many short records rather than one long
/// one, so a run's job mix does not hinge on two recordings.
fn windows_as_jobs(count: usize, spec: &GearboxJobSpec, rng: &mut StdRng) -> Vec<BettiJob> {
    let mut jobs = Vec::with_capacity(count + 2 * WINDOWS_PER_RECORD);
    while jobs.len() < count {
        let windows = sliding_window_stream(
            &GearboxConfig::default(),
            WINDOWS_PER_RECORD,
            WINDOW_LEN,
            WINDOW_STRIDE,
            rng,
        );
        jobs.extend(jobs_from_windows(&windows, spec));
    }
    jobs.truncate(count);
    jobs
}

/// A Poisson arrival process conditioned on exactly `n` arrivals in
/// `[0, seconds)`: `n` sorted uniform offsets. Fixing the count keeps
/// the offered rate identical across seeds while the gaps stay bursty.
fn poisson_offsets(n: usize, seconds: f64, rng: &mut StdRng) -> Vec<Duration> {
    let mut offsets: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * seconds).collect();
    offsets.sort_by(f64::total_cmp);
    offsets.into_iter().map(Duration::from_secs_f64).collect()
}

/// The cumulative Zipf(`s`) law over ranks `0..n`.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

impl Workload {
    /// Generates workload `kind` from `seed` for a run of `seconds`.
    pub fn generate(kind: Kind, seed: u64, seconds: f64) -> Workload {
        let mut jobs_rng = stream(seed, 1);
        let mut arrival_rng = stream(seed, 2);
        let spec = GearboxJobSpec::default();
        match kind {
            Kind::StreamPlain => {
                let n = (STREAM_RATE * seconds).round().max(1.0) as usize;
                let pool = windows_as_jobs(n, &spec, &mut jobs_rng);
                let arrivals = poisson_offsets(n, seconds, &mut arrival_rng)
                    .into_iter()
                    .enumerate()
                    .map(|(job, offset)| Arrival { offset, job, priority: Priority::Normal })
                    .collect();
                Workload { pool, arrivals: Arrivals::Open(arrivals), prefill: Vec::new() }
            }
            Kind::HotRepeat => {
                let pool = windows_as_jobs(HOT_POOL, &spec, &mut jobs_rng);
                let n = (HOT_RATE * seconds).round().max(1.0) as usize;
                let cdf = zipf_cdf(HOT_POOL, HOT_ZIPF_S);
                let offsets = poisson_offsets(n, seconds, &mut arrival_rng);
                let arrivals = offsets
                    .into_iter()
                    .map(|offset| {
                        let u: f64 = arrival_rng.gen();
                        let job = cdf.partition_point(|&c| c < u).min(HOT_POOL - 1);
                        let class: f64 = arrival_rng.gen();
                        let priority = if class < 0.2 {
                            Priority::Interactive
                        } else if class < 0.8 {
                            Priority::Normal
                        } else {
                            Priority::Bulk
                        };
                        Arrival { offset, job, priority }
                    })
                    .collect();
                let prefill = (0..HOT_PREFILL).collect();
                Workload { pool, arrivals: Arrivals::Open(arrivals), prefill }
            }
            Kind::PersistClosed => {
                let n = (PERSIST_MAX_RATE * seconds).ceil() as usize + 16;
                let pool = windows_as_jobs(n, &spec, &mut jobs_rng)
                    .into_iter()
                    .map(BettiJob::with_persistence)
                    .collect();
                Workload {
                    pool,
                    arrivals: Arrivals::Closed { clients: CLIENTS },
                    prefill: Vec::new(),
                }
            }
            Kind::ShotsSweep => {
                let n = (SHOTS_MAX_RATE * seconds).ceil() as usize + 16;
                let mut pool = windows_as_jobs(n, &spec, &mut jobs_rng);
                for (i, job) in pool.iter_mut().enumerate() {
                    let (precision_qubits, shots) = SHOTS_GRID[i % SHOTS_GRID.len()];
                    job.estimator.precision_qubits = precision_qubits;
                    job.estimator.shots = shots;
                }
                Workload {
                    pool,
                    arrivals: Arrivals::Closed { clients: CLIENTS },
                    prefill: Vec::new(),
                }
            }
        }
    }

    /// Jobs used to warm a fresh service up: the workload's own kind of
    /// job, the same for every seed (so set-up time does not vary with
    /// it) and from a stream no timed request draws from.
    pub fn warmup_jobs(kind: Kind, count: usize) -> Vec<BettiJob> {
        let mut rng = stream(0, 3);
        let jobs = windows_as_jobs(count, &GearboxJobSpec::default(), &mut rng);
        match kind {
            Kind::PersistClosed => jobs.into_iter().map(BettiJob::with_persistence).collect(),
            _ => jobs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_workload() {
        for kind in [Kind::StreamPlain, Kind::HotRepeat, Kind::PersistClosed, Kind::ShotsSweep] {
            let a = Workload::generate(kind, 7, 1.0);
            let b = Workload::generate(kind, 7, 1.0);
            let c = Workload::generate(kind, 8, 1.0);
            let fps = |w: &Workload| w.pool.iter().map(BettiJob::fingerprint).collect::<Vec<_>>();
            assert_eq!(fps(&a), fps(&b));
            assert_ne!(fps(&a), fps(&c));
        }
    }

    #[test]
    fn pools_hold_distinct_jobs() {
        for kind in [Kind::StreamPlain, Kind::HotRepeat, Kind::PersistClosed, Kind::ShotsSweep] {
            let w = Workload::generate(kind, 3, 1.0);
            let mut fps: Vec<u64> = w.pool.iter().map(BettiJob::fingerprint).collect();
            fps.sort_unstable();
            fps.dedup();
            assert_eq!(fps.len(), w.pool.len(), "{kind:?}");
        }
    }

    #[test]
    fn hot_repeat_draws_repeat_and_mix_classes() {
        let w = Workload::generate(Kind::HotRepeat, 5, 2.0);
        let Arrivals::Open(arrivals) = &w.arrivals else { panic!("open loop") };
        let mut picks: Vec<usize> = arrivals.iter().map(|a| a.job).collect();
        picks.sort_unstable();
        picks.dedup();
        assert!(picks.len() < arrivals.len(), "Zipf draws must repeat");
        assert!(arrivals.iter().any(|a| a.priority == Priority::Interactive));
        assert!(arrivals.iter().any(|a| a.priority == Priority::Bulk));
        assert!(arrivals.windows(2).all(|p| p[0].offset <= p[1].offset));
    }
}
