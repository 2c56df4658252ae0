//! Streaming service latency/throughput vs the PR 2 `run_batch` path.
//!
//! The workload is a Poisson-ish arrival trace of gearbox windows
//! (deterministic exponential inter-arrivals from a seeded RNG): the
//! shape of live sliding-window traffic, as opposed to the
//! pre-assembled batches `batched_gearbox` measures. The question is
//! **first-slice latency**: from a job's arrival to its first streamed
//! ε-slice (p50/p95). The `run_batch` baseline can only answer after
//! the *entire* batch completes, so its "first result" latency for
//! every job is the full batch wall-clock plus the time the job spent
//! waiting for the batch to assemble.
//!
//! The two paths produce bit-identical results, asserted before the
//! trace is replayed once through each. Service throughput and overhead
//! are measured end to end by `e2e_serving`.

use qtda_core::estimator::EstimatorConfig;
use qtda_data::gearbox::GearboxConfig;
use qtda_data::windows::sliding_window_stream;
use qtda_engine::{jobs_from_windows, BatchEngine, BettiJob, EngineConfig, GearboxJobSpec};
use qtda_service::{QtdaService, ServiceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Batch seed shared by every path so results are comparable bitwise.
const BATCH_SEED: u64 = 0xBA7C;
/// Jobs in the arrival trace.
const TRACE_JOBS: usize = 48;
/// Mean inter-arrival time of the Poisson-ish trace.
const MEAN_INTERARRIVAL: Duration = Duration::from_millis(2);

fn serving_spec() -> GearboxJobSpec {
    GearboxJobSpec {
        epsilons: vec![0.5, 0.75, 1.0],
        estimator: EstimatorConfig { precision_qubits: 4, shots: 1000, ..Default::default() },
        ..GearboxJobSpec::default()
    }
}

fn trace_jobs(n: usize, rng_seed: u64) -> Vec<BettiJob> {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let windows =
        sliding_window_stream(&GearboxConfig::default(), n.div_ceil(2), 500, 250, &mut rng);
    let jobs = jobs_from_windows(&windows, &serving_spec());
    jobs.into_iter().take(n).collect()
}

/// Deterministic exponential inter-arrival gaps (Poisson process).
fn arrival_gaps(n: usize, mean: Duration, rng_seed: u64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            mean.mul_f64(-u.ln())
        })
        .collect()
}

fn engine_config() -> EngineConfig {
    EngineConfig { batch_seed: BATCH_SEED, cache_capacity: 0, ..EngineConfig::default() }
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        engine: engine_config(),
        max_batch_size: 8,
        max_linger: Duration::from_millis(2),
        queue_capacity: 256,
    }
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Replays the arrival trace against the live service; returns each
/// job's first-slice latency (arrival → first streamed slice) and the
/// total wall-clock. One consumer thread per ticket timestamps the
/// first slice *as it arrives* — a sequential drain would charge later
/// jobs for time their slices spent buffered behind earlier tickets.
fn run_service_trace(jobs: &[BettiJob], gaps: &[Duration]) -> (Vec<Duration>, Duration) {
    let service = QtdaService::new(service_config());
    let start = Instant::now();
    let consumers: Vec<std::thread::JoinHandle<Duration>> = jobs
        .iter()
        .zip(gaps)
        .map(|(job, gap)| {
            std::thread::sleep(*gap);
            let at = Instant::now();
            let mut ticket = service.submit(job.clone()).expect("service accepts while open");
            std::thread::spawn(move || {
                let first = ticket.next_slice().map(|_| at.elapsed());
                ticket.wait();
                first.expect("every job streams at least one slice")
            })
        })
        .collect();
    let latencies: Vec<Duration> =
        consumers.into_iter().map(|c| c.join().expect("consumer thread")).collect();
    let total = start.elapsed();
    service.shutdown();
    (latencies, total)
}

/// The PR 2 path on the same trace: wait out the arrivals, then serve
/// everything as one `run_batch`. Every job's first result becomes
/// available only when the whole batch returns.
fn run_batch_trace(jobs: &[BettiJob], gaps: &[Duration]) -> (Vec<Duration>, Duration) {
    let engine = BatchEngine::new(engine_config());
    let start = Instant::now();
    let arrivals: Vec<Instant> = gaps
        .iter()
        .map(|gap| {
            std::thread::sleep(*gap);
            Instant::now()
        })
        .collect();
    let results = engine.run_batch(jobs);
    let done = Instant::now();
    black_box(&results);
    let latencies: Vec<Duration> = arrivals.iter().map(|&at| done - at).collect();
    (latencies, start.elapsed())
}

fn main() {
    // `cargo bench` may pass harness flags like `--bench`; ignore them.
    let jobs = trace_jobs(TRACE_JOBS, 7);
    let gaps = arrival_gaps(TRACE_JOBS, MEAN_INTERARRIVAL, 11);

    // Correctness gate: the service streams bit-identical features to
    // the direct run_batch path before any timing is reported.
    {
        let service = QtdaService::new(service_config());
        let tickets: Vec<_> =
            jobs.iter().map(|j| service.submit(j.clone()).expect("accepting")).collect();
        let streamed: Vec<Vec<f64>> = tickets.into_iter().map(|t| t.wait().features()).collect();
        service.shutdown();
        let direct: Vec<Vec<f64>> = BatchEngine::new(engine_config())
            .run_batch(&jobs)
            .iter()
            .map(|r| r.features())
            .collect();
        assert_eq!(streamed.len(), direct.len());
        for (i, (s, d)) in streamed.iter().zip(&direct).enumerate() {
            assert_eq!(s.len(), d.len(), "job {i}: feature arity");
            for (a, b) in s.iter().zip(d) {
                assert_eq!(a.to_bits(), b.to_bits(), "job {i}: service {a} vs engine {b}");
            }
        }
    }

    // Headline latency comparison.
    let (mut service_lat, service_total) = run_service_trace(&jobs, &gaps);
    let (mut batch_lat, batch_total) = run_batch_trace(&jobs, &gaps);
    service_lat.sort_unstable();
    batch_lat.sort_unstable();
    let throughput = |total: Duration| TRACE_JOBS as f64 / total.as_secs_f64();
    println!(
        "service_stream: {TRACE_JOBS}-job Poisson trace (mean gap {MEAN_INTERARRIVAL:?}): \
         service {:.1} jobs/s, first-slice p50 {:?} / p95 {:?}; \
         run_batch baseline {:.1} jobs/s, first-result p50 {:?} / p95 {:?}",
        throughput(service_total),
        percentile(&service_lat, 0.50),
        percentile(&service_lat, 0.95),
        throughput(batch_total),
        percentile(&batch_lat, 0.50),
        percentile(&batch_lat, 0.95),
    );
}
