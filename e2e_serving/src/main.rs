//! `e2e_serving`: one benchmark on the real serving path.
//!
//! ```text
//! e2e_serving --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the default serving stack (`QtdaService::new` over
//! `ServiceConfig::default()` with a fixed batch seed) through
//! `submit` → `Ticket` with one of four seeded gearbox workloads, gates
//! every answer against `BatchEngine::run_batch` and the
//! `compute_barcode` oracle, and prints one JSON line last:
//!
//! * `--trace 0`: the end-to-end metrics of an untraced run;
//! * `--trace 1`: the per-layer metrics. An untraced and a traced run
//!   (ticket traces on) of half the length each serve the same jobs,
//!   then the traced run's computed jobs are replayed serially through
//!   each layer's public calls (see `replay`).
//!
//! Any mismatch exits non-zero without printing a number. See
//! `METRICS.md` next to this crate for every metric's definition.

mod gate;
mod load;
mod replay;
mod workload;

use gate::Reference;
use load::RunOutput;
use qtda_engine::{BettiJob, EngineConfig, EngineStats};
use qtda_service::{QtdaService, ServiceConfig, ServiceStats, Telemetry, TicketOutcome};
use replay::Phases;
use std::collections::HashSet;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Arrivals, Kind, Workload};

/// The service's fixed batch seed (root of every estimator seed).
const BATCH_SEED: u64 = 0x51DE_5EED;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Jobs each fresh service serves during set-up (one per core of the
/// reference machine).
const WARMUP_JOBS: usize = 2;

/// An open-loop run is saturated when more than a tenth of its requests
/// went out this late (one late request is a host stall, not a
/// generator falling behind)…
const LATE: Duration = Duration::from_millis(50);
/// …or when this many requests were still open as its schedule ended
/// (two full micro-batches at the default batch size).
const MAX_BACKLOG: usize = 32;

/// Least share of the unit boundary the replayed phases must explain.
const MIN_COVERAGE: f64 = 0.9;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        engine: EngineConfig { batch_seed: BATCH_SEED, ..EngineConfig::default() },
        ..ServiceConfig::default()
    }
}

/// Generates the workload, starts a service and warms it up, `reps`
/// times; returns the last set-up and the median set-up time.
fn set_up(
    kind: Kind,
    seed: u64,
    seconds: f64,
    telemetry: fn() -> Telemetry,
    reps: usize,
) -> Result<(Workload, QtdaService, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        // The previous set-up shuts down here, outside the timing.
        drop(last.take());
        let started = Instant::now();
        let workload = Workload::generate(kind, seed, seconds);
        let service = QtdaService::with_telemetry(service_config(), telemetry());
        serve_all(&service, Workload::warmup_jobs(kind, WARMUP_JOBS))
            .map_err(|e| format!("warm-up: {e}"))?;
        times.push(started.elapsed().as_secs_f64());
        last = Some((workload, service));
    }
    let (workload, service) = last.ok_or("no set-up ran")?;
    Ok((workload, service, median(&mut times)))
}

/// Submits `jobs` at once and waits until every one has completed.
fn serve_all(
    service: &QtdaService,
    jobs: impl IntoIterator<Item = BettiJob>,
) -> Result<(), String> {
    let tickets = jobs
        .into_iter()
        .map(|job| service.submit(job).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    for ticket in tickets {
        if !matches!(ticket.outcome(), TicketOutcome::Completed(_)) {
            return Err("an untimed job aborted".into());
        }
    }
    Ok(())
}

/// Serves the workload's prefill jobs (untimed).
fn prefill(service: &QtdaService, workload: &Workload) -> Result<(), String> {
    serve_all(service, workload.prefill.iter().map(|&i| workload.pool[i].clone()))
        .map_err(|e| format!("prefill: {e}"))
}

fn timed_run(
    service: &QtdaService,
    workload: &Workload,
    seconds: f64,
) -> Result<RunOutput, String> {
    match &workload.arrivals {
        Arrivals::Open(arrivals) => Ok(load::run_open(service, &workload.pool, arrivals)),
        Arrivals::Closed { clients } => {
            load::run_closed(service, &workload.pool, *clients, seconds)
                .ok_or_else(|| "the closed-loop job pool ran dry; raise its size".to_string())
        }
    }
}

fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolation percentile (`q` in [0, 1]); sorts in place.
fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Latency and throughput figures of one run.
struct Summary {
    attempted: usize,
    failed: usize,
    throughput: f64,
    p50_ms: f64,
    p90_ms: f64,
    first_slice_p50_ms: f64,
    saturated: bool,
}

fn summarize(run: &RunOutput) -> Summary {
    let mut latency: Vec<f64> = run.records.iter().filter_map(|r| r.latency()).map(ms).collect();
    let mut first: Vec<f64> =
        run.records.iter().filter_map(|r| r.first_slice_latency()).map(ms).collect();
    let completed = run.completed();
    let wall = run.wall().as_secs_f64();
    let late = run.records.iter().filter(|r| r.lag() > LATE).count();
    let saturated = late * 10 > run.records.len() || run.backlog_end > MAX_BACKLOG;
    if saturated {
        eprintln!(
            "e2e_serving: SATURATED run ({late} of {} requests sent over {} ms late, backlog {} \
             at schedule end); latency reflects a growing queue",
            run.records.len(),
            LATE.as_millis(),
            run.backlog_end
        );
    }
    Summary {
        attempted: run.records.len(),
        failed: run.records.len() - completed,
        throughput: if wall > 0.0 { completed as f64 / wall } else { 0.0 },
        p50_ms: percentile(&mut latency, 0.5),
        p90_ms: percentile(&mut latency, 0.9),
        first_slice_p50_ms: percentile(&mut first, 0.5),
        saturated,
    }
}

/// The benchmark process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).ok_or("no VmHWM line")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("unparsable VmHWM line")?;
    Ok(kb / 1024.0)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn json_line(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let value = if x.value.is_finite() { x.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", x.name, value, x.unit)
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn end_to_end(args: &Args) -> Result<String, String> {
    let (workload, service, setup_s) =
        set_up(args.kind, args.seed, args.seconds, Telemetry::default, SETUPS)?;
    prefill(&service, &workload)?;
    let run = timed_run(&service, &workload, args.seconds)?;
    let rss = peak_rss_mb()?;
    drop(service);
    let reference = Reference::build(&workload.pool, &[&run], BATCH_SEED)?;
    reference.check(&run)?;
    let s = summarize(&run);
    let metrics = [
        m("setup_s", setup_s, "s"),
        m("throughput_jps", s.throughput, "jobs/s"),
        m("latency_p50_ms", s.p50_ms, "ms"),
        m("latency_p90_ms", s.p90_ms, "ms"),
        m("first_slice_p50_ms", s.first_slice_p50_ms, "ms"),
        m("beta_mae", reference.beta_mae(&run), "Betti"),
        m("peak_rss_mb", rss, "MB"),
    ];
    Ok(json_line(s.attempted, s.failed, &metrics))
}

/// Counter deltas of one traced run.
struct Counters {
    service: ServiceStats,
    engine: EngineStats,
    matvecs: u64,
    lanczos_iterations: u64,
}

fn counters(service: &QtdaService) -> Counters {
    let snapshot = service.registry().snapshot();
    Counters {
        service: service.stats(),
        engine: service.engine().stats(),
        matvecs: snapshot.counter("qtda_engine_solve_matvecs_total"),
        lanczos_iterations: snapshot.counter("qtda_engine_lanczos_iterations_total"),
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn per_layer(args: &Args) -> Result<String, String> {
    let half = args.seconds / 2.0;
    let (workload, service, _) = set_up(args.kind, args.seed, half, Telemetry::default, 1)?;
    prefill(&service, &workload)?;
    let plain = timed_run(&service, &workload, half)?;
    drop(service);
    let (workload, service, _) =
        set_up(args.kind, args.seed, half, Telemetry::with_ticket_traces, 1)?;
    prefill(&service, &workload)?;
    let before = counters(&service);
    let traced = timed_run(&service, &workload, half)?;
    let after = counters(&service);
    drop(service);

    let reference = Reference::build(&workload.pool, &[&plain, &traced], BATCH_SEED)?;
    reference.check(&plain)?;
    reference.check(&traced)?;

    // Serial replay of the jobs the traced run computed (their traces
    // carry solve spans; cache hits have none), in arrival order, for at
    // most a quarter of the run length (at least one job).
    let mut seen = HashSet::new();
    let computed: Vec<usize> = traced
        .records
        .iter()
        .filter(|r| r.completed() && r.trace.as_ref().is_some_and(|t| t.stage("solve").is_some()))
        .filter(|r| seen.insert(r.job))
        .map(|r| r.job)
        .collect();
    let mut phases = Phases::default();
    let budget = Instant::now() + Duration::from_secs_f64(args.seconds / 4.0);
    for &job in &computed {
        replay::replay_job(&workload.pool[job], BATCH_SEED, reference.result(job), &mut phases)
            .map_err(|e| format!("replay of pool job {job}: {e}"))?;
        if Instant::now() > budget {
            break;
        }
    }
    let coverage = phases.coverage();
    if phases.units_dense + phases.units_sparse > 0 && coverage < MIN_COVERAGE {
        return Err(format!("phase coverage {coverage:.3} is below {MIN_COVERAGE}"));
    }

    let (plain_s, traced_s) = (summarize(&plain), summarize(&traced));
    let stage_mean = |name: &str| {
        let values: Vec<f64> = traced
            .records
            .iter()
            .filter(|r| r.completed())
            .map(|r| r.trace.as_ref().and_then(|t| t.stage(name)).map_or(0.0, ms))
            .collect();
        values.iter().sum::<f64>() / values.len().max(1) as f64
    };
    let service_delta = ServiceStats {
        batches_formed: after.service.batches_formed - before.service.batches_formed,
        jobs_batched: after.service.jobs_batched - before.service.jobs_batched,
        ..ServiceStats::default()
    };
    let (e0, e1) = (&before.engine, &after.engine);
    let hits = e1.cache_hits - e0.cache_hits;
    let misses = e1.cache_misses - e0.cache_misses;
    let computed_jobs = e1.computed_jobs - e0.computed_jobs;
    let attempted = plain_s.attempted + traced_s.attempted;
    let failed = plain_s.failed + traced_s.failed;
    let metrics = [
        m("service.queue_wait_ms", stage_mean("queue_wait"), "ms"),
        m("service.linger_ms", stage_mean("linger"), "ms"),
        m("service.delivery_ms", stage_mean("delivery"), "ms"),
        m("service.batch_size_mean", service_delta.mean_batch_size(), "jobs"),
        m("engine.cache_probe_ms", stage_mean("cache_probe"), "ms"),
        m("engine.cache_hit_rate", ratio(hits, hits + misses), "ratio"),
        m(
            "engine.dedup_share",
            ratio(e1.deduplicated - e0.deduplicated, e1.jobs_served - e0.jobs_served),
            "ratio",
        ),
        m(
            "engine.units_per_job",
            ratio(e1.units_executed - e0.units_executed, computed_jobs),
            "units/job",
        ),
        m("engine.arena_bytes_peak", e1.arena_bytes_peak as f64, "bytes"),
        m("tda.arena_build_ms", phases.per_job_ms(phases.arena_build), "ms"),
        m("tda.slice_assemble_ms", phases.per_job_ms(phases.slice_assemble), "ms"),
        m("tda.classical_ms", phases.per_job_ms(phases.classical), "ms"),
        m("tda.persist_reduce_ms", phases.per_job_ms(phases.persist_reduce), "ms"),
        m("core.lambda_bound_ms", phases.per_job_ms(phases.lambda_bound), "ms"),
        m("core.decompose_dense_ms", phases.per_job_ms(phases.decompose_dense), "ms"),
        m("core.decompose_sparse_ms", phases.per_job_ms(phases.decompose_sparse), "ms"),
        m("core.solve_ms", phases.per_job_ms(phases.solve), "ms"),
        m("core.units_dense", phases.per_job(phases.units_dense), "units/job"),
        m("core.units_sparse", phases.per_job(phases.units_sparse), "units/job"),
        m("core.sparse_beta_mismatches", reference.sparse_beta_mismatches as f64, "units"),
        m("linalg.matvecs", ratio(after.matvecs - before.matvecs, computed_jobs), "count/job"),
        m(
            "linalg.lanczos_iterations",
            ratio(after.lanczos_iterations - before.lanczos_iterations, computed_jobs),
            "count/job",
        ),
        m("qsim.sample_ms", phases.per_job_ms(phases.sample), "ms"),
        m("harness.coverage", coverage, "ratio"),
        m("harness.trace_overhead", traced_s.p50_ms / plain_s.p50_ms, "ratio"),
        m("harness.gen_lag_ms_max", ms(plain.gen_lag_max.max(traced.gen_lag_max)), "ms"),
        m("harness.backlog_end", plain.backlog_end.max(traced.backlog_end) as f64, "requests"),
        m(
            "harness.saturated",
            f64::from(u8::from(plain_s.saturated || traced_s.saturated)),
            "flag",
        ),
        m("harness.replayed_jobs", phases.jobs as f64, "jobs"),
        m("failed_frac", ratio(failed as u64, attempted as u64), "ratio"),
    ];
    Ok(json_line(attempted, failed, &metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e_serving: {e}");
            eprintln!(
                "usage: e2e_serving --workload <stream_plain|persist_closed|hot_repeat|shots_sweep> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let result = if args.trace { per_layer(&args) } else { end_to_end(&args) };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2e_serving: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
