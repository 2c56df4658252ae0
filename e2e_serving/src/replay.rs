//! Serial per-layer replay of computed jobs.
//!
//! Each job is replayed twice on one thread. First as the engine runs
//! it: one arena build, then one whole `BettiRequest` unit per
//! `(ε, dim)` over a job-wide `SpectrumShare`, then the persistence
//! reads. That pass gives the unit boundary. Then the same units go
//! through the public calls of each layer, timed one by one. That pass
//! gives the phases. Both passes must reproduce the served bits.
//!
//! Phases are self times. A call that runs another timed call inside it
//! is charged only for the rest: the λ̃_max bound inside a
//! decomposition, and the shot sampling inside `BettiEstimator::estimate`.
//! The nested call is timed separately on the same input.

use crate::gate::same_estimate;
use qtda_core::backend::LanczosBackend;
use qtda_core::estimator::{BettiEstimator, EstimatorConfig};
use qtda_core::pipeline::{BackendKind, DispatchPolicy};
use qtda_core::query::{BettiRequest, SpectrumShare};
use qtda_core::spectrum::PaddedSpectrum;
use qtda_engine::seed::{job_seed, slice_seed};
use qtda_engine::{BettiJob, JobResult};
use qtda_qsim::measure::sample_zero_count;
use qtda_tda::laplacian_filtration::LaplacianFiltration;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Summed phase times and route counts over the replayed jobs.
#[derive(Default)]
pub struct Phases {
    pub jobs: usize,
    pub arena_build: Duration,
    pub slice_assemble: Duration,
    pub lambda_bound: Duration,
    pub decompose_dense: Duration,
    pub decompose_sparse: Duration,
    pub classical: Duration,
    pub sample: Duration,
    pub persist_reduce: Duration,
    /// Whole units (`BettiRequest … run()`), the boundary the phases
    /// above must account for.
    pub solve: Duration,
    /// Persistence reads of the boundary pass.
    pub persist_boundary: Duration,
    pub arena_boundary: Duration,
    pub units_dense: u64,
    pub units_sparse: u64,
    /// Per replayed job: its phases ÷ its unit boundary.
    job_coverage: Vec<f64>,
}

impl Phases {
    fn phase_total(&self) -> Duration {
        self.arena_build
            + self.slice_assemble
            + self.lambda_bound
            + self.decompose_dense
            + self.decompose_sparse
            + self.classical
            + self.sample
            + self.persist_reduce
    }

    fn boundary_total(&self) -> Duration {
        self.arena_boundary + self.solve + self.persist_boundary
    }

    /// Median over replayed jobs of Σ phases ÷ (arena build + Σ whole
    /// units + persistence). The median keeps a host stall during one
    /// job's pass from deciding the figure.
    pub fn coverage(&self) -> f64 {
        let mut ratios = self.job_coverage.clone();
        ratios.sort_by(f64::total_cmp);
        match ratios.len() {
            0 => 0.0,
            n if n % 2 == 1 => ratios[n / 2],
            n => (ratios[n / 2 - 1] + ratios[n / 2]) / 2.0,
        }
    }

    /// Per-job mean of a phase, in milliseconds.
    pub fn per_job_ms(&self, phase: Duration) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            phase.as_secs_f64() * 1e3 / self.jobs as f64
        }
    }

    /// Per-job mean of a count.
    pub fn per_job(&self, count: u64) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            count as f64 / self.jobs as f64
        }
    }
}

fn timed<T>(total: &mut Duration, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = black_box(f());
    *total += started.elapsed();
    out
}

fn lap(f: impl FnOnce()) -> Duration {
    let started = Instant::now();
    f();
    started.elapsed()
}

/// Replays one computed job, adding its times to `phases`. Fails if
/// either pass disagrees with `expected`, the result the service served.
pub fn replay_job(
    job: &BettiJob,
    batch_seed: u64,
    expected: &JobResult,
    phases: &mut Phases,
) -> Result<(), String> {
    let (phase_before, boundary_before) = (phases.phase_total(), phases.boundary_total());
    let js = job_seed(batch_seed, job.fingerprint());
    let policy = DispatchPolicy::from_sparse_threshold(job.sparse_threshold);
    let configs: Vec<EstimatorConfig> = job
        .epsilons
        .iter()
        .map(|&eps| EstimatorConfig { seed: slice_seed(js, eps), ..job.estimator })
        .collect();
    let dims = 0..=job.max_homology_dim;

    // Boundary pass: the engine's own unit shape.
    let arena = timed(&mut phases.arena_boundary, || {
        LaplacianFiltration::rips(
            &job.cloud,
            job.max_epsilon(),
            job.max_homology_dim + 1,
            job.metric,
        )
    });
    let share = SpectrumShare::new();
    for (e, &eps) in job.epsilons.iter().enumerate() {
        for k in dims.clone() {
            let (estimate, classical) = timed(&mut phases.solve, || {
                BettiRequest::of_filtration(&arena)
                    .at_scale(eps)
                    .dimension(k)
                    .estimator(configs[e])
                    .dispatch(policy)
                    .share_spectra(&share)
                    .build()
                    .run()
                    .unit()
            });
            let slice = &expected.slices[e];
            if !same_estimate(&estimate, &slice.estimates[k]) || classical != slice.classical[k] {
                return Err(format!("unit (ε = {eps}, k = {k}) replays different bits"));
            }
        }
    }
    let persist_boundary = persistence(job, &arena, expected)?;
    phases.persist_boundary += persist_boundary;

    // Phase pass: the same units through each layer's public calls.
    let arena = timed(&mut phases.arena_build, || {
        LaplacianFiltration::rips(
            &job.cloud,
            job.max_epsilon(),
            job.max_homology_dim + 1,
            job.metric,
        )
    });
    let mut spectra: HashMap<(usize, usize, usize), PaddedSpectrum> = HashMap::new();
    for (e, &eps) in job.epsilons.iter().enumerate() {
        let config = configs[e];
        let rng = || StdRng::seed_from_u64(config.seed);
        for k in dims.clone() {
            let n_k = arena.count_at(k, eps);
            if n_k == 0 {
                continue;
            }
            let want = &expected.slices[e].estimates[k];
            let (zeros, classical) = match policy.choose(n_k) {
                BackendKind::SparseLanczos => {
                    phases.units_sparse += 1;
                    // Units whose Δ_k is the same arena prefix share one
                    // decomposition, as in the engine.
                    let key = (k, n_k, arena.triplets_at(k, eps));
                    if let Entry::Vacant(slot) = spectra.entry(key) {
                        let laplacian =
                            timed(&mut phases.slice_assemble, || arena.laplacian_at(k, eps));
                        let bound = lap(|| {
                            black_box(config.lambda_bound.resolve(&laplacian));
                        });
                        let mut decompose = Duration::ZERO;
                        let spectrum = timed(&mut decompose, || {
                            PaddedSpectrum::of_sparse_laplacian_bounded(
                                &laplacian,
                                config.padding,
                                config.delta,
                                LanczosBackend::default().seed,
                                config.lambda_bound,
                            )
                        });
                        phases.lambda_bound += bound;
                        phases.decompose_sparse += decompose.saturating_sub(bound);
                        slot.insert(spectrum);
                    }
                    let spectrum = &spectra[&key];
                    let p0 = timed(&mut phases.decompose_sparse, || {
                        spectrum.p_zero(config.precision_qubits)
                    });
                    if p0.to_bits() != want.p_zero_exact.to_bits() {
                        return Err(format!("sparse p(0) at (ε = {eps}, k = {k}) differs"));
                    }
                    let zeros = timed(&mut phases.sample, || {
                        sample_zero_count(p0, config.shots, &mut rng())
                    });
                    (zeros, timed(&mut phases.classical, || spectrum.kernel_dim()))
                }
                BackendKind::DenseEigen => {
                    phases.units_dense += 1;
                    let laplacian =
                        timed(&mut phases.slice_assemble, || arena.laplacian_at(k, eps).to_dense());
                    let bound = lap(|| {
                        black_box(config.lambda_bound.resolve(&laplacian));
                    });
                    let mut estimate_time = Duration::ZERO;
                    let estimate = timed(&mut estimate_time, || {
                        BettiEstimator::new(config).estimate(&laplacian)
                    });
                    if !same_estimate(&estimate, want) {
                        return Err(format!("dense estimate at (ε = {eps}, k = {k}) differs"));
                    }
                    let mut sample = Duration::ZERO;
                    let zeros = timed(&mut sample, || {
                        sample_zero_count(estimate.p_zero_exact, config.shots, &mut rng())
                    });
                    phases.lambda_bound += bound;
                    phases.sample += sample;
                    phases.decompose_dense += estimate_time.saturating_sub(bound + sample);
                    (zeros, timed(&mut phases.classical, || arena.betti_at(k, eps)))
                }
                BackendKind::Statevector => {
                    return Err("the default dispatch never routes to the statevector".into())
                }
            };
            if zeros as f64 / config.shots as f64 != want.p_zero_sampled
                || classical != expected.slices[e].classical[k]
            {
                return Err(format!("phase replay of (ε = {eps}, k = {k}) differs"));
            }
        }
    }
    phases.persist_reduce += persistence(job, &arena, expected)?;
    phases.jobs += 1;
    let boundary = phases.boundary_total() - boundary_before;
    if !boundary.is_zero() {
        let covered = phases.phase_total() - phase_before;
        phases.job_coverage.push(covered.as_secs_f64() / boundary.as_secs_f64());
    }
    Ok(())
}

/// The engine's persistence reads for one job: every unit's persistent
/// Betti row over its grid prefix, plus the diagrams at the last scale.
fn persistence(
    job: &BettiJob,
    arena: &LaplacianFiltration,
    expected: &JobResult,
) -> Result<Duration, String> {
    let mut total = Duration::ZERO;
    if !job.persistence {
        return Ok(total);
    }
    let last = job.epsilons.len() - 1;
    for (e, &eps) in job.epsilons.iter().enumerate() {
        for k in 0..=job.max_homology_dim {
            let row = timed(&mut total, || arena.persistent_betti_row(k, &job.epsilons[..=e], eps));
            let served = expected.slices[e].persistence.as_ref().and_then(|p| p.row(k));
            if served != Some(row.as_slice()) {
                return Err(format!("persistent row (ε = {eps}, k = {k}) differs"));
            }
            if e == last {
                let bars = timed(&mut total, || arena.bars(k));
                let served = expected.diagrams.as_ref().and_then(|d| d.bars(k));
                if served != Some(bars.as_slice()) {
                    return Err(format!("dimension-{k} diagram differs"));
                }
            }
        }
    }
    Ok(total)
}
