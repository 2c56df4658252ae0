//! The correctness gate: every served answer is pinned to a reference
//! `BatchEngine::run_batch` of the same jobs at the same batch seed, and
//! every reference answer to the independent `compute_barcode` oracle.
//!
//! One oracle disagreement is counted instead of failing the run: the
//! classical β of a sparse-route unit. The engine reads it off the
//! full-run Lanczos spectrum as its kernel dimension, and a single-vector
//! Lanczos run can miss copies of a repeated zero eigenvalue, so on a
//! few units it undercounts β_k. Dense-route β, persistence rows and
//! diagrams must match the oracle exactly.

use crate::load::RunOutput;
use qtda_core::estimator::BettiEstimate;
use qtda_core::pipeline::{BackendKind, DispatchPolicy};
use qtda_engine::{BatchEngine, BettiJob, EngineConfig, JobResult, SliceResult};
use qtda_tda::filtration::Filtration;
use qtda_tda::persistence::{compute_barcode, Barcode};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Jobs per reference `run_batch` call (bounds the reference engine's
/// resident arenas; results do not depend on it).
const REFERENCE_CHUNK: usize = 64;

/// Reference results and exact Betti numbers for the pool jobs a run
/// served.
pub struct Reference {
    results: HashMap<usize, Arc<JobResult>>,
    /// Exact β_k per slice and dimension, from the oracle.
    exact: HashMap<usize, Vec<Vec<usize>>>,
    /// Sparse-route units whose classical β differs from the oracle.
    pub sparse_beta_mismatches: usize,
}

impl Reference {
    /// Computes the reference for every pool job that completed in any
    /// of `runs`, checking each against the oracle.
    pub fn build(pool: &[BettiJob], runs: &[&RunOutput], batch_seed: u64) -> Result<Self, String> {
        let served: BTreeSet<usize> = runs
            .iter()
            .flat_map(|run| run.records.iter().filter(|r| r.completed()).map(|r| r.job))
            .collect();
        let served: Vec<usize> = served.into_iter().collect();
        let engine = BatchEngine::new(EngineConfig { batch_seed, ..EngineConfig::default() });
        let mut results = HashMap::with_capacity(served.len());
        let mut exact = HashMap::with_capacity(served.len());
        let mut sparse_beta_mismatches = 0;
        for chunk in served.chunks(REFERENCE_CHUNK) {
            let jobs: Vec<BettiJob> = chunk.iter().map(|&i| pool[i].clone()).collect();
            for ((&i, job), result) in chunk.iter().zip(&jobs).zip(engine.run_batch(&jobs)) {
                let filtration = Filtration::rips(
                    &job.cloud,
                    job.max_epsilon(),
                    job.max_homology_dim + 1,
                    job.metric,
                );
                let barcode = compute_barcode(&filtration);
                sparse_beta_mismatches += check_oracle(job, &result, &filtration, &barcode)
                    .map_err(|e| format!("pool job {i}: {e}"))?;
                let betti = job
                    .epsilons
                    .iter()
                    .map(|&eps| {
                        (0..=job.max_homology_dim).map(|k| barcode.betti_at(k, eps)).collect()
                    })
                    .collect();
                exact.insert(i, betti);
                results.insert(i, result);
            }
        }
        Ok(Reference { results, exact, sparse_beta_mismatches })
    }

    pub fn result(&self, job: usize) -> &Arc<JobResult> {
        &self.results[&job]
    }

    /// Checks every completed request of `run`: its result and each of
    /// its streamed slices must be bit-identical to the reference.
    pub fn check(&self, run: &RunOutput) -> Result<(), String> {
        for record in &run.records {
            let Some(served) = &record.result else { continue };
            let reference = self.result(record.job);
            if !same_result(served, reference) {
                return Err(format!(
                    "pool job {}: served result differs from run_batch",
                    record.job
                ));
            }
            let mut seen = vec![false; reference.slices.len()];
            for slice in &record.slices {
                let Some(expected) = reference.slices.get(slice.slice_index) else {
                    return Err(format!("pool job {}: streamed slice out of range", record.job));
                };
                if seen[slice.slice_index] || !same_slice(&slice.result, expected) {
                    return Err(format!(
                        "pool job {}: streamed slice {} differs from run_batch",
                        record.job, slice.slice_index
                    ));
                }
                seen[slice.slice_index] = true;
            }
            if seen.contains(&false) {
                return Err(format!("pool job {}: a slice was never streamed", record.job));
            }
        }
        Ok(())
    }

    /// Mean |corrected estimate − exact β_k| over every (slice,
    /// dimension) of every distinct job `run` completed. Each job counts
    /// once, so a popular window repeated by the Zipf law does not
    /// outweigh the rest.
    pub fn beta_mae(&self, run: &RunOutput) -> f64 {
        let jobs: BTreeSet<usize> =
            run.records.iter().filter(|r| r.completed()).map(|r| r.job).collect();
        let (mut total, mut count) = (0.0, 0usize);
        for job in jobs {
            let exact = &self.exact[&job];
            for (slice, betti) in self.result(job).slices.iter().zip(exact) {
                for (estimate, &b) in slice.estimates.iter().zip(betti) {
                    total += (estimate.corrected - b as f64).abs();
                    count += 1;
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }
}

/// Classical β, persistent-Betti rows and diagrams against the barcode.
/// Returns the number of tolerated sparse-route β mismatches.
fn check_oracle(
    job: &BettiJob,
    result: &JobResult,
    filtration: &Filtration,
    barcode: &Barcode,
) -> Result<usize, String> {
    if result.slices.len() != job.epsilons.len() {
        return Err("slice count differs from the ε-grid".into());
    }
    let policy = DispatchPolicy::from_sparse_threshold(job.sparse_threshold);
    let mut sparse_mismatches = 0;
    for (j, slice) in result.slices.iter().enumerate() {
        for k in 0..=job.max_homology_dim {
            let exact = barcode.betti_at(k, slice.epsilon);
            if slice.classical.get(k) != Some(&exact) {
                let n_k = filtration
                    .simplices()
                    .iter()
                    .filter(|s| s.simplex.dim() == k && s.value <= slice.epsilon)
                    .count();
                if policy.choose(n_k) != BackendKind::SparseLanczos {
                    return Err(format!("classical β_{k} at ε = {} is not {exact}", slice.epsilon));
                }
                sparse_mismatches += 1;
            }
            if !job.persistence {
                continue;
            }
            let row = slice.persistence.as_ref().and_then(|p| p.row(k));
            let expected: Vec<usize> = job.epsilons[..=j]
                .iter()
                .map(|&eps_i| barcode.persistent_betti(k, eps_i, job.epsilons[j]))
                .collect();
            if row != Some(expected.as_slice()) {
                return Err(format!("persistent β_{k} row at slice {j} differs from the oracle"));
            }
        }
    }
    if job.persistence {
        let diagrams = result.diagrams.as_ref().ok_or("persistence job without diagrams")?;
        for k in 0..=job.max_homology_dim {
            let expected: Vec<_> = barcode.bars(k).cloned().collect();
            if diagrams.bars(k) != Some(expected.as_slice()) {
                return Err(format!("dimension-{k} diagram differs from the oracle"));
            }
        }
    } else if result.diagrams.is_some() {
        return Err("plain job carries diagrams".into());
    }
    Ok(sparse_mismatches)
}

pub fn same_estimate(a: &BettiEstimate, b: &BettiEstimate) -> bool {
    a.p_zero_exact.to_bits() == b.p_zero_exact.to_bits()
        && a.p_zero_sampled.to_bits() == b.p_zero_sampled.to_bits()
        && a.raw.to_bits() == b.raw.to_bits()
        && a.corrected.to_bits() == b.corrected.to_bits()
        && (a.q, a.shots, a.spurious_zeros) == (b.q, b.shots, b.spurious_zeros)
}

fn same_slice(a: &SliceResult, b: &SliceResult) -> bool {
    a.epsilon.to_bits() == b.epsilon.to_bits()
        && a.seed == b.seed
        && a.estimates.len() == b.estimates.len()
        && a.estimates.iter().zip(&b.estimates).all(|(x, y)| same_estimate(x, y))
        && a.classical == b.classical
        && a.persistence == b.persistence
}

fn same_result(a: &JobResult, b: &JobResult) -> bool {
    a.fingerprint == b.fingerprint
        && a.job_seed == b.job_seed
        && a.slices.len() == b.slices.len()
        && a.slices.iter().zip(&b.slices).all(|(x, y)| same_slice(x, y))
        && a.diagrams == b.diagrams
}
