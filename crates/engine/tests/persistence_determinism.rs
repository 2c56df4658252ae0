//! The persistence serving contract: a [`BettiJob::persistence`] job's
//! payloads — per-slice persistent-Betti rows and per-job diagrams —
//! must be bit-identical across 1/2/8 workers, cold/warm cache, the
//! streaming and collected paths, the core query layer, and the
//! classical barcode oracle; and switching the mode on must not move a
//! single estimate bit.

use qtda_core::estimator::EstimatorConfig;
use qtda_core::query::BettiRequest;
use qtda_engine::{
    BatchEngine, BettiJob, EngineConfig, JobOutcome, JobRequest, JobResult, SliceEvent,
};
use qtda_tda::filtration::{max_scale, Filtration};
use qtda_tda::laplacian_filtration::LaplacianFiltration;
use qtda_tda::persistence::compute_barcode;
use qtda_tda::point_cloud::{synthetic, Metric};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

/// A small mixed persistence batch: ascending grids, both homology
/// depths, one job forced onto the sparse route.
fn persistence_batch() -> Vec<BettiJob> {
    let mut rng = StdRng::seed_from_u64(50);
    let mut jobs = vec![
        BettiJob::new(synthetic::circle(12, 1.0, 0.02, &mut rng), vec![0.4, 0.55, 0.8])
            .with_persistence(),
        BettiJob::new(synthetic::uniform_cube(10, 2, &mut rng), vec![0.2, 0.35, 0.5, 0.65])
            .with_persistence(),
        BettiJob::new(synthetic::figure_eight(9, 1.0, 0.02, &mut rng), vec![0.5, 0.7, 0.9])
            .with_persistence(),
    ];
    jobs[2].sparse_threshold = 8;
    for (i, job) in jobs.iter_mut().enumerate() {
        job.estimator =
            EstimatorConfig { precision_qubits: 5, shots: 3000, ..EstimatorConfig::default() };
        job.max_homology_dim = 1 + i % 2;
    }
    jobs
}

fn assert_persistence_identical(a: &JobResult, b: &JobResult, context: &str) {
    assert_eq!(a.fingerprint, b.fingerprint, "{context}: fingerprints");
    assert_eq!(a.slices.len(), b.slices.len(), "{context}: slice counts");
    for (sa, sb) in a.slices.iter().zip(&b.slices) {
        assert_eq!(sa.persistence, sb.persistence, "{context}: rows at ε = {}", sa.epsilon);
        for (ea, eb) in sa.estimates.iter().zip(&sb.estimates) {
            assert_eq!(
                ea.corrected.to_bits(),
                eb.corrected.to_bits(),
                "{context}: estimate bits at ε = {}",
                sa.epsilon
            );
        }
    }
    assert_eq!(a.diagrams, b.diagrams, "{context}: diagrams");
}

#[test]
fn persistence_payloads_are_bit_identical_across_1_2_and_8_workers() {
    let jobs = persistence_batch();
    let engine =
        |workers| BatchEngine::new(EngineConfig { workers, batch_seed: 0xBEE5, cache_capacity: 0 });
    let reference = engine(1).run_batch(&jobs);
    for slice in reference.iter().flat_map(|r| &r.slices) {
        assert!(slice.persistence.is_some(), "every persistence slice carries its rows");
    }
    for result in &reference {
        assert!(result.diagrams.is_some(), "every persistence job carries diagrams");
    }
    for workers in [2usize, 8] {
        let results = engine(workers).run_batch(&jobs);
        for (i, (r, expect)) in results.iter().zip(&reference).enumerate() {
            assert_persistence_identical(r, expect, &format!("job {i}, {workers} workers"));
        }
    }
}

#[test]
fn cache_state_is_unobservable_in_persistence_payloads() {
    let jobs = persistence_batch();
    let warm = BatchEngine::with_defaults();
    warm.run_batch(&jobs);
    let warm_results = warm.run_batch(&jobs);
    assert!(warm.stats().cache_hits >= jobs.len() as u64, "second pass must hit");
    let cold_results =
        BatchEngine::new(EngineConfig { cache_capacity: 0, ..Default::default() }).run_batch(&jobs);
    for (i, (w, c)) in warm_results.iter().zip(&cold_results).enumerate() {
        assert_persistence_identical(w, c, &format!("job {i} warm vs cold"));
    }
}

#[test]
fn streamed_slices_carry_the_same_persistence_as_the_collected_results() {
    let jobs = persistence_batch();
    let engine = BatchEngine::new(EngineConfig { cache_capacity: 0, ..Default::default() });
    let events: Mutex<Vec<SliceEvent>> = Mutex::new(Vec::new());
    let requests: Vec<JobRequest> = jobs.into_iter().map(JobRequest::new).collect();
    let outcomes =
        engine.run(&requests, Some(&|ev| events.lock().expect("sink poisoned").push(ev)));
    let events = events.into_inner().expect("sink poisoned");
    for (i, result) in outcomes.into_iter().map(JobOutcome::expect_completed).enumerate() {
        for (slice_index, returned) in result.slices.iter().enumerate() {
            let streamed = events
                .iter()
                .find_map(|e| match e {
                    SliceEvent::Slice { job_index, slice_index: s, result }
                        if *job_index == i && *s == slice_index =>
                    {
                        Some(result)
                    }
                    _ => None,
                })
                .expect("every slice was announced");
            assert_eq!(
                streamed.persistence, returned.persistence,
                "job {i} slice {slice_index}: streamed rows match the collected result"
            );
        }
    }
}

#[test]
fn engine_rows_and_diagrams_match_the_query_layer_and_the_barcode_oracle() {
    let mut rng = StdRng::seed_from_u64(52);
    let cloud = synthetic::uniform_cube(11, 2, &mut rng);
    let grid = vec![0.25, 0.4, 0.55, 0.7];
    let mut job = BettiJob::new(cloud.clone(), grid.clone()).with_persistence();
    job.max_homology_dim = 2;
    job.estimator =
        EstimatorConfig { precision_qubits: 5, shots: 2000, ..EstimatorConfig::default() };
    let result = BatchEngine::with_defaults().run_job(&job);

    // The core query layer serves the same integers.
    let query =
        BettiRequest::of_cloud(&cloud).on_grid(grid.clone()).max_dim(2).persistence().build().run();
    for (engine_slice, query_slice) in result.slices.iter().zip(&query.slices) {
        assert_eq!(engine_slice.persistence.as_ref(), query_slice.persistence.as_ref());
    }
    assert_eq!(result.diagrams.as_ref(), query.diagrams.as_ref());

    // And both agree with the classical oracle: interval counting on
    // the global Z/2 reduction.
    let oracle = compute_barcode(&Filtration::rips(&cloud, max_scale(&grid), 3, Metric::Euclidean));
    let arena = LaplacianFiltration::rips(&cloud, max_scale(&grid), 3, Metric::Euclidean);
    for (j, slice) in result.slices.iter().enumerate() {
        let payload = slice.persistence.as_ref().expect("persistence job");
        for k in 0..=2usize {
            let row = payload.row(k).expect("dimension served");
            for (i, &eps_i) in grid[..=j].iter().enumerate() {
                assert_eq!(
                    row[i],
                    oracle.persistent_betti(k, eps_i, grid[j]),
                    "β_{k}({eps_i}, {}) disagrees with the oracle",
                    grid[j]
                );
            }
        }
    }
    let diagrams = result.diagrams.as_ref().expect("persistence job");
    for k in 0..=2usize {
        assert_eq!(
            diagrams.bars(k).expect("dimension served"),
            arena.bars(k).as_slice(),
            "k = {k}"
        );
    }
}

#[test]
fn persistence_mode_never_moves_estimate_bits_and_caches_separately() {
    let mut rng = StdRng::seed_from_u64(53);
    let cloud = synthetic::circle(10, 1.0, 0.02, &mut rng);
    let plain = BettiJob::new(cloud.clone(), vec![0.4, 0.7]);
    let persist = plain.clone().with_persistence();
    assert_ne!(plain.fingerprint(), persist.fingerprint(), "the mode is part of the request");

    let engine = BatchEngine::with_defaults();
    let results = engine.run_batch(&[plain.clone(), persist.clone()]);
    assert_eq!(engine.stats().computed_jobs, 2, "the twins never dedup onto each other");
    assert!(results[0].slices.iter().all(|s| s.persistence.is_none()));
    assert!(results[0].diagrams.is_none());
    assert!(results[1].slices.iter().all(|s| s.persistence.is_some()));
    // The twins root different seed streams (the mode is in the
    // fingerprint), so sampled estimates may differ — but everything
    // seed-free must not move.
    for (p, q) in results[0].slices.iter().zip(&results[1].slices) {
        assert_eq!(p.classical, q.classical);
        for (a, b) in p.estimates.iter().zip(&q.estimates) {
            assert_eq!(
                a.p_zero_exact.to_bits(),
                b.p_zero_exact.to_bits(),
                "persistence must not perturb the exact spectrum"
            );
        }
    }

    // The qtda_persist_* counters saw exactly the persistence job.
    let snap = engine.registry().snapshot();
    let units = (persist.max_homology_dim + 1) as u64 * persist.epsilons.len() as u64;
    assert_eq!(snap.counter("qtda_persist_units_total"), units);
    assert_eq!(snap.counter("qtda_persist_rows_total"), 2 + 4, "rows span grid prefixes");
    assert!(snap.counter("qtda_persist_pairs_total") > 0);
}

#[test]
#[should_panic(expected = "ascending")]
fn descending_grid_persistence_jobs_are_rejected() {
    let cloud = qtda_tda::point_cloud::PointCloud::new(2, vec![0.0, 0.0, 1.0, 0.0]);
    let job = BettiJob::new(cloud, vec![0.9, 0.4]).with_persistence();
    let _ = BatchEngine::with_defaults().run_job(&job);
}
