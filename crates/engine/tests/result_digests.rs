//! Per-field result digests: result bits move only on purpose.
//!
//! A fixed seeded corpus is served through [`BatchEngine::run_batch`] at
//! 2 workers:
//!
//! * 8 default gearbox jobs (the `stream_plain` traffic shape);
//! * their forced-sparse twins (`sparse_threshold = 0`, every unit on
//!   the Lanczos route);
//! * 2 persistence jobs (persistent-Betti rows and diagrams).
//!
//! Each field family is folded into its own FNV-1a digest and compared
//! with a checked-in constant. A change that moves a family on purpose
//! updates only that constant, and its CHANGES.md entry names the
//! field, the reason and the oracle bound that limits the move. A change
//! that must move nothing leaves every constant as it is. Cross-worker
//! invariance is pinned by the determinism suites, so one worker count
//! is enough here.
//!
//! Float fields are folded as `f64::to_bits`. The QPE response goes
//! through libm (`sin`), so the float digests pin the toolchain and
//! platform CI runs on. The integer families (`q`, shots, spurious
//! zeros, classical β, persistence rows, fingerprints and seeds) are
//! portable.
//!
//! On a mismatch the test prints every family's computed digest, ready
//! to paste.

use qtda_core::estimator::BettiEstimate;
use qtda_data::gearbox::GearboxConfig;
use qtda_data::windows::{sliding_window_stream, WINDOW_LEN};
use qtda_engine::{jobs_from_windows, BatchEngine, BettiJob, EngineConfig, GearboxJobSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

const P_ZERO_EXACT: u64 = 0xb1bc497708921538;
const SAMPLED_RAW_CORRECTED: u64 = 0x1c8b5a993601e612;
const Q_SHOTS_SPURIOUS: u64 = 0xf884fb426ca6c7ba;
const CLASSICAL_BETA: u64 = 0x938cfe3350053028;
const PERSISTENCE_ROWS: u64 = 0x76b2c9f2c4489f6b;
const DIAGRAMS: u64 = 0x22e4e9cb7e6c92b9;
const FINGERPRINTS_AND_SEEDS: u64 = 0x0ea7c3551e61c0cf;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn float(&mut self, value: f64) {
        self.word(value.to_bits());
    }

    fn count(&mut self, value: usize) {
        self.word(value as u64);
    }
}

/// The corpus: 8 default gearbox windows (healthy and faulty
/// interleaved), their forced-sparse twins, and 2 persistence jobs.
fn corpus() -> Vec<BettiJob> {
    let mut rng = StdRng::seed_from_u64(13);
    let windows = sliding_window_stream(&GearboxConfig::default(), 4, WINDOW_LEN, 250, &mut rng);
    let plain = jobs_from_windows(&windows, &GearboxJobSpec::default());
    assert_eq!(plain.len(), 8);
    let sparse = plain.iter().cloned().map(|job| BettiJob { sparse_threshold: 0, ..job });
    let persistence = plain[..2].iter().cloned().map(BettiJob::with_persistence);
    plain.iter().cloned().chain(sparse).chain(persistence).collect()
}

#[test]
fn result_digests_match_the_checked_in_constants() {
    let jobs = corpus();
    let engine =
        BatchEngine::new(EngineConfig { workers: 2, batch_seed: 0xD16E, cache_capacity: 0 });
    let results = engine.run_batch(&jobs);

    let mut p_zero_exact = Fnv::new();
    let mut sampled = Fnv::new();
    let mut counts = Fnv::new();
    let mut classical = Fnv::new();
    let mut rows = Fnv::new();
    let mut diagrams = Fnv::new();
    let mut identity = Fnv::new();
    for result in &results {
        identity.word(result.fingerprint);
        identity.word(result.job_seed);
        for slice in &result.slices {
            identity.float(slice.epsilon);
            identity.word(slice.seed);
            for &BettiEstimate {
                p_zero_exact: exact,
                p_zero_sampled,
                raw,
                corrected,
                q,
                shots,
                spurious_zeros,
            } in &slice.estimates
            {
                p_zero_exact.float(exact);
                sampled.float(p_zero_sampled);
                sampled.float(raw);
                sampled.float(corrected);
                counts.count(q);
                counts.count(shots);
                counts.count(spurious_zeros);
            }
            classical.count(slice.classical.len());
            slice.classical.iter().for_each(|&beta| classical.count(beta));
            if let Some(persistence) = &slice.persistence {
                rows.count(persistence.dim_lo);
                for row in &persistence.rows {
                    rows.count(row.len());
                    row.iter().for_each(|&beta| rows.count(beta));
                }
            }
        }
        if let Some(served) = &result.diagrams {
            diagrams.count(served.dim_lo);
            for bars in &served.diagrams {
                diagrams.count(bars.len());
                for bar in bars {
                    diagrams.count(bar.dim);
                    diagrams.float(bar.birth);
                    diagrams.word(bar.death.map_or(u64::MAX, f64::to_bits));
                }
            }
        }
    }

    let computed = [
        ("P_ZERO_EXACT", p_zero_exact.0, P_ZERO_EXACT),
        ("SAMPLED_RAW_CORRECTED", sampled.0, SAMPLED_RAW_CORRECTED),
        ("Q_SHOTS_SPURIOUS", counts.0, Q_SHOTS_SPURIOUS),
        ("CLASSICAL_BETA", classical.0, CLASSICAL_BETA),
        ("PERSISTENCE_ROWS", rows.0, PERSISTENCE_ROWS),
        ("DIAGRAMS", diagrams.0, DIAGRAMS),
        ("FINGERPRINTS_AND_SEEDS", identity.0, FINGERPRINTS_AND_SEEDS),
    ];
    let report: String = computed
        .iter()
        .map(|(name, digest, _)| format!("const {name}: u64 = {digest:#018x};\n"))
        .collect();
    let moved: Vec<&str> = computed
        .iter()
        .filter(|(_, digest, expected)| digest != expected)
        .map(|(name, _, _)| *name)
        .collect();
    assert!(moved.is_empty(), "result digests moved: {moved:?}\ncomputed:\n{report}");
}
