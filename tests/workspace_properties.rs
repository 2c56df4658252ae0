//! Workspace-spanning property tests: invariants that tie the classical
//! substrate, the spectrum machinery and the estimator together.

use proptest::prelude::*;
use qtda::core::analysis::absolute_error;
use qtda::core::padding::{LambdaMaxBound, PaddingScheme};
use qtda::core::scaling::Delta;
use qtda::core::spectrum::PaddedSpectrum;
use qtda::tda::betti::betti_numbers;
use qtda::tda::laplacian::combinatorial_laplacian;
use qtda::tda::random::RandomComplexModel;
use qtda::tda::SimplicialComplex;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_complex() -> impl Strategy<Value = SimplicialComplex> {
    (4usize..9, 0.25f64..0.85, any::<u64>()).prop_map(|(n, p, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        RandomComplexModel::ErdosRenyiFlag { n, edge_prob: p, max_dim: 2 }.sample(&mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// At high precision with no shot noise, the estimator recovers the
    /// exact Betti number of every dimension of every random complex.
    #[test]
    fn exact_estimates_recover_classical_betti(c in arb_complex()) {
        let betti = betti_numbers(&c);
        for k in 0..=c.max_dim().unwrap_or(0) {
            if c.count(k) == 0 {
                continue;
            }
            let l = combinatorial_laplacian(&c, k);
            let spectrum = PaddedSpectrum::of_laplacian(
                &l,
                PaddingScheme::IdentityHalfLambdaMax,
                Delta::Auto,
                LambdaMaxBound::Gershgorin,
            );
            let estimate = spectrum.estimate_exact(10);
            let truth = betti.get(k).copied().unwrap_or(0);
            prop_assert!(
                absolute_error(estimate, truth) < 0.5,
                "k = {}: estimate {} vs β = {}", k, estimate, truth
            );
        }
    }

    /// p(0) is monotone non-increasing in precision (leakage only
    /// shrinks; true zeros always contribute 1).
    #[test]
    fn p_zero_non_increasing_in_precision(c in arb_complex()) {
        for k in 0..=c.max_dim().unwrap_or(0) {
            if c.count(k) == 0 {
                continue;
            }
            let l = combinatorial_laplacian(&c, k);
            let s = PaddedSpectrum::of_laplacian(
                &l,
                PaddingScheme::IdentityHalfLambdaMax,
                Delta::Auto,
                LambdaMaxBound::Gershgorin,
            );
            let mut prev = f64::INFINITY;
            for p in 1..=8usize {
                let cur = s.p_zero(p);
                prop_assert!(cur <= prev + 1e-9, "k = {}, p = {}: {} > {}", k, p, cur, prev);
                prev = cur;
            }
        }
    }

    /// The estimate is never negative and never exceeds the padded
    /// dimension.
    #[test]
    fn estimates_are_bounded(c in arb_complex(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for k in 0..=c.max_dim().unwrap_or(0) {
            if c.count(k) == 0 {
                continue;
            }
            let l = combinatorial_laplacian(&c, k);
            let s = PaddedSpectrum::of_laplacian(
                &l,
                PaddingScheme::IdentityHalfLambdaMax,
                Delta::Auto,
                LambdaMaxBound::Gershgorin,
            );
            let est = s.estimate(3, 200, &mut rng);
            prop_assert!(est >= 0.0);
            prop_assert!(est <= (1usize << s.q) as f64 + 1e-9);
        }
    }

    /// Zero-fill padding with correction agrees with identity padding in
    /// the infinite-precision limit.
    #[test]
    fn padding_schemes_agree_asymptotically(c in arb_complex()) {
        for k in 0..=c.max_dim().unwrap_or(0) {
            if c.count(k) == 0 {
                continue;
            }
            let l = combinatorial_laplacian(&c, k);
            let exact = |scheme| {
                PaddedSpectrum::of_laplacian(&l, scheme, Delta::Auto, LambdaMaxBound::Gershgorin)
                    .estimate_exact(10)
            };
            let id = exact(PaddingScheme::IdentityHalfLambdaMax);
            let zeros = exact(PaddingScheme::Zeros);
            prop_assert!((id - zeros).abs() < 0.2, "k = {}: {} vs {}", k, id, zeros);
        }
    }
}
