//! Quantum-vs-classical baseline comparison (extension experiment).
//!
//! The paper motivates QTDA by the cost of classical Betti computation.
//! This binary makes the comparison concrete on random complexes: exact
//! rank–nullity (ground truth), the QPE estimator at several resource
//! levels, and the classical stochastic Chebyshev–Hutchinson estimator
//! of the paper's reference 15 (Ubaru et al.) at matched work levels.
//!
//! ```text
//! cargo run --release -p qtda-bench --bin baseline [-- --seed N --csv baseline.csv]
//! ```

use qtda_bench::cli::CommonArgs;
use qtda_bench::table::Table;
use qtda_core::padding::{LambdaMaxBound, PaddingScheme};
use qtda_core::scaling::Delta;
use qtda_core::spectrum::PaddedSpectrum;
use qtda_tda::betti::betti_numbers;
use qtda_tda::laplacian::combinatorial_laplacian;
use qtda_tda::random::RandomComplexModel;
use qtda_tda::spectral_betti::{betti_stochastic, SpectralBettiParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = CommonArgs::parse();
    let complexes = if args.fast { 8 } else { 30 };
    let n = 10;

    let quantum_settings = [(3usize, 100usize), (5, 1000), (8, 10000)];
    let classical_settings = [(40usize, 12usize), (80, 48), (140, 96)];

    let mut quantum_err = vec![0.0f64; quantum_settings.len()];
    let mut classical_err = vec![0.0f64; classical_settings.len()];
    let mut samples = 0usize;

    let mut rng = StdRng::seed_from_u64(args.seed);
    for _ in 0..complexes {
        let complex =
            RandomComplexModel::ErdosRenyiFlag { n, edge_prob: 0.45, max_dim: 2 }.sample(&mut rng);
        let exact = betti_numbers(&complex);
        for k in 0..=1usize {
            if complex.count(k) == 0 {
                continue;
            }
            let truth = exact.get(k).copied().unwrap_or(0) as f64;
            let laplacian = combinatorial_laplacian(&complex, k);
            let spectrum = PaddedSpectrum::of_laplacian(
                &laplacian,
                PaddingScheme::IdentityHalfLambdaMax,
                Delta::Auto,
                LambdaMaxBound::Gershgorin,
            );
            for (i, &(precision, shots)) in quantum_settings.iter().enumerate() {
                let est = spectrum.estimate(precision, shots, &mut rng);
                quantum_err[i] += (est - truth).abs();
            }
            for (i, &(degree, probes)) in classical_settings.iter().enumerate() {
                let est = betti_stochastic(
                    &complex,
                    k,
                    &SpectralBettiParams { degree, probes, gap: 0.4 },
                    &mut rng,
                );
                classical_err[i] += (est - truth).abs();
            }
            samples += 1;
        }
    }

    let mut table = Table::new(&["estimator", "resources", "mean_abs_error"]);
    for (i, &(precision, shots)) in quantum_settings.iter().enumerate() {
        table.row(vec![
            "QPE (quantum)".into(),
            format!("p={precision} shots={shots}"),
            format!("{:.4}", quantum_err[i] / samples as f64),
        ]);
    }
    for (i, &(degree, probes)) in classical_settings.iter().enumerate() {
        table.row(vec![
            "Chebyshev–Hutchinson (classical)".into(),
            format!("deg={degree} probes={probes}"),
            format!("{:.4}", classical_err[i] / samples as f64),
        ]);
    }
    println!(
        "{} random flag complexes (n = {n}), {} (complex, k) samples, seed {}\n",
        complexes, samples, args.seed
    );
    println!("{}", table.render());
    println!("Both estimators converge to the exact Betti numbers as resources grow;");
    println!("the quantum route pays in precision qubits × shots, the classical one");
    println!("in polynomial degree × probe vectors (each probe = `degree` sparse matvecs).");

    if let Some(path) = &args.csv {
        table.write_csv(path).expect("failed to write CSV");
        eprintln!("baseline: wrote {path}");
    }
}
