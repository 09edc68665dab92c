//! Bit-identity pins for the shared-moments path: every noisy landscape
//! the runtime builds from one moments pass equals, bit for bit, the
//! landscape of per-point device executions (`execute_scaled_at`) at
//! each noise scale, for raw, Richardson-ZNE and linear-ZNE jobs, on a
//! 2-D grid, a depth-2 QAOA tensor and an H2 VQE scan.

use oscar_core::grid::{Grid2d, Shape};
use oscar_core::usecases::mitigation::zne_factor_seed;
use oscar_executor::device::DeviceSpec;
use oscar_mitigation::zne::{Extrapolation, ZneConfig};
use oscar_problems::ising::IsingProblem;
use oscar_problems::workload::{Molecule, ProblemInstance};
use oscar_runtime::cache::LandscapeCache;
use oscar_runtime::mitigation::{mitigated_landscape, Mitigation};
use oscar_runtime::source::LandscapeSource;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 9;

fn perth() -> DeviceSpec {
    DeviceSpec::by_name("ibm perth").expect("known device")
}

/// The three shape classes, each with its problem.
fn cases() -> Vec<(&'static str, ProblemInstance, Shape)> {
    let mut rng = StdRng::seed_from_u64(41);
    let ising = IsingProblem::random_3_regular(6, &mut rng);
    vec![
        (
            "2-D grid",
            ProblemInstance::ising(ising.clone(), 1),
            Shape::Grid2d(Grid2d::small_p1(5, 7)),
        ),
        (
            "p=2 tensor",
            ProblemInstance::ising(ising, 2),
            Shape::qaoa(2, 3, 4),
        ),
        (
            "H2 scan",
            ProblemInstance::molecule(Molecule::H2),
            Shape::vqe_scan(&[4, 3, 5]),
        ),
    ]
}

/// The landscape at `scale` from per-point device executions.
fn per_point(problem: &ProblemInstance, shape: &Shape, spec: &DeviceSpec, scale: f64) -> Vec<f64> {
    let seed = zne_factor_seed(SEED, scale);
    match problem {
        ProblemInstance::Ising { problem, depth } => {
            let spec = match shape {
                Shape::Grid2d(_) => spec.clone(),
                Shape::Tensor(_) => spec.clone().with_depth(*depth),
            };
            let qpu = spec.build(problem);
            (0..shape.len())
                .map(|i| {
                    let x = shape.point(i);
                    qpu.execute_scaled_at(&x[..*depth], &x[*depth..], scale, seed, i as u64)
                })
                .collect()
        }
        ProblemInstance::Molecule(molecule) => {
            let dev = spec.build_vqe(*molecule);
            (0..shape.len())
                .map(|i| dev.execute_scaled_at(&shape.point(i), scale, seed, i as u64))
                .collect()
        }
    }
}

fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: point {i}: {g} vs {w}");
    }
}

fn extrapolated(zne: &ZneConfig, factors: &[&Vec<f64>]) -> Vec<f64> {
    (0..factors[0].len())
        .map(|i| {
            let samples: Vec<f64> = factors.iter().map(|f| f[i]).collect();
            zne.extrapolate_values(&samples)
        })
        .collect()
}

#[test]
fn shared_moments_match_per_point_execution_bitwise() {
    let richardson = ZneConfig::new(vec![1.0, 2.0, 3.0], Extrapolation::Richardson);
    let linear = ZneConfig::new(vec![1.0, 3.0], Extrapolation::Linear);
    for (name, problem, shape) in cases() {
        for shots in [None, Some(128)] {
            let what = format!("{name}, shots {shots:?}");
            let source = LandscapeSource::Noisy {
                device: perth(),
                shots,
            };
            let spec = match shots {
                Some(s) => perth().with_shots(s),
                None => perth(),
            };
            let f1 = per_point(&problem, &shape, &spec, 1.0);
            let f2 = per_point(&problem, &shape, &spec, 2.0);
            let f3 = per_point(&problem, &shape, &spec, 3.0);

            let table = source.moments(&problem, &shape);
            for (scale, want) in [(1.0, &f1), (2.0, &f2), (3.0, &f3)] {
                let at = format!("{what}, scale {scale}");
                let generated = source.generate_scaled(&problem, &shape, SEED, scale);
                assert_bits_eq(generated.values(), want, &at);
                assert_bits_eq(&table.values(SEED, scale), want, &at);
            }

            let job = |mitigation: &Mitigation, cache: Option<&LandscapeCache>| {
                let (landscape, _) =
                    mitigated_landscape(&problem, &shape, &source, SEED, mitigation, cache);
                assert_eq!(landscape.shape(), shape, "{what}: {}", mitigation.name());
                landscape.values().to_vec()
            };
            let want_richardson = extrapolated(&richardson, &[&f1, &f2, &f3]);
            let want_linear = extrapolated(&linear, &[&f1, &f3]);
            assert_bits_eq(&job(&Mitigation::None, None), &f1, &format!("{what}, raw"));
            assert_bits_eq(
                &job(&Mitigation::zne_richardson(), None),
                &want_richardson,
                &format!("{what}, richardson"),
            );
            assert_bits_eq(
                &job(&Mitigation::zne_linear(), None),
                &want_linear,
                &format!("{what}, linear"),
            );

            // Through a cache: the linear job misses factors 1 and 3, the
            // Richardson job then misses factor 2 alone, so its moments
            // pass feeds a single factor.
            let cache = LandscapeCache::new(16);
            assert_bits_eq(
                &job(&Mitigation::zne_linear(), Some(&cache)),
                &want_linear,
                &format!("{what}, cached linear"),
            );
            assert_bits_eq(
                &job(&Mitigation::zne_richardson(), Some(&cache)),
                &want_richardson,
                &format!("{what}, cached richardson"),
            );
            assert_bits_eq(
                &job(&Mitigation::None, Some(&cache)),
                &f1,
                &format!("{what}, cached raw"),
            );
        }
    }
}

#[test]
fn exact_source_table_is_the_ideal_landscape_at_every_scale() {
    for (name, problem, shape) in cases() {
        let exact = LandscapeSource::Exact;
        let table = exact.moments(&problem, &shape);
        let ideal: Vec<f64> = match &problem {
            ProblemInstance::Ising { problem, depth } => {
                let eval = problem.qaoa_evaluator();
                (0..shape.len())
                    .map(|i| {
                        let x = shape.point(i);
                        eval.expectation(&x[..*depth], &x[*depth..])
                    })
                    .collect()
            }
            ProblemInstance::Molecule(molecule) => {
                let eval = oscar_problems::workload::VqeEvaluator::new(*molecule);
                (0..shape.len())
                    .map(|i| eval.expectation(&shape.point(i)))
                    .collect()
            }
        };
        for scale in [1.0, 2.0, 3.0] {
            assert_bits_eq(&table.values(SEED, scale), &ideal, name);
            assert_bits_eq(
                exact
                    .generate_scaled(&problem, &shape, SEED, scale)
                    .values(),
                &ideal,
                name,
            );
        }
    }
}
