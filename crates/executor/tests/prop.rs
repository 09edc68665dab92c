//! Property-based tests for the multi-QPU execution substrate.

use oscar_executor::prelude::*;
use oscar_mitigation::model::NoiseModel;
use oscar_problems::ising::IsingProblem;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_problem(seed: u64) -> IsingProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    IsingProblem::random_3_regular(6, &mut rng)
}

fn jobs(count: usize) -> Vec<Job> {
    (0..count)
        .map(|i| Job {
            index: i,
            betas: vec![0.01 * i as f64],
            gammas: vec![0.015 * i as f64],
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every job is returned exactly once for any valid share split; its
    /// value is its device's execution keyed by `(seed, job index)`, bit
    /// for bit; and a second run gives identical outcomes, completion
    /// times included.
    #[test]
    fn split_is_a_partition(share in 0.0f64..1.0, n_jobs in 1usize..40, seed in 0u64..1000) {
        let p = small_problem(1);
        let noise = NoiseModel::ideal().with_shots(256);
        let d1 = QpuDevice::new("a", &p, 1, noise, LatencyModel::cloud_queue());
        let d2 = QpuDevice::new("b", &p, 1, noise, LatencyModel::cloud_queue());
        let devices = [&d1, &d2];
        let js = jobs(n_jobs);
        let out = execute_split(&devices, &[share, 1.0 - share], &js, seed);
        prop_assert_eq!(out.len(), n_jobs);
        let mut indices: Vec<usize> = out.iter().map(|o| o.index).collect();
        indices.dedup();
        prop_assert_eq!(indices, (0..n_jobs).collect::<Vec<_>>());
        for o in &out {
            let job = &js[o.index];
            let expect = devices[o.device].execute_at(&job.betas, &job.gammas, seed, o.index as u64);
            prop_assert_eq!(o.value.to_bits(), expect.to_bits());
        }
        let again = execute_split(&devices, &[share, 1.0 - share], &js, seed);
        let bits = |o: &Outcome| (o.index, o.device, o.value.to_bits(), o.completion_time.to_bits());
        prop_assert_eq!(out.iter().map(bits).collect::<Vec<_>>(), again.iter().map(bits).collect::<Vec<_>>());
    }

    /// The timeout filter keeps exactly the outcomes within the deadline
    /// and is monotone in the deadline.
    #[test]
    fn timeout_filter_monotone(n_jobs in 2usize..30, t1 in 0.1f64..0.6, t2 in 0.6f64..1.0) {
        let p = small_problem(2);
        let d = QpuDevice::new("a", &p, 1, NoiseModel::ideal(), LatencyModel::cloud_queue());
        let out = execute_round_robin(&[&d], &jobs(n_jobs), 5);
        let total = makespan(&out);
        let kept1 = within_timeout(&out, total * t1);
        let kept2 = within_timeout(&out, total * t2);
        prop_assert!(kept1.len() <= kept2.len());
        prop_assert!(kept1.iter().all(|o| o.completion_time <= total * t1));
    }

    /// The NCM fit is affine-equivariant: scaling both sides scales the
    /// prediction.
    #[test]
    fn ncm_affine_equivariance(scale in 0.1f64..5.0, seed in 0u64..200) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<f64> = (0..30).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 1.3 * x - 0.4).collect();
        let m = NoiseCompensationModel::fit(&xs, &ys);
        let ys_scaled: Vec<f64> = ys.iter().map(|y| y * scale).collect();
        let m_scaled = NoiseCompensationModel::fit(&xs, &ys_scaled);
        for &x in xs.iter().take(5) {
            prop_assert!((m_scaled.transform(x) - scale * m.transform(x)).abs() < 1e-9);
        }
    }

    /// Latency samples are always at least the base time.
    #[test]
    fn latency_at_least_base(base in 0.0f64..5.0, mu in -1.0f64..3.0, sigma in 0.0f64..2.0, seed in 0u64..100) {
        let model = LatencyModel::new(base, mu, sigma);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(model.sample(&mut rng) >= base);
        }
    }

    /// Hardware-like landscapes have the configured damping: zero drift
    /// and white noise leave a pure convex combination with the mixed mean.
    #[test]
    fn hardware_like_pure_damping(fidelity in 0.1f64..0.9) {
        let p = small_problem(3);
        let cfg = HardwareLikeConfig { fidelity, drift_std: 0.0, white_std: 0.0, drift_cells: 4 };
        let mut rng = StdRng::seed_from_u64(4);
        let (noisy, ideal) =
            hardware_like_landscape(&p, 8, 8, (-0.5, 0.5), (0.0, 1.0), &cfg, &mut rng);
        let mixed = p.qaoa_evaluator().diagonal_mean();
        for (n, i) in noisy.iter().zip(&ideal) {
            let expect = fidelity * i + (1.0 - fidelity) * mixed;
            prop_assert!((n - expect).abs() < 1e-9);
        }
    }
}

/// Chunk-boundary apportionment invariants of `execute_split` /
/// `split_boundaries`, over random share vectors (the satellite fix for
/// the seed's cumulative-rounding scheme).
mod split_apportionment {
    use oscar_executor::prelude::split_boundaries;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every job is assigned to exactly one contiguous chunk, and each
        /// device's count differs from its exact proportional share by
        /// less than one job — for any normalized share vector, including
        /// ones with zero entries.
        #[test]
        fn boundaries_partition_exactly(seed in 0u64..10_000, devices in 1usize..7, n in 0usize..200) {
            let mut rng = StdRng::seed_from_u64(seed);
            // Random non-negative weights, some forced to zero, normalized.
            let mut weights: Vec<f64> = (0..devices)
                .map(|_| if rng.gen_range(0.0..1.0) < 0.2 { 0.0 } else { rng.gen_range(0.0..1.0) })
                .collect();
            let total: f64 = weights.iter().sum();
            if total == 0.0 {
                weights[0] = 1.0;
            }
            let total: f64 = weights.iter().sum();
            for w in &mut weights {
                *w /= total;
            }

            let bounds = split_boundaries(&weights, n);
            prop_assert_eq!(bounds.len(), devices + 1);
            prop_assert_eq!(bounds[0], 0);
            prop_assert_eq!(*bounds.last().unwrap(), n);
            // Monotone boundaries <=> disjoint contiguous chunks covering 0..n.
            for w in bounds.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
            // Largest-remainder quota property: |count - share*n| < 1.
            for (d, &share) in weights.iter().enumerate() {
                let count = (bounds[d + 1] - bounds[d]) as f64;
                let quota = share * n as f64;
                prop_assert!(
                    (count - quota).abs() < 1.0,
                    "device {} got {} jobs for quota {}", d, count, quota
                );
            }
        }
    }
}
