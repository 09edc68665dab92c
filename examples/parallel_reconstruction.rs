//! Parallel multi-QPU reconstruction with noise compensation (paper §5).
//!
//! Samples are split across two simulated QPUs with different noise
//! levels. Uncompensated mixing produces an "artificial" landscape; the
//! linear-regression Noise Compensation Model (NCM), trained on 1% of
//! points executed on both devices, restores the reference device's
//! landscape. Eager reconstruction drops queue-tail stragglers.
//!
//! ```sh
//! cargo run --release --example parallel_reconstruction
//! ```

use oscar::core::prelude::*;
use oscar::executor::prelude::*;
use oscar::mitigation::model::NoiseModel;
use oscar::problems::ising::IsingProblem;
use oscar_cs::measure::SamplePattern;
use rand::SeedableRng;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let problem = IsingProblem::random_3_regular(12, &mut rng);

    // Figure 8's setting: QPU-1 (reference) 0.1%/0.5%, QPU-2 0.3%/0.7%.
    let qpu1 = QpuDevice::new(
        "qpu-1",
        &problem,
        1,
        NoiseModel::depolarizing(0.001, 0.005),
        LatencyModel::cloud_queue(),
    );
    let qpu2 = QpuDevice::new(
        "qpu-2",
        &problem,
        1,
        NoiseModel::depolarizing(0.003, 0.007),
        LatencyModel::cloud_queue(),
    );

    // Every execution draws its noise from a counter stream keyed by a
    // seed and the point index: QPU-1 uses seed 1, QPU-2 seed 2.
    let grid = Grid2d::small_p1(30, 40);
    // Target landscape: what QPU-1 alone would produce.
    let target =
        Landscape::generate_indexed_par(grid, |i, b, g| qpu1.execute_at(&[b], &[g], 1, i as u64));

    // Sample 10% of the grid, half on each QPU.
    let pattern = SamplePattern::random(grid.rows(), grid.cols(), 0.10, &mut rng);
    let jobs: Vec<Job> = pattern
        .indices()
        .iter()
        .enumerate()
        .map(|(i, &flat)| {
            let (b, g) = grid.point(flat);
            Job {
                index: i,
                betas: vec![b],
                gammas: vec![g],
            }
        })
        .collect();
    let outcomes = execute_split(&[&qpu1, &qpu2], &[0.5, 0.5], &jobs, 1);
    println!(
        "collected {} samples across 2 QPUs, simulated makespan {:.1} s",
        outcomes.len(),
        makespan(&outcomes)
    );

    // Train the NCM on 1% of the grid executed on BOTH devices.
    let train = SamplePattern::random(grid.rows(), grid.cols(), 0.01, &mut rng);
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for &flat in train.indices() {
        let (b, g) = grid.point(flat);
        xs.push(qpu2.execute_at(&[b], &[g], 2, flat as u64));
        ys.push(qpu1.execute_at(&[b], &[g], 1, flat as u64));
    }
    let ncm = NoiseCompensationModel::fit(&xs, &ys);
    println!(
        "NCM: slope {:.3}, intercept {:.3}, R^2 {:.4} (trained on {} pairs)",
        ncm.slope(),
        ncm.intercept(),
        ncm.r_squared(),
        xs.len()
    );

    // Reconstruct with and without compensation.
    let oscar = Reconstructor::default();
    let raw: Vec<f64> = outcomes.iter().map(|o| o.value).collect();
    let compensated: Vec<f64> = outcomes
        .iter()
        .map(|o| {
            if o.device == 1 {
                ncm.transform(o.value)
            } else {
                o.value
            }
        })
        .collect();
    let (l_raw, _) = oscar.reconstruct(&grid, &pattern, &raw);
    let (l_ncm, _) = oscar.reconstruct(&grid, &pattern, &compensated);
    let e_raw = nrmse(target.values(), l_raw.values());
    let e_ncm = nrmse(target.values(), l_ncm.values());
    println!("NRMSE vs QPU-1 landscape: uncompensated {e_raw:.4}, with NCM {e_ncm:.4}");

    // Eager reconstruction: drop the latency tail at 60% of the makespan.
    let deadline = makespan(&outcomes) * 0.6;
    let kept = within_timeout(&outcomes, deadline);
    let kept_idx: Vec<usize> = kept.iter().map(|o| pattern.indices()[o.index]).collect();
    let eager_pattern = SamplePattern::from_indices(grid.rows(), grid.cols(), kept_idx);
    let eager_vals: Vec<f64> = kept
        .iter()
        .map(|o| {
            if o.device == 1 {
                ncm.transform(o.value)
            } else {
                o.value
            }
        })
        .collect();
    let (l_eager, _) = oscar.reconstruct(&grid, &eager_pattern, &eager_vals);
    let e_eager = nrmse(target.values(), l_eager.values());
    println!(
        "eager: kept {}/{} samples by t={deadline:.1} s, NRMSE {e_eager:.4}",
        kept.len(),
        outcomes.len()
    );

    assert!(e_ncm < e_raw, "NCM should reduce the error");
    println!("\nok: NCM preserves the reference device's noise signature.");
}
