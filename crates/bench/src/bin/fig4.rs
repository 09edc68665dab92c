//! Figure 4: median reconstruction error vs sampling fraction for p=1 and
//! p=2 QAOA MaxCut landscapes, ideal and with depolarizing noise
//! (1q error 0.003, 2q error 0.007).

use oscar_bench::{full_scale, maxcut_instances, print_header, seeded, Quartiles};
use oscar_core::grid::{Grid2d, Grid4d};
use oscar_core::landscape::Landscape;
use oscar_core::metrics::nrmse;
use oscar_core::reconstruct::Reconstructor;
use oscar_core::reshape::generate_p2_landscape;
use oscar_cs::measure::SamplePattern;
use oscar_executor::device::QpuDevice;
use oscar_executor::latency::LatencyModel;
use oscar_mitigation::model::NoiseModel;

const FRACTIONS: [f64; 5] = [0.04, 0.05, 0.06, 0.07, 0.08];

fn main() {
    print_header(
        "Figure 4",
        "NRMSE vs sampling fraction (p=1/p=2, ideal/noisy)",
    );
    let (instances, qubit_sets, grid) = if full_scale() {
        (16usize, vec![16usize, 20, 24], Grid2d::standard_p1())
    } else {
        (8, vec![12, 14, 16], Grid2d::small_p1(25, 50))
    };
    let oscar = Reconstructor::default();
    let noise = NoiseModel::depolarizing(0.003, 0.007).with_shots(4096);

    for (panel, noisy) in [("(A) p=1, ideal", false), ("(B) p=1, noisy", true)] {
        println!("{panel}");
        println!(
            "{:<10}{}",
            "qubits",
            FRACTIONS.map(|f| format!("{f:>22.2}")).join("")
        );
        for &n in &qubit_sets {
            let problems = maxcut_instances(instances, n, 1000 + n as u64);
            let mut per_fraction: Vec<Vec<f64>> = vec![Vec::new(); FRACTIONS.len()];
            for (pi, problem) in problems.iter().enumerate() {
                let truth = if noisy {
                    let dev = QpuDevice::new("noisy", problem, 1, noise, LatencyModel::instant());
                    let seed = 2000 + pi as u64;
                    Landscape::generate_indexed_par(grid, |i, b, g| {
                        dev.execute_at(&[b], &[g], seed, i as u64)
                    })
                } else {
                    Landscape::from_qaoa(grid, &problem.qaoa_evaluator())
                };
                for (fi, &frac) in FRACTIONS.iter().enumerate() {
                    let mut rng = seeded(3000 + (pi * 10 + fi) as u64);
                    let report = oscar.reconstruct_fraction(&truth, frac, &mut rng);
                    per_fraction[fi].push(report.nrmse);
                }
            }
            let cells: String = per_fraction
                .iter()
                .map(|errs| {
                    let q = Quartiles::of(errs);
                    format!("  {:>5.3}/{:>5.3}/{:>5.3}", q.q25, q.q50, q.q75)
                })
                .collect();
            println!("{n:<10}{cells}");
        }
        println!();
    }

    // p=2: reshape the 4-D landscape to 2-D (paper: (12,12,15,15) ->
    // (144,225)); reduced scale uses (8,8,10,10) -> (64,100).
    let grid4 = if full_scale() {
        Grid4d::standard_p2()
    } else {
        Grid4d::small_p2(8, 10)
    };
    let (rows, cols) = grid4.reshaped_dims();
    let p2_qubits = if full_scale() {
        vec![12usize, 16]
    } else {
        vec![10usize, 12]
    };
    for (panel, noisy) in [("(C) p=2, ideal", false), ("(D) p=2, noisy", true)] {
        println!("{panel}  (reshaped {rows}x{cols})");
        println!(
            "{:<10}{}",
            "qubits",
            FRACTIONS.map(|f| format!("{f:>22.2}")).join("")
        );
        for &n in &p2_qubits {
            let problems = maxcut_instances(instances.min(6), n, 4000 + n as u64);
            let mut per_fraction: Vec<Vec<f64>> = vec![Vec::new(); FRACTIONS.len()];
            for (pi, problem) in problems.iter().enumerate() {
                let values = if noisy {
                    let dev = QpuDevice::new("noisy", problem, 2, noise, LatencyModel::instant());
                    let seed = 5000 + pi as u64;
                    generate_p2_landscape(&grid4, |i, betas, gammas| {
                        dev.execute_at(betas, gammas, seed, i as u64)
                    })
                } else {
                    let eval = problem.qaoa_evaluator();
                    generate_p2_landscape(&grid4, |_, betas, gammas| {
                        eval.expectation(betas, gammas)
                    })
                };
                for (fi, &frac) in FRACTIONS.iter().enumerate() {
                    let mut rng = seeded(6000 + (pi * 10 + fi) as u64);
                    let pattern = SamplePattern::random(rows, cols, frac, &mut rng);
                    let samples = pattern.gather(&values);
                    let recon = oscar.reconstruct_array(rows, cols, &pattern, &samples);
                    per_fraction[fi].push(nrmse(&values, &recon));
                }
            }
            let cells: String = per_fraction
                .iter()
                .map(|errs| {
                    let q = Quartiles::of(errs);
                    format!("  {:>5.3}/{:>5.3}/{:>5.3}", q.q25, q.q50, q.q75)
                })
                .collect();
            println!("{n:<10}{cells}");
        }
        println!();
    }
    println!("cells are q25/median/q75 NRMSE over instances.");
    println!("paper shape: errors fall with fraction; p=1 ~0.01-0.05, noisy slightly");
    println!("higher; p=2 ~0.08-0.25 (reshaping introduces artificial patterns).");
}
