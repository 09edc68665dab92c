//! Table 5: errors between reconstructed and QPU-1 landscapes for
//! different device/simulator combinations, with and without NCM.
//!
//! "ibm perth" / "ibm lagos" are simulated stand-ins (DESIGN.md): 7-qubit
//! class devices modeled with distinct depolarizing + readout + shot
//! configurations.

use oscar_bench::{device_spec_or_exit, print_header, seeded};
use oscar_core::grid::Grid2d;
use oscar_core::landscape::Landscape;
use oscar_core::metrics::nrmse;
use oscar_core::reconstruct::Reconstructor;
use oscar_cs::measure::SamplePattern;
use oscar_executor::device::QpuDevice;
use oscar_executor::ncm::NoiseCompensationModel;
use oscar_problems::ising::IsingProblem;

const MIXES: [(f64, &str); 4] = [
    (0.2, "20%-80%"),
    (0.5, "50%-50%"),
    (0.8, "80%-20%"),
    (1.0, "100%-0%"),
];

/// The device `name` for `problem`, and the noise seed it executes with.
fn device(name: &str, problem: &IsingProblem, seed: u64) -> (QpuDevice, u64) {
    // Device noise presets live in the shared registry
    // (`oscar_executor::device::DeviceSpec::by_name`), which is also
    // what `oscar-batch --device` resolves against.
    let spec = device_spec_or_exit(name);
    // Mix the device name into the seed so distinct devices draw distinct
    // shot-noise streams even in the same table position.
    let name_salt: u64 = name.bytes().map(|b| b as u64).sum();
    (spec.build(problem), seed + name_salt * 131)
}

fn main() {
    print_header("Table 5", "NCM across device/simulator combinations");
    let mut rng = seeded(9000);
    let problem = IsingProblem::random_3_regular(8, &mut rng);
    let grid = Grid2d::small_p1(25, 40);
    let fraction = 0.15;
    let pattern_repeats = 3usize; // average out per-pattern variance
    let oscar = Reconstructor::default();

    let combos = [
        ("noisy sim-i", "noisy sim-ii"),
        ("noisy sim-ii", "noisy sim-i"),
        ("ibm perth", "ideal sim"),
        ("ibm perth", "noisy sim"),
        ("ibm perth", "ibm lagos"),
        ("ibm lagos", "ibm perth"),
        ("ideal sim", "ibm perth"),
    ];

    println!(
        "{:<14}{:<14}{}",
        "QPU1",
        "QPU2",
        MIXES
            .map(|(_, label)| format!("{:>9}{:>9}", format!("{label}"), "+ncm"))
            .join("")
    );
    for (q1_name, q2_name) in combos {
        let (q1, s1) = device(q1_name, &problem, 11);
        let (q2, s2) = device(q2_name, &problem, 22);
        let target = Landscape::generate_indexed_par(grid, |i, b, g| {
            q1.execute_at(&[b], &[g], s1, i as u64)
        });

        // NCM training: 1% of the grid on both devices.
        let mut rng = seeded(9100);
        let train = SamplePattern::random(grid.rows(), grid.cols(), 0.02, &mut rng);
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        for &flat in train.indices() {
            let (b, g) = grid.point(flat);
            xs.push(q2.execute_at(&[b], &[g], s2, flat as u64));
            ys.push(q1.execute_at(&[b], &[g], s1, flat as u64));
        }
        let ncm = NoiseCompensationModel::fit(&xs, &ys);

        let mut cells = String::new();
        for (share, _) in MIXES {
            let mut e_raw_acc = 0.0;
            let mut e_ncm_acc = 0.0;
            for rep in 0..pattern_repeats {
                let mut rng = seeded(9200 + (share * 100.0) as u64 + rep as u64 * 7);
                let pattern = SamplePattern::random(grid.rows(), grid.cols(), fraction, &mut rng);
                let split = (share * pattern.num_samples() as f64).round() as usize;
                let values_raw: Vec<f64> = pattern
                    .indices()
                    .iter()
                    .enumerate()
                    .map(|(i, &flat)| {
                        let (b, g) = grid.point(flat);
                        if i < split {
                            q1.execute_at(&[b], &[g], s1, flat as u64)
                        } else {
                            q2.execute_at(&[b], &[g], s2, flat as u64)
                        }
                    })
                    .collect();
                let values_ncm: Vec<f64> = values_raw
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| if i < split { v } else { ncm.transform(v) })
                    .collect();
                let (l_raw, _) = oscar.reconstruct(&grid, &pattern, &values_raw);
                e_raw_acc += nrmse(target.values(), l_raw.values());
                if share < 1.0 {
                    let (l_ncm, _) = oscar.reconstruct(&grid, &pattern, &values_ncm);
                    e_ncm_acc += nrmse(target.values(), l_ncm.values());
                }
            }
            let e_raw = e_raw_acc / pattern_repeats as f64;
            if share == 1.0 {
                cells.push_str(&format!("{e_raw:>9.3}{:>9}", "-"));
            } else {
                let e_ncm = e_ncm_acc / pattern_repeats as f64;
                cells.push_str(&format!("{e_raw:>9.3}{e_ncm:>9.3}"));
            }
        }
        println!("{q1_name:<14}{q2_name:<14}{cells}");
    }
    println!("\npaper shape: +NCM < uncompensated in every mixed column; error");
    println!("falls as the QPU-1 share rises; noisy-sim pairs compensate to ~0.002.");
}
