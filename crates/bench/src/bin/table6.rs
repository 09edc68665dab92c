//! Table 6: number of QPU queries to reach convergence for ADAM and
//! COBYLA on depth-1 QAOA MaxCut, with random vs OSCAR initialization.

use oscar_bench::{full_scale, maxcut_instances, print_header, seeded};
use oscar_core::grid::Grid2d;
use oscar_core::landscape::Landscape;
use oscar_core::reconstruct::Reconstructor;
use oscar_core::usecases::initialization::compare_initialization;
use oscar_executor::device::QpuDevice;
use oscar_executor::latency::LatencyModel;
use oscar_mitigation::model::NoiseModel;
use oscar_optim::adam::Adam;
use oscar_optim::cobyla::Cobyla;
use oscar_optim::objective::Optimizer;
use rand::Rng;

fn main() {
    print_header(
        "Table 6",
        "QPU queries to convergence: random vs OSCAR init",
    );
    let (instances, n) = if full_scale() {
        (14usize, 16usize)
    } else {
        (8, 12)
    };
    let grid = Grid2d::small_p1(25, 35);
    let fraction = 0.10;
    let oscar = Reconstructor::default();

    println!(
        "{:<16}{:>14}{:>14}{:>18}",
        "config", "random, opt.", "OSCAR, opt.", "OSCAR, opt.+recon"
    );
    for noisy in [false, true] {
        let problems = maxcut_instances(instances, n, 13_000 + noisy as u64);
        type Row = (String, Vec<usize>, Vec<usize>, Vec<usize>);
        let mut rows: Vec<Row> = vec![
            ("ADAM".into(), vec![], vec![], vec![]),
            ("COBYLA".into(), vec![], vec![], vec![]),
        ];
        for (pi, problem) in problems.iter().enumerate() {
            let truth = if noisy {
                let dev = QpuDevice::new(
                    "noisy",
                    problem,
                    1,
                    NoiseModel::depolarizing(0.003, 0.007),
                    LatencyModel::instant(),
                );
                Landscape::generate_indexed_par(grid, |i, b, g| {
                    dev.execute_at(&[b], &[g], pi as u64, i as u64)
                })
            } else {
                Landscape::from_qaoa(grid, &problem.qaoa_evaluator())
            };
            let mut rng = seeded(13_100 + pi as u64);
            let report = oscar.reconstruct_fraction(&truth, fraction, &mut rng);
            let spline = oscar_core::interpolate::BivariateSpline::fit(&truth);
            let random_init = [rng.gen_range(-0.75..0.75), rng.gen_range(-1.5..1.5)];

            let optimizers: Vec<Box<dyn Optimizer>> = vec![
                Box::new(Adam {
                    max_iter: 1500,
                    grad_tol: 5e-3,
                    ..Adam::default()
                }),
                Box::new(Cobyla::default()),
            ];
            for (oi, opt) in optimizers.iter().enumerate() {
                let mut circ = |p: &[f64]| spline.eval_clamped(p[0], p[1]);
                let cmp = compare_initialization(
                    opt.as_ref(),
                    &report.landscape,
                    report.samples_used,
                    &mut circ,
                    random_init,
                );
                rows[oi].1.push(cmp.random_queries);
                rows[oi].2.push(cmp.oscar_queries);
                rows[oi].3.push(cmp.oscar_total_queries());
            }
        }
        let label = if noisy { "noisy" } else { "ideal" };
        for (name, rand_q, oscar_q, total_q) in &rows {
            let mean = |v: &Vec<usize>| v.iter().sum::<usize>() / v.len();
            println!(
                "{:<16}{:>14}{:>14}{:>18}",
                format!("{name}, {label}"),
                mean(rand_q),
                mean(oscar_q),
                mean(total_q)
            );
        }
    }
    println!("\npaper (Table 6): ADAM 3127 random vs 370 OSCAR (620 with recon);");
    println!("COBYLA 38-40 random vs 32 OSCAR (282 with recon).");
    println!("expected shape: OSCAR slashes ADAM's queries even counting recon");
    println!("overhead; for frugal COBYLA the recon overhead dominates.");
}
