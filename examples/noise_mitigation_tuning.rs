//! Use case 1 (paper §6): benchmark ZNE configurations on reconstructed
//! landscapes instead of full grid searches.
//!
//! Richardson extrapolation on scales {1,2,3} amplifies shot noise into
//! "salt-like" jaggedness; linear extrapolation on {1,3} stays smooth.
//! OSCAR's reconstructions preserve that difference, so the mitigation
//! configuration can be chosen from a 30% sample of the landscape.
//!
//! ```sh
//! cargo run --release --example noise_mitigation_tuning
//! ```

use oscar::core::prelude::*;
use oscar::executor::prelude::*;
use oscar::mitigation::model::NoiseModel;
use oscar::problems::ising::IsingProblem;
use rand::SeedableRng;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let problem = IsingProblem::random_3_regular(12, &mut rng);

    // Figure 9's setting: depolarizing noise (1q 0.001, 2q 0.02) with
    // finite shots so extrapolation-amplified shot noise is visible.
    let noise = NoiseModel::depolarizing(0.001, 0.02).with_shots(2048);
    let device = QpuDevice::new("noisy-qpu", &problem, 1, noise, LatencyModel::instant());

    let grid = Grid2d::small_p1(20, 28);
    println!(
        "generating unmitigated / Richardson / linear landscapes on a {}x{} grid...",
        grid.rows(),
        grid.cols()
    );
    let set = ZneLandscapes::generate_seeded(&device, grid, 1);

    let original = set.metrics();
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    let reconstructed = set.reconstructed_metrics(&Reconstructor::default(), 0.3, &mut rng);

    println!(
        "\n{:<22}{:>14}{:>14}{:>14}",
        "metric", "unmitigated", "Richardson", "linear"
    );
    let row = |name: &str, m: &MitigationMetrics, f: fn(&LandscapeMetrics) -> f64| {
        println!(
            "{:<22}{:>14.4}{:>14.4}{:>14.4}",
            name,
            f(&m.unmitigated),
            f(&m.richardson),
            f(&m.linear)
        );
    };
    println!("-- original landscapes --");
    row("second derivative", &original, |m| m.second_derivative);
    row("variance of gradient", &original, |m| {
        m.variance_of_gradients
    });
    row("variance", &original, |m| m.variance);
    println!("-- OSCAR reconstructions (30% samples) --");
    row("second derivative", &reconstructed, |m| m.second_derivative);
    row("variance of gradient", &reconstructed, |m| {
        m.variance_of_gradients
    });
    row("variance", &reconstructed, |m| m.variance);

    // The actionable conclusion (Figure 10): Richardson is far rougher.
    assert!(original.richardson.second_derivative > original.linear.second_derivative);
    assert!(reconstructed.richardson.second_derivative > reconstructed.linear.second_derivative);
    println!("\nconclusion: Richardson ZNE adds jaggedness; prefer linear extrapolation here.");
}
