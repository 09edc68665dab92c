//! Figure 10: the three landscape metrics (second derivative, variance of
//! gradient, variance) for unmitigated / Richardson / linear landscapes,
//! original vs OSCAR-reconstructed. Device from the shared registry
//! (default "zne sim"; `--device NAME` overrides, unknown names exit 2).

use oscar_bench::{device_from_args, full_scale, print_header, seeded};
use oscar_core::grid::Grid2d;
use oscar_core::reconstruct::Reconstructor;
use oscar_core::usecases::mitigation::ZneLandscapes;
use oscar_problems::ising::IsingProblem;

fn main() {
    print_header("Figure 10", "mitigation metrics, original vs reconstructed");
    let n = if full_scale() { 16 } else { 12 };
    let mut rng = seeded(10_000);
    let problem = IsingProblem::random_3_regular(n, &mut rng);
    let spec = device_from_args("zne sim");
    let device = spec.build(&problem);
    let grid = Grid2d::small_p1(20, 30);

    let set = ZneLandscapes::generate_seeded(&device, grid, 4);
    let original = set.metrics();
    let mut rng = seeded(10_001);
    let recon = set.reconstructed_metrics(&Reconstructor::default(), 0.3, &mut rng);

    for (metric, f) in [
        (
            "Second Derivative",
            (|m: &oscar_core::metrics::LandscapeMetrics| m.second_derivative)
                as fn(&oscar_core::metrics::LandscapeMetrics) -> f64,
        ),
        ("Variance of gradient", |m| m.variance_of_gradients),
        ("Variance of landscape", |m| m.variance),
    ] {
        println!("{metric}:");
        println!(
            "{:<16}{:>14}{:>14}{:>14}",
            "", "Unmitigated", "Richardson", "Linear"
        );
        println!(
            "{:<16}{:>14.4}{:>14.4}{:>14.4}",
            "Original",
            f(&original.unmitigated),
            f(&original.richardson),
            f(&original.linear)
        );
        println!(
            "{:<16}{:>14.4}{:>14.4}{:>14.4}\n",
            "Reconstructed",
            f(&recon.unmitigated),
            f(&recon.richardson),
            f(&recon.linear)
        );
    }
    println!("paper shape: Richardson's second derivative dwarfs the others in both");
    println!("rows; VoG and variance are comparable between Richardson and linear;");
    println!("reconstructed rows preserve the orderings of the original rows.");
}
