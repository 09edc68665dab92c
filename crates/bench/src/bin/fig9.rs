//! Figure 9: Richardson vs linear ZNE landscapes (original and
//! reconstructed) on a depth-1 landscape with depolarizing noise and
//! finite shots (the registry's "zne sim"; override with
//! `--device NAME` — unknown names exit 2 listing the lineup).

use oscar_bench::{device_from_args, full_scale, print_header, seeded};
use oscar_core::grid::Grid2d;
use oscar_core::landscape::Landscape;
use oscar_core::metrics::LandscapeMetrics;
use oscar_core::reconstruct::Reconstructor;
use oscar_core::usecases::mitigation::ZneLandscapes;
use oscar_problems::ising::IsingProblem;

fn main() {
    print_header("Figure 9", "Richardson vs linear ZNE landscapes");
    let n = if full_scale() { 16 } else { 12 };
    let mut rng = seeded(9900);
    let problem = IsingProblem::random_3_regular(n, &mut rng);
    let spec = device_from_args("zne sim");
    let device = spec.build(&problem);
    let grid = if full_scale() {
        Grid2d::small_p1(40, 60)
    } else {
        Grid2d::small_p1(20, 30)
    };

    println!(
        "generating landscapes ({} qubits, {}x{} grid, device '{}')...",
        n,
        grid.rows(),
        grid.cols(),
        spec.name
    );
    let set = ZneLandscapes::generate_seeded(&device, grid, 3);
    let oscar = Reconstructor::default();
    let mut rng = seeded(9901);
    let rec_rich = oscar
        .reconstruct_fraction(&set.richardson, 0.3, &mut rng)
        .landscape;
    let rec_lin = oscar
        .reconstruct_fraction(&set.linear, 0.3, &mut rng)
        .landscape;

    let rough = |l: &Landscape| {
        LandscapeMetrics::compute(l.values(), grid.rows(), grid.cols()).second_derivative
    };
    println!("\n{:<28}{:>16}", "landscape", "2nd derivative");
    println!(
        "{:<28}{:>16.3}",
        "(A) Richardson (original)",
        rough(&set.richardson)
    );
    println!(
        "{:<28}{:>16.3}",
        "(B) Linear (original)",
        rough(&set.linear)
    );
    println!("{:<28}{:>16.3}", "(C) Richardson (recon)", rough(&rec_rich));
    println!("{:<28}{:>16.3}", "(D) Linear (recon)", rough(&rec_lin));

    println!("\nASCII landscapes (rows = beta, cols = gamma):");
    for (label, l) in [
        ("(A) Richardson", &set.richardson),
        ("(B) Linear", &set.linear),
        ("(C) Recon Richardson", &rec_rich),
        ("(D) Recon Linear", &rec_lin),
    ] {
        println!("\n{label}:");
        print_ascii(l);
    }
    println!("\npaper shape: Richardson shows salt-like noise (huge 2nd derivative),");
    println!("linear stays smooth; the reconstructions preserve the difference.");
}

fn print_ascii(l: &Landscape) {
    let v = l.values();
    let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let shades = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let (rows, cols) = (l.grid().rows(), l.grid().cols());
    for r in (0..rows).step_by(2) {
        let line: String = (0..cols)
            .map(|c| {
                let t = ((l.at(r, c) - lo) / (hi - lo)).clamp(0.0, 0.999);
                shades[(t * 10.0) as usize]
            })
            .collect();
        println!("  {line}");
    }
}
