//! General p-layer landscape reshaping — the extension of the paper's p=2
//! "concatenation" trick (§4.1: "When reconstructing high-dimensional
//! landscapes, we perform concatenations to reduce the dimension").
//!
//! A depth-`p` QAOA landscape is 2p-dimensional. Pairing all β indices
//! into the row coordinate and all γ indices into the column coordinate
//! yields a `(nb^p, ng^p)` 2-D grid that the standard 2-D CS machinery
//! reconstructs. Accuracy degrades with `p` (artificial repetition), which
//! is exactly the behaviour the paper reports for p=2.

use crate::grid::Axis;

/// A depth-`p` QAOA grid: one β axis and one γ axis replicated `p` times.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GridNd {
    /// The per-layer β axis.
    pub beta: Axis,
    /// The per-layer γ axis.
    pub gamma: Axis,
    /// QAOA depth (number of β and of γ parameters).
    pub p: usize,
}

impl GridNd {
    /// Creates a depth-`p` grid.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn new(beta: Axis, gamma: Axis, p: usize) -> Self {
        assert!(p >= 1, "depth must be at least 1");
        GridNd { beta, gamma, p }
    }

    /// Total number of grid points `nb^p * ng^p`.
    pub fn len(&self) -> usize {
        self.beta.n.pow(self.p as u32) * self.gamma.n.pow(self.p as u32)
    }

    /// `true` for the (impossible) empty grid.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The reshaped 2-D dimensions `(nb^p, ng^p)`.
    pub fn reshaped_dims(&self) -> (usize, usize) {
        (
            self.beta.n.pow(self.p as u32),
            self.gamma.n.pow(self.p as u32),
        )
    }

    /// Decodes a reshaped row index into the `p` per-layer β values
    /// (layer 0 is the most significant digit, matching the p=2 layout in
    /// [`crate::reshape`]).
    pub fn betas_of_row(&self, mut row: usize) -> Vec<f64> {
        assert!(row < self.reshaped_dims().0, "row out of range");
        let nb = self.beta.n;
        let mut digits = vec![0usize; self.p];
        for d in (0..self.p).rev() {
            digits[d] = row % nb;
            row /= nb;
        }
        digits.into_iter().map(|i| self.beta.value(i)).collect()
    }

    /// Decodes a reshaped column index into the `p` per-layer γ values.
    pub fn gammas_of_col(&self, mut col: usize) -> Vec<f64> {
        assert!(col < self.reshaped_dims().1, "col out of range");
        let ng = self.gamma.n;
        let mut digits = vec![0usize; self.p];
        for d in (0..self.p).rev() {
            digits[d] = col % ng;
            col /= ng;
        }
        digits.into_iter().map(|i| self.gamma.value(i)).collect()
    }

    /// Generates the full reshaped 2-D landscape by evaluating
    /// `f(betas, gammas)` at every point (row-major).
    pub fn generate(&self, mut f: impl FnMut(&[f64], &[f64]) -> f64) -> Vec<f64> {
        let (rows, cols) = self.reshaped_dims();
        let mut out = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            let betas = self.betas_of_row(r);
            for c in 0..cols {
                let gammas = self.gammas_of_col(c);
                out.push(f(&betas, &gammas));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid4d;
    use crate::reshape::generate_p2_landscape;

    fn axis(n: usize) -> Axis {
        Axis::new(-1.0, 1.0, n)
    }

    #[test]
    fn p1_matches_flat_grid() {
        let g = GridNd::new(axis(4), axis(5), 1);
        assert_eq!(g.reshaped_dims(), (4, 5));
        let v = g.generate(|b, gm| b[0] * 10.0 + gm[0]);
        assert_eq!(v.len(), 20);
        assert!((v[0] - (-10.0 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn p2_matches_dedicated_reshape() {
        use std::f64::consts::{FRAC_PI_4, FRAC_PI_8};
        let grid4 = Grid4d::small_p2(3, 4);
        let gnd = GridNd::new(
            Axis::new(-FRAC_PI_8, FRAC_PI_8, 3),
            Axis::new(-FRAC_PI_4, FRAC_PI_4, 4),
            2,
        );
        let f = |b: &[f64], g: &[f64]| b[0] + 2.0 * b[1] + 3.0 * g[0] + 4.0 * g[1];
        let via_p2 = generate_p2_landscape(&grid4, |_, b, g| f(b, g));
        let via_nd = gnd.generate(f);
        assert_eq!(via_p2.len(), via_nd.len());
        for (a, b) in via_p2.iter().zip(&via_nd) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn digit_decoding_roundtrips() {
        let g = GridNd::new(axis(3), axis(4), 3);
        let (rows, cols) = g.reshaped_dims();
        assert_eq!(rows, 27);
        assert_eq!(cols, 64);
        // First row: all betas at lo; last row: all at hi.
        assert!(g.betas_of_row(0).iter().all(|&b| (b + 1.0).abs() < 1e-12));
        assert!(g
            .betas_of_row(rows - 1)
            .iter()
            .all(|&b| (b - 1.0).abs() < 1e-12));
        assert!(g
            .gammas_of_col(cols - 1)
            .iter()
            .all(|&gm| (gm - 1.0).abs() < 1e-12));
    }

    #[test]
    fn p3_reconstruction_is_harder_than_p1() {
        // The paper's trend extends: deeper reshaping hurts accuracy.
        use crate::metrics::nrmse;
        use crate::reconstruct::Reconstructor;
        use oscar_cs::measure::SamplePattern;
        use oscar_problems::ising::IsingProblem;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(55);
        let problem = IsingProblem::random_3_regular(8, &mut rng);
        let eval = problem.qaoa_evaluator();
        let oscar = Reconstructor::default();

        let err_for = |p: usize, nb: usize, ng: usize| {
            let g = GridNd::new(Axis::new(-0.4, 0.4, nb), Axis::new(-0.8, 0.8, ng), p);
            let values = g.generate(|b, gm| eval.expectation(b, gm));
            let (rows, cols) = g.reshaped_dims();
            let mut rng = StdRng::seed_from_u64(56);
            let pattern = SamplePattern::random(rows, cols, 0.2, &mut rng);
            let samples = pattern.gather(&values);
            let recon = oscar.reconstruct_array(rows, cols, &pattern, &samples);
            nrmse(&values, &recon)
        };
        let e1 = err_for(1, 16, 25); // 400 points
        let e3 = err_for(3, 3, 4); // 27 x 64 = 1728 points
        assert!(
            e3 > e1,
            "p=3 reshaped error {e3} should exceed p=1 error {e1}"
        );
    }

    #[test]
    #[should_panic(expected = "depth must be at least 1")]
    fn rejects_zero_depth() {
        let _ = GridNd::new(axis(2), axis(2), 0);
    }
}
