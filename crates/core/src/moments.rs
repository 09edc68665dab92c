//! The ideal moments of a landscape: one state-vector pass that every
//! noisy variant of the landscape is derived from.
//!
//! A noisy point value is `noise.apply(moments(point), scale, rng)`
//! ([`NoiseStep::apply`]) with `rng` a [`CounterRng`] keyed by
//! `(zne_factor_seed(landscape_seed, scale), flat_index)`. Only
//! `moments` simulates the circuit, and it depends on the point alone:
//! not on the noise scale, the seed or the shot count. A
//! [`MomentsTable`] evaluates it once per point, and
//! [`MomentsTable::values`] derives any `(seed, scale)` landscape from
//! the table with the cheap noise step, bit-identical to executing
//! every point at that scale.

use crate::grid::Shape;
use crate::landscape::{Landscape, NdLandscape, ShapedLandscape};
use crate::usecases::mitigation::zne_factor_seed;
use oscar_executor::device::NoiseStep;
use oscar_qsim::qaoa::QaoaEvaluator;
use oscar_qsim::rng::CounterRng;

/// Per-point ideal moments `(mean, var)` over a [`Shape`], plus the
/// device noise step that turns them into noisy values (`None` for an
/// exact, noiseless landscape).
#[derive(Clone, Debug)]
pub struct MomentsTable {
    shape: Shape,
    noise: Option<NoiseStep>,
    moments: Vec<(f64, f64)>,
}

impl MomentsTable {
    /// Evaluates `moments(params)` at every point of `shape`, in
    /// parallel on the shared worker pool. A pure `moments` gives the
    /// same table for any worker count. Without a noise step only the
    /// means are ever read, so an exact source may report a zero
    /// variance.
    pub fn generate(
        shape: Shape,
        noise: Option<NoiseStep>,
        moments: impl Fn(&[f64]) -> (f64, f64) + Sync,
    ) -> Self {
        let mut table = vec![(0.0, 0.0); shape.len()];
        oscar_par::for_each_chunk_mut(&mut table, chunk_len(&shape), |offset, chunk| {
            for (k, m) in chunk.iter_mut().enumerate() {
                *m = moments(&shape.point(offset + k));
            }
        });
        MomentsTable {
            shape,
            noise,
            moments: table,
        }
    }

    /// The table of a QAOA evaluator over `shape`: a point's parameter
    /// vector is its betas followed by its gammas (`[β, γ]` on a 2-D
    /// grid).
    pub fn qaoa(eval: &QaoaEvaluator, noise: Option<NoiseStep>, shape: Shape) -> Self {
        Self::generate(shape, noise, |params| {
            let (betas, gammas) = params.split_at(params.len() / 2);
            eval.moments(betas, gammas)
        })
    }

    /// The ideal (noiseless) value at every point.
    pub fn means(&self) -> Vec<f64> {
        self.moments.iter().map(|&(mean, _)| mean).collect()
    }

    /// The row-major landscape values at ZNE noise scale `scale` with
    /// noise keyed by `landscape_seed`: point `i` draws from
    /// `CounterRng::new(zne_factor_seed(landscape_seed, scale), i)`.
    /// Without a noise step these are the ideal means, whatever the
    /// seed and scale.
    pub fn values(&self, landscape_seed: u64, scale: f64) -> Vec<f64> {
        let Some(step) = self.noise else {
            return self.means();
        };
        let seed = zne_factor_seed(landscape_seed, scale);
        let mut values = vec![0.0; self.moments.len()];
        oscar_par::for_each_chunk_mut(&mut values, chunk_len(&self.shape), |offset, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                let i = offset + k;
                *v = step.apply(self.moments[i], scale, &mut CounterRng::new(seed, i as u64));
            }
        });
        values
    }

    /// [`Self::values`] as a landscape over the table's shape.
    pub fn landscape(&self, landscape_seed: u64, scale: f64) -> ShapedLandscape {
        let values = self.values(landscape_seed, scale);
        match &self.shape {
            Shape::Grid2d(grid) => Landscape::from_values(*grid, values).into(),
            Shape::Tensor(tensor) => NdLandscape::from_values(tensor.clone(), values).into(),
        }
    }
}

/// Parallel chunks are rows: the length of the last (contiguous) axis.
fn chunk_len(shape: &Shape) -> usize {
    shape.dims().last().copied().unwrap_or(1)
}
