//! Per-layer probes: direct calls into one layer's public functions,
//! timed with the benchmark's own clock, on the workload's own first
//! instance and landscape shape. Each probe repeats its call and
//! reports the median repetition.

use crate::stats::median;
use crate::workload::{spec, Workload};
use oscar_core::grid::Shape;
use oscar_core::landscape::{Landscape, ShapedLandscape};
use oscar_core::usecases::mitigation::extrapolated_landscape;
use oscar_cs::dct::{Dct2d, DctNd};
use oscar_mitigation::zne::{Extrapolation, ZneConfig};
use oscar_runtime::{JobResult, LandscapeKey, LandscapeStore, Mitigation};
use oscar_serve::proto::result_to_json;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions of each probe.
const REPS: usize = 5;

/// Points `qsim.ns_per_point` evaluates per repetition.
const QSIM_POINTS: usize = 600;

/// Transform applies per DCT repetition.
const DCT_APPLIES: usize = 100;

/// Median over [`REPS`] runs of `f`, divided by `per`.
fn time_per(per: usize, mut f: impl FnMut()) -> Duration {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() / per as f64
        })
        .collect();
    Duration::from_secs_f64(median(&reps))
}

/// Layer probe results for one workload.
#[derive(Debug)]
pub struct Probes {
    /// `QaoaEvaluator::moments`, per point (one thread).
    pub qsim_per_point: Duration,
    /// `LandscapeSource::generate_scaled` at scale 1, per point.
    pub source_per_point: Duration,
    /// ZNE Richardson extrapolation of three factor landscapes, per point.
    pub zne_per_point: Duration,
    /// One landscape write-behind plus flush.
    pub store_save: Duration,
    /// One landscape load from the store.
    pub store_load: Duration,
}

/// Probes the qsim, source, mitigation and store layers on the
/// workload's first job; `scratch` holds the probe's store.
pub fn probe(workload: Workload, seed: u64, scratch: &Path) -> Probes {
    let spec = spec(&workload.job(seed, 0));
    let (problem, depth) = spec.problem.as_ising().expect("every workload is QAOA");
    let eval = problem.qaoa_evaluator();
    let points: Vec<Vec<f64>> = (0..spec.shape.len().min(QSIM_POINTS))
        .map(|i| spec.shape.point(i))
        .collect();
    let qsim_per_point = time_per(points.len(), || {
        for p in &points {
            black_box(eval.moments(&p[..depth], &p[depth..]));
        }
    });

    let generate = |scale| {
        spec.source
            .generate_scaled(&spec.problem, &spec.shape, spec.landscape_seed, scale)
    };
    let points = spec.shape.len();
    let source_per_point = time_per(points, || {
        black_box(generate(1.0));
    });

    let zne = match &spec.mitigation {
        Mitigation::Zne {
            factors,
            extrapolator,
        } => ZneConfig::new(factors.clone(), *extrapolator),
        _ => ZneConfig::new(vec![1.0, 2.0, 3.0], Extrapolation::Richardson),
    };
    let factors: Vec<ShapedLandscape> = zne.scale_factors.iter().map(|&c| generate(c)).collect();
    let zne_per_point = time_per(points, || match &spec.shape {
        Shape::Grid2d(_) => {
            let refs: Vec<&Landscape> = factors
                .iter()
                .map(|l| l.as_grid2d().expect("a grid shape yields grid landscapes"))
                .collect();
            black_box(extrapolated_landscape(&zne, &refs));
        }
        Shape::Tensor(_) => {
            // The runtime's N-D extrapolation: pointwise over the factors.
            let mut at = vec![0.0; factors.len()];
            let values: Vec<f64> = (0..points)
                .map(|i| {
                    for (slot, l) in at.iter_mut().zip(&factors) {
                        *slot = l.values()[i];
                    }
                    zne.extrapolate_values(&at)
                })
                .collect();
            black_box(values);
        }
    });

    let dir = scratch.join("store-probe");
    let store = LandscapeStore::open(&dir).expect("open the probe store");
    let key = LandscapeKey::new(
        &spec.problem,
        &spec.shape,
        &spec.source,
        spec.landscape_seed,
    );
    let landscape = Arc::new(generate(1.0));
    let store_save = time_per(1, || {
        store.save(&key, &landscape);
        store.flush();
    });
    let store_load = time_per(1, || {
        let loaded = store.load(&key).expect("the probe entry loads back");
        assert_eq!(loaded.values(), landscape.values(), "store round trip");
    });
    drop(store);
    std::fs::remove_dir_all(&dir).expect("remove the probe store");

    Probes {
        qsim_per_point,
        source_per_point,
        zne_per_point,
        store_save,
        store_load,
    }
}

/// The DCT shapes the transform probe measures: the paper's 2-D grid
/// and the `nd-warm` tensor.
pub const DCT_SHAPES: [&[usize]; 2] = [&[50, 100], &[8, 8, 10, 10]];

/// One forward-plus-inverse DCT pair per two applies, per shape: the
/// time per apply, and the bytes one apply reads and writes (every
/// separable pass reads and writes each f64 once).
pub fn dct_probe() -> Vec<(String, Duration, u64)> {
    DCT_SHAPES
        .iter()
        .map(|dims| {
            let n: usize = dims.iter().product();
            let x: Vec<f64> = (0..n).map(|i| ((i * 7919) % 1000) as f64 / 1e3).collect();
            let mut y = vec![0.0; n];
            let mut z = vec![0.0; n];
            let per = match dims.len() {
                2 => {
                    let dct = Dct2d::new(dims[0], dims[1]);
                    let mut scratch = dct.make_scratch();
                    time_per(2 * DCT_APPLIES, || {
                        for _ in 0..DCT_APPLIES {
                            dct.forward_into(&x, &mut y, &mut scratch);
                            dct.inverse_into(&y, &mut z, &mut scratch);
                        }
                        black_box(&z);
                    })
                }
                _ => {
                    let dct = DctNd::new(dims);
                    let mut scratch = dct.make_scratch();
                    time_per(2 * DCT_APPLIES, || {
                        for _ in 0..DCT_APPLIES {
                            dct.forward_into(&x, &mut y, &mut scratch);
                            dct.inverse_into(&y, &mut z, &mut scratch);
                        }
                        black_box(&z);
                    })
                }
            };
            let name = dims
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("x");
            let bytes = (2 * 8 * n * dims.len()) as u64;
            (name, per, bytes)
        })
        .collect()
}

/// `result_to_json` with values plus compact encoding, per reply, over
/// `results`.
pub fn encode_probe(results: &[&JobResult]) -> Duration {
    time_per(results.len().max(1), || {
        for r in results {
            black_box(result_to_json(r, true).to_string_compact());
        }
    })
}
