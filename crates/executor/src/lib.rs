//! # oscar-executor — multi-QPU execution substrate
//!
//! The execution layer for OSCAR's parallel reconstruction (paper §5):
//!
//! * [`device::QpuDevice`] — simulated QPUs with device-specific noise
//!   configurations (stand-ins for IBM Lagos/Perth and for ideal/noisy
//!   simulators);
//! * [`latency::LatencyModel`] — heavy-tailed queue/latency model in
//!   simulated time;
//! * [`parallel`] — thread-parallel job distribution with simulated
//!   makespan accounting and the eager-reconstruction timeout filter;
//! * [`ncm::NoiseCompensationModel`] — the linear-regression noise
//!   compensation that keeps multi-QPU reconstructions noise-preserving
//!   (Figure 8, Table 5);
//! * [`hardware_like`] — the Sycamore-dataset stand-in generator
//!   (Figures 5–6).
//!
//! # Example
//!
//! ```
//! use oscar_executor::prelude::*;
//! use oscar_mitigation::model::NoiseModel;
//! use oscar_problems::ising::IsingProblem;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let problem = IsingProblem::random_3_regular(6, &mut rng);
//! let qpu1 = QpuDevice::new("qpu-1", &problem, 1,
//!     NoiseModel::depolarizing(0.001, 0.005), LatencyModel::instant());
//! let qpu2 = QpuDevice::new("qpu-2", &problem, 1,
//!     NoiseModel::depolarizing(0.003, 0.007), LatencyModel::instant());
//! let jobs: Vec<Job> = (0..10).map(|i| Job {
//!     index: i, betas: vec![0.05 * i as f64], gammas: vec![0.1 * i as f64],
//! }).collect();
//! let seed = 42;
//! let outcomes = execute_split(&[&qpu1, &qpu2], &[0.5, 0.5], &jobs, seed);
//! assert_eq!(outcomes.len(), 10);
//! // Each value is the device's execution keyed by (seed, job index).
//! let last = &outcomes[9];
//! assert_eq!(last.value, qpu2.execute_at(&jobs[9].betas, &jobs[9].gammas, seed, 9));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod device;
pub mod hardware_like;
pub mod latency;
pub mod ncm;
pub mod parallel;

/// Glob-import of the most used types.
pub mod prelude {
    pub use crate::device::{DeviceSpec, QpuDevice, VqeDevice, KNOWN_DEVICES};
    pub use crate::hardware_like::{correlated_field, hardware_like_landscape, HardwareLikeConfig};
    pub use crate::latency::{LatencyModel, LatencyStats};
    pub use crate::ncm::NoiseCompensationModel;
    pub use crate::parallel::{
        execute_round_robin, execute_split, makespan, split_boundaries, within_timeout, Job,
        Outcome,
    };
}
