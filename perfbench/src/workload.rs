//! The three workloads: their job streams, generated from the seed
//! argument, and their set-up.
//!
//! Every workload is one cost class (one job shape, one source, one
//! mitigation), so job latency has a single mode, and no job carries a
//! deadline or a priority. Jobs are `oscar-serve` wire requests
//! ([`SubmitReq`]); local paths map them with [`SubmitReq::to_spec`],
//! the same mapping the daemon uses, so every path runs identical specs.

use crate::stats::splitmix;
use oscar_problems::workload::ProblemKind;
use oscar_runtime::{BatchRuntime, Descent, JobSpec, LandscapeStore, Mitigation, RuntimeConfig};
use oscar_serve::{spawn_unix, Client, DaemonHandle, ServeConfig, SubmitReq};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Fewest jobs a timed run completes, so that at least ten latency
/// samples lie beyond the 90th percentile.
pub const MIN_JOBS: usize = 100;

/// Landscape-cache capacity of every runtime and daemon (the runtime's
/// default).
pub const CACHE_CAPACITY: usize = 32;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Depth-1 noisy MaxCut with ZNE, one fresh instance per job, on an
    /// in-process runtime with an in-memory cache that only misses.
    ZneCold,
    /// Depth-2 exact MaxCut over a few 4-D instances, on a fresh runtime
    /// over a landscape store written in set-up.
    NdWarm,
    /// Depth-1 exact MaxCut on the paper's 50x100 grid, served by an
    /// in-process daemon over a Unix socket, over a few warmed instances.
    Served2dWarm,
}

/// Seed of the fixed instance pools of the warm workloads. A pool is
/// part of the workload's definition, like its grid: a researcher
/// revisits the same few instances. The run's seed draws everything
/// else (sampling seeds, noise seeds, and every `zne-cold` instance),
/// so run-to-run differences in cost come from the system, not from
/// which four instances a seed happened to draw.
const POOL_SEED: u64 = 0x05ca_2023;

/// Stream tags: independent seed streams per use.
const TAG_INSTANCE: u64 = 1;
const TAG_SAMPLING: u64 = 2;
const TAG_NOISE: u64 = 3;
const TAG_WARMUP: u64 = 4;

/// A derived 32-bit seed: JSON carries numbers as f64, so wire seeds
/// must stay well below 2^53 to round-trip exactly.
fn derive(seed: u64, tag: u64, index: u64) -> u64 {
    splitmix(splitmix(splitmix(seed) ^ tag).wrapping_add(index)) & 0xffff_ffff
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::ZneCold, Workload::NdWarm, Workload::Served2dWarm];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ZneCold => "zne-cold",
            Workload::NdWarm => "nd-warm",
            Workload::Served2dWarm => "served-2d-warm",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Distinct problem instances the stream cycles through; `None`
    /// when every job has a fresh instance.
    fn instances(self) -> Option<u64> {
        match self {
            Workload::ZneCold => None,
            Workload::NdWarm | Workload::Served2dWarm => Some(4),
        }
    }

    /// Nominal throughput on two cores, in jobs per second: a run of
    /// `seconds` runs a fixed `seconds` worth of jobs at this rate, so
    /// the job count is a function of the arguments alone.
    fn nominal_rate(self) -> f64 {
        match self {
            Workload::ZneCold => 5.5,
            Workload::NdWarm => 14.0,
            Workload::Served2dWarm => 20.0,
        }
    }

    /// Jobs in a timed run of `seconds`.
    pub fn jobs(self, seconds: f64) -> usize {
        ((seconds * self.nominal_rate()).round() as usize).max(MIN_JOBS)
    }

    /// The request for one instance seed and one sampling seed.
    fn request(self, instance_seed: u64, sampling_seed: u64, noise_seed: u64) -> SubmitReq {
        let mut req = match self {
            Workload::ZneCold => {
                let mut req = SubmitReq::new(12, sampling_seed, 20, 30, 0.25);
                req.device = Some("noisy sim".into());
                req.mitigation = Mitigation::zne_richardson();
                req
            }
            Workload::NdWarm => SubmitReq::deep_qaoa(
                ProblemKind::MaxCut,
                8,
                2,
                sampling_seed,
                vec![8, 8, 10, 10],
                0.1,
            ),
            Workload::Served2dWarm => SubmitReq::new(10, sampling_seed, 50, 100, 0.1),
        };
        req.instance_seed = instance_seed;
        req.landscape_seed = noise_seed;
        req.descent = Descent::NelderMead;
        req
    }

    /// The instance seed for a stream position, skipping the rare seeds
    /// whose random 3-regular graph cannot be drawn.
    fn instance_seed(self, seed: u64, tag: u64, index: u64) -> u64 {
        (0..)
            .map(|attempt| derive(seed, tag, index.wrapping_add(attempt << 32)))
            .find(|&s| self.request(s, 0, 0).to_spec().is_ok())
            .expect("an instance seed within 2^32 attempts")
    }

    /// Job `index` of the stream generated from `seed`.
    pub fn job(self, seed: u64, index: u64) -> SubmitReq {
        let instance = match self.instances() {
            None => self.instance_seed(seed, TAG_INSTANCE, index),
            Some(n) => self.instance_seed(POOL_SEED, TAG_INSTANCE, index % n),
        };
        self.request(
            instance,
            derive(seed, TAG_SAMPLING, index),
            derive(seed, TAG_NOISE, index),
        )
    }

    /// The jobs set-up runs before timing: one per instance of the
    /// stream (warming the caches a warm workload relies on), or, for a
    /// cold stream, one job on an instance the stream never uses
    /// (warming the worker pool and transform plans only).
    pub fn warmup_jobs(self, seed: u64) -> Vec<SubmitReq> {
        let sampling = |k| derive(seed, TAG_WARMUP, k);
        match self.instances() {
            None => vec![self.request(
                self.instance_seed(seed, TAG_WARMUP, u64::MAX),
                sampling(0),
                sampling(1),
            )],
            Some(n) => (0..n)
                .map(|k| {
                    let mut req = self.job(seed, k);
                    req.seed = sampling(k);
                    req
                })
                .collect(),
        }
    }

    /// Points in one landscape of this workload.
    pub fn points(self) -> usize {
        expected_dims(&self.job(0, 0)).iter().product()
    }
}

/// Maps a generated request to its job spec.
pub fn spec(req: &SubmitReq) -> JobSpec {
    req.to_spec()
        .expect("generated requests are valid by construction")
}

/// The reconstruction dims a request's result must have.
pub fn expected_dims(req: &SubmitReq) -> Vec<usize> {
    match &req.shape {
        Some(counts) => counts.clone(),
        None => vec![req.rows, req.cols],
    }
}

/// The system a workload's timed phase talks to, started and warmed.
pub enum System {
    /// An in-process batch runtime.
    Runtime(BatchRuntime),
    /// An in-process daemon listening on a Unix socket.
    Daemon {
        /// The running daemon.
        handle: DaemonHandle,
        /// Its socket path, relative to the working directory.
        socket: PathBuf,
    },
}

/// A workload after set-up: the system under test plus the store (if
/// any) the set-up wrote.
pub struct Prepared {
    /// What the timed phase submits to.
    pub system: System,
    /// The landscape store written in set-up (`nd-warm`).
    pub store_dir: Option<PathBuf>,
    /// Bytes the set-up wrote into the store.
    pub store_bytes: u64,
    /// Warm-up jobs the set-up ran.
    pub warmup_jobs: usize,
    /// Error codes of the warm-up jobs that failed.
    pub warmup_failures: Vec<String>,
}

impl Prepared {
    /// Stops the system, waiting for every thread it started.
    pub fn shutdown(self) {
        match self.system {
            System::Runtime(runtime) => {
                runtime.drain();
                drop(runtime);
            }
            System::Daemon { handle, .. } => {
                handle.drain();
                handle.join();
            }
        }
    }
}

/// Bytes in the regular files directly under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Starts and warms the system for `workload`. `scratch` is a private
/// directory for the store and the socket; `concurrency` bounds the
/// executors.
pub fn set_up(workload: Workload, seed: u64, scratch: &Path, concurrency: usize) -> Prepared {
    let warmup: Vec<JobSpec> = workload.warmup_jobs(seed).iter().map(spec).collect();
    let warmup_jobs = warmup.len();
    let runtime = |store: Option<Arc<LandscapeStore>>| {
        BatchRuntime::new(RuntimeConfig {
            concurrency,
            landscape_cache_capacity: CACHE_CAPACITY,
            store,
        })
    };
    match workload {
        Workload::ZneCold => {
            let rt = runtime(None);
            rt.run_batch(warmup).expect("warm-up jobs complete");
            Prepared {
                system: System::Runtime(rt),
                store_dir: None,
                store_bytes: 0,
                warmup_jobs,
                warmup_failures: Vec::new(),
            }
        }
        Workload::NdWarm => {
            let dir = scratch.join("store");
            if dir.exists() {
                std::fs::remove_dir_all(&dir).expect("remove the previous store");
            }
            {
                let store = LandscapeStore::open(&dir).expect("open the landscape store");
                let rt = runtime(Some(Arc::clone(&store)));
                rt.run_batch(warmup).expect("warm-up jobs complete");
                drop(rt);
                store.flush();
            }
            // A fresh runtime over a freshly opened store: the timed
            // phase restarts warm from disk, as after a process restart.
            let store = LandscapeStore::open(&dir).expect("reopen the landscape store");
            let store_bytes = dir_bytes(&dir);
            Prepared {
                system: System::Runtime(runtime(Some(store))),
                store_dir: Some(dir),
                store_bytes,
                warmup_jobs,
                warmup_failures: Vec::new(),
            }
        }
        Workload::Served2dWarm => {
            // Relative: a Unix socket path is limited to ~100 bytes.
            let socket = scratch.join("serve.sock");
            let handle = spawn_unix(
                &socket,
                ServeConfig {
                    concurrency,
                    cache_capacity: CACHE_CAPACITY,
                    ..ServeConfig::default()
                },
            )
            .expect("start the daemon");
            let mut client = Client::connect_unix(&socket).expect("connect to the daemon");
            let mut warmup_failures = Vec::new();
            for req in workload.warmup_jobs(seed) {
                let reply = client.submit(&req).expect("submit a warm-up job");
                let id = reply
                    .get("job")
                    .and_then(|j| j.as_u64())
                    .expect("warm-up job admitted");
                let done = client
                    .wait(id, Some(crate::drive::WAIT_MS), false)
                    .expect("wait for a warm-up job");
                // A lost warm-up job still ran, so its landscape is
                // cached; count the loss and go on.
                if done.get("status").and_then(|s| s.as_str()) != Some("done") {
                    let code = done.get("error").and_then(|e| e.as_str());
                    warmup_failures.push(code.unwrap_or("bad-reply").to_string());
                }
            }
            Prepared {
                system: System::Daemon { handle, socket },
                store_dir: None,
                store_bytes: 0,
                warmup_jobs,
                warmup_failures,
            }
        }
    }
}
