//! Parallel landscape sampling across multiple QPUs (paper §5, Figure 7).
//!
//! OSCAR decouples the optimizer from circuit execution, so landscape
//! samples are independent jobs that can run on `k` devices concurrently.
//! This module distributes jobs across devices (real OS threads via
//! `std::thread::scope`), tracks *simulated* completion times from each
//! device's latency model, and supports eager reconstruction: dropping
//! straggler samples past a soft timeout (paper §5.2) instead of waiting
//! out the tail.
//!
//! Every draw is keyed by the caller's seed and the job's index: a job's
//! value is `device.execute_at(betas, gammas, seed, index)` and its
//! latency comes from a counter stream of its own, so outcomes do not
//! depend on thread scheduling.

use crate::device::QpuDevice;
use oscar_qsim::rng::{derive_seed, CounterRng};

/// The [`derive_seed`] tag that separates the latency streams from the
/// noise streams of the same seed.
const LATENCY_TAG: u64 = u64::from_le_bytes(*b"latency\0");

/// One landscape point to evaluate: QAOA angles.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// Index of this point in the caller's sample list.
    pub index: usize,
    /// Mixer angles (one per QAOA layer).
    pub betas: Vec<f64>,
    /// Phase angles (one per QAOA layer).
    pub gammas: Vec<f64>,
}

/// A completed job.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Index of the point in the caller's sample list.
    pub index: usize,
    /// Measured (noisy) expectation value.
    pub value: f64,
    /// Which device produced it (index into the device slice).
    pub device: usize,
    /// Simulated completion time (seconds since submission of the batch):
    /// jobs on one device execute serially, so this is the running sum of
    /// that device's job latencies.
    pub completion_time: f64,
}

/// Splits `jobs` across devices according to `shares` and executes each
/// device's queue on its own thread, with every draw keyed by `seed` and
/// the job's index (see the module docs).
///
/// `shares[d]` is the fraction of jobs assigned to device `d`; they must
/// sum to ~1. Jobs are assigned in order: device 0 takes the first
/// `shares[0]` fraction, and so on — matching the paper's "X% of samples
/// come from QPU-1" experimental axis.
///
/// Chunk sizes are apportioned with the largest-remainder method, so for
/// *any* valid share vector every job is assigned to exactly one device
/// and each device's count differs from its exact proportional share
/// `shares[d] * jobs.len()` by less than one job. (The previous
/// cumulative-rounding scheme could starve a middle device of a job that
/// its share entitled it to when neighbours' remainders both rounded in
/// the same direction.)
///
/// # Panics
///
/// Panics if `devices` is empty, shares length mismatches, shares are
/// negative, or they do not sum to 1 (within 1e-6).
pub fn execute_split(
    devices: &[&QpuDevice],
    shares: &[f64],
    jobs: &[Job],
    seed: u64,
) -> Vec<Outcome> {
    assert!(!devices.is_empty(), "need at least one device");
    assert_eq!(devices.len(), shares.len(), "one share per device");
    assert!(
        shares.iter().all(|&s| s >= 0.0),
        "shares must be non-negative"
    );
    let total: f64 = shares.iter().sum();
    assert!((total - 1.0).abs() < 1e-6, "shares must sum to 1");

    let boundaries = split_boundaries(shares, jobs.len());
    let queues = boundaries
        .windows(2)
        .map(|w| jobs[w[0]..w[1]].iter().collect())
        .collect();
    run_queues(devices, queues, seed)
}

/// Contiguous chunk boundaries for `n` jobs under `shares`, apportioned
/// by the largest-remainder (Hamilton) method: device `d` receives
/// `floor(shares[d] * n)` jobs plus at most one of the leftover jobs,
/// handed out in order of descending fractional remainder (ties broken
/// by device index). The returned vector has `shares.len() + 1` entries
/// with `boundaries[0] == 0` and `boundaries[last] == n`.
pub fn split_boundaries(shares: &[f64], n: usize) -> Vec<usize> {
    let quotas: Vec<f64> = shares.iter().map(|&s| s * n as f64).collect();
    let mut counts: Vec<usize> = quotas.iter().map(|&q| q.floor() as usize).collect();
    let assigned: usize = counts.iter().sum();
    // Distribute the remaining jobs by largest fractional remainder.
    let mut order: Vec<usize> = (0..shares.len()).collect();
    // total_cmp so a NaN share (caller bugs reach here via the public
    // `split_boundaries`) yields a deterministic apportionment instead
    // of a sort panic; `execute_split` still rejects NaN shares up
    // front via its sum check.
    order.sort_by(|&a, &b| {
        let ra = quotas[a] - quotas[a].floor();
        let rb = quotas[b] - quotas[b].floor();
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    for &d in order.iter().take(n.saturating_sub(assigned)) {
        counts[d] += 1;
    }
    let mut boundaries = Vec::with_capacity(shares.len() + 1);
    boundaries.push(0usize);
    for &c in &counts {
        boundaries.push(boundaries.last().unwrap() + c);
    }
    debug_assert_eq!(*boundaries.last().unwrap(), n);
    boundaries
}

/// Round-robin variant: job `i` goes to device `i % k`. Balances load when
/// devices are interchangeable.
pub fn execute_round_robin(devices: &[&QpuDevice], jobs: &[Job], seed: u64) -> Vec<Outcome> {
    assert!(!devices.is_empty(), "need at least one device");
    let k = devices.len();
    let queues = (0..k)
        .map(|d| jobs.iter().skip(d).step_by(k).collect())
        .collect();
    run_queues(devices, queues, seed)
}

/// Executes queue `d` on device `d`, one thread per device, and returns
/// every outcome in job-index order.
fn run_queues(devices: &[&QpuDevice], queues: Vec<Vec<&Job>>, seed: u64) -> Vec<Outcome> {
    let mut flat: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = devices
            .iter()
            .zip(&queues)
            .enumerate()
            .map(|(d, (device, queue))| {
                scope.spawn(move || run_device_queue(device, d, queue, seed))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("device thread panicked"))
            .collect()
    });
    flat.sort_by_key(|o| o.index);
    flat
}

fn run_device_queue(
    device: &QpuDevice,
    device_idx: usize,
    jobs: &[&Job],
    seed: u64,
) -> Vec<Outcome> {
    let latency_seed = derive_seed(seed, LATENCY_TAG);
    let mut clock = 0.0;
    jobs.iter()
        .map(|job| {
            let stream = job.index as u64;
            clock += device
                .latency()
                .sample(&mut CounterRng::new(latency_seed, stream));
            Outcome {
                index: job.index,
                value: device.execute_at(&job.betas, &job.gammas, seed, stream),
                device: device_idx,
                completion_time: clock,
            }
        })
        .collect()
}

/// The simulated makespan: when the last sample lands.
///
/// # Panics
///
/// Panics if `outcomes` is empty.
pub fn makespan(outcomes: &[Outcome]) -> f64 {
    assert!(!outcomes.is_empty(), "no outcomes");
    outcomes
        .iter()
        .map(|o| o.completion_time)
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Eager reconstruction filter (paper §5.2): keeps only samples completed
/// by the soft timeout, trading a slightly smaller sampling fraction for a
/// much earlier reconstruction start.
pub fn within_timeout(outcomes: &[Outcome], timeout: f64) -> Vec<Outcome> {
    outcomes
        .iter()
        .filter(|o| o.completion_time <= timeout)
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyModel;
    use oscar_mitigation::model::NoiseModel;
    use oscar_problems::ising::IsingProblem;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn make_jobs(n: usize) -> Vec<Job> {
        (0..n)
            .map(|i| Job {
                index: i,
                betas: vec![0.01 * i as f64],
                gammas: vec![0.02 * i as f64],
            })
            .collect()
    }

    fn problem() -> IsingProblem {
        let mut rng = StdRng::seed_from_u64(2);
        IsingProblem::random_3_regular(6, &mut rng)
    }

    #[test]
    fn split_covers_all_jobs_once() {
        let p = problem();
        let d1 = QpuDevice::new("a", &p, 1, NoiseModel::ideal(), LatencyModel::instant());
        let d2 = QpuDevice::new("b", &p, 1, NoiseModel::ideal(), LatencyModel::instant());
        let jobs = make_jobs(20);
        let out = execute_split(&[&d1, &d2], &[0.3, 0.7], &jobs, 0);
        assert_eq!(out.len(), 20);
        let indices: Vec<usize> = out.iter().map(|o| o.index).collect();
        assert_eq!(indices, (0..20).collect::<Vec<_>>());
        // 30% of 20 = 6 jobs on device 0.
        assert_eq!(out.iter().filter(|o| o.device == 0).count(), 6);
    }

    #[test]
    fn ideal_devices_reproduce_evaluator_values() {
        let p = problem();
        let d = QpuDevice::new("a", &p, 1, NoiseModel::ideal(), LatencyModel::instant());
        let jobs = make_jobs(5);
        let out = execute_round_robin(&[&d], &jobs, 0);
        let eval = p.qaoa_evaluator();
        for o in &out {
            let expect = eval.expectation(&jobs[o.index].betas, &jobs[o.index].gammas);
            assert!((o.value - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn completion_times_monotone_per_device() {
        let p = problem();
        let d = QpuDevice::new("a", &p, 1, NoiseModel::ideal(), LatencyModel::cloud_queue());
        let jobs = make_jobs(10);
        let out = execute_round_robin(&[&d], &jobs, 7);
        let times: Vec<f64> = out.iter().map(|o| o.completion_time).collect();
        for w in times.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn parallel_makespan_shorter_than_serial() {
        let p = problem();
        let lat = LatencyModel::new(1.0, f64::NEG_INFINITY, 0.0); // 1 s per job
        let d1 = QpuDevice::new("a", &p, 1, NoiseModel::ideal(), lat);
        let d2 = QpuDevice::new("b", &p, 1, NoiseModel::ideal(), lat);
        let jobs = make_jobs(10);
        let serial = makespan(&execute_round_robin(&[&d1], &jobs, 0));
        let parallel = makespan(&execute_round_robin(&[&d1, &d2], &jobs, 0));
        assert!((serial - 10.0).abs() < 1e-9);
        assert!((parallel - 5.0).abs() < 1e-9);
    }

    #[test]
    fn timeout_filter_drops_stragglers() {
        let p = problem();
        let d = QpuDevice::new("a", &p, 1, NoiseModel::ideal(), LatencyModel::cloud_queue());
        let jobs = make_jobs(50);
        let out = execute_round_robin(&[&d], &jobs, 3);
        let total = makespan(&out);
        let kept = within_timeout(&out, total * 0.5);
        assert!(!kept.is_empty() && kept.len() < out.len());
        assert!(kept.iter().all(|o| o.completion_time <= total * 0.5));
    }

    #[test]
    fn split_boundaries_tolerate_nan_share() {
        // Regression: a NaN share used to panic the remainder sort via
        // partial_cmp().unwrap(). It must now apportion
        // deterministically: the NaN quota floors to zero jobs and the
        // boundary invariants still hold.
        let b = split_boundaries(&[f64::NAN, 0.5, 0.5], 10);
        assert_eq!(b.len(), 4);
        assert_eq!(b[0], 0);
        assert_eq!(*b.last().unwrap(), 10);
        assert!(
            b.windows(2).all(|w| w[0] <= w[1]),
            "boundaries not monotone: {b:?}"
        );
        // Deterministic across calls.
        assert_eq!(b, split_boundaries(&[f64::NAN, 0.5, 0.5], 10));
    }

    #[test]
    #[should_panic(expected = "shares must sum to 1")]
    fn rejects_bad_shares() {
        let p = problem();
        let d = QpuDevice::new("a", &p, 1, NoiseModel::ideal(), LatencyModel::instant());
        let _ = execute_split(&[&d], &[0.5], &make_jobs(2), 0);
    }
}
