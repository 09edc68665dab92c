//! Closed-loop load generation over the three paths a job can take:
//! the in-process runtime, the daemon's wire protocol, and a traced
//! local drive of the pipeline stages.
//!
//! A closed loop keeps at most one job per client in flight: a client
//! sends its next job only after the previous one completed, so job
//! latency never includes a queue of the benchmark's own making.

use crate::stats::process_cpu_time;
use crate::workload::{expected_dims, spec, Workload};
use oscar_core::landscape::ShapedLandscape;
use oscar_core::reconstruct::Reconstructor;
use oscar_core::usecases::optimizer_debug::{
    optimize_on_reconstruction, optimize_on_reconstruction_nd,
};
use oscar_runtime::{
    mitigated_landscape, run_job, BatchRuntime, JobResult, JobSpec, LandscapeCache,
};
use oscar_serve::{result_checksum, Client, Json};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Server-side bound on one `wait`: far beyond any job of these
/// workloads, so a wait never times out on a live job.
pub const WAIT_MS: u64 = 600_000;

/// A result's checked payload.
#[derive(Clone, Debug)]
pub struct Checked {
    /// [`result_checksum`] of the result.
    pub checksum: u64,
    /// NRMSE against the ground truth.
    pub nrmse: f64,
    /// FISTA iterations.
    pub iterations: usize,
    /// Why the result is malformed, if it is.
    pub defect: Option<String>,
}

/// One job of a phase.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Position in the workload's job stream.
    pub index: usize,
    /// Submission time, from the start of the phase.
    pub start: Duration,
    /// Submission to result, as the client saw it.
    pub latency: Duration,
    /// The job body's own time ([`JobResult::wall`], the wire's
    /// `wall_ms`, or the traced job span).
    pub wall: Duration,
    /// The checked result, or the error code the job failed with.
    pub outcome: Result<Checked, String>,
    /// Bytes of the reply line (served jobs only).
    pub reply_bytes: usize,
}

impl Sample {
    fn failed(index: usize, start: Duration, latency: Duration, code: &str) -> Sample {
        Sample {
            index,
            start,
            latency,
            wall: Duration::ZERO,
            outcome: Err(code.to_string()),
            reply_bytes: 0,
        }
    }
}

/// A phase's samples (in stream order), its wall time and the process
/// CPU time it used.
#[derive(Debug)]
pub struct Phase<T> {
    /// One entry per job, by stream index.
    pub samples: Vec<T>,
    /// First submission to last completion.
    pub elapsed: Duration,
    /// User plus system CPU time of the whole process.
    pub cpu: Duration,
}

/// Runs a closed loop over stream jobs `0..jobs`: one thread per
/// client, each taking the next stream index and running it to
/// completion with `run`.
pub fn closed_loop<C: Send, T: Send>(
    clients: Vec<C>,
    jobs: usize,
    run: impl Fn(&mut C, usize, Instant) -> T + Sync,
) -> Phase<(usize, T)> {
    let next = AtomicUsize::new(0);
    let cpu0 = process_cpu_time();
    let start = Instant::now();
    let mut samples: Vec<(usize, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let (next, run) = (&next, &run);
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs {
                            return mine;
                        }
                        mine.push((i, run(&mut client, i, start)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let cpu = process_cpu_time() - cpu0;
    samples.sort_by_key(|(i, _)| *i);
    Phase {
        samples,
        elapsed,
        cpu,
    }
}

/// Checks a local result against the shape its request asked for.
pub fn check_result(result: &JobResult, dims: &[usize]) -> Checked {
    let values = result.reconstruction.values();
    let defect = if result.reconstruction.dims() != dims {
        Some(format!(
            "dims {:?}, expected {dims:?}",
            result.reconstruction.dims()
        ))
    } else if values.len() != dims.iter().product::<usize>() {
        Some(format!("{} values", values.len()))
    } else if !values.iter().all(|v| v.is_finite()) {
        Some("non-finite reconstruction value".into())
    } else if result.best_point.len() != dims.len()
        || !result.best_point.iter().all(|c| c.is_finite())
        || !result.best_value.is_finite()
        || !result.nrmse.is_finite()
    {
        Some("malformed optimum or NRMSE".into())
    } else {
        None
    };
    Checked {
        checksum: result_checksum(result),
        nrmse: result.nrmse,
        iterations: result.solver_iterations,
        defect,
    }
}

/// Checks a served `wait` reply's result the same way.
fn check_reply(result: &Json, dims: &[usize]) -> Checked {
    let nums = |key: &str| -> Option<Vec<f64>> {
        result
            .get(key)?
            .as_arr()?
            .iter()
            .map(Json::as_f64)
            .collect()
    };
    let got_dims: Option<Vec<usize>> =
        nums("dims").map(|d| d.iter().map(|&n| n as usize).collect());
    let values = nums("values").unwrap_or_default();
    let best = nums("best_point").unwrap_or_default();
    let nrmse = result
        .get("nrmse")
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN);
    let best_value = result
        .get("best_value")
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN);
    let checksum = result
        .get("checksum")
        .and_then(Json::as_str)
        .and_then(|hex| u64::from_str_radix(hex, 16).ok());
    let defect = if got_dims.as_deref() != Some(dims) {
        Some(format!("dims {got_dims:?}, expected {dims:?}"))
    } else if values.len() != dims.iter().product::<usize>() {
        Some(format!("{} values", values.len()))
    } else if !values.iter().all(|v| v.is_finite()) {
        Some("non-finite reconstruction value".into())
    } else if best.len() != dims.len()
        || !best.iter().all(|c| c.is_finite())
        || !best_value.is_finite()
        || !nrmse.is_finite()
    {
        Some("malformed optimum or NRMSE".into())
    } else if checksum.is_none() {
        Some("missing checksum".into())
    } else {
        None
    };
    Checked {
        checksum: checksum.unwrap_or(0),
        nrmse,
        iterations: result
            .get("solver_iterations")
            .and_then(Json::as_u64)
            .unwrap_or(0) as usize,
        defect,
    }
}

/// The closed loop over an in-process runtime, one client per
/// `concurrency`.
pub fn runtime_phase(
    runtime: &BatchRuntime,
    workload: Workload,
    seed: u64,
    concurrency: usize,
    jobs: usize,
) -> Phase<(usize, Sample)> {
    closed_loop(vec![(); concurrency], jobs, |_, index, t0| {
        let req = workload.job(seed, index as u64);
        let (spec, dims) = (spec(&req), expected_dims(&req));
        let sent = Instant::now();
        let start = sent - t0;
        match runtime.submit(spec).wait() {
            Ok(result) => {
                let latency = sent.elapsed();
                Sample {
                    index,
                    start,
                    latency,
                    wall: result.wall,
                    outcome: Ok(check_result(&result, &dims)),
                    reply_bytes: 0,
                }
            }
            Err(lost) => {
                let code = if lost.was_expired() {
                    "expired"
                } else if lost.was_cancelled() {
                    "cancelled"
                } else {
                    "job-lost"
                };
                Sample::failed(index, start, sent.elapsed(), code)
            }
        }
    })
}

/// The closed loop over the daemon: one connection per client, each
/// submitting a job and then waiting for it with its values, as a
/// plotting client would.
pub fn served_phase(
    socket: &std::path::Path,
    workload: Workload,
    seed: u64,
    concurrency: usize,
    jobs: usize,
) -> Phase<(usize, Sample)> {
    let clients: Vec<Client> = (0..concurrency)
        .map(|_| Client::connect_unix(socket).expect("connect to the daemon"))
        .collect();
    closed_loop(clients, jobs, |client, index, t0| {
        let req = workload.job(seed, index as u64);
        let dims = expected_dims(&req);
        let sent = Instant::now();
        let start = sent - t0;
        let fail = |code: &str| Sample::failed(index, start, sent.elapsed(), code);
        let error_code = |reply: &Json| {
            reply
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("bad-reply")
                .to_string()
        };
        let admitted = match client.submit(&req) {
            Ok(reply) => reply,
            Err(_) => return fail("io"),
        };
        let Some(id) = admitted.get("job").and_then(Json::as_u64) else {
            return fail(&error_code(&admitted));
        };
        let done = match client.wait(id, Some(WAIT_MS), true) {
            Ok(reply) => reply,
            Err(_) => return fail("io"),
        };
        let latency = sent.elapsed();
        match (
            done.get("status").and_then(Json::as_str),
            done.get("result"),
        ) {
            (Some("done"), Some(result)) => Sample {
                index,
                start,
                latency,
                wall: Duration::from_secs_f64(
                    result.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0) / 1e3,
                ),
                outcome: Ok(check_reply(result, &dims)),
                reply_bytes: done.to_string_compact().len() + 1,
            },
            (Some(_), None) if done.get("timed_out").is_some() => fail("wait-timeout"),
            _ => fail(&error_code(&done)),
        }
    })
}

/// Names of the traced stage spans, pipeline order.
pub const STAGES: [&str; 3] = ["runtime.stage1", "core.reconstruct", "optim.descent"];

/// One recorded span: a stage call, or the whole job (`name == "job"`).
#[derive(Clone, Debug)]
pub struct Span {
    /// Stream index of the job (the trace id).
    pub job: usize,
    /// Span name.
    pub name: &'static str,
    /// Start, from the start of the phase.
    pub start: Duration,
    /// End, from the start of the phase.
    pub end: Duration,
}

/// A traced job: its sample, its spans, and stage-level counts.
#[derive(Debug)]
pub struct Traced {
    /// The job's sample (`wall` is the job span).
    pub sample: Sample,
    /// The job span followed by one span per entry of [`STAGES`].
    pub spans: Vec<Span>,
    /// Objective queries the descent issued.
    pub queries: usize,
    /// The result, for encode measurements.
    pub result: JobResult,
    /// The same job through `run_job`, interleaved with the traced run.
    pub untraced: JobResult,
}

/// Runs `spec` through the same stages, in the same order and with the
/// same arguments, as [`oscar_runtime::run_job`], timing each call with
/// the benchmark's own clock.
pub fn traced_job(
    spec: &JobSpec,
    cache: &LandscapeCache,
    index: usize,
    t0: Instant,
) -> (JobResult, Vec<Span>, usize) {
    let mut spans = Vec::with_capacity(4);
    let mut span = |name: &'static str, from: Instant| {
        spans.push(Span {
            job: index,
            name,
            start: from - t0,
            end: t0.elapsed(),
        });
    };
    let job_start = Instant::now();
    let (truth, cache_hit) = mitigated_landscape(
        &spec.problem,
        &spec.shape,
        &spec.source,
        spec.landscape_seed,
        &spec.mitigation,
        Some(cache),
    );
    span(STAGES[0], job_start);

    let from = Instant::now();
    let reconstructor = Reconstructor::new(spec.fista);
    let (reconstruction, nrmse, samples_used, solver_iterations) = match truth.as_ref() {
        ShapedLandscape::Grid2d(l) => {
            let report = reconstructor.reconstruct_fraction_seeded(l, spec.fraction, spec.seed);
            (
                ShapedLandscape::Grid2d(report.landscape),
                report.nrmse,
                report.samples_used,
                report.solver_iterations,
            )
        }
        ShapedLandscape::Tensor(l) => {
            let report =
                reconstructor.reconstruct_tensor_fraction_seeded(l, spec.fraction, spec.seed);
            (
                ShapedLandscape::Tensor(report.landscape),
                report.nrmse,
                report.samples_used,
                report.solver_iterations,
            )
        }
    };
    span(STAGES[1], from);

    let from = Instant::now();
    let (best_point, best_value, queries) =
        match (spec.descent.optimizer(spec.seed), &reconstruction) {
            (Some(optimizer), ShapedLandscape::Grid2d(l)) => {
                let (_, (b0, g0)) = l.argmin();
                let run = optimize_on_reconstruction(optimizer.as_ref(), l, [b0, g0]);
                (vec![run.x[0], run.x[1]], run.fx, run.queries)
            }
            (Some(optimizer), ShapedLandscape::Tensor(l)) => {
                let (_, x0) = l.argmin();
                let run = optimize_on_reconstruction_nd(optimizer.as_ref(), l, &x0);
                (run.x, run.fx, run.queries)
            }
            (None, _) => {
                let (value, point) = reconstruction.argmin();
                (point, value, 0)
            }
        };
    span(STAGES[2], from);
    let wall = job_start.elapsed();
    span("job", job_start);
    // The job span first, then the stages.
    spans.rotate_right(1);

    let result = JobResult {
        job_id: 0,
        dispatch_seq: 0,
        reconstruction,
        nrmse,
        samples_used,
        solver_iterations,
        best_point,
        best_value,
        landscape_cache_hit: cache_hit,
        wall,
    };
    (result, spans, queries)
}

/// The traced closed loop over stream jobs `0..jobs`. Each job runs
/// twice, back to back and in alternating order: once traced over
/// `traced_cache`, once through `run_job` over `plain_cache` (both in
/// the state the timed phase's system starts in), so the two runs see
/// the same host conditions and the tracing overhead is their ratio.
pub fn traced_phase(
    traced_cache: &LandscapeCache,
    plain_cache: &LandscapeCache,
    workload: Workload,
    seed: u64,
    concurrency: usize,
    jobs: usize,
) -> Phase<(usize, Traced)> {
    closed_loop(vec![(); concurrency], jobs, |_, index, t0| {
        let req = workload.job(seed, index as u64);
        let (spec, dims) = (spec(&req), expected_dims(&req));
        let plain = || run_job(&spec, Some(plain_cache));
        let untraced_first = index % 2 == 1;
        let untraced = untraced_first.then(plain);
        let sent = Instant::now();
        let (result, spans, queries) = traced_job(&spec, traced_cache, index, t0);
        let latency = sent.elapsed();
        let untraced = untraced.unwrap_or_else(plain);
        Traced {
            sample: Sample {
                index,
                start: sent - t0,
                latency,
                wall: result.wall,
                outcome: Ok(check_result(&result, &dims)),
                reply_bytes: 0,
            },
            spans,
            queries,
            result,
            untraced,
        }
    })
}
