//! `oscar-perfbench`: the repository's end-to-end and per-layer
//! benchmark. See `perfbench/README.md` for the workloads, the metrics
//! and how to run and compare it.
//!
//! ```text
//! oscar-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! oscar-perfbench compare <records-dir-a> <records-dir-b>
//! ```
//!
//! A run prints one line per metric and, as its last line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. It exits
//! non-zero when any delivered output is wrong; failed jobs are counted
//! in `failed`. Paths are relative to the repository root, the
//! directory it runs from.

mod compare;
mod drive;
mod layers;
mod stats;
mod workload;

use drive::{runtime_phase, served_phase, traced_phase, Phase, Sample, Traced, STAGES};
use oscar_obs::Registry;
use oscar_runtime::{mitigated_landscape, run_job, KeyClass, LandscapeCache, LandscapeStore};
use oscar_serve::{result_checksum, spawn_unix, Client, Json, ServeConfig};
use stats::{blocked_quantile, mean, median, ms, quantile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workload::{set_up, spec, Prepared, System, Workload, CACHE_CAPACITY, MIN_JOBS};

/// Where runs keep their records and scratch files.
const OUT_DIR: &str = "perfbench/out";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// Consecutive jobs per block of the p50 and p90 latency, which are
/// block-wise quantiles ([`stats::blocked_quantile`]). A p90 block is
/// large enough to put ten jobs beyond its p90.
const P50_BLOCK: usize = 10;
const P90_BLOCK: usize = 100;

/// Stream positions whose results are re-run through `run_job` without
/// a cache after the timed phase and compared bit for bit (the first
/// delivered result at or after each position).
const RERUN: [usize; 3] = [0, 41, 97];

/// Jobs of the prefix that measures 1- vs 2-thread throughput.
const SCALING_JOBS: usize = 20;

/// Jobs the traced phase runs (each twice: traced and plain).
const TRACED_JOBS: usize = 100;

/// Results the encode probe serializes.
const ENCODE_RESULTS: usize = 20;

/// Error codes always shown in the failure breakdown.
const FAILURE_CODES: [&str; 5] = ["overloaded", "quota-exceeded", "expired", "job-lost", "io"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    samples: usize,
}

/// What a run found out.
#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    attempted: usize,
    failures: BTreeMap<String, usize>,
    defects: Vec<String>,
    /// Lost jobs that panicked (the rest of `job-lost` were dropped
    /// without a panic).
    panicked: u64,
    /// Per-job times of the timed phase: index, start, latency, wall (ms).
    jobs: Vec<[f64; 4]>,
    spans: Vec<drive::Span>,
    setup_s: Vec<f64>,
}

impl Report {
    fn metric(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        if !value.is_finite() {
            self.defects.push(format!("metric {name} is not finite"));
        }
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    /// Counts a phase's jobs and failures and checks every result.
    fn account(&mut self, phase: &str, samples: &[&Sample]) {
        self.attempted += samples.len();
        for s in samples {
            match &s.outcome {
                Err(code) => *self.failures.entry(code.clone()).or_default() += 1,
                Ok(c) => {
                    if let Some(defect) = &c.defect {
                        self.defects
                            .push(format!("{phase} job {}: {defect}", s.index));
                    }
                }
            }
        }
    }

    /// Counts the set-up's warm-up jobs and their failures.
    fn account_setup(&mut self, prepared: &Prepared) {
        self.attempted += prepared.warmup_jobs;
        for code in &prepared.warmup_failures {
            *self.failures.entry(code.clone()).or_default() += 1;
        }
    }

    fn failed(&self) -> usize {
        self.failures.values().sum()
    }
}

fn ok_samples<'a>(samples: impl IntoIterator<Item = &'a Sample>) -> Vec<&'a Sample> {
    samples.into_iter().filter(|s| s.outcome.is_ok()).collect()
}

fn checksum(s: &Sample) -> Option<u64> {
    s.outcome.as_ref().ok().map(|c| c.checksum)
}

/// Re-runs the [`RERUN`] jobs through `run_job` with no cache and
/// compares each result bit for bit with the phase's.
fn rerun_check(report: &mut Report, workload: Workload, seed: u64, samples: &[(usize, Sample)]) {
    for at in RERUN {
        let Some((index, sample)) = samples.iter().find(|(i, s)| *i >= at && s.outcome.is_ok())
        else {
            report
                .defects
                .push(format!("no delivered result at or after job {at}"));
            continue;
        };
        let local = run_job(&spec(&workload.job(seed, *index as u64)), None);
        if checksum(sample) != Some(result_checksum(&local)) {
            report.defects.push(format!(
                "job {index}: result differs from an uncached run_job"
            ));
        }
    }
}

/// The timed closed loop on the prepared system.
fn timed_phase(
    prepared: &Prepared,
    workload: Workload,
    seed: u64,
    concurrency: usize,
    jobs: usize,
) -> Phase<(usize, Sample)> {
    match &prepared.system {
        System::Runtime(rt) => runtime_phase(rt, workload, seed, concurrency, jobs),
        System::Daemon { socket, .. } => served_phase(socket, workload, seed, concurrency, jobs),
    }
}

/// The end-to-end run: repeated set-up, then the timed phase.
fn run_untraced(args: &Args, concurrency: usize, scratch: &Path) -> Report {
    let mut report = Report::default();
    let mut prepared: Option<Prepared> = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = prepared.take() {
            previous.shutdown();
        }
        let t = Instant::now();
        let p = set_up(args.workload, args.seed, scratch, concurrency);
        report.setup_s.push(t.elapsed().as_secs_f64());
        report.account_setup(&p);
        prepared = Some(p);
    }
    let prepared = prepared.expect("at least one set-up");
    let phase = timed_phase(
        &prepared,
        args.workload,
        args.seed,
        concurrency,
        args.workload.jobs(args.seconds),
    );
    let peak_rss = stats::peak_rss_mb();
    report.panicked += panicked(&prepared);
    prepared.shutdown();

    let samples: Vec<&Sample> = phase.samples.iter().map(|(_, s)| s).collect();
    report.account("timed", &samples);
    rerun_check(&mut report, args.workload, args.seed, &phase.samples);
    let ok = ok_samples(samples.iter().copied());
    let latencies: Vec<f64> = ok.iter().map(|s| ms(s.latency)).collect();
    let n = ok.len();
    report.jobs = samples
        .iter()
        .map(|s| [s.index as f64, ms(s.start), ms(s.latency), ms(s.wall)])
        .collect();
    if n == 0 {
        report.defects.push("no job succeeded".into());
        return report;
    }
    report.metric("setup_s", "s", median(&report.setup_s.clone()), SETUP_REPS);
    report.metric(
        "throughput_jobs_per_s",
        "1/s",
        n as f64 / phase.elapsed.as_secs_f64(),
        n,
    );
    report.metric(
        "latency_p50_ms",
        "ms",
        blocked_quantile(&latencies, P50_BLOCK, 0.5),
        n,
    );
    report.metric(
        "latency_p90_ms",
        "ms",
        blocked_quantile(&latencies, P90_BLOCK, 0.9),
        n,
    );
    report.metric(
        "cpu_ms_per_job",
        "ms",
        ms(phase.cpu) / samples.len() as f64,
        samples.len(),
    );
    report.metric("peak_rss_mb", "MiB", peak_rss, 1);
    let nrmse: Vec<f64> = ok
        .iter()
        .filter_map(|s| s.outcome.as_ref().ok().map(|c| c.nrmse))
        .collect();
    report.metric("nrmse_mean", "ratio", mean(&nrmse), n);
    report
}

/// Exact counters of the obs registry that the traced run reads.
#[derive(Clone, Copy, Default)]
struct Counters {
    hits: u64,
    misses: u64,
    evictions: u64,
    dedup_waits: u64,
    store_hits: u64,
    stolen: u64,
    busy_us: u64,
}

impl Counters {
    fn read() -> Counters {
        let r = Registry::global();
        let family = |kind: &str| -> u64 {
            KeyClass::ALL
                .iter()
                .map(|c| r.counter(&format!("cache.{kind}.{}", c.as_str())).get())
                .sum()
        };
        Counters {
            hits: family("hits"),
            misses: family("misses"),
            evictions: family("evictions"),
            dedup_waits: family("dedup_waits"),
            store_hits: r.counter("store.hits").get(),
            stolen: r.counter("pool.tasks_stolen").get(),
            busy_us: r.histogram("pool.busy_us").sum(),
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            dedup_waits: self.dedup_waits - before.dedup_waits,
            store_hits: self.store_hits - before.store_hits,
            stolen: self.stolen - before.stolen,
            busy_us: self.busy_us - before.busy_us,
        }
    }
}

/// A landscape cache in the state the timed phase's system starts in:
/// empty (`zne-cold`), empty over the set-up's store (`nd-warm`), or
/// holding the warmed instances (`served-2d-warm`).
fn equivalent_cache(workload: Workload, seed: u64, prepared: &Prepared) -> LandscapeCache {
    match &prepared.store_dir {
        Some(dir) => {
            let store = LandscapeStore::open(dir).expect("reopen the landscape store");
            LandscapeCache::with_store(CACHE_CAPACITY, Some(store))
        }
        None => {
            let cache = LandscapeCache::new(CACHE_CAPACITY);
            if workload != Workload::ZneCold {
                for req in workload.warmup_jobs(seed) {
                    let s = spec(&req);
                    mitigated_landscape(
                        &s.problem,
                        &s.shape,
                        &s.source,
                        s.landscape_seed,
                        &s.mitigation,
                        Some(&cache),
                    );
                }
            }
            cache
        }
    }
}

/// Runs `jobs` stream jobs of `workload` through a daemon in the state
/// the workload's own system starts in, returning the phase and the
/// daemon's [`daemon_counts`].
fn serve_probe(
    workload: Workload,
    seed: u64,
    prepared: &Prepared,
    concurrency: usize,
    scratch: &Path,
    jobs: usize,
) -> (Phase<(usize, Sample)>, (u64, u64)) {
    let socket = scratch.join("probe.sock");
    let handle = spawn_unix(
        &socket,
        ServeConfig {
            concurrency,
            cache_capacity: CACHE_CAPACITY,
            store_dir: prepared.store_dir.clone(),
            ..ServeConfig::default()
        },
    )
    .expect("start the probe daemon");
    let phase = served_phase(&socket, workload, seed, concurrency, jobs);
    let counts = daemon_counts(&socket);
    handle.drain();
    handle.join();
    (phase, counts)
}

/// Submits the daemon refused for overload or quota, and jobs that
/// panicked on its runtime.
fn daemon_counts(socket: &Path) -> (u64, u64) {
    let stats = Client::connect_unix(socket)
        .and_then(|mut c| c.stats())
        .expect("read daemon stats");
    let count = |key: &str| stats.get(key).and_then(Json::as_u64).unwrap_or(0);
    (
        count("rejected_overload") + count("rejected_quota"),
        count("failed"),
    )
}

/// Jobs that panicked on the prepared system's runtime.
fn panicked(prepared: &Prepared) -> u64 {
    match &prepared.system {
        System::Runtime(rt) => rt.failed(),
        System::Daemon { socket, .. } => daemon_counts(socket).1,
    }
}

/// Throughput of [`SCALING_JOBS`] jobs on `threads` threads, measured
/// in a child process whose worker pool has exactly that many threads.
fn scaling_throughput(workload: Workload, seed: u64, threads: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "scaling",
            workload.name(),
            &seed.to_string(),
            &threads.to_string(),
        ])
        .env("OSCAR_THREADS", threads.to_string())
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("scaling probe on {threads} threads failed"));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .and_then(|l| l.trim().parse().ok())
        .ok_or_else(|| "scaling probe printed no throughput".into())
}

/// The child side of [`scaling_throughput`].
fn scaling_main(argv: &[String]) -> ExitCode {
    let [name, seed, threads] = argv else {
        eprintln!("usage: oscar-perfbench scaling <workload> <seed> <threads>");
        return ExitCode::from(2);
    };
    let (Some(workload), Ok(seed), Ok(threads)) = (
        Workload::by_name(name),
        seed.parse(),
        threads.parse::<usize>(),
    ) else {
        eprintln!("bad scaling arguments");
        return ExitCode::from(2);
    };
    let rt = oscar_runtime::BatchRuntime::new(oscar_runtime::RuntimeConfig {
        concurrency: threads,
        landscape_cache_capacity: CACHE_CAPACITY,
        store: None,
    });
    rt.run_batch(workload.warmup_jobs(seed).iter().map(spec))
        .expect("warm-up jobs complete");
    let phase = runtime_phase(&rt, workload, seed, threads, SCALING_JOBS);
    if phase.samples.iter().any(|(_, s)| s.outcome.is_err()) {
        eprintln!("a scaling job failed");
        return ExitCode::FAILURE;
    }
    println!("{}", SCALING_JOBS as f64 / phase.elapsed.as_secs_f64());
    ExitCode::SUCCESS
}

/// The `q`-quantile, or 0 for a phase with no delivered job.
fn p(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        quantile(values, q)
    }
}

/// The traced run: the timed phase again for the exact counters, the
/// same jobs through the traced stage drive, and the layer probes.
fn run_traced(args: &Args, concurrency: usize, scratch: &Path) -> Report {
    let (workload, seed) = (args.workload, args.seed);
    let mut report = Report::default();
    let prepared = set_up(workload, seed, scratch, concurrency);
    report.account_setup(&prepared);

    let before = Counters::read();
    let untraced = timed_phase(
        &prepared,
        workload,
        seed,
        concurrency,
        workload.jobs(args.seconds),
    );
    let counters = Counters::read().since(before);
    let untraced_samples: Vec<&Sample> = untraced.samples.iter().map(|(_, s)| s).collect();
    report.account("untraced", &untraced_samples);
    rerun_check(&mut report, workload, seed, &untraced.samples);
    let jobs = untraced.samples.len();

    report.panicked += panicked(&prepared);
    let (served, rejects) = match &prepared.system {
        System::Daemon { socket, .. } => (None, daemon_counts(socket).0),
        System::Runtime(_) => {
            let (phase, (rejects, probe_panicked)) =
                serve_probe(workload, seed, &prepared, concurrency, scratch, MIN_JOBS);
            report.panicked += probe_panicked;
            (Some(phase), rejects)
        }
    };
    let served_samples: Vec<&Sample> = match &served {
        Some(phase) => phase.samples.iter().map(|(_, s)| s).collect(),
        None => untraced_samples.clone(),
    };
    if served.is_some() {
        report.account("serve probe", &served_samples);
    }

    let traced_cache = equivalent_cache(workload, seed, &prepared);
    let plain_cache = equivalent_cache(workload, seed, &prepared);
    let traced = traced_phase(
        &traced_cache,
        &plain_cache,
        workload,
        seed,
        concurrency,
        jobs.min(TRACED_JOBS),
    );
    drop((traced_cache, plain_cache));
    let store_bytes = prepared.store_bytes;
    prepared.shutdown();
    let traced: Vec<&Traced> = traced.samples.iter().map(|(_, t)| t).collect();
    report.account(
        "traced",
        &traced.iter().map(|t| &t.sample).collect::<Vec<_>>(),
    );
    // Traced results must equal both the interleaved run_job's and, where
    // the timed phase delivered the job, the timed phase's, bit for bit.
    for (t, u) in traced.iter().zip(&untraced_samples) {
        let traced_sum = checksum(&t.sample);
        let timed_sum = checksum(u);
        if traced_sum != Some(result_checksum(&t.untraced))
            || (timed_sum.is_some() && timed_sum != traced_sum)
        {
            report.defects.push(format!(
                "traced job {} differs from the untraced run",
                t.sample.index
            ));
        }
    }
    report.spans = traced
        .iter()
        .flat_map(|t| t.spans.iter().cloned())
        .collect();

    // Stage times from the traced spans, in stage order.
    let stage_ms: Vec<Vec<f64>> = (1..=STAGES.len())
        .map(|k| {
            traced
                .iter()
                .map(|t| ms(t.spans[k].end - t.spans[k].start))
                .collect()
        })
        .collect();
    let total_job_ms: f64 = traced.iter().map(|t| ms(t.sample.wall)).sum();
    let iterations: Vec<f64> = traced
        .iter()
        .filter_map(|t| t.sample.outcome.as_ref().ok().map(|c| c.iterations as f64))
        .collect();
    let n = traced.len();

    let probes = layers::probe(workload, seed, scratch);
    report.metric(
        "qsim.ns_per_point",
        "ns",
        probes.qsim_per_point.as_secs_f64() * 1e9,
        1,
    );
    report.metric(
        "runtime.source.ns_per_point",
        "ns",
        probes.source_per_point.as_secs_f64() * 1e9,
        1,
    );
    report.metric(
        "mitigation.zne_us_per_point",
        "us",
        probes.zne_per_point.as_secs_f64() * 1e6,
        1,
    );
    report.metric("runtime.stage1_ms.p50", "ms", p(&stage_ms[0], 0.5), n);
    report.metric("runtime.cache.misses", "count", counters.misses as f64, 1);
    report.metric(
        "runtime.cache.evictions",
        "count",
        counters.evictions as f64,
        1,
    );
    report.metric(
        "runtime.cache.dedup_waits",
        "count",
        counters.dedup_waits as f64,
        1,
    );
    report.metric(
        "runtime.cache.miss_points",
        "count",
        (counters.misses * workload.points() as u64) as f64,
        1,
    );
    let lookups = counters.hits + counters.misses;
    report.metric(
        "runtime.cache.hit_ratio",
        "ratio",
        if lookups == 0 {
            0.0
        } else {
            counters.hits as f64 / lookups as f64
        },
        lookups as usize,
    );
    // Region participants: the pool's workers plus every executor
    // that submits regions (the submitter drains its own region too).
    let participants = oscar_par::max_threads() - 1 + concurrency;
    report.metric(
        "par.pool.utilization",
        "ratio",
        counters.busy_us as f64 / (untraced.elapsed.as_secs_f64() * 1e6 * participants as f64),
        1,
    );
    report.metric("par.pool.tasks_stolen", "count", counters.stolen as f64, 1);
    let efficiency = scaling_throughput(workload, seed, 1)
        .and_then(|one| scaling_throughput(workload, seed, 2).map(|two| two / (2.0 * one)));
    match efficiency {
        Ok(e) => report.metric("par.scaling_efficiency", "ratio", e, SCALING_JOBS),
        Err(e) => {
            report.defects.push(e);
            report.metric("par.scaling_efficiency", "ratio", 0.0, 0);
        }
    }
    report.metric("core.reconstruct_ms.p50", "ms", p(&stage_ms[1], 0.5), n);
    report.metric("cs.fista.iterations_per_job", "count", mean(&iterations), n);
    report.metric(
        "cs.fista.us_per_iteration",
        "us",
        stage_ms[1].iter().sum::<f64>() * 1e3 / iterations.iter().sum::<f64>(),
        n,
    );
    for (shape, per_apply, bytes) in layers::dct_probe() {
        report.metric(
            &format!("cs.dct.us_per_apply.{shape}"),
            "us",
            per_apply.as_secs_f64() * 1e6,
            1,
        );
        report.metric(
            &format!("cs.dct.bytes_computed.{shape}"),
            "bytes",
            bytes as f64,
            1,
        );
    }
    report.metric("optim.descent_ms.p50", "ms", p(&stage_ms[2], 0.5), n);
    let queries: Vec<f64> = traced.iter().map(|t| t.queries as f64).collect();
    report.metric("optim.queries_per_job", "count", mean(&queries), n);
    report.metric("runtime.store.save_ms", "ms", ms(probes.store_save), 1);
    report.metric(
        "runtime.store.bytes_written",
        "bytes",
        store_bytes as f64,
        1,
    );
    report.metric(
        "runtime.store.load_us",
        "us",
        probes.store_load.as_secs_f64() * 1e6,
        1,
    );
    report.metric("runtime.store.hits", "count", counters.store_hits as f64, 1);

    let served_ok = ok_samples(served_samples.iter().copied());
    let overhead: Vec<f64> = served_ok
        .iter()
        .map(|s| ms(s.latency.saturating_sub(s.wall)))
        .collect();
    report.metric(
        "serve.overhead_ms.p50",
        "ms",
        p(&overhead, 0.5),
        overhead.len(),
    );
    report.metric(
        "serve.overhead_ms.p90",
        "ms",
        p(&overhead, 0.9),
        overhead.len(),
    );
    let results: Vec<_> = traced
        .iter()
        .take(ENCODE_RESULTS)
        .map(|t| &t.result)
        .collect();
    report.metric(
        "serve.encode_us_per_reply",
        "us",
        layers::encode_probe(&results).as_secs_f64() * 1e6,
        results.len(),
    );
    let bytes: Vec<f64> = served_ok.iter().map(|s| s.reply_bytes as f64).collect();
    report.metric(
        "serve.reply_bytes_per_job",
        "bytes",
        mean(&bytes),
        bytes.len(),
    );
    report.metric("serve.admission_rejects", "count", rejects as f64, 1);

    let untraced_ok = ok_samples(untraced_samples.iter().copied());
    let queue_wait: Vec<f64> = untraced_ok
        .iter()
        .map(|s| ms(s.latency.saturating_sub(s.wall)))
        .collect();
    report.metric(
        "runtime.scheduler.queue_wait_ms.p50",
        "ms",
        p(&queue_wait, 0.5),
        queue_wait.len(),
    );
    report.metric(
        "runtime.scheduler.queue_wait_ms.p90",
        "ms",
        p(&queue_wait, 0.9),
        queue_wait.len(),
    );
    for (name, k) in [
        ("share.stage1", 0),
        ("share.reconstruction", 1),
        ("share.descent", 2),
    ] {
        report.metric(
            name,
            "ratio",
            stage_ms[k].iter().sum::<f64>() / total_job_ms,
            n,
        );
    }
    let untraced_ms: f64 = traced.iter().map(|t| ms(t.untraced.wall)).sum();
    report.metric(
        "trace.overhead_ratio",
        "ratio",
        total_job_ms / untraced_ms,
        n,
    );
    report.jobs = traced
        .iter()
        .map(|t| {
            let s = &t.sample;
            [s.index as f64, ms(s.start), ms(s.latency), ms(s.wall)]
        })
        .collect();
    report
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the compact JSON of the warm-up jobs and the timed
/// jobs: a fingerprint of the generated inputs.
fn input_fingerprint(workload: Workload, seed: u64, jobs: usize) -> u64 {
    let mut text = String::new();
    let warmup = workload.warmup_jobs(seed).into_iter();
    for req in warmup.chain((0..jobs as u64).map(|i| workload.job(seed, i))) {
        text.push_str(&req.to_json().to_string_compact());
        text.push('\n');
    }
    stats::fnv1a(text.as_bytes())
}

fn num(x: f64) -> Json {
    Json::Num(x)
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn write_record(
    args: &Args,
    concurrency: usize,
    report: &Report,
    correct: bool,
) -> std::io::Result<PathBuf> {
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                obj(vec![
                    ("value", num(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                    ("samples", num(m.samples as f64)),
                ]),
            )
        })
        .collect();
    let failures = report
        .failures
        .iter()
        .map(|(k, v)| (k.clone(), num(*v as f64)))
        .collect();
    let record = obj(vec![
        ("workload", Json::Str(args.workload.name().into())),
        ("seed", num(args.seed as f64)),
        ("trace", Json::Bool(args.trace)),
        ("seconds", num(args.seconds)),
        (
            "input_fingerprint",
            Json::Str(format!(
                "{:016x}",
                input_fingerprint(args.workload, args.seed, args.workload.jobs(args.seconds))
            )),
        ),
        ("nproc", num(available_parallelism() as f64)),
        (
            "oscar_threads",
            std::env::var("OSCAR_THREADS").map_or(Json::Null, Json::Str),
        ),
        ("pool_threads", num(oscar_par::max_threads() as f64)),
        ("concurrency", num(concurrency as f64)),
        ("git_rev", Json::Str(git_rev())),
        ("rustc", Json::Str(env!("PERFBENCH_RUSTC").into())),
        ("correct", Json::Bool(correct)),
        ("attempted", num(report.attempted as f64)),
        ("failed", num(report.failed() as f64)),
        ("failures", Json::Obj(failures)),
        ("panicked", num(report.panicked as f64)),
        (
            "defects",
            Json::Arr(
                report
                    .defects
                    .iter()
                    .map(|d| Json::Str(d.clone()))
                    .collect(),
            ),
        ),
        ("metrics", Json::Obj(metrics)),
        (
            "setup_s",
            Json::Arr(report.setup_s.iter().map(|&s| num(s)).collect()),
        ),
        (
            "jobs",
            Json::Arr(
                report
                    .jobs
                    .iter()
                    .map(|[i, start, latency, wall]| {
                        obj(vec![
                            ("index", num(*i)),
                            ("start_ms", num(*start)),
                            ("latency_ms", num(*latency)),
                            ("wall_ms", num(*wall)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "spans",
            Json::Arr(
                report
                    .spans
                    .iter()
                    .map(|s| {
                        obj(vec![
                            ("job", num(s.job as f64)),
                            ("name", Json::Str(s.name.into())),
                            ("start_ms", num(ms(s.start))),
                            ("end_ms", num(ms(s.end))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let dir = Path::new(OUT_DIR).join("records");
    std::fs::create_dir_all(&dir)?;
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap_or_default()
        .as_millis();
    let path = dir.join(format!(
        "{}-trace{}-seed{}-{stamp}.json",
        args.workload.name(),
        u8::from(args.trace),
        args.seed
    ));
    std::fs::write(&path, record.to_string_compact() + "\n")?;
    Ok(path)
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => return compare::main(&argv[1..]),
        Some("scaling") => return scaling_main(&argv[1..]),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("oscar-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let concurrency = available_parallelism();
    let scratch = Path::new(OUT_DIR).join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create the scratch directory");
    let report = if args.trace {
        run_traced(&args, concurrency, &scratch)
    } else {
        run_untraced(&args, concurrency, &scratch)
    };
    std::fs::remove_dir_all(&scratch).expect("remove the scratch directory");

    // A failed job is counted, not a wrong output: `correct` covers
    // the results that were delivered.
    let correct = report.defects.is_empty();
    println!(
        "workload {} seed {} trace {} concurrency {concurrency}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    for m in &report.metrics {
        println!(
            "  {:<40} {:>14.4} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    let failed = report.failed();
    print!(
        "  jobs: attempted {} succeeded {} failed {failed}",
        report.attempted,
        report.attempted - failed
    );
    for code in FAILURE_CODES {
        print!(
            " {code}={}",
            report.failures.get(code).copied().unwrap_or(0)
        );
    }
    for (code, n) in report
        .failures
        .iter()
        .filter(|(c, _)| !FAILURE_CODES.contains(&c.as_str()))
    {
        print!(" {code}={n}");
    }
    println!(" (panicked {})", report.panicked);
    for defect in &report.defects {
        println!("  defect: {defect}");
    }
    match write_record(&args, concurrency, &report, correct) {
        Ok(path) => println!("  record: {}", path.display()),
        Err(e) => eprintln!("oscar-perfbench: cannot write the run record: {e}"),
    }
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                obj(vec![
                    ("value", num(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let summary = obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", num(report.attempted as f64)),
        ("failed", num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", summary.to_string_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
