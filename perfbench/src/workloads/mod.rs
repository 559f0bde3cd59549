//! The four closed-loop workloads and the harness that runs them.
//!
//! Every workload drives one [`Engine`] built with `threads(1)` from a
//! single client: the next request is sent only after the previous one
//! returned. Inputs derive from the run's seed through
//! `mathkit::rng::derive_seed` substreams, so a seed fixes every input.

mod landscape;
mod noisy;
mod optimize;
mod reduce_stream;

pub use landscape::LandscapeScan;
pub use noisy::Noisy;
pub use optimize::Optimize;
pub use reduce_stream::ReduceStream;

use crate::calibrate::Calibrator;
use crate::digest::Digest;
use crate::layers::{ms_since, Layers, LAYER_METRICS, TRACE_METRICS};
use crate::metrics::{json_metrics, Metric, END_TO_END};
use crate::stats::{mean, median, percentile, samples_beyond, sorted, tail_percentile};
use graphlib::Graph;
use mathkit::rng::derive_seed;
use red_qaoa::engine::{Engine, Job, JobOutput, ReduceJob};
use red_qaoa::reduction::{ReducedGraph, WarmDecision};
use red_qaoa::RedQaoaError;
use std::time::{Duration, Instant};

/// Worker threads of every benchmarked engine.
pub const ENGINE_THREADS: usize = 1;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// Reference-kernel samples taken right before and right after each set-up.
/// A set-up is one long interval, so its speed is judged from many samples,
/// where a request's comes from the five around it.
const SETUP_REFERENCE_SAMPLES: usize = 15;

/// A run stops starting requests after this long, whatever else holds, so
/// it always exits well inside its time limit.
const HARD_STOP: Duration = Duration::from_secs(120);

/// Substream tags under a run's seed.
pub(crate) const GRAPH_STREAM: u64 = 1;
pub(crate) const REQUEST_STREAM: u64 = 2;
/// Warm-up inputs come from this fixed seed, whatever the run's seed, so
/// every run's set-up does the same work and `setup_s` moves only with the
/// program; their indices start far from any timed request index, so a
/// warm-up never shares a graph with the timed stream.
pub(crate) const WARMUP_SEED: u64 = 0x5E70B;
pub(crate) const WARMUP_BASE: usize = 1 << 40;

/// The workload names accepted by `--workload`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Optimize,
    Landscape,
    Noisy,
    ReduceStream,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [
        Kind::Optimize,
        Kind::Landscape,
        Kind::Noisy,
        Kind::ReduceStream,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Optimize => "optimize",
            Kind::Landscape => "landscape",
            Kind::Noisy => "noisy",
            Kind::ReduceStream => "reduce-stream",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Runs the workload.
    pub fn run(self, config: &RunConfig) -> RunReport {
        match self {
            Kind::Optimize => run::<Optimize>(self, config),
            Kind::Landscape => run::<LandscapeScan>(self, config),
            Kind::Noisy => run::<Noisy>(self, config),
            Kind::ReduceStream => run::<ReduceStream>(self, config),
        }
    }
}

/// One request: the jobs the client submits together, and their seed.
#[derive(Debug, Clone)]
pub struct Request {
    pub jobs: Vec<Job>,
    pub seed: u64,
}

impl Request {
    /// The RNG substream job `j` of this request runs on inside the engine
    /// (`Engine::run` is a batch of one).
    pub fn job_seed(&self, j: usize) -> u64 {
        derive_seed(self.seed, j as u64)
    }
}

/// The checked result of one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every output passed the workload's checks.
    pub ok: bool,
    /// Bitwise digest of every output.
    pub digest: u64,
    /// Quality samples, aligned with [`Workload::QUALITY`].
    pub quality: Vec<f64>,
}

impl Outcome {
    /// A request whose outputs could not be checked at all.
    pub fn failed(quality_len: usize) -> Self {
        Self {
            ok: false,
            digest: 0,
            quality: vec![0.0; quality_len],
        }
    }
}

/// A benchmark workload: set-up, per-request inputs, checks, and the traced
/// replica that rebuilds a request from the public layer functions.
pub trait Workload: Sized {
    /// Timed requests every run completes, whatever `--seconds` says: the
    /// fixed tail percentile is chosen so this many leave ten beyond it.
    const MIN_REQUESTS: usize;
    /// Leading timed requests whose outputs feed the digest and the quality
    /// means (a fixed prefix, so both repeat exactly for a seed).
    const QUALITY_REQUESTS: usize;
    /// Quality metrics `(name, unit)`. The first two are always
    /// `node_reduction_pct` and `edge_reduction_pct`.
    const QUALITY: &'static [(&'static str, &'static str)];
    /// Input-size summary printed with every run.
    const INPUTS: &'static str;

    /// A run-level check on the quality means (in [`Workload::QUALITY`]
    /// order) of the digest prefix; a run that fails it is not correct.
    fn gate(_quality_means: &[f64]) -> bool {
        true
    }
    /// Generates the inputs, builds the engine and warms it up.
    fn setup(seed: u64) -> Self;
    /// The engine requests run on.
    fn engine(&self) -> &Engine;
    /// Builds timed request `index` (not timed).
    fn prepare(&self, index: usize) -> Request;
    /// Checks the outputs of request `index` (not timed).
    fn check(&mut self, index: usize, outputs: &[Result<JobOutput, RedQaoaError>]) -> Outcome;
    /// Builds the replica's identically configured engine.
    fn start_trace(&mut self, layers: &mut Layers);
    /// Recomputes request `index` from the public layer functions, adding
    /// layer times to `layers`; returns the digest of the recomputed outputs.
    fn replica(&mut self, index: usize, request: &Request, layers: &mut Layers) -> u64;
    /// Adds engine-wide counters once the traced loop is over.
    fn finish_trace(&self, _layers: &mut Layers) {}
}

/// Sends one request through the engine the way a client would.
pub fn execute(engine: &Engine, request: &Request) -> Vec<Result<JobOutput, RedQaoaError>> {
    match request.jobs.as_slice() {
        [job] => vec![engine.run(job, request.seed)],
        jobs => engine.run_batch(jobs, request.seed),
    }
}

/// A fresh engine with the benchmark's thread policy and `builder` applied.
pub fn build_engine(
    configure: impl FnOnce(red_qaoa::engine::EngineBuilder) -> red_qaoa::engine::EngineBuilder,
) -> Engine {
    configure(Engine::builder().threads(ENGINE_THREADS))
        .build()
        .expect("benchmark engine configuration is valid")
}

/// Reduces `graph` through the replica engine's `Engine::run(ReduceJob)`,
/// charging the call to the cache layer on a hit and to the reduction layer
/// on a miss.
pub fn replica_reduce(
    engine: &Engine,
    graph: &Graph,
    layers: &mut Layers,
) -> Result<ReducedGraph, RedQaoaError> {
    let hits_before = engine.cache_stats().hits;
    let job = Job::Reduce(ReduceJob::new(graph.clone()));
    let start = Instant::now();
    let output = engine.run(&job, 0);
    let ms = ms_since(start);
    let reduced = output?
        .as_reduced()
        .cloned()
        .expect("a reduce job returns a reduction");
    if engine.cache_stats().hits > hits_before {
        layers.cache_hits += 1;
        layers.cache_ms += ms;
        layers.cache_hit_us.push(ms * 1e3);
    } else {
        layers.cache_misses += 1;
        layers.reduction_calls += 1;
        layers.reduction_ms += ms;
        layers.reduction_miss_ms.push(ms);
        match reduced.warm_decision {
            WarmDecision::MeasuredKept => layers.warm_kept += 1,
            WarmDecision::MeasuredReverted => layers.warm_reverted += 1,
            WarmDecision::Cold | WarmDecision::Warm => {}
        }
    }
    Ok(reduced)
}

/// Node and edge reduction of `reduced`, in percent.
pub fn reduction_pct(reduced: &ReducedGraph) -> [f64; 2] {
    [
        100.0 * reduced.node_reduction,
        100.0 * reduced.edge_reduction,
    ]
}

/// Run parameters from the command line.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a run prints: the detail line and the result line's fields.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    pub detail: String,
}

/// Peak resident set size of this process in MB (`VmHWM`), `0` if the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The repository revision when run from a git checkout, else `unknown`.
fn git_revision() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The fixed tail percentile of workload `W`.
pub fn tail_of<W: Workload>() -> u32 {
    tail_percentile(W::MIN_REQUESTS).expect("MIN_REQUESTS leaves ten samples beyond some tail")
}

fn keep_going(start: Instant, done: usize, min: usize, seconds: f64) -> bool {
    let elapsed = start.elapsed();
    elapsed < HARD_STOP && (done < min || elapsed.as_secs_f64() < seconds)
}

/// Set-up durations of one run, in seconds: as measured, and at nominal
/// machine speed.
struct SetupTimes {
    raw: Vec<f64>,
    nominal: Vec<f64>,
}

fn run<W: Workload>(kind: Kind, config: &RunConfig) -> RunReport {
    let repeats = if config.trace { 1 } else { SETUP_REPEATS };
    let mut times = SetupTimes {
        raw: Vec::with_capacity(repeats),
        nominal: Vec::with_capacity(repeats),
    };
    let mut speed = Calibrator::default();
    let mut workload: Option<W> = None;
    for _ in 0..repeats {
        // Drop the previous set-up first so two never coexist.
        drop(workload.take());
        let first = speed.samples();
        speed.sample_n(SETUP_REFERENCE_SAMPLES);
        let start = Instant::now();
        workload = Some(W::setup(config.seed));
        let seconds = start.elapsed().as_secs_f64();
        speed.sample_n(SETUP_REFERENCE_SAMPLES);
        times.raw.push(seconds);
        times
            .nominal
            .push(seconds * speed.scale_over(first..speed.samples()));
    }
    let mut workload = workload.expect("at least one set-up");
    if config.trace {
        run_traced(kind, &mut workload, config)
    } else {
        run_timed(kind, &mut workload, config, &times)
    }
}

/// Shared fields of the detail line.
fn detail_head<W: Workload>(kind: Kind, config: &RunConfig, requests: usize) -> String {
    format!(
        "\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {}, \
         \"engine_threads\": {}, \"thread_scaling\": \"not measurable here\", \
         \"git_rev\": \"{}\", \"loop\": \"closed\", \"clients\": 1, \"inputs\": \"{}\", \
         \"requests\": {}",
        kind.name(),
        config.seed,
        u8::from(config.trace),
        available_cores(),
        ENGINE_THREADS,
        git_revision(),
        W::INPUTS,
        requests
    )
}

/// `[setup_s median, p50 ms, tail ms, requests per second]` of one set of
/// durations; the rate divides by the summed request times.
fn timings(setup_s: &[f64], latencies_ms: &[f64], tail: u32) -> [f64; 4] {
    let sorted_ms = sorted(latencies_ms);
    [
        median(setup_s),
        percentile(&sorted_ms, 50),
        percentile(&sorted_ms, tail),
        1e3 * latencies_ms.len() as f64 / latencies_ms.iter().sum::<f64>(),
    ]
}

fn run_timed<W: Workload>(
    kind: Kind,
    workload: &mut W,
    config: &RunConfig,
    setup: &SetupTimes,
) -> RunReport {
    let mut speed = Calibrator::default();
    let mut latencies_ms = Vec::new();
    let mut failed = 0;
    let mut digest = Digest::default();
    let mut quality = vec![Vec::new(); W::QUALITY.len()];
    let start = Instant::now();
    while keep_going(start, latencies_ms.len(), W::MIN_REQUESTS, config.seconds) {
        let index = latencies_ms.len();
        let request = workload.prepare(index);
        let sent = Instant::now();
        let outputs = execute(workload.engine(), &request);
        latencies_ms.push(ms_since(sent));
        speed.sample();
        let outcome = workload.check(index, &outputs);
        if !outcome.ok {
            failed += 1;
            eprintln!("perfbench: request {index} failed its checks");
        }
        if index < W::QUALITY_REQUESTS {
            digest.word(outcome.digest);
            for (samples, value) in quality.iter_mut().zip(&outcome.quality) {
                samples.push(*value);
            }
        }
    }
    let attempted = latencies_ms.len();
    let tail = tail_of::<W>();
    let quality_means: Vec<f64> = quality.iter().map(|s| mean(s)).collect();
    let raw = timings(&setup.raw, &latencies_ms, tail);
    // The same timings at nominal machine speed (see `calibrate`).
    let nominal_ms: Vec<f64> = latencies_ms
        .iter()
        .enumerate()
        .map(|(i, ms)| ms * speed.scale_at(i))
        .collect();
    let nominal = timings(&setup.nominal, &nominal_ms, tail);
    let values = [
        nominal[0],
        nominal[1],
        nominal[2],
        nominal[3],
        (attempted - failed) as f64 / attempted as f64,
        peak_rss_mb(),
        quality_means[0],
        quality_means[1],
    ];
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&spec, value)| Metric::new(spec, value))
        .collect();
    let workload_quality: Vec<Metric> = W::QUALITY
        .iter()
        .zip(&quality_means)
        .skip(2)
        .map(|(&spec, &value)| Metric::new(spec, value))
        .collect();
    let raw_metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(raw)
        .map(|(&spec, value)| Metric::new(spec, value))
        .collect();
    let setup_list: Vec<String> = setup.raw.iter().map(|s| s.to_string()).collect();
    let detail = format!(
        "{{\"detail\": {{{}, \"tail_percentile\": {}, \"tail_samples_beyond\": {}, \
         \"setup_s_samples\": [{}], \"reference_ms_median\": {}, \"reference_samples\": {}, \
         \"raw\": {}, \"digest\": \"{:016x}\", \"digest_requests\": {}, \"quality\": {}}}}}",
        detail_head::<W>(kind, config, attempted),
        tail,
        samples_beyond(tail, attempted),
        setup_list.join(", "),
        speed.median_ms(),
        speed.samples(),
        json_metrics(&raw_metrics),
        digest.value(),
        W::QUALITY_REQUESTS.min(attempted),
        json_metrics(&workload_quality)
    );
    let gate = W::gate(&quality_means);
    if !gate {
        eprintln!("perfbench: the run's quality means fail the workload's gate");
    }
    RunReport {
        correct: failed == 0 && gate,
        attempted,
        failed,
        metrics,
        detail,
    }
}

fn run_traced<W: Workload>(kind: Kind, workload: &mut W, config: &RunConfig) -> RunReport {
    let mut layers = Layers::default();
    workload.start_trace(&mut layers);
    let mut untraced_ms = 0.0;
    let mut replica_ms = 0.0;
    let mut attempted = 0;
    let mut failed = 0;
    let mut matched = true;
    let start = Instant::now();
    while keep_going(start, attempted, W::MIN_REQUESTS, config.seconds) {
        let request = workload.prepare(attempted);
        let sent = Instant::now();
        let outputs = execute(workload.engine(), &request);
        untraced_ms += ms_since(sent);
        let outcome = workload.check(attempted, &outputs);
        failed += usize::from(!outcome.ok);
        let replayed = Instant::now();
        let replica_digest = workload.replica(attempted, &request, &mut layers);
        replica_ms += ms_since(replayed);
        matched &= replica_digest == outcome.digest;
        attempted += 1;
    }
    workload.finish_trace(&mut layers);
    let metrics: Vec<Metric> = LAYER_METRICS
        .iter()
        .chain(&TRACE_METRICS)
        .zip(layers.metrics(untraced_ms, replica_ms, matched))
        .map(|(&spec, value)| Metric::new(spec, value))
        .collect();
    let detail = format!(
        "{{\"detail\": {{{}, \"untraced_ms\": {}, \"replica_ms\": {}}}}}",
        detail_head::<W>(kind, config, attempted),
        untraced_ms,
        replica_ms
    );
    RunReport {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        detail,
    }
}
