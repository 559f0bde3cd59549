//! CI perf smoke for the `red_qaoa::engine` batch front door: cold-cache vs
//! warm-cache batch throughput.
//!
//! The measurement mirrors the "millions of users, same hot graphs"
//! scenario the engine's reduction cache exists for: a mixed batch (reduce +
//! throughput jobs) over a pool of distinct graphs is run once cold and then
//! several times warm (best time taken) through one engine. The cold run
//! anneals every reduction; the warm runs must serve every reduction from
//! the content-hash cache — which is checked three ways:
//!
//! 1. the two runs' outputs are identical (`JobOutput: PartialEq`),
//! 2. the cache counters show `misses == distinct graphs` after the cold
//!    run and no further misses after the warm run,
//! 3. the warm batch is dramatically faster (≥ 5× is gated as a CI
//!    tripwire). A cache hit builds the key and its content hash, makes one
//!    shard lookup and rebuilds the reduced graph from the key's edges; a
//!    miss anneals, which on these 20-node graphs is one SA run at the size
//!    floor, so the ratio is a few-fold rather than orders of magnitude.
//!
//! Two further sections mirror the service-tier story (PR 8):
//!
//! - **Sustained load**: a stream of 96 individual `engine.run` calls cycling
//!   through a 12-graph pool records per-job latency and the cache-hit-rate
//!   trajectory. The first pass over the pool is the cold phase; everything
//!   after is warm. Gates: warm-phase p99 ≤ cold-phase p50, final hit rate
//!   ≥ 0.7 (the stream's true rate is 84/96 = 0.875).
//! - **Persistence**: an engine with `persist_path` writes its reductions to
//!   a tmpfile; a second engine reopening that file must start warm — every
//!   request a hit, outputs bitwise-identical to the writer's.
//! - **Mode comparison**: one graph's landscape scanned in the three circuit
//!   modes, full and reduced, as one batch of six jobs. Depth modes cannot
//!   change an ideal scan and `Depth` scans the graph itself, so the batch
//!   holds two distinct scans and runs each once. Gates: every output
//!   equals a one-shot `Engine::run` of its job on a fresh engine, and the
//!   batch makes one reduction-cache lookup (its repeats make none).
//!
//! Results are written to `BENCH_engine.json` so the repository's perf
//! trajectory records batch jobs/sec with and without a hot cache. The
//! timing gates (the warm speedup, the sustained-load latency and hit
//! rate) are recorded under `gates` and fail the run only after the record
//! is written; the output and counter checks abort at once.
//!
//! Usage: `engine_smoke [output.json]` (default `BENCH_engine.json`).

use bench::bench_graph;
use experiments::cli::{write_smoke_record, Gates, Record};
use red_qaoa::engine::{Engine, Job, LandscapeJob, ReduceJob, ThroughputJob};
use red_qaoa::pipeline::CircuitReduction;
use std::collections::HashSet;
use std::time::Instant;

/// Distinct graphs cycled through by the sustained-load stream.
const SUSTAINED_POOL: usize = 12;
/// Nodes per sustained-pool graph.
const SUSTAINED_NODES: usize = 18;
/// Individual `engine.run` calls in the sustained stream.
const SUSTAINED_JOBS: usize = 96;

/// Nearest-rank percentile (q in [0, 1]) of an unsorted latency sample.
fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * q).ceil() as usize).max(1) - 1;
    sorted[rank.min(sorted.len() - 1)]
}

/// One pass of the sustained-load stream on a fresh engine. Returns
/// (cold-phase latencies µs, warm-phase latencies µs, hit-rate trajectory
/// sampled after every pool-sized window, final hit rate).
fn sustained_stream() -> (Vec<f64>, Vec<f64>, Vec<f64>, f64) {
    let engine = Engine::builder()
        .threads(1)
        .build()
        .expect("default engine config");
    let pool: Vec<graphlib::Graph> = (0..SUSTAINED_POOL)
        .map(|i| bench_graph(SUSTAINED_NODES, 5000 + i as u64))
        .collect();
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    let mut trajectory = Vec::new();
    for i in 0..SUSTAINED_JOBS {
        let graph = pool[i % SUSTAINED_POOL].clone();
        // Alternate job kinds so the stream is mixed, not homogeneous.
        let job = if i % 2 == 0 {
            Job::Reduce(ReduceJob::new(graph))
        } else {
            Job::Throughput(ThroughputJob::new(graph, 27, 1))
        };
        let start = Instant::now();
        engine.run(&job, i as u64).expect("sustained job succeeds");
        let micros = start.elapsed().as_secs_f64() * 1e6;
        if i < SUSTAINED_POOL {
            cold.push(micros);
        } else {
            warm.push(micros);
        }
        if (i + 1) % SUSTAINED_POOL == 0 {
            trajectory.push(engine.cache_stats().hit_rate());
        }
    }
    let final_rate = engine.cache_stats().hit_rate();
    (cold, warm, trajectory, final_rate)
}

/// Nodes of the mode-comparison graph.
const MODE_NODES: usize = 14;
/// Grid width of the mode-comparison scans.
const MODE_WIDTH: usize = 7;

/// The mode-comparison batch on a fresh engine. Returns (jobs, distinct
/// scans among the outputs, batch ms).
fn mode_batch() -> (usize, usize, f64) {
    let engine = || {
        Engine::builder()
            .threads(1)
            .build()
            .expect("default engine config")
    };
    let graph = bench_graph(MODE_NODES, 9000);
    let modes = [
        CircuitReduction::None,
        CircuitReduction::NodeAndDepth,
        CircuitReduction::Depth,
    ];
    let jobs: Vec<Job> = modes
        .into_iter()
        .flat_map(|mode| {
            let full = LandscapeJob::new(graph.clone(), MODE_WIDTH).with_circuit(mode);
            [Job::Landscape(full.clone()), Job::Landscape(full.reduced())]
        })
        .collect();
    let batch_engine = engine();
    let start = Instant::now();
    let batch = batch_engine.run_batch(&jobs, SMOKE_SEED);
    let batch_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut scans = HashSet::new();
    for (i, (job, output)) in jobs.iter().zip(&batch).enumerate() {
        let output = output.as_ref().expect("mode-comparison scan succeeds");
        let alone = engine()
            .run(job, SMOKE_SEED)
            .expect("one-shot scan succeeds");
        assert_eq!(
            *output, alone,
            "mode-comparison job {i}: a batch must return what the job returns alone"
        );
        let landscape = output.as_landscape().expect("landscape output");
        scans.insert(
            landscape
                .values
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
    }
    let stats = batch_engine.cache_stats();
    assert_eq!(
        stats.hits + stats.misses,
        1,
        "the mode-comparison batch looks its reduction up once: {stats:?}"
    );
    (jobs.len(), scans.len(), batch_ms)
}

/// Distinct graphs in the pool.
const GRAPHS: usize = 16;
/// Nodes per pooled graph.
const NODES: usize = 20;
/// Each graph appears once as a reduce job and once per device as a
/// throughput job, so even the *cold* batch exercises intra-batch sharing.
const DEVICE_QUBITS: [usize; 2] = [27, 65];
const SMOKE_SEED: u64 = 0xE61E_2026;

fn main() {
    let mut gates = Gates::default();

    // One worker pins the hit/miss counters the assertions below rely on:
    // with more, two jobs can race on the same key and both count a miss
    // (results would still be identical — counters are telemetry, not
    // contract). The CI container is 1-core, so this costs nothing there.
    let engine = Engine::builder()
        .threads(1)
        .build()
        .expect("default engine config");
    let graphs: Vec<graphlib::Graph> = (0..GRAPHS)
        .map(|i| bench_graph(NODES, 4000 + i as u64))
        .collect();
    let mut jobs: Vec<Job> = Vec::new();
    for graph in &graphs {
        jobs.push(Job::Reduce(ReduceJob::new(graph.clone())));
        for &qubits in &DEVICE_QUBITS {
            jobs.push(Job::Throughput(ThroughputJob::new(
                graph.clone(),
                qubits,
                1,
            )));
        }
    }

    // --- Cold batch: every reduction anneals. -------------------------------
    let start = Instant::now();
    let cold = engine.run_batch(&jobs, SMOKE_SEED);
    let cold_secs = start.elapsed().as_secs_f64();
    assert!(cold.iter().all(|r| r.is_ok()), "cold batch must succeed");
    let cold_stats = engine.cache_stats();
    assert_eq!(
        cold_stats.misses as usize, GRAPHS,
        "each distinct graph anneals exactly once in the cold batch \
         (got {} misses)",
        cold_stats.misses
    );

    // --- Warm batches: every reduction is a cache hit. ----------------------
    // A single warm batch finishes in well under a millisecond, so one
    // scheduler preemption could flake the speedup gate on a loaded runner;
    // best-of-N keeps the tripwire sharp without the noise exposure.
    const WARM_RUNS: usize = 5;
    let mut warm_secs = f64::INFINITY;
    let mut warm = Vec::new();
    for _ in 0..WARM_RUNS {
        let start = Instant::now();
        warm = engine.run_batch(&jobs, SMOKE_SEED);
        warm_secs = warm_secs.min(start.elapsed().as_secs_f64());
    }
    let warm_stats = engine.cache_stats();
    assert_eq!(
        warm_stats.misses, cold_stats.misses,
        "the warm batch must not re-anneal anything"
    );
    assert_eq!(
        cold, warm,
        "cache hits must return the identical outputs the cold batch computed"
    );

    let jobs_total = jobs.len();
    let cold_jps = jobs_total as f64 / cold_secs;
    let warm_jps = jobs_total as f64 / warm_secs;
    let speedup = cold_secs / warm_secs;
    gates.check(
        "warm_speedup_ge_5x",
        speedup >= 5.0,
        format!(
            "warm-cache batch speedup regressed catastrophically: {speedup:.1}x \
             (a cache hit must not re-anneal)"
        ),
    );

    // --- Sustained load: latency percentiles + hit-rate trajectory. ---------
    // The per-job latencies are single-shot (re-running a job would flip it
    // from miss to hit), so a scheduler blip on a loaded runner can inflate
    // one percentile; retry the whole stream a couple of times before
    // declaring a regression.
    const SUSTAINED_ATTEMPTS: usize = 3;
    let mut sustained = sustained_stream();
    for _ in 1..SUSTAINED_ATTEMPTS {
        let (ref cold_lat, ref warm_lat, _, _) = sustained;
        if percentile(warm_lat, 0.99) <= percentile(cold_lat, 0.50) {
            break;
        }
        sustained = sustained_stream();
    }
    let (cold_lat, warm_lat, trajectory, final_hit_rate) = sustained;
    let (cold_p50, cold_p99) = (percentile(&cold_lat, 0.50), percentile(&cold_lat, 0.99));
    let (warm_p50, warm_p99) = (percentile(&warm_lat, 0.50), percentile(&warm_lat, 0.99));
    gates.check(
        "sustained_warm_p99_le_cold_p50",
        warm_p99 <= cold_p50,
        format!(
            "sustained-load warm p99 ({warm_p99:.1}µs) must beat cold p50 \
             ({cold_p50:.1}µs): cache hits are lookups, misses anneal"
        ),
    );
    gates.check(
        "sustained_final_hit_rate_ge_0_7",
        final_hit_rate >= 0.7,
        format!("sustained-load hit rate regressed: {final_hit_rate:.3} < 0.7"),
    );

    // --- Persistence: a second engine reopening the store starts warm. ------
    let store =
        std::env::temp_dir().join(format!("engine_smoke_persist_{}.rqps", std::process::id()));
    let _ = std::fs::remove_file(&store);
    let persist_graphs: Vec<graphlib::Graph> = (0..4)
        .map(|i| bench_graph(NODES, 7000 + i as u64))
        .collect();
    let writer = Engine::builder()
        .threads(1)
        .persist_path(&store)
        .build()
        .expect("persisting engine");
    let written: Vec<_> = persist_graphs
        .iter()
        .map(|g| {
            writer
                .run(&Job::Reduce(ReduceJob::new(g.clone())), 1)
                .expect("persisted reduce succeeds")
        })
        .collect();
    drop(writer);
    let reader = Engine::builder()
        .threads(1)
        .persist_path(&store)
        .build()
        .expect("reopening engine");
    let persist_reopen_entries = reader.cache_stats().entries;
    let reread: Vec<_> = persist_graphs
        .iter()
        .map(|g| {
            reader
                .run(&Job::Reduce(ReduceJob::new(g.clone())), 2)
                .expect("reopened reduce succeeds")
        })
        .collect();
    let persist_reopen_hits = reader.cache_stats().hits;
    let _ = std::fs::remove_file(&store);
    assert_eq!(
        persist_reopen_entries as usize,
        persist_graphs.len(),
        "the reopened store must warm the cache with every written reduction"
    );
    assert_eq!(
        persist_reopen_hits as usize,
        persist_graphs.len(),
        "every reopened request must be served from the warmed cache"
    );
    assert_eq!(
        written, reread,
        "reductions served from disk must be bitwise-identical"
    );

    // --- Mode comparison: repeated scans in one batch run once. -------------
    let (mode_batch_jobs, mode_batch_distinct_scans, mode_batch_ms) = mode_batch();

    let record = Record::new()
        .int("pool_graphs", GRAPHS)
        .int("pool_graph_nodes", NODES)
        .int("jobs_per_batch", jobs_total)
        .fixed("cold_batch_ms", cold_secs * 1e3, 3)
        .fixed("warm_batch_ms", warm_secs * 1e3, 3)
        .fixed("cold_jobs_per_sec", cold_jps, 2)
        .fixed("warm_jobs_per_sec", warm_jps, 2)
        .fixed("warm_speedup", speedup, 2)
        .int("cache_hits", warm_stats.hits)
        .int("cache_misses", warm_stats.misses)
        .int("cache_entries", warm_stats.entries)
        .bool("outputs_identical", cold == warm)
        .int("sustained_jobs", SUSTAINED_JOBS)
        .int("sustained_pool_graphs", SUSTAINED_POOL)
        .fixed("sustained_cold_p50_us", cold_p50, 1)
        .fixed("sustained_cold_p99_us", cold_p99, 1)
        .fixed("sustained_warm_p50_us", warm_p50, 1)
        .fixed("sustained_warm_p99_us", warm_p99, 1)
        .fixed_list("sustained_hit_rate_trajectory", &trajectory, 4)
        .fixed("sustained_final_hit_rate", final_hit_rate, 4)
        .int("persist_reopen_entries", persist_reopen_entries)
        .int("persist_reopen_hits", persist_reopen_hits)
        .bool("persist_outputs_identical", written == reread)
        .int("mode_batch_jobs", mode_batch_jobs)
        .int("mode_batch_distinct_scans", mode_batch_distinct_scans)
        .fixed("mode_batch_ms", mode_batch_ms, 3);
    write_smoke_record("BENCH_engine.json", "engine_smoke", record, gates);
}
