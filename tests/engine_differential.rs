//! Differential test of the engine's promise that its state never changes
//! an output: cache capacity, shard count, worker count and a persistent
//! store decide only where and whether work runs, never its bits.
//!
//! Each case draws a small graph pool and a few mixed batches (reductions,
//! full and `.reduced()` landscape scans, throughput estimates, small
//! optimize sessions and noisy pipelines under `fake_toronto`), runs them in
//! order on a `threads(1)` default engine, and then on engines whose caches
//! are disabled, hold one or two entries, or sit on a fresh and then a
//! reopened store. Every output must render identically (`Debug` prints
//! each `f64` in its shortest round-trip form, so equal text is equal bits),
//! and each batch must count one hit or miss per reduction it served.

use graphlib::generators::connected_gnp;
use graphlib::Graph;
use mathkit::rng::{derive_seed, seeded};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use qaoa::optimize::OptimizeOptions;
use rand::Rng;
use red_qaoa::engine::{
    CacheStats, Engine, EngineBuilder, Job, LandscapeJob, OptimizeJob, PipelineJob, ReduceJob,
    ThroughputJob,
};
use red_qaoa::pipeline::{CircuitReduction, PipelineOptions};
use std::collections::HashSet;
use std::fs;
use std::path::PathBuf;

/// Graphs in a case's pool; batches draw from it, so keys repeat within and
/// across batches.
const POOL: usize = 4;
/// Batches per case, run in order on one engine per setup.
const BATCHES: usize = 3;
/// Jobs per batch.
const JOBS: usize = 12;

fn store_path(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join(format!("{name}.rqps"));
    let _ = fs::remove_file(&path);
    path
}

fn graph_pool(seed: u64) -> Vec<Graph> {
    (0..POOL)
        .map(|i| {
            let mut rng = seeded(derive_seed(seed, i as u64));
            let nodes = rng.gen_range(8..=10);
            connected_gnp(nodes, 0.4, &mut rng).unwrap()
        })
        .collect()
}

fn noisy_options() -> PipelineOptions {
    PipelineOptions {
        optimize: OptimizeOptions {
            restarts: 1,
            max_iters: 8,
        },
        circuit: CircuitReduction::NodeAndDepth,
        ..PipelineOptions::default()
    }
}

/// One batch of [`JOBS`] jobs over the pool, its kinds and graphs drawn
/// from `seed`.
fn batch(seed: u64, pool: &[Graph]) -> Vec<Job> {
    let mut rng = seeded(seed);
    (0..JOBS)
        .map(|_| {
            let graph = pool[rng.gen_range(0..pool.len())].clone();
            match rng.gen_range(0..6) {
                0 => ReduceJob::new(graph).into(),
                1 => LandscapeJob::new(graph, rng.gen_range(3..=4)).into(),
                2 => LandscapeJob::new(graph, rng.gen_range(3..=4))
                    .reduced()
                    .into(),
                3 => ThroughputJob::new(graph, 27, 1).into(),
                4 => OptimizeJob::new(graph)
                    .with_restarts(1)
                    .with_max_iters(10)
                    .into(),
                _ => PipelineJob::new(graph)
                    .with_options(noisy_options())
                    .noisy(2)
                    .into(),
            }
        })
        .collect()
}

/// The reductions a batch of successful jobs is served: one per job that
/// reduces its graph, except a landscape scan that repeats an earlier scan
/// of its batch, which copies that scan and makes no lookup.
fn reductions_served(jobs: &[Job]) -> u64 {
    let mut scans = HashSet::new();
    jobs.iter()
        .filter(|job| match job {
            Job::Landscape(job) => {
                scans.insert((job.graph.clone(), job.width, job.reduce_first)) && job.reduce_first
            }
            _ => true,
        })
        .count() as u64
}

fn builder() -> EngineBuilder {
    Engine::builder().noise(qsim::devices::fake_toronto().noise)
}

/// Runs the batches in order on `engine`, rendering every output, and
/// checks that each batch counts one hit or miss per reduction served.
fn run(engine: &Engine, batches: &[Vec<Job>], seed: u64) -> Result<Vec<String>, TestCaseError> {
    let mut rendered = Vec::new();
    for (b, jobs) in batches.iter().enumerate() {
        let before = engine.cache_stats();
        for result in engine.run_batch(jobs, derive_seed(seed, b as u64)) {
            prop_assert!(result.is_ok(), "{:?}", result);
            rendered.push(format!("{result:?}"));
        }
        let after = engine.cache_stats();
        let served = |stats: CacheStats| stats.hits + stats.misses;
        prop_assert_eq!(served(after) - served(before), reductions_served(jobs));
    }
    Ok(rendered)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn engine_state_never_changes_an_output(seed in 0u64..1_000_000) {
        let pool = graph_pool(seed);
        let batches: Vec<_> = (0..BATCHES)
            .map(|b| batch(derive_seed(seed, 100 + b as u64), &pool))
            .collect();
        let reference = run(&builder().threads(1).build().unwrap(), &batches, seed)?;

        let setups = [
            ("capacity 0", builder().cache_capacity(0)),
            ("capacity 1", builder().cache_capacity(1)),
            (
                "capacity 2, 1 shard, 4 threads",
                builder().cache_capacity(2).cache_shards(1).threads(4),
            ),
            ("capacity 1, 4 threads", builder().cache_capacity(1).threads(4)),
        ];
        for (name, setup) in setups {
            let outputs = run(&setup.build().unwrap(), &batches, seed)?;
            prop_assert!(outputs == reference, "{} diverged", name);
        }

        let path = store_path(&format!("differential_{seed}"));
        let on_store = || builder().cache_capacity(1).persist_path(&path).build().unwrap();
        let fresh = run(&on_store(), &batches, seed)?;
        prop_assert!(fresh == reference, "fresh store diverged");
        let reopened = on_store();
        prop_assert!(reopened.cache_stats().store_replayed > 0);
        let outputs = run(&reopened, &batches, seed)?;
        prop_assert!(outputs == reference, "reopened store diverged");
        let _ = fs::remove_file(&path);
    }
}
