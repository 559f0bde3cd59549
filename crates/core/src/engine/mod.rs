//! The batched, session-oriented front door of Red-QAOA.
//!
//! Everything below this module — [`crate::reduction`], [`crate::pipeline`],
//! [`crate::throughput`] — is a library of **free functions**: the caller
//! assembles options, seeds an RNG, and owns the consequences. That is the
//! right shape for experiments, and exactly the wrong shape for the paper's
//! end game (Figure 25's multi-programming argument): a service that fields
//! many reduction/optimization requests, often over the *same* hot graphs,
//! wants its configuration validated once, its thread policy decided once,
//! and its reductions cached — in memory, across workers, and across
//! process restarts.
//!
//! [`Engine`] is that front door, organized as a small module tree that
//! mirrors a request's path through the service:
//!
//! * [`builder`](self) — [`EngineBuilder`] validates the whole
//!   configuration (thread count, warm-start policy, SA knobs, optional
//!   noise model, cache geometry, persistence) at
//!   [`EngineBuilder::build`], naming the offending field in the error, so
//!   no validation-driven failure is left to job time.
//! * [`jobs`](self) — typed requests ([`ReduceJob`], [`OptimizeJob`] for
//!   the paper's end-to-end loop, the noisy [`PipelineJob`],
//!   [`LandscapeJob`], [`ThroughputJob`]) submitted one-shot via
//!   [`Engine::run`] or batched via [`Engine::run_batch`], each returning a
//!   typed [`JobOutput`].
//! * [`scheduler`](self) — batches fan out through a **two-level
//!   scheduler**: per-job costs are estimated up front, the few clear
//!   outliers get an exclusive lane where their *inner* scans parallelize,
//!   and the rest run coarse job-level parallelism
//!   (`mathkit::parallel::parallel_map_two_level`). Job `i` always derives
//!   the substream `derive_seed(batch_seed, i)`, so batch results are
//!   bitwise-identical for every `RED_QAOA_THREADS` value regardless of
//!   lane placement (`tests/parallel_determinism.rs`,
//!   `docs/determinism.md`).
//! * [`cache`](self) — reductions are content-addressed in an N-way
//!   **sharded** cache with size-aware cost-based eviction: the same
//!   (graph, options) pair maps to the same cache key *and* the same
//!   derived reduction substream, so a cache hit returns the
//!   bitwise-identical [`ReducedGraph`] the miss computed, without
//!   re-annealing. Hit/miss counters are exposed through
//!   [`Engine::cache_stats`] for the benches (`BENCH_engine.json`).
//! * [`persist`](self) — with [`EngineBuilder::persist_path`], every miss
//!   is written through to a validating file-backed store and the store's
//!   entries warm the cache at build time, so a restarted service (or a
//!   co-located worker fleet) starts hot.
//!
//! The free functions remain available as the low-level layer; see
//! `docs/architecture.md` for the layering and migration notes.
//!
//! # Example
//!
//! ```
//! use graphlib::generators::connected_gnp;
//! use red_qaoa::engine::{Engine, Job, ReduceJob};
//!
//! // threads(1) only so the hit/miss counters below are exact; results are
//! // identical for any worker count (counters are telemetry, not contract).
//! let engine = Engine::builder().threads(1).build().unwrap();
//! let graph = connected_gnp(12, 0.4, &mut mathkit::rng::seeded(7)).unwrap();
//! let jobs = vec![
//!     Job::Reduce(ReduceJob::new(graph.clone())),
//!     Job::Reduce(ReduceJob::new(graph)), // same content: served from cache
//! ];
//! let results = engine.run_batch(&jobs, 42);
//! assert_eq!(results[0], results[1]); // bitwise-identical, no re-annealing
//! assert_eq!(engine.cache_stats().hits, 1);
//! ```

mod builder;
mod cache;
mod jobs;
mod persist;
mod scheduler;

pub use builder::EngineBuilder;
pub use cache::CacheStats;
pub use jobs::{
    Job, JobOutput, LandscapeJob, OptimizeJob, OptimizeReport, PipelineJob, ReduceJob,
    ThroughputJob,
};

use crate::pipeline::PipelineOptions;
use crate::reduction::{reduce, ReducedGraph, ReductionOptions};
use crate::RedQaoaError;
use cache::{anneal_cost, CacheKey, ShardedReductionCache};
use graphlib::Graph;
use jobs::{execute, scan_key};
use mathkit::parallel::{current_threads, parallel_map_two_level, with_threads};
use mathkit::rng::{derive_seed, seeded};
use persist::PersistentStore;
use qsim::noise::NoiseModel;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

/// Default seed of the engine's content-addressed reduction substreams.
///
/// Reductions served by an engine are a pure function of
/// `(graph, options, reduction_seed)` — **not** of the batch seed or the job
/// index — so a cache hit is guaranteed to return the bitwise-identical
/// result a miss would have computed, regardless of which job computed it
/// first or on which worker thread. Override per engine with
/// [`EngineBuilder::reduction_seed`].
pub const DEFAULT_REDUCTION_SEED: u64 = 0xE61E_5EED;

/// Default capacity (entries) of the engine's reduction cache.
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// Default shard count of the engine's reduction cache. Each shard owns its
/// own lock and its own slice of the capacity, so concurrent batch workers
/// contend per-shard instead of on one global mutex. Override with
/// [`EngineBuilder::cache_shards`]; the count is clamped so every shard
/// owns at least one capacity slot.
pub const DEFAULT_CACHE_SHARDS: usize = 8;

/// A long-lived Red-QAOA service instance: validated configuration, owned
/// thread policy, a sharded content-hash reduction cache shared by every
/// job it runs, and (optionally) a persistent store that survives the
/// process. See the [module docs](crate::engine) for the full tour and
/// `docs/architecture.md` for how it layers over the free functions.
#[derive(Debug)]
pub struct Engine {
    threads: Option<usize>,
    reduction: ReductionOptions,
    pipeline: PipelineOptions,
    noise: Option<NoiseModel>,
    reduction_seed: u64,
    cache: ShardedReductionCache,
    store: Option<PersistentStore>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Engine {
    /// Starts a validating [`EngineBuilder`] with default options.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// The engine's default reduction options (jobs without per-job options
    /// inherit these).
    pub fn reduction_options(&self) -> &ReductionOptions {
        &self.reduction
    }

    /// The engine's default pipeline options.
    pub fn pipeline_options(&self) -> &PipelineOptions {
        &self.pipeline
    }

    /// Current hit/miss/occupancy/footprint counters of the reduction cache
    /// (see [`CacheStats::hit_rate`] for the derived rate).
    pub fn cache_stats(&self) -> CacheStats {
        let (entries, bytes) = self.cache.totals();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
            capacity: self.cache.capacity(),
            bytes,
        }
    }

    /// Empties the in-memory reduction cache: [`CacheStats::entries`] and
    /// [`CacheStats::bytes`] drop to zero. The cumulative
    /// [`CacheStats::hits`] / [`CacheStats::misses`] counters are
    /// **deliberately kept** (they are lifetime telemetry, so a service's
    /// hit-rate history survives a flush), and a persistent store — which
    /// exists precisely to outlive any one cache — is not touched.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Runs one job. `Engine::run(job, seed)` is exactly
    /// `Engine::run_batch(&[job], seed)` for a batch of one (the job runs on
    /// the substream `derive_seed(seed, 0)`), so promoting a one-shot call
    /// to a batch never changes its result.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`RedQaoaError`] (no [`RedQaoaError::Job`]
    /// wrapper — there is no batch index to report).
    pub fn run(&self, job: &Job, seed: u64) -> Result<JobOutput, RedQaoaError> {
        self.with_thread_policy(|| execute(self, job, derive_seed(seed, 0)))
    }

    /// Runs a batch of jobs, fanning out across the engine's worker threads
    /// through the two-level scheduler: estimated-cost outliers get an
    /// exclusive lane where their inner scans parallelize; the rest share
    /// coarse job-level parallelism (see the [module docs](crate::engine)).
    ///
    /// Job `i` runs on the RNG substream `derive_seed(seed, i)` and failures
    /// are reported per job as [`RedQaoaError::Job`] (carrying the index)
    /// rather than aborting the batch. Reductions are shared through the
    /// cache: repeated (graph, options) pairs anneal once. Identical
    /// landscape scans run once: a [`LandscapeJob`] with the same graph
    /// content, width, and choice of graph or cached reduction as an
    /// earlier job of the batch (depth modes do not change a scan, and a
    /// [`CircuitReduction::Depth`](crate::pipeline::CircuitReduction::Depth)
    /// `.reduced()` job scans the graph itself) costs nothing in the
    /// scheduler, makes no cache lookup, and returns a clone of that job's
    /// output, or its error wrapped with the repeat's own index.
    ///
    /// **Determinism:** results are bitwise-identical for every
    /// `RED_QAOA_THREADS` value. Each job's work is a pure function of its
    /// substream and the engine configuration; cached reductions are a pure
    /// function of content (see [`DEFAULT_REDUCTION_SEED`]); and the
    /// scheduler only decides *where* a job runs, never what it computes —
    /// so neither lane placement nor the race for who computes a shared
    /// reduction first can change any output. A copied scan is the bits
    /// the repeat would have computed: a scan reads no substream. The full
    /// contract lives in `docs/determinism.md`.
    pub fn run_batch(&self, jobs: &[Job], seed: u64) -> Vec<Result<JobOutput, RedQaoaError>> {
        self.with_thread_policy(|| {
            let repeats = repeated_scans(self, jobs);
            let costs: Vec<f64> = jobs
                .iter()
                .zip(&repeats)
                .map(|(job, repeat)| match repeat {
                    Some(_) => 0.0,
                    None => scheduler::estimate_cost(self, job),
                })
                .collect();
            let exclusive = scheduler::exclusive_indices(&costs, current_threads());
            let ran = parallel_map_two_level(
                jobs.len(),
                &exclusive,
                || (),
                |_, i| {
                    repeats[i]
                        .is_none()
                        .then(|| execute(self, &jobs[i], derive_seed(seed, i as u64)))
                },
            );
            let mut results: Vec<Result<JobOutput, RedQaoaError>> = Vec::with_capacity(jobs.len());
            for (ran, repeat) in ran.into_iter().zip(repeats) {
                // A repeat's first job precedes it, so its result is in.
                let result = match repeat {
                    Some(first) => results[first].clone(),
                    None => ran.expect("a job that repeats no scan runs"),
                };
                results.push(result);
            }
            results
                .into_iter()
                .enumerate()
                .map(|(i, result)| result.map_err(|e| RedQaoaError::for_job(i, e)))
                .collect()
        })
    }

    /// Reduces a whole slice through the engine, delegating to the
    /// low-level [`crate::reduction::reduce_pool`] with **identical RNG
    /// substreams** (graph `i` reduces on `derive_seed(seed, i)`).
    ///
    /// This is the bitwise-compatibility path: experiments pinned to the
    /// PR 4 output streams run under the engine's thread policy without any
    /// numeric change. It deliberately bypasses the content-hash cache —
    /// the caller chose explicit per-index seeds, which a cache keyed on
    /// content alone cannot honour.
    pub fn reduce_pool(
        &self,
        graphs: &[Graph],
        seed: u64,
    ) -> Vec<Result<ReducedGraph, RedQaoaError>> {
        self.with_thread_policy(|| crate::reduction::reduce_pool(graphs, &self.reduction, seed))
    }

    fn with_thread_policy<T>(&self, f: impl FnOnce() -> T) -> T {
        match self.threads {
            Some(threads) => with_threads(threads, f),
            None => f(),
        }
    }

    /// The noise model noisy pipelines simulate under, if configured.
    fn noise_model(&self) -> Option<&NoiseModel> {
        self.noise.as_ref()
    }

    /// Reduces `graph` through the sharded content-hash cache: a hit
    /// returns the cached [`ReducedGraph`] without re-annealing; a miss
    /// derives the content-addressed substream, anneals, writes through to
    /// the persistent store (best-effort, if one is configured), and
    /// populates the cache.
    fn reduce_cached(
        &self,
        graph: &Graph,
        options: &ReductionOptions,
    ) -> Result<ReducedGraph, RedQaoaError> {
        options.validate()?;
        // Degenerate graphs (< 2 nodes / edgeless) fall through to `reduce`,
        // which reports them as `GraphNotReducible`; the unsatisfiable
        // min_size check only applies to graphs that could otherwise reduce.
        if graph.node_count() >= 2 && options.min_size > graph.node_count() {
            return Err(RedQaoaError::invalid_parameter(
                "min_size",
                options.min_size,
                "exceeds the job graph's node count (unsatisfiable)",
            ));
        }
        let key = CacheKey::new(graph, options);
        let hash = key.content_hash();
        // The shard lock is held only for the lookup (an Arc refcount
        // bump); the reduction handed to the caller is rebuilt after it is
        // released, so concurrent hits never serialize on the rebuild.
        if let Some(hit) = self.cache.get(&key, hash) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit.reduced(&key));
        }
        let mut rng = seeded(derive_seed(self.reduction_seed, hash));
        let reduced = reduce(graph, options, &mut rng)?;
        // Failed reductions never count: hits + misses = reductions served.
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(store) = &self.store {
            // Write-through is best-effort: a full disk or yanked volume
            // costs persistence, never the job.
            let _ = store.append(&key, &reduced);
        }
        let cost = anneal_cost(key.nodes, key.edges.len());
        self.cache.insert(key, hash, &reduced, cost);
        Ok(reduced)
    }
}

/// For each job of a batch, the index of the first earlier job that runs
/// the same landscape scan ([`jobs::scan_key`]), if there is one. Keys are
/// grouped by hash, so a batch of `k` scans costs `k` graph hashes, not
/// `k²` comparisons.
fn repeated_scans(engine: &Engine, jobs: &[Job]) -> Vec<Option<usize>> {
    let mut first_of = HashMap::new();
    jobs.iter()
        .enumerate()
        .map(|(i, job)| {
            let key = scan_key(engine, job)?;
            match first_of.entry(key) {
                Entry::Occupied(first) => Some(*first.get()),
                Entry::Vacant(slot) => {
                    slot.insert(i);
                    None
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlib::generators::{connected_gnp, cycle};
    use mathkit::rng::seeded;

    fn test_graph(seed: u64) -> Graph {
        connected_gnp(10, 0.4, &mut seeded(seed)).unwrap()
    }

    #[test]
    fn builder_rejects_bad_fields_by_name() {
        assert_eq!(
            Engine::builder().threads(0).build().unwrap_err().field(),
            Some("threads")
        );
        assert_eq!(
            Engine::builder()
                .cache_shards(0)
                .build()
                .unwrap_err()
                .field(),
            Some("cache_shards")
        );
        let bad_reduction = ReductionOptions {
            and_ratio_threshold: 2.0,
            ..Default::default()
        };
        assert_eq!(
            Engine::builder()
                .reduction(bad_reduction)
                .build()
                .unwrap_err()
                .field(),
            Some("and_ratio_threshold")
        );
        let bad_pipeline = PipelineOptions {
            layers: 0,
            ..Default::default()
        };
        assert_eq!(
            Engine::builder()
                .pipeline(bad_pipeline)
                .build()
                .unwrap_err()
                .field(),
            Some("layers")
        );
    }

    #[test]
    fn repeated_reduce_jobs_hit_the_cache_and_match_bitwise() {
        let engine = Engine::builder().build().unwrap();
        let graph = test_graph(1);
        let first = engine
            .run(&Job::Reduce(ReduceJob::new(graph.clone())), 10)
            .unwrap();
        // Different batch seed: the reduction is content-addressed, so the
        // result must not change — and must come from the cache.
        let second = engine
            .run(&Job::Reduce(ReduceJob::new(graph)), 999)
            .unwrap();
        assert_eq!(first, second);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.hit_rate(), 0.5);
    }

    #[test]
    fn distinct_options_are_distinct_cache_entries() {
        let engine = Engine::builder().build().unwrap();
        let graph = test_graph(2);
        let strict = ReductionOptions::builder()
            .and_ratio_threshold(0.9)
            .build()
            .unwrap();
        let job_default = Job::Reduce(ReduceJob::new(graph.clone()));
        let job_strict = Job::Reduce(ReduceJob::new(graph).with_options(strict));
        engine.run(&job_default, 1).unwrap();
        engine.run(&job_strict, 1).unwrap();
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 2));
    }

    #[test]
    fn cache_capacity_zero_disables_caching() {
        let engine = Engine::builder().cache_capacity(0).build().unwrap();
        let graph = test_graph(3);
        let a = engine
            .run(&Job::Reduce(ReduceJob::new(graph.clone())), 1)
            .unwrap();
        let b = engine.run(&Job::Reduce(ReduceJob::new(graph)), 1).unwrap();
        // Still identical (content-addressed substreams), just recomputed.
        assert_eq!(a, b);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 0));
    }

    #[test]
    fn eviction_bounds_the_cache() {
        // One shard makes the bound exact: entries == capacity after
        // overflow (with more shards only the total ≤ capacity is
        // guaranteed, since keys hash to shards unevenly).
        let engine = Engine::builder()
            .cache_capacity(2)
            .cache_shards(1)
            .build()
            .unwrap();
        for seed in 0..4 {
            engine
                .run(&Job::Reduce(ReduceJob::new(test_graph(seed))), 1)
                .unwrap();
        }
        let stats = engine.cache_stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.misses, 4);
    }

    #[test]
    fn sharded_cache_still_bounds_total_entries() {
        let engine = Engine::builder()
            .cache_capacity(3)
            .cache_shards(3)
            .build()
            .unwrap();
        for seed in 0..6 {
            engine
                .run(&Job::Reduce(ReduceJob::new(test_graph(seed))), 1)
                .unwrap();
            assert!(engine.cache_stats().entries <= 3);
        }
        assert_eq!(engine.cache_stats().misses, 6);
    }

    #[test]
    fn mixed_batch_produces_typed_outputs_and_indexed_errors() {
        // One worker pins the hit/miss split: with more, two jobs can race
        // to compute the same key and both count a miss (results would still
        // be identical — the counters are telemetry, not contract).
        let engine = Engine::builder().threads(1).build().unwrap();
        let graph = test_graph(4);
        let jobs = vec![
            Job::Reduce(ReduceJob::new(graph.clone())),
            Job::Throughput(ThroughputJob::new(graph.clone(), 27, 1)),
            Job::Landscape(LandscapeJob::new(graph.clone(), 3)),
            Job::Reduce(ReduceJob::new(Graph::new(0))), // must fail with its index
            Job::Landscape(LandscapeJob::new(graph, 3).reduced()),
        ];
        let results = engine.run_batch(&jobs, 7);
        assert!(results[0].as_ref().unwrap().as_reduced().is_some());
        let throughput = results[1].as_ref().unwrap().as_throughput().unwrap();
        assert!(throughput >= 1.0);
        assert!(results[2].as_ref().unwrap().as_landscape().is_some());
        match results[3].as_ref().unwrap_err() {
            RedQaoaError::Job { index, source } => {
                assert_eq!(*index, 3);
                assert!(matches!(**source, RedQaoaError::GraphNotReducible(_)));
            }
            other => panic!("expected a Job error, got {other}"),
        }
        assert!(results[4].as_ref().unwrap().as_landscape().is_some());
        // Reduce, throughput, and the reduced landscape share one annealing.
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
    }

    #[test]
    fn oversized_jobs_change_lanes_but_never_outputs() {
        // A batch whose landscape dwarfs its siblings: under 4 threads the
        // scheduler gives it the exclusive (inner-parallel) lane; under 1
        // thread everything is serial. Outputs must be bitwise-identical.
        let build = |threads| Engine::builder().threads(threads).build().unwrap();
        let graph = test_graph(11);
        let jobs = vec![
            Job::Reduce(ReduceJob::new(graph.clone())),
            Job::Landscape(LandscapeJob::new(graph.clone(), 16)),
            Job::Throughput(ThroughputJob::new(graph, 27, 1)),
        ];
        let serial: Vec<_> = build(1).run_batch(&jobs, 5);
        let split: Vec<_> = build(4).run_batch(&jobs, 5);
        assert_eq!(serial, split);
    }

    #[test]
    fn unsatisfiable_min_size_is_rejected_with_context() {
        let engine = Engine::builder().build().unwrap();
        let options = ReductionOptions {
            min_size: 64,
            ..Default::default()
        };
        let job = Job::Reduce(ReduceJob::new(cycle(8).unwrap()).with_options(options));
        let err = engine.run(&job, 1).unwrap_err();
        assert_eq!(err.field(), Some("min_size"));
        assert!(err.to_string().contains("64"), "{err}");
    }

    #[test]
    fn noisy_pipeline_requires_a_noise_model() {
        let engine = Engine::builder().build().unwrap();
        let job = Job::Pipeline(PipelineJob::new(test_graph(5)).noisy(4));
        let err = engine.run(&job, 1).unwrap_err();
        assert_eq!(err.field(), Some("noisy_trajectories"));
        // The misconfiguration must fail before the reduction is paid for.
        assert_eq!(engine.cache_stats().misses, 0);
    }

    #[test]
    fn run_equals_batch_of_one() {
        let engine = Engine::builder().build().unwrap();
        let job = Job::Reduce(ReduceJob::new(test_graph(6)));
        let solo = engine.run(&job, 77).unwrap();
        let batch = engine.run_batch(std::slice::from_ref(&job), 77);
        assert_eq!(Some(&solo), batch[0].as_ref().ok());
    }

    #[test]
    fn optimize_job_reports_a_full_session() {
        let engine = Engine::builder().threads(1).build().unwrap();
        let graph = test_graph(8);
        let job = Job::Optimize(OptimizeJob::new(graph).with_restarts(3).with_max_iters(60));
        let report = engine.run(&job, 3).unwrap();
        let report = report.as_optimize().unwrap();
        assert_eq!(report.transfer.surrogate.restart_values.len(), 3);
        assert_eq!(report.transfer.native.restart_values.len(), 3);
        assert!(report.reduced_evaluations > 0);
        assert!(report.baseline_evaluations > 0);
        // 10 nodes: ground truth is brute-forceable and ratios well-defined.
        assert!(report.ground_truth.is_some());
        let ratio = report.approximation_ratio().unwrap();
        let baseline_ratio = report.baseline_approximation_ratio().unwrap();
        assert!(ratio > 0.0 && ratio <= 1.0, "{ratio}");
        assert!(baseline_ratio > 0.0 && baseline_ratio <= 1.0);
        assert!(report.relative_best() <= 1.0 + 1e-9);
        // The reduced session runs on a strictly smaller statevector, so the
        // full-graph-equivalent cost must come in under the baseline's.
        if report.reduction.graph().node_count() < 10 {
            assert!(report.cost_ratio < 1.0, "{report:?}");
        }
        assert!(report.cost_ratio > 0.0);
    }

    #[test]
    fn refine_evaluations_count_in_the_cost_ratio() {
        let engine = Engine::builder().threads(1).build().unwrap();
        let graph = connected_gnp(9, 0.45, &mut seeded(2)).unwrap();
        let job = OptimizeJob::new(graph).with_restarts(2).with_max_iters(50);
        let run = |job: OptimizeJob| engine.run(&Job::Optimize(job), 2).unwrap();
        let (plain, refined) = (run(job.clone()), run(job.with_refine_iters(25)));
        let (plain, refined) = (plain.as_optimize().unwrap(), refined.as_optimize().unwrap());
        // The default runs no refine step; the refine step runs after both
        // sessions and leaves them as they were.
        assert!(plain.transfer.refined.is_none());
        assert_eq!(plain.transfer.native, refined.transfer.native);
        assert_eq!(plain.transfer.surrogate, refined.transfer.surrogate);
        // Its evaluations run on the full graph, so they count at full price.
        let refine = refined.transfer.refined.as_ref().expect("refine step ran");
        let extra = refine.evaluations as f64 / plain.baseline_evaluations as f64;
        assert!((refined.cost_ratio - plain.cost_ratio - extra).abs() < 1e-12);
    }

    #[test]
    fn optimize_job_defaults_follow_the_paper_restart_schedule() {
        let engine = Engine::builder().threads(1).build().unwrap();
        // Tiny graph keeps 20 restarts affordable in a unit test.
        let graph = connected_gnp(8, 0.5, &mut seeded(12)).unwrap();
        let job = Job::Optimize(OptimizeJob::new(graph).with_max_iters(20));
        let report = engine.run(&job, 1).unwrap();
        let report = report.as_optimize().unwrap();
        assert_eq!(report.transfer.native.restart_values.len(), 20);
    }

    #[test]
    fn optimize_job_validation_rejects_bad_fields_before_work() {
        let engine = Engine::builder().build().unwrap();
        let graph = test_graph(9);
        let bad = Job::Optimize(OptimizeJob::new(graph).with_restarts(0));
        let err = engine.run(&bad, 1).unwrap_err();
        assert_eq!(err.field(), Some("restarts"));
        // Rejected before any annealing.
        assert_eq!(engine.cache_stats().misses, 0);
    }

    #[test]
    fn cache_bytes_track_inserts_and_clear_keeps_counters() {
        let engine = Engine::builder().build().unwrap();
        assert_eq!(engine.cache_stats().bytes, 0);
        let mut expected = 0;
        for seed in 0..3 {
            let out = engine
                .run(&Job::Reduce(ReduceJob::new(test_graph(seed))), 1)
                .unwrap();
            expected += out.as_reduced().unwrap().approx_heap_bytes();
        }
        let stats = engine.cache_stats();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.bytes, expected, "{stats:?}");
        assert!(stats.bytes > 0);
        engine.clear_cache();
        let cleared = engine.cache_stats();
        // clear_cache resets the *contents* (entries, bytes) but keeps the
        // cumulative hit/miss telemetry — pinned here because the rustdoc
        // promises it.
        assert_eq!((cleared.entries, cleared.bytes), (0, 0));
        assert_eq!(cleared.misses, 3);
        assert_eq!(cleared.hit_rate(), 0.0);
    }

    #[test]
    fn approx_heap_bytes_grows_with_the_graph() {
        let engine = Engine::builder().build().unwrap();
        let small = engine
            .run(&Job::Reduce(ReduceJob::new(test_graph(1))), 1)
            .unwrap();
        let big_graph = connected_gnp(16, 0.5, &mut seeded(2)).unwrap();
        let big = engine
            .run(&Job::Reduce(ReduceJob::new(big_graph)), 1)
            .unwrap();
        let small_bytes = small.as_reduced().unwrap().approx_heap_bytes();
        let big_bytes = big.as_reduced().unwrap().approx_heap_bytes();
        assert!(big_bytes > small_bytes, "{big_bytes} vs {small_bytes}");
        assert_eq!(engine.cache_stats().bytes, small_bytes + big_bytes);
    }

    #[test]
    fn engine_reduce_pool_matches_the_free_function_bitwise() {
        let engine = Engine::builder().build().unwrap();
        let graphs: Vec<Graph> = (0..3).map(test_graph).collect();
        let via_engine = engine.reduce_pool(&graphs, 42);
        let via_free = crate::reduction::reduce_pool(&graphs, engine.reduction_options(), 42);
        assert_eq!(via_engine, via_free);
    }
}
