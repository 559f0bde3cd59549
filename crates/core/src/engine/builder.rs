//! The validating front door: every engine knob is checked once at
//! [`EngineBuilder::build`], so no configuration-driven failure is left to
//! job time.

use super::cache::{anneal_cost, ShardedReductionCache};
use super::persist::{PersistentStore, Replay};
use super::{Engine, DEFAULT_CACHE_CAPACITY, DEFAULT_CACHE_SHARDS, DEFAULT_REDUCTION_SEED};
use crate::pipeline::PipelineOptions;
use crate::reduction::ReductionOptions;
use crate::RedQaoaError;
use qsim::noise::NoiseModel;
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;

/// Validating builder for [`Engine`].
///
/// Every knob is checked once at [`EngineBuilder::build`]; a rejected
/// configuration names the offending field ([`RedQaoaError::field`]), so a
/// service can refuse a bad config at startup instead of discovering it on
/// the first request.
///
/// # Example
///
/// ```
/// use red_qaoa::engine::Engine;
/// use red_qaoa::reduction::ReductionOptions;
///
/// let engine = Engine::builder()
///     .threads(1)
///     .reduction(ReductionOptions {
///         warm_min_nodes: usize::MAX,
///         ..ReductionOptions::default()
///     })
///     .cache_capacity(256)
///     .build()
///     .unwrap();
/// assert_eq!(engine.cache_stats().capacity, 256);
///
/// let err = Engine::builder().threads(0).build().unwrap_err();
/// assert_eq!(err.field(), Some("threads"));
/// ```
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    threads: Option<usize>,
    reduction: ReductionOptions,
    pipeline: PipelineOptions,
    /// Whether [`EngineBuilder::pipeline`] was called: an explicitly-set
    /// pipeline keeps its own reduction options; the default one follows
    /// the engine's.
    pipeline_set: bool,
    noise: Option<NoiseModel>,
    cache_capacity: usize,
    cache_shards: usize,
    persist_path: Option<PathBuf>,
    reduction_seed: u64,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        Self {
            threads: None,
            reduction: ReductionOptions::default(),
            pipeline: PipelineOptions::default(),
            pipeline_set: false,
            noise: None,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            cache_shards: DEFAULT_CACHE_SHARDS,
            persist_path: None,
            reduction_seed: DEFAULT_REDUCTION_SEED,
        }
    }
}

impl EngineBuilder {
    /// Pins the engine's worker-thread count (every `run`/`run_batch` call
    /// executes under a scoped `with_threads` override). Unset, the engine
    /// inherits the ambient policy (`RED_QAOA_THREADS` or the machine's
    /// parallelism) — which is what the determinism tests rely on.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Sets the default reduction options jobs inherit.
    pub fn reduction(mut self, reduction: ReductionOptions) -> Self {
        self.reduction = reduction;
        self
    }

    /// Sets the SA knobs of the default reduction options.
    pub fn sa(mut self, sa: crate::annealing::SaOptions) -> Self {
        self.reduction.sa = sa;
        self
    }

    /// Sets the default pipeline options
    /// [`PipelineJob`](super::PipelineJob)s inherit.
    ///
    /// Explicitly-set pipeline options are used exactly as given — including
    /// their nested [`PipelineOptions::reduction`] settings, which the
    /// pipeline's reduction step (and its cache key) will use. When this
    /// setter is *not* called, the default pipeline options follow the
    /// engine's reduction options instead, so `ReduceJob`s and
    /// `PipelineJob`s share cache entries out of the box.
    pub fn pipeline(mut self, pipeline: PipelineOptions) -> Self {
        self.pipeline = pipeline;
        self.pipeline_set = true;
        self
    }

    /// Installs the noise model noisy [`PipelineJob`](super::PipelineJob)s
    /// simulate under.
    pub fn noise(mut self, noise: NoiseModel) -> Self {
        self.noise = Some(noise);
        self
    }

    /// Sets the reduction cache's capacity in entries (`0` disables caching).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Sets the reduction cache's shard count (see
    /// [`DEFAULT_CACHE_SHARDS`]). More shards mean less lock contention
    /// between concurrent workers; the count is clamped so no shard owns
    /// zero capacity slots. Must be at least 1.
    pub fn cache_shards(mut self, shards: usize) -> Self {
        self.cache_shards = shards;
        self
    }

    /// Backs the reduction cache with a persistent store file at `path`
    /// (created on first use). Valid entries found in the file warm the
    /// in-memory cache at build time; every cache miss is written through
    /// best-effort, so reductions survive process restarts and can be
    /// shared by co-located workers. Corrupt or stale records in the file
    /// are skipped, never fatal (see `tests/engine_persist.rs`).
    pub fn persist_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.persist_path = Some(path.into());
        self
    }

    /// Sets the seed of the content-addressed reduction substreams (see
    /// [`DEFAULT_REDUCTION_SEED`]). Two engines with the same seed and
    /// options produce bitwise-identical reductions.
    pub fn reduction_seed(mut self, seed: u64) -> Self {
        self.reduction_seed = seed;
        self
    }

    /// Validates the whole configuration and constructs the [`Engine`].
    ///
    /// # Errors
    ///
    /// Returns [`RedQaoaError::InvalidParameter`] naming the offending field
    /// (`threads`, `cache_shards`, `persist_path`, `layers`, `restarts`,
    /// `max_iters`, or any reduction/SA field; see
    /// [`ReductionOptions::validate`]). A `persist_path` whose store file
    /// cannot be opened or created is a build error; a *corrupt* store file
    /// is not (its bad records are skipped).
    pub fn build(mut self) -> Result<Engine, RedQaoaError> {
        if let Some(threads) = self.threads {
            if threads == 0 {
                return Err(RedQaoaError::invalid_parameter(
                    "threads",
                    threads,
                    "must be at least 1",
                ));
            }
        }
        if self.cache_shards == 0 {
            return Err(RedQaoaError::invalid_parameter(
                "cache_shards",
                self.cache_shards,
                "must be at least 1",
            ));
        }
        self.reduction.validate()?;
        validate_pipeline_options(&self.pipeline)?;
        if !self.pipeline_set {
            // No explicit pipeline configuration: follow the engine's
            // reduction options so PipelineJobs share cache entries with
            // ReduceJobs. An explicitly-set pipeline keeps its own (already
            // validated) reduction settings untouched.
            self.pipeline.reduction = self.reduction;
        }
        let (store, replay) = match &self.persist_path {
            Some(path) => match PersistentStore::open(path) {
                Ok((store, replay)) => (Some(store), replay),
                Err(_) => {
                    return Err(RedQaoaError::invalid_parameter(
                        "persist_path",
                        path.display(),
                        "store file could not be opened or created",
                    ));
                }
            },
            None => (None, Replay::default()),
        };
        let cache = ShardedReductionCache::new(self.cache_capacity, self.cache_shards);
        // Warm the in-memory cache from the store. Loaded entries are not
        // counted as hits or misses — telemetry starts at zero and the
        // first request served from a loaded entry counts as a plain hit.
        let Replay {
            records,
            skipped: store_skipped,
        } = replay;
        let store_replayed = records.len() as u64;
        for (key, value) in records {
            let hash = key.content_hash();
            let cost = anneal_cost(key.nodes, key.edges.len());
            cache.insert(key, hash, &value, cost);
        }
        Ok(Engine {
            threads: self.threads,
            reduction: self.reduction,
            pipeline: self.pipeline,
            noise: self.noise,
            reduction_seed: self.reduction_seed,
            cache,
            store,
            store_replayed,
            store_skipped,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }
}

/// Checks a [`PipelineOptions`] value (including its nested reduction
/// options) against the documented domains, naming the offending field.
///
/// Called from [`EngineBuilder::build`] for the engine's defaults and from
/// job dispatch for per-job overrides, so an invalid pipeline configuration
/// is always rejected before any annealing or optimization runs.
pub(super) fn validate_pipeline_options(options: &PipelineOptions) -> Result<(), RedQaoaError> {
    options.reduction.validate()?;
    if options.layers == 0 {
        return Err(RedQaoaError::invalid_parameter(
            "layers",
            options.layers,
            "must be at least 1",
        ));
    }
    if options.optimize.restarts == 0 {
        return Err(RedQaoaError::invalid_parameter(
            "restarts",
            options.optimize.restarts,
            "must be at least 1",
        ));
    }
    if options.optimize.max_iters == 0 {
        return Err(RedQaoaError::invalid_parameter(
            "max_iters",
            options.optimize.max_iters,
            "must be at least 1",
        ));
    }
    Ok(())
}
