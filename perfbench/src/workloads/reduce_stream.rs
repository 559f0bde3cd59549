//! `reduce-stream`: each request is one `run_batch` of four
//! `ReduceJob` + `ThroughputJob` pairs over a fixed pool of 20–240-node
//! graphs. Two pairs per request revisit the hot set (six 200–240-node
//! graphs), two sweep the other 34 (20–120 nodes) with a fixed stride. The
//! engine opens on a persistent store, written during set-up, that holds the
//! hot set and the six largest swept graphs.
//!
//! The one-shard cache holds exactly the hot set. Its cost-per-byte policy
//! ranks every hot graph far above every swept one, so the hot set always
//! hits and each swept reduction is evicted as soon as it is inserted: the
//! `ThroughputJob` right after it anneals the graph again. That makes the
//! hit ratio exactly one half for every seed — it depends only on the size
//! ranks, which are fixed, not on how content hashes fall into shards or on
//! near ties between similar sizes, which the seed would reshuffle.

use super::{
    build_engine, reduction_pct, replica_reduce, Outcome, Request, Workload, GRAPH_STREAM,
};
use crate::digest::Digest;
use crate::layers::{ms_since, timed, Layers};
use graphlib::generators::connected_gnp;
use graphlib::Graph;
use mathkit::rng::{derive_seed, seeded};
use red_qaoa::engine::{CacheStats, Engine, Job, JobOutput, ReduceJob, ThroughputJob};
use red_qaoa::reduction::ReducedGraph;
use red_qaoa::throughput::relative_throughput;
use red_qaoa::RedQaoaError;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Graphs in the pool.
const POOL: usize = 40;
/// Node range of the swept graphs and of the hot set.
const SWEEP_NODES: (usize, usize) = (20, 120);
const HOT_NODES: (usize, usize) = (200, 240);
/// Mean degree of the pool's G(n, p) graphs.
const MEAN_DEGREE: f64 = 5.0;
/// Hot graphs: the largest, pool indices `SWEEP..POOL`, revisited by every
/// request.
const HOT: usize = 6;
/// Swept graphs: pool indices `0..SWEEP`.
const SWEEP: usize = POOL - HOT;
/// Stride of the sweep (coprime with `SWEEP`, so it visits every graph).
const SWEEP_STRIDE: usize = 11;
/// Pool indices `POOL - STORED..POOL` are written to the store in set-up.
const STORED: usize = 12;
/// Reduction-cache capacity, in entries: the hot set.
const CACHE_CAPACITY: usize = HOT;
/// `ReduceJob` + `ThroughputJob` pairs per request.
const PAIRS: usize = 4;
/// Device size of the throughput jobs (a 1121-qubit device).
const DEVICE_QUBITS: usize = 1121;
/// Leading stream requests run during set-up to settle the cache: six full
/// periods of the sweep.
const WARMUP: usize = 102;
/// Directory of the per-run store files, relative to the working directory.
const STORE_DIR: &str = ".perfbench_tmp";

/// A store file that is deleted when dropped.
struct StoreFile(PathBuf);

impl StoreFile {
    fn new(tag: &str) -> Self {
        std::fs::create_dir_all(STORE_DIR).expect("create the store directory");
        let path = Path::new(STORE_DIR).join(format!("{}-{tag}.store", std::process::id()));
        // A leftover from a crashed run must not pre-warm this one.
        let _ = std::fs::remove_file(&path);
        Self(path)
    }
}

impl Drop for StoreFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        // Succeeds only once the directory is empty.
        let _ = std::fs::remove_dir(STORE_DIR);
    }
}

pub struct ReduceStream {
    pool: Vec<Graph>,
    engine: Engine,
    store: StoreFile,
    /// Store size when the engine opened it: the writer's records.
    writer_bytes: usize,
    /// Records the writer appended (one per reduction it computed).
    writer_records: u64,
    /// The first output seen for each pool graph (the writer's, for stored
    /// graphs): every later output must match it bitwise.
    reference: HashMap<usize, (u64, u64)>,
    /// The replica's engine, its store copy, and its cache counters when the
    /// traced loop starts.
    replica: Option<(Engine, StoreFile, CacheStats)>,
}

/// Node count of pool graph `j`: evenly spaced over `SWEEP_NODES` for the
/// swept graphs, then over `HOT_NODES` for the hot set.
fn pool_nodes(j: usize) -> usize {
    let ((lo, hi), k, count) = if j < SWEEP {
        (SWEEP_NODES, j, SWEEP)
    } else {
        (HOT_NODES, j - SWEEP, HOT)
    };
    lo + k * (hi - lo) / (count - 1)
}

fn pool(seed: u64) -> Vec<Graph> {
    (0..POOL)
        .map(|j| {
            let n = pool_nodes(j);
            let mut rng = seeded(derive_seed(derive_seed(seed, GRAPH_STREAM), j as u64));
            connected_gnp(n, MEAN_DEGREE / (n - 1) as f64, &mut rng)
                .expect("valid G(n, p) parameters")
        })
        .collect()
}

/// Pool indices of the pairs of stream request `r`.
fn pattern(r: usize) -> [usize; PAIRS] {
    [
        SWEEP + (2 * r) % HOT,
        SWEEP + (2 * r + 1) % HOT,
        (2 * r * SWEEP_STRIDE) % SWEEP,
        ((2 * r + 1) * SWEEP_STRIDE) % SWEEP,
    ]
}

fn stream_request(pool: &[Graph], r: usize) -> Request {
    let jobs = pattern(r)
        .iter()
        .flat_map(|&j| {
            [
                Job::Reduce(ReduceJob::new(pool[j].clone())),
                Job::Throughput(ThroughputJob::new(pool[j].clone(), DEVICE_QUBITS, 1)),
            ]
        })
        .collect();
    // Reductions are content-addressed and throughput draws no randomness,
    // so the batch seed cannot change an output.
    Request {
        jobs,
        seed: r as u64,
    }
}

fn reduction_digest(reduced: &ReducedGraph) -> u64 {
    Digest::default().reduction(reduced).value()
}

fn engine_on(store: &Path) -> Engine {
    build_engine(|b| {
        b.cache_capacity(CACHE_CAPACITY)
            .cache_shards(1)
            .persist_path(store)
    })
}

fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

impl ReduceStream {
    /// Checks one request's outputs against the references, recording the
    /// first sighting of each graph.
    fn check_pairs(
        &mut self,
        r: usize,
        outputs: &[Result<JobOutput, RedQaoaError>],
    ) -> Option<Vec<(ReducedGraph, f64)>> {
        let mut pairs = Vec::with_capacity(PAIRS);
        for (k, &j) in pattern(r).iter().enumerate() {
            let reduced = outputs[2 * k].as_ref().ok()?.as_reduced()?;
            let throughput = outputs[2 * k + 1].as_ref().ok()?.as_throughput()?;
            if !(throughput.is_finite() && throughput > 0.0) {
                return None;
            }
            let seen = (reduction_digest(reduced), throughput.to_bits());
            if *self.reference.entry(j).or_insert(seen) != seen {
                return None;
            }
            pairs.push((reduced.clone(), throughput));
        }
        Some(pairs)
    }
}

fn digest_pairs<'a>(pairs: impl Iterator<Item = (&'a ReducedGraph, f64)>) -> u64 {
    let mut d = Digest::default();
    for (reduced, throughput) in pairs {
        d.reduction(reduced).float(throughput);
    }
    d.value()
}

impl Workload for ReduceStream {
    const MIN_REQUESTS: usize = 200;
    const QUALITY_REQUESTS: usize = 100;
    const QUALITY: &'static [(&'static str, &'static str)] = &[
        ("node_reduction_pct", "%"),
        ("edge_reduction_pct", "%"),
        ("relative_throughput_mean", "ratio"),
    ];
    const INPUTS: &'static str = "pool of 40 connected G(n,5/(n-1)): 34 swept, n 20..120, \
                                  6 hot, n 200..240; batch of 4 Reduce+Throughput pairs (2 hot, \
                                  2 swept with stride 11); 1-shard cache of 6; store holds the \
                                  12 largest; hit ratio 0.5";

    fn setup(seed: u64) -> Self {
        let pool = pool(seed);
        let store = StoreFile::new("engine");
        let mut reference = HashMap::new();
        let writer_records = {
            // The writer: a previous process that reduced part of the pool.
            let writer = engine_on(&store.0);
            for (j, graph) in pool.iter().enumerate().skip(POOL - STORED) {
                let job = Job::Throughput(ThroughputJob::new(graph.clone(), DEVICE_QUBITS, 1));
                let reduced = writer.run(&Job::Reduce(ReduceJob::new(graph.clone())), 0);
                let throughput = writer.run(&job, 0);
                if let (Ok(JobOutput::Reduced(r)), Ok(JobOutput::Throughput(t))) =
                    (reduced, throughput)
                {
                    reference.insert(j, (reduction_digest(&r), t.to_bits()));
                }
            }
            // Every miss is written through to the store.
            writer.cache_stats().misses
        };
        let writer_bytes = file_bytes(&store.0) as usize;
        let engine = engine_on(&store.0);
        let mut stream = Self {
            pool,
            engine,
            store,
            writer_bytes,
            writer_records,
            reference,
            replica: None,
        };
        for r in 0..WARMUP {
            let request = stream_request(&stream.pool, r);
            let outputs = super::execute(&stream.engine, &request);
            // Warm-up outputs become references like any other.
            let _ = stream.check_pairs(r, &outputs);
        }
        stream
    }

    fn engine(&self) -> &Engine {
        &self.engine
    }

    fn prepare(&self, index: usize) -> Request {
        stream_request(&self.pool, WARMUP + index)
    }

    fn check(&mut self, index: usize, outputs: &[Result<JobOutput, RedQaoaError>]) -> Outcome {
        let Some(pairs) = self.check_pairs(WARMUP + index, outputs) else {
            return Outcome::failed(Self::QUALITY.len());
        };
        let n = pairs.len() as f64;
        let mut quality = vec![0.0; Self::QUALITY.len()];
        for (reduced, throughput) in &pairs {
            let [nodes, edges] = reduction_pct(reduced);
            quality[0] += nodes / n;
            quality[1] += edges / n;
            quality[2] += throughput / n;
        }
        Outcome {
            ok: true,
            digest: digest_pairs(pairs.iter().map(|(r, t)| (r, *t))),
            quality,
        }
    }

    fn start_trace(&mut self, layers: &mut Layers) {
        // The store is append-only: its first `writer_bytes` bytes are the
        // file exactly as the engine opened it. The replica opens on a copy
        // of that prefix and replays the warm-up, so its cache holds what
        // the engine's holds when timing starts.
        let copy = StoreFile::new("replica");
        let written = std::fs::read(&self.store.0).expect("read the store");
        std::fs::write(&copy.0, &written[..self.writer_bytes]).expect("copy the store");
        layers.persist_store_bytes = self.writer_bytes as u64;
        let start = Instant::now();
        let engine = engine_on(&copy.0);
        layers.persist_replay_ms = ms_since(start);
        layers.persist_records = self.writer_records;
        for r in 0..WARMUP {
            super::execute(&engine, &stream_request(&self.pool, r));
        }
        let before = engine.cache_stats();
        self.replica = Some((engine, copy, before));
    }

    fn replica(&mut self, index: usize, _request: &Request, layers: &mut Layers) -> u64 {
        let (engine, _, _) = self
            .replica
            .as_ref()
            .expect("start_trace built the replica");
        let mut pairs = Vec::with_capacity(PAIRS);
        for &j in &pattern(WARMUP + index) {
            let graph = &self.pool[j];
            let Ok(reduced) = replica_reduce(engine, graph, layers) else {
                return 0;
            };
            // The throughput job looks its reduction up again (a hit).
            let Ok(cached) = replica_reduce(engine, graph, layers) else {
                return 0;
            };
            let throughput = timed(&mut layers.throughput_ms, || {
                relative_throughput(graph, cached.graph(), DEVICE_QUBITS, 1)
            });
            layers.throughput_calls += 1;
            pairs.push((reduced, throughput));
        }
        digest_pairs(pairs.iter().map(|(r, t)| (r, *t)))
    }

    fn finish_trace(&self, layers: &mut Layers) {
        // Over the traced loop, every miss inserts an entry and nothing else
        // does, so evictions are the entries there were plus the misses
        // minus the entries there are.
        let (engine, _, before) = self
            .replica
            .as_ref()
            .expect("start_trace built the replica");
        let after = engine.cache_stats();
        let inserts = before.entries as u64 + (after.misses - before.misses);
        layers.cache_evictions = inserts.saturating_sub(after.entries as u64);
        layers.cache_bytes = after.bytes as u64;
    }
}
