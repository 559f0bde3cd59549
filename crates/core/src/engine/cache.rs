//! The engine's in-memory reduction cache: content-addressed keys, N-way
//! sharding, and size-aware cost-based eviction.
//!
//! Reductions are the expensive, reusable artifact of every job the engine
//! runs (the paper's whole bet), so the cache is built around three ideas:
//!
//! * **Content addressing.** [`CacheKey`] stores the *full* request content
//!   (graph + every reduction option), so collisions are impossible, and its
//!   stable FNV-1a [`CacheKey::content_hash`] doubles as the reduction's RNG
//!   substream — which is what makes hits bitwise-identical to misses (see
//!   `docs/determinism.md`).
//! * **Sharding.** Keys are distributed over N independently-locked shards
//!   by content hash, so concurrent workers of a batch contend on a shard,
//!   not on one global mutex. The configured capacity is partitioned exactly
//!   across shards (no shard gets zero), so the total entry count never
//!   exceeds it.
//! * **Compact entries.** An entry holds the kept nodes and the warm
//!   decision alone. A hit expands it through [`CacheKey::reduction`]: the
//!   graph the key induces on the kept nodes, with the ratios derived from
//!   the key's counts by the constructor `reduce` builds its result with.
//!   Store replay expands a record the same way.
//! * **Cost-based eviction.** When a shard overflows, it evicts the entry
//!   with the lowest *recompute-cost per cached byte* — the entry whose
//!   eviction loses the least annealing work per byte freed — instead of the
//!   oldest. Ties fall back to insertion order (oldest first). Eviction only
//!   affects *performance*: a re-request of an evicted key recomputes the
//!   bitwise-identical reduction from its content-derived substream.

use crate::reduction::{size_floor, ReducedGraph, ReductionOptions, WarmDecision};
use graphlib::subgraph::Subgraph;
use graphlib::Graph;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Snapshot of the reduction cache's counters.
///
/// The *contents* of the cache are deterministic (every entry is a pure
/// function of its key), but the hit/miss split of a parallel batch is not:
/// two workers may race to compute the same key and both count a miss. The
/// counters are telemetry for the benches, not part of the determinism
/// contract.
///
/// A [`LandscapeJob`](super::LandscapeJob) that repeats an earlier scan of
/// its batch copies that scan's output and makes no lookup, so it counts as
/// neither a hit nor a miss (see [`Engine::run_batch`](super::Engine::run_batch)).
///
/// `hits` and `misses` are **cumulative over the engine's lifetime**:
/// [`Engine::clear_cache`](super::Engine::clear_cache) resets `entries` and
/// `bytes` to zero but deliberately keeps both counters, so a long-running
/// service's hit-rate telemetry survives a cache flush. The two store
/// counters are fixed when the engine is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Jobs served from the cache without re-annealing.
    pub hits: u64,
    /// Jobs that computed (and inserted) their reduction.
    pub misses: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Configured capacity (`0` means caching is disabled).
    pub capacity: usize,
    /// Cumulative estimated footprint of the cached [`ReducedGraph`]s, as
    /// [`ReducedGraph::approx_heap_bytes`] — the quantity the size-aware
    /// eviction policy budgets against (an estimate of the expanded
    /// reductions; the cache stores each as its kept nodes and warm
    /// decision). Exactly the sum over current entries: inserts add,
    /// evictions and [`Engine::clear_cache`](super::Engine::clear_cache)
    /// subtract.
    pub bytes: usize,
    /// Records the persistent store replayed into the cache when the engine
    /// was built (`0` without a store). Every valid record counts, also one
    /// the cache's capacity then evicts.
    pub store_replayed: u64,
    /// Records the persistent store dropped when the engine was built:
    /// each corrupt or stale record, plus one for any bytes cut off after
    /// the last whole record (a torn tail, unparseable framing, or a file
    /// under a foreign or outdated header). A damaged store shows here
    /// rather than as a cold cache.
    pub store_skipped: u64,
}

impl CacheStats {
    /// Fraction of served reductions that came from the cache:
    /// `hits / (hits + misses)`, or `0.0` before any reduction has been
    /// served. Like the underlying counters this is cumulative telemetry —
    /// [`Engine::clear_cache`](super::Engine::clear_cache) does not reset
    /// it.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The bit patterns of every reduction option, one `u64` word each.
pub(super) type OptionWords = [u64; 14];

/// Content-addressed cache key: the full graph (node count + sorted edge
/// list, in the canonical order of `Graph::edges`) and the bit patterns of
/// every reduction option. Storing the full key rather than a digest makes
/// collisions impossible; graphs at Red-QAOA scale are a few hundred edges.
/// Endpoints are held as `u32` (8 bytes an edge instead of 16); the content
/// hash and the persisted key still widen each one to a `u64` word. The
/// option words sit behind an `Arc` so the keys a cache holds share one
/// allocation per option set (see [`ShardedReductionCache::insert`]).
///
/// The [`CacheKey::content_hash`] is computed once, when the key is built,
/// and is all that `Hash` feeds a shard's map; `Eq` compares the content.
/// A key is therefore built only through [`CacheKey::new`] or
/// [`CacheKey::from_parts`] and its content is not edited afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct CacheKey {
    pub(super) nodes: usize,
    pub(super) edges: Vec<(u32, u32)>,
    pub(super) option_bits: Arc<OptionWords>,
    hash: u64,
}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl CacheKey {
    pub(super) fn new(graph: &Graph, options: &ReductionOptions) -> Self {
        use crate::annealing::CoolingSchedule;
        let (cooling_kind, cooling_alpha) = match options.sa.cooling {
            CoolingSchedule::Constant(a) => (0u64, a.to_bits()),
            CoolingSchedule::Adaptive { base } => (1u64, base.to_bits()),
        };
        let edges = graph
            .edges()
            .map(|(u, v)| (endpoint(u), endpoint(v)))
            .collect();
        let option_bits = [
            options.and_ratio_threshold.to_bits(),
            options.sa_runs as u64,
            options.min_size as u64,
            options.min_size_fraction.to_bits(),
            // Retired policy word, a constant that keeps default keys'
            // hashes (see `MEASURED_POLICY`).
            MEASURED_POLICY,
            options.sa.initial_temp.to_bits(),
            options.sa.final_temp.to_bits(),
            cooling_kind,
            cooling_alpha,
            options.sa.disconnection_penalty.to_bits(),
            options.sa.stagnation_patience as u64,
            options.sa.boost_divisor.to_bits(),
            options.warm_min_nodes as u64,
            // Retired temperature word, likewise constant.
            TEMP_FRACTION_BITS,
        ];
        Self::from_parts(graph.node_count(), edges, Arc::new(option_bits))
    }

    /// The key of a graph given as its node count and sorted edge list,
    /// under the given option words (how the persistent store rebuilds a
    /// key it reads back).
    pub(super) fn from_parts(
        nodes: usize,
        edges: Vec<(u32, u32)>,
        option_bits: Arc<OptionWords>,
    ) -> Self {
        let mut hash = fnv1a_word(FNV_OFFSET, nodes as u64);
        hash = fnv1a_word(hash, edges.len() as u64);
        for &(u, v) in &edges {
            hash = fnv1a_word(fnv1a_word(hash, u64::from(u)), u64::from(v));
        }
        for &word in option_bits.iter() {
            hash = fnv1a_word(hash, word);
        }
        Self {
            nodes,
            edges,
            option_bits,
            hash,
        }
    }

    /// Whether a reduction under this key's options can report `decision`
    /// with `kept` nodes, by [`ReductionOptions::warm_enabled_for`] on the
    /// key's node count and the search's size floor:
    /// [`WarmDecision::Cold`] exactly when warm starts are off for the
    /// graph; [`WarmDecision::Warm`] when they are on and the search
    /// stopped at the floor; the measured outcomes when they are on and the
    /// search went past it. A key of fewer than two nodes permits nothing,
    /// since `reduce` refuses such a graph.
    pub(super) fn permits(&self, decision: WarmDecision, kept: usize) -> bool {
        if self.nodes < 2 {
            return false;
        }
        let warm = self.nodes as u64 >= self.option_bits[WARM_MIN_NODES_WORD];
        let floor = size_floor(
            self.nodes,
            self.option_bits[MIN_SIZE_WORD] as usize,
            f64::from_bits(self.option_bits[MIN_SIZE_FRACTION_WORD]),
        );
        match decision {
            WarmDecision::Cold => !warm,
            WarmDecision::Warm => warm && kept == floor,
            WarmDecision::MeasuredKept | WarmDecision::MeasuredReverted => warm && kept > floor,
        }
    }

    /// Stable FNV-1a content hash over the key's words, each eaten as its
    /// eight little-endian bytes: the reduction substream for this key, its
    /// shard index, *and* its record key in the persistent store.
    /// Deliberately hand-rolled (not `DefaultHasher`) so the derived
    /// substreams — and therefore every cached reduction — are stable across
    /// Rust releases and process restarts.
    pub(super) fn content_hash(&self) -> u64 {
        self.hash
    }

    /// The subgraph the key's graph induces on `nodes` (strictly increasing
    /// parent nodes; reduced node `i` is `nodes[i]`): one pass over the
    /// key's edges through a parent → reduced index table of
    /// `nodes.last() + 1` entries, and the CSR filled from the mapped pairs.
    /// `None` if the key's edges among `nodes` are not a simple graph (a
    /// self-loop or a repeated edge, which only a crafted stored key can
    /// carry); an out-of-order key is fine.
    pub(super) fn induced_graph(&self, nodes: &[usize]) -> Option<Graph> {
        const ABSENT: u32 = u32::MAX;
        let mut index_of = vec![ABSENT; nodes.last().map_or(0, |&top| top + 1)];
        for (i, &parent) in nodes.iter().enumerate() {
            index_of[parent] = endpoint(i);
        }
        let reduced = |parent: u32| {
            let index = *index_of.get(parent as usize)?;
            (index != ABSENT).then_some(index as usize)
        };
        let edges: Vec<(usize, usize)> = self
            .edges
            .iter()
            .filter_map(|&(u, v)| Some((reduced(u)?, reduced(v)?)))
            .collect();
        let graph = Graph::from_edges(nodes.len(), &edges).ok()?;
        (graph.edge_count() == edges.len()).then_some(graph)
    }

    /// The reduction of the key's graph that keeps `nodes` (strictly
    /// increasing) and reported `warm_decision`: the graph the key induces
    /// on them ([`CacheKey::induced_graph`]), with its ratios derived from
    /// the key's counts by [`ReducedGraph::new`]. A cache hit and store
    /// replay both expand their record through here, so each serves the
    /// bits `reduce` returned. `None` where `induced_graph` is.
    pub(super) fn reduction(
        &self,
        nodes: Vec<usize>,
        warm_decision: WarmDecision,
    ) -> Option<ReducedGraph> {
        let graph = self.induced_graph(&nodes)?;
        Some(ReducedGraph::new(
            (self.nodes, self.edges.len()),
            Subgraph { graph, nodes },
            warm_decision,
        ))
    }
}

/// FNV-1a's 64-bit offset basis and prime.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// `FNV_PRIME^k` for `k` in `0..=8`.
const FNV_PRIME_POWERS: [u64; 9] = {
    let mut powers = [1u64; 9];
    let mut k = 1;
    while k < powers.len() {
        powers[k] = powers[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    powers
};

/// Byte-wise FNV-1a of `hash` extended by `word`'s eight little-endian
/// bytes, with the word's run of zero high bytes eaten in one step: a zero
/// byte leaves the xor unchanged, so `k` of them are one multiply by
/// `FNV_PRIME^k` in wrapping arithmetic, folded into the last significant
/// byte's multiply — the same value as the byte loop, at one multiply per
/// significant byte (a node index below 256 costs one).
fn fnv1a_word(mut hash: u64, word: u64) -> u64 {
    let significant = 8 - (word.leading_zeros() / 8) as usize;
    if significant == 0 {
        return hash.wrapping_mul(FNV_PRIME_POWERS[8]);
    }
    let mut rest = word;
    for _ in 1..significant {
        hash = (hash ^ (rest & 0xff)).wrapping_mul(FNV_PRIME);
        rest >>= 8;
    }
    // `rest` is the last significant byte; the zero bytes above it follow
    // as `FNV_PRIME^(8 - significant)`.
    (hash ^ rest).wrapping_mul(FNV_PRIME_POWERS[9 - significant])
}

/// Feeds a shard's map the [`CacheKey::content_hash`] a key already
/// carries, so a lookup hashes no key content a second time. The hash is
/// rotated because the shard index already consumed its low bits.
#[derive(Default)]
struct ContentHasher(u64);

impl Hasher for ContentHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash.rotate_left(32);
    }
}

/// Option word 4 held a warm-start policy code when the search had four
/// policies (`Off` 0, `On` 1, `Auto` 2, `Measured` 3). Only the measured
/// one is left, so every key carries its code. Keeping this word, and word
/// 13 below, keeps the 14-word layout and with it every default-option
/// key's content hash: the hash is the reduction's RNG substream, so no
/// reduction moved.
const MEASURED_POLICY: u64 = 3;
/// Option word 13 held the warm-run temperature fraction when it was an
/// option; the search now always starts warm runs at 0.25 of `T0`, and the
/// word holds `0.25f64.to_bits()`.
const TEMP_FRACTION_BITS: u64 = 0x3fd0_0000_0000_0000;
/// The option words holding `min_size`, `min_size_fraction` and
/// `warm_min_nodes`.
const MIN_SIZE_WORD: usize = 2;
const MIN_SIZE_FRACTION_WORD: usize = 3;
const WARM_MIN_NODES_WORD: usize = 12;

/// A node index as a key endpoint.
///
/// # Panics
///
/// Panics for an index above `u32::MAX`: a graph that large could not be
/// reduced in memory anyway.
fn endpoint(node: usize) -> u32 {
    u32::try_from(node).expect("node index fits in u32")
}

/// Deterministic proxy for the annealing work a cached reduction saves:
/// `2 · edges · ln(nodes)` — the SA core visits `O(n log n)` candidate
/// moves per run and each move's AND-ratio delta touches the move's
/// incident edges, so recompute cost scales with `edges · ln(nodes)`. The
/// absolute scale is irrelevant; eviction only compares ratios.
pub(super) fn anneal_cost(nodes: usize, edges: usize) -> f64 {
    2.0 * edges.max(1) as f64 * (nodes.max(2) as f64).ln()
}

/// A cached reduction held compactly: the kept nodes as `u32`s and the warm
/// decision — one allocation — because a long-lived engine holds many small
/// reductions. Everything else is a function of the key:
/// [`CachedReduction::reduced`] expands the entry through
/// [`CacheKey::reduction`], as store replay expands a record.
#[derive(Debug)]
pub(super) struct CachedReduction {
    nodes: Box<[u32]>,
    warm_decision: WarmDecision,
}

impl CachedReduction {
    fn new(reduced: &ReducedGraph) -> Self {
        Self {
            nodes: reduced
                .subgraph
                .nodes
                .iter()
                .map(|&v| endpoint(v))
                .collect(),
            warm_decision: reduced.warm_decision,
        }
    }

    /// The cached reduction, equal to the one inserted under `key`.
    pub(super) fn reduced(&self, key: &CacheKey) -> ReducedGraph {
        let nodes = self.nodes.iter().map(|&v| v as usize).collect();
        key.reduction(nodes, self.warm_decision)
            .expect("a cached key induces a simple graph on its kept nodes")
    }
}

#[derive(Debug)]
struct CacheEntry {
    value: Arc<CachedReduction>,
    /// Estimated recompute cost ([`anneal_cost`] of the *original* graph).
    cost: f64,
    /// The inserted reduction's `approx_heap_bytes()`, captured at insert.
    bytes: usize,
    /// Global insertion tick; the eviction tie-breaker (oldest first).
    sequence: u64,
}

#[derive(Debug, Default)]
struct Shard {
    /// This shard's slice of the configured capacity (≥ 1).
    capacity: usize,
    entries: HashMap<CacheKey, CacheEntry, BuildHasherDefault<ContentHasher>>,
    /// Sum of `CacheEntry::bytes` over `entries`, maintained on every
    /// insert/evict/clear so totalling the cache is O(shards), not O(entries).
    bytes: usize,
}

impl Shard {
    fn insert(&mut self, key: CacheKey, entry: CacheEntry) {
        let added = entry.bytes;
        match self.entries.insert(key, entry) {
            None => {
                self.bytes += added;
                while self.entries.len() > self.capacity {
                    self.evict_cheapest();
                }
            }
            Some(replaced) => {
                // Same key ⇒ same content (entries are pure functions of the
                // key), but keep the accounting honest regardless.
                self.bytes += added;
                self.bytes -= replaced.bytes;
            }
        }
    }

    /// Evicts the entry with the lowest cost-per-byte (least annealing work
    /// lost per byte freed); ties evict the oldest insertion first.
    fn evict_cheapest(&mut self) {
        let victim = self
            .entries
            .iter()
            .min_by(|(_, a), (_, b)| {
                let ra = a.cost / a.bytes.max(1) as f64;
                let rb = b.cost / b.bytes.max(1) as f64;
                ra.total_cmp(&rb).then(a.sequence.cmp(&b.sequence))
            })
            .map(|(key, _)| key.clone());
        if let Some(key) = victim {
            if let Some(evicted) = self.entries.remove(&key) {
                self.bytes -= evicted.bytes;
            }
        }
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.bytes = 0;
    }
}

/// N-way sharded reduction cache. Lookups and inserts lock exactly one
/// shard (selected by content hash); entries are `Arc`ed so a hit only
/// bumps a refcount while the lock is held and the [`ReducedGraph`] handed
/// to the caller is rebuilt outside it.
#[derive(Debug)]
pub(super) struct ShardedReductionCache {
    /// Total configured capacity across all shards (`0` disables caching).
    capacity: usize,
    shards: Vec<Mutex<Shard>>,
    /// Monotone insertion tick shared by all shards (eviction tie-breaker).
    sequence: AtomicU64,
    /// The distinct option sets of inserted keys, at most
    /// [`MAX_SHARED_OPTION_SETS`]; every inserted key shares its set's
    /// allocation.
    option_sets: Mutex<Vec<Arc<OptionWords>>>,
}

/// How many distinct option sets one cache shares. An engine almost always
/// serves one; per-job options beyond this bound keep their own copy, so no
/// stream of requests can grow the set list without limit.
const MAX_SHARED_OPTION_SETS: usize = 16;

impl ShardedReductionCache {
    /// A cache of `capacity` total entries spread over (up to) `shards`
    /// shards. The shard count is clamped to the capacity so every shard
    /// owns at least one slot; the remainder `capacity % shards` is spread
    /// one-per-shard so the per-shard capacities sum *exactly* to
    /// `capacity`.
    pub(super) fn new(capacity: usize, shards: usize) -> Self {
        let shard_count = shards.max(1).min(capacity.max(1));
        let base = capacity / shard_count;
        let extra = capacity % shard_count;
        let shards = (0..shard_count)
            .map(|s| {
                Mutex::new(Shard {
                    capacity: base + usize::from(s < extra),
                    ..Shard::default()
                })
            })
            .collect();
        Self {
            capacity,
            shards,
            sequence: AtomicU64::new(0),
            option_sets: Mutex::default(),
        }
    }

    pub(super) fn capacity(&self) -> usize {
        self.capacity
    }

    #[cfg(test)]
    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, hash: u64) -> &Mutex<Shard> {
        &self.shards[(hash % self.shards.len() as u64) as usize]
    }

    /// Looks `key` up in its shard. `hash` must be `key.content_hash()`
    /// (passed in because every caller already computed it for the RNG
    /// substream).
    pub(super) fn get(&self, key: &CacheKey, hash: u64) -> Option<Arc<CachedReduction>> {
        if self.capacity == 0 {
            return None;
        }
        let shard = self.shard(hash).lock().expect("cache shard mutex");
        shard.entries.get(key).map(|entry| Arc::clone(&entry.value))
    }

    /// Inserts `key → value` with recompute-cost estimate `cost`, evicting
    /// the shard's cheapest entries (lowest cost-per-byte) on overflow.
    /// The stored key's option words are replaced by the equal words of an
    /// earlier insert, so the cache holds one copy per option set, whether
    /// the key came from a request or from the persistent store.
    /// A no-op when the cache is disabled (`capacity == 0`).
    pub(super) fn insert(&self, mut key: CacheKey, hash: u64, value: &ReducedGraph, cost: f64) {
        if self.capacity == 0 {
            return;
        }
        key.option_bits = self.share_option_words(key.option_bits);
        let entry = CacheEntry {
            bytes: value.approx_heap_bytes(),
            value: Arc::new(CachedReduction::new(value)),
            cost,
            sequence: self.sequence.fetch_add(1, Ordering::Relaxed),
        };
        let mut shard = self.shard(hash).lock().expect("cache shard mutex");
        shard.insert(key, entry);
    }

    /// The cache's shared copy of `words`, recording `words` as the shared
    /// copy when the set is new and the bound allows.
    fn share_option_words(&self, words: Arc<OptionWords>) -> Arc<OptionWords> {
        let mut sets = self.option_sets.lock().expect("option sets mutex");
        if let Some(shared) = sets.iter().find(|shared| **shared == words) {
            return Arc::clone(shared);
        }
        if sets.len() < MAX_SHARED_OPTION_SETS {
            sets.push(Arc::clone(&words));
        }
        words
    }

    /// Current `(entries, bytes)` totals across all shards.
    pub(super) fn totals(&self) -> (usize, usize) {
        self.shards.iter().fold((0, 0), |(entries, bytes), shard| {
            let shard = shard.lock().expect("cache shard mutex");
            (entries + shard.entries.len(), bytes + shard.bytes)
        })
    }

    /// Empties every shard (the caller's cumulative hit/miss counters are
    /// untouched — see [`CacheStats`]).
    pub(super) fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("cache shard mutex").clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlib::generators::cycle;
    use graphlib::subgraph::induced_subgraph;

    /// A distinct key per `n` (different node counts ⇒ different content).
    fn key(n: usize) -> CacheKey {
        CacheKey::new(&cycle(n).unwrap(), &ReductionOptions::default())
    }

    /// A synthetic cached value whose footprint grows with `n`.
    fn value(n: usize) -> ReducedGraph {
        ReducedGraph::identity(&cycle(n).unwrap())
    }

    #[test]
    fn compact_entries_rebuild_the_inserted_reduction() {
        let decisions = [
            WarmDecision::Cold,
            WarmDecision::Warm,
            WarmDecision::MeasuredKept,
            WarmDecision::MeasuredReverted,
        ];
        for (n, warm_decision) in [5, 8, 11, 16].into_iter().zip(decisions) {
            // A parent with a chord and two isolated nodes; the kept nodes
            // skip every third one, so the reduction has isolated nodes
            // (the last one among them) and a non-identity mapping.
            let ring = cycle(n).unwrap();
            let edges: Vec<(usize, usize)> = ring.edges().chain([(0, n / 2)]).collect();
            let parent = Graph::from_edges(n + 2, &edges).unwrap();
            let kept: Vec<usize> = (0..parent.node_count()).filter(|i| i % 3 != 1).collect();
            let key = CacheKey::new(&parent, &ReductionOptions::default());
            let reduced = ReducedGraph::new(
                (parent.node_count(), parent.edge_count()),
                induced_subgraph(&parent, &kept).unwrap(),
                warm_decision,
            );
            assert_eq!(CachedReduction::new(&reduced).reduced(&key), reduced);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        /// The graph a cache hit rebuilds from its key is the induced
        /// subgraph of the parent, also when a stored key lists its edges
        /// out of order or reversed; a key whose kept edges are not simple
        /// induces nothing.
        #[test]
        fn key_induced_graph_matches_induced_subgraph(n in 1usize..40, q in 0.0f64..0.5, keep in 0.0f64..1.0, seed in 0u64..1_000_000) {
            use rand::Rng;
            let mut rng = mathkit::rng::seeded(seed);
            let parent = graphlib::generators::erdos_renyi_gnp(n, q, &mut rng).unwrap();
            let kept: Vec<usize> = (0..n).filter(|_| rng.gen::<f64>() < keep).collect();
            let expected = induced_subgraph(&parent, &kept).unwrap().graph;
            let mut key = CacheKey::new(&parent, &ReductionOptions::default());
            proptest::prop_assert_eq!(key.induced_graph(&[]), Some(Graph::new(0)));
            proptest::prop_assert_eq!(key.induced_graph(&kept), Some(expected.clone()));
            key.edges.reverse();
            for i in (1..key.edges.len()).rev() {
                key.edges.swap(i, rng.gen_range(0..=i));
                if rng.gen::<bool>() {
                    let (u, v) = key.edges[i];
                    key.edges[i] = (v, u);
                }
            }
            proptest::prop_assert_eq!(key.induced_graph(&kept), Some(expected.clone()));
            if let Some(&(u, v)) = key.edges.iter().find(|&&(u, v)| {
                kept.binary_search(&(u as usize)).is_ok() && kept.binary_search(&(v as usize)).is_ok()
            }) {
                key.edges.push((v, u));
                proptest::prop_assert_eq!(key.induced_graph(&kept), None);
                key.edges.pop();
            }
            if let Some(&top) = kept.last() {
                key.edges.push((endpoint(top), endpoint(top)));
                proptest::prop_assert_eq!(key.induced_graph(&kept), None);
            }
        }
    }

    #[test]
    fn eviction_removes_the_lowest_cost_per_byte_entry_first() {
        // One shard, capacity 2, equal byte footprints: the injected cost
        // alone decides the victim.
        let cache = ShardedReductionCache::new(2, 1);
        let (a, b, c) = (key(10), key(11), key(12));
        cache.insert(a.clone(), a.content_hash(), &value(10), 5.0);
        cache.insert(b.clone(), b.content_hash(), &value(10), 1.0);
        cache.insert(c.clone(), c.content_hash(), &value(10), 3.0);
        assert!(
            cache.get(&b, b.content_hash()).is_none(),
            "cheapest evicted"
        );
        assert!(cache.get(&a, a.content_hash()).is_some());
        assert!(cache.get(&c, c.content_hash()).is_some());
    }

    #[test]
    fn eviction_prefers_large_entries_at_equal_cost() {
        // Equal recompute cost, different footprints: the big entry has the
        // lower cost-per-byte and goes first.
        let cache = ShardedReductionCache::new(2, 1);
        let (small, big, next) = (key(6), key(30), key(8));
        cache.insert(small.clone(), small.content_hash(), &value(6), 7.0);
        cache.insert(big.clone(), big.content_hash(), &value(30), 7.0);
        cache.insert(next.clone(), next.content_hash(), &value(8), 7.0);
        assert!(cache.get(&big, big.content_hash()).is_none());
        assert!(cache.get(&small, small.content_hash()).is_some());
        assert!(cache.get(&next, next.content_hash()).is_some());
    }

    #[test]
    fn eviction_ties_break_oldest_first() {
        let cache = ShardedReductionCache::new(2, 1);
        let (a, b, c) = (key(10), key(11), key(12));
        // Identical cost and bytes: insertion order decides.
        cache.insert(a.clone(), a.content_hash(), &value(10), 2.0);
        cache.insert(b.clone(), b.content_hash(), &value(10), 2.0);
        cache.insert(c.clone(), c.content_hash(), &value(10), 2.0);
        assert!(cache.get(&a, a.content_hash()).is_none(), "oldest evicted");
        assert!(cache.get(&b, b.content_hash()).is_some());
        assert!(cache.get(&c, c.content_hash()).is_some());
    }

    #[test]
    fn capacity_zero_disables_the_cache() {
        let cache = ShardedReductionCache::new(0, 8);
        let k = key(10);
        cache.insert(k.clone(), k.content_hash(), &value(10), 1.0);
        assert!(cache.get(&k, k.content_hash()).is_none());
        assert_eq!(cache.totals(), (0, 0));
    }

    #[test]
    fn byte_accounting_is_exact_under_insert_evict_replace_and_clear() {
        let cache = ShardedReductionCache::new(2, 1);
        let (a, b, c) = (key(8), key(16), key(24));
        let bytes = |n: usize| value(n).approx_heap_bytes();
        cache.insert(a.clone(), a.content_hash(), &value(8), 1.0);
        assert_eq!(cache.totals(), (1, bytes(8)));
        cache.insert(b.clone(), b.content_hash(), &value(16), 1.0);
        assert_eq!(cache.totals(), (2, bytes(8) + bytes(16)));
        // Replacing a key must not double-count.
        cache.insert(a.clone(), a.content_hash(), &value(8), 100.0);
        assert_eq!(cache.totals(), (2, bytes(8) + bytes(16)));
        // Overflow evicts exactly one entry's bytes (cost-per-byte picks the
        // victim: `b` is by far the cheapest to recompute, so it goes).
        cache.insert(c.clone(), c.content_hash(), &value(24), 100.0);
        let (entries, total) = cache.totals();
        assert_eq!(entries, 2);
        assert_eq!(total, bytes(8) + bytes(24));
        cache.clear();
        assert_eq!(cache.totals(), (0, 0));
    }

    #[test]
    fn shard_count_is_clamped_to_capacity_and_totals_sum_over_shards() {
        let cache = ShardedReductionCache::new(2, 8);
        assert_eq!(cache.shard_count(), 2, "no shard may own zero slots");
        // Capacity 200 over 8 shards gives every shard 25 slots, so the 17
        // inserts below cannot overflow any shard however the hash lands.
        let cache = ShardedReductionCache::new(200, 8);
        assert_eq!(cache.shard_count(), 8);
        for n in 3..20 {
            let k = key(n);
            cache.insert(k.clone(), k.content_hash(), &value(n), 1.0);
            assert!(cache.get(&k, k.content_hash()).is_some());
        }
        assert_eq!(cache.totals().0, 17);
    }

    #[test]
    fn total_entries_never_exceed_capacity() {
        let cache = ShardedReductionCache::new(5, 3);
        for n in 3..40 {
            let k = key(n);
            cache.insert(k.clone(), k.content_hash(), &value(n), 1.0);
            assert!(cache.totals().0 <= 5);
        }
    }

    #[test]
    fn cached_keys_share_one_copy_per_option_set() {
        let cache = ShardedReductionCache::new(8, 1);
        let strict = ReductionOptions {
            and_ratio_threshold: 0.9,
            ..ReductionOptions::default()
        };
        let keys = [
            key(5),
            key(6),
            CacheKey::new(&cycle(7).unwrap(), &strict),
            CacheKey::new(&cycle(8).unwrap(), &strict),
        ];
        for k in &keys {
            assert_eq!(
                Arc::strong_count(&k.option_bits),
                1,
                "fresh keys own their words"
            );
            cache.insert(k.clone(), k.content_hash(), &value(5), 1.0);
        }
        let shard = cache.shards[0].lock().unwrap();
        let stored = |k: &CacheKey| {
            let (stored, _) = shard.entries.get_key_value(k).unwrap();
            Arc::clone(&stored.option_bits)
        };
        let (default, strict) = (stored(&keys[0]), stored(&keys[2]));
        assert!(Arc::ptr_eq(&default, &stored(&keys[1])));
        assert!(Arc::ptr_eq(&strict, &stored(&keys[3])));
        assert!(!Arc::ptr_eq(&default, &strict));
        // Sharing changes no key: each still finds its own entry.
        assert!(keys.iter().all(|k| shard.entries.contains_key(k)));
    }

    #[test]
    fn content_hash_is_pinned() {
        // The hash is the reduction substream, the shard and the persisted
        // record key: recorded bits, so a change to how a key is stored
        // (endpoint width, field order) cannot move it unnoticed.
        let graph =
            Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5)]).unwrap();
        let key = CacheKey::new(&graph, &ReductionOptions::default());
        assert_eq!(key.content_hash(), 0xa439_ca79_128b_51cb);
    }

    #[test]
    fn word_steps_hash_like_the_byte_loop() {
        let byte_loop = |words: &[u64]| {
            let mut hash = FNV_OFFSET;
            for word in words {
                for byte in word.to_le_bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
                }
            }
            hash
        };
        let mut rng = mathkit::rng::seeded(5);
        let mut words = vec![0, 1, 0xff, 0x100, 0x0100_0000_0000_0000, u64::MAX];
        // Every significant-byte count, from 0 to 8.
        words.extend((0..64).map(|shift| rand::Rng::gen::<u64>(&mut rng) >> shift));
        let mut hash = FNV_OFFSET;
        for (i, &word) in words.iter().enumerate() {
            hash = fnv1a_word(hash, word);
            assert_eq!(hash, byte_loop(&words[..=i]), "after word {i}");
        }
    }

    #[test]
    fn permitted_warm_decisions_follow_the_warm_start_gate() {
        let decisions = [
            WarmDecision::Cold,
            WarmDecision::Warm,
            WarmDecision::MeasuredKept,
            WarmDecision::MeasuredReverted,
        ];
        for (nodes, gate) in [(9, 16), (16, 16), (20, 16), (9, 0), (20, usize::MAX)] {
            let options = ReductionOptions {
                warm_min_nodes: gate,
                ..ReductionOptions::default()
            };
            let key = CacheKey::new(&cycle(nodes).unwrap(), &options);
            let warm = options.warm_enabled_for(nodes);
            let floor = size_floor(nodes, options.min_size, options.min_size_fraction);
            // A warm search stops at its floor with `Warm`, or goes past it
            // and measures; a cold one may stop anywhere from the floor up.
            for (kept, past_floor) in [(floor, false), (floor + 1, true), (nodes, true)] {
                let permitted: Vec<bool> =
                    decisions.iter().map(|&d| key.permits(d, kept)).collect();
                let expected = [
                    !warm,
                    warm && !past_floor,
                    warm && past_floor,
                    warm && past_floor,
                ];
                assert_eq!(
                    permitted, expected,
                    "{nodes} nodes, gate {gate}, {kept} kept"
                );
            }
        }
        // `reduce` refuses a graph of fewer than two nodes.
        let tiny = CacheKey::new(&Graph::new(1), &ReductionOptions::default());
        assert!(decisions.iter().all(|&d| !tiny.permits(d, 1)));
    }

    #[test]
    fn anneal_cost_grows_with_nodes_and_edges() {
        assert!(anneal_cost(10, 20) > 0.0);
        assert!(anneal_cost(10, 40) > anneal_cost(10, 20));
        assert!(anneal_cost(40, 20) > anneal_cost(10, 20));
        // Degenerate inputs stay finite and positive.
        assert!(anneal_cost(0, 0) > 0.0);
    }

    #[test]
    fn hit_rate_is_derived_from_the_cumulative_counters() {
        let stats = CacheStats {
            hits: 3,
            misses: 1,
            entries: 1,
            capacity: 8,
            bytes: 100,
            store_replayed: 2,
            store_skipped: 1,
        };
        assert_eq!(stats.hit_rate(), 0.75);
        let empty = CacheStats {
            hits: 0,
            misses: 0,
            entries: 0,
            capacity: 8,
            bytes: 0,
            store_replayed: 0,
            store_skipped: 0,
        };
        assert_eq!(empty.hit_rate(), 0.0);
    }
}
