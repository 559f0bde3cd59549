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
//! * **Cost-based eviction.** When a shard overflows, it evicts the entry
//!   with the lowest *recompute-cost per cached byte* — the entry whose
//!   eviction loses the least annealing work per byte freed — instead of the
//!   oldest. Ties fall back to insertion order (oldest first). Eviction only
//!   affects *performance*: a re-request of an evicted key recomputes the
//!   bitwise-identical reduction from its content-derived substream.

use crate::reduction::{ReducedGraph, ReductionOptions, WarmDecision, WarmStart};
use graphlib::subgraph::Subgraph;
use graphlib::Graph;
use std::collections::HashMap;
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
/// service's hit-rate telemetry survives a cache flush.
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
    /// reductions; the cache stores each as its node mapping alone). Exactly
    /// the sum over current entries: inserts add,
    /// evictions and [`Engine::clear_cache`](super::Engine::clear_cache)
    /// subtract.
    pub bytes: usize,
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
/// list, which `Graph::edges` yields canonically) and the bit patterns of
/// every reduction option. Storing the full key rather than a digest makes
/// collisions impossible; graphs at Red-QAOA scale are a few hundred edges.
/// Endpoints are held as `u32` (8 bytes an edge instead of 16); the content
/// hash and the persisted key still widen each one to a `u64` word. The
/// option words sit behind an `Arc` so the keys a cache holds share one
/// allocation per option set (see [`ShardedReductionCache::insert`]);
/// `Hash` and `Eq` see only the words.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(super) struct CacheKey {
    pub(super) nodes: usize,
    pub(super) edges: Vec<(u32, u32)>,
    pub(super) option_bits: Arc<OptionWords>,
}

impl CacheKey {
    pub(super) fn new(graph: &Graph, options: &ReductionOptions) -> Self {
        use crate::annealing::CoolingSchedule;
        let (cooling_kind, cooling_alpha) = match options.sa.cooling {
            CoolingSchedule::Constant(a) => (0u64, a.to_bits()),
            CoolingSchedule::Adaptive { base } => (1u64, base.to_bits()),
        };
        let warm = match options.warm_start {
            WarmStart::Off => WARM_OFF,
            WarmStart::On => WARM_ON,
            WarmStart::Auto => WARM_AUTO,
            WarmStart::Measured => WARM_MEASURED,
        };
        Self {
            nodes: graph.node_count(),
            edges: graph
                .edges()
                .into_iter()
                .map(|(u, v)| (endpoint(u), endpoint(v)))
                .collect(),
            option_bits: Arc::new([
                options.and_ratio_threshold.to_bits(),
                options.sa_runs as u64,
                options.min_size as u64,
                options.min_size_fraction.to_bits(),
                warm,
                options.sa.initial_temp.to_bits(),
                options.sa.final_temp.to_bits(),
                cooling_kind,
                cooling_alpha,
                options.sa.disconnection_penalty.to_bits(),
                options.sa.stagnation_patience as u64,
                options.sa.boost_divisor.to_bits(),
                options.warm_auto_min_nodes as u64,
                options.warm_temp_fraction.to_bits(),
            ]),
        }
    }

    /// Whether a reduction under this key's options can report `decision`,
    /// by [`ReductionOptions::warm_enabled_for`] on the key's node count:
    /// [`WarmDecision::Cold`] exactly when warm starts are off for the
    /// graph, [`WarmDecision::Warm`] when they are on, and the measured
    /// outcomes only under [`WarmStart::Measured`].
    pub(super) fn permits(&self, decision: WarmDecision) -> bool {
        let policy = self.option_bits[WARM_START_WORD];
        let enabled = match policy {
            WARM_OFF => false,
            WARM_ON => true,
            _ => self.nodes as u64 >= self.option_bits[WARM_AUTO_MIN_NODES_WORD],
        };
        match decision {
            WarmDecision::Cold => !enabled,
            WarmDecision::Warm => enabled,
            WarmDecision::MeasuredKept | WarmDecision::MeasuredReverted => {
                enabled && policy == WARM_MEASURED
            }
        }
    }

    /// Stable FNV-1a content hash: the reduction substream for this key,
    /// its shard index, *and* its record key in the persistent store.
    /// Deliberately hand-rolled (not `DefaultHasher`) so the derived
    /// substreams — and therefore every cached reduction — are stable across
    /// Rust releases and process restarts.
    pub(super) fn content_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = OFFSET;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(PRIME);
            }
        };
        eat(self.nodes as u64);
        eat(self.edges.len() as u64);
        for &(u, v) in &self.edges {
            eat(u64::from(u));
            eat(u64::from(v));
        }
        for &word in self.option_bits.iter() {
            eat(word);
        }
        hash
    }
}

/// The option word holding the warm-start policy, and its codes.
const WARM_START_WORD: usize = 4;
const WARM_OFF: u64 = 0;
const WARM_ON: u64 = 1;
const WARM_AUTO: u64 = 2;
const WARM_MEASURED: u64 = 3;
/// The option word holding `warm_auto_min_nodes`.
const WARM_AUTO_MIN_NODES_WORD: usize = 12;

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

/// A cached reduction held compactly: the node mapping as `u32`s and the
/// scalar outcomes — one allocation — because a long-lived engine holds
/// many small reductions. The reduced graph is not stored: a reduction is
/// always the subgraph its key's graph induces on the kept nodes, so
/// [`CachedReduction::reduced`] rebuilds the equal [`ReducedGraph`] from
/// the key (the way store replay checks a record).
#[derive(Debug)]
pub(super) struct CachedReduction {
    nodes: Box<[u32]>,
    and_ratio: f64,
    node_reduction: f64,
    edge_reduction: f64,
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
            and_ratio: reduced.and_ratio,
            node_reduction: reduced.node_reduction,
            edge_reduction: reduced.edge_reduction,
            warm_decision: reduced.warm_decision,
        }
    }

    /// The cached reduction, equal to the one inserted under `key`: the
    /// key's graph induced on the kept nodes, whose sorted edge list
    /// rebuilds the same sorted adjacency lists.
    pub(super) fn reduced(&self, key: &CacheKey) -> ReducedGraph {
        let nodes: Vec<usize> = self.nodes.iter().map(|&v| v as usize).collect();
        let graph = Graph::from_edges(nodes.len(), &induced_edges(key, &nodes))
            .expect("a key's induced edges form a valid graph");
        ReducedGraph {
            subgraph: Subgraph { graph, nodes },
            and_ratio: self.and_ratio,
            node_reduction: self.node_reduction,
            edge_reduction: self.edge_reduction,
            warm_decision: self.warm_decision,
        }
    }
}

/// The edges the key's graph induces on `nodes` (strictly increasing
/// parent nodes; reduced node `i` is `nodes[i]`), as sorted reduced-index
/// pairs `(a, b)` with `a < b` — the form `Graph::edges` lists them in.
///
/// One pass over the key's edges through a parent → reduced index table of
/// `nodes.last() + 1` entries; the result is sorted only if that pass left
/// it out of order, which a key built from a `Graph` never does.
pub(super) fn induced_edges(key: &CacheKey, nodes: &[usize]) -> Vec<(usize, usize)> {
    const ABSENT: u32 = u32::MAX;
    let mut index_of = vec![ABSENT; nodes.last().map_or(0, |&top| top + 1)];
    for (i, &parent) in nodes.iter().enumerate() {
        index_of[parent] = endpoint(i);
    }
    let reduced = |parent: u32| {
        let index = *index_of.get(parent as usize)?;
        (index != ABSENT).then_some(index as usize)
    };
    let mut edges: Vec<(usize, usize)> = key
        .edges
        .iter()
        .filter_map(|&(u, v)| {
            let (a, b) = (reduced(u)?, reduced(v)?);
            Some((a.min(b), a.max(b)))
        })
        .collect();
    if !edges.windows(2).all(|pair| pair[0] <= pair[1]) {
        edges.sort_unstable();
    }
    edges
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
    entries: HashMap<CacheKey, CacheEntry>,
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
        let graph = cycle(n).unwrap();
        ReducedGraph {
            subgraph: Subgraph {
                nodes: (0..graph.node_count()).collect(),
                graph,
            },
            and_ratio: 1.0,
            node_reduction: 0.0,
            edge_reduction: 0.0,
            warm_decision: WarmDecision::Cold,
        }
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
            let mut parent = cycle(n).unwrap().with_extra_nodes(2);
            parent.add_edge(0, n / 2).unwrap();
            let kept: Vec<usize> = (0..parent.node_count()).filter(|i| i % 3 != 1).collect();
            let key = CacheKey::new(&parent, &ReductionOptions::default());
            let reduced = ReducedGraph {
                subgraph: induced_subgraph(&parent, &kept).unwrap(),
                and_ratio: 0.8125,
                node_reduction: 0.25,
                edge_reduction: 0.375,
                warm_decision,
            };
            assert_eq!(CachedReduction::new(&reduced).reduced(&key), reduced);
        }
    }

    #[test]
    fn induced_edges_sort_only_an_out_of_order_key() {
        let parent = cycle(6).unwrap();
        let mut key = CacheKey::new(&parent, &ReductionOptions::default());
        let kept = [0, 1, 2, 5];
        let expected = vec![(0, 1), (0, 3), (1, 2)];
        assert_eq!(induced_edges(&key, &kept), expected);
        key.edges.reverse();
        assert_eq!(induced_edges(&key, &kept), expected);
        assert_eq!(induced_edges(&key, &[]), Vec::new());
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
    fn permitted_warm_decisions_follow_the_warm_start_gate() {
        let decisions = [
            WarmDecision::Cold,
            WarmDecision::Warm,
            WarmDecision::MeasuredKept,
            WarmDecision::MeasuredReverted,
        ];
        for policy in [
            WarmStart::Off,
            WarmStart::On,
            WarmStart::Auto,
            WarmStart::Measured,
        ] {
            for (nodes, gate) in [(9, 16), (16, 16), (20, 16), (9, 0)] {
                let options = ReductionOptions {
                    warm_start: policy,
                    warm_auto_min_nodes: gate,
                    ..ReductionOptions::default()
                };
                let key = CacheKey::new(&cycle(nodes).unwrap(), &options);
                let enabled = options.warm_enabled_for(nodes);
                let permitted: Vec<bool> = decisions.iter().map(|&d| key.permits(d)).collect();
                let measured = enabled && policy == WarmStart::Measured;
                assert_eq!(
                    permitted,
                    [!enabled, enabled, measured, measured],
                    "{policy:?}, {nodes} nodes, gate {gate}"
                );
            }
        }
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
        };
        assert_eq!(stats.hit_rate(), 0.75);
        let empty = CacheStats {
            hits: 0,
            misses: 0,
            entries: 0,
            capacity: 8,
            bytes: 0,
        };
        assert_eq!(empty.hit_rate(), 0.0);
    }
}
