//! Graph reduction: the smallest subgraph size that keeps the AND ratio.
//!
//! Red-QAOA looks for the smallest subgraph size `k` whose best subgraph (the
//! SA search, Algorithm 1) reaches the required AND ratio (default 0.7,
//! Section 4.3). The search here is bounded below by a floor,
//! `max(min_size, ⌈min_size_fraction · n⌉)` (65% of the nodes by default),
//! and [`reduce`] anneals the floor first: the floor is the smallest size
//! the search admits, so when its best subgraph passes it is returned after
//! one anneal. Only when the floor fails does a binary search run over the
//! sizes above it, the `n log n` preprocessing bound of Figure 18.
//!
//! Two layers fan out through `mathkit::parallel::parallel_map_indexed` with
//! per-index RNG substreams, so results are bitwise-identical for every
//! `RED_QAOA_THREADS` value:
//!
//! * the `sa_runs` independent SA restarts at each candidate size inside
//!   [`reduce`];
//! * whole graphs across a slice in [`reduce_pool`] (one derived seed per
//!   graph; a `reduce` running inside the pool detects the enclosing
//!   parallel region and runs its restarts serially).
//!
//! Graphs with at least [`ReductionOptions::warm_min_nodes`] nodes (16 by
//! default) are **warm-started**: the *first* candidate size (the floor)
//! anneals once from a degeneracy-ordered greedy seed (instead of `sa_runs`
//! cold restarts), every later size is seeded from the previous size's best
//! subgraph (deterministically resized by one-node drops/grows) at a reduced
//! temperature, and on the second size the search compares the measured
//! work of the warm run against a cold-restart proxy and falls back to cold
//! seeding when warm starting is not actually paying for itself. The
//! measurement is an *iteration-count* proxy, never wall-clock, so the
//! decision — like everything else here — is a pure function of the RNG
//! seed and bitwise-identical across thread counts. Smaller graphs anneal
//! every size from cold restarts; `warm_min_nodes: usize::MAX` turns warm
//! starts off for every graph.

use crate::annealing::{
    anneal_subgraph_from_seed_prevalidated, anneal_subgraph_prevalidated, SaOptions,
};
use crate::RedQaoaError;
use graphlib::connectivity::degeneracy_order;
use graphlib::metrics::and_ratio;
use graphlib::subgraph::Subgraph;
use graphlib::Graph;
use mathkit::parallel::parallel_map_indexed;
use mathkit::rng::{derive_seed, seeded};
use rand::Rng;
use std::collections::BinaryHeap;

/// Default minimum acceptable AND ratio between the reduced and original
/// graphs (Section 4.3: a 0.7 ratio corresponds to the 0.02 MSE threshold).
pub const DEFAULT_AND_RATIO_THRESHOLD: f64 = 0.7;

/// Default of [`ReductionOptions::warm_min_nodes`]: the smallest graph the
/// size search warm-starts.
///
/// Below this size each SA run is a few hundred cheap moves, and a search
/// that passes at the floor anneals one size, so there is nothing worth
/// reusing; at and above it the degeneracy seed replaces the floor's
/// `sa_runs` cold restarts with one run, and the seeded runs above a failing
/// floor measurably cut latency (the Figure 18 sizes, 20–320 nodes, all
/// qualify — see `reduce_warm_vs_cold` in the bench crate and
/// `BENCH_reduction.json`).
pub const WARM_START_MIN_NODES: usize = 16;

/// The fraction of [`SaOptions::initial_temp`] a warm-seeded SA run starts
/// at.
///
/// A warm seed is already near the previous size's optimum, so re-heating to
/// the full `T0` would only walk away from it and re-pay the exploration the
/// previous candidate size already performed. The reduced temperature keeps
/// enough mobility to repair the one-node resize while letting the adaptive
/// schedule terminate the (quickly plateauing) run early. The effective warm
/// temperature is additionally kept at or above `4 × final_temp`, so a warm
/// run always performs a useful handful of repair moves.
const WARM_TEMP_FRACTION: f64 = 0.25;

/// What the warm-start gate and the measured comparison did during one
/// [`reduce`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmDecision {
    /// Every candidate size annealed cold: the graph is below
    /// [`ReductionOptions::warm_min_nodes`].
    Cold,
    /// The graph was warm-started and the search stopped at its size floor,
    /// the first candidate size, so no measurement was taken.
    Warm,
    /// The search went past the floor, compared the second size's warm run
    /// against the cold-work proxy and kept warm seeding.
    MeasuredKept,
    /// The search went past the floor, compared, and reverted the remaining
    /// sizes to cold seeding (the warm run was not shorter than the proxy).
    MeasuredReverted,
}

/// Configuration of the full reduction step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReductionOptions {
    /// Minimum acceptable AND ratio (reduced AND / original AND).
    pub and_ratio_threshold: f64,
    /// SA configuration used at every candidate size.
    pub sa: SaOptions,
    /// Number of independent SA runs per candidate size (the best one wins).
    /// Warm-started sizes run once: the seed is deterministic and already
    /// near-optimal, so extra restarts from the same point at reduced
    /// temperature mostly duplicate work (restarts exist to decorrelate from
    /// *bad random* seeds).
    pub sa_runs: usize,
    /// Smallest subgraph size the search will consider.
    pub min_size: usize,
    /// Smallest subgraph size as a fraction of the original node count. The
    /// AND ratio alone would let dense graphs collapse onto tiny cliques
    /// whose landscapes no longer resemble the original's; bounding the
    /// reduction (default: keep at least 65% of the nodes) keeps Red-QAOA in
    /// the ~25–40% node-reduction regime the paper reports.
    pub min_size_fraction: f64,
    /// Smallest graph the size search warm-starts (default:
    /// [`WARM_START_MIN_NODES`]). Below it the handful of candidate sizes
    /// are too cheap for seeding (or measuring) to pay off; `usize::MAX`
    /// anneals every graph cold.
    pub warm_min_nodes: usize,
}

impl Default for ReductionOptions {
    fn default() -> Self {
        Self {
            and_ratio_threshold: DEFAULT_AND_RATIO_THRESHOLD,
            sa: SaOptions::default(),
            sa_runs: 2,
            min_size: 3,
            min_size_fraction: 0.65,
            warm_min_nodes: WARM_START_MIN_NODES,
        }
    }
}

impl ReductionOptions {
    /// Starts a validating builder seeded with [`ReductionOptions::default`].
    pub fn builder() -> ReductionOptionsBuilder {
        ReductionOptionsBuilder::default()
    }

    /// Checks every field (including the nested [`SaOptions`]) against its
    /// documented domain.
    ///
    /// [`reduce`] calls this once at its top; the size search and the SA
    /// runs inside it only `debug_assert` it, so configurations built through
    /// [`ReductionOptionsBuilder`] or [`crate::engine::EngineBuilder`] are
    /// never re-validated on the hot path.
    ///
    /// `min_size` and `sa_runs` are deliberately *not* range-checked here:
    /// the size search has always clamped `min_size` into `[2, n]` and
    /// promoted `sa_runs` to at least one run, and the free [`reduce`] keeps
    /// that behaviour unchanged (it is the documented low-level layer). The
    /// engine layer is stricter where a value is genuinely unsatisfiable —
    /// see `min_size` handling in [`crate::engine::Engine`].
    ///
    /// # Errors
    ///
    /// Returns [`RedQaoaError::InvalidParameter`] naming the offending field
    /// (`and_ratio_threshold`, `min_size_fraction`, or one of the
    /// [`SaOptions`] fields).
    pub fn validate(&self) -> Result<(), RedQaoaError> {
        if !(self.and_ratio_threshold > 0.0 && self.and_ratio_threshold <= 1.0) {
            return Err(RedQaoaError::invalid_parameter(
                "and_ratio_threshold",
                self.and_ratio_threshold,
                "must be in (0, 1]",
            ));
        }
        if !(0.0..=1.0).contains(&self.min_size_fraction) {
            return Err(RedQaoaError::invalid_parameter(
                "min_size_fraction",
                self.min_size_fraction,
                "must be in [0, 1]",
            ));
        }
        self.sa.validate()
    }

    /// Whether the size search warm-starts a graph of `nodes` nodes: at or
    /// above this configuration's [`ReductionOptions::warm_min_nodes`] gate.
    ///
    /// ```
    /// use red_qaoa::reduction::ReductionOptions;
    ///
    /// let options = ReductionOptions::builder()
    ///     .warm_min_nodes(100)
    ///     .build()
    ///     .unwrap();
    /// assert!(!options.warm_enabled_for(99));
    /// assert!(options.warm_enabled_for(100));
    /// ```
    pub fn warm_enabled_for(&self, nodes: usize) -> bool {
        nodes >= self.warm_min_nodes
    }
}

/// Validating builder for [`ReductionOptions`].
///
/// Like [`crate::annealing::SaOptionsBuilder`], setters record values and
/// [`ReductionOptionsBuilder::build`] rejects anything outside the documented
/// domains with an error naming the offending field — so a bad threshold or
/// fraction surfaces at configuration time, not from inside a reduction.
///
/// # Example
///
/// ```
/// use red_qaoa::reduction::ReductionOptions;
///
/// let options = ReductionOptions::builder()
///     .and_ratio_threshold(0.8)
///     .warm_min_nodes(usize::MAX)
///     .build()
///     .unwrap();
/// assert!(!options.warm_enabled_for(1000));
///
/// let err = ReductionOptions::builder()
///     .and_ratio_threshold(1.5)
///     .build()
///     .unwrap_err();
/// assert_eq!(err.field(), Some("and_ratio_threshold"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReductionOptionsBuilder {
    options: ReductionOptions,
}

impl ReductionOptionsBuilder {
    /// Sets the minimum acceptable AND ratio.
    pub fn and_ratio_threshold(mut self, threshold: f64) -> Self {
        self.options.and_ratio_threshold = threshold;
        self
    }

    /// Sets the SA configuration used at every candidate size.
    pub fn sa(mut self, sa: SaOptions) -> Self {
        self.options.sa = sa;
        self
    }

    /// Sets the number of independent SA runs per cold candidate size
    /// (`0` is promoted to one run by the search, as it always has been).
    pub fn sa_runs(mut self, sa_runs: usize) -> Self {
        self.options.sa_runs = sa_runs;
        self
    }

    /// Sets the smallest subgraph size the search will consider (clamped
    /// into `[2, n]` by the search itself; the engine layer additionally
    /// rejects values larger than the job graph as unsatisfiable).
    pub fn min_size(mut self, min_size: usize) -> Self {
        self.options.min_size = min_size;
        self
    }

    /// Sets the smallest subgraph size as a fraction of the original node
    /// count.
    pub fn min_size_fraction(mut self, fraction: f64) -> Self {
        self.options.min_size_fraction = fraction;
        self
    }

    /// Sets the smallest graph the size search warm-starts (`usize::MAX`
    /// anneals every graph cold).
    pub fn warm_min_nodes(mut self, nodes: usize) -> Self {
        self.options.warm_min_nodes = nodes;
        self
    }

    /// Validates every field and returns the finished [`ReductionOptions`].
    ///
    /// # Errors
    ///
    /// Returns [`RedQaoaError::InvalidParameter`] naming the offending field;
    /// see [`ReductionOptions::validate`].
    pub fn build(self) -> Result<ReductionOptions, RedQaoaError> {
        self.options.validate()?;
        Ok(self.options)
    }
}

/// The result of reducing a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct ReducedGraph {
    /// The reduced (distilled) graph with its mapping back to the original.
    pub subgraph: Subgraph,
    /// AND ratio achieved (reduced AND / original AND).
    pub and_ratio: f64,
    /// Fraction of nodes removed.
    pub node_reduction: f64,
    /// Fraction of edges removed.
    pub edge_reduction: f64,
    /// What the warm-start gate and measurement did during this reduction
    /// (telemetry for the benches and the smoke gate; deterministic like
    /// everything else).
    pub warm_decision: WarmDecision,
}

impl ReducedGraph {
    /// The identity (no-op) reduction: the "reduced" graph *is* the original,
    /// with a unit AND ratio and zero node/edge reduction. Depth-only
    /// pipeline modes (`CircuitReduction::Depth`) use this so the
    /// depth-compilation axis can run without the SA search, the reduction
    /// cache, or any RNG consumption.
    pub fn identity(graph: &Graph) -> Self {
        Self {
            subgraph: Subgraph {
                graph: graph.clone(),
                nodes: (0..graph.node_count()).collect(),
            },
            and_ratio: 1.0,
            node_reduction: 0.0,
            edge_reduction: 0.0,
            warm_decision: WarmDecision::Cold,
        }
    }

    /// Convenience accessor for the reduced graph itself.
    pub fn graph(&self) -> &Graph {
        &self.subgraph.graph
    }

    /// Documented *estimate* of this value's memory footprint in bytes:
    /// the struct itself, the node-mapping vector, one `Vec` header per
    /// node, and three words per directed edge entry (the adjacency stores
    /// each undirected edge twice; three words is a generous allowance for
    /// allocation slack per element). The engine's cache accounting
    /// (`CacheStats::bytes`) sums exactly this quantity, so evictions and
    /// inserts balance to zero by construction. The estimate is part of the
    /// cache's eviction policy (cost per byte), so it stays fixed when the
    /// graph's storage changes.
    pub fn approx_heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let word = size_of::<usize>();
        size_of::<Self>()
            + self.subgraph.nodes.len() * word
            + self.graph().node_count() * size_of::<Vec<usize>>()
            + 2 * self.graph().edge_count() * 3 * word
    }
}

/// How one candidate size of the size search is seeded.
enum SizeSeed<'a> {
    /// `sa_runs` independent restarts from random connected seeds.
    Cold,
    /// One full-temperature run from the degeneracy-ordered greedy seed
    /// (the first candidate size of a warm-started search).
    Degeneracy(&'a [usize]),
    /// One reduced-temperature run seeded from the previous candidate
    /// size's best subgraph.
    Warm(&'a [usize]),
}

/// Deterministic degeneracy-ordered greedy seed of size `k`: grow a
/// selection from the densest-core end of the [`degeneracy_order`], always
/// absorbing the boundary node with the highest degeneracy rank (jumping to
/// the highest-rank unselected node only when the selection exhausts its
/// component). No RNG is consumed — the seed is a pure function of the
/// graph — and the dense core it lands on is exactly where a subgraph
/// matching the parent's AND lives, so the single SA run that polishes it
/// replaces `sa_runs` cold restarts at the first candidate size.
fn degeneracy_seed(graph: &Graph, k: usize) -> Vec<usize> {
    let n = graph.node_count();
    debug_assert!(k <= n);
    let order = degeneracy_order(graph);
    let mut rank = vec![0usize; n];
    for (position, &u) in order.iter().enumerate() {
        rank[u] = position;
    }
    let mut in_sel = vec![false; n];
    // Whether a node has entered the boundary heap: each node is pushed at
    // most once, so the heap holds at most `n` entries, not one per edge.
    let mut queued = vec![false; n];
    let mut selection = Vec::with_capacity(k);
    // Max-heap of (degeneracy rank, node): ranks are unique, so the pick is
    // deterministic. Entries selected by the fallback jump are skipped on pop.
    let mut boundary: BinaryHeap<(usize, usize)> = BinaryHeap::with_capacity(n);
    let mut cursor = n;
    while selection.len() < k {
        let mut pick = None;
        while let Some((_, u)) = boundary.pop() {
            if !in_sel[u] {
                pick = Some(u);
                break;
            }
        }
        let u = pick.unwrap_or_else(|| loop {
            cursor -= 1;
            let u = order[cursor];
            if !in_sel[u] {
                break u;
            }
        });
        in_sel[u] = true;
        selection.push(u);
        for w in graph.neighbors(u) {
            if !in_sel[w] && !queued[w] {
                queued[w] = true;
                boundary.push((rank[w], w));
            }
        }
    }
    selection
}

fn best_subgraph_of_size<R: Rng>(
    graph: &Graph,
    k: usize,
    options: &ReductionOptions,
    seed: SizeSeed<'_>,
    rng: &mut R,
) -> Result<(Subgraph, usize), RedQaoaError> {
    debug_assert!(
        options.validate().is_ok(),
        "reduce validates options before the size search"
    );
    let runs_seed: u64 = rng.gen();
    match seed {
        SizeSeed::Warm(seed_selection) => {
            // Warm path: one SA run seeded from the previous candidate
            // size's best subgraph, started at a reduced temperature (the
            // seed is already near-optimal; see `WARM_TEMP_FRACTION`). The
            // resize is
            // deterministic and the single run consumes its own substream,
            // so the result is thread-count invariant just like the cold
            // fan-out.
            let sa = SaOptions {
                initial_temp: (options.sa.initial_temp * WARM_TEMP_FRACTION)
                    .max(options.sa.final_temp * 4.0)
                    .min(options.sa.initial_temp),
                ..options.sa
            };
            let mut run_rng = seeded(derive_seed(runs_seed, 0));
            let outcome = anneal_subgraph_from_seed_prevalidated(
                graph,
                seed_selection,
                k,
                &sa,
                &mut run_rng,
            )?;
            Ok((outcome.subgraph, outcome.iterations))
        }
        SizeSeed::Degeneracy(seed_selection) => {
            // First warm size: one full-temperature run polishing the
            // degeneracy greedy — the seed is already in the dense core, so
            // the `sa_runs` cold restarts (which exist to decorrelate from
            // bad *random* seeds) have nothing left to decorrelate.
            let mut run_rng = seeded(derive_seed(runs_seed, 0));
            let outcome = anneal_subgraph_from_seed_prevalidated(
                graph,
                seed_selection,
                k,
                &options.sa,
                &mut run_rng,
            )?;
            Ok((outcome.subgraph, outcome.iterations))
        }
        SizeSeed::Cold => {
            // Cold path: independent restarts fan out with one derived
            // substream per run, so the winner is the same for every
            // worker-thread count (ties break toward the lowest run index).
            let runs = options.sa_runs.max(1);
            let outcomes = parallel_map_indexed(
                runs,
                || (),
                |_, run| {
                    let mut run_rng = seeded(derive_seed(runs_seed, run as u64));
                    anneal_subgraph_prevalidated(graph, k, &options.sa, &mut run_rng)
                },
            );
            let mut best: Option<(f64, Subgraph)> = None;
            let mut total_iterations = 0usize;
            for outcome in outcomes {
                let outcome = outcome?;
                total_iterations += outcome.iterations;
                let replace = match &best {
                    None => true,
                    Some((obj, _)) => outcome.objective < *obj,
                };
                if replace {
                    best = Some((outcome.objective, outcome.subgraph));
                }
            }
            Ok((best.expect("at least one SA run").1, total_iterations))
        }
    }
}

/// Reduces `graph` to the smallest subgraph whose AND ratio meets the
/// threshold.
///
/// The size floor, `max(min_size, ⌈min_size_fraction · n⌉)` clamped to
/// `[2, n]`, is annealed first; when its best subgraph meets the threshold
/// it is returned, and exactly one `u64` has been drawn from `rng`.
/// Otherwise a binary search runs over the sizes above the floor: if the
/// best subgraph found at size `k` meets the threshold the search tries
/// smaller sizes, otherwise larger ones. The accepted subgraph of the
/// smallest feasible size is returned; if no proper subgraph qualifies the
/// original graph is returned unreduced (a valid, if disappointing, outcome
/// the pipeline handles gracefully). Every size is judged by the same
/// predicate: at least one edge, and an [`and_ratio`] at or above
/// [`ReductionOptions::and_ratio_threshold`].
///
/// For graphs with at least [`ReductionOptions::warm_min_nodes`] nodes,
/// every candidate size after the floor seeds its SA run from the previous
/// size's best subgraph instead of re-annealing from scratch (see
/// `BENCH_reduction.json`'s `warm_vs_cold` record), until the measured
/// comparison on the second size reverts to cold seeding. Smaller graphs
/// anneal every size from cold restarts.
///
/// # Example
///
/// ```
/// use graphlib::generators::connected_gnp;
/// use red_qaoa::reduction::{reduce, ReductionOptions};
///
/// let mut rng = mathkit::rng::seeded(7);
/// let graph = connected_gnp(14, 0.4, &mut rng).unwrap();
/// let reduced = reduce(&graph, &ReductionOptions::default(), &mut rng).unwrap();
/// assert!(reduced.graph().node_count() <= graph.node_count());
/// assert!(reduced.and_ratio >= 0.7 - 1e-9);
/// ```
///
/// # Errors
///
/// Returns [`RedQaoaError::GraphNotReducible`] for graphs with fewer than 2
/// nodes or no edges, and [`RedQaoaError::InvalidParameter`] (naming the
/// offending field) for options outside their documented domains. The
/// validation happens exactly once here — the size search and SA runs
/// below only `debug_assert` it, so there is no validation-driven `Err` path
/// left inside the hot loop.
pub fn reduce<R: Rng>(
    graph: &Graph,
    options: &ReductionOptions,
    rng: &mut R,
) -> Result<ReducedGraph, RedQaoaError> {
    options.validate()?;
    let n = graph.node_count();
    if n < 2 || graph.edge_count() == 0 {
        return Err(RedQaoaError::GraphNotReducible(
            "graph needs at least two nodes and one edge",
        ));
    }
    // One acceptance predicate for every size the search visits.
    let accepts = |candidate: &Subgraph| {
        candidate.graph.edge_count() > 0
            && and_ratio(graph, &candidate.graph) >= options.and_ratio_threshold
    };
    let floor = size_floor(n, options.min_size, options.min_size_fraction);
    let mut warm = WarmSearchState::new(options, n);

    // The floor is the smallest size the search admits, so when its best
    // subgraph passes no other size could be returned: one anneal decides.
    let at_floor = anneal_candidate_size(graph, floor, options, &mut warm, rng)?;
    let subgraph = if accepts(&at_floor) {
        at_floor
    } else {
        // Binary search over (floor, n], warm-seeded from the floor's best.
        let mut lo = (floor + 1).min(n);
        let mut hi = n;
        let mut accepted: Option<Subgraph> = None;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let candidate = anneal_candidate_size(graph, mid, options, &mut warm, rng)?;
            if accepts(&candidate) {
                accepted = Some(candidate);
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        match accepted {
            Some(sub) => sub,
            None => {
                // Try the final size (lo == hi); fall back to the whole graph.
                let candidate = anneal_candidate_size(graph, lo, options, &mut warm, rng)?;
                if accepts(&candidate) {
                    candidate
                } else {
                    Subgraph {
                        graph: graph.clone(),
                        nodes: (0..n).collect(),
                    }
                }
            }
        }
    };

    let (node_reduction, edge_reduction) =
        reduction_fractions(n, graph.edge_count(), &subgraph.graph);
    let ratio = and_ratio(graph, &subgraph.graph);
    Ok(ReducedGraph {
        subgraph,
        and_ratio: ratio,
        node_reduction,
        edge_reduction,
        warm_decision: warm.decision,
    })
}

/// The size floor of the search over a graph with `nodes ≥ 2` nodes,
/// `max(min_size, ⌈min_size_fraction · nodes⌉)` clamped to `[2, nodes]`:
/// the first size [`reduce`] anneals, which the persistent store recomputes
/// to check a record's warm decision.
pub(crate) fn size_floor(nodes: usize, min_size: usize, min_size_fraction: f64) -> usize {
    let fraction_floor = (min_size_fraction * nodes as f64).ceil() as usize;
    min_size.max(fraction_floor).clamp(2, nodes)
}

/// The fractions of nodes and of edges a reduction to `reduced` removes
/// from a graph with `nodes` nodes and `edges` edges: the
/// [`ReducedGraph::node_reduction`] and [`ReducedGraph::edge_reduction`]
/// of [`reduce`], which the persistent store recomputes to validate
/// records.
pub(crate) fn reduction_fractions(nodes: usize, edges: usize, reduced: &Graph) -> (f64, f64) {
    (
        1.0 - reduced.node_count() as f64 / nodes as f64,
        1.0 - reduced.edge_count() as f64 / edges as f64,
    )
}

/// Mutable warm-start bookkeeping threaded through the size search.
struct WarmSearchState {
    /// Whether the *next* candidate size will be warm-seeded.
    active: bool,
    /// Cold-work proxy: `sa_runs ×` the first size's iteration count.
    cold_proxy: Option<usize>,
    /// Best subgraph of the most recently evaluated size: the warm seed for
    /// the next candidate size.
    last_best: Option<Vec<usize>>,
    /// What the search decided, reported as [`ReducedGraph::warm_decision`].
    /// [`WarmDecision::Warm`] while the cold-vs-warm comparison is pending
    /// (it runs on the first warm-seeded size, i.e. the second size).
    decision: WarmDecision,
}

impl WarmSearchState {
    /// The state before the first candidate size of a graph of `nodes`
    /// nodes: a search that stops there reports [`WarmDecision::Warm`] or
    /// [`WarmDecision::Cold`] by the size gate alone.
    fn new(options: &ReductionOptions, nodes: usize) -> Self {
        let enabled = options.warm_enabled_for(nodes);
        Self {
            active: enabled,
            cold_proxy: None,
            last_best: None,
            decision: if enabled {
                WarmDecision::Warm
            } else {
                WarmDecision::Cold
            },
        }
    }
}

/// Anneals one candidate size of the size search, choosing the seeding
/// mode from the warm-start state and updating it afterwards (including the
/// cold-vs-warm comparison on the second size). Exactly one `u64` is drawn
/// from `rng` per call — the per-size substream root — whatever the seeding
/// mode, so warm and cold searches stay on the same RNG stream schedule.
fn anneal_candidate_size<R: Rng>(
    graph: &Graph,
    k: usize,
    options: &ReductionOptions,
    warm: &mut WarmSearchState,
    rng: &mut R,
) -> Result<Subgraph, RedQaoaError> {
    let degen_holder;
    let seed = if !warm.active {
        SizeSeed::Cold
    } else if let Some(previous) = warm.last_best.as_deref() {
        SizeSeed::Warm(previous)
    } else {
        degen_holder = degeneracy_seed(graph, k);
        SizeSeed::Degeneracy(&degen_holder)
    };
    let first_warm_size = warm.active && warm.last_best.is_none();
    let warm_seeded = matches!(seed, SizeSeed::Warm(_));
    let (candidate, iterations) = best_subgraph_of_size(graph, k, options, seed, rng)?;
    if warm.active {
        if first_warm_size {
            warm.cold_proxy = Some(options.sa_runs.max(1).saturating_mul(iterations));
        } else if warm_seeded && warm.decision == WarmDecision::Warm {
            // The warm run must beat re-annealing this size cold —
            // `sa_runs` restarts of roughly the first size's length. Both
            // quantities are iteration counts (deterministic), never
            // wall-clock, so the decision is thread-count invariant.
            if iterations >= warm.cold_proxy.unwrap_or(usize::MAX) {
                warm.active = false;
                warm.decision = WarmDecision::MeasuredReverted;
                warm.last_best = None;
            } else {
                warm.decision = WarmDecision::MeasuredKept;
            }
        }
        if warm.active {
            warm.last_best = Some(candidate.nodes.clone());
        }
    }
    Ok(candidate)
}

/// Reduces every graph of a slice in parallel, one RNG substream per graph.
///
/// Graph `i` is reduced with a generator seeded by
/// `derive_seed(seed, i)`, so the output is **bitwise-identical for every
/// `RED_QAOA_THREADS` value** (the same contract as the landscape scans; see
/// `tests/parallel_determinism.rs` and `docs/determinism.md` at the
/// repository root for the full contract). Errors are reported per graph
/// rather than aborting the pool — a too-small or edgeless graph yields an
/// `Err` entry while the rest of the slice still reduces.
///
/// # Example
///
/// ```
/// use graphlib::generators::connected_gnp;
/// use red_qaoa::reduction::{reduce_pool, ReductionOptions};
///
/// let graphs: Vec<_> = (0..3)
///     .map(|i| connected_gnp(10, 0.4, &mut mathkit::rng::seeded(i)).unwrap())
///     .collect();
/// let results = reduce_pool(&graphs, &ReductionOptions::default(), 42);
/// assert_eq!(results.len(), 3);
/// assert!(results.iter().all(|r| r.is_ok()));
/// ```
pub fn reduce_pool(
    graphs: &[Graph],
    options: &ReductionOptions,
    seed: u64,
) -> Vec<Result<ReducedGraph, RedQaoaError>> {
    parallel_map_indexed(
        graphs.len(),
        || (),
        |_, i| {
            let mut rng = seeded(derive_seed(seed, i as u64));
            reduce(&graphs[i], options, &mut rng)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlib::generators::{complete, connected_gnp, cycle, star};
    use graphlib::traversal::is_connected;
    use mathkit::rng::seeded;

    #[test]
    fn reduction_meets_threshold_and_shrinks_graph() {
        let mut rng = seeded(1);
        let g = connected_gnp(14, 0.4, &mut rng).unwrap();
        let reduced = reduce(&g, &ReductionOptions::default(), &mut rng).unwrap();
        assert!(reduced.and_ratio >= DEFAULT_AND_RATIO_THRESHOLD - 1e-9);
        assert!(reduced.graph().node_count() <= g.node_count());
        assert!(reduced.graph().node_count() >= 3);
        assert!(is_connected(reduced.graph()));
        assert!(reduced.node_reduction >= 0.0 && reduced.node_reduction < 1.0);
        assert!(reduced.edge_reduction >= 0.0 && reduced.edge_reduction < 1.0);
    }

    #[test]
    fn warm_cold_comparison_runs_at_most_once_per_search() {
        // A search whose comparison already kept the warm path must not
        // re-measure on a later warm-seeded size: with a cold proxy of 0
        // every re-measurement would revert.
        let mut rng = seeded(11);
        let g = connected_gnp(20, 0.3, &mut rng).unwrap();
        let options = ReductionOptions::default();
        let mut warm = WarmSearchState::new(&options, g.node_count());
        assert!(warm.active);
        anneal_candidate_size(&g, 10, &options, &mut warm, &mut rng).unwrap();
        warm.decision = WarmDecision::MeasuredKept;
        warm.cold_proxy = Some(0);
        let candidate = anneal_candidate_size(&g, 12, &options, &mut warm, &mut rng).unwrap();
        assert_eq!(warm.decision, WarmDecision::MeasuredKept);
        assert!(warm.active);
        assert_eq!(warm.last_best, Some(candidate.nodes));
    }

    #[test]
    fn reduction_of_dense_graph_achieves_substantial_shrink() {
        let mut rng = seeded(2);
        let g = connected_gnp(16, 0.5, &mut rng).unwrap();
        let reduced = reduce(&g, &ReductionOptions::default(), &mut rng).unwrap();
        assert!(
            reduced.node_reduction > 0.2,
            "node reduction only {:.2}",
            reduced.node_reduction
        );
    }

    #[test]
    fn complete_graph_cannot_meet_tight_threshold_and_falls_back() {
        // Every proper subgraph of K_n has a strictly smaller AND; with a
        // threshold of 0.99 nothing qualifies, so the original is returned.
        let g = complete(8);
        let mut rng = seeded(3);
        let options = ReductionOptions {
            and_ratio_threshold: 0.99,
            ..Default::default()
        };
        let reduced = reduce(&g, &options, &mut rng).unwrap();
        assert_eq!(reduced.graph().node_count(), 8);
        assert_eq!(reduced.node_reduction, 0.0);
        assert!((reduced.and_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn star_graphs_are_hard_to_reduce() {
        // Removing any leaf of a star lowers the AND proportionally, so the
        // reduction is limited — the behaviour the paper reports for dense
        // hub-like IMDb graphs.
        let g = star(9).unwrap();
        let mut rng = seeded(4);
        let reduced = reduce(&g, &ReductionOptions::default(), &mut rng).unwrap();
        assert!(reduced.and_ratio >= DEFAULT_AND_RATIO_THRESHOLD - 1e-9);
        assert!(reduced.graph().node_count() >= 5);
    }

    #[test]
    fn cycles_reduce_aggressively() {
        // Any path subgraph of a cycle keeps AND close to 2, so cycles can be
        // shrunk down to the minimum size.
        let g = cycle(16).unwrap();
        let mut rng = seeded(5);
        let reduced = reduce(&g, &ReductionOptions::default(), &mut rng).unwrap();
        assert!(
            reduced.graph().node_count() <= 11,
            "kept {} nodes",
            reduced.graph().node_count()
        );
        assert!(reduced.node_reduction >= 0.3);
    }

    #[test]
    fn threshold_validation_and_degenerate_graphs() {
        let mut rng = seeded(6);
        let g = cycle(6).unwrap();
        let bad = ReductionOptions {
            and_ratio_threshold: 0.0,
            ..Default::default()
        };
        assert!(reduce(&g, &bad, &mut rng).is_err());
        assert!(reduce(&Graph::new(1), &ReductionOptions::default(), &mut rng).is_err());
        assert!(reduce(&Graph::new(5), &ReductionOptions::default(), &mut rng).is_err());
    }

    #[test]
    fn reduce_pool_matches_per_graph_reduce_and_reports_errors_in_place() {
        let mut rng = seeded(9);
        let mut graphs: Vec<Graph> = (0..3)
            .map(|_| connected_gnp(10, 0.4, &mut rng).unwrap())
            .collect();
        graphs.insert(1, Graph::new(4)); // edgeless: must fail in place
        let results = reduce_pool(&graphs, &ReductionOptions::default(), 42);
        assert_eq!(results.len(), 4);
        assert!(results[1].is_err());
        for (i, result) in results.iter().enumerate() {
            if i == 1 {
                continue;
            }
            let pooled = result.as_ref().unwrap();
            let mut solo_rng = seeded(mathkit::rng::derive_seed(42, i as u64));
            let solo = reduce(&graphs[i], &ReductionOptions::default(), &mut solo_rng).unwrap();
            assert_eq!(pooled, &solo, "graph {i} diverged from a solo reduce");
        }
    }

    #[test]
    fn a_passing_floor_is_one_anneal_and_one_draw() {
        // A 16-cycle and an 18-node G(n, 0.35), both at or above the warm
        // gate: both pass at the floor, so the search anneals once, draws
        // one u64, keeps ceil(0.65 n) nodes and reports a warm stop.
        let cases = [
            cycle(16).unwrap(),
            connected_gnp(18, 0.35, &mut seeded(101)).unwrap(),
        ];
        for graph in cases {
            let n = graph.node_count();
            let mut rng = seeded(11);
            let mut advanced_once = rng.clone();
            let _: u64 = advanced_once.gen();
            let options = ReductionOptions::default();
            let reduced = reduce(&graph, &options, &mut rng).unwrap();
            assert_eq!(rng, advanced_once, "{n} nodes: one u64 drawn");
            assert_eq!(
                reduced.graph().node_count(),
                (0.65 * n as f64).ceil() as usize
            );
            assert!(reduced.and_ratio >= DEFAULT_AND_RATIO_THRESHOLD);
            assert_eq!(reduced.warm_decision, WarmDecision::Warm);
        }
    }

    #[test]
    fn a_failing_floor_searches_above_it_thread_count_invariantly() {
        // Every k-node subgraph of K_16 is K_k, at AND ratio (k - 1) / 15:
        // the floor (11 nodes, 10/15) misses 0.7, and 12 nodes is the
        // smallest size that clears it.
        let graph = complete(16);
        for warm_min_nodes in [usize::MAX, WARM_START_MIN_NODES] {
            let options = ReductionOptions {
                warm_min_nodes,
                ..Default::default()
            };
            let run = |threads| {
                mathkit::parallel::with_threads(threads, || {
                    reduce(&graph, &options, &mut seeded(12)).unwrap()
                })
            };
            let serial = run(1);
            assert_eq!(serial.graph().node_count(), 12, "gate {warm_min_nodes}");
            assert!(serial.and_ratio >= DEFAULT_AND_RATIO_THRESHOLD);
            assert_eq!(run(4), serial, "gate {warm_min_nodes}");
        }
    }

    #[test]
    fn lower_threshold_allows_smaller_graphs() {
        let mut rng = seeded(8);
        let g = connected_gnp(14, 0.45, &mut rng).unwrap();
        let strict = reduce(
            &g,
            &ReductionOptions {
                and_ratio_threshold: 0.9,
                ..Default::default()
            },
            &mut seeded(100),
        )
        .unwrap();
        let loose = reduce(
            &g,
            &ReductionOptions {
                and_ratio_threshold: 0.5,
                ..Default::default()
            },
            &mut seeded(100),
        )
        .unwrap();
        assert!(loose.graph().node_count() <= strict.graph().node_count());
    }
}
