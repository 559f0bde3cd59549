//! Algorithm 1: simulated-annealing subgraph search.
//!
//! The SA state is a set of `k` nodes inducing a subgraph of the input graph,
//! maintained incrementally by [`crate::sa_state::SaState`]: membership
//! bitset, cached internal-degree sums, and a deduplicated boundary set, so
//! each candidate move is scored in `O(deg(out) + deg(inn))` plus a
//! neighborhood-limited connectivity check — no induced subgraph is ever
//! rebuilt inside the loop and the steady state performs zero allocations.
//!
//! A move swaps one selected node for an unselected *boundary* node (uniform
//! over the deduplicated boundary, matching Algorithm 1's uniform neighbor
//! pick); because the incoming node is never already selected, every
//! iteration performs a genuine Metropolis step — no degenerate
//! duplicate-producing swaps exist that could burn an iteration and cool the
//! temperature without evaluating a move. The objective is the absolute
//! difference between the subgraph's Average Node Degree (AND) and the
//! original graph's AND, with a penalty for disconnecting the subgraph.
//!
//! Acceptance and cooling semantics:
//!
//! * moves that strictly improve the objective are always accepted; worse
//!   moves are accepted with probability `exp(-(Δf)/T)`;
//! * neutral moves (`Δf = 0`) are therefore always accepted (`p < exp(0)`
//!   always holds) **but count toward the stagnation streak exactly like
//!   rejections** — on degenerate landscapes (e.g. complete graphs, where
//!   every swap is neutral) the adaptive schedule engages and terminates the
//!   plateaued search instead of running the full constant-cooling budget.
//!   Improving accepts and genuine uphill accepts (the annealer still
//!   exploring at temperature) reset the streak;
//! * the temperature `T` then cools by either a constant factor (`T ← α·T`)
//!   or the adaptive factor, which strengthens once the stagnation streak
//!   outgrows a short patience window. Both the window
//!   ([`SaOptions::stagnation_patience`]) and the strengthening rate
//!   ([`SaOptions::boost_divisor`]) are exposed knobs, swept on the Figure 8
//!   ablation.
//!
//! Two entry points share the loop: [`anneal_subgraph`] samples a fresh
//! random connected seed (Algorithm 1 line 3), while
//! [`anneal_subgraph_from_seed`] warm-starts from a caller-supplied
//! selection — typically the best subgraph of the *previous* candidate size
//! in the [`crate::reduction`] binary search — deterministically resized to
//! `k` by [`resize_selection`].

use crate::sa_state::SaState;
use crate::RedQaoaError;
use graphlib::connectivity::{AdjacencyCsr, ArticulationPoints};
use graphlib::metrics::average_node_degree;
use graphlib::subgraph::{induced_subgraph, random_connected_nodes, Subgraph};
use graphlib::Graph;
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cooling schedule of the simulated annealer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoolingSchedule {
    /// Multiply the temperature by a constant factor every step: `T ← α·T`.
    Constant(f64),
    /// Adaptive cooling: the factor starts at `base` and decreases once the
    /// streak of stagnating steps (rejections and neutral accepts) outgrows
    /// a short patience window, so plateaued searches cool (and therefore
    /// terminate) faster. This is the lower-overhead schedule the paper
    /// equips Red-QAOA with by default.
    Adaptive {
        /// Cooling factor applied while the search is still making progress.
        base: f64,
    },
}

/// Default for [`SaOptions::stagnation_patience`]: non-improving steps
/// tolerated before the adaptive schedule starts strengthening its cooling
/// factor.
pub const DEFAULT_STAGNATION_PATIENCE: usize = 30;

/// Default for [`SaOptions::boost_divisor`]: non-improving steps beyond the
/// patience window per unit increase of the adaptive cooling exponent.
pub const DEFAULT_BOOST_DIVISOR: f64 = 5.0;

impl CoolingSchedule {
    fn factor(&self, stagnation_streak: usize, patience: usize, boost_divisor: f64) -> f64 {
        match *self {
            CoolingSchedule::Constant(alpha) => alpha,
            CoolingSchedule::Adaptive { base } => {
                // Beyond the patience window, every `boost_divisor` further
                // non-improving steps strengthen the cooling by one more
                // power of `base`.
                let excess = stagnation_streak.saturating_sub(patience);
                let boost = 1.0 + excess as f64 / boost_divisor;
                base.powf(boost)
            }
        }
    }
}

/// Configuration of the simulated-annealing search (the inputs of
/// Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaOptions {
    /// Initial temperature `T0`.
    pub initial_temp: f64,
    /// Stopping temperature `Tf`.
    pub final_temp: f64,
    /// Cooling schedule (`α` and the `is_adaptive` flag of the pseudocode).
    pub cooling: CoolingSchedule,
    /// Penalty added to the objective per extra connected component of the
    /// candidate subgraph (keeps the search on connected subgraphs).
    pub disconnection_penalty: f64,
    /// Non-improving steps (rejections and neutral accepts) tolerated before
    /// [`CoolingSchedule::Adaptive`] starts strengthening its cooling factor.
    /// Has no effect on [`CoolingSchedule::Constant`].
    pub stagnation_patience: usize,
    /// Once the stagnation streak exceeds the patience window, every
    /// `boost_divisor` further non-improving steps raise the adaptive cooling
    /// exponent by one (smaller values cool plateaued searches faster). Has
    /// no effect on [`CoolingSchedule::Constant`].
    pub boost_divisor: f64,
}

impl Default for SaOptions {
    /// The defaults behind every experiment and the [`crate::reduction`]
    /// binary search.
    ///
    /// `stagnation_patience = 30` and `boost_divisor = 5` were validated by
    /// the Figure 8 ablation sweep (`fig08_pooling_comparison
    /// --sweep-sa-knobs`, see `experiments::pooling_cmp::run_sa_knob_sweep`):
    /// across patience ∈ {5, 15, 30, 60} × divisor ∈ {2, 5, 10} the achieved
    /// landscape MSE is *identical to five decimals* (0.00701 at reduction
    /// ratio 0.30) — the knobs only start cooling faster after the search
    /// has already plateaued, so they price the post-plateau tail, not the
    /// solution — while mean SA iterations grow monotonically with both
    /// (60.8 at (5, 2) up to 121.0 at (60, 10); 94.5 at the default).
    /// (30, 5) is kept rather than the cheapest grid point because (a) the
    /// margin guards against mistaking a *temporary* plateau for
    /// convergence on larger, rougher instances than the Figure 8 protocol
    /// exercises, and (b) it preserves the pre-PR-4 outputs bit for bit
    /// (the cold-search pin in `tests/warm_start_regression.rs`).
    /// Callers that only need a coarse subgraph fast can drop to
    /// `(patience = 5, boost_divisor = 2)` for ~35% fewer iterations at
    /// unchanged Figure 8 quality.
    fn default() -> Self {
        Self {
            initial_temp: 1.0,
            final_temp: 1e-3,
            cooling: CoolingSchedule::Adaptive { base: 0.95 },
            disconnection_penalty: 10.0,
            stagnation_patience: DEFAULT_STAGNATION_PATIENCE,
            boost_divisor: DEFAULT_BOOST_DIVISOR,
        }
    }
}

impl SaOptions {
    /// Starts a validating builder seeded with [`SaOptions::default`].
    pub fn builder() -> SaOptionsBuilder {
        SaOptionsBuilder::default()
    }

    /// Checks every field against its documented domain.
    ///
    /// This is the single validation authority for SA configurations: the
    /// [`SaOptionsBuilder`], [`crate::reduction::ReductionOptionsBuilder`],
    /// and [`crate::engine::EngineBuilder`] all call it from their `build`
    /// methods, and the public annealing entry points call it once per run.
    /// The hot loop itself only `debug_assert`s it.
    ///
    /// # Errors
    ///
    /// Returns [`RedQaoaError::InvalidParameter`] naming the offending field
    /// (`cooling`, `final_temp`, `initial_temp`, `disconnection_penalty`, or
    /// `boost_divisor`).
    pub fn validate(&self) -> Result<(), RedQaoaError> {
        let alpha = match self.cooling {
            CoolingSchedule::Constant(a) | CoolingSchedule::Adaptive { base: a } => a,
        };
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(RedQaoaError::invalid_parameter(
                "cooling",
                alpha,
                "cooling factor must be in (0, 1)",
            ));
        }
        if self.final_temp <= 0.0 || self.final_temp.is_nan() {
            return Err(RedQaoaError::invalid_parameter(
                "final_temp",
                self.final_temp,
                "must be positive",
            ));
        }
        if self.initial_temp <= self.final_temp || self.initial_temp.is_nan() {
            return Err(RedQaoaError::invalid_parameter(
                "initial_temp",
                self.initial_temp,
                "must exceed final_temp",
            ));
        }
        if self.disconnection_penalty < 0.0 || self.disconnection_penalty.is_nan() {
            return Err(RedQaoaError::invalid_parameter(
                "disconnection_penalty",
                self.disconnection_penalty,
                "must be non-negative",
            ));
        }
        if self.boost_divisor <= 0.0 || self.boost_divisor.is_nan() {
            return Err(RedQaoaError::invalid_parameter(
                "boost_divisor",
                self.boost_divisor,
                "must be positive",
            ));
        }
        Ok(())
    }
}

/// Validating builder for [`SaOptions`].
///
/// Setters record the value; [`SaOptionsBuilder::build`] checks every field
/// against its documented domain and reports the offending field by name, so
/// a bad configuration is rejected once, up front, instead of deep inside a
/// reduction run.
///
/// # Example
///
/// ```
/// use red_qaoa::annealing::SaOptions;
///
/// let sa = SaOptions::builder()
///     .initial_temp(2.0)
///     .final_temp(1e-4)
///     .stagnation_patience(10)
///     .build()
///     .unwrap();
/// assert_eq!(sa.stagnation_patience, 10);
///
/// let err = SaOptions::builder().final_temp(-1.0).build().unwrap_err();
/// assert_eq!(err.field(), Some("final_temp"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SaOptionsBuilder {
    options: SaOptions,
}

impl SaOptionsBuilder {
    /// Sets the initial temperature `T0`.
    pub fn initial_temp(mut self, initial_temp: f64) -> Self {
        self.options.initial_temp = initial_temp;
        self
    }

    /// Sets the stopping temperature `Tf`.
    pub fn final_temp(mut self, final_temp: f64) -> Self {
        self.options.final_temp = final_temp;
        self
    }

    /// Sets the cooling schedule.
    pub fn cooling(mut self, cooling: CoolingSchedule) -> Self {
        self.options.cooling = cooling;
        self
    }

    /// Sets the per-extra-component disconnection penalty.
    pub fn disconnection_penalty(mut self, penalty: f64) -> Self {
        self.options.disconnection_penalty = penalty;
        self
    }

    /// Sets the adaptive-cooling stagnation patience window.
    pub fn stagnation_patience(mut self, patience: usize) -> Self {
        self.options.stagnation_patience = patience;
        self
    }

    /// Sets the adaptive-cooling boost divisor.
    pub fn boost_divisor(mut self, divisor: f64) -> Self {
        self.options.boost_divisor = divisor;
        self
    }

    /// Validates every field and returns the finished [`SaOptions`].
    ///
    /// # Errors
    ///
    /// Returns [`RedQaoaError::InvalidParameter`] naming the offending field;
    /// see [`SaOptions::validate`].
    pub fn build(self) -> Result<SaOptions, RedQaoaError> {
        self.options.validate()?;
        Ok(self.options)
    }
}

/// Outcome of one SA run.
#[derive(Debug, Clone, PartialEq)]
pub struct SaOutcome {
    /// The best subgraph found.
    pub subgraph: Subgraph,
    /// Final objective value (|AND difference| of the best subgraph).
    pub objective: f64,
    /// Number of SA iterations performed.
    pub iterations: usize,
    /// Number of accepted moves.
    pub accepted: usize,
}

/// From-scratch objective used only at run boundaries (final reporting); the
/// hot loop goes through [`SaState`].
fn objective_from_scratch(
    graph: &Graph,
    nodes: &[usize],
    target_and: f64,
    penalty: f64,
) -> (f64, Subgraph) {
    let sub = induced_subgraph(graph, nodes).expect("nodes are valid");
    let and = average_node_degree(&sub.graph);
    let components = graphlib::traversal::connected_components(&sub.graph).len();
    let value = (and - target_and).abs() + penalty * (components.saturating_sub(1)) as f64;
    (value, sub)
}

/// The Metropolis loop shared by [`anneal_subgraph`] and
/// [`anneal_subgraph_from_seed`]: anneals from `initial_nodes`, already
/// validated and sized.
fn run_sa<R: Rng>(
    graph: &Graph,
    initial_nodes: &[usize],
    target_and: f64,
    options: &SaOptions,
    rng: &mut R,
) -> Result<SaOutcome, RedQaoaError> {
    let mut state = SaState::new(
        graph,
        initial_nodes,
        target_and,
        options.disconnection_penalty,
    )?;
    let mut best_nodes = state.nodes().to_vec();
    let mut best_value = state.objective();

    let mut temperature = options.initial_temp;
    let mut iterations = 0usize;
    let mut accepted = 0usize;
    let mut stagnation_streak = 0usize;
    // The cooling factor is a pure function of the stagnation streak, so
    // each streak length's `powf` is paid once per run: `factors[s]` is the
    // factor at streak `s`, the same bits as a fresh call.
    let mut factors: Vec<f64> = Vec::new();

    while temperature > options.final_temp {
        iterations += 1;
        // Line 6: neighbouring subgraph — swap one selected node for a
        // boundary node (uniform over the deduplicated boundary; the swap can
        // never duplicate a selected node by construction).
        let Some((out, inn)) = state.propose(rng) else {
            break; // k == n, nothing to swap.
        };
        let current_value = state.objective();
        // Lines 9–16: staged Metropolis acceptance. The AND-only bound is a
        // lower bound on the candidate objective (the disconnection penalty
        // is non-negative), so when it already meets or exceeds the current
        // value the move is certainly non-improving and the uniform draw
        // happens *now*, exactly where the full evaluation would have drawn
        // it. Because `exp(-(x - current) / T)` is monotone decreasing in
        // `x` (IEEE subtraction, division, and `exp` are all monotone), a
        // draw that rejects the bound's acceptance probability rejects the
        // true candidate's too — the expensive connectivity evaluation is
        // skipped with bitwise-identical draw counts and accept decisions.
        let and_bound = state.evaluate_and_bound(out, inn);
        let (accept, candidate_value) = if and_bound >= current_value {
            let p: f64 = rng.gen();
            if p >= (-(and_bound - current_value) / temperature).exp() {
                (false, and_bound)
            } else {
                let candidate_value = state.evaluate_swap(out, inn);
                let accept = p < (-(candidate_value - current_value) / temperature).exp();
                (accept, candidate_value)
            }
        } else {
            let candidate_value = state.evaluate_swap(out, inn);
            let accept = candidate_value < current_value || {
                let p: f64 = rng.gen();
                p < (-(candidate_value - current_value) / temperature).exp()
            };
            (accept, candidate_value)
        };
        if accept {
            state.apply_swap(out, inn);
            accepted += 1;
            if candidate_value < best_value {
                best_value = candidate_value;
                best_nodes.clear();
                best_nodes.extend_from_slice(state.nodes());
            }
        }
        // Lines 17–21: cooling. Neutral accepts (always taken, since
        // `p < exp(0)` always holds) count toward the stagnation streak
        // exactly like rejections, so a plateaued search — e.g. a complete
        // graph where every swap is neutral — engages the adaptive schedule
        // and terminates. Strict improvements and genuine uphill accepts
        // (the annealer still exploring at temperature) reset it.
        if accept && candidate_value != current_value {
            stagnation_streak = 0;
        } else {
            stagnation_streak += 1;
        }
        while factors.len() <= stagnation_streak {
            factors.push(options.cooling.factor(
                factors.len(),
                options.stagnation_patience,
                options.boost_divisor,
            ));
        }
        temperature *= factors[stagnation_streak];
    }

    let (final_value, subgraph) = objective_from_scratch(
        graph,
        &best_nodes,
        target_and,
        options.disconnection_penalty,
    );
    Ok(SaOutcome {
        subgraph,
        objective: final_value,
        iterations,
        accepted,
    })
}

/// Runs Algorithm 1: searches for a connected `k`-node subgraph of `graph`
/// whose AND is as close as possible to the AND of `graph`.
///
/// # Example
///
/// ```
/// use graphlib::generators::cycle;
/// use red_qaoa::annealing::{anneal_subgraph, SaOptions};
///
/// let graph = cycle(12).unwrap();
/// let mut rng = mathkit::rng::seeded(1);
/// let outcome = anneal_subgraph(&graph, 8, &SaOptions::default(), &mut rng).unwrap();
/// assert_eq!(outcome.subgraph.graph.node_count(), 8);
/// // A connected 8-node subgraph of a cycle is a path: |AND diff| = 0.25.
/// assert!(outcome.objective <= 0.25 + 1e-9);
/// ```
///
/// # Errors
///
/// Returns [`RedQaoaError::InvalidParameter`] for invalid temperatures or
/// cooling factors, and [`RedQaoaError::GraphNotReducible`] if `k` is out of
/// range or no connected subgraph of size `k` can be sampled.
pub fn anneal_subgraph<R: Rng>(
    graph: &Graph,
    k: usize,
    options: &SaOptions,
    rng: &mut R,
) -> Result<SaOutcome, RedQaoaError> {
    options.validate()?;
    anneal_subgraph_prevalidated(graph, k, options, rng)
}

/// [`anneal_subgraph`] without the per-call options validation: the caller
/// (the [`crate::reduction`] binary search, which validates once up front)
/// vouches for the configuration, so the hot path carries no
/// validation-driven `Err` branch — only a `debug_assert`.
pub(crate) fn anneal_subgraph_prevalidated<R: Rng>(
    graph: &Graph,
    k: usize,
    options: &SaOptions,
    rng: &mut R,
) -> Result<SaOutcome, RedQaoaError> {
    debug_assert!(
        options.validate().is_ok(),
        "caller must pre-validate SaOptions"
    );
    let n = graph.node_count();
    if k == 0 || k > n {
        return Err(RedQaoaError::GraphNotReducible(
            "subgraph size must be between 1 and the node count",
        ));
    }
    let target_and = average_node_degree(graph);

    // Line 3: random connected initial subgraph.
    let initial = random_connected_nodes(graph, k, rng)
        .map_err(|_| RedQaoaError::GraphNotReducible("no connected subgraph of this size"))?;
    run_sa(graph, &initial, target_and, options, rng)
}

/// Runs Algorithm 1 starting from `seed_selection` instead of a fresh random
/// connected seed.
///
/// The seed — typically the best subgraph found at a *different* candidate
/// size by the [`crate::reduction`] binary search — is first resized to `k`
/// by [`resize_selection`] (greedy one-node drops/grows that keep the
/// selection connected via its boundary set), then annealed exactly like
/// [`anneal_subgraph`]. Because the resize is deterministic, the outcome is
/// a pure function of `(graph, seed_selection, k, options, rng seed)`.
///
/// # Example
///
/// ```
/// use graphlib::generators::cycle;
/// use red_qaoa::annealing::{anneal_subgraph_from_seed, SaOptions};
///
/// let graph = cycle(12).unwrap();
/// // Warm-start the size-7 search from a known size-9 path.
/// let seed: Vec<usize> = (0..9).collect();
/// let mut rng = mathkit::rng::seeded(2);
/// let outcome =
///     anneal_subgraph_from_seed(&graph, &seed, 7, &SaOptions::default(), &mut rng).unwrap();
/// assert_eq!(outcome.subgraph.graph.node_count(), 7);
/// ```
///
/// # Errors
///
/// Returns [`RedQaoaError::InvalidParameter`] for invalid options or an
/// empty/duplicate/out-of-range seed, and [`RedQaoaError::GraphNotReducible`]
/// if `k` is out of range.
pub fn anneal_subgraph_from_seed<R: Rng>(
    graph: &Graph,
    seed_selection: &[usize],
    k: usize,
    options: &SaOptions,
    rng: &mut R,
) -> Result<SaOutcome, RedQaoaError> {
    options.validate()?;
    anneal_subgraph_from_seed_prevalidated(graph, seed_selection, k, options, rng)
}

/// [`anneal_subgraph_from_seed`] without the per-call options validation;
/// see [`anneal_subgraph_prevalidated`].
pub(crate) fn anneal_subgraph_from_seed_prevalidated<R: Rng>(
    graph: &Graph,
    seed_selection: &[usize],
    k: usize,
    options: &SaOptions,
    rng: &mut R,
) -> Result<SaOutcome, RedQaoaError> {
    debug_assert!(
        options.validate().is_ok(),
        "caller must pre-validate SaOptions"
    );
    let n = graph.node_count();
    if k == 0 || k > n {
        return Err(RedQaoaError::GraphNotReducible(
            "subgraph size must be between 1 and the node count",
        ));
    }
    let target_and = average_node_degree(graph);
    let initial = resize_selection(graph, seed_selection, k)?;
    run_sa(graph, &initial, target_and, options, rng)
}

/// Deterministically resizes `seed` to exactly `k` nodes, one node at a time.
///
/// Shrinking drops the selected node whose removal brings the selection's
/// AND closest to the parent graph's (skipping cut vertices, so a connected
/// seed stays connected); growing adds the boundary node — an outside node
/// with at least one selected neighbor — whose addition does. Ties break
/// toward the lowest node index, and no RNG is consumed, so the result is a
/// pure function of `(graph, seed, k)`: warm-started reductions stay
/// bitwise-deterministic across thread counts.
///
/// # Errors
///
/// Returns [`RedQaoaError::InvalidParameter`] if the seed is empty, contains
/// duplicates, or references a node outside the graph, and
/// [`RedQaoaError::GraphNotReducible`] if `k` is out of range.
pub fn resize_selection(
    graph: &Graph,
    seed: &[usize],
    k: usize,
) -> Result<Vec<usize>, RedQaoaError> {
    resize_selection_with_scratch(graph, seed, k, &mut ResizeScratch::default())
}

/// Reusable buffers for [`resize_selection_with_scratch`]: membership mask,
/// degree cache, CSR adjacency snapshot, Tarjan articulation-point state,
/// the eviction heap, and the debug-oracle BFS buffers are all retained
/// across calls, so steady-state resizing performs no per-call allocations.
///
/// # Example
///
/// ```
/// use graphlib::generators::cycle;
/// use red_qaoa::annealing::{resize_selection_with_scratch, ResizeScratch};
///
/// let graph = cycle(8).unwrap();
/// let mut scratch = ResizeScratch::default();
/// let five = resize_selection_with_scratch(&graph, &[0, 1, 2, 3], 5, &mut scratch).unwrap();
/// assert_eq!(five.len(), 5);
/// let three = resize_selection_with_scratch(&graph, &five, 3, &mut scratch).unwrap();
/// assert_eq!(three.len(), 3);
/// ```
#[derive(Debug, Default)]
pub struct ResizeScratch {
    in_set: Vec<bool>,
    internal_degree: Vec<usize>,
    csr: AdjacencyCsr,
    cuts: ArticulationPoints,
    /// Min-heap of `(score bits, node)`; scores are non-negative, so the
    /// IEEE bit pattern orders exactly like the float value.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    heap_store: Vec<Reverse<(u64, usize)>>,
    /// Debug-oracle BFS buffers (the release path never recounts).
    #[cfg(debug_assertions)]
    visited: Vec<bool>,
    #[cfg(debug_assertions)]
    queue: Vec<usize>,
}

/// [`resize_selection`] with caller-owned scratch buffers: identical results
/// (it *is* the implementation), but repeated calls — the warm-started
/// binary search resizes once per candidate size — reuse `scratch` instead
/// of reallocating the mask, degree cache, and traversal state each time.
///
/// # Errors
///
/// Returns [`RedQaoaError::InvalidParameter`] if the seed is empty, contains
/// duplicates, or references a node outside the graph, and
/// [`RedQaoaError::GraphNotReducible`] if `k` is out of range.
pub fn resize_selection_with_scratch(
    graph: &Graph,
    seed: &[usize],
    k: usize,
    scratch: &mut ResizeScratch,
) -> Result<Vec<usize>, RedQaoaError> {
    let n = graph.node_count();
    if k == 0 || k > n {
        return Err(RedQaoaError::GraphNotReducible(
            "subgraph size must be between 1 and the node count",
        ));
    }
    if seed.is_empty() {
        return Err(RedQaoaError::invalid_parameter(
            "seed_selection",
            "[]",
            "seed selection must be non-empty",
        ));
    }
    scratch.in_set.clear();
    scratch.in_set.resize(n, false);
    for &u in seed {
        if u >= n {
            return Err(RedQaoaError::invalid_parameter(
                "seed_selection",
                u,
                "seed selection node out of range",
            ));
        }
        if scratch.in_set[u] {
            return Err(RedQaoaError::invalid_parameter(
                "seed_selection",
                u,
                "seed selection contains a duplicate node",
            ));
        }
        scratch.in_set[u] = true;
    }
    let target = average_node_degree(graph);
    let mut selection: Vec<usize> = seed.to_vec();
    // Number of selected neighbors, maintained for every node.
    scratch.internal_degree.clear();
    scratch
        .internal_degree
        .extend((0..n).map(|u| graph.neighbor_count_in(u, &scratch.in_set)));
    let mut degree_sum: usize = selection.iter().map(|&u| scratch.internal_degree[u]).sum();
    if selection.len() > k {
        scratch.csr.rebuild_from(graph);
    }

    while selection.len() > k {
        // Rank selected nodes by how close the post-removal AND lands to the
        // target; evict the best-ranked non-cut vertex. One Tarjan pass per
        // eviction replaces the old per-candidate component recount, and the
        // heap replaces the full sort: only the popped prefix (usually a
        // single node) is ever ordered.
        let len_after = (selection.len() - 1) as f64;
        scratch.heap_store.clear();
        scratch.heap_store.extend(selection.iter().map(|&u| {
            let score =
                ((degree_sum - 2 * scratch.internal_degree[u]) as f64 / len_after - target).abs();
            Reverse((score.to_bits(), u))
        }));
        scratch.heap.clear();
        scratch.heap.extend(scratch.heap_store.drain(..));
        let is_cut = scratch.cuts.compute(&scratch.csr, &scratch.in_set);
        let evicted = choose_eviction(&mut scratch.heap, is_cut);
        #[cfg(debug_assertions)]
        {
            let before = count_components(
                graph,
                &selection,
                &scratch.in_set,
                &mut scratch.visited,
                &mut scratch.queue,
            );
            scratch.in_set[evicted] = false;
            let after = count_components(
                graph,
                &selection,
                &scratch.in_set,
                &mut scratch.visited,
                &mut scratch.queue,
            );
            scratch.in_set[evicted] = true;
            debug_assert!(
                after <= before,
                "eviction of {evicted} split the selection ({before} -> {after})"
            );
        }
        scratch.in_set[evicted] = false;
        selection.retain(|&u| u != evicted);
        degree_sum -= 2 * scratch.internal_degree[evicted];
        for w in graph.neighbors(evicted) {
            scratch.internal_degree[w] -= 1;
        }
    }

    while selection.len() < k {
        let len_after = (selection.len() + 1) as f64;
        let score = |u: usize| {
            ((degree_sum + 2 * scratch.internal_degree[u]) as f64 / len_after - target).abs()
        };
        // Prefer boundary nodes (they attach to the selection); only a seed
        // that already spans its whole component falls back to any outside
        // node.
        let mut best: Option<usize> = None;
        for u in 0..n {
            if scratch.in_set[u] || scratch.internal_degree[u] == 0 {
                continue;
            }
            if best.map_or(true, |b| score(u) < score(b)) {
                best = Some(u);
            }
        }
        if best.is_none() {
            best = (0..n).find(|&u| !scratch.in_set[u]);
        }
        let added = best.expect("k <= n guarantees an outside node");
        scratch.in_set[added] = true;
        selection.push(added);
        degree_sum += 2 * scratch.internal_degree[added];
        for w in graph.neighbors(added) {
            scratch.internal_degree[w] += 1;
        }
    }
    Ok(selection)
}

/// Pops the eviction heap until a non-articulation node appears. Every
/// component has at least one non-cut vertex, so the loop normally
/// terminates on the first pop or two; if the heap somehow drains without
/// one (defensively unreachable), the best-ranked node is evicted anyway so
/// the resize always makes progress.
fn choose_eviction(heap: &mut BinaryHeap<Reverse<(u64, usize)>>, is_cut: &[bool]) -> usize {
    let mut fallback = None;
    while let Some(Reverse((_, u))) = heap.pop() {
        if !is_cut[u] {
            return u;
        }
        fallback.get_or_insert(u);
    }
    fallback.expect("eviction heap is never empty")
}

/// Connected components of the subgraph induced by `selection` (`in_set` is
/// its membership mask; a node marked `false` is skipped even if listed).
/// `visited` / `queue` are caller-owned scratch, reused across calls.
///
/// Since the articulation-point rewrite of the shrink loop this BFS recount
/// is only the debug oracle (and the test reference implementation) — it is
/// no longer on any release-mode path (and is not even compiled into one).
#[cfg(any(test, debug_assertions))]
fn count_components(
    graph: &Graph,
    selection: &[usize],
    in_set: &[bool],
    visited: &mut Vec<bool>,
    queue: &mut Vec<usize>,
) -> usize {
    visited.clear();
    visited.resize(graph.node_count(), false);
    queue.clear();
    let mut components = 0usize;
    for &start in selection {
        if !in_set[start] || visited[start] {
            continue;
        }
        components += 1;
        visited[start] = true;
        queue.push(start);
        while let Some(u) = queue.pop() {
            for w in graph.neighbors(u) {
                if in_set[w] && !visited[w] {
                    visited[w] = true;
                    queue.push(w);
                }
            }
        }
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlib::generators::{complete, connected_gnp, cycle};
    use graphlib::subgraph::random_connected_subgraph;
    use graphlib::traversal::is_connected;
    use mathkit::rng::seeded;

    #[test]
    fn reduces_cycle_to_connected_subgraph_with_matching_and() {
        let g = cycle(12).unwrap();
        let mut rng = seeded(1);
        let out = anneal_subgraph(&g, 8, &SaOptions::default(), &mut rng).unwrap();
        assert_eq!(out.subgraph.graph.node_count(), 8);
        assert!(is_connected(&out.subgraph.graph));
        // A connected 8-node subgraph of a cycle is a path: AND = 2*7/8 = 1.75
        // against the cycle's 2.0, so the objective is 0.25.
        assert!(out.objective <= 0.25 + 1e-9, "objective {}", out.objective);
        assert!(out.iterations > 0);
    }

    #[test]
    fn finds_perfect_match_inside_complete_graph() {
        // Any k-subgraph of K_n is K_k; the best achievable |AND diff| is
        // (n-1)-(k-1) = n-k, and SA should find exactly that.
        let g = complete(8);
        let mut rng = seeded(2);
        let out = anneal_subgraph(&g, 6, &SaOptions::default(), &mut rng).unwrap();
        assert!((out.objective - 2.0).abs() < 1e-9);
    }

    #[test]
    fn objective_decreases_relative_to_random_subgraph_on_average() {
        let mut rng = seeded(3);
        let g = connected_gnp(16, 0.3, &mut rng).unwrap();
        let target = average_node_degree(&g);
        let k = 10;
        let mut sa_better = 0;
        for trial in 0..5u64 {
            let mut rng_sa = seeded(100 + trial);
            let sa = anneal_subgraph(&g, k, &SaOptions::default(), &mut rng_sa).unwrap();
            let mut rng_rand = seeded(200 + trial);
            let random = random_connected_subgraph(&g, k, &mut rng_rand).unwrap();
            let random_obj = (average_node_degree(&random.graph) - target).abs();
            if sa.objective <= random_obj + 1e-12 {
                sa_better += 1;
            }
        }
        assert!(sa_better >= 4, "SA beat random only {sa_better}/5 times");
    }

    #[test]
    fn constant_and_adaptive_cooling_both_work() {
        let g = cycle(10).unwrap();
        for cooling in [
            CoolingSchedule::Constant(0.9),
            CoolingSchedule::Adaptive { base: 0.9 },
        ] {
            let mut rng = seeded(5);
            let options = SaOptions {
                cooling,
                ..Default::default()
            };
            let out = anneal_subgraph(&g, 6, &options, &mut rng).unwrap();
            assert!(is_connected(&out.subgraph.graph));
        }
    }

    #[test]
    fn adaptive_cooling_terminates_in_fewer_iterations_when_stuck() {
        // On a complete graph every same-size subgraph has the same AND, so
        // every move is neutral: always accepted, never improving. The
        // adaptive schedule must engage on that stagnation and terminate in
        // a small fraction of the constant schedule's iterations. (Before
        // the stagnation fix, neutral accepts reset the streak and both
        // schedules ran the identical number of iterations, making this
        // comparison vacuous.)
        let g = complete(10);
        let mut rng_a = seeded(7);
        let adaptive = anneal_subgraph(
            &g,
            5,
            &SaOptions {
                cooling: CoolingSchedule::Adaptive { base: 0.99 },
                ..Default::default()
            },
            &mut rng_a,
        )
        .unwrap();
        let mut rng_c = seeded(7);
        let constant = anneal_subgraph(
            &g,
            5,
            &SaOptions {
                cooling: CoolingSchedule::Constant(0.99),
                ..Default::default()
            },
            &mut rng_c,
        )
        .unwrap();
        assert!(
            adaptive.iterations * 2 < constant.iterations,
            "adaptive ran {} iterations vs constant's {} — the stagnation \
             streak did not engage",
            adaptive.iterations,
            constant.iterations
        );
    }

    #[test]
    fn every_iteration_performs_a_metropolis_step_on_degenerate_landscapes() {
        // All moves on a complete graph are neutral, hence always accepted:
        // accepted must equal iterations. (The pre-fix loop could skip
        // iterations — cooling the temperature without any Metropolis step —
        // when a proposal duplicated a selected node; boundary-based
        // proposals make that impossible by construction.)
        let g = complete(9);
        let mut rng = seeded(13);
        let out = anneal_subgraph(&g, 6, &SaOptions::default(), &mut rng).unwrap();
        assert!(out.iterations > 0);
        assert_eq!(
            out.accepted, out.iterations,
            "some iteration burned temperature without a Metropolis step"
        );
    }

    #[test]
    fn reported_objective_matches_from_scratch_recomputation() {
        let mut rng = seeded(21);
        let g = connected_gnp(12, 0.4, &mut rng).unwrap();
        let out = anneal_subgraph(&g, 7, &SaOptions::default(), &mut rng).unwrap();
        let target = average_node_degree(&g);
        let and = average_node_degree(&out.subgraph.graph);
        let components = graphlib::traversal::connected_components(&out.subgraph.graph).len();
        let expected = (and - target).abs() + 10.0 * (components.saturating_sub(1)) as f64;
        assert_eq!(out.objective.to_bits(), expected.to_bits());
    }

    #[test]
    fn whole_graph_request_returns_graph_itself() {
        let g = cycle(6).unwrap();
        let mut rng = seeded(9);
        let out = anneal_subgraph(&g, 6, &SaOptions::default(), &mut rng).unwrap();
        assert_eq!(out.subgraph.graph.node_count(), 6);
        assert!(out.objective < 1e-12);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let g = cycle(6).unwrap();
        let mut rng = seeded(1);
        assert!(anneal_subgraph(&g, 0, &SaOptions::default(), &mut rng).is_err());
        assert!(anneal_subgraph(&g, 7, &SaOptions::default(), &mut rng).is_err());
        let bad_cooling = SaOptions {
            cooling: CoolingSchedule::Constant(1.5),
            ..Default::default()
        };
        assert!(anneal_subgraph(&g, 3, &bad_cooling, &mut rng).is_err());
        let bad_temp = SaOptions {
            initial_temp: 0.5,
            final_temp: 1.0,
            ..Default::default()
        };
        assert!(anneal_subgraph(&g, 3, &bad_temp, &mut rng).is_err());
    }

    /// The pre-heap implementation of `resize_selection` (full sort, then a
    /// per-candidate component recount), kept verbatim as the oracle the
    /// articulation-point rewrite is checked against.
    fn resize_reference(graph: &Graph, seed: &[usize], k: usize) -> Vec<usize> {
        let n = graph.node_count();
        let mut in_set = vec![false; n];
        for &u in seed {
            in_set[u] = true;
        }
        let target = average_node_degree(graph);
        let mut selection: Vec<usize> = seed.to_vec();
        let mut internal_degree: Vec<usize> = (0..n)
            .map(|u| graph.neighbor_count_in(u, &in_set))
            .collect();
        let mut degree_sum: usize = selection.iter().map(|&u| internal_degree[u]).sum();
        let (mut visited, mut queue) = (Vec::new(), Vec::new());

        while selection.len() > k {
            let len_after = (selection.len() - 1) as f64;
            let mut order: Vec<usize> = selection.clone();
            order.sort_unstable_by(|&a, &b| {
                let score = |u: usize| {
                    ((degree_sum - 2 * internal_degree[u]) as f64 / len_after - target).abs()
                };
                score(a).partial_cmp(&score(b)).unwrap().then(a.cmp(&b))
            });
            let components = count_components(graph, &selection, &in_set, &mut visited, &mut queue);
            let evicted = order
                .iter()
                .copied()
                .find(|&u| {
                    in_set[u] = false;
                    let keeps =
                        count_components(graph, &selection, &in_set, &mut visited, &mut queue)
                            <= components;
                    in_set[u] = true;
                    keeps
                })
                .unwrap_or(order[0]);
            in_set[evicted] = false;
            selection.retain(|&u| u != evicted);
            degree_sum -= 2 * internal_degree[evicted];
            for w in graph.neighbors(evicted) {
                internal_degree[w] -= 1;
            }
        }
        while selection.len() < k {
            let len_after = (selection.len() + 1) as f64;
            let score = |u: usize| {
                ((degree_sum + 2 * internal_degree[u]) as f64 / len_after - target).abs()
            };
            let mut best: Option<usize> = None;
            for u in 0..n {
                if in_set[u] || internal_degree[u] == 0 {
                    continue;
                }
                if best.map_or(true, |b| score(u) < score(b)) {
                    best = Some(u);
                }
            }
            if best.is_none() {
                best = (0..n).find(|&u| !in_set[u]);
            }
            let added = best.expect("outside node exists");
            in_set[added] = true;
            selection.push(added);
            degree_sum += 2 * internal_degree[added];
            for w in graph.neighbors(added) {
                internal_degree[w] += 1;
            }
        }
        selection
    }

    #[test]
    fn heap_resize_matches_reference_implementation_bitwise() {
        let mut scratch = ResizeScratch::default();
        for graph_seed in 0..12u64 {
            let g = connected_gnp(24, 0.18, &mut seeded(0xC0FFEE + graph_seed)).unwrap();
            let seed: Vec<usize> = (0..16).collect();
            for k in [3usize, 7, 12, 16, 20, 24] {
                let fast = resize_selection_with_scratch(&g, &seed, k, &mut scratch).unwrap();
                let slow = resize_reference(&g, &seed, k);
                assert_eq!(fast, slow, "graph seed {graph_seed}, k {k}");
            }
        }
    }

    #[test]
    fn resize_scratch_reuse_matches_fresh_scratch_across_sequences() {
        let g = connected_gnp(30, 0.15, &mut seeded(77)).unwrap();
        let mut scratch = ResizeScratch::default();
        let mut selection: Vec<usize> = (0..30).collect();
        for &k in &[22usize, 9, 17, 4, 26, 12] {
            let reused = resize_selection_with_scratch(&g, &selection, k, &mut scratch).unwrap();
            let fresh = resize_selection(&g, &selection, k).unwrap();
            assert_eq!(reused, fresh, "k {k}");
            selection = reused;
        }
    }

    #[test]
    fn eviction_fallback_returns_best_ranked_node_when_all_are_cut() {
        // A path 0-1-2-3-4: the interior nodes really are articulation
        // points. Hand the chooser a cut mask claiming *every* node is one —
        // the defensive branch must still evict the best-ranked (lowest
        // score, then lowest index) node instead of looping or panicking.
        let g = graphlib::generators::path(5).unwrap();
        let selection: Vec<usize> = (0..5).collect();
        let target = average_node_degree(&g);
        let internal_degree: Vec<usize> = (0..5).map(|u| g.neighbors(u).count()).collect();
        let degree_sum: usize = internal_degree.iter().sum();
        let len_after = (selection.len() - 1) as f64;
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = selection
            .iter()
            .map(|&u| {
                let score =
                    ((degree_sum - 2 * internal_degree[u]) as f64 / len_after - target).abs();
                Reverse((score.to_bits(), u))
            })
            .collect();
        let expected_best = {
            let score = |u: usize| {
                ((degree_sum - 2 * internal_degree[u]) as f64 / len_after - target).abs()
            };
            let mut order: Vec<usize> = selection.clone();
            order.sort_unstable_by(|&a, &b| {
                score(a).partial_cmp(&score(b)).unwrap().then(a.cmp(&b))
            });
            order[0]
        };
        let all_cut = vec![true; 5];
        assert_eq!(choose_eviction(&mut heap, &all_cut), expected_best);
        assert!(heap.is_empty(), "fallback drains the heap");

        // Sanity: with the true cut mask the chooser skips interior nodes.
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
            selection.iter().map(|&u| Reverse((0u64, u))).collect();
        let true_cuts = vec![false, true, true, true, false];
        assert_eq!(choose_eviction(&mut heap, &true_cuts), 0);
    }
}
