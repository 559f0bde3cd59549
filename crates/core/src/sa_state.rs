//! Incremental move evaluator for the simulated-annealing subgraph search.
//!
//! [`SaState`] maintains a `k`-node selection of a parent graph together with
//! everything Algorithm 1's hot loop needs to score and commit a node swap
//! without rebuilding the induced subgraph:
//!
//! * a **membership bitset** (`in_set`) plus a position index, so membership
//!   tests are `O(1)` instead of the `Vec::contains` linear scans of the
//!   original implementation;
//! * a **cached internal-degree table** (`internal_degree[w]` = number of
//!   selected neighbors of `w`, maintained for every node) and its sum over
//!   the selection, so the AND delta of swapping `out` for `inn` costs
//!   `O(deg(out) + deg(inn))`;
//! * an incrementally maintained, **deduplicated boundary set** — the outside
//!   nodes adjacent to the selection — so move proposals are uniform over
//!   distinct neighbors (Algorithm 1's proposal distribution) and never
//!   produce a degenerate duplicate swap;
//! * **incremental connectivity**: component *labels* are maintained in a
//!   [`graphlib::connectivity::UnionFind`] (union on insert; deletions ghost
//!   the old slot, with a split relabeling exactly the dirty region the
//!   removal BFS already visited and a periodic amortized rebuild bounding
//!   ghost growth). A candidate swap's component count is derived from the
//!   current count through local rules — isolated/leaf removal, an
//!   early-exit piece-counting traversal around the removed node, and a
//!   distinct-label count over the incoming node's neighbors — so **no full
//!   scan of the selection runs in release builds**; the zero-alloc full
//!   scan survives only as the construction-time count, the periodic
//!   rebuild, and the `debug_assert!` oracle;
//! * a staged evaluation ([`SaState::evaluate_and_bound`]) that prices the
//!   cheap AND term separately from connectivity, so the annealer can
//!   reject most non-improving moves without any traversal at all;
//! * reusable scratch buffers (epoch-stamped visit arrays, a traversal
//!   queue), so the steady-state evaluate/apply cycle performs **zero heap
//!   allocations**.
//!
//! The evaluator is exact: `objective`, `and_value`, and `components` are
//! bitwise-identical to the from-scratch `induced_subgraph` +
//! `average_node_degree` + `connected_components` computation (property
//! tested in `tests/sa_state_equivalence.rs`, including a union-find-vs-BFS
//! component oracle over random move walks).

use crate::RedQaoaError;
use graphlib::connectivity::UnionFind;
use graphlib::Graph;
use rand::Rng;

/// Sentinel for "not present" in the position indexes.
const NONE: usize = usize::MAX;

/// Incremental state of one simulated-annealing subgraph search.
///
/// The state borrows the parent graph and walks its CSR rows directly.
/// Construction is `O(V + E)`; every subsequent [`SaState::evaluate_swap`] /
/// [`SaState::apply_swap`] pair touches only the neighborhoods of the two
/// swapped nodes plus, for connectivity, the mutated component region.
#[derive(Debug, Clone)]
pub struct SaState<'g> {
    target_and: f64,
    penalty: f64,
    graph: &'g Graph,
    /// Membership bitset of the current selection.
    in_set: Vec<bool>,
    /// Word count per adjacency-bitset row (`0` disables the bitset fast
    /// paths for graphs too large to justify the `O(V²)` bit matrix).
    words: usize,
    /// Row-major adjacency bit matrix: bit `v` of row `u` is the edge
    /// `{u, v}`. Powers `O(1)` edge tests and the word-parallel
    /// "neighborhood stays connected" check that lets most removals skip
    /// the piece-counting BFS entirely.
    adj_bits: Vec<u64>,
    /// `in_set` as a bitset (kept in lockstep with `in_set`).
    in_set_bits: Vec<u64>,
    /// The current selection in arbitrary order (swap-remove friendly).
    nodes: Vec<usize>,
    /// `pos_in_nodes[u]` is `u`'s index in `nodes`, or `NONE` if outside.
    pos_in_nodes: Vec<usize>,
    /// For every node: number of its neighbors inside the selection.
    internal_degree: Vec<usize>,
    /// Sum of `internal_degree` over the selection (= 2 × induced edges).
    internal_degree_sum: usize,
    /// Outside nodes with at least one selected neighbor, deduplicated.
    boundary: Vec<usize>,
    /// `pos_in_boundary[u]` is `u`'s index in `boundary`, or `NONE`.
    pos_in_boundary: Vec<usize>,
    /// Connected components of the current induced subgraph.
    components: usize,
    /// Component labels: selected nodes `u`, `v` are in the same component
    /// iff `uf.find(slot_of[u]) == uf.find(slot_of[v])`. Removed nodes leave
    /// ghost slots behind; re-inserted nodes get fresh slots.
    uf: UnionFind,
    /// Current union-find slot of every node (stale for unselected nodes).
    slot_of: Vec<usize>,
    // --- reusable scratch (no steady-state allocations) ---
    visit_epoch: Vec<u64>,
    mark_epoch: Vec<u64>,
    epoch: u64,
    queue: Vec<usize>,
    outside_scratch: Vec<usize>,
    /// Scratch rows for the bitset connectivity shortcut.
    s_bits: Vec<u64>,
    reach_bits: Vec<u64>,
    /// Piece index assigned by the removal BFS (valid while
    /// `visit_epoch[w] == epoch` during a split evaluation).
    piece_id: Vec<u32>,
    /// Nodes visited by the last *splitting* removal BFS with their piece,
    /// recorded so `apply_swap` can relabel exactly the dirty region.
    split_nodes: Vec<(u32, u32)>,
    /// The `(out, inn)` pair `split_nodes` was recorded for.
    split_for: Option<(usize, usize)>,
    /// Fresh slot per piece during a split relabel.
    piece_slot_scratch: Vec<usize>,
    /// Distinct-label scratch for the incoming node's neighbors.
    label_scratch: Vec<(bool, usize)>,
    /// Component count of the last evaluated swap, reused by `apply_swap`.
    last_eval: Option<(usize, usize, usize)>,
    /// Cached `(out, inn, degree_sum, out_inn_edge)` of the last
    /// [`SaState::evaluate_and_bound`], reused by `evaluate_swap`.
    last_bound: Option<(usize, usize, usize, bool)>,
}

impl<'g> SaState<'g> {
    /// Builds the incremental state for `nodes` (a duplicate-free selection
    /// of `graph`). The state borrows `graph` for its lifetime and reads
    /// every neighborhood from the graph's own CSR rows.
    ///
    /// `target_and` is the parent graph's average node degree and `penalty`
    /// the per-extra-component disconnection penalty of the SA objective.
    ///
    /// # Errors
    ///
    /// Returns [`RedQaoaError::InvalidParameter`] if the selection is empty,
    /// contains duplicates, or references a node outside the graph.
    pub fn new(
        graph: &'g Graph,
        nodes: &[usize],
        target_and: f64,
        penalty: f64,
    ) -> Result<Self, RedQaoaError> {
        let n = graph.node_count();
        if nodes.is_empty() {
            return Err(RedQaoaError::invalid_parameter(
                "nodes",
                "[]",
                "SA selection must be non-empty",
            ));
        }
        let mut in_set = vec![false; n];
        let mut pos_in_nodes = vec![NONE; n];
        let mut selection = Vec::with_capacity(nodes.len());
        for &u in nodes {
            if u >= n {
                return Err(RedQaoaError::invalid_parameter(
                    "nodes",
                    u,
                    "SA selection node out of range",
                ));
            }
            if in_set[u] {
                return Err(RedQaoaError::invalid_parameter(
                    "nodes",
                    u,
                    "SA selection contains a duplicate node",
                ));
            }
            in_set[u] = true;
            pos_in_nodes[u] = selection.len();
            selection.push(u);
        }

        // Adjacency bit matrix: O(V²) bits, so only for graphs where that
        // stays a few megabytes. Beyond the cap the bitset fast paths are
        // disabled and every query falls back to the CSR.
        let words = if n <= 4096 { n.div_ceil(64) } else { 0 };
        let mut adj_bits = vec![0u64; n * words];
        let mut in_set_bits = vec![0u64; words];
        if words > 0 {
            for u in 0..n {
                for v in graph.neighbors(u) {
                    adj_bits[u * words + v / 64] |= 1u64 << (v % 64);
                }
            }
            for &u in &selection {
                in_set_bits[u / 64] |= 1u64 << (u % 64);
            }
        }

        let internal_degree: Vec<usize> = (0..n)
            .map(|u| graph.neighbor_count_in(u, &in_set))
            .collect();
        let internal_degree_sum = selection.iter().map(|&u| internal_degree[u]).sum();
        let mut boundary = Vec::new();
        let mut pos_in_boundary = vec![NONE; n];
        for u in 0..n {
            if !in_set[u] && internal_degree[u] > 0 {
                pos_in_boundary[u] = boundary.len();
                boundary.push(u);
            }
        }

        let mut state = Self {
            target_and,
            penalty,
            graph,
            in_set,
            words,
            adj_bits,
            in_set_bits,
            nodes: selection,
            pos_in_nodes,
            internal_degree,
            internal_degree_sum,
            boundary,
            pos_in_boundary,
            components: 0,
            uf: UnionFind::with_capacity(n),
            slot_of: vec![NONE; n],
            visit_epoch: vec![0; n],
            mark_epoch: vec![0; n],
            epoch: 0,
            queue: Vec::with_capacity(nodes.len()),
            outside_scratch: Vec::new(),
            s_bits: vec![0u64; words],
            reach_bits: vec![0u64; words],
            piece_id: vec![0; n],
            split_nodes: Vec::new(),
            split_for: None,
            piece_slot_scratch: Vec::new(),
            label_scratch: Vec::new(),
            last_eval: None,
            last_bound: None,
        };
        state.rebuild_labels();
        Ok(state)
    }

    /// The current selection (arbitrary order, no duplicates).
    pub fn nodes(&self) -> &[usize] {
        &self.nodes
    }

    /// Deduplicated outside nodes adjacent to the selection.
    pub fn boundary(&self) -> &[usize] {
        &self.boundary
    }

    /// `true` if `node` is in the current selection.
    pub fn contains(&self, node: usize) -> bool {
        self.in_set[node]
    }

    /// Average node degree of the current induced subgraph.
    pub fn and_value(&self) -> f64 {
        self.internal_degree_sum as f64 / self.nodes.len() as f64
    }

    /// Connected components of the current induced subgraph.
    pub fn components(&self) -> usize {
        self.components
    }

    /// The SA objective of the current selection:
    /// `|AND − target| + penalty · (components − 1)`.
    pub fn objective(&self) -> f64 {
        self.value_of(self.internal_degree_sum, self.components)
    }

    fn value_of(&self, degree_sum: usize, components: usize) -> f64 {
        (degree_sum as f64 / self.nodes.len() as f64 - self.target_and).abs()
            + self.penalty * (components.saturating_sub(1)) as f64
    }

    /// Proposes a move: a uniformly chosen selected node to evict and a
    /// uniformly chosen boundary node to bring in. Boundary nodes are
    /// deduplicated, so an outside node is proposed with equal probability
    /// regardless of how many edges it has into the selection. When the
    /// selection already covers all of its components (empty boundary) the
    /// incoming node is drawn uniformly from all outside nodes instead.
    ///
    /// Returns `None` only when the selection spans the whole graph.
    pub fn propose<R: Rng>(&mut self, rng: &mut R) -> Option<(usize, usize)> {
        let out = self.nodes[rng.gen_range(0..self.nodes.len())];
        let inn = if self.boundary.is_empty() {
            self.outside_scratch.clear();
            for w in 0..self.in_set.len() {
                if !self.in_set[w] {
                    self.outside_scratch.push(w);
                }
            }
            if self.outside_scratch.is_empty() {
                return None;
            }
            self.outside_scratch[rng.gen_range(0..self.outside_scratch.len())]
        } else {
            self.boundary[rng.gen_range(0..self.boundary.len())]
        };
        Some((out, inn))
    }

    /// Lower bound of [`SaState::evaluate_swap`]: the AND term
    /// `|AND(S ∖ {out} ∪ {inn}) − target|` of the candidate, **without** the
    /// disconnection penalty. Because the penalty is non-negative, the full
    /// objective can only be equal or larger, so a Metropolis step whose
    /// acceptance draw already fails against this bound can reject the move
    /// without any connectivity work — the annealer's cheap-reject fast
    /// path. Costs one `O(log deg)` edge test; the computed degree sum is
    /// cached and reused by a matching `evaluate_swap`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `out` is not selected or `inn` is.
    pub fn evaluate_and_bound(&mut self, out: usize, inn: usize) -> f64 {
        debug_assert!(self.in_set[out], "swap source must be selected");
        debug_assert!(!self.in_set[inn], "swap target must be outside");
        let uv = self.has_edge(out, inn);
        let degree_sum = self.internal_degree_sum - 2 * self.internal_degree[out]
            + 2 * (self.internal_degree[inn] - usize::from(uv));
        self.last_bound = Some((out, inn, degree_sum, uv));
        (degree_sum as f64 / self.nodes.len() as f64 - self.target_and).abs()
    }

    /// Scores the swap `out → inn` without committing it, in
    /// `O(deg(out) + deg(inn))` plus the neighborhood-limited connectivity
    /// check. The computed component count is cached and reused by a
    /// matching [`SaState::apply_swap`].
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `out` is not selected or `inn` is.
    pub fn evaluate_swap(&mut self, out: usize, inn: usize) -> f64 {
        debug_assert!(self.in_set[out], "swap source must be selected");
        debug_assert!(!self.in_set[inn], "swap target must be outside");
        let (degree_sum, uv) = match self.last_bound {
            Some((o, i, ds, uv)) if o == out && i == inn => (ds, uv),
            _ => {
                let uv = self.has_edge(out, inn);
                let ds = self.internal_degree_sum - 2 * self.internal_degree[out]
                    + 2 * (self.internal_degree[inn] - usize::from(uv));
                (ds, uv)
            }
        };
        let components = self.candidate_components(out, inn, uv);
        self.last_eval = Some((out, inn, components));
        self.value_of(degree_sum, components)
    }

    /// `true` if the edge `{u, v}` exists — one bit test on the adjacency
    /// matrix when available, otherwise a binary search on the graph's
    /// sorted CSR row.
    fn has_edge(&self, u: usize, v: usize) -> bool {
        if self.words > 0 {
            self.adj_bits[u * self.words + v / 64] >> (v % 64) & 1 == 1
        } else {
            self.graph.has_edge(u, v)
        }
    }

    /// Commits the swap `out → inn`, updating membership, degree caches, the
    /// boundary set, and the component count. Zero allocations.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `out` is not selected or `inn` is.
    pub fn apply_swap(&mut self, out: usize, inn: usize) {
        debug_assert!(self.in_set[out], "swap source must be selected");
        debug_assert!(!self.in_set[inn], "swap target must be outside");
        let components = match self.last_eval {
            Some((o, i, c)) if o == out && i == inn => c,
            _ => {
                let uv = self.has_edge(out, inn);
                self.candidate_components(out, inn, uv)
            }
        };
        self.last_eval = None;
        self.last_bound = None;
        // Dirty-region relabel: when the removal splits `out`'s component,
        // the removal BFS visited exactly the affected region — reassign
        // those nodes to one fresh slot per piece. `split_nodes` is always
        // the record of the `candidate_components` call that produced
        // `components` (either cached from the matching evaluate or
        // recomputed above), so the relabel and the count agree. When the
        // removal does not split, `out`'s old slot simply becomes a ghost.
        if self.split_for == Some((out, inn)) {
            self.piece_slot_scratch.clear();
            for idx in 0..self.split_nodes.len() {
                let (node, piece) = self.split_nodes[idx];
                while self.piece_slot_scratch.len() < piece as usize {
                    let slot = self.uf.make_set();
                    self.piece_slot_scratch.push(slot);
                }
                self.slot_of[node as usize] = self.piece_slot_scratch[piece as usize - 1];
            }
        }
        self.split_for = None;

        // `out` leaves: drop its contribution to the degree sum first (its
        // own internal degree still reflects the old selection here).
        self.internal_degree_sum -= 2 * self.internal_degree[out];
        self.in_set[out] = false;
        if self.words > 0 {
            self.in_set_bits[out / 64] &= !(1u64 << (out % 64));
        }
        let pos = self.pos_in_nodes[out];
        self.nodes.swap_remove(pos);
        if pos < self.nodes.len() {
            self.pos_in_nodes[self.nodes[pos]] = pos;
        }
        self.pos_in_nodes[out] = NONE;
        for w in self.graph.neighbors(out) {
            self.internal_degree[w] -= 1;
            if !self.in_set[w] && self.internal_degree[w] == 0 && self.pos_in_boundary[w] != NONE {
                self.boundary_remove(w);
            }
        }
        if self.internal_degree[out] > 0 {
            self.boundary_add(out);
        }

        // `inn` joins: fresh union-find slot (never the stale one a past
        // membership may have left behind), unioned with every selected
        // neighbor's component.
        if self.pos_in_boundary[inn] != NONE {
            self.boundary_remove(inn);
        }
        self.in_set[inn] = true;
        if self.words > 0 {
            self.in_set_bits[inn / 64] |= 1u64 << (inn % 64);
        }
        self.pos_in_nodes[inn] = self.nodes.len();
        self.nodes.push(inn);
        self.slot_of[inn] = self.uf.make_set();
        for w in self.graph.neighbors(inn) {
            self.internal_degree[w] += 1;
            if self.in_set[w] {
                self.uf.union(self.slot_of[inn], self.slot_of[w]);
            }
            if !self.in_set[w] && self.internal_degree[w] == 1 {
                self.boundary_add(w);
            }
        }
        self.internal_degree_sum += 2 * self.internal_degree[inn];
        self.components = components;

        // Periodic amortized rebuild: ghost slots accumulate one per
        // removal (plus one per split piece); once they outnumber the live
        // selection a few times over, relabel from scratch so slot storage
        // and find-paths stay O(n).
        if self.uf.len() > 4 * self.in_set.len() + 8 {
            self.rebuild_labels();
        }

        debug_assert_eq!({ self.count_components(None) }, self.components);
        #[cfg(debug_assertions)]
        {
            assert!(self.labels_match_components());
        }
        debug_assert_eq!(
            self.internal_degree_sum,
            self.nodes
                .iter()
                .map(|&u| self.internal_degree[u])
                .sum::<usize>()
        );
    }

    /// Rebuilds the union-find labels from scratch: one BFS over the
    /// selection, one shared slot per component. Also recomputes the
    /// component count, making this the construction-time initializer and
    /// the periodic ghost-collection pass.
    fn rebuild_labels(&mut self) {
        self.uf.clear();
        self.split_for = None;
        self.epoch += 1;
        let epoch = self.epoch;
        let mut components = 0usize;
        for idx in 0..self.nodes.len() {
            let start = self.nodes[idx];
            if self.visit_epoch[start] == epoch {
                continue;
            }
            components += 1;
            let slot = self.uf.make_set();
            self.visit_epoch[start] = epoch;
            self.slot_of[start] = slot;
            self.queue.clear();
            self.queue.push(start);
            while let Some(w) = self.queue.pop() {
                for x in self.graph.neighbors(w) {
                    if self.in_set[x] && self.visit_epoch[x] != epoch {
                        self.visit_epoch[x] = epoch;
                        self.slot_of[x] = slot;
                        self.queue.push(x);
                    }
                }
            }
        }
        self.components = components;
    }

    /// Debug oracle: the union-find labels partition the selection exactly
    /// like the component count says.
    #[cfg(debug_assertions)]
    fn labels_match_components(&mut self) -> bool {
        let mut roots: Vec<usize> = (0..self.nodes.len())
            .map(|idx| {
                let u = self.nodes[idx];
                self.uf.find(self.slot_of[u])
            })
            .collect();
        roots.sort_unstable();
        roots.dedup();
        if roots.len() != self.components {
            return false;
        }
        // Same-component nodes must share a root: cross-check against the
        // from-scratch BFS labels.
        let mut state = (0..self.in_set.len()).map(|_| NONE).collect::<Vec<_>>();
        self.epoch += 1;
        let epoch = self.epoch;
        for idx in 0..self.nodes.len() {
            let start = self.nodes[idx];
            if self.visit_epoch[start] == epoch {
                continue;
            }
            let root = self.uf.find(self.slot_of[start]);
            self.visit_epoch[start] = epoch;
            state[start] = root;
            self.queue.clear();
            self.queue.push(start);
            while let Some(w) = self.queue.pop() {
                for x in self.graph.neighbors(w) {
                    if self.in_set[x] && self.visit_epoch[x] != epoch {
                        self.visit_epoch[x] = epoch;
                        state[x] = root;
                        self.queue.push(x);
                    }
                }
            }
        }
        self.nodes
            .iter()
            .all(|&u| self.uf.find(self.slot_of[u]) == state[u])
    }

    fn boundary_add(&mut self, w: usize) {
        debug_assert_eq!(self.pos_in_boundary[w], NONE);
        self.pos_in_boundary[w] = self.boundary.len();
        self.boundary.push(w);
    }

    fn boundary_remove(&mut self, w: usize) {
        let pos = self.pos_in_boundary[w];
        debug_assert_ne!(pos, NONE);
        self.boundary.swap_remove(pos);
        if pos < self.boundary.len() {
            self.pos_in_boundary[self.boundary[pos]] = pos;
        }
        self.pos_in_boundary[w] = NONE;
    }

    /// Component count of the candidate selection `S ∖ {out} ∪ {inn}`.
    ///
    /// Every case is decided locally — no full scan of the selection:
    ///
    /// * evicting an isolated or degree-1 node never splits a component;
    /// * for higher degrees, a piece-counting traversal around `out`
    ///   (early-exiting as soon as every selected neighbor of `out` is
    ///   reached — the common, non-splitting case) counts exactly how many
    ///   pieces `out`'s component falls into, visiting at most that one
    ///   component;
    /// * the incoming node's merge effect is the number of *distinct*
    ///   component labels among its selected neighbors: piece ids inside
    ///   the split region, union-find roots everywhere else.
    ///
    /// The full-scan [`SaState::count_components`] remains only as the
    /// `debug_assert!` oracle here.
    fn candidate_components(&mut self, out: usize, inn: usize, out_inn_edge: bool) -> usize {
        let deg_out = self.internal_degree[out];
        let inn_links = self.internal_degree[inn] - usize::from(out_inn_edge);

        self.split_for = None;
        let after_removal = match deg_out {
            // `out` was a singleton component.
            0 => self.components - 1,
            // Evicting a leaf never splits its component.
            1 => self.components,
            // If `out`'s selected neighbors are already connected among
            // themselves, the removal cannot split — word-parallel check,
            // no traversal of the component.
            _ if self.neighbors_directly_connected(out) => self.components,
            _ => {
                let pieces = self.removal_pieces(out, inn);
                self.components - 1 + pieces
            }
        };

        let result = if inn_links == 0 {
            after_removal + 1
        } else if after_removal == 1 {
            1
        } else {
            // `inn` may bridge several components / pieces: it merges as
            // many of them as it has distinct labels among its neighbors.
            after_removal + 1 - self.distinct_attach_labels(out, inn)
        };
        debug_assert_eq!(result, self.count_components(Some((out, inn))));
        result
    }

    /// Bitset fast path for the non-splitting common case: `true` if `out`'s
    /// selected neighbors are connected **using only edges among
    /// themselves**. Any path from a node of `out`'s component to `out`
    /// enters through one of those neighbors, so when they form one directly
    /// connected cluster the removal cannot split the component.
    ///
    /// Sufficient, not necessary (neighbors may also be joined through
    /// longer detours): a `false` answer falls back to the exact
    /// piece-counting BFS. Costs ~`deg(out)` word-wide row operations.
    fn neighbors_directly_connected(&mut self, out: usize) -> bool {
        let words = self.words;
        if words == 0 {
            return false;
        }
        let row = out * words;
        let mut first = NONE;
        for w in 0..words {
            let bits = self.adj_bits[row + w] & self.in_set_bits[w];
            self.s_bits[w] = bits;
            self.reach_bits[w] = 0;
            if first == NONE && bits != 0 {
                first = w * 64 + bits.trailing_zeros() as usize;
            }
        }
        debug_assert_ne!(first, NONE, "callers handle degrees 0 and 1");
        self.reach_bits[first / 64] = 1u64 << (first % 64);
        self.queue.clear();
        self.queue.push(first);
        while let Some(v) = self.queue.pop() {
            let vrow = v * words;
            for w in 0..words {
                let mut new = self.adj_bits[vrow + w] & self.s_bits[w] & !self.reach_bits[w];
                if new == 0 {
                    continue;
                }
                self.reach_bits[w] |= new;
                while new != 0 {
                    self.queue.push(w * 64 + new.trailing_zeros() as usize);
                    new &= new - 1;
                }
            }
        }
        (0..words).all(|w| self.reach_bits[w] == self.s_bits[w])
    }

    /// Number of connected pieces `out`'s component breaks into when `out`
    /// is removed (`≥ 2` means the removal splits).
    ///
    /// Early-exit traversal: the first BFS stops as soon as all selected
    /// neighbors of `out` have been reached, so well-connected regions
    /// answer after exploring only the mutated neighborhood. Only when that
    /// BFS exhausts a piece without reaching every neighbor (a genuine
    /// split) does the traversal continue — then it visits and piece-labels
    /// the *entire* dirty region (exactly `out`'s component minus `out`),
    /// recording every node in `split_nodes` so a matching
    /// [`SaState::apply_swap`] can relabel it without re-traversing.
    fn removal_pieces(&mut self, out: usize, inn: usize) -> usize {
        self.epoch += 1;
        let epoch = self.epoch;
        let mut remaining = 0usize;
        let mut first = NONE;
        for w in self.graph.neighbors(out) {
            if self.in_set[w] {
                self.mark_epoch[w] = epoch;
                remaining += 1;
                if first == NONE {
                    first = w;
                }
            }
        }
        debug_assert!(remaining >= 2, "callers handle degrees 0 and 1");
        self.visit_epoch[out] = epoch; // exclude `out` from the traversal
        self.visit_epoch[first] = epoch;
        self.piece_id[first] = 1;
        self.split_nodes.clear();
        self.split_nodes.push((first as u32, 1));
        remaining -= 1;
        self.queue.clear();
        self.queue.push(first);
        while let Some(w) = self.queue.pop() {
            for x in self.graph.neighbors(w) {
                if self.in_set[x] && self.visit_epoch[x] != epoch {
                    self.visit_epoch[x] = epoch;
                    self.piece_id[x] = 1;
                    self.split_nodes.push((x as u32, 1));
                    if self.mark_epoch[x] == epoch {
                        remaining -= 1;
                        if remaining == 0 {
                            return 1;
                        }
                    }
                    self.queue.push(x);
                }
            }
        }
        if remaining == 0 {
            return 1;
        }

        // The removal splits: exhaustively visit the remaining pieces (each
        // contains at least one of `out`'s neighbors) so every node of the
        // dirty region carries a piece label.
        let mut pieces = 1u32;
        for start in self.graph.neighbors(out) {
            if self.mark_epoch[start] != epoch || self.visit_epoch[start] == epoch {
                continue;
            }
            pieces += 1;
            self.visit_epoch[start] = epoch;
            self.piece_id[start] = pieces;
            self.split_nodes.push((start as u32, pieces));
            self.queue.clear();
            self.queue.push(start);
            while let Some(w) = self.queue.pop() {
                for x in self.graph.neighbors(w) {
                    if self.in_set[x] && self.visit_epoch[x] != epoch {
                        self.visit_epoch[x] = epoch;
                        self.piece_id[x] = pieces;
                        self.split_nodes.push((x as u32, pieces));
                        self.queue.push(x);
                    }
                }
            }
        }
        self.split_for = Some((out, inn));
        pieces as usize
    }

    /// Number of distinct component labels among `inn`'s selected neighbors
    /// (excluding `out`): piece ids for nodes inside a just-split dirty
    /// region, union-find roots for everything else. The two namespaces are
    /// kept apart by the boolean tag, and the split case is only trusted
    /// when this very evaluation ran the splitting BFS (so the epoch-stamped
    /// piece labels are known to cover the whole region).
    fn distinct_attach_labels(&mut self, out: usize, inn: usize) -> usize {
        let split = self.split_for == Some((out, inn));
        let epoch = self.epoch;
        self.label_scratch.clear();
        for w in self.graph.neighbors(inn) {
            if w == out || !self.in_set[w] {
                continue;
            }
            let label = if split && self.visit_epoch[w] == epoch {
                (true, self.piece_id[w] as usize)
            } else {
                (false, self.uf.find(self.slot_of[w]))
            };
            if !self.label_scratch.contains(&label) {
                self.label_scratch.push(label);
            }
        }
        debug_assert!(!self.label_scratch.is_empty(), "caller checked inn_links");
        self.label_scratch.len()
    }

    /// Exact component count of the current selection (`swap == None`) or of
    /// the candidate selection after `swap = Some((out, inn))`. Full scan of
    /// the (≤ `k`-node) selection using the epoch-stamped scratch — the slow
    /// path behind the incremental rules, and the debug-assertion oracle.
    fn count_components(&mut self, swap: Option<(usize, usize)>) -> usize {
        fn is_member(in_set: &[bool], swap: Option<(usize, usize)>, w: usize) -> bool {
            match swap {
                Some((out, inn)) => w == inn || (in_set[w] && w != out),
                None => in_set[w],
            }
        }

        self.epoch += 1;
        let epoch = self.epoch;
        let mut components = 0usize;
        let member_count = self.nodes.len();
        let mut idx = 0usize;
        loop {
            let start = if idx < member_count {
                self.nodes[idx]
            } else if idx == member_count {
                match swap {
                    Some((_, inn)) => inn,
                    None => break,
                }
            } else {
                break;
            };
            idx += 1;
            if !is_member(&self.in_set, swap, start) || self.visit_epoch[start] == epoch {
                continue;
            }
            components += 1;
            self.visit_epoch[start] = epoch;
            self.queue.clear();
            self.queue.push(start);
            while let Some(w) = self.queue.pop() {
                for x in self.graph.neighbors(w) {
                    if is_member(&self.in_set, swap, x) && self.visit_epoch[x] != epoch {
                        self.visit_epoch[x] = epoch;
                        self.queue.push(x);
                    }
                }
            }
        }
        components
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlib::generators::{complete, connected_gnp, cycle, star};
    use graphlib::metrics::average_node_degree;
    use graphlib::subgraph::induced_subgraph;
    use graphlib::traversal::connected_components;
    use mathkit::rng::seeded;

    fn scratch_state(graph: &Graph, nodes: &[usize]) -> (f64, f64, usize) {
        let target = average_node_degree(graph);
        let sub = induced_subgraph(graph, nodes).unwrap();
        let and = average_node_degree(&sub.graph);
        let components = connected_components(&sub.graph).len();
        (
            (and - target).abs() + 10.0 * (components.saturating_sub(1)) as f64,
            and,
            components,
        )
    }

    #[test]
    fn new_state_matches_from_scratch_metrics() {
        let mut rng = seeded(3);
        let g = connected_gnp(12, 0.35, &mut rng).unwrap();
        let target = average_node_degree(&g);
        let nodes = [0, 2, 3, 7, 8];
        let state = SaState::new(&g, &nodes, target, 10.0).unwrap();
        let (value, and, components) = scratch_state(&g, &nodes);
        assert_eq!(state.objective().to_bits(), value.to_bits());
        assert_eq!(state.and_value().to_bits(), and.to_bits());
        assert_eq!(state.components(), components);
    }

    #[test]
    fn invalid_selections_are_rejected() {
        let g = cycle(6).unwrap();
        assert!(SaState::new(&g, &[], 2.0, 10.0).is_err());
        assert!(SaState::new(&g, &[0, 0], 2.0, 10.0).is_err());
        assert!(SaState::new(&g, &[0, 9], 2.0, 10.0).is_err());
    }

    #[test]
    fn evaluate_then_apply_is_consistent() {
        let g = cycle(8).unwrap();
        let target = average_node_degree(&g);
        let mut state = SaState::new(&g, &[0, 1, 2, 3], target, 10.0).unwrap();
        // Swap 0 out for 4 (stays a path → connected).
        let predicted = state.evaluate_swap(0, 4);
        state.apply_swap(0, 4);
        assert_eq!(state.objective().to_bits(), predicted.to_bits());
        let mut nodes = state.nodes().to_vec();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![1, 2, 3, 4]);
        assert_eq!(state.components(), 1);
    }

    #[test]
    fn disconnecting_swap_is_scored_with_penalty() {
        let g = cycle(8).unwrap();
        let target = average_node_degree(&g);
        // Path 0-1-2-3; swapping the middle node 1 out for the far node 5
        // splits the selection into {0}, {2,3}, {5}.
        let mut state = SaState::new(&g, &[0, 1, 2, 3], target, 10.0).unwrap();
        let value = state.evaluate_swap(1, 5);
        let (expected, _, components) = scratch_state(&g, &[0, 2, 3, 5]);
        assert_eq!(value.to_bits(), expected.to_bits());
        state.apply_swap(1, 5);
        assert_eq!(state.components(), components);
        assert!(state.components() > 1);
    }

    #[test]
    fn boundary_is_deduplicated_and_proposals_are_uniform_over_it() {
        // Selection {0, 1} on a graph where node 2 has two edges into the
        // selection and node 3 only one: the old per-edge candidate list
        // proposed 2 twice as often; the deduplicated boundary is uniform.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (0, 3)]).unwrap();
        let target = average_node_degree(&g);
        let mut state = SaState::new(&g, &[0, 1], target, 10.0).unwrap();
        let mut boundary = state.boundary().to_vec();
        boundary.sort_unstable();
        assert_eq!(boundary, vec![2, 3]);

        let mut rng = seeded(17);
        let trials = 8000usize;
        let mut count_2 = 0usize;
        for _ in 0..trials {
            let (_, inn) = state.propose(&mut rng).unwrap();
            if inn == 2 {
                count_2 += 1;
            }
        }
        let frac = count_2 as f64 / trials as f64;
        assert!(
            (frac - 0.5).abs() < 0.05,
            "node with two inside-edges proposed with frequency {frac}, expected ~0.5"
        );
    }

    #[test]
    fn star_graph_proposals_are_uniform_across_leaves() {
        // Selection = the hub of a 9-node star; every leaf is a boundary
        // node and must be proposed equally often (Algorithm 1's uniform
        // neighbor pick).
        let g = star(9).unwrap();
        let target = average_node_degree(&g);
        let mut state = SaState::new(&g, &[0], target, 10.0).unwrap();
        assert_eq!(state.boundary().len(), 8);

        let mut rng = seeded(23);
        let trials = 16_000usize;
        let mut counts = [0usize; 9];
        for _ in 0..trials {
            let (_, inn) = state.propose(&mut rng).unwrap();
            counts[inn] += 1;
        }
        assert_eq!(counts[0], 0, "the hub is selected, never proposed");
        let expected = trials as f64 / 8.0;
        for (leaf, &count) in counts.iter().enumerate().skip(1) {
            let deviation = (count as f64 - expected).abs() / expected;
            assert!(
                deviation < 0.15,
                "leaf {leaf} proposed {count} times, expected ~{expected}"
            );
        }
    }

    #[test]
    fn empty_boundary_falls_back_to_all_outside_nodes() {
        // Two disjoint edges: selecting one whole component leaves an empty
        // boundary; proposals must fall back to the other component.
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let target = average_node_degree(&g);
        let mut state = SaState::new(&g, &[0, 1], target, 10.0).unwrap();
        assert!(state.boundary().is_empty());
        let mut rng = seeded(5);
        let (_, inn) = state.propose(&mut rng).unwrap();
        assert!(inn == 2 || inn == 3);
    }

    #[test]
    fn whole_graph_selection_has_no_proposals() {
        let g = complete(5);
        let target = average_node_degree(&g);
        let mut state = SaState::new(&g, &[0, 1, 2, 3, 4], target, 10.0).unwrap();
        let mut rng = seeded(7);
        assert!(state.propose(&mut rng).is_none());
    }

    #[test]
    fn long_random_walk_stays_exact() {
        let mut rng = seeded(41);
        let g = connected_gnp(14, 0.3, &mut rng).unwrap();
        let target = average_node_degree(&g);
        let initial = graphlib::subgraph::random_connected_subgraph(&g, 8, &mut rng).unwrap();
        let mut state = SaState::new(&g, &initial.nodes, target, 10.0).unwrap();
        for step in 0..200 {
            let Some((out, inn)) = state.propose(&mut rng) else {
                break;
            };
            let value = state.evaluate_swap(out, inn);
            if rng.gen::<bool>() {
                state.apply_swap(out, inn);
                assert_eq!(state.objective().to_bits(), value.to_bits(), "step {step}");
            }
            let (expected, and, components) = scratch_state(&g, state.nodes());
            assert_eq!(
                state.objective().to_bits(),
                expected.to_bits(),
                "step {step}"
            );
            assert_eq!(state.and_value().to_bits(), and.to_bits(), "step {step}");
            assert_eq!(state.components(), components, "step {step}");
        }
    }
}
