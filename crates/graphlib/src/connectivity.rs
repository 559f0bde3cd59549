//! Connectivity primitives behind the SA core: a slot-based union-find,
//! a reusable flat CSR adjacency, masked articulation points (iterative
//! Tarjan), and degeneracy ordering.
//!
//! These are the building blocks PR 7 moves the hot reduction paths onto:
//!
//! * [`UnionFind`] — component labels for `red_qaoa`'s incremental move
//!   evaluator. Slots are allocated explicitly ([`UnionFind::make_set`]),
//!   so a node that leaves and later re-enters a selection gets a *fresh*
//!   slot instead of dragging its stale tree along — deletion is handled by
//!   ghosting the old slot and periodically rebuilding.
//! * [`AdjacencyCsr`] — the flat `offsets`/`adj` layout shared by the SA
//!   state and the resize scratch, rebuildable in place without
//!   reallocating.
//! * [`ArticulationPoints`] — one Tarjan pass answers "which selected nodes
//!   are cut vertices?" for a whole selection at once, replacing
//!   per-candidate component recounts.
//! * [`degeneracy_order`] — the classic peel-minimum-degree order; its tail
//!   is the densest core of the graph and seeds the first candidate size of
//!   the warm reduction path.

use crate::Graph;

/// Sentinel for "no parent / not present" indices.
const NONE: usize = usize::MAX;

/// Slot-based disjoint-set forest (union by size, path halving).
///
/// Unlike a fixed `0..n` union-find, slots are created on demand with
/// [`UnionFind::make_set`]; callers map their own entities onto slots. This
/// is what makes deletions workable for the SA swap pattern: removing an
/// entity simply abandons its slot (a *ghost* that keeps the forest's
/// structure intact), and re-inserting the entity allocates a fresh slot, so
/// stale tree edges can never merge two live components. Callers bound ghost
/// growth by periodically calling [`UnionFind::clear`] and relabeling.
///
/// # Example
///
/// ```
/// use graphlib::connectivity::UnionFind;
///
/// let mut uf = UnionFind::with_capacity(4);
/// let a = uf.make_set();
/// let b = uf.make_set();
/// let c = uf.make_set();
/// assert_ne!(uf.find(a), uf.find(b));
/// uf.union(a, b);
/// assert_eq!(uf.find(a), uf.find(b));
/// assert_ne!(uf.find(a), uf.find(c));
/// ```
#[derive(Debug, Clone, Default)]
pub struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl UnionFind {
    /// Creates an empty forest with room for `capacity` slots.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            parent: Vec::with_capacity(capacity),
            size: Vec::with_capacity(capacity),
        }
    }

    /// Number of slots ever created (including ghosts) since the last
    /// [`UnionFind::clear`].
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` if no slot has been created since the last clear.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Allocates a fresh singleton slot and returns its id.
    pub fn make_set(&mut self) -> usize {
        let slot = self.parent.len();
        self.parent.push(slot);
        self.size.push(1);
        slot
    }

    /// Root of `slot`'s tree (path-halving; amortized near-constant).
    ///
    /// # Panics
    ///
    /// Panics if `slot` was never created.
    pub fn find(&mut self, mut slot: usize) -> usize {
        while self.parent[slot] != slot {
            self.parent[slot] = self.parent[self.parent[slot]];
            slot = self.parent[slot];
        }
        slot
    }

    /// Merges the sets of `a` and `b`; returns the surviving root.
    pub fn union(&mut self, a: usize, b: usize) -> usize {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return ra;
        }
        // Union by size; ties attach the higher root under the lower so the
        // outcome is a pure function of the operation sequence.
        let (big, small) =
            if self.size[ra] > self.size[rb] || (self.size[ra] == self.size[rb] && ra < rb) {
                (ra, rb)
            } else {
                (rb, ra)
            };
        self.parent[small] = big;
        self.size[big] += self.size[small];
        big
    }

    /// Drops every slot (ghosts included) so the forest can be rebuilt with
    /// a compact slot range. Capacity is retained.
    pub fn clear(&mut self) {
        self.parent.clear();
        self.size.clear();
    }
}

/// Flat CSR snapshot of a [`Graph`]'s adjacency: `adj[offsets[u]..offsets[u + 1]]`
/// are `u`'s neighbors in ascending order.
///
/// Both the SA move evaluator and the resize scratch iterate neighborhoods
/// millions of times; a contiguous slice walk (plus binary-search edge
/// tests, see [`AdjacencyCsr::has_edge`]) beats hopping between the
/// graph's per-node lists by a wide margin. [`AdjacencyCsr::rebuild_from`]
/// refills the buffers in place, so a scratch-owned CSR allocates only on
/// first use or growth.
///
/// # Example
///
/// ```
/// use graphlib::connectivity::AdjacencyCsr;
/// use graphlib::Graph;
///
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
/// let csr = AdjacencyCsr::from_graph(&g);
/// assert_eq!(csr.neighbors(1), &[0, 2]);
/// assert!(csr.has_edge(0, 1));
/// assert!(!csr.has_edge(0, 2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct AdjacencyCsr {
    offsets: Vec<usize>,
    adj: Vec<usize>,
}

impl AdjacencyCsr {
    /// Builds the CSR snapshot of `graph`.
    pub fn from_graph(graph: &Graph) -> Self {
        let mut csr = Self::default();
        csr.rebuild_from(graph);
        csr
    }

    /// Refills the snapshot from `graph`, reusing the existing buffers.
    pub fn rebuild_from(&mut self, graph: &Graph) {
        let n = graph.node_count();
        self.offsets.clear();
        self.adj.clear();
        self.offsets.reserve(n + 1);
        self.adj.reserve(2 * graph.edge_count());
        self.offsets.push(0);
        for u in 0..n {
            self.adj.extend(graph.neighbors(u));
            self.offsets.push(self.adj.len());
        }
    }

    /// Number of nodes in the snapshot.
    pub fn node_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Neighbors of `u` in ascending order.
    pub fn neighbors(&self, u: usize) -> &[usize] {
        &self.adj[self.offsets[u]..self.offsets[u + 1]]
    }

    /// `true` if the edge `{u, v}` exists (binary search on the sorted
    /// neighbor slice — `O(log deg)` with no tree traversal).
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }
}

/// Reusable articulation-point engine (iterative Tarjan DFS).
///
/// One [`ArticulationPoints::compute`] call classifies every node of a
/// masked induced subgraph as cut / non-cut in `O(V + E)`, which is the
/// primitive behind the heap-based eviction in
/// `red_qaoa::annealing::resize_selection`: the old greedy re-counted
/// components once per *candidate*, this answers all candidates with a
/// single pass. The engine owns its DFS scratch, so steady-state reuse
/// performs no allocations once buffers have grown to the graph size.
///
/// # Example
///
/// ```
/// use graphlib::connectivity::{AdjacencyCsr, ArticulationPoints};
/// use graphlib::Graph;
///
/// // Path 0 - 1 - 2: the middle node is the only cut vertex.
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
/// let csr = AdjacencyCsr::from_graph(&g);
/// let mut engine = ArticulationPoints::default();
/// let mask = vec![true; 3];
/// let cut = engine.compute(&csr, &mask).to_vec();
/// assert_eq!(cut, vec![false, true, false]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ArticulationPoints {
    disc: Vec<u32>,
    low: Vec<u32>,
    is_cut: Vec<bool>,
    /// DFS stack frames: (node, parent, next adjacency index).
    stack: Vec<(usize, usize, usize)>,
}

impl ArticulationPoints {
    /// Computes the cut-vertex classification of the subgraph of `csr`
    /// induced by `mask` (`mask[u]` selects node `u`). Returns a slice
    /// indexed by node id; entries of unselected nodes are `false`.
    ///
    /// # Panics
    ///
    /// Panics if `mask` is shorter than the snapshot's node count.
    pub fn compute(&mut self, csr: &AdjacencyCsr, mask: &[bool]) -> &[bool] {
        let n = csr.node_count();
        assert!(mask.len() >= n, "mask shorter than node count");
        self.disc.clear();
        self.disc.resize(n, 0);
        self.low.clear();
        self.low.resize(n, 0);
        self.is_cut.clear();
        self.is_cut.resize(n, false);
        self.stack.clear();
        let mut timer = 0u32;

        for root in 0..n {
            if !mask[root] || self.disc[root] != 0 {
                continue;
            }
            timer += 1;
            self.disc[root] = timer;
            self.low[root] = timer;
            let mut root_children = 0usize;
            self.stack.push((root, NONE, csr.offsets[root]));
            while let Some(&mut (u, parent, ref mut i)) = self.stack.last_mut() {
                if *i < csr.offsets[u + 1] {
                    let v = csr.adj[*i];
                    *i += 1;
                    if !mask[v] || v == parent {
                        continue;
                    }
                    if self.disc[v] == 0 {
                        timer += 1;
                        self.disc[v] = timer;
                        self.low[v] = timer;
                        self.stack.push((v, u, csr.offsets[v]));
                    } else {
                        self.low[u] = self.low[u].min(self.disc[v]);
                    }
                } else {
                    self.stack.pop();
                    if parent == NONE {
                        break;
                    }
                    self.low[parent] = self.low[parent].min(self.low[u]);
                    if parent == root {
                        root_children += 1;
                    } else if self.low[u] >= self.disc[parent] {
                        self.is_cut[parent] = true;
                    }
                }
            }
            self.is_cut[root] = root_children >= 2;
        }
        &self.is_cut
    }
}

/// Degeneracy (smallest-last) ordering: repeatedly peel a minimum-degree
/// node, lowest index first among ties.
///
/// The returned vector lists nodes in peel order, so its *tail* is the
/// densest core of the graph — the region whose induced AND is highest.
/// The warm reduction path grows its first-candidate-size seed from that
/// core instead of paying `sa_runs` cold SA restarts. The order is a pure
/// function of the graph (no RNG), so seeds built from it keep reductions
/// bitwise thread-count invariant.
///
/// # Example
///
/// ```
/// use graphlib::connectivity::degeneracy_order;
/// use graphlib::Graph;
///
/// // A triangle with a pendant node: the pendant peels first, the
/// // triangle (the 2-core) forms the tail.
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap();
/// let order = degeneracy_order(&g);
/// assert_eq!(order[0], 3);
/// let mut core: Vec<usize> = order[1..].to_vec();
/// core.sort_unstable();
/// assert_eq!(core, vec![0, 1, 2]);
/// ```
pub fn degeneracy_order(graph: &Graph) -> Vec<usize> {
    let n = graph.node_count();
    let mut degree: Vec<usize> = (0..n).map(|u| graph.degree(u)).collect();
    let max_degree = degree.iter().copied().max().unwrap_or(0);

    // Counting-sort nodes by degree (stable, so ties stay in index order).
    let mut bin_start = vec![0usize; max_degree + 2];
    for &d in &degree {
        bin_start[d + 1] += 1;
    }
    for d in 1..bin_start.len() {
        bin_start[d] += bin_start[d - 1];
    }
    let mut vert = vec![0usize; n];
    let mut pos = vec![0usize; n];
    {
        let mut next = bin_start.clone();
        for u in 0..n {
            let p = next[degree[u]];
            vert[p] = u;
            pos[u] = p;
            next[degree[u]] += 1;
        }
    }

    let mut order = Vec::with_capacity(n);
    let mut removed = vec![false; n];
    for i in 0..n {
        let u = vert[i];
        order.push(u);
        removed[u] = true;
        for v in graph.neighbors(u) {
            if removed[v] {
                continue;
            }
            // Move `v` one degree-bin down: swap it with the first node of
            // its current bin, then shift the bin boundary right.
            let dv = degree[v];
            let pv = pos[v];
            let pw = bin_start[dv].max(i + 1);
            let w = vert[pw];
            if v != w {
                vert.swap(pv, pw);
                pos[v] = pw;
                pos[w] = pv;
            }
            bin_start[dv] = pw + 1;
            degree[v] -= 1;
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete, connected_gnp, cycle, star};
    use crate::traversal::connected_components;

    /// Brute-force cut-vertex test: removing a cut vertex increases the
    /// component count of its induced subgraph.
    fn brute_force_cuts(graph: &Graph, mask: &[bool]) -> Vec<bool> {
        let n = graph.node_count();
        let selected: Vec<usize> = (0..n).filter(|&u| mask[u]).collect();
        let base = masked_components(graph, mask);
        let mut cut = vec![false; n];
        for &u in &selected {
            let mut m = mask.to_vec();
            m[u] = false;
            let after = masked_components(graph, &m);
            // Removing an isolated node drops one component; any other node
            // is a cut vertex iff the count grows.
            let isolated = !graph.neighbors(u).any(|v| mask[v]);
            cut[u] = if isolated { false } else { after > base };
        }
        cut
    }

    fn masked_components(graph: &Graph, mask: &[bool]) -> usize {
        let nodes: Vec<usize> = (0..graph.node_count()).filter(|&u| mask[u]).collect();
        if nodes.is_empty() {
            return 0;
        }
        let sub = crate::subgraph::induced_subgraph(graph, &nodes).unwrap();
        connected_components(&sub.graph).len()
    }

    #[test]
    fn union_find_merges_and_separates() {
        let mut uf = UnionFind::with_capacity(8);
        let slots: Vec<usize> = (0..6).map(|_| uf.make_set()).collect();
        assert_eq!(uf.len(), 6);
        assert!(!uf.is_empty());
        uf.union(slots[0], slots[1]);
        uf.union(slots[2], slots[3]);
        assert_eq!(uf.find(slots[0]), uf.find(slots[1]));
        assert_ne!(uf.find(slots[0]), uf.find(slots[2]));
        uf.union(slots[1], slots[3]);
        assert_eq!(uf.find(slots[0]), uf.find(slots[2]));
        assert_ne!(uf.find(slots[0]), uf.find(slots[4]));
        uf.clear();
        assert!(uf.is_empty());
    }

    #[test]
    fn union_find_roots_partition_random_graphs() {
        for seed in 0..5u64 {
            let mut rng = mathkit::rng::seeded(900 + seed);
            let g = crate::generators::erdos_renyi_gnp(14, 0.15, &mut rng).unwrap();
            let mut uf = UnionFind::with_capacity(14);
            let slots: Vec<usize> = (0..14).map(|_| uf.make_set()).collect();
            for (u, v) in g.edges() {
                uf.union(slots[u], slots[v]);
            }
            let mut roots: Vec<usize> = (0..14).map(|u| uf.find(slots[u])).collect();
            roots.sort_unstable();
            roots.dedup();
            assert_eq!(roots.len(), connected_components(&g).len());
        }
    }

    #[test]
    fn csr_matches_graph_adjacency() {
        let mut rng = mathkit::rng::seeded(3);
        let g = connected_gnp(12, 0.3, &mut rng).unwrap();
        let csr = AdjacencyCsr::from_graph(&g);
        assert_eq!(csr.node_count(), 12);
        for u in 0..12 {
            let expected: Vec<usize> = g.neighbors(u).collect();
            assert_eq!(csr.neighbors(u), expected.as_slice());
            for v in 0..12 {
                assert_eq!(csr.has_edge(u, v), g.has_edge(u, v), "edge ({u}, {v})");
            }
        }
    }

    #[test]
    fn csr_rebuild_reuses_buffers() {
        let g1 = complete(6);
        let g2 = cycle(4).unwrap();
        let mut csr = AdjacencyCsr::from_graph(&g1);
        csr.rebuild_from(&g2);
        assert_eq!(csr.node_count(), 4);
        assert_eq!(csr.neighbors(0), &[1, 3]);
    }

    #[test]
    fn articulation_points_match_brute_force() {
        let mut engine = ArticulationPoints::default();
        for seed in 0..8u64 {
            let mut rng = mathkit::rng::seeded(100 + seed);
            let g = connected_gnp(12, 0.22, &mut rng).unwrap();
            // Full mask and a masked subset.
            for drop in [usize::MAX, 0, 5] {
                let mask: Vec<bool> = (0..12).map(|u| u != drop).collect();
                let csr = AdjacencyCsr::from_graph(&g);
                let got = engine.compute(&csr, &mask).to_vec();
                let expected = brute_force_cuts(&g, &mask);
                assert_eq!(got, expected, "seed {seed}, dropped {drop}");
            }
        }
    }

    #[test]
    fn articulation_points_on_structured_graphs() {
        let mut engine = ArticulationPoints::default();
        // A star's hub is the only articulation point.
        let s = star(6).unwrap();
        let cut = engine
            .compute(&AdjacencyCsr::from_graph(&s), &[true; 6])
            .to_vec();
        assert_eq!(cut, vec![true, false, false, false, false, false]);
        // No node of a cycle or a complete graph is a cut vertex.
        for g in [cycle(7).unwrap(), complete(5)] {
            let n = g.node_count();
            let cut = engine.compute(&AdjacencyCsr::from_graph(&g), &vec![true; n]);
            assert!(cut.iter().all(|&c| !c));
        }
    }

    #[test]
    fn degeneracy_order_peels_sparse_nodes_first() {
        // Star: all leaves peel before the hub.
        let order = degeneracy_order(&star(8).unwrap());
        assert_eq!(*order.last().unwrap(), 0);
        // On a regular graph every degree ties, so the first peel takes the
        // lowest index.
        assert_eq!(degeneracy_order(&cycle(5).unwrap())[0], 0);
        // Every node appears exactly once.
        let mut rng = mathkit::rng::seeded(11);
        let g = connected_gnp(20, 0.25, &mut rng).unwrap();
        let mut order = degeneracy_order(&g);
        order.sort_unstable();
        assert_eq!(order, (0..20).collect::<Vec<usize>>());
    }

    #[test]
    fn degeneracy_order_is_smallest_last() {
        // At each peel step the peeled node has minimum remaining degree.
        let mut rng = mathkit::rng::seeded(13);
        let g = connected_gnp(16, 0.3, &mut rng).unwrap();
        let order = degeneracy_order(&g);
        let mut removed = [false; 16];
        for &u in &order {
            let deg_u = g.neighbors(u).filter(|&v| !removed[v]).count();
            for w in 0..16 {
                if removed[w] || w == u {
                    continue;
                }
                let deg_w = g.neighbors(w).filter(|&v| !removed[v]).count();
                assert!(
                    deg_u <= deg_w,
                    "peeled {u} (deg {deg_u}) before {w} (deg {deg_w})"
                );
            }
            removed[u] = true;
        }
    }
}
