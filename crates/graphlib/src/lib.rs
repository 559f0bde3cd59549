//! Undirected graph substrate for the Red-QAOA reproduction.
//!
//! This crate plays the role NetworkX plays in the paper's reference
//! implementation: it provides the [`Graph`] type, random and structured
//! graph [`generators`], degree and density [`metrics`], the node
//! [`centrality`] measures used as GNN-pooling features, breadth-first
//! [`traversal`] utilities, [`subgraph`] extraction/enumeration, and a
//! light-weight [`isomorphism`] test for small graphs.
//!
//! Nodes are always the integers `0..n`. Graphs are simple (no self-loops, no
//! parallel edges), undirected, and frozen once built: a [`Graph`] is one
//! CSR adjacency, built from an edge list by [`Graph::from_edges`].
//!
//! # Example
//!
//! ```
//! use graphlib::Graph;
//!
//! let g = Graph::from_edges(4, &[(0, 1), (2, 1), (2, 3)]).unwrap();
//! assert_eq!(g.edge_count(), 3);
//! assert_eq!(g.edges().collect::<Vec<_>>(), [(0, 1), (1, 2), (2, 3)]);
//! assert!((g.average_degree() - 1.5).abs() < 1e-12);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod centrality;
pub mod connectivity;
pub mod generators;
pub mod isomorphism;
pub mod metrics;
pub mod subgraph;
pub mod traversal;

/// Errors produced by graph operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A node index was at least the number of nodes.
    NodeOutOfRange {
        /// The offending node index.
        node: usize,
        /// The number of nodes in the graph.
        node_count: usize,
    },
    /// A self-loop was requested.
    SelfLoop(usize),
    /// A generator or algorithm was given parameters outside its domain.
    InvalidParameter(&'static str),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, node_count } => {
                write!(
                    f,
                    "node {node} out of range for graph with {node_count} nodes"
                )
            }
            GraphError::SelfLoop(node) => write!(f, "self-loop on node {node} is not allowed"),
            GraphError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A simple undirected graph over nodes `0..n`, frozen once built.
///
/// The adjacency is one compressed sparse row (CSR) layout:
/// `neighbors[offsets[u]..offsets[u + 1]]` are `u`'s neighbors in ascending
/// order, both arrays `u32`, plus the stored edge count. Two allocations
/// hold a whole graph, so the many small reduced graphs a long-lived engine
/// caches stay cheap, and the SA state and the articulation-point pass walk
/// its slices directly ([`Graph::neighbor_slice`]) instead of keeping their
/// own copy. The layout is canonical: equal edge sets compare and hash equal
/// whatever order their edges were given in.
///
/// [`Graph::new`] and [`Graph::from_edges`] are the only constructors; code
/// that grows a graph collects its edge list first.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Graph {
    offsets: Box<[u32]>,
    neighbors: Box<[u32]>,
    edge_count: usize,
}

impl Graph {
    /// Creates a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Self {
            offsets: vec![0; n + 1].into_boxed_slice(),
            neighbors: Box::default(),
            edge_count: 0,
        }
    }

    /// Creates a graph with `n` nodes and the given edges, in any order and
    /// orientation; duplicate edges are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if an endpoint is out of
    /// range, [`GraphError::SelfLoop`] for a self-loop, and
    /// [`GraphError::InvalidParameter`] if the node count or the adjacency
    /// does not fit `u32` indices.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self, GraphError> {
        if u32::try_from(n).is_err() {
            return Err(GraphError::InvalidParameter("node count must fit in u32"));
        }
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(edges.len());
        for &(u, v) in edges {
            for node in [u, v] {
                if node >= n {
                    return Err(GraphError::NodeOutOfRange {
                        node,
                        node_count: n,
                    });
                }
            }
            if u == v {
                return Err(GraphError::SelfLoop(u));
            }
            pairs.push((u.min(v) as u32, u.max(v) as u32));
        }
        pairs.sort_unstable();
        pairs.dedup();
        if u32::try_from(2 * pairs.len()).is_err() {
            return Err(GraphError::InvalidParameter("adjacency must fit in u32"));
        }
        let mut offsets = vec![0u32; n + 1];
        for &(u, v) in &pairs {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for u in 0..n {
            offsets[u + 1] += offsets[u];
        }
        // Node `x` receives its lower neighbors from earlier pairs, in
        // ascending order, then its higher ones from its own pairs, also
        // ascending: every row comes out sorted.
        let mut next = offsets[..n].to_vec();
        let mut neighbors = vec![0u32; 2 * pairs.len()];
        for &(u, v) in &pairs {
            for (from, to) in [(u, v), (v, u)] {
                let slot = &mut next[from as usize];
                neighbors[*slot as usize] = to;
                *slot += 1;
            }
        }
        Ok(Self {
            offsets: offsets.into_boxed_slice(),
            neighbors: neighbors.into_boxed_slice(),
            edge_count: pairs.len(),
        })
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.node_count() == 0
    }

    /// Returns `true` if the edge `{u, v}` exists.
    ///
    /// Out-of-range nodes simply yield `false`.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        let n = self.node_count();
        u < n && v < n && self.neighbor_slice(u).binary_search(&(v as u32)).is_ok()
    }

    /// Degree of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn degree(&self, node: usize) -> usize {
        self.neighbor_slice(node).len()
    }

    /// The neighbors of a node in ascending order, as the CSR row itself.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbor_slice(&self, node: usize) -> &[u32] {
        assert!(node < self.node_count(), "node {node} out of range");
        &self.neighbors[self.offsets[node] as usize..self.offsets[node + 1] as usize]
    }

    /// Iterator over the neighbors of a node in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        self.neighbor_slice(node).iter().map(|&v| v as usize)
    }

    /// All edges as `(u, v)` pairs with `u < v`, in lexicographic order.
    pub fn edges(&self) -> Edges<'_> {
        Edges {
            graph: self,
            node: 0,
            at: 0,
            remaining: self.edge_count,
        }
    }

    /// Degree of every node, indexed by node id.
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.node_count()).map(|u| self.degree(u)).collect()
    }

    /// Average node degree (AND), the key similarity metric of Red-QAOA.
    ///
    /// Returns `0.0` for the empty graph.
    pub fn average_degree(&self) -> f64 {
        metrics::average_degree_of_counts(self.node_count(), self.edge_count)
    }

    /// Edge density: edges divided by the maximum possible number of edges.
    ///
    /// Returns `0.0` for graphs with fewer than two nodes.
    pub fn density(&self) -> f64 {
        let n = self.node_count();
        if n < 2 {
            return 0.0;
        }
        self.edge_count as f64 / (n * (n - 1) / 2) as f64
    }

    /// Number of neighbors of `node` whose entry in `mask` is `true`.
    ///
    /// This is the degree of `node` restricted to the vertex subset encoded
    /// by `mask` — the primitive an incremental subgraph evaluator needs to
    /// compute the degree delta of a node swap in `O(deg)` without building
    /// the induced subgraph.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `mask` is shorter than the node
    /// count.
    pub fn neighbor_count_in(&self, node: usize, mask: &[bool]) -> usize {
        assert!(
            mask.len() >= self.node_count(),
            "mask shorter than node count"
        );
        self.neighbors(node).filter(|&v| mask[v]).count()
    }

    /// Number of common neighbors of `u` and `v` (the number of triangles
    /// through the edge `{u, v}` when the edge exists).
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn common_neighbors(&self, u: usize, v: usize) -> usize {
        let others = self.neighbor_slice(v);
        self.neighbor_slice(u)
            .iter()
            .filter(|w| others.binary_search(w).is_ok())
            .count()
    }
}

/// Iterator over a graph's edges, returned by [`Graph::edges`]: `(u, v)`
/// pairs with `u < v` in lexicographic order, read off the CSR rows without
/// allocating.
#[derive(Debug, Clone)]
pub struct Edges<'a> {
    graph: &'a Graph,
    /// The row being read and the next position in `graph.neighbors`.
    node: usize,
    at: usize,
    remaining: usize,
}

impl Iterator for Edges<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        while self.remaining > 0 {
            if self.at == self.graph.offsets[self.node + 1] as usize {
                self.node += 1;
                continue;
            }
            let v = self.graph.neighbors[self.at] as usize;
            self.at += 1;
            if self.node < v {
                self.remaining -= 1;
                return Some((self.node, v));
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Edges<'_> {}

impl std::fmt::Display for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Graph(nodes={}, edges={})",
            self.node_count(),
            self.edge_count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{prop_assert, prop_assert_eq};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    #[test]
    fn new_graph_has_no_edges() {
        let g = Graph::new(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert!(!g.is_empty());
        assert!(Graph::new(0).is_empty());
    }

    #[test]
    fn add_and_remove_edges() {
        // A frozen graph gains or loses an edge by being rebuilt from an
        // edited edge list; a duplicate, reversed edge is ignored.
        let g = Graph::from_edges(3, &[(0, 1), (1, 0)]).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        let mut edges: Vec<(usize, usize)> = g.edges().collect();
        edges.push((2, 1));
        let added = Graph::from_edges(3, &edges).unwrap();
        assert_eq!(added.edges().collect::<Vec<_>>(), vec![(0, 1), (1, 2)]);
        let kept: Vec<(usize, usize)> = added.edges().filter(|&e| e != (0, 1)).collect();
        let removed = Graph::from_edges(3, &kept).unwrap();
        assert!(!removed.has_edge(0, 1));
        assert!(removed.has_edge(2, 1));
        assert_eq!(removed.edge_count(), 1);
        let emptied = Graph::from_edges(3, &[]).unwrap();
        assert_eq!(emptied.edge_count(), 0);
        assert_eq!(emptied, Graph::new(3));
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        /// A graph built from a shuffled, partly reversed and duplicated
        /// edge list equals the one built from its canonical list, and
        /// answers every query like a `BTreeSet` of its edges.
        #[test]
        fn canonical_and_arbitrary_edge_orders_build_the_same_graph(n in 0usize..40, q in 0.0f64..0.6, seed in 0u64..1_000_000) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let reference: BTreeSet<(usize, usize)> = (0..n)
                .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
                .filter(|_| rng.gen::<f64>() < q)
                .collect();
            let mut input = Vec::new();
            for &(u, v) in reference.iter().rev() {
                input.push(if rng.gen() { (v, u) } else { (u, v) });
                if rng.gen_range(0..4) == 0 {
                    input.push((v, u));
                }
            }
            for i in (1..input.len()).rev() {
                input.swap(i, rng.gen_range(0..=i));
            }
            let canonical: Vec<(usize, usize)> = reference.iter().copied().collect();
            let g = Graph::from_edges(n, &input).unwrap();
            prop_assert_eq!(&g, &Graph::from_edges(n, &canonical).unwrap());
            prop_assert_eq!((g.node_count(), g.edge_count()), (n, canonical.len()));
            prop_assert_eq!(g.edges().len(), canonical.len());
            prop_assert!(g.edges().eq(canonical));
            let has = |u: usize, v: usize| reference.contains(&(u.min(v), u.max(v)));
            for u in 0..n {
                let expected: Vec<usize> = (0..n).filter(|&v| has(u, v)).collect();
                prop_assert_eq!(g.degree(u), expected.len());
                prop_assert!(g.neighbors(u).eq(expected));
                for v in 0..n + 2 {
                    prop_assert_eq!(g.has_edge(u, v), v < n && has(u, v));
                    if v < n {
                        let common = (0..n).filter(|&w| has(u, w) && has(v, w)).count();
                        prop_assert_eq!(g.common_neighbors(u, v), common);
                    }
                }
            }
        }
    }

    #[test]
    fn rejects_self_loops_and_bad_nodes() {
        assert_eq!(
            Graph::from_edges(2, &[(0, 0)]),
            Err(GraphError::SelfLoop(0))
        );
        assert_eq!(
            Graph::from_edges(2, &[(0, 1), (0, 5)]),
            Err(GraphError::NodeOutOfRange {
                node: 5,
                node_count: 2
            })
        );
    }

    #[test]
    fn degrees_and_average_degree() {
        let g = triangle();
        assert_eq!(g.degrees(), vec![2, 2, 2]);
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
        assert!((g.density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn edges_are_sorted_and_unique() {
        let g = Graph::from_edges(4, &[(2, 3), (0, 1), (1, 0)]).unwrap();
        assert_eq!(g.edges().collect::<Vec<_>>(), vec![(0, 1), (2, 3)]);
    }

    #[test]
    fn neighbor_count_in_restricts_degree_to_mask() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (2, 3)]).unwrap();
        let all = vec![true; 5];
        assert_eq!(g.neighbor_count_in(0, &all), g.degree(0));
        let mask = vec![false, true, true, false, false];
        assert_eq!(g.neighbor_count_in(0, &mask), 2);
        assert_eq!(g.neighbor_count_in(2, &mask), 0);
        assert_eq!(g.neighbor_count_in(4, &all), 0);
    }

    #[test]
    fn common_neighbors_counts_triangles() {
        let g = triangle();
        assert_eq!(g.common_neighbors(0, 1), 1);
        let path = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert_eq!(path.common_neighbors(0, 2), 1);
        assert_eq!(path.common_neighbors(0, 1), 0);
    }

    #[test]
    fn empty_graph_metrics_are_zero() {
        let g = Graph::new(0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.density(), 0.0);
        assert_eq!(Graph::new(1).density(), 0.0);
    }

    #[test]
    fn display_mentions_counts() {
        let g = triangle();
        assert_eq!(g.to_string(), "Graph(nodes=3, edges=3)");
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            GraphError::NodeOutOfRange {
                node: 3,
                node_count: 2,
            },
            GraphError::SelfLoop(1),
            GraphError::InvalidParameter("p"),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
