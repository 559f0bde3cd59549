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
//! parallel edges) and undirected.
//!
//! # Example
//!
//! ```
//! use graphlib::Graph;
//!
//! let mut g = Graph::new(4);
//! g.add_edge(0, 1).unwrap();
//! g.add_edge(1, 2).unwrap();
//! g.add_edge(2, 3).unwrap();
//! assert_eq!(g.edge_count(), 3);
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

/// A simple undirected graph over nodes `0..n`.
///
/// Each node's neighbors are kept as a sorted, duplicate-free `Vec`: one
/// small allocation per node instead of a tree node, which matters for the
/// many small reduced graphs a long-lived engine caches. Sorted lists make
/// the representation canonical, so equal edge sets compare and hash equal
/// whatever order their edges were added in.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Graph {
    node_count: usize,
    adjacency: Vec<Vec<usize>>,
}

impl Graph {
    /// Creates a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Self {
            node_count: n,
            adjacency: vec![Vec::new(); n],
        }
    }

    /// Creates a graph with `n` nodes and the given edges.
    ///
    /// Duplicate edges are ignored. Edges in the canonical form
    /// [`Graph::edges`] lists them in (pairs `u < v < n`, strictly
    /// increasing) are laid out in one pass, each list allocated once at its
    /// final length; any other input is inserted edge by edge. Both give the
    /// same graph.
    ///
    /// # Errors
    ///
    /// Returns an error if any endpoint is out of range or an edge is a
    /// self-loop.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self, GraphError> {
        let canonical = edges.iter().all(|&(u, v)| u < v && v < n)
            && edges.windows(2).all(|pair| pair[0] < pair[1]);
        if canonical {
            let mut degree = vec![0usize; n];
            for &(u, v) in edges {
                degree[u] += 1;
                degree[v] += 1;
            }
            let mut adjacency: Vec<Vec<usize>> =
                degree.into_iter().map(Vec::with_capacity).collect();
            // Node `x` receives its lower neighbors while earlier rows are
            // walked, in ascending order, then its higher ones from its own
            // row, also ascending: every list comes out sorted.
            for &(u, v) in edges {
                adjacency[u].push(v);
                adjacency[v].push(u);
            }
            return Ok(Self {
                node_count: n,
                adjacency,
            });
        }
        let mut g = Self::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v)?;
        }
        Ok(g)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.iter().map(|a| a.len()).sum::<usize>() / 2
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.node_count == 0
    }

    /// Adds the undirected edge `{u, v}`. Adding an existing edge is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if either endpoint is out of
    /// range and [`GraphError::SelfLoop`] if `u == v`.
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<(), GraphError> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        for (a, b) in [(u, v), (v, u)] {
            let list = &mut self.adjacency[a];
            if let Err(at) = list.binary_search(&b) {
                list.insert(at, b);
            }
        }
        Ok(())
    }

    /// Removes the undirected edge `{u, v}` if present. Returns whether an
    /// edge was removed.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if either endpoint is out of range.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> Result<bool, GraphError> {
        self.check_node(u)?;
        self.check_node(v)?;
        let mut removed = false;
        for (a, b) in [(u, v), (v, u)] {
            let list = &mut self.adjacency[a];
            if let Ok(at) = list.binary_search(&b) {
                list.remove(at);
                removed = true;
            }
        }
        Ok(removed)
    }

    /// Returns `true` if the edge `{u, v}` exists.
    ///
    /// Out-of-range nodes simply yield `false`.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u < self.node_count && v < self.node_count && self.adjacency[u].binary_search(&v).is_ok()
    }

    /// Degree of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn degree(&self, node: usize) -> usize {
        assert!(node < self.node_count, "node {node} out of range");
        self.adjacency[node].len()
    }

    /// Iterator over the neighbors of a node in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        assert!(node < self.node_count, "node {node} out of range");
        self.adjacency[node].iter().copied()
    }

    /// All edges as `(u, v)` pairs with `u < v`, in lexicographic order.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut edges = Vec::with_capacity(self.edge_count());
        for u in 0..self.node_count {
            for &v in &self.adjacency[u] {
                if u < v {
                    edges.push((u, v));
                }
            }
        }
        edges
    }

    /// Degree of every node, indexed by node id.
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.node_count).map(|u| self.degree(u)).collect()
    }

    /// Average node degree (AND), the key similarity metric of Red-QAOA.
    ///
    /// Returns `0.0` for the empty graph.
    pub fn average_degree(&self) -> f64 {
        metrics::average_degree_of_counts(self.node_count, self.edge_count())
    }

    /// Edge density: edges divided by the maximum possible number of edges.
    ///
    /// Returns `0.0` for graphs with fewer than two nodes.
    pub fn density(&self) -> f64 {
        if self.node_count < 2 {
            return 0.0;
        }
        let max_edges = self.node_count * (self.node_count - 1) / 2;
        self.edge_count() as f64 / max_edges as f64
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
        assert!(node < self.node_count, "node {node} out of range");
        assert!(
            mask.len() >= self.node_count,
            "mask shorter than node count"
        );
        self.adjacency[node].iter().filter(|&&v| mask[v]).count()
    }

    /// Number of common neighbors of `u` and `v` (the number of triangles
    /// through the edge `{u, v}` when the edge exists).
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn common_neighbors(&self, u: usize, v: usize) -> usize {
        assert!(
            u < self.node_count && v < self.node_count,
            "node out of range"
        );
        let others = &self.adjacency[v];
        self.adjacency[u]
            .iter()
            .filter(|w| others.binary_search(w).is_ok())
            .count()
    }

    /// Returns a new graph with the same nodes and edges plus `extra` isolated
    /// nodes appended.
    pub fn with_extra_nodes(&self, extra: usize) -> Graph {
        let mut g = Graph::new(self.node_count + extra);
        for (u, v) in self.edges() {
            g.add_edge(u, v).expect("existing edges are valid");
        }
        g
    }

    /// The complement graph (same nodes, edges flipped).
    pub fn complement(&self) -> Graph {
        let mut g = Graph::new(self.node_count);
        for u in 0..self.node_count {
            for v in (u + 1)..self.node_count {
                if !self.has_edge(u, v) {
                    g.add_edge(u, v).expect("complement edges are valid");
                }
            }
        }
        g
    }

    fn check_node(&self, node: usize) -> Result<(), GraphError> {
        if node >= self.node_count {
            Err(GraphError::NodeOutOfRange {
                node,
                node_count: self.node_count,
            })
        } else {
            Ok(())
        }
    }
}

impl std::fmt::Display for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Graph(nodes={}, edges={})",
            self.node_count,
            self.edge_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut g = Graph::new(3);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 0).unwrap(); // duplicate, ignored
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(g.remove_edge(0, 1).unwrap());
        assert!(!g.remove_edge(0, 1).unwrap());
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn canonical_and_arbitrary_edge_orders_build_the_same_graph() {
        // Each graph is built edge by edge, then rebuilt from its canonical
        // edge list (the one-pass path) and from a reversed, duplicated one.
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(7);
        for n in [0usize, 1, 2, 5, 13, 20] {
            let mut g = Graph::new(n);
            for u in 0..n {
                for v in u + 1..n {
                    if rand::Rng::gen_range(&mut rng, 0..3) == 0 {
                        g.add_edge(u, v).unwrap();
                    }
                }
            }
            let canonical = g.edges();
            assert_eq!(Graph::from_edges(n, &canonical).unwrap(), g, "{n} nodes");
            let mut shuffled: Vec<(usize, usize)> =
                canonical.iter().rev().map(|&(u, v)| (v, u)).collect();
            shuffled.extend_from_slice(&canonical);
            assert_eq!(Graph::from_edges(n, &shuffled).unwrap(), g);
        }
        assert!(Graph::from_edges(2, &[(0, 2)]).is_err());
        assert!(Graph::from_edges(2, &[(1, 1)]).is_err());
    }

    #[test]
    fn rejects_self_loops_and_bad_nodes() {
        let mut g = Graph::new(2);
        assert_eq!(g.add_edge(0, 0), Err(GraphError::SelfLoop(0)));
        assert_eq!(
            g.add_edge(0, 5),
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
        assert_eq!(g.edges(), vec![(0, 1), (2, 3)]);
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
    fn complement_of_triangle_is_empty() {
        let g = triangle().complement();
        assert_eq!(g.edge_count(), 0);
        let g2 = Graph::new(3).complement();
        assert_eq!(g2.edge_count(), 3);
    }

    #[test]
    fn with_extra_nodes_preserves_edges() {
        let g = triangle().with_extra_nodes(2);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(4), 0);
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
