//! Degree and structure metrics.
//!
//! The Average Node Degree (AND) is Red-QAOA's key similarity metric; the
//! clustering coefficient is part of the node feature vector fed to the
//! GNN-pooling baselines.

use crate::Graph;

/// Average node degree (AND) of a graph; equal to [`Graph::average_degree`]
/// and provided as a free function for call-site symmetry with the paper's
/// pseudocode (`CalculateAND(G)`).
pub fn average_node_degree(graph: &Graph) -> f64 {
    graph.average_degree()
}

/// Average node degree `2|E|/|V|` of a graph with `nodes` nodes and `edges`
/// edges (`0.0` without nodes): the one formula behind
/// [`Graph::average_degree`].
pub(crate) fn average_degree_of_counts(nodes: usize, edges: usize) -> f64 {
    if nodes == 0 {
        return 0.0;
    }
    2.0 * edges as f64 / nodes as f64
}

/// Ratio of the subgraph's AND to the original graph's AND.
///
/// Returns `1.0` when the original graph has no edges (its AND is zero) and
/// the subgraph has none either, in which case the subgraph trivially
/// matches, and `0.0` when only the original has none.
pub fn and_ratio(original: &Graph, reduced: &Graph) -> f64 {
    and_ratio_of_counts(
        (original.node_count(), original.edge_count()),
        (reduced.node_count(), reduced.edge_count()),
    )
}

/// [`and_ratio`] from `(nodes, edges)` counts alone, with the same bits: a
/// caller that holds only the counts (a persisted record checked against
/// its key) recomputes the ratio without building either graph.
pub fn and_ratio_of_counts(original: (usize, usize), reduced: (usize, usize)) -> f64 {
    let base = average_degree_of_counts(original.0, original.1);
    let sub = average_degree_of_counts(reduced.0, reduced.1);
    if base <= f64::EPSILON {
        return if sub <= f64::EPSILON { 1.0 } else { 0.0 };
    }
    sub / base
}

/// Local clustering coefficient of a single node: the fraction of pairs of
/// neighbors that are themselves connected. Nodes of degree 0 or 1 have a
/// coefficient of 0.
///
/// # Panics
///
/// Panics if `node` is out of range.
pub fn local_clustering(graph: &Graph, node: usize) -> f64 {
    let neighbors: Vec<usize> = graph.neighbors(node).collect();
    let k = neighbors.len();
    if k < 2 {
        return 0.0;
    }
    let mut links = 0usize;
    for i in 0..k {
        for j in (i + 1)..k {
            if graph.has_edge(neighbors[i], neighbors[j]) {
                links += 1;
            }
        }
    }
    2.0 * links as f64 / (k * (k - 1)) as f64
}

/// Local clustering coefficient for every node.
pub fn clustering_coefficients(graph: &Graph) -> Vec<f64> {
    (0..graph.node_count())
        .map(|u| local_clustering(graph, u))
        .collect()
}

/// Average clustering coefficient of the graph (0 for the empty graph).
pub fn average_clustering(graph: &Graph) -> f64 {
    if graph.node_count() == 0 {
        return 0.0;
    }
    clustering_coefficients(graph).iter().sum::<f64>() / graph.node_count() as f64
}

/// Number of triangles in the graph.
pub fn triangle_count(graph: &Graph) -> usize {
    let mut count = 0usize;
    for (u, v) in graph.edges() {
        count += graph.common_neighbors(u, v);
    }
    count / 3
}

/// Degree histogram: `hist[d]` is the number of nodes with degree `d`.
pub fn degree_histogram(graph: &Graph) -> Vec<usize> {
    let degrees = graph.degrees();
    let max = degrees.iter().copied().max().unwrap_or(0);
    let mut hist = vec![0usize; max + 1];
    for d in degrees {
        hist[d] += 1;
    }
    hist
}

/// Returns `true` if every node has the same degree (the graph is regular).
/// Empty graphs are considered regular.
pub fn is_regular(graph: &Graph) -> bool {
    let degrees = graph.degrees();
    match degrees.first() {
        None => true,
        Some(&d0) => degrees.iter().all(|&d| d == d0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete, cycle, path, star};
    use crate::Graph;

    #[test]
    fn and_matches_graph_method() {
        let g = cycle(8).unwrap();
        assert_eq!(average_node_degree(&g), g.average_degree());
        assert!((average_node_degree(&g) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn and_ratio_behaviour() {
        let g = complete(6);
        let sub = complete(4);
        assert!((and_ratio(&g, &sub) - 3.0 / 5.0).abs() < 1e-12);
        let empty = Graph::new(4);
        assert_eq!(and_ratio(&empty, &Graph::new(2)), 1.0);
        assert_eq!(and_ratio(&empty, &complete(3)), 0.0);
        for (original, reduced) in [(complete(6), complete(4)), (complete(7), path(5).unwrap())] {
            let counts = |g: &Graph| (g.node_count(), g.edge_count());
            assert_eq!(
                and_ratio(&original, &reduced).to_bits(),
                and_ratio_of_counts(counts(&original), counts(&reduced)).to_bits()
            );
        }
    }

    #[test]
    fn clustering_of_known_graphs() {
        assert!((average_clustering(&complete(5)) - 1.0).abs() < 1e-12);
        assert_eq!(average_clustering(&cycle(6).unwrap()), 0.0);
        assert_eq!(average_clustering(&star(5).unwrap()), 0.0);
        assert_eq!(average_clustering(&Graph::new(0)), 0.0);
        // A triangle with a pendant node.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap();
        assert!((local_clustering(&g, 0) - 1.0).abs() < 1e-12);
        assert!((local_clustering(&g, 2) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(local_clustering(&g, 3), 0.0);
    }

    #[test]
    fn triangle_counts() {
        assert_eq!(triangle_count(&complete(4)), 4);
        assert_eq!(triangle_count(&cycle(5).unwrap()), 0);
        assert_eq!(triangle_count(&complete(3)), 1);
    }

    #[test]
    fn degree_histogram_shape() {
        let g = star(5).unwrap();
        let hist = degree_histogram(&g);
        assert_eq!(hist[1], 4);
        assert_eq!(hist[4], 1);
        assert_eq!(degree_histogram(&Graph::new(3)), vec![3]);
    }

    #[test]
    fn regularity_checks() {
        assert!(is_regular(&cycle(6).unwrap()));
        assert!(is_regular(&complete(4)));
        assert!(!is_regular(&path(4).unwrap()));
        assert!(is_regular(&Graph::new(0)));
    }
}
