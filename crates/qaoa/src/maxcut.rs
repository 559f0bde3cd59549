//! The MaxCut problem: cost function, diagonal Hamiltonian, and brute force.
//!
//! Each computational basis state `z` assigns every node to partition 0 or 1
//! (node `i` is the `i`-th bit of `z`). The cut value is the number of edges
//! whose endpoints fall in different partitions; the QAOA cost Hamiltonian
//! (Equation 5) is diagonal with exactly these values on the diagonal.

use crate::expectation::MAX_EXACT_NODES;
use crate::QaoaError;
use graphlib::Graph;
use qsim::statevector::cut_counts;

/// Number of edges cut by the assignment `z` (bit `i` = partition of node `i`).
pub fn cut_value(graph: &Graph, assignment: u64) -> usize {
    graph
        .edges()
        .iter()
        .filter(|&&(u, v)| ((assignment >> u) & 1) != ((assignment >> v) & 1))
        .count()
}

/// The diagonal of the MaxCut cost Hamiltonian: `values[z] = cut(z)` for all
/// `2^n` basis states, one byte each (a graph within the exact-simulation
/// limit has at most 231 edges), built in O(2^n) by
/// [`qsim::statevector::cut_counts`].
///
/// # Errors
///
/// Returns [`QaoaError::GraphTooLarge`] if the graph has more than
/// [`MAX_EXACT_NODES`] nodes.
pub fn cut_values(graph: &Graph) -> Result<Vec<u8>, QaoaError> {
    let n = graph.node_count();
    if n > MAX_EXACT_NODES {
        return Err(QaoaError::GraphTooLarge {
            nodes: n,
            limit: MAX_EXACT_NODES,
        });
    }
    Ok(cut_counts(n, &graph.edges()))
}

/// Result of the brute-force MaxCut solver.
#[derive(Debug, Clone, PartialEq)]
pub struct MaxCutSolution {
    /// The best cut value found (the ground truth optimum).
    pub best_cut: usize,
    /// One assignment achieving it.
    pub assignment: u64,
}

/// Exhaustive MaxCut solver (the classical ground truth of Equation 13).
///
/// # Errors
///
/// Returns [`QaoaError::GraphTooLarge`] for graphs with more than 26 nodes and
/// [`QaoaError::DegenerateGraph`] for graphs without nodes.
pub fn brute_force_maxcut(graph: &Graph) -> Result<MaxCutSolution, QaoaError> {
    let n = graph.node_count();
    if n == 0 {
        return Err(QaoaError::DegenerateGraph);
    }
    if n > 26 {
        return Err(QaoaError::GraphTooLarge {
            nodes: n,
            limit: 26,
        });
    }
    let edges = graph.edges();
    let mut best_cut = 0usize;
    let mut best_assignment = 0u64;
    // Fixing node 0 to partition 0 halves the search space.
    for z in 0..(1u64 << (n - 1)) {
        let z = z << 1;
        let mut cut = 0usize;
        for &(u, v) in &edges {
            if ((z >> u) & 1) != ((z >> v) & 1) {
                cut += 1;
            }
        }
        if cut > best_cut {
            best_cut = cut;
            best_assignment = z;
        }
    }
    Ok(MaxCutSolution {
        best_cut,
        assignment: best_assignment,
    })
}

/// A greedy 0.5-approximation for MaxCut on graphs too large for brute force:
/// nodes are assigned one at a time to the side that cuts more of the already
/// placed edges. Used as the ground-truth stand-in for large-graph studies.
pub fn greedy_maxcut(graph: &Graph) -> usize {
    let n = graph.node_count();
    let mut side = vec![false; n];
    for u in 0..n {
        let mut cut_if_false = 0usize;
        let mut cut_if_true = 0usize;
        for v in graph.neighbors(u) {
            if v < u {
                if side[v] {
                    cut_if_false += 1;
                } else {
                    cut_if_true += 1;
                }
            }
        }
        side[u] = cut_if_true > cut_if_false;
    }
    let mut assignment = 0u64;
    for (u, &s) in side.iter().enumerate() {
        if s && u < 64 {
            assignment |= 1 << u;
        }
    }
    if n <= 64 {
        cut_value(graph, assignment)
    } else {
        // Count directly for very large graphs.
        graph
            .edges()
            .iter()
            .filter(|&&(u, v)| side[u] != side[v])
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlib::generators::{complete, cycle, path, star};

    #[test]
    fn cut_value_of_known_assignments() {
        let g = path(3).unwrap(); // edges (0,1), (1,2)
        assert_eq!(cut_value(&g, 0b000), 0);
        assert_eq!(cut_value(&g, 0b010), 2);
        assert_eq!(cut_value(&g, 0b001), 1);
    }

    #[test]
    fn cut_values_table_matches_pointwise() {
        let g = cycle(5).unwrap();
        let table = cut_values(&g).unwrap();
        for z in 0..(1usize << 5) {
            assert_eq!(usize::from(table[z]), cut_value(&g, z as u64));
        }
    }

    #[test]
    fn brute_force_known_optima() {
        // Even cycle: max cut = n.
        assert_eq!(brute_force_maxcut(&cycle(6).unwrap()).unwrap().best_cut, 6);
        // Odd cycle: max cut = n - 1.
        assert_eq!(brute_force_maxcut(&cycle(7).unwrap()).unwrap().best_cut, 6);
        // Complete graph K4: max cut = 4 (2-2 split).
        assert_eq!(brute_force_maxcut(&complete(4)).unwrap().best_cut, 4);
        // Star: all edges can be cut.
        assert_eq!(brute_force_maxcut(&star(6).unwrap()).unwrap().best_cut, 5);
        // Path: all edges can be cut.
        assert_eq!(brute_force_maxcut(&path(5).unwrap()).unwrap().best_cut, 4);
    }

    #[test]
    fn brute_force_assignment_achieves_reported_cut() {
        let g = complete(5);
        let sol = brute_force_maxcut(&g).unwrap();
        assert_eq!(cut_value(&g, sol.assignment), sol.best_cut);
        assert_eq!(sol.best_cut, 6); // 2-3 split of K5
    }

    #[test]
    fn degenerate_and_oversized_graphs_are_rejected() {
        assert!(brute_force_maxcut(&graphlib::Graph::new(0)).is_err());
        assert!(cut_values(&graphlib::Graph::new(30)).is_err());
    }

    #[test]
    fn greedy_maxcut_is_reasonable() {
        let g = cycle(10).unwrap();
        let greedy = greedy_maxcut(&g);
        let exact = brute_force_maxcut(&g).unwrap().best_cut;
        assert!(greedy * 2 >= exact, "greedy {greedy} vs exact {exact}");
        assert!(greedy <= exact);
        // Bipartite graphs: greedy finds the full cut on stars.
        assert_eq!(greedy_maxcut(&star(8).unwrap()), 7);
    }
}
