//! Random and structured graph generators.
//!
//! These mirror the NetworkX generators the paper uses: Erdős–Rényi random
//! graphs for the "Random" dataset and the scalability studies, random
//! regular graphs for the parameter-transfer experiments, and the cycle,
//! star, and k-ary-tree families used in the motivation and transfer
//! sections.
//!
//! Every generator collects its edge list and builds the frozen graph once
//! with [`Graph::from_edges`]; those that test membership while they draw
//! keep the edges in a `BTreeSet` of `(low, high)` pairs meanwhile.

use crate::{Graph, GraphError};
use rand::Rng;
use std::collections::BTreeSet;

/// The edge `{u, v}` as its `(low, high)` pair.
fn ordered(u: usize, v: usize) -> (usize, usize) {
    (u.min(v), u.max(v))
}

/// Builds a graph from an edge set of `(low, high)` pairs over `0..n`.
fn from_set(n: usize, edges: &BTreeSet<(usize, usize)>) -> Result<Graph, GraphError> {
    Graph::from_edges(n, &edges.iter().copied().collect::<Vec<_>>())
}

/// Erdős–Rényi `G(n, p)` random graph: each of the `n(n-1)/2` possible edges
/// is present independently with probability `p`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `p` is not in `[0, 1]`.
pub fn erdos_renyi_gnp<R: Rng>(n: usize, p: f64, rng: &mut R) -> Result<Graph, GraphError> {
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidParameter("p must be in [0, 1]"));
    }
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen::<f64>() < p {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// Erdős–Rényi `G(n, m)` random graph: exactly `m` edges chosen uniformly
/// without replacement.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `m` exceeds the number of
/// possible edges.
pub fn erdos_renyi_gnm<R: Rng>(n: usize, m: usize, rng: &mut R) -> Result<Graph, GraphError> {
    let max_edges = if n < 2 { 0 } else { n * (n - 1) / 2 };
    if m > max_edges {
        return Err(GraphError::InvalidParameter(
            "m exceeds the number of possible edges",
        ));
    }
    let mut edges = BTreeSet::new();
    while edges.len() < m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            edges.insert(ordered(u, v));
        }
    }
    from_set(n, &edges)
}

/// A connected Erdős–Rényi-style random graph: draws `G(n, p)` and, if the
/// result is disconnected, adds a minimal set of random edges linking the
/// components.
///
/// Connectedness matters for the QAOA experiments: an isolated node would be
/// an unused qubit and a disconnected MaxCut instance decomposes trivially.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `p` is not in `[0, 1]` or
/// `n == 0`.
pub fn connected_gnp<R: Rng>(n: usize, p: f64, rng: &mut R) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidParameter("n must be positive"));
    }
    let g = erdos_renyi_gnp(n, p, rng)?;
    Ok(connect_components(g, rng))
}

/// Links the components of `graph` into one: for each consecutive pair of
/// components (in [`connected_components`](crate::traversal::connected_components)
/// order), one edge between a random member of each. A connected graph
/// comes back unchanged and draws nothing.
pub fn connect_components<R: Rng>(graph: Graph, rng: &mut R) -> Graph {
    let components = crate::traversal::connected_components(&graph);
    if components.len() < 2 {
        return graph;
    }
    let mut edges: Vec<(usize, usize)> = graph.edges().collect();
    for window in components.windows(2) {
        let a = window[0][rng.gen_range(0..window[0].len())];
        let b = window[1][rng.gen_range(0..window[1].len())];
        edges.push((a, b));
    }
    Graph::from_edges(graph.node_count(), &edges).expect("component members are in range")
}

/// Random `d`-regular graph via the pairing (configuration) model with
/// rejection of self-loops and multi-edges.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n * d` is odd, `d >= n`, or a
/// valid pairing cannot be found in a reasonable number of attempts.
pub fn random_regular<R: Rng>(n: usize, d: usize, rng: &mut R) -> Result<Graph, GraphError> {
    if d >= n {
        return Err(GraphError::InvalidParameter("degree must be below n"));
    }
    if (n * d) % 2 != 0 {
        return Err(GraphError::InvalidParameter("n * d must be even"));
    }
    if d == 0 {
        return Ok(Graph::new(n));
    }
    'attempt: for _ in 0..200 {
        // Stubs: each node appears d times.
        let mut stubs: Vec<usize> = (0..n).flat_map(|u| std::iter::repeat(u).take(d)).collect();
        // Shuffle stubs (Fisher–Yates).
        for i in (1..stubs.len()).rev() {
            let j = rng.gen_range(0..=i);
            stubs.swap(i, j);
        }
        let mut present = BTreeSet::new();
        // Pair off the clean stubs first; conflicting pairs (self-loops or
        // duplicate edges) are repaired afterwards instead of restarting the
        // whole matching — plain rejection succeeds only with probability
        // roughly exp(-(d² - 1) / 4), which is hopeless for dense degrees.
        let mut conflicts: Vec<(usize, usize)> = Vec::new();
        for pair in stubs.chunks(2) {
            let (u, v) = (pair[0], pair[1]);
            if u == v || !present.insert(ordered(u, v)) {
                conflicts.push((u, v));
            }
        }
        // Repair each conflicting pair with a double-edge swap: remove a
        // random compatible edge (x, y) and rewire as (u, x) and (v, y).
        // The edge list (drawn from by index) and the edge set are kept in
        // sync; both change only when a repair succeeds.
        let mut edges: Vec<(usize, usize)> = present.iter().copied().collect();
        for &(u, v) in &conflicts {
            let mut repaired = false;
            for _ in 0..500 {
                if edges.is_empty() {
                    break;
                }
                let pick = rng.gen_range(0..edges.len());
                let (mut x, mut y) = edges[pick];
                if rng.gen::<bool>() {
                    std::mem::swap(&mut x, &mut y);
                }
                let distinct = x != u && x != v && y != u && y != v;
                if distinct
                    && !present.contains(&ordered(u, x))
                    && !present.contains(&ordered(v, y))
                {
                    present.remove(&ordered(x, y));
                    present.insert(ordered(u, x));
                    present.insert(ordered(v, y));
                    edges.swap_remove(pick);
                    edges.push((u, x));
                    edges.push((v, y));
                    repaired = true;
                    break;
                }
            }
            if !repaired {
                continue 'attempt;
            }
        }
        return from_set(n, &present);
    }
    Err(GraphError::InvalidParameter(
        "failed to generate a random regular graph; try different n, d",
    ))
}

/// Cycle graph `C_n`: a single closed loop of `n` nodes.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n < 3`.
pub fn cycle(n: usize) -> Result<Graph, GraphError> {
    if n < 3 {
        return Err(GraphError::InvalidParameter("cycle needs at least 3 nodes"));
    }
    let edges: Vec<(usize, usize)> = (0..n).map(|u| (u, (u + 1) % n)).collect();
    Graph::from_edges(n, &edges)
}

/// Path graph `P_n` on `n` nodes.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n == 0`.
pub fn path(n: usize) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidParameter("path needs at least 1 node"));
    }
    let edges: Vec<(usize, usize)> = (1..n).map(|u| (u - 1, u)).collect();
    Graph::from_edges(n, &edges)
}

/// Star graph: node 0 is connected to every other node.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n < 2`.
pub fn star(n: usize) -> Result<Graph, GraphError> {
    if n < 2 {
        return Err(GraphError::InvalidParameter("star needs at least 2 nodes"));
    }
    let edges: Vec<(usize, usize)> = (1..n).map(|v| (0, v)).collect();
    Graph::from_edges(n, &edges)
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let edges: Vec<(usize, usize)> = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .collect();
    Graph::from_edges(n, &edges).expect("complete graph edges are valid")
}

/// Full `k`-ary tree with `n` nodes (node 0 is the root; node `i` has parent
/// `(i - 1) / k`). The "4-array" graphs in the paper's Figure 21 are the
/// `k = 4` instance of this family.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `k == 0` or `n == 0`.
pub fn k_ary_tree(n: usize, k: usize) -> Result<Graph, GraphError> {
    if n == 0 || k == 0 {
        return Err(GraphError::InvalidParameter(
            "k-ary tree needs n > 0 and k > 0",
        ));
    }
    let edges: Vec<(usize, usize)> = (1..n).map(|child| ((child - 1) / k, child)).collect();
    Graph::from_edges(n, &edges)
}

/// Perturbs a graph by rewiring roughly `fraction` of its edges: that many
/// randomly chosen edges are removed and the same number of random non-edges
/// are added. Used to build the "slightly irregular" graphs of the
/// parameter-transfer study (Section 5.6).
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `fraction` is not in `[0, 1]`.
pub fn rewire_fraction<R: Rng>(
    graph: &Graph,
    fraction: f64,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if !(0.0..=1.0).contains(&fraction) {
        return Err(GraphError::InvalidParameter("fraction must be in [0, 1]"));
    }
    let edges: Vec<(usize, usize)> = graph.edges().collect();
    let k = ((edges.len() as f64) * fraction).round() as usize;
    if k == 0 || edges.is_empty() {
        return Ok(graph.clone());
    }
    let n = graph.node_count();
    let max_edges = n * (n - 1) / 2;
    let mut present: BTreeSet<(usize, usize)> = edges.iter().copied().collect();
    // Remove k random edges.
    let picked = mathkit::rng::choose_indices(rng, edges.len(), k.min(edges.len()));
    for &idx in &picked {
        present.remove(&edges[idx]);
    }
    // Add k random non-edges (bounded retries to avoid spinning on dense graphs).
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < picked.len() && present.len() < max_edges && attempts < 100 * max_edges.max(1) {
        attempts += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v && present.insert(ordered(u, v)) {
            added += 1;
        }
    }
    from_set(n, &present)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;
    use mathkit::rng::seeded;

    #[test]
    fn gnp_extremes() {
        let mut rng = seeded(1);
        let empty = erdos_renyi_gnp(6, 0.0, &mut rng).unwrap();
        assert_eq!(empty.edge_count(), 0);
        let full = erdos_renyi_gnp(6, 1.0, &mut rng).unwrap();
        assert_eq!(full.edge_count(), 15);
        assert!(erdos_renyi_gnp(4, 1.5, &mut rng).is_err());
    }

    #[test]
    fn gnm_has_exact_edge_count() {
        let mut rng = seeded(2);
        let g = erdos_renyi_gnm(10, 17, &mut rng).unwrap();
        assert_eq!(g.edge_count(), 17);
        assert!(erdos_renyi_gnm(4, 10, &mut rng).is_err());
    }

    #[test]
    fn connected_gnp_is_connected() {
        let mut rng = seeded(3);
        for n in [2, 5, 9, 14] {
            let g = connected_gnp(n, 0.15, &mut rng).unwrap();
            assert!(is_connected(&g), "n={n} should be connected");
        }
        assert!(connected_gnp(0, 0.5, &mut rng).is_err());
    }

    #[test]
    fn random_regular_degrees_match() {
        let mut rng = seeded(4);
        let g = random_regular(10, 3, &mut rng).unwrap();
        assert!(g.degrees().iter().all(|&d| d == 3));
        assert!(random_regular(5, 3, &mut rng).is_err()); // odd n*d
        assert!(random_regular(4, 4, &mut rng).is_err()); // d >= n
        let g0 = random_regular(6, 0, &mut rng).unwrap();
        assert_eq!(g0.edge_count(), 0);
    }

    #[test]
    fn cycle_and_path_shapes() {
        let c = cycle(7).unwrap();
        assert_eq!(c.edge_count(), 7);
        assert!(c.degrees().iter().all(|&d| d == 2));
        assert!(cycle(2).is_err());

        let p = path(5).unwrap();
        assert_eq!(p.edge_count(), 4);
        assert_eq!(p.degree(0), 1);
        assert_eq!(p.degree(2), 2);
    }

    #[test]
    fn star_and_complete_shapes() {
        let s = star(6).unwrap();
        assert_eq!(s.degree(0), 5);
        assert!(s.degrees()[1..].iter().all(|&d| d == 1));
        assert!(star(1).is_err());

        let k = complete(5);
        assert_eq!(k.edge_count(), 10);
        assert!((k.density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn k_ary_tree_is_connected_tree() {
        let t = k_ary_tree(13, 4).unwrap();
        assert_eq!(t.edge_count(), 12);
        assert!(is_connected(&t));
        assert!(k_ary_tree(0, 2).is_err());
        assert!(k_ary_tree(3, 0).is_err());
    }

    #[test]
    fn rewire_preserves_edge_count_roughly() {
        let mut rng = seeded(7);
        let base = random_regular(12, 4, &mut rng).unwrap();
        let rewired = rewire_fraction(&base, 0.1, &mut rng).unwrap();
        assert_eq!(rewired.node_count(), base.node_count());
        // Edge count should stay within a couple of edges of the original.
        let diff = (rewired.edge_count() as i64 - base.edge_count() as i64).abs();
        assert!(diff <= 3, "edge count drifted by {diff}");
        assert!(rewire_fraction(&base, 2.0, &mut rng).is_err());
    }

    #[test]
    fn rewire_zero_fraction_is_identity() {
        let mut rng = seeded(8);
        let base = cycle(9).unwrap();
        let same = rewire_fraction(&base, 0.0, &mut rng).unwrap();
        assert_eq!(same, base);
    }

    #[test]
    fn generators_are_deterministic_for_a_seed() {
        let g1 = erdos_renyi_gnp(12, 0.4, &mut seeded(99)).unwrap();
        let g2 = erdos_renyi_gnp(12, 0.4, &mut seeded(99)).unwrap();
        assert_eq!(g1, g2);
    }
}
