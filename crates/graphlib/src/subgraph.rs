//! Induced subgraphs: extraction, random sampling, and enumeration.
//!
//! Red-QAOA's simulated-annealing search explores the space of connected
//! induced subgraphs of a fixed size; the effectiveness study (Figure 9)
//! enumerates *all* connected induced subgraphs of a given size. Both
//! operations live here.

use crate::traversal::is_connected;
use crate::{Graph, GraphError};
use rand::Rng;
use std::collections::BTreeSet;

/// An induced subgraph together with the mapping back to the parent graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subgraph {
    /// The induced subgraph, with nodes relabelled to `0..k`.
    pub graph: Graph,
    /// `nodes[i]` is the parent-graph node that became subgraph node `i`.
    pub nodes: Vec<usize>,
}

impl Subgraph {
    /// Number of nodes in the subgraph.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Maps a subgraph node index back to the parent graph.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of range.
    pub fn to_parent(&self, local: usize) -> usize {
        self.nodes[local]
    }
}

/// Builds the subgraph induced by `nodes` (parent node ids, need not be
/// sorted; duplicates are removed).
///
/// # Errors
///
/// Returns [`GraphError::NodeOutOfRange`] if any node is out of range.
pub fn induced_subgraph(graph: &Graph, nodes: &[usize]) -> Result<Subgraph, GraphError> {
    let unique: BTreeSet<usize> = nodes.iter().copied().collect();
    for &u in &unique {
        if u >= graph.node_count() {
            return Err(GraphError::NodeOutOfRange {
                node: u,
                node_count: graph.node_count(),
            });
        }
    }
    let ordered: Vec<usize> = unique.into_iter().collect();
    let index_of = |parent: usize| ordered.binary_search(&parent).expect("node present");
    let mut g = Graph::new(ordered.len());
    for (i, &u) in ordered.iter().enumerate() {
        for v in graph.neighbors(u) {
            if v > u && ordered.binary_search(&v).is_ok() {
                g.add_edge(i, index_of(v))?;
            }
        }
    }
    Ok(Subgraph {
        graph: g,
        nodes: ordered,
    })
}

/// Samples a random *connected* induced subgraph with `k` nodes by growing a
/// BFS/random frontier from a random seed node. This implements the
/// `RandomSubgraph(G, k)` initializer of Algorithm 1: the subgraph
/// [`random_connected_nodes`] samples, induced.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `k` is zero, exceeds the node
/// count, or no connected subgraph of size `k` exists that is reachable from
/// the sampled seeds (e.g. the graph is too fragmented).
pub fn random_connected_subgraph<R: Rng>(
    graph: &Graph,
    k: usize,
    rng: &mut R,
) -> Result<Subgraph, GraphError> {
    induced_subgraph(graph, &random_connected_nodes(graph, k, rng)?)
}

/// The sorted node set of a random connected `k`-node subgraph, grown as a
/// random frontier from a random seed node: [`random_connected_subgraph`]
/// without building the induced graph, with the same draws and nodes.
///
/// # Errors
///
/// As [`random_connected_subgraph`].
pub fn random_connected_nodes<R: Rng>(
    graph: &Graph,
    k: usize,
    rng: &mut R,
) -> Result<Vec<usize>, GraphError> {
    let n = graph.node_count();
    if k == 0 || k > n {
        return Err(GraphError::InvalidParameter(
            "subgraph size must be in 1..=node_count",
        ));
    }
    let mut in_selection = vec![false; n];
    let mut selected = Vec::with_capacity(k);
    let mut frontier = Vec::new();
    for _ in 0..200 {
        for &u in &selected {
            in_selection[u] = false;
        }
        selected.clear();
        frontier.clear();
        let seed = rng.gen_range(0..n);
        in_selection[seed] = true;
        selected.push(seed);
        frontier.extend(graph.neighbors(seed));
        while selected.len() < k && !frontier.is_empty() {
            let idx = rng.gen_range(0..frontier.len());
            let next = frontier.swap_remove(idx);
            if !in_selection[next] {
                in_selection[next] = true;
                selected.push(next);
                frontier.extend(graph.neighbors(next).filter(|&w| !in_selection[w]));
            }
        }
        if selected.len() == k {
            selected.sort_unstable();
            return Ok(selected);
        }
    }
    Err(GraphError::InvalidParameter(
        "could not sample a connected subgraph of the requested size",
    ))
}

/// Enumerates every connected induced subgraph with exactly `k` nodes.
///
/// Uses the standard "extend by neighbors greater than the anchor" expansion
/// so that each vertex set is produced exactly once. Intended for the small
/// graphs (≤ ~15 nodes) of the effectiveness studies; the number of subgraphs
/// grows combinatorially.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `k` is zero or exceeds the node
/// count.
pub fn enumerate_connected_subgraphs(graph: &Graph, k: usize) -> Result<Vec<Subgraph>, GraphError> {
    if k == 0 || k > graph.node_count() {
        return Err(GraphError::InvalidParameter(
            "subgraph size must be in 1..=node_count",
        ));
    }
    let mut results = Vec::new();
    let n = graph.node_count();
    for anchor in 0..n {
        // Grow sets whose minimum element is `anchor`.
        let mut stack: Vec<(BTreeSet<usize>, BTreeSet<usize>)> = Vec::new();
        let initial_frontier: BTreeSet<usize> =
            graph.neighbors(anchor).filter(|&v| v > anchor).collect();
        stack.push((BTreeSet::from([anchor]), initial_frontier));
        while let Some((set, frontier)) = stack.pop() {
            if set.len() == k {
                let nodes: Vec<usize> = set.into_iter().collect();
                results.push(induced_subgraph(graph, &nodes)?);
                continue;
            }
            // Expand by each frontier node, removing smaller frontier nodes to
            // avoid duplicates (each set is generated in exactly one order).
            let frontier_vec: Vec<usize> = frontier.iter().copied().collect();
            for (i, &v) in frontier_vec.iter().enumerate() {
                let mut new_set = set.clone();
                new_set.insert(v);
                let mut new_frontier: BTreeSet<usize> =
                    frontier_vec[i + 1..].iter().copied().collect();
                for w in graph.neighbors(v) {
                    if w > anchor && !new_set.contains(&w) && !frontier.contains(&w) {
                        new_frontier.insert(w);
                    }
                }
                stack.push((new_set, new_frontier));
            }
        }
    }
    Ok(results)
}

/// Checks that `nodes` induces a connected subgraph of `graph`.
pub fn is_connected_subset(graph: &Graph, nodes: &[usize]) -> bool {
    match induced_subgraph(graph, nodes) {
        Ok(sub) => is_connected(&sub.graph),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete, cycle, path};
    use mathkit::rng::seeded;

    #[test]
    fn induced_subgraph_of_cycle() {
        let g = cycle(6).unwrap();
        let sub = induced_subgraph(&g, &[0, 1, 2]).unwrap();
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.graph.edge_count(), 2);
        assert_eq!(sub.nodes, vec![0, 1, 2]);
        assert_eq!(sub.to_parent(2), 2);
    }

    #[test]
    fn induced_subgraph_deduplicates_and_validates() {
        let g = complete(4);
        let sub = induced_subgraph(&g, &[2, 2, 0]).unwrap();
        assert_eq!(sub.node_count(), 2);
        assert_eq!(sub.graph.edge_count(), 1);
        assert!(induced_subgraph(&g, &[9]).is_err());
    }

    #[test]
    fn random_connected_subgraph_is_connected() {
        let g = cycle(10).unwrap();
        let mut rng = seeded(5);
        for k in 1..=10 {
            let sub = random_connected_subgraph(&g, k, &mut rng).unwrap();
            assert_eq!(sub.node_count(), k);
            assert!(is_connected(&sub.graph));
        }
        assert!(random_connected_subgraph(&g, 0, &mut rng).is_err());
        assert!(random_connected_subgraph(&g, 11, &mut rng).is_err());
    }

    #[test]
    fn enumeration_counts_for_known_graphs() {
        // Path 0-1-2-3: connected 2-subsets are exactly the 3 edges.
        let p = path(4).unwrap();
        assert_eq!(enumerate_connected_subgraphs(&p, 2).unwrap().len(), 3);
        // Connected 3-subsets of a path of 4 nodes: {0,1,2}, {1,2,3}.
        assert_eq!(enumerate_connected_subgraphs(&p, 3).unwrap().len(), 2);
        // Cycle of 5: every contiguous arc of length 3 => 5 subsets.
        let c = cycle(5).unwrap();
        assert_eq!(enumerate_connected_subgraphs(&c, 3).unwrap().len(), 5);
        // Complete graph: every 3-subset of 5 nodes is connected => C(5,3)=10.
        let k = complete(5);
        assert_eq!(enumerate_connected_subgraphs(&k, 3).unwrap().len(), 10);
    }

    #[test]
    fn enumeration_subgraphs_are_connected_and_unique() {
        let g = cycle(7).unwrap();
        let subs = enumerate_connected_subgraphs(&g, 4).unwrap();
        let mut seen = std::collections::HashSet::new();
        for sub in &subs {
            assert!(is_connected(&sub.graph));
            assert!(seen.insert(sub.nodes.clone()), "duplicate {:?}", sub.nodes);
        }
    }

    #[test]
    fn connected_subset_checker() {
        let g = cycle(6).unwrap();
        assert!(is_connected_subset(&g, &[0, 1, 2]));
        assert!(!is_connected_subset(&g, &[0, 2, 4]));
        assert!(!is_connected_subset(&g, &[0, 99]));
    }
}
