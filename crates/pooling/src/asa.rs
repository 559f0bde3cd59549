//! Adaptive Structure-Aware (ASA) pooling (Ranjan, Sanyal & Talukdar, AAAI
//! 2020 — "ASAP").
//!
//! ASAP forms local clusters (one per node, over its ego network), scores the
//! clusters with an attention mechanism, selects the top-`⌈ratio·n⌉` cluster
//! medoids, and *rewires* the pooled graph: two selected medoids are connected
//! if their clusters are adjacent in the original graph. The rewiring is what
//! distinguishes ASA from the select-and-induce methods and is reproduced
//! here; it also tends to densify the pooled graph, which is why ASA fares
//! worst on the average-node-degree criterion that QAOA landscapes care
//! about — the behaviour reported in the paper.

use crate::features::{node_features, FEATURE_COUNT};
use crate::{keep_count, top_k_indices, PooledGraph, PoolingError, PoolingMethod};
use graphlib::Graph;

/// ASA pooling with ego-network cluster scoring and cluster-adjacency
/// rewiring.
#[derive(Debug, Clone, PartialEq)]
pub struct AsaPooling {
    weights: [f64; FEATURE_COUNT],
}

impl Default for AsaPooling {
    fn default() -> Self {
        Self {
            weights: [0.3, 0.15, 0.2, 0.15, 0.2],
        }
    }
}

impl AsaPooling {
    /// Creates the pooling layer with the default attention weights.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cluster scores: each node's ego network (itself plus its neighbours)
    /// is scored by the attention-weighted mean of member features.
    pub fn scores(&self, graph: &Graph) -> Vec<f64> {
        let n = graph.node_count();
        let raw = node_features(graph).project(&self.weights);
        (0..n)
            .map(|u| {
                let mut members: Vec<usize> = graph.neighbors(u).collect();
                members.push(u);
                // Attention: softmax over member raw scores, centred on the
                // medoid's own score.
                let max = members
                    .iter()
                    .map(|&m| raw[m])
                    .fold(f64::NEG_INFINITY, f64::max);
                let weights: Vec<f64> = members.iter().map(|&m| (raw[m] - max).exp()).collect();
                let total: f64 = weights.iter().sum();
                members
                    .iter()
                    .zip(&weights)
                    .map(|(&m, w)| raw[m] * w / total)
                    .sum()
            })
            .collect()
    }
}

impl PoolingMethod for AsaPooling {
    fn name(&self) -> &'static str {
        "asa"
    }

    fn pool(&self, graph: &Graph, ratio: f64) -> Result<PooledGraph, PoolingError> {
        if !(ratio > 0.0 && ratio <= 1.0) {
            return Err(PoolingError::InvalidRatio);
        }
        let n = graph.node_count();
        if n == 0 {
            return Err(PoolingError::EmptyGraph);
        }
        let k = keep_count(n, ratio);
        let kept = top_k_indices(&self.scores(graph), k);
        // Cluster membership of each kept medoid: itself plus its neighbours.
        let clusters: Vec<Vec<usize>> = kept
            .iter()
            .map(|&u| {
                let mut members: Vec<usize> = graph.neighbors(u).collect();
                members.push(u);
                members
            })
            .collect();
        let mut edges = Vec::new();
        for i in 0..k {
            for j in (i + 1)..k {
                // Connected if the clusters overlap or any cross edge exists.
                let overlap = clusters[i].iter().any(|m| clusters[j].contains(m));
                let cross_edge = clusters[i]
                    .iter()
                    .any(|&a| clusters[j].iter().any(|&b| graph.has_edge(a, b)));
                if overlap || cross_edge {
                    edges.push((i, j));
                }
            }
        }
        Ok(PooledGraph {
            graph: Graph::from_edges(k, &edges).expect("indices are in range"),
            nodes: kept,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlib::generators::{connected_gnp, cycle, star};
    use graphlib::metrics::average_node_degree;
    use mathkit::rng::seeded;

    #[test]
    fn keeps_requested_fraction() {
        let mut rng = seeded(9);
        let g = connected_gnp(12, 0.35, &mut rng).unwrap();
        let pooled = AsaPooling::new().pool(&g, 0.5).unwrap();
        assert_eq!(pooled.node_count(), 6);
    }

    #[test]
    fn rewiring_can_densify_relative_to_induction() {
        // On a cycle, an induced subgraph of alternating nodes has no edges,
        // but ASA's cluster rewiring connects medoids whose ego networks
        // touch, producing a denser pooled graph.
        let g = cycle(8).unwrap();
        let pooled = AsaPooling::new().pool(&g, 0.5).unwrap();
        assert!(pooled.graph.edge_count() >= pooled.node_count() - 1);
        assert!(average_node_degree(&pooled.graph) >= 1.0);
    }

    #[test]
    fn star_pooling_keeps_hub_cluster_connected() {
        let g = star(10).unwrap();
        let pooled = AsaPooling::new().pool(&g, 0.4).unwrap();
        // Every leaf's cluster contains the hub, so the pooled graph is a
        // clique over the kept medoids.
        let k = pooled.node_count();
        assert_eq!(pooled.graph.edge_count(), k * (k - 1) / 2);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(AsaPooling::new().pool(&Graph::new(0), 0.5).is_err());
        assert!(AsaPooling::new().pool(&star(4).unwrap(), 2.0).is_err());
        assert_eq!(AsaPooling::new().name(), "asa");
    }
}
