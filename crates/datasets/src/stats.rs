//! Dataset summary statistics (Table 1).

use crate::Dataset;
use graphlib::Graph;

/// Aggregate statistics of a dataset, matching the columns of Table 1 plus
/// the degree/density figures discussed in Section 6.3.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSummary {
    /// Dataset name.
    pub name: String,
    /// Number of graphs.
    pub graph_count: usize,
    /// Smallest node count.
    pub min_nodes: usize,
    /// Largest node count.
    pub max_nodes: usize,
    /// Mean node count.
    pub mean_nodes: f64,
    /// Mean edge count.
    pub mean_edges: f64,
    /// Mean average node degree.
    pub mean_average_degree: f64,
    /// Mean edge density.
    pub mean_density: f64,
}

impl DatasetSummary {
    /// Computes the summary of a dataset. Empty datasets yield zeroed fields.
    pub fn from_dataset(dataset: &Dataset) -> Self {
        let n = dataset.len();
        if n == 0 {
            return Self {
                name: dataset.name.clone(),
                graph_count: 0,
                min_nodes: 0,
                max_nodes: 0,
                mean_nodes: 0.0,
                mean_edges: 0.0,
                mean_average_degree: 0.0,
                mean_density: 0.0,
            };
        }
        let node_counts: Vec<usize> = dataset.graphs.iter().map(Graph::node_count).collect();
        Self {
            name: dataset.name.clone(),
            graph_count: n,
            min_nodes: *node_counts.iter().min().expect("non-empty"),
            max_nodes: *node_counts.iter().max().expect("non-empty"),
            mean_nodes: node_counts.iter().sum::<usize>() as f64 / n as f64,
            mean_edges: dataset.graphs.iter().map(Graph::edge_count).sum::<usize>() as f64
                / n as f64,
            mean_average_degree: dataset
                .graphs
                .iter()
                .map(Graph::average_degree)
                .sum::<f64>()
                / n as f64,
            mean_density: dataset.graphs.iter().map(Graph::density).sum::<f64>() / n as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{aids, imdb};

    #[test]
    fn summary_of_aids_twin() {
        let s = aids(5).summary();
        assert_eq!(s.graph_count, 700);
        assert!(s.min_nodes >= 2);
        assert!(s.max_nodes <= 10);
        assert!(s.mean_nodes > 3.0 && s.mean_nodes < 9.0);
        assert!(s.mean_average_degree > 1.0);
    }

    #[test]
    fn imdb_density_exceeds_aids() {
        let a = aids(5).take(200).summary();
        let i = imdb(5).take(200).summary();
        assert!(i.mean_average_degree > a.mean_average_degree);
        assert!(i.mean_density > a.mean_density);
    }

    #[test]
    fn empty_dataset_summary_is_zeroed() {
        let empty = Dataset {
            name: "empty".into(),
            graphs: vec![],
        };
        let s = empty.summary();
        assert_eq!(s.graph_count, 0);
        assert_eq!(s.mean_nodes, 0.0);
    }
}
