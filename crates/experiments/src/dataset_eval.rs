//! Figures 13–16 and Table 1: dataset-level reductions and ideal MSEs.
//!
//! For each benchmark dataset (AIDS, LINUX, IMDb, split by size), the
//! experiment reduces every graph with Red-QAOA and reports the mean node and
//! edge reduction ratios (Figures 13 and 15) and the ideal landscape MSE at
//! `p = 1, 2, 3` (Figures 14 and 16). Table 1 is the dataset summary.

use crate::cli::{Format, Table};
use datasets::{aids, imdb, linux, random_suite, Dataset};
use mathkit::rng::{derive_seed, seeded};
use red_qaoa::mse::ideal_sample_mse;
use red_qaoa::reduction::{reduce_pool, ReductionOptions};
use red_qaoa::RedQaoaError;

/// Configuration of the dataset evaluation.
#[derive(Debug, Clone)]
pub struct DatasetEvalConfig {
    /// Maximum number of graphs evaluated per dataset (keeps runtimes
    /// bounded; the paper evaluates the full corpora).
    pub graphs_per_dataset: usize,
    /// QAOA layer counts to evaluate.
    pub layers: Vec<usize>,
    /// Random parameter points per MSE (the paper uses 1024).
    pub parameter_sets: usize,
    /// Node-count filter applied to each dataset (the "small" split).
    pub min_nodes: usize,
    /// Upper node-count bound of the split.
    pub max_nodes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DatasetEvalConfig {
    fn default() -> Self {
        Self {
            graphs_per_dataset: 12,
            layers: vec![1, 2, 3],
            parameter_sets: 64,
            min_nodes: 4,
            max_nodes: 10,
            seed: crate::DEFAULT_SEED,
        }
    }
}

/// Aggregate result for one dataset split.
#[derive(Debug, Clone)]
pub struct DatasetEvalRow {
    /// Dataset name (including the size split).
    pub dataset: String,
    /// Number of graphs actually evaluated.
    pub graphs: usize,
    /// Mean node-reduction ratio.
    pub node_reduction: f64,
    /// Mean edge-reduction ratio.
    pub edge_reduction: f64,
    /// Mean ideal MSE per layer count, in the order of `config.layers`.
    pub mse_per_layer: Vec<f64>,
}

fn evaluate_dataset(
    dataset: &Dataset,
    config: &DatasetEvalConfig,
) -> Result<DatasetEvalRow, RedQaoaError> {
    let graphs: Vec<_> = dataset
        .graphs
        .iter()
        .filter(|g| g.edge_count() > 0 && g.node_count() >= config.min_nodes.max(4))
        .take(config.graphs_per_dataset)
        .cloned()
        .collect();
    if graphs.is_empty() {
        return Err(RedQaoaError::GraphNotReducible(
            "dataset split contains no usable graphs",
        ));
    }
    let mut node_red = Vec::new();
    let mut edge_red = Vec::new();
    let mut mse_per_layer = vec![Vec::new(); config.layers.len()];
    // One deterministic parallel `reduce_pool` over the whole split: graph
    // `g_idx` reduces on the substream `derive_seed(config.seed, g_idx)` —
    // exactly the stream the old per-graph `reduce` loop used, so the
    // migration is output-preserving, and the pool is bitwise-identical for
    // every `RED_QAOA_THREADS` value.
    let reductions = reduce_pool(&graphs, &ReductionOptions::default(), config.seed);
    for (g_idx, (graph, reduction)) in graphs.iter().zip(reductions).enumerate() {
        let reduced = match reduction {
            Ok(r) => r,
            Err(_) => continue,
        };
        node_red.push(reduced.node_reduction);
        edge_red.push(reduced.edge_reduction);
        for (l_idx, &layers) in config.layers.iter().enumerate() {
            let mut mse_rng = seeded(derive_seed(config.seed, 10_000 + g_idx as u64));
            if let Ok(mse) = ideal_sample_mse(
                graph,
                reduced.graph(),
                layers,
                config.parameter_sets,
                &mut mse_rng,
            ) {
                mse_per_layer[l_idx].push(mse);
            }
        }
    }
    let mean = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    Ok(DatasetEvalRow {
        dataset: dataset.name.clone(),
        graphs: node_red.len(),
        node_reduction: mean(&node_red),
        edge_reduction: mean(&edge_red),
        mse_per_layer: mse_per_layer.iter().map(|v| mean(v)).collect(),
    })
}

/// Runs the Figure 13/14 evaluation on the small (≤ 10 node) splits of AIDS,
/// IMDb, and LINUX.
///
/// # Errors
///
/// Returns [`RedQaoaError`] if a dataset split cannot be evaluated at all.
pub fn run_small_datasets(config: &DatasetEvalConfig) -> Result<Vec<DatasetEvalRow>, RedQaoaError> {
    let seed = config.seed;
    let datasets = [
        aids(seed).filter_by_nodes(config.min_nodes, config.max_nodes),
        imdb(seed).filter_by_nodes(config.min_nodes, config.max_nodes),
        linux(seed).filter_by_nodes(config.min_nodes, config.max_nodes),
    ];
    datasets
        .iter()
        .map(|d| evaluate_dataset(d, config))
        .collect()
}

/// Runs the Figure 15/16 evaluation: IMDb small (≤ 10 nodes) versus IMDb
/// medium (10–16 nodes by default; the paper uses up to 20).
///
/// # Errors
///
/// Returns [`RedQaoaError`] if a split cannot be evaluated.
pub fn run_imdb_scaling(config: &DatasetEvalConfig) -> Result<Vec<DatasetEvalRow>, RedQaoaError> {
    let seed = config.seed;
    let corpus = imdb(seed);
    let small = corpus.filter_by_nodes(config.min_nodes, config.max_nodes);
    let medium = corpus.filter_by_nodes(config.max_nodes, config.max_nodes + 6);
    [small, medium]
        .iter()
        .map(|d| evaluate_dataset(d, config))
        .collect()
}

/// The reduction table of Figures 13 and 15: one row per dataset, its name
/// under the key `label`.
pub fn reduction_table(name: &str, title: &str, label: &str, rows: &[DatasetEvalRow]) -> Table {
    let mut table = Table::new(
        name,
        title,
        [
            (label, Format::Str),
            ("graphs", Format::Int),
            ("node_reduction", Format::Fixed(4)),
            ("edge_reduction", Format::Fixed(4)),
        ],
    );
    for r in rows {
        table.row((
            r.dataset.as_str(),
            r.graphs,
            r.node_reduction,
            r.edge_reduction,
        ));
    }
    table
}

/// The MSE table of Figures 14 and 16: one row per dataset and layer count
/// (`config.layers`), the dataset's name under the key `label`.
pub fn mse_table(
    name: &str,
    title: &str,
    label: &str,
    config: &DatasetEvalConfig,
    rows: &[DatasetEvalRow],
) -> Table {
    let columns = [
        (label, Format::Str),
        ("p", Format::Int),
        ("mse", Format::Fixed(6)),
    ];
    let mut table = Table::new(name, title, columns);
    for r in rows {
        for (&p, &mse) in config.layers.iter().zip(&r.mse_per_layer) {
            table.row((r.dataset.as_str(), p, mse));
        }
    }
    table
}

/// Table 1: summaries of the four benchmark datasets.
pub fn run_table1_summaries(seed: u64) -> Vec<datasets::stats::DatasetSummary> {
    vec![
        aids(seed).summary(),
        linux(seed).summary(),
        imdb(seed).summary(),
        random_suite(seed).summary(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> DatasetEvalConfig {
        DatasetEvalConfig {
            graphs_per_dataset: 4,
            layers: vec![1, 2],
            parameter_sets: 24,
            ..Default::default()
        }
    }

    #[test]
    fn small_dataset_rows_reproduce_headline_shape() {
        let rows = run_small_datasets(&tiny_config()).unwrap();
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.graphs > 0);
            // Reductions in the paper's regime: nodes ~15-40%, edges >= nodes.
            assert!(
                row.node_reduction >= 0.0 && row.node_reduction <= 0.7,
                "{row:?}"
            );
            assert!(
                row.edge_reduction + 1e-9 >= row.node_reduction * 0.5,
                "{row:?}"
            );
            // Ideal MSEs stay in the few-percent regime.
            for &mse in &row.mse_per_layer {
                assert!(mse < 0.15, "{row:?}");
            }
        }
        // The IMDb split (dense) should show a higher p=1 MSE or lower
        // reduction than AIDS (sparse), mirroring Section 6.3.
        let aids_row = &rows[0];
        let imdb_row = &rows[1];
        assert!(
            imdb_row.mse_per_layer[0] + 1e-6 >= aids_row.mse_per_layer[0]
                || imdb_row.node_reduction <= aids_row.node_reduction + 0.05,
            "AIDS {aids_row:?} vs IMDb {imdb_row:?}"
        );
    }

    #[test]
    fn imdb_scaling_improves_with_size() {
        let config = DatasetEvalConfig {
            graphs_per_dataset: 3,
            layers: vec![1],
            parameter_sets: 24,
            ..Default::default()
        };
        let rows = run_imdb_scaling(&config).unwrap();
        assert_eq!(rows.len(), 2);
        // Medium graphs reduce at least as well as small ones.
        assert!(
            rows[1].node_reduction + 0.1 >= rows[0].node_reduction,
            "{rows:?}"
        );
    }

    #[test]
    fn table1_has_four_rows() {
        let rows = run_table1_summaries(1);
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.min_nodes <= r.max_nodes));
    }
}
