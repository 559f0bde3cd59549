//! Figure 26: the compound effect of node reduction × depth scheduling on
//! noisy-landscape MSE.
//!
//! For each graph size the four circuit-reduction arms — plain baseline,
//! node-reduction only (the paper's Red-QAOA), depth-scheduling only, and
//! both composed ([`red_qaoa::pipeline::CircuitReduction::NodeAndDepth`]) —
//! run at the *same* trajectory count with common random numbers and are
//! scored against the original graph's ideal landscape
//! ([`compound_grid_comparison`]). The study isolates how much of the noisy
//! fidelity gain comes from fewer qubits, how much from a shorter schedule,
//! and whether the two compose.

use graphlib::generators::connected_gnp;
use graphlib::Graph;
use mathkit::rng::{derive_seed, seeded};
use qsim::devices::fake_toronto;
use red_qaoa::mse::compound_grid_comparison;
use red_qaoa::reduction::{reduce_pool, ReductionOptions};
use red_qaoa::RedQaoaError;

/// Stream offset separating the reduction pool's seed from the per-size
/// graph-generation and comparison streams.
const REDUCE_STREAM: u64 = 40_000;
/// Stream offset of the per-size compound-comparison substreams.
const COMPARISON_STREAM: u64 = 20_000;

/// Configuration of the Figure 26 compound sweep.
#[derive(Debug, Clone)]
pub struct DepthCompoundConfig {
    /// Graph sizes (node counts) to sweep.
    pub node_counts: Vec<usize>,
    /// Edge probability of the random test graphs.
    pub edge_probability: f64,
    /// Landscape grid width.
    pub width: usize,
    /// Trajectories per noisy landscape point (identical in all four arms).
    pub trajectories: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DepthCompoundConfig {
    fn default() -> Self {
        Self {
            node_counts: vec![8, 10, 12],
            edge_probability: 0.4,
            width: 6,
            trajectories: 16,
            seed: crate::DEFAULT_SEED,
        }
    }
}

/// One row of Figure 26: the four arms' noisy MSEs for one graph size, plus
/// the depth-compilation headline numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct DepthCompoundRow {
    /// Number of nodes (qubits) of the original graph.
    pub nodes: usize,
    /// Node count of the reduced graph.
    pub reduced_nodes: usize,
    /// Noisy MSE of the plain baseline (no reduction of any kind).
    pub baseline_mse: f64,
    /// Noisy MSE of the node-reduction-only arm (legacy Red-QAOA).
    pub node_mse: f64,
    /// Noisy MSE of the depth-scheduling-only arm.
    pub depth_mse: f64,
    /// Noisy MSE of the compound (node + depth) arm.
    pub compound_mse: f64,
    /// Scheduled rounds of the original graph's cost layer.
    pub full_rounds: usize,
    /// Naive sequential depth (one round per gate) of the original graph.
    pub full_naive_depth: usize,
    /// Scheduled rounds of the reduced graph's cost layer.
    pub reduced_rounds: usize,
    /// Depth reduction factor (naive / scheduled) on the original graph.
    pub depth_reduction: f64,
}

/// Runs the Figure 26 sweep under the FakeToronto-class noise model.
///
/// # Errors
///
/// Returns [`RedQaoaError`] if a graph cannot be generated, reduced,
/// depth-compiled, or simulated.
pub fn run_fig26(config: &DepthCompoundConfig) -> Result<Vec<DepthCompoundRow>, RedQaoaError> {
    // Same substream scheme as the noisy_mse sweeps: all graphs first, one
    // deterministic reduce_pool for the whole sweep, then one derived
    // comparison substream per size.
    let graphs: Vec<Graph> = config
        .node_counts
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let mut rng = seeded(derive_seed(config.seed, i as u64));
            connected_gnp(n, config.edge_probability, &mut rng)
        })
        .collect::<Result<_, _>>()?;
    let reductions = reduce_pool(
        &graphs,
        &ReductionOptions::default(),
        derive_seed(config.seed, REDUCE_STREAM),
    );
    let noise = fake_toronto().noise;
    let mut rows = Vec::new();
    for (i, (graph, reduction)) in graphs.iter().zip(reductions).enumerate() {
        let reduced = reduction?;
        let mut rng = seeded(derive_seed(config.seed, COMPARISON_STREAM + i as u64));
        let c = compound_grid_comparison(
            graph,
            reduced.graph(),
            config.width,
            &noise,
            config.trajectories,
            &mut rng,
        )?;
        rows.push(DepthCompoundRow {
            nodes: config.node_counts[i],
            reduced_nodes: reduced.graph().node_count(),
            baseline_mse: c.baseline_mse,
            node_mse: c.node_mse,
            depth_mse: c.depth_mse,
            compound_mse: c.compound_mse,
            full_rounds: c.full_depth.rounds,
            full_naive_depth: c.full_depth.naive_depth,
            reduced_rounds: c.reduced_depth.rounds,
            depth_reduction: c.full_depth.depth_reduction(),
        });
    }
    Ok(rows)
}

/// Fraction of rows where the compound arm achieves a noisy MSE no worse
/// than the node-reduction-only arm (the headline composition claim).
pub fn compound_win_rate(rows: &[DepthCompoundRow]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter().filter(|r| r.compound_mse <= r.node_mse).count() as f64 / rows.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compound_sweep_produces_consistent_rows() {
        let config = DepthCompoundConfig {
            node_counts: vec![9, 11],
            width: 5,
            trajectories: 10,
            ..Default::default()
        };
        let rows = run_fig26(&config).unwrap();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.reduced_nodes <= row.nodes);
            assert!(row.full_rounds <= row.full_naive_depth);
            assert!(row.reduced_rounds >= 1);
            assert!(row.depth_reduction >= 1.0);
            for mse in [
                row.baseline_mse,
                row.node_mse,
                row.depth_mse,
                row.compound_mse,
            ] {
                assert!(mse.is_finite() && mse >= 0.0, "{row:?}");
            }
        }
        // Composition should not hurt: at shared random numbers the compound
        // arm wins or ties the node-only arm on at least one of two sizes.
        assert!(compound_win_rate(&rows) >= 0.5, "{rows:?}");
    }

    #[test]
    fn sweep_is_deterministic() {
        let config = DepthCompoundConfig {
            node_counts: vec![8],
            width: 4,
            trajectories: 6,
            ..Default::default()
        };
        let a = run_fig26(&config).unwrap();
        let b = run_fig26(&config).unwrap();
        assert_eq!(a, b);
    }
}
