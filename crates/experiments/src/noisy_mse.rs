//! Figures 10, 23, and 24: noisy-landscape MSE studies.
//!
//! * Figure 10 — baseline vs Red-QAOA noisy MSE for random graphs of 7–14
//!   nodes under the FakeToronto-class noise model.
//! * Figure 23 — the same comparison for 5–10-node graphs on the Rigetti
//!   Aspen-M-3 noise model.
//! * Figure 24 — a single 10-node graph evaluated under the noise models of
//!   seven IBM devices spanning a wide error-rate range.

use graphlib::generators::connected_gnp;
use graphlib::Graph;
use mathkit::rng::{derive_seed, seeded};
use qsim::devices::{aspen_m3, fake_toronto, noise_sweep_devices, Device};
use red_qaoa::mse::noisy_grid_comparison;
use red_qaoa::reduction::{reduce_pool, ReductionOptions};
use red_qaoa::RedQaoaError;

/// Stream offset separating the reduction pool's seed from the per-size
/// graph-generation and comparison streams.
const REDUCE_STREAM: u64 = 40_000;
/// Stream offset of the per-size noisy-comparison substreams.
const COMPARISON_STREAM: u64 = 20_000;

/// Configuration shared by the noisy-MSE sweeps.
#[derive(Debug, Clone)]
pub struct NoisyMseConfig {
    /// Graph sizes (node counts) to sweep.
    pub node_counts: Vec<usize>,
    /// Edge probability of the random test graphs.
    pub edge_probability: f64,
    /// Landscape grid width.
    pub width: usize,
    /// Trajectories per noisy landscape point.
    pub trajectories: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NoisyMseConfig {
    fn default() -> Self {
        Self {
            node_counts: vec![7, 8, 9, 10, 11, 12],
            edge_probability: 0.4,
            width: 6,
            trajectories: 16,
            seed: crate::DEFAULT_SEED,
        }
    }
}

/// One bar pair of Figures 10 / 23: the noisy MSE of the baseline and of
/// Red-QAOA for one graph size.
#[derive(Debug, Clone, PartialEq)]
pub struct NoisyMseRow {
    /// Number of nodes (qubits) of the original graph.
    pub nodes: usize,
    /// Noisy MSE of the baseline (original graph under noise vs ideal).
    pub baseline_mse: f64,
    /// Noisy MSE of Red-QAOA (reduced graph under noise vs ideal original).
    pub red_qaoa_mse: f64,
    /// Node count of the reduced graph.
    pub reduced_nodes: usize,
}

/// Runs the Figure 10 / Figure 23 sweep on the given device.
///
/// # Errors
///
/// Returns [`RedQaoaError`] if a graph cannot be reduced or simulated.
pub fn run_size_sweep(
    config: &NoisyMseConfig,
    device: &Device,
) -> Result<Vec<NoisyMseRow>, RedQaoaError> {
    // Generate every test graph first, then distill the whole sweep through
    // one deterministic `reduce_pool` (one RNG substream per graph, bitwise
    // thread-count invariant); each size's noisy comparison runs on its own
    // derived substream.
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
    let mut rows = Vec::new();
    for (i, (graph, reduction)) in graphs.iter().zip(reductions).enumerate() {
        let reduced = reduction?;
        let mut rng = seeded(derive_seed(config.seed, COMPARISON_STREAM + i as u64));
        let comparison = noisy_grid_comparison(
            graph,
            reduced.graph(),
            config.width,
            &device.noise,
            config.trajectories,
            &mut rng,
        )?;
        rows.push(NoisyMseRow {
            nodes: config.node_counts[i],
            baseline_mse: comparison.baseline_mse,
            red_qaoa_mse: comparison.reduced_mse,
            reduced_nodes: reduced.graph().node_count(),
        });
    }
    Ok(rows)
}

/// Convenience wrapper: Figure 10 (FakeToronto-class noise).
///
/// # Errors
///
/// See [`run_size_sweep`].
pub fn run_fig10(config: &NoisyMseConfig) -> Result<Vec<NoisyMseRow>, RedQaoaError> {
    run_size_sweep(config, &fake_toronto())
}

/// Convenience wrapper: Figure 23 (Rigetti Aspen-M-3 noise, 5–10 nodes).
///
/// # Errors
///
/// See [`run_size_sweep`].
pub fn run_fig23(config: &NoisyMseConfig) -> Result<Vec<NoisyMseRow>, RedQaoaError> {
    run_size_sweep(config, &aspen_m3())
}

/// One bar pair of Figure 24: one device's noise model applied to the same
/// 10-node graph.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseModelRow {
    /// Device name.
    pub device: String,
    /// Two-qubit error rate of the device (for ordering).
    pub error_2q: f64,
    /// Baseline noisy MSE.
    pub baseline_mse: f64,
    /// Red-QAOA noisy MSE.
    pub red_qaoa_mse: f64,
}

/// Runs the Figure 24 sweep across the seven-device noise-model set.
///
/// # Errors
///
/// Returns [`RedQaoaError`] if the test graph cannot be reduced or simulated.
pub fn run_fig24(
    nodes: usize,
    width: usize,
    trajectories: usize,
    seed: u64,
) -> Result<Vec<NoiseModelRow>, RedQaoaError> {
    let mut rng = seeded(seed);
    let graph = connected_gnp(nodes, 0.4, &mut rng)?;
    // A one-graph pool keeps this call site on the same deterministic
    // substream scheme as the multi-graph sweeps.
    let reduced = reduce_pool(
        std::slice::from_ref(&graph),
        &ReductionOptions::default(),
        derive_seed(seed, REDUCE_STREAM),
    )
    .pop()
    .expect("one-graph pool yields one result")?;
    let mut rows = Vec::new();
    for (d_idx, device) in noise_sweep_devices().iter().enumerate() {
        let mut rng = seeded(derive_seed(seed, COMPARISON_STREAM + d_idx as u64));
        let comparison = noisy_grid_comparison(
            &graph,
            reduced.graph(),
            width,
            &device.noise,
            trajectories,
            &mut rng,
        )?;
        rows.push(NoiseModelRow {
            device: device.name.clone(),
            error_2q: device.noise.error_2q,
            baseline_mse: comparison.baseline_mse,
            red_qaoa_mse: comparison.reduced_mse,
        });
    }
    Ok(rows)
}

/// Fraction of rows where Red-QAOA achieves a lower noisy MSE than the
/// baseline (the paper reports this as "all cases").
pub fn red_qaoa_win_rate(rows: &[NoisyMseRow]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter()
        .filter(|r| r.red_qaoa_mse <= r.baseline_mse)
        .count() as f64
        / rows.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> NoisyMseConfig {
        NoisyMseConfig {
            node_counts: vec![9, 11],
            width: 5,
            trajectories: 10,
            ..Default::default()
        }
    }

    #[test]
    fn red_qaoa_wins_most_size_sweep_rows() {
        let rows = run_fig10(&small_config()).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(red_qaoa_win_rate(&rows) >= 0.5, "{rows:?}");
        for row in &rows {
            assert!(row.reduced_nodes <= row.nodes);
            assert!(row.baseline_mse >= 0.0 && row.red_qaoa_mse >= 0.0);
        }
    }

    #[test]
    fn rigetti_sweep_produces_rows() {
        let config = NoisyMseConfig {
            node_counts: vec![6, 8],
            width: 5,
            trajectories: 8,
            ..Default::default()
        };
        let rows = run_fig23(&config).unwrap();
        assert_eq!(rows.len(), 2);
        // Aspen-M-3 is noisier than Kolkata-class devices, so the baseline
        // MSE should be clearly non-zero.
        assert!(rows.iter().all(|r| r.baseline_mse > 1e-6));
    }

    #[test]
    fn noise_model_sweep_covers_all_devices() {
        // Width 8 is the coarsest grid that still resolves the landscape:
        // at width 5 the 25-point min–max normalization aliases so badly
        // that the structural MSE of a good reduction reads ~5x too high.
        let rows = run_fig24(9, 8, 12, 3).unwrap();
        assert_eq!(rows.len(), 7);
        // On the noisiest device of the sweep the baseline's distortion must
        // dominate and Red-QAOA must win; across the sweep Red-QAOA's mean
        // MSE must not be meaningfully worse than the baseline's.
        let noisiest = rows
            .iter()
            .max_by(|a, b| a.error_2q.partial_cmp(&b.error_2q).unwrap())
            .unwrap();
        assert!(
            noisiest.red_qaoa_mse <= noisiest.baseline_mse,
            "noisiest device: {noisiest:?}"
        );
        let mean_red = rows.iter().map(|r| r.red_qaoa_mse).sum::<f64>() / rows.len() as f64;
        let mean_base = rows.iter().map(|r| r.baseline_mse).sum::<f64>() / rows.len() as f64;
        assert!(
            mean_red <= mean_base + 0.02,
            "mean red {mean_red} vs baseline {mean_base}"
        );
    }
}
