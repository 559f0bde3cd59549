//! Energy-landscape comparisons between the original and reduced graphs.
//!
//! Two settings mirror Section 5.1:
//!
//! * **Ideal MSE** — both graphs are evaluated noiselessly on a shared set of
//!   random parameter vectors; the normalized MSE quantifies how faithfully
//!   the reduced graph reproduces the original's landscape.
//! * **Noisy MSE** — the original graph's ideal landscape is the reference;
//!   the noisy landscape of the baseline (original graph executed with
//!   noise) and the noisy landscape of the Red-QAOA graph are both compared
//!   against it. Red-QAOA's smaller circuit accumulates less noise, so its
//!   noisy MSE is expected to be lower.

use crate::RedQaoaError;
use graphlib::Graph;
use qaoa::depth::DepthMetrics;
// The backend-selection logic that used to live here as a bespoke enum is now
// the `qaoa::evaluator` trait layer; re-export the auto-selector so existing
// `red_qaoa::mse` users keep a one-stop entry point.
pub use qaoa::evaluator::AutoEvaluator;
use qaoa::evaluator::{NoisyTrajectoryEvaluator, StatevectorEvaluator};
use qaoa::expectation::{QaoaInstance, MAX_EXACT_NODES};
use qaoa::landscape::{evaluate_parameter_set, random_parameter_set, sample_mse, Landscape};
use qsim::noise::NoiseModel;
use qsim::trajectory::TrajectoryOptions;
use rand::Rng;

/// Ideal landscape MSE between two graphs over `num_points` shared random
/// parameter vectors (the metric of Figures 13–16 and 21).
///
/// # Errors
///
/// Returns [`RedQaoaError`] if either graph is degenerate or too large for
/// every exact backend.
pub fn ideal_sample_mse<R: Rng>(
    original: &Graph,
    reduced: &Graph,
    layers: usize,
    num_points: usize,
    rng: &mut R,
) -> Result<f64, RedQaoaError> {
    if num_points == 0 {
        return Err(RedQaoaError::invalid_parameter(
            "num_points",
            num_points,
            "must be positive",
        ));
    }
    let eval_original = AutoEvaluator::new(original, layers)?;
    let eval_reduced = AutoEvaluator::new(reduced, layers)?;
    let set = random_parameter_set(layers, num_points, rng);
    let a = evaluate_parameter_set(&set, &eval_original);
    let b = evaluate_parameter_set(&set, &eval_reduced);
    Ok(sample_mse(&a, &b)?)
}

/// The three landscapes and two MSE values of the noisy-execution study
/// (Figures 10–12 and 22–23).
#[derive(Debug, Clone, PartialEq)]
pub struct NoisyComparison {
    /// Ideal landscape of the original graph (the reference).
    pub ideal: Landscape,
    /// Noisy landscape of the original graph.
    pub noisy_baseline: Landscape,
    /// Noisy landscape of the reduced graph.
    pub noisy_reduced: Landscape,
    /// MSE(noisy baseline, ideal reference).
    pub baseline_mse: f64,
    /// MSE(noisy Red-QAOA, ideal reference).
    pub reduced_mse: f64,
}

/// Compares the noisy `p = 1` landscape of the original and reduced graphs
/// against the original's ideal landscape on a `width × width` grid.
///
/// # Errors
///
/// Returns [`RedQaoaError`] if either graph is degenerate or exceeds the
/// exact-simulation limit.
pub fn noisy_grid_comparison<R: Rng>(
    original: &Graph,
    reduced: &Graph,
    width: usize,
    noise: &NoiseModel,
    trajectories: usize,
    rng: &mut R,
) -> Result<NoisyComparison, RedQaoaError> {
    if width == 0 {
        return Err(RedQaoaError::invalid_parameter(
            "width",
            width,
            "must be positive",
        ));
    }
    if original.node_count() > MAX_EXACT_NODES || reduced.node_count() > MAX_EXACT_NODES {
        return Err(RedQaoaError::Qaoa(qaoa::QaoaError::GraphTooLarge {
            nodes: original.node_count().max(reduced.node_count()),
            limit: MAX_EXACT_NODES,
        }));
    }
    let instance_original = QaoaInstance::new(original, 1)?;
    let instance_reduced = QaoaInstance::new(reduced, 1)?;
    let options = TrajectoryOptions {
        trajectories: trajectories.max(1),
    };
    // The paper transpiles every circuit onto the device before noisy
    // execution; routing penalises the larger original graph super-linearly
    // (SWAP overhead), which is part of Red-QAOA's advantage. Route each
    // circuit onto a sparse heavy-hex-like map of its own size.
    let coupling_original = qsim::devices::heavy_hex_like(original.node_count());
    let coupling_reduced = qsim::devices::heavy_hex_like(reduced.node_count());

    let ideal = Landscape::evaluate(
        width,
        &StatevectorEvaluator::from_instance(instance_original.clone()),
    );
    // Both noisy landscapes draw their trajectories from the same per-point
    // noise substream (common random numbers): the stochastic trajectory
    // error then correlates point-to-point and between the two arms, so the
    // MSE difference reflects the systematic noise response of each circuit
    // rather than independent sampling speckle — which min–max normalization
    // would otherwise amplify on the lower-contrast landscape. The per-point
    // backend additionally derives one sub-substream per trajectory, so the
    // two arms stay coupled trajectory-by-trajectory no matter how many
    // random draws each circuit consumes — and the scan parallelizes without
    // changing a single bit.
    let base_seed: u64 = rng.gen();
    let noisy_baseline = Landscape::evaluate(
        width,
        &NoisyTrajectoryEvaluator::per_point(instance_original, *noise, options, base_seed)
            .with_coupling(coupling_original),
    );
    let noisy_reduced = Landscape::evaluate(
        width,
        &NoisyTrajectoryEvaluator::per_point(instance_reduced, *noise, options, base_seed)
            .with_coupling(coupling_reduced),
    );

    let baseline_mse = ideal.mse_to(&noisy_baseline)?;
    let reduced_mse = ideal.mse_to(&noisy_reduced)?;
    Ok(NoisyComparison {
        ideal,
        noisy_baseline,
        noisy_reduced,
        baseline_mse,
        reduced_mse,
    })
}

/// The four noisy arms of the compound depth-reduction study: every
/// combination of node reduction (off/on) × depth scheduling (off/on),
/// each scored against the original graph's ideal landscape.
#[derive(Debug, Clone, PartialEq)]
pub struct CompoundNoisyComparison {
    /// Ideal landscape of the original graph (the shared reference).
    pub ideal: Landscape,
    /// MSE of the original graph executed naively under noise
    /// ([`crate::pipeline::CircuitReduction::None`] without node reduction —
    /// the plain-QAOA baseline).
    pub baseline_mse: f64,
    /// MSE of the node-reduced graph executed naively under noise (the
    /// legacy Red-QAOA arm, [`crate::pipeline::CircuitReduction::None`]).
    pub node_mse: f64,
    /// MSE of the original graph executed depth-scheduled under noise
    /// ([`crate::pipeline::CircuitReduction::Depth`]).
    pub depth_mse: f64,
    /// MSE of the node-reduced graph executed depth-scheduled under noise
    /// ([`crate::pipeline::CircuitReduction::NodeAndDepth`]).
    pub compound_mse: f64,
    /// Depth-compilation metrics of the original graph's cost layer.
    pub full_depth: DepthMetrics,
    /// Depth-compilation metrics of the reduced graph's cost layer.
    pub reduced_depth: DepthMetrics,
}

/// Compares all four circuit-reduction arms — baseline, node-only,
/// depth-only, and compound — on a `width × width` noisy `p = 1` grid
/// against the original graph's ideal landscape.
///
/// All four arms run at the *same* trajectory count and draw from the same
/// per-point noise substream (common random numbers), so the MSE ordering
/// reflects each circuit's systematic noise response, not sampling luck.
/// Unlike [`noisy_grid_comparison`] the circuits are *not* routed onto a
/// device map: routing rewrites the gate sequence with SWAPs, which would
/// confound the effect of depth scheduling this study isolates.
///
/// # Errors
///
/// Returns [`RedQaoaError`] if either graph is degenerate or exceeds the
/// exact-simulation limit, or if `width` is zero.
pub fn compound_grid_comparison<R: Rng>(
    original: &Graph,
    reduced: &Graph,
    width: usize,
    noise: &NoiseModel,
    trajectories: usize,
    rng: &mut R,
) -> Result<CompoundNoisyComparison, RedQaoaError> {
    if width == 0 {
        return Err(RedQaoaError::invalid_parameter(
            "width",
            width,
            "must be positive",
        ));
    }
    if original.node_count() > MAX_EXACT_NODES || reduced.node_count() > MAX_EXACT_NODES {
        return Err(RedQaoaError::Qaoa(qaoa::QaoaError::GraphTooLarge {
            nodes: original.node_count().max(reduced.node_count()),
            limit: MAX_EXACT_NODES,
        }));
    }
    let naive_original = QaoaInstance::new(original, 1)?;
    let naive_reduced = QaoaInstance::new(reduced, 1)?;
    let scheduled_original = naive_original.clone().with_depth_schedule();
    let scheduled_reduced = naive_reduced.clone().with_depth_schedule();
    let full_depth = scheduled_original
        .depth_metrics()
        .expect("schedule just attached");
    let reduced_depth = scheduled_reduced
        .depth_metrics()
        .expect("schedule just attached");
    let options = TrajectoryOptions {
        trajectories: trajectories.max(1),
    };
    let ideal = Landscape::evaluate(
        width,
        &StatevectorEvaluator::from_instance(naive_original.clone()),
    );
    // One base seed for all four arms: see the common-random-numbers note in
    // `noisy_grid_comparison`.
    let base_seed: u64 = rng.gen();
    let noisy = |instance: QaoaInstance| {
        Landscape::evaluate(
            width,
            &NoisyTrajectoryEvaluator::per_point(instance, *noise, options, base_seed),
        )
    };
    let baseline_mse = ideal.mse_to(&noisy(naive_original))?;
    let node_mse = ideal.mse_to(&noisy(naive_reduced))?;
    let depth_mse = ideal.mse_to(&noisy(scheduled_original))?;
    let compound_mse = ideal.mse_to(&noisy(scheduled_reduced))?;
    Ok(CompoundNoisyComparison {
        ideal,
        baseline_mse,
        node_mse,
        depth_mse,
        compound_mse,
        full_depth,
        reduced_depth,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlib::generators::{connected_gnp, cycle, path};
    use mathkit::rng::seeded;
    use qsim::devices::fake_toronto;

    #[test]
    fn cycles_of_different_sizes_have_tiny_ideal_mse() {
        let mut rng = seeded(1);
        let mse =
            ideal_sample_mse(&cycle(10).unwrap(), &cycle(7).unwrap(), 1, 128, &mut rng).unwrap();
        assert!(mse < 1e-3, "mse {mse}");
    }

    #[test]
    fn dissimilar_graphs_have_larger_mse_than_similar_ones() {
        let mut rng = seeded(2);
        let g = connected_gnp(10, 0.5, &mut rng).unwrap();
        let similar = connected_gnp(9, 0.5, &mut seeded(3)).unwrap();
        let dissimilar = path(4).unwrap();
        let mse_similar = ideal_sample_mse(&g, &similar, 1, 128, &mut seeded(10)).unwrap();
        let mse_dissimilar = ideal_sample_mse(&g, &dissimilar, 1, 128, &mut seeded(10)).unwrap();
        assert!(
            mse_dissimilar > mse_similar,
            "dissimilar {mse_dissimilar} vs similar {mse_similar}"
        );
    }

    #[test]
    fn reexported_auto_evaluator_selects_backends() {
        // The full selection matrix is covered in `qaoa::evaluator`; here we
        // only pin the re-export and the error conversion into RedQaoaError.
        let large = cycle(30).unwrap();
        assert!(matches!(
            AutoEvaluator::new(&large, 1).unwrap(),
            AutoEvaluator::Analytic(_)
        ));
        let err: RedQaoaError = AutoEvaluator::new(&Graph::new(3), 1).unwrap_err().into();
        assert!(matches!(err, RedQaoaError::Qaoa(_)));
    }

    #[test]
    fn noisy_comparison_favours_the_reduced_graph() {
        let mut rng = seeded(5);
        let original = connected_gnp(9, 0.45, &mut rng).unwrap();
        // A Red-QAOA style reduction: connected subgraph with similar AND.
        let reduced = crate::reduction::reduce(
            &original,
            &crate::reduction::ReductionOptions::default(),
            &mut rng,
        )
        .unwrap();
        let noise = fake_toronto().noise;
        let comparison =
            noisy_grid_comparison(&original, reduced.graph(), 6, &noise, 24, &mut rng).unwrap();
        assert!(comparison.baseline_mse > 0.0);
        assert!(comparison.reduced_mse > 0.0);
        // The reduced circuit is smaller, so its noisy landscape should sit
        // closer to the ideal reference in the typical case. Allow a small
        // slack since both quantities are stochastic.
        assert!(
            comparison.reduced_mse <= comparison.baseline_mse * 1.5,
            "reduced {} vs baseline {}",
            comparison.reduced_mse,
            comparison.baseline_mse
        );
    }

    #[test]
    fn compound_comparison_reports_all_four_arms() {
        let mut rng = seeded(6);
        let original = connected_gnp(9, 0.45, &mut rng).unwrap();
        let reduced = crate::reduction::reduce(
            &original,
            &crate::reduction::ReductionOptions::default(),
            &mut rng,
        )
        .unwrap();
        let noise = fake_toronto().noise;
        let c =
            compound_grid_comparison(&original, reduced.graph(), 6, &noise, 24, &mut rng).unwrap();
        for (name, mse) in [
            ("baseline", c.baseline_mse),
            ("node", c.node_mse),
            ("depth", c.depth_mse),
            ("compound", c.compound_mse),
        ] {
            assert!(mse.is_finite() && mse > 0.0, "{name} mse {mse}");
        }
        assert!(c.full_depth.meets_vizing_bound());
        assert!(c.reduced_depth.meets_vizing_bound());
        assert_eq!(c.full_depth.scheduled_terms, original.edge_count());
        // Depth scheduling shortens the circuit, so each scheduled arm
        // should not sit meaningfully further from the ideal reference than
        // its naive counterpart (small stochastic slack).
        assert!(
            c.compound_mse <= c.node_mse * 1.5,
            "compound {} vs node {}",
            c.compound_mse,
            c.node_mse
        );
        assert!(
            c.depth_mse <= c.baseline_mse * 1.5,
            "depth {} vs baseline {}",
            c.depth_mse,
            c.baseline_mse
        );
    }

    #[test]
    fn compound_comparison_rejects_invalid_width() {
        let g = cycle(6).unwrap();
        assert!(
            compound_grid_comparison(&g, &g, 0, &NoiseModel::ideal(), 4, &mut seeded(1)).is_err()
        );
    }

    #[test]
    fn invalid_arguments_are_rejected() {
        let mut rng = seeded(9);
        let g = cycle(6).unwrap();
        assert!(ideal_sample_mse(&g, &g, 1, 0, &mut rng).is_err());
        assert!(noisy_grid_comparison(&g, &g, 0, &NoiseModel::ideal(), 4, &mut rng).is_err());
    }

    use graphlib::Graph;
}
