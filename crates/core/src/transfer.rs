//! Parameter-transfer baseline (Section 5.6 / Figure 21).
//!
//! Prior work transfers optimal QAOA parameters between random *regular*
//! graphs with matching degree parity. To compare that approach against
//! Red-QAOA on irregular graphs, the baseline builds a random regular
//! "donor" graph with the same node count as the Red-QAOA reduction and a
//! degree equal to the (rounded) average degree of the original graph, and
//! then measures how close the donor's landscape is to the original's.

use crate::reduction::{reduce, ReductionOptions};
use crate::{mse::ideal_sample_mse, RedQaoaError};
use graphlib::generators::random_regular;
use graphlib::metrics::average_node_degree;
use graphlib::Graph;
use qaoa::evaluator::StatevectorEvaluator;
use qaoa::optimize::{OptimizeDriver, OptimizeOutcome, Optimizer, OptimizerRun};
use rand::Rng;

/// Builds the random regular surrogate used by the parameter-transfer
/// baseline: `nodes` vertices with degree as close as possible to the
/// original graph's average degree (adjusted so a regular graph exists).
///
/// # Errors
///
/// Returns [`RedQaoaError::InvalidParameter`] if `nodes < 2`, and
/// [`RedQaoaError::GraphNotReducible`] if no feasible regular degree exists.
pub fn regular_surrogate<R: Rng>(
    original: &Graph,
    nodes: usize,
    rng: &mut R,
) -> Result<Graph, RedQaoaError> {
    if nodes < 2 {
        return Err(RedQaoaError::invalid_parameter(
            "nodes",
            nodes,
            "surrogate needs at least two nodes",
        ));
    }
    let target = average_node_degree(original).round() as usize;
    let mut degree = target.clamp(1, nodes - 1);
    // A d-regular graph on n nodes needs n*d even; nudge the degree if not.
    if (nodes * degree) % 2 != 0 {
        if degree < nodes - 1 {
            degree += 1;
        } else if degree > 1 {
            degree -= 1;
        } else {
            return Err(RedQaoaError::GraphNotReducible(
                "no feasible regular degree for this node count",
            ));
        }
    }
    random_regular(nodes, degree, rng).map_err(RedQaoaError::from)
}

/// Result of comparing Red-QAOA against the parameter-transfer baseline on a
/// single graph.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferComparison {
    /// Ideal landscape MSE between the original graph and the random regular
    /// transfer surrogate.
    pub transfer_mse: f64,
    /// Ideal landscape MSE between the original graph and the Red-QAOA
    /// reduction (with the surrogate forced to the same node count).
    pub red_qaoa_mse: f64,
    /// Node count shared by both reduced graphs.
    pub reduced_nodes: usize,
}

/// Runs the Figure 21 protocol on one graph: reduce it with Red-QAOA, build a
/// random regular surrogate of the same size, and measure both ideal MSEs
/// against the original graph on a shared random parameter set.
///
/// # Errors
///
/// Returns [`RedQaoaError`] if the graph cannot be reduced or evaluated.
pub fn transfer_comparison<R: Rng>(
    graph: &Graph,
    layers: usize,
    num_points: usize,
    reduction: &ReductionOptions,
    rng: &mut R,
) -> Result<TransferComparison, RedQaoaError> {
    let reduced = reduce(graph, reduction, rng)?;
    let nodes = reduced.graph().node_count();
    let surrogate = regular_surrogate(graph, nodes, rng)?;
    let seed: u64 = rng.gen();
    // Use the same parameter points for both comparisons.
    let red_qaoa_mse = ideal_sample_mse(
        graph,
        reduced.graph(),
        layers,
        num_points,
        &mut mathkit::rng::seeded(seed),
    )?;
    let transfer_mse = ideal_sample_mse(
        graph,
        &surrogate,
        layers,
        num_points,
        &mut mathkit::rng::seeded(seed),
    )?;
    Ok(TransferComparison {
        transfer_mse,
        red_qaoa_mse,
        reduced_nodes: nodes,
    })
}

/// Result of the *optimization-based* parameter-transfer comparison: one
/// full restart session on the surrogate graph, one on the original, the
/// surrogate's found parameters re-scored on the original, and optionally
/// the paper's final refine step from those parameters on the original.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizedTransfer {
    /// The optimization session run on the surrogate (donor / reduced) graph.
    pub surrogate: OptimizeOutcome,
    /// The baseline session run directly on the original graph with the same
    /// driver and budget.
    pub native: OptimizeOutcome,
    /// The surrogate's best parameters re-scored on the original graph (the
    /// paper's `red_qaoa_fun`: optimize small, evaluate big).
    pub transferred_value: f64,
    /// Each surrogate restart's best parameters re-scored on the original
    /// graph, averaged (the "average result" metric of Figure 17).
    pub transferred_average: f64,
    /// Mean of the native session's per-restart best values.
    pub native_average: f64,
    /// Relative shortfall of the transferred value versus the native best,
    /// clamped below at 0: `max(0, (native - transferred) / native)`.
    pub transfer_error: f64,
    /// Periodic distance between the surrogate's and the native session's
    /// best parameters.
    pub parameter_distance: f64,
    /// Exact MaxCut of the original graph: the maximum of its cut table,
    /// which the original graph's instance builds on this read (at `p = 1`
    /// no energy needs it).
    pub original_max_cut: usize,
    /// The refine step: one local run of the driver's optimizer on the
    /// original graph, started from the surrogate's best parameters (the
    /// paper's "continue the parameter search on the original graph").
    /// `None` when the refine budget was zero.
    pub refined: Option<OptimizerRun>,
}

impl OptimizedTransfer {
    /// Ratio of the transferred value to the native best (the headline
    /// reduced-vs-baseline metric; 1.0 when the baseline found nothing).
    pub fn relative_value(&self) -> f64 {
        if self.native.best_value.abs() < f64::EPSILON {
            return 1.0;
        }
        self.transferred_value / self.native.best_value
    }
}

/// Runs the paper's end-to-end transfer protocol with an explicit optimizer:
/// optimize `surrogate` with `driver`, optimize `original` with the same
/// driver as the baseline, re-score the surrogate's parameters on
/// `original`, and — when `refine_iters > 0` — refine them there with one
/// `refine_iters`-iteration run of the driver's optimizer. All restart
/// scheduling and stopping logic lives in the [`OptimizeDriver`]; this
/// function only owns the scoring.
///
/// The surrogate session always consumes `rng` first, then the native
/// session, then the refine step — callers get a deterministic stream split
/// for any `Rng`.
///
/// # Errors
///
/// Returns [`RedQaoaError`] if either graph is too large or too degenerate
/// to simulate, or the driver's configuration is invalid.
pub fn optimized_transfer<O: Optimizer + Clone, R: Rng>(
    original: &Graph,
    surrogate: &Graph,
    layers: usize,
    driver: &OptimizeDriver<O>,
    refine_iters: usize,
    rng: &mut R,
) -> Result<OptimizedTransfer, RedQaoaError> {
    let surrogate_evaluator = StatevectorEvaluator::new(surrogate, layers)?;
    let original_evaluator = StatevectorEvaluator::new(original, layers)?;

    let surrogate_outcome = driver.maximize(&surrogate_evaluator, rng)?;
    let native_outcome = driver.maximize(&original_evaluator, rng)?;

    let original_instance = original_evaluator.instance();
    let transferred_value = original_instance.expectation(&surrogate_outcome.best_params);
    let transferred_average = if surrogate_outcome.restart_params.is_empty() {
        transferred_value
    } else {
        surrogate_outcome
            .restart_params
            .iter()
            .map(|p| original_instance.expectation(p))
            .sum::<f64>()
            / surrogate_outcome.restart_params.len() as f64
    };
    let transfer_error = if native_outcome.best_value.abs() < f64::EPSILON {
        0.0
    } else {
        ((native_outcome.best_value - transferred_value) / native_outcome.best_value).max(0.0)
    };
    let parameter_distance = surrogate_outcome
        .best_params
        .periodic_distance(&native_outcome.best_params);
    let refined = (refine_iters > 0).then(|| {
        OptimizeDriver::new(driver.optimizer().clone(), 1, refine_iters).refine_from(
            &original_evaluator,
            &surrogate_outcome.best_params,
            rng,
        )
    });

    Ok(OptimizedTransfer {
        transferred_value,
        transferred_average,
        native_average: native_outcome.average_restart_value(),
        transfer_error,
        parameter_distance,
        original_max_cut: original_instance.max_cut(),
        refined,
        surrogate: surrogate_outcome,
        native: native_outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlib::generators::{connected_gnp, random_regular, rewire_fraction};
    use graphlib::metrics::is_regular;
    use mathkit::rng::seeded;

    #[test]
    fn surrogate_is_regular_with_matching_size() {
        let mut rng = seeded(1);
        let g = connected_gnp(12, 0.4, &mut rng).unwrap();
        let surrogate = regular_surrogate(&g, 8, &mut rng).unwrap();
        assert_eq!(surrogate.node_count(), 8);
        assert!(is_regular(&surrogate));
        assert!(surrogate.average_degree() > 0.0);
        assert!(regular_surrogate(&g, 1, &mut rng).is_err());
    }

    #[test]
    fn transfer_works_well_on_near_regular_graphs() {
        // A slightly rewired regular graph: parameter transfer's home turf.
        let mut rng = seeded(2);
        let base = random_regular(10, 4, &mut rng).unwrap();
        let graph = rewire_fraction(&base, 0.1, &mut rng).unwrap();
        let comparison =
            transfer_comparison(&graph, 1, 96, &ReductionOptions::default(), &mut rng).unwrap();
        // Both approaches should track the original landscape reasonably well
        // on a near-regular graph.
        assert!(comparison.transfer_mse < 0.08, "{comparison:?}");
        assert!(comparison.red_qaoa_mse < 0.06, "{comparison:?}");
    }

    #[test]
    fn optimized_transfer_scores_the_surrogate_on_the_original() {
        use qaoa::optimize::NelderMeadOptimizer;
        let mut rng = seeded(7);
        let graph = connected_gnp(10, 0.4, &mut rng).unwrap();
        let reduced = reduce(&graph, &ReductionOptions::default(), &mut rng).unwrap();
        let driver = OptimizeDriver::new(NelderMeadOptimizer::default(), 3, 80);
        let result = optimized_transfer(&graph, reduced.graph(), 1, &driver, 0, &mut rng).unwrap();
        assert_eq!(result.surrogate.restart_values.len(), 3);
        assert_eq!(result.native.restart_values.len(), 3);
        // The transferred value is a real expectation on the original graph,
        // never better than the native best by more than numerical noise...
        assert!(result.transferred_value <= result.native.best_value + 1e-9);
        // ...and for a faithful reduction it lands close to it.
        assert!(result.relative_value() > 0.9, "{result:?}");
        assert!((0.0..=1.0).contains(&result.transfer_error), "{result:?}");
        assert!(result.parameter_distance >= 0.0);
        assert!(result.transferred_average <= result.native.best_value + 1e-9);
    }

    #[test]
    fn optimized_transfer_is_deterministic_per_seed() {
        use qaoa::optimize::OptimizerConfig;
        let mut rng = seeded(9);
        let graph = connected_gnp(9, 0.45, &mut rng).unwrap();
        let reduced = reduce(&graph, &ReductionOptions::default(), &mut rng).unwrap();
        let driver = OptimizeDriver::new(OptimizerConfig::spsa(), 2, 60);
        let run = |seed: u64| {
            optimized_transfer(&graph, reduced.graph(), 1, &driver, 0, &mut seeded(seed)).unwrap()
        };
        let a = run(4);
        let b = run(4);
        assert_eq!(a.transferred_value.to_bits(), b.transferred_value.to_bits());
        assert_eq!(a.native.best_value.to_bits(), b.native.best_value.to_bits());
    }

    #[test]
    fn red_qaoa_is_competitive_on_irregular_graphs() {
        let mut rng = seeded(3);
        let graph = connected_gnp(11, 0.35, &mut rng).unwrap();
        let comparison =
            transfer_comparison(&graph, 1, 96, &ReductionOptions::default(), &mut rng).unwrap();
        // Red-QAOA reduces the *actual* graph, so it should not lose to the
        // blind regular surrogate by a wide margin on irregular inputs.
        assert!(
            comparison.red_qaoa_mse <= comparison.transfer_mse + 0.02,
            "{comparison:?}"
        );
    }
}
