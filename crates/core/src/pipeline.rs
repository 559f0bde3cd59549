//! The end-to-end Red-QAOA pipeline (Figure 4).
//!
//! 1. **Graph reduction** — distill `G` into `G'` with the SA search.
//! 2. **Parameter search on `G'`** — run the classical optimization loop on
//!    the small (cheap, noise-tolerant) circuit.
//! 3. **Transfer & solution finding on `G`** — seed the original graph's
//!    optimization with the parameters found on `G'` and run a short
//!    refinement, then report the final expectation / approximation ratio.
//!
//! The pipeline also exposes the plain-QAOA baseline (optimize directly on
//! `G` with the same budget) so experiments can report relative improvements.
//!
//! The free functions here are the **low-level layer**: they take explicit
//! options and an explicit RNG and leave caching, batching, and thread
//! policy to the caller. Long-lived services should submit
//! [`crate::engine::PipelineJob`]s to a [`crate::engine::Engine`] instead,
//! which routes the reduction step through its content-hash cache and calls
//! [`run_ideal_with_reduction`] / [`run_noisy_with_reduction`] underneath.

use crate::reduction::{reduce, ReducedGraph, ReductionOptions};
use crate::RedQaoaError;
pub use qaoa::depth::CircuitReduction;
use qaoa::depth::{compile_maxcut, DepthMetrics};
use qaoa::evaluator::{SequentialNoisyEvaluator, StatevectorEvaluator};
use qaoa::optimize::{
    approximation_ratio, maximize_with_restarts, NelderMeadOptimizer, OptimizeDriver,
    OptimizeOptions,
};
use qaoa::params::QaoaParams;
use qsim::noise::NoiseModel;
use qsim::trajectory::TrajectoryOptions;
use rand::Rng;

/// Configuration of the full pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineOptions {
    /// Number of QAOA layers `p`.
    pub layers: usize,
    /// Graph-reduction configuration.
    pub reduction: ReductionOptions,
    /// Optimization protocol used on the reduced graph (and for the baseline).
    pub optimize: OptimizeOptions,
    /// Nelder–Mead iterations of the final refinement on the original graph.
    pub refine_iters: usize,
    /// Which reduction axes to apply: node reduction (the legacy default),
    /// circuit-depth reduction, or both composed. With a depth-requesting
    /// mode the Red-QAOA arm's circuits are built from the depth-compiled
    /// schedule (see `qaoa::depth`); with [`CircuitReduction::Depth`] the
    /// node-reduction step is replaced by [`ReducedGraph::identity`] and
    /// consumes no RNG.
    pub circuit: CircuitReduction,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        Self {
            layers: 1,
            reduction: ReductionOptions::default(),
            optimize: OptimizeOptions {
                restarts: 3,
                max_iters: 80,
            },
            refine_iters: 30,
            circuit: CircuitReduction::None,
        }
    }
}

/// Outcome of an ideal (noise-free) pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineOutcome {
    /// The reduction found in step 1.
    pub reduction: ReducedGraph,
    /// Parameters found on the reduced graph.
    pub transferred_params: QaoaParams,
    /// Final parameters after refinement on the original graph.
    pub final_params: QaoaParams,
    /// Final expectation value on the original graph.
    pub final_value: f64,
    /// Best expectation achieved by the plain-QAOA baseline with the same
    /// optimization budget on the original graph.
    pub baseline_value: f64,
    /// Average over the baseline's restarts (Figure 17's "average result").
    pub baseline_average: f64,
    /// Average over Red-QAOA's restarts on the reduced graph, re-evaluated on
    /// the original graph.
    pub red_qaoa_average: f64,
    /// Exact MaxCut of the original graph (ground truth): the maximum of
    /// its cut table.
    pub ground_truth: Option<usize>,
    /// Depth-compilation metrics of the Red-QAOA arm's cost layer, when the
    /// run requested a depth-reducing [`CircuitReduction`] mode.
    pub depth: Option<DepthMetrics>,
}

impl PipelineOutcome {
    /// Red-QAOA's approximation ratio, if the ground truth is known.
    pub fn approximation_ratio(&self) -> Option<f64> {
        self.ground_truth
            .map(|c| approximation_ratio(self.final_value, c as f64).expect("positive cut"))
    }

    /// Baseline approximation ratio, if the ground truth is known.
    pub fn baseline_approximation_ratio(&self) -> Option<f64> {
        self.ground_truth
            .map(|c| approximation_ratio(self.baseline_value, c as f64).expect("positive cut"))
    }

    /// Ratio of Red-QAOA's best value to the baseline's best value
    /// (the headline metric of Figure 17).
    pub fn relative_best(&self) -> f64 {
        if self.baseline_value.abs() < f64::EPSILON {
            return 1.0;
        }
        self.final_value / self.baseline_value
    }
}

/// Runs the ideal (noise-free) Red-QAOA pipeline on `graph` and the
/// plain-QAOA baseline with the same budget.
///
/// # Errors
///
/// Returns [`RedQaoaError`] if the graph cannot be reduced or is too large
/// for exact simulation.
pub fn run_ideal<R: Rng>(
    graph: &graphlib::Graph,
    options: &PipelineOptions,
    rng: &mut R,
) -> Result<PipelineOutcome, RedQaoaError> {
    let reduction = resolve_reduction(graph, options, rng)?;
    run_ideal_with_reduction(graph, reduction, options, rng)
}

/// Step 1 under the [`CircuitReduction`] knob: the SA reduction for
/// node-requesting modes, the RNG-free [`ReducedGraph::identity`] for
/// depth-only mode.
fn resolve_reduction<R: Rng>(
    graph: &graphlib::Graph,
    options: &PipelineOptions,
    rng: &mut R,
) -> Result<ReducedGraph, RedQaoaError> {
    if options.circuit.wants_node_reduction() {
        reduce(graph, &options.reduction, rng)
    } else {
        Ok(ReducedGraph::identity(graph))
    }
}

/// Depth-compiles the Red-QAOA arm's cost layer when the pipeline mode asks
/// for it; `None` (and no work) otherwise.
fn resolve_depth(
    reduction: &ReducedGraph,
    options: &PipelineOptions,
) -> Result<Option<DepthMetrics>, RedQaoaError> {
    if !options.circuit.wants_depth() {
        return Ok(None);
    }
    let schedule = compile_maxcut(reduction.graph()).map_err(RedQaoaError::from)?;
    Ok(Some(*schedule.metrics()))
}

/// Runs the ideal pipeline's steps 2 and 3 on a reduction computed
/// elsewhere — typically one entry of a [`crate::reduction::reduce_pool`]
/// batch, so experiments can reduce a whole graph pool in parallel and then
/// drive each pipeline off its precomputed surrogate.
///
/// # Errors
///
/// Returns [`RedQaoaError`] if either graph is too large for exact
/// simulation.
pub fn run_ideal_with_reduction<R: Rng>(
    graph: &graphlib::Graph,
    reduction: ReducedGraph,
    options: &PipelineOptions,
    rng: &mut R,
) -> Result<PipelineOutcome, RedQaoaError> {
    // Exact evaluation applies the cost layer as a phase table, so a depth
    // schedule cannot change the ideal numbers — only the metrics report is
    // produced here. The noisy pipeline is where scheduling changes results.
    let depth = resolve_depth(&reduction, options)?;
    let reduced_evaluator = StatevectorEvaluator::new(reduction.graph(), options.layers)?;
    let original_evaluator = StatevectorEvaluator::new(graph, options.layers)?;

    // Step 2: parameter search on the reduced graph.
    let reduced_outcome = maximize_with_restarts(&reduced_evaluator, &options.optimize, rng)?;
    let transferred_params = reduced_outcome.best_params.clone();

    // Step 3: transfer and refine on the original graph. The single-restart
    // polish is the `OptimizeDriver`'s `refine_from` protocol; Nelder–Mead
    // draws nothing from `rng`, so the pipeline's random stream is untouched.
    let refined = OptimizeDriver::new(NelderMeadOptimizer::default(), 1, options.refine_iters)
        .refine_from(&original_evaluator, &transferred_params, rng);
    let (final_params, final_value) = (refined.params, refined.value);

    // Plain-QAOA baseline with the same protocol, directly on the original.
    let baseline_outcome = maximize_with_restarts(&original_evaluator, &options.optimize, rng)?;

    // Re-evaluate Red-QAOA's transferred parameters on the original graph so
    // the "average result" columns are comparable. Every restart transfers
    // the same best parameters, so the per-restart average collapses to a
    // single deterministic evaluation.
    let red_qaoa_average = original_evaluator
        .instance()
        .expectation(&transferred_params);

    // The full-graph evaluator exists only up to the exact-simulation limit,
    // so its cut table always yields the ground truth here.
    let ground_truth = Some(original_evaluator.instance().max_cut());

    Ok(PipelineOutcome {
        reduction,
        transferred_params,
        final_params,
        final_value,
        baseline_value: baseline_outcome.best_value,
        baseline_average: baseline_outcome.average_restart_value(),
        red_qaoa_average,
        ground_truth,
        depth,
    })
}

/// Outcome of a noisy pipeline run (Figures 19 and 20).
#[derive(Debug, Clone, PartialEq)]
pub struct NoisyPipelineOutcome {
    /// The reduction used by Red-QAOA.
    pub reduction: ReducedGraph,
    /// Parameters found by optimizing the *reduced* graph under noise,
    /// re-evaluated ideally on the original graph.
    pub red_qaoa_ideal_value: f64,
    /// Parameters found by optimizing the *original* graph under noise,
    /// re-evaluated ideally on the original graph.
    pub baseline_ideal_value: f64,
    /// Exact MaxCut of the original graph: the maximum of its cut table.
    pub ground_truth: Option<usize>,
    /// Depth-compilation metrics of the Red-QAOA arm's cost layer, when the
    /// run requested a depth-reducing [`CircuitReduction`] mode.
    pub depth: Option<DepthMetrics>,
}

impl NoisyPipelineOutcome {
    /// Relative improvement of Red-QAOA's approximation over the noisy
    /// baseline: `(red - baseline) / baseline`.
    pub fn relative_improvement(&self) -> f64 {
        if self.baseline_ideal_value.abs() < f64::EPSILON {
            return 0.0;
        }
        (self.red_qaoa_ideal_value - self.baseline_ideal_value) / self.baseline_ideal_value
    }
}

/// Runs the noisy pipeline: both Red-QAOA (optimizing the reduced circuit
/// under noise) and the baseline (optimizing the original circuit under the
/// same noise) are given the same budget; the parameters each finds are then
/// re-evaluated with an ideal simulator on the original graph, mirroring the
/// protocol of Section 6.5.
///
/// # Errors
///
/// Returns [`RedQaoaError`] if the graph cannot be reduced or simulated.
pub fn run_noisy<R: Rng>(
    graph: &graphlib::Graph,
    options: &PipelineOptions,
    noise: &NoiseModel,
    trajectories: usize,
    rng: &mut R,
) -> Result<NoisyPipelineOutcome, RedQaoaError> {
    let reduction = resolve_reduction(graph, options, rng)?;
    run_noisy_with_reduction(graph, reduction, options, noise, trajectories, rng)
}

/// Runs the noisy pipeline's optimization steps on a reduction computed
/// elsewhere — the noisy counterpart of [`run_ideal_with_reduction`], used by
/// [`crate::engine::Engine`] so cached reductions skip straight to the
/// optimization.
///
/// `rng` drives exactly the same stream [`run_noisy`] would after its
/// internal `reduce` call, so `run_noisy(g, o, n, t, rng)` and
/// `reduce(g, &o.reduction, rng)` followed by this function are identical.
///
/// # Errors
///
/// Returns [`RedQaoaError`] if either graph is too large to simulate.
pub fn run_noisy_with_reduction<R: Rng>(
    graph: &graphlib::Graph,
    reduction: ReducedGraph,
    options: &PipelineOptions,
    noise: &NoiseModel,
    trajectories: usize,
    rng: &mut R,
) -> Result<NoisyPipelineOutcome, RedQaoaError> {
    let depth = resolve_depth(&reduction, options)?;
    let reduced_evaluator = StatevectorEvaluator::new(reduction.graph(), options.layers)?;
    let original_evaluator = StatevectorEvaluator::new(graph, options.layers)?;
    let traj = TrajectoryOptions {
        trajectories: trajectories.max(1),
    };

    // Dedicated sequential noise streams for the two optimizations keep the
    // runs independent while leaving `rng` free to drive the restart
    // protocol (the classic optimizer protocol; see
    // `SequentialNoisyEvaluator`).
    let red_seed: u64 = rng.gen();
    let baseline_seed: u64 = rng.gen();

    // Red-QAOA: noisy optimization of the reduced circuit. Under a
    // depth-reducing mode the circuit is built from the compiled schedule —
    // unitarily identical, but packed into fewer two-qubit time steps, so
    // the trajectory simulator charges less idle decoherence per shot.
    let mut red_instance = reduced_evaluator.instance().clone();
    if options.circuit.wants_depth() {
        red_instance = red_instance.with_depth_schedule();
    }
    let red_noisy = SequentialNoisyEvaluator::new(red_instance, *noise, traj, red_seed);
    let red_outcome = maximize_with_restarts(&red_noisy, &options.optimize, rng)?;

    // Baseline: noisy optimization of the original circuit.
    let baseline_noisy = SequentialNoisyEvaluator::new(
        original_evaluator.instance().clone(),
        *noise,
        traj,
        baseline_seed,
    );
    let baseline_outcome = maximize_with_restarts(&baseline_noisy, &options.optimize, rng)?;

    let original_instance = original_evaluator.instance();
    let red_qaoa_ideal_value = original_instance.expectation(&red_outcome.best_params);
    let baseline_ideal_value = original_instance.expectation(&baseline_outcome.best_params);
    let ground_truth = Some(original_instance.max_cut());

    Ok(NoisyPipelineOutcome {
        reduction,
        red_qaoa_ideal_value,
        baseline_ideal_value,
        ground_truth,
        depth,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlib::generators::connected_gnp;
    use mathkit::rng::seeded;
    use qaoa::expectation::QaoaInstance;
    use qsim::devices::fake_toronto;

    fn quick_options() -> PipelineOptions {
        PipelineOptions {
            layers: 1,
            optimize: OptimizeOptions {
                restarts: 2,
                max_iters: 50,
            },
            refine_iters: 25,
            ..Default::default()
        }
    }

    #[test]
    fn ideal_pipeline_reaches_near_baseline_quality() {
        let mut rng = seeded(1);
        let graph = connected_gnp(10, 0.4, &mut rng).unwrap();
        let outcome = run_ideal(&graph, &quick_options(), &mut rng).unwrap();
        assert!(outcome.reduction.graph().node_count() <= graph.node_count());
        let ratio = outcome.relative_best();
        assert!(ratio > 0.9, "Red-QAOA reached only {ratio:.3} of baseline");
        let approx = outcome.approximation_ratio().unwrap();
        assert!(
            approx > 0.5 && approx <= 1.0,
            "approximation ratio {approx}"
        );
        assert!(outcome.baseline_approximation_ratio().unwrap() <= 1.0);
    }

    #[test]
    fn transfer_then_refine_improves_or_matches_transfer_alone() {
        let mut rng = seeded(2);
        let graph = connected_gnp(9, 0.45, &mut rng).unwrap();
        let outcome = run_ideal(&graph, &quick_options(), &mut rng).unwrap();
        let original_instance = QaoaInstance::new(&graph, 1).unwrap();
        let transferred_value = original_instance.expectation(&outcome.transferred_params);
        assert!(outcome.final_value + 1e-9 >= transferred_value);
    }

    #[test]
    fn noisy_pipeline_reports_comparable_values() {
        let mut rng = seeded(3);
        let graph = connected_gnp(8, 0.45, &mut rng).unwrap();
        let noise = fake_toronto().noise;
        let outcome = run_noisy(&graph, &quick_options(), &noise, 16, &mut rng).unwrap();
        assert!(outcome.red_qaoa_ideal_value > 0.0);
        assert!(outcome.baseline_ideal_value > 0.0);
        assert!(outcome.relative_improvement().abs() < 1.0);
        assert!(outcome.ground_truth.is_some());
    }

    #[test]
    fn depth_only_mode_skips_node_reduction_and_reports_metrics() {
        let mut rng = seeded(5);
        let graph = connected_gnp(9, 0.4, &mut rng).unwrap();
        let options = PipelineOptions {
            circuit: qaoa::depth::CircuitReduction::Depth,
            ..quick_options()
        };
        let outcome = run_ideal(&graph, &options, &mut rng).unwrap();
        // Identity reduction: the "reduced" graph is the original.
        assert_eq!(outcome.reduction.graph().node_count(), graph.node_count());
        assert_eq!(outcome.reduction.and_ratio, 1.0);
        assert_eq!(outcome.reduction.node_reduction, 0.0);
        let depth = outcome.depth.expect("depth mode reports metrics");
        assert!(depth.meets_vizing_bound());
        assert_eq!(depth.scheduled_terms, graph.edge_count());
    }

    #[test]
    fn node_and_depth_mode_compiles_the_reduced_graph() {
        let mut rng = seeded(6);
        let graph = connected_gnp(10, 0.45, &mut rng).unwrap();
        let options = PipelineOptions {
            circuit: qaoa::depth::CircuitReduction::NodeAndDepth,
            ..quick_options()
        };
        let noise = fake_toronto().noise;
        let outcome = run_noisy(&graph, &options, &noise, 8, &mut rng).unwrap();
        let depth = outcome.depth.expect("depth metrics present");
        // The compiled layer belongs to the *reduced* graph.
        assert_eq!(
            depth.scheduled_terms,
            outcome.reduction.graph().edge_count()
        );
        assert!(outcome.red_qaoa_ideal_value > 0.0);
    }

    #[test]
    fn legacy_mode_reports_no_depth_metrics() {
        let mut rng = seeded(7);
        let graph = connected_gnp(8, 0.45, &mut rng).unwrap();
        let outcome = run_ideal(&graph, &quick_options(), &mut rng).unwrap();
        assert!(outcome.depth.is_none());
    }

    #[test]
    fn pipeline_errors_on_degenerate_graphs() {
        let mut rng = seeded(4);
        assert!(run_ideal(&graphlib::Graph::new(3), &quick_options(), &mut rng).is_err());
    }
}
