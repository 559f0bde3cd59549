//! The noisy Red-QAOA pipeline (Figures 19 and 20).
//!
//! 1. **Graph reduction** — distill `G` into `G'` with the SA search (or the
//!    identity reduction in depth-only [`CircuitReduction`] mode).
//! 2. **Noisy parameter search** — optimize the small circuit of `G'` under
//!    the noise model, and, as the baseline, the circuit of `G` under the
//!    same noise with the same budget.
//! 3. **Ideal re-scoring** — evaluate both found parameter sets ideally on
//!    `G` and report them side by side.
//!
//! The ideal end-to-end loop (reduce → optimize on `G'` → transfer → refine
//! on `G`) is [`crate::engine::OptimizeJob`]; its refine step is
//! [`OptimizeJob::with_refine_iters`](crate::engine::OptimizeJob::with_refine_iters).
//!
//! The free functions here are the **low-level layer**: they take explicit
//! options and an explicit RNG and leave caching, batching, and thread
//! policy to the caller. Long-lived services should submit
//! `PipelineJob::new(graph).noisy(t)` to a [`crate::engine::Engine`]
//! instead, which routes the reduction step through its content-hash cache
//! and calls [`run_noisy_with_reduction`] underneath.

use crate::reduction::{reduce, ReducedGraph, ReductionOptions};
use crate::RedQaoaError;
pub use qaoa::depth::CircuitReduction;
use qaoa::depth::{compile_maxcut, DepthMetrics};
use qaoa::evaluator::{SequentialNoisyEvaluator, StatevectorEvaluator};
use qaoa::optimize::{maximize_with_restarts, OptimizeOptions};
use qsim::noise::NoiseModel;
use qsim::trajectory::TrajectoryOptions;
use rand::Rng;

/// Configuration of the noisy pipeline. An engine's copy also supplies the
/// default [`CircuitReduction`] mode of every job.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineOptions {
    /// Number of QAOA layers `p`.
    pub layers: usize,
    /// Graph-reduction configuration.
    pub reduction: ReductionOptions,
    /// Optimization protocol used on the reduced graph (and for the baseline).
    pub optimize: OptimizeOptions,
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
            circuit: CircuitReduction::None,
        }
    }
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

/// Depth-compiles `graph`'s cost layer when `circuit` asks for it; `None`
/// (and no work) otherwise. The one depth-metrics step of every job that
/// reports [`DepthMetrics`].
pub(crate) fn depth_metrics(
    circuit: CircuitReduction,
    graph: &graphlib::Graph,
) -> Result<Option<DepthMetrics>, RedQaoaError> {
    if !circuit.wants_depth() {
        return Ok(None);
    }
    Ok(Some(*compile_maxcut(graph)?.metrics()))
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
/// elsewhere — a [`crate::reduction::reduce_pool`] batch entry, or the
/// [`crate::engine::Engine`]'s cache, so cached reductions skip straight to
/// the optimization.
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
    let depth = depth_metrics(options.circuit, reduction.graph())?;
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
    use crate::engine::{Engine, Job, OptimizeJob, OptimizeReport};
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
            ..Default::default()
        }
    }

    /// The ideal loop — reduce, optimize on `G'`, transfer, refine on `G` —
    /// with the budget of [`quick_options`] and a 25-iteration refine step.
    fn run_ideal_loop(graph: &graphlib::Graph, seed: u64) -> OptimizeReport {
        let job = OptimizeJob::new(graph.clone())
            .with_restarts(2)
            .with_max_iters(50)
            .with_refine_iters(25);
        let engine = Engine::builder().threads(1).build().unwrap();
        let output = engine.run(&Job::Optimize(job), seed).unwrap();
        output.as_optimize().unwrap().clone()
    }

    #[test]
    fn ideal_pipeline_reaches_near_baseline_quality() {
        let mut rng = seeded(1);
        let graph = connected_gnp(10, 0.4, &mut rng).unwrap();
        let report = run_ideal_loop(&graph, 1);
        assert!(report.reduction.graph().node_count() <= graph.node_count());
        let refined = report.transfer.refined.as_ref().expect("refine step ran");
        let ratio = refined.value / report.transfer.native.best_value;
        assert!(ratio > 0.9, "Red-QAOA reached only {ratio:.3} of baseline");
        let approx = refined.value / report.ground_truth.unwrap() as f64;
        assert!(
            approx > 0.5 && approx <= 1.0,
            "approximation ratio {approx}"
        );
        assert!(report.baseline_approximation_ratio().unwrap() <= 1.0);
    }

    #[test]
    fn transfer_then_refine_improves_or_matches_transfer_alone() {
        let mut rng = seeded(2);
        let graph = connected_gnp(9, 0.45, &mut rng).unwrap();
        let report = run_ideal_loop(&graph, 2);
        let original_instance = QaoaInstance::new(&graph, 1).unwrap();
        let transferred_value =
            original_instance.expectation(&report.transfer.surrogate.best_params);
        let refined = report.transfer.refined.as_ref().expect("refine step ran");
        assert!(refined.value + 1e-9 >= transferred_value);
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
        let noise = fake_toronto().noise;
        let outcome = run_noisy(&graph, &options, &noise, 4, &mut rng).unwrap();
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
        let noise = fake_toronto().noise;
        let outcome = run_noisy(&graph, &quick_options(), &noise, 4, &mut rng).unwrap();
        assert!(outcome.depth.is_none());
    }

    #[test]
    fn pipeline_errors_on_degenerate_graphs() {
        let mut rng = seeded(4);
        let noise = fake_toronto().noise;
        let edgeless = graphlib::Graph::new(3);
        assert!(run_noisy(&edgeless, &quick_options(), &noise, 4, &mut rng).is_err());
    }
}
