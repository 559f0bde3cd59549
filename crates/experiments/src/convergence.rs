//! Figures 1 and 20: convergence of ideal vs noisy QAOA optimization, and of
//! baseline vs Red-QAOA under noise.
//!
//! Both experiments run a derivative-free optimizer on a QAOA instance,
//! record every parameter vector it visits, and re-evaluate the visited
//! parameters on an ideal simulator so the curves are comparable.

use graphlib::generators::connected_gnp;
use graphlib::Graph;
use mathkit::rng::{derive_seed, seeded};
use qaoa::evaluator::{SequentialNoisyEvaluator, StatevectorEvaluator};
use qaoa::expectation::QaoaInstance;
use qaoa::maxcut::brute_force_maxcut;
use qaoa::optimize::{maximize_with_restarts, EvaluationTrace, OptimizeOptions, TracedEvaluator};
use qsim::devices::fake_toronto;
use qsim::noise::NoiseModel;
use qsim::trajectory::TrajectoryOptions;
use red_qaoa::reduction::{reduce_pool, ReductionOptions};
use red_qaoa::RedQaoaError;

/// Configuration for the Figure 1 experiment.
#[derive(Debug, Clone)]
pub struct Fig1Config {
    /// Node counts of the two graphs (the paper uses 6 and 10).
    pub node_counts: Vec<usize>,
    /// Edge probability of the random graphs.
    pub edge_probability: f64,
    /// Optimizer iterations (the paper runs 100).
    pub iterations: usize,
    /// Trajectories per noisy evaluation.
    pub trajectories: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig1Config {
    fn default() -> Self {
        Self {
            node_counts: vec![6, 10],
            edge_probability: 0.45,
            iterations: 60,
            trajectories: 24,
            seed: crate::DEFAULT_SEED,
        }
    }
}

/// Convergence curves (approximation ratio per evaluation) for one graph.
#[derive(Debug, Clone)]
pub struct ConvergenceCurves {
    /// Number of nodes in the graph.
    pub nodes: usize,
    /// Running-best approximation ratio of the ideal optimization.
    pub ideal: Vec<f64>,
    /// Running-best approximation ratio (ideal re-evaluation) of the noisy
    /// optimization.
    pub noisy: Vec<f64>,
}

fn approximation_curve(
    instance: &QaoaInstance,
    trace: &EvaluationTrace,
    ground_truth: f64,
) -> Vec<f64> {
    let mut best = f64::NEG_INFINITY;
    trace
        .evaluations()
        .iter()
        .map(|(params, _)| {
            let ideal_value = instance.expectation(params);
            best = best.max(ideal_value);
            best / ground_truth
        })
        .collect()
}

/// Runs the Figure 1 experiment: ideal vs noisy optimization convergence for
/// each configured graph size.
///
/// # Errors
///
/// Returns [`RedQaoaError`] if a graph is degenerate or too large to simulate.
pub fn run_fig1(config: &Fig1Config) -> Result<Vec<ConvergenceCurves>, RedQaoaError> {
    let noise = fake_toronto().noise;
    let mut results = Vec::new();
    for (i, &n) in config.node_counts.iter().enumerate() {
        let mut rng = seeded(derive_seed(config.seed, i as u64));
        let graph = connected_gnp(n, config.edge_probability, &mut rng)?;
        let instance = QaoaInstance::new(&graph, 1)?;
        let ground_truth = brute_force_maxcut(&graph)?.best_cut as f64;
        let options = OptimizeOptions {
            restarts: 1,
            max_iters: config.iterations,
        };

        // Ideal optimization.
        let ideal_trace = EvaluationTrace::new();
        {
            let evaluator = StatevectorEvaluator::from_instance(instance.clone());
            let traced = TracedEvaluator::new(&evaluator, &ideal_trace);
            maximize_with_restarts(&traced, &options, &mut rng)?;
        }
        // Noisy optimization (sequential noise stream: the classic
        // optimizer protocol).
        let noisy_trace = EvaluationTrace::new();
        {
            let traj = TrajectoryOptions {
                trajectories: config.trajectories,
            };
            let evaluator = SequentialNoisyEvaluator::new(
                instance.clone(),
                noise,
                traj,
                derive_seed(config.seed, 100 + i as u64),
            );
            let traced = TracedEvaluator::new(&evaluator, &noisy_trace);
            maximize_with_restarts(&traced, &options, &mut rng)?;
        }

        results.push(ConvergenceCurves {
            nodes: n,
            ideal: approximation_curve(&instance, &ideal_trace, ground_truth),
            noisy: approximation_curve(&instance, &noisy_trace, ground_truth),
        });
    }
    Ok(results)
}

/// Configuration for the Figure 20 experiment (baseline vs Red-QAOA
/// convergence under noise).
#[derive(Debug, Clone)]
pub struct Fig20Config {
    /// Number of nodes in the test graph (the paper uses 10).
    pub nodes: usize,
    /// Edge probability of the random graph.
    pub edge_probability: f64,
    /// Number of optimizer restarts (the paper uses 5).
    pub restarts: usize,
    /// Iterations per restart.
    pub iterations: usize,
    /// Trajectories per noisy evaluation.
    pub trajectories: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig20Config {
    fn default() -> Self {
        Self {
            nodes: 10,
            edge_probability: 0.4,
            restarts: 3,
            iterations: 40,
            trajectories: 16,
            seed: crate::DEFAULT_SEED,
        }
    }
}

/// Convergence curves for the baseline and Red-QAOA noisy optimizations
/// (ideal re-evaluation of every visited parameter vector).
#[derive(Debug, Clone)]
pub struct Fig20Curves {
    /// Running-best ideal expectation visited by the noisy baseline.
    pub baseline: Vec<f64>,
    /// Running-best ideal expectation visited by Red-QAOA (optimizing the
    /// reduced circuit, re-evaluated on the original graph).
    pub red_qaoa: Vec<f64>,
    /// Node and edge counts of the reduced graph.
    pub reduced_nodes: usize,
}

fn running_best_on_original(original: &QaoaInstance, trace: &EvaluationTrace) -> Vec<f64> {
    let mut best = f64::NEG_INFINITY;
    trace
        .evaluations()
        .iter()
        .map(|(params, _)| {
            best = best.max(original.expectation(params));
            best
        })
        .collect()
}

/// Runs the Figure 20 experiment.
///
/// # Errors
///
/// Returns [`RedQaoaError`] if the graph cannot be reduced or simulated.
pub fn run_fig20(config: &Fig20Config) -> Result<Fig20Curves, RedQaoaError> {
    let mut rng = seeded(config.seed);
    let graph: Graph = connected_gnp(config.nodes, config.edge_probability, &mut rng)?;
    // A one-graph deterministic `reduce_pool`, on its own derived
    // substream: the reduction does not advance the optimizer's RNG stream
    // and stays bitwise thread-count invariant like the multi-graph pools.
    let reduced = reduce_pool(
        std::slice::from_ref(&graph),
        &ReductionOptions::default(),
        derive_seed(config.seed, 3),
    )
    .pop()
    .expect("one-graph pool yields one result")?;
    let original_instance = QaoaInstance::new(&graph, 1)?;
    let reduced_instance = QaoaInstance::new(reduced.graph(), 1)?;
    let noise: NoiseModel = fake_toronto().noise;
    let traj = TrajectoryOptions {
        trajectories: config.trajectories,
    };
    let options = OptimizeOptions {
        restarts: config.restarts,
        max_iters: config.iterations,
    };

    let baseline_trace = EvaluationTrace::new();
    {
        let evaluator = SequentialNoisyEvaluator::new(
            original_instance.clone(),
            noise,
            traj,
            derive_seed(config.seed, 1),
        );
        let traced = TracedEvaluator::new(&evaluator, &baseline_trace);
        maximize_with_restarts(&traced, &options, &mut rng)?;
    }
    let red_trace = EvaluationTrace::new();
    {
        let evaluator = SequentialNoisyEvaluator::new(
            reduced_instance.clone(),
            noise,
            traj,
            derive_seed(config.seed, 2),
        );
        let traced = TracedEvaluator::new(&evaluator, &red_trace);
        maximize_with_restarts(&traced, &options, &mut rng)?;
    }

    Ok(Fig20Curves {
        baseline: running_best_on_original(&original_instance, &baseline_trace),
        red_qaoa: running_best_on_original(&original_instance, &red_trace),
        reduced_nodes: reduced.graph().node_count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_curves_have_expected_shape() {
        let config = Fig1Config {
            node_counts: vec![5, 7],
            iterations: 12,
            trajectories: 6,
            ..Default::default()
        };
        let curves = run_fig1(&config).unwrap();
        assert_eq!(curves.len(), 2);
        for c in &curves {
            assert!(!c.ideal.is_empty() && !c.noisy.is_empty());
            // Running-best curves are non-decreasing and bounded by 1.
            assert!(c.ideal.windows(2).all(|w| w[1] + 1e-12 >= w[0]));
            assert!(c.ideal.iter().all(|&r| r <= 1.0 + 1e-9));
            assert!(c.noisy.iter().all(|&r| r <= 1.0 + 1e-9));
        }
    }

    #[test]
    fn fig20_red_qaoa_is_competitive() {
        let config = Fig20Config {
            nodes: 8,
            restarts: 2,
            iterations: 20,
            trajectories: 8,
            ..Default::default()
        };
        let curves = run_fig20(&config).unwrap();
        assert!(curves.reduced_nodes <= 8);
        let base_final = *curves.baseline.last().unwrap();
        let red_final = *curves.red_qaoa.last().unwrap();
        assert!(red_final > 0.0 && base_final > 0.0);
        // Red-QAOA should reach at least ~85% of the baseline's final value.
        assert!(
            red_final >= 0.85 * base_final,
            "{red_final} vs {base_final}"
        );
    }
}
