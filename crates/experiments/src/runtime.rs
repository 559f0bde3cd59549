//! Figure 18: Red-QAOA preprocessing overhead versus problem size.
//!
//! The reduction (SA runs at the size floor, and a binary search above it
//! when the floor misses the AND ratio) is timed for random graphs of
//! increasing size, an `a·n·log n + b` model is fitted to the measurements,
//! and the overhead is compared against a per-circuit execution-time model
//! extrapolated from published device benchmarks (the paper cites ~4.2 s for
//! a 1-layer QAOA circuit on ibm_sherbrooke at 10 nodes).
//!
//! The timed work runs as [`red_qaoa::engine::ReduceJob`] batches through a
//! single-worker [`red_qaoa::engine::Engine`].

use graphlib::generators::connected_gnp;
use graphlib::Graph;
use mathkit::polyfit::{fit_n_log_n, r_squared};
use mathkit::rng::{derive_seed, seeded};
use red_qaoa::engine::{Engine, Job, ReduceJob};
use red_qaoa::RedQaoaError;
use std::time::Instant;

/// Configuration of the Figure 18 experiment.
#[derive(Debug, Clone)]
pub struct Fig18Config {
    /// Graph sizes (node counts) to time.
    pub node_counts: Vec<usize>,
    /// Average degree of the random graphs.
    pub average_degree: f64,
    /// Repetitions per size (the pool-batch mean is reported).
    pub repetitions: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig18Config {
    fn default() -> Self {
        Self {
            node_counts: vec![10, 20, 40, 80, 160, 320],
            average_degree: 4.0,
            repetitions: 3,
            seed: crate::DEFAULT_SEED,
        }
    }
}

/// One measurement of Figure 18.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig18Point {
    /// Number of nodes.
    pub nodes: usize,
    /// Mean preprocessing time per graph in seconds (the repetitions at one
    /// size are reduced as a single `reduce_pool` batch).
    pub preprocessing_seconds: f64,
    /// Modelled per-circuit execution time in seconds (linear extrapolation
    /// of the published 4.2 s at 10 nodes).
    pub circuit_execution_seconds: f64,
}

/// Result of the Figure 18 experiment: the measurements plus the fitted
/// `a·n log n + b` model.
#[derive(Debug, Clone)]
pub struct Fig18Result {
    /// Timed points.
    pub points: Vec<Fig18Point>,
    /// Fitted coefficient `a` of `a·n·ln n + b`.
    pub fit_a: f64,
    /// Fitted intercept `b`.
    pub fit_b: f64,
    /// Coefficient of determination of the fit.
    pub r_squared: f64,
}

/// Published-benchmark-based model of the per-circuit execution time
/// (seconds) for an `n`-node, 1-layer QAOA circuit.
pub fn circuit_execution_model(nodes: usize) -> f64 {
    // 4.2 s at 10 nodes, growing linearly with circuit width (queueing,
    // readout, and per-shot latency dominate on hosted devices).
    4.2 * nodes as f64 / 10.0
}

/// Runs the Figure 18 experiment.
///
/// # Errors
///
/// Returns [`RedQaoaError`] if timing produced too few points to fit.
pub fn run_fig18(config: &Fig18Config) -> Result<Fig18Result, RedQaoaError> {
    // One engine for the whole sweep. The timed batches are pinned to one
    // worker so the reported per-graph preprocessing *cost* does not shrink
    // with RED_QAOA_THREADS — this figure measures the paper's per-graph
    // overhead claim, not pool throughput (reduction_smoke records that).
    // Every timed graph is distinct, so the engine's reduction cache never
    // short-circuits a measurement.
    let engine = Engine::builder().threads(1).build()?;
    let mut points = Vec::new();
    for (i, &n) in config.node_counts.iter().enumerate() {
        let p = (config.average_degree / (n.saturating_sub(1)).max(1) as f64).min(1.0);
        let reps = config.repetitions.max(1);
        let jobs: Vec<Job> = (0..reps)
            .map(|rep| {
                let mut rng = seeded(derive_seed(config.seed, (i * 100 + rep) as u64));
                connected_gnp(n, p, &mut rng).map(|graph: Graph| Job::Reduce(ReduceJob::new(graph)))
            })
            .collect::<Result<_, _>>()?;
        // The repetitions at one size run as one engine batch; the per-graph
        // time is the batch mean.
        let start = Instant::now();
        let results = engine.run_batch(&jobs, derive_seed(config.seed, 50_000 + i as u64));
        let elapsed = start.elapsed().as_secs_f64();
        for result in results {
            result?;
        }
        points.push(Fig18Point {
            nodes: n,
            preprocessing_seconds: elapsed / reps as f64,
            circuit_execution_seconds: circuit_execution_model(n),
        });
    }
    let xs: Vec<f64> = points.iter().map(|p| p.nodes as f64).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.preprocessing_seconds).collect();
    let (fit_a, fit_b) = fit_n_log_n(&xs, &ys).map_err(|_| {
        RedQaoaError::EmptyInput("n log n fit needs at least two timed graph sizes")
    })?;
    let predicted: Vec<f64> = xs
        .iter()
        .map(|&x| fit_a * x * x.ln().max(0.0) + fit_b)
        .collect();
    let r2 = r_squared(&ys, &predicted).unwrap_or(0.0);
    Ok(Fig18Result {
        points,
        fit_a,
        fit_b,
        r_squared: r2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preprocessing_is_fast_and_scales_mildly() {
        let config = Fig18Config {
            node_counts: vec![10, 20, 40, 80],
            repetitions: 1,
            ..Default::default()
        };
        let result = run_fig18(&config).unwrap();
        assert_eq!(result.points.len(), 4);
        for point in &result.points {
            // Preprocessing must be far below the modelled circuit execution
            // time — the paper's "negligible overhead" claim.
            assert!(
                point.preprocessing_seconds < point.circuit_execution_seconds,
                "{point:?}"
            );
        }
        // Times should grow with n overall.
        assert!(
            result.points.last().unwrap().preprocessing_seconds
                >= result.points.first().unwrap().preprocessing_seconds
        );
    }

    #[test]
    fn execution_model_is_linear_in_nodes() {
        assert!((circuit_execution_model(10) - 4.2).abs() < 1e-12);
        assert!(circuit_execution_model(65) > circuit_execution_model(20));
    }
}
