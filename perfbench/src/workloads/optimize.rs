//! `optimize`: the paper's end-to-end loop. Each request is one
//! `OptimizeJob` on a fresh connected G(n, p) graph — reduce, optimize on
//! the reduction, re-score on the full graph, run the full-graph baseline,
//! brute-force the ground truth. Every reduction is a cache miss.

use super::{
    build_engine, reduction_pct, replica_reduce, Outcome, Request, Workload, GRAPH_STREAM,
    REQUEST_STREAM, WARMUP_BASE, WARMUP_SEED,
};
use crate::digest::Digest;
use crate::layers::{ms_since, statevector_amp_updates, timed, Layers, Timed};
use graphlib::generators::connected_gnp;
use graphlib::Graph;
use mathkit::rng::{derive_seed, seeded};
use qaoa::evaluator::StatevectorEvaluator;
use qaoa::maxcut::brute_force_maxcut;
use qaoa::optimize::{OptimizeDriver, OptimizeOutcome, OptimizerConfig};
use red_qaoa::engine::{Engine, Job, JobOutput, OptimizeJob};
use red_qaoa::reduction::ReducedGraph;
use red_qaoa::RedQaoaError;
use std::time::Instant;

/// Node counts, cycled by request index.
const NODES: [usize; 3] = [12, 13, 14];
/// G(n, p) edge probability.
const EDGE_P: f64 = 0.35;
/// Nelder–Mead restarts per session.
const RESTARTS: usize = 2;
/// Iteration budget per restart.
const MAX_ITERS: usize = 60;
/// QAOA layers.
const LAYERS: usize = 1;
/// Warm-up requests per set-up.
const WARMUP: usize = 3;
/// The `optimize_smoke` quality gate on the mean `relative_best`. It gates
/// the mean, not each request: a transfer occasionally lands in a worse
/// basin (0.62 is the worst seen in 960 requests over eight seeds), which is
/// the method's behaviour, not a wrong output.
const MIN_MEAN_RELATIVE_BEST: f64 = 0.95;

pub struct Optimize {
    seed: u64,
    engine: Engine,
    replica: Option<Engine>,
}

fn graph(seed: u64, index: usize) -> Graph {
    let mut rng = seeded(derive_seed(derive_seed(seed, GRAPH_STREAM), index as u64));
    connected_gnp(NODES[index % NODES.len()], EDGE_P, &mut rng).expect("valid G(n, p) parameters")
}

fn request(seed: u64, index: usize) -> Request {
    job_request(
        graph(seed, index),
        derive_seed(derive_seed(seed, REQUEST_STREAM), index as u64),
    )
}

fn job_request(graph: Graph, seed: u64) -> Request {
    let job = OptimizeJob::new(graph)
        .with_layers(LAYERS)
        .with_restarts(RESTARTS)
        .with_max_iters(MAX_ITERS);
    Request {
        jobs: vec![Job::Optimize(job)],
        seed,
    }
}

fn digest_outcome(d: &mut Digest, outcome: &OptimizeOutcome) {
    for &x in outcome
        .best_params
        .gammas
        .iter()
        .chain(&outcome.best_params.betas)
    {
        d.float(x);
    }
    d.float(outcome.best_value).count(outcome.evaluations);
    for &v in &outcome.restart_values {
        d.float(v);
    }
}

/// Digest of everything an `OptimizeReport` carries that the replica
/// recomputes.
fn digest_report(
    reduction: &ReducedGraph,
    surrogate: &OptimizeOutcome,
    native: &OptimizeOutcome,
    rescored: [f64; 2],
    ground_truth: Option<usize>,
    cost_ratio: f64,
) -> u64 {
    let mut d = Digest::default();
    d.reduction(reduction);
    digest_outcome(&mut d, surrogate);
    digest_outcome(&mut d, native);
    d.float(rescored[0])
        .float(rescored[1])
        .optional(ground_truth)
        .float(cost_ratio);
    d.value()
}

/// Checks one request's output: an approximation ratio in (0, 1] and a
/// positive, finite relative best and cost ratio.
fn check_outputs(outputs: &[Result<JobOutput, RedQaoaError>]) -> Outcome {
    let Some(report) = outputs[0].as_ref().ok().and_then(JobOutput::as_optimize) else {
        return Outcome::failed(Optimize::QUALITY.len());
    };
    let transfer = &report.transfer;
    let relative_best = report.relative_best();
    let approx = report.approximation_ratio().unwrap_or(0.0);
    let ok = relative_best.is_finite()
        && relative_best > 0.0
        && approx > 0.0
        && approx <= 1.0
        && report.cost_ratio.is_finite()
        && report.cost_ratio > 0.0;
    let [nodes, edges] = reduction_pct(&report.reduction);
    Outcome {
        ok,
        digest: digest_report(
            &report.reduction,
            &transfer.surrogate,
            &transfer.native,
            [transfer.transferred_value, transfer.transferred_average],
            report.ground_truth,
            report.cost_ratio,
        ),
        quality: vec![nodes, edges, relative_best, approx, report.cost_ratio],
    }
}

/// Recomputes an optimize request from the public layer functions: the
/// reduction from `engine`, then `optimized_transfer`'s steps one by one.
fn replay(engine: &Engine, request: &Request, layers: &mut Layers) -> u64 {
    let Job::Optimize(job) = &request.jobs[0] else {
        return 0;
    };
    let graph = &job.graph;
    let Ok(reduction) = replica_reduce(engine, graph, layers) else {
        return 0;
    };

    let start = Instant::now();
    let surrogate_eval = StatevectorEvaluator::new(reduction.graph(), LAYERS);
    let original_eval = StatevectorEvaluator::new(graph, LAYERS);
    layers.evaluator_setup_ms += ms_since(start);
    layers.evaluator_setup_calls += 2;
    let (Ok(surrogate_eval), Ok(original_eval)) = (surrogate_eval, original_eval) else {
        return 0;
    };
    let surrogate_timed = Timed::new(
        &surrogate_eval,
        statevector_amp_updates(reduction.graph().node_count(), LAYERS),
    );
    let original_timed = Timed::new(
        &original_eval,
        statevector_amp_updates(graph.node_count(), LAYERS),
    );

    let driver = OptimizeDriver::new(OptimizerConfig::default(), RESTARTS, MAX_ITERS);
    let mut rng = seeded(request.job_seed(0));
    let start = Instant::now();
    let surrogate = driver.maximize(&surrogate_timed, &mut rng);
    let native = driver.maximize(&original_timed, &mut rng);
    let session_ms = ms_since(start);
    layers.optimizer_ms += session_ms;
    layers.optimizer_self_ms += session_ms - surrogate_timed.busy_ms() - original_timed.busy_ms();
    layers.add_statevector(&surrogate_timed);
    layers.add_statevector(&original_timed);
    let (Ok(surrogate), Ok(native)) = (surrogate, native) else {
        return 0;
    };
    layers.optimizer_sessions += 2;
    layers.optimizer_evals_reduced += surrogate.evaluations as u64;
    layers.optimizer_evals_full += native.evaluations as u64;

    // Re-scoring on the full graph, exactly as `optimized_transfer` does.
    let instance = original_eval.instance();
    let (transferred_value, transferred_average) = timed(&mut layers.rescore_ms, || {
        let value = instance.expectation(&surrogate.best_params);
        let average = if surrogate.restart_params.is_empty() {
            value
        } else {
            surrogate
                .restart_params
                .iter()
                .map(|p| instance.expectation(p))
                .sum::<f64>()
                / surrogate.restart_params.len() as f64
        };
        (value, average)
    });
    layers.rescore_calls += 1 + surrogate.restart_params.len() as u64;

    let ground_truth = timed(&mut layers.ground_truth_ms, || {
        brute_force_maxcut(graph).ok().map(|s| s.best_cut)
    });
    layers.ground_truth_calls += 1;

    let rescore_evaluations = 1 + surrogate.restart_params.len();
    let scale = (reduction.graph().node_count() as f64 - graph.node_count() as f64).exp2();
    let cost_ratio = if native.evaluations == 0 {
        1.0
    } else {
        (surrogate.evaluations as f64 * scale + rescore_evaluations as f64)
            / native.evaluations as f64
    };
    digest_report(
        &reduction,
        &surrogate,
        &native,
        [transferred_value, transferred_average],
        ground_truth,
        cost_ratio,
    )
}

impl Workload for Optimize {
    const MIN_REQUESTS: usize = 50;
    const QUALITY_REQUESTS: usize = 30;
    const QUALITY: &'static [(&'static str, &'static str)] = &[
        ("node_reduction_pct", "%"),
        ("edge_reduction_pct", "%"),
        ("relative_best_mean", "ratio"),
        ("approx_ratio_mean", "ratio"),
        ("cost_ratio_mean", "ratio"),
    ];
    const INPUTS: &'static str = "connected G(n,0.35), n cycles 12/13/14, p=1, Nelder-Mead \
                                  2 restarts x 60 iters, every reduction a cache miss";

    fn gate(quality_means: &[f64]) -> bool {
        quality_means[2] >= MIN_MEAN_RELATIVE_BEST
    }

    fn setup(seed: u64) -> Self {
        let engine = build_engine(|b| b);
        for k in 0..WARMUP {
            let warm = request(WARMUP_SEED, WARMUP_BASE + k);
            super::execute(&engine, &warm);
        }
        Self {
            seed,
            engine,
            replica: None,
        }
    }

    fn engine(&self) -> &Engine {
        &self.engine
    }

    fn prepare(&self, index: usize) -> Request {
        request(self.seed, index)
    }

    fn check(&mut self, _index: usize, outputs: &[Result<JobOutput, RedQaoaError>]) -> Outcome {
        check_outputs(outputs)
    }

    fn start_trace(&mut self, _layers: &mut Layers) {
        self.replica = Some(build_engine(|b| b));
    }

    fn replica(&mut self, _index: usize, request: &Request, layers: &mut Layers) -> u64 {
        let engine = self
            .replica
            .as_ref()
            .expect("start_trace built the replica");
        replay(engine, request, layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_matches_the_engine_on_a_tiny_instance() {
        let graph = connected_gnp(7, 0.5, &mut seeded(3)).unwrap();
        let request = job_request(graph, 11);
        let outcome = check_outputs(&super::super::execute(&build_engine(|b| b), &request));
        assert!(outcome.ok, "{outcome:?}");
        let mut layers = Layers::default();
        let replica = replay(&build_engine(|b| b), &request, &mut layers);
        assert_eq!(replica, outcome.digest);
        assert_eq!(layers.optimizer_sessions, 2);
        assert!(layers.statevector_calls > 0);
        assert_eq!(layers.cache_misses, 1);
    }
}
