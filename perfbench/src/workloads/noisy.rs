//! `noisy`: the paper's motivating regime. Each request is one
//! `PipelineJob::noisy(t)` on an 8–10-node graph under the engine's noise
//! model with `CircuitReduction::NodeAndDepth`: both the reduced and the
//! full circuit are optimized on Monte-Carlo trajectories of the
//! depth-scheduled gate circuit, then re-scored ideally on the full graph.

use super::{
    build_engine, reduction_pct, replica_reduce, Outcome, Request, Workload, GRAPH_STREAM,
    REQUEST_STREAM, WARMUP_BASE, WARMUP_SEED,
};
use crate::digest::Digest;
use crate::layers::{ms_since, timed, Layers, Timed};
use graphlib::generators::connected_gnp;
use graphlib::Graph;
use mathkit::rng::{derive_seed, seeded};
use qaoa::depth::{compile_maxcut, DepthMetrics};
use qaoa::evaluator::{SequentialNoisyEvaluator, StatevectorEvaluator};
use qaoa::maxcut::brute_force_maxcut;
use qaoa::optimize::{maximize_with_restarts, OptimizeOptions};
use qsim::devices::fake_toronto;
use qsim::noise::NoiseModel;
use qsim::trajectory::TrajectoryOptions;
use rand::Rng;
use red_qaoa::engine::{Engine, EngineBuilder, Job, JobOutput, PipelineJob};
use red_qaoa::pipeline::{CircuitReduction, PipelineOptions};
use red_qaoa::reduction::ReducedGraph;
use red_qaoa::RedQaoaError;
use std::time::Instant;

/// Node counts, cycled by request index.
const NODES: [usize; 3] = [8, 9, 10];
/// G(n, p) edge probability.
const EDGE_P: f64 = 0.4;
/// Trajectories per noisy energy evaluation.
const TRAJECTORIES: usize = 4;
/// Nelder–Mead restarts per noisy session.
const RESTARTS: usize = 1;
/// Iteration budget per restart.
const MAX_ITERS: usize = 40;
/// Warm-up requests per set-up.
const WARMUP: usize = 3;
/// Slack for an ideal expectation against the integer ground truth.
const EPS: f64 = 1e-9;

pub struct Noisy {
    seed: u64,
    noise: NoiseModel,
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
    Request {
        jobs: vec![Job::Pipeline(PipelineJob::new(graph).noisy(TRAJECTORIES))],
        seed,
    }
}

fn optimize_options() -> OptimizeOptions {
    OptimizeOptions {
        restarts: RESTARTS,
        max_iters: MAX_ITERS,
    }
}

fn configure(builder: EngineBuilder, noise: NoiseModel) -> EngineBuilder {
    builder.noise(noise).pipeline(PipelineOptions {
        layers: 1,
        optimize: optimize_options(),
        circuit: CircuitReduction::NodeAndDepth,
        ..PipelineOptions::default()
    })
}

fn digest_outcome(
    reduction: &ReducedGraph,
    values: [f64; 2],
    ground_truth: Option<usize>,
    depth: Option<&DepthMetrics>,
) -> u64 {
    let mut d = Digest::default();
    d.reduction(reduction)
        .float(values[0])
        .float(values[1])
        .optional(ground_truth);
    if let Some(depth) = depth {
        d.depth(depth);
    }
    d.value()
}

/// Checks one request's output: both ideal re-scores are positive and at
/// most the ground truth.
fn check_outputs(outputs: &[Result<JobOutput, RedQaoaError>]) -> Outcome {
    let Some(outcome) = outputs[0]
        .as_ref()
        .ok()
        .and_then(JobOutput::as_noisy_pipeline)
    else {
        return Outcome::failed(Noisy::QUALITY.len());
    };
    let Some(truth) = outcome.ground_truth else {
        return Outcome::failed(Noisy::QUALITY.len());
    };
    let truth_f = truth as f64;
    let red = outcome.red_qaoa_ideal_value;
    let baseline = outcome.baseline_ideal_value;
    let ok = red > 0.0 && baseline > 0.0 && red <= truth_f + EPS && baseline <= truth_f + EPS;
    let [nodes, edges] = reduction_pct(&outcome.reduction);
    Outcome {
        ok,
        digest: digest_outcome(
            &outcome.reduction,
            [red, baseline],
            outcome.ground_truth,
            outcome.depth.as_ref(),
        ),
        quality: vec![nodes, edges, red / truth_f, outcome.relative_improvement()],
    }
}

/// Recomputes a noisy request from the public layer functions, step by step
/// as `run_noisy_with_reduction` takes them.
fn replay(engine: &Engine, noise: NoiseModel, request: &Request, layers: &mut Layers) -> u64 {
    let Job::Pipeline(job) = &request.jobs[0] else {
        return 0;
    };
    let graph = &job.graph;
    let Ok(reduction) = replica_reduce(engine, graph, layers) else {
        return 0;
    };

    let schedule = timed(&mut layers.depth_ms, || compile_maxcut(reduction.graph()));
    layers.depth_calls += 1;
    let Ok(schedule) = schedule else {
        return 0;
    };
    let depth = *schedule.metrics();
    layers.depth_rounds.push(depth.rounds as f64);
    layers
        .depth_naive_over_rounds
        .push(depth.naive_depth as f64 / depth.rounds.max(1) as f64);

    let start = Instant::now();
    let reduced_eval = StatevectorEvaluator::new(reduction.graph(), 1);
    let original_eval = StatevectorEvaluator::new(graph, 1);
    layers.evaluator_setup_ms += ms_since(start);
    layers.evaluator_setup_calls += 2;
    let (Ok(reduced_eval), Ok(original_eval)) = (reduced_eval, original_eval) else {
        return 0;
    };

    // The same stream split as `run_noisy_with_reduction`.
    let mut rng = seeded(request.job_seed(0));
    let red_seed: u64 = rng.gen();
    let baseline_seed: u64 = rng.gen();
    let red_instance = timed(&mut layers.depth_ms, || {
        reduced_eval.instance().clone().with_depth_schedule()
    });
    layers.depth_calls += 1;
    let traj = TrajectoryOptions {
        trajectories: TRAJECTORIES,
    };
    let red_noisy = Timed::new(
        SequentialNoisyEvaluator::new(red_instance, noise, traj, red_seed),
        TRAJECTORIES as u64,
    );
    let baseline_noisy = Timed::new(
        SequentialNoisyEvaluator::new(original_eval.instance().clone(), noise, traj, baseline_seed),
        TRAJECTORIES as u64,
    );
    let options = optimize_options();
    let start = Instant::now();
    let red_outcome = maximize_with_restarts(&red_noisy, &options, &mut rng);
    let baseline_outcome = maximize_with_restarts(&baseline_noisy, &options, &mut rng);
    let session_ms = ms_since(start);
    layers.optimizer_ms += session_ms;
    layers.optimizer_self_ms += session_ms - red_noisy.busy_ms() - baseline_noisy.busy_ms();
    for noisy in [&red_noisy, &baseline_noisy] {
        layers.trajectory_calls += noisy.calls();
        layers.trajectory_count += noisy.work();
        layers.trajectory_ms += noisy.busy_ms();
    }
    let (Ok(red_outcome), Ok(baseline_outcome)) = (red_outcome, baseline_outcome) else {
        return 0;
    };
    layers.optimizer_sessions += 2;
    layers.optimizer_evals_reduced += red_outcome.evaluations as u64;
    layers.optimizer_evals_full += baseline_outcome.evaluations as u64;

    let instance = original_eval.instance();
    let values = timed(&mut layers.rescore_ms, || {
        [
            instance.expectation(&red_outcome.best_params),
            instance.expectation(&baseline_outcome.best_params),
        ]
    });
    layers.rescore_calls += 2;

    let ground_truth = timed(&mut layers.ground_truth_ms, || {
        brute_force_maxcut(graph).ok().map(|s| s.best_cut)
    });
    layers.ground_truth_calls += 1;
    digest_outcome(&reduction, values, ground_truth, Some(&depth))
}

impl Workload for Noisy {
    const MIN_REQUESTS: usize = 50;
    const QUALITY_REQUESTS: usize = 30;
    const QUALITY: &'static [(&'static str, &'static str)] = &[
        ("node_reduction_pct", "%"),
        ("edge_reduction_pct", "%"),
        ("approx_ratio_mean", "ratio"),
        ("noisy_gain_mean", "ratio"),
    ];
    const INPUTS: &'static str = "connected G(n,0.4), n cycles 8/9/10, p=1, fake_toronto noise, \
                                  4 trajectories per evaluation, Nelder-Mead 1 restart x 40 \
                                  iters, NodeAndDepth";

    fn setup(seed: u64) -> Self {
        let noise = fake_toronto().noise;
        let engine = build_engine(|b| configure(b, noise));
        for k in 0..WARMUP {
            super::execute(&engine, &request(WARMUP_SEED, WARMUP_BASE + k));
        }
        Self {
            seed,
            noise,
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
        let noise = self.noise;
        self.replica = Some(build_engine(|b| configure(b, noise)));
    }

    fn replica(&mut self, _index: usize, request: &Request, layers: &mut Layers) -> u64 {
        let engine = self
            .replica
            .as_ref()
            .expect("start_trace built the replica");
        replay(engine, self.noise, request, layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_matches_the_engine_on_a_tiny_instance() {
        let noise = fake_toronto().noise;
        let graph = connected_gnp(6, 0.5, &mut seeded(5)).unwrap();
        let request = job_request(graph, 13);
        let engine = build_engine(|b| configure(b, noise));
        let outcome = check_outputs(&super::super::execute(&engine, &request));
        assert!(outcome.ok, "{outcome:?}");
        let mut layers = Layers::default();
        let replica = replay(
            &build_engine(|b| configure(b, noise)),
            noise,
            &request,
            &mut layers,
        );
        assert_eq!(replica, outcome.digest);
        assert_eq!(layers.depth_calls, 2);
        assert_eq!(
            layers.trajectory_count,
            layers.trajectory_calls * TRAJECTORIES as u64
        );
    }
}
