//! `landscape`: each request reduces a 14–16-node graph and scans the p = 1
//! landscape of both the full graph and its reduction — the many-point shape
//! batched-point and causal-cone evaluation would speed up — once in the
//! legacy mode (statevector backend) and once with
//! `CircuitReduction::NodeAndDepth` (scheduled gate circuits). Scanning both
//! modes in every request keeps the latency distribution at three size
//! classes, so the median and the tail sit inside a class, not on a step.

use super::{
    build_engine, reduction_pct, replica_reduce, Outcome, Request, Workload, GRAPH_STREAM,
    REQUEST_STREAM, WARMUP_BASE, WARMUP_SEED,
};
use crate::digest::Digest;
use crate::layers::{ms_since, statevector_amp_updates, Layers, Timed};
use graphlib::generators::connected_gnp;
use graphlib::Graph;
use mathkit::parallel::with_threads;
use mathkit::rng::{derive_seed, seeded};
use qaoa::evaluator::{AutoEvaluator, EnergyEvaluator, ScheduledCircuitEvaluator};
use qaoa::landscape::Landscape;
use red_qaoa::engine::{Engine, Job, JobOutput, LandscapeJob, ReduceJob};
use red_qaoa::pipeline::CircuitReduction;
use red_qaoa::reduction::ReducedGraph;
use red_qaoa::RedQaoaError;
use std::time::Instant;

/// Node counts, cycled by request index.
const NODES: [usize; 3] = [14, 15, 16];
/// G(n, p) edge probability.
const EDGE_P: f64 = 0.3;
/// Grid width: each scan evaluates `WIDTH²` points.
const WIDTH: usize = 7;
/// Circuit modes every request scans, half the pairs each.
const MODES: [CircuitReduction; 2] = [CircuitReduction::None, CircuitReduction::NodeAndDepth];
/// Warm-up requests per set-up.
const WARMUP: usize = 3;

pub struct LandscapeScan {
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
    let mut jobs = vec![Job::Reduce(ReduceJob::new(graph.clone()))];
    for mode in MODES {
        jobs.push(Job::Landscape(
            LandscapeJob::new(graph.clone(), WIDTH).with_circuit(mode),
        ));
        jobs.push(Job::Landscape(
            LandscapeJob::new(graph.clone(), WIDTH)
                .reduced()
                .with_circuit(mode),
        ));
    }
    Request { jobs, seed }
}

/// Digest of the reduction and the (full, reduced) scan pair of each mode.
fn digest_request(reduction: &ReducedGraph, scans: &[Landscape]) -> u64 {
    let mut d = Digest::default();
    d.reduction(reduction);
    for scan in scans {
        d.landscape(scan);
    }
    d.value()
}

fn well_formed(landscape: &Landscape) -> bool {
    landscape.len() == WIDTH * WIDTH && landscape.values.iter().all(|v| v.is_finite())
}

/// Scans `graph` the way the engine's landscape job does for `mode`,
/// charging evaluator construction, evaluator calls and the scan itself to
/// their layers.
fn replica_scan(graph: &Graph, mode: CircuitReduction, layers: &mut Layers) -> Option<Landscape> {
    if mode.wants_depth() {
        let start = Instant::now();
        let evaluator = ScheduledCircuitEvaluator::new(graph, 1);
        layers.evaluator_setup_ms += ms_since(start);
        layers.evaluator_setup_calls += 1;
        let timed = Timed::new(evaluator.ok()?, 1);
        let landscape = scan(&timed, layers);
        layers.scheduled_calls += timed.calls();
        layers.scheduled_ms += timed.busy_ms();
        Some(landscape)
    } else {
        let start = Instant::now();
        let evaluator = AutoEvaluator::new(graph, 1);
        layers.evaluator_setup_ms += ms_since(start);
        layers.evaluator_setup_calls += 1;
        let timed = Timed::new(
            evaluator.ok()?,
            statevector_amp_updates(graph.node_count(), 1),
        );
        let landscape = scan(&timed, layers);
        layers.add_statevector(&timed);
        Some(landscape)
    }
}

fn scan<E: EnergyEvaluator + Sync>(evaluator: &Timed<E>, layers: &mut Layers) -> Landscape {
    let before = evaluator.busy_ms();
    let start = Instant::now();
    let landscape = with_threads(super::ENGINE_THREADS, || {
        Landscape::evaluate(WIDTH, evaluator)
    });
    let ms = ms_since(start);
    layers.landscape_scans += 1;
    layers.landscape_points += landscape.len() as u64;
    layers.landscape_ms += ms;
    layers.landscape_self_ms += ms - (evaluator.busy_ms() - before);
    landscape
}

/// Checks one request's outputs: every scan holds `WIDTH²` finite values.
fn check_outputs(outputs: &[Result<JobOutput, RedQaoaError>]) -> Outcome {
    let reduction = outputs[0].as_ref().ok().and_then(JobOutput::as_reduced);
    let scans: Option<Vec<Landscape>> = outputs[1..]
        .iter()
        .map(|o| o.as_ref().ok().and_then(JobOutput::as_landscape).cloned())
        .collect();
    let (Some(reduction), Some(scans)) = (reduction, scans) else {
        return Outcome::failed(LandscapeScan::QUALITY.len());
    };
    let mse: Vec<f64> = scans
        .chunks(2)
        .map(|pair| pair[0].mse_to(&pair[1]).unwrap_or(f64::NAN))
        .collect();
    let [nodes, edges] = reduction_pct(reduction);
    Outcome {
        ok: scans.iter().all(well_formed) && mse.iter().all(|m| m.is_finite()),
        digest: digest_request(reduction, &scans),
        quality: vec![nodes, edges, crate::stats::mean(&mse)],
    }
}

/// Recomputes a landscape request from the public layer functions: the
/// batch's reduce job (a miss), then per mode the full scan, the reduced
/// scan's lookup of the same reduction (a hit) and the reduced scan.
fn replay(engine: &Engine, request: &Request, layers: &mut Layers) -> u64 {
    let Job::Reduce(job) = &request.jobs[0] else {
        return 0;
    };
    let graph = &job.graph;
    let Ok(reduction) = replica_reduce(engine, graph, layers) else {
        return 0;
    };
    let mut scans = Vec::with_capacity(2 * MODES.len());
    for mode in MODES {
        let Some(full) = replica_scan(graph, mode, layers) else {
            return 0;
        };
        let Ok(cached) = replica_reduce(engine, graph, layers) else {
            return 0;
        };
        let Some(reduced) = replica_scan(cached.graph(), mode, layers) else {
            return 0;
        };
        scans.extend([full, reduced]);
    }
    digest_request(&reduction, &scans)
}

impl Workload for LandscapeScan {
    const MIN_REQUESTS: usize = 50;
    const QUALITY_REQUESTS: usize = 30;
    const QUALITY: &'static [(&'static str, &'static str)] = &[
        ("node_reduction_pct", "%"),
        ("edge_reduction_pct", "%"),
        ("landscape_mse_mean", "mse"),
    ];
    const INPUTS: &'static str = "connected G(n,0.3), n cycles 14/15/16, p=1 grid 7x7 on the \
                                  full graph and its reduction, in legacy and NodeAndDepth mode";

    fn setup(seed: u64) -> Self {
        let engine = build_engine(|b| b);
        for k in 0..WARMUP {
            super::execute(&engine, &request(WARMUP_SEED, WARMUP_BASE + k));
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
        let graph = connected_gnp(8, 0.5, &mut seeded(7)).unwrap();
        let request = job_request(graph, 17);
        let outcome = check_outputs(&super::super::execute(&build_engine(|b| b), &request));
        assert!(outcome.ok, "{outcome:?}");
        let mut layers = Layers::default();
        let replica = replay(&build_engine(|b| b), &request, &mut layers);
        assert_eq!(replica, outcome.digest);
        assert_eq!(layers.landscape_scans, 4);
        assert_eq!((layers.cache_misses, layers.cache_hits), (1, 2));
    }
}
