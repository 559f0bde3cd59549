//! CI perf smoke: points/sec of a 32×32 landscape grid on a 16-node graph.
//!
//! Runs the grid through the statevector arm of the exact-energy chooser
//! (`QaoaInstance::statevector_expectation_with`) once with one worker
//! thread and once with four, checks the two landscapes are
//! bitwise-identical (the determinism contract of `mathkit::parallel`), and
//! writes a `BENCH_landscape.json` record so the repository's performance
//! trajectory is tracked run-over-run. On machines that actually have more
//! than one core the four-thread run must be at least 2× faster than
//! serial — the same gate `qsim_smoke` enforces. The grid is also timed
//! serially through the chooser itself (`StatevectorEvaluator`, the closed
//! form at `p = 1`) and recorded without a gate: each of its points is too
//! little work for a thread-scaling gate to mean anything.
//!
//! The closed form itself is timed twice over the same grid, repeated
//! [`CLOSED_FORM_PASSES`] times: summing the per-edge oracle
//! `edge_expectation_p1` (four `powi` calls per edge) and the power-table
//! kernel behind every `p = 1` exact energy (`AnalyticP1Evaluator::value`).
//! Both rates are recorded without a gate; the two must agree bit for bit
//! at every point, and with the chooser's landscape, or the run fails.
//!
//! Usage: `landscape_smoke [output.json]` (default `BENCH_landscape.json`).

use bench::{bench_graph, StatevectorArm};
use experiments::cli::{available_cores, write_smoke_record, Gates, Record};
use graphlib::Graph;
use mathkit::parallel::with_threads;
use qaoa::analytic::edge_expectation_p1;
use qaoa::evaluator::{AnalyticP1Evaluator, EnergyEvaluator, StatevectorEvaluator};
use qaoa::landscape::Landscape;
use std::hint::black_box;
use std::time::Instant;

const NODES: usize = 16;
const WIDTH: usize = 32;
/// Passes over the grid per closed-form timing: one pass of 1,024 points
/// takes well under a millisecond.
const CLOSED_FORM_PASSES: usize = 200;

fn timed_grid<E: EnergyEvaluator + Sync>(evaluator: &E, threads: usize) -> (Landscape, f64) {
    let start = Instant::now();
    let landscape = with_threads(threads, || Landscape::evaluate(WIDTH, evaluator));
    (landscape, start.elapsed().as_secs_f64())
}

/// Points/sec of `energy` over `grid`'s points, and its values on the last
/// pass in the landscape's row-major order.
fn closed_form_rate(grid: &Landscape, energy: impl Fn(f64, f64) -> f64) -> (Vec<f64>, f64) {
    let mut values = Vec::with_capacity(grid.len());
    let start = Instant::now();
    for _ in 0..CLOSED_FORM_PASSES {
        values.clear();
        for &gamma in &grid.gammas {
            for &beta in &grid.betas {
                values.push(energy(black_box(gamma), black_box(beta)));
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    (values, (CLOSED_FORM_PASSES * grid.len()) as f64 / secs)
}

/// Each edge's `(d_u, d_v, triangles)`, in `graph.edges()` order.
fn edge_inputs(graph: &Graph) -> Vec<(usize, usize, usize)> {
    let degrees = graph.degrees();
    graph
        .edges()
        .map(|(u, v)| (degrees[u] - 1, degrees[v] - 1, graph.common_neighbors(u, v)))
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn main() {
    let graph = bench_graph(NODES, 16);
    let chooser = StatevectorEvaluator::new(&graph, 1).expect("16-node graph is simulable");
    let evaluator = StatevectorArm(chooser.instance().clone());
    let points = WIDTH * WIDTH;

    let (serial, serial_secs) = timed_grid(&evaluator, 1);
    let (parallel, parallel_secs) = timed_grid(&evaluator, 4);
    let identical = serial
        .values
        .iter()
        .zip(&parallel.values)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(
        identical,
        "parallel landscape diverged from the serial reference"
    );

    let (chooser_grid, chooser_secs) = timed_grid(&chooser, 1);

    let inputs = edge_inputs(&graph);
    let (oracle_values, oracle_pps) = closed_form_rate(&chooser_grid, |gamma, beta| {
        let mut total = 0.0;
        for &(d_u, d_v, triangles) in &inputs {
            total += edge_expectation_p1(gamma, beta, d_u, d_v, triangles);
        }
        total
    });
    let analytic = AnalyticP1Evaluator::new(&graph).expect("graph has edges");
    let (table_values, table_pps) =
        closed_form_rate(&chooser_grid, |gamma, beta| analytic.value(gamma, beta));
    assert_eq!(
        bits(&table_values),
        bits(&oracle_values),
        "the closed form's power tables diverged from the per-edge powi oracle"
    );
    assert_eq!(
        bits(&chooser_grid.values),
        bits(&table_values),
        "the chooser's landscape diverged from the closed form"
    );

    let serial_pps = points as f64 / serial_secs;
    let parallel_pps = points as f64 / parallel_secs;
    let cores = available_cores();
    let speedup = serial_secs / parallel_secs;
    let mut gates = Gates::default();
    if cores > 1 {
        gates.check(
            "speedup_4_threads_ge_2x",
            speedup >= 2.0,
            format!(
                "with {cores} cores the 4-thread landscape must be >= 2x serial, got {speedup:.3}x"
            ),
        );
    } else {
        gates.skip("speedup_4_threads_ge_2x");
    }
    let record = Record::new()
        .int("nodes", NODES)
        .int("width", WIDTH)
        .int("points", points)
        .fixed("serial_seconds", serial_secs, 6)
        .fixed("serial_points_per_sec", serial_pps, 2)
        .fixed("threads4_seconds", parallel_secs, 6)
        .fixed("threads4_points_per_sec", parallel_pps, 2)
        .fixed("speedup_4_threads", speedup, 3)
        .fixed(
            "chooser_serial_points_per_sec",
            points as f64 / chooser_secs,
            2,
        )
        .object(
            "closed_form_points_per_sec",
            Record::new()
                .fixed("powi_oracle", oracle_pps, 2)
                .fixed("table_kernel", table_pps, 2),
        )
        .fixed("closed_form_table_speedup", table_pps / oracle_pps, 3)
        .bool("bitwise_identical", identical);
    write_smoke_record(
        "BENCH_landscape.json",
        "landscape_grid_smoke",
        record,
        gates,
    );
}
