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
//! Usage: `landscape_smoke [output.json]` (default `BENCH_landscape.json`).

use bench::{bench_graph, StatevectorArm};
use mathkit::parallel::with_threads;
use qaoa::evaluator::{EnergyEvaluator, StatevectorEvaluator};
use qaoa::landscape::Landscape;
use std::time::Instant;

const NODES: usize = 16;
const WIDTH: usize = 32;

fn timed_grid<E: EnergyEvaluator + Sync>(evaluator: &E, threads: usize) -> (Landscape, f64) {
    let start = Instant::now();
    let landscape = with_threads(threads, || Landscape::evaluate(WIDTH, evaluator));
    (landscape, start.elapsed().as_secs_f64())
}

fn main() {
    let output = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_landscape.json".to_string());
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

    let (_, chooser_secs) = timed_grid(&chooser, 1);

    let serial_pps = points as f64 / serial_secs;
    let parallel_pps = points as f64 / parallel_secs;
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let speedup = serial_secs / parallel_secs;
    if cores > 1 {
        assert!(
            speedup >= 2.0,
            "with {cores} cores the 4-thread landscape must be >= 2x serial, got {speedup:.3}x"
        );
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"landscape_grid_smoke\",\n",
            "  \"nodes\": {},\n",
            "  \"width\": {},\n",
            "  \"points\": {},\n",
            "  \"available_cores\": {},\n",
            "  \"serial_seconds\": {:.6},\n",
            "  \"serial_points_per_sec\": {:.2},\n",
            "  \"threads4_seconds\": {:.6},\n",
            "  \"threads4_points_per_sec\": {:.2},\n",
            "  \"speedup_4_threads\": {:.3},\n",
            "  \"chooser_serial_points_per_sec\": {:.2},\n",
            "  \"bitwise_identical\": true\n",
            "}}\n"
        ),
        NODES,
        WIDTH,
        points,
        cores,
        serial_secs,
        serial_pps,
        parallel_secs,
        parallel_pps,
        serial_secs / parallel_secs,
        points as f64 / chooser_secs,
    );
    std::fs::write(&output, &json).expect("write benchmark record");
    print!("{json}");
    println!("wrote {output}");
}
