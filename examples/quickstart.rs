//! Quickstart: reduce a graph with Red-QAOA, optimize on the reduced graph,
//! transfer the parameters back, refine them, and compare against plain
//! QAOA.
//!
//! Run with: `cargo run --release --example quickstart`

use graphlib::generators::connected_gnp;
use mathkit::rng::seeded;
use red_qaoa::engine::{Engine, Job, OptimizeJob};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build a MaxCut instance: a random 12-node graph.
    let graph = connected_gnp(12, 0.4, &mut seeded(42))?;
    println!("original graph : {graph}");

    // 2. Run the Red-QAOA loop (reduce -> optimize on G' -> transfer ->
    //    refine on G) and the plain-QAOA baseline with the same budget.
    let job = OptimizeJob::new(graph).with_restarts(3).with_max_iters(80);
    let output = Engine::builder()
        .build()?
        .run(&Job::Optimize(job.with_refine_iters(30)), 42)?;
    let report = output.as_optimize().expect("an optimize job's output");
    let max_cut = report.ground_truth.expect("exact MaxCut of the graph") as f64;
    println!("exact MaxCut   : {max_cut}");
    let reduction = &report.reduction;
    println!(
        "reduced graph  : {} ({}% fewer nodes, {}% fewer edges, AND ratio {:.2})",
        reduction.graph(),
        (reduction.node_reduction * 100.0).round(),
        (reduction.edge_reduction * 100.0).round(),
        reduction.and_ratio
    );

    // 3. Compare the outcomes.
    let (transfer, baseline) = (&report.transfer, report.transfer.native.best_value);
    let refined = transfer
        .refined
        .as_ref()
        .expect("the job asked for a refine step");
    let ratio = refined.value / max_cut;
    println!(
        "Red-QAOA expectation : {:.3} (approximation ratio {ratio:.3})",
        refined.value
    );
    println!(
        "baseline expectation : {baseline:.3} (approximation ratio {:.3})",
        baseline / max_cut
    );
    println!("Red-QAOA / baseline  : {:.3}", refined.value / baseline);

    // 4. The transferred parameters are already good on the original graph
    //    before refinement — that is the core claim of the paper.
    let transferred = transfer.transferred_value;
    println!("value at transferred parameters (no refinement): {transferred:.3}");
    Ok(())
}
