//! Domain scenario 2: Linux-kernel call graphs (the LINUX dataset twin).
//!
//! Program-dependence graphs are sparse and tree-like. This example runs the
//! full Red-QAOA pipeline on a batch of call graphs under a noisy device
//! model and compares the solution quality reached by Red-QAOA against the
//! noisy plain-QAOA baseline — the Figure 19 protocol on a concrete workload.
//!
//! Run with: `cargo run --release --example kernel_callgraph`

use datasets::linux;
use mathkit::rng::seeded;
use qaoa::optimize::OptimizeOptions;
use qsim::devices::fake_toronto;
use red_qaoa::pipeline::{run_noisy, CircuitReduction, PipelineOptions};
use red_qaoa::reduction::ReductionOptions;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = linux(3).filter_by_nodes(7, 10).take(5);
    let noise = fake_toronto().noise;
    let options = PipelineOptions {
        layers: 1,
        reduction: ReductionOptions::default(),
        optimize: OptimizeOptions {
            restarts: 2,
            max_iters: 40,
        },
        circuit: CircuitReduction::None,
    };

    println!(
        "call-graph batch: {} graphs (FakeToronto-class noise)",
        dataset.len()
    );
    println!("graph\tnodes\tred_nodes\tbaseline\tred_qaoa\timprovement");
    let mut rng = seeded(11);
    for (i, graph) in dataset.graphs.iter().enumerate() {
        let outcome = match run_noisy(graph, &options, &noise, 12, &mut rng) {
            Ok(o) => o,
            Err(_) => continue,
        };
        println!(
            "{i}\t{}\t{}\t{:.3}\t{:.3}\t{:+.1}%",
            graph.node_count(),
            outcome.reduction.graph().node_count(),
            outcome.baseline_ideal_value,
            outcome.red_qaoa_ideal_value,
            outcome.relative_improvement() * 100.0
        );
    }
    Ok(())
}
