//! Workspace smoke test: one pass of the full Red-QAOA pipeline
//! (reduce → simulate → anneal → MSE) on a small Erdős–Rényi graph.
//!
//! This is the fastest end-to-end signal that the workspace is wired
//! correctly: it touches graphlib (generation), red_qaoa (SA annealing,
//! reduction, pipeline, MSE), qaoa (expectations), and qsim (noisy
//! trajectory simulation) in a single deterministic run.

use graphlib::generators::connected_gnp;
use graphlib::traversal::is_connected;
use mathkit::rng::seeded;
use qaoa::optimize::OptimizeOptions;
use qsim::devices::fake_toronto;
use red_qaoa::annealing::{anneal_subgraph, SaOptions};
use red_qaoa::mse::ideal_sample_mse;
use red_qaoa::pipeline::{run_noisy, CircuitReduction, PipelineOptions};
use red_qaoa::reduction::{reduce, ReductionOptions};

#[test]
fn full_pipeline_smoke_on_small_er_graph() {
    let mut rng = seeded(0xC0FFEE);
    let graph = connected_gnp(9, 0.4, &mut rng).unwrap();

    // Step 1: SA-driven reduction (binary search over subgraph sizes).
    let reduced = reduce(&graph, &ReductionOptions::default(), &mut rng).unwrap();
    assert!(reduced.graph().node_count() < graph.node_count());
    assert!(reduced.graph().node_count() >= 2);
    assert!(is_connected(reduced.graph()));

    // The direct SA search at a fixed size also produces a valid subgraph.
    let k = graph.node_count() - 2;
    let sa = anneal_subgraph(&graph, k, &SaOptions::default(), &mut rng).unwrap();
    assert_eq!(sa.subgraph.graph.node_count(), k);
    assert!(is_connected(&sa.subgraph.graph));

    // Step 2: ideal landscape fidelity of the reduction is finite and small.
    let mse = ideal_sample_mse(&graph, reduced.graph(), 1, 32, &mut rng).unwrap();
    assert!(mse.is_finite());
    assert!(mse >= 0.0);
    assert!(mse < 0.2, "reduction landscape mse {mse} out of range");

    // Step 3: the noisy end-to-end pipeline runs and reports sane values.
    let options = PipelineOptions {
        layers: 1,
        reduction: ReductionOptions::default(),
        optimize: OptimizeOptions {
            restarts: 1,
            max_iters: 25,
        },
        circuit: CircuitReduction::None,
    };
    let noise = fake_toronto().noise;
    let outcome = run_noisy(&graph, &options, &noise, 6, &mut rng).unwrap();
    assert!(outcome.red_qaoa_ideal_value.is_finite());
    assert!(outcome.red_qaoa_ideal_value > 0.0);
    assert!(outcome.red_qaoa_ideal_value <= graph.edge_count() as f64);

    // Determinism: the same seed reproduces the same reduction.
    let again = reduce(&graph, &ReductionOptions::default(), &mut seeded(0xBEEF)).unwrap();
    let again2 = reduce(&graph, &ReductionOptions::default(), &mut seeded(0xBEEF)).unwrap();
    assert_eq!(again.subgraph.nodes, again2.subgraph.nodes);
}
