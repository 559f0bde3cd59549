//! Cross-crate integration tests: dataset generation → graph reduction →
//! QAOA evaluation → end-to-end outcomes (the ideal loop through the
//! engine's `OptimizeJob`, the noisy pipeline through its free function).

use datasets::{aids, linux};
use graphlib::generators::connected_gnp;
use graphlib::traversal::is_connected;
use mathkit::rng::seeded;
use qaoa::optimize::OptimizeOptions;
use qsim::devices::fake_toronto;
use red_qaoa::engine::{Engine, Job, OptimizeJob};
use red_qaoa::mse::ideal_sample_mse;
use red_qaoa::pipeline::{run_noisy, CircuitReduction, PipelineOptions};
use red_qaoa::reduction::{reduce, ReductionOptions};

fn quick_pipeline() -> PipelineOptions {
    PipelineOptions {
        layers: 1,
        reduction: ReductionOptions::default(),
        optimize: OptimizeOptions {
            restarts: 2,
            max_iters: 40,
        },
        circuit: CircuitReduction::None,
    }
}

#[test]
fn dataset_graphs_reduce_and_preserve_landscapes() {
    let mut rng = seeded(1);
    let corpus = aids(9).filter_by_nodes(6, 10).take(5);
    assert!(!corpus.is_empty());
    for graph in &corpus.graphs {
        let reduced = reduce(graph, &ReductionOptions::default(), &mut rng).unwrap();
        // The reduced graph is a connected induced subgraph of the original.
        assert!(is_connected(reduced.graph()));
        assert!(reduced.graph().node_count() <= graph.node_count());
        for (i, &orig) in reduced.subgraph.nodes.iter().enumerate() {
            assert!(orig < graph.node_count());
            for (j, &other) in reduced.subgraph.nodes.iter().enumerate() {
                if reduced.graph().has_edge(i, j) {
                    assert!(graph.has_edge(orig, other));
                }
            }
        }
        // Landscape fidelity stays within the paper's few-percent regime.
        let mse = ideal_sample_mse(graph, reduced.graph(), 1, 48, &mut rng).unwrap();
        assert!(mse < 0.12, "mse {mse} too large for {graph}");
    }
}

#[test]
fn ideal_pipeline_outperforms_random_parameters() {
    let graph = connected_gnp(10, 0.4, &mut seeded(2)).unwrap();
    let job = OptimizeJob::new(graph.clone())
        .with_restarts(2)
        .with_max_iters(40)
        .with_refine_iters(20);
    let engine = Engine::builder().threads(1).build().unwrap();
    let output = engine.run(&Job::Optimize(job), 2).unwrap();
    let report = output.as_optimize().unwrap();
    let transfer = &report.transfer;
    let refined = transfer.refined.as_ref().expect("refine step ran");
    // Random parameters give |E|/2 in expectation.
    let random_baseline = graph.edge_count() as f64 / 2.0;
    assert!(refined.value > random_baseline);
    let relative = refined.value / transfer.native.best_value;
    assert!(
        relative > 0.9,
        "Red-QAOA reached only {relative:.3} of baseline"
    );
    let approx = refined.value / report.ground_truth.unwrap() as f64;
    assert!(
        approx > 0.5 && approx <= 1.0,
        "approximation ratio {approx}"
    );
    // The transferred parameters alone (before refinement) are already above
    // the random baseline — the transferability claim — and refining them
    // never loses value.
    assert!(transfer.transferred_value > random_baseline);
    assert!(refined.value + 1e-9 >= transfer.transferred_value);
}

#[test]
fn noisy_pipeline_runs_on_kernel_callgraph_corpus() {
    let mut rng = seeded(3);
    let corpus = linux(5).filter_by_nodes(7, 9).take(2);
    let noise = fake_toronto().noise;
    for graph in &corpus.graphs {
        let outcome = run_noisy(graph, &quick_pipeline(), &noise, 8, &mut rng).unwrap();
        assert!(outcome.red_qaoa_ideal_value > 0.0);
        assert!(outcome.baseline_ideal_value > 0.0);
        // Both approaches must stay within the physically possible range.
        assert!(outcome.red_qaoa_ideal_value <= graph.edge_count() as f64);
        assert!(outcome.baseline_ideal_value <= graph.edge_count() as f64);
    }
}

#[test]
fn reduction_is_deterministic_for_a_fixed_seed() {
    let graph = connected_gnp(12, 0.4, &mut seeded(7)).unwrap();
    let a = reduce(&graph, &ReductionOptions::default(), &mut seeded(99)).unwrap();
    let b = reduce(&graph, &ReductionOptions::default(), &mut seeded(99)).unwrap();
    assert_eq!(a.subgraph.nodes, b.subgraph.nodes);
    assert_eq!(a.graph(), b.graph());
}
