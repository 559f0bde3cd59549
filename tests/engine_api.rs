//! API-surface tests of the `red_qaoa::engine` front door (PR 5).
//!
//! One test per [`RedQaoaError`] variant exercises the validating builders
//! and the engine's job checks, asserting that the contextual messages name
//! the offending field; the remaining tests pin the cache contract (a
//! repeated (graph, config) pair returns the identical `ReducedGraph`
//! without re-annealing) and the delegating low-level wrappers.

use graphlib::generators::{connected_gnp, cycle};
use mathkit::rng::seeded;
use qaoa::maxcut::brute_force_maxcut;
use qaoa::optimize::{NelderMeadOptimizer, OptimizerConfig, SpsaOptimizer};
use red_qaoa::annealing::SaOptions;
use red_qaoa::engine::{
    Engine, Job, LandscapeJob, OptimizeJob, PipelineJob, ReduceJob, ThroughputJob,
};
use red_qaoa::pipeline::CircuitReduction;
use red_qaoa::reduction::{reduce, ReductionOptions};
use red_qaoa::RedQaoaError;

fn test_graph(seed: u64) -> graphlib::Graph {
    connected_gnp(10, 0.4, &mut seeded(seed)).unwrap()
}

// ---------------------------------------------------------------------------
// RedQaoaError::InvalidParameter — builder validation names the field.
// ---------------------------------------------------------------------------

#[test]
fn invalid_parameter_bad_and_ratio_threshold_names_the_field() {
    for bad in [0.0, -0.5, 1.5, f64::NAN] {
        let err = ReductionOptions::builder()
            .and_ratio_threshold(bad)
            .build()
            .unwrap_err();
        assert_eq!(err.field(), Some("and_ratio_threshold"), "value {bad}");
        assert!(
            err.to_string().contains("and_ratio_threshold"),
            "message must name the field: {err}"
        );
    }
}

#[test]
fn invalid_parameter_bad_min_size_fraction_names_the_field() {
    for bad in [-0.1, 1.1, f64::NAN] {
        let err = ReductionOptions::builder()
            .min_size_fraction(bad)
            .build()
            .unwrap_err();
        assert_eq!(err.field(), Some("min_size_fraction"), "value {bad}");
        assert!(err.to_string().contains("min_size_fraction"), "{err}");
    }
}

#[test]
fn invalid_parameter_sa_builder_names_each_field() {
    let cases: [(&str, SaOptions); 4] = [
        (
            "final_temp",
            SaOptions {
                final_temp: -1.0,
                ..Default::default()
            },
        ),
        (
            "initial_temp",
            SaOptions {
                initial_temp: 1e-4,
                final_temp: 1e-3,
                ..Default::default()
            },
        ),
        (
            "boost_divisor",
            SaOptions {
                boost_divisor: 0.0,
                ..Default::default()
            },
        ),
        (
            "cooling",
            SaOptions {
                cooling: red_qaoa::annealing::CoolingSchedule::Constant(1.5),
                ..Default::default()
            },
        ),
    ];
    for (field, options) in cases {
        let err = options.validate().unwrap_err();
        assert_eq!(err.field(), Some(field));
        assert!(err.to_string().contains(field), "{err}");
        // The same failure surfaces from EngineBuilder::build, still naming
        // the field — invalid configs are rejected before any job runs.
        let err = Engine::builder().sa(options).build().unwrap_err();
        assert_eq!(err.field(), Some(field));
    }
}

#[test]
fn invalid_parameter_unsatisfiable_min_size_carries_the_value() {
    let engine = Engine::builder().build().unwrap();
    let options = ReductionOptions {
        min_size: 64,
        ..Default::default()
    };
    let job = Job::Reduce(ReduceJob::new(cycle(8).unwrap()).with_options(options));
    let err = engine.run(&job, 1).unwrap_err();
    assert_eq!(err.field(), Some("min_size"));
    let message = err.to_string();
    assert!(
        message.contains("min_size") && message.contains("64"),
        "{message}"
    );
}

#[test]
fn invalid_parameter_optimize_job_names_each_field() {
    let engine = Engine::builder().build().unwrap();
    let graph = test_graph(30);
    let base = || OptimizeJob::new(graph.clone()).with_max_iters(10);
    let cases: [(&str, OptimizeJob); 7] = [
        ("layers", base().with_layers(0)),
        ("max_iters", base().with_max_iters(0)),
        ("restarts", base().with_restarts(0)),
        (
            "nelder_mead.initial_step",
            base().with_optimizer(OptimizerConfig::NelderMead(NelderMeadOptimizer {
                initial_step: 0.0,
                ..Default::default()
            })),
        ),
        (
            "nelder_mead.f_tol",
            base().with_optimizer(OptimizerConfig::NelderMead(NelderMeadOptimizer {
                f_tol: f64::NAN,
                ..Default::default()
            })),
        ),
        (
            "spsa.a",
            base().with_optimizer(OptimizerConfig::Spsa(SpsaOptimizer {
                a: -1.0,
                ..Default::default()
            })),
        ),
        (
            "spsa.c",
            base().with_optimizer(OptimizerConfig::Spsa(SpsaOptimizer {
                c: f64::INFINITY,
                ..Default::default()
            })),
        ),
    ];
    for (field, job) in cases {
        let err = engine.run(&Job::Optimize(job), 1).unwrap_err();
        assert_eq!(err.field(), Some(field), "{err}");
        assert!(err.to_string().contains(field), "{err}");
    }
    // Every rejection happened before any annealing or optimization ran.
    assert_eq!(engine.cache_stats().misses, 0);
}

// ---------------------------------------------------------------------------
// RedQaoaError::GraphNotReducible — degenerate job graphs.
// ---------------------------------------------------------------------------

#[test]
fn graph_not_reducible_for_zero_node_graph() {
    let engine = Engine::builder().build().unwrap();
    let err = engine
        .run(&Job::Reduce(ReduceJob::new(graphlib::Graph::new(0))), 1)
        .unwrap_err();
    assert!(matches!(err, RedQaoaError::GraphNotReducible(_)), "{err}");
}

// ---------------------------------------------------------------------------
// RedQaoaError::EmptyInput — nothing usable left after filtering.
// ---------------------------------------------------------------------------

#[test]
fn empty_input_for_a_dataset_with_no_reducible_graph() {
    let err = red_qaoa::throughput::dataset_relative_throughput(
        &[],
        27,
        1,
        &ReductionOptions::default(),
        &mut seeded(1),
    )
    .unwrap_err();
    assert!(matches!(err, RedQaoaError::EmptyInput(_)), "{err}");
}

// ---------------------------------------------------------------------------
// RedQaoaError::Job — batch failures carry their index.
// ---------------------------------------------------------------------------

#[test]
fn job_errors_carry_the_batch_index() {
    let engine = Engine::builder().build().unwrap();
    let jobs = vec![
        Job::Reduce(ReduceJob::new(test_graph(1))),
        Job::Landscape(LandscapeJob::new(test_graph(2), 0)), // width 0: invalid
        Job::Pipeline(PipelineJob::new(test_graph(3)).noisy(4)), // no noise model
    ];
    let results = engine.run_batch(&jobs, 5);
    assert!(results[0].is_ok());
    match results[1].as_ref().unwrap_err() {
        RedQaoaError::Job { index, source } => {
            assert_eq!(*index, 1);
            assert_eq!(source.field(), Some("width"));
        }
        other => panic!("expected Job error, got {other}"),
    }
    match results[2].as_ref().unwrap_err() {
        RedQaoaError::Job { index, source } => {
            assert_eq!(*index, 2);
            assert_eq!(source.field(), Some("noisy_trajectories"));
        }
        other => panic!("expected Job error, got {other}"),
    }
}

// ---------------------------------------------------------------------------
// RedQaoaError::Graph / RedQaoaError::Qaoa — substrate conversions.
// ---------------------------------------------------------------------------

#[test]
fn graph_and_qaoa_errors_convert_and_chain() {
    use std::error::Error;
    let graph_err: RedQaoaError = graphlib::GraphError::SelfLoop(2).into();
    assert!(matches!(graph_err, RedQaoaError::Graph(_)));
    assert!(graph_err.source().is_some());
    let qaoa_err: RedQaoaError = qaoa::QaoaError::DegenerateGraph.into();
    assert!(matches!(qaoa_err, RedQaoaError::Qaoa(_)));
    // A landscape job on an edgeless graph surfaces the QAOA conversion.
    let engine = Engine::builder().build().unwrap();
    let err = engine
        .run(
            &Job::Landscape(LandscapeJob::new(graphlib::Graph::new(4), 3)),
            1,
        )
        .unwrap_err();
    assert!(matches!(err, RedQaoaError::Qaoa(_)), "{err}");
}

// ---------------------------------------------------------------------------
// Cache contract and low-level wrappers.
// ---------------------------------------------------------------------------

#[test]
fn repeated_graph_config_pairs_are_served_from_the_cache() {
    let engine = Engine::builder().threads(1).build().unwrap();
    let graph = test_graph(10);
    let jobs = vec![
        Job::Reduce(ReduceJob::new(graph.clone())),
        Job::Throughput(ThroughputJob::new(graph.clone(), 27, 1)),
        Job::Reduce(ReduceJob::new(graph)),
    ];
    // Different batch seeds must not matter: reductions are content-addressed.
    let first = engine.run_batch(&jobs, 1);
    let second = engine.run_batch(&jobs, 2);
    assert_eq!(
        first[0].as_ref().unwrap().as_reduced().unwrap(),
        first[2].as_ref().unwrap().as_reduced().unwrap(),
    );
    assert_eq!(
        first[0].as_ref().unwrap().as_reduced().unwrap(),
        second[0].as_ref().unwrap().as_reduced().unwrap(),
    );
    let stats = engine.cache_stats();
    // Six reductions served (three jobs twice), exactly one annealed.
    assert_eq!(stats.misses, 1, "{stats:?}");
    assert_eq!(stats.hits, 5, "{stats:?}");
    assert_eq!(stats.entries, 1, "{stats:?}");
}

#[test]
fn per_job_pipeline_options_are_validated_before_any_work() {
    let engine = Engine::builder().build().unwrap();
    let bad = red_qaoa::pipeline::PipelineOptions {
        optimize: qaoa::optimize::OptimizeOptions {
            restarts: 0,
            max_iters: 10,
        },
        ..Default::default()
    };
    let job = Job::Pipeline(PipelineJob::new(test_graph(20)).with_options(bad));
    let err = engine.run(&job, 1).unwrap_err();
    assert_eq!(err.field(), Some("restarts"));
    // Rejected before any annealing or optimization ran.
    assert_eq!(engine.cache_stats().misses, 0);
}

#[test]
fn explicitly_set_pipeline_keeps_its_own_reduction_options() {
    let custom = ReductionOptions::builder()
        .and_ratio_threshold(0.9)
        .build()
        .unwrap();
    let engine = Engine::builder()
        .pipeline(red_qaoa::pipeline::PipelineOptions {
            reduction: custom,
            ..Default::default()
        })
        .build()
        .unwrap();
    assert_eq!(engine.pipeline_options().reduction, custom);
    // Without an explicit pipeline, the default one follows the engine's
    // reduction options so ReduceJobs and PipelineJobs share cache entries.
    let strict = ReductionOptions::builder()
        .and_ratio_threshold(0.8)
        .build()
        .unwrap();
    let engine = Engine::builder().reduction(strict).build().unwrap();
    assert_eq!(engine.pipeline_options().reduction, strict);
}

#[test]
fn free_reduce_remains_the_validating_low_level_wrapper() {
    // The delegating free functions keep their own validation (they are the
    // documented low-level layer), with the new contextual errors.
    let graph = test_graph(11);
    let bad = ReductionOptions {
        and_ratio_threshold: 0.0,
        ..Default::default()
    };
    let err = reduce(&graph, &bad, &mut seeded(1)).unwrap_err();
    assert_eq!(err.field(), Some("and_ratio_threshold"));
}

// ---------------------------------------------------------------------------
// Ideal evaluation: one kernel for every mode.
// ---------------------------------------------------------------------------

#[test]
fn depth_mode_landscapes_equal_legacy_scans_bitwise() {
    // A depth schedule only reorders commuting diagonal gates, so it cannot
    // change an ideal expectation: depth-mode scans use the same evaluator
    // and must match legacy scans bit for bit, on the graph and on its
    // reduction. The 18-node graph takes `AutoEvaluator` past its
    // statevector cutoff (to the analytic p = 1 formula).
    let engine = Engine::builder().threads(1).build().unwrap();
    let large = connected_gnp(18, 0.25, &mut seeded(12)).unwrap();
    for graph in [test_graph(12), large] {
        let scan_bits = |job: &LandscapeJob, mode: CircuitReduction| -> Vec<u64> {
            let job = Job::Landscape(job.clone().with_circuit(mode));
            let output = engine.run(&job, 3).unwrap();
            let landscape = output.as_landscape().unwrap();
            landscape.values.iter().map(|v| v.to_bits()).collect()
        };
        let full = LandscapeJob::new(graph.clone(), 5);
        assert_eq!(
            scan_bits(&full, CircuitReduction::None),
            scan_bits(&full, CircuitReduction::Depth),
            "depth-only, n = {}",
            graph.node_count()
        );
        for job in [full.clone(), full.clone().reduced()] {
            assert_eq!(
                scan_bits(&job, CircuitReduction::None),
                scan_bits(&job, CircuitReduction::NodeAndDepth),
                "n = {}, reduce_first = {}",
                graph.node_count(),
                job.reduce_first
            );
        }
    }
}

#[test]
fn optimize_job_ground_truth_is_the_brute_force_maxcut() {
    // The report reads the ground truth off the full graph's cut table; it
    // must be exactly what exhaustive enumeration finds.
    let engine = Engine::builder().threads(1).build().unwrap();
    for seed in [13, 14] {
        let graph = test_graph(seed);
        let job = Job::Optimize(
            OptimizeJob::new(graph.clone())
                .with_restarts(1)
                .with_max_iters(10),
        );
        let output = engine.run(&job, 5).unwrap();
        let report = output.as_optimize().unwrap();
        assert_eq!(
            report.ground_truth,
            Some(brute_force_maxcut(&graph).unwrap().best_cut)
        );
    }
}
