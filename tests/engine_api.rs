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
use red_qaoa::pipeline::PipelineOptions;
use red_qaoa::reduction::{reduce, ReductionOptions};
use red_qaoa::RedQaoaError;

mod common;

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
    let bad = PipelineOptions {
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
        .pipeline(PipelineOptions {
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
    // reduction. `AutoEvaluator` takes the analytic p = 1 formula for
    // both graphs, the 18-node one above the statevector node cutoff too.
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
fn repeated_scans_in_a_batch_match_one_shot_runs() {
    // A batch runs each distinct scan once and copies it to the jobs that
    // repeat it; every job must still get what it gets alone.
    let jobs = common::repeated_scan_batch();
    let engine = Engine::builder().build().unwrap();
    let batch = engine.run_batch(&jobs, 17);
    let mut failures = 0;
    for (i, (job, result)) in jobs.iter().zip(&batch).enumerate() {
        let solo = Engine::builder().build().unwrap().run(job, 17);
        match (result, solo) {
            (Ok(output), Ok(solo)) => {
                assert_eq!(*output, solo, "job {i}");
                if let (Some(a), Some(b)) = (output.as_landscape(), solo.as_landscape()) {
                    assert_eq!(bits(&a.values), bits(&b.values), "job {i}");
                }
            }
            (Err(RedQaoaError::Job { index, source }), Err(solo)) => {
                assert_eq!(*index, i);
                assert_eq!(**source, solo, "job {i}");
                failures += 1;
            }
            (result, solo) => panic!("job {i}: batch {result:?}, one-shot {solo:?}"),
        }
    }
    assert_eq!(failures, 2, "both edgeless scans fail");
    // One lookup per distinct reduced scan (widths 3 and 5) plus the
    // ReduceJob; repeats and the depth-only reduced scans make none.
    let stats = engine.cache_stats();
    assert_eq!(stats.hits + stats.misses, 3, "{stats:?}");
    assert_eq!(stats.entries, 1, "{stats:?}");
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

#[test]
fn pipeline_jobs_must_be_noisy() {
    // The check runs after per-job options validation
    // (`per_job_pipeline_options_are_validated_before_any_work`) and before
    // the noise-model check: this engine has no noise model.
    let engine = Engine::builder().build().unwrap();
    let job = Job::Pipeline(PipelineJob::new(test_graph(21)));
    let err = engine.run(&job, 1).unwrap_err();
    assert_eq!(err.field(), Some("noisy_trajectories"));
    assert!(
        err.to_string().contains("OptimizeJob::with_refine_iters"),
        "{err}"
    );
    assert_eq!(engine.cache_stats().misses, 0);
}

#[test]
fn oversized_and_degenerate_graphs_fail_before_annealing() {
    let noise = qsim::devices::fake_toronto().noise;
    let engine = Engine::builder().threads(1).noise(noise).build().unwrap();
    let limit = qaoa::expectation::MAX_EXACT_NODES;
    let nodes = limit + 4;
    let graph = connected_gnp(nodes, 0.2, &mut seeded(26)).unwrap();
    let optimize = Job::Optimize(OptimizeJob::new(graph.clone()));
    for job in [optimize, Job::Pipeline(PipelineJob::new(graph).noisy(4))] {
        let err = engine.run(&job, 1).unwrap_err();
        assert_eq!(err, qaoa::QaoaError::GraphTooLarge { nodes, limit }.into());
    }
    let edgeless = Job::Optimize(OptimizeJob::new(graphlib::Graph::new(3)));
    assert!(matches!(
        engine.run(&edgeless, 1),
        Err(RedQaoaError::GraphNotReducible(_))
    ));
    // Nothing was annealed, counted, or cached.
    let stats = engine.cache_stats();
    assert_eq!((stats.misses, stats.entries), (0, 0), "{stats:?}");
}

// ---------------------------------------------------------------------------
// The end-to-end loop with the refine step: the same bits as the ideal
// pipeline job it replaced.
// ---------------------------------------------------------------------------

/// One `OptimizeJob` run (2 Nelder–Mead restarts × 30 iterations, engine
/// defaults otherwise) and its outputs as `f64::to_bits`, recorded from the
/// ideal pipeline job with the same options, graph and job seed. The
/// `p = 1` cases were re-recorded when the exact energy took the closed
/// form at `p = 1` (energies move in the last bits, so Nelder–Mead may take
/// another path between near-equal optima); the `p = 2` cases are the
/// original bits.
struct Pin {
    /// `(nodes, graph_seed, layers, circuit, refine_iters, job_seed)`; the
    /// graph is `connected_gnp(nodes, 0.4, seeded(graph_seed))`.
    case: (usize, u64, usize, CircuitReduction, usize, u64),
    /// The refined value (the transferred one for `refine_iters = 0`, which
    /// runs no refine step), the baseline's best value and restart average,
    /// and the transferred value.
    values: [u64; 4],
    /// The refined and the transferred parameters.
    params: [&'static [u64]; 2],
    ground_truth: usize,
    /// Kept nodes and AND ratio.
    reduction: (&'static [usize], u64),
    /// `(qubits, scheduled_terms, rounds)` of the depth metrics.
    depth: Option<(usize, usize, usize)>,
}

const PINS: [Pin; 8] = [
    Pin {
        case: (8, 101, 1, CircuitReduction::None, 0, 1),
        values: [
            0x4023869a1177fb3a,
            0x40238a7ef942433a,
            0x40238a7ef935ddc6,
            0x4023869a1177fb3a,
        ],
        params: [
            &[0x3fdd7e34cf7ec5b0, 0x3ffdc6b65fad640c],
            &[0x3fdd7e34cf7ec5b0, 0x3ffdc6b65fad640c],
        ],
        ground_truth: 12,
        reduction: (&[0, 2, 4, 5, 6, 7], 0x3fed555555555555),
        depth: None,
    },
    Pin {
        case: (9, 102, 1, CircuitReduction::NodeAndDepth, 5, 2),
        values: [
            0x4024d9e25832951e,
            0x4024e14c01984cde,
            0x4024e14bfe3738b2,
            0x4024d9e25832951e,
        ],
        params: [
            &[0x3fdd7e34cf7ec5b0, 0x3ffdc6b65fad640c],
            &[0x3fdd7e34cf7ec5b0, 0x3ffdc6b65fad640c],
        ],
        ground_truth: 13,
        reduction: (&[1, 3, 5, 6, 7, 8], 0x3fef0f0f0f0f0f0f),
        depth: Some((6, 11, 5)),
    },
    Pin {
        case: (10, 103, 2, CircuitReduction::Depth, 30, 3),
        values: [
            0x402b23170663c526,
            0x402b4f7382f6e6b5,
            0x402aa9f2e69cc89a,
            0x402abd6b71c10d67,
        ],
        params: [
            &[
                0xbfdafa9f52009148,
                0x3ff0f0b50074844d,
                0x400788bb3c8b815f,
                0x3ffcbfb16252b8a4,
            ],
            &[
                0xbfd775a9f2d2455c,
                0x3fe8d9afd1b56d8a,
                0x4006f22d5cb5bb0c,
                0x3ffbc0060dcb7b75,
            ],
        ],
        ground_truth: 15,
        reduction: (&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9], 0x3ff0000000000000),
        depth: Some((10, 21, 6)),
    },
    Pin {
        case: (11, 104, 2, CircuitReduction::None, 5, 4),
        values: [
            0x402c48012db4dbb0,
            0x402fc7847c5d7438,
            0x402e53cb55a2c334,
            0x4029ba3bd2804d98,
        ],
        params: [
            &[
                0x4016bf3eaf58839d,
                0x400608b36aba0a27,
                0x40070201c1055a5c,
                0x3ff8d7d57e637042,
            ],
            &[
                0x401788d848f21d37,
                0x4003abe69ded3d59,
                0x40058534f4388d90,
                0x3ff41e3be4c9d6a8,
            ],
        ],
        ground_truth: 19,
        reduction: (&[0, 2, 3, 4, 5, 7, 8, 9], 0x3fecb21642c8590b),
        depth: None,
    },
    Pin {
        case: (12, 105, 1, CircuitReduction::Depth, 0, 5),
        values: [
            0x40328ca09805a89a,
            0x40328ca09805a89a,
            0x40328ca097ee9922,
            0x40328ca09805a89a,
        ],
        params: [
            &[0x4017728f8035cd2a, 0x40069b726c6dff5c],
            &[0x4017728f8035cd2a, 0x40069b726c6dff5c],
        ],
        ground_truth: 23,
        reduction: (&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], 0x3ff0000000000000),
        depth: Some((12, 31, 8)),
    },
    Pin {
        case: (10, 106, 2, CircuitReduction::NodeAndDepth, 30, 6),
        values: [
            0x4026f10b20b148d4,
            0x4027a7a3867fc2ed,
            0x402599fb0ef4bcc0,
            0x402690d54c9a2681,
        ],
        params: [
            &[
                0x4006462c4d398928,
                0x401017148574c6a0,
                0x400a260f8050d5b7,
                0x3ffe767d3aef6704,
            ],
            &[
                0x400763699869142e,
                0x400ef36ddcbb212e,
                0x4007c3e7e488dd3b,
                0x3ffdfbae89a98b47,
            ],
        ],
        ground_truth: 15,
        reduction: (&[0, 1, 2, 3, 4, 5, 9], 0x3fee79e79e79e79e),
        depth: Some((7, 12, 5)),
    },
    Pin {
        case: (9, 107, 1, CircuitReduction::None, 30, 7),
        values: [
            0x40211b638bd13675,
            0x40211b638c1cb2c1,
            0x401fb42ccccf1b3a,
            0x4021134647bf372b,
        ],
        params: [
            &[0x4016ccaea951ba74, 0x3ff379c52d42f196],
            &[0x40169bab8a7e8ffa, 0x3ff3440b0b2026cc],
        ],
        ground_truth: 11,
        reduction: (&[0, 1, 2, 3, 4, 5], 0x3fed89d89d89d89d),
        depth: None,
    },
    Pin {
        case: (12, 108, 2, CircuitReduction::NodeAndDepth, 0, 8),
        values: [
            0x402fda34dcfb5f90,
            0x402f6233316bce64,
            0x402c425d716bc455,
            0x402fda34dcfb5f90,
        ],
        params: [
            &[
                0x4017b77fabed3b76,
                0x4015f061dafe4608,
                0x3ff2b80eacef99ce,
                0xbfcb7afad19c3737,
            ],
            &[
                0x4017b77fabed3b76,
                0x4015f061dafe4608,
                0x3ff2b80eacef99ce,
                0xbfcb7afad19c3737,
            ],
        ],
        ground_truth: 18,
        reduction: (&[0, 2, 3, 4, 6, 9, 10, 11], 0x3ff0000000000000),
        depth: Some((8, 16, 5)),
    },
];

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn refined_optimize_jobs_reproduce_the_pinned_pipeline_bits() {
    for (i, pin) in PINS.iter().enumerate() {
        let (nodes, graph_seed, layers, circuit, refine_iters, job_seed) = pin.case;
        let graph = connected_gnp(nodes, 0.4, &mut seeded(graph_seed)).unwrap();
        let job = OptimizeJob::new(graph.clone())
            .with_layers(layers)
            .with_restarts(2)
            .with_max_iters(30)
            .with_circuit(circuit)
            .with_refine_iters(refine_iters);
        let engine = Engine::builder().threads(1).build().unwrap();
        let output = engine.run(&Job::Optimize(job), job_seed).unwrap();
        let report = output.as_optimize().unwrap();
        let transfer = &report.transfer;
        let transferred = &transfer.surrogate.best_params;
        let refined = transfer.refined.as_ref();
        assert_eq!(refined.is_some(), refine_iters > 0, "pin {i}");
        let refined = refined.map_or((transfer.transferred_value, transferred), |run| {
            (run.value, &run.params)
        });
        let values = [
            refined.0,
            transfer.native.best_value,
            transfer.native_average,
            transfer.transferred_value,
        ];
        assert_eq!(values.map(f64::to_bits), pin.values, "pin {i}");
        let params = [bits(&refined.1.to_flat()), bits(&transferred.to_flat())];
        assert_eq!(params, pin.params.map(<[u64]>::to_vec), "pin {i}");
        assert_eq!(report.ground_truth, Some(pin.ground_truth), "pin {i}");
        let reduction = &report.reduction;
        let kept = (
            reduction.subgraph.nodes.as_slice(),
            reduction.and_ratio.to_bits(),
        );
        assert_eq!(kept, pin.reduction, "pin {i}");
        let depth = report
            .depth
            .map(|d| (d.qubits, d.scheduled_terms, d.rounds));
        assert_eq!(depth, pin.depth, "pin {i}");
        // Only depth modes compile metrics, for the graph the session ran
        // on; depth-only mode runs on the identity reduction, unannealed.
        assert_eq!(report.depth.is_some(), circuit.wants_depth(), "pin {i}");
        if let Some(metrics) = report.depth {
            assert!(metrics.meets_vizing_bound(), "pin {i}");
            assert_eq!(metrics.scheduled_terms, reduction.graph().edge_count());
        }
        if circuit == CircuitReduction::Depth {
            assert_eq!(reduction.graph(), &graph, "pin {i}");
            assert_eq!(engine.cache_stats().misses, 0, "pin {i}");
        }
    }
}
