//! Benchmarks of the end-to-end Red-QAOA loop (Figures 17, 19, 20): the
//! ideal loop (`OptimizeJob` with the refine step), the noisy pipeline, the
//! throughput model, and the gradient-free optimizer flavors behind the
//! `OptimizeDriver`.

use bench::bench_graph;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qaoa::evaluator::StatevectorEvaluator;
use qaoa::optimize::{
    NelderMeadOptimizer, OptimizeDriver, OptimizeOptions, OptimizerConfig, SpsaOptimizer,
};
use qsim::devices::fake_toronto;
use red_qaoa::engine::{Engine, Job, OptimizeJob};
use red_qaoa::pipeline::{run_noisy, CircuitReduction, PipelineOptions};
use red_qaoa::reduction::ReductionOptions;
use red_qaoa::throughput::dataset_relative_throughput;

fn pipeline_options() -> PipelineOptions {
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

fn bench_ideal_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("ideal_pipeline_fig17");
    group.sample_size(10);
    // No cache: every iteration anneals its reduction, as a cold request.
    let engine = Engine::builder().cache_capacity(0).build().unwrap();
    for &n in &[8usize, 10] {
        let job = Job::Optimize(
            OptimizeJob::new(bench_graph(n, n as u64))
                .with_restarts(2)
                .with_max_iters(40)
                .with_refine_iters(20),
        );
        group.bench_with_input(BenchmarkId::from_parameter(n), &job, |b, job| {
            let mut seed = 31;
            b.iter(|| {
                seed += 1;
                engine.run(job, seed).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_noisy_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("noisy_pipeline_fig19");
    group.sample_size(10);
    let graph = bench_graph(8, 77);
    let noise = fake_toronto().noise;
    group.bench_function("8_nodes", |b| {
        let mut rng = mathkit::rng::seeded(37);
        b.iter(|| run_noisy(&graph, &pipeline_options(), &noise, 8, &mut rng).unwrap())
    });
    group.finish();
}

fn bench_throughput_model(c: &mut Criterion) {
    let graphs: Vec<_> = (0..8).map(|i| bench_graph(9, 300 + i)).collect();
    let mut group = c.benchmark_group("throughput_model_fig25");
    group.sample_size(10);
    for &qubits in &[27usize, 127] {
        group.bench_with_input(BenchmarkId::from_parameter(qubits), &graphs, |b, graphs| {
            let mut rng = mathkit::rng::seeded(41);
            b.iter(|| {
                dataset_relative_throughput(
                    graphs,
                    qubits,
                    1,
                    &ReductionOptions::default(),
                    &mut rng,
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_nelder_mead_vs_spsa(c: &mut Criterion) {
    let mut group = c.benchmark_group("nelder_mead_vs_spsa");
    group.sample_size(10);
    let graph = bench_graph(10, 88);
    let evaluator = StatevectorEvaluator::new(&graph, 1).unwrap();
    let flavors = [
        (
            "nelder_mead",
            OptimizerConfig::NelderMead(NelderMeadOptimizer::default()),
        ),
        ("spsa", OptimizerConfig::Spsa(SpsaOptimizer::default())),
    ];
    for (name, optimizer) in flavors {
        let driver = OptimizeDriver::new(optimizer, 2, 60);
        group.bench_with_input(BenchmarkId::from_parameter(name), &driver, |b, driver| {
            let mut rng = mathkit::rng::seeded(47);
            b.iter(|| driver.maximize(&evaluator, &mut rng).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ideal_pipeline,
    bench_noisy_pipeline,
    bench_throughput_model,
    bench_nelder_mead_vs_spsa
);
criterion_main!(benches);
