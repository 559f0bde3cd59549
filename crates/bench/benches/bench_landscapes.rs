//! Benchmarks of energy-landscape evaluation (Figures 2, 3, 6, 14): grid
//! sweeps, random parameter sets, the analytic / edge-local fast paths, and
//! the allocation win of workspace-backed evaluation over the old
//! closure-per-point style.

use bench::bench_graph;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphlib::generators::cycle;
use qaoa::analytic::analytic_expectation_p1;
use qaoa::evaluator::{EdgeLocalEvaluator, EnergyEvaluator, StatevectorEvaluator};
use qaoa::expectation::QaoaInstance;
use qaoa::landscape::{random_parameter_set, Landscape};
use qaoa::params::{QaoaParams, BETA_MAX, GAMMA_MAX};

fn bench_landscape_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("landscape_grid_fig3");
    for &n in &[7usize, 10, 13] {
        let graph = cycle(n).unwrap();
        let evaluator = StatevectorEvaluator::new(&graph, 1).unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(n),
            &evaluator,
            // Pin to one worker so the numbers measure the evaluation
            // kernel, not thread-spawn overhead and the machine's core
            // count (the parallel path is timed by the landscape_smoke
            // bin instead).
            |b, evaluator| {
                b.iter(|| mathkit::parallel::with_threads(1, || Landscape::evaluate(8, evaluator)))
            },
        );
    }
    group.finish();
}

/// The old closure-per-point evaluation style: a fresh `2^n` statevector
/// (plus a phase table per layer and a params vector pair) allocated at
/// every grid point.
fn closure_style_grid(instance: &QaoaInstance, width: usize) -> f64 {
    let mut total = 0.0;
    for i in 0..width {
        for j in 0..width {
            let gamma = GAMMA_MAX * i as f64 / width as f64;
            let beta = BETA_MAX * j as f64 / width as f64;
            let params = QaoaParams::new(vec![gamma], vec![beta]).unwrap();
            total += instance.expectation(&params);
        }
    }
    total
}

/// The workspace-backed style: one scratch, one reused params buffer, zero
/// per-point allocation.
fn workspace_style_grid(evaluator: &StatevectorEvaluator, width: usize) -> f64 {
    let mut scratch = evaluator.scratch();
    let mut params = QaoaParams::new(vec![0.0], vec![0.0]).unwrap();
    let mut total = 0.0;
    for i in 0..width {
        for j in 0..width {
            params.gammas[0] = GAMMA_MAX * i as f64 / width as f64;
            params.betas[0] = BETA_MAX * j as f64 / width as f64;
            total += evaluator.energy(&mut scratch, (i * width + j) as u64, &params);
        }
    }
    total
}

fn bench_closure_vs_workspace(c: &mut Criterion) {
    let mut group = c.benchmark_group("grid_closure_vs_workspace");
    for &n in &[10usize, 13] {
        let graph = bench_graph(n, n as u64);
        let instance = QaoaInstance::new(&graph, 1).unwrap();
        let evaluator = StatevectorEvaluator::from_instance(instance.clone());
        group.bench_with_input(
            BenchmarkId::new("closure_alloc_per_point", n),
            &instance,
            |b, instance| b.iter(|| closure_style_grid(instance, 8)),
        );
        group.bench_with_input(
            BenchmarkId::new("workspace_zero_alloc", n),
            &evaluator,
            |b, evaluator| b.iter(|| workspace_style_grid(evaluator, 8)),
        );
    }
    group.finish();
}

fn bench_parameter_set_p2(c: &mut Criterion) {
    let mut group = c.benchmark_group("parameter_set_mse_fig14");
    for &n in &[8usize, 10] {
        let graph = bench_graph(n, n as u64);
        let evaluator = StatevectorEvaluator::new(&graph, 2).unwrap();
        let mut rng = mathkit::rng::seeded(7);
        let set = random_parameter_set(2, 64, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &set, |b, set| {
            b.iter(|| {
                let mut scratch = evaluator.scratch();
                set.iter()
                    .enumerate()
                    .map(|(i, p)| evaluator.energy(&mut scratch, i as u64, p))
                    .sum::<f64>()
            })
        });
    }
    group.finish();
}

fn bench_analytic_vs_statevector(c: &mut Criterion) {
    let graph = bench_graph(12, 3);
    let params = QaoaParams::new(vec![0.7], vec![0.3]).unwrap();
    let instance = QaoaInstance::new(&graph, 1).unwrap();
    let mut group = c.benchmark_group("p1_expectation_backends");
    let mut workspace = qsim::statevector::StatevectorWorkspace::new();
    group.bench_function("statevector", |b| {
        b.iter(|| instance.statevector_expectation_with(&mut workspace, &params))
    });
    group.bench_function("analytic", |b| {
        b.iter(|| analytic_expectation_p1(&graph, &params).unwrap())
    });
    let edge_local = EdgeLocalEvaluator::new(&graph, 1).unwrap();
    let mut scratch = edge_local.scratch();
    group.bench_function("edge_local", |b| {
        b.iter(|| edge_local.energy(&mut scratch, 0, &params))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_landscape_grid,
    bench_closure_vs_workspace,
    bench_parameter_set_p2,
    bench_analytic_vs_statevector
);
criterion_main!(benches);
