//! One Criterion group per figure family, each invoking the corresponding
//! `experiments` module at a miniature configuration. Together with
//! `bench_reduction` / `bench_end_to_end` this gives a bench target for every
//! table and figure of the paper.

use criterion::{criterion_group, criterion_main, Criterion};
use experiments::and_correlation::{run_fig5, run_fig7, Fig5Config, Fig7Config};
use experiments::convergence::{run_fig1, Fig1Config};
use experiments::dataset_eval::{run_small_datasets, run_table1_summaries, DatasetEvalConfig};
use experiments::end_to_end::{run_fig17, Fig17Config};
use experiments::landscapes::run_fig3;
use experiments::noisy_mse::{run_fig10, NoisyMseConfig};
use experiments::pooling_cmp::{run_fig8, Fig8Config};
use experiments::sa_effectiveness::{run_fig9, Fig9Config};
use experiments::throughput_cmp::{run_fig25, Fig25Config};
use experiments::transfer_cmp::{run_fig21, Fig21Config};

fn bench_fig1(c: &mut Criterion) {
    let config = Fig1Config {
        node_counts: vec![5],
        iterations: 8,
        trajectories: 4,
        ..Default::default()
    };
    let mut group = c.benchmark_group("figures");
    group.sample_size(10);
    group.bench_function("fig01_convergence", |b| {
        b.iter(|| run_fig1(&config).unwrap())
    });
    group.bench_function("fig03_cycle_landscapes", |b| {
        b.iter(|| run_fig3(8).unwrap())
    });
    group.finish();
}

fn bench_fig5_fig7(c: &mut Criterion) {
    let fig5 = Fig5Config {
        graph_count: 1,
        nodes: 7,
        subgraph_sizes: vec![5],
        width: 6,
        fit_degree: 2,
        ..Default::default()
    };
    let fig7 = Fig7Config {
        nodes: 8,
        layers: 1,
        parameter_sets: 32,
        subgraph_samples: 6,
        ..Default::default()
    };
    let mut group = c.benchmark_group("figures");
    group.sample_size(10);
    group.bench_function("fig05_and_correlation", |b| {
        b.iter(|| run_fig5(&fig5).unwrap())
    });
    group.bench_function("fig07_optima_distance", |b| {
        b.iter(|| run_fig7(&fig7).unwrap())
    });
    group.finish();
}

fn bench_fig8_fig9(c: &mut Criterion) {
    let fig8 = Fig8Config {
        graph_count: 1,
        nodes: 8,
        layers: 1,
        parameter_sets: 24,
        reduction_ratios: vec![0.3],
        ..Default::default()
    };
    let fig9 = Fig9Config {
        nodes: 7,
        subgraph_sizes: vec![5],
        width: 6,
        bins: 6,
        ..Default::default()
    };
    let mut group = c.benchmark_group("figures");
    group.sample_size(10);
    group.bench_function("fig08_pooling_comparison", |b| {
        b.iter(|| run_fig8(&fig8).unwrap())
    });
    group.bench_function("fig09_sa_effectiveness", |b| {
        b.iter(|| run_fig9(&fig9).unwrap())
    });
    group.finish();
}

fn bench_fig10(c: &mut Criterion) {
    let config = NoisyMseConfig {
        node_counts: vec![7],
        width: 4,
        trajectories: 4,
        ..Default::default()
    };
    let mut group = c.benchmark_group("figures");
    group.sample_size(10);
    group.bench_function("fig10_noisy_mse", |b| {
        b.iter(|| run_fig10(&config).unwrap())
    });
    group.finish();
}

fn bench_datasets_and_throughput(c: &mut Criterion) {
    let eval = DatasetEvalConfig {
        graphs_per_dataset: 2,
        layers: vec![1],
        parameter_sets: 16,
        ..Default::default()
    };
    let throughput = Fig25Config {
        graphs_per_dataset: 3,
        ..Default::default()
    };
    let mut group = c.benchmark_group("figures");
    group.sample_size(10);
    group.bench_function("fig13_fig14_dataset_eval", |b| {
        b.iter(|| run_small_datasets(&eval).unwrap())
    });
    group.bench_function("fig25_throughput", |b| {
        b.iter(|| run_fig25(&throughput).unwrap())
    });
    group.bench_function("table1_datasets", |b| b.iter(|| run_table1_summaries(1)));
    group.finish();
}

fn bench_fig17_fig21(c: &mut Criterion) {
    let fig17 = Fig17Config {
        graph_count: 1,
        nodes: 8,
        layers: vec![1],
        restarts: vec![1],
        iterations: 20,
        ..Default::default()
    };
    let fig21 = Fig21Config {
        graphs_per_family: 1,
        parameter_sets: 16,
        structured_nodes: 8,
        ..Default::default()
    };
    let mut group = c.benchmark_group("figures");
    group.sample_size(10);
    group.bench_function("fig17_end_to_end", |b| {
        b.iter(|| run_fig17(&fig17).unwrap())
    });
    group.bench_function("fig21_parameter_transfer", |b| {
        b.iter(|| run_fig21(&fig21).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fig1,
    bench_fig5_fig7,
    bench_fig8_fig9,
    bench_fig10,
    bench_datasets_and_throughput,
    bench_fig17_fig21
);
criterion_main!(benches);
