//! Benchmarks of the depth-reduction subsystem: the three-pass greedy
//! interaction scheduler versus the naive sequential (one-round-per-gate)
//! emission it replaces, at several regular-graph sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphlib::generators::random_regular;
use mathkit::rng::seeded;
use qaoa::depth::compile_maxcut;

/// Scheduling cost: the full compile (greedy lowest-max-load packing,
/// matching augmentation, Kempe repair) against the naive baseline that
/// emits one round per edge. The naive arm measures the cost floor of *not*
/// scheduling; the greedy arm's margin over it is the compile-time price of the `|E| / (d+1)` depth reduction the CI smoke
/// (`depth_smoke`) asserts.
fn bench_schedule_greedy_vs_naive(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_greedy_vs_naive");
    for &n in &[24usize, 96, 240] {
        let mut rng = seeded(41 + n as u64);
        let graph = random_regular(n, 4, &mut rng).expect("valid regular graph");
        group.bench_with_input(BenchmarkId::new("greedy", n), &graph, |b, graph| {
            b.iter(|| compile_maxcut(graph).expect("non-degenerate graph"))
        });
        group.bench_with_input(BenchmarkId::new("naive", n), &graph, |b, graph| {
            b.iter(|| graph.edges().map(|e| vec![e]).collect::<Vec<_>>())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_schedule_greedy_vs_naive);
criterion_main!(benches);
