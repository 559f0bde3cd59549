//! Benchmarks of the Red-QAOA graph-reduction engine (Figure 18): the SA
//! inner loop and the full binary-search reduction at several graph sizes.
//!
//! This binary also carries the steady-state-resize allocation assertion
//! (run before the criterion groups, via a counting global allocator): after
//! scratch warm-up, `resize_selection_with_scratch` must allocate exactly
//! its returned selection and nothing else.

use bench::{bench_graph, rebuild_objective};
use criterion::{criterion_group, BenchmarkId, Criterion};
use graphlib::metrics::average_node_degree;
use graphlib::subgraph::random_connected_subgraph;
use graphlib::Graph;
use red_qaoa::annealing::{
    anneal_subgraph, resize_selection_with_scratch, CoolingSchedule, ResizeScratch, SaOptions,
};
use red_qaoa::reduction::{reduce, ReductionOptions};
use red_qaoa::sa_state::SaState;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts heap allocations (alloc + realloc) so the resize hot path can be
/// asserted allocation-free in its steady state. Deallocations are not
/// counted: dropping the returned selection is the caller's business.
struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn bench_sa_single_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("sa_anneal_fixed_size");
    for &n in &[20usize, 50, 100] {
        let graph = bench_graph(n, n as u64);
        let k = (n * 2) / 3;
        group.bench_with_input(BenchmarkId::from_parameter(n), &graph, |b, graph| {
            let mut rng = mathkit::rng::seeded(11);
            b.iter(|| anneal_subgraph(graph, k, &SaOptions::default(), &mut rng).unwrap())
        });
    }
    group.finish();
}

fn bench_full_reduction_fig18(c: &mut Criterion) {
    let mut group = c.benchmark_group("reduction_fig18");
    group.sample_size(10);
    for &n in &[20usize, 60, 120, 240] {
        let graph = bench_graph(n, 500 + n as u64);
        group.bench_with_input(BenchmarkId::from_parameter(n), &graph, |b, graph| {
            let mut rng = mathkit::rng::seeded(13);
            b.iter(|| reduce(graph, &ReductionOptions::default(), &mut rng).unwrap())
        });
    }
    group.finish();
}

fn bench_cooling_schedules(c: &mut Criterion) {
    let graph = bench_graph(40, 9);
    let mut group = c.benchmark_group("cooling_schedule_ablation_fig8");
    for (label, cooling) in [
        ("constant", CoolingSchedule::Constant(0.95)),
        ("adaptive", CoolingSchedule::Adaptive { base: 0.95 }),
    ] {
        let options = SaOptions {
            cooling,
            ..Default::default()
        };
        group.bench_function(label, |b| {
            let mut rng = mathkit::rng::seeded(17);
            b.iter(|| anneal_subgraph(&graph, 26, &options, &mut rng).unwrap())
        });
    }
    group.finish();
}

/// The PR-3 tentpole comparison: scoring one candidate swap by rebuilding
/// the induced subgraph (the pre-incremental hot loop) versus the
/// `SaState` incremental evaluator. Both score the same fixed batch of
/// proposals from the same state.
fn bench_move_eval_rebuild_vs_incremental(c: &mut Criterion) {
    let graph = bench_graph(60, 21);
    let k = 40;
    let target = average_node_degree(&graph);
    let mut rng = mathkit::rng::seeded(23);
    let initial = random_connected_subgraph(&graph, k, &mut rng).expect("samplable");
    let mut state = SaState::new(&graph, &initial.nodes, target, 10.0).expect("valid selection");
    let swaps: Vec<(usize, usize)> = (0..256)
        .map(|_| state.propose(&mut rng).expect("non-empty boundary"))
        .collect();

    let mut group = c.benchmark_group("sa_move_eval_rebuild_vs_incremental");
    group.bench_function("rebuild_per_move", |b| {
        let mut candidate = Vec::with_capacity(k);
        b.iter(|| {
            let mut acc = 0.0f64;
            for &(out, inn) in &swaps {
                candidate.clear();
                candidate.extend(initial.nodes.iter().copied().filter(|&u| u != out));
                candidate.push(inn);
                acc += rebuild_objective(&graph, &candidate, target, 10.0);
            }
            acc
        })
    });
    group.bench_function("incremental", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for &(out, inn) in &swaps {
                acc += state.evaluate_swap(out, inn);
            }
            acc
        })
    });
    group.finish();
}

/// The full `reduce` under the default options, warm-started (the floor
/// seeded from the degeneracy greedy, each later size from the previous
/// size's best subgraph at reduced temperature), versus the cold
/// re-anneal-per-size search (`warm_min_nodes: usize::MAX`), at the
/// Figure 18 graph sizes.
fn bench_reduce_warm_vs_cold(c: &mut Criterion) {
    let mut group = c.benchmark_group("reduce_warm_vs_cold");
    group.sample_size(10);
    for &n in &[20usize, 60, 120] {
        let graph = bench_graph(n, 700 + n as u64);
        let cold = ReductionOptions {
            warm_min_nodes: usize::MAX,
            ..Default::default()
        };
        for (label, options) in [("cold", cold), ("warm", ReductionOptions::default())] {
            group.bench_with_input(BenchmarkId::new(label, n), &graph, |b, graph| {
                let mut rng = mathkit::rng::seeded(29);
                b.iter(|| reduce(graph, &options, &mut rng).unwrap())
            });
        }
    }
    group.finish();
}

/// The old connectivity path the PR-7 rewrite replaced: a full BFS scan of
/// the candidate selection per evaluated swap. Kept here as the baseline arm
/// of `sa_connectivity_incremental_vs_scan`.
#[allow(clippy::too_many_arguments)]
fn scan_components(
    graph: &Graph,
    selection: &[usize],
    out: usize,
    inn: usize,
    visit: &mut [u64],
    epoch: &mut u64,
    queue: &mut Vec<usize>,
) -> usize {
    *epoch += 1;
    let member = |w: usize| w == inn || (w != out && selection.contains(&w));
    let mut components = 0usize;
    for start in selection.iter().copied().chain(std::iter::once(inn)) {
        if !member(start) || visit[start] == *epoch {
            continue;
        }
        components += 1;
        visit[start] = *epoch;
        queue.clear();
        queue.push(start);
        while let Some(u) = queue.pop() {
            for w in graph.neighbors(u) {
                if member(w) && visit[w] != *epoch {
                    visit[w] = *epoch;
                    queue.push(w);
                }
            }
        }
    }
    components
}

/// The PR-7 tentpole comparison: scoring the same fixed batch of candidate
/// swaps with the incremental connectivity (`SaState::evaluate_swap` — local
/// rules, union-find labels, and the word-parallel neighborhood shortcut)
/// versus the zero-alloc full-scan BFS the old evaluator ran per candidate.
fn bench_connectivity_incremental_vs_scan(c: &mut Criterion) {
    let graph = bench_graph(60, 33);
    let k = 40;
    let target = average_node_degree(&graph);
    let mut rng = mathkit::rng::seeded(37);
    let initial = random_connected_subgraph(&graph, k, &mut rng).expect("samplable");
    let mut state = SaState::new(&graph, &initial.nodes, target, 10.0).expect("valid selection");
    let swaps: Vec<(usize, usize)> = (0..256)
        .map(|_| state.propose(&mut rng).expect("non-empty boundary"))
        .collect();

    let mut group = c.benchmark_group("sa_connectivity_incremental_vs_scan");
    group.bench_function("full_scan", |b| {
        let mut visit = vec![0u64; graph.node_count()];
        let mut epoch = 0u64;
        let mut queue = Vec::with_capacity(k);
        b.iter(|| {
            let mut acc = 0usize;
            for &(out, inn) in &swaps {
                acc += scan_components(
                    &graph,
                    &initial.nodes,
                    out,
                    inn,
                    &mut visit,
                    &mut epoch,
                    &mut queue,
                );
            }
            acc
        })
    });
    group.bench_function("incremental", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for &(out, inn) in &swaps {
                acc += state.evaluate_swap(out, inn);
            }
            acc
        })
    });
    group.finish();
}

/// Micro-assert: after the scratch has seen each ladder size once, repeated
/// `resize_selection_with_scratch` calls allocate **exactly one** heap block
/// per call — the returned selection — and nothing else. The ladder repeats
/// the warm-up sizes verbatim, so every internal buffer (mask, degree cache,
/// CSR, Tarjan state, eviction heap) has already reached its high-water
/// capacity and any additional allocation is a regression of the scratch
/// hoisting.
fn assert_steady_state_resize_allocates_only_the_result() {
    const LADDER: [usize; 4] = [80, 40, 100, 60];
    let graph = bench_graph(120, 31);
    let full: Vec<usize> = (0..graph.node_count()).collect();
    let mut scratch = ResizeScratch::default();
    for &k in &LADDER {
        let _ = resize_selection_with_scratch(&graph, &full, k, &mut scratch)
            .expect("benchmark selection resizes");
    }

    let rounds = 16u64;
    let calls = rounds * LADDER.len() as u64;
    let before = ALLOC_COUNT.load(Ordering::Relaxed);
    let mut sink = 0usize;
    for _ in 0..rounds {
        for &k in &LADDER {
            let selection = resize_selection_with_scratch(&graph, &full, k, &mut scratch)
                .expect("benchmark selection resizes");
            sink += selection.len();
        }
    }
    let delta = ALLOC_COUNT.load(Ordering::Relaxed) - before;
    assert_eq!(
        delta, calls,
        "steady-state resize must allocate only its returned selection \
         (one allocation per call): {delta} allocations over {calls} calls"
    );
    assert_eq!(sink as u64, rounds * LADDER.iter().sum::<usize>() as u64);
    println!("resize steady state: {calls} calls, {delta} allocations (result vectors only)");
}

criterion_group!(
    benches,
    bench_sa_single_size,
    bench_full_reduction_fig18,
    bench_cooling_schedules,
    bench_move_eval_rebuild_vs_incremental,
    bench_connectivity_incremental_vs_scan,
    bench_reduce_warm_vs_cold
);

fn main() {
    assert_steady_state_resize_allocates_only_the_result();
    benches();
}
