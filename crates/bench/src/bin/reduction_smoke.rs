//! CI perf smoke for the graph-reduction engine: SA moves/sec, the
//! incremental-vs-rebuild move-evaluation speedup, and `reduce_pool`
//! graphs/sec.
//!
//! Three measurements, all written to a `BENCH_reduction.json` record so the
//! repository's performance trajectory is tracked run-over-run:
//!
//! 1. **moves/sec** — full `anneal_subgraph` runs with a slow constant
//!    schedule, reported as Metropolis steps per second (every iteration is
//!    a genuine step; the annealer has no skipped moves).
//! 2. **move evaluation** — the same fixed batch of candidate swaps scored
//!    by the incremental `SaState` and by the old rebuild-per-move path
//!    (`induced_subgraph` + `average_node_degree` + `connected_components`).
//! 3. **resize** — steady-state `resize_selection_with_scratch` latency over
//!    a shrink/grow ladder on the largest Figure 18 graph (the warm binary
//!    search calls this once per candidate size above a failing floor).
//! 4. **graphs/sec** — `reduce_pool` over a pool of random graphs, run with
//!    one worker and with four; the two results must be bitwise-identical
//!    (the determinism contract of `mathkit::parallel`), and on a
//!    multi-core runner the 4-thread pass must actually be faster.
//! 5. **warm vs cold** — full `reduce` latency under the default options
//!    (every Figure 18 size is above the warm-start gate) versus
//!    `warm_min_nodes: usize::MAX` (cold) at the Figure 18 graph sizes,
//!    plus the warm search's decision per size (`warm` where it stopped at
//!    the size floor). Both searches anneal the floor first; there one warm
//!    run from the degeneracy seed replaces `sa_runs` cold restarts, and a
//!    cold floor that misses the AND ratio pays for the binary search above
//!    it. The warm search must beat gated speedup floors while achieving
//!    equal-or-better AND ratios.
//!
//! Every performance gate's outcome is recorded under `gates` (`null` where
//! it is skipped, e.g. the pool's thread-scaling gate on one core); the
//! record is written first, and a failed gate then fails the run. The
//! bitwise and AND-threshold checks still abort at once.
//!
//! Usage: `reduction_smoke [output.json]` (default `BENCH_reduction.json`).

use bench::{bench_graph, rebuild_objective};
use experiments::cli::{available_cores, write_smoke_record, Gates, Record};
use graphlib::metrics::average_node_degree;
use graphlib::subgraph::random_connected_subgraph;
use mathkit::parallel::with_threads;
use mathkit::rng::{derive_seed, seeded};
use red_qaoa::annealing::{
    anneal_subgraph, resize_selection_with_scratch, CoolingSchedule, ResizeScratch, SaOptions,
};
use red_qaoa::reduction::{
    reduce, reduce_pool, ReductionOptions, WarmDecision, DEFAULT_AND_RATIO_THRESHOLD,
};
use red_qaoa::sa_state::SaState;
use std::time::Instant;

const SA_NODES: usize = 48;
const SA_K: usize = 32;
const SA_RUNS: usize = 12;
const EVAL_SWAPS: usize = 512;
const EVAL_ROUNDS: usize = 200;
const POOL_GRAPHS: usize = 24;
const POOL_NODES: usize = 20;
/// Figure 18 graph sizes timed by the warm-vs-cold comparison.
const WARM_VS_COLD_SIZES: [usize; 4] = [20, 60, 120, 240];
/// Reduce repetitions per size (mean latency is reported).
const WARM_VS_COLD_REPS: usize = 5;
const SMOKE_SEED: u64 = 0x5A0C_2026;
/// Hard CI floor on the SA hot loop. An unloaded container measures
/// ~5.5M moves/sec since the bitset connectivity shortcut (PR 7), so this
/// only fires on a genuine hot-loop regression, not scheduler noise.
const SA_MOVES_PER_SEC_FLOOR: f64 = 2_500_000.0;
/// Hard CI floor on the warm-vs-cold geomean speedup (measured ~3.2×).
const WARM_GEOMEAN_FLOOR: f64 = 2.2;
/// Hard CI floor on the largest (240-node) row's speedup (measured ~2.2×).
const WARM_LARGEST_FLOOR: f64 = 1.6;
/// Resize ladder sizes exercised by the steady-state resize measurement.
const RESIZE_LADDER: [usize; 6] = [200, 120, 170, 60, 140, 80];

fn main() {
    let mut gates = Gates::default();

    // --- 1. SA hot loop: Metropolis steps per second. -----------------------
    let graph = bench_graph(SA_NODES, 7);
    let options = SaOptions {
        // A slow constant schedule keeps the move count high and independent
        // of the adaptive stagnation heuristics.
        cooling: CoolingSchedule::Constant(0.999),
        ..Default::default()
    };
    let start = Instant::now();
    let mut total_moves = 0usize;
    for run in 0..SA_RUNS {
        let mut rng = seeded(derive_seed(SMOKE_SEED, run as u64));
        let outcome =
            anneal_subgraph(&graph, SA_K, &options, &mut rng).expect("benchmark graph anneals");
        total_moves += outcome.iterations;
    }
    let anneal_secs = start.elapsed().as_secs_f64();
    let moves_per_sec = total_moves as f64 / anneal_secs;
    gates.check(
        "sa_moves_per_sec_ge_floor",
        moves_per_sec >= SA_MOVES_PER_SEC_FLOOR,
        format!(
            "SA hot loop regressed: {moves_per_sec:.0} moves/sec (floor {SA_MOVES_PER_SEC_FLOOR:.0})"
        ),
    );

    // --- 2. Move evaluation: incremental SaState vs rebuild-per-move. ------
    let target = average_node_degree(&graph);
    let mut rng = seeded(derive_seed(SMOKE_SEED, 100));
    let initial =
        random_connected_subgraph(&graph, SA_K, &mut rng).expect("benchmark subgraph samples");
    let mut state = SaState::new(&graph, &initial.nodes, target, 10.0).expect("valid selection");
    let swaps: Vec<(usize, usize)> = (0..EVAL_SWAPS)
        .map(|_| state.propose(&mut rng).expect("boundary is non-empty"))
        .collect();

    let start = Instant::now();
    let mut incremental_acc = 0.0f64;
    for _ in 0..EVAL_ROUNDS {
        for &(out, inn) in &swaps {
            incremental_acc += state.evaluate_swap(out, inn);
        }
    }
    let incremental_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut rebuild_acc = 0.0f64;
    let mut candidate = Vec::with_capacity(SA_K);
    for _ in 0..EVAL_ROUNDS {
        for &(out, inn) in &swaps {
            candidate.clear();
            candidate.extend(initial.nodes.iter().copied().filter(|&u| u != out));
            candidate.push(inn);
            rebuild_acc += rebuild_objective(&graph, &candidate, target, 10.0);
        }
    }
    let rebuild_secs = start.elapsed().as_secs_f64();
    assert!(
        (incremental_acc - rebuild_acc).abs() < 1e-6 * rebuild_acc.abs().max(1.0),
        "incremental evaluator diverged from the rebuild-per-move objective"
    );
    let evals = (EVAL_SWAPS * EVAL_ROUNDS) as f64;
    let incremental_evals_per_sec = evals / incremental_secs;
    let rebuild_evals_per_sec = evals / rebuild_secs;

    // --- 3. Steady-state resize latency (heap + one Tarjan pass/eviction). --
    let resize_graph = bench_graph(WARM_VS_COLD_SIZES[3], 2003);
    let mut scratch = ResizeScratch::default();
    let mut selection: Vec<usize> = (0..resize_graph.node_count()).collect();
    // Warm the scratch once so the measurement is the steady state the warm
    // search actually runs in.
    selection =
        resize_selection_with_scratch(&resize_graph, &selection, RESIZE_LADDER[0], &mut scratch)
            .expect("benchmark selection resizes");
    let start = Instant::now();
    let mut resize_calls = 0usize;
    for round in 0..20 {
        for &k in &RESIZE_LADDER[usize::from(round == 0)..] {
            selection = resize_selection_with_scratch(&resize_graph, &selection, k, &mut scratch)
                .expect("benchmark selection resizes");
            resize_calls += 1;
        }
    }
    // ~4 ms per call on an unloaded container (each ladder step moves ~90
    // nodes, one Tarjan pass per eviction); the ceiling catches a return to
    // the old per-candidate component recount (tens of ms) without flaking
    // on a loaded runner.
    let resize_ms = start.elapsed().as_secs_f64() * 1e3 / resize_calls as f64;
    gates.check(
        "resize_ms_lt_15",
        resize_ms < 15.0,
        format!(
            "resize_selection regressed: {resize_ms:.3} ms per call on a \
             {}-node graph (ceiling 15 ms)",
            resize_graph.node_count()
        ),
    );

    // --- 4. reduce_pool: graphs/sec + thread-count determinism. -------------
    let pool: Vec<graphlib::Graph> = (0..POOL_GRAPHS)
        .map(|i| bench_graph(POOL_NODES, 1000 + i as u64))
        .collect();
    let reduction_options = ReductionOptions::default();
    let start = Instant::now();
    let serial = with_threads(1, || reduce_pool(&pool, &reduction_options, SMOKE_SEED));
    let serial_secs = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let threaded = with_threads(4, || reduce_pool(&pool, &reduction_options, SMOKE_SEED));
    let threaded_secs = start.elapsed().as_secs_f64();
    let identical = serial.len() == threaded.len()
        && serial.iter().zip(&threaded).all(|(a, b)| match (a, b) {
            (Ok(a), Ok(b)) => {
                a.subgraph.nodes == b.subgraph.nodes
                    && a.and_ratio.to_bits() == b.and_ratio.to_bits()
                    && a.node_reduction.to_bits() == b.node_reduction.to_bits()
            }
            (Err(a), Err(b)) => a == b,
            _ => false,
        });
    assert!(
        identical,
        "parallel reduce_pool diverged from the serial reference"
    );
    let serial_gps = POOL_GRAPHS as f64 / serial_secs;
    let threaded_gps = POOL_GRAPHS as f64 / threaded_secs;
    let cores = available_cores();
    let pool_speedup = serial_secs / threaded_secs;
    // On a single hardware thread the 4-worker pool can only add overhead,
    // so the speedup gate is meaningless there; with real cores the pool
    // must at least not be slower than serial by more than noise.
    if cores > 1 {
        gates.check(
            "pool_speedup_4_threads_ge_1_05x",
            pool_speedup >= 1.05,
            format!(
                "4-thread reduce_pool is not faster than serial on a {cores}-core \
                 runner: speedup {pool_speedup:.3}"
            ),
        );
    } else {
        gates.skip("pool_speedup_4_threads_ge_1_05x");
    }

    // --- 5. Warm-started vs cold-started `reduce` at the Figure 18 sizes. ---
    let mut warm_vs_cold_rows = Vec::new();
    let mut lost_quality = Vec::new();
    let mut speedup_product = 1.0f64;
    for (s_idx, &n) in WARM_VS_COLD_SIZES.iter().enumerate() {
        let graph = bench_graph(n, 2000 + s_idx as u64);
        // The mean latency and AND ratio over the repetitions, and the last
        // repetition's warm decision.
        let timed = |warm_min_nodes: usize| {
            let options = ReductionOptions {
                warm_min_nodes,
                ..Default::default()
            };
            let start = Instant::now();
            let mut and_ratio_sum = 0.0f64;
            let mut decision = WarmDecision::Cold;
            for rep in 0..WARM_VS_COLD_REPS {
                let mut rng = seeded(derive_seed(SMOKE_SEED, 3000 + rep as u64));
                let reduced = reduce(&graph, &options, &mut rng).expect("benchmark graph reduces");
                and_ratio_sum += reduced.and_ratio;
                decision = reduced.warm_decision;
            }
            let ms = start.elapsed().as_secs_f64() * 1e3 / WARM_VS_COLD_REPS as f64;
            (ms, and_ratio_sum / WARM_VS_COLD_REPS as f64, decision)
        };
        let (cold_ms, cold_and, _) = timed(usize::MAX);
        let (warm_ms, warm_and, warm_decision) = timed(ReductionOptions::default().warm_min_nodes);
        let speedup = cold_ms / warm_ms;
        assert!(
            warm_and >= DEFAULT_AND_RATIO_THRESHOLD - 1e-9,
            "warm-started reduce missed the AND threshold at {n} nodes: {warm_and}"
        );
        assert!(
            cold_and >= DEFAULT_AND_RATIO_THRESHOLD - 1e-9,
            "cold-started reduce missed the AND threshold at {n} nodes: {cold_and}"
        );
        // The warm search may not buy its speed with quality: its mean AND
        // ratio must match or beat the cold search at every size.
        if warm_and < cold_and - 1e-9 {
            lost_quality.push(format!("{n} nodes: warm {warm_and} < cold {cold_and}"));
        }
        // The warm search's decision at this size, recorded so the perf
        // trajectory shows when the measured comparison reverts.
        let decision = match warm_decision {
            WarmDecision::Cold => "cold",
            WarmDecision::Warm => "warm",
            WarmDecision::MeasuredKept => "measured_kept",
            WarmDecision::MeasuredReverted => "measured_reverted",
        };
        speedup_product *= speedup;
        warm_vs_cold_rows.push(
            Record::new()
                .int("nodes", n)
                .fixed("cold_ms", cold_ms, 3)
                .fixed("warm_ms", warm_ms, 3)
                .fixed("speedup", speedup, 3)
                .fixed("cold_and_ratio", cold_and, 4)
                .fixed("warm_and_ratio", warm_and, 4)
                .str("measured_decision", decision),
        );
        if n == WARM_VS_COLD_SIZES[WARM_VS_COLD_SIZES.len() - 1] {
            gates.check(
                "warm_speedup_largest_ge_floor",
                speedup >= WARM_LARGEST_FLOOR,
                format!(
                    "warm-start speedup regressed at {n} nodes: {speedup:.3} \
                     (floor {WARM_LARGEST_FLOOR})"
                ),
            );
        }
    }
    gates.check(
        "warm_and_ratio_ge_cold",
        lost_quality.is_empty(),
        format!(
            "warm-started reduce lost AND quality at {}",
            lost_quality.join(", ")
        ),
    );
    let warm_speedup_geomean = speedup_product.powf(1.0 / WARM_VS_COLD_SIZES.len() as f64);
    // An unloaded container measures ~3.2× geomean since the degeneracy
    // first seed and the bitset connectivity shortcut (PR 7); the 2.2× floor
    // leaves room for scheduler noise while still catching any genuine
    // warm-path regression.
    gates.check(
        "warm_speedup_geomean_ge_floor",
        warm_speedup_geomean >= WARM_GEOMEAN_FLOOR,
        format!(
            "warm-start speedup regressed: {warm_speedup_geomean:.3} (floor {WARM_GEOMEAN_FLOOR})"
        ),
    );

    let record = Record::new()
        .int("sa_nodes", SA_NODES)
        .int("sa_subgraph_size", SA_K)
        .int("sa_runs", SA_RUNS)
        .int("sa_total_moves", total_moves)
        .fixed("sa_moves_per_sec", moves_per_sec, 2)
        .fixed("sa_moves_per_sec_floor", SA_MOVES_PER_SEC_FLOOR, 0)
        .int("move_evals", EVAL_SWAPS * EVAL_ROUNDS)
        .fixed("incremental_evals_per_sec", incremental_evals_per_sec, 2)
        .fixed("rebuild_evals_per_sec", rebuild_evals_per_sec, 2)
        .fixed(
            "incremental_speedup_vs_rebuild",
            incremental_evals_per_sec / rebuild_evals_per_sec,
            3,
        )
        .int("resize_graph_nodes", resize_graph.node_count())
        .int("resize_calls", resize_calls)
        .fixed("resize_ms", resize_ms, 4)
        .int("pool_graphs", POOL_GRAPHS)
        .int("pool_graph_nodes", POOL_NODES)
        .fixed("serial_graphs_per_sec", serial_gps, 3)
        .fixed("threads4_graphs_per_sec", threaded_gps, 3)
        .fixed("pool_speedup_4_threads", pool_speedup, 3)
        .bool("bitwise_identical", identical)
        .rows("warm_vs_cold", warm_vs_cold_rows)
        .int("warm_vs_cold_reps", WARM_VS_COLD_REPS)
        .fixed("warm_speedup_geomean", warm_speedup_geomean, 3)
        .fixed("warm_speedup_geomean_floor", WARM_GEOMEAN_FLOOR, 1)
        .fixed("warm_speedup_largest_floor", WARM_LARGEST_FLOOR, 1);
    write_smoke_record("BENCH_reduction.json", "reduction_smoke", record, gates);
}
