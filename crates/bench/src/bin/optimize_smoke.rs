//! CI perf smoke for the engine's end-to-end optimization sessions
//! (`OptimizeJob`): the paper's actual workload — optimize on the reduced
//! graph, re-score on the full graph — measured against the full-graph
//! baseline the job runs internally.
//!
//! Three properties are gated as CI tripwires:
//!
//! 1. **Quality**: the reduced path's best transferred value reaches at
//!    least 0.95× the baseline's best (the paper reports ≈ 1.0; the bound
//!    leaves slack for the scaled-down protocol),
//! 2. **Cost**: under the exact-simulation cost model (one evaluation on a
//!    k-node graph costs 2^k), the reduced path's full-graph-equivalent
//!    evaluation cost is strictly below the baseline's,
//! 3. **Early stopping**: an [`qaoa::optimize::OptimizeDriver`] with a
//!    target value stops with no more evaluations than the uncapped
//!    session.
//!
//! Results are written to `BENCH_optimize.json`: per-session latency, the
//! reduced-vs-baseline ratio, the cost ratio, evaluations-to-target, and
//! each gate's outcome under `gates`. A failed gate fails the run after the
//! record is written.
//!
//! Usage: `optimize_smoke [output.json]` (default `BENCH_optimize.json`).

use bench::bench_graph;
use experiments::cli::{write_smoke_record, Gates, Record};
use qaoa::evaluator::StatevectorEvaluator;
use qaoa::optimize::{NelderMeadOptimizer, OptimizeDriver};
use red_qaoa::engine::{Engine, Job, OptimizeJob};
use std::time::Instant;

/// Distinct graphs in the session pool.
const GRAPHS: usize = 6;
/// Nodes per pooled graph (brute-forceable: every session gets a ground
/// truth and exact approximation ratios).
const NODES: usize = 12;
/// Restarts per session (both the reduced and the baseline side).
const RESTARTS: usize = 3;
/// Iteration budget per restart.
const MAX_ITERS: usize = 80;
/// Quality gate: reduced best must reach this fraction of the baseline best.
const MIN_RELATIVE_BEST: f64 = 0.95;
/// Early-stop experiment: stop once this fraction of the session's own
/// baseline best is reached.
const TARGET_FRACTION: f64 = 0.95;
const SMOKE_SEED: u64 = 0xE61E_2027;

fn main() {
    let mut gates = Gates::default();

    // One worker keeps the latency numbers comparable run to run on the
    // 1-core CI container; results are thread-count invariant regardless.
    let engine = Engine::builder()
        .threads(1)
        .build()
        .expect("default engine config");
    let graphs: Vec<graphlib::Graph> = (0..GRAPHS)
        .map(|i| bench_graph(NODES, 5000 + i as u64))
        .collect();
    let jobs: Vec<Job> = graphs
        .iter()
        .map(|graph| {
            Job::Optimize(
                OptimizeJob::new(graph.clone())
                    .with_restarts(RESTARTS)
                    .with_max_iters(MAX_ITERS),
            )
        })
        .collect();

    let start = Instant::now();
    let results = engine.run_batch(&jobs, SMOKE_SEED);
    let batch_secs = start.elapsed().as_secs_f64();
    let reports: Vec<_> = results
        .iter()
        .map(|r| {
            r.as_ref()
                .expect("smoke sessions must succeed")
                .as_optimize()
                .expect("optimize jobs")
        })
        .collect();

    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let ratios: Vec<f64> = reports.iter().map(|r| r.relative_best()).collect();
    let cost_ratios: Vec<f64> = reports.iter().map(|r| r.cost_ratio).collect();
    let approx_ratios: Vec<f64> = reports
        .iter()
        .map(|r| r.approximation_ratio().expect("12-node ground truth"))
        .collect();
    let mean_ratio = mean(&ratios);
    let min_ratio = ratios.iter().copied().fold(f64::INFINITY, f64::min);
    let mean_cost = mean(&cost_ratios);
    let reduced_evals = mean(
        &reports
            .iter()
            .map(|r| r.reduced_evaluations as f64)
            .collect::<Vec<_>>(),
    );
    let baseline_evals = mean(
        &reports
            .iter()
            .map(|r| r.baseline_evaluations as f64)
            .collect::<Vec<_>>(),
    );

    gates.check(
        "mean_reduced_vs_baseline_ratio_ge_0_95",
        mean_ratio >= MIN_RELATIVE_BEST,
        format!(
            "reduced-graph optimization regressed: mean reduced/baseline ratio \
             {mean_ratio:.4} < {MIN_RELATIVE_BEST} (per-graph: {ratios:?})"
        ),
    );
    gates.check(
        "mean_cost_ratio_lt_1",
        mean_cost < 1.0,
        format!(
            "the reduced path must cost fewer full-graph-equivalent evaluations \
             than the baseline (mean cost ratio {mean_cost:.4})"
        ),
    );

    // --- Evaluations-to-target: the driver's early stopping. ----------------
    // On the first graph, re-run the baseline session with a target of 95%
    // of its own (known) best: the driver must stop at or before the
    // uncapped session's evaluation count.
    let first = reports[0];
    let target = TARGET_FRACTION * first.transfer.native.best_value;
    let evaluator = StatevectorEvaluator::new(&graphs[0], 1).expect("12-node statevector");
    let capped = OptimizeDriver::new(NelderMeadOptimizer::default(), RESTARTS, MAX_ITERS)
        .target_value(target)
        .maximize(&evaluator, &mut mathkit::rng::seeded(SMOKE_SEED))
        .expect("capped session");
    let evaluations_to_target = capped.evaluations;
    gates.check(
        "capped_session_reaches_target",
        capped.best_value >= target,
        format!(
            "the capped session must reach its target ({} < {target})",
            capped.best_value
        ),
    );
    gates.check(
        "evaluations_to_target_le_1_5x_baseline",
        evaluations_to_target as f64 <= baseline_evals * 1.5,
        format!(
            "early stopping must not cost more than the uncapped sessions \
             ({evaluations_to_target} vs mean {baseline_evals:.0})"
        ),
    );

    let record = Record::new()
        .int("pool_graphs", GRAPHS)
        .int("pool_graph_nodes", NODES)
        .int("restarts", RESTARTS)
        .int("max_iters", MAX_ITERS)
        .fixed("batch_ms", batch_secs * 1e3, 3)
        .fixed("mean_session_ms", batch_secs * 1e3 / GRAPHS as f64, 3)
        .fixed("mean_reduced_vs_baseline_ratio", mean_ratio, 4)
        .fixed("min_reduced_vs_baseline_ratio", min_ratio, 4)
        .fixed("mean_approximation_ratio", mean(&approx_ratios), 4)
        .fixed("mean_cost_ratio", mean_cost, 4)
        .fixed("mean_reduced_evaluations", reduced_evals, 1)
        .fixed("mean_baseline_evaluations", baseline_evals, 1)
        .fixed("target_fraction", TARGET_FRACTION, 2)
        .int("evaluations_to_target", evaluations_to_target);
    write_smoke_record("BENCH_optimize.json", "optimize_smoke", record, gates);
}
