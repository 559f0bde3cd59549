//! Two-level batch scheduling: per-job cost estimation and selection of the
//! jobs that deserve their own inner-parallel lane.
//!
//! A flat fan-out (`parallel_map_indexed` over jobs) is optimal when jobs
//! are comparable, but a mixed batch with one huge [`LandscapeJob`] degrades
//! badly: the nested-region rule serializes that job's `width²`-point inner
//! scan onto a single worker while its siblings finish early and idle — the
//! batch's tail latency becomes one job's *serial* latency. The scheduler
//! fixes exactly that case: it estimates every job's cost, flags the few
//! clear outliers as **exclusive**, and hands the batch to
//! `mathkit::parallel::parallel_map_two_level`, which runs the outliers on
//! a dedicated lane where their *inner* scans may fan out across that
//! lane's workers, while the rest of the batch runs coarse job-level
//! parallelism on the remaining workers.
//!
//! **Determinism:** scheduling decides only *where and when* a job runs —
//! never what it computes. Job `i` still runs on `derive_seed(batch_seed,
//! i)` and reductions still run on content-derived substreams, so outputs
//! are bitwise-identical whether a job landed in the exclusive lane, the
//! coarse lane, or a serial fallback (see `docs/determinism.md`).

use super::jobs::Job;
use super::Engine;
use qaoa::optimize::paper_restarts;

/// Estimated relative cost of one job, in arbitrary-but-consistent units
/// (optimizer objective evaluations ≈ landscape grid points ≈ reduction
/// node-visits; exact scale only matters *between* jobs of one batch):
///
/// * reduce / throughput — node count (the SA anneal dominates);
/// * landscape — `width²` grid points (plus the reduction when
///   `reduce_first`);
/// * pipeline — `restarts × max_iters` for *both* noisy sessions (reduced +
///   baseline);
/// * optimize — `restarts × max_iters` for both sessions, plus
///   `refine_iters` for the refine step.
///
/// A landscape job that repeats an earlier scan of its batch is not
/// estimated: it runs nothing, so `Engine::run_batch` charges it `0`.
pub(super) fn estimate_cost(engine: &Engine, job: &Job) -> f64 {
    match job {
        Job::Reduce(job) => job.graph.node_count() as f64,
        Job::Throughput(job) => job.graph.node_count() as f64,
        Job::Landscape(job) => {
            let grid = (job.width * job.width) as f64;
            if job.reduce_first {
                grid + job.graph.node_count() as f64
            } else {
                grid
            }
        }
        Job::Pipeline(job) => {
            let options = job.options.as_ref().unwrap_or(engine.pipeline_options());
            (2 * options.optimize.restarts * options.optimize.max_iters) as f64
        }
        Job::Optimize(job) => {
            let restarts = job.restarts.unwrap_or_else(|| paper_restarts(job.layers));
            (2 * restarts * job.max_iters + job.refine_iters) as f64
        }
    }
}

/// Picks the batch indices that get the exclusive (inner-parallel) lane.
///
/// A job qualifies only when it is a clear outlier: its cost must exceed
/// both twice the batch mean (it dwarfs a typical sibling) and the batch's
/// ideal per-worker share `total / threads` (even a perfectly balanced
/// schedule could not hide it). At most `threads / 2` jobs (min 1) qualify
/// — the coarse lane must keep workers, or exclusivity just reinvents the
/// flat fan-out's imbalance in reverse. Among qualifiers the largest costs
/// win, ties broken by lower index.
///
/// Returns an empty set for serial runs (`threads <= 1`) and one-job
/// batches, where there is nothing to split. The selection is a pure
/// function of `(costs, threads)` — deterministic, but *allowed* to differ
/// across thread counts precisely because scheduling cannot affect outputs.
pub(super) fn exclusive_indices(costs: &[f64], threads: usize) -> Vec<usize> {
    if threads <= 1 || costs.len() <= 1 {
        return Vec::new();
    }
    let total: f64 = costs.iter().sum();
    let mean = total / costs.len() as f64;
    let threshold = (2.0 * mean).max(total / threads as f64);
    let mut outliers: Vec<usize> = (0..costs.len()).filter(|&i| costs[i] > threshold).collect();
    outliers.sort_by(|&a, &b| costs[b].total_cmp(&costs[a]).then(a.cmp(&b)));
    outliers.truncate((threads / 2).max(1));
    outliers.sort_unstable();
    outliers
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlib::generators::cycle;

    #[test]
    fn uniform_batches_have_no_outliers() {
        let costs = vec![10.0; 8];
        assert!(exclusive_indices(&costs, 4).is_empty());
    }

    #[test]
    fn a_dominant_job_is_selected() {
        let costs = vec![10.0, 10.0, 400.0, 10.0];
        assert_eq!(exclusive_indices(&costs, 4), vec![2]);
    }

    #[test]
    fn serial_and_singleton_batches_never_split() {
        assert!(exclusive_indices(&[10.0, 400.0], 1).is_empty());
        assert!(exclusive_indices(&[400.0], 4).is_empty());
        assert!(exclusive_indices(&[], 4).is_empty());
    }

    #[test]
    fn at_most_half_the_workers_go_exclusive() {
        // Two outliers, four threads: both fit under the threads/2 budget.
        let costs = vec![1.0, 1.0, 1.0, 1.0, 500.0, 600.0];
        assert_eq!(
            exclusive_indices(&costs, 4),
            vec![4, 5],
            "both outliers, in index order"
        );
        // Two threads: the budget is one lane — only the biggest goes.
        assert_eq!(exclusive_indices(&costs, 2), vec![5]);
    }

    #[test]
    fn threshold_requires_beating_the_per_worker_share() {
        // Cost 30 is > 2× the mean of {30, 1, 1, 1} (8.25) but a 2-thread
        // split could still hide it behind the others only if it were below
        // total/threads = 16.5 — it is not, so it qualifies.
        assert_eq!(exclusive_indices(&[30.0, 1.0, 1.0, 1.0], 2), vec![0]);
        // With costs {4, 3, 3, 3} nothing exceeds 2× mean: no outliers.
        assert!(exclusive_indices(&[4.0, 3.0, 3.0, 3.0], 2).is_empty());
    }

    #[test]
    fn session_costs_count_both_sessions_and_the_refine_step() {
        use super::super::{OptimizeJob, PipelineJob};
        use crate::pipeline::PipelineOptions;
        use qaoa::optimize::OptimizeOptions;
        let engine = Engine::builder().build().unwrap();
        let graph = cycle(8).unwrap();
        let optimize = OptimizeOptions {
            restarts: 3,
            max_iters: 40,
        };
        let options = PipelineOptions {
            optimize,
            ..Default::default()
        };
        let noisy = PipelineJob::new(graph.clone()).with_options(options);
        let session = OptimizeJob::new(graph).with_restarts(3).with_max_iters(40);
        let costs = [
            Job::Pipeline(noisy.noisy(4)),
            Job::Optimize(session.clone()),
            Job::Optimize(session.with_refine_iters(30)),
        ]
        .map(|job| estimate_cost(&engine, &job));
        assert_eq!(costs, [240.0, 240.0, 270.0]);
    }

    #[test]
    fn landscape_cost_scales_with_the_grid_not_the_graph() {
        use super::super::{Engine, LandscapeJob, ReduceJob};
        let engine = Engine::builder().build().unwrap();
        let graph = cycle(10).unwrap();
        let small = estimate_cost(
            &engine,
            &Job::Landscape(LandscapeJob::new(graph.clone(), 3)),
        );
        let large = estimate_cost(
            &engine,
            &Job::Landscape(LandscapeJob::new(graph.clone(), 24)),
        );
        assert_eq!(small, 9.0);
        assert_eq!(large, 576.0);
        let reduce = estimate_cost(&engine, &Job::Reduce(ReduceJob::new(graph)));
        assert_eq!(reduce, 10.0);
    }
}
