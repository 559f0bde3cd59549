//! A 100-job mixed batch through one long-lived `Engine` — the
//! session-oriented service API of `red_qaoa::engine`.
//!
//! The batch deliberately repeats graphs (the "many users, same hot graphs"
//! scenario): 25 distinct graphs fan out as 100 jobs mixing reductions,
//! throughput estimates, and end-to-end optimization sessions with the
//! refine step (`OptimizeJob`). The engine anneals each
//! distinct (graph, options) pair once and serves every repeat from its
//! content-hash cache — asserted at the end via the hit/miss counters and by
//! comparing the repeated jobs' outputs bitwise.
//!
//! Run with: `cargo run --release --example engine_batch`

use graphlib::generators::connected_gnp;
use mathkit::rng::{derive_seed, seeded};
use red_qaoa::engine::{Engine, Job, OptimizeJob, ReduceJob, ThroughputJob};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One engine for the whole session: configuration validated once,
    // thread policy and reduction cache owned for its lifetime. threads(1)
    // only keeps the hit/miss counters asserted below exact — with more
    // workers, two jobs can race on the same key and both count a miss
    // (every job *result* is identical for any worker count).
    let engine = Engine::builder().threads(1).cache_capacity(512).build()?;

    // 25 distinct graphs, each submitted four times in different roles.
    let graphs: Vec<graphlib::Graph> = (0..25)
        .map(|i| connected_gnp(12, 0.4, &mut seeded(derive_seed(2026, i))).unwrap())
        .collect();
    let mut jobs: Vec<Job> = Vec::with_capacity(100);
    for graph in &graphs {
        jobs.push(Job::Reduce(ReduceJob::new(graph.clone())));
        jobs.push(Job::Throughput(ThroughputJob::new(graph.clone(), 27, 1)));
        jobs.push(Job::Throughput(ThroughputJob::new(graph.clone(), 65, 1)));
        jobs.push(Job::Optimize(
            OptimizeJob::new(graph.clone())
                .with_restarts(1)
                .with_max_iters(25)
                .with_refine_iters(10),
        ));
    }
    assert_eq!(jobs.len(), 100);

    let start = std::time::Instant::now();
    let results = engine.run_batch(&jobs, 42);
    let elapsed = start.elapsed();

    let ok = results.iter().filter(|r| r.is_ok()).count();
    let stats = engine.cache_stats();
    println!(
        "batch        : {} jobs in {:.1?} ({ok} ok)",
        jobs.len(),
        elapsed
    );
    println!(
        "cache        : {} misses (distinct reductions annealed), {} hits, {} entries",
        stats.misses, stats.hits, stats.entries
    );

    // Every distinct graph annealed exactly once; the other three roles of
    // each graph were cache hits.
    assert_eq!(stats.misses as usize, graphs.len(), "one anneal per graph");
    assert!(
        stats.hits as usize >= 3 * graphs.len(),
        "repeated graphs must hit the cache (got {} hits)",
        stats.hits
    );

    // The reduce job and the optimize job of the same graph share one
    // reduction, bit for bit.
    for i in 0..graphs.len() {
        let reduced = results[4 * i]
            .as_ref()
            .expect("reduce job succeeds")
            .as_reduced()
            .expect("typed output")
            .clone();
        let report = results[4 * i + 3]
            .as_ref()
            .expect("optimize job succeeds")
            .as_optimize()
            .expect("typed output");
        assert_eq!(reduced, report.reduction, "graph {i} re-annealed");
    }

    let mean_throughput_27: f64 = results
        .iter()
        .skip(1)
        .step_by(4)
        .filter_map(|r| r.as_ref().ok().and_then(|o| o.as_throughput()))
        .sum::<f64>()
        / graphs.len() as f64;
    println!("throughput   : mean {mean_throughput_27:.2}x on a 27-qubit device");
    println!("engine_batch : all cache assertions passed");
    Ok(())
}
