//! Regression tests of the warm-started reduction search (PR 4).
//!
//! Two guarantees are pinned here:
//!
//! 1. **Quality** — on a fixed seed set, warm-started and cold-started
//!    `reduce` both meet the AND-ratio threshold, and the warm search keeps
//!    (or improves) the achieved ratio while reducing at least as far.
//! 2. **Compatibility** — `WarmStart::Off` reproduces the cold search
//!    **bit for bit**. The expected values below were first recorded from
//!    the `reduce` that predates warm starts, and re-recorded once, when the
//!    search began annealing its size floor before any binary search (every
//!    seed still keeps 12 of 18 nodes at the same AND ratio; seeds 202 and
//!    404 keep another node set). If this test fails, the cold path changed
//!    behaviour, which is a breaking change to the determinism contract
//!    (`docs/determinism.md`), not a tuning tweak.

use graphlib::generators::connected_gnp;
use mathkit::rng::seeded;
use red_qaoa::annealing::resize_selection;
use red_qaoa::reduction::{
    reduce, ReductionOptions, WarmDecision, WarmStart, DEFAULT_AND_RATIO_THRESHOLD,
    WARM_START_AUTO_MIN_NODES,
};

/// The fixed seed set of the regression: 18-node graphs (above the
/// `WarmStart::Auto` cutoff, so `Auto` genuinely warm-starts them).
const SEEDS: [u64; 4] = [101, 202, 303, 404];

fn graph_for(seed: u64) -> graphlib::Graph {
    connected_gnp(18, 0.35, &mut seeded(seed)).unwrap()
}

fn reduce_with(seed: u64, warm_start: WarmStart) -> red_qaoa::reduction::ReducedGraph {
    let options = ReductionOptions {
        warm_start,
        ..Default::default()
    };
    reduce(&graph_for(seed), &options, &mut seeded(seed + 1)).unwrap()
}

#[test]
fn warm_and_cold_reductions_both_meet_the_and_threshold() {
    for seed in SEEDS {
        let cold = reduce_with(seed, WarmStart::Off);
        let warm = reduce_with(seed, WarmStart::On);
        assert!(
            cold.and_ratio >= DEFAULT_AND_RATIO_THRESHOLD - 1e-9,
            "seed {seed}: cold ratio {}",
            cold.and_ratio
        );
        assert!(
            warm.and_ratio >= DEFAULT_AND_RATIO_THRESHOLD - 1e-9,
            "seed {seed}: warm ratio {}",
            warm.and_ratio
        );
        // The warm search must not trade reduction depth for its speed: it
        // reduces at least as far as the cold search on every fixed seed.
        assert!(
            warm.graph().node_count() <= cold.graph().node_count(),
            "seed {seed}: warm kept {} nodes vs cold {}",
            warm.graph().node_count(),
            cold.graph().node_count()
        );
    }
}

#[test]
fn warm_start_off_reproduces_the_pre_warm_start_outputs_bitwise() {
    // (sorted subgraph nodes, and_ratio bits, node_reduction bits) of the
    // floor-first cold search.
    let expected: [(&[usize], u64, u64); 4] = [
        (
            &[0, 1, 2, 4, 5, 6, 7, 9, 10, 11, 14, 16],
            0x3fea0ea0ea0ea0ea,
            0x3fd5555555555556,
        ),
        (
            &[0, 1, 3, 4, 5, 6, 7, 8, 9, 12, 13, 15],
            0x3fee762762762763,
            0x3fd5555555555556,
        ),
        (
            &[2, 4, 5, 6, 7, 8, 9, 12, 14, 15, 16, 17],
            0x3fed555555555555,
            0x3fd5555555555556,
        ),
        (
            &[2, 3, 4, 5, 6, 8, 10, 11, 12, 13, 16, 17],
            0x3feea3677d46cefa,
            0x3fd5555555555556,
        ),
    ];
    for (seed, (nodes, ratio_bits, reduction_bits)) in SEEDS.into_iter().zip(expected) {
        let cold = reduce_with(seed, WarmStart::Off);
        let mut sorted = cold.subgraph.nodes.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, nodes, "seed {seed}: subgraph diverged");
        assert_eq!(
            cold.and_ratio.to_bits(),
            ratio_bits,
            "seed {seed}: AND ratio diverged"
        );
        assert_eq!(
            cold.node_reduction.to_bits(),
            reduction_bits,
            "seed {seed}: node reduction diverged"
        );
    }
}

#[test]
fn auto_policy_warm_starts_large_graphs_and_cold_starts_small_ones() {
    assert!(!WarmStart::Auto.enabled_for(WARM_START_AUTO_MIN_NODES - 1));
    assert!(WarmStart::Auto.enabled_for(WARM_START_AUTO_MIN_NODES));
    let with_policy = |warm_start| ReductionOptions {
        warm_start,
        ..Default::default()
    };
    // Below the cutoff, Auto and Off are the same search, bit for bit.
    let mut rng_a = seeded(7);
    let mut rng_b = seeded(7);
    let graph = connected_gnp(12, 0.4, &mut seeded(1)).unwrap();
    let auto = reduce(&graph, &with_policy(WarmStart::Auto), &mut rng_a).unwrap();
    let off = reduce(&graph, &with_policy(WarmStart::Off), &mut rng_b).unwrap();
    assert_eq!(auto, off);
    assert_eq!(auto.warm_decision, WarmDecision::Cold);
    // At or above it, Auto takes the warm path (same outputs as On).
    let large = graph_for(SEEDS[0]);
    let mut rng_auto = seeded(9);
    let mut rng_on = seeded(9);
    let auto = reduce(&large, &with_policy(WarmStart::Auto), &mut rng_auto).unwrap();
    let on = reduce(&large, &with_policy(WarmStart::On), &mut rng_on).unwrap();
    assert_eq!(auto, on);
    assert_eq!(auto.warm_decision, WarmDecision::Warm);
    // The gate is configurable: raising it above the graph size turns the
    // same Auto search cold.
    let gated = ReductionOptions::builder()
        .warm_start(WarmStart::Auto)
        .warm_auto_min_nodes(large.node_count() + 1)
        .build()
        .unwrap();
    assert!(!gated.warm_enabled_for(large.node_count()));
    let mut rng_gated = seeded(9);
    let cold = reduce(&large, &gated, &mut rng_gated).unwrap();
    assert_eq!(cold.warm_decision, WarmDecision::Cold);
}

#[test]
fn measured_default_decides_and_stays_deterministic() {
    // The default policy is Measured: on the pinned 18-node seeds it must
    // reach a decision (kept or reverted), meet the AND threshold, and be a
    // pure function of the seed. The size floor is three nodes, whose AND
    // (at most 2) misses 0.7 of these graphs', so the search always goes
    // past the floor to a second, measured size.
    for seed in SEEDS {
        let options = ReductionOptions {
            min_size: 3,
            min_size_fraction: 0.0,
            ..ReductionOptions::default()
        };
        assert_eq!(options.warm_start, WarmStart::Measured);
        let first = reduce(&graph_for(seed), &options, &mut seeded(seed + 1)).unwrap();
        let second = reduce(&graph_for(seed), &options, &mut seeded(seed + 1)).unwrap();
        assert_eq!(
            first, second,
            "seed {seed}: Measured reduce not deterministic"
        );
        assert!(
            matches!(
                first.warm_decision,
                WarmDecision::MeasuredKept | WarmDecision::MeasuredReverted
            ),
            "seed {seed}: decision {:?}",
            first.warm_decision
        );
        assert!(
            first.and_ratio >= DEFAULT_AND_RATIO_THRESHOLD - 1e-9,
            "seed {seed}: measured ratio {}",
            first.and_ratio
        );
    }
}

#[test]
fn resize_selection_shrinks_and_grows_deterministically() {
    let graph = connected_gnp(16, 0.35, &mut seeded(21)).unwrap();
    let seed: Vec<usize> = (0..12).collect();
    for k in [8usize, 12, 15] {
        let resized = resize_selection(&graph, &seed, k).unwrap();
        assert_eq!(resized.len(), k);
        let mut sorted = resized.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), k, "resize produced a duplicate node");
        // Pure function of (graph, seed, k): a second call is identical.
        assert_eq!(resized, resize_selection(&graph, &seed, k).unwrap());
    }
    // Shrinking a connected seed keeps it connected (cut vertices are
    // skipped by the greedy drop).
    let shrunk = resize_selection(&graph, &seed, 6).unwrap();
    let sub = graphlib::subgraph::induced_subgraph(&graph, &shrunk).unwrap();
    assert!(graphlib::traversal::is_connected(&sub.graph));
}
