//! Regression tests of the warm-started reduction search (PR 4).
//!
//! Two guarantees are pinned here:
//!
//! 1. **Quality** — on a fixed seed set, warm-started and cold-started
//!    `reduce` both meet the AND-ratio threshold, and the warm search keeps
//!    (or improves) the achieved ratio while reducing at least as far.
//! 2. **Compatibility** — `warm_min_nodes: usize::MAX` (warm starts off for
//!    every graph) reproduces the cold search **bit for bit**. The expected values below were first recorded from
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
    reduce, ReducedGraph, ReductionOptions, WarmDecision, DEFAULT_AND_RATIO_THRESHOLD,
    WARM_START_MIN_NODES,
};

/// The fixed seed set of the regression: 18-node graphs (above the default
/// warm-start gate, so the default options genuinely warm-start them).
const SEEDS: [u64; 4] = [101, 202, 303, 404];

/// Warm starts off for every graph.
const COLD: usize = usize::MAX;

fn graph_for(seed: u64) -> graphlib::Graph {
    connected_gnp(18, 0.35, &mut seeded(seed)).unwrap()
}

fn reduce_with(seed: u64, warm_min_nodes: usize) -> ReducedGraph {
    let options = ReductionOptions {
        warm_min_nodes,
        ..Default::default()
    };
    reduce(&graph_for(seed), &options, &mut seeded(seed + 1)).unwrap()
}

#[test]
fn warm_and_cold_reductions_both_meet_the_and_threshold() {
    for seed in SEEDS {
        let cold = reduce_with(seed, COLD);
        let warm = reduce_with(seed, WARM_START_MIN_NODES);
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
        let cold = reduce_with(seed, COLD);
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
fn the_gate_warm_starts_large_graphs_and_cold_starts_small_ones() {
    let defaults = ReductionOptions::default();
    assert!(!defaults.warm_enabled_for(WARM_START_MIN_NODES - 1));
    assert!(defaults.warm_enabled_for(WARM_START_MIN_NODES));
    let gated = |warm_min_nodes| ReductionOptions {
        warm_min_nodes,
        ..Default::default()
    };
    // Below the gate, the default search is the cold one, bit for bit.
    let small = connected_gnp(12, 0.4, &mut seeded(1)).unwrap();
    let below = reduce(&small, &defaults, &mut seeded(7)).unwrap();
    assert_eq!(below, reduce(&small, &gated(COLD), &mut seeded(7)).unwrap());
    assert_eq!(below.warm_decision, WarmDecision::Cold);
    // At or above it the search warm-starts; raising the gate above the
    // graph size turns the same search cold, bit for bit.
    let large = graph_for(SEEDS[0]);
    let above = reduce(&large, &defaults, &mut seeded(9)).unwrap();
    assert_eq!(above.warm_decision, WarmDecision::Warm);
    let raised = ReductionOptions::builder()
        .warm_min_nodes(large.node_count() + 1)
        .build()
        .unwrap();
    let cold = reduce(&large, &raised, &mut seeded(9)).unwrap();
    assert_eq!(cold, reduce(&large, &gated(COLD), &mut seeded(9)).unwrap());
    assert_eq!(cold.warm_decision, WarmDecision::Cold);
}

#[test]
fn measured_default_decides_and_stays_deterministic() {
    // The default options warm-start and measure: on the pinned 18-node seeds it must
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
        assert!(options.warm_enabled_for(graph_for(seed).node_count()));
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
fn the_warm_cold_comparison_runs_once_per_search() {
    // A strict threshold over a low floor sends this 16-node search past
    // its floor through several warm-seeded sizes. The comparison on the
    // second size keeps warm seeding; re-measuring a later warm size would
    // revert and keep another node set.
    let options = ReductionOptions {
        and_ratio_threshold: 0.9,
        min_size_fraction: 0.3,
        sa_runs: 1,
        ..ReductionOptions::default()
    };
    let graph = connected_gnp(16, 0.2, &mut seeded(3016)).unwrap();
    let reduced = reduce(&graph, &options, &mut seeded(3)).unwrap();
    assert_eq!(reduced.warm_decision, WarmDecision::MeasuredKept);
    assert_eq!(reduced.subgraph.nodes, [2, 4, 5, 6, 14, 15]);
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
