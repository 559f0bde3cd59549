//! The exact-energy chooser inside `QaoaInstance`: at `p = 1` the closed
//! form over per-edge terms precomputed with the instance, at `p ≥ 2` the
//! half-state statevector.
//!
//! * The closed-form arm agrees with the statevector arm
//!   (`QaoaInstance::statevector_expectation_with`, the oracle) within
//!   `1e-12 · max(1, |E|)` on random graphs of up to 12 nodes, with
//!   triangles, isolated nodes and disconnected parts.
//! * Every `p = 1` exact path returns the same bits: `AutoEvaluator`
//!   (above the statevector node cutoff too), `StatevectorEvaluator`,
//!   `ScheduledCircuitEvaluator`, `AnalyticP1Evaluator`,
//!   `QaoaInstance::expectation` / `expectation_with` and
//!   `analytic_expectation_p1`. The engine's cross-mode landscape
//!   coalescing relies on that equality.
//!
//! At `p ≥ 2` the chooser is the statevector arm; the recorded 3-layer bits
//! in `tests/kernel_golden_values.rs` and the `p = 2` pins in
//! `tests/engine_api.rs` hold it there.

use graphlib::generators::{complete, connected_gnp, cycle, erdos_renyi_gnp, star};
use graphlib::Graph;
use mathkit::rng::seeded;
use proptest::prelude::*;
use qaoa::analytic::analytic_expectation_p1;
use qaoa::evaluator::{
    AnalyticP1Evaluator, AutoEvaluator, EnergyEvaluator, ScheduledCircuitEvaluator,
    StatevectorEvaluator,
};
use qaoa::expectation::QaoaInstance;
use qaoa::params::QaoaParams;
use qsim::statevector::StatevectorWorkspace;
use rand::Rng;

/// A `G(n, q)` graph that need not be connected, with `isolated` extra
/// isolated nodes; one edge is added if the draw has none.
fn loose_graph<R: Rng>(n: usize, isolated: usize, rng: &mut R) -> Graph {
    let q = rng.gen_range(0.1f64..0.9);
    let mut graph = erdos_renyi_gnp(n, q, rng)
        .expect("valid G(n, q)")
        .with_extra_nodes(isolated);
    if graph.edge_count() == 0 {
        graph.add_edge(0, 1).expect("n ≥ 2");
    }
    graph
}

/// Random angles, with `γ` (`corner == 1`), `β` (`corner == 2`) or both
/// (`corner == 3`) exactly zero.
fn p1_params<R: Rng>(corner: usize, rng: &mut R) -> QaoaParams {
    let mut gamma = rng.gen_range(-3.5f64..3.5);
    let mut beta = rng.gen_range(-3.5f64..3.5);
    if corner & 1 != 0 {
        gamma = 0.0;
    }
    if corner & 2 != 0 {
        beta = 0.0;
    }
    QaoaParams::new(vec![gamma], vec![beta]).expect("one layer")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The closed-form arm against the statevector arm on one instance.
    #[test]
    fn closed_form_arm_matches_the_statevector_arm(
        seed in 0u64..100_000,
        nodes in 2usize..=12,
        isolated in 0usize..=2,
        corner in 0usize..4,
    ) {
        let mut rng = seeded(seed);
        let isolated = isolated.min(nodes - 2);
        let graph = loose_graph(nodes - isolated, isolated, &mut rng);
        let instance = QaoaInstance::new(&graph, 1).unwrap();
        let mut workspace = StatevectorWorkspace::new();
        let tolerance = 1e-12 * (graph.edge_count() as f64).max(1.0);
        for _ in 0..4 {
            let params = p1_params(corner, &mut rng);
            let closed = instance.expectation_with(&mut workspace, &params);
            let oracle = instance.statevector_expectation_with(&mut workspace, &params);
            prop_assert!(
                (closed - oracle).abs() <= tolerance,
                "{graph}, {params:?}: closed form {closed} vs statevector {oracle}"
            );
        }
    }
}

/// Graphs on both sides of the statevector node cutoff, with triangles,
/// an isolated node and two components among them.
fn p1_graphs() -> Vec<Graph> {
    let mut rng = seeded(2218);
    let mut two_parts = Graph::from_edges(9, &[(0, 1), (1, 2), (2, 0), (5, 6), (6, 7)]).unwrap();
    two_parts.add_edge(7, 8).unwrap();
    vec![
        cycle(7).unwrap(),
        star(6).unwrap(),
        complete(6),
        two_parts,
        connected_gnp(12, 0.4, &mut rng)
            .unwrap()
            .with_extra_nodes(1),
        connected_gnp(14, 0.35, &mut rng).unwrap(),
        connected_gnp(18, 0.3, &mut rng).unwrap(),
    ]
}

#[test]
fn every_p1_exact_path_returns_the_closed_form_bits() {
    let mut rng = seeded(77);
    for graph in p1_graphs() {
        let instance = QaoaInstance::new(&graph, 1).unwrap();
        let auto = AutoEvaluator::new(&graph, 1).unwrap();
        assert!(matches!(auto, AutoEvaluator::Analytic(_)), "{graph}");
        let exact = StatevectorEvaluator::new(&graph, 1).unwrap();
        let scheduled = ScheduledCircuitEvaluator::new(&graph, 1).unwrap();
        let analytic = AnalyticP1Evaluator::new(&graph).unwrap();
        let (mut auto_scratch, mut exact_scratch, mut scheduled_scratch) =
            (auto.scratch(), exact.scratch(), scheduled.scratch());
        let mut workspace = StatevectorWorkspace::new();
        for corner in 0..4 {
            let params = p1_params(corner, &mut rng);
            let expected = instance.expectation(&params).to_bits();
            let readings = [
                (
                    "expectation_with",
                    instance.expectation_with(&mut workspace, &params),
                ),
                ("Auto", auto.energy(&mut auto_scratch, 0, &params)),
                ("Statevector", exact.energy(&mut exact_scratch, 1, &params)),
                (
                    "Scheduled",
                    scheduled.energy(&mut scheduled_scratch, 2, &params),
                ),
                ("AnalyticP1", analytic.energy(&mut (), 3, &params)),
                (
                    "analytic_expectation_p1",
                    analytic_expectation_p1(&graph, &params).unwrap(),
                ),
            ];
            for (path, value) in readings {
                assert_eq!(value.to_bits(), expected, "{path} on {graph}, {params:?}");
            }
        }
    }
}
