//! Differential suite for the half-state QAOA evolution: every exact QAOA
//! reading taken from the half state must be **bitwise equal** to the same
//! reading of the full `2^n` state.
//!
//! A MaxCut cut table is bit-flip symmetric (`cut(z) = cut(z̄)`), so the
//! QAOA state is too, bit for bit, and the exact paths evolve only the
//! `2^(n−1)` amplitudes whose top qubit is clear
//! (`StatevectorWorkspace::begin_half_cost_layer`, `apply_half_cost_layer`,
//! `apply_half_rx_layer`); their readers (`HalfState`) unfold the other half
//! on the fly. The oracle is the full-state evolution the workspace keeps
//! for exactly this purpose: `begin_cost_layer` / `apply_cost_layer` and
//! `StateVector::apply_rx_layer`.
//!
//! Compared, with `to_bits` and no tolerance, for `n = 2..14` qubits
//! (odd and even counts, and `n ≤ 3`, whose readers take the lane-tail
//! path), `p = 1..3`, random angles and the corners `γ = 0` / `β = 0`
//! (which produce exact zeros, whose signs must match too):
//!
//! * every unfolded amplitude;
//! * `QaoaInstance::statevector_expectation_with` (the statevector arm of
//!   the exact-energy chooser) and `probabilities_into`;
//! * `⟨Z_a Z_b⟩` for every qubit pair;
//! * `EdgeLocalEvaluator::energy`, `edge_local_expectation` and
//!   `depth::factor::factored_edge_local_expectation`, against the same
//!   cone sums taken on full-state cones.

use graphlib::generators::connected_gnp;
use graphlib::subgraph::induced_subgraph;
use graphlib::traversal::nodes_within_distance_of_edge;
use graphlib::Graph;
use mathkit::rng::seeded;
use mathkit::Complex64;
use proptest::prelude::*;
use qaoa::depth::factor::factored_edge_local_expectation;
use qaoa::depth::{semi_symmetries, ZzTerm};
use qaoa::evaluator::{EdgeLocalEvaluator, EnergyEvaluator};
use qaoa::expectation::{edge_local_expectation, QaoaInstance};
use qaoa::maxcut::cut_values;
use qaoa::params::QaoaParams;
use qsim::statevector::{CostDiagonal, StateVector, StatevectorWorkspace};
use rand::Rng;

/// The full-state oracle: the uniform start folded into the first cost
/// layer, later cost layers, and the structured mixer layer, all on the
/// workspace's full `2^n` state.
fn full_state<'w>(
    workspace: &'w mut StatevectorWorkspace,
    qubits: usize,
    cost: &CostDiagonal,
    params: &QaoaParams,
) -> &'w StateVector {
    for (layer, (gamma, beta)) in params.gammas.iter().zip(&params.betas).enumerate() {
        if layer == 0 {
            workspace.begin_cost_layer(qubits, cost, *gamma);
        } else {
            workspace.apply_cost_layer(cost, *gamma);
        }
        workspace.state_mut().apply_rx_layer(2.0 * beta);
    }
    workspace.state()
}

/// The half-state evolution through the public workspace API.
fn evolve_half(
    workspace: &mut StatevectorWorkspace,
    qubits: usize,
    cost: &CostDiagonal,
    params: &QaoaParams,
) {
    for (layer, (gamma, beta)) in params.gammas.iter().zip(&params.betas).enumerate() {
        if layer == 0 {
            workspace.begin_half_cost_layer(qubits, cost, *gamma);
        } else {
            workspace.apply_half_cost_layer(cost, *gamma);
        }
        workspace.apply_half_rx_layer(2.0 * beta);
    }
}

/// `p` layers of random angles, with every `γ` (`corner == 1`), every `β`
/// (`corner == 2`) or both (`corner == 3`) set to exactly zero.
fn corner_params<R: Rng>(p: usize, corner: usize, rng: &mut R) -> QaoaParams {
    let mut gammas: Vec<f64> = (0..p).map(|_| rng.gen_range(-3.5f64..3.5)).collect();
    let mut betas: Vec<f64> = (0..p).map(|_| rng.gen_range(-3.5f64..3.5)).collect();
    if corner & 1 != 0 {
        gammas.fill(0.0);
    }
    if corner & 2 != 0 {
        betas.fill(0.0);
    }
    QaoaParams::new(gammas, betas).expect("p ≥ 1 layers")
}

fn random_graph<R: Rng>(n: usize, rng: &mut R) -> Graph {
    let q = rng.gen_range(0.25f64..0.75);
    connected_gnp(n, q, rng).expect("connected graph")
}

fn amplitude_bits(amplitudes: &[Complex64]) -> Vec<(u64, u64)> {
    amplitudes
        .iter()
        .map(|a| (a.re.to_bits(), a.im.to_bits()))
        .collect()
}

fn float_bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The edge light cone of `(u, v)` at depth `p`: the qubit count, its cut
/// table and the local endpoints.
fn cone(graph: &Graph, u: usize, v: usize, p: usize) -> (usize, CostDiagonal, usize, usize) {
    let nodes = nodes_within_distance_of_edge(graph, u, v, p);
    let sub = induced_subgraph(graph, &nodes).expect("nodes are in range");
    let local_u = sub.nodes.binary_search(&u).expect("u in cone");
    let local_v = sub.nodes.binary_search(&v).expect("v in cone");
    let table = CostDiagonal::new(cut_values(&sub.graph).expect("cone is simulable"));
    (sub.graph.node_count(), table, local_u, local_v)
}

/// `(1 − ⟨Z_u Z_v⟩)/2` of the edge's cone, on the full-state oracle.
fn full_cone_term(
    workspace: &mut StatevectorWorkspace,
    graph: &Graph,
    (u, v): (usize, usize),
    params: &QaoaParams,
) -> f64 {
    let (qubits, table, local_u, local_v) = cone(graph, u, v, params.layers());
    let state = full_state(workspace, qubits, &table, params);
    0.5 * (1.0 - state.expectation_zz(local_u, local_v))
}

/// The edge-local energy summed over the edges in `Graph::edges` order,
/// each cone on the full-state oracle.
fn full_edge_local(graph: &Graph, params: &QaoaParams) -> f64 {
    let mut workspace = StatevectorWorkspace::new();
    let mut total = 0.0;
    for edge in graph.edges() {
        total += full_cone_term(&mut workspace, graph, edge, params);
    }
    total
}

/// The semi-symmetry-factored energy — one cone per class, scaled by the
/// class size, in class order — on the full-state oracle.
fn full_factored(graph: &Graph, params: &QaoaParams) -> f64 {
    let terms: Vec<ZzTerm> = graph
        .edges()
        .into_iter()
        .map(|(u, v)| ZzTerm::new(u, v, 1.0))
        .collect();
    let symmetry = semi_symmetries(graph.node_count(), &terms);
    let mut workspace = StatevectorWorkspace::new();
    let mut total = 0.0;
    for class in &symmetry.classes {
        let rep = &terms[class.representative];
        let term = full_cone_term(&mut workspace, graph, (rep.u, rep.v), params);
        total += class.multiplicity() as f64 * term;
    }
    total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The half state against the full state on one instance: unfolded
    /// amplitudes, the energy, the distribution and every `⟨Z_a Z_b⟩`.
    #[test]
    fn half_state_readings_match_the_full_state_bitwise(
        seed in 0u64..100_000,
        qubits in 2usize..=14,
        layers in 1usize..=3,
        corner in 0usize..4,
    ) {
        let mut rng = seeded(seed);
        let graph = random_graph(qubits, &mut rng);
        let params = corner_params(layers, corner, &mut rng);
        let instance = QaoaInstance::new(&graph, layers).unwrap();
        let cost = CostDiagonal::new(instance.cut_table().to_vec());
        prop_assert!(cost.is_bit_flip_symmetric());

        let mut oracle_workspace = StatevectorWorkspace::new();
        let full = full_state(&mut oracle_workspace, qubits, &cost, &params).clone();
        let mut workspace = StatevectorWorkspace::new();
        evolve_half(&mut workspace, qubits, &cost, &params);
        let half = workspace.half_state();
        prop_assert!(
            amplitude_bits(half.to_state_vector().amplitudes())
                == amplitude_bits(full.amplitudes()),
            "n = {qubits}, {params:?}: unfolded amplitudes drifted"
        );
        for a in 0..qubits {
            for b in 0..qubits {
                prop_assert_eq!(
                    half.expectation_zz(a, b).to_bits(),
                    full.expectation_zz(a, b).to_bits()
                );
            }
        }

        let energy = instance.statevector_expectation_with(&mut workspace, &params);
        prop_assert!(
            energy.to_bits() == full.expectation_diagonal(cost.values()).to_bits(),
            "n = {qubits}, {params:?}: energy drifted"
        );
        let mut probabilities = Vec::new();
        instance.probabilities_into(&mut workspace, &params, &mut probabilities);
        prop_assert!(
            float_bits(&probabilities) == float_bits(&full.probabilities()),
            "n = {qubits}, {params:?}: probabilities drifted"
        );
    }

    /// The cone-based backends (edge-local evaluator and free function,
    /// semi-symmetry factoring) against the same cone sums on full-state
    /// cones.
    #[test]
    fn cone_backends_match_full_state_cones_bitwise(
        seed in 0u64..100_000,
        qubits in 2usize..=14,
        layers in 1usize..=3,
        corner in 0usize..4,
    ) {
        let mut rng = seeded(seed);
        let graph = random_graph(qubits, &mut rng);
        let params = corner_params(layers, corner, &mut rng);
        let edge_local = full_edge_local(&graph, &params);

        let evaluator = EdgeLocalEvaluator::new(&graph, layers).unwrap();
        let mut scratch = evaluator.scratch();
        prop_assert!(
            evaluator.energy(&mut scratch, 0, &params).to_bits() == edge_local.to_bits(),
            "n = {qubits}, {params:?}: EdgeLocalEvaluator drifted"
        );
        prop_assert_eq!(
            edge_local_expectation(&graph, &params).unwrap().to_bits(),
            edge_local.to_bits()
        );
        let factored = factored_edge_local_expectation(&graph, &params).unwrap();
        prop_assert!(
            factored.to_bits() == full_factored(&graph, &params).to_bits(),
            "n = {qubits}, {params:?}: factored energy drifted"
        );
    }
}

/// One qubit is the degenerate half: a single slot that the top-qubit
/// butterfly pairs with itself.
#[test]
fn one_qubit_half_state_matches_the_full_state() {
    let cost = CostDiagonal::new(vec![0, 0]);
    assert!(cost.is_bit_flip_symmetric());
    for (gamma, beta) in [(0.0, 0.0), (0.7, -1.3), (2.1, 0.0), (0.0, 0.4)] {
        let params = QaoaParams::new(vec![gamma, 0.3], vec![beta, -0.8]).unwrap();
        let mut oracle = StatevectorWorkspace::new();
        let full = full_state(&mut oracle, 1, &cost, &params).clone();
        let mut workspace = StatevectorWorkspace::new();
        evolve_half(&mut workspace, 1, &cost, &params);
        let half = workspace.half_state();
        assert_eq!(
            amplitude_bits(half.to_state_vector().amplitudes()),
            amplitude_bits(full.amplitudes())
        );
        assert_eq!(
            half.expectation_diagonal(cost.values()).to_bits(),
            full.expectation_diagonal(cost.values()).to_bits()
        );
    }
}

/// Only a bit-flip-symmetric table of `2^n ≥ 2` entries may drive the half
/// state: an asymmetric one would silently give a wrong state.
#[test]
fn asymmetric_tables_are_refused_by_the_half_state() {
    assert!(!CostDiagonal::new(vec![0, 1, 1, 1]).is_bit_flip_symmetric());
    assert!(!CostDiagonal::new(vec![0, 1, 1]).is_bit_flip_symmetric());
    assert!(!CostDiagonal::new(vec![3]).is_bit_flip_symmetric());
    assert!(CostDiagonal::new(vec![0, 1, 1, 0]).is_bit_flip_symmetric());
    let refused = std::panic::catch_unwind(|| {
        let mut workspace = StatevectorWorkspace::new();
        workspace.begin_half_cost_layer(2, &CostDiagonal::new(vec![0, 1, 1, 1]), 0.5);
    });
    assert!(refused.is_err());
}
