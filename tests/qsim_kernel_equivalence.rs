//! Differential kernel-oracle suite: the vectorized statevector kernels
//! must be **bitwise-identical** to the scalar reference kernels on random
//! circuits — same amplitude bits after every gate, same probability bits,
//! same reduction bits (`prob_one`, `norm_sqr`, `expectation_*`).
//!
//! Two layers of checking, neither touching any global state:
//!
//! * The module-level tests call `qsim::statevector::reference` and
//!   `qsim::statevector::vectorized` free functions directly on cloned
//!   amplitude buffers.
//! * The API-level test runs the same random circuit through `StateVector`
//!   and through the oracle's gate runner (`reference::apply_gate`), so the
//!   `StateVector` dispatch layer and the shared gate→matrix table
//!   (`Gate::single_qubit_unitary`) are covered end to end.
//!
//! The QAOA mixer layer (`StateVector::apply_rx_layer`, the structured
//! `vectorized::apply_rx` butterfly walked three qubits per pass) has a
//! slightly weaker, stated contract: amplitudes equal to the per-qubit
//! `Gate::Rx` loop under `==` (an exact zero may change sign), reductions
//! and QAOA energies bitwise equal. Its tests below check exactly that,
//! and that the grouped layer leaves the very amplitude bits of `n`
//! per-qubit `vectorized::apply_rx` passes.
//!
//! The QAOA cost layers (`StatevectorWorkspace::begin_cost_layer`, the
//! first layer folded into the uniform start, and `apply_cost_layer`) read
//! a `u8` cost table and gather one memoized phase per cost value; they
//! must leave the amplitude bits of `begin_uniform` plus `apply_diagonal`
//! with one `cis(-γ·C(z))` per entry.
//!
//! The `u8` cut tables themselves come from one O(2^n) doubling builder
//! (`qsim::statevector::cut_counts`, behind `qaoa::maxcut::cut_values`);
//! a proptest checks every entry against the per-state `cut_value` count
//! and a brute-force count over pairs given in either order.
//!
//! Why bitwise and not tolerance-based: the determinism contract
//! (`docs/determinism.md`) pins every result to exact bits across thread
//! counts, and the golden pins (`tests/kernel_golden_values.rs`) hold for
//! the oracle and the simulator alike. A single ULP of drift here would
//! silently invalidate every golden value downstream.

use graphlib::generators::{connected_gnp, erdos_renyi_gnp};
use mathkit::rng::seeded;
use mathkit::Complex64;
use proptest::prelude::*;
use qaoa::expectation::QaoaInstance;
use qaoa::maxcut::{cut_value, cut_values};
use qaoa::params::QaoaParams;
use qsim::circuit::Gate;
use qsim::statevector::{
    cut_counts, reference, vectorized, CostDiagonal, StateVector, StatevectorWorkspace,
};
use rand::Rng;

/// Samples one random gate over `n` qubits (single-qubit only when `n == 1`).
fn random_gate<R: Rng>(n: usize, rng: &mut R) -> Gate {
    let q = rng.gen_range(0..n);
    let angle = rng.gen_range(-3.5f64..6.5);
    let kinds = if n > 1 { 14 } else { 10 };
    match rng.gen_range(0..kinds) {
        0 => Gate::H(q),
        1 => Gate::X(q),
        2 => Gate::Y(q),
        3 => Gate::Z(q),
        4 => Gate::S(q),
        5 => Gate::Sdg(q),
        6 => Gate::T(q),
        7 => Gate::Rx(q, angle),
        8 => Gate::Ry(q, angle),
        9 => Gate::Rz(q, angle),
        two_qubit => {
            let mut r = rng.gen_range(0..n - 1);
            if r >= q {
                r += 1;
            }
            match two_qubit {
                10 => Gate::Cnot(q, r),
                11 => Gate::Cz(q, r),
                12 => Gate::Swap(q, r),
                _ => Gate::Rzz(q, r, angle),
            }
        }
    }
}

/// A random non-trivial starting state (random circuit from `|0…0⟩`), so the
/// kernels are exercised on dense complex amplitudes rather than the sparse
/// initial basis state.
fn random_state<R: Rng>(n: usize, gates: usize, rng: &mut R) -> StateVector {
    let mut sv = StateVector::uniform_superposition(n);
    for _ in 0..gates {
        sv.apply_gate(random_gate(n, rng));
    }
    sv
}

fn amplitude_bits(amplitudes: &[Complex64]) -> Vec<(u64, u64)> {
    amplitudes
        .iter()
        .map(|a| (a.re.to_bits(), a.im.to_bits()))
        .collect()
}

/// Component-wise `==`: `+0` and `-0` compare equal, every other value only
/// to itself. The mixer-layer contract promises exactly this much.
fn amplitudes_eq(a: &[Complex64], b: &[Complex64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.re == y.re && x.im == y.im)
}

/// A start state for the mixer differential: a dense random state
/// (`kind == 0`) or a sparse one with many exact-zero components
/// (`|0…0⟩` through a few `X`/`CNOT`/`H` gates), where a zero's sign is
/// what can differ.
fn mixer_start_state<R: Rng>(n: usize, kind: usize, rng: &mut R) -> StateVector {
    if kind == 0 {
        return random_state(n, 8, rng);
    }
    let mut sv = StateVector::new(n);
    for _ in 0..3 {
        let q = rng.gen_range(0..n);
        let gate = match rng.gen_range(0..3) {
            0 => Gate::X(q),
            1 if n > 1 => Gate::Cnot(q, (q + 1) % n),
            _ => Gate::H(q),
        };
        sv.apply_gate(gate);
    }
    sv
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Direct module differential: every gate kernel produces identical
    /// amplitude bits to its scalar oracle, checked after **every** gate of
    /// a random circuit, and every reduction produces identical result bits
    /// on the evolving state.
    #[test]
    fn vectorized_gates_match_scalar_oracle_bitwise(
        seed in 0u64..100_000,
        qubits in 1usize..=10,
        gate_count in 5usize..40,
    ) {
        let mut rng = seeded(seed);
        let mut scalar: Vec<Complex64> =
            random_state(qubits, 6, &mut rng).amplitudes().to_vec();
        let mut fast = scalar.clone();
        for step in 0..gate_count {
            let gate = random_gate(qubits, &mut rng);
            match gate {
                Gate::Cnot(c, t) => {
                    reference::apply_cnot(&mut scalar, c, t);
                    vectorized::apply_cnot(&mut fast, c, t);
                }
                Gate::Cz(a, b) => {
                    reference::apply_cz(&mut scalar, a, b);
                    vectorized::apply_cz(&mut fast, a, b);
                }
                Gate::Swap(a, b) => {
                    reference::apply_swap(&mut scalar, a, b);
                    vectorized::apply_swap(&mut fast, a, b);
                }
                Gate::Rzz(a, b, theta) => {
                    reference::apply_rzz(&mut scalar, a, b, theta);
                    vectorized::apply_rzz(&mut fast, a, b, theta);
                }
                single => {
                    let (target, u) = single.single_qubit_unitary().unwrap();
                    reference::apply_single(&mut scalar, target, u);
                    vectorized::apply_single(&mut fast, target, u);
                }
            }
            prop_assert!(
                amplitude_bits(&scalar) == amplitude_bits(&fast),
                "amplitudes diverged after gate {step} ({gate:?})"
            );
            prop_assert_eq!(
                reference::norm_sqr(&scalar).to_bits(),
                vectorized::norm_sqr(&fast).to_bits()
            );
            for q in 0..qubits {
                prop_assert_eq!(
                    reference::prob_one(&scalar, q).to_bits(),
                    vectorized::prob_one(&fast, q).to_bits()
                );
                prop_assert_eq!(
                    reference::expectation_z(&scalar, q).to_bits(),
                    vectorized::expectation_z(&fast, q).to_bits()
                );
            }
        }
    }

    /// Pairwise reductions and diagonals: `expectation_zz` over every qubit
    /// pair, `expectation_diagonal` and `apply_diagonal` over a random
    /// diagonal, bitwise-equal between the two modules.
    #[test]
    fn vectorized_reductions_match_scalar_oracle_bitwise(
        seed in 0u64..100_000,
        qubits in 2usize..=10,
    ) {
        let mut rng = seeded(seed);
        let scalar: Vec<Complex64> =
            random_state(qubits, 25, &mut rng).amplitudes().to_vec();
        let fast = scalar.clone();
        for a in 0..qubits {
            for b in 0..qubits {
                if a == b {
                    continue;
                }
                prop_assert!(
                    reference::expectation_zz(&scalar, a, b).to_bits()
                        == vectorized::expectation_zz(&fast, a, b).to_bits(),
                    "expectation_zz({a}, {b}) diverged"
                );
            }
        }
        let values: Vec<f64> = (0..scalar.len())
            .map(|_| rng.gen_range(-4.0f64..4.0))
            .collect();
        prop_assert_eq!(
            reference::expectation_diagonal(&scalar, &values).to_bits(),
            vectorized::expectation_diagonal(&fast, &values).to_bits()
        );
        let phases: Vec<Complex64> = values.iter().map(|&v| Complex64::cis(v)).collect();
        let mut scalar_d = scalar.clone();
        let mut fast_d = fast.clone();
        reference::apply_diagonal(&mut scalar_d, &phases);
        vectorized::apply_diagonal(&mut fast_d, &phases);
        prop_assert_eq!(amplitude_bits(&scalar_d), amplitude_bits(&fast_d));
    }

    /// API-level differential: the same random circuit executed through
    /// `StateVector::apply_gate` and through the scalar oracle's
    /// `reference::apply_gate` runner yields identical amplitude,
    /// probability and reduction bits (this exercises the `StateVector`
    /// dispatch layer, the shared gate→matrix table and the
    /// `probabilities` path on top of the raw kernels).
    #[test]
    fn statevector_api_matches_reference_runner_bitwise(
        seed in 0u64..100_000,
        qubits in 1usize..=8,
        gate_count in 5usize..30,
    ) {
        let mut rng = seeded(seed);
        let mut sv = StateVector::uniform_superposition(qubits);
        let mut oracle = sv.amplitudes().to_vec();
        for _ in 0..gate_count {
            let gate = random_gate(qubits, &mut rng);
            sv.apply_gate(gate);
            reference::apply_gate(&mut oracle, gate);
        }
        prop_assert_eq!(amplitude_bits(sv.amplitudes()), amplitude_bits(&oracle));
        let probs: Vec<u64> = sv.probabilities().iter().map(|p| p.to_bits()).collect();
        let oracle_probs: Vec<u64> = oracle.iter().map(|a| a.norm_sqr().to_bits()).collect();
        prop_assert_eq!(probs, oracle_probs);
        prop_assert_eq!(sv.norm_sqr().to_bits(), reference::norm_sqr(&oracle).to_bits());
        for q in 0..qubits {
            prop_assert_eq!(
                sv.expectation_z(q).to_bits(),
                reference::expectation_z(&oracle, q).to_bits()
            );
            prop_assert_eq!(
                sv.prob_one(q).to_bits(),
                reference::prob_one(&oracle, q).to_bits()
            );
            let r = (q + 1) % qubits;
            if r != q {
                prop_assert_eq!(
                    sv.expectation_zz(q, r).to_bits(),
                    reference::expectation_zz(&oracle, q, r).to_bits()
                );
            }
        }
        let values: Vec<f64> = (0..oracle.len()).map(|_| rng.gen_range(-4.0f64..4.0)).collect();
        prop_assert_eq!(
            sv.expectation_diagonal(&values).to_bits(),
            reference::expectation_diagonal(&oracle, &values).to_bits()
        );
    }

    /// The memoized cost layer on an arbitrary state:
    /// `StatevectorWorkspace::apply_cost_layer` gathers one `cis` per cost
    /// value of a `u8` table and must leave exactly the amplitude bits of
    /// the naive one-`cis`-per-entry diagonal. Tables cover cut-style
    /// tables with a random maximum, the cut table of a random graph, and
    /// tables reaching `u8::MAX`. Two layers run through one workspace so a
    /// memo left by the previous call (possibly with a larger maximum) is
    /// exercised too.
    #[test]
    fn memoized_phase_diagonal_matches_per_entry_cis_bitwise(
        seed in 0u64..100_000,
        qubits in 1usize..=10,
        kind in 0usize..3,
    ) {
        let mut rng = seeded(seed);
        let tables: Vec<CostDiagonal> =
            (0..2).map(|_| cost_table(qubits, kind, &mut rng)).collect();
        let gammas = [rng.gen_range(-3.5f64..6.5), rng.gen_range(-3.5f64..6.5)];
        let mut workspace = StatevectorWorkspace::new();
        workspace.begin_uniform(qubits);
        for _ in 0..12 {
            workspace.state_mut().apply_gate(random_gate(qubits, &mut rng));
        }
        let mut naive = workspace.state().clone();
        for (table, &gamma) in tables.iter().zip(&gammas) {
            workspace.apply_cost_layer(table, gamma);
            naive.apply_diagonal(&per_entry_phases(table, gamma));
        }
        prop_assert!(
            amplitude_bits(workspace.state().amplitudes()) == amplitude_bits(naive.amplitudes()),
            "memoized cost layer drifted"
        );
    }

    /// The `u8` cost layers of a p-layer evolution, p = 1..3: the first
    /// layer folded into the uniform start (`begin_cost_layer`) and the
    /// later ones (`apply_cost_layer`) against `begin_uniform` plus
    /// `apply_diagonal` with per-entry `cis(-γ·C(z))`, with the same mixer
    /// layer between them on both sides. Amplitude bits are compared after
    /// every cost layer.
    #[test]
    fn u8_cost_layers_match_per_entry_cis_bitwise(
        seed in 0u64..100_000,
        qubits in 1usize..=12,
        layers in 1usize..=3,
        kind in 0usize..3,
    ) {
        let mut rng = seeded(seed);
        let table = cost_table(qubits, kind, &mut rng);
        let mut workspace = StatevectorWorkspace::new();
        let mut naive = StateVector::uniform_superposition(qubits);
        for layer in 0..layers {
            let gamma = rng.gen_range(-3.5f64..6.5);
            let beta = rng.gen_range(-3.5f64..6.5);
            if layer == 0 {
                workspace.begin_cost_layer(qubits, &table, gamma);
            } else {
                workspace.apply_cost_layer(&table, gamma);
            }
            naive.apply_diagonal(&per_entry_phases(&table, gamma));
            prop_assert!(
                amplitude_bits(workspace.state().amplitudes()) == amplitude_bits(naive.amplitudes()),
                "cost layer {layer} of {layers} drifted"
            );
            workspace.state_mut().apply_rx_layer(2.0 * beta);
            naive.apply_rx_layer(2.0 * beta);
        }
    }
}

/// `cis(-γ·C(z))` for every entry of `table`, one call per entry.
fn per_entry_phases(table: &CostDiagonal, gamma: f64) -> Vec<Complex64> {
    table
        .values()
        .iter()
        .map(|&k| Complex64::cis(-gamma * f64::from(k)))
        .collect()
}

/// A random `u8` cost table over `qubits` qubits.
///
/// * `kind == 0`: values in `0..=max` for a random `max`, with `0` and
///   `max` both present — the shape of a MaxCut cut table.
/// * `kind == 1`: the cut table of a random connected graph (the `kind 0`
///   shape on one qubit, which has no edges).
/// * otherwise: the `kind 0` shape with `max = u8::MAX`, so every memo slot
///   is live.
fn cost_table<R: Rng>(qubits: usize, kind: usize, rng: &mut R) -> CostDiagonal {
    if kind == 1 && qubits > 1 {
        let graph = connected_gnp(qubits, 0.5, rng).unwrap();
        return CostDiagonal::new(cut_values(&graph).unwrap());
    }
    let dim = 1usize << qubits;
    let max = if kind == 2 {
        u8::MAX
    } else {
        rng.gen_range(0..=u8::MAX)
    };
    let mut values: Vec<u8> = (0..dim).map(|_| rng.gen_range(0..=max)).collect();
    values[0] = 0;
    values[dim - 1] = max;
    CostDiagonal::new(values)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The doubling cut-table builder gives every entry of the per-edge
    /// count: `cut_values` equals `cut_value` on every basis state of a
    /// random G(n, q) graph (isolated nodes and edgeless graphs included),
    /// and `cut_counts` on the same pairs in random orientation and order
    /// equals a brute-force count.
    #[test]
    fn doubling_cut_tables_match_the_per_edge_count(
        seed in 0u64..100_000,
        qubits in 1usize..=16,
        density in 0usize..4,
    ) {
        let mut rng = seeded(seed);
        let graph = erdos_renyi_gnp(qubits, [0.0, 0.2, 0.5, 0.9][density], &mut rng).unwrap();
        let table = cut_values(&graph).unwrap();
        prop_assert_eq!(table.len(), 1usize << qubits);
        for (z, &count) in table.iter().enumerate() {
            let direct = cut_value(&graph, z as u64);
            prop_assert!(usize::from(count) == direct, "state {z}: {count} vs {direct}");
        }

        let mut pairs: Vec<(usize, usize)> = graph.edges().collect();
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, rng.gen_range(0..=i));
        }
        for pair in pairs.iter_mut() {
            if rng.gen_range(0..2) == 1 {
                *pair = (pair.1, pair.0);
            }
        }
        let counts = cut_counts(qubits, &pairs);
        for (z, &count) in counts.iter().enumerate() {
            let brute = pairs.iter().filter(|&&(a, b)| (z >> a & 1) != (z >> b & 1)).count();
            prop_assert!(usize::from(count) == brute, "state {z}: {count} vs {brute}");
        }
    }
}

/// The mixer angles the differential covers: `0` (where `-sin(0/2)` is
/// `-0.0`), `±π/2`, `±π` (where `cos(θ/2)` is tiny but not zero), and one
/// random angle.
fn mixer_angles<R: Rng>(rng: &mut R) -> [f64; 6] {
    use std::f64::consts::{FRAC_PI_2, PI};
    [
        0.0,
        FRAC_PI_2,
        -FRAC_PI_2,
        PI,
        -PI,
        rng.gen_range(-3.5f64..6.5),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The structured mixer kernel against the generic butterfly, with no
    /// global state involved: `n` `vectorized::apply_rx` passes must equal
    /// `n` `reference::apply_single(Rx)` passes under `==` per component,
    /// and every reduction of the two states must be bitwise equal.
    #[test]
    fn rx_layer_matches_per_qubit_rx_gates(
        seed in 0u64..100_000,
        qubits in 1usize..=14,
        kind in 0usize..2,
    ) {
        let mut rng = seeded(seed);
        let start = mixer_start_state(qubits, kind, &mut rng);
        let values: Vec<f64> = (0..start.amplitudes().len())
            .map(|_| rng.gen_range(-4.0f64..4.0))
            .collect();
        for theta in mixer_angles(&mut rng) {
            let (_, u) = Gate::Rx(0, theta).single_qubit_unitary().unwrap();
            let mut gates = start.amplitudes().to_vec();
            let mut layer = gates.clone();
            for q in 0..qubits {
                reference::apply_single(&mut gates, q, u);
                vectorized::apply_rx(&mut layer, q, u[0][0].re, u[0][1].im);
            }
            prop_assert!(amplitudes_eq(&gates, &layer), "θ = {theta}: amplitudes differ");
            prop_assert_eq!(
                reference::norm_sqr(&gates).to_bits(),
                vectorized::norm_sqr(&layer).to_bits()
            );
            prop_assert_eq!(
                reference::expectation_diagonal(&gates, &values).to_bits(),
                vectorized::expectation_diagonal(&layer, &values).to_bits()
            );
            for q in 0..qubits {
                prop_assert_eq!(
                    reference::prob_one(&gates, q).to_bits(),
                    vectorized::prob_one(&layer, q).to_bits()
                );
                let r = (q + 1) % qubits;
                if r != q {
                    prop_assert_eq!(
                        reference::expectation_zz(&gates, q, r).to_bits(),
                        vectorized::expectation_zz(&layer, q, r).to_bits()
                    );
                }
            }
        }
    }

    /// The same contract through the `StateVector` API: `apply_rx_layer`
    /// equals the gate-by-gate `Gate::Rx` loop.
    #[test]
    fn apply_rx_layer_matches_gate_loop_through_the_api(
        seed in 0u64..100_000,
        qubits in 1usize..=10,
        kind in 0usize..2,
    ) {
        let mut rng = seeded(seed);
        let start = mixer_start_state(qubits, kind, &mut rng);
        for theta in mixer_angles(&mut rng) {
            let mut gates = start.clone();
            for q in 0..qubits {
                gates.apply_gate(Gate::Rx(q, theta));
            }
            let mut layer = start.clone();
            layer.apply_rx_layer(theta);
            prop_assert!(
                amplitudes_eq(gates.amplitudes(), layer.amplitudes()),
                "θ = {theta}: amplitudes differ"
            );
            prop_assert_eq!(gates.norm_sqr().to_bits(), layer.norm_sqr().to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The grouped mixer (three qubits per pass, then a two-qubit or
    /// one-qubit remainder) against `n` per-qubit `vectorized::apply_rx`
    /// passes: identical amplitude bits, not just `==`. Every case runs
    /// 1..=16 qubits, so every `n mod 3` and both remainder kernels are
    /// covered, at every mixer angle.
    #[test]
    fn grouped_rx_layer_matches_per_qubit_passes_bitwise(
        seed in 0u64..100_000,
        kind in 0usize..2,
    ) {
        let mut rng = seeded(seed);
        for qubits in 1..=16 {
            let start = mixer_start_state(qubits, kind, &mut rng);
            for theta in mixer_angles(&mut rng) {
                let (_, u) = Gate::Rx(0, theta).single_qubit_unitary().unwrap();
                let mut passes = start.amplitudes().to_vec();
                for q in 0..qubits {
                    vectorized::apply_rx(&mut passes, q, u[0][0].re, u[0][1].im);
                }
                let mut grouped = start.clone();
                grouped.apply_rx_layer(theta);
                prop_assert!(
                    amplitude_bits(grouped.amplitudes()) == amplitude_bits(&passes),
                    "{qubits} qubits, θ = {theta}: grouped mixer drifted"
                );
            }
        }
    }
}

/// The textbook QAOA evolution, gate by gate: uniform superposition, then
/// per layer one `cis(-γ·C(z))` per basis state and `Rx(2β)` on every
/// qubit; returns `⟨C⟩`.
fn gate_by_gate_energy(instance: &QaoaInstance, params: &QaoaParams) -> f64 {
    let qubits = instance.graph().node_count();
    let table = instance.cut_table();
    let mut sv = StateVector::uniform_superposition(qubits);
    for (gamma, beta) in params.gammas.iter().zip(&params.betas) {
        let phases: Vec<Complex64> = table
            .iter()
            .map(|&v| Complex64::cis(-gamma * f64::from(v)))
            .collect();
        sv.apply_diagonal(&phases);
        for q in 0..qubits {
            sv.apply_gate(Gate::Rx(q, 2.0 * beta));
        }
    }
    sv.expectation_diagonal(table)
}

/// `QaoaInstance::statevector_expectation_with` (`u8` cost-layer gathers
/// with the uniform start folded in + grouped structured mixer layer), the
/// statevector arm of the exact-energy chooser, is bitwise equal to the
/// gate-by-gate evolution for p = 1..3 on graphs up to 16 nodes, including
/// the grid corners where γ or β is 0.
#[test]
fn qaoa_energies_match_gate_by_gate_evolution_bitwise() {
    let mut rng = seeded(1406);
    for (n, p) in [(2, 1), (5, 2), (8, 3), (11, 1), (13, 2), (16, 1), (16, 3)] {
        let graph = connected_gnp(n, 0.4, &mut rng).unwrap();
        let instance = QaoaInstance::new(&graph, p).unwrap();
        let mut workspace = StatevectorWorkspace::new();
        let random: Vec<f64> = (0..4 * p).map(|_| rng.gen_range(-3.5f64..3.5)).collect();
        let (gammas, betas) = random.split_at(2 * p);
        let points = [
            (vec![0.0; p], vec![0.0; p]),
            (gammas[..p].to_vec(), vec![0.0; p]),
            (vec![0.0; p], betas[..p].to_vec()),
            (gammas[..p].to_vec(), betas[..p].to_vec()),
            (gammas[p..].to_vec(), betas[p..].to_vec()),
        ];
        for (g, b) in points {
            let params = QaoaParams::new(g, b).unwrap();
            let fast = instance.statevector_expectation_with(&mut workspace, &params);
            let reference = gate_by_gate_energy(&instance, &params);
            assert_eq!(
                fast.to_bits(),
                reference.to_bits(),
                "n = {n}, p = {p}, {params:?}: {fast} vs {reference}"
            );
        }
    }
}
