//! Golden-value regression tests for the statevector kernels.
//!
//! The differential suite (`tests/qsim_kernel_equivalence.rs`) proves the
//! scalar and vectorized kernels agree with *each other*; these tests pin
//! both to recorded constants so a future change that shifts either kernel
//! by a single ULP — a reassociated reduction, an FMA contraction, a
//! reordered butterfly — fails loudly instead of silently moving every
//! energy in the repo. The constants are `f64::to_bits` values recorded
//! from the PR that introduced the kernel split (same pattern as
//! `tests/warm_start_regression.rs`).
//!
//! The gate-level pins are asserted twice: through `StateVector` and
//! through the scalar oracle (`qsim::statevector::reference`) run on a raw
//! amplitude buffer. The pinned bits are the contract for both.

use graphlib::generators::{connected_gnp, cycle};
use graphlib::Graph;
use mathkit::rng::seeded;
use mathkit::Complex64;
use qaoa::depth::scheduled_qaoa_circuit;
use qaoa::evaluator::{EnergyEvaluator, ScheduledCircuitEvaluator, StatevectorEvaluator};
use qaoa::expectation::QaoaInstance;
use qaoa::params::QaoaParams;
use qsim::circuit::{Circuit, Gate};
use qsim::statevector::{reference, StateVector, StatevectorWorkspace};

/// A fixed 5-qubit circuit mixing every gate family the kernels implement.
fn pinned_circuit() -> Circuit {
    let mut c = Circuit::new(5);
    c.extend([
        Gate::H(0),
        Gate::Ry(1, 0.8),
        Gate::Cnot(0, 2),
        Gate::Rzz(1, 3, 0.9),
        Gate::Rx(4, -1.3),
        Gate::Cz(2, 4),
        Gate::T(3),
        Gate::Swap(0, 4),
        Gate::Rz(2, 2.2),
        Gate::H(3),
    ])
    .unwrap();
    c
}

/// The final amplitudes of `circuit` from `|0…0⟩`, computed by the scalar
/// oracle.
fn oracle_state(circuit: &Circuit) -> Vec<Complex64> {
    let mut amplitudes = StateVector::new(circuit.qubit_count())
        .amplitudes()
        .to_vec();
    reference::apply_circuit(&mut amplitudes, circuit);
    amplitudes
}

#[test]
fn expectation_zz_bits_are_pinned() {
    // ((a, b), recorded bits of expectation_zz(a, b)).
    let expected: [((usize, usize), u64); 4] = [
        ((0, 1), 0x3fc7daea0385bd10),
        ((1, 3), 0x0000000000000000),
        ((2, 4), 0x3ff0000000000002),
        ((0, 4), 0x3c90000000000000),
    ];
    let sv = StateVector::from_circuit(&pinned_circuit());
    let oracle = oracle_state(&pinned_circuit());
    for ((a, b), bits) in expected {
        for value in [
            sv.expectation_zz(a, b),
            reference::expectation_zz(&oracle, a, b),
        ] {
            assert_eq!(value.to_bits(), bits, "expectation_zz({a}, {b}) drifted");
        }
    }
}

#[test]
fn expectation_diagonal_and_norm_bits_are_pinned() {
    let sv = StateVector::from_circuit(&pinned_circuit());
    let oracle = oracle_state(&pinned_circuit());
    let values: Vec<f64> = (0..32).map(|i| (i as f64) * 0.25 - 3.5).collect();
    for value in [
        sv.expectation_diagonal(&values),
        reference::expectation_diagonal(&oracle, &values),
    ] {
        assert_eq!(
            value.to_bits(),
            0x3fc56ce74783d488,
            "expectation_diagonal drifted"
        );
    }
    for value in [sv.norm_sqr(), reference::norm_sqr(&oracle)] {
        assert_eq!(value.to_bits(), 0x3ff0000000000002, "norm_sqr drifted");
    }
}

/// Simulates the explicit depth-scheduled gate circuit — the round-major
/// `RZZ` sequence noisy depth-mode runs execute — and reads off the cut
/// expectation, through `StateVector` and through the scalar oracle.
fn scheduled_circuit_expectations(graph: &Graph, params: &QaoaParams) -> [f64; 2] {
    let instance = QaoaInstance::new(graph, params.layers())
        .unwrap()
        .with_depth_schedule();
    let schedule = instance.depth_schedule().unwrap();
    let circuit = scheduled_qaoa_circuit(schedule, params);
    let table = instance.cut_table();
    [
        StateVector::from_circuit(&circuit).expectation_diagonal(table),
        reference::expectation_diagonal(&oracle_state(&circuit), table),
    ]
}

#[test]
fn scheduled_circuit_expectation_bits_are_pinned() {
    // Depth-scheduled cost layers: the explicit round-major `RZZ` gate
    // sequence the greedy interaction scheduler emits, which the noisy
    // trajectory paths execute. The gate *order* is part of the
    // floating-point result there, so these pins lock the scheduler's round
    // assignment (lowest-index tie-breaks) as well as the kernels: a future
    // change to either moves these bits.
    let params = QaoaParams::new(vec![0.7], vec![0.4]).unwrap();
    let graphs = [
        ("cycle8", cycle(8).unwrap(), 0x4017e1572a7fa90eu64),
        (
            "gnp9",
            connected_gnp(9, 0.4, &mut seeded(77)).unwrap(),
            0x4022f538eb314ce2,
        ),
        (
            "gnp10",
            connected_gnp(10, 0.3, &mut seeded(78)).unwrap(),
            0x4021344352dcebab,
        ),
    ];
    for (name, graph, bits) in &graphs {
        for value in scheduled_circuit_expectations(graph, &params) {
            assert_eq!(
                value.to_bits(),
                *bits,
                "scheduled p=1 expectation on {name} drifted"
            );
        }
    }
}

#[test]
fn scheduled_three_layer_expectation_bits_are_pinned() {
    // Same contract at p = 3: every layer re-emits the scheduled rounds, so
    // these pins cover the round-major emission repeated across layers.
    let params = QaoaParams::new(vec![0.7, 0.35, 0.21], vec![0.4, 0.55, 0.13]).unwrap();
    let graphs = [
        ("cycle8", cycle(8).unwrap(), 0x400b4ae7159c05e1u64),
        (
            "gnp9",
            connected_gnp(9, 0.4, &mut seeded(77)).unwrap(),
            0x401cc9c3e16caa02,
        ),
    ];
    for (name, graph, bits) in &graphs {
        for value in scheduled_circuit_expectations(graph, &params) {
            assert_eq!(
                value.to_bits(),
                *bits,
                "scheduled p=3 expectation on {name} drifted"
            );
        }
    }
}

#[test]
fn scheduled_evaluator_matches_the_statevector_evaluator_bitwise() {
    // Scheduling cannot change an ideal expectation, so the depth-mode
    // evaluator takes the phase-table kernel and must agree with the
    // statevector evaluator bit for bit, on the pinned graphs at p = 1 and
    // p = 3.
    let points = [
        QaoaParams::new(vec![0.7], vec![0.4]).unwrap(),
        QaoaParams::new(vec![0.7, 0.35, 0.21], vec![0.4, 0.55, 0.13]).unwrap(),
    ];
    let graphs = [
        cycle(8).unwrap(),
        connected_gnp(9, 0.4, &mut seeded(77)).unwrap(),
        connected_gnp(10, 0.3, &mut seeded(78)).unwrap(),
    ];
    for params in &points {
        for graph in &graphs {
            let scheduled = ScheduledCircuitEvaluator::new(graph, params.layers()).unwrap();
            let exact = StatevectorEvaluator::new(graph, params.layers()).unwrap();
            assert_eq!(
                scheduled
                    .energy(&mut scheduled.scratch(), 0, params)
                    .to_bits(),
                exact.energy(&mut exact.scratch(), 0, params).to_bits(),
                "p={}",
                params.layers()
            );
        }
    }
}

#[test]
fn three_layer_qaoa_expectation_bits_are_pinned() {
    // Recorded `expectation_with` bits for a 3-layer ansatz on three fixed
    // graphs, all evaluated through one reused workspace (so this also pins
    // the evolve → phase-diagonal → expectation pipeline end to end).
    let params = QaoaParams::new(vec![0.7, 0.35, 0.21], vec![0.4, 0.55, 0.13]).unwrap();
    let graphs = [
        ("cycle8", cycle(8).unwrap(), 0x400b4ae7159c05e8u64),
        (
            "gnp9",
            connected_gnp(9, 0.4, &mut seeded(77)).unwrap(),
            0x401cc9c3e16caa13,
        ),
        (
            "gnp10",
            connected_gnp(10, 0.3, &mut seeded(78)).unwrap(),
            0x401a626396a20c92,
        ),
    ];
    let mut workspace = StatevectorWorkspace::new();
    for (name, graph, bits) in &graphs {
        let instance = QaoaInstance::new(graph, 3).unwrap();
        assert_eq!(
            instance.expectation_with(&mut workspace, &params).to_bits(),
            *bits,
            "3-layer expectation on {name} drifted"
        );
    }
}
