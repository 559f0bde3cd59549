//! Qubit routing for sparse coupling maps.
//!
//! The paper transpiles circuits with SABRE and keeps the shortest of 100
//! repetitions. SABRE itself is a look-ahead heuristic; here a greedy
//! distance-based SWAP-insertion router maps the circuit from the trivial
//! layout `logical i → physical i`. The routed circuit feeds the noisy
//! routed evaluation, where the greedy router is an adequate substitute.

use crate::circuit::{Circuit, Gate};
use crate::devices::CouplingMap;
use crate::QsimError;

/// The result of routing a logical circuit onto a physical device.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedCircuit {
    /// The physical circuit (gates act on physical qubit indices).
    pub circuit: Circuit,
    /// Number of SWAP gates inserted by the router.
    pub swap_count: usize,
    /// Final logical-to-physical mapping.
    pub final_layout: Vec<usize>,
}

/// Rewrites a circuit into the native gate set of superconducting hardware:
/// single-qubit gates plus CNOT. `RZZ(θ)` becomes `CNOT · RZ(θ) · CNOT`,
/// `SWAP` becomes three CNOTs, and `CZ` becomes `H · CNOT · H`. The
/// decomposition preserves the circuit's action exactly (up to global phase)
/// but exposes the true number of error-prone two-qubit operations, which is
/// what the noisy-execution studies must count.
pub fn decompose_to_native(circuit: &Circuit) -> Circuit {
    let mut out = Circuit::new(circuit.qubit_count());
    for gate in circuit.gates() {
        let result = match *gate {
            Gate::Rzz(a, b, theta) => out
                .push(Gate::Cnot(a, b))
                .and_then(|_| out.push(Gate::Rz(b, theta)))
                .and_then(|_| out.push(Gate::Cnot(a, b))),
            Gate::Swap(a, b) => out
                .push(Gate::Cnot(a, b))
                .and_then(|_| out.push(Gate::Cnot(b, a)))
                .and_then(|_| out.push(Gate::Cnot(a, b))),
            Gate::Cz(a, b) => out
                .push(Gate::H(b))
                .and_then(|_| out.push(Gate::Cnot(a, b)))
                .and_then(|_| out.push(Gate::H(b))),
            other => out.push(other),
        };
        result.expect("decomposition reuses validated operands");
    }
    out
}

/// Routes `circuit` onto `coupling` from the trivial layout
/// `logical i → physical i`, inserting a SWAP chain along a shortest path
/// before every two-qubit gate whose qubits are not adjacent.
///
/// # Errors
///
/// Returns [`QsimError::TooManyQubits`] if the device has fewer qubits than
/// the circuit.
pub fn route_trivial(
    circuit: &Circuit,
    coupling: &CouplingMap,
) -> Result<RoutedCircuit, QsimError> {
    let n_logical = circuit.qubit_count();
    let n_physical = coupling.qubit_count();
    if n_logical > n_physical {
        return Err(QsimError::TooManyQubits {
            requested: n_logical,
            limit: n_physical,
        });
    }

    // logical -> physical for the circuit's qubits.
    let mut l2p: Vec<usize> = (0..n_logical).collect();
    let mut routed = Circuit::new(n_physical);
    let mut swap_count = 0usize;

    for gate in circuit.gates() {
        let (qs, arity) = gate.operands();
        if arity == 1 {
            routed
                .push(gate.remapped(&l2p))
                .expect("validated physical qubit");
            continue;
        }
        let (a, b) = (qs[0], qs[1]);
        // Bring the two logical qubits adjacent by swapping `a` along a
        // shortest physical path toward `b`.
        while !coupling.are_adjacent(l2p[a], l2p[b]) {
            let path = coupling
                .shortest_path(l2p[a], l2p[b])
                .expect("coupling maps are connected");
            let next = path[1];
            routed
                .push(Gate::Swap(l2p[a], next))
                .expect("validated physical qubit");
            swap_count += 1;
            // If `next` currently hosts another logical qubit, swap ownership.
            if let Some(other) = l2p.iter().position(|&p| p == next) {
                l2p[other] = l2p[a];
            }
            l2p[a] = next;
        }
        routed
            .push(gate.remapped(&l2p))
            .expect("validated physical qubit");
    }

    Ok(RoutedCircuit {
        circuit: routed,
        swap_count,
        final_layout: l2p,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::CouplingMap;
    use crate::noise::NoiseModel;
    use crate::statevector::StateVector;
    use graphlib::generators::path;

    fn line_coupling(n: usize) -> CouplingMap {
        CouplingMap::new(path(n).unwrap())
    }

    #[test]
    fn adjacent_gates_need_no_swaps() {
        let mut c = Circuit::new(3);
        c.extend([Gate::H(0), Gate::Cnot(0, 1), Gate::Cnot(1, 2)])
            .unwrap();
        let routed = route_trivial(&c, &line_coupling(3)).unwrap();
        assert_eq!(routed.swap_count, 0);
        assert_eq!(routed.circuit.gate_count(), 3);
    }

    #[test]
    fn distant_gates_insert_swaps() {
        let mut c = Circuit::new(4);
        c.push(Gate::Cnot(0, 3)).unwrap();
        let routed = route_trivial(&c, &line_coupling(4)).unwrap();
        assert!(routed.swap_count >= 2, "swaps {}", routed.swap_count);
        assert_eq!(routed.circuit.two_qubit_gate_count(), routed.swap_count + 1);
    }

    #[test]
    fn routed_circuit_preserves_semantics() {
        // A GHZ circuit routed on a line must produce the same distribution
        // once we account for the final layout permutation.
        let mut c = Circuit::new(4);
        c.push(Gate::H(0)).unwrap();
        c.push(Gate::Cnot(0, 1)).unwrap();
        c.push(Gate::Cnot(0, 2)).unwrap();
        c.push(Gate::Cnot(0, 3)).unwrap();
        let routed = route_trivial(&c, &line_coupling(4)).unwrap();
        let ideal = StateVector::from_circuit(&c);
        let physical = StateVector::from_circuit(&routed.circuit);
        // GHZ: only the all-zeros and all-ones states are populated, and both
        // are invariant under any qubit permutation.
        let p = physical.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-9);
        assert!((p[15] - 0.5).abs() < 1e-9);
        let q = ideal.probabilities();
        assert!((q[0] - 0.5).abs() < 1e-9 && (q[15] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn layout_validation() {
        // The trivial layout needs the device to hold every logical qubit.
        let map = line_coupling(3);
        assert!(route_trivial(&Circuit::new(3), &map).is_ok());
        assert!(route_trivial(&Circuit::new(5), &map).is_err());
    }

    #[test]
    fn native_decomposition_preserves_semantics() {
        let mut c = Circuit::new(3);
        c.extend([
            Gate::H(0),
            Gate::H(1),
            Gate::H(2),
            Gate::Rzz(0, 1, 0.7),
            Gate::Cz(1, 2),
            Gate::Swap(0, 2),
            Gate::Rx(1, 0.4),
        ])
        .unwrap();
        let native = decompose_to_native(&c);
        // Only single-qubit gates and CNOTs remain.
        assert!(native
            .gates()
            .iter()
            .all(|g| !g.is_two_qubit() || matches!(g, Gate::Cnot(_, _))));
        assert!(native.two_qubit_gate_count() > c.two_qubit_gate_count());
        let a = StateVector::from_circuit(&c);
        let b = StateVector::from_circuit(&native);
        for (pa, pb) in a.probabilities().iter().zip(b.probabilities()) {
            assert!((pa - pb).abs() < 1e-9);
        }
        for q in 0..3 {
            assert!((a.expectation_z(q) - b.expectation_z(q)).abs() < 1e-9);
        }
        assert!((a.expectation_zz(0, 2) - b.expectation_zz(0, 2)).abs() < 1e-9);
    }

    #[test]
    fn duration_scales_with_depth() {
        let mut shallow = Circuit::new(2);
        shallow.push(Gate::Cnot(0, 1)).unwrap();
        let mut deep = Circuit::new(2);
        for _ in 0..10 {
            deep.push(Gate::Cnot(0, 1)).unwrap();
        }
        let map = line_coupling(2);
        let noise = NoiseModel::ideal();
        let duration =
            |c: &Circuit| noise.circuit_duration_ns(&route_trivial(c, &map).unwrap().circuit);
        let (d_shallow, d_deep) = (duration(&shallow), duration(&deep));
        assert!(d_deep > d_shallow * 5.0);
    }
}
