//! Qubit routing for sparse coupling maps.
//!
//! The paper transpiles circuits with SABRE and keeps the shortest of 100
//! repetitions. SABRE itself is a look-ahead heuristic; here we implement the
//! same *interface* with a greedy distance-based SWAP-insertion router plus a
//! best-of-N repetition loop over random initial layouts. The routed circuit
//! is only used for depth, gate-count, and duration estimates (noise scaling
//! and the throughput model), where the greedy router is an adequate
//! substitute.

use crate::circuit::{Circuit, Gate};
use crate::devices::CouplingMap;
use crate::noise::NoiseModel;
use crate::QsimError;
use rand::Rng;

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

impl RoutedCircuit {
    /// Depth of the routed circuit.
    pub fn depth(&self) -> usize {
        self.circuit.depth()
    }

    /// Number of two-qubit gates after routing (including inserted SWAPs).
    pub fn two_qubit_gate_count(&self) -> usize {
        self.circuit.two_qubit_gate_count()
    }

    /// Estimated wall-clock duration of the circuit in nanoseconds under the
    /// given noise model's gate times, assuming full parallelism across
    /// qubits (duration = depth × the slower gate time mix).
    pub fn duration_ns(&self, noise: &NoiseModel) -> f64 {
        noise.circuit_duration_ns(&self.circuit)
    }
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

/// Routes `circuit` onto `coupling` starting from the given initial layout
/// (`layout[logical] = physical`).
///
/// # Errors
///
/// Returns [`QsimError::InvalidParameter`] if the layout is shorter than the
/// logical qubit count, maps outside the device, contains duplicates, or the
/// device has fewer qubits than the circuit.
pub fn route_with_layout(
    circuit: &Circuit,
    coupling: &CouplingMap,
    layout: &[usize],
) -> Result<RoutedCircuit, QsimError> {
    let n_logical = circuit.qubit_count();
    let n_physical = coupling.qubit_count();
    if n_logical > n_physical {
        return Err(QsimError::TooManyQubits {
            requested: n_logical,
            limit: n_physical,
        });
    }
    if layout.len() < n_logical {
        return Err(QsimError::InvalidParameter(
            "layout must cover every logical qubit",
        ));
    }
    let mut seen = vec![false; n_physical];
    for &p in &layout[..n_logical] {
        if p >= n_physical {
            return Err(QsimError::InvalidParameter(
                "layout maps outside the device",
            ));
        }
        if seen[p] {
            return Err(QsimError::InvalidParameter("layout contains duplicates"));
        }
        seen[p] = true;
    }

    // logical -> physical for the circuit's qubits.
    let mut l2p: Vec<usize> = layout[..n_logical].to_vec();
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

/// Routes with the trivial layout `logical i → physical i`.
///
/// # Errors
///
/// Same error conditions as [`route_with_layout`].
pub fn route_trivial(
    circuit: &Circuit,
    coupling: &CouplingMap,
) -> Result<RoutedCircuit, QsimError> {
    let layout: Vec<usize> = (0..circuit.qubit_count()).collect();
    route_with_layout(circuit, coupling, &layout)
}

/// SABRE-style protocol: routes the circuit `repetitions` times from random
/// initial layouts and returns the result with the smallest depth (ties
/// broken by SWAP count). This mirrors the paper's "pick the shortest of 100
/// repetitions" methodology.
///
/// # Errors
///
/// Same error conditions as [`route_with_layout`]; `repetitions == 0` is an
/// invalid parameter.
pub fn route_best_of<R: Rng>(
    circuit: &Circuit,
    coupling: &CouplingMap,
    repetitions: usize,
    rng: &mut R,
) -> Result<RoutedCircuit, QsimError> {
    if repetitions == 0 {
        return Err(QsimError::InvalidParameter("repetitions must be positive"));
    }
    let n_logical = circuit.qubit_count();
    let n_physical = coupling.qubit_count();
    let mut best: Option<RoutedCircuit> = None;
    for rep in 0..repetitions {
        let layout = if rep == 0 {
            (0..n_logical).collect::<Vec<usize>>()
        } else {
            mathkit::rng::choose_indices(rng, n_physical, n_logical)
        };
        let candidate = route_with_layout(circuit, coupling, &layout)?;
        let better = match &best {
            None => true,
            Some(b) => {
                candidate.depth() < b.depth()
                    || (candidate.depth() == b.depth() && candidate.swap_count < b.swap_count)
            }
        };
        if better {
            best = Some(candidate);
        }
    }
    Ok(best.expect("at least one repetition"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{heavy_hex_like, CouplingMap};
    use crate::statevector::StateVector;
    use graphlib::generators::path;
    use mathkit::rng::seeded;

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
        assert_eq!(routed.two_qubit_gate_count(), routed.swap_count + 1);
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
        let c = Circuit::new(3);
        let map = line_coupling(3);
        assert!(route_with_layout(&c, &map, &[0, 1]).is_err());
        assert!(route_with_layout(&c, &map, &[0, 1, 9]).is_err());
        assert!(route_with_layout(&c, &map, &[0, 1, 1]).is_err());
        let big = Circuit::new(5);
        assert!(route_trivial(&big, &map).is_err());
    }

    #[test]
    fn best_of_reduces_or_matches_trivial_depth() {
        let mut c = Circuit::new(6);
        for a in 0..6usize {
            for b in (a + 1)..6 {
                c.push(Gate::Rzz(a, b, 0.3)).unwrap();
            }
        }
        let map = heavy_hex_like(16);
        let trivial = route_trivial(&c, &map).unwrap();
        let mut rng = seeded(11);
        let best = route_best_of(&c, &map, 16, &mut rng).unwrap();
        assert!(best.depth() <= trivial.depth());
        assert!(route_best_of(&c, &map, 0, &mut rng).is_err());
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
        let d_shallow = route_trivial(&shallow, &map).unwrap().duration_ns(&noise);
        let d_deep = route_trivial(&deep, &map).unwrap().duration_ns(&noise);
        assert!(d_deep > d_shallow * 5.0);
    }
}
