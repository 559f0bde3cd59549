//! Quantum circuit intermediate representation.
//!
//! A [`Circuit`] is an ordered list of [`Gate`]s over `n` qubits. The IR is
//! deliberately small: it covers the gates QAOA needs (Hadamard, RX/RZ
//! rotations, CNOT, the RZZ interaction) plus the Paulis and a few Cliffords
//! so the simulators are useful beyond QAOA.

use crate::QsimError;
use mathkit::Complex64;
use std::f64::consts::{FRAC_1_SQRT_2, FRAC_PI_4};

/// A quantum gate acting on one or two qubits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Hadamard gate.
    H(usize),
    /// Pauli-X gate.
    X(usize),
    /// Pauli-Y gate.
    Y(usize),
    /// Pauli-Z gate.
    Z(usize),
    /// Phase gate S = diag(1, i).
    S(usize),
    /// Adjoint phase gate S† = diag(1, -i).
    Sdg(usize),
    /// T gate = diag(1, e^{iπ/4}).
    T(usize),
    /// Rotation about X by the given angle: `exp(-i θ X / 2)`.
    Rx(usize, f64),
    /// Rotation about Y by the given angle: `exp(-i θ Y / 2)`.
    Ry(usize, f64),
    /// Rotation about Z by the given angle: `exp(-i θ Z / 2)`.
    Rz(usize, f64),
    /// Controlled-NOT with `(control, target)`.
    Cnot(usize, usize),
    /// Controlled-Z.
    Cz(usize, usize),
    /// SWAP gate.
    Swap(usize, usize),
    /// Two-qubit ZZ interaction `exp(-i θ Z⊗Z / 2)`.
    Rzz(usize, usize, f64),
}

impl Gate {
    /// The qubits this gate acts on, without allocating: `(qubits, arity)`,
    /// of which the first `arity` (1 or 2) entries are the operands (a
    /// two-qubit gate's in the order it names them).
    pub fn operands(&self) -> ([usize; 2], usize) {
        match *self {
            Gate::H(q)
            | Gate::X(q)
            | Gate::Y(q)
            | Gate::Z(q)
            | Gate::S(q)
            | Gate::Sdg(q)
            | Gate::T(q)
            | Gate::Rx(q, _)
            | Gate::Ry(q, _)
            | Gate::Rz(q, _) => ([q, q], 1),
            Gate::Cnot(a, b) | Gate::Cz(a, b) | Gate::Swap(a, b) | Gate::Rzz(a, b, _) => {
                ([a, b], 2)
            }
        }
    }

    /// `true` for two-qubit gates.
    pub fn is_two_qubit(&self) -> bool {
        self.operands().1 == 2
    }

    /// Short mnemonic name (lowercase, Qiskit style).
    pub fn name(&self) -> &'static str {
        match self {
            Gate::H(_) => "h",
            Gate::X(_) => "x",
            Gate::Y(_) => "y",
            Gate::Z(_) => "z",
            Gate::S(_) => "s",
            Gate::Sdg(_) => "sdg",
            Gate::T(_) => "t",
            Gate::Rx(..) => "rx",
            Gate::Ry(..) => "ry",
            Gate::Rz(..) => "rz",
            Gate::Cnot(..) => "cx",
            Gate::Cz(..) => "cz",
            Gate::Swap(..) => "swap",
            Gate::Rzz(..) => "rzz",
        }
    }

    /// The target qubit and 2×2 unitary of a single-qubit gate, or `None`
    /// for two-qubit gates.
    ///
    /// This is the workspace's one gate→matrix table: the statevector
    /// simulator, its scalar reference oracle and the density-matrix
    /// simulator all read their matrices from it, so every simulator
    /// applies the same matrix bits.
    pub fn single_qubit_unitary(&self) -> Option<(usize, [[Complex64; 2]; 2])> {
        let z = Complex64::zero;
        let o = Complex64::one;
        Some(match *self {
            Gate::H(q) => (
                q,
                [
                    [
                        Complex64::new(FRAC_1_SQRT_2, 0.0),
                        Complex64::new(FRAC_1_SQRT_2, 0.0),
                    ],
                    [
                        Complex64::new(FRAC_1_SQRT_2, 0.0),
                        Complex64::new(-FRAC_1_SQRT_2, 0.0),
                    ],
                ],
            ),
            Gate::X(q) => (q, [[z(), o()], [o(), z()]]),
            Gate::Y(q) => (
                q,
                [
                    [z(), Complex64::new(0.0, -1.0)],
                    [Complex64::new(0.0, 1.0), z()],
                ],
            ),
            Gate::Z(q) => (q, [[o(), z()], [z(), Complex64::new(-1.0, 0.0)]]),
            Gate::S(q) => (q, [[o(), z()], [z(), Complex64::i()]]),
            Gate::Sdg(q) => (q, [[o(), z()], [z(), Complex64::new(0.0, -1.0)]]),
            Gate::T(q) => (q, [[o(), z()], [z(), Complex64::cis(FRAC_PI_4)]]),
            Gate::Rx(q, theta) => (q, rx_matrix(theta)),
            Gate::Ry(q, theta) => {
                let c = Complex64::new((theta / 2.0).cos(), 0.0);
                let s = Complex64::new((theta / 2.0).sin(), 0.0);
                (q, [[c, -s], [s, c]])
            }
            Gate::Rz(q, theta) => (
                q,
                [
                    [Complex64::cis(-theta / 2.0), z()],
                    [z(), Complex64::cis(theta / 2.0)],
                ],
            ),
            Gate::Cnot(..) | Gate::Cz(..) | Gate::Swap(..) | Gate::Rzz(..) => return None,
        })
    }

    /// Returns a copy of the gate with its qubit operands remapped through
    /// `map` (used by the router when logical qubits move).
    ///
    /// # Panics
    ///
    /// Panics if `map` is shorter than any operand index.
    pub fn remapped(&self, map: &[usize]) -> Gate {
        match *self {
            Gate::H(q) => Gate::H(map[q]),
            Gate::X(q) => Gate::X(map[q]),
            Gate::Y(q) => Gate::Y(map[q]),
            Gate::Z(q) => Gate::Z(map[q]),
            Gate::S(q) => Gate::S(map[q]),
            Gate::Sdg(q) => Gate::Sdg(map[q]),
            Gate::T(q) => Gate::T(map[q]),
            Gate::Rx(q, t) => Gate::Rx(map[q], t),
            Gate::Ry(q, t) => Gate::Ry(map[q], t),
            Gate::Rz(q, t) => Gate::Rz(map[q], t),
            Gate::Cnot(a, b) => Gate::Cnot(map[a], map[b]),
            Gate::Cz(a, b) => Gate::Cz(map[a], map[b]),
            Gate::Swap(a, b) => Gate::Swap(map[a], map[b]),
            Gate::Rzz(a, b, t) => Gate::Rzz(map[a], map[b], t),
        }
    }
}

/// The matrix of `Rx(θ)`: `cos(θ/2)` on the diagonal, `-i·sin(θ/2)` off it
/// (the [`Gate::Rx`] entry of [`Gate::single_qubit_unitary`]).
pub(crate) fn rx_matrix(theta: f64) -> [[Complex64; 2]; 2] {
    let c = Complex64::new((theta / 2.0).cos(), 0.0);
    let s = Complex64::new(0.0, -(theta / 2.0).sin());
    [[c, s], [s, c]]
}

/// An ordered quantum circuit over a fixed number of qubits.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    qubit_count: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit over `qubit_count` qubits.
    pub fn new(qubit_count: usize) -> Self {
        Self {
            qubit_count,
            gates: Vec::new(),
        }
    }

    /// Number of qubits.
    pub fn qubit_count(&self) -> usize {
        self.qubit_count
    }

    /// The gate list in program order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Appends a gate.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::QubitOutOfRange`] or [`QsimError::DuplicateQubit`]
    /// if the gate operands are invalid for this circuit.
    pub fn push(&mut self, gate: Gate) -> Result<(), QsimError> {
        let (qubits, arity) = gate.operands();
        let qs = &qubits[..arity];
        for &q in qs {
            if q >= self.qubit_count {
                return Err(QsimError::QubitOutOfRange {
                    qubit: q,
                    qubit_count: self.qubit_count,
                });
            }
        }
        if qs.len() == 2 && qs[0] == qs[1] {
            return Err(QsimError::DuplicateQubit(qs[0]));
        }
        self.gates.push(gate);
        Ok(())
    }

    /// Appends every gate from an iterator.
    ///
    /// # Errors
    ///
    /// Stops and returns the first error encountered; gates before the error
    /// remain appended.
    pub fn extend<I: IntoIterator<Item = Gate>>(&mut self, gates: I) -> Result<(), QsimError> {
        for g in gates {
            self.push(g)?;
        }
        Ok(())
    }

    /// Total number of gates.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of two-qubit gates (the error-dominant operations on hardware).
    pub fn two_qubit_gate_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_two_qubit()).count()
    }

    /// Circuit depth: the length of the longest chain of gates that must be
    /// executed sequentially because they share qubits (greedy as-soon-as-
    /// possible scheduling).
    pub fn depth(&self) -> usize {
        let mut qubit_depth = vec![0usize; self.qubit_count];
        let mut depth = 0usize;
        for gate in &self.gates {
            let (qubits, arity) = gate.operands();
            let qs = &qubits[..arity];
            let layer = qs.iter().map(|&q| qubit_depth[q]).max().unwrap_or(0) + 1;
            for &q in qs {
                qubit_depth[q] = layer;
            }
            depth = depth.max(layer);
        }
        depth
    }

    /// Returns a new circuit with every gate's operands remapped through
    /// `map` (logical-to-physical placement) onto a register of
    /// `physical_qubits` qubits.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::InvalidParameter`] if `map` is shorter than the
    /// logical qubit count, and propagates range errors from gate insertion.
    pub fn remapped(&self, map: &[usize], physical_qubits: usize) -> Result<Circuit, QsimError> {
        if map.len() < self.qubit_count {
            return Err(QsimError::InvalidParameter(
                "mapping must cover every logical qubit",
            ));
        }
        let mut out = Circuit::new(physical_qubits);
        for gate in &self.gates {
            out.push(gate.remapped(map))?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_validates_operands() {
        let mut c = Circuit::new(2);
        assert!(c.push(Gate::H(0)).is_ok());
        assert_eq!(
            c.push(Gate::X(5)),
            Err(QsimError::QubitOutOfRange {
                qubit: 5,
                qubit_count: 2
            })
        );
        assert_eq!(c.push(Gate::Cnot(1, 1)), Err(QsimError::DuplicateQubit(1)));
        assert_eq!(c.gate_count(), 1);
    }

    #[test]
    fn gate_metadata() {
        assert_eq!(Gate::Rzz(0, 1, 0.3).operands(), ([0, 1], 2));
        assert_eq!(Gate::Rx(3, 0.1).operands().1, 1);
        assert!(Gate::Cnot(0, 1).is_two_qubit());
        assert!(!Gate::Rx(0, 0.1).is_two_qubit());
        assert_eq!(Gate::H(0).name(), "h");
        assert_eq!(Gate::Rzz(0, 1, 0.3).name(), "rzz");
    }

    #[test]
    fn depth_counts_sequential_chains() {
        let mut c = Circuit::new(3);
        c.extend([Gate::H(0), Gate::H(1), Gate::H(2)]).unwrap();
        assert_eq!(c.depth(), 1);
        c.push(Gate::Cnot(0, 1)).unwrap();
        assert_eq!(c.depth(), 2);
        c.push(Gate::Cnot(1, 2)).unwrap();
        assert_eq!(c.depth(), 3);
        c.push(Gate::H(0)).unwrap();
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn two_qubit_gate_count() {
        let mut c = Circuit::new(3);
        c.extend([
            Gate::H(0),
            Gate::Cnot(0, 1),
            Gate::Rzz(1, 2, 0.5),
            Gate::Rx(2, 0.1),
        ])
        .unwrap();
        assert_eq!(c.two_qubit_gate_count(), 2);
        assert_eq!(c.gate_count(), 4);
    }

    #[test]
    fn remapping_moves_operands() {
        let mut c = Circuit::new(2);
        c.extend([Gate::H(0), Gate::Cnot(0, 1)]).unwrap();
        let mapped = c.remapped(&[3, 1], 4).unwrap();
        assert_eq!(mapped.qubit_count(), 4);
        assert_eq!(mapped.gates()[0], Gate::H(3));
        assert_eq!(mapped.gates()[1], Gate::Cnot(3, 1));
        assert!(c.remapped(&[0], 4).is_err());
    }

    #[test]
    fn empty_circuit_depth_is_zero() {
        assert_eq!(Circuit::new(4).depth(), 0);
        assert_eq!(Circuit::new(0).depth(), 0);
    }
}
