//! Construction of the QAOA circuit (Equation 3 of the paper).
//!
//! The circuit prepares the uniform superposition with a layer of Hadamards
//! and then alternates `p` cost layers `exp(-iγ H_C)` and mixer layers
//! `exp(-iβ H_M)`. For MaxCut the cost layer decomposes into one `RZZ`
//! interaction per graph edge (up to a global phase) and the mixer into one
//! `RX` rotation per qubit.

use crate::params::QaoaParams;
use crate::QaoaError;
use graphlib::Graph;
use qsim::circuit::{Circuit, Gate};

/// Builds the full `p`-layer QAOA circuit for MaxCut on `graph`.
///
/// The cost Hamiltonian is `H_C = Σ_{(i,j)∈E} (I - Z_i Z_j)/2`; its
/// exponential `exp(-iγ H_C)` equals `Π RZZ_{ij}(-γ)` up to a global phase.
/// The mixer `exp(-iβ Σ X_i)` equals `Π RX_i(2β)`.
///
/// # Errors
///
/// Returns [`QaoaError::DegenerateGraph`] if the graph has no edges.
pub fn qaoa_circuit(graph: &Graph, params: &QaoaParams) -> Result<Circuit, QaoaError> {
    if graph.edge_count() == 0 {
        return Err(QaoaError::DegenerateGraph);
    }
    Ok(circuit_in_cost_order(
        graph.node_count(),
        graph.edges(),
        params,
    ))
}

/// Builds the `p`-layer QAOA circuit over `qubits` qubits with each cost
/// layer's `RZZ_{uv}(-γ)` gates emitted in `cost_order`: one Hadamard wall,
/// then per layer the cost gates followed by the `RX(2β)` mixer wall.
/// [`qaoa_circuit`] passes the graph's sorted edge list and
/// [`crate::depth::scheduled_qaoa_circuit`] the compiled rounds; the diagonal
/// cost gates commute, so both orders prepare the same state.
pub(crate) fn circuit_in_cost_order<I>(qubits: usize, cost_order: I, params: &QaoaParams) -> Circuit
where
    I: Iterator<Item = (usize, usize)> + Clone,
{
    let mut circuit = Circuit::new(qubits);
    for q in 0..qubits {
        circuit.push(Gate::H(q)).expect("qubit within range");
    }
    for (gamma, beta) in params.gammas.iter().zip(&params.betas) {
        for (u, v) in cost_order.clone() {
            circuit
                .push(Gate::Rzz(u, v, -*gamma))
                .expect("qubit within range");
        }
        for q in 0..qubits {
            circuit
                .push(Gate::Rx(q, 2.0 * *beta))
                .expect("qubit within range");
        }
    }
    circuit
}

/// Gate-count summary of a QAOA circuit without building it, useful for the
/// throughput and noise-scaling models on graphs too large to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QaoaCircuitStats {
    /// Number of qubits.
    pub qubits: usize,
    /// Total gate count.
    pub gates: usize,
    /// Two-qubit (RZZ) gate count.
    pub two_qubit_gates: usize,
    /// A lower bound on circuit depth assuming perfect parallelism: one
    /// Hadamard layer plus, per QAOA layer, an edge-colouring bound for the
    /// RZZ block and one RX layer.
    pub depth_lower_bound: usize,
}

/// Computes [`QaoaCircuitStats`] for a `p`-layer QAOA circuit on `graph`.
pub fn circuit_stats(graph: &Graph, layers: usize) -> QaoaCircuitStats {
    let n = graph.node_count();
    let e = graph.edge_count();
    let max_degree = graph.degrees().into_iter().max().unwrap_or(0);
    // Vizing: a simple graph can be edge-coloured with at most Δ+1 colours, so
    // the RZZ block needs at least Δ layers and at most Δ+1.
    let rzz_depth = max_degree.max(1);
    QaoaCircuitStats {
        qubits: n,
        gates: n + layers * (e + n),
        two_qubit_gates: layers * e,
        depth_lower_bound: 1 + layers * (rzz_depth + 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlib::generators::{complete, cycle};

    #[test]
    fn circuit_gate_counts_match_structure() {
        let g = cycle(5).unwrap();
        let params = QaoaParams::new(vec![0.3, 0.5], vec![0.1, 0.2]).unwrap();
        let c = qaoa_circuit(&g, &params).unwrap();
        // 5 H + 2 layers × (5 RZZ + 5 RX)
        assert_eq!(c.gate_count(), 5 + 2 * (5 + 5));
        assert_eq!(c.two_qubit_gate_count(), 10);
        assert_eq!(c.qubit_count(), 5);
    }

    #[test]
    fn degenerate_graphs_are_rejected() {
        let params = QaoaParams::new(vec![0.3], vec![0.1]).unwrap();
        assert!(qaoa_circuit(&graphlib::Graph::new(0), &params).is_err());
        assert!(qaoa_circuit(&graphlib::Graph::new(3), &params).is_err());
    }

    #[test]
    fn stats_track_graph_size() {
        let g = complete(6);
        let stats = circuit_stats(&g, 3);
        assert_eq!(stats.qubits, 6);
        assert_eq!(stats.two_qubit_gates, 3 * 15);
        assert_eq!(stats.gates, 6 + 3 * (15 + 6));
        assert!(stats.depth_lower_bound >= 3 * 5);
        let small = circuit_stats(&cycle(4).unwrap(), 1);
        assert!(small.depth_lower_bound < stats.depth_lower_bound);
    }

    #[test]
    fn stats_agree_with_real_circuit_counts() {
        let g = cycle(6).unwrap();
        let params = QaoaParams::new(vec![0.2], vec![0.7]).unwrap();
        let c = qaoa_circuit(&g, &params).unwrap();
        let stats = circuit_stats(&g, 1);
        assert_eq!(stats.gates, c.gate_count());
        assert_eq!(stats.two_qubit_gates, c.two_qubit_gate_count());
        assert!(stats.depth_lower_bound <= c.depth());
    }
}
