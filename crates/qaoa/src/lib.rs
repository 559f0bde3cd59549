//! QAOA for MaxCut.
//!
//! This crate implements the Quantum Approximate Optimization Algorithm as
//! used throughout the Red-QAOA paper:
//!
//! * [`maxcut`] — the MaxCut cost function, brute-force ground truth, and the
//!   diagonal cost-Hamiltonian values used by the simulators.
//! * [`params`] — the `(γ, β)` parameter vectors of a `p`-layer QAOA ansatz.
//! * [`circuit`] — construction of the QAOA circuit (Equation 3) in the
//!   `qsim` gate IR.
//! * [`expectation`] — ideal, edge-local, and noisy (trajectory)
//!   evaluation of the cost expectation. The ideal energy
//!   ([`QaoaInstance::expectation_with`](expectation::QaoaInstance::expectation_with))
//!   is the one exact-energy chooser: the closed form at `p = 1`, the
//!   half-state statevector at `p ≥ 2`.
//! * [`evaluator`] — the [`EnergyEvaluator`](evaluator::EnergyEvaluator)
//!   backend layer: every landscape scan, random-pool sweep, and
//!   optimization driver evaluates energies through one of its named,
//!   swappable backends (statevector workspace, analytic `p = 1`,
//!   edge-local light cones, noisy trajectories).
//! * [`depth`] — the circuit depth-reduction subsystem: greedy round
//!   scheduling of a graph's `RZZ` gates (edge coloring the graph) and the
//!   [`DepthMetrics`](depth::DepthMetrics) report.
//! * [`analytic`] — the closed-form `p = 1` MaxCut expectation, whose
//!   per-edge terms every `p = 1` exact path sums.
//! * [`landscape`] — energy landscapes over parameter grids or random
//!   parameter sets, normalization, optima, and landscape MSE.
//! * [`optimize`] — classical optimization drivers (Nelder–Mead, SPSA, grid)
//!   with restart protocols and the approximation-ratio metric.
//!
//! # Example
//!
//! ```
//! use graphlib::generators::cycle;
//! use qaoa::{expectation::QaoaInstance, params::QaoaParams};
//!
//! let graph = cycle(6).unwrap();
//! let instance = QaoaInstance::new(&graph, 1).unwrap();
//! let params = QaoaParams::new(vec![0.7], vec![0.4]).unwrap();
//! let energy = instance.expectation(&params);
//! assert!(energy > 0.0 && energy <= 6.0);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analytic;
pub mod circuit;
pub mod depth;
pub mod evaluator;
pub mod expectation;
pub mod landscape;
pub mod maxcut;
pub mod optimize;
pub mod params;

/// Errors produced by the QAOA library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QaoaError {
    /// The graph was too large for the requested exact simulation backend.
    GraphTooLarge {
        /// Number of nodes in the graph.
        nodes: usize,
        /// Maximum supported by the backend.
        limit: usize,
    },
    /// The graph has no nodes or no edges, so QAOA is degenerate.
    DegenerateGraph,
    /// Parameter vectors were inconsistent (e.g. different numbers of γ and β).
    InvalidParameters(&'static str),
}

impl std::fmt::Display for QaoaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QaoaError::GraphTooLarge { nodes, limit } => {
                write!(
                    f,
                    "graph with {nodes} nodes exceeds the {limit}-qubit backend limit"
                )
            }
            QaoaError::DegenerateGraph => write!(f, "graph has no nodes or no edges"),
            QaoaError::InvalidParameters(what) => write!(f, "invalid parameters: {what}"),
        }
    }
}

impl std::error::Error for QaoaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        for e in [
            QaoaError::GraphTooLarge {
                nodes: 40,
                limit: 26,
            },
            QaoaError::DegenerateGraph,
            QaoaError::InvalidParameters("x"),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
