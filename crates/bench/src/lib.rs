//! Shared helpers for the Criterion benchmark harness.
//!
//! The benches in `benches/` regenerate the data behind the paper's figures
//! at reduced sizes (Criterion runs each body many times, so the per-run
//! configurations are kept small). Run them with `cargo bench --workspace`;
//! each group is named after the figure(s) it covers.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

use graphlib::generators::connected_gnp;
use graphlib::metrics::average_node_degree;
use graphlib::subgraph::induced_subgraph;
use graphlib::traversal::connected_components;
use graphlib::Graph;
use mathkit::rng::{derive_seed, seeded};
use qaoa::evaluator::EnergyEvaluator;
use qaoa::expectation::QaoaInstance;
use qaoa::params::QaoaParams;
use qsim::statevector::StatevectorWorkspace;

/// Deterministic seed used by all benchmarks.
pub const BENCH_SEED: u64 = 0xBE4C_2024;

/// A small connected Erdős–Rényi benchmark graph of the given size.
pub fn bench_graph(nodes: usize, stream: u64) -> Graph {
    let mut rng = seeded(derive_seed(BENCH_SEED, stream));
    connected_gnp(nodes, 0.4, &mut rng).expect("valid benchmark graph")
}

/// The pre-incremental SA objective: rebuild the induced subgraph and rerun
/// the global metrics. This is the rebuild-per-move baseline that both the
/// `sa_move_eval_rebuild_vs_incremental` criterion group and the
/// `reduction_smoke` CI bin compare the incremental `SaState` evaluator
/// against — one definition so the two measurements can never drift apart.
pub fn rebuild_objective(graph: &Graph, nodes: &[usize], target_and: f64, penalty: f64) -> f64 {
    let sub = induced_subgraph(graph, nodes).expect("valid selection");
    let and = average_node_degree(&sub.graph);
    let components = connected_components(&sub.graph).len();
    (and - target_and).abs() + penalty * (components.saturating_sub(1)) as f64
}

/// The statevector arm of [`QaoaInstance`]'s exact-energy chooser as an
/// evaluator, at every `p` ([`QaoaInstance::statevector_expectation_with`]).
///
/// The smoke benches time, scale and bit-check the statevector kernel; at
/// `p = 1` the named evaluators take the closed form instead, so these
/// measurements name the arm.
#[derive(Debug, Clone)]
pub struct StatevectorArm(pub QaoaInstance);

impl EnergyEvaluator for StatevectorArm {
    type Scratch = StatevectorWorkspace;

    fn layers(&self) -> usize {
        self.0.layers()
    }

    fn scratch(&self) -> Self::Scratch {
        StatevectorWorkspace::with_qubits(self.0.graph().node_count())
    }

    fn energy(&self, scratch: &mut Self::Scratch, _index: u64, params: &QaoaParams) -> f64 {
        self.0.statevector_expectation_with(scratch, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_graph_is_deterministic_and_connected() {
        let a = bench_graph(10, 1);
        let b = bench_graph(10, 1);
        assert_eq!(a, b);
        assert!(graphlib::traversal::is_connected(&a));
        assert_ne!(bench_graph(10, 2), a);
    }
}
