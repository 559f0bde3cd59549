//! The circuit depth-reduction subsystem: a compilation layer between graph
//! reduction and simulation.
//!
//! Red-QAOA shrinks the *graph* so the optimization loop runs on a smaller,
//! less noise-sensitive instance. The same argument applies to the *circuit*:
//! a shallower cost layer spends less wall-clock time decohering in the
//! trajectory simulator. This module compiles a cost Hamiltonian into a
//! depth-minimized layered circuit in three passes:
//!
//! 1. **Semi-symmetry factoring** ([`factor`]) — duplicate interaction terms
//!    on the *same* qubit pair are merged into one weighted `RZZ` gate (an
//!    exact, unitary-level merge), and terms equivalent under a
//!    qubit-swap automorphism of the weighted interaction graph are grouped
//!    into classes ("semi-symmetries", after arXiv 2411.08824) that
//!    observable evaluation can exploit one-representative-per-class.
//! 2. **Interaction scheduling** ([`schedule`]) — the remaining ZZ terms are
//!    packed into rounds of disjoint qubit pairs by a greedy lowest-max-load
//!    heuristic plus a Kempe-chain repair pass; on a `d`-regular interaction
//!    graph the result approaches the `d`/`d+1` edge-coloring bound, so one
//!    cost layer executes in ~`d+1` two-qubit time steps instead of `|E|`.
//! 3. **Metrics** ([`metrics`]) — a [`DepthMetrics`] report (rounds,
//!    two-qubit depth, gate and factored-term counts) surfaced next to the
//!    AND ratio wherever reduction metrics appear.
//!
//! Every pass is deterministic: ties break toward the lowest term index and
//! no RNG is consumed, so compiled schedules — and everything simulated from
//! them — inherit the repo-wide bitwise thread-count and kernel-mode
//! invariance contract (see `docs/determinism.md`).
//!
//! # Example
//!
//! ```
//! use graphlib::generators::cycle;
//! use qaoa::depth::{compile_maxcut, scheduled_qaoa_circuit};
//! use qaoa::params::QaoaParams;
//!
//! let graph = cycle(6).unwrap();
//! let schedule = compile_maxcut(&graph).unwrap();
//! // A 2-regular interaction graph needs only 2 rounds (even cycle).
//! assert_eq!(schedule.metrics().rounds, 2);
//! let params = QaoaParams::new(vec![0.7], vec![0.4]).unwrap();
//! let circuit = scheduled_qaoa_circuit(&schedule, &params);
//! assert_eq!(circuit.two_qubit_gate_count(), 6);
//! ```

pub mod factor;
pub mod metrics;
pub mod schedule;

pub use factor::{merge_duplicates, semi_symmetries, SemiSymmetry, TermClass};
pub use metrics::DepthMetrics;
pub use schedule::{schedule_terms, ScheduledLayer};

use crate::params::QaoaParams;
use crate::QaoaError;
use graphlib::Graph;
use qsim::circuit::{Circuit, Gate};

/// Which reduction axes a pipeline or job should apply: the node axis
/// (Red-QAOA SA graph distillation), the circuit-depth axis (this module),
/// or both composed.
///
/// The knob deliberately lives *outside* `ReductionOptions`: depth
/// compilation is a pure function of the (reduced) graph, so it neither
/// participates in the reduction cache key nor changes the persisted
/// `ReducedGraph` format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CircuitReduction {
    /// Node reduction only — the legacy Red-QAOA pipeline.
    #[default]
    None,
    /// Depth reduction only: skip node reduction (identity reduction) and
    /// run scheduled circuits.
    Depth,
    /// Both axes composed: node-reduce the graph, then depth-compile the
    /// reduced instance's cost layer.
    NodeAndDepth,
}

impl CircuitReduction {
    /// Whether circuits should be compiled through the depth scheduler.
    pub fn wants_depth(self) -> bool {
        matches!(self, Self::Depth | Self::NodeAndDepth)
    }

    /// Whether the SA node-reduction pass should run.
    pub fn wants_node_reduction(self) -> bool {
        matches!(self, Self::None | Self::NodeAndDepth)
    }
}

/// One weighted ZZ interaction term `w · (I - Z_u Z_v) / 2` of a cost
/// Hamiltonian, normalized so `u < v`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZzTerm {
    /// Lower qubit index of the pair.
    pub u: usize,
    /// Higher qubit index of the pair.
    pub v: usize,
    /// Term weight (`1.0` for unweighted MaxCut).
    pub weight: f64,
}

impl ZzTerm {
    /// A term on the (order-normalized) pair `(u, v)` with the given weight.
    pub fn new(u: usize, v: usize, weight: f64) -> Self {
        Self {
            u: u.min(v),
            v: u.max(v),
            weight,
        }
    }
}

/// A diagonal cost Hamiltonian `H_C = Σ w_i (I - Z_u Z_v)/2` over a fixed
/// qubit register — the input of the depth compiler.
#[derive(Debug, Clone, PartialEq)]
pub struct CostHamiltonian {
    qubits: usize,
    terms: Vec<ZzTerm>,
}

impl CostHamiltonian {
    /// Builds the Hamiltonian from explicit terms, normalizing each pair to
    /// `u < v`. Duplicate pairs are allowed (the factoring pass merges them).
    ///
    /// # Errors
    ///
    /// Returns [`QaoaError::InvalidParameters`] for out-of-range qubits,
    /// diagonal pairs (`u == v`), or non-finite weights, and
    /// [`QaoaError::DegenerateGraph`] when there are no qubits or no terms.
    pub fn from_terms(qubits: usize, terms: Vec<ZzTerm>) -> Result<Self, QaoaError> {
        if qubits == 0 || terms.is_empty() {
            return Err(QaoaError::DegenerateGraph);
        }
        let mut normalized = Vec::with_capacity(terms.len());
        for t in terms {
            if t.u == t.v {
                return Err(QaoaError::InvalidParameters(
                    "interaction term pairs a qubit with itself",
                ));
            }
            if t.u >= qubits || t.v >= qubits {
                return Err(QaoaError::InvalidParameters(
                    "interaction term qubit out of range",
                ));
            }
            if !t.weight.is_finite() {
                return Err(QaoaError::InvalidParameters(
                    "interaction term weight must be finite",
                ));
            }
            normalized.push(ZzTerm::new(t.u, t.v, t.weight));
        }
        Ok(Self {
            qubits,
            terms: normalized,
        })
    }

    /// The MaxCut cost Hamiltonian of `graph`: one unit-weight term per edge,
    /// in the graph's canonical (sorted) edge order.
    ///
    /// # Errors
    ///
    /// Returns [`QaoaError::DegenerateGraph`] for graphs without nodes or
    /// edges.
    pub fn maxcut(graph: &Graph) -> Result<Self, QaoaError> {
        if graph.node_count() == 0 || graph.edge_count() == 0 {
            return Err(QaoaError::DegenerateGraph);
        }
        Ok(Self {
            qubits: graph.node_count(),
            terms: graph.edges().map(|(u, v)| ZzTerm::new(u, v, 1.0)).collect(),
        })
    }

    /// Number of qubits in the register.
    pub fn qubits(&self) -> usize {
        self.qubits
    }

    /// The interaction terms.
    pub fn terms(&self) -> &[ZzTerm] {
        &self.terms
    }
}

/// The compiled output of the depth pipeline: a scheduled cost layer plus
/// the metrics report. One compiled schedule serves every `(γ, β)` — only
/// the gate angles depend on the parameters, so compilation happens once per
/// Hamiltonian, never per evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct DepthSchedule {
    qubits: usize,
    layer: ScheduledLayer,
    metrics: DepthMetrics,
}

impl DepthSchedule {
    /// Number of qubits in the register.
    pub fn qubits(&self) -> usize {
        self.qubits
    }

    /// The scheduled cost layer (rounds of disjoint interactions).
    pub fn layer(&self) -> &ScheduledLayer {
        &self.layer
    }

    /// The depth-reduction metrics report.
    pub fn metrics(&self) -> &DepthMetrics {
        &self.metrics
    }
}

/// Compiles a cost Hamiltonian through the full pipeline: duplicate-term
/// merging, semi-symmetry detection, and round scheduling.
///
/// Deterministic: same Hamiltonian, same schedule, bit for bit.
pub fn compile(hamiltonian: &CostHamiltonian) -> DepthSchedule {
    let (merged, merged_duplicates) = merge_duplicates(&hamiltonian.terms);
    let symmetry = semi_symmetries(hamiltonian.qubits, &merged);
    let layer = schedule_terms(hamiltonian.qubits, &merged);
    let metrics = DepthMetrics::new(
        hamiltonian.qubits,
        hamiltonian.terms.len(),
        merged_duplicates,
        &symmetry,
        &layer,
        max_term_degree(hamiltonian.qubits, &merged),
    );
    DepthSchedule {
        qubits: hamiltonian.qubits,
        layer,
        metrics,
    }
}

/// Convenience wrapper: compiles the MaxCut Hamiltonian of `graph`.
///
/// # Errors
///
/// Returns [`QaoaError::DegenerateGraph`] for graphs without nodes or edges.
pub fn compile_maxcut(graph: &Graph) -> Result<DepthSchedule, QaoaError> {
    Ok(compile(&CostHamiltonian::maxcut(graph)?))
}

/// Maximum number of interaction terms incident to any single qubit — the
/// interaction graph's maximum degree Δ, the scheduler's natural lower bound.
fn max_term_degree(qubits: usize, terms: &[ZzTerm]) -> usize {
    let mut degree = vec![0usize; qubits];
    for t in terms {
        degree[t.u] += 1;
        degree[t.v] += 1;
    }
    degree.into_iter().max().unwrap_or(0)
}

/// Builds the full `p`-layer QAOA circuit from a compiled schedule: one
/// Hadamard wall, then per layer the scheduled `RZZ` rounds followed by the
/// `RX` mixer wall. The gate *multiset* matches
/// [`crate::circuit::qaoa_circuit`] on the same (duplicate-free, unit-weight)
/// Hamiltonian — scheduling only reorders the mutually-commuting diagonal
/// cost gates, so the circuit is unitarily identical while packing into
/// [`ScheduledLayer::round_count`] two-qubit time steps per layer.
pub fn scheduled_qaoa_circuit(schedule: &DepthSchedule, params: &QaoaParams) -> Circuit {
    let n = schedule.qubits;
    let mut circuit = Circuit::new(n);
    for q in 0..n {
        circuit.push(Gate::H(q)).expect("qubit within range");
    }
    for (gamma, beta) in params.gammas.iter().zip(&params.betas) {
        for gate in schedule.layer.gates(*gamma) {
            circuit.push(gate).expect("scheduled pair within range");
        }
        for q in 0..n {
            circuit
                .push(Gate::Rx(q, 2.0 * *beta))
                .expect("qubit within range");
        }
    }
    circuit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::qaoa_circuit;
    use graphlib::generators::{complete, connected_gnp, cycle, random_regular};
    use mathkit::rng::seeded;
    use qsim::statevector::StateVector;

    #[test]
    fn maxcut_hamiltonian_mirrors_the_edge_list() {
        let g = cycle(5).unwrap();
        let h = CostHamiltonian::maxcut(&g).unwrap();
        assert_eq!(h.qubits(), 5);
        assert_eq!(h.terms().len(), 5);
        assert!(h.terms().iter().all(|t| t.u < t.v && t.weight == 1.0));
        assert!(CostHamiltonian::maxcut(&Graph::new(3)).is_err());
    }

    #[test]
    fn from_terms_normalizes_and_validates() {
        let h = CostHamiltonian::from_terms(4, vec![ZzTerm::new(3, 1, 0.5)]).unwrap();
        assert_eq!(
            h.terms()[0],
            ZzTerm {
                u: 1,
                v: 3,
                weight: 0.5
            }
        );
        assert!(CostHamiltonian::from_terms(0, vec![]).is_err());
        assert!(CostHamiltonian::from_terms(4, vec![ZzTerm::new(2, 2, 1.0)]).is_err());
        assert!(CostHamiltonian::from_terms(2, vec![ZzTerm::new(0, 5, 1.0)]).is_err());
        assert!(CostHamiltonian::from_terms(3, vec![ZzTerm::new(0, 1, f64::NAN)]).is_err());
    }

    #[test]
    fn compiled_rounds_respect_the_vizing_bound_on_regular_graphs() {
        for (d, seed) in [(3usize, 5u64), (4, 6), (6, 7)] {
            let g = random_regular(24, d, &mut seeded(seed)).unwrap();
            let schedule = compile_maxcut(&g).unwrap();
            let m = schedule.metrics();
            assert!(
                m.rounds <= d + 1,
                "d = {d}: {} rounds exceed the d+1 bound",
                m.rounds
            );
            assert!(m.rounds >= d, "d = {d}: fewer rounds than Δ");
            assert_eq!(m.naive_depth, g.edge_count());
        }
    }

    #[test]
    fn scheduled_circuit_is_unitarily_equal_to_the_naive_circuit() {
        // Diagonal RZZ gates commute exactly, so the scheduled and naive
        // circuits prepare the same state up to floating-point reassociation.
        let mut rng = seeded(9);
        let g = connected_gnp(7, 0.5, &mut rng).unwrap();
        let schedule = compile_maxcut(&g).unwrap();
        let params = QaoaParams::new(vec![0.8, 0.3], vec![0.5, 1.1]).unwrap();
        let scheduled = StateVector::from_circuit(&scheduled_qaoa_circuit(&schedule, &params));
        let naive = StateVector::from_circuit(&qaoa_circuit(&g, &params).unwrap());
        for (a, b) in scheduled.amplitudes().iter().zip(naive.amplitudes()) {
            assert!((*a - *b).norm() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn scheduled_circuit_matches_naive_gate_counts() {
        let g = complete(6);
        let schedule = compile_maxcut(&g).unwrap();
        let params = QaoaParams::new(vec![0.4], vec![0.2]).unwrap();
        let scheduled = scheduled_qaoa_circuit(&schedule, &params);
        let naive = qaoa_circuit(&g, &params).unwrap();
        assert_eq!(scheduled.gate_count(), naive.gate_count());
        assert_eq!(
            scheduled.two_qubit_gate_count(),
            naive.two_qubit_gate_count()
        );
        // K6 is 5-regular and class 1: the schedule packs into exactly 5
        // rounds, so the circuit's measured depth is 1 (H) + 5 (RZZ) + 1 (RX).
        assert_eq!(schedule.metrics().rounds, 5);
        assert_eq!(scheduled.depth(), 7);
    }

    #[test]
    fn compilation_is_deterministic() {
        let g = random_regular(30, 4, &mut seeded(11)).unwrap();
        let a = compile_maxcut(&g).unwrap();
        let b = compile_maxcut(&g).unwrap();
        assert_eq!(a, b);
    }

    use graphlib::Graph;
}
