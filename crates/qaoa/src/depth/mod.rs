//! The circuit depth-reduction subsystem: a compilation layer between graph
//! reduction and simulation.
//!
//! Red-QAOA shrinks the *graph* so the optimization loop runs on a smaller,
//! less noise-sensitive instance. The same argument applies to the *circuit*:
//! a shallower cost layer spends less wall-clock time decohering in the
//! trajectory simulator. [`compile_maxcut`], the only entry point, compiles a
//! graph's MaxCut cost layer into a depth-minimized layered circuit in two
//! steps:
//!
//! 1. **Interaction scheduling** — the graph's edges, which are sorted,
//!    unique and of unit weight, are packed into rounds of disjoint qubit
//!    pairs by a greedy lowest-max-load heuristic, a matching-augmentation
//!    step and a Kempe-chain repair pass; on a `d`-regular graph the result
//!    approaches the `d`/`d+1` edge-coloring bound, so one cost layer
//!    executes in ~`d+1` two-qubit time steps instead of `|E|`.
//! 2. **Metrics** ([`metrics`]) — a [`DepthMetrics`] report (rounds,
//!    two-qubit depth, gate counts, Δ) surfaced next to the AND ratio
//!    wherever reduction metrics appear.
//!
//! Every pass is deterministic: ties break toward the lowest edge index and
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

pub mod metrics;
mod schedule;

pub use metrics::DepthMetrics;

use crate::circuit::circuit_in_cost_order;
use crate::params::QaoaParams;
use crate::QaoaError;
use graphlib::Graph;
use qsim::circuit::Circuit;

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

/// The compiled output of the depth pipeline: a scheduled cost layer plus
/// the metrics report. One compiled schedule serves every `(γ, β)` — only
/// the gate angles depend on the parameters, so compilation happens once per
/// graph, never per evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepthSchedule {
    qubits: usize,
    rounds: Vec<Vec<(usize, usize)>>,
    metrics: DepthMetrics,
}

impl DepthSchedule {
    /// Number of qubits in the register.
    pub fn qubits(&self) -> usize {
        self.qubits
    }

    /// The rounds of the cost layer, in execution order: each round's edges
    /// touch pairwise-disjoint qubits and are sorted by `(u, v)`.
    pub fn rounds(&self) -> &[Vec<(usize, usize)>] {
        &self.rounds
    }

    /// The depth-reduction metrics report.
    pub fn metrics(&self) -> &DepthMetrics {
        &self.metrics
    }
}

/// Compiles the MaxCut cost layer of `graph`: its edges are scheduled into
/// rounds of disjoint qubit pairs and the metrics report is filled in.
///
/// Deterministic: same graph, same schedule, bit for bit.
///
/// # Errors
///
/// Returns [`QaoaError::DegenerateGraph`] for graphs without edges.
pub fn compile_maxcut(graph: &Graph) -> Result<DepthSchedule, QaoaError> {
    if graph.edge_count() == 0 {
        return Err(QaoaError::DegenerateGraph);
    }
    let qubits = graph.node_count();
    let edges: Vec<(usize, usize)> = graph.edges().collect();
    let rounds = schedule::schedule_edges(qubits, &edges);
    let metrics = DepthMetrics {
        qubits,
        input_terms: edges.len(),
        scheduled_terms: edges.len(),
        merged_duplicates: 0,
        rounds: rounds.len(),
        naive_depth: edges.len(),
        max_degree: (0..qubits).map(|u| graph.degree(u)).max().unwrap_or(0),
    };
    Ok(DepthSchedule {
        qubits,
        rounds,
        metrics,
    })
}

/// Builds the full `p`-layer QAOA circuit from a compiled schedule: the
/// same circuit as [`crate::circuit::qaoa_circuit`] with each cost layer's
/// `RZZ` gates emitted round by round. Scheduling only reorders the
/// mutually-commuting diagonal cost gates, so the circuit is unitarily
/// identical while packing into [`DepthMetrics::rounds`] two-qubit time
/// steps per layer.
pub fn scheduled_qaoa_circuit(schedule: &DepthSchedule, params: &QaoaParams) -> Circuit {
    circuit_in_cost_order(
        schedule.qubits,
        schedule.rounds.iter().flatten().copied(),
        params,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::qaoa_circuit;
    use graphlib::generators::{complete, connected_gnp, cycle, random_regular, star};
    use mathkit::rng::seeded;
    use qsim::statevector::StateVector;

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
    fn edgeless_graphs_are_rejected() {
        assert!(compile_maxcut(&Graph::new(0)).is_err());
        assert!(compile_maxcut(&Graph::new(3)).is_err());
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

    /// FNV-1a over `(round, u, v)` of every scheduled edge, rounds in
    /// execution order and edges in their order within a round.
    fn schedule_hash(schedule: &DepthSchedule) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for (round, edges) in schedule.rounds().iter().enumerate() {
            for &(u, v) in edges {
                for word in [round, u, v] {
                    for byte in (word as u64).to_le_bytes() {
                        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                    }
                }
            }
        }
        hash
    }

    #[test]
    fn compiled_schedules_are_pinned() {
        // Recorded when the compiler still read a weighted term list: a
        // change to the greedy, augmentation or Kempe passes, or to the
        // order they see the edges in, moves a hash here.
        let mut graphs = vec![
            cycle(7).unwrap(),
            cycle(8).unwrap(),
            complete(6),
            star(9).unwrap(),
        ];
        for d in [3usize, 4, 6] {
            for seed in [1u64, 2] {
                let mut rng = seeded(100 + 10 * d as u64 + seed);
                graphs.push(random_regular(16, d, &mut rng).unwrap());
            }
        }
        for n in [8usize, 10, 14] {
            graphs.push(connected_gnp(n, 0.4, &mut seeded(200 + n as u64)).unwrap());
        }
        graphs.push(random_regular(240, 4, &mut seeded(240)).unwrap());
        let pins: [(&str, usize, u64); 14] = [
            ("C7", 3, 0xfa9c5c9dc158d306),
            ("C8", 2, 0xd2a4b3ddc1a10485),
            ("K6", 5, 0x1ed7a437a8cadcc0),
            ("star9", 8, 0x6bc797d549a459ad),
            ("3-regular seed 1", 3, 0x5521fbc4d46b2285),
            ("3-regular seed 2", 3, 0xc67ea286caebd0c5),
            ("4-regular seed 1", 4, 0x6fbf830ddae3a3c5),
            ("4-regular seed 2", 4, 0x634e29827617ce05),
            ("6-regular seed 1", 7, 0x25c81c40304828e4),
            ("6-regular seed 2", 6, 0xd2eb429052ee26e5),
            ("G(8, .4)", 5, 0xb3e9b9e472263de1),
            ("G(10, .4)", 5, 0x88866719b4df41ef),
            ("G(14, .4)", 8, 0xf80e47a64b0eaee3),
            ("240-node 4-regular", 5, 0x10eb4b6e730d7ea4),
        ];
        for (g, (name, rounds, hash)) in graphs.iter().zip(pins) {
            let schedule = compile_maxcut(g).unwrap();
            assert_eq!(schedule.metrics().rounds, rounds, "{name}: rounds");
            assert_eq!(schedule_hash(&schedule), hash, "{name}: schedule hash");
        }
    }

    #[test]
    fn compilation_is_deterministic() {
        let g = random_regular(30, 4, &mut seeded(11)).unwrap();
        let a = compile_maxcut(&g).unwrap();
        let b = compile_maxcut(&g).unwrap();
        assert_eq!(a, b);
    }
}
