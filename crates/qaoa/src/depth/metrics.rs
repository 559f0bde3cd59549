//! The depth-reduction metrics report.
//!
//! [`DepthMetrics`] is the circuit-side counterpart of the node-reduction
//! AND ratio: a compact census of what the depth compiler achieved, surfaced
//! next to `ReducedGraph` metrics in pipeline outcomes, job reports, and the
//! experiment binaries. All fields are plain counts so the report is `Copy`,
//! hashable-by-equality, and trivially serializable to the repo's hand-rolled
//! JSON rows.

/// Summary of one depth-compilation run: how many interaction terms came in
/// and how tightly scheduling packed them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepthMetrics {
    /// Qubits in the register.
    pub qubits: usize,
    /// Interaction terms in the input. The compiler takes a simple graph's
    /// edges, so this always equals `scheduled_terms`; it stays because the
    /// benchmark digest (`perfbench/src/digest.rs`) hashes it.
    pub input_terms: usize,
    /// Terms scheduled — the two-qubit gate count of one compiled cost
    /// layer.
    pub scheduled_terms: usize,
    /// Duplicate-pair terms merged before scheduling. A simple graph has no
    /// duplicate pairs, so this is always `0`; it stays because the
    /// benchmark digest (`perfbench/src/digest.rs`) hashes it.
    pub merged_duplicates: usize,
    /// Rounds of disjoint interactions — the two-qubit depth of one compiled
    /// cost layer.
    pub rounds: usize,
    /// Two-qubit depth of the naive per-gate sequential emission of the same
    /// edge list: one round per gate. The baseline `rounds` is measured
    /// against.
    pub naive_depth: usize,
    /// Maximum interaction degree Δ of any qubit — the scheduler's lower
    /// bound (Vizing: the optimum lies in `[Δ, Δ+1]`).
    pub max_degree: usize,
}

impl DepthMetrics {
    /// Two-qubit depth reduction factor vs the naive sequential layer
    /// (`naive_depth / rounds`); `1.0` for an empty schedule.
    pub fn depth_reduction(&self) -> f64 {
        if self.rounds == 0 {
            1.0
        } else {
            self.naive_depth as f64 / self.rounds as f64
        }
    }

    /// Whether the schedule met the Vizing `Δ + 1` edge-coloring bound.
    pub fn meets_vizing_bound(&self) -> bool {
        self.rounds <= self.max_degree + 1
    }

    /// Total two-qubit depth of a `p`-layer ansatz built from this schedule.
    pub fn two_qubit_depth(&self, layers: usize) -> usize {
        self.rounds * layers
    }
}

#[cfg(test)]
mod tests {
    use crate::depth::compile_maxcut;
    use graphlib::generators::{complete, star};

    #[test]
    fn report_counts_line_up_on_a_complete_graph() {
        let schedule = compile_maxcut(&complete(6)).unwrap();
        let m = *schedule.metrics();
        assert_eq!(m.qubits, 6);
        assert_eq!(m.input_terms, 15);
        assert_eq!(m.scheduled_terms, 15);
        assert_eq!(m.merged_duplicates, 0);
        assert_eq!(m.naive_depth, 15);
        assert_eq!(m.max_degree, 5);
        assert_eq!(m.rounds, 5);
        assert!(m.meets_vizing_bound());
        assert_eq!(m.two_qubit_depth(3), 15);
        assert!((m.depth_reduction() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn star_schedules_cannot_beat_sequential() {
        // Every edge of a star shares the hub, so rounds == terms and the
        // reduction factor is exactly 1.
        let schedule = compile_maxcut(&star(5).unwrap()).unwrap();
        let m = schedule.metrics();
        assert_eq!(m.rounds, 4);
        assert_eq!(m.naive_depth, 4);
        assert!((m.depth_reduction() - 1.0).abs() < 1e-12);
        assert!(m.meets_vizing_bound());
    }
}
