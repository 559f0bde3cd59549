//! Closed-form `p = 1` MaxCut expectation.
//!
//! For one QAOA layer the expectation of every edge term has a closed form
//! that depends only on the degrees of the edge's endpoints and the number of
//! triangles through the edge (Wang, Hadfield, Jiang, Rieffel, PRA 97, 022304
//! (2018)). This makes `p = 1` evaluation O(|E|) per parameter point and
//! therefore usable on the 30–1000-node graphs of the scalability studies,
//! where statevector simulation is impossible. `P1EdgeTerms` holds those
//! per-edge inputs; it is the `p = 1` arm of
//! [`QaoaInstance::expectation_with`], so every exact `p = 1` energy in the
//! workspace is this formula.
//!
//! [`QaoaInstance::expectation_with`]: crate::expectation::QaoaInstance::expectation_with

use crate::params::QaoaParams;
use crate::QaoaError;
use graphlib::Graph;

/// Expectation contribution of a single edge for `p = 1`.
///
/// `d_u` and `d_v` are the numbers of neighbours of `u` and `v` *excluding*
/// the other endpoint, and `triangles` is the number of common neighbours
/// (triangles through the edge).
pub fn edge_expectation_p1(gamma: f64, beta: f64, d_u: usize, d_v: usize, triangles: usize) -> f64 {
    let c = gamma.cos();
    let term1 = 0.25 * (4.0 * beta).sin() * gamma.sin() * (c.powi(d_u as i32) + c.powi(d_v as i32));
    let exponent = (d_u + d_v) as i32 - 2 * triangles as i32;
    let term2 = 0.25
        * (2.0 * beta).sin().powi(2)
        * c.powi(exponent)
        * (1.0 - (2.0 * gamma).cos().powi(triangles as i32));
    0.5 + term1 - term2
}

/// One edge's inputs to [`edge_expectation_p1`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EdgeTerm {
    /// Neighbours of `u` excluding `v`.
    d_u: usize,
    /// Neighbours of `v` excluding `u`.
    d_v: usize,
    /// Triangles through the edge.
    triangles: usize,
}

/// The per-edge `(d_u, d_v, triangles)` terms of one graph's closed-form
/// `p = 1` expectation, computed once, in `graph.edges()` order.
///
/// This is the one definition of the `p = 1` energy: [`QaoaInstance`]'s
/// exact-energy chooser, [`AnalyticP1Evaluator`] and
/// [`analytic_expectation_p1`] all sum [`P1EdgeTerms::value`], so they
/// return identical bits for the same graph and point.
///
/// [`QaoaInstance`]: crate::expectation::QaoaInstance
/// [`AnalyticP1Evaluator`]: crate::evaluator::AnalyticP1Evaluator
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct P1EdgeTerms {
    terms: Vec<EdgeTerm>,
}

impl P1EdgeTerms {
    /// Precomputes the terms of every edge of `graph` (none for an
    /// edgeless graph, whose value is then `0.0`).
    pub fn new(graph: &Graph) -> Self {
        let degrees = graph.degrees();
        let terms = graph
            .edges()
            .into_iter()
            .map(|(u, v)| EdgeTerm {
                d_u: degrees[u] - 1,
                d_v: degrees[v] - 1,
                triangles: graph.common_neighbors(u, v),
            })
            .collect();
        Self { terms }
    }

    /// The `p = 1` expectation at `(γ, β)`: [`edge_expectation_p1`] summed
    /// over the edges in `graph.edges()` order. Pure arithmetic, no
    /// allocation.
    pub fn value(&self, gamma: f64, beta: f64) -> f64 {
        let mut total = 0.0;
        for t in &self.terms {
            total += edge_expectation_p1(gamma, beta, t.d_u, t.d_v, t.triangles);
        }
        total
    }
}

/// Exact `p = 1` MaxCut expectation of a whole graph in O(|E|) time.
///
/// Builds the graph's per-edge terms per call; repeated evaluation should
/// hold them (or a `QaoaInstance` / `AnalyticP1Evaluator`, which do).
///
/// # Errors
///
/// Returns [`QaoaError::DegenerateGraph`] for graphs without edges and
/// [`QaoaError::InvalidParameters`] if `params` has more than one layer.
pub fn analytic_expectation_p1(graph: &Graph, params: &QaoaParams) -> Result<f64, QaoaError> {
    if params.layers() != 1 {
        return Err(QaoaError::InvalidParameters(
            "the analytic formula only covers p = 1",
        ));
    }
    if graph.node_count() == 0 || graph.edge_count() == 0 {
        return Err(QaoaError::DegenerateGraph);
    }
    Ok(P1EdgeTerms::new(graph).value(params.gammas[0], params.betas[0]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expectation::QaoaInstance;
    use graphlib::generators::{complete, connected_gnp, cycle, path, star};
    use mathkit::rng::seeded;
    use qsim::statevector::StatevectorWorkspace;

    #[test]
    fn matches_statevector_on_structured_graphs() {
        let mut rng = seeded(5);
        let graphs = vec![
            cycle(6).unwrap(),
            path(7).unwrap(),
            star(6).unwrap(),
            complete(5),
        ];
        for g in graphs {
            let instance = QaoaInstance::new(&g, 1).unwrap();
            for _ in 0..5 {
                let params = QaoaParams::random(1, &mut rng);
                let exact = instance
                    .statevector_expectation_with(&mut StatevectorWorkspace::new(), &params);
                let analytic = analytic_expectation_p1(&g, &params).unwrap();
                assert!(
                    (exact - analytic).abs() < 1e-8,
                    "graph {g}: exact {exact} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn matches_statevector_on_random_graphs() {
        let mut rng = seeded(9);
        for _ in 0..5 {
            let g = connected_gnp(8, 0.45, &mut rng).unwrap();
            let instance = QaoaInstance::new(&g, 1).unwrap();
            let params = QaoaParams::random(1, &mut rng);
            let exact =
                instance.statevector_expectation_with(&mut StatevectorWorkspace::new(), &params);
            let analytic = analytic_expectation_p1(&g, &params).unwrap();
            assert!((exact - analytic).abs() < 1e-8);
        }
    }

    #[test]
    fn zero_angles_give_half_edges() {
        let g = complete(6);
        let params = QaoaParams::new(vec![0.0], vec![0.0]).unwrap();
        let e = analytic_expectation_p1(&g, &params).unwrap();
        assert!((e - g.edge_count() as f64 / 2.0).abs() < 1e-12);
    }

    #[test]
    fn handles_large_sparse_graphs_quickly() {
        let mut rng = seeded(1);
        let g = connected_gnp(500, 0.01, &mut rng).unwrap();
        let params = QaoaParams::new(vec![0.6], vec![0.4]).unwrap();
        let e = analytic_expectation_p1(&g, &params).unwrap();
        assert!(e > 0.0 && e <= g.edge_count() as f64);
    }

    #[test]
    fn rejects_wrong_layer_count_and_degenerate_graphs() {
        let g = cycle(5).unwrap();
        let p2 = QaoaParams::new(vec![0.1, 0.2], vec![0.3, 0.4]).unwrap();
        assert!(analytic_expectation_p1(&g, &p2).is_err());
        let p1 = QaoaParams::new(vec![0.1], vec![0.3]).unwrap();
        assert!(analytic_expectation_p1(&graphlib::Graph::new(3), &p1).is_err());
    }
}
