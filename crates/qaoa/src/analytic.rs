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

/// One edge's inputs to [`edge_expectation_p1`], plus the exponent of its
/// `cos γ` factor in the second term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EdgeTerm {
    /// Neighbours of `u` excluding `v`.
    d_u: u32,
    /// Neighbours of `v` excluding `u`.
    d_v: u32,
    /// `d_u + d_v − 2·triangles`, never negative.
    exponent: u32,
    /// Triangles through the edge.
    triangles: u32,
}

/// Exponents `0 … 2^TABLE_BITS − 1` come straight from a [`Powers`] table.
const TABLE_BITS: u32 = 6;
const TABLE_LEN: usize = 1 << TABLE_BITS;

/// `x^k` for every `u32` exponent `k`, bitwise-equal to `x.powi(k)`.
///
/// A runtime-exponent `f64::powi` is `__powidf2`: it starts from `1.0` and,
/// walking the exponent's bits from the lowest, multiplies in `x^(2^h)`
/// (formed by repeated squaring) for each set bit `h`. `table[k]` is built
/// in exactly that order, `table[k] = table[k − 2^h]·squares[h]` with `h`
/// the highest bit of `k`, and bits above the table multiply the matching
/// squares lowest bit first, so every exponent takes the same products.
struct Powers {
    /// `squares[h] = x^(2^h)`, up to the highest bit of the largest exponent.
    squares: [f64; 32],
    /// `x^k` for `k` up to the largest exponent, at most `TABLE_LEN − 1`.
    table: [f64; TABLE_LEN],
}

impl Powers {
    /// The powers of `x` up to exponent `max`.
    fn new(x: f64, max: u32) -> Self {
        let mut squares = [0.0; 32];
        let mut square = x;
        for slot in squares
            .iter_mut()
            .take((u32::BITS - max.leading_zeros()) as usize)
        {
            *slot = square;
            square *= square;
        }
        let mut table = [0.0; TABLE_LEN];
        table[0] = 1.0;
        for k in 1..(max as usize + 1).min(TABLE_LEN) {
            let h = k.ilog2();
            table[k] = table[k - (1 << h)] * squares[h as usize];
        }
        Self { squares, table }
    }

    /// `x^k`, for `k` no larger than the `max` the table was built for.
    #[inline]
    fn pow(&self, k: u32) -> f64 {
        let mut value = self.table[k as usize & (TABLE_LEN - 1)];
        let mut high = k >> TABLE_BITS;
        let mut h = TABLE_BITS as usize;
        while high != 0 {
            if high & 1 != 0 {
                value *= self.squares[h];
            }
            high >>= 1;
            h += 1;
        }
        value
    }
}

/// The per-edge `(d_u, d_v, triangles)` terms of one graph's closed-form
/// `p = 1` expectation, computed once, in `graph.edges()` order.
///
/// This is the one definition of the `p = 1` energy: [`QaoaInstance`]'s
/// exact-energy chooser, [`AnalyticP1Evaluator`] and
/// [`analytic_expectation_p1`] all sum [`P1EdgeTerms::value`], so they
/// return identical bits for the same graph and point.
///
/// Each point computes its angle-only factors once and reads every power
/// from two small tables (`cos γ` up to the largest exponent, `cos 2γ` up
/// to the largest triangle count) instead of calling `powi` four times per
/// edge. The tables repeat `powi`'s own products, so [`P1EdgeTerms::value`]
/// is bitwise-equal to summing [`edge_expectation_p1`] over the edges (see
/// `docs/determinism.md`).
///
/// [`QaoaInstance`]: crate::expectation::QaoaInstance
/// [`AnalyticP1Evaluator`]: crate::evaluator::AnalyticP1Evaluator
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct P1EdgeTerms {
    terms: Vec<EdgeTerm>,
    /// The largest exponent of `cos γ`: every `d_u`, `d_v` and `exponent`.
    max_cos_exponent: u32,
    /// The largest triangle count, the largest exponent of `cos 2γ`.
    max_triangles: u32,
}

impl P1EdgeTerms {
    /// Precomputes the terms of every edge of `graph` (none for an
    /// edgeless graph, whose value is then `0.0`).
    pub fn new(graph: &Graph) -> Self {
        let degrees = graph.degrees();
        let count = |k: usize| u32::try_from(k).expect("degree fits in u32");
        let terms: Vec<EdgeTerm> = graph
            .edges()
            .map(|(u, v)| {
                let (d_u, d_v) = (count(degrees[u] - 1), count(degrees[v] - 1));
                let triangles = count(graph.common_neighbors(u, v));
                EdgeTerm {
                    d_u,
                    d_v,
                    exponent: d_u + d_v - 2 * triangles,
                    triangles,
                }
            })
            .collect();
        let max_of = |f: fn(&EdgeTerm) -> u32| terms.iter().map(f).max().unwrap_or(0);
        Self {
            max_cos_exponent: max_of(|t| t.d_u.max(t.d_v).max(t.exponent)),
            max_triangles: max_of(|t| t.triangles),
            terms,
        }
    }

    /// The `p = 1` expectation at `(γ, β)`: [`edge_expectation_p1`] summed
    /// over the edges in `graph.edges()` order, bit for bit. Pure
    /// arithmetic on the stack, no allocation.
    ///
    /// Per edge it evaluates `0.5 + A·(cᵈᵘ + cᵈᵛ) − B·cᵉ·(1 − c₂ᵗ)` with
    /// `c = cos γ`, `c₂ = cos 2γ`, `A = 0.25·sin 4β·sin γ`,
    /// `B = 0.25·sin²2β` and `e = d_u + d_v − 2t`: the oracle's expression
    /// with the same association, its angle factors hoisted out of the loop.
    pub fn value(&self, gamma: f64, beta: f64) -> f64 {
        let a = 0.25 * (4.0 * beta).sin() * gamma.sin();
        let b = 0.25 * (2.0 * beta).sin().powi(2);
        let cos = Powers::new(gamma.cos(), self.max_cos_exponent);
        let cos2 = Powers::new((2.0 * gamma).cos(), self.max_triangles);
        let mut total = 0.0;
        for t in &self.terms {
            let term1 = a * (cos.pow(t.d_u) + cos.pow(t.d_v));
            let term2 = b * cos.pow(t.exponent) * (1.0 - cos2.pow(t.triangles));
            total += 0.5 + term1 - term2;
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

    /// Every table power equals `powi` bit for bit, below and above the
    /// table, for bases of either sign, near `±1` (where high powers stay
    /// large) and at the special values.
    #[test]
    fn power_tables_equal_powi_bitwise() {
        use rand::Rng;
        let mut rng = seeded(23);
        let mut bases = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            std::f64::consts::FRAC_PI_2.cos(),
            f64::NAN,
            f64::INFINITY,
        ];
        bases.extend((0..64).map(|_| rng.gen_range(-1.0f64..1.0)));
        bases.extend((0..64).map(|_| {
            let near_one = 1.0 - rng.gen_range(0.0f64..1e-3);
            if rng.gen::<bool>() {
                near_one
            } else {
                -near_one
            }
        }));
        for x in bases {
            for max in [0, 1, 2, 63, 64, 200, 1100] {
                let powers = Powers::new(x, max);
                for k in 0..=max {
                    assert_eq!(
                        powers.pow(k).to_bits(),
                        x.powi(k as i32).to_bits(),
                        "{x}^{k} from a table built up to {max}"
                    );
                }
            }
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
