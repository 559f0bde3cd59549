//! Derivative-free optimizers for the classical half of the QAOA loop.
//!
//! The paper drives QAOA with SciPy's COBYLA. This module provides
//! [`nelder_mead`](nelder_mead::NelderMead) (the default substitute — another
//! simplex-style derivative-free local optimizer), [`spsa`](spsa::Spsa)
//! (a stochastic optimizer frequently used on noisy quantum hardware), and
//! [`grid`](grid::GridSearch) (the exhaustive landscape sweep used for the
//! landscape figures). All optimizers *minimize* their objective; QAOA
//! maximization is handled by negating the expectation value in the caller.

pub mod grid;
pub mod nelder_mead;
pub mod spsa;

pub use grid::GridSearch;
pub use nelder_mead::{NelderMead, NelderMeadOptions};
pub use spsa::{Spsa, SpsaOptions};

/// Outcome of a single optimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimResult {
    /// Best parameter vector found.
    pub params: Vec<f64>,
    /// Objective value at [`OptimResult::params`].
    pub value: f64,
    /// Number of objective evaluations performed.
    pub evaluations: usize,
    /// Objective value recorded after each iteration (for convergence plots).
    pub history: Vec<f64>,
}

/// A minimization problem over a fixed-dimensional real parameter vector.
///
/// The trait is object safe so optimizers can be driven through `&mut dyn`
/// objectives (useful when the objective carries a noisy simulator).
pub trait Objective {
    /// Number of parameters.
    fn dimension(&self) -> usize;

    /// Evaluates the objective at `params`.
    ///
    /// `params.len()` is guaranteed to equal [`Objective::dimension`] when the
    /// call is made by the optimizers in this module.
    fn evaluate(&mut self, params: &[f64]) -> f64;
}

/// Wraps a closure as an [`Objective`].
pub struct FnObjective<F: FnMut(&[f64]) -> f64> {
    dim: usize,
    f: F,
}

impl<F: FnMut(&[f64]) -> f64> FnObjective<F> {
    /// Creates an objective of dimension `dim` from a closure.
    pub fn new(dim: usize, f: F) -> Self {
        Self { dim, f }
    }
}

impl<F: FnMut(&[f64]) -> f64> Objective for FnObjective<F> {
    fn dimension(&self) -> usize {
        self.dim
    }

    fn evaluate(&mut self, params: &[f64]) -> f64 {
        (self.f)(params)
    }
}

/// FNV-1a over the bits of `values`, for pinning optimizer histories.
#[cfg(test)]
fn bits_digest(values: &[f64]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Asserts every bit of `result`: each parameter, the value, the evaluation
/// count, and the history's length and digest.
#[cfg(test)]
fn assert_result_bits(
    what: &str,
    result: &OptimResult,
    params: &[u64],
    value: u64,
    evaluations: usize,
    history: (usize, u64),
) {
    let got: Vec<u64> = result.params.iter().map(|p| p.to_bits()).collect();
    assert_eq!(got, params, "{what}: params");
    assert_eq!(result.value.to_bits(), value, "{what}: value");
    assert_eq!(result.evaluations, evaluations, "{what}: evaluations");
    assert_eq!(
        (result.history.len(), bits_digest(&result.history)),
        history,
        "{what}: history"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_objective_forwards_calls() {
        let mut obj = FnObjective::new(2, |p: &[f64]| p[0] + p[1]);
        assert_eq!(obj.dimension(), 2);
        assert_eq!(obj.evaluate(&[1.0, 2.0]), 3.0);
    }
}
