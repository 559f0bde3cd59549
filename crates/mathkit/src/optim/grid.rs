//! Exhaustive grid search over a rectangular parameter domain.
//!
//! The paper's landscape experiments sweep a `width × width` grid over
//! `(γ, β)`; the same machinery doubles as a (coarse) global optimizer for
//! the end-to-end comparison of surrogate graphs.

use super::{Objective, OptimResult};

/// Uniform grid search over an axis-aligned box.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSearch {
    /// Inclusive lower bounds, one per dimension.
    pub lower: Vec<f64>,
    /// Exclusive upper bounds, one per dimension.
    pub upper: Vec<f64>,
    /// Number of samples per dimension.
    pub points_per_dim: usize,
}

impl GridSearch {
    /// Creates a grid search over the box `[lower, upper)` with
    /// `points_per_dim` samples along each axis.
    ///
    /// # Panics
    ///
    /// Panics if the bounds have different lengths, any lower bound is not
    /// strictly below its upper bound, or `points_per_dim == 0`.
    pub fn new(lower: Vec<f64>, upper: Vec<f64>, points_per_dim: usize) -> Self {
        assert_eq!(lower.len(), upper.len(), "bound dimension mismatch");
        assert!(points_per_dim > 0, "points_per_dim must be positive");
        for (lo, hi) in lower.iter().zip(&upper) {
            assert!(lo < hi, "lower bound must be below upper bound");
        }
        Self {
            lower,
            upper,
            points_per_dim,
        }
    }

    /// Total number of grid points.
    pub fn total_points(&self) -> usize {
        self.points_per_dim.pow(self.lower.len() as u32)
    }

    /// Returns the grid point with the given flattened index.
    ///
    /// Index order is row-major with the first dimension varying slowest.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.total_points()`.
    pub fn point(&self, index: usize) -> Vec<f64> {
        let mut coords = vec![0.0; self.lower.len()];
        self.point_into(index, &mut coords);
        coords
    }

    /// Writes the grid point with the given flattened index into `coords`
    /// (one entry per dimension), as [`GridSearch::point`] returns it.
    fn point_into(&self, index: usize, coords: &mut [f64]) {
        assert!(index < self.total_points(), "grid index out of range");
        let mut rest = index;
        for dim in (0..coords.len()).rev() {
            let i = rest % self.points_per_dim;
            rest /= self.points_per_dim;
            let step = (self.upper[dim] - self.lower[dim]) / self.points_per_dim as f64;
            coords[dim] = self.lower[dim] + step * i as f64;
        }
    }

    /// Evaluates the objective at every grid point and returns the minimizer.
    /// Every point is written into one buffer, so the search allocates the
    /// same few buffers whatever the grid's size.
    ///
    /// # Panics
    ///
    /// Panics if the objective dimension does not match the grid dimension.
    pub fn minimize(&self, objective: &mut dyn Objective) -> OptimResult {
        assert_eq!(
            objective.dimension(),
            self.lower.len(),
            "objective dimension mismatch"
        );
        let total = self.total_points();
        let mut best_value = f64::INFINITY;
        let mut best_params = self.point(0);
        let mut p = vec![0.0; self.lower.len()];
        let mut history = Vec::with_capacity(total);
        for idx in 0..total {
            self.point_into(idx, &mut p);
            let v = objective.evaluate(&p);
            if v < best_value {
                best_value = v;
                best_params.copy_from_slice(&p);
            }
            history.push(best_value);
        }
        OptimResult {
            params: best_params,
            value: best_value,
            evaluations: total,
            history,
        }
    }

    /// Evaluates the objective at every grid point and returns all values in
    /// index order (the raw landscape).
    pub fn evaluate_all(&self, objective: &mut dyn Objective) -> Vec<f64> {
        let mut p = vec![0.0; self.lower.len()];
        (0..self.total_points())
            .map(|idx| {
                self.point_into(idx, &mut p);
                objective.evaluate(&p)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::FnObjective;

    #[test]
    fn grid_point_layout() {
        let g = GridSearch::new(vec![0.0, 0.0], vec![1.0, 2.0], 2);
        assert_eq!(g.total_points(), 4);
        assert_eq!(g.point(0), vec![0.0, 0.0]);
        assert_eq!(g.point(1), vec![0.0, 1.0]);
        assert_eq!(g.point(2), vec![0.5, 0.0]);
        assert_eq!(g.point(3), vec![0.5, 1.0]);
    }

    #[test]
    fn finds_minimum_of_quadratic() {
        let g = GridSearch::new(vec![-2.0, -2.0], vec![2.0, 2.0], 41);
        let mut obj = FnObjective::new(2, |p: &[f64]| (p[0] - 0.4).powi(2) + (p[1] + 0.9).powi(2));
        let result = g.minimize(&mut obj);
        assert!((result.params[0] - 0.4).abs() < 0.11);
        assert!((result.params[1] + 0.9).abs() < 0.11);
        assert_eq!(result.evaluations, 41 * 41);
    }

    /// Every output bit of a 2-D and a 3-D search, pinned from the
    /// per-point allocating implementation this one replaced.
    #[test]
    fn results_keep_their_bits() {
        use crate::optim::assert_result_bits;
        let g = GridSearch::new(vec![-1.0, 0.0], vec![2.0, 1.5], 7);
        let result = g.minimize(&mut FnObjective::new(2, |p: &[f64]| {
            (3.0 * p[0]).sin() * (2.0 * p[1]).cos() + 0.1 * p[0]
        }));
        assert_result_bits(
            "2-D grid",
            &result,
            &[0xbfe2492492492492, 0x0000000000000000],
            0xbff0bff676d9433c,
            49,
            (49, 0xcdedead50c3d8e67),
        );
        let g = GridSearch::new(vec![-1.0, -1.0, 0.0], vec![1.0, 1.0, 3.0], 4);
        let result = g.minimize(&mut FnObjective::new(3, |p: &[f64]| {
            (p[0] - 0.2).powi(2) + (p[1] + 0.4).powi(2) - p[2].sin()
        }));
        assert_result_bits(
            "3-D grid",
            &result,
            &[0x0000000000000000, 0xbfe0000000000000, 0x3ff8000000000000],
            0xbfee51e10192d3f1,
            64,
            (64, 0x14deea2b4ecd41ca),
        );
    }

    #[test]
    fn evaluate_all_returns_every_point() {
        let g = GridSearch::new(vec![0.0], vec![1.0], 10);
        let mut obj = FnObjective::new(1, |p: &[f64]| p[0]);
        let values = g.evaluate_all(&mut obj);
        assert_eq!(values.len(), 10);
        assert!(values.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    #[should_panic(expected = "points_per_dim must be positive")]
    fn rejects_zero_points() {
        let _ = GridSearch::new(vec![0.0], vec![1.0], 0);
    }

    #[test]
    #[should_panic(expected = "lower bound must be below upper bound")]
    fn rejects_inverted_bounds() {
        let _ = GridSearch::new(vec![1.0], vec![0.0], 3);
    }
}
