//! Nelder–Mead simplex minimization.
//!
//! This is the repository's stand-in for SciPy's COBYLA: both are
//! derivative-free local optimizers suited to the low-dimensional (2p)
//! parameter spaces of QAOA. The implementation follows the standard
//! reflection / expansion / contraction / shrink schedule with the usual
//! coefficients (1, 2, 0.5, 0.5).

use super::{Objective, OptimResult};

/// Configuration for [`NelderMead`].
#[derive(Debug, Clone, PartialEq)]
pub struct NelderMeadOptions {
    /// Maximum number of iterations (simplex updates).
    pub max_iters: usize,
    /// Convergence tolerance on the spread of simplex objective values.
    pub f_tol: f64,
    /// Initial simplex step added to each coordinate of the start point.
    pub initial_step: f64,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        Self {
            max_iters: 200,
            f_tol: 1e-8,
            initial_step: 0.35,
        }
    }
}

/// Nelder–Mead simplex optimizer.
///
/// A run allocates its simplex, its ordering, centroid and trial-point
/// buffers and its history once, up front: an iteration moves vertices by
/// swapping buffers, so the number of allocations does not depend on the
/// iteration budget (for dimensions up to 19, where the stable sort of the
/// vertex order needs no buffer of its own).
#[derive(Debug, Clone, Default)]
pub struct NelderMead {
    options: NelderMeadOptions,
}

impl NelderMead {
    /// Creates an optimizer with the given options.
    pub fn new(options: NelderMeadOptions) -> Self {
        Self { options }
    }

    /// Minimizes `objective` starting from `x0`.
    ///
    /// With `max_iters == 0` the run evaluates the initial simplex (`x0`
    /// and one step along each axis) and returns its best vertex.
    ///
    /// # Panics
    ///
    /// Panics if `x0.len()` does not match the objective dimension or is zero.
    pub fn minimize(&self, objective: &mut dyn Objective, x0: &[f64]) -> OptimResult {
        let n = objective.dimension();
        assert!(n > 0, "objective dimension must be positive");
        assert_eq!(x0.len(), n, "start point dimension mismatch");

        let mut evaluations = 0usize;
        let mut eval = |x: &[f64]| {
            evaluations += 1;
            objective.evaluate(x)
        };

        // Build the initial simplex: x0 plus a step along each axis.
        let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
        simplex.push(x0.to_vec());
        for i in 0..n {
            let mut v = x0.to_vec();
            v[i] += self.options.initial_step;
            simplex.push(v);
        }
        let mut values: Vec<f64> = simplex.iter().map(|v| eval(v)).collect();

        let mut history = Vec::with_capacity(self.options.max_iters);
        let mut order: Vec<usize> = Vec::with_capacity(n + 1);
        let mut centroid = vec![0.0; n];
        let mut reflect = vec![0.0; n];
        // The expansion, contraction or shrunk point.
        let mut trial = vec![0.0; n];

        for _ in 0..self.options.max_iters {
            // Order the simplex by objective value.
            order.clear();
            order.extend(0..=n);
            order.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("NaN objective"));
            let best = order[0];
            let worst = order[n];
            let second_worst = order[n - 1];
            history.push(values[best]);

            let spread = values[worst] - values[best];
            if spread.abs() < self.options.f_tol {
                break;
            }

            // Centroid of all points except the worst.
            centroid.fill(0.0);
            for &idx in order.iter().take(n) {
                for (c, &xi) in centroid.iter_mut().zip(&simplex[idx]) {
                    *c += xi / n as f64;
                }
            }

            for ((r, c), w) in reflect.iter_mut().zip(&centroid).zip(&simplex[worst]) {
                *r = c + (c - w);
            }
            let f_reflect = eval(&reflect);

            if f_reflect < values[best] {
                // Try expansion.
                for ((e, c), w) in trial.iter_mut().zip(&centroid).zip(&simplex[worst]) {
                    *e = c + 2.0 * (c - w);
                }
                let f_expand = eval(&trial);
                if f_expand < f_reflect {
                    std::mem::swap(&mut simplex[worst], &mut trial);
                    values[worst] = f_expand;
                } else {
                    std::mem::swap(&mut simplex[worst], &mut reflect);
                    values[worst] = f_reflect;
                }
            } else if f_reflect < values[second_worst] {
                std::mem::swap(&mut simplex[worst], &mut reflect);
                values[worst] = f_reflect;
            } else {
                // Contraction toward the better of (worst, reflected).
                let (toward, f_toward) = if f_reflect < values[worst] {
                    (&reflect, f_reflect)
                } else {
                    (&simplex[worst], values[worst])
                };
                for ((t, c), w) in trial.iter_mut().zip(&centroid).zip(toward) {
                    *t = c + 0.5 * (w - c);
                }
                let f_contract = eval(&trial);
                if f_contract < f_toward {
                    std::mem::swap(&mut simplex[worst], &mut trial);
                    values[worst] = f_contract;
                } else {
                    // Shrink everything toward the best vertex.
                    for idx in 0..=n {
                        if idx == best {
                            continue;
                        }
                        for ((s, b), x) in trial.iter_mut().zip(&simplex[best]).zip(&simplex[idx]) {
                            *s = b + 0.5 * (x - b);
                        }
                        values[idx] = eval(&trial);
                        std::mem::swap(&mut simplex[idx], &mut trial);
                    }
                }
            }
        }

        // Final best vertex.
        let mut best = 0;
        for i in 1..values.len() {
            if values[i] < values[best] {
                best = i;
            }
        }
        OptimResult {
            params: simplex.swap_remove(best),
            value: values[best],
            evaluations,
            history,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::FnObjective;

    #[test]
    fn minimizes_quadratic_bowl() {
        let mut obj = FnObjective::new(2, |p: &[f64]| {
            (p[0] - 1.5) * (p[0] - 1.5) + (p[1] + 0.5) * (p[1] + 0.5)
        });
        let result = NelderMead::default().minimize(&mut obj, &[0.0, 0.0]);
        assert!((result.params[0] - 1.5).abs() < 1e-3, "{:?}", result.params);
        assert!((result.params[1] + 0.5).abs() < 1e-3, "{:?}", result.params);
        assert!(result.value < 1e-5);
        assert!(result.evaluations > 0);
    }

    #[test]
    fn minimizes_rosenbrock_reasonably() {
        let mut obj = FnObjective::new(2, |p: &[f64]| {
            let a = 1.0 - p[0];
            let b = p[1] - p[0] * p[0];
            a * a + 100.0 * b * b
        });
        let opts = NelderMeadOptions {
            max_iters: 2000,
            ..Default::default()
        };
        let result = NelderMead::new(opts).minimize(&mut obj, &[-1.0, 1.0]);
        assert!(result.value < 1e-4, "value {}", result.value);
    }

    #[test]
    fn history_is_monotonically_nonincreasing() {
        let mut obj = FnObjective::new(1, |p: &[f64]| p[0] * p[0]);
        let result = NelderMead::default().minimize(&mut obj, &[3.0]);
        for w in result.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    /// Every output bit of seven runs, pinned from the per-iteration
    /// allocating implementation this one replaced. Between them the runs
    /// take every branch: the 1-D bowl expands and contracts both ways,
    /// Rosenbrock accepts plain reflections as well, and the rugged 3-D
    /// objective, the wells and the staircase also shrink, and the
    /// staircase's tied plateaus pin the vertex order. A zero budget evaluates the
    /// initial simplex and returns its best vertex.
    #[test]
    fn results_keep_their_bits() {
        use crate::optim::assert_result_bits;
        let nm = |max_iters| {
            NelderMead::new(NelderMeadOptions {
                max_iters,
                ..Default::default()
            })
        };
        let bowl = nm(200).minimize(
            &mut FnObjective::new(1, |p: &[f64]| (p[0] - 1.3) * (p[0] - 1.3)),
            &[3.0],
        );
        assert_result_bits(
            "1-D bowl",
            &bowl,
            &[0x3ff4cd1999999998],
            0x3e370a3d70a2c28f,
            30,
            (15, 0x511cdec2eef6bab0),
        );
        let rosenbrock = nm(120).minimize(
            &mut FnObjective::new(2, |p: &[f64]| {
                let a = 1.0 - p[0];
                let b = p[1] - p[0] * p[0];
                a * a + 100.0 * b * b
            }),
            &[-1.2, 1.0],
        );
        assert_result_bits(
            "Rosenbrock",
            &rosenbrock,
            &[0x3fefff7fbc9110f2, 0x3fefff0187efe847],
            0x3e3079efb84a2997,
            157,
            (85, 0x5b2076a2f93f2322),
        );
        let rugged = nm(150).minimize(
            &mut FnObjective::new(3, |p: &[f64]| {
                p.iter()
                    .enumerate()
                    .map(|(i, x)| (x - 0.3 * i as f64).powi(2) + 0.3 * (7.0 * x).sin())
                    .sum()
            }),
            &[0.9, -0.4, 1.7],
        );
        assert_result_bits(
            "rugged 3-D",
            &rugged,
            &[0x3fe2d2bb5b84be5a, 0xbfc46f9f88998f5c, 0x3ff704a329b1360e],
            0x3fe1fb03129b8f35,
            110,
            (60, 0xfe76b1533813a2c7),
        );
        // A narrow well on an exactly flat plane: the first contraction ties
        // the worst vertex, so the simplex shrinks (in 1-D and 2-D), and
        // the tied vertices test the stable ordering.
        let well = |center: &'static [f64]| {
            FnObjective::new(center.len(), move |p: &[f64]| {
                let r2: f64 = p.iter().zip(center).map(|(x, c)| (x - c).powi(2)).sum();
                -(-r2 / 0.00002).exp()
            })
        };
        let well_1d = nm(60).minimize(&mut well(&[0.317]), &[0.3071]);
        assert_result_bits(
            "1-D well",
            &well_1d,
            &[0x3fd449bac226809e],
            0xbfefffffffc476c9,
            43,
            (21, 0xa90595974cf1970f),
        );
        let well_2d = nm(60).minimize(&mut well(&[0.317, -0.193]), &[0.3071, -0.2013]);
        assert_result_bits(
            "2-D well",
            &well_2d,
            &[0x3fd449b8ecad20bd, 0xbfc8b43ae9402d5c],
            0xbfeffffffbe23dc3,
            85,
            (44, 0xca67d53571bdf643),
        );
        // A staircase: whole plateaus tie, so which tied vertex is worst
        // depends on the order being rebuilt stably every iteration.
        let steps = nm(80).minimize(
            &mut FnObjective::new(3, |p: &[f64]| {
                p.iter()
                    .enumerate()
                    .map(|(i, x)| (3.0 * (x - 0.2 * i as f64).abs()).floor())
                    .sum()
            }),
            &[1.1, -0.7, 0.9],
        );
        assert_result_bits(
            "3-D staircase",
            &steps,
            &[0xbfaac243d86373a0, 0x3fd29ede13ce465c, 0x3fe1bcff5e2ec677],
            0x0000000000000000,
            18,
            (9, 0x102569a138113998),
        );
        let zero_budget = nm(0).minimize(
            &mut FnObjective::new(2, |p: &[f64]| p[0] * p[0] + p[1]),
            &[0.5, 0.5],
        );
        assert_result_bits(
            "zero budget",
            &zero_budget,
            &[0x3fe0000000000000, 0x3fe0000000000000],
            0x3fe8000000000000,
            3,
            (0, 0xcbf29ce484222325),
        );
    }

    #[test]
    #[should_panic(expected = "start point dimension mismatch")]
    fn panics_on_dimension_mismatch() {
        let mut obj = FnObjective::new(2, |_: &[f64]| 0.0);
        let _ = NelderMead::default().minimize(&mut obj, &[0.0]);
    }
}
