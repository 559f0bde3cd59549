//! Classical optimization drivers for QAOA and the approximation-ratio metric.
//!
//! The paper drives its end-to-end experiments with COBYLA restarts; here the
//! same protocol runs on gradient-free optimizers from `mathkit`, behind one
//! abstraction:
//!
//! * [`Optimizer`] — one **step-budgeted local maximization** of a QAOA
//!   energy from a given start point. Implementations are deterministic
//!   given the RNG state they are handed: [`NelderMeadOptimizer`] (the
//!   COBYLA stand-in, draws nothing from the RNG) and [`SpsaOptimizer`]
//!   (draws its Rademacher perturbations from the RNG, in iteration order).
//!   [`OptimizerConfig`] is the runtime-selectable enum over both.
//! * [`OptimizeDriver`] — the shared restart protocol: global-scan seeding
//!   of the first restart (`seed_start`'s coarse grid / random pool),
//!   random starts for the rest, best-so-far tracking, and the stopping
//!   criteria ([`OptimizeDriver::target_value`],
//!   [`OptimizeDriver::max_evaluations`]). Every consumer of a
//!   multi-restart optimization — [`maximize_with_restarts`],
//!   `red_qaoa::transfer`'s parameter-transfer scoring and its refine step,
//!   and the engine's `OptimizeJob` — goes through this one loop.
//!
//! The drivers *maximize* the cost expectation by minimizing its negation.

use crate::evaluator::EnergyEvaluator;
use crate::params::{QaoaParams, BETA_MAX, GAMMA_MAX};
use crate::QaoaError;
use mathkit::optim::{FnObjective, GridSearch, NelderMead, NelderMeadOptions, Spsa, SpsaOptions};
use rand::Rng;
use std::cell::RefCell;
use std::rc::Rc;

/// The paper's restart schedule for the end-to-end experiments (Figure 17):
/// 20 restarts at `p = 1`, 50 at `p = 2`, 100 for deeper circuits.
pub fn paper_restarts(layers: usize) -> usize {
    match layers {
        0 | 1 => 20,
        2 => 50,
        _ => 100,
    }
}

/// One gradient-free, step-budgeted local maximization of a QAOA energy.
///
/// Implementations receive the shared evaluation state of the enclosing
/// session — one `scratch` and one monotonically increasing `eval_index` —
/// so per-point stochastic backends see a fresh noise substream per
/// objective call and sequential-mode backends consume their stream in call
/// order, exactly as the restart loop always did.
///
/// **Determinism contract:** for a fixed evaluator value, `maximize_from` is
/// a pure function of `(start, max_iters, rng state, eval_index)`. Optimizers
/// draw randomness *only* from the `rng` they are handed (Nelder–Mead draws
/// none), which is what lets the engine hand each batched optimization job
/// its own derived substream and stay bitwise thread-count invariant.
pub trait Optimizer {
    /// Short human-readable name (used by benches and JSON output).
    fn name(&self) -> &'static str;

    /// Maximizes `evaluator`'s energy from the flattened start point, with a
    /// budget of `max_iters` optimizer iterations.
    fn maximize_from<E: EnergyEvaluator, R: Rng>(
        &self,
        evaluator: &E,
        scratch: &mut E::Scratch,
        eval_index: &mut u64,
        start: &[f64],
        max_iters: usize,
        rng: &mut R,
    ) -> OptimizerRun;
}

/// Result of one [`Optimizer`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizerRun {
    /// The best parameters found.
    pub params: QaoaParams,
    /// The best (maximized) expectation value.
    pub value: f64,
    /// Number of objective evaluations consumed.
    pub evaluations: usize,
}

/// The Nelder–Mead simplex optimizer (the repository's COBYLA stand-in), as
/// an [`Optimizer`]. Deterministic: draws nothing from the RNG.
#[derive(Debug, Clone, PartialEq)]
pub struct NelderMeadOptimizer {
    /// Convergence tolerance on the spread of simplex objective values.
    pub f_tol: f64,
    /// Initial simplex step added to each coordinate of the start point.
    pub initial_step: f64,
}

impl Default for NelderMeadOptimizer {
    fn default() -> Self {
        let defaults = NelderMeadOptions::default();
        Self {
            f_tol: defaults.f_tol,
            initial_step: defaults.initial_step,
        }
    }
}

impl Optimizer for NelderMeadOptimizer {
    fn name(&self) -> &'static str {
        "nelder_mead"
    }

    fn maximize_from<E: EnergyEvaluator, R: Rng>(
        &self,
        evaluator: &E,
        scratch: &mut E::Scratch,
        eval_index: &mut u64,
        start: &[f64],
        max_iters: usize,
        _rng: &mut R,
    ) -> OptimizerRun {
        let nm = NelderMead::new(NelderMeadOptions {
            max_iters,
            f_tol: self.f_tol,
            initial_step: self.initial_step,
        });
        // One parameter set per run, overwritten at every evaluation.
        let mut params = QaoaParams::from_flat(start).expect("start has the evaluator's shape");
        let mut objective = FnObjective::new(start.len(), |flat: &[f64]| {
            params.copy_from_flat(flat);
            let value = evaluator.energy(scratch, *eval_index, &params);
            *eval_index += 1;
            -value
        });
        let result = nm.minimize(&mut objective, start);
        params.copy_from_flat(&result.params);
        OptimizerRun {
            params,
            value: -result.value,
            evaluations: result.evaluations,
        }
    }
}

/// Simultaneous Perturbation Stochastic Approximation as an [`Optimizer`]:
/// two evaluations per iteration regardless of dimension, the classic choice
/// for optimizing variational circuits on noisy hardware. The Rademacher
/// perturbation directions are drawn from the session RNG in iteration
/// order, so a run is a pure function of the seed (see
/// `docs/determinism.md`, convergence semantics).
#[derive(Debug, Clone, PartialEq)]
pub struct SpsaOptimizer {
    /// Initial step-size numerator `a` in `a_k = a / (k + 1 + A)^alpha`.
    pub a: f64,
    /// Stability constant `A`.
    pub big_a: f64,
    /// Step-size decay exponent `alpha`.
    pub alpha: f64,
    /// Initial perturbation size `c` in `c_k = c / (k + 1)^gamma`.
    pub c: f64,
    /// Perturbation decay exponent `gamma`.
    pub gamma: f64,
}

impl Default for SpsaOptimizer {
    fn default() -> Self {
        let defaults = SpsaOptions::default();
        Self {
            a: defaults.a,
            big_a: defaults.big_a,
            alpha: defaults.alpha,
            c: defaults.c,
            gamma: defaults.gamma,
        }
    }
}

impl Optimizer for SpsaOptimizer {
    fn name(&self) -> &'static str {
        "spsa"
    }

    fn maximize_from<E: EnergyEvaluator, R: Rng>(
        &self,
        evaluator: &E,
        scratch: &mut E::Scratch,
        eval_index: &mut u64,
        start: &[f64],
        max_iters: usize,
        rng: &mut R,
    ) -> OptimizerRun {
        let spsa = Spsa::new(SpsaOptions {
            max_iters,
            a: self.a,
            big_a: self.big_a,
            alpha: self.alpha,
            c: self.c,
            gamma: self.gamma,
        });
        // One parameter set per run, overwritten at every evaluation.
        let mut params = QaoaParams::from_flat(start).expect("start has the evaluator's shape");
        let mut objective = FnObjective::new(start.len(), |flat: &[f64]| {
            params.copy_from_flat(flat);
            let value = evaluator.energy(scratch, *eval_index, &params);
            *eval_index += 1;
            -value
        });
        let result = spsa.minimize(&mut objective, start, rng);
        params.copy_from_flat(&result.params);
        OptimizerRun {
            params,
            value: -result.value,
            evaluations: result.evaluations,
        }
    }
}

/// Runtime-selectable optimizer flavor: the [`Optimizer`] trait has generic
/// methods (over the evaluator and RNG), so job types that need to *store* a
/// choice of optimizer — the engine's `OptimizeJob`, experiment configs —
/// hold this enum instead of a trait object.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimizerConfig {
    /// Nelder–Mead simplex (the default; the paper's COBYLA stand-in).
    NelderMead(NelderMeadOptimizer),
    /// SPSA with the given gain-sequence hyperparameters.
    Spsa(SpsaOptimizer),
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig::NelderMead(NelderMeadOptimizer::default())
    }
}

impl OptimizerConfig {
    /// SPSA with default hyperparameters.
    pub fn spsa() -> Self {
        OptimizerConfig::Spsa(SpsaOptimizer::default())
    }
}

impl Optimizer for OptimizerConfig {
    fn name(&self) -> &'static str {
        match self {
            OptimizerConfig::NelderMead(o) => o.name(),
            OptimizerConfig::Spsa(o) => o.name(),
        }
    }

    fn maximize_from<E: EnergyEvaluator, R: Rng>(
        &self,
        evaluator: &E,
        scratch: &mut E::Scratch,
        eval_index: &mut u64,
        start: &[f64],
        max_iters: usize,
        rng: &mut R,
    ) -> OptimizerRun {
        match self {
            OptimizerConfig::NelderMead(o) => {
                o.maximize_from(evaluator, scratch, eval_index, start, max_iters, rng)
            }
            OptimizerConfig::Spsa(o) => {
                o.maximize_from(evaluator, scratch, eval_index, start, max_iters, rng)
            }
        }
    }
}

/// Result of a multi-restart QAOA maximization.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeOutcome {
    /// The best parameters found across all restarts.
    pub best_params: QaoaParams,
    /// The best (maximized) expectation value.
    pub best_value: f64,
    /// The best value found by each restart.
    pub restart_values: Vec<f64>,
    /// The best parameters found by each restart (index-aligned with
    /// `restart_values`). Parameter-transfer scoring re-evaluates these on
    /// the full graph to form the "average result" comparison of Figure 17.
    pub restart_params: Vec<QaoaParams>,
    /// Total number of objective evaluations across restarts.
    pub evaluations: usize,
}

impl OptimizeOutcome {
    /// Mean of the per-restart best values (the "average result" metric of
    /// Figure 17).
    pub fn average_restart_value(&self) -> f64 {
        if self.restart_values.is_empty() {
            return self.best_value;
        }
        self.restart_values.iter().sum::<f64>() / self.restart_values.len() as f64
    }
}

/// Options for [`maximize_with_restarts`].
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeOptions {
    /// Number of random restarts.
    pub restarts: usize,
    /// Maximum iterations per restart.
    pub max_iters: usize,
}

impl Default for OptimizeOptions {
    fn default() -> Self {
        Self {
            restarts: 5,
            max_iters: 120,
        }
    }
}

/// Number of grid points per axis in the `p = 1` global scan that seeds the
/// first restart of [`maximize_with_restarts`].
const SEED_SCAN_POINTS_PER_DIM: usize = 10;

/// Size of the random candidate pool (per layer) that seeds the first restart
/// for `p > 1`, where an exhaustive grid is infeasible.
const SEED_POOL_PER_LAYER: usize = 32;

/// Picks a globally promising starting point for the first restart.
///
/// The QAOA landscape has near-degenerate secondary basins whose optima do
/// *not* transfer between graphs; a purely random restart protocol with a
/// small budget regularly converges into one of them. A coarse global scan
/// (exhaustive over `(γ, β)` for `p = 1`, best-of-random-pool for deeper
/// circuits) reliably lands the local refinement in the principal basin.
fn seed_start<R: Rng, E: EnergyEvaluator>(
    evaluator: &E,
    scratch: &mut E::Scratch,
    eval_index: &mut u64,
    rng: &mut R,
    evaluations: &mut usize,
) -> Vec<f64> {
    let layers = evaluator.layers();
    let mut call = |params: &QaoaParams| {
        let value = evaluator.energy(scratch, *eval_index, params);
        *eval_index += 1;
        value
    };
    if layers == 1 {
        let grid = GridSearch::new(
            vec![0.0, 0.0],
            vec![GAMMA_MAX, BETA_MAX],
            SEED_SCAN_POINTS_PER_DIM,
        );
        let mut params = QaoaParams::new(vec![0.0], vec![0.0]).expect("one layer");
        let mut objective = FnObjective::new(2, |flat: &[f64]| {
            params.copy_from_flat(flat);
            -call(&params)
        });
        let result = grid.minimize(&mut objective);
        *evaluations += result.evaluations;
        result.params
    } else {
        let pool = SEED_POOL_PER_LAYER * layers;
        let mut best = QaoaParams::random(layers, rng);
        let mut best_value = call(&best);
        for _ in 1..pool {
            let candidate = QaoaParams::random(layers, rng);
            let value = call(&candidate);
            if value > best_value {
                best_value = value;
                best = candidate;
            }
        }
        *evaluations += pool;
        best.to_flat()
    }
}

/// The shared multi-restart maximization protocol over any [`Optimizer`].
///
/// Owns everything every caller used to duplicate: global-scan seeding of
/// the first restart, random starts for the rest, best-so-far tracking, and
/// the optional stopping criteria. Consumers build one driver and call
/// [`OptimizeDriver::maximize`] (full restart session) or
/// [`OptimizeDriver::refine_from`] (single local polish from a known start).
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeDriver<O: Optimizer> {
    optimizer: O,
    restarts: usize,
    max_iters: usize,
    target_value: Option<f64>,
    max_evaluations: Option<usize>,
}

impl<O: Optimizer> OptimizeDriver<O> {
    /// A driver running `restarts` restarts of `optimizer`, each with an
    /// iteration budget of `max_iters`, and no early-stopping criteria.
    pub fn new(optimizer: O, restarts: usize, max_iters: usize) -> Self {
        Self {
            optimizer,
            restarts,
            max_iters,
            target_value: None,
            max_evaluations: None,
        }
    }

    /// Stop after the first restart whose best value reaches `target`
    /// (checked between restarts, never mid-restart, so a stopped run is a
    /// prefix of the unstopped one).
    pub fn target_value(mut self, target: f64) -> Self {
        self.target_value = Some(target);
        self
    }

    /// Stop after the first restart that brings the cumulative evaluation
    /// count to `cap` or beyond (checked between restarts).
    pub fn max_evaluations(mut self, cap: usize) -> Self {
        self.max_evaluations = Some(cap);
        self
    }

    /// The wrapped optimizer.
    pub fn optimizer(&self) -> &O {
        &self.optimizer
    }

    /// Maximizes `evaluator` with the configured restart protocol. The first
    /// restart starts from a coarse global scan of the landscape (an
    /// internal grid-seeded warm start); the remaining restarts start from
    /// random parameters.
    ///
    /// Evaluation flows through the [`EnergyEvaluator`] with a single
    /// scratch and a monotonically increasing evaluation index, so per-point
    /// stochastic backends see one fresh noise substream per objective call
    /// and sequential-mode backends consume their stream in call order (the
    /// classic protocol).
    ///
    /// # Errors
    ///
    /// Returns [`QaoaError::InvalidParameters`] if the evaluator reports
    /// zero layers or the driver was built with zero restarts.
    pub fn maximize<E, R>(&self, evaluator: &E, rng: &mut R) -> Result<OptimizeOutcome, QaoaError>
    where
        E: EnergyEvaluator,
        R: Rng,
    {
        let layers = evaluator.layers();
        if layers == 0 {
            return Err(QaoaError::InvalidParameters("layers must be positive"));
        }
        if self.restarts == 0 {
            return Err(QaoaError::InvalidParameters("restarts must be positive"));
        }
        let mut scratch = evaluator.scratch();
        let mut eval_index: u64 = 0;
        let mut best_params: Option<QaoaParams> = None;
        let mut best_value = f64::NEG_INFINITY;
        let mut restart_values = Vec::with_capacity(self.restarts);
        let mut restart_params = Vec::with_capacity(self.restarts);
        let mut evaluations = 0usize;
        for restart in 0..self.restarts {
            let start = if restart == 0 {
                seed_start(
                    evaluator,
                    &mut scratch,
                    &mut eval_index,
                    rng,
                    &mut evaluations,
                )
            } else {
                QaoaParams::random(layers, rng).to_flat()
            };
            let run = self.optimizer.maximize_from(
                evaluator,
                &mut scratch,
                &mut eval_index,
                &start,
                self.max_iters,
                rng,
            );
            evaluations += run.evaluations;
            restart_values.push(run.value);
            restart_params.push(run.params.clone());
            if run.value > best_value {
                best_value = run.value;
                best_params = Some(run.params);
            }
            if self.target_value.is_some_and(|t| best_value >= t) {
                break;
            }
            if self.max_evaluations.is_some_and(|cap| evaluations >= cap) {
                break;
            }
        }
        Ok(OptimizeOutcome {
            best_params: best_params.expect("at least one restart"),
            best_value,
            restart_values,
            restart_params,
            evaluations,
        })
    }

    /// One local polish from a known-good start (no restarts, no global
    /// seeding): one `max_iters`-iteration run of the optimizer from
    /// `start`. A zero budget still runs the optimizer's set-up evaluations
    /// — Nelder–Mead evaluates its initial simplex and returns the best
    /// vertex, SPSA evaluates `start` alone — so the result is never worse
    /// than `start` measured through the same evaluator.
    pub fn refine_from<E, R>(&self, evaluator: &E, start: &QaoaParams, rng: &mut R) -> OptimizerRun
    where
        E: EnergyEvaluator,
        R: Rng,
    {
        let mut scratch = evaluator.scratch();
        let mut eval_index: u64 = 0;
        self.optimizer.maximize_from(
            evaluator,
            &mut scratch,
            &mut eval_index,
            &start.to_flat(),
            self.max_iters,
            rng,
        )
    }
}

/// Maximizes a QAOA energy backend with Nelder–Mead restarts — a thin
/// wrapper over [`OptimizeDriver`] with the default
/// [`NelderMeadOptimizer`], kept as the documented entry point for the
/// classic single-evaluator protocol.
///
/// # Errors
///
/// Returns [`QaoaError::InvalidParameters`] if the evaluator reports zero
/// layers or `options.restarts == 0`.
pub fn maximize_with_restarts<R, E>(
    evaluator: &E,
    options: &OptimizeOptions,
    rng: &mut R,
) -> Result<OptimizeOutcome, QaoaError>
where
    R: Rng,
    E: EnergyEvaluator,
{
    OptimizeDriver::new(
        NelderMeadOptimizer::default(),
        options.restarts,
        options.max_iters,
    )
    .maximize(evaluator, rng)
}

/// Approximation ratio: the QAOA expectation divided by the classical optimum
/// (Equation 13). Values are clamped below at 0; a ratio of 1 means the
/// expectation reached the exact MaxCut value.
///
/// # Errors
///
/// Returns [`QaoaError::InvalidParameters`] if `ground_truth` is not positive.
pub fn approximation_ratio(expectation: f64, ground_truth: f64) -> Result<f64, QaoaError> {
    if ground_truth <= 0.0 {
        return Err(QaoaError::InvalidParameters(
            "ground truth cut must be positive",
        ));
    }
    Ok((expectation / ground_truth).max(0.0))
}

/// A record of every objective evaluation made during an optimization run.
/// Used by the convergence experiments (Figures 1 and 20), which re-evaluate
/// the visited parameters on an ideal simulator afterwards.
#[derive(Debug, Clone, Default)]
pub struct EvaluationTrace {
    inner: Rc<RefCell<Vec<(QaoaParams, f64)>>>,
}

impl EvaluationTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one `(parameters, value)` observation to the trace.
    pub fn record(&self, params: &QaoaParams, value: f64) {
        self.inner.borrow_mut().push((params.clone(), value));
    }

    /// Number of recorded evaluations.
    pub fn len(&self) -> usize {
        self.inner.borrow().len()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().is_empty()
    }

    /// Clones out the recorded `(parameters, value)` pairs in call order.
    pub fn evaluations(&self) -> Vec<(QaoaParams, f64)> {
        self.inner.borrow().clone()
    }

    /// The running best objective value after each evaluation (a convergence
    /// curve).
    pub fn running_best(&self) -> Vec<f64> {
        let mut best = f64::NEG_INFINITY;
        self.inner
            .borrow()
            .iter()
            .map(|(_, v)| {
                best = best.max(*v);
                best
            })
            .collect()
    }
}

/// An [`EnergyEvaluator`] decorator that records every evaluation in an
/// [`EvaluationTrace`] (the convergence experiments re-evaluate the visited
/// parameters on an ideal backend afterwards).
///
/// The trace is an `Rc`-backed cell, so a traced evaluator is intentionally
/// not `Sync`: it serves the serial optimization drivers, not parallel
/// scans.
#[derive(Debug)]
pub struct TracedEvaluator<'a, E> {
    inner: &'a E,
    trace: &'a EvaluationTrace,
}

impl<'a, E> TracedEvaluator<'a, E> {
    /// Wraps `inner` so every call is appended to `trace`.
    pub fn new(inner: &'a E, trace: &'a EvaluationTrace) -> Self {
        Self { inner, trace }
    }
}

impl<E: EnergyEvaluator> EnergyEvaluator for TracedEvaluator<'_, E> {
    type Scratch = E::Scratch;

    fn layers(&self) -> usize {
        self.inner.layers()
    }

    fn scratch(&self) -> Self::Scratch {
        self.inner.scratch()
    }

    fn energy(&self, scratch: &mut Self::Scratch, index: u64, params: &QaoaParams) -> f64 {
        let value = self.inner.energy(scratch, index, params);
        self.trace.record(params, value);
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::StatevectorEvaluator;
    use crate::maxcut::brute_force_maxcut;
    use graphlib::generators::{connected_gnp, cycle};
    use mathkit::rng::seeded;

    #[test]
    fn optimization_beats_random_parameters_on_a_cycle() {
        let g = cycle(6).unwrap();
        let evaluator = StatevectorEvaluator::new(&g, 1).unwrap();
        let mut rng = seeded(3);
        let outcome = maximize_with_restarts(
            &evaluator,
            &OptimizeOptions {
                restarts: 4,
                max_iters: 150,
            },
            &mut rng,
        )
        .unwrap();
        // Random parameters give |E|/2 = 3 on average; the optimum for p=1 on
        // an even cycle is 0.75 * |E| = 4.5.
        assert!(outcome.best_value > 4.0, "best {}", outcome.best_value);
        assert!(outcome.average_restart_value() <= outcome.best_value + 1e-12);
        assert_eq!(outcome.restart_values.len(), 4);
        assert!(outcome.evaluations > 0);
    }

    #[test]
    fn approximation_ratio_behaviour() {
        assert!((approximation_ratio(4.5, 6.0).unwrap() - 0.75).abs() < 1e-12);
        assert_eq!(approximation_ratio(-1.0, 6.0).unwrap(), 0.0);
        assert!(approximation_ratio(1.0, 0.0).is_err());
    }

    #[test]
    fn optimized_ratio_is_reasonable_on_random_graphs() {
        let mut rng = seeded(8);
        let g = connected_gnp(7, 0.4, &mut rng).unwrap();
        let evaluator = StatevectorEvaluator::new(&g, 1).unwrap();
        let truth = brute_force_maxcut(&g).unwrap().best_cut as f64;
        let outcome = maximize_with_restarts(
            &evaluator,
            &OptimizeOptions {
                restarts: 3,
                max_iters: 120,
            },
            &mut rng,
        )
        .unwrap();
        let ratio = approximation_ratio(outcome.best_value, truth).unwrap();
        assert!(ratio > 0.55 && ratio <= 1.0, "ratio {ratio}");
    }

    /// Constant-energy evaluator with a configurable layer count, for
    /// exercising the driver's validation paths.
    struct ConstEval(usize);

    impl EnergyEvaluator for ConstEval {
        type Scratch = ();

        fn layers(&self) -> usize {
            self.0
        }

        fn scratch(&self) -> Self::Scratch {}

        fn energy(&self, _scratch: &mut Self::Scratch, _index: u64, _params: &QaoaParams) -> f64 {
            0.0
        }
    }

    #[test]
    fn invalid_options_are_rejected() {
        let mut rng = seeded(1);
        assert!(
            maximize_with_restarts(&ConstEval(0), &OptimizeOptions::default(), &mut rng).is_err()
        );
        assert!(maximize_with_restarts(
            &ConstEval(1),
            &OptimizeOptions {
                restarts: 0,
                max_iters: 10
            },
            &mut rng
        )
        .is_err());
    }

    #[test]
    fn traced_evaluator_records_through_the_driver() {
        let g = cycle(5).unwrap();
        let evaluator = StatevectorEvaluator::new(&g, 1).unwrap();
        let trace = EvaluationTrace::new();
        let traced = TracedEvaluator::new(&evaluator, &trace);
        let mut rng = seeded(4);
        let outcome = maximize_with_restarts(
            &traced,
            &OptimizeOptions {
                restarts: 1,
                max_iters: 20,
            },
            &mut rng,
        )
        .unwrap();
        assert_eq!(trace.len(), outcome.evaluations);
        let best_recorded = trace.running_best().last().copied().unwrap();
        assert!((best_recorded - outcome.best_value).abs() < 1e-12);
    }

    #[test]
    fn paper_restart_schedule_matches_the_reference() {
        assert_eq!(paper_restarts(1), 20);
        assert_eq!(paper_restarts(2), 50);
        assert_eq!(paper_restarts(3), 100);
        assert_eq!(paper_restarts(7), 100);
    }

    #[test]
    fn spsa_driver_is_deterministic_and_improves_on_a_cycle() {
        let g = cycle(6).unwrap();
        let evaluator = StatevectorEvaluator::new(&g, 1).unwrap();
        let driver = OptimizeDriver::new(SpsaOptimizer::default(), 3, 150);
        let run = |seed: u64| driver.maximize(&evaluator, &mut seeded(seed)).unwrap();
        let a = run(5);
        let b = run(5);
        assert_eq!(a.best_value.to_bits(), b.best_value.to_bits());
        assert_eq!(a.best_params, b.best_params);
        // Random parameters give |E|/2 = 3 on average; SPSA should climb.
        assert!(a.best_value > 3.5, "best {}", a.best_value);
    }

    #[test]
    fn nelder_mead_driver_matches_the_legacy_wrapper_bitwise() {
        let g = cycle(6).unwrap();
        let evaluator = StatevectorEvaluator::new(&g, 1).unwrap();
        let options = OptimizeOptions {
            restarts: 3,
            max_iters: 80,
        };
        let legacy = maximize_with_restarts(&evaluator, &options, &mut seeded(11)).unwrap();
        let driver = OptimizeDriver::new(NelderMeadOptimizer::default(), 3, 80);
        let direct = driver.maximize(&evaluator, &mut seeded(11)).unwrap();
        assert_eq!(legacy.best_value.to_bits(), direct.best_value.to_bits());
        assert_eq!(legacy.restart_values, direct.restart_values);
        assert_eq!(legacy.evaluations, direct.evaluations);
    }

    #[test]
    fn target_value_stops_between_restarts() {
        let g = cycle(6).unwrap();
        let evaluator = StatevectorEvaluator::new(&g, 1).unwrap();
        // The first (grid-seeded) restart already clears this low bar, so the
        // driver must stop after exactly one restart.
        let driver = OptimizeDriver::new(NelderMeadOptimizer::default(), 10, 80).target_value(3.0);
        let outcome = driver.maximize(&evaluator, &mut seeded(2)).unwrap();
        assert_eq!(outcome.restart_values.len(), 1);
        assert!(outcome.best_value >= 3.0);
        // A stopped run is a prefix of the unstopped one.
        let full = OptimizeDriver::new(NelderMeadOptimizer::default(), 10, 80)
            .maximize(&evaluator, &mut seeded(2))
            .unwrap();
        assert_eq!(
            outcome.restart_values[0].to_bits(),
            full.restart_values[0].to_bits()
        );
    }

    #[test]
    fn max_evaluations_caps_the_session() {
        let g = cycle(6).unwrap();
        let evaluator = StatevectorEvaluator::new(&g, 1).unwrap();
        let driver = OptimizeDriver::new(NelderMeadOptimizer::default(), 10, 80).max_evaluations(1);
        let outcome = driver.maximize(&evaluator, &mut seeded(2)).unwrap();
        assert_eq!(outcome.restart_values.len(), 1);
    }

    #[test]
    fn optimizer_config_dispatches_by_flavor() {
        assert_eq!(OptimizerConfig::default().name(), "nelder_mead");
        assert_eq!(OptimizerConfig::spsa().name(), "spsa");
        let g = cycle(5).unwrap();
        let evaluator = StatevectorEvaluator::new(&g, 1).unwrap();
        let nm = OptimizeDriver::new(OptimizerConfig::default(), 2, 60)
            .maximize(&evaluator, &mut seeded(3))
            .unwrap();
        let spsa = OptimizeDriver::new(OptimizerConfig::spsa(), 2, 60)
            .maximize(&evaluator, &mut seeded(3))
            .unwrap();
        assert_eq!(nm.restart_params.len(), 2);
        assert_eq!(spsa.restart_params.len(), 2);
        // Different optimizers, different trajectories.
        assert_ne!(nm.evaluations, spsa.evaluations);
    }

    #[test]
    fn evaluation_trace_records_calls() {
        let trace = EvaluationTrace::new();
        assert!(trace.is_empty());
        let a = QaoaParams::new(vec![0.5], vec![0.1]).unwrap();
        let b = QaoaParams::new(vec![0.2], vec![0.1]).unwrap();
        trace.record(&a, 0.5);
        trace.record(&b, 0.2);
        assert_eq!(trace.len(), 2);
        let best = trace.running_best();
        assert_eq!(best, vec![0.5, 0.5]);
        assert_eq!(trace.evaluations()[1].1, 0.2);
    }
}
