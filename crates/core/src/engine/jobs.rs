//! Typed job requests, their typed outputs, and the dispatch that executes
//! one job against an [`Engine`].
//!
//! Every job follows the same lifecycle: cheap field validation first (so a
//! bad request fails before any annealing is paid for), then the reduction
//! it needs is obtained through the engine's content-addressed cache, then
//! the job-specific work runs on the job's RNG substream. The dispatch
//! ([`execute`]) is a pure function of `(engine config, job, job_seed)` —
//! which is the whole determinism story: nothing in here can observe which
//! worker ran it, or in what order.

use super::builder::validate_pipeline_options;
use super::Engine;
use crate::pipeline::{
    depth_metrics, run_noisy_with_reduction, CircuitReduction, NoisyPipelineOutcome,
    PipelineOptions,
};
use crate::reduction::{ReducedGraph, ReductionOptions};
use crate::throughput::relative_throughput;
use crate::transfer::{optimized_transfer, OptimizedTransfer};
use crate::RedQaoaError;
use graphlib::Graph;
use mathkit::rng::seeded;
use qaoa::depth::DepthMetrics;
use qaoa::evaluator::AutoEvaluator;
use qaoa::expectation::MAX_EXACT_NODES;
use qaoa::landscape::Landscape;
use qaoa::optimize::{approximation_ratio, paper_restarts, OptimizeDriver, OptimizerConfig};

/// A graph-reduction request: distill the graph to the smallest subgraph
/// meeting the AND-ratio threshold (the paper's Algorithm 1 + binary
/// search), served through the engine's reduction cache.
#[derive(Debug, Clone, PartialEq)]
pub struct ReduceJob {
    /// The graph to reduce.
    pub graph: Graph,
    /// Per-job options; `None` uses the engine's configured defaults.
    pub options: Option<ReductionOptions>,
}

impl ReduceJob {
    /// A reduction request with the engine's default options.
    pub fn new(graph: Graph) -> Self {
        Self {
            graph,
            options: None,
        }
    }

    /// Overrides the engine's reduction options for this job only.
    pub fn with_options(mut self, options: ReductionOptions) -> Self {
        self.options = Some(options);
        self
    }
}

/// A noisy pipeline request: reduce (through the cache), optimize the
/// reduced circuit and, as the baseline, the full circuit under the engine's
/// noise model, and re-score both found parameter sets ideally on the full
/// graph ([`crate::pipeline::run_noisy_with_reduction`]). The job must be
/// made noisy with [`PipelineJob::noisy`]; the ideal end-to-end loop is
/// [`OptimizeJob`].
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineJob {
    /// The graph to run the pipeline on.
    pub graph: Graph,
    /// Per-job options; `None` uses the engine's configured defaults.
    pub options: Option<PipelineOptions>,
    /// `Some(t)` runs the pipeline with `t` trajectories per evaluation;
    /// requires the engine to have a noise model
    /// ([`EngineBuilder::noise`](super::EngineBuilder::noise)). `None` is
    /// rejected at dispatch.
    pub noisy_trajectories: Option<usize>,
}

impl PipelineJob {
    /// A pipeline request with the engine's default options; chain
    /// [`PipelineJob::noisy`] before submitting it.
    pub fn new(graph: Graph) -> Self {
        Self {
            graph,
            options: None,
            noisy_trajectories: None,
        }
    }

    /// Overrides the engine's pipeline options for this job only.
    pub fn with_options(mut self, options: PipelineOptions) -> Self {
        self.options = Some(options);
        self
    }

    /// Runs this job with `trajectories` trajectories per noisy energy
    /// evaluation.
    pub fn noisy(mut self, trajectories: usize) -> Self {
        self.noisy_trajectories = Some(trajectories);
        self
    }
}

/// Largest grid a [`LandscapeJob`] may scan: `2^24` points, a `4096 × 4096`
/// grid. That is far above the `32 × 32` grids the benches scan, and it
/// keeps the grid's allocation bounded, so a job with a larger `width` fails
/// with an `InvalidParameter` error on `width` instead of panicking.
pub const MAX_LANDSCAPE_POINTS: usize = 1 << 24;

/// A `p = 1` energy-landscape scan on a `width × width` `(γ, β)` grid,
/// evaluated with an [`AutoEvaluator`] (the closed-form `p = 1` arm, whatever
/// the graph size, so no `2^n` cut table is built) — optionally on the
/// graph's cached reduction instead of the graph itself.
///
/// Identical scans in one [`Engine::run_batch`] run once: a job with the
/// same graph content, width, and choice of graph or reduction as an
/// earlier job of its batch gets a copy of that job's output and makes no
/// cache lookup.
#[derive(Debug, Clone, PartialEq)]
pub struct LandscapeJob {
    /// The graph whose landscape is scanned.
    pub graph: Graph,
    /// Grid width (the scan evaluates `width²` points, at least 1 and at
    /// most [`MAX_LANDSCAPE_POINTS`]).
    pub width: usize,
    /// Scan the cached reduction of the graph instead of the graph itself.
    pub reduce_first: bool,
    /// Circuit-reduction mode (default [`CircuitReduction::None`], node
    /// reduction only). Depth modes do not change the scan: scheduling
    /// cannot change an ideal expectation, so every mode evaluates with the
    /// same [`AutoEvaluator`] and only node reduction decides which graph
    /// is scanned.
    /// [`CircuitReduction::Depth`] makes [`LandscapeJob::reduce_first`] scan
    /// the graph itself (the identity reduction).
    pub circuit: CircuitReduction,
}

impl LandscapeJob {
    /// A landscape scan of `graph` itself on a `width × width` grid.
    pub fn new(graph: Graph, width: usize) -> Self {
        Self {
            graph,
            width,
            reduce_first: false,
            circuit: CircuitReduction::None,
        }
    }

    /// Scans the graph's (cached) reduction instead of the graph.
    pub fn reduced(mut self) -> Self {
        self.reduce_first = true;
        self
    }

    /// Sets the circuit-reduction mode.
    pub fn with_circuit(mut self, circuit: CircuitReduction) -> Self {
        self.circuit = circuit;
        self
    }
}

/// A multi-programming throughput estimate (Figure 25): how much faster
/// batches of the graph's reduced circuit execute on a `device_qubits`-qubit
/// device than batches of the original. The reduction comes from the cache,
/// so evaluating one graph against several device sizes anneals once.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputJob {
    /// The graph whose circuits are batched.
    pub graph: Graph,
    /// Qubit count of the target device.
    pub device_qubits: usize,
    /// QAOA layer count of the throughput model.
    pub layers: usize,
}

impl ThroughputJob {
    /// A throughput estimate for `graph` on a `device_qubits`-qubit device.
    pub fn new(graph: Graph, device_qubits: usize, layers: usize) -> Self {
        Self {
            graph,
            device_qubits,
            layers,
        }
    }
}

/// The paper's end-to-end variational session as a first-class job
/// (`end_to_end.py`'s `baseline_fun` vs `red_qaoa_fun` protocol): reduce the
/// graph through the engine's cache, run a full restart session on the
/// *reduced* graph, re-score the found parameters on the *full* graph, and
/// run the same session directly on the full graph as the baseline. With
/// [`OptimizeJob::with_refine_iters`] it also takes the paper's last step and
/// continues the parameter search on the full graph from the transferred
/// parameters ([`OptimizedTransfer::refined`]).
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeJob {
    /// The graph to run the session on.
    pub graph: Graph,
    /// Number of QAOA layers `p`.
    pub layers: usize,
    /// Which gradient-free optimizer drives both sessions.
    pub optimizer: OptimizerConfig,
    /// Restart count; `None` follows the paper's schedule
    /// ([`paper_restarts`]: 20/50/100 by `p`).
    pub restarts: Option<usize>,
    /// Iteration budget per restart.
    pub max_iters: usize,
    /// Per-job reduction options; `None` uses the engine's defaults.
    pub reduction: Option<ReductionOptions>,
    /// Circuit-reduction mode (default [`CircuitReduction::None`], node
    /// reduction only). [`CircuitReduction::Depth`] skips node reduction
    /// (the session runs on the identity reduction); depth modes attach
    /// [`DepthMetrics`] for the graph the session optimized on to the
    /// report.
    pub circuit: CircuitReduction,
    /// Iteration budget of the refine step on the full graph; `0` (the
    /// default) skips it.
    pub refine_iters: usize,
}

impl OptimizeJob {
    /// A `p = 1` session with the default Nelder–Mead optimizer, the
    /// paper's restart schedule, and the engine's reduction options.
    pub fn new(graph: Graph) -> Self {
        Self {
            graph,
            layers: 1,
            optimizer: OptimizerConfig::default(),
            restarts: None,
            max_iters: 80,
            reduction: None,
            circuit: CircuitReduction::None,
            refine_iters: 0,
        }
    }

    /// Sets the QAOA layer count `p`.
    pub fn with_layers(mut self, layers: usize) -> Self {
        self.layers = layers;
        self
    }

    /// Selects the optimizer flavor for both sessions.
    pub fn with_optimizer(mut self, optimizer: OptimizerConfig) -> Self {
        self.optimizer = optimizer;
        self
    }

    /// Pins the restart count instead of the paper schedule.
    pub fn with_restarts(mut self, restarts: usize) -> Self {
        self.restarts = Some(restarts);
        self
    }

    /// Sets the iteration budget per restart.
    pub fn with_max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    /// Overrides the engine's reduction options for this job only.
    pub fn with_reduction(mut self, reduction: ReductionOptions) -> Self {
        self.reduction = Some(reduction);
        self
    }

    /// Sets the circuit-reduction mode.
    pub fn with_circuit(mut self, circuit: CircuitReduction) -> Self {
        self.circuit = circuit;
        self
    }

    /// Refines the transferred parameters on the full graph with one
    /// `refine_iters`-iteration run of the job's optimizer.
    pub fn with_refine_iters(mut self, refine_iters: usize) -> Self {
        self.refine_iters = refine_iters;
        self
    }
}

/// The typed result of an [`OptimizeJob`].
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeReport {
    /// The (cached) reduction the session optimized on.
    pub reduction: ReducedGraph,
    /// The full transfer comparison: reduced-graph session, full-graph
    /// baseline session, the re-scored transferred values, and the refine
    /// step when the job asked for one.
    pub transfer: OptimizedTransfer,
    /// Exact MaxCut of the full graph: the maximum of its cut table. Always
    /// `Some` for jobs that ran, since the full-graph session needs an
    /// exactly simulable graph.
    pub ground_truth: Option<usize>,
    /// Objective evaluations spent by the reduced-graph session.
    pub reduced_evaluations: usize,
    /// Objective evaluations spent by the full-graph baseline session.
    pub baseline_evaluations: usize,
    /// Full-graph-equivalent cost of the Red-QAOA path relative to the
    /// baseline, under the exact-simulation cost model where one evaluation
    /// on a `k`-node graph costs `2^k`:
    /// `(reduced_evals · 2^(k−n) + rescore_evals + refine_evals) /
    /// baseline_evals`.
    /// Below 1.0 means the reduced path was cheaper end to end.
    pub cost_ratio: f64,
    /// Depth-compilation metrics of the graph the session optimized on,
    /// when the resolved [`CircuitReduction`] mode includes depth
    /// scheduling; `None` in the legacy node-reduction-only mode.
    pub depth: Option<DepthMetrics>,
}

impl OptimizeReport {
    /// Ratio of the transferred value to the baseline best (the headline
    /// reduced-vs-baseline metric of Figure 17).
    pub fn relative_best(&self) -> f64 {
        self.transfer.relative_value()
    }

    /// Approximation ratio of the transferred parameters on the full graph,
    /// when the ground truth is known.
    pub fn approximation_ratio(&self) -> Option<f64> {
        self.ground_truth.map(|c| {
            approximation_ratio(self.transfer.transferred_value, c as f64).expect("positive cut")
        })
    }

    /// Approximation ratio of the full-graph baseline session, when the
    /// ground truth is known.
    pub fn baseline_approximation_ratio(&self) -> Option<f64> {
        self.ground_truth.map(|c| {
            approximation_ratio(self.transfer.native.best_value, c as f64).expect("positive cut")
        })
    }
}

/// A typed request submitted to [`Engine::run`] / [`Engine::run_batch`].
#[derive(Debug, Clone, PartialEq)]
pub enum Job {
    /// Reduce a graph (through the cache).
    Reduce(ReduceJob),
    /// Run the noisy pipeline.
    Pipeline(PipelineJob),
    /// Scan a `p = 1` energy landscape.
    Landscape(LandscapeJob),
    /// Estimate the multi-programming throughput gain.
    Throughput(ThroughputJob),
    /// Run the end-to-end baseline-vs-reduced optimization session.
    Optimize(OptimizeJob),
}

impl From<ReduceJob> for Job {
    fn from(job: ReduceJob) -> Self {
        Job::Reduce(job)
    }
}

impl From<PipelineJob> for Job {
    fn from(job: PipelineJob) -> Self {
        Job::Pipeline(job)
    }
}

impl From<LandscapeJob> for Job {
    fn from(job: LandscapeJob) -> Self {
        Job::Landscape(job)
    }
}

impl From<ThroughputJob> for Job {
    fn from(job: ThroughputJob) -> Self {
        Job::Throughput(job)
    }
}

impl From<OptimizeJob> for Job {
    fn from(job: OptimizeJob) -> Self {
        Job::Optimize(job)
    }
}

/// The typed result of one [`Job`].
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutput {
    /// Result of a [`Job::Reduce`].
    Reduced(ReducedGraph),
    /// Result of a [`Job::Pipeline`].
    NoisyPipeline(NoisyPipelineOutcome),
    /// Result of a [`Job::Landscape`].
    Landscape(Landscape),
    /// Result of a [`Job::Throughput`]: the relative throughput
    /// (reduced / original; `1.0` means no multi-programming benefit).
    Throughput(f64),
    /// Result of a [`Job::Optimize`], boxed: the report is several times
    /// the size of every other variant.
    Optimize(Box<OptimizeReport>),
}

impl JobOutput {
    /// The reduction, when this is a [`JobOutput::Reduced`].
    pub fn as_reduced(&self) -> Option<&ReducedGraph> {
        match self {
            JobOutput::Reduced(r) => Some(r),
            _ => None,
        }
    }

    /// The noisy pipeline outcome, when this is a
    /// [`JobOutput::NoisyPipeline`].
    pub fn as_noisy_pipeline(&self) -> Option<&NoisyPipelineOutcome> {
        match self {
            JobOutput::NoisyPipeline(o) => Some(o),
            _ => None,
        }
    }

    /// The landscape, when this is a [`JobOutput::Landscape`].
    pub fn as_landscape(&self) -> Option<&Landscape> {
        match self {
            JobOutput::Landscape(l) => Some(l),
            _ => None,
        }
    }

    /// The relative throughput, when this is a [`JobOutput::Throughput`].
    pub fn as_throughput(&self) -> Option<f64> {
        match self {
            JobOutput::Throughput(t) => Some(*t),
            _ => None,
        }
    }

    /// The optimization report, when this is a [`JobOutput::Optimize`].
    pub fn as_optimize(&self) -> Option<&OptimizeReport> {
        match self {
            JobOutput::Optimize(r) => Some(r),
            _ => None,
        }
    }
}

/// Checks an [`OptimizeJob`]'s session parameters (including the optimizer's
/// own hyperparameters) against the documented domains, naming the offending
/// field. Runs before any annealing or optimization.
fn validate_optimize_job(job: &OptimizeJob) -> Result<(), RedQaoaError> {
    if job.layers == 0 {
        return Err(RedQaoaError::invalid_parameter(
            "layers",
            job.layers,
            "must be at least 1",
        ));
    }
    if job.max_iters == 0 {
        return Err(RedQaoaError::invalid_parameter(
            "max_iters",
            job.max_iters,
            "must be at least 1",
        ));
    }
    if let Some(restarts) = job.restarts {
        if restarts == 0 {
            return Err(RedQaoaError::invalid_parameter(
                "restarts",
                restarts,
                "must be at least 1 (or None for the paper schedule)",
            ));
        }
    }
    match &job.optimizer {
        OptimizerConfig::NelderMead(nm) => {
            if !(nm.initial_step.is_finite() && nm.initial_step > 0.0) {
                return Err(RedQaoaError::invalid_parameter(
                    "nelder_mead.initial_step",
                    nm.initial_step,
                    "must be finite and positive",
                ));
            }
            if !(nm.f_tol.is_finite() && nm.f_tol > 0.0) {
                return Err(RedQaoaError::invalid_parameter(
                    "nelder_mead.f_tol",
                    nm.f_tol,
                    "must be finite and positive",
                ));
            }
        }
        OptimizerConfig::Spsa(spsa) => {
            if !(spsa.a.is_finite() && spsa.a > 0.0) {
                return Err(RedQaoaError::invalid_parameter(
                    "spsa.a",
                    spsa.a,
                    "must be finite and positive",
                ));
            }
            if !(spsa.c.is_finite() && spsa.c > 0.0) {
                return Err(RedQaoaError::invalid_parameter(
                    "spsa.c",
                    spsa.c,
                    "must be finite and positive",
                ));
            }
        }
    }
    Ok(())
}

/// Executes one job on `engine` with the job's derived RNG substream.
/// Validation runs first, then the cached reduction, then the job body.
pub(super) fn execute(
    engine: &Engine,
    job: &Job,
    job_seed: u64,
) -> Result<JobOutput, RedQaoaError> {
    match job {
        Job::Reduce(job) => {
            let options = job.options.as_ref().unwrap_or(engine.reduction_options());
            engine
                .reduce_cached(&job.graph, options)
                .map(JobOutput::Reduced)
        }
        Job::Pipeline(job) => {
            let options = match job.options.as_ref() {
                Some(options) => {
                    // Per-job overrides never went through the builder;
                    // reject them here (cheap field checks), before any
                    // annealing or optimization runs.
                    validate_pipeline_options(options)?;
                    options
                }
                None => engine.pipeline_options(),
            };
            let Some(trajectories) = job.noisy_trajectories else {
                return Err(RedQaoaError::invalid_parameter(
                    "noisy_trajectories",
                    "None",
                    "a pipeline job must be noisy; the ideal loop is \
                     OptimizeJob::with_refine_iters",
                ));
            };
            // Resolve the noise model before reducing: a noisy job on an
            // engine without one must fail cheaply, not after paying for
            // the full SA binary search.
            let Some(noise) = engine.noise_model() else {
                return Err(RedQaoaError::invalid_parameter(
                    "noisy_trajectories",
                    trajectories,
                    "engine has no noise model (set EngineBuilder::noise)",
                ));
            };
            let reduction =
                session_reduction(engine, &job.graph, options.circuit, &options.reduction)?;
            run_noisy_with_reduction(
                &job.graph,
                reduction,
                options,
                noise,
                trajectories,
                &mut seeded(job_seed),
            )
            .map(JobOutput::NoisyPipeline)
        }
        Job::Landscape(job) => {
            // Checked before the grid is allocated: an overflowing width
            // would otherwise panic in `Landscape::evaluate`.
            let points = job.width.saturating_mul(job.width);
            if !(1..=MAX_LANDSCAPE_POINTS).contains(&points) {
                return Err(RedQaoaError::invalid_parameter(
                    "width",
                    job.width,
                    "must be at least 1, with width² at most MAX_LANDSCAPE_POINTS (2^24)",
                ));
            }
            // In depth-only mode `reduce_first` scans the graph itself (the
            // identity reduction) — no annealing, no cache traffic.
            let reduction = if scans_reduction(job) {
                Some(engine.reduce_cached(&job.graph, engine.reduction_options())?)
            } else {
                None
            };
            let graph = reduction.as_ref().map(|r| r.graph()).unwrap_or(&job.graph);
            // Depth modes scan with the same evaluator: a schedule only
            // reorders commuting diagonal gates, so it cannot change an ideal
            // expectation.
            let landscape = Landscape::evaluate(job.width, &AutoEvaluator::new(graph, 1)?);
            Ok(JobOutput::Landscape(landscape))
        }
        Job::Throughput(job) => {
            if job.device_qubits == 0 {
                return Err(RedQaoaError::invalid_parameter(
                    "device_qubits",
                    job.device_qubits,
                    "must be at least 1",
                ));
            }
            if job.layers == 0 {
                return Err(RedQaoaError::invalid_parameter(
                    "layers",
                    job.layers,
                    "must be at least 1",
                ));
            }
            let reduction = engine.reduce_cached(&job.graph, engine.reduction_options())?;
            Ok(JobOutput::Throughput(relative_throughput(
                &job.graph,
                reduction.graph(),
                job.device_qubits,
                job.layers,
            )))
        }
        Job::Optimize(job) => {
            validate_optimize_job(job)?;
            let reduction_options = job.reduction.as_ref().unwrap_or(engine.reduction_options());
            let reduction = session_reduction(engine, &job.graph, job.circuit, reduction_options)?;
            let depth = depth_metrics(job.circuit, reduction.graph())?;
            let restarts = job.restarts.unwrap_or_else(|| paper_restarts(job.layers));
            let driver = OptimizeDriver::new(job.optimizer.clone(), restarts, job.max_iters);
            let transfer = optimized_transfer(
                &job.graph,
                reduction.graph(),
                job.layers,
                &driver,
                job.refine_iters,
                &mut seeded(job_seed),
            )?;
            let ground_truth = Some(transfer.original_max_cut);
            let reduced_evaluations = transfer.surrogate.evaluations;
            let baseline_evaluations = transfer.native.evaluations;
            // Full-graph work beyond the baseline: one expectation for the
            // best parameters, one per restart for the average column, and
            // the refine step's evaluations.
            let refine_evaluations = transfer.refined.as_ref().map_or(0, |run| run.evaluations);
            let rescore_evaluations =
                1 + transfer.surrogate.restart_params.len() + refine_evaluations;
            // Exact-simulation cost model: an evaluation on a k-node
            // graph costs 2^k, so normalizing by the full graph's 2^n
            // leaves the overflow-free factor 2^(k - n) ≤ 1.
            let scale =
                (reduction.graph().node_count() as f64 - job.graph.node_count() as f64).exp2();
            let cost_ratio = if baseline_evaluations == 0 {
                1.0
            } else {
                (reduced_evaluations as f64 * scale + rescore_evaluations as f64)
                    / baseline_evaluations as f64
            };
            Ok(JobOutput::Optimize(Box::new(OptimizeReport {
                reduction,
                transfer,
                ground_truth,
                reduced_evaluations,
                baseline_evaluations,
                cost_ratio,
                depth,
            })))
        }
    }
}

/// Whether a landscape job scans the graph's cached reduction: it asks for
/// one and its circuit mode reduces nodes. A [`CircuitReduction::Depth`]
/// job scans the graph itself.
fn scans_reduction(job: &LandscapeJob) -> bool {
    job.reduce_first && job.circuit.wants_node_reduction()
}

/// The scan a [`LandscapeJob`] runs, as `(graph, width, scans the
/// reduction)`; `None` for every other job kind. A scan reads nothing else:
/// not the job's seed (the grid is fixed), nor its circuit mode beyond
/// [`scans_reduction`] (every mode evaluates with the same
/// [`AutoEvaluator`]). So two jobs of one engine with equal keys return
/// equal outputs, bit for bit, or the same error.
pub(super) fn scan_key(job: &Job) -> Option<(&Graph, usize, bool)> {
    match job {
        Job::Landscape(job) => Some((&job.graph, job.width, scans_reduction(job))),
        _ => None,
    }
}

/// The reduction an optimize or noisy pipeline job runs on. A full graph
/// beyond the exact evaluator's limit fails first, with the error that
/// evaluator's constructor returns, so it is never annealed, counted or
/// cached. Depth-only mode uses the identity reduction: no annealing, no
/// RNG, and no cache traffic (the cache key covers only
/// [`ReductionOptions`]).
fn session_reduction(
    engine: &Engine,
    graph: &Graph,
    circuit: CircuitReduction,
    options: &ReductionOptions,
) -> Result<ReducedGraph, RedQaoaError> {
    let nodes = graph.node_count();
    if nodes > MAX_EXACT_NODES {
        let limit = MAX_EXACT_NODES;
        return Err(qaoa::QaoaError::GraphTooLarge { nodes, limit }.into());
    }
    if circuit.wants_node_reduction() {
        engine.reduce_cached(graph, options)
    } else {
        Ok(ReducedGraph::identity(graph))
    }
}
