//! The unified energy-evaluator backend layer.
//!
//! Every experiment in the Red-QAOA reproduction ultimately does the same
//! thing: map a parameter vector `(γ, β)` to a cost expectation, thousands of
//! times per figure. This module makes *which backend performs that map* a
//! first-class, swappable axis — the [`EnergyEvaluator`] trait — instead of a
//! per-call-site closure convention. Landscape grids, random-pool sweeps,
//! the optimization drivers, and the noisy-landscape comparisons all accept
//! `&E where E: EnergyEvaluator`.
//!
//! # Backends
//!
//! * [`StatevectorEvaluator`] — the exact energy of a [`QaoaInstance`]
//!   through its chooser [`QaoaInstance::expectation_with`]: the closed
//!   form at `p = 1`, the global half-state statevector in a reused
//!   [`StatevectorWorkspace`] (zero per-point allocation) at `p ≥ 2`.
//! * [`AnalyticP1Evaluator`] — the closed-form `p = 1` formula with
//!   precomputed per-edge degree/triangle terms (`O(|E|)` arithmetic per
//!   point, no graph walks, no `2^n` cut table).
//! * [`EdgeLocalEvaluator`] — the light-cone decomposition with per-edge
//!   subgraphs and cut tables precomputed once per graph.
//! * [`ScheduledCircuitEvaluator`] — the [`StatevectorEvaluator`] energy
//!   plus the depth schedule of the cost layer (see [`crate::depth`]).
//!   Scheduling cannot change an ideal expectation, so its energies are
//!   bitwise-equal to [`StatevectorEvaluator`]'s; only noisy trajectory
//!   runs execute the scheduled gate sequence, and ideal depth-mode scans
//!   simply use the configured exact backend.
//! * [`NoisyTrajectoryEvaluator`] — Monte-Carlo trajectory simulation under
//!   a device noise model, optionally routed onto a coupling map, with one
//!   noise substream per evaluation index (parallel-scan safe).
//! * [`SequentialNoisyEvaluator`] — the same noisy simulation driven by one
//!   sequential RNG stream (the classic optimizer protocol); deliberately
//!   `!Sync` so parallel scans reject it at compile time.
//! * [`AutoEvaluator`] — picks the cheapest exact backend for the graph size
//!   and layer count: the closed form for every `p = 1` graph.
//!
//! At `p = 1` every exact backend here returns the closed form's bits
//! (`analytic::P1EdgeTerms`), so a scan, an optimizer session and
//! a re-score of the same point agree bit for bit whichever backend they
//! name. The statevector, scheduled and analytic types stay separate names
//! because the benchmark crate (`perfbench/`) imports them.
//!
//! # Scratch and determinism
//!
//! [`EnergyEvaluator::energy`] takes three inputs besides the parameters:
//!
//! * a `&mut Scratch` created by [`EnergyEvaluator::scratch`] — reusable
//!   buffers (statevector workspaces, RNG state). Parallel scans create one
//!   scratch per worker thread.
//! * an `index` identifying the evaluation point within a scan. Stochastic
//!   backends in per-point mode derive a dedicated RNG substream from it
//!   (see [`NoisyTrajectoryEvaluator::per_point`]), which is what makes
//!   parallel scans bitwise-identical to serial ones: the noise consumed at
//!   point `i` depends only on `i`, never on which thread computed it.
//!
//! Deterministic backends ignore the index entirely. Sequential-mode noisy
//! evaluators (see [`SequentialNoisyEvaluator`]) keep their RNG
//! in the scratch and are therefore only meaningful in single-scratch,
//! in-order drivers such as the optimizers — never in parallel scans.

use crate::analytic::P1EdgeTerms;
use crate::expectation::{QaoaInstance, MAX_EXACT_NODES};
use crate::maxcut::cut_values;
use crate::params::QaoaParams;
use crate::QaoaError;
use graphlib::subgraph::induced_subgraph;
use graphlib::traversal::nodes_within_distance_of_edge;
use graphlib::Graph;
use mathkit::rng::{derive_seed, seeded};
use qsim::devices::CouplingMap;
use qsim::noise::NoiseModel;
use qsim::statevector::{CostDiagonal, StatevectorWorkspace};
use qsim::trajectory::TrajectoryOptions;
use rand::rngs::SmallRng;

/// A backend that maps QAOA parameters to a cost expectation.
///
/// See the [module docs](self) for the scratch/index contract. Implementors
/// used in parallel scans must additionally be `Sync` and must make `energy`
/// a pure function of `(index, params)` for a given evaluator value.
///
/// # Example
///
/// ```
/// use graphlib::generators::cycle;
/// use qaoa::evaluator::{EnergyEvaluator, StatevectorEvaluator};
/// use qaoa::params::QaoaParams;
///
/// let graph = cycle(6).unwrap();
/// let evaluator = StatevectorEvaluator::new(&graph, 1).unwrap();
/// let params = QaoaParams::new(vec![0.4], vec![0.3]).unwrap();
/// // One scratch per worker; deterministic backends ignore the index.
/// let mut scratch = evaluator.scratch();
/// let energy = evaluator.energy(&mut scratch, 0, &params);
/// assert!(energy.is_finite());
/// // Same point, same bits — evaluation is a pure function of the inputs.
/// assert_eq!(
///     energy.to_bits(),
///     evaluator.energy(&mut scratch, 0, &params).to_bits()
/// );
/// ```
pub trait EnergyEvaluator {
    /// Reusable per-worker evaluation buffers (workspaces, RNG state).
    type Scratch;

    /// Number of QAOA layers `p` this evaluator expects in `params`.
    fn layers(&self) -> usize;

    /// Creates a fresh scratch value for one worker.
    fn scratch(&self) -> Self::Scratch;

    /// Evaluates the cost expectation at `params`.
    ///
    /// `index` identifies the evaluation point within a scan; stochastic
    /// per-point backends seed their noise substream from it, deterministic
    /// backends ignore it.
    fn energy(&self, scratch: &mut Self::Scratch, index: u64, params: &QaoaParams) -> f64;
}

impl<E: EnergyEvaluator + ?Sized> EnergyEvaluator for &E {
    type Scratch = E::Scratch;

    fn layers(&self) -> usize {
        (**self).layers()
    }

    fn scratch(&self) -> Self::Scratch {
        (**self).scratch()
    }

    fn energy(&self, scratch: &mut Self::Scratch, index: u64, params: &QaoaParams) -> f64 {
        (**self).energy(scratch, index, params)
    }
}

/// Exact backend over a [`QaoaInstance`]: its exact-energy chooser
/// [`QaoaInstance::expectation_with`].
///
/// At `p = 1` that is the closed form over per-edge terms the instance
/// precomputed, and the scratch is an empty workspace. At `p ≥ 2` it is the
/// global half-state statevector over the instance's cut-value diagonal,
/// evaluated in a reused [`StatevectorWorkspace`], so a grid scan performs
/// no per-point statevector allocation. The statevector arm itself is
/// [`QaoaInstance::statevector_expectation_with`]. The type keeps its name
/// because the benchmark crate (`perfbench/`) imports it.
#[derive(Debug, Clone, PartialEq)]
pub struct StatevectorEvaluator {
    instance: QaoaInstance,
}

impl StatevectorEvaluator {
    /// Prepares the backend for `layers`-layer QAOA on `graph`.
    ///
    /// # Errors
    ///
    /// Propagates [`QaoaInstance::new`] errors (degenerate or oversized
    /// graphs, `layers == 0`).
    pub fn new(graph: &Graph, layers: usize) -> Result<Self, QaoaError> {
        Ok(Self {
            instance: QaoaInstance::new(graph, layers)?,
        })
    }

    /// Wraps an already-prepared instance.
    pub fn from_instance(instance: QaoaInstance) -> Self {
        Self { instance }
    }

    /// The underlying instance (graph, layer count, cut table).
    pub fn instance(&self) -> &QaoaInstance {
        &self.instance
    }
}

impl EnergyEvaluator for StatevectorEvaluator {
    type Scratch = StatevectorWorkspace;

    fn layers(&self) -> usize {
        self.instance.layers()
    }

    fn scratch(&self) -> Self::Scratch {
        self.instance.workspace()
    }

    fn energy(&self, scratch: &mut Self::Scratch, _index: u64, params: &QaoaParams) -> f64 {
        self.instance.expectation_with(scratch, params)
    }
}

/// Closed-form `p = 1` backend with per-edge terms precomputed once.
///
/// Each evaluation is pure trigonometric arithmetic over the edge list — no
/// graph traversals, no allocation, no `2^n` cut table — which is what
/// makes the 30–1000-node scalability studies tractable. Its energies are
/// bitwise-equal to a `p = 1` [`QaoaInstance`]'s (both sum
/// `P1EdgeTerms::value`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyticP1Evaluator {
    terms: P1EdgeTerms,
}

impl AnalyticP1Evaluator {
    /// Precomputes the per-edge degree/triangle terms of `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`QaoaError::DegenerateGraph`] for graphs without edges.
    pub fn new(graph: &Graph) -> Result<Self, QaoaError> {
        if graph.node_count() == 0 || graph.edge_count() == 0 {
            return Err(QaoaError::DegenerateGraph);
        }
        Ok(Self {
            terms: P1EdgeTerms::new(graph),
        })
    }

    /// The `p = 1` expectation at `(γ, β)`.
    pub fn value(&self, gamma: f64, beta: f64) -> f64 {
        self.terms.value(gamma, beta)
    }
}

impl EnergyEvaluator for AnalyticP1Evaluator {
    type Scratch = ();

    fn layers(&self) -> usize {
        1
    }

    fn scratch(&self) -> Self::Scratch {}

    fn energy(&self, _scratch: &mut Self::Scratch, _index: u64, params: &QaoaParams) -> f64 {
        assert_eq!(params.layers(), 1, "analytic backend covers p = 1 only");
        self.value(params.gammas[0], params.betas[0])
    }
}

/// One precomputed edge light cone of the edge-local backend.
#[derive(Debug, Clone, PartialEq)]
struct EdgeCone {
    qubits: usize,
    cut_table: CostDiagonal,
    local_u: usize,
    local_v: usize,
}

/// Exact edge-local light-cone backend (Section 3.3 / Equation 7).
///
/// The induced subgraph, its cut-value diagonal, and the local endpoint
/// indices of every edge are computed once at construction; evaluation
/// simulates each cone in a reused workspace. Construction — not evaluation —
/// fails when a light cone exceeds the exact-simulation limit, so a built
/// evaluator can always evaluate.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeLocalEvaluator {
    layers: usize,
    cones: Vec<EdgeCone>,
}

impl EdgeLocalEvaluator {
    /// Precomputes the light cones of `graph` for `layers`-layer QAOA.
    ///
    /// # Errors
    ///
    /// Returns [`QaoaError::DegenerateGraph`] for graphs without edges,
    /// [`QaoaError::InvalidParameters`] if `layers == 0`, and
    /// [`QaoaError::GraphTooLarge`] if any light cone exceeds
    /// [`MAX_EXACT_NODES`] nodes.
    pub fn new(graph: &Graph, layers: usize) -> Result<Self, QaoaError> {
        if layers == 0 {
            return Err(QaoaError::InvalidParameters("layers must be positive"));
        }
        if graph.node_count() == 0 || graph.edge_count() == 0 {
            return Err(QaoaError::DegenerateGraph);
        }
        let mut cones = Vec::with_capacity(graph.edge_count());
        for (u, v) in graph.edges() {
            let nodes = nodes_within_distance_of_edge(graph, u, v, layers);
            if nodes.len() > MAX_EXACT_NODES {
                return Err(QaoaError::GraphTooLarge {
                    nodes: nodes.len(),
                    limit: MAX_EXACT_NODES,
                });
            }
            let sub = induced_subgraph(graph, &nodes).expect("nodes are in range");
            let local_u = sub.nodes.binary_search(&u).expect("u in subgraph");
            let local_v = sub.nodes.binary_search(&v).expect("v in subgraph");
            cones.push(EdgeCone {
                qubits: sub.graph.node_count(),
                cut_table: CostDiagonal::new(cut_values(&sub.graph)?),
                local_u,
                local_v,
            });
        }
        Ok(Self { layers, cones })
    }
}

impl EnergyEvaluator for EdgeLocalEvaluator {
    type Scratch = StatevectorWorkspace;

    fn layers(&self) -> usize {
        self.layers
    }

    fn scratch(&self) -> Self::Scratch {
        let max_qubits = self.cones.iter().map(|c| c.qubits).max().unwrap_or(0);
        StatevectorWorkspace::with_qubits(max_qubits)
    }

    fn energy(&self, scratch: &mut Self::Scratch, _index: u64, params: &QaoaParams) -> f64 {
        assert_eq!(params.layers(), self.layers, "layer count mismatch");
        let mut total = 0.0;
        for cone in &self.cones {
            let state = crate::expectation::evolve_qaoa_layers(
                scratch,
                cone.qubits,
                &cone.cut_table,
                params,
            );
            total += 0.5 * (1.0 - state.expectation_zz(cone.local_u, cone.local_v));
        }
        total
    }
}

/// Noisy backend: Monte-Carlo trajectory simulation of the explicit gate
/// circuit under a device noise model, optionally routed onto a coupling map
/// first (with automatic fallback to the unrouted circuit when the map
/// cannot host the graph).
///
/// Evaluation `i` draws its noise from substream `derive_seed(base_seed, i)`
/// (with one sub-substream per trajectory inside the point), so the energy
/// is a pure function of `(index, params)` and scans are bitwise-identical
/// for every thread count. For the classic sequential optimizer protocol
/// use [`SequentialNoisyEvaluator`] instead.
#[derive(Debug, Clone, PartialEq)]
pub struct NoisyTrajectoryEvaluator {
    instance: QaoaInstance,
    noise: NoiseModel,
    options: TrajectoryOptions,
    coupling: Option<CouplingMap>,
    base_seed: u64,
}

impl NoisyTrajectoryEvaluator {
    /// Per-point mode: evaluation `i` uses noise substream `i` of
    /// `base_seed`, so scans are bitwise-identical for every thread count.
    pub fn per_point(
        instance: QaoaInstance,
        noise: NoiseModel,
        options: TrajectoryOptions,
        base_seed: u64,
    ) -> Self {
        Self {
            instance,
            noise,
            options,
            coupling: None,
            base_seed,
        }
    }

    /// Routes circuits onto `coupling` before noisy execution (falling back
    /// to the unrouted circuit if routing fails).
    pub fn with_coupling(mut self, coupling: CouplingMap) -> Self {
        self.coupling = Some(coupling);
        self
    }

    /// The underlying instance.
    pub fn instance(&self) -> &QaoaInstance {
        &self.instance
    }
}

impl EnergyEvaluator for NoisyTrajectoryEvaluator {
    type Scratch = ();

    fn layers(&self) -> usize {
        self.instance.layers()
    }

    fn scratch(&self) -> Self::Scratch {}

    fn energy(&self, _scratch: &mut Self::Scratch, index: u64, params: &QaoaParams) -> f64 {
        let point_seed = derive_seed(self.base_seed, index);
        match &self.coupling {
            Some(coupling) => self
                .instance
                .noisy_expectation_routed_seeded(
                    params,
                    coupling,
                    &self.noise,
                    self.options,
                    point_seed,
                )
                .unwrap_or_else(|_| {
                    self.instance.noisy_expectation_seeded(
                        params,
                        &self.noise,
                        self.options,
                        point_seed,
                    )
                }),
            None => self.instance.noisy_expectation_seeded(
                params,
                &self.noise,
                self.options,
                point_seed,
            ),
        }
    }
}

/// Noisy backend for the *serial* optimization drivers: one RNG stream
/// (seeded once, held in the scratch) drives successive evaluations in call
/// order — the classic optimizer protocol.
///
/// This type is deliberately `!Sync` (it models per-call mutable stream
/// state), so the parallel scan entry points — which require
/// `E: EnergyEvaluator + Sync` — reject it at compile time instead of
/// silently restarting the noise stream once per worker chunk. Use
/// [`NoisyTrajectoryEvaluator`] for scans.
#[derive(Debug, Clone, PartialEq)]
pub struct SequentialNoisyEvaluator {
    instance: QaoaInstance,
    noise: NoiseModel,
    options: TrajectoryOptions,
    coupling: Option<CouplingMap>,
    seed: u64,
    /// `Cell` is `!Sync`; this opts the whole type out of `Sync`.
    _serial_only: std::marker::PhantomData<std::cell::Cell<()>>,
}

impl SequentialNoisyEvaluator {
    /// Prepares the backend with one noise stream seeded by `seed`.
    pub fn new(
        instance: QaoaInstance,
        noise: NoiseModel,
        options: TrajectoryOptions,
        seed: u64,
    ) -> Self {
        Self {
            instance,
            noise,
            options,
            coupling: None,
            seed,
            _serial_only: std::marker::PhantomData,
        }
    }

    /// Routes circuits onto `coupling` before noisy execution (falling back
    /// to the unrouted circuit if routing fails).
    pub fn with_coupling(mut self, coupling: CouplingMap) -> Self {
        self.coupling = Some(coupling);
        self
    }

    /// The underlying instance.
    pub fn instance(&self) -> &QaoaInstance {
        &self.instance
    }
}

impl EnergyEvaluator for SequentialNoisyEvaluator {
    type Scratch = SmallRng;

    fn layers(&self) -> usize {
        self.instance.layers()
    }

    fn scratch(&self) -> Self::Scratch {
        seeded(self.seed)
    }

    fn energy(&self, scratch: &mut Self::Scratch, _index: u64, params: &QaoaParams) -> f64 {
        match &self.coupling {
            Some(coupling) => self
                .instance
                .noisy_expectation_routed(params, coupling, &self.noise, self.options, scratch)
                .unwrap_or_else(|_| {
                    self.instance
                        .noisy_expectation(params, &self.noise, self.options, scratch)
                }),
            None => self
                .instance
                .noisy_expectation(params, &self.noise, self.options, scratch),
        }
    }
}

/// Exact backend that also reports the depth schedule of its cost layer.
///
/// A depth schedule only reorders commuting diagonal `RZZ` gates, so it
/// cannot change an ideal expectation. Energies therefore come from the
/// instance's exact-energy chooser ([`QaoaInstance::expectation_with`]: the
/// closed form at `p = 1`, the phase-table statevector at `p ≥ 2`) and are
/// bitwise-equal to [`StatevectorEvaluator`]'s. The schedule is compiled
/// once at construction for [`ScheduledCircuitEvaluator::depth_metrics`];
/// the gate-by-gate scheduled circuit is only executed on the noisy
/// trajectory paths, where the emission order matters. The type keeps its
/// name because the benchmark crate (`perfbench/`) imports it.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledCircuitEvaluator {
    instance: QaoaInstance,
}

impl ScheduledCircuitEvaluator {
    /// Prepares the backend: builds the instance and depth-compiles its
    /// cost layer.
    ///
    /// # Errors
    ///
    /// Propagates [`QaoaInstance::new`] errors (degenerate or oversized
    /// graphs, `layers == 0`).
    pub fn new(graph: &Graph, layers: usize) -> Result<Self, QaoaError> {
        Ok(Self::from_instance(QaoaInstance::new(graph, layers)?))
    }

    /// Wraps an already-prepared instance, attaching a depth schedule if it
    /// does not carry one yet.
    pub fn from_instance(instance: QaoaInstance) -> Self {
        let instance = if instance.depth_schedule().is_some() {
            instance
        } else {
            instance.with_depth_schedule()
        };
        Self { instance }
    }

    /// The underlying instance (always carries a depth schedule).
    pub fn instance(&self) -> &QaoaInstance {
        &self.instance
    }

    /// The depth-compilation metrics of the scheduled cost layer.
    pub fn depth_metrics(&self) -> crate::depth::DepthMetrics {
        self.instance
            .depth_metrics()
            .expect("constructor attaches a schedule")
    }
}

impl EnergyEvaluator for ScheduledCircuitEvaluator {
    type Scratch = StatevectorWorkspace;

    fn layers(&self) -> usize {
        self.instance.layers()
    }

    fn scratch(&self) -> Self::Scratch {
        self.instance.workspace()
    }

    fn energy(&self, scratch: &mut Self::Scratch, _index: u64, params: &QaoaParams) -> f64 {
        self.instance.expectation_with(scratch, params)
    }
}

/// Node count at or below which [`AutoEvaluator`] prefers the global
/// statevector backend at `p ≥ 2`.
pub const AUTO_EXACT_NODE_CUTOFF: usize = 16;

/// Chooses the cheapest exact backend for a graph: the analytic formula for
/// every `p = 1` graph (no `2^n` cut table is built), and at `p ≥ 2` the
/// global statevector up to [`AUTO_EXACT_NODE_CUTOFF`] nodes and the
/// edge-local light-cone decomposition above it. At `p = 1` it returns the
/// same bits as every other exact backend, so scans in every circuit mode
/// agree with optimizer sessions and re-scores bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub enum AutoEvaluator {
    /// Exact global statevector evaluation (`p ≥ 2`, small graphs).
    Exact(StatevectorEvaluator),
    /// Closed-form evaluation, for every `p = 1` graph.
    Analytic(AnalyticP1Evaluator),
    /// Edge-local light-cone evaluation.
    EdgeLocal(EdgeLocalEvaluator),
}

impl AutoEvaluator {
    /// Chooses and prepares a backend for `layers`-layer QAOA on `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`QaoaError::DegenerateGraph`] for graphs without edges, and
    /// [`QaoaError::GraphTooLarge`] if the graph exceeds every exact
    /// backend (a light cone larger than [`MAX_EXACT_NODES`]).
    pub fn new(graph: &Graph, layers: usize) -> Result<Self, QaoaError> {
        if graph.node_count() == 0 || graph.edge_count() == 0 {
            return Err(QaoaError::DegenerateGraph);
        }
        if layers == 1 {
            Ok(AutoEvaluator::Analytic(AnalyticP1Evaluator::new(graph)?))
        } else if graph.node_count() <= AUTO_EXACT_NODE_CUTOFF {
            Ok(AutoEvaluator::Exact(StatevectorEvaluator::new(
                graph, layers,
            )?))
        } else {
            Ok(AutoEvaluator::EdgeLocal(EdgeLocalEvaluator::new(
                graph, layers,
            )?))
        }
    }
}

impl EnergyEvaluator for AutoEvaluator {
    type Scratch = StatevectorWorkspace;

    fn layers(&self) -> usize {
        match self {
            AutoEvaluator::Exact(e) => e.layers(),
            AutoEvaluator::Analytic(e) => e.layers(),
            AutoEvaluator::EdgeLocal(e) => e.layers(),
        }
    }

    fn scratch(&self) -> Self::Scratch {
        match self {
            AutoEvaluator::Exact(e) => e.scratch(),
            AutoEvaluator::Analytic(_) => StatevectorWorkspace::new(),
            AutoEvaluator::EdgeLocal(e) => e.scratch(),
        }
    }

    fn energy(&self, scratch: &mut Self::Scratch, index: u64, params: &QaoaParams) -> f64 {
        match self {
            AutoEvaluator::Exact(e) => e.energy(scratch, index, params),
            AutoEvaluator::Analytic(e) => e.energy(&mut (), index, params),
            AutoEvaluator::EdgeLocal(e) => e.energy(scratch, index, params),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::analytic_expectation_p1;
    use graphlib::generators::{connected_gnp, cycle, star};
    use qsim::devices::heavy_hex_like;
    use qsim::noise::ReadoutError;

    fn test_noise() -> NoiseModel {
        NoiseModel::new(
            2e-3,
            2e-2,
            ReadoutError::new(0.02, 0.03),
            90.0,
            70.0,
            35.0,
            300.0,
        )
    }

    #[test]
    fn statevector_backend_matches_instance_expectation() {
        let mut rng = seeded(3);
        let g = connected_gnp(7, 0.5, &mut rng).unwrap();
        let evaluator = StatevectorEvaluator::new(&g, 2).unwrap();
        let mut scratch = evaluator.scratch();
        for _ in 0..5 {
            let params = QaoaParams::random(2, &mut rng);
            let via_trait = evaluator.energy(&mut scratch, 0, &params);
            let direct = evaluator.instance().expectation(&params);
            assert_eq!(via_trait.to_bits(), direct.to_bits());
        }
    }

    #[test]
    fn analytic_backend_matches_free_function() {
        let mut rng = seeded(5);
        let g = connected_gnp(9, 0.4, &mut rng).unwrap();
        let evaluator = AnalyticP1Evaluator::new(&g).unwrap();
        for _ in 0..5 {
            let params = QaoaParams::random(1, &mut rng);
            let fast = evaluator.energy(&mut (), 0, &params);
            let reference = analytic_expectation_p1(&g, &params).unwrap();
            assert_eq!(fast.to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn edge_local_backend_matches_free_function() {
        let mut rng = seeded(7);
        let g = connected_gnp(8, 0.35, &mut rng).unwrap();
        let evaluator = EdgeLocalEvaluator::new(&g, 2).unwrap();
        let mut scratch = evaluator.scratch();
        let instance = QaoaInstance::new(&g, 2).unwrap();
        let mut workspace = StatevectorWorkspace::new();
        for _ in 0..3 {
            let params = QaoaParams::random(2, &mut rng);
            let fast = evaluator.energy(&mut scratch, 0, &params);
            let reference = instance.statevector_expectation_with(&mut workspace, &params);
            assert!((fast - reference).abs() < 1e-9, "{fast} vs {reference}");
        }
    }

    #[test]
    fn edge_local_construction_rejects_oversized_cones() {
        // A star's centre sees the whole graph at distance 1.
        let g = star(30).unwrap();
        assert!(matches!(
            EdgeLocalEvaluator::new(&g, 1),
            Err(QaoaError::GraphTooLarge { .. })
        ));
        assert!(EdgeLocalEvaluator::new(&g, 0).is_err());
        assert!(matches!(
            EdgeLocalEvaluator::new(&Graph::new(3), 1),
            Err(QaoaError::DegenerateGraph)
        ));
    }

    #[test]
    fn auto_evaluator_selects_backend_by_size_and_layers() {
        let small = cycle(8).unwrap();
        assert!(matches!(
            AutoEvaluator::new(&small, 2).unwrap(),
            AutoEvaluator::Exact(_)
        ));
        let large = cycle(30).unwrap();
        assert!(matches!(
            AutoEvaluator::new(&large, 1).unwrap(),
            AutoEvaluator::Analytic(_)
        ));
        assert!(matches!(
            AutoEvaluator::new(&large, 2).unwrap(),
            AutoEvaluator::EdgeLocal(_)
        ));
        assert!(AutoEvaluator::new(&Graph::new(3), 1).is_err());
    }

    #[test]
    fn auto_backends_agree_on_medium_cycles() {
        let g = cycle(18).unwrap();
        let params = QaoaParams::new(vec![0.6], vec![0.4]).unwrap();
        let exact = QaoaInstance::new(&g, 1)
            .unwrap()
            .statevector_expectation_with(&mut StatevectorWorkspace::new(), &params);
        let auto = AutoEvaluator::new(&g, 1).unwrap();
        let value = auto.energy(&mut auto.scratch(), 0, &params);
        assert!((exact - value).abs() < 1e-8);
    }

    #[test]
    fn scheduled_circuit_backend_agrees_with_the_statevector_backend() {
        let mut rng = seeded(19);
        let g = connected_gnp(7, 0.5, &mut rng).unwrap();
        let scheduled = ScheduledCircuitEvaluator::new(&g, 2).unwrap();
        let exact = StatevectorEvaluator::new(&g, 2).unwrap();
        let mut scheduled_scratch = scheduled.scratch();
        let mut scratch = exact.scratch();
        assert!(scheduled.depth_metrics().meets_vizing_bound());
        for _ in 0..4 {
            let params = QaoaParams::random(2, &mut rng);
            let a = scheduled.energy(&mut scheduled_scratch, 0, &params);
            let b = exact.energy(&mut scratch, 0, &params);
            assert_eq!(a.to_bits(), b.to_bits(), "scheduled {a} vs exact {b}");
        }
    }

    #[test]
    fn per_point_noisy_energy_depends_only_on_index() {
        let g = cycle(5).unwrap();
        let instance = QaoaInstance::new(&g, 1).unwrap();
        let evaluator = NoisyTrajectoryEvaluator::per_point(
            instance,
            test_noise(),
            TrajectoryOptions { trajectories: 8 },
            42,
        );
        let params = QaoaParams::new(vec![0.9], vec![0.4]).unwrap();
        // Same index → same energy, regardless of evaluation history.
        let a = evaluator.energy(&mut (), 3, &params);
        let _ = evaluator.energy(&mut (), 0, &params);
        let b = evaluator.energy(&mut (), 3, &params);
        assert_eq!(a.to_bits(), b.to_bits());
        // Different index → different noise draw.
        let c = evaluator.energy(&mut (), 4, &params);
        assert_ne!(a.to_bits(), c.to_bits());
    }

    #[test]
    fn sequential_noisy_energy_reproduces_a_plain_rng_stream() {
        let g = cycle(5).unwrap();
        let instance = QaoaInstance::new(&g, 1).unwrap();
        let noise = test_noise();
        let options = TrajectoryOptions { trajectories: 6 };
        let params = QaoaParams::new(vec![0.7], vec![0.3]).unwrap();
        let evaluator = SequentialNoisyEvaluator::new(instance.clone(), noise, options, 99);
        let mut scratch = evaluator.scratch();
        let a = evaluator.energy(&mut scratch, 0, &params);
        let b = evaluator.energy(&mut scratch, 1, &params);
        // Reference: the classic protocol with one seeded stream.
        let mut rng = seeded(99);
        let ra = instance.noisy_expectation(&params, &noise, options, &mut rng);
        let rb = instance.noisy_expectation(&params, &noise, options, &mut rng);
        assert_eq!(a.to_bits(), ra.to_bits());
        assert_eq!(b.to_bits(), rb.to_bits());
    }

    #[test]
    fn routed_noisy_evaluator_falls_back_when_map_is_too_small() {
        let mut rng = seeded(13);
        let g = connected_gnp(6, 0.5, &mut rng).unwrap();
        let instance = QaoaInstance::new(&g, 1).unwrap();
        let params = QaoaParams::new(vec![0.8], vec![0.5]).unwrap();
        let options = TrajectoryOptions { trajectories: 4 };
        let tiny = heavy_hex_like(3);
        let routed =
            NoisyTrajectoryEvaluator::per_point(instance.clone(), test_noise(), options, 7)
                .with_coupling(tiny);
        let unrouted = NoisyTrajectoryEvaluator::per_point(instance, test_noise(), options, 7);
        let a = routed.energy(&mut routed.scratch(), 2, &params);
        let b = unrouted.energy(&mut unrouted.scratch(), 2, &params);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn evaluator_references_also_implement_the_trait() {
        let g = cycle(6).unwrap();
        let evaluator = StatevectorEvaluator::new(&g, 1).unwrap();
        let by_ref: &StatevectorEvaluator = &evaluator;
        let params = QaoaParams::new(vec![0.2], vec![0.1]).unwrap();
        let a = evaluator.energy(&mut evaluator.scratch(), 0, &params);
        let b = by_ref.energy(&mut by_ref.scratch(), 0, &params);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(by_ref.layers(), 1);
    }
}
