//! Evaluation of the QAOA cost expectation ⟨ψ(γ,β)|H_C|ψ(γ,β)⟩.
//!
//! Three evaluators are provided:
//!
//! * [`QaoaInstance::expectation`] — the exact energy, and the one place
//!   that chooses how to compute it: at `p = 1` the closed form summed over
//!   per-edge terms precomputed with the instance
//!   (`analytic::P1EdgeTerms`, `O(|E|)` per point); at `p ≥ 2` the
//!   half-state statevector ([`QaoaInstance::statevector_expectation_with`]).
//!   The statevector applies the diagonal cost layer from the `u8` cut
//!   table as one phase gather rather than as individual gates (the first
//!   one folded into the uniform start), which makes full landscape sweeps
//!   cheap for ≤ ~20 qubits. It stays callable by name at every `p`, as the
//!   oracle the closed form is checked against.
//! * [`crate::evaluator::EdgeLocalEvaluator`] — exact evaluation through
//!   the edge light-cone decomposition (Section 3.3 / Equation 7): each edge
//!   term is simulated on the induced subgraph of nodes within distance `p`
//!   of the edge. For sparse graphs this handles instances far beyond the
//!   global statevector limit.
//! * [`QaoaInstance::noisy_expectation`] — noisy evaluation of the full gate
//!   circuit with a device noise model via the Monte-Carlo trajectory
//!   backend.

use crate::analytic::P1EdgeTerms;
use crate::circuit::qaoa_circuit;
use crate::depth::{compile_maxcut, scheduled_qaoa_circuit, DepthMetrics, DepthSchedule};
use crate::maxcut::cut_values;
use crate::params::QaoaParams;
use crate::QaoaError;
use graphlib::Graph;
use qsim::noise::NoiseModel;
use qsim::statevector::{CostDiagonal, HalfState, StatevectorWorkspace};
use qsim::trajectory::{
    noisy_expectation_diagonal, noisy_expectation_diagonal_seeded, TrajectoryOptions,
};
use rand::Rng;
use std::sync::OnceLock;

/// Maximum number of nodes for the exact global statevector evaluator.
pub const MAX_EXACT_NODES: usize = 22;

// Cut tables hold one `u8` per basis state: the most edges a graph within
// the limit can have must fit, or raising the limit would wrap cut values.
const _: () = assert!(MAX_EXACT_NODES * (MAX_EXACT_NODES - 1) / 2 <= u8::MAX as usize);

/// A prepared QAOA MaxCut instance: the graph, the layer count, the
/// diagonal of the cost Hamiltonian and, at `p = 1`, the closed form's
/// per-edge terms.
///
/// The `2^n` diagonal is built on first use — by the statevector arm,
/// [`QaoaInstance::cut_table`], [`QaoaInstance::max_cut`] or a noisy
/// evaluation — so a `p = 1` instance that only computes energies does
/// `O(|E|)` set-up work.
#[derive(Debug, Clone)]
pub struct QaoaInstance {
    graph: Graph,
    layers: usize,
    /// Built by [`QaoaInstance::cost_diagonal`] on first use.
    cut_table: OnceLock<CostDiagonal>,
    /// `Some` exactly when `layers == 1`: the exact energy's closed-form arm.
    p1_terms: Option<P1EdgeTerms>,
    schedule: Option<DepthSchedule>,
}

/// Instances are equal when their graph, layer count and depth schedule
/// are: the cut table and the closed-form terms follow from those, whether
/// or not the table has been built yet.
impl PartialEq for QaoaInstance {
    fn eq(&self, other: &Self) -> bool {
        self.graph == other.graph && self.layers == other.layers && self.schedule == other.schedule
    }
}

impl QaoaInstance {
    /// Prepares an instance for `layers`-layer QAOA on `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`QaoaError::DegenerateGraph`] for graphs without nodes or
    /// edges, [`QaoaError::GraphTooLarge`] for graphs beyond
    /// [`MAX_EXACT_NODES`], and [`QaoaError::InvalidParameters`] if
    /// `layers == 0`.
    pub fn new(graph: &Graph, layers: usize) -> Result<Self, QaoaError> {
        if layers == 0 {
            return Err(QaoaError::InvalidParameters("layers must be positive"));
        }
        if graph.node_count() == 0 || graph.edge_count() == 0 {
            return Err(QaoaError::DegenerateGraph);
        }
        if graph.node_count() > MAX_EXACT_NODES {
            return Err(QaoaError::GraphTooLarge {
                nodes: graph.node_count(),
                limit: MAX_EXACT_NODES,
            });
        }
        Ok(Self {
            graph: graph.clone(),
            layers,
            cut_table: OnceLock::new(),
            p1_terms: (layers == 1).then(|| P1EdgeTerms::new(graph)),
            schedule: None,
        })
    }

    /// Attaches a depth-compiled schedule: every gate-circuit evaluation
    /// (the noisy trajectory paths, routed or not) builds the cost layers
    /// from the schedule's packed rounds instead of the naive per-edge
    /// sequence. The circuit is unitarily identical — diagonal `RZZ` gates
    /// commute — but its measured depth drops to the scheduled round count,
    /// so noisy evaluation sees less idle decoherence. Exact (phase-table)
    /// evaluation is unaffected, bit for bit.
    ///
    /// Compilation is deterministic and happens once here, never per
    /// evaluation.
    pub fn with_depth_schedule(mut self) -> Self {
        self.schedule =
            Some(compile_maxcut(&self.graph).expect("instance graph is non-degenerate"));
        self
    }

    /// The attached depth schedule, if [`QaoaInstance::with_depth_schedule`]
    /// was applied.
    pub fn depth_schedule(&self) -> Option<&DepthSchedule> {
        self.schedule.as_ref()
    }

    /// The depth-compilation metrics report, if a schedule is attached.
    pub fn depth_metrics(&self) -> Option<DepthMetrics> {
        self.schedule.as_ref().map(|s| *s.metrics())
    }

    /// The explicit gate circuit this instance evaluates noisily: scheduled
    /// rounds when a depth schedule is attached, the naive per-edge emission
    /// otherwise.
    fn build_circuit(&self, params: &QaoaParams) -> qsim::circuit::Circuit {
        match &self.schedule {
            Some(schedule) => scheduled_qaoa_circuit(schedule, params),
            None => qaoa_circuit(&self.graph, params).expect("instance graph is non-degenerate"),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of QAOA layers `p`.
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// The `u8` cost diagonal, built on the first call.
    fn cost_diagonal(&self) -> &CostDiagonal {
        self.cut_table.get_or_init(|| {
            CostDiagonal::new(cut_values(&self.graph).expect("instance size checked in new"))
        })
    }

    /// The diagonal of the cost Hamiltonian (cut value of each basis state),
    /// built on the first call that needs it.
    pub fn cut_table(&self) -> &[u8] {
        self.cost_diagonal().values()
    }

    /// The exact MaxCut value of the graph: the largest entry of the cut
    /// table, which already enumerates every assignment. Equal to
    /// `brute_force_maxcut(graph).best_cut` without a second `2^n` pass.
    pub fn max_cut(&self) -> usize {
        usize::from(self.cost_diagonal().max())
    }

    /// Prepares `|ψ(γ, β)⟩` in the workspace's half state (see
    /// [`evolve_qaoa_layers`]).
    fn evolve_into<'w>(
        &self,
        workspace: &'w mut StatevectorWorkspace,
        params: &QaoaParams,
    ) -> HalfState<'w> {
        assert_eq!(params.layers(), self.layers, "layer count mismatch");
        evolve_qaoa_layers(
            workspace,
            self.graph.node_count(),
            self.cost_diagonal(),
            params,
        )
    }

    /// Exact cost expectation for the given parameters (to be *maximized*).
    ///
    /// At `p = 1` this is the closed form and touches no statevector; at
    /// `p ≥ 2` it allocates a fresh workspace per call, so hot loops should
    /// hold a [`StatevectorWorkspace`] and use
    /// [`QaoaInstance::expectation_with`] (or the `StatevectorEvaluator`
    /// backend, which does so internally).
    ///
    /// # Panics
    ///
    /// Panics if `params.layers() != self.layers()`.
    pub fn expectation(&self, params: &QaoaParams) -> f64 {
        match &self.p1_terms {
            Some(terms) => self.closed_form(terms, params),
            None => self.statevector_expectation_with(&mut StatevectorWorkspace::new(), params),
        }
    }

    /// Exact cost expectation, the one exact-energy chooser: at `p = 1` the
    /// closed form over the per-edge terms precomputed with the instance
    /// (`O(|E|)`, the workspace is not touched), at `p ≥ 2` the half-state
    /// statevector in the reused workspace. Either way no allocation
    /// happens after the first call of a given size.
    ///
    /// The two arms agree to about `1e-13` at `p = 1` but not bit for bit;
    /// every ideal path (evaluators, re-scoring, landscapes, MSE) goes
    /// through this method, so they all return the same bits.
    ///
    /// # Panics
    ///
    /// Panics if `params.layers() != self.layers()`.
    pub fn expectation_with(
        &self,
        workspace: &mut StatevectorWorkspace,
        params: &QaoaParams,
    ) -> f64 {
        match &self.p1_terms {
            Some(terms) => self.closed_form(terms, params),
            None => self.statevector_expectation_with(workspace, params),
        }
    }

    /// Exact cost expectation by half-state statevector evolution, at any
    /// `p`: the `p ≥ 2` arm of [`QaoaInstance::expectation_with`] and the
    /// oracle its `p = 1` closed form is checked against. Bitwise equal to
    /// the gate-by-gate evolution of the full state (see
    /// `docs/determinism.md`); after the first call of a given size, no
    /// allocation happens.
    ///
    /// # Panics
    ///
    /// Panics if `params.layers() != self.layers()`.
    pub fn statevector_expectation_with(
        &self,
        workspace: &mut StatevectorWorkspace,
        params: &QaoaParams,
    ) -> f64 {
        self.evolve_into(workspace, params)
            .expectation_diagonal(self.cut_table())
    }

    /// The scratch [`QaoaInstance::expectation_with`] needs: an empty
    /// workspace at `p = 1`, where the closed form uses none, and one sized
    /// for the graph otherwise.
    pub(crate) fn workspace(&self) -> StatevectorWorkspace {
        if self.p1_terms.is_some() {
            StatevectorWorkspace::new()
        } else {
            StatevectorWorkspace::with_qubits(self.graph.node_count())
        }
    }

    fn closed_form(&self, terms: &P1EdgeTerms, params: &QaoaParams) -> f64 {
        assert_eq!(params.layers(), self.layers, "layer count mismatch");
        terms.value(params.gammas[0], params.betas[0])
    }

    /// Exact measurement distribution for the given parameters.
    ///
    /// Allocates a fresh workspace and result vector per call; hot loops
    /// should reuse both through [`QaoaInstance::probabilities_into`].
    ///
    /// # Panics
    ///
    /// Panics if `params.layers() != self.layers()`.
    pub fn probabilities(&self, params: &QaoaParams) -> Vec<f64> {
        let mut workspace = StatevectorWorkspace::new();
        let mut out = Vec::new();
        self.probabilities_into(&mut workspace, params, &mut out);
        out
    }

    /// Exact measurement distribution computed into `out` with a reused
    /// workspace: after the first call of a given size, no allocation
    /// happens.
    ///
    /// # Panics
    ///
    /// Panics if `params.layers() != self.layers()`.
    pub fn probabilities_into(
        &self,
        workspace: &mut StatevectorWorkspace,
        params: &QaoaParams,
        out: &mut Vec<f64>,
    ) {
        self.evolve_into(workspace, params).probabilities_into(out);
    }

    /// Noisy cost expectation under a device noise model, evaluated by
    /// simulating the explicit gate circuit with Monte-Carlo trajectories.
    ///
    /// # Panics
    ///
    /// Panics if `params.layers() != self.layers()`.
    pub fn noisy_expectation<R: Rng>(
        &self,
        params: &QaoaParams,
        noise: &NoiseModel,
        options: TrajectoryOptions,
        rng: &mut R,
    ) -> f64 {
        assert_eq!(params.layers(), self.layers, "layer count mismatch");
        let circuit = self.build_circuit(params);
        noisy_expectation_diagonal(&circuit, noise, self.cut_table(), options, rng)
    }

    /// Noisy cost expectation of the circuit *after routing onto a device
    /// coupling map*, mirroring the paper's methodology (circuits are
    /// transpiled with SABRE before noisy execution, so denser graphs pay a
    /// super-linear SWAP/depth penalty).
    ///
    /// The coupling map must have exactly as many qubits as the graph has
    /// nodes (use e.g. `qsim::devices::heavy_hex_like(n)`); the routed
    /// circuit is then simulated with Monte-Carlo trajectories.
    ///
    /// # Errors
    ///
    /// Returns [`QaoaError::InvalidParameters`] if the coupling map is
    /// smaller than the graph or routing fails.
    ///
    /// # Panics
    ///
    /// Panics if `params.layers() != self.layers()`.
    pub fn noisy_expectation_routed<R: Rng>(
        &self,
        params: &QaoaParams,
        coupling: &qsim::devices::CouplingMap,
        noise: &NoiseModel,
        options: TrajectoryOptions,
        rng: &mut R,
    ) -> Result<f64, QaoaError> {
        let (native, values) = self.routed_native_observable(params, coupling)?;
        Ok(noisy_expectation_diagonal(
            &native, noise, &values, options, rng,
        ))
    }

    /// Noisy cost expectation under per-trajectory RNG substreams derived
    /// from `seed` (see `qsim::trajectory::noisy_probabilities_seeded`):
    /// the result is a pure function of `(params, seed)` and is
    /// bitwise-identical for every thread count. This is the evaluation the
    /// per-point noisy landscape backend uses.
    ///
    /// # Panics
    ///
    /// Panics if `params.layers() != self.layers()`.
    pub fn noisy_expectation_seeded(
        &self,
        params: &QaoaParams,
        noise: &NoiseModel,
        options: TrajectoryOptions,
        seed: u64,
    ) -> f64 {
        assert_eq!(params.layers(), self.layers, "layer count mismatch");
        let circuit = self.build_circuit(params);
        noisy_expectation_diagonal_seeded(&circuit, noise, self.cut_table(), options, seed)
    }

    /// Seeded, thread-count-independent variant of
    /// [`QaoaInstance::noisy_expectation_routed`].
    ///
    /// # Errors
    ///
    /// Returns [`QaoaError::InvalidParameters`] if the coupling map is
    /// smaller than the graph or routing fails.
    ///
    /// # Panics
    ///
    /// Panics if `params.layers() != self.layers()`.
    pub fn noisy_expectation_routed_seeded(
        &self,
        params: &QaoaParams,
        coupling: &qsim::devices::CouplingMap,
        noise: &NoiseModel,
        options: TrajectoryOptions,
        seed: u64,
    ) -> Result<f64, QaoaError> {
        let (native, values) = self.routed_native_observable(params, coupling)?;
        Ok(noisy_expectation_diagonal_seeded(
            &native, noise, &values, options, seed,
        ))
    }

    /// Routes the QAOA circuit onto `coupling`, decomposes it to the native
    /// gate set, and builds the cut observable on the physical qubits that
    /// finally hold each graph node.
    fn routed_native_observable(
        &self,
        params: &QaoaParams,
        coupling: &qsim::devices::CouplingMap,
    ) -> Result<(qsim::circuit::Circuit, Vec<f64>), QaoaError> {
        assert_eq!(params.layers(), self.layers, "layer count mismatch");
        let n = self.graph.node_count();
        if coupling.qubit_count() < n {
            return Err(QaoaError::InvalidParameters(
                "coupling map is smaller than the graph",
            ));
        }
        let circuit = self.build_circuit(params);
        let routed = qsim::transpile::route_trivial(&circuit, coupling)
            .map_err(|_| QaoaError::InvalidParameters("routing failed"))?;
        // Decompose to the hardware-native gate set so the noise model sees
        // the true count of two-qubit operations (each RZZ costs two CNOTs,
        // each routing SWAP three).
        let native = qsim::transpile::decompose_to_native(&routed.circuit);
        // The routed circuit permutes logical qubits; the cut observable must
        // be evaluated on the *physical* qubits that finally hold each node.
        let layout = &routed.final_layout;
        let mut values = vec![0.0f64; 1usize << coupling.qubit_count()];
        for (z, value) in values.iter_mut().enumerate() {
            for (u, v) in self.graph.edges() {
                let bu = (z >> layout[u]) & 1;
                let bv = (z >> layout[v]) & 1;
                if bu != bv {
                    *value += 1.0;
                }
            }
        }
        Ok((native, values))
    }

    /// The maximum possible cost value (the total number of edges), used to
    /// normalize expectations.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }
}

/// Shared QAOA layer evolution over `qubits` qubits: the alternating
/// cost-phase (`e^{-iγ H_C}` via the `u8` cut table, one memoized phase
/// gather) and mixer (`Rx(2β)` on every qubit) layers, with the uniform
/// start folded into the first cost layer.
///
/// It evolves only the half of the state whose top qubit is clear. A cut
/// table is bit-flip symmetric (`cut(z) = cut(z̄)`), and so are the
/// uniform start and every layer, bit for bit, so the other half is the
/// mirror image; the returned [`HalfState`] reads the full state's
/// energies, `⟨Z_u Z_v⟩` and probabilities with the full state's bits
/// (see `qsim::statevector`'s bit-flip symmetry contract). Energies are
/// bitwise equal to the gate-by-gate `Gate::Rx` evolution of the full
/// state.
///
/// This is the single definition of the ansatz evolution; the global
/// statevector backend and the edge-local light-cone backend both route
/// through it so they can never silently diverge.
pub(crate) fn evolve_qaoa_layers<'w>(
    workspace: &'w mut StatevectorWorkspace,
    qubits: usize,
    cut_table: &CostDiagonal,
    params: &QaoaParams,
) -> HalfState<'w> {
    let mut layers = params.gammas.iter().zip(&params.betas);
    if let Some((gamma, beta)) = layers.next() {
        workspace.begin_half_cost_layer(qubits, cut_table, *gamma);
        workspace.apply_half_rx_layer(2.0 * beta);
    } else {
        workspace.begin_half_uniform(qubits);
    }
    for (gamma, beta) in layers {
        workspace.apply_half_cost_layer(cut_table, *gamma);
        workspace.apply_half_rx_layer(2.0 * beta);
    }
    workspace.half_state()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{EdgeLocalEvaluator, EnergyEvaluator};
    use graphlib::generators::{complete, connected_gnp, cycle, path, star};
    use mathkit::rng::seeded;
    use qsim::noise::ReadoutError;
    use qsim::statevector::StateVector;

    const EPS: f64 = 1e-9;

    #[test]
    fn zero_angles_give_half_the_edges() {
        // With γ = β = 0 the state stays uniform; each edge is cut with
        // probability 1/2, so the expectation is |E| / 2.
        let g = cycle(6).unwrap();
        let instance = QaoaInstance::new(&g, 1).unwrap();
        let params = QaoaParams::new(vec![0.0], vec![0.0]).unwrap();
        assert!((instance.expectation(&params) - 3.0).abs() < EPS);
    }

    #[test]
    fn expectation_matches_explicit_circuit_simulation() {
        let mut rng = seeded(7);
        let g = connected_gnp(6, 0.5, &mut rng).unwrap();
        let instance = QaoaInstance::new(&g, 2).unwrap();
        let params = QaoaParams::new(vec![0.8, 0.3], vec![0.5, 1.1]).unwrap();
        let fast = instance.expectation(&params);
        // Same computation through the explicit gate circuit.
        let circuit = qaoa_circuit(&g, &params).unwrap();
        let sv = StateVector::from_circuit(&circuit);
        let slow = sv.expectation_diagonal(instance.cut_table());
        assert!((fast - slow).abs() < 1e-8, "fast {fast} vs slow {slow}");
    }

    #[test]
    fn expectation_is_bounded_by_edge_count() {
        let g = complete(5);
        let instance = QaoaInstance::new(&g, 2).unwrap();
        let mut rng = seeded(3);
        for _ in 0..10 {
            let params = QaoaParams::random(2, &mut rng);
            let e = instance.expectation(&params);
            assert!(e >= 0.0 && e <= g.edge_count() as f64);
        }
    }

    #[test]
    fn probabilities_sum_to_one_and_match_expectation() {
        let g = star(5).unwrap();
        let instance = QaoaInstance::new(&g, 1).unwrap();
        let params = QaoaParams::new(vec![0.9], vec![0.35]).unwrap();
        let probs = instance.probabilities(&params);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < EPS);
        let e: f64 = probs
            .iter()
            .zip(instance.cut_table())
            .map(|(p, &c)| p * f64::from(c))
            .sum();
        assert!((e - instance.expectation(&params)).abs() < EPS);
    }

    #[test]
    fn edge_local_matches_global_on_small_graphs() {
        let mut rng = seeded(11);
        for p in 1..=2usize {
            let g = connected_gnp(7, 0.35, &mut rng).unwrap();
            let instance = QaoaInstance::new(&g, p).unwrap();
            let params = QaoaParams::random(p, &mut rng);
            let global =
                instance.statevector_expectation_with(&mut StatevectorWorkspace::new(), &params);
            let evaluator = EdgeLocalEvaluator::new(&g, p).unwrap();
            let local = evaluator.energy(&mut evaluator.scratch(), 0, &params);
            assert!(
                (global - local).abs() < 1e-7,
                "p={p}: global {global} vs local {local}"
            );
        }
    }

    #[test]
    fn edge_local_handles_graphs_beyond_global_limit() {
        // A long path has tiny light cones regardless of total size.
        let g = path(40).unwrap();
        let params = QaoaParams::new(vec![0.4], vec![0.3]).unwrap();
        let evaluator = EdgeLocalEvaluator::new(&g, 1).unwrap();
        let value = evaluator.energy(&mut evaluator.scratch(), 0, &params);
        assert!(value > 0.0 && value <= 39.0);
        // Global evaluation refuses this size.
        assert!(QaoaInstance::new(&g, 1).is_err());
    }

    #[test]
    fn noisy_expectation_degrades_toward_random_cut() {
        let g = cycle(6).unwrap();
        let instance = QaoaInstance::new(&g, 1).unwrap();
        // Pick good p=1 parameters by a coarse scan so the ideal expectation
        // is clearly above the random-cut baseline.
        let mut params = QaoaParams::new(vec![0.0], vec![0.0]).unwrap();
        let mut ideal = f64::NEG_INFINITY;
        for i in 0..16 {
            for j in 0..16 {
                let candidate = QaoaParams::new(
                    vec![2.0 * std::f64::consts::PI * i as f64 / 16.0],
                    vec![std::f64::consts::PI * j as f64 / 16.0],
                )
                .unwrap();
                let value = instance.expectation(&candidate);
                if value > ideal {
                    ideal = value;
                    params = candidate;
                }
            }
        }
        let noise = NoiseModel::new(
            5e-3,
            4e-2,
            ReadoutError::new(0.03, 0.03),
            80.0,
            60.0,
            35.0,
            300.0,
        );
        let mut rng = seeded(21);
        let noisy = instance.noisy_expectation(
            &params,
            &noise,
            TrajectoryOptions { trajectories: 200 },
            &mut rng,
        );
        let random_cut = g.edge_count() as f64 / 2.0;
        assert!(ideal > random_cut + 0.5, "ideal {ideal}");
        assert!(noisy < ideal, "noisy {noisy} should be below ideal {ideal}");
        assert!(noisy > random_cut - 1.0, "noisy {noisy} collapsed too far");
    }

    #[test]
    fn routed_noisy_expectation_matches_ideal_when_noiseless() {
        let mut rng = seeded(31);
        let g = connected_gnp(6, 0.5, &mut rng).unwrap();
        let instance = QaoaInstance::new(&g, 1).unwrap();
        let params = QaoaParams::random(1, &mut rng);
        let coupling = qsim::devices::heavy_hex_like(6);
        let routed = instance
            .noisy_expectation_routed(
                &params,
                &coupling,
                &NoiseModel::ideal(),
                TrajectoryOptions { trajectories: 1 },
                &mut rng,
            )
            .unwrap();
        let ideal = instance.expectation(&params);
        assert!(
            (routed - ideal).abs() < 1e-8,
            "routed {routed} vs ideal {ideal}"
        );
        // A coupling map smaller than the graph is rejected.
        let tiny = qsim::devices::heavy_hex_like(3);
        assert!(instance
            .noisy_expectation_routed(
                &params,
                &tiny,
                &NoiseModel::ideal(),
                TrajectoryOptions { trajectories: 1 },
                &mut rng
            )
            .is_err());
    }

    #[test]
    fn routed_noisy_expectation_is_noisier_than_unrouted() {
        // Routing inserts SWAPs, so under the same noise model the routed
        // evaluation should deviate at least as much from the ideal value.
        let mut rng = seeded(33);
        let g = connected_gnp(8, 0.6, &mut rng).unwrap();
        let instance = QaoaInstance::new(&g, 1).unwrap();
        let params = QaoaParams::new(vec![0.9], vec![0.4]).unwrap();
        let ideal = instance.expectation(&params);
        let noise = NoiseModel::new(
            2e-3,
            2e-2,
            ReadoutError::new(0.02, 0.03),
            90.0,
            70.0,
            35.0,
            300.0,
        );
        let opts = TrajectoryOptions { trajectories: 300 };
        let unrouted = instance.noisy_expectation(&params, &noise, opts, &mut rng);
        let coupling = qsim::devices::heavy_hex_like(8);
        let routed = instance
            .noisy_expectation_routed(&params, &coupling, &noise, opts, &mut rng)
            .unwrap();
        assert!(
            (routed - ideal).abs() + 0.15 >= (unrouted - ideal).abs(),
            "routed {routed}, unrouted {unrouted}, ideal {ideal}"
        );
    }

    #[test]
    fn depth_scheduled_instance_matches_ideal_when_noiseless() {
        // A scheduled circuit is a pure reordering of commuting diagonal
        // gates, so the noiseless trajectory evaluation must agree with the
        // exact phase-table expectation.
        let mut rng = seeded(41);
        let g = connected_gnp(7, 0.5, &mut rng).unwrap();
        let instance = QaoaInstance::new(&g, 2).unwrap().with_depth_schedule();
        let metrics = instance.depth_metrics().unwrap();
        assert!(metrics.rounds >= 1 && metrics.meets_vizing_bound());
        let params = QaoaParams::random(2, &mut rng);
        let noiseless = instance.noisy_expectation_seeded(
            &params,
            &NoiseModel::ideal(),
            TrajectoryOptions { trajectories: 1 },
            7,
        );
        let ideal = instance.expectation(&params);
        assert!(
            (noiseless - ideal).abs() < 1e-8,
            "scheduled {noiseless} vs ideal {ideal}"
        );
        // And the scheduled evaluation is a pure function of the seed.
        let noise = NoiseModel::new(
            5e-3,
            4e-2,
            ReadoutError::new(0.03, 0.03),
            80.0,
            60.0,
            35.0,
            300.0,
        );
        let opts = TrajectoryOptions { trajectories: 32 };
        let a = instance.noisy_expectation_seeded(&params, &noise, opts, 99);
        let b = instance.noisy_expectation_seeded(&params, &noise, opts, 99);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn max_cut_equals_brute_force() {
        let mut rng = seeded(43);
        let mut graphs = vec![cycle(7).unwrap(), complete(5), star(6).unwrap()];
        for n in 4..=11 {
            graphs.push(connected_gnp(n, 0.45, &mut rng).unwrap());
        }
        for g in &graphs {
            let instance = QaoaInstance::new(g, 1).unwrap();
            let brute = crate::maxcut::brute_force_maxcut(g).unwrap().best_cut;
            assert_eq!(instance.max_cut(), brute);
        }
    }

    #[test]
    fn constructor_validates_input() {
        assert!(QaoaInstance::new(&Graph::new(0), 1).is_err());
        assert!(QaoaInstance::new(&Graph::new(4), 1).is_err());
        assert!(QaoaInstance::new(&cycle(5).unwrap(), 0).is_err());
    }
}
