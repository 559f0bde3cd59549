//! Ideal statevector simulator.
//!
//! The state of `n` qubits is a vector of `2^n` complex amplitudes. Qubit 0
//! is the least-significant bit of the basis-state index (Qiskit's
//! convention), so `|q_{n-1} … q_1 q_0⟩` maps to index
//! `q_0 + 2 q_1 + … + 2^{n-1} q_{n-1}`.
//!
//! # Kernels
//!
//! Every `StateVector` operation runs the [`vectorized`] kernels: explicitly
//! chunked, branch-free loops shaped for LLVM's autovectorizer — gates walk
//! only the contiguous runs they change, butterflies are slice zips with the
//! index math hoisted out, reductions keep one accumulator per lane.
//!
//! [`mod@reference`] holds the plain scalar loops. It is not a mode the
//! simulator can run in but a test oracle: the differential tests
//! (`tests/qsim_kernel_equivalence.rs`), the golden pins and the `qsim_smoke`
//! baseline drive raw amplitude buffers through
//! [`reference::apply_gate`] and compare against `StateVector` bit for bit.
//! Every gate's matrix comes from the one table in
//! [`Gate::single_qubit_unitary`], which both sides read.
//!
//! # The `u8` cost-layer contract
//!
//! The QAOA cost diagonal is held once, as a [`CostDiagonal`]: one `u8`
//! per basis state. [`StatevectorWorkspace::begin_cost_layer`] folds the
//! uniform start into the first cost layer — `memo[k] = (2^{-n/2}, 0) ·
//! cis(-γ·k)` per cost value, then the gather `amp[z] = memo[cost[z]]` —
//! and [`StatevectorWorkspace::apply_cost_layer`] multiplies by a
//! `cis(-γ·k)` memo gathered the same way. Both leave the amplitude bits
//! of [`StatevectorWorkspace::begin_uniform`] plus
//! [`StateVector::apply_diagonal`] with one `cis(-γ·cost[z])` per entry,
//! and [`StateVector::expectation_diagonal`] reads the `u8` values with
//! the bits of the same table held as `f64`.
//!
//! # The bit-flip symmetry contract
//!
//! A MaxCut cut table is bit-flip symmetric — `cut(z) = cut(z̄)`, with
//! `z̄ = 2^n − 1 − z` — and so is every QAOA state it drives, **bit for
//! bit**: the uniform start and the gathered cost phases are symmetric, and
//! the structured `Rx` butterfly maps mirrored inputs to mirrored outputs
//! (it builds `lo` on swapped inputs with the expression tree of `hi`),
//! signs of zeros included. The exact QAOA evolution therefore runs on the
//! workspace's **half state**, the `2^(n−1)` amplitudes whose top qubit is
//! clear: [`StatevectorWorkspace::begin_half_cost_layer`] and
//! [`StatevectorWorkspace::apply_half_cost_layer`] gather over the first
//! half of the table, and [`StatevectorWorkspace::apply_half_rx_layer`]
//! runs the grouped mixer on every qubit below the top one, then the top
//! qubit's butterflies as one [`vectorized::apply_rx_mirror`] pass,
//! pairing `half[x]` with `half[2^(n−1) − 1 − x]`. The [`HalfState`] readers walk
//! the full `2^n` index space in the fixed lane order, reading `amp[z]` as
//! `half[2^n − 1 − z]` in the upper half, so they add the same terms in the
//! same order as the full state's readers: **every energy, `⟨Z_a Z_b⟩` and
//! probability has the full state's bits**. Only a table
//! [`CostDiagonal::is_bit_flip_symmetric`] accepts may drive the half
//! state. The full-state cost layers
//! ([`StatevectorWorkspace::begin_cost_layer`],
//! [`StatevectorWorkspace::apply_cost_layer`]) remain as its test and smoke
//! oracle (`tests/half_state_equivalence.rs`). See `docs/determinism.md`.
//!
//! # The mixer-layer contract
//!
//! One kernel has a stated exception at the amplitude level: the QAOA
//! mixer [`StateVector::apply_rx_layer`]. It uses the structure of `Rx`
//! (8 multiplies per amplitude pair instead of the generic butterfly's 16)
//! and walks the qubits three per pass; its amplitude bits are those of
//! `n` per-qubit [`vectorized::apply_rx`] passes.
//! Reductions and energies are **bitwise equal** to the gate-by-gate
//! `Gate::Rx` evolution; amplitudes are equal except that an exact zero may
//! change sign. The generic butterfly differs only by adding products with
//! the `Rx` matrix's exact `±0` entries, which for finite inputs can change
//! only the sign of a result that is exactly zero, and every reduction
//! squares the components. See `docs/determinism.md`.
//!
//! # Trajectory kernels
//!
//! The noisy trajectory simulator ([`crate::trajectory`]) works on a raw
//! amplitude buffer with the [`vectorized`] kernels directly, plus a few
//! that only it reaches: structured [`vectorized::apply_h`],
//! [`vectorized::apply_x`], [`vectorized::apply_y`] and
//! [`vectorized::apply_z`] (4 multiplies or none per pair instead of 16),
//! the unnormalized amplitude-damping steps
//! [`vectorized::apply_damping_keep`] and
//! [`vectorized::apply_damping_jump`] (the no-jump step also fused into
//! the `Rx` pass after it, [`vectorized::apply_rx_after_keep`]), the fused
//! read pass [`vectorized::one_and_norm_sqr`], and the gathers of a run of
//! equal-angle `RZZ` gates from [`cut_counts`] tables
//! ([`vectorized::apply_phases`], [`vectorized::apply_phase_difference`]).
//! Each gate kernel equals the generic butterfly under `==` per component,
//! by the argument of the mixer-layer contract below, and the read pass
//! returns the bits of [`StateVector::prob_one`] and
//! [`StateVector::norm_sqr`].
//! [`StateVector::apply_gate`] keeps the generic butterfly for every
//! single-qubit gate.
//!
//! # Fixed reduction order
//!
//! All reductions (`expectation_*`, [`StateVector::prob_one`],
//! [`StateVector::norm_sqr`]) sum in one fixed order, shared with the
//! scalar oracle and independent of thread count: [`REDUCTION_LANES`]` = L`
//! interleaved partial sums, where lane `j` accumulates elements
//! `j, j + L, j + 2L, …` over the largest prefix that is a multiple of `L`;
//! the lanes then combine pairwise (`((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`)
//! and any tail elements (only states with fewer than 3 qubits have one) are
//! added sequentially.
//! This order is part of the determinism contract — see
//! `docs/determinism.md`.

pub mod reference;
pub mod vectorized;

use crate::circuit::{rx_matrix, Circuit, Gate};
use mathkit::Complex64;
use rand::Rng;

/// Practical qubit limit for the statevector backend (64 Mi amplitudes).
pub const MAX_STATEVECTOR_QUBITS: usize = 26;

/// Number of interleaved partial sums in the fixed reduction order shared
/// by the kernels and the scalar oracle (see the [module docs](self)).
pub const REDUCTION_LANES: usize = 8;

/// A pure quantum state over `n` qubits.
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    qubit_count: usize,
    amplitudes: Vec<Complex64>,
}

impl StateVector {
    /// Creates the all-zeros state `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit_count` exceeds [`MAX_STATEVECTOR_QUBITS`].
    pub fn new(qubit_count: usize) -> Self {
        check_qubits(qubit_count);
        let mut amplitudes = vec![Complex64::zero(); 1 << qubit_count];
        amplitudes[0] = Complex64::one();
        Self {
            qubit_count,
            amplitudes,
        }
    }

    /// Creates the uniform superposition `|s⟩ = 2^{-n/2} Σ_z |z⟩`
    /// (the QAOA initial state, Equation 4 of the paper).
    pub fn uniform_superposition(qubit_count: usize) -> Self {
        let mut sv = Self::new(qubit_count);
        sv.amplitudes.fill(uniform_amplitude(qubit_count));
        sv
    }

    /// Runs a circuit from `|0…0⟩` and returns the final state.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let mut sv = Self::new(circuit.qubit_count());
        sv.apply_circuit(circuit);
        sv
    }

    /// Re-initializes this state to `|0…0⟩` over `qubit_count` qubits,
    /// reusing the existing amplitude allocation (it only grows, never
    /// reallocates once large enough). This is the zero-allocation entry
    /// point used by [`StatevectorWorkspace`] in grid scans. When the
    /// buffer already has the right length the reset is a plain `fill`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit_count` exceeds [`MAX_STATEVECTOR_QUBITS`].
    pub fn reinitialize_zero(&mut self, qubit_count: usize) {
        self.reinitialize_with(qubit_count, Complex64::zero());
        self.amplitudes[0] = Complex64::one();
    }

    /// Re-initializes this state to the uniform superposition `|s⟩` over
    /// `qubit_count` qubits, reusing the existing amplitude allocation.
    ///
    /// # Panics
    ///
    /// Panics if `qubit_count` exceeds [`MAX_STATEVECTOR_QUBITS`].
    pub fn reinitialize_uniform(&mut self, qubit_count: usize) {
        self.reinitialize_with(qubit_count, uniform_amplitude(qubit_count));
    }

    /// Resizes to `2^qubit_count` amplitudes all equal to `value`, without
    /// reallocating when the buffer is already large enough.
    fn reinitialize_with(&mut self, qubit_count: usize, value: Complex64) {
        self.resize_for(qubit_count);
        self.amplitudes.fill(value);
    }

    /// Sets the qubit count and resizes the buffer to `2^qubit_count`
    /// amplitudes, reallocating only when it must grow. Amplitudes that
    /// survive keep stale values: callers overwrite every one.
    fn resize_for(&mut self, qubit_count: usize) {
        check_qubits(qubit_count);
        self.qubit_count = qubit_count;
        self.amplitudes
            .resize(1usize << qubit_count, Complex64::zero());
    }

    /// Number of qubits.
    pub fn qubit_count(&self) -> usize {
        self.qubit_count
    }

    /// Borrow of the raw amplitudes (little-endian basis ordering).
    pub fn amplitudes(&self) -> &[Complex64] {
        &self.amplitudes
    }

    /// Applies every gate of a circuit in order.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more qubits than the state.
    pub fn apply_circuit(&mut self, circuit: &Circuit) {
        assert!(
            circuit.qubit_count() <= self.qubit_count,
            "circuit does not fit in the state"
        );
        for gate in circuit.gates() {
            self.apply_gate(*gate);
        }
    }

    /// Applies a single gate.
    ///
    /// # Panics
    ///
    /// Panics if a gate operand is out of range.
    pub fn apply_gate(&mut self, gate: Gate) {
        match gate {
            Gate::Cnot(control, target) => self.apply_cnot(control, target),
            Gate::Cz(a, b) => self.apply_cz(a, b),
            Gate::Swap(a, b) => self.apply_swap(a, b),
            Gate::Rzz(a, b, theta) => self.apply_rzz(a, b, theta),
            single => {
                let (q, u) = single
                    .single_qubit_unitary()
                    .expect("two-qubit gates are matched above");
                self.apply_single(q, u);
            }
        }
    }

    /// Applies an arbitrary single-qubit unitary `[[u00, u01], [u10, u11]]`
    /// to `target`.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range.
    pub fn apply_single(&mut self, target: usize, u: [[Complex64; 2]; 2]) {
        assert!(target < self.qubit_count, "qubit {target} out of range");
        vectorized::apply_single(&mut self.amplitudes, target, u);
    }

    fn apply_cnot(&mut self, control: usize, target: usize) {
        assert!(control < self.qubit_count && target < self.qubit_count);
        assert_ne!(control, target, "control and target must differ");
        vectorized::apply_cnot(&mut self.amplitudes, control, target);
    }

    fn apply_cz(&mut self, a: usize, b: usize) {
        assert!(a < self.qubit_count && b < self.qubit_count);
        assert_ne!(a, b);
        vectorized::apply_cz(&mut self.amplitudes, a, b);
    }

    fn apply_swap(&mut self, a: usize, b: usize) {
        assert!(a < self.qubit_count && b < self.qubit_count);
        assert_ne!(a, b);
        vectorized::apply_swap(&mut self.amplitudes, a, b);
    }

    fn apply_rzz(&mut self, a: usize, b: usize, theta: f64) {
        assert!(a < self.qubit_count && b < self.qubit_count);
        assert_ne!(a, b);
        vectorized::apply_rzz(&mut self.amplitudes, a, b, theta);
    }

    /// Applies `Rx(θ)` to every qubit: the QAOA mixer layer `e^{-iβ Σ X_q}`
    /// with `θ = 2β`.
    ///
    /// The kernel uses the structure of `Rx` — `cos(θ/2)` on the diagonal,
    /// `i·(-sin(θ/2))` off it, both read from the same `Rx` matrix that
    /// [`apply_gate`](Self::apply_gate)`(Gate::Rx)` uses — for 8 multiplies
    /// per amplitude pair instead of the generic butterfly's 16, and walks
    /// the qubits three per pass over the state
    /// ([`vectorized::apply_rx_layer`]).
    ///
    /// # Contract
    ///
    /// Amplitude bits equal to `n` per-qubit [`vectorized::apply_rx`]
    /// passes: grouping only changes which amplitudes a pass visits, never
    /// the sequence of operations an amplitude goes through.
    ///
    /// Equal to `n` gate-by-gate `Gate::Rx(q, θ)` applications, under `==`
    /// per amplitude component: the structured butterfly only omits the
    /// generic one's products with the matrix's exact `±0` entries
    /// (`0·x = ±0`, and `y ± 0 = y` for `y ≠ 0`), so for finite amplitudes
    /// a component can differ only in the sign of an exact zero — and a
    /// zero's sign never reaches a nonzero value in later gates either.
    /// Every reduction squares the components, so `norm_sqr`,
    /// probabilities, `prob_one` and all `expectation_*` values (hence
    /// every QAOA energy) are bitwise equal.
    pub fn apply_rx_layer(&mut self, theta: f64) {
        let u = rx_matrix(theta);
        vectorized::apply_rx_layer(
            &mut self.amplitudes,
            self.qubit_count,
            u[0][0].re,
            u[0][1].im,
        );
    }

    /// Multiplies every amplitude of basis state `z` by `phases[z]`.
    ///
    /// This lets callers implement diagonal unitaries (such as the QAOA cost
    /// layer) in a single pass.
    ///
    /// # Panics
    ///
    /// Panics if `phases.len()` does not equal `2^n`.
    pub fn apply_diagonal(&mut self, phases: &[Complex64]) {
        assert_eq!(
            phases.len(),
            self.amplitudes.len(),
            "diagonal length must equal the state dimension"
        );
        vectorized::apply_diagonal(&mut self.amplitudes, phases);
    }

    /// Probability that measuring `qubit` yields `1`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    pub fn prob_one(&self, qubit: usize) -> f64 {
        assert!(qubit < self.qubit_count);
        vectorized::prob_one(&self.amplitudes, qubit)
    }

    /// Rescales the state to unit norm, as the renormalize-every-step
    /// trajectory oracle ([`crate::trajectory::reference`]) does after each
    /// non-unitary Kraus operator. A state with (numerically) zero norm is
    /// reset to `|0…0⟩`.
    pub fn renormalize(&mut self) {
        let norm = self.norm_sqr().sqrt();
        if norm < 1e-300 {
            self.amplitudes.fill(Complex64::zero());
            self.amplitudes[0] = Complex64::one();
            return;
        }
        for a in self.amplitudes.iter_mut() {
            *a = *a / norm;
        }
    }

    /// Probability of measuring each basis state.
    ///
    /// Allocates the result vector; hot loops should reuse a buffer through
    /// [`StateVector::probabilities_into`] (or a
    /// [`StatevectorWorkspace`], whose
    /// [`state_probabilities`](StatevectorWorkspace::state_probabilities)
    /// owns one).
    pub fn probabilities(&self) -> Vec<f64> {
        self.amplitudes.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Computes the measurement distribution into `out`, reusing its
    /// allocation (after the first call of a given size, no allocation
    /// happens).
    pub fn probabilities_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.amplitudes.iter().map(|a| a.norm_sqr()));
    }

    /// Sum of `|amplitude|^2` (should be 1 up to rounding).
    pub fn norm_sqr(&self) -> f64 {
        vectorized::norm_sqr(&self.amplitudes)
    }

    /// Expectation value of the Pauli-Z operator on `qubit`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    pub fn expectation_z(&self, qubit: usize) -> f64 {
        assert!(qubit < self.qubit_count);
        vectorized::expectation_z(&self.amplitudes, qubit)
    }

    /// Expectation value of `Z_a Z_b`.
    ///
    /// # Panics
    ///
    /// Panics if either qubit is out of range.
    pub fn expectation_zz(&self, a: usize, b: usize) -> f64 {
        assert!(a < self.qubit_count && b < self.qubit_count);
        vectorized::expectation_zz(&self.amplitudes, a, b)
    }

    /// Expectation value of an arbitrary diagonal observable given its value
    /// on every basis state. The values may be any type that widens exactly
    /// to `f64`: a [`CostDiagonal`]'s `u8` entries give the same bits as the
    /// same table held as `f64`.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` does not equal `2^n`.
    pub fn expectation_diagonal<V: Copy + Into<f64>>(&self, values: &[V]) -> f64 {
        assert_eq!(values.len(), self.amplitudes.len());
        vectorized::expectation_diagonal(&self.amplitudes, values)
    }

    /// Samples `shots` measurement outcomes in the computational basis and
    /// returns per-basis-state counts.
    ///
    /// Builds fresh buffers per call; repeated sampling should reuse a
    /// [`SampleScratch`] through [`StateVector::sample_counts_with`].
    pub fn sample_counts<R: Rng>(&self, shots: usize, rng: &mut R) -> Vec<usize> {
        let mut scratch = SampleScratch::default();
        self.sample_counts_with(shots, rng, &mut scratch);
        scratch.counts
    }

    /// Samples `shots` measurement outcomes into the reused buffers of
    /// `scratch` and returns the per-basis-state counts. After the first
    /// call of a given size no allocation happens.
    pub fn sample_counts_with<'s, R: Rng>(
        &self,
        shots: usize,
        rng: &mut R,
        scratch: &'s mut SampleScratch,
    ) -> &'s [usize] {
        self.probabilities_into(&mut scratch.probabilities);
        sample_counts_from_probabilities_into(
            &scratch.probabilities,
            shots,
            rng,
            &mut scratch.cdf,
            &mut scratch.counts,
        );
        &scratch.counts
    }
}

/// Reusable buffers (probabilities, CDF, counts) for repeated measurement
/// sampling — see [`StateVector::sample_counts_with`].
#[derive(Debug, Clone, Default)]
pub struct SampleScratch {
    probabilities: Vec<f64>,
    cdf: Vec<f64>,
    counts: Vec<usize>,
}

/// Draws `shots` inverse-transform samples from a probability vector and
/// returns per-outcome counts.
///
/// The prefix-sum CDF is built once and each shot is placed with a binary
/// search (`O(shots · log dim)` instead of the linear scan's
/// `O(shots · dim)`), which matters for the `2^n`-entry distributions the
/// simulators produce. Shared by [`StateVector::sample_counts`] and the
/// noisy trajectory sampler. Allocates the CDF and count buffers; repeated
/// sampling should reuse them through
/// [`sample_counts_from_probabilities_into`].
///
/// # Panics
///
/// Panics if `probabilities` is empty.
pub fn sample_counts_from_probabilities<R: Rng>(
    probabilities: &[f64],
    shots: usize,
    rng: &mut R,
) -> Vec<usize> {
    let mut cdf = Vec::new();
    let mut counts = Vec::new();
    sample_counts_from_probabilities_into(probabilities, shots, rng, &mut cdf, &mut counts);
    counts
}

/// Buffer-reusing core of [`sample_counts_from_probabilities`]: builds the
/// CDF in `cdf` and the per-outcome counts in `counts`, reusing both
/// allocations across calls.
///
/// # Panics
///
/// Panics if `probabilities` is empty.
pub fn sample_counts_from_probabilities_into<R: Rng>(
    probabilities: &[f64],
    shots: usize,
    rng: &mut R,
    cdf: &mut Vec<f64>,
    counts: &mut Vec<usize>,
) {
    assert!(!probabilities.is_empty(), "empty distribution");
    counts.clear();
    counts.resize(probabilities.len(), 0);
    // Cumulative distribution for inverse-transform sampling.
    cdf.clear();
    let mut acc = 0.0;
    cdf.extend(probabilities.iter().map(|p| {
        acc += p;
        acc
    }));
    let total = acc.max(f64::MIN_POSITIVE);
    for _ in 0..shots {
        let r: f64 = rng.gen::<f64>() * total;
        let idx = match cdf.binary_search_by(|x| x.partial_cmp(&r).unwrap()) {
            Ok(i) => i,
            Err(i) => i.min(probabilities.len() - 1),
        };
        counts[idx] += 1;
    }
}

/// Panics unless `qubit_count` is within [`MAX_STATEVECTOR_QUBITS`].
fn check_qubits(qubit_count: usize) {
    assert!(
        qubit_count <= MAX_STATEVECTOR_QUBITS,
        "statevector limited to {MAX_STATEVECTOR_QUBITS} qubits"
    );
}

/// The uniform-superposition amplitude `2^{-n/2}` of `qubit_count` qubits.
fn uniform_amplitude(qubit_count: usize) -> Complex64 {
    Complex64::new(1.0 / ((1usize << qubit_count) as f64).sqrt(), 0.0)
}

/// An integer-valued diagonal observable — the QAOA MaxCut cost
/// Hamiltonian — held as one `u8` per basis state, plus its largest entry.
///
/// This is the only form the exact QAOA paths keep a cost table in: cut
/// values of a graph with at most 22 nodes are at most 231, and
/// `f64::from(k)` is exact, so nothing is lost against an `f64` table at
/// an eighth of the memory. The largest entry, fixed at construction,
/// bounds the per-value phase memo of the cost layers
/// ([`StatevectorWorkspace::begin_cost_layer`],
/// [`StatevectorWorkspace::apply_cost_layer`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostDiagonal {
    values: Vec<u8>,
    max: u8,
    bit_flip_symmetric: bool,
}

impl CostDiagonal {
    /// Wraps `values[z]`, the cost of basis state `z`.
    pub fn new(values: Vec<u8>) -> Self {
        let max = values.iter().copied().max().unwrap_or(0);
        let (lower, upper) = values.split_at(values.len() / 2);
        let bit_flip_symmetric = values.len() >= 2
            && values.len().is_power_of_two()
            && lower.iter().eq(upper.iter().rev());
        Self {
            values,
            max,
            bit_flip_symmetric,
        }
    }

    /// True when the table has `2^n ≥ 2` entries and `values[z] ==
    /// values[z̄]` for every `z` (`z̄ = 2^n − 1 − z`, every bit flipped), as
    /// every MaxCut table has: `cut(z) = cut(z̄)`. Only such a table can
    /// drive the half-state QAOA evolution
    /// ([`StatevectorWorkspace::begin_half_cost_layer`]).
    pub fn is_bit_flip_symmetric(&self) -> bool {
        self.bit_flip_symmetric
    }

    /// The per-basis-state costs.
    pub fn values(&self) -> &[u8] {
        &self.values
    }

    /// The largest cost.
    pub fn max(&self) -> u8 {
        self.max
    }
}

/// `counts[z]` for every basis state `z` of `qubit_count` qubits: how many
/// of `pairs` it cuts (puts the pair's two qubits in different states) —
/// the MaxCut table of a graph with these edges, and the table of a run of
/// `RZZ` gates on these pairs.
///
/// Built by doubling, in O(2^n): with the table of the qubits below `q` in
/// `counts[..2^q]`, qubit `q` with `adj` (the mask of its neighbours below
/// it) and `deg` (their number) extends it to `2^(q+1)` entries as
/// `counts[z + 2^q] = counts[z] + deg − popcount(z & adj)` and
/// `counts[z] += popcount(z & adj)`.
///
/// # Panics
///
/// Panics if `qubit_count` exceeds [`MAX_STATEVECTOR_QUBITS`], a pair
/// names a qubit outside it or the same qubit twice, a pair repeats (in
/// either order), or there are more than 255 pairs.
pub fn cut_counts(qubit_count: usize, pairs: &[(usize, usize)]) -> Vec<u8> {
    check_qubits(qubit_count);
    assert!(pairs.len() <= usize::from(u8::MAX), "at most 255 pairs");
    for &(a, b) in pairs {
        assert!(
            a != b && a.max(b) < qubit_count,
            "pair ({a}, {b}) outside {qubit_count} qubits"
        );
    }
    let mut counts = vec![0u8; 1usize << qubit_count];
    for q in 0..qubit_count {
        let mut adj = 0usize;
        for &(a, b) in pairs {
            if a.max(b) == q {
                let bit = 1usize << a.min(b);
                assert!(adj & bit == 0, "pair ({a}, {b}) repeats");
                adj |= bit;
            }
        }
        let deg = adj.count_ones() as u8;
        let (low, high) = counts[..2 << q].split_at_mut(1 << q);
        for (z, (c0, c1)) in low.iter_mut().zip(high).enumerate() {
            let cut = (z & adj).count_ones() as u8;
            *c1 = *c0 + deg - cut;
            *c0 += cut;
        }
    }
    counts
}

/// Reusable scratch buffers for repeated statevector evaluations.
///
/// Landscape scans evaluate the same circuit family thousands of times; a
/// fresh amplitude vector per evaluation is pure allocator traffic. A
/// workspace owns the amplitudes (plus the cost layers' per-cost-value
/// phase memo and a probability buffer for distribution readouts) and
/// recycles them: after the first evaluation of a given size no further
/// allocation happens. Buffers only grow, so one workspace can serve
/// subgraphs of mixed sizes (the edge-local light-cone evaluator does
/// this).
///
/// It holds two states, each grown only when used:
///
/// * the **half state** of a QAOA evolution — the `2^(n−1)` amplitudes
///   with the top qubit clear of a bit-flip-symmetric state
///   ([`begin_half_cost_layer`](Self::begin_half_cost_layer),
///   [`apply_half_cost_layer`](Self::apply_half_cost_layer),
///   [`apply_half_rx_layer`](Self::apply_half_rx_layer), read through
///   [`half_state`](Self::half_state); see the
///   [module docs](self#the-bit-flip-symmetry-contract)). Every exact QAOA
///   energy runs on it, so a workspace that only evaluates energies holds
///   `2^(n−1)` amplitudes;
/// * a full [`StateVector`] for gate circuits
///   ([`begin_zero`](Self::begin_zero),
///   [`begin_uniform`](Self::begin_uniform),
///   [`state_mut`](Self::state_mut)), with the full-state cost layers
///   [`begin_cost_layer`](Self::begin_cost_layer) and
///   [`apply_cost_layer`](Self::apply_cost_layer) kept as the test and
///   smoke oracle of the half state.
///
/// A workspace is intentionally `!Sync`-by-use: each worker thread of a
/// parallel scan creates its own (see `mathkit::parallel`).
#[derive(Debug, Clone)]
pub struct StatevectorWorkspace {
    state: StateVector,
    /// The amplitudes `0..2^(half_qubits−1)` (top qubit clear) of the
    /// bit-flip-symmetric QAOA state over `half_qubits` qubits.
    half: Vec<Complex64>,
    half_qubits: usize,
    /// `phase_memo[k]` for `k ≤ cost.max()` is the phase of cost value `k`
    /// in the current cost layer; entries above the maximum are never read.
    phase_memo: Box<[Complex64; 256]>,
    probabilities: Vec<f64>,
}

impl StatevectorWorkspace {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self {
            state: StateVector::new(0),
            half: Vec::new(),
            half_qubits: 0,
            phase_memo: Box::new([Complex64::zero(); 256]),
            probabilities: Vec::new(),
        }
    }

    /// Creates a workspace pre-sized for QAOA evaluation on `qubit_count`
    /// qubits: room for the half state's `2^(qubit_count−1)` amplitudes.
    ///
    /// # Panics
    ///
    /// Panics if `qubit_count` exceeds [`MAX_STATEVECTOR_QUBITS`].
    pub fn with_qubits(qubit_count: usize) -> Self {
        check_qubits(qubit_count);
        let mut ws = Self::new();
        ws.half.reserve_exact((1usize << qubit_count) / 2);
        ws
    }

    /// Resets the working state to `|0…0⟩` over `qubit_count` qubits without
    /// allocating (once the buffers have grown to this size).
    pub fn begin_zero(&mut self, qubit_count: usize) -> &mut StateVector {
        self.state.reinitialize_zero(qubit_count);
        &mut self.state
    }

    /// Resets the working state to the uniform superposition over
    /// `qubit_count` qubits without allocating.
    pub fn begin_uniform(&mut self, qubit_count: usize) -> &mut StateVector {
        self.state.reinitialize_uniform(qubit_count);
        &mut self.state
    }

    /// Prepares `e^{-iγ C} |s⟩` over `qubit_count` qubits in the full
    /// working state: the uniform superposition followed by the first QAOA
    /// cost layer, in one pass. The full-state oracle of
    /// [`begin_half_cost_layer`](Self::begin_half_cost_layer).
    ///
    /// The memo `memo[k] = (2^{-n/2}, 0) · cis(-γ·k)` is built for every
    /// cost value `k ≤ cost.max()` (`|E| + 1` sin/cos pairs, not `2^n`), and
    /// the state is the gather `amp[z] = memo[cost[z]]` — no fill pass
    /// first. Each amplitude is the very product
    /// [`begin_uniform`](Self::begin_uniform) followed by
    /// [`StateVector::apply_diagonal`] with `cis(-γ·cost[z])` computes, so
    /// the bits are the same.
    ///
    /// # Panics
    ///
    /// Panics if `cost` does not have `2^qubit_count` entries or
    /// `qubit_count` exceeds [`MAX_STATEVECTOR_QUBITS`].
    pub fn begin_cost_layer(
        &mut self,
        qubit_count: usize,
        cost: &CostDiagonal,
        gamma: f64,
    ) -> &mut StateVector {
        self.fill_start_memo(qubit_count, cost, gamma);
        self.state.resize_for(qubit_count);
        self.check_dimension(cost);
        vectorized::gather_phases(&mut self.state.amplitudes, &cost.values, &self.phase_memo);
        &mut self.state
    }

    /// Applies a later QAOA cost layer `e^{-iγ C}` to the full working
    /// state in one pass: `memo[k] = cis(-γ·k)` for every cost value, then
    /// each amplitude is multiplied by `memo[cost[z]]` — the bits of
    /// [`StateVector::apply_diagonal`] with `cis(-γ·cost[z])` per entry. The
    /// full-state oracle of
    /// [`apply_half_cost_layer`](Self::apply_half_cost_layer).
    ///
    /// # Panics
    ///
    /// Panics if `cost` does not match the state dimension.
    pub fn apply_cost_layer(&mut self, cost: &CostDiagonal, gamma: f64) {
        self.fill_phase_memo(cost, gamma);
        self.check_dimension(cost);
        vectorized::apply_phases(&mut self.state.amplitudes, &cost.values, &self.phase_memo);
    }

    /// Prepares the half state of `e^{-iγ C} |s⟩` over `qubit_count`
    /// qubits: [`begin_cost_layer`](Self::begin_cost_layer)'s memo and
    /// gather over the first `2^(n−1)` table entries only. Each amplitude
    /// has the bits of the full state's.
    ///
    /// # Panics
    ///
    /// Panics if `cost` is not [bit-flip
    /// symmetric](CostDiagonal::is_bit_flip_symmetric) with `2^qubit_count`
    /// entries, or `qubit_count` is `0` or exceeds
    /// [`MAX_STATEVECTOR_QUBITS`].
    pub fn begin_half_cost_layer(&mut self, qubit_count: usize, cost: &CostDiagonal, gamma: f64) {
        self.fill_start_memo(qubit_count, cost, gamma);
        self.resize_half(qubit_count);
        let table = self.half_table(cost);
        vectorized::gather_phases(&mut self.half, table, &self.phase_memo);
    }

    /// Applies a later QAOA cost layer `e^{-iγ C}` to the half state:
    /// [`apply_cost_layer`](Self::apply_cost_layer)'s memo and multiply
    /// over the first `2^(n−1)` table entries only.
    ///
    /// # Panics
    ///
    /// Panics if `cost` is not bit-flip symmetric with `2^n` entries for
    /// the half state's `n` qubits.
    pub fn apply_half_cost_layer(&mut self, cost: &CostDiagonal, gamma: f64) {
        self.fill_phase_memo(cost, gamma);
        let table = self.half_table(cost);
        vectorized::apply_phases(&mut self.half, table, &self.phase_memo);
    }

    /// Applies `Rx(θ)` to every qubit of the half state — the QAOA mixer
    /// layer with `θ = 2β`: [`vectorized::apply_rx_layer`] on the qubits
    /// below the top one, whose pairs never leave the half, then the top
    /// qubit's butterflies as one [`vectorized::apply_rx_mirror`] pass. The
    /// top qubit still goes last for every amplitude, so each amplitude has
    /// the bits [`StateVector::apply_rx_layer`] leaves in the full state.
    pub fn apply_half_rx_layer(&mut self, theta: f64) {
        let u = rx_matrix(theta);
        let (c, sn) = (u[0][0].re, u[0][1].im);
        vectorized::apply_rx_layer(&mut self.half, self.half_qubits - 1, c, sn);
        vectorized::apply_rx_mirror(&mut self.half, c, sn);
    }

    /// Resets the half state to the uniform superposition over
    /// `qubit_count` qubits (a QAOA evolution with no layers).
    ///
    /// # Panics
    ///
    /// Panics if `qubit_count` is `0` or exceeds [`MAX_STATEVECTOR_QUBITS`].
    pub fn begin_half_uniform(&mut self, qubit_count: usize) {
        self.resize_half(qubit_count);
        self.half.fill(uniform_amplitude(qubit_count));
    }

    /// The half state, for the readers that unfold it.
    pub fn half_state(&self) -> HalfState<'_> {
        HalfState {
            qubit_count: self.half_qubits,
            half: &self.half,
        }
    }

    /// `memo[k] = (2^{-n/2}, 0) · cis(-γ·k)` for every cost value.
    fn fill_start_memo(&mut self, qubit_count: usize, cost: &CostDiagonal, gamma: f64) {
        let start = uniform_amplitude(qubit_count);
        for (k, slot) in self.memo_slots(cost).iter_mut().enumerate() {
            *slot = start * Complex64::cis(-gamma * k as f64);
        }
    }

    /// `memo[k] = cis(-γ·k)` for every cost value.
    fn fill_phase_memo(&mut self, cost: &CostDiagonal, gamma: f64) {
        for (k, slot) in self.memo_slots(cost).iter_mut().enumerate() {
            *slot = Complex64::cis(-gamma * k as f64);
        }
    }

    /// The memo slots of the cost values `0..=cost.max()`.
    fn memo_slots(&mut self, cost: &CostDiagonal) -> &mut [Complex64] {
        &mut self.phase_memo[..=usize::from(cost.max)]
    }

    fn check_dimension(&self, cost: &CostDiagonal) {
        assert_eq!(
            cost.values.len(),
            self.state.amplitudes.len(),
            "cost table length must equal the state dimension"
        );
    }

    /// Sets the half state's qubit count and resizes it to `2^(n−1)`
    /// amplitudes, reallocating only when it must grow.
    fn resize_half(&mut self, qubit_count: usize) {
        check_qubits(qubit_count);
        assert!(qubit_count >= 1, "a half state needs at least one qubit");
        self.half_qubits = qubit_count;
        self.half
            .resize(1usize << (qubit_count - 1), Complex64::zero());
    }

    /// The entries of `cost` for the half state's indices, after checking
    /// that `cost` may drive it.
    fn half_table<'c>(&self, cost: &'c CostDiagonal) -> &'c [u8] {
        assert!(
            cost.bit_flip_symmetric,
            "the half-state evolution needs a bit-flip-symmetric cost table"
        );
        assert_eq!(
            cost.values.len(),
            2 * self.half.len(),
            "cost table length must equal the state dimension"
        );
        &cost.values[..self.half.len()]
    }

    /// Computes the full working state's measurement distribution into the
    /// workspace's reused probability buffer and returns it (no allocation
    /// after the first call of a given size).
    pub fn state_probabilities(&mut self) -> &[f64] {
        self.state.probabilities_into(&mut self.probabilities);
        &self.probabilities
    }

    /// Borrow of the full working state.
    pub fn state(&self) -> &StateVector {
        &self.state
    }

    /// Mutable borrow of the full working state (for applying gates).
    pub fn state_mut(&mut self) -> &mut StateVector {
        &mut self.state
    }
}

/// A bit-flip-symmetric `n`-qubit state (`amp[z] == amp[z̄]` bit for bit,
/// `z̄ = 2^n − 1 − z`) held as its lower half `half[x] = amp[x]`,
/// `x < 2^(n−1)`: the view [`StatevectorWorkspace::half_state`] gives of a
/// QAOA evolution.
///
/// Its readers walk the full `2^n` index space in the fixed lane order of
/// the [`StateVector`] readers, reading `amp[z]` as `half[2^n − 1 − z]`
/// for `z ≥ 2^(n−1)`: the same terms in the same order, so the same bits
/// as the full state's readers.
#[derive(Debug, Clone, Copy)]
pub struct HalfState<'a> {
    qubit_count: usize,
    half: &'a [Complex64],
}

impl HalfState<'_> {
    /// The full state, unfolded into a fresh [`StateVector`] (allocates;
    /// for tests and diagnostics).
    pub fn to_state_vector(&self) -> StateVector {
        let amplitudes = self
            .half
            .iter()
            .chain(self.half.iter().rev())
            .copied()
            .collect();
        StateVector {
            qubit_count: self.qubit_count,
            amplitudes,
        }
    }

    /// [`StateVector::expectation_diagonal`] of the full state, with its
    /// bits.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` does not equal `2^n`.
    pub fn expectation_diagonal<V: Copy + Into<f64>>(&self, values: &[V]) -> f64 {
        assert_eq!(values.len(), 2 * self.half.len());
        vectorized::expectation_diagonal_mirror(self.half, values)
    }

    /// [`StateVector::expectation_zz`] of the full state, with its bits.
    ///
    /// # Panics
    ///
    /// Panics if either qubit is out of range.
    pub fn expectation_zz(&self, a: usize, b: usize) -> f64 {
        assert!(a < self.qubit_count && b < self.qubit_count);
        vectorized::expectation_zz_mirror(self.half, a, b)
    }

    /// [`StateVector::probabilities_into`] of the full state, with its
    /// bits: the lower half forward, then the half backward.
    pub fn probabilities_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.half.iter().map(|a| a.norm_sqr()));
        out.extend(self.half.iter().rev().map(|a| a.norm_sqr()));
    }
}

impl Default for StatevectorWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathkit::rng::seeded;

    const EPS: f64 = 1e-10;

    #[test]
    fn initial_state_is_zero_ket() {
        let sv = StateVector::new(3);
        let probs = sv.probabilities();
        assert!((probs[0] - 1.0).abs() < EPS);
        assert!(probs[1..].iter().all(|&p| p < EPS));
        assert!((sv.norm_sqr() - 1.0).abs() < EPS);
    }

    #[test]
    fn hadamard_creates_uniform_superposition() {
        let mut c = Circuit::new(3);
        for q in 0..3 {
            c.push(Gate::H(q)).unwrap();
        }
        let sv = StateVector::from_circuit(&c);
        for p in sv.probabilities() {
            assert!((p - 0.125).abs() < EPS);
        }
        let direct = StateVector::uniform_superposition(3);
        for (a, b) in sv.amplitudes().iter().zip(direct.amplitudes()) {
            assert!((*a - *b).norm() < EPS);
        }
    }

    #[test]
    fn bell_state_probabilities() {
        let mut c = Circuit::new(2);
        c.extend([Gate::H(0), Gate::Cnot(0, 1)]).unwrap();
        let sv = StateVector::from_circuit(&c);
        let probs = sv.probabilities();
        assert!((probs[0] - 0.5).abs() < EPS);
        assert!((probs[3] - 0.5).abs() < EPS);
        assert!(probs[1].abs() < EPS && probs[2].abs() < EPS);
        // Z0 Z1 expectation on a Bell state is +1.
        assert!((sv.expectation_zz(0, 1) - 1.0).abs() < EPS);
        assert!(sv.expectation_z(0).abs() < EPS);
    }

    #[test]
    fn x_gate_flips_qubit() {
        let mut c = Circuit::new(2);
        c.push(Gate::X(1)).unwrap();
        let sv = StateVector::from_circuit(&c);
        assert!((sv.probabilities()[2] - 1.0).abs() < EPS);
        assert!((sv.expectation_z(1) + 1.0).abs() < EPS);
        assert!((sv.expectation_z(0) - 1.0).abs() < EPS);
    }

    #[test]
    fn rotations_preserve_norm() {
        let mut sv = StateVector::uniform_superposition(4);
        for (i, gate) in [
            Gate::Rx(0, 0.7),
            Gate::Ry(1, -1.3),
            Gate::Rz(2, 2.1),
            Gate::Rzz(0, 3, 0.9),
            Gate::T(1),
            Gate::S(2),
            Gate::Sdg(3),
            Gate::Y(0),
        ]
        .into_iter()
        .enumerate()
        {
            sv.apply_gate(gate);
            assert!(
                (sv.norm_sqr() - 1.0).abs() < EPS,
                "norm broken after gate {i}"
            );
        }
    }

    #[test]
    fn rx_pi_equals_x_up_to_phase() {
        let mut a = StateVector::new(1);
        a.apply_gate(Gate::Rx(0, std::f64::consts::PI));
        let mut b = StateVector::new(1);
        b.apply_gate(Gate::X(0));
        // Probabilities (phase-insensitive) must match.
        for (pa, pb) in a.probabilities().iter().zip(b.probabilities()) {
            assert!((pa - pb).abs() < EPS);
        }
    }

    #[test]
    fn cz_and_rzz_are_diagonal() {
        let mut sv = StateVector::uniform_superposition(2);
        let before = sv.probabilities();
        sv.apply_gate(Gate::Cz(0, 1));
        sv.apply_gate(Gate::Rzz(0, 1, 0.37));
        assert_eq!(sv.probabilities().len(), before.len());
        for (p, q) in sv.probabilities().iter().zip(before) {
            assert!((p - q).abs() < EPS);
        }
    }

    #[test]
    fn swap_exchanges_qubits() {
        let mut c = Circuit::new(2);
        c.extend([Gate::X(0), Gate::Swap(0, 1)]).unwrap();
        let sv = StateVector::from_circuit(&c);
        assert!((sv.probabilities()[2] - 1.0).abs() < EPS);
    }

    #[test]
    fn rzz_phase_convention() {
        // On |00>, RZZ applies e^{-i theta/2}; probabilities unchanged, and
        // expectation_zz stays +1.
        let mut sv = StateVector::new(2);
        sv.apply_gate(Gate::Rzz(0, 1, 1.234));
        assert!((sv.expectation_zz(0, 1) - 1.0).abs() < EPS);
        let amp = sv.amplitudes()[0];
        assert!((amp.arg() + 1.234 / 2.0).abs() < EPS);
    }

    #[test]
    fn diagonal_application_matches_expectation() {
        let mut sv = StateVector::uniform_superposition(2);
        let values = [0.0, 1.0, 1.0, 2.0];
        assert!((sv.expectation_diagonal(&values) - 1.0).abs() < EPS);
        let phases: Vec<Complex64> = values.iter().map(|&v| Complex64::cis(-0.3 * v)).collect();
        sv.apply_diagonal(&phases);
        assert!((sv.norm_sqr() - 1.0).abs() < EPS);
    }

    #[test]
    fn sampling_matches_distribution() {
        let mut c = Circuit::new(1);
        c.push(Gate::H(0)).unwrap();
        let sv = StateVector::from_circuit(&c);
        let mut rng = seeded(17);
        let counts = sv.sample_counts(20_000, &mut rng);
        let frac = counts[0] as f64 / 20_000.0;
        assert!((frac - 0.5).abs() < 0.02, "fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "statevector limited")]
    fn too_many_qubits_panics() {
        let _ = StateVector::new(MAX_STATEVECTOR_QUBITS + 1);
    }

    #[test]
    fn prob_one_matches_expectation_z() {
        let mut sv = StateVector::uniform_superposition(3);
        sv.apply_gate(Gate::Rx(1, 0.9));
        for q in 0..3 {
            let p1 = sv.prob_one(q);
            let z = sv.expectation_z(q);
            assert!((p1 - (1.0 - z) / 2.0).abs() < EPS);
        }
    }

    #[test]
    fn binary_search_sampling_matches_linear_scan_reference() {
        // Regression guard for the CDF binary search: for identical RNG
        // draws it must pick exactly the same outcome as the straightforward
        // linear scan it replaced.
        let mut c = Circuit::new(3);
        c.extend([Gate::H(0), Gate::Ry(1, 0.8), Gate::Cnot(0, 2)])
            .unwrap();
        let sv = StateVector::from_circuit(&c);
        let probs = sv.probabilities();
        let mut cdf = Vec::with_capacity(probs.len());
        let mut acc = 0.0;
        for p in &probs {
            acc += p;
            cdf.push(acc);
        }
        let total = acc.max(f64::MIN_POSITIVE);
        let mut linear_counts = vec![0usize; probs.len()];
        let mut rng = seeded(99);
        for _ in 0..4096 {
            let r: f64 = rng.gen::<f64>() * total;
            let idx = cdf
                .iter()
                .position(|&x| x >= r)
                .unwrap_or(probs.len() - 1)
                .min(probs.len() - 1);
            linear_counts[idx] += 1;
        }
        let fast_counts = sv.sample_counts(4096, &mut seeded(99));
        assert_eq!(fast_counts, linear_counts);
    }

    #[test]
    fn fixed_seed_shot_histogram_is_stable() {
        // Snapshot regression: refactors of the sampler must not change the
        // histogram produced by a fixed seed.
        let mut c = Circuit::new(2);
        c.extend([Gate::H(0), Gate::Ry(1, 1.1)]).unwrap();
        let sv = StateVector::from_circuit(&c);
        let counts = sv.sample_counts(1000, &mut seeded(2024));
        assert_eq!(counts.iter().sum::<usize>(), 1000);
        assert_eq!(counts, SNAPSHOT_COUNTS);
    }

    /// Fixed-seed histogram for `fixed_seed_shot_histogram_is_stable`.
    const SNAPSHOT_COUNTS: [usize; 4] = [364, 352, 127, 157];

    #[test]
    fn scratch_sampling_matches_allocating_sampling() {
        let mut c = Circuit::new(3);
        c.extend([Gate::H(0), Gate::Ry(1, 0.8), Gate::Cnot(0, 2)])
            .unwrap();
        let sv = StateVector::from_circuit(&c);
        let fresh = sv.sample_counts(2048, &mut seeded(7));
        let mut scratch = SampleScratch::default();
        // Two rounds through the same scratch: identical draws, identical
        // counts, no residue from the first round.
        for _ in 0..2 {
            let counts = sv.sample_counts_with(2048, &mut seeded(7), &mut scratch);
            assert_eq!(counts, &fresh[..]);
        }
        // probabilities_into reuses `out` and matches probabilities().
        let mut out = Vec::new();
        sv.probabilities_into(&mut out);
        assert_eq!(out, sv.probabilities());
        sv.probabilities_into(&mut out);
        assert_eq!(out, sv.probabilities());
    }

    #[test]
    fn workspace_reuse_matches_fresh_statevectors() {
        let mut ws = StatevectorWorkspace::new();
        for &n in &[3usize, 2, 4, 3] {
            ws.begin_uniform(n);
            let fresh = StateVector::uniform_superposition(n);
            assert_eq!(ws.state().qubit_count(), n);
            for (a, b) in ws.state().amplitudes().iter().zip(fresh.amplitudes()) {
                assert!((*a - *b).norm() < EPS);
            }
            ws.state_mut().apply_gate(Gate::Rx(0, 0.4));
            let mut fresh = fresh;
            fresh.apply_gate(Gate::Rx(0, 0.4));
            assert_eq!(ws.state().amplitudes(), fresh.amplitudes());
            // The reused probability buffer matches a fresh readout.
            assert_eq!(ws.state_probabilities(), &fresh.probabilities()[..]);
        }
        // begin_zero resets any residue from the previous evaluation.
        ws.begin_zero(2);
        assert!((ws.state().probabilities()[0] - 1.0).abs() < EPS);
    }

    #[test]
    fn workspace_phase_diagonal_matches_explicit_table() {
        let cost = CostDiagonal::new(vec![0, 1, 2, 1]);
        let mut reference = StateVector::uniform_superposition(2);
        let mut ws = StatevectorWorkspace::with_qubits(2);
        for gamma in [0.7, -1.3] {
            let phases: Vec<Complex64> = cost
                .values()
                .iter()
                .map(|&k| Complex64::cis(-gamma * f64::from(k)))
                .collect();
            reference.apply_diagonal(&phases);
            if gamma == 0.7 {
                ws.begin_cost_layer(2, &cost, gamma);
            } else {
                ws.apply_cost_layer(&cost, gamma);
            }
            assert_eq!(ws.state().amplitudes(), reference.amplitudes());
        }
        // A second preparation overwrites the previous state entirely.
        ws.begin_cost_layer(2, &cost, 0.7);
        ws.apply_cost_layer(&cost, -1.3);
        assert_eq!(ws.state().amplitudes(), reference.amplitudes());
    }

    #[test]
    fn reinitialize_reuses_capacity_and_resets_contents() {
        let mut sv = StateVector::uniform_superposition(4);
        sv.apply_gate(Gate::Rx(2, 1.0));
        let capacity_before = sv.amplitudes.capacity();
        sv.reinitialize_zero(4);
        assert_eq!(sv.amplitudes.capacity(), capacity_before);
        assert!((sv.probabilities()[0] - 1.0).abs() < EPS);
        sv.reinitialize_uniform(3);
        assert_eq!(sv.qubit_count(), 3);
        assert_eq!(sv.amplitudes.capacity(), capacity_before);
        assert!((sv.norm_sqr() - 1.0).abs() < EPS);
    }

    #[test]
    fn renormalize_restores_unit_norm() {
        let mut sv = StateVector::uniform_superposition(2);
        // Apply a non-unitary damping operator K0 = diag(1, sqrt(1-γ)).
        let k0 = [
            [Complex64::one(), Complex64::zero()],
            [Complex64::zero(), Complex64::new(0.6_f64.sqrt(), 0.0)],
        ];
        sv.apply_single(0, k0);
        assert!(sv.norm_sqr() < 1.0);
        sv.renormalize();
        assert!((sv.norm_sqr() - 1.0).abs() < EPS);
        // Degenerate zero state resets to |0...0>.
        let mut zero = StateVector::new(2);
        zero.apply_single(
            0,
            [
                [Complex64::zero(), Complex64::zero()],
                [Complex64::zero(), Complex64::zero()],
            ],
        );
        zero.renormalize();
        assert!((zero.probabilities()[0] - 1.0).abs() < EPS);
    }
}
