//! Monte-Carlo (quantum-trajectory) noisy simulation.
//!
//! Exact density-matrix simulation is limited to small circuits. The paper's
//! noisy landscape studies go up to 14 qubits, which is comfortably handled
//! by sampling *noise trajectories*: each trajectory runs the ideal
//! statevector simulation but stochastically injects a Pauli error after each
//! gate with the noise model's effective error probability. Averaging the
//! resulting probability distributions converges to the Pauli-twirled channel
//! of the device — the same approximation underlying standard error-mitigation
//! analyses. Readout error is applied as a per-qubit confusion on the final
//! distribution.
//!
//! # The trajectory contract
//!
//! - **The norm is carried.** A trajectory carries its state
//!   **unnormalized**. Amplitude damping is the only non-unitary step. Its
//!   random draw comes first: `P(1) ≤ 1`, so a draw at or above `γ` is a
//!   no-jump whatever `P(1)` is, and the step scales the bit-set half by
//!   `√(1−γ)`. Only a draw below `γ` needs `P(1)`: one read pass returns
//!   `(Σ_{bit set}|a|², Σ|a|²)` in the fixed lane order, `P(1)` is their
//!   quotient, and then either the no-jump half-pass or a pass that moves
//!   the bit-set half onto the bit-clear half (jump) follows. Nothing
//!   renormalizes: each trajectory divides its `|a|²` by its norm once,
//!   when they join the average. If the carried norm falls below the
//!   constant floor `2^-512`, the state is scaled up by `2^256`, which is
//!   exact, so the quotients keep their bits.
//! - **Diagonal work is deferred.** Consecutive `Rzz` gates with bitwise
//!   equal angles form a run, held pending and applied as one
//!   [`vectorized::apply_phases`] gather from a `u8` table of how many of
//!   the run's pairs each basis state cuts (built once per call by
//!   [`cut_counts`]); a lone gate runs as [`vectorized::apply_rzz`], whose
//!   two phases are the bits of a one-gate gather. A no-jump damping step
//!   multiplies a per-qubit pending factor instead of running a half-pass.
//!   Pending work is flushed — the run first, then the factors — before
//!   any other gate (the run and its operands' factors; an `Rx` takes its
//!   qubit's factor inside its own pass, [`vectorized::apply_rx_after_keep`]),
//!   before an `X` or `Y` Pauli error (the run and that qubit's factor),
//!   before a damping draw below `γ` (everything: it reads `P(1)` of the
//!   true state) and at the end of the circuit. A run interrupted mid-way
//!   gathers a flushed part from counts built in the trajectory's scratch
//!   (one `u8` pass per gate), which also extend a prefix table, and its
//!   rest from the run's table less that prefix. `Z` errors apply at once:
//!   a negation commutes with the pending products. Every random draw
//!   except the one below `γ` is independent of the state, so the random
//!   stream is the undeferred one.
//! - **Untouched qubits are not stored.** While no gate has touched qubit
//!   `k` or any above it, every amplitude with a bit at or above `k` set is
//!   zero, so the kernels walk only the `2^k` amplitudes below (the Hadamard layer of a QAOA
//!   circuit costs about two passes, not `n`); reads and gathers see the
//!   whole state. Zeros aside, the kernels compute what they would on the
//!   whole state, so no probability changes.
//! - **Gates use their structure.** The gates run on the structured
//!   `H`/`X`/`Y`/`Z`/`Rx` kernels of [`vectorized`] (the generic butterfly
//!   for the rest), each equal to the generic butterfly under `==` per
//!   component.
//! - **The oracle is the process.** The stochastic process is the one
//!   [`mod@reference`] implements — the renormalize-every-step simulator,
//!   kept as the test oracle — and both draw the same random numbers in the
//!   same order, so only rounding differs (the renormalization, the order
//!   of the deferred products): probabilities agree with the oracle within
//!   `1e-12`. Models without T1 (and the ideal model) never damp and keep
//!   unit norm; on circuits with no run of two or more equal-angle `Rzz`
//!   gates they give the oracle's bits.
//! - **Nothing allocates per trajectory.** The run tables live in the
//!   per-call `NoisePlan`, the amplitudes, pending factors and prefix
//!   tables in one per-worker buffer set. Run-to-run and thread-count
//!   invariance are unchanged; see `docs/determinism.md`.

pub mod reference;

use crate::circuit::{rx_matrix, Circuit, Gate};
use crate::density::apply_readout_confusion_in_place;
use crate::noise::NoiseModel;
use crate::statevector::{cut_counts, vectorized};
use mathkit::parallel::parallel_map_indexed;
use mathkit::rng::{derive_seed, seeded};
use mathkit::Complex64;
use rand::Rng;

/// Configuration of the trajectory simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryOptions {
    /// Number of stochastic trajectories to average.
    pub trajectories: usize,
}

impl Default for TrajectoryOptions {
    fn default() -> Self {
        Self { trajectories: 48 }
    }
}

/// Number of trajectories summed per reduction chunk of the seeded average.
///
/// The chunk size is a fixed constant — *not* derived from the thread count —
/// so the floating-point summation tree of [`noisy_probabilities_seeded`] is
/// identical no matter how many workers process the chunks.
const SEEDED_TRAJECTORY_CHUNK: usize = 8;

/// A carried norm below this floor (`2^-512`) is scaled up by
/// [`NORM_RESCALE`]`² = 2^512` before it can underflow.
const NORM_FLOOR: f64 = 1.0 / (NORM_RESCALE * NORM_RESCALE);

/// The amplitude factor of the floor rescale, `2^256`: a power of two, so
/// the rescale is exact.
const NORM_RESCALE: f64 = TWO_TO_64 * TWO_TO_64 * TWO_TO_64 * TWO_TO_64;

/// `2^64`.
const TWO_TO_64: f64 = 18_446_744_073_709_551_616.0;

/// Trajectories to run: one for a noiseless model (every trajectory would
/// be the same), else the requested count (at least one).
fn effective_runs(noise: &NoiseModel, options: TrajectoryOptions) -> usize {
    let ideal_noise = noise.effective_error_1q() <= 0.0 && noise.effective_error_2q() <= 0.0;
    if ideal_noise {
        1
    } else {
        options.trajectories.max(1)
    }
}

fn random_pauli<R: Rng>(qubit: usize, rng: &mut R) -> Gate {
    match rng.gen_range(0..3) {
        0 => Gate::X(qubit),
        1 => Gate::Y(qubit),
        _ => Gate::Z(qubit),
    }
}

/// The error processes one qubit goes through at one point of the circuit.
#[derive(Debug, Clone, Copy, Default)]
struct Decoherence {
    /// Depolarizing Pauli-error probability (gates only).
    depol: f64,
    /// Dephasing `Z`-error probability.
    dephase: f64,
    /// Amplitude-damping strength `γ`.
    gamma: f64,
    /// The no-jump factor `√(1−γ)`.
    keep: f64,
}

impl Decoherence {
    /// T1 and T2 decay over `ns` nanoseconds, plus a depolarizing
    /// probability.
    fn over(noise: &NoiseModel, depol: f64, ns: f64) -> Self {
        let gamma = noise.relaxation_probability(ns);
        Self {
            depol,
            dephase: 0.5 * noise.dephasing_probability(ns),
            gamma,
            keep: (1.0 - gamma).sqrt(),
        }
    }
}

/// The most gates one run holds: its cut counts must fit a `u8`, and its
/// phases the 256 memo slots [`vectorized::apply_phases`] reads.
const MAX_RUN: usize = 255;

/// Consecutive `Rzz` gates of a circuit with bitwise-equal angles and
/// distinct pairs (at most [`MAX_RUN`]): together one diagonal.
struct RzzRun {
    /// The pairs, in gate order.
    pairs: Vec<(usize, usize)>,
    /// The shared angle.
    theta: f64,
    /// `counts[z]`: how many of the pairs basis state `z` cuts.
    counts: Vec<u8>,
    /// The phases of the whole run, by cut count ([`fill_run_memo`]).
    memo: Box<[Complex64; 256]>,
}

/// `memo[d] = cis(θ/2 · (2d − len))` for `d ≤ len`: the phase `len`
/// `Rzz(θ)` gates give a basis state that cuts `d` of their pairs
/// (`e^{+iθ/2}` per cut pair, `e^{−iθ/2}` per uncut one). For `len = 1`
/// the arguments are exactly `−θ/2` and `θ/2`, so the phases are the two
/// [`vectorized::apply_rzz`] multiplies by.
fn fill_run_memo(memo: &mut [Complex64; 256], theta: f64, len: usize) {
    let half_angle = theta / 2.0;
    for (d, slot) in memo[..=len].iter_mut().enumerate() {
        *slot = Complex64::cis(half_angle * (2.0 * d as f64 - len as f64));
    }
}

/// Everything a trajectory needs that depends only on the circuit and the
/// noise model, computed once per call instead of once per trajectory.
struct NoisePlan {
    /// Per-gate noise of one- (`[0]`) and two-qubit (`[1]`) gates.
    gate: [Decoherence; 2],
    /// Per-qubit idle (spectator) decoherence: T1 and T2 decay for the part
    /// of the circuit's duration the qubit spends waiting.
    idle: Vec<Decoherence>,
    /// Whether any amplitude damping can happen (else the norm stays 1).
    damps: bool,
    /// The circuit's `Rzz` runs, in circuit order.
    runs: Vec<RzzRun>,
    /// Per gate, the index of the run it belongs to (`None`: not an `Rzz`).
    run_of: Vec<Option<usize>>,
}

impl NoisePlan {
    fn new(circuit: &Circuit, noise: &NoiseModel) -> Self {
        let gate_time = [noise.gate_time_1q_ns, noise.gate_time_2q_ns];
        let gate = [
            Decoherence::over(noise, noise.error_1q, gate_time[0]),
            Decoherence::over(noise, noise.error_2q, gate_time[1]),
        ];
        let mut busy_ns = vec![0.0f64; circuit.qubit_count()];
        for g in circuit.gates() {
            let (qubits, arity) = g.operands();
            for &q in &qubits[..arity] {
                busy_ns[q] += gate_time[arity - 1];
            }
        }
        let duration_ns = noise.circuit_duration_ns(circuit);
        let idle: Vec<Decoherence> = busy_ns
            .iter()
            .map(|&busy| {
                let idle_ns = duration_ns - busy;
                if idle_ns > 0.0 {
                    Decoherence::over(noise, 0.0, idle_ns)
                } else {
                    Decoherence::default()
                }
            })
            .collect();
        let damps = gate.iter().chain(&idle).any(|d| d.gamma > 0.0);
        let (runs, run_of) = rzz_runs(circuit);
        Self {
            gate,
            idle,
            damps,
            runs,
            run_of,
        }
    }
}

/// Splits the circuit's `Rzz` gates into runs: a gate joins the run of the
/// gate just before it if that is an `Rzz` with the same angle bits, the
/// run is not full and does not hold the pair yet.
fn rzz_runs(circuit: &Circuit) -> (Vec<RzzRun>, Vec<Option<usize>>) {
    let mut grouped: Vec<(f64, Vec<(usize, usize)>)> = Vec::new();
    let mut run_of = Vec::with_capacity(circuit.gate_count());
    for gate in circuit.gates() {
        let Gate::Rzz(a, b, theta) = *gate else {
            run_of.push(None);
            continue;
        };
        let joins = matches!(run_of.last(), Some(Some(_)))
            && grouped.last().is_some_and(|(angle, pairs)| {
                angle.to_bits() == theta.to_bits()
                    && pairs.len() < MAX_RUN
                    && !pairs.iter().any(|&p| p == (a, b) || p == (b, a))
            });
        if !joins {
            grouped.push((theta, Vec::new()));
        }
        grouped.last_mut().expect("a run is open").1.push((a, b));
        run_of.push(Some(grouped.len() - 1));
    }
    let runs = grouped
        .into_iter()
        .map(|(theta, pairs)| {
            let mut memo = Box::new([Complex64::zero(); 256]);
            fill_run_memo(&mut memo, theta, pairs.len());
            RzzRun {
                counts: cut_counts(circuit.qubit_count(), &pairs),
                pairs,
                theta,
                memo,
            }
        })
        .collect();
    (runs, run_of)
}

/// Applies one gate with the structured kernels where a gate has one
/// (`Rx` gates take [`vectorized::apply_rx_after_keep`] in
/// [`Trajectory::run`]).
fn apply_gate(amplitudes: &mut [Complex64], gate: Gate) {
    match gate {
        Gate::H(q) => vectorized::apply_h(amplitudes, q),
        Gate::X(q) => vectorized::apply_x(amplitudes, q),
        Gate::Y(q) => vectorized::apply_y(amplitudes, q),
        Gate::Z(q) => vectorized::apply_z(amplitudes, q),
        Gate::Cnot(control, target) => vectorized::apply_cnot(amplitudes, control, target),
        Gate::Cz(a, b) => vectorized::apply_cz(amplitudes, a, b),
        Gate::Swap(a, b) => vectorized::apply_swap(amplitudes, a, b),
        Gate::Rzz(a, b, theta) => vectorized::apply_rzz(amplitudes, a, b, theta),
        single => {
            let (q, u) = single
                .single_qubit_unitary()
                .expect("two-qubit gates are matched above");
            vectorized::apply_single(amplitudes, q, u);
        }
    }
}

/// Adds one to `counts[z]` for every basis state `z` that cuts the pair
/// `(a, b)`, walking the two quadrants whose bits differ as contiguous runs
/// (the layout of [`vectorized::apply_rzz`]).
fn add_cut(counts: &mut [u8], a: usize, b: usize) {
    let big = 1usize << a.max(b);
    let small = 1usize << a.min(b);
    for block in counts.chunks_exact_mut(2 * big) {
        let (lo, hi) = block.split_at_mut(big);
        for (l, h) in lo
            .chunks_exact_mut(2 * small)
            .zip(hi.chunks_exact_mut(2 * small))
        {
            for c in &mut l[small..] {
                *c += 1;
            }
            for c in &mut h[..small] {
                *c += 1;
            }
        }
    }
}

/// How far the current trajectory has got through one run.
#[derive(Debug, Clone, Copy, Default)]
struct PendingRun {
    /// Index of the run in the plan.
    run: usize,
    /// Gates of the run already applied to the amplitudes.
    flushed: usize,
    /// Gates of the run the trajectory has reached.
    reached: usize,
}

/// One worker's buffers for the trajectories of a call — sized once, so no
/// trajectory allocates — and the current trajectory's pending diagonal
/// work.
struct Trajectory {
    /// The state: amplitudes `0..2^populated` (the rest are zero, and
    /// stale until [`Trajectory::populate`] zeroes them).
    amplitudes: Vec<Complex64>,
    /// Qubits from here on are still in `|0⟩`.
    populated: usize,
    /// The no-jump damping factor pending on each qubit (`1.0`: none).
    pending: Vec<f64>,
    /// The run whose gates may be pending.
    run: PendingRun,
    /// The cut counts of the pending run's flushed prefix, valid while
    /// `0 < run.flushed < its length`.
    prefix: Vec<u8>,
    /// Where the counts of a flushed part of a run are built.
    spare: Vec<u8>,
    /// The phases of a part of a run.
    memo: Box<[Complex64; 256]>,
    /// A lower bound on the carried norm (see [`Trajectory::damp`]).
    norm_bound: f64,
}

impl Trajectory {
    fn new(qubit_count: usize) -> Self {
        let dim = 1usize << qubit_count;
        Self {
            amplitudes: Vec::with_capacity(dim),
            populated: 0,
            pending: vec![1.0; qubit_count],
            run: PendingRun::default(),
            prefix: vec![0; dim],
            spare: vec![0; dim],
            memo: Box::new([Complex64::zero(); 256]),
            norm_bound: 1.0,
        }
    }

    /// Runs one noisy trajectory into the amplitudes (reset to `|0…0⟩`
    /// first) and returns the state's norm `Σ|a|²`.
    ///
    /// Per gate and per participating qubit three error processes are
    /// applied: a depolarizing Pauli error with the calibrated gate-error
    /// probability, a dephasing `Z` error derived from T2, and an
    /// amplitude-damping jump derived from T1 (the biased process
    /// responsible for landscape distortion).
    ///
    /// On top of the per-gate errors, every qubit decoheres (T1 relaxation
    /// and T2 dephasing) for the wall-clock time it sits *idle* while the
    /// rest of the circuit executes. This spectator decoherence grows with
    /// circuit depth and is the dominant size-dependent error source on
    /// hardware: a circuit twice as deep exposes every qubit to roughly
    /// twice the idle decay, which is precisely the penalty Red-QAOA's
    /// smaller circuits avoid.
    ///
    /// `Rzz` runs and no-jump damping factors are held pending and flushed
    /// as the [module docs](self#the-trajectory-contract) describe.
    fn run<R: Rng>(&mut self, circuit: &Circuit, plan: &NoisePlan, rng: &mut R) -> f64 {
        let n = circuit.qubit_count();
        self.amplitudes.resize(1usize << n, Complex64::zero());
        self.amplitudes[0] = Complex64::one();
        self.populated = 0;
        self.pending.fill(1.0);
        self.run = PendingRun::default();
        self.norm_bound = 1.0;
        for (gate, &run) in circuit.gates().iter().zip(&plan.run_of) {
            let (qubits, arity) = gate.operands();
            let qubits = &qubits[..arity];
            if let Some(run) = run {
                self.reach(plan, run);
            } else {
                self.flush_run(plan);
                self.populate(qubits.iter().max().map_or(0, |&q| q + 1));
                if let Gate::Rx(q, theta) = *gate {
                    let keep = std::mem::replace(&mut self.pending[q], 1.0);
                    let u = rx_matrix(theta);
                    vectorized::apply_rx_after_keep(self.live(), q, keep, u[0][0].re, u[0][1].im);
                } else {
                    for &q in qubits {
                        self.flush_factor(q);
                    }
                    apply_gate(self.live(), *gate);
                }
            }
            let d = plan.gate[arity - 1];
            for &q in qubits {
                if d.depol > 0.0 && rng.gen::<f64>() < d.depol {
                    let pauli = random_pauli(q, rng);
                    if !matches!(pauli, Gate::Z(_)) {
                        self.flush_run(plan);
                        self.flush_factor(q);
                        self.populate(q + 1);
                    }
                    apply_gate(self.live(), pauli);
                }
                if d.dephase > 0.0 && rng.gen::<f64>() < d.dephase {
                    vectorized::apply_z(self.live(), q);
                }
                if d.gamma > 0.0 {
                    self.damp(plan, q, d, rng);
                }
            }
        }
        for (q, &d) in plan.idle.iter().enumerate() {
            if d.gamma > 0.0 {
                self.damp(plan, q, d, rng);
            }
            if d.dephase > 0.0 && rng.gen::<f64>() < d.dephase {
                vectorized::apply_z(self.live(), q);
            }
        }
        self.flush_all(plan);
        self.populate(n);
        if plan.damps {
            vectorized::norm_sqr(&self.amplitudes)
        } else {
            1.0
        }
    }

    /// Makes the qubits below `qubits` live, zeroing the amplitudes that
    /// join [`Trajectory::live`].
    fn populate(&mut self, qubits: usize) {
        if qubits > self.populated {
            self.amplitudes[1 << self.populated..1 << qubits].fill(Complex64::zero());
            self.populated = qubits;
        }
    }

    /// The amplitudes whose qubits from `populated` on are all `0`: every
    /// other amplitude is zero and is not stored.
    fn live(&mut self) -> &mut [Complex64] {
        &mut self.amplitudes[..1 << self.populated]
    }

    /// Reaches the next gate of `run`, flushing the pending run first if
    /// `run` is another one.
    fn reach(&mut self, plan: &NoisePlan, run: usize) {
        if self.run.run != run {
            self.flush_run(plan);
            self.run = PendingRun {
                run,
                ..PendingRun::default()
            };
        }
        self.run.reached += 1;
    }

    /// Applies the pending gates of the run, `flushed..reached`, in one
    /// pass: a lone gate as [`vectorized::apply_rzz`] (the bits a gather
    /// of its two phases gives); else a gather — from the run's table and
    /// phases when the gates are all of it, from the run's table less the
    /// flushed prefix's counts when they end it, and otherwise from their
    /// counts built in `spare` (one `u8` pass per gate). A flush that ends
    /// short of the run extends the prefix's counts.
    fn flush_run(&mut self, plan: &NoisePlan) {
        let PendingRun {
            run,
            flushed,
            reached,
        } = self.run;
        if flushed == reached {
            return;
        }
        self.run.flushed = reached;
        self.populate(self.pending.len());
        let run = &plan.runs[run];
        let whole = run.pairs.len();
        let ends = reached == whole;
        if flushed == 0 && ends {
            vectorized::apply_phases(&mut self.amplitudes, &run.counts, &run.memo);
            return;
        }
        if !ends && flushed == 0 {
            self.prefix.fill(0);
        }
        if reached - flushed == 1 {
            let (a, b) = run.pairs[flushed];
            vectorized::apply_rzz(&mut self.amplitudes, a, b, run.theta);
            if !ends {
                add_cut(&mut self.prefix, a, b);
            }
            return;
        }
        fill_run_memo(&mut self.memo, run.theta, reached - flushed);
        if ends {
            vectorized::apply_phase_difference(
                &mut self.amplitudes,
                &run.counts,
                &self.prefix,
                &self.memo,
            );
            return;
        }
        self.spare.fill(0);
        for &(a, b) in &run.pairs[flushed..reached] {
            add_cut(&mut self.spare, a, b);
        }
        vectorized::apply_phases(&mut self.amplitudes, &self.spare, &self.memo);
        for (p, s) in self.prefix.iter_mut().zip(&self.spare) {
            *p += s;
        }
    }

    /// Applies the no-jump damping factor pending on `qubit` as one
    /// half-pass.
    fn flush_factor(&mut self, qubit: usize) {
        let keep = std::mem::replace(&mut self.pending[qubit], 1.0);
        if keep != 1.0 {
            vectorized::apply_damping_keep(self.live(), qubit, keep);
        }
    }

    /// Applies all pending work: the run, then every qubit's factor.
    fn flush_all(&mut self, plan: &NoisePlan) {
        self.flush_run(plan);
        for q in 0..self.pending.len() {
            self.flush_factor(q);
        }
    }

    /// One amplitude-damping step of strength `d.gamma` on `qubit` by
    /// quantum jumps, on the unnormalized state: with probability `γ·P(1)`
    /// the qubit decays to `|0⟩` (jump `|0⟩⟨1|`), otherwise the no-jump
    /// operator `diag(1, √(1−γ))` applies. Averaged over trajectories this
    /// reproduces the amplitude-damping channel exactly and — unlike
    /// depolarizing noise — it biases the state toward `|0…0⟩`, which is
    /// what distorts (rather than merely flattens) QAOA landscapes on
    /// hardware.
    ///
    /// `P(1)` is `one / norm` from the read pass, and `one ≤ norm` holds in
    /// floating point too (each masked lane sums a subset of its full
    /// lane's terms, and rounding is monotone), so `γ·P(1) ≤ γ`: a draw at
    /// or above `γ` is a no-jump whatever `P(1)` is, so it only multiplies
    /// the qubit's pending factor. It is also what keeps the norm off the
    /// floor, so it is deferred only while `norm_bound` — a lower bound on
    /// the carried norm, which a no-jump step shrinks by at most `1 − γ` —
    /// stays above it; that also keeps every pending factor above
    /// `2^-256`. Any other draw flushes all pending work and reads `P(1)`.
    fn damp<R: Rng>(&mut self, plan: &NoisePlan, qubit: usize, d: Decoherence, rng: &mut R) {
        let draw = rng.gen::<f64>();
        if draw >= d.gamma && self.norm_bound >= NORM_FLOOR {
            self.pending[qubit] *= d.keep;
            self.norm_bound *= 1.0 - d.gamma;
            return;
        }
        self.flush_all(plan);
        self.populate(self.pending.len());
        let amplitudes = &mut self.amplitudes;
        let (mut one, mut norm) = vectorized::one_and_norm_sqr(amplitudes, qubit);
        if norm < NORM_FLOOR {
            for amp in amplitudes.iter_mut() {
                *amp = amp.scale(NORM_RESCALE);
            }
            let squared = NORM_RESCALE * NORM_RESCALE;
            one *= squared;
            norm *= squared;
        }
        if draw < d.gamma * (one / norm) {
            vectorized::apply_damping_jump(amplitudes, qubit);
            self.norm_bound = one;
        } else {
            vectorized::apply_damping_keep(amplitudes, qubit, d.keep);
            self.norm_bound = norm * (1.0 - d.gamma);
        }
    }
}

/// Adds a trajectory's normalized distribution `|a|² / norm` to `acc`.
fn accumulate(acc: &mut [f64], amplitudes: &[Complex64], norm: f64) {
    for (a, amp) in acc.iter_mut().zip(amplitudes) {
        *a += amp.norm_sqr() / norm;
    }
}

/// Average measurement distribution of a circuit under the noise model.
///
/// The result includes readout error. With `NoiseModel::ideal()` and any
/// trajectory count this reduces to the exact ideal distribution.
pub fn noisy_probabilities<R: Rng>(
    circuit: &Circuit,
    noise: &NoiseModel,
    options: TrajectoryOptions,
    rng: &mut R,
) -> Vec<f64> {
    let runs = effective_runs(noise, options);
    let plan = NoisePlan::new(circuit, noise);
    let mut acc = vec![0.0f64; 1usize << circuit.qubit_count()];
    let mut trajectory = Trajectory::new(circuit.qubit_count());
    for _ in 0..runs {
        let norm = trajectory.run(circuit, &plan, rng);
        accumulate(&mut acc, &trajectory.amplitudes, norm);
    }
    for a in acc.iter_mut() {
        *a /= runs as f64;
    }
    apply_readout_confusion_in_place(&mut acc, circuit.qubit_count(), noise);
    acc
}

/// Average measurement distribution of a circuit under the noise model,
/// driven by per-trajectory RNG substreams instead of one sequential stream.
///
/// Trajectory `t` draws from `seeded(derive_seed(seed, t))`, so the set of
/// trajectories is a pure function of `seed` and the result is
/// **bitwise-identical for every thread count** (including serial). The
/// averaging is chunked through `mathkit::parallel`, which is how trajectory
/// shot averaging participates in the workspace's deterministic parallelism.
///
/// Per-trajectory substreams also strengthen the common-random-numbers
/// coupling used by the noisy landscape comparisons: two circuits evaluated
/// with the same `seed` see the same noise stream per trajectory index
/// regardless of how many random draws each circuit consumes.
pub fn noisy_probabilities_seeded(
    circuit: &Circuit,
    noise: &NoiseModel,
    options: TrajectoryOptions,
    seed: u64,
) -> Vec<f64> {
    let dim = 1usize << circuit.qubit_count();
    let runs = effective_runs(noise, options);
    let plan = NoisePlan::new(circuit, noise);
    let chunks = runs.div_ceil(SEEDED_TRAJECTORY_CHUNK);
    let partials = parallel_map_indexed(
        chunks,
        || Trajectory::new(circuit.qubit_count()),
        |trajectory, chunk| {
            let lo = chunk * SEEDED_TRAJECTORY_CHUNK;
            let hi = (lo + SEEDED_TRAJECTORY_CHUNK).min(runs);
            let mut acc = vec![0.0f64; dim];
            for t in lo..hi {
                let mut rng = seeded(derive_seed(seed, t as u64));
                let norm = trajectory.run(circuit, &plan, &mut rng);
                accumulate(&mut acc, &trajectory.amplitudes, norm);
            }
            acc
        },
    );
    let mut acc = vec![0.0f64; dim];
    for partial in partials {
        for (a, p) in acc.iter_mut().zip(partial) {
            *a += p;
        }
    }
    for a in acc.iter_mut() {
        *a /= runs as f64;
    }
    apply_readout_confusion_in_place(&mut acc, circuit.qubit_count(), noise);
    acc
}

/// Seeded, thread-count-independent variant of
/// [`noisy_expectation_diagonal`] (see [`noisy_probabilities_seeded`]).
///
/// # Panics
///
/// Panics if `values.len() != 2^n`.
pub fn noisy_expectation_diagonal_seeded<V: Copy + Into<f64>>(
    circuit: &Circuit,
    noise: &NoiseModel,
    values: &[V],
    options: TrajectoryOptions,
    seed: u64,
) -> f64 {
    expectation(
        &noisy_probabilities_seeded(circuit, noise, options, seed),
        values,
    )
}

/// Noisy expectation value of a diagonal observable (given its value on every
/// computational basis state). The values may be any type that widens
/// exactly to `f64` (a QAOA cut table's `u8` entries give the bits of the
/// same table held as `f64`).
///
/// # Panics
///
/// Panics if `values.len() != 2^n`.
pub fn noisy_expectation_diagonal<R: Rng, V: Copy + Into<f64>>(
    circuit: &Circuit,
    noise: &NoiseModel,
    values: &[V],
    options: TrajectoryOptions,
    rng: &mut R,
) -> f64 {
    expectation(&noisy_probabilities(circuit, noise, options, rng), values)
}

/// `Σ p·v` in index order.
fn expectation<V: Copy + Into<f64>>(probs: &[f64], values: &[V]) -> f64 {
    assert_eq!(values.len(), probs.len());
    probs.iter().zip(values).map(|(p, &v)| p * v.into()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density::simulate_noisy_probabilities;
    use crate::noise::ReadoutError;
    use crate::statevector::StateVector;
    use mathkit::rng::seeded;
    use mathkit::stats::mse;

    fn ghz(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.push(Gate::H(0)).unwrap();
        for q in 1..n {
            c.push(Gate::Cnot(q - 1, q)).unwrap();
        }
        c
    }

    fn test_noise() -> NoiseModel {
        NoiseModel::new(
            0.002,
            0.02,
            ReadoutError::new(0.02, 0.03),
            100.0,
            90.0,
            35.0,
            300.0,
        )
    }

    #[test]
    fn a_one_gate_run_gathers_the_apply_rzz_phases() {
        let mut start = StateVector::uniform_superposition(5);
        for (q, theta) in [(0, 0.3), (2, -1.1), (4, 2.4)] {
            start.apply_gate(Gate::Ry(q, theta));
        }
        let mut memo = Box::new([Complex64::zero(); 256]);
        for (a, b, theta) in [(0, 1, 0.37), (3, 1, -2.9), (4, 0, 1e-3), (2, 4, 5.5)] {
            fill_run_memo(&mut memo, theta, 1);
            let mut gathered = start.amplitudes().to_vec();
            vectorized::apply_phases(&mut gathered, &cut_counts(5, &[(a, b)]), &memo);
            let mut direct = start.amplitudes().to_vec();
            vectorized::apply_rzz(&mut direct, a, b, theta);
            let bits = |v: &[Complex64]| {
                v.iter()
                    .map(|c| (c.re.to_bits(), c.im.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&gathered), bits(&direct), "Rzz({a}, {b}, {theta})");
        }
    }

    #[test]
    fn ideal_noise_reproduces_exact_distribution() {
        let c = ghz(3);
        let mut rng = seeded(1);
        let probs = noisy_probabilities(
            &c,
            &NoiseModel::ideal(),
            TrajectoryOptions::default(),
            &mut rng,
        );
        assert!((probs[0] - 0.5).abs() < 1e-10);
        assert!((probs[7] - 0.5).abs() < 1e-10);
    }

    #[test]
    fn trajectory_average_approaches_density_matrix_result() {
        let c = ghz(3);
        // Use a relaxation-free model: with T1 = T2 = ∞ both backends reduce
        // to the same per-gate depolarizing channel, so the trajectory average
        // must converge to the density-matrix result.
        let noise = NoiseModel::new(
            0.004,
            0.03,
            ReadoutError::new(0.02, 0.03),
            f64::INFINITY,
            f64::INFINITY,
            35.0,
            300.0,
        );
        let exact = simulate_noisy_probabilities(&c, &noise).unwrap();
        let mut rng = seeded(2);
        let approx = noisy_probabilities(
            &c,
            &noise,
            TrajectoryOptions { trajectories: 3000 },
            &mut rng,
        );
        let err = mse(&exact, &approx).unwrap();
        assert!(err < 5e-4, "mse {err}");
    }

    #[test]
    fn noise_spreads_probability_mass() {
        let c = ghz(4);
        let mut rng = seeded(3);
        let probs = noisy_probabilities(
            &c,
            &test_noise(),
            TrajectoryOptions { trajectories: 400 },
            &mut rng,
        );
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Some weight must leak outside |0000> and |1111>.
        let leak: f64 = probs[1..15].iter().sum();
        assert!(leak > 0.01, "leak {leak}");
    }

    #[test]
    fn deeper_circuits_accumulate_more_error() {
        let mut shallow = Circuit::new(4);
        let mut deep = Circuit::new(4);
        for q in 0..4 {
            shallow.push(Gate::H(q)).unwrap();
            deep.push(Gate::H(q)).unwrap();
        }
        for _ in 0..6 {
            for q in 0..3 {
                deep.push(Gate::Cnot(q, q + 1)).unwrap();
            }
            for q in 0..3 {
                deep.push(Gate::Cnot(q, q + 1)).unwrap();
            }
        }
        // Ideal final distribution of both circuits is uniform (CNOT pairs cancel).
        let ideal: Vec<f64> = vec![1.0 / 16.0; 16];
        let mut rng = seeded(4);
        let noise = test_noise();
        let opts = TrajectoryOptions { trajectories: 300 };
        let p_shallow = noisy_probabilities(&shallow, &noise, opts, &mut rng);
        let p_deep = noisy_probabilities(&deep, &noise, opts, &mut rng);
        let err_shallow = mse(&ideal, &p_shallow).unwrap();
        let err_deep = mse(&ideal, &p_deep).unwrap();
        // The uniform state is close to the depolarized fixed point, so both
        // errors are small, but the deep circuit's readout-and-gate error
        // should not be *smaller* by a wide margin.
        assert!(err_deep >= 0.0 && err_shallow >= 0.0);
    }

    #[test]
    fn amplitude_damping_biases_toward_ground_state() {
        // A GHZ state under strong T1 relaxation should end with more weight
        // on |000> than on |111>; symmetric depolarizing noise alone would
        // keep the two equal.
        let c = ghz(3);
        let noise = NoiseModel::new(
            0.0,
            0.0,
            ReadoutError::ideal(),
            1.0, // very short T1 (1 µs) against 300 ns gates
            1.0,
            35.0,
            300.0,
        );
        let mut rng = seeded(13);
        let probs = noisy_probabilities(
            &c,
            &noise,
            TrajectoryOptions { trajectories: 600 },
            &mut rng,
        );
        assert!(
            probs[0] > probs[7] + 0.05,
            "expected ground-state bias, got {} vs {}",
            probs[0],
            probs[7]
        );
    }

    #[test]
    fn seeded_probabilities_are_thread_count_invariant() {
        let c = ghz(3);
        let noise = test_noise();
        let opts = TrajectoryOptions { trajectories: 37 };
        let reference = mathkit::parallel::with_threads(1, || {
            noisy_probabilities_seeded(&c, &noise, opts, 0xDEAD)
        });
        for threads in [2usize, 4] {
            let parallel = mathkit::parallel::with_threads(threads, || {
                noisy_probabilities_seeded(&c, &noise, opts, 0xDEAD)
            });
            let bits_match = reference
                .iter()
                .zip(&parallel)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(bits_match, "thread count {threads} changed the average");
        }
        // A different seed gives a different (still normalized) distribution.
        let other = noisy_probabilities_seeded(&c, &noise, opts, 0xBEEF);
        assert!((other.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert_ne!(reference, other);
    }

    #[test]
    fn seeded_average_approaches_density_matrix_result() {
        let c = ghz(3);
        let noise = NoiseModel::new(
            0.004,
            0.03,
            ReadoutError::new(0.02, 0.03),
            f64::INFINITY,
            f64::INFINITY,
            35.0,
            300.0,
        );
        let exact = simulate_noisy_probabilities(&c, &noise).unwrap();
        let approx =
            noisy_probabilities_seeded(&c, &noise, TrajectoryOptions { trajectories: 3000 }, 7);
        let err = mse(&exact, &approx).unwrap();
        assert!(err < 5e-4, "mse {err}");
    }

    #[test]
    fn seeded_expectation_matches_seeded_probabilities() {
        let c = ghz(2);
        let noise = test_noise();
        let opts = TrajectoryOptions { trajectories: 64 };
        let values = [1.0, 0.0, 0.0, 1.0];
        let e = noisy_expectation_diagonal_seeded(&c, &noise, &values, opts, 11);
        let probs = noisy_probabilities_seeded(&c, &noise, opts, 11);
        let manual: f64 = probs.iter().zip(values).map(|(p, v)| p * v).sum();
        assert_eq!(e.to_bits(), manual.to_bits());
    }
}
