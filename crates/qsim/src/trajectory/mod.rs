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
//! A trajectory carries its state **unnormalized**. Amplitude damping is the
//! only non-unitary step. Its random draw comes first: `P(1) ≤ 1`, so a draw
//! at or above `γ` is a no-jump whatever `P(1)` is, and the step is one
//! half-pass that scales the bit-set half by `√(1−γ)`. Only a draw below `γ`
//! needs `P(1)`: one read pass returns `(Σ_{bit set}|a|², Σ|a|²)` in the
//! fixed lane order, `P(1)` is their quotient, and then either the no-jump
//! half-pass or a pass that moves the bit-set half onto the bit-clear half
//! (jump) follows. Nothing renormalizes: each trajectory divides its `|a|²`
//! by its norm once, when they join the average. If the carried norm falls
//! below the constant floor `2^-512`, the state is scaled up by `2^256`,
//! which is exact, so the quotients keep their bits.
//!
//! The gates run on the structured `H`/`X`/`Y`/`Z`/`Rx` kernels of
//! [`vectorized`] (the generic butterfly for the rest), each equal to the
//! generic butterfly under `==` per component.
//!
//! The stochastic process is the one [`mod@reference`] implements — the
//! renormalize-every-step simulator, kept as the test oracle — and both draw
//! the same random numbers in the same order, so only the rounding of the
//! renormalization differs: probabilities agree with the oracle within
//! `1e-12`. Models without T1 (and the ideal model) never damp, keep unit
//! norm, and give the oracle's bits. Run-to-run and thread-count invariance
//! are unchanged; see `docs/determinism.md`.

pub mod reference;

use crate::circuit::{rx_matrix, Circuit, Gate};
use crate::density::apply_readout_confusion_in_place;
use crate::noise::NoiseModel;
use crate::statevector::{sample_counts_from_probabilities, vectorized};
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
        Self { gate, idle, damps }
    }
}

/// Applies one gate with the structured kernels where a gate has one.
fn apply_gate(amplitudes: &mut [Complex64], gate: Gate) {
    match gate {
        Gate::H(q) => vectorized::apply_h(amplitudes, q),
        Gate::X(q) => vectorized::apply_x(amplitudes, q),
        Gate::Y(q) => vectorized::apply_y(amplitudes, q),
        Gate::Z(q) => vectorized::apply_z(amplitudes, q),
        Gate::Rx(q, theta) => {
            let u = rx_matrix(theta);
            vectorized::apply_rx(amplitudes, q, u[0][0].re, u[0][1].im);
        }
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

/// One amplitude-damping step of strength `d.gamma` on `qubit` by quantum
/// jumps, on the unnormalized state: with probability `γ·P(1)` the qubit
/// decays to `|0⟩` (jump `|0⟩⟨1|`), otherwise the no-jump operator
/// `diag(1, √(1−γ))` applies. Averaged over trajectories this reproduces
/// the amplitude-damping channel exactly and — unlike depolarizing noise —
/// it biases the state toward `|0…0⟩`, which is what distorts (rather than
/// merely flattens) QAOA landscapes on hardware.
///
/// `P(1)` is `one / norm` from the read pass, and `one ≤ norm` holds in
/// floating point too (each masked lane sums a subset of its full lane's
/// terms, and rounding is monotone), so `γ·P(1) ≤ γ`: a draw at or above
/// `γ` is a no-jump whatever `P(1)` is, and the read pass is skipped. It is
/// also what keeps the norm off the floor, so it is skipped only while
/// `norm_bound` — a lower bound on the carried norm, which a no-jump step
/// shrinks by at most `1 − γ` — stays above it.
fn damp<R: Rng>(
    amplitudes: &mut [Complex64],
    qubit: usize,
    d: Decoherence,
    norm_bound: &mut f64,
    rng: &mut R,
) {
    let draw = rng.gen::<f64>();
    if draw >= d.gamma && *norm_bound >= NORM_FLOOR {
        vectorized::apply_damping_keep(amplitudes, qubit, d.keep);
        *norm_bound *= 1.0 - d.gamma;
        return;
    }
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
        *norm_bound = one;
    } else {
        vectorized::apply_damping_keep(amplitudes, qubit, d.keep);
        *norm_bound = norm * (1.0 - d.gamma);
    }
}

/// Runs one noisy trajectory into `amplitudes` (reset to `|0…0⟩` first, its
/// allocation reused) and returns the state's norm `Σ|a|²`.
///
/// Per gate and per participating qubit three error processes are applied:
/// a depolarizing Pauli error with the calibrated gate-error probability, a
/// dephasing `Z` error derived from T2, and an amplitude-damping jump derived
/// from T1 (the biased process responsible for landscape distortion).
///
/// On top of the per-gate errors, every qubit decoheres (T1 relaxation and T2
/// dephasing) for the wall-clock time it sits *idle* while the rest of the
/// circuit executes. This spectator decoherence grows with circuit depth and
/// is the dominant size-dependent error source on hardware: a circuit twice
/// as deep exposes every qubit to roughly twice the idle decay, which is
/// precisely the penalty Red-QAOA's smaller circuits avoid.
fn run_trajectory<R: Rng>(
    amplitudes: &mut Vec<Complex64>,
    circuit: &Circuit,
    plan: &NoisePlan,
    rng: &mut R,
) -> f64 {
    amplitudes.clear();
    amplitudes.resize(1usize << circuit.qubit_count(), Complex64::zero());
    amplitudes[0] = Complex64::one();
    let mut norm_bound = 1.0;
    for gate in circuit.gates() {
        apply_gate(amplitudes, *gate);
        let (qubits, arity) = gate.operands();
        let d = plan.gate[arity - 1];
        for &q in &qubits[..arity] {
            if d.depol > 0.0 && rng.gen::<f64>() < d.depol {
                apply_gate(amplitudes, random_pauli(q, rng));
            }
            if d.dephase > 0.0 && rng.gen::<f64>() < d.dephase {
                vectorized::apply_z(amplitudes, q);
            }
            if d.gamma > 0.0 {
                damp(amplitudes, q, d, &mut norm_bound, rng);
            }
        }
    }
    for (q, &d) in plan.idle.iter().enumerate() {
        if d.gamma > 0.0 {
            damp(amplitudes, q, d, &mut norm_bound, rng);
        }
        if d.dephase > 0.0 && rng.gen::<f64>() < d.dephase {
            vectorized::apply_z(amplitudes, q);
        }
    }
    if plan.damps {
        vectorized::norm_sqr(amplitudes)
    } else {
        1.0
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
    let mut amplitudes = Vec::with_capacity(acc.len());
    for _ in 0..runs {
        let norm = run_trajectory(&mut amplitudes, circuit, &plan, rng);
        accumulate(&mut acc, &amplitudes, norm);
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
        || Vec::with_capacity(dim),
        |amplitudes, chunk| {
            let lo = chunk * SEEDED_TRAJECTORY_CHUNK;
            let hi = (lo + SEEDED_TRAJECTORY_CHUNK).min(runs);
            let mut acc = vec![0.0f64; dim];
            for t in lo..hi {
                let mut rng = seeded(derive_seed(seed, t as u64));
                let norm = run_trajectory(amplitudes, circuit, &plan, &mut rng);
                accumulate(&mut acc, amplitudes, norm);
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

/// Samples measurement counts from the noisy distribution (shot noise plus
/// gate and readout error).
pub fn noisy_sample_counts<R: Rng>(
    circuit: &Circuit,
    noise: &NoiseModel,
    shots: usize,
    options: TrajectoryOptions,
    rng: &mut R,
) -> Vec<usize> {
    let probs = noisy_probabilities(circuit, noise, options, rng);
    sample_counts_from_probabilities(&probs, shots, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density::simulate_noisy_probabilities;
    use crate::noise::ReadoutError;
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

    #[test]
    fn expectation_and_sampling_are_consistent() {
        let c = ghz(2);
        let values = [1.0, 0.0, 0.0, 1.0]; // parity observable
        let mut rng = seeded(5);
        let noise = test_noise();
        let opts = TrajectoryOptions { trajectories: 500 };
        let e = noisy_expectation_diagonal(&c, &noise, &values, opts, &mut rng);
        assert!(e > 0.8 && e < 1.0, "expectation {e}");
        let counts = noisy_sample_counts(&c, &noise, 4000, opts, &mut rng);
        assert_eq!(counts.iter().sum::<usize>(), 4000);
        let sampled_e = (counts[0] + counts[3]) as f64 / 4000.0;
        assert!((sampled_e - e).abs() < 0.08, "sampled {sampled_e} vs {e}");
    }
}
