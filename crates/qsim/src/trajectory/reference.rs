//! The renormalize-every-step trajectory simulator — the trajectory test
//! oracle.
//!
//! This is the Monte-Carlo simulator the crate shipped with before
//! trajectories carried their norm: every amplitude-damping step applies
//! its Kraus operator as a generic butterfly and renormalizes the state at
//! once, every gate (Paulis included) runs through
//! [`StateVector::apply_gate`], and readout error is the scatter loop
//! [`apply_readout_confusion`]. The production simulator in the
//! [parent module](super) never calls it. Like
//! [`statevector::reference`](crate::statevector::reference), it survives
//! as an oracle that callers drive directly:
//!
//! 1. **Oracle** — `tests/trajectory_equivalence.rs` checks that
//!    [`super::noisy_probabilities`] and
//!    [`super::noisy_probabilities_seeded`] agree with this module's
//!    namesakes within `1e-12` per probability for the same RNG stream or
//!    seed, and that the in-place readout butterfly reproduces
//!    [`apply_readout_confusion`] bit for bit.
//! 2. **Baseline** — the `qsim_smoke` benchmark measures the production
//!    trajectories per second against these.
//!
//! Both simulators draw the same random numbers in the same order, so for
//! a given stream they sample the same jumps and errors; only the rounding
//! of the renormalization differs.

use super::{effective_runs, random_pauli, TrajectoryOptions, SEEDED_TRAJECTORY_CHUNK};
use crate::circuit::{Circuit, Gate};
use crate::noise::NoiseModel;
use crate::statevector::StateVector;
use mathkit::rng::{derive_seed, seeded};
use mathkit::Complex64;
use rand::Rng;

/// One amplitude-damping step (strength `gamma`) on `qubit` by quantum
/// jumps: the jump `|0⟩⟨1|` with probability `γ·P(1)`, else the no-jump
/// operator `diag(1, √(1−γ))`, each as a generic butterfly, then a
/// renormalization (a state of norm below `1e-300` resets to `|0…0⟩`).
fn amplitude_damping_jump<R: Rng>(sv: &mut StateVector, qubit: usize, gamma: f64, rng: &mut R) {
    if gamma <= 0.0 {
        return;
    }
    let p_one = sv.prob_one(qubit);
    let p_jump = gamma * p_one;
    if rng.gen::<f64>() < p_jump {
        sv.apply_single(
            qubit,
            [
                [Complex64::zero(), Complex64::one()],
                [Complex64::zero(), Complex64::zero()],
            ],
        );
    } else {
        sv.apply_single(
            qubit,
            [
                [Complex64::one(), Complex64::zero()],
                [Complex64::zero(), Complex64::new((1.0 - gamma).sqrt(), 0.0)],
            ],
        );
    }
    sv.renormalize();
}

/// Runs one trajectory into `sv` (reset to `|0…0⟩` first): per gate and
/// participating qubit a depolarizing Pauli, a dephasing `Z` and an
/// amplitude-damping step, then idle decoherence per qubit for the part of
/// the circuit's duration it waits.
fn run_trajectory_into<R: Rng>(
    sv: &mut StateVector,
    circuit: &Circuit,
    noise: &NoiseModel,
    rng: &mut R,
) {
    sv.reinitialize_zero(circuit.qubit_count());
    let depol = [noise.error_1q, noise.error_2q];
    let relax = [
        noise.relaxation_probability(noise.gate_time_1q_ns),
        noise.relaxation_probability(noise.gate_time_2q_ns),
    ];
    let dephase = [
        0.5 * noise.dephasing_probability(noise.gate_time_1q_ns),
        0.5 * noise.dephasing_probability(noise.gate_time_2q_ns),
    ];
    let gate_time = [noise.gate_time_1q_ns, noise.gate_time_2q_ns];
    let mut busy_ns = vec![0.0f64; circuit.qubit_count()];
    for gate in circuit.gates() {
        sv.apply_gate(*gate);
        let kind = usize::from(gate.is_two_qubit());
        let (qubits, arity) = gate.operands();
        for &q in &qubits[..arity] {
            busy_ns[q] += gate_time[kind];
            if depol[kind] > 0.0 && rng.gen::<f64>() < depol[kind] {
                sv.apply_gate(random_pauli(q, rng));
            }
            if dephase[kind] > 0.0 && rng.gen::<f64>() < dephase[kind] {
                sv.apply_gate(Gate::Z(q));
            }
            if relax[kind] > 0.0 {
                amplitude_damping_jump(sv, q, relax[kind], rng);
            }
        }
    }
    let duration_ns = noise.circuit_duration_ns(circuit);
    for q in 0..circuit.qubit_count() {
        let idle_ns = (duration_ns - busy_ns[q]).max(0.0);
        if idle_ns <= 0.0 {
            continue;
        }
        let p_relax = noise.relaxation_probability(idle_ns);
        if p_relax > 0.0 {
            amplitude_damping_jump(sv, q, p_relax, rng);
        }
        let p_dephase = 0.5 * noise.dephasing_probability(idle_ns);
        if p_dephase > 0.0 && rng.gen::<f64>() < p_dephase {
            sv.apply_gate(Gate::Z(q));
        }
    }
}

/// Oracle twin of [`super::noisy_probabilities`]: trajectories drawn from
/// one sequential stream, averaged, then [`apply_readout_confusion`].
pub fn noisy_probabilities<R: Rng>(
    circuit: &Circuit,
    noise: &NoiseModel,
    options: TrajectoryOptions,
    rng: &mut R,
) -> Vec<f64> {
    let runs = effective_runs(noise, options);
    let mut acc = vec![0.0f64; 1usize << circuit.qubit_count()];
    let mut sv = StateVector::new(circuit.qubit_count());
    for _ in 0..runs {
        run_trajectory_into(&mut sv, circuit, noise, rng);
        for (a, amp) in acc.iter_mut().zip(sv.amplitudes()) {
            *a += amp.norm_sqr();
        }
    }
    for a in acc.iter_mut() {
        *a /= runs as f64;
    }
    apply_readout_confusion(&mut acc, circuit.qubit_count(), noise);
    acc
}

/// Oracle twin of [`super::noisy_probabilities_seeded`]: trajectory `t`
/// draws from `seeded(derive_seed(seed, t))`, and the sums run over the
/// same fixed chunks, serially.
pub fn noisy_probabilities_seeded(
    circuit: &Circuit,
    noise: &NoiseModel,
    options: TrajectoryOptions,
    seed: u64,
) -> Vec<f64> {
    let runs = effective_runs(noise, options);
    let dim = 1usize << circuit.qubit_count();
    let mut acc = vec![0.0f64; dim];
    let mut sv = StateVector::new(circuit.qubit_count());
    for lo in (0..runs).step_by(SEEDED_TRAJECTORY_CHUNK) {
        let mut partial = vec![0.0f64; dim];
        for t in lo..(lo + SEEDED_TRAJECTORY_CHUNK).min(runs) {
            run_trajectory_into(
                &mut sv,
                circuit,
                noise,
                &mut seeded(derive_seed(seed, t as u64)),
            );
            for (a, amp) in partial.iter_mut().zip(sv.amplitudes()) {
                *a += amp.norm_sqr();
            }
        }
        for (a, p) in acc.iter_mut().zip(partial) {
            *a += p;
        }
    }
    for a in acc.iter_mut() {
        *a /= runs as f64;
    }
    apply_readout_confusion(&mut acc, circuit.qubit_count(), noise);
    acc
}

/// Readout error as a scatter loop: per qubit, every nonzero probability
/// sends `p·(1−p01)` (bit clear) or `p·(1−p10)` (bit set) to its own entry
/// and the rest to the entry with the bit flipped, into a zeroed scratch
/// buffer that then replaces `probs`.
///
/// # Panics
///
/// Panics if `probs.len() != 2^qubit_count`.
pub fn apply_readout_confusion(probs: &mut [f64], qubit_count: usize, noise: &NoiseModel) {
    assert_eq!(probs.len(), 1usize << qubit_count);
    let p01 = noise.readout.p01;
    let p10 = noise.readout.p10;
    if p01 == 0.0 && p10 == 0.0 {
        return;
    }
    let mut scratch = vec![0.0f64; probs.len()];
    for q in 0..qubit_count {
        let bit = 1usize << q;
        scratch.fill(0.0);
        for (i, &p) in probs.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            if i & bit == 0 {
                scratch[i] += p * (1.0 - p01);
                scratch[i | bit] += p * p01;
            } else {
                scratch[i] += p * (1.0 - p10);
                scratch[i & !bit] += p * p10;
            }
        }
        probs.copy_from_slice(&scratch);
    }
}
