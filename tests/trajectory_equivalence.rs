//! The noisy trajectory simulator against its oracle.
//!
//! `qsim::trajectory` carries each trajectory's state unnormalized and runs
//! its gates on structured kernels; `qsim::trajectory::reference` is the
//! renormalize-every-step simulator it replaced, running every gate as a
//! generic butterfly. Both draw the same random numbers in the same order,
//! so for one seed they sample the same jumps and errors, and only the
//! rounding of the renormalization differs. This suite checks:
//!
//! * averaged probabilities (sequential stream and per-trajectory seeds)
//!   within `1e-12` of the oracle on random circuits under `fake_toronto`
//!   noise scaled ×1, ×10 and ×60, and on a circuit whose carried norm
//!   crosses the rescale floor;
//! * the same on QAOA circuits (naive and depth-scheduled, p = 1..2), whose
//!   cost layers are runs of equal-angle `Rzz` gates the simulator defers
//!   and applies as one gather — including a model whose two-qubit errors
//!   interrupt most runs;
//! * the structured `H`/`X`/`Y`/`Z` and damping kernels equal to the
//!   generic butterfly under `==` per component, with bitwise-equal
//!   `norm_sqr` and `prob_one`, and the fused read pass bitwise equal to
//!   the two reductions it replaces;
//! * the in-place readout butterfly bitwise equal to the oracle's scatter
//!   loop.

use graphlib::generators::connected_gnp;
use mathkit::rng::seeded;
use mathkit::Complex64;
use proptest::prelude::*;
use qaoa::circuit::qaoa_circuit;
use qaoa::depth::{compile_maxcut, scheduled_qaoa_circuit};
use qaoa::params::QaoaParams;
use qsim::circuit::{Circuit, Gate};
use qsim::density::apply_readout_confusion_in_place;
use qsim::devices::fake_toronto;
use qsim::noise::{NoiseModel, ReadoutError};
use qsim::statevector::{reference, vectorized, StateVector};
use qsim::trajectory::{self, TrajectoryOptions};
use rand::Rng;

/// Largest gap the carried norm may open against the oracle.
const TOLERANCE: f64 = 1e-12;

/// A random circuit over `n` qubits of the gates QAOA and the Pauli error
/// processes use: `H`, `X`, `Y`, `Z`, `Rx`, `Rzz`, `CNOT`.
fn random_circuit<R: Rng>(n: usize, gates: usize, rng: &mut R) -> Circuit {
    let mut circuit = Circuit::new(n);
    for _ in 0..gates {
        let q = rng.gen_range(0..n);
        let angle = rng.gen_range(-3.5f64..6.5);
        let kinds = if n > 1 { 7 } else { 5 };
        let gate = match rng.gen_range(0..kinds) {
            0 => Gate::H(q),
            1 => Gate::X(q),
            2 => Gate::Y(q),
            3 => Gate::Z(q),
            4 => Gate::Rx(q, angle),
            kind => {
                let mut r = rng.gen_range(0..n - 1);
                if r >= q {
                    r += 1;
                }
                if kind == 5 {
                    Gate::Rzz(q, r, angle)
                } else {
                    Gate::Cnot(q, r)
                }
            }
        };
        circuit.push(gate).unwrap();
    }
    circuit
}

/// A random QAOA circuit over a connected G(n, 0.5) graph with `layers`
/// layers: the naive per-edge emission or the depth-scheduled one. Each
/// cost layer is one run of `|E|` consecutive equal-angle `Rzz` gates.
fn random_qaoa_circuit<R: Rng>(n: usize, layers: usize, scheduled: bool, rng: &mut R) -> Circuit {
    let graph = connected_gnp(n, 0.5, rng).unwrap();
    let gammas = (0..layers).map(|_| rng.gen_range(-3.2f64..3.2)).collect();
    let betas = (0..layers).map(|_| rng.gen_range(-1.6f64..1.6)).collect();
    let params = QaoaParams::new(gammas, betas).unwrap();
    let circuit = if scheduled {
        scheduled_qaoa_circuit(&compile_maxcut(&graph).unwrap(), &params)
    } else {
        qaoa_circuit(&graph, &params).unwrap()
    };
    assert_eq!(longest_rzz_run(&circuit), graph.edge_count());
    circuit
}

/// The most consecutive `Rzz` gates with bitwise-equal angles.
fn longest_rzz_run(circuit: &Circuit) -> usize {
    let (mut longest, mut current, mut angle) = (0, 0, None);
    for gate in circuit.gates() {
        match *gate {
            Gate::Rzz(_, _, theta) => {
                let bits = Some(theta.to_bits());
                current = if angle == bits { current + 1 } else { 1 };
                angle = bits;
            }
            _ => (current, angle) = (0, None),
        }
        longest = longest.max(current);
    }
    longest
}

/// `fake_toronto` noise scaled ×1, ×10 or ×60 (`model` 0–2), or (`model`
/// 3) the ×10 model with a two-qubit error rate of 0.6, so most `Rzz`
/// runs are interrupted — often more than once — by `X`/`Y` errors.
fn trajectory_model(model: usize) -> NoiseModel {
    let toronto = fake_toronto().noise;
    if model < 3 {
        return toronto.scaled([1.0, 10.0, 60.0][model]);
    }
    let mut noise = toronto.scaled(10.0);
    noise.error_2q = 0.6;
    noise
}

/// Largest per-entry gap between two distributions.
fn max_gap(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// A random state: dense (`kind == 0`, a random circuit from the uniform
/// superposition) or sparse, with many exact-zero components (`|0…0⟩`
/// through a few `X`/`CNOT`/`H` gates), where a zero's sign can differ.
fn random_state<R: Rng>(n: usize, kind: usize, rng: &mut R) -> Vec<Complex64> {
    let mut sv = if kind == 0 {
        StateVector::uniform_superposition(n)
    } else {
        StateVector::new(n)
    };
    let gates = if kind == 0 { 12 } else { 3 };
    for _ in 0..gates {
        let q = rng.gen_range(0..n);
        let gate = match rng.gen_range(0..4) {
            0 => Gate::X(q),
            1 if n > 1 => Gate::Cnot(q, (q + 1) % n),
            2 if kind == 0 => Gate::Ry(q, rng.gen_range(-3.0f64..3.0)),
            _ => Gate::H(q),
        };
        sv.apply_gate(gate);
    }
    sv.amplitudes().to_vec()
}

/// A structured single-qubit gate kernel.
type Kernel = fn(&mut [Complex64], usize);

/// Component-wise `==`: `+0` and `-0` compare equal, every other value only
/// to itself.
fn amplitudes_eq(a: &[Complex64], b: &[Complex64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.re == y.re && x.im == y.im)
}

/// Asserts the `==` contract plus bitwise-equal reductions.
fn assert_structured_matches(fast: &[Complex64], generic: &[Complex64], what: &str) {
    assert!(amplitudes_eq(fast, generic), "{what}: amplitudes differ");
    assert_eq!(
        vectorized::norm_sqr(fast).to_bits(),
        reference::norm_sqr(generic).to_bits(),
        "{what}: norm_sqr"
    );
    let qubits = fast.len().trailing_zeros() as usize;
    for q in 0..qubits {
        assert_eq!(
            vectorized::prob_one(fast, q).to_bits(),
            reference::prob_one(generic, q).to_bits(),
            "{what}: prob_one({q})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Both entry points agree with the renormalizing oracle within `1e-12`
    /// per probability for the same stream or seed, at every noise scale.
    #[test]
    fn carried_norm_trajectories_match_the_renormalizing_oracle(
        seed in 0u64..100_000,
        qubits in 1usize..=12,
        gate_count in 1usize..40,
        scale_index in 0usize..3,
        trajectories in 1usize..12,
    ) {
        let mut rng = seeded(seed);
        let circuit = random_circuit(qubits, gate_count, &mut rng);
        let noise = fake_toronto().noise.scaled([1.0, 10.0, 60.0][scale_index]);
        let options = TrajectoryOptions { trajectories };

        let fast = trajectory::noisy_probabilities(&circuit, &noise, options, &mut seeded(seed));
        let oracle = trajectory::reference::noisy_probabilities(
            &circuit, &noise, options, &mut seeded(seed),
        );
        let gap = max_gap(&fast, &oracle);
        prop_assert!(gap <= TOLERANCE, "sequential stream: gap {gap:e}");

        let fast = trajectory::noisy_probabilities_seeded(&circuit, &noise, options, seed);
        let oracle = trajectory::reference::noisy_probabilities_seeded(&circuit, &noise, options, seed);
        let gap = max_gap(&fast, &oracle);
        prop_assert!(gap <= TOLERANCE, "seeded: gap {gap:e}");
    }

    /// On QAOA circuits — every cost layer one run of equal-angle `Rzz`
    /// gates, deferred and gathered at once, and split wherever an error
    /// interrupts it — both entry points agree with the oracle within
    /// `1e-12` per probability, at every noise scale.
    #[test]
    fn deferred_qaoa_runs_match_the_renormalizing_oracle(
        seed in 0u64..100_000,
        qubits in 2usize..=10,
        layers in 1usize..=2,
        scheduled in 0usize..2,
        model in 0usize..4,
        trajectories in 1usize..10,
    ) {
        let circuit = random_qaoa_circuit(qubits, layers, scheduled == 1, &mut seeded(seed));
        let noise = trajectory_model(model);
        let options = TrajectoryOptions { trajectories };

        let fast = trajectory::noisy_probabilities(&circuit, &noise, options, &mut seeded(seed));
        let oracle = trajectory::reference::noisy_probabilities(
            &circuit, &noise, options, &mut seeded(seed),
        );
        let gap = max_gap(&fast, &oracle);
        prop_assert!(gap <= TOLERANCE, "sequential stream: gap {gap:e}");

        let fast = trajectory::noisy_probabilities_seeded(&circuit, &noise, options, seed);
        let oracle = trajectory::reference::noisy_probabilities_seeded(&circuit, &noise, options, seed);
        let gap = max_gap(&fast, &oracle);
        prop_assert!(gap <= TOLERANCE, "seeded: gap {gap:e}");
    }

    /// `H`, `X`, `Y`, `Z` and both damping steps equal the generic
    /// butterfly of their matrix under `==` per component, with bitwise
    /// `norm_sqr` and `prob_one`; the fused read pass returns the bits of
    /// `prob_one` and `norm_sqr`.
    #[test]
    fn structured_kernels_match_the_generic_butterfly(
        seed in 0u64..100_000,
        qubits in 1usize..=10,
        kind in 0usize..2,
    ) {
        let mut rng = seeded(seed);
        let start = random_state(qubits, kind, &mut rng);
        let gamma: f64 = rng.gen_range(0.0..1.0);
        let keep = (1.0 - gamma).sqrt();
        let zero = Complex64::zero();
        let one = Complex64::one();
        for q in 0..qubits {
            let (p_one, norm) = vectorized::one_and_norm_sqr(&start, q);
            prop_assert_eq!(p_one.to_bits(), reference::prob_one(&start, q).to_bits());
            prop_assert_eq!(norm.to_bits(), reference::norm_sqr(&start).to_bits());

            let kernels: [(&str, Kernel, Gate); 4] = [
                ("H", vectorized::apply_h, Gate::H(q)),
                ("X", vectorized::apply_x, Gate::X(q)),
                ("Y", vectorized::apply_y, Gate::Y(q)),
                ("Z", vectorized::apply_z, Gate::Z(q)),
            ];
            for (name, kernel, gate) in kernels {
                let mut fast = start.clone();
                let mut generic = start.clone();
                kernel(&mut fast, q);
                reference::apply_gate(&mut generic, gate);
                assert_structured_matches(&fast, &generic, name);
            }

            let mut fast = start.clone();
            let mut generic = start.clone();
            vectorized::apply_damping_keep(&mut fast, q, keep);
            reference::apply_single(&mut generic, q, [[one, zero], [zero, Complex64::new(keep, 0.0)]]);
            assert_structured_matches(&fast, &generic, "damping keep");

            let mut fast = start.clone();
            let mut generic = start.clone();
            vectorized::apply_damping_jump(&mut fast, q);
            reference::apply_single(&mut generic, q, [[zero, one], [zero, zero]]);
            assert_structured_matches(&fast, &generic, "damping jump");
        }
    }

    /// The in-place readout butterfly leaves the scatter loop's bits, on
    /// distributions with and without exact zeros and at the edge rates
    /// 0 and 1.
    #[test]
    fn readout_butterfly_matches_the_scatter_loop_bitwise(
        seed in 0u64..100_000,
        qubits in 1usize..=10,
        kind in 0usize..2,
        rates in 0usize..4,
    ) {
        let mut rng = seeded(seed);
        let mut butterfly: Vec<f64> = random_state(qubits, kind, &mut rng)
            .iter()
            .map(|a| a.norm_sqr())
            .collect();
        let mut scatter = butterfly.clone();
        let (p01, p10) = match rates {
            0 => (rng.gen_range(0.0..0.2), rng.gen_range(0.0..0.2)),
            1 => (0.0, rng.gen_range(0.0..1.0)),
            2 => (rng.gen_range(0.0..1.0), 1.0),
            _ => (1.0, 1.0),
        };
        let mut noise = NoiseModel::ideal();
        noise.readout = ReadoutError::new(p01, p10);
        apply_readout_confusion_in_place(&mut butterfly, qubits, &noise);
        trajectory::reference::apply_readout_confusion(&mut scatter, qubits, &noise);
        let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&butterfly), bits(&scatter));
    }
}

/// A carried norm that would underflow is rescaled at the floor. With
/// `γ = 1` (T1 of a femtosecond against 35 ns gates) every damping step
/// leaves qubit 0 in `|0⟩`, each `H` then makes `P(1) = 1/2`, and the next
/// damping step halves the carried norm whichever way it goes. 1500 such
/// steps take it to `2^-1500`, past the `2^-512` floor — and past the
/// smallest subnormal, so without the rescale the norm would be `0` and
/// every probability `NaN`.
#[test]
fn carried_norm_crosses_the_floor_and_still_matches_the_oracle() {
    let noise = NoiseModel::new(
        0.01,
        0.02,
        ReadoutError::new(0.02, 0.03),
        1e-6,
        1e-6,
        35.0,
        300.0,
    );
    assert_eq!(noise.relaxation_probability(noise.gate_time_1q_ns), 1.0);
    let mut circuit = Circuit::new(3);
    for _ in 0..1500 {
        circuit.push(Gate::H(0)).unwrap();
    }
    circuit
        .extend([Gate::H(1), Gate::Cnot(1, 2), Gate::Rx(2, 0.7)])
        .unwrap();
    let options = TrajectoryOptions { trajectories: 9 };
    let fast = trajectory::noisy_probabilities(&circuit, &noise, options, &mut seeded(4));
    let oracle =
        trajectory::reference::noisy_probabilities(&circuit, &noise, options, &mut seeded(4));
    assert!(fast.iter().all(|p| p.is_finite()), "{fast:?}");
    assert!((fast.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    let gap = max_gap(&fast, &oracle);
    assert!(gap <= TOLERANCE, "gap {gap:e}");
    let fast = trajectory::noisy_probabilities_seeded(&circuit, &noise, options, 4);
    let oracle = trajectory::reference::noisy_probabilities_seeded(&circuit, &noise, options, 4);
    let gap = max_gap(&fast, &oracle);
    assert!(gap <= TOLERANCE, "seeded gap {gap:e}");
}

/// Without T1 nothing damps, the norm stays 1 and no division happens: the
/// probabilities are the oracle's bits.
#[test]
fn models_without_damping_keep_the_oracle_bits() {
    let mut noise = fake_toronto().noise;
    noise.t1_us = f64::INFINITY;
    let circuit = random_circuit(7, 30, &mut seeded(8));
    let options = TrajectoryOptions { trajectories: 10 };
    let bits = |v: Vec<f64>| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(trajectory::noisy_probabilities_seeded(
            &circuit, &noise, options, 2
        )),
        bits(trajectory::reference::noisy_probabilities_seeded(
            &circuit, &noise, options, 2
        ))
    );
    let ideal = NoiseModel::ideal();
    assert_eq!(
        bits(trajectory::noisy_probabilities(
            &circuit,
            &ideal,
            options,
            &mut seeded(2)
        )),
        bits(StateVector::from_circuit(&circuit).probabilities())
    );
}
