//! Scalar reference kernels — the statevector test oracle.
//!
//! Every kernel in this module is the plain per-index scalar loop the
//! simulator shipped with before the chunked
//! [`vectorized`](super::vectorized) module existed. `StateVector` never
//! runs them; they survive as a public oracle that callers drive directly
//! on raw amplitude buffers, with [`apply_gate`] / [`apply_circuit`] as the
//! gate-level entry points:
//!
//! 1. **Oracle** — the differential suite in
//!    `tests/qsim_kernel_equivalence.rs` and the golden pins in
//!    `tests/kernel_golden_values.rs` run random circuits through this
//!    module and through `StateVector` and assert bitwise-equal amplitudes
//!    and reductions. A vectorized kernel is only correct if it reproduces
//!    this module exactly.
//! 2. **Baseline** — the `qsim_smoke` benchmark and the `bench_simulators`
//!    `scalar` group measure the vectorized speedup against these loops.
//!
//! # Reduction order
//!
//! The reductions (`expectation_*`, `prob_one`, `norm_sqr`) do **not** sum
//! linearly: they follow the fixed interleaved
//! [`REDUCTION_LANES`]-lane order specified in the
//! [`super`] module docs, which the vectorized module reproduces chunk by
//! chunk. Summation order is part of each kernel's contract — see
//! `docs/determinism.md`.

use super::REDUCTION_LANES;
use crate::circuit::{Circuit, Gate};
use mathkit::Complex64;

/// Sums `term(i)` over `0..len` in the fixed lane order shared with the
/// vectorized kernels: lane `j` accumulates indices `j, j + L, j + 2L, …`
/// over the largest prefix that is a multiple of `L = REDUCTION_LANES`,
/// lanes combine pairwise, and tail elements are added sequentially last.
fn lane_sum(len: usize, mut term: impl FnMut(usize) -> f64) -> f64 {
    let main = len - len % REDUCTION_LANES;
    let mut lanes = [0.0f64; REDUCTION_LANES];
    let mut base = 0usize;
    while base < main {
        for (j, lane) in lanes.iter_mut().enumerate() {
            *lane += term(base + j);
        }
        base += REDUCTION_LANES;
    }
    let mut total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    for i in main..len {
        total += term(i);
    }
    total
}

/// Applies one gate with the scalar kernels; single-qubit gates take their
/// matrix from [`Gate::single_qubit_unitary`], as `StateVector` does.
///
/// # Panics
///
/// Panics if a gate operand is not a qubit of the `amplitudes.len() = 2^n`
/// buffer, or a two-qubit gate names one qubit twice.
pub fn apply_gate(amplitudes: &mut [Complex64], gate: Gate) {
    let qubits = amplitudes.len().trailing_zeros() as usize;
    let pair = |a: usize, b: usize| {
        assert!(a < qubits && b < qubits, "qubit out of range in {gate:?}");
        assert_ne!(a, b, "two-qubit gate operands must differ");
    };
    match gate {
        Gate::Cnot(control, target) => {
            pair(control, target);
            apply_cnot(amplitudes, control, target);
        }
        Gate::Cz(a, b) => {
            pair(a, b);
            apply_cz(amplitudes, a, b);
        }
        Gate::Swap(a, b) => {
            pair(a, b);
            apply_swap(amplitudes, a, b);
        }
        Gate::Rzz(a, b, theta) => {
            pair(a, b);
            apply_rzz(amplitudes, a, b, theta);
        }
        single => {
            let (q, u) = single
                .single_qubit_unitary()
                .expect("two-qubit gates are matched above");
            assert!(q < qubits, "qubit {q} out of range");
            apply_single(amplitudes, q, u);
        }
    }
}

/// Applies every gate of `circuit` in order with [`apply_gate`].
///
/// # Panics
///
/// Panics if the circuit has more qubits than the buffer.
pub fn apply_circuit(amplitudes: &mut [Complex64], circuit: &Circuit) {
    assert!(
        circuit.qubit_count() <= amplitudes.len().trailing_zeros() as usize,
        "circuit does not fit in the state"
    );
    for gate in circuit.gates() {
        apply_gate(amplitudes, *gate);
    }
}

/// Applies a single-qubit unitary `[[u00, u01], [u10, u11]]` to `target` by
/// the textbook strided butterfly with per-index bounds-checked loads.
pub fn apply_single(amplitudes: &mut [Complex64], target: usize, u: [[Complex64; 2]; 2]) {
    let stride = 1usize << target;
    let dim = amplitudes.len();
    let mut base = 0usize;
    while base < dim {
        for offset in base..base + stride {
            let i0 = offset;
            let i1 = offset + stride;
            let a0 = amplitudes[i0];
            let a1 = amplitudes[i1];
            amplitudes[i0] = u[0][0] * a0 + u[0][1] * a1;
            amplitudes[i1] = u[1][0] * a0 + u[1][1] * a1;
        }
        base += stride * 2;
    }
}

/// Applies CNOT by scanning every basis index and testing both bits.
pub fn apply_cnot(amplitudes: &mut [Complex64], control: usize, target: usize) {
    let cbit = 1usize << control;
    let tbit = 1usize << target;
    for i in 0..amplitudes.len() {
        if i & cbit != 0 && i & tbit == 0 {
            let j = i | tbit;
            amplitudes.swap(i, j);
        }
    }
}

/// Applies CZ by scanning every basis index and testing both bits.
pub fn apply_cz(amplitudes: &mut [Complex64], a: usize, b: usize) {
    let abit = 1usize << a;
    let bbit = 1usize << b;
    for (i, amp) in amplitudes.iter_mut().enumerate() {
        if i & abit != 0 && i & bbit != 0 {
            *amp = -*amp;
        }
    }
}

/// Applies SWAP by scanning every basis index and testing both bits.
pub fn apply_swap(amplitudes: &mut [Complex64], a: usize, b: usize) {
    let abit = 1usize << a;
    let bbit = 1usize << b;
    for i in 0..amplitudes.len() {
        if i & abit != 0 && i & bbit == 0 {
            let j = (i & !abit) | bbit;
            amplitudes.swap(i, j);
        }
    }
}

/// Applies `RZZ(θ)` by computing each index's bit parity and multiplying by
/// `e^{∓iθ/2}`.
pub fn apply_rzz(amplitudes: &mut [Complex64], a: usize, b: usize, theta: f64) {
    let abit = 1usize << a;
    let bbit = 1usize << b;
    let phase_same = Complex64::cis(-theta / 2.0);
    let phase_diff = Complex64::cis(theta / 2.0);
    for (i, amp) in amplitudes.iter_mut().enumerate() {
        let parity = ((i & abit != 0) as u8) ^ ((i & bbit != 0) as u8);
        *amp *= if parity == 0 { phase_same } else { phase_diff };
    }
}

/// Multiplies amplitude `z` by `phases[z]` (an arbitrary diagonal unitary).
pub fn apply_diagonal(amplitudes: &mut [Complex64], phases: &[Complex64]) {
    for (amp, phase) in amplitudes.iter_mut().zip(phases) {
        *amp *= *phase;
    }
}

/// Probability that measuring `qubit` yields `1` (masked lane-order sum).
pub fn prob_one(amplitudes: &[Complex64], qubit: usize) -> f64 {
    let bit = 1usize << qubit;
    lane_sum(amplitudes.len(), |i| {
        if i & bit != 0 {
            amplitudes[i].norm_sqr()
        } else {
            0.0
        }
    })
}

/// Sum of `|amplitude|²` in the fixed lane order.
pub fn norm_sqr(amplitudes: &[Complex64]) -> f64 {
    lane_sum(amplitudes.len(), |i| amplitudes[i].norm_sqr())
}

/// Expectation of Pauli-Z on `qubit` (signed lane-order sum).
pub fn expectation_z(amplitudes: &[Complex64], qubit: usize) -> f64 {
    let bit = 1usize << qubit;
    lane_sum(amplitudes.len(), |i| {
        let sign = if i & bit == 0 { 1.0 } else { -1.0 };
        sign * amplitudes[i].norm_sqr()
    })
}

/// Expectation of `Z_a Z_b` (parity-signed lane-order sum).
pub fn expectation_zz(amplitudes: &[Complex64], a: usize, b: usize) -> f64 {
    let abit = 1usize << a;
    let bbit = 1usize << b;
    lane_sum(amplitudes.len(), |i| {
        let parity = ((i & abit != 0) as u8) ^ ((i & bbit != 0) as u8);
        let sign = if parity == 0 { 1.0 } else { -1.0 };
        sign * amplitudes[i].norm_sqr()
    })
}

/// Expectation of a diagonal observable given its per-basis-state values
/// (lane-order sum of `|amplitude|² · value`, each value widened to `f64`).
pub fn expectation_diagonal<V: Copy + Into<f64>>(amplitudes: &[Complex64], values: &[V]) -> f64 {
    lane_sum(amplitudes.len(), |i| {
        amplitudes[i].norm_sqr() * values[i].into()
    })
}
