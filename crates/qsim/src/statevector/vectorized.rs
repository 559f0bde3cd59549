//! Chunked, autovectorization-friendly statevector kernels.
//!
//! These kernels compute **bit-for-bit** the same results as the scalar
//! loops in [`reference`](super::reference) — the differential suite in
//! `tests/qsim_kernel_equivalence.rs` proves it on random circuits — while
//! restructuring the work so LLVM's autovectorizer gets contiguous,
//! branch-free inner loops:
//!
//! * **Gates touch only the indices they change.** The scalar CNOT/CZ/SWAP/
//!   RZZ loops scan all `2^n` indices and branch on bit tests per index; the
//!   kernels here decompose the index space into the quadrants selected by
//!   the two operand bits (blocks of `2·max_bit`, sub-runs of the low bit)
//!   and walk each affected run contiguously — a quarter of the memory
//!   traffic and no data-dependent branches.
//! * **Butterflies are slice zips.** `apply_single` splits each `2·stride`
//!   block once (`split_at_mut`) and zips the halves, hoisting all index
//!   math and bounds checks out of the inner loop. The `stride == 1` case
//!   walks adjacent pairs directly.
//! * **Reductions keep the fixed lane order.** Sums run over
//!   `chunks_exact(REDUCTION_LANES)` with one accumulator per lane —
//!   exactly the interleaved order the reference module defines — so the
//!   faster reduction produces the *same bits*, not just the same value
//!   up to rounding.
//! * **The QAOA mixer walks three qubits per pass.** [`apply_rx_layer`]
//!   loads each 8-tuple of amplitudes three qubits connect into registers,
//!   runs their butterflies and stores it once; every amplitude still goes
//!   through the butterflies of per-qubit [`apply_rx`] passes, in order.
//! * **Cost layers gather.** [`gather_phases`] and [`apply_phases`] read a
//!   `u8` cost table and a per-value phase memo instead of a `2^n` phase
//!   table.
//! * **Bit-flip-symmetric states are held as half.** [`apply_rx_mirror`]
//!   runs the top qubit's butterflies on the lower half of a symmetric
//!   state, and [`expectation_diagonal_mirror`] / [`expectation_zz_mirror`]
//!   read the full state from it, walking the upper half backwards in the
//!   fixed lane order (the [bit-flip symmetry
//!   contract](super#the-bit-flip-symmetry-contract)).
//! * **Trajectory kernels use gate structure.** [`apply_h`], [`apply_x`],
//!   [`apply_y`], [`apply_z`] and the amplitude-damping steps
//!   [`apply_damping_keep`] / [`apply_damping_jump`] skip the generic
//!   butterfly's products with exact zeros, [`apply_rx_after_keep`] runs a
//!   deferred no-jump step inside the `Rx` pass that follows it,
//!   [`apply_phase_difference`] gathers the rest of a split run of `RZZ`
//!   gates, and [`one_and_norm_sqr`] reads `prob_one` and `norm_sqr` in
//!   one pass.
//!
//! Per-element arithmetic uses the same expression trees as the reference
//! kernels (`u00·a0 + u01·a1`, `re·re + im·im`, …). Rust never contracts
//! `a*b + c` into a fused-multiply-add on its own, so matching the
//! expression shape is sufficient for bitwise identity; see
//! `docs/determinism.md`. The mixer kernels ([`apply_rx`],
//! [`apply_rx_layer`]) and the trajectory gate kernels have no reference
//! twin: a structured butterfly drops the generic butterfly's products with
//! exact zeros, so it matches the reference loop under `==` and in every
//! reduction bit, but a zero amplitude may change sign (the contract in the
//! [module docs](super#the-mixer-layer-contract)).

use super::REDUCTION_LANES;
use mathkit::Complex64;

/// Combines the lane accumulators in the fixed pairwise order.
#[inline]
fn combine(l: [f64; REDUCTION_LANES]) -> f64 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// `u00·a0 + u01·a1` with the exact expression tree of
/// `Complex64::mul` + `Complex64::add` (no FMA contraction).
#[inline]
fn butterfly_row(u0: Complex64, a0: Complex64, u1: Complex64, a1: Complex64) -> Complex64 {
    Complex64::new(
        (u0.re * a0.re - u0.im * a0.im) + (u1.re * a1.re - u1.im * a1.im),
        (u0.re * a0.im + u0.im * a0.re) + (u1.re * a1.im + u1.im * a1.re),
    )
}

/// Applies a single-qubit unitary `[[u00, u01], [u10, u11]]` to `target`:
/// each `2·stride` block is split once, then the halves are walked with all
/// matrix entries hoisted into locals, so the inner loop is two contiguous
/// streams with no per-iteration index arithmetic. The `stride == 1` case
/// walks adjacent pairs directly — the layout where chunking pays most.
pub fn apply_single(amplitudes: &mut [Complex64], target: usize, u: [[Complex64; 2]; 2]) {
    let stride = 1usize << target;
    let (u00, u01, u10, u11) = (u[0][0], u[0][1], u[1][0], u[1][1]);
    if stride == 1 {
        for pair in amplitudes.chunks_exact_mut(2) {
            let a0 = pair[0];
            let a1 = pair[1];
            pair[0] = butterfly_row(u00, a0, u01, a1);
            pair[1] = butterfly_row(u10, a0, u11, a1);
        }
        return;
    }
    for block in amplitudes.chunks_exact_mut(2 * stride) {
        let (lo, hi) = block.split_at_mut(stride);
        for i in 0..stride {
            let a0 = lo[i];
            let a1 = hi[i];
            lo[i] = butterfly_row(u00, a0, u01, a1);
            hi[i] = butterfly_row(u10, a0, u11, a1);
        }
    }
}

/// The coefficients of the structured `Rx(θ)` butterfly: `c = cos(θ/2)` on
/// the diagonal, `i·sn` (`sn = -sin(θ/2)`) off it, and `nsn = -sn`.
#[derive(Clone, Copy)]
struct RxCoefficients {
    c: f64,
    sn: f64,
    nsn: f64,
}

impl RxCoefficients {
    #[inline]
    fn new(c: f64, sn: f64) -> Self {
        // `nsn` is opaque to the optimizer: were it known to be `-sn`, each
        // `+ nsn·x` below would fold back into `- sn·x`, and the real and
        // imaginary parts of a result would take a subtract and an add
        // blended together instead of one shared vector multiply and add.
        // Either form gives the same bits.
        Self {
            c,
            sn,
            nsn: std::hint::black_box(-sn),
        }
    }

    /// One `Rx` butterfly: 8 multiplies instead of the generic 16. It drops
    /// only the generic butterfly's products with the matrix's exact `±0`
    /// entries, so for finite inputs it can differ from [`butterfly_row`]
    /// only in the sign of an exactly-zero component (see
    /// [`StateVector::apply_rx_layer`](super::StateVector::apply_rx_layer)).
    /// `x + nsn·y` is bitwise `x − sn·y`: IEEE negation is exact and
    /// `x − z` is defined as `x + (−z)`.
    #[inline(always)]
    fn pair(self, a0: Complex64, a1: Complex64) -> (Complex64, Complex64) {
        let Self { c, sn, nsn } = self;
        (
            Complex64::new(c * a0.re + nsn * a1.im, c * a0.im + sn * a1.re),
            Complex64::new(c * a1.re + nsn * a0.im, c * a1.im + sn * a0.re),
        )
    }

    /// Every butterfly of an `N`-tuple held in registers (`N` a power of
    /// two, element `j` holding bit pattern `j` of `log2(N)` qubits): all
    /// pairs `(j, j + bit)` of the lowest qubit, then of the next one.
    #[inline(always)]
    fn tuple<const N: usize>(self, x: &mut [Complex64; N]) {
        let mut bit = 1;
        while bit < N {
            for lo in (0..N).filter(|lo| lo & bit == 0) {
                (x[lo], x[lo + bit]) = self.pair(x[lo], x[lo + bit]);
            }
            bit <<= 1;
        }
    }
}

/// Applies `Rx(θ)` to `target`, given `c = cos(θ/2)` and `sn = -sin(θ/2)`,
/// with the same block walk as [`apply_single`] and the structured `Rx`
/// butterfly: each pair becomes
/// `lo = (c·a0.re − sn·a1.im, c·a0.im + sn·a1.re)`,
/// `hi = (c·a1.re − sn·a0.im, c·a1.im + sn·a0.re)`.
pub fn apply_rx(amplitudes: &mut [Complex64], target: usize, c: f64, sn: f64) {
    let rx = RxCoefficients::new(c, sn);
    let stride = 1usize << target;
    if stride == 1 {
        for pair in amplitudes.chunks_exact_mut(2) {
            (pair[0], pair[1]) = rx.pair(pair[0], pair[1]);
        }
        return;
    }
    for block in amplitudes.chunks_exact_mut(2 * stride) {
        let (lo, hi) = block.split_at_mut(stride);
        for (a0, a1) in lo.iter_mut().zip(hi.iter_mut()) {
            (*a0, *a1) = rx.pair(*a0, *a1);
        }
    }
}

/// The no-jump damping step [`apply_damping_keep`] on `target` followed by
/// [`apply_rx`] on it, in one pass: each pair becomes the `Rx` butterfly of
/// `(a0, keep·a1)` — the very products the two passes make, so the bits
/// are theirs.
pub fn apply_rx_after_keep(
    amplitudes: &mut [Complex64],
    target: usize,
    keep: f64,
    c: f64,
    sn: f64,
) {
    let rx = RxCoefficients::new(c, sn);
    for_each_pair(amplitudes, target, |a0, a1| {
        (*a0, *a1) = rx.pair(*a0, a1.scale(keep));
    });
}

/// Applies `Rx(θ)` to the `log2(N)` qubits `low, low + 1, …` in one pass
/// over `N`-tuples (`N` = 4 or 8): each tuple of amplitudes those qubits
/// connect — element `j` holding bit pattern `j` — is loaded into
/// registers, takes the butterflies of its lowest qubit, then the next
/// qubit's, and is stored. Per amplitude that is exactly the sequence of
/// butterflies the per-qubit [`apply_rx`] passes make, so the bits are
/// theirs. For `low = 0` the tuples are contiguous chunks; above, each
/// block of `N·2^low` amplitudes is `N` runs of `2^low` walked in lockstep.
fn apply_rx_group<const N: usize>(amplitudes: &mut [Complex64], low: usize, rx: RxCoefficients) {
    let stride = 1usize << low;
    if stride == 1 {
        for chunk in amplitudes.chunks_exact_mut(N) {
            let x: &mut [Complex64; N] = chunk.try_into().expect("chunks of N");
            let mut tuple = *x;
            rx.tuple(&mut tuple);
            *x = tuple;
        }
        return;
    }
    for block in amplitudes.chunks_exact_mut(N * stride) {
        for i in 0..stride {
            let mut tuple: [Complex64; N] = std::array::from_fn(|j| block[i + j * stride]);
            rx.tuple(&mut tuple);
            for (j, amp) in tuple.into_iter().enumerate() {
                block[i + j * stride] = amp;
            }
        }
    }
}

/// The QAOA mixer layer: `Rx(θ)` on every one of `qubits` qubits, given
/// `c = cos(θ/2)` and `sn = -sin(θ/2)`, three qubits per pass over 8-tuples
/// and then one pass over 4-tuples or one [`apply_rx`] pass for the two or
/// one qubits left over. Every amplitude goes through the same butterflies
/// as in `qubits` per-qubit [`apply_rx`] passes, in the same order, so the
/// amplitude bits are identical to theirs.
pub fn apply_rx_layer(amplitudes: &mut [Complex64], qubits: usize, c: f64, sn: f64) {
    let rx = RxCoefficients::new(c, sn);
    let mut low = 0;
    while qubits - low >= 3 {
        apply_rx_group::<8>(amplitudes, low, rx);
        low += 3;
    }
    match qubits - low {
        2 => apply_rx_group::<4>(amplitudes, low, rx),
        1 => apply_rx(amplitudes, low, c, sn),
        _ => {}
    }
}

/// The top-qubit `Rx(θ)` butterflies of a bit-flip-symmetric state held as
/// its lower half (`half[x] = amp[x]`, `amp[z] = amp[z̄]`): the full pair
/// `(x, x + H)` is `(half[x], half[H−1−x])`, so each pair of mirrored
/// slots takes one butterfly, `(half[x], half[H−1−x]) = pair(half[x],
/// half[H−1−x])`. Its `lo` is the full pair's `lo`, and its `hi` is the
/// mirrored full pair's `lo` (`pair` builds `hi` with the expression tree
/// of `lo` on swapped inputs), so the bits are the full state's. A
/// one-qubit state (`H = 1`) pairs its one slot with itself.
pub fn apply_rx_mirror(half: &mut [Complex64], c: f64, sn: f64) {
    let rx = RxCoefficients::new(c, sn);
    if let [only] = half {
        *only = rx.pair(*only, *only).0;
        return;
    }
    let (lo, hi) = half.split_at_mut(half.len() / 2);
    for (a0, a1) in lo.iter_mut().zip(hi.iter_mut().rev()) {
        (*a0, *a1) = rx.pair(*a0, *a1);
    }
}

/// Walks every amplitude pair `(a0, a1)` that `target` connects (`a0` with
/// the bit clear, `a1` with it set) with the same block split as
/// [`apply_single`].
#[inline(always)]
fn for_each_pair(
    amplitudes: &mut [Complex64],
    target: usize,
    mut f: impl FnMut(&mut Complex64, &mut Complex64),
) {
    let stride = 1usize << target;
    if stride == 1 {
        for pair in amplitudes.chunks_exact_mut(2) {
            let (a0, a1) = pair.split_at_mut(1);
            f(&mut a0[0], &mut a1[0]);
        }
        return;
    }
    for block in amplitudes.chunks_exact_mut(2 * stride) {
        let (lo, hi) = block.split_at_mut(stride);
        for (a0, a1) in lo.iter_mut().zip(hi.iter_mut()) {
            f(a0, a1);
        }
    }
}

/// Walks the runs of amplitudes whose `target` bit is set (the upper half
/// of every `2·2^target` block), alongside the matching runs with it clear.
#[inline(always)]
fn for_each_half(
    amplitudes: &mut [Complex64],
    target: usize,
    mut f: impl FnMut(&mut [Complex64], &mut [Complex64]),
) {
    let stride = 1usize << target;
    for block in amplitudes.chunks_exact_mut(2 * stride) {
        let (lo, hi) = block.split_at_mut(stride);
        f(lo, hi);
    }
}

/// Applies the Hadamard gate to `target` with the structured butterfly
/// `lo = s·a0 + s·a1`, `hi = s·a0 − s·a1` (`s = 1/√2`, per component):
/// 4 multiplies per pair instead of the generic 16. The generic
/// [`apply_single`] with `H`'s matrix adds only products with exact `±0`
/// entries on top (`(−s)·x` is exactly `−(s·x)`), so the results are equal
/// under `==` per component: only the sign of an exact zero can differ.
pub fn apply_h(amplitudes: &mut [Complex64], target: usize) {
    let s = std::f64::consts::FRAC_1_SQRT_2;
    for_each_pair(amplitudes, target, |a0, a1| {
        let (x, y) = (*a0, *a1);
        *a0 = Complex64::new(s * x.re + s * y.re, s * x.im + s * y.im);
        *a1 = Complex64::new(s * x.re - s * y.re, s * x.im - s * y.im);
    });
}

/// Applies Pauli `X` to `target`: the two halves swap. Equal to the generic
/// butterfly under `==` per component (see [`apply_h`]).
pub fn apply_x(amplitudes: &mut [Complex64], target: usize) {
    for_each_half(amplitudes, target, |lo, hi| lo.swap_with_slice(hi));
}

/// Applies Pauli `Y` to `target`: a swap with phase,
/// `lo = −i·a1 = (a1.im, −a1.re)` and `hi = i·a0 = (−a0.im, a0.re)`. Equal
/// to the generic butterfly under `==` per component (see [`apply_h`]).
pub fn apply_y(amplitudes: &mut [Complex64], target: usize) {
    for_each_pair(amplitudes, target, |a0, a1| {
        let (x, y) = (*a0, *a1);
        *a0 = Complex64::new(y.im, -y.re);
        *a1 = Complex64::new(-x.im, x.re);
    });
}

/// Applies Pauli `Z` to `target`: the half with the bit set flips sign.
/// Equal to the generic butterfly under `==` per component (see
/// [`apply_h`]).
pub fn apply_z(amplitudes: &mut [Complex64], target: usize) {
    for_each_half(amplitudes, target, |_, hi| {
        for amp in hi {
            *amp = -*amp;
        }
    });
}

/// The no-jump step of unnormalized amplitude damping on `target`:
/// `diag(1, keep)` with `keep = √(1−γ)`, as one pass that scales the half
/// with the bit set. Equal under `==` per component to the generic
/// butterfly with that matrix, whose other products are with exact zeros.
pub fn apply_damping_keep(amplitudes: &mut [Complex64], target: usize, keep: f64) {
    for_each_half(amplitudes, target, |_, hi| {
        for amp in hi {
            *amp = amp.scale(keep);
        }
    });
}

/// The jump step of unnormalized amplitude damping on `target`: `|0⟩⟨1|`,
/// as one pass that moves the half with the bit set onto the half with it
/// clear and zeroes it. Equal under `==` per component to the generic
/// butterfly with `[[0, 1], [0, 0]]`.
pub fn apply_damping_jump(amplitudes: &mut [Complex64], target: usize) {
    for_each_half(amplitudes, target, |lo, hi| {
        lo.copy_from_slice(hi);
        hi.fill(Complex64::zero());
    });
}

/// Applies CNOT by swapping the two `control = 1` quadrants run by run
/// (touching `2^{n-2}` index pairs, with no per-index bit tests).
pub fn apply_cnot(amplitudes: &mut [Complex64], control: usize, target: usize) {
    let cbit = 1usize << control;
    let tbit = 1usize << target;
    if target < control {
        // Within each upper (control = 1) half, swap the target sub-halves.
        // When the target is bit 0 the sub-halves are adjacent elements, so
        // swap them as pairs instead of degenerate one-element runs.
        if tbit == 1 {
            for block in amplitudes.chunks_exact_mut(2 * cbit) {
                let (_, upper) = block.split_at_mut(cbit);
                for pair in upper.chunks_exact_mut(2) {
                    pair.swap(0, 1);
                }
            }
            return;
        }
        for block in amplitudes.chunks_exact_mut(2 * cbit) {
            let (_, upper) = block.split_at_mut(cbit);
            for sub in upper.chunks_exact_mut(2 * tbit) {
                let (t0, t1) = sub.split_at_mut(tbit);
                t0.swap_with_slice(t1);
            }
        }
    } else {
        // Swap the control = 1 runs of the target = 0 half with the
        // corresponding runs of the target = 1 half.
        for block in amplitudes.chunks_exact_mut(2 * tbit) {
            let (lo, hi) = block.split_at_mut(tbit);
            for (lsub, hsub) in lo
                .chunks_exact_mut(2 * cbit)
                .zip(hi.chunks_exact_mut(2 * cbit))
            {
                let (_, l1) = lsub.split_at_mut(cbit);
                let (_, h1) = hsub.split_at_mut(cbit);
                l1.swap_with_slice(h1);
            }
        }
    }
}

/// Applies CZ by negating the `a = b = 1` quadrant as contiguous runs.
pub fn apply_cz(amplitudes: &mut [Complex64], a: usize, b: usize) {
    let big = 1usize << a.max(b);
    let small = 1usize << a.min(b);
    if small == 1 {
        // Low bit is bit 0: negate the odd elements of each upper half.
        for block in amplitudes.chunks_exact_mut(2 * big) {
            let (_, upper) = block.split_at_mut(big);
            for pair in upper.chunks_exact_mut(2) {
                pair[1] = -pair[1];
            }
        }
        return;
    }
    for block in amplitudes.chunks_exact_mut(2 * big) {
        let (_, upper) = block.split_at_mut(big);
        for sub in upper.chunks_exact_mut(2 * small) {
            for amp in &mut sub[small..] {
                *amp = -*amp;
            }
        }
    }
}

/// Applies SWAP by exchanging the `(1, 0)` and `(0, 1)` quadrants run by
/// run. The pairing is symmetric in the operands, so `a`/`b` order is
/// irrelevant.
pub fn apply_swap(amplitudes: &mut [Complex64], a: usize, b: usize) {
    let big = 1usize << a.max(b);
    let small = 1usize << a.min(b);
    if small == 1 {
        // Low bit is bit 0: odd elements of the `big = 0` half exchange with
        // even elements of the `big = 1` half, pair by adjacent pair.
        for block in amplitudes.chunks_exact_mut(2 * big) {
            let (lo, hi) = block.split_at_mut(big);
            for (lpair, hpair) in lo.chunks_exact_mut(2).zip(hi.chunks_exact_mut(2)) {
                std::mem::swap(&mut lpair[1], &mut hpair[0]);
            }
        }
        return;
    }
    for block in amplitudes.chunks_exact_mut(2 * big) {
        let (lo, hi) = block.split_at_mut(big);
        for (lsub, hsub) in lo
            .chunks_exact_mut(2 * small)
            .zip(hi.chunks_exact_mut(2 * small))
        {
            // `small = 1` runs of the `big = 0` half ↔ `small = 0` runs of
            // the `big = 1` half.
            let (_, l1) = lsub.split_at_mut(small);
            let (h0, _) = hsub.split_at_mut(small);
            l1.swap_with_slice(h0);
        }
    }
}

/// Multiplies a contiguous run by one fixed phase.
#[inline]
fn scale_run(run: &mut [Complex64], phase: Complex64) {
    for amp in run {
        *amp *= phase;
    }
}

/// Applies `RZZ(θ)`: each bit-pair quadrant is a set of contiguous runs
/// multiplied by one precomputed phase (`e^{-iθ/2}` for equal bits,
/// `e^{+iθ/2}` for unequal), with the parity branch hoisted out of the
/// amplitude loop entirely.
pub fn apply_rzz(amplitudes: &mut [Complex64], a: usize, b: usize, theta: f64) {
    let big = 1usize << a.max(b);
    let small = 1usize << a.min(b);
    let phase_same = Complex64::cis(-theta / 2.0);
    let phase_diff = Complex64::cis(theta / 2.0);
    if small == 1 {
        // Low bit is bit 0: phases alternate element-by-element, so walk
        // adjacent pairs with both phases hoisted instead of degenerate
        // one-element runs.
        for block in amplitudes.chunks_exact_mut(2 * big) {
            let (lo, hi) = block.split_at_mut(big);
            for pair in lo.chunks_exact_mut(2) {
                pair[0] *= phase_same;
                pair[1] *= phase_diff;
            }
            for pair in hi.chunks_exact_mut(2) {
                pair[0] *= phase_diff;
                pair[1] *= phase_same;
            }
        }
        return;
    }
    for block in amplitudes.chunks_exact_mut(2 * big) {
        let (lo, hi) = block.split_at_mut(big);
        for sub in lo.chunks_exact_mut(2 * small) {
            let (s0, s1) = sub.split_at_mut(small);
            scale_run(s0, phase_same); // big = 0, small = 0 → parity 0
            scale_run(s1, phase_diff); // big = 0, small = 1 → parity 1
        }
        for sub in hi.chunks_exact_mut(2 * small) {
            let (s0, s1) = sub.split_at_mut(small);
            scale_run(s0, phase_diff); // big = 1, small = 0 → parity 1
            scale_run(s1, phase_same); // big = 1, small = 1 → parity 0
        }
    }
}

/// Multiplies amplitude `z` by `phases[z]` — a single contiguous zip.
pub fn apply_diagonal(amplitudes: &mut [Complex64], phases: &[Complex64]) {
    for (amp, phase) in amplitudes.iter_mut().zip(phases) {
        *amp *= *phase;
    }
}

/// Sets amplitude `z` to `memo[table[z]]`: a cost layer folded into the
/// state preparation, one gather and no fill pass.
pub fn gather_phases(amplitudes: &mut [Complex64], table: &[u8], memo: &[Complex64; 256]) {
    for (amp, &k) in amplitudes.iter_mut().zip(table) {
        *amp = memo[usize::from(k)];
    }
}

/// Multiplies amplitude `z` by `memo[table[z]]` — [`apply_diagonal`] with
/// the phase gathered from a per-value memo instead of a `2^n` table.
pub fn apply_phases(amplitudes: &mut [Complex64], table: &[u8], memo: &[Complex64; 256]) {
    for (amp, &k) in amplitudes.iter_mut().zip(table) {
        *amp *= memo[usize::from(k)];
    }
}

/// Multiplies amplitude `z` by `memo[upper[z] − lower[z]]`: [`apply_phases`]
/// with the table held as the difference of two tables (`upper ≥ lower`
/// entrywise), such as two prefix counts of one run of gates.
pub fn apply_phase_difference(
    amplitudes: &mut [Complex64],
    upper: &[u8],
    lower: &[u8],
    memo: &[Complex64; 256],
) {
    for ((amp, &hi), &lo) in amplitudes.iter_mut().zip(upper).zip(lower) {
        *amp *= memo[usize::from(hi - lo)];
    }
}

/// Probability that measuring `qubit` yields `1` — the masked sum of
/// [`one_and_norm_sqr`].
pub fn prob_one(amplitudes: &[Complex64], qubit: usize) -> f64 {
    one_and_norm_sqr(amplitudes, qubit).0
}

/// `(prob_one(qubit), norm_sqr)` of an unnormalized state in one read pass:
/// the masked sum `Σ_{bit set} |a|²` and the full sum `Σ |a|²`, each in the
/// fixed lane order (the full sum with the bits of [`norm_sqr`]).
///
/// For `qubit ≥ 3` every lane chunk lies wholly inside one half, so the
/// masked lanes skip the chunks with the bit clear instead of adding
/// `0.0` to them — the same bits, since every lane holds a sum of squares
/// and `x + 0.0 == x` for such `x`.
pub fn one_and_norm_sqr(amplitudes: &[Complex64], qubit: usize) -> (f64, f64) {
    let bit = 1usize << qubit;
    let mut one = [0.0f64; REDUCTION_LANES];
    let mut all = [0.0f64; REDUCTION_LANES];
    let chunks = amplitudes.chunks_exact(REDUCTION_LANES);
    let tail = chunks.remainder();
    let main = amplitudes.len() - tail.len();
    let add = |lanes: &mut [f64; REDUCTION_LANES], chunk: &[Complex64]| {
        for (lane, a) in lanes.iter_mut().zip(chunk) {
            *lane += a.norm_sqr();
        }
    };
    if bit >= REDUCTION_LANES && 2 * bit <= main {
        for block in amplitudes.chunks_exact(2 * bit) {
            let (lo, hi) = block.split_at(bit);
            for chunk in lo.chunks_exact(REDUCTION_LANES) {
                add(&mut all, chunk);
            }
            for chunk in hi.chunks_exact(REDUCTION_LANES) {
                add(&mut all, chunk);
                add(&mut one, chunk);
            }
        }
    } else {
        // `qubit < 3`, or a qubit the state does not have (nothing is set).
        let set: [bool; REDUCTION_LANES] = std::array::from_fn(|j| j & bit != 0);
        for chunk in chunks {
            for (j, a) in chunk.iter().enumerate() {
                let p = a.norm_sqr();
                all[j] += p;
                one[j] += if set[j] { p } else { 0.0 };
            }
        }
    }
    let (mut one_total, mut all_total) = (combine(one), combine(all));
    for (j, a) in tail.iter().enumerate() {
        let p = a.norm_sqr();
        one_total += if (main + j) & bit != 0 { p } else { 0.0 };
        all_total += p;
    }
    (one_total, all_total)
}

/// Sum of `|amplitude|²` — chunked sum in the fixed lane order.
pub fn norm_sqr(amplitudes: &[Complex64]) -> f64 {
    let mut lanes = [0.0f64; REDUCTION_LANES];
    let chunks = amplitudes.chunks_exact(REDUCTION_LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (lane, a) in lanes.iter_mut().zip(chunk) {
            *lane += a.norm_sqr();
        }
    }
    let mut total = combine(lanes);
    for a in tail {
        total += a.norm_sqr();
    }
    total
}

/// Expectation of Pauli-Z on `qubit` — signed chunked sum in the fixed lane
/// order.
pub fn expectation_z(amplitudes: &[Complex64], qubit: usize) -> f64 {
    let bit = 1usize << qubit;
    let mut lanes = [0.0f64; REDUCTION_LANES];
    let chunks = amplitudes.chunks_exact(REDUCTION_LANES);
    let tail = chunks.remainder();
    let main = amplitudes.len() - tail.len();
    for (c, chunk) in chunks.enumerate() {
        let base = c * REDUCTION_LANES;
        for (j, (lane, a)) in lanes.iter_mut().zip(chunk).enumerate() {
            let sign = if (base + j) & bit == 0 { 1.0 } else { -1.0 };
            *lane += sign * a.norm_sqr();
        }
    }
    let mut total = combine(lanes);
    for (j, a) in tail.iter().enumerate() {
        let sign = if (main + j) & bit == 0 { 1.0 } else { -1.0 };
        total += sign * a.norm_sqr();
    }
    total
}

/// Expectation of `Z_a Z_b` — parity-signed chunked sum in the fixed lane
/// order.
pub fn expectation_zz(amplitudes: &[Complex64], a: usize, b: usize) -> f64 {
    let abit = 1usize << a;
    let bbit = 1usize << b;
    let mut lanes = [0.0f64; REDUCTION_LANES];
    let chunks = amplitudes.chunks_exact(REDUCTION_LANES);
    let tail = chunks.remainder();
    let main = amplitudes.len() - tail.len();
    let sign_of = |i: usize, amp: &Complex64| {
        let parity = ((i & abit != 0) as u8) ^ ((i & bbit != 0) as u8);
        let sign = if parity == 0 { 1.0 } else { -1.0 };
        sign * amp.norm_sqr()
    };
    for (c, chunk) in chunks.enumerate() {
        let base = c * REDUCTION_LANES;
        for (j, (lane, amp)) in lanes.iter_mut().zip(chunk).enumerate() {
            *lane += sign_of(base + j, amp);
        }
    }
    let mut total = combine(lanes);
    for (j, amp) in tail.iter().enumerate() {
        total += sign_of(main + j, amp);
    }
    total
}

/// Expectation of a diagonal observable — chunked zip sum in the fixed lane
/// order. Values of any type that widens exactly to `f64` (the `u8` cost
/// tables, `f64` itself) give the bits of the same table held as `f64`.
pub fn expectation_diagonal<V: Copy + Into<f64>>(amplitudes: &[Complex64], values: &[V]) -> f64 {
    let mut lanes = [0.0f64; REDUCTION_LANES];
    let achunks = amplitudes.chunks_exact(REDUCTION_LANES);
    let vchunks = values.chunks_exact(REDUCTION_LANES);
    let atail = achunks.remainder();
    let vtail = vchunks.remainder();
    for (ac, vc) in achunks.zip(vchunks) {
        for ((lane, a), v) in lanes.iter_mut().zip(ac).zip(vc) {
            *lane += a.norm_sqr() * (*v).into();
        }
    }
    let mut total = combine(lanes);
    for (a, v) in atail.iter().zip(vtail) {
        total += a.norm_sqr() * (*v).into();
    }
    total
}

/// The full state of a mirrored half too short to fill one lane chunk on
/// its own (`half.len() < REDUCTION_LANES`, so at most three qubits),
/// unfolded on the stack: `full[z] = half[z]` below `H`, `half[2H−1−z]`
/// from `H` on. Returns the buffer and the full length `2H`.
fn unfold_short(half: &[Complex64]) -> ([Complex64; REDUCTION_LANES], usize) {
    let len = 2 * half.len();
    let mut full = [Complex64::zero(); REDUCTION_LANES];
    for (z, amp) in full[..len].iter_mut().enumerate() {
        *amp = half[z.min(len - 1 - z)];
    }
    (full, len)
}

/// [`expectation_diagonal`] of the bit-flip-symmetric state whose lower
/// half is `half` (`values` holds all `2H` entries): the same terms
/// `|amp[z]|²·values[z]` in the same lane order, with `amp[z]` read as
/// `half[2H−1−z]` for `z ≥ H` — the upper half walks `half` backwards, one
/// reversed chunk at a time — so the bits are those of the full state.
/// Halves shorter than a lane chunk unfold onto the stack first.
pub fn expectation_diagonal_mirror<V: Copy + Into<f64>>(half: &[Complex64], values: &[V]) -> f64 {
    let h = half.len();
    if h % REDUCTION_LANES != 0 {
        let (full, len) = unfold_short(half);
        return expectation_diagonal(&full[..len], values);
    }
    let (lower, upper) = values.split_at(h);
    let mut lanes = [0.0f64; REDUCTION_LANES];
    for (ac, vc) in half
        .chunks_exact(REDUCTION_LANES)
        .zip(lower.chunks_exact(REDUCTION_LANES))
    {
        for ((lane, a), v) in lanes.iter_mut().zip(ac).zip(vc) {
            *lane += a.norm_sqr() * (*v).into();
        }
    }
    for (ac, vc) in half
        .rchunks_exact(REDUCTION_LANES)
        .zip(upper.chunks_exact(REDUCTION_LANES))
    {
        for ((lane, a), v) in lanes.iter_mut().zip(ac.iter().rev()).zip(vc) {
            *lane += a.norm_sqr() * (*v).into();
        }
    }
    combine(lanes)
}

/// [`expectation_zz`] of the bit-flip-symmetric state whose lower half is
/// `half`: each term's sign comes from the full index `z` and its
/// amplitude from `half[z]` or, for `z ≥ H`, `half[2H−1−z]`, in the same
/// lane order, so the bits are those of the full state.
pub fn expectation_zz_mirror(half: &[Complex64], a: usize, b: usize) -> f64 {
    let h = half.len();
    if h % REDUCTION_LANES != 0 {
        let (full, len) = unfold_short(half);
        return expectation_zz(&full[..len], a, b);
    }
    let abit = 1usize << a;
    let bbit = 1usize << b;
    let sign_of = |i: usize, amp: &Complex64| {
        let parity = ((i & abit != 0) as u8) ^ ((i & bbit != 0) as u8);
        let sign = if parity == 0 { 1.0 } else { -1.0 };
        sign * amp.norm_sqr()
    };
    let mut lanes = [0.0f64; REDUCTION_LANES];
    for (c, chunk) in half.chunks_exact(REDUCTION_LANES).enumerate() {
        let base = c * REDUCTION_LANES;
        for (j, (lane, amp)) in lanes.iter_mut().zip(chunk).enumerate() {
            *lane += sign_of(base + j, amp);
        }
    }
    for (c, chunk) in half.rchunks_exact(REDUCTION_LANES).enumerate() {
        let base = h + c * REDUCTION_LANES;
        for (j, (lane, amp)) in lanes.iter_mut().zip(chunk.iter().rev()).enumerate() {
            *lane += sign_of(base + j, amp);
        }
    }
    combine(lanes)
}
