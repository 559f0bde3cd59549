//! Density-matrix simulator with Kraus noise channels.
//!
//! The density matrix `ρ` of an `n`-qubit system has `4^n` complex entries,
//! so this backend is intended for the small circuits (≤ [`MAX_DENSITY_QUBITS`]
//! qubits) where exact open-system evolution is affordable — mirroring the
//! role of Qiskit Aer's density-matrix backend in the paper. Larger noisy
//! circuits use the Monte-Carlo [`crate::trajectory`] backend instead.

use crate::circuit::{Circuit, Gate};
use crate::noise::{KrausChannel, NoiseModel};
use crate::statevector::StateVector;
use crate::QsimError;
use mathkit::Complex64;

/// Practical qubit limit for the density-matrix backend.
pub const MAX_DENSITY_QUBITS: usize = 10;

/// Returns the 4×4 matrix of a two-qubit gate in the basis
/// `|q_b q_a⟩ = {00, 01, 10, 11}` where `q_a` is the first operand (least
/// significant bit) and `q_b` the second, or `None` for single-qubit gates.
pub fn two_qubit_matrix(gate: Gate) -> Option<[[Complex64; 4]; 4]> {
    let z = Complex64::zero();
    let o = Complex64::one();
    let mut m = [[z; 4]; 4];
    match gate {
        Gate::Cnot(_, _) => {
            // control = first operand (bit 0), target = second operand (bit 1).
            m[0][0] = o;
            m[2][2] = o;
            m[1][3] = o;
            m[3][1] = o;
        }
        Gate::Cz(_, _) => {
            m[0][0] = o;
            m[1][1] = o;
            m[2][2] = o;
            m[3][3] = Complex64::new(-1.0, 0.0);
        }
        Gate::Swap(_, _) => {
            m[0][0] = o;
            m[1][2] = o;
            m[2][1] = o;
            m[3][3] = o;
        }
        Gate::Rzz(_, _, t) => {
            let same = Complex64::cis(-t / 2.0);
            let diff = Complex64::cis(t / 2.0);
            m[0][0] = same;
            m[1][1] = diff;
            m[2][2] = diff;
            m[3][3] = same;
        }
        _ => return None,
    }
    Some(m)
}

/// A mixed quantum state over `n` qubits stored as a dense `2^n × 2^n`
/// complex matrix in row-major order.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMatrix {
    qubit_count: usize,
    dim: usize,
    data: Vec<Complex64>,
}

impl DensityMatrix {
    /// Creates the pure state `|0…0⟩⟨0…0|`.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::TooManyQubits`] above [`MAX_DENSITY_QUBITS`].
    pub fn new(qubit_count: usize) -> Result<Self, QsimError> {
        if qubit_count > MAX_DENSITY_QUBITS {
            return Err(QsimError::TooManyQubits {
                requested: qubit_count,
                limit: MAX_DENSITY_QUBITS,
            });
        }
        let dim = 1usize << qubit_count;
        let mut data = vec![Complex64::zero(); dim * dim];
        data[0] = Complex64::one();
        Ok(Self {
            qubit_count,
            dim,
            data,
        })
    }

    /// Builds the pure density matrix `|ψ⟩⟨ψ|` of a statevector.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::TooManyQubits`] above [`MAX_DENSITY_QUBITS`].
    pub fn from_statevector(sv: &StateVector) -> Result<Self, QsimError> {
        let mut dm = Self::new(sv.qubit_count())?;
        let amps = sv.amplitudes();
        for r in 0..dm.dim {
            for c in 0..dm.dim {
                dm.data[r * dm.dim + c] = amps[r] * amps[c].conj();
            }
        }
        Ok(dm)
    }

    /// Number of qubits.
    pub fn qubit_count(&self) -> usize {
        self.qubit_count
    }

    /// Element `ρ[r][c]`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn get(&self, r: usize, c: usize) -> Complex64 {
        assert!(r < self.dim && c < self.dim);
        self.data[r * self.dim + c]
    }

    /// Trace of the density matrix (should be 1).
    pub fn trace(&self) -> f64 {
        (0..self.dim).map(|i| self.data[i * self.dim + i].re).sum()
    }

    /// Purity `Tr(ρ²)`; 1 for pure states, `1/2^n` for the maximally mixed
    /// state.
    pub fn purity(&self) -> f64 {
        // Tr(ρ²) = Σ_{rc} ρ[r][c] ρ[c][r]; for Hermitian ρ this is Σ |ρ[r][c]|².
        self.data.iter().map(|z| z.norm_sqr()).sum()
    }

    /// Probability of each computational basis outcome (the diagonal).
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.dim)
            .map(|i| self.data[i * self.dim + i].re.max(0.0))
            .collect()
    }

    /// Expectation value of a diagonal observable given its basis values.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != 2^n`.
    pub fn expectation_diagonal(&self, values: &[f64]) -> f64 {
        assert_eq!(values.len(), self.dim);
        self.probabilities()
            .iter()
            .zip(values)
            .map(|(p, v)| p * v)
            .sum()
    }

    /// Applies a unitary gate: `ρ → U ρ U†`.
    ///
    /// # Panics
    ///
    /// Panics if a gate operand is out of range.
    pub fn apply_gate(&mut self, gate: Gate) {
        if let Some((q, u)) = gate.single_qubit_unitary() {
            assert!(q < self.qubit_count, "qubit out of range");
            self.apply_single_rows(q, &u);
            self.apply_single_cols(q, &u);
        } else if let Some(u) = two_qubit_matrix(gate) {
            let ([a, b], _) = gate.operands();
            assert!(a < self.qubit_count && b < self.qubit_count && a != b);
            self.apply_two_rows(a, b, &u);
            self.apply_two_cols(a, b, &u);
        }
    }

    /// Applies every gate of a circuit in order (no noise).
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more qubits than the state.
    pub fn apply_circuit(&mut self, circuit: &Circuit) {
        assert!(circuit.qubit_count() <= self.qubit_count);
        for gate in circuit.gates() {
            self.apply_gate(*gate);
        }
    }

    /// Applies a single-qubit Kraus channel to `qubit`: `ρ → Σ_k K ρ K†`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    pub fn apply_kraus(&mut self, qubit: usize, channel: &KrausChannel) {
        assert!(qubit < self.qubit_count, "qubit out of range");
        let mut acc = vec![Complex64::zero(); self.data.len()];
        for k in &channel.operators {
            let mut tmp = self.clone();
            tmp.apply_single_rows(qubit, k);
            tmp.apply_single_cols(qubit, k);
            for (a, t) in acc.iter_mut().zip(&tmp.data) {
                *a += *t;
            }
        }
        self.data = acc;
    }

    // Applies `u` to the row index of ρ (i.e. ρ → (U ⊗ I_cols) ρ).
    fn apply_single_rows(&mut self, qubit: usize, u: &[[Complex64; 2]; 2]) {
        let stride = 1usize << qubit;
        let dim = self.dim;
        for col in 0..dim {
            let mut base = 0usize;
            while base < dim {
                for offset in base..base + stride {
                    let r0 = offset;
                    let r1 = offset + stride;
                    let a0 = self.data[r0 * dim + col];
                    let a1 = self.data[r1 * dim + col];
                    self.data[r0 * dim + col] = u[0][0] * a0 + u[0][1] * a1;
                    self.data[r1 * dim + col] = u[1][0] * a0 + u[1][1] * a1;
                }
                base += stride * 2;
            }
        }
    }

    // Applies `u†` to the column index of ρ (i.e. ρ → ρ (U† ⊗ I)).
    fn apply_single_cols(&mut self, qubit: usize, u: &[[Complex64; 2]; 2]) {
        let stride = 1usize << qubit;
        let dim = self.dim;
        for row in 0..dim {
            let mut base = 0usize;
            while base < dim {
                for offset in base..base + stride {
                    let c0 = offset;
                    let c1 = offset + stride;
                    let a0 = self.data[row * dim + c0];
                    let a1 = self.data[row * dim + c1];
                    // ρ U† : new[c] = Σ_k ρ[k] * conj(U[c][k])
                    self.data[row * dim + c0] = a0 * u[0][0].conj() + a1 * u[0][1].conj();
                    self.data[row * dim + c1] = a0 * u[1][0].conj() + a1 * u[1][1].conj();
                }
                base += stride * 2;
            }
        }
    }

    fn apply_two_rows(&mut self, a: usize, b: usize, u: &[[Complex64; 4]; 4]) {
        let abit = 1usize << a;
        let bbit = 1usize << b;
        let dim = self.dim;
        for col in 0..dim {
            for base in 0..dim {
                if base & abit != 0 || base & bbit != 0 {
                    continue;
                }
                let idx = [base, base | abit, base | bbit, base | abit | bbit];
                let old: Vec<Complex64> = idx.iter().map(|&r| self.data[r * dim + col]).collect();
                for (i, &r) in idx.iter().enumerate() {
                    let mut acc = Complex64::zero();
                    for (j, &o) in old.iter().enumerate() {
                        acc += u[i][j] * o;
                    }
                    self.data[r * dim + col] = acc;
                }
            }
        }
    }

    fn apply_two_cols(&mut self, a: usize, b: usize, u: &[[Complex64; 4]; 4]) {
        let abit = 1usize << a;
        let bbit = 1usize << b;
        let dim = self.dim;
        for row in 0..dim {
            for base in 0..dim {
                if base & abit != 0 || base & bbit != 0 {
                    continue;
                }
                let idx = [base, base | abit, base | bbit, base | abit | bbit];
                let old: Vec<Complex64> = idx.iter().map(|&c| self.data[row * dim + c]).collect();
                for (i, &c) in idx.iter().enumerate() {
                    let mut acc = Complex64::zero();
                    for (j, &o) in old.iter().enumerate() {
                        acc += o * u[i][j].conj();
                    }
                    self.data[row * dim + c] = acc;
                }
            }
        }
    }
}

/// Simulates a circuit under a [`NoiseModel`]: after every gate, a
/// depolarizing channel with the model's effective error rate is applied to
/// each participating qubit; readout error is folded into the returned
/// probabilities as an independent per-qubit confusion.
///
/// # Errors
///
/// Returns [`QsimError::TooManyQubits`] if the circuit exceeds
/// [`MAX_DENSITY_QUBITS`].
pub fn simulate_noisy_probabilities(
    circuit: &Circuit,
    noise: &NoiseModel,
) -> Result<Vec<f64>, QsimError> {
    let mut dm = DensityMatrix::new(circuit.qubit_count())?;
    let chan_1q = KrausChannel::depolarizing(noise.effective_error_1q().min(0.75));
    let chan_2q = KrausChannel::depolarizing(noise.effective_error_2q().min(0.75));
    for gate in circuit.gates() {
        dm.apply_gate(*gate);
        let channel = if gate.is_two_qubit() {
            &chan_2q
        } else {
            &chan_1q
        };
        let (qubits, arity) = gate.operands();
        for &q in &qubits[..arity] {
            dm.apply_kraus(q, channel);
        }
    }
    let mut probs = dm.probabilities();
    apply_readout_confusion_in_place(&mut probs, circuit.qubit_count(), noise);
    Ok(probs)
}

/// Applies the per-qubit readout confusion matrix to a probability vector
/// over computational basis states, in place: per qubit, every pair
/// `(p0, p1)` of entries that differ only in that bit becomes
/// `(p0·(1−p01) + p1·p10, p0·p01 + p1·(1−p10))`.
///
/// For probabilities (nonnegative, no `-0`) the bits are those of the
/// scatter loop in [`trajectory::reference`](crate::trajectory::reference),
/// which adds the same products in the same order into a zeroed buffer.
///
/// # Panics
///
/// Panics if `probs.len() != 2^qubit_count`.
pub fn apply_readout_confusion_in_place(probs: &mut [f64], qubit_count: usize, noise: &NoiseModel) {
    assert_eq!(probs.len(), 1usize << qubit_count);
    let p01 = noise.readout.p01;
    let p10 = noise.readout.p10;
    if p01 == 0.0 && p10 == 0.0 {
        return;
    }
    let (stay0, stay1) = (1.0 - p01, 1.0 - p10);
    for q in 0..qubit_count {
        let bit = 1usize << q;
        for block in probs.chunks_exact_mut(2 * bit) {
            let (lo, hi) = block.split_at_mut(bit);
            for (p0, p1) in lo.iter_mut().zip(hi.iter_mut()) {
                let (a, b) = (*p0, *p1);
                *p0 = a * stay0 + b * p10;
                *p1 = a * p01 + b * stay1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::ReadoutError;

    const EPS: f64 = 1e-9;

    fn bell_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.extend([Gate::H(0), Gate::Cnot(0, 1)]).unwrap();
        c
    }

    #[test]
    fn pure_state_evolution_matches_statevector() {
        let mut c = Circuit::new(3);
        c.extend([
            Gate::H(0),
            Gate::Cnot(0, 1),
            Gate::Rx(2, 0.7),
            Gate::Rzz(1, 2, 0.4),
            Gate::Ry(0, -0.3),
            Gate::Cz(0, 2),
            Gate::Swap(1, 2),
        ])
        .unwrap();
        let sv = StateVector::from_circuit(&c);
        let mut dm = DensityMatrix::new(3).unwrap();
        dm.apply_circuit(&c);
        for (p_dm, p_sv) in dm.probabilities().iter().zip(sv.probabilities()) {
            assert!((p_dm - p_sv).abs() < EPS, "{p_dm} vs {p_sv}");
        }
        assert!((dm.trace() - 1.0).abs() < EPS);
        assert!((dm.purity() - 1.0).abs() < EPS);
    }

    #[test]
    fn from_statevector_reproduces_probabilities() {
        let sv = StateVector::from_circuit(&bell_circuit());
        let dm = DensityMatrix::from_statevector(&sv).unwrap();
        for (p_dm, p_sv) in dm.probabilities().iter().zip(sv.probabilities()) {
            assert!((p_dm - p_sv).abs() < EPS);
        }
        assert!((dm.get(0, 3).re - 0.5).abs() < EPS);
    }

    #[test]
    fn depolarizing_noise_reduces_purity() {
        let mut dm = DensityMatrix::new(2).unwrap();
        dm.apply_circuit(&bell_circuit());
        assert!((dm.purity() - 1.0).abs() < EPS);
        dm.apply_kraus(0, &KrausChannel::depolarizing(0.2));
        assert!(dm.purity() < 1.0 - 1e-4);
        assert!((dm.trace() - 1.0).abs() < EPS);
    }

    #[test]
    fn full_depolarizing_gives_maximally_mixed_qubit() {
        let mut dm = DensityMatrix::new(1).unwrap();
        dm.apply_gate(Gate::X(0));
        dm.apply_kraus(0, &KrausChannel::depolarizing(0.75));
        // p = 0.75 depolarizing maps any state to I/2.
        let probs = dm.probabilities();
        assert!((probs[0] - 0.5).abs() < EPS);
        assert!((probs[1] - 0.5).abs() < EPS);
    }

    #[test]
    fn amplitude_damping_pulls_toward_ground() {
        let mut dm = DensityMatrix::new(1).unwrap();
        dm.apply_gate(Gate::X(0));
        dm.apply_kraus(0, &KrausChannel::amplitude_damping(0.3));
        let probs = dm.probabilities();
        assert!((probs[0] - 0.3).abs() < EPS);
        assert!((probs[1] - 0.7).abs() < EPS);
    }

    #[test]
    fn noisy_simulation_is_noisier_than_ideal() {
        let circuit = bell_circuit();
        let noisy = NoiseModel::new(
            0.01,
            0.05,
            ReadoutError::new(0.02, 0.03),
            100.0,
            80.0,
            35.0,
            300.0,
        );
        let probs = simulate_noisy_probabilities(&circuit, &noisy).unwrap();
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        // Ideal Bell state has zero weight on |01> and |10>; noise moves some
        // probability there.
        assert!(probs[1] > 1e-4);
        assert!(probs[2] > 1e-4);
        // Ideal simulation through the same path stays clean.
        let clean = simulate_noisy_probabilities(&circuit, &NoiseModel::ideal()).unwrap();
        assert!(clean[1] < 1e-9);
    }

    #[test]
    fn readout_confusion_preserves_total_probability() {
        let noise = NoiseModel::new(
            0.0,
            0.0,
            ReadoutError::new(0.1, 0.2),
            100.0,
            80.0,
            35.0,
            300.0,
        );
        let mut out = vec![1.0, 0.0, 0.0, 0.0];
        apply_readout_confusion_in_place(&mut out, 2, &noise);
        assert!((out.iter().sum::<f64>() - 1.0).abs() < EPS);
        assert!((out[0] - 0.81).abs() < EPS);
        assert!((out[3] - 0.01).abs() < EPS);
    }

    #[test]
    fn too_many_qubits_is_rejected() {
        assert!(DensityMatrix::new(MAX_DENSITY_QUBITS + 1).is_err());
    }

    #[test]
    fn two_qubit_matrix_orientation_matches_statevector() {
        // CNOT with control = qubit 1, target = qubit 0.
        let mut c = Circuit::new(2);
        c.extend([Gate::X(1), Gate::Cnot(1, 0)]).unwrap();
        let sv = StateVector::from_circuit(&c);
        let mut dm = DensityMatrix::new(2).unwrap();
        dm.apply_circuit(&c);
        for (p_dm, p_sv) in dm.probabilities().iter().zip(sv.probabilities()) {
            assert!((p_dm - p_sv).abs() < EPS);
        }
        // Expect |11> with probability 1.
        assert!((dm.probabilities()[3] - 1.0).abs() < EPS);
    }
}
