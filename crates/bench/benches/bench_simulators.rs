//! Benchmarks of the quantum-simulation substrate: statevector, density
//! matrix, trajectory noise, and routing. These back the runtime arguments of
//! the methodology section (which simulator backend is used at which size).

use bench::bench_graph;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qaoa::circuit::qaoa_circuit;
use qaoa::params::QaoaParams;
use qsim::circuit::{Circuit, Gate};
use qsim::density::DensityMatrix;
use qsim::devices::heavy_hex_like;
use qsim::noise::{NoiseModel, ReadoutError};
use qsim::statevector::{reference, StateVector};
use qsim::trajectory::{noisy_probabilities, TrajectoryOptions};
use qsim::transpile::{decompose_to_native, route_trivial};

fn ghz_circuit(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.push(Gate::H(0)).unwrap();
    for q in 1..n {
        c.push(Gate::Cnot(q - 1, q)).unwrap();
    }
    c
}

fn bench_statevector(c: &mut Criterion) {
    let mut group = c.benchmark_group("statevector");
    for &n in &[8usize, 12, 16] {
        let circuit = ghz_circuit(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &circuit, |b, circuit| {
            b.iter(|| StateVector::from_circuit(circuit).probabilities())
        });
    }
    group.finish();
}

/// The scalar oracle (`statevector::reference`) vs `StateVector`'s chunked
/// vectorized kernels on the same QAOA evolution — the criterion-grade
/// version of `qsim_smoke`'s rows.
fn bench_statevector_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("statevector_scalar_vs_vectorized");
    for &n in &[12usize, 16] {
        let graph = bench_graph(n, n as u64);
        let params = QaoaParams::new(vec![0.6, 0.3], vec![0.4, 0.2]).unwrap();
        let circuit = qaoa_circuit(&graph, &params).unwrap();
        group.bench_with_input(
            BenchmarkId::new("scalar", n),
            &circuit,
            |b, circuit: &Circuit| {
                let zero = StateVector::new(circuit.qubit_count());
                let mut amplitudes = zero.amplitudes().to_vec();
                b.iter(|| {
                    amplitudes.copy_from_slice(zero.amplitudes());
                    reference::apply_circuit(&mut amplitudes, circuit);
                    reference::expectation_z(&amplitudes, 0)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("vectorized", n),
            &circuit,
            |b, circuit: &Circuit| {
                let mut sv = StateVector::new(circuit.qubit_count());
                b.iter(|| {
                    sv.reinitialize_zero(circuit.qubit_count());
                    sv.apply_circuit(circuit);
                    sv.expectation_z(0)
                })
            },
        );
    }
    group.finish();
}

fn bench_density_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("density_matrix");
    for &n in &[4usize, 6] {
        let circuit = ghz_circuit(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &circuit, |b, circuit| {
            b.iter(|| {
                let mut dm = DensityMatrix::new(circuit.qubit_count()).unwrap();
                dm.apply_circuit(circuit);
                dm.probabilities()
            })
        });
    }
    group.finish();
}

fn bench_trajectory_noise(c: &mut Criterion) {
    let noise = NoiseModel::new(
        1e-3,
        1e-2,
        ReadoutError::new(0.02, 0.03),
        90.0,
        70.0,
        35.0,
        300.0,
    );
    let mut group = c.benchmark_group("trajectory_noise");
    for &n in &[8usize, 10] {
        let graph = bench_graph(n, n as u64);
        let params = QaoaParams::new(vec![0.6], vec![0.4]).unwrap();
        let circuit = qaoa_circuit(&graph, &params).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &circuit, |b, circuit| {
            let mut rng = mathkit::rng::seeded(1);
            b.iter(|| {
                noisy_probabilities(
                    circuit,
                    &noise,
                    TrajectoryOptions { trajectories: 8 },
                    &mut rng,
                )
            })
        });
    }
    group.finish();
}

fn bench_routing(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing_sabre_substitute");
    for &n in &[8usize, 12, 16] {
        let graph = bench_graph(n, 100 + n as u64);
        let params = QaoaParams::new(vec![0.6], vec![0.4]).unwrap();
        let circuit = qaoa_circuit(&graph, &params).unwrap();
        let coupling = heavy_hex_like(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &circuit, |b, circuit| {
            b.iter(|| {
                let routed = route_trivial(circuit, &coupling).unwrap();
                decompose_to_native(&routed.circuit).two_qubit_gate_count()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_statevector,
    bench_statevector_kernels,
    bench_density_matrix,
    bench_trajectory_noise,
    bench_routing
);
criterion_main!(benches);
