//! CI perf smoke: statevector kernel throughput, scalar vs vectorized.
//!
//! For qubit counts 8–20 a routed-QAOA gate workload — H wall, then per
//! layer a **linear swap-network cost layer** (the canonical compilation of
//! a dense problem graph onto nearest-neighbour connectivity: `n` rounds of
//! adjacent `RZZ` + `SWAP`, realizing all `n(n-1)/2` pairs) followed by the
//! `Rx` mixer wall, plus a CNOT/CZ entangler tail so every kernel family
//! the simulator implements is exercised — is timed through the scalar
//! oracle's gate runner (`statevector::reference::apply_circuit` on a raw
//! amplitude buffer) and through `StateVector` (the vectorized kernels),
//! reporting gate-ops/sec per kernel and the speedup. Dense-graph QAOA routed through
//! swap networks is exactly the regime the source paper targets, and its
//! two-qubit-heavy gate mix is where the chunked kernels' quadrant
//! decomposition (touching only affected runs, no per-index bit tests)
//! pays off. The two evolutions are cross-checked bitwise first (the same
//! contract `tests/qsim_kernel_equivalence.rs` proves at scale), and the
//! 16-qubit row must show a **≥ 1.5× vectorized speedup** — the headline
//! acceptance number of the kernel split.
//!
//! An ideal-QAOA section times the p = 1 and p = 2 energies the landscape
//! and optimizer loops spend their time in, at 12, 14 and 16 qubits:
//! points/sec through `QaoaInstance::statevector_expectation_with` (the
//! statevector arm of the exact-energy chooser, named so that p = 1 does not
//! take the closed form: the half-state
//! evolution: the `u8` cost-layer gathers with the uniform start folded in
//! and the grouped structured `Rx` mixer layer, on the `2^(n−1)` amplitudes
//! whose top qubit is clear) against the full `2^n` state with the same
//! cost layers and the mixer applied gate by gate (`Gate::Rx` through the
//! generic butterfly), after checking that every point's energy bits agree.
//!
//! A mixer section records, at 12–16 qubits, the grouped mixer kernel
//! `vectorized::apply_rx_layer` (three qubits per pass, what
//! `StateVector::apply_rx_layer` runs) against `n` per-qubit
//! `vectorized::apply_rx` passes, after checking that both leave the same
//! amplitude bits. It is recorded, not gated.
//!
//! A trajectory section records, at 8, 10 and 12 qubits, noisy p = 1 QAOA
//! trajectories per second under `fake_toronto` noise scaled ×1 and ×10
//! through `trajectory::noisy_probabilities` (the carried norm, structured
//! kernels, and deferred diagonal work: each cost layer's `Rzz` run one
//! gather, no-jump damping factors held per qubit) against the
//! renormalize-every-step oracle `trajectory::reference::noisy_probabilities`,
//! after checking that the two distributions agree within `1e-12`. The ×10
//! rows interrupt most cost-layer runs with Pauli errors and jumps, so the
//! split-run gathers are timed and checked too. It is recorded, not gated.
//!
//! A per-core scaling section then times a 16-node landscape grid through
//! the same statevector arm at one worker and at `min(4, cores)` workers;
//! whenever the machine actually has
//! more than one core, the multi-thread run must be **≥ 2× faster** —
//! finishing the ROADMAP's multi-core story with a real gate instead
//! of a recorded-but-unchecked ratio.
//!
//! Both speedup gates are recorded under `gates` (the scaling gate `null`
//! on one core) and fail the run after the record is written; the bitwise
//! and oracle cross-checks abort at once.
//!
//! Usage: `qsim_smoke [output.json]` (default `BENCH_qsim.json`).

use bench::{bench_graph, StatevectorArm};
use experiments::cli::{available_cores, write_smoke_record, Format::Sci, Gates, Record};
use mathkit::parallel::with_threads;
use mathkit::rng::seeded;
use mathkit::Complex64;
use qaoa::circuit::qaoa_circuit;
use qaoa::expectation::QaoaInstance;
use qaoa::landscape::Landscape;
use qaoa::params::QaoaParams;
use qsim::circuit::{Circuit, Gate};
use qsim::devices::fake_toronto;
use qsim::statevector::{reference, vectorized, CostDiagonal, StateVector, StatevectorWorkspace};
use qsim::trajectory::{self, TrajectoryOptions};
use std::time::Instant;

/// Qubit counts of the throughput rows and repetitions per row (chosen so
/// each measurement runs long enough to time reliably at every size).
const ROWS: [(usize, usize); 4] = [(8, 150), (12, 30), (16, 6), (20, 1)];

/// Routed-QAOA workload: per layer, a linear swap-network cost layer
/// (odd–even rounds of adjacent `RZZ` + `SWAP` realizing every qubit pair
/// on nearest-neighbour connectivity) followed by the `Rx` mixer wall, with
/// a CNOT/CZ entangler tail covering the remaining kernel families.
fn workload(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.push(Gate::H(q)).unwrap();
    }
    for layer in 0..2 {
        for round in 0..n {
            let mut q = round % 2;
            while q + 1 < n {
                let theta = 0.31 + 0.07 * layer as f64 + 0.01 * round as f64;
                c.push(Gate::Rzz(q, q + 1, theta)).unwrap();
                c.push(Gate::Swap(q, q + 1)).unwrap();
                q += 2;
            }
        }
        for q in 0..n {
            c.push(Gate::Rx(q, 0.83 - 0.05 * layer as f64)).unwrap();
        }
    }
    c.push(Gate::Cnot(0, n / 2)).unwrap();
    c.push(Gate::Cz(1, n - 1)).unwrap();
    c
}

/// Runs `evolve` (one evolution from `|0…0⟩`, returning `⟨Z_0⟩`) `reps`
/// times and returns (elapsed seconds, final expectation bits).
fn timed_evolutions(reps: usize, mut evolve: impl FnMut() -> f64) -> (f64, u64) {
    let mut last_bits = 0u64;
    let start = Instant::now();
    for _ in 0..reps {
        last_bits = evolve().to_bits();
    }
    (start.elapsed().as_secs_f64(), last_bits)
}

/// Layer counts and qubit counts of the ideal-QAOA rows, the side of their
/// `(γ, β)` grid and the number of timed repetitions (the median is
/// reported).
const QAOA_LAYERS: [usize; 2] = [1, 2];
const QAOA_ROWS: [usize; 3] = [12, 14, 16];
const QAOA_GRID: usize = 8;
const QAOA_REPS: usize = 3;

/// The `QAOA_GRID × QAOA_GRID` grid of `layers`-layer points: `(γ, β)` over
/// `[0, π) × [0, π/2)` in the first layer (so its first row and column are
/// the `γ = 0` / `β = 0` corners) and a shifted half of it in the second.
fn qaoa_grid(layers: usize) -> Vec<QaoaParams> {
    (0..QAOA_GRID * QAOA_GRID)
        .map(|i| {
            let gamma = (i / QAOA_GRID) as f64 * std::f64::consts::PI / QAOA_GRID as f64;
            let beta = (i % QAOA_GRID) as f64 * std::f64::consts::FRAC_PI_2 / QAOA_GRID as f64;
            let gammas = [gamma, 0.5 * gamma + 0.1];
            let betas = [beta, 0.5 * beta + 0.05];
            QaoaParams::new(gammas[..layers].to_vec(), betas[..layers].to_vec())
                .expect("one or two layers")
        })
        .collect()
}

/// The full-state energy with the mixer applied gate by gate: the same
/// cost layers as `statevector_expectation_with` (the first folded into the uniform
/// start) on all `2^n` amplitudes, then `Gate::Rx(q, 2β)` on each qubit.
fn gate_by_gate_energy(
    cost: &CostDiagonal,
    qubits: usize,
    workspace: &mut StatevectorWorkspace,
    params: &QaoaParams,
) -> f64 {
    for (layer, (gamma, beta)) in params.gammas.iter().zip(&params.betas).enumerate() {
        if layer == 0 {
            workspace.begin_cost_layer(qubits, cost, *gamma);
        } else {
            workspace.apply_cost_layer(cost, *gamma);
        }
        for q in 0..qubits {
            workspace.state_mut().apply_gate(Gate::Rx(q, 2.0 * beta));
        }
    }
    workspace.state().expectation_diagonal(cost.values())
}

/// Qubit counts of the mixer rows and mixer layers per timed repetition.
const MIXER_ROWS: [usize; 5] = [12, 13, 14, 15, 16];
const MIXER_LAYERS: usize = 24;

/// Times `MIXER_LAYERS` mixer layers on a copy of `start`, `QAOA_REPS`
/// times, and returns (median seconds, final amplitude bits).
fn timed_mixer(start: &[Complex64], mut layer: impl FnMut(&mut [Complex64])) -> (f64, Vec<u64>) {
    let mut amplitudes = start.to_vec();
    let mut secs: Vec<f64> = (0..QAOA_REPS)
        .map(|_| {
            amplitudes.copy_from_slice(start);
            let begin = Instant::now();
            for _ in 0..MIXER_LAYERS {
                layer(&mut amplitudes);
            }
            begin.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    let bits = amplitudes
        .iter()
        .flat_map(|a| [a.re.to_bits(), a.im.to_bits()])
        .collect();
    (secs[QAOA_REPS / 2], bits)
}

/// Qubit counts and `fake_toronto` noise scales of the trajectory rows,
/// and trajectories per timed call.
const TRAJECTORY_ROWS: [usize; 3] = [8, 10, 12];
const TRAJECTORY_SCALES: [f64; 2] = [1.0, 10.0];
const TRAJECTORIES: usize = 48;

/// Runs `probabilities` (one averaged noisy distribution from a fixed
/// seed) `QAOA_REPS` times and returns (median seconds, last result).
fn timed_trajectories(mut probabilities: impl FnMut() -> Vec<f64>) -> (f64, Vec<f64>) {
    let mut last = probabilities(); // warm
    let mut secs: Vec<f64> = (0..QAOA_REPS)
        .map(|_| {
            let start = Instant::now();
            last = probabilities();
            start.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    (secs[QAOA_REPS / 2], last)
}

/// Evaluates every grid point `QAOA_REPS` times with `energy` and returns
/// (median seconds per pass, energy bits of the last pass).
fn timed_grid(
    points: &[QaoaParams],
    mut energy: impl FnMut(&QaoaParams) -> f64,
) -> (f64, Vec<u64>) {
    let mut bits = points.iter().map(|p| energy(p).to_bits()).collect(); // warm
    let mut secs: Vec<f64> = (0..QAOA_REPS)
        .map(|_| {
            let start = Instant::now();
            bits = points.iter().map(|p| energy(p).to_bits()).collect();
            start.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    (secs[QAOA_REPS / 2], bits)
}

fn main() {
    let cores = available_cores();
    let mut gates = Gates::default();

    // --- kernel throughput rows ------------------------------------------
    let mut rows = Vec::new();
    let mut speedup_16q = 0.0f64;
    for (n, reps) in ROWS {
        let circuit = workload(n);
        let zero = StateVector::new(n);
        let mut oracle = zero.amplitudes().to_vec();
        let mut scalar = || {
            oracle.copy_from_slice(zero.amplitudes());
            reference::apply_circuit(&mut oracle, &circuit);
            reference::expectation_z(&oracle, 0)
        };
        let mut sv = zero.clone();
        let mut vectorized = || {
            sv.reinitialize_zero(n);
            sv.apply_circuit(&circuit);
            sv.expectation_z(0)
        };
        // Warm both paths once, then time.
        timed_evolutions(1, &mut scalar);
        timed_evolutions(1, &mut vectorized);
        let (scalar_secs, scalar_bits) = timed_evolutions(reps, &mut scalar);
        let (vector_secs, vector_bits) = timed_evolutions(reps, &mut vectorized);
        assert_eq!(
            scalar_bits, vector_bits,
            "expectation bits diverged at {n} qubits"
        );
        // Bitwise cross-check of the final states: both kernels must produce
        // the same amplitudes on this workload or the speedup is meaningless.
        let identical = oracle
            .iter()
            .zip(sv.amplitudes())
            .all(|(a, b)| a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits());
        assert!(identical, "kernels diverged on the {n}-qubit workload");

        let gate_ops = (circuit.gates().len() * reps) as f64;
        let scalar_gops = gate_ops / scalar_secs;
        let vector_gops = gate_ops / vector_secs;
        let speedup = vector_gops / scalar_gops;
        if n == 16 {
            speedup_16q = speedup;
        }
        rows.push(
            Record::new()
                .int("qubits", n)
                .int("gate_ops", gate_ops as u64)
                .fixed("scalar_gate_ops_per_sec", scalar_gops, 1)
                .fixed("vectorized_gate_ops_per_sec", vector_gops, 1)
                .fixed("speedup", speedup, 3),
        );
    }
    gates.check(
        "speedup_16q_ge_1_5x",
        speedup_16q >= 1.5,
        format!("vectorized kernels must be >= 1.5x scalar at 16 qubits, got {speedup_16q:.3}x"),
    );

    // --- ideal-QAOA energy: half state vs full-state gate-by-gate Rx ------
    let mut qaoa_rows = Vec::new();
    for layers in QAOA_LAYERS {
        let grid = qaoa_grid(layers);
        for n in QAOA_ROWS {
            let instance =
                QaoaInstance::new(&bench_graph(n, 16), layers).expect("bench graph is simulable");
            let cost = CostDiagonal::new(instance.cut_table().to_vec());
            let mut workspace = StatevectorWorkspace::with_qubits(n);
            let (layer_secs, layer_bits) = timed_grid(&grid, |p| {
                instance.statevector_expectation_with(&mut workspace, p)
            });
            let (gates_secs, gates_bits) =
                timed_grid(&grid, |p| gate_by_gate_energy(&cost, n, &mut workspace, p));
            assert_eq!(
                layer_bits, gates_bits,
                "p = {layers}: half-state energies diverged from the full-state gate-by-gate \
                 evolution at {n} qubits"
            );
            let layer_pps = grid.len() as f64 / layer_secs;
            let gates_pps = grid.len() as f64 / gates_secs;
            qaoa_rows.push(
                Record::new()
                    .int("layers", layers)
                    .int("qubits", n)
                    .int("points", grid.len())
                    .fixed("gate_by_gate_points_per_sec", gates_pps, 1)
                    .fixed("statevector_expectation_with_points_per_sec", layer_pps, 1)
                    .fixed("speedup", layer_pps / gates_pps, 3),
            );
        }
    }

    // --- mixer: three qubits per pass vs per-qubit passes (recorded) ------
    let (_, u) = Gate::Rx(0, 0.83)
        .single_qubit_unitary()
        .expect("Rx is one-qubit");
    let (c, sn) = (u[0][0].re, u[0][1].im);
    let mut mixer_rows = Vec::new();
    for n in MIXER_ROWS {
        let mut start = StateVector::uniform_superposition(n);
        for q in 0..n {
            start.apply_gate(Gate::Ry(q, 0.1 + 0.05 * q as f64));
        }
        let (grouped_secs, grouped_bits) = timed_mixer(start.amplitudes(), |amplitudes| {
            vectorized::apply_rx_layer(amplitudes, n, c, sn);
        });
        let (passes_secs, passes_bits) = timed_mixer(start.amplitudes(), |amplitudes| {
            for q in 0..n {
                vectorized::apply_rx(amplitudes, q, c, sn);
            }
        });
        assert_eq!(
            grouped_bits, passes_bits,
            "grouped mixer diverged from per-qubit passes at {n} qubits"
        );
        let layers = MIXER_LAYERS as f64;
        mixer_rows.push(
            Record::new()
                .int("qubits", n)
                .int("layers", MIXER_LAYERS)
                .fixed("per_qubit_layers_per_sec", layers / passes_secs, 1)
                .fixed("grouped_layers_per_sec", layers / grouped_secs, 1)
                .fixed("speedup", passes_secs / grouped_secs, 3),
        );
    }

    // --- noisy trajectories: carried norm vs renormalizing oracle ---------
    let options = TrajectoryOptions {
        trajectories: TRAJECTORIES,
    };
    let params = QaoaParams::new(vec![0.7], vec![0.4]).expect("one layer");
    let mut trajectory_rows = Vec::new();
    for (n, scale) in TRAJECTORY_ROWS
        .into_iter()
        .flat_map(|n| TRAJECTORY_SCALES.map(|scale| (n, scale)))
    {
        let noise = fake_toronto().noise.scaled(scale);
        let circuit = qaoa_circuit(&bench_graph(n, 16), &params).expect("bench graph has edges");
        let (fast_secs, fast) = timed_trajectories(|| {
            trajectory::noisy_probabilities(&circuit, &noise, options, &mut seeded(5))
        });
        let (oracle_secs, oracle) = timed_trajectories(|| {
            trajectory::reference::noisy_probabilities(&circuit, &noise, options, &mut seeded(5))
        });
        let gap = fast
            .iter()
            .zip(&oracle)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(
            gap <= 1e-12,
            "trajectories diverged from the oracle at {n} qubits, noise x{scale}: gap {gap:e}"
        );
        let runs = TRAJECTORIES as f64;
        trajectory_rows.push(
            Record::new()
                .int("qubits", n)
                .fixed("noise_scale", scale, 0)
                .int("gates", circuit.gate_count())
                .int("trajectories", TRAJECTORIES)
                .fixed("oracle_trajectories_per_sec", runs / oracle_secs, 1)
                .fixed("trajectories_per_sec", runs / fast_secs, 1)
                .value("max_abs_gap", Sci(3), gap)
                .fixed("speedup", oracle_secs / fast_secs, 3),
        );
    }

    // --- per-core scaling section ----------------------------------------
    let graph = bench_graph(16, 16);
    let evaluator =
        StatevectorArm(QaoaInstance::new(&graph, 1).expect("16-node graph is simulable"));
    let width = 16usize;
    let points = width * width;
    let multi = cores.clamp(2, 4);
    let serial_start = Instant::now();
    let serial = with_threads(1, || Landscape::evaluate(width, &evaluator));
    let serial_secs = serial_start.elapsed().as_secs_f64();
    let multi_start = Instant::now();
    let parallel = with_threads(multi, || Landscape::evaluate(width, &evaluator));
    let multi_secs = multi_start.elapsed().as_secs_f64();
    let identical = serial
        .values
        .iter()
        .zip(&parallel.values)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(identical, "multi-thread landscape diverged from serial");
    let scaling_speedup = serial_secs / multi_secs;
    if cores > 1 {
        gates.check(
            "multi_thread_speedup_ge_2x",
            scaling_speedup >= 2.0,
            format!(
                "with {cores} cores the {multi}-thread landscape must be >= 2x serial, \
                 got {scaling_speedup:.3}x"
            ),
        );
    } else {
        gates.skip("multi_thread_speedup_ge_2x");
    }

    let record = Record::new()
        .rows("rows", rows)
        .fixed("speedup_16q", speedup_16q, 3)
        .rows("ideal_qaoa", qaoa_rows)
        .rows("rx_layer", mixer_rows)
        .rows("trajectory", trajectory_rows)
        .object(
            "scaling",
            Record::new()
                .int("nodes", graph.node_count())
                .int("width", width)
                .int("points", points)
                .int("multi_threads", multi)
                .fixed("serial_points_per_sec", points as f64 / serial_secs, 2)
                .fixed("multi_points_per_sec", points as f64 / multi_secs, 2)
                .fixed("multi_thread_speedup", scaling_speedup, 3),
        )
        .bool("bitwise_identical", identical);
    write_smoke_record("BENCH_qsim.json", "qsim_kernel_smoke", record, gates);
}
