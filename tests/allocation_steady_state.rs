//! Steady-state allocation tests for the hot evaluation paths.
//!
//! The workspace-buffer APIs (`expectation_with` and its statevector arm
//! `statevector_expectation_with`, the evaluators' `energy` — depth-mode,
//! edge-local light-cone and every `AutoEvaluator` backend —
//! `probabilities_into`, `sample_counts_with`,
//! `apply_readout_confusion_in_place`) promise that
//! after the first call of a given size *no further allocation happens*,
//! and the noisy trajectory average allocates per call, never per
//! trajectory. At `p = 1` the exact energy is the closed form, which
//! allocates nothing at all, not even on its first call, and a Nelder–Mead
//! session over it allocates the same whatever its iteration budget.
//! That promise is what makes landscape scans allocator-quiet; this file
//! enforces it with a counting `#[global_allocator]` so an accidental
//! per-call `Vec` rebuild (the bug class PR 9 removed) fails a test
//! instead of quietly costing 2^n allocations per grid point.
//!
//! The allocator also sums the bytes it hands out, which pins the size of
//! the QAOA working state: the exact paths evolve only the half of a
//! bit-flip-symmetric state, so the first energy on a fresh workspace must
//! allocate less than one full `2^n`-amplitude state.
//!
//! The counters are **per-thread** (`const`-initialized thread-local
//! `Cell`s, which never allocate themselves): the global allocator hook runs on whatever
//! thread allocates, and libtest's main thread allocates lazily at
//! unpredictable times while it waits for test events — a process-global
//! counter would flake whenever that lands inside a measured window.
//! Everything still runs inside one `#[test]` function so the windows stay
//! strictly ordered.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use graphlib::generators::connected_gnp;
use graphlib::Graph;
use mathkit::parallel::{current_threads, with_threads};
use mathkit::rng::seeded;
use qaoa::circuit::qaoa_circuit;
use qaoa::depth::{compile_maxcut, scheduled_qaoa_circuit};
use qaoa::evaluator::{
    AnalyticP1Evaluator, AutoEvaluator, EdgeLocalEvaluator, EnergyEvaluator,
    ScheduledCircuitEvaluator, StatevectorEvaluator,
};
use qaoa::expectation::QaoaInstance;
use qaoa::optimize::{NelderMeadOptimizer, OptimizeDriver};
use qaoa::params::QaoaParams;
use qsim::density::apply_readout_confusion_in_place;
use qsim::devices::fake_toronto;
use qsim::noise::{NoiseModel, ReadoutError};
use qsim::statevector::{SampleScratch, StateVector, StatevectorWorkspace};
use qsim::trajectory::{noisy_probabilities, noisy_probabilities_seeded, TrajectoryOptions};

struct CountingAllocator;

thread_local! {
    /// Allocations performed by *this* thread since it started.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    /// Bytes those allocations requested (a `realloc` counts its new size).
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

/// Counts one allocation of `bytes` on the calling thread.
fn count(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` and returns how many heap allocations this thread performed.
fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Runs `f` and returns how many bytes this thread's allocations requested.
fn bytes_during(f: impl FnOnce()) -> usize {
    let before = BYTES.with(Cell::get);
    f();
    BYTES.with(Cell::get) - before
}

/// A 20-node ring with five chords: its p = 2 light cones range from 6
/// nodes on the plain arc to 16 around the chords, so one
/// workspace serves cones of mixed sizes (and cut tables of mixed maxima)
/// within every evaluation.
fn mixed_cone_graph() -> Graph {
    let n = 20;
    let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    edges.extend([(0, 3), (0, 5), (10, 13), (10, 16), (3, 16)]);
    Graph::from_edges(n, &edges).unwrap()
}

/// Asserts that `evaluator.energy` allocates nothing once one scratch has
/// served two warm-up calls.
fn assert_energy_allocation_free<E: EnergyEvaluator>(
    evaluator: &E,
    params: &QaoaParams,
    what: &str,
) {
    let mut scratch = evaluator.scratch();
    for i in 0..2 {
        evaluator.energy(&mut scratch, i, params); // warm
    }
    let allocs = allocations_during(|| {
        for i in 0..16 {
            evaluator.energy(&mut scratch, i, params);
        }
    });
    assert_eq!(allocs, 0, "{what} allocated in steady state");
}

#[test]
fn hot_paths_allocate_nothing_in_steady_state() {
    let graph = connected_gnp(8, 0.45, &mut seeded(5)).unwrap();
    let instance = QaoaInstance::new(&graph, 2).unwrap();
    let params = QaoaParams::new(vec![0.7, 0.3], vec![0.4, 0.2]).unwrap();

    // --- expectation_with through a reused workspace ---------------------
    let mut workspace = StatevectorWorkspace::new();
    for _ in 0..2 {
        instance.expectation_with(&mut workspace, &params); // warm the buffers
    }
    let allocs = allocations_during(|| {
        for _ in 0..16 {
            instance.expectation_with(&mut workspace, &params);
        }
    });
    assert_eq!(allocs, 0, "expectation_with allocated in steady state");

    // The mixer walks qubits three per pass; 10 qubits leave one for a
    // single-qubit pass and 11 leave two for a 4-tuple pass. p = 3 runs the
    // later cost layers as well as the folded first one. The statevector
    // arm is named, so p = 1 evolves a state too.
    for (n, gammas, betas) in [
        (10, vec![0.7], vec![0.4]),
        (11, vec![0.7, 0.3, -0.2], vec![0.4, 0.2, 0.9]),
    ] {
        let graph = connected_gnp(n, 0.4, &mut seeded(n as u64)).unwrap();
        let instance = QaoaInstance::new(&graph, gammas.len()).unwrap();
        let params = QaoaParams::new(gammas, betas).unwrap();
        let mut workspace = StatevectorWorkspace::new();
        for _ in 0..2 {
            instance.statevector_expectation_with(&mut workspace, &params); // warm
        }
        let allocs = allocations_during(|| {
            for _ in 0..8 {
                instance.statevector_expectation_with(&mut workspace, &params);
            }
        });
        assert_eq!(
            allocs,
            0,
            "statevector_expectation_with allocated in steady state at {n} qubits, p = {}",
            params.layers()
        );
    }

    // --- p = 1: the closed form allocates nothing, first call included ----
    let p1 = QaoaParams::new(vec![0.7], vec![0.4]).unwrap();
    let instance_p1 = QaoaInstance::new(&graph, 1).unwrap();
    let allocs = allocations_during(|| {
        instance_p1.expectation(&p1);
    });
    assert_eq!(allocs, 0, "a p = 1 QaoaInstance::expectation allocated");
    let exact_p1 = StatevectorEvaluator::from_instance(instance_p1.clone());
    let scheduled_p1 = ScheduledCircuitEvaluator::from_instance(instance_p1);
    let (mut exact_scratch, mut scheduled_scratch) = (exact_p1.scratch(), scheduled_p1.scratch());
    let allocs = allocations_during(|| {
        for i in 0..4 {
            exact_p1.energy(&mut exact_scratch, i, &p1);
            scheduled_p1.energy(&mut scheduled_scratch, i, &p1);
        }
    });
    assert_eq!(allocs, 0, "a p = 1 evaluator energy allocated");

    // --- a p = 1 Nelder–Mead session -------------------------------------
    // Each restart sets up its simplex, its buffers and one parameter set,
    // and the closed form allocates nothing, so the iteration budget adds
    // no allocation. A zero tolerance keeps every restart running to its
    // budget.
    let analytic = AnalyticP1Evaluator::new(&graph).unwrap();
    let session = |max_iters| {
        let optimizer = NelderMeadOptimizer {
            f_tol: 0.0,
            ..Default::default()
        };
        let driver = OptimizeDriver::new(optimizer, 2, max_iters);
        let mut evaluations = 0;
        let allocs = allocations_during(|| {
            evaluations = driver
                .maximize(&analytic, &mut seeded(4))
                .unwrap()
                .evaluations;
        });
        (allocs, evaluations)
    };
    let ((short, short_evals), (long, long_evals)) = (session(60), session(240));
    assert!(long_evals > short_evals + 300, "the sessions stopped early");
    assert_eq!(
        long, short,
        "a Nelder–Mead session allocated per iteration ({short_evals} vs {long_evals} evaluations)"
    );

    // --- the first energy on a fresh workspace: half a state --------------
    // One full 12-qubit state is 2^12 · 16 bytes; the half state, the
    // phase memo and the workspace's other buffers stay below it, whether
    // the workspace starts empty or from the evaluator's pre-sized scratch.
    let n = 12;
    let full_state_bytes = (1usize << n) * 16;
    let big = connected_gnp(n, 0.4, &mut seeded(12)).unwrap();
    let instance12 = QaoaInstance::new(&big, 2).unwrap();
    let bytes = bytes_during(|| {
        instance12.expectation_with(&mut StatevectorWorkspace::new(), &params);
    });
    assert!(
        bytes < full_state_bytes,
        "first energy on a fresh workspace allocated {bytes} bytes, a full state is {full_state_bytes}"
    );
    let exact = StatevectorEvaluator::from_instance(instance12);
    let bytes = bytes_during(|| {
        exact.energy(&mut exact.scratch(), 0, &params);
    });
    assert!(
        bytes < full_state_bytes,
        "StatevectorEvaluator scratch and first energy allocated {bytes} bytes, a full state is {full_state_bytes}"
    );
    assert_energy_allocation_free(&exact, &params, "StatevectorEvaluator::energy");

    // --- the depth-mode evaluator through a reused scratch ---------------
    let scheduled = ScheduledCircuitEvaluator::new(&graph, 2).unwrap();
    assert_energy_allocation_free(&scheduled, &params, "ScheduledCircuitEvaluator::energy");

    // --- the edge-local light-cone evaluator: mixed cone sizes ----------
    let ring = mixed_cone_graph();
    let edge_local = EdgeLocalEvaluator::new(&ring, 2).unwrap();
    assert_energy_allocation_free(&edge_local, &params, "EdgeLocalEvaluator::energy");

    // A workspace that starts empty and grows cone by cone during the first
    // call must be allocation-free from the second call on as well.
    let mut grown = StatevectorWorkspace::new();
    edge_local.energy(&mut grown, 0, &params); // warm
    let allocs = allocations_during(|| {
        for i in 0..8 {
            edge_local.energy(&mut grown, i, &params);
        }
    });
    assert_eq!(
        allocs, 0,
        "EdgeLocalEvaluator::energy allocated in a grown workspace"
    );

    // --- every AutoEvaluator backend --------------------------------------
    let autos = [
        (AutoEvaluator::new(&graph, 2).unwrap(), &params),
        (AutoEvaluator::new(&ring, 1).unwrap(), &p1),
        (AutoEvaluator::new(&ring, 2).unwrap(), &params),
    ];
    assert!(matches!(autos[0].0, AutoEvaluator::Exact(_)));
    assert!(matches!(autos[1].0, AutoEvaluator::Analytic(_)));
    assert!(matches!(autos[2].0, AutoEvaluator::EdgeLocal(_)));
    for (auto, auto_params) in &autos {
        assert_energy_allocation_free(auto, auto_params, "AutoEvaluator::energy");
    }

    // --- probabilities_into through the same workspace -------------------
    let mut probs = Vec::new();
    instance.probabilities_into(&mut workspace, &params, &mut probs); // warm
    let allocs = allocations_during(|| {
        for _ in 0..16 {
            instance.probabilities_into(&mut workspace, &params, &mut probs);
        }
    });
    assert_eq!(allocs, 0, "probabilities_into allocated in steady state");

    // --- measurement sampling through SampleScratch ----------------------
    let sv = StateVector::uniform_superposition(8);
    let mut scratch = SampleScratch::default();
    let mut rng = seeded(11);
    sv.sample_counts_with(256, &mut rng, &mut scratch); // warm
    let allocs = allocations_during(|| {
        for _ in 0..16 {
            sv.sample_counts_with(256, &mut rng, &mut scratch);
        }
    });
    assert_eq!(allocs, 0, "sample_counts_with allocated in steady state");

    // --- readout confusion in place --------------------------------------
    let noise = NoiseModel::new(
        0.002,
        0.02,
        ReadoutError::new(0.02, 0.03),
        100.0,
        90.0,
        35.0,
        300.0,
    );
    let mut dist = sv.probabilities();
    let allocs = allocations_during(|| {
        for _ in 0..16 {
            apply_readout_confusion_in_place(&mut dist, 8, &noise);
        }
    });
    assert_eq!(allocs, 0, "apply_readout_confusion_in_place allocated");

    // --- noisy trajectories ----------------------------------------------
    // Per-circuit work (the noise plan, the amplitude buffer, the average)
    // is set up once per call, so the trajectory count adds no allocation.
    let noise = fake_toronto().noise;
    let circuit = qaoa_circuit(&graph, &params).unwrap();
    let allocs_for = |trajectories| {
        let options = TrajectoryOptions { trajectories };
        allocations_during(|| {
            noisy_probabilities(&circuit, &noise, options, &mut seeded(3));
        })
    };
    assert_eq!(
        allocs_for(8),
        allocs_for(1),
        "noisy_probabilities allocated per trajectory"
    );
    // The same under ×60 noise, where errors interrupt the cost layers'
    // deferred `Rzz` runs (their prefixes gather from per-call scratch) and
    // jumps flush the pending work, on the naive and the depth-scheduled
    // circuit, through both entry points.
    let harsh = fake_toronto().noise.scaled(60.0);
    let scheduled = scheduled_qaoa_circuit(&compile_maxcut(&graph).unwrap(), &params);
    for (circuit, what) in [(&circuit, "naive"), (&scheduled, "depth-scheduled")] {
        let allocs_for = |trajectories| {
            let options = TrajectoryOptions { trajectories };
            allocations_during(|| {
                noisy_probabilities(circuit, &harsh, options, &mut seeded(3));
            })
        };
        assert_eq!(
            allocs_for(24),
            allocs_for(1),
            "noisy_probabilities allocated per trajectory ({what} circuit, x60 noise)"
        );
        with_threads(1, || {
            let allocs_for = |trajectories| {
                let options = TrajectoryOptions { trajectories };
                allocations_during(|| {
                    noisy_probabilities_seeded(circuit, &harsh, options, 3);
                })
            };
            // Both counts fill one chunk of eight trajectories, whose
            // partial sum is one allocation either way.
            assert_eq!(
                allocs_for(8),
                allocs_for(1),
                "noisy_probabilities_seeded allocated per trajectory ({what} circuit, x60 noise)"
            );
        });
    }

    // The noisy instance paths read the `u8` cut table in place: beyond
    // building the circuit they allocate exactly what the trajectory
    // average does.
    let options = TrajectoryOptions { trajectories: 2 };
    let circuit_allocs = allocations_during(|| {
        qaoa_circuit(&graph, &params).unwrap();
    });
    let sequential = allocations_during(|| {
        noisy_probabilities(&circuit, &noise, options, &mut seeded(3));
    });
    let allocs = allocations_during(|| {
        instance.noisy_expectation(&params, &noise, options, &mut seeded(3));
    });
    assert_eq!(allocs, circuit_allocs + sequential, "noisy_expectation");
    with_threads(1, || {
        let seeded_allocs = allocations_during(|| {
            noisy_probabilities_seeded(&circuit, &noise, options, 3);
        });
        let allocs = allocations_during(|| {
            instance.noisy_expectation_seeded(&params, &noise, options, 3);
        });
        assert_eq!(
            allocs,
            circuit_allocs + seeded_allocs,
            "noisy_expectation_seeded"
        );
    });

    // --- the worker-thread count --------------------------------------------
    // Every parallel map asks for it. Outside any `with_threads` scope it
    // falls back to RED_QAOA_THREADS or the machine's parallelism, which is
    // resolved once per process (the cgroup read allocates).
    current_threads(); // warm
    let allocs = allocations_during(|| {
        std::hint::black_box(current_threads());
    });
    assert_eq!(allocs, 0, "current_threads allocated outside with_threads");

    // Sanity check that the counter actually counts: a fresh Vec push must
    // register at least one allocation, or every assertion above is vacuous.
    let allocs = allocations_during(|| {
        let v = vec![ALLOCATIONS.with(Cell::get) as u64];
        std::hint::black_box(&v);
    });
    assert!(allocs >= 1, "counting allocator is not counting");
    let bytes = bytes_during(|| {
        let v = vec![0u8; 100];
        std::hint::black_box(&v);
    });
    assert!(bytes >= 100, "counting allocator is not summing bytes");
}
