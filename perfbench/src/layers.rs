//! Outside-in layer tracing: a timing [`EnergyEvaluator`] decorator and the
//! per-layer accumulators the traced replica fills.
//!
//! Each layer is named after the module whose public functions the replica
//! calls. Busy time is wall time inside those calls; a layer's self time is
//! its busy time minus the time of the evaluator calls nested inside it.

use crate::stats::{median, percentile, sorted};
use qaoa::evaluator::EnergyEvaluator;
use qaoa::params::QaoaParams;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Runs `f` and adds its wall time, in milliseconds, to `acc`.
pub fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += ms_since(start);
    out
}

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// An [`EnergyEvaluator`] that forwards every call and counts calls, wall
/// time and a caller-supplied work unit per call. The counters are relaxed
/// atomics (statistics only), so the wrapper stays `Sync` whenever the
/// wrapped evaluator is and can drive parallel landscape scans.
#[derive(Debug)]
pub struct Timed<E> {
    inner: E,
    work_per_call: u64,
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl<E> Timed<E> {
    /// Wraps `inner`; each call is counted as `work_per_call` work units.
    pub fn new(inner: E, work_per_call: u64) -> Self {
        Self {
            inner,
            work_per_call,
            calls: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        }
    }

    /// Calls forwarded so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Work units forwarded so far (`calls × work_per_call`).
    pub fn work(&self) -> u64 {
        self.calls() * self.work_per_call
    }

    /// Wall time spent inside the wrapped evaluator, in milliseconds.
    pub fn busy_ms(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-6
    }
}

impl<E: EnergyEvaluator> EnergyEvaluator for Timed<E> {
    type Scratch = E::Scratch;

    fn layers(&self) -> usize {
        self.inner.layers()
    }

    fn scratch(&self) -> Self::Scratch {
        self.inner.scratch()
    }

    fn energy(&self, scratch: &mut Self::Scratch, index: u64, params: &QaoaParams) -> f64 {
        let start = Instant::now();
        let value = self.inner.energy(scratch, index, params);
        let nanos = start.elapsed().as_nanos() as u64;
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        value
    }
}

/// Amplitude updates of one exact `p`-layer QAOA energy on `n` qubits,
/// computed from sizes: per layer one phase pass plus one pass per mixer
/// qubit over all `2^n` amplitudes, then one expectation pass.
pub fn statevector_amp_updates(qubits: usize, layers: usize) -> u64 {
    ((layers * (qubits + 1) + 1) as u64) << qubits
}

/// Every per-layer accumulator of one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    pub reduction_calls: u64,
    pub reduction_ms: f64,
    pub reduction_miss_ms: Vec<f64>,
    pub warm_kept: u64,
    pub warm_reverted: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub cache_bytes: u64,
    pub cache_ms: f64,
    pub cache_hit_us: Vec<f64>,
    pub persist_replay_ms: f64,
    pub persist_records: u64,
    pub persist_store_bytes: u64,
    pub depth_calls: u64,
    pub depth_ms: f64,
    pub depth_rounds: Vec<f64>,
    pub depth_naive_over_rounds: Vec<f64>,
    pub evaluator_setup_calls: u64,
    pub evaluator_setup_ms: f64,
    pub statevector_calls: u64,
    pub statevector_ms: f64,
    pub statevector_amp_updates: u64,
    pub scheduled_calls: u64,
    pub scheduled_ms: f64,
    pub trajectory_calls: u64,
    pub trajectory_count: u64,
    pub trajectory_ms: f64,
    pub landscape_scans: u64,
    pub landscape_points: u64,
    pub landscape_ms: f64,
    pub landscape_self_ms: f64,
    pub optimizer_sessions: u64,
    pub optimizer_evals_reduced: u64,
    pub optimizer_evals_full: u64,
    pub optimizer_ms: f64,
    pub optimizer_self_ms: f64,
    pub rescore_calls: u64,
    pub rescore_ms: f64,
    pub ground_truth_calls: u64,
    pub ground_truth_ms: f64,
    pub throughput_calls: u64,
    pub throughput_ms: f64,
}

/// Names and units of every per-layer metric, in print order. The order and
/// names must match [`Layers::metrics`] and `BENCHMARK.json`.
pub const LAYER_METRICS: [(&str, &str); 49] = [
    ("reduction.calls", "count"),
    ("reduction.busy_ms", "ms"),
    ("reduction.miss_ms_p50", "ms"),
    ("reduction.miss_ms_tail", "ms"),
    ("reduction.warm_kept", "count"),
    ("reduction.warm_reverted", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.bytes", "bytes"),
    ("cache.busy_ms", "ms"),
    ("cache.hit_us_p50", "us"),
    ("persist.replay_ms", "ms"),
    ("persist.records_replayed", "count"),
    ("persist.store_bytes", "bytes"),
    ("depth.calls", "count"),
    ("depth.busy_ms", "ms"),
    ("depth.rounds_mean", "rounds"),
    ("depth.naive_over_rounds", "ratio"),
    ("evaluator.setup_calls", "count"),
    ("evaluator.setup_ms", "ms"),
    ("statevector.calls", "count"),
    ("statevector.busy_ms", "ms"),
    ("statevector.amp_updates", "computed"),
    ("statevector.ns_per_amp_update", "ns"),
    ("scheduled.calls", "count"),
    ("scheduled.busy_ms", "ms"),
    ("scheduled.ns_per_point", "ns"),
    ("trajectory.calls", "count"),
    ("trajectory.trajectories", "count"),
    ("trajectory.busy_ms", "ms"),
    ("trajectory.ns_per_trajectory", "ns"),
    ("landscape.scans", "count"),
    ("landscape.points", "count"),
    ("landscape.busy_ms", "ms"),
    ("landscape.self_ms", "ms"),
    ("optimizer.sessions", "count"),
    ("optimizer.evals_reduced", "count"),
    ("optimizer.evals_full", "count"),
    ("optimizer.busy_ms", "ms"),
    ("optimizer.self_ms", "ms"),
    ("rescore.calls", "count"),
    ("rescore.busy_ms", "ms"),
    ("ground_truth.calls", "count"),
    ("ground_truth.busy_ms", "ms"),
    ("throughput.calls", "count"),
    ("throughput.busy_ms", "ms"),
    ("engine.self_ms", "ms"),
];

/// The trace's own metrics, printed after [`LAYER_METRICS`].
pub const TRACE_METRICS: [(&str, &str); 3] = [
    ("trace.layer_sum_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.replica_match", "bool"),
];

/// `num / den`, or `0` when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Layers {
    /// Sum of every layer's self time, in milliseconds. Nested evaluator
    /// time is counted once, in the evaluator's own layer.
    pub fn self_ms_sum(&self) -> f64 {
        self.reduction_ms
            + self.cache_ms
            + self.depth_ms
            + self.evaluator_setup_ms
            + self.statevector_ms
            + self.scheduled_ms
            + self.trajectory_ms
            + self.landscape_self_ms
            + self.optimizer_self_ms
            + self.rescore_ms
            + self.ground_truth_ms
            + self.throughput_ms
    }

    /// Every per-layer and trace metric value, in [`LAYER_METRICS`] then
    /// [`TRACE_METRICS`] order, given the untraced wall time of the same
    /// requests, the replica's own wall time and whether every replica
    /// output matched the engine's bitwise.
    pub fn metrics(&self, untraced_ms: f64, replica_ms: f64, replica_match: bool) -> Vec<f64> {
        let p50 = |xs: &[f64]| if xs.is_empty() { 0.0 } else { median(xs) };
        let miss_tail = {
            let s = sorted(&self.reduction_miss_ms);
            crate::stats::tail_percentile(s.len()).map_or(0.0, |pct| percentile(&s, pct))
        };
        let layer_sum = self.self_ms_sum();
        let lookups = (self.cache_hits + self.cache_misses) as f64;
        vec![
            self.reduction_calls as f64,
            self.reduction_ms,
            p50(&self.reduction_miss_ms),
            miss_tail,
            self.warm_kept as f64,
            self.warm_reverted as f64,
            self.cache_hits as f64,
            self.cache_misses as f64,
            ratio(self.cache_hits as f64, lookups),
            self.cache_evictions as f64,
            self.cache_bytes as f64,
            self.cache_ms,
            p50(&self.cache_hit_us),
            self.persist_replay_ms,
            self.persist_records as f64,
            self.persist_store_bytes as f64,
            self.depth_calls as f64,
            self.depth_ms,
            crate::stats::mean(&self.depth_rounds),
            crate::stats::mean(&self.depth_naive_over_rounds),
            self.evaluator_setup_calls as f64,
            self.evaluator_setup_ms,
            self.statevector_calls as f64,
            self.statevector_ms,
            self.statevector_amp_updates as f64,
            ratio(
                self.statevector_ms * 1e6,
                self.statevector_amp_updates as f64,
            ),
            self.scheduled_calls as f64,
            self.scheduled_ms,
            ratio(self.scheduled_ms * 1e6, self.scheduled_calls as f64),
            self.trajectory_calls as f64,
            self.trajectory_count as f64,
            self.trajectory_ms,
            ratio(self.trajectory_ms * 1e6, self.trajectory_count as f64),
            self.landscape_scans as f64,
            self.landscape_points as f64,
            self.landscape_ms,
            self.landscape_self_ms,
            self.optimizer_sessions as f64,
            self.optimizer_evals_reduced as f64,
            self.optimizer_evals_full as f64,
            self.optimizer_ms,
            self.optimizer_self_ms,
            self.rescore_calls as f64,
            self.rescore_ms,
            self.ground_truth_calls as f64,
            self.ground_truth_ms,
            self.throughput_calls as f64,
            self.throughput_ms,
            untraced_ms - layer_sum,
            ratio(layer_sum, untraced_ms),
            ratio(100.0 * (replica_ms - untraced_ms), untraced_ms),
            if replica_match { 1.0 } else { 0.0 },
        ]
    }

    /// Folds one exact evaluator's counters into the statevector layer.
    pub fn add_statevector<E>(&mut self, timed: &Timed<E>) {
        self.statevector_calls += timed.calls();
        self.statevector_ms += timed.busy_ms();
        self.statevector_amp_updates += timed.work();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let names: Vec<&str> = LAYER_METRICS
            .iter()
            .chain(&TRACE_METRICS)
            .map(|(name, _)| *name)
            .collect();
        for name in &names {
            assert!(crate::metrics::valid_name(name), "{name}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn metrics_vector_covers_every_name() {
        let values = Layers::default().metrics(1.0, 1.0, true);
        assert_eq!(values.len(), LAYER_METRICS.len() + TRACE_METRICS.len());
        assert!(values.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn amp_updates_count_phase_mixer_and_expectation_passes() {
        // p = 1 on 3 qubits: (1 · (3 + 1) + 1) passes over 8 amplitudes.
        assert_eq!(statevector_amp_updates(3, 1), 40);
    }
}
