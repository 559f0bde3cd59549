//! Deterministic chunked parallel mapping.
//!
//! The landscape scans, random-pool sweeps, and trajectory averages of the
//! Red-QAOA experiments evaluate thousands of *independent* points. This
//! module provides the concurrency primitives the workspace uses for all
//! of them, and the engine's batches of jobs too: [`parallel_map_indexed`],
//! a scoped-thread fan-out over a range of indices with a per-thread
//! scratch value.
//!
//! # Determinism contract
//!
//! `parallel_map_indexed(len, make_scratch, f)` returns **bitwise-identical**
//! results for every thread count — including the serial path — provided the
//! supplied closure upholds one rule:
//!
//! > `f(&mut scratch, i)` must depend only on `i` (and captured immutable
//! > state), never on which indices the same scratch value was previously
//! > used for.
//!
//! Scratch values exist purely to reuse allocations (statevector workspaces,
//! parameter buffers); they must not carry results or RNG state across
//! indices. Stochastic evaluators satisfy the rule by deriving a dedicated
//! RNG substream from the index (see [`crate::rng::derive_seed`]), which is
//! exactly the per-point substream scheme the noisy landscape comparisons
//! already use.
//!
//! Because every index is computed independently and the output vector is
//! assembled in index order, no floating-point reduction order ever changes
//! with the thread count. Callers that *do* reduce (e.g. trajectory
//! averaging) must reduce over fixed-size chunks mapped through this
//! primitive so the summation tree is independent of the thread count.
//!
//! # Thread-count selection
//!
//! The worker count is taken from, in priority order:
//!
//! 1. a scoped override installed with [`with_threads`] (used by tests),
//! 2. the `RED_QAOA_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! Nested calls run serially: a `parallel_map_indexed` issued from inside a
//! worker (for example trajectory averaging inside a parallel landscape
//! scan) detects the enclosing region through a thread-local flag and
//! processes its range on the current thread, avoiding oversubscription
//! without changing any result.

use std::cell::Cell;

/// Environment variable that fixes the worker-thread count.
///
/// Unset (or unparsable) means "use the machine's available parallelism".
/// `RED_QAOA_THREADS=1` forces the serial path.
pub const THREADS_ENV: &str = "RED_QAOA_THREADS";

thread_local! {
    /// Scoped thread-count override installed by [`with_threads`].
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// `true` while the current thread is executing inside a parallel region.
    static IN_PARALLEL_REGION: Cell<bool> = const { Cell::new(false) };
}

/// Number of worker threads a parallel region started *now* would use.
///
/// Resolution order: [`with_threads`] override, then [`THREADS_ENV`], then
/// [`std::thread::available_parallelism`]; always at least 1. Inside an
/// enclosing parallel region this returns 1 (nested regions are serial).
pub fn current_threads() -> usize {
    if in_parallel_region() {
        return 1;
    }
    if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
        return n.max(1);
    }
    // Cached once per process: nothing in the workspace mutates the
    // environment, re-reading `env::var` would allocate a `String`, and
    // `available_parallelism` reads the cgroup CPU limits (several
    // allocations and file reads) on every call — the hot evaluation paths
    // promise zero steady-state allocations
    // (`tests/allocation_steady_state.rs`). Thread counts never change an
    // output, so a limit changed later cannot either.
    static DEFAULT_THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *DEFAULT_THREADS.get_or_init(|| {
        std::env::var(THREADS_ENV)
            .ok()
            .and_then(|raw| raw.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
    })
}

/// `true` while called from inside a [`parallel_map_indexed`] worker.
fn in_parallel_region() -> bool {
    IN_PARALLEL_REGION.with(Cell::get)
}

/// Runs `f` with the worker-thread count fixed to `threads` on this thread.
///
/// The override is scoped: it is restored on exit (including panics) and it
/// does not leak to other threads. The determinism property tests use this
/// to compare thread counts without mutating the process environment.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|cell| cell.set(self.0));
        }
    }
    let previous = THREAD_OVERRIDE.with(|cell| cell.replace(Some(threads.max(1))));
    let _restore = Restore(previous);
    f()
}

/// Marks the current thread as being inside a parallel region for the
/// duration of `f` (restored on exit, including panics).
fn in_region<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_PARALLEL_REGION.with(|cell| cell.set(self.0));
        }
    }
    let previous = IN_PARALLEL_REGION.with(|cell| cell.replace(true));
    let _restore = Restore(previous);
    f()
}

/// Maps `f` over `0..len` with per-thread scratch, returning results in
/// index order.
///
/// `make_scratch` is called once per worker thread; the scratch value is
/// reused across that worker's indices so hot loops can recycle allocations.
/// See the module docs for the determinism contract — and
/// `docs/determinism.md` at the repository root for the full write-up
/// (substream derivation, `RED_QAOA_THREADS`, nested-region serialization):
/// given an `f` that is a pure function of its index, the result is
/// bitwise-identical for every thread count.
///
/// The range is split into `threads` contiguous chunks (one per worker); the
/// calling thread processes the first chunk itself. A panic in any worker is
/// propagated to the caller.
pub fn parallel_map_indexed<S, R, FS, F>(len: usize, make_scratch: FS, f: F) -> Vec<R>
where
    R: Send,
    FS: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let threads = current_threads().min(len.max(1));
    if threads <= 1 {
        return in_region(|| {
            let mut scratch = make_scratch();
            (0..len).map(|i| f(&mut scratch, i)).collect()
        });
    }
    // One contiguous chunk per worker. Chunk boundaries only decide *where*
    // each index is computed, never *what* is computed, so they are free to
    // depend on the thread count.
    let chunk = len.div_ceil(threads);
    let run_chunk = |start: usize, end: usize| -> Vec<R> {
        in_region(|| {
            let mut scratch = make_scratch();
            (start..end).map(|i| f(&mut scratch, i)).collect()
        })
    };
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads - 1);
        for t in 1..threads {
            let start = t * chunk;
            if start >= len {
                break;
            }
            let end = ((t + 1) * chunk).min(len);
            let run_chunk = &run_chunk;
            handles.push(scope.spawn(move || run_chunk(start, end)));
        }
        let mut out = run_chunk(0, chunk.min(len));
        for handle in handles {
            match handle.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_results_are_identical() {
        let serial = with_threads(1, || {
            parallel_map_indexed(97, || 0u64, |_, i| (i as f64).sin().to_bits())
        });
        for threads in [2, 3, 4, 8] {
            let parallel = with_threads(threads, || {
                parallel_map_indexed(97, || 0u64, |_, i| (i as f64).sin().to_bits())
            });
            assert_eq!(serial, parallel, "thread count {threads}");
        }
    }

    #[test]
    fn results_are_in_index_order() {
        let out = with_threads(4, || parallel_map_indexed(23, || (), |_, i| i));
        assert_eq!(out, (0..23).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_ranges_work() {
        let empty: Vec<usize> = parallel_map_indexed(0, || (), |_, i| i);
        assert!(empty.is_empty());
        let one = with_threads(4, || parallel_map_indexed(1, || (), |_, i| i + 10));
        assert_eq!(one, vec![10]);
    }

    #[test]
    fn scratch_is_reused_within_a_worker() {
        // Each worker should allocate exactly one scratch; with the serial
        // path that means one allocation for the whole map.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let allocations = AtomicUsize::new(0);
        with_threads(1, || {
            parallel_map_indexed(64, || allocations.fetch_add(1, Ordering::SeqCst), |_, i| i)
        });
        assert_eq!(allocations.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn nested_regions_run_serially() {
        let nested_flags = with_threads(2, || {
            parallel_map_indexed(
                4,
                || (),
                |_, _| {
                    assert!(in_parallel_region());
                    // An inner map must not spawn: current_threads() is 1.
                    let inner = parallel_map_indexed(3, || (), |_, j| current_threads() + j);
                    inner == vec![1, 2, 3]
                },
            )
        });
        assert!(nested_flags.iter().all(|&ok| ok));
        assert!(!in_parallel_region());
    }

    #[test]
    fn with_threads_restores_previous_override() {
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(5, || assert_eq!(current_threads(), 5));
            assert_eq!(current_threads(), 3);
        });
    }

    #[test]
    fn override_wins_over_environment() {
        // Whatever RED_QAOA_THREADS says, the scoped override is stronger.
        with_threads(2, || assert_eq!(current_threads(), 2));
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            with_threads(2, || {
                parallel_map_indexed(
                    8,
                    || (),
                    |_, i| {
                        assert!(i != 6, "boom");
                        i
                    },
                )
            })
        });
        assert!(result.is_err());
    }
}
