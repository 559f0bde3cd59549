#!/usr/bin/env bash
# Local CI for the Red-QAOA reproduction workspace.
#
# Gates, in order:
#   1. cargo fmt --check      — formatting (rustfmt.toml pins the style)
#   2. cargo clippy -D warnings — lints; the only allowed-by-policy lint is
#      clippy::needless_range_loop, granted workspace-wide in Cargo.toml
#      ([workspace.lints.clippy]) because index loops are the clearest form
#      for the dense-matrix and qubit kernels.
#   2b. cargo doc (warnings denied) — every crate carries
#      #![deny(missing_docs)], so missing rustdoc already fails the build;
#      this gate additionally fails on rustdoc-only rot (broken intra-doc
#      links, malformed doc fragments) that rustc cannot see.
#   3. tier-1 verify          — cargo build --release && cargo test -q,
#      run twice: once with RED_QAOA_THREADS=1 (forced-serial paths) and
#      once with the variable unset (parallel paths, default thread count).
#      The root Cargo.toml's `default-members` lists the umbrella package
#      and every crates/* member, so `cargo test -q` runs the whole suite:
#      the workspace integration tests plus every crate's unit tests and
#      doctests (only the vendored shims are left out).
#      The determinism contract says both must pass with identical
#      semantics; the property tests in tests/parallel_determinism.rs
#      additionally check bitwise equality across thread counts.
#   3b. benchmark crate tests — cargo test -q --manifest-path
#      perfbench/Cargo.toml: perfbench is its own workspace, so tier 1 does
#      not build it; this step makes a public-API change that breaks the
#      benchmark crate fail here instead of at benchmark time.
#   4. perf smoke             — each gate names the exact-energy arm it
#      measures: QaoaInstance::expectation_with is the chooser (the closed
#      form at p = 1, the half-state statevector at p >= 2), and
#      statevector_expectation_with is the statevector arm at every p.
#      The landscape smoke emits BENCH_landscape.json (points/sec for a
#      32x32 p = 1 grid on a 16-node graph through the statevector arm,
#      4-thread speedup gated at >= 2x when cores > 1; the chooser's serial
#      points/sec recorded without a gate), the reduction smoke emits
#      BENCH_reduction.json (SA moves/sec, incremental-vs-rebuild move
#      evaluation, reduce_pool graphs/sec; no energies),
#      the engine smoke emits BENCH_engine.json (batch jobs/sec cold vs
#      warm reduction cache, plus a mode-comparison batch: one graph's
#      landscape in three circuit modes, full and reduced, whose repeated
#      scans run once, each output gated equal to a one-shot Engine::run
#      and the batch to one cache lookup; jobs evaluate through the
#      chooser), the optimize smoke emits BENCH_optimize.json
#      (end-to-end p = 1 sessions through the chooser: session latency,
#      reduced-vs-baseline ratio gated at >= 0.95, full-graph-equivalent
#      cost ratio, evaluations-to-target),
#      the qsim smoke emits BENCH_qsim.json (gate-ops/sec of the scalar
#      oracle's gate runner, statevector::reference::apply_circuit on a raw
#      amplitude buffer, vs StateVector's vectorized kernels for 8-20
#      qubits, bitwise cross-checked, 16-qubit speedup gated at >= 1.5x;
#      ideal p = 1 and p = 2 QAOA points/sec at 12-16 qubits through the
#      statevector arm (half-state evolution) vs the full state with a
#      gate-by-gate Rx mixer, energies bitwise cross-checked at every
#      point; the grouped mixer layer vs per-qubit Rx passes at
#      12-16 qubits, amplitudes bitwise cross-checked, recorded without a
#      gate; noisy QAOA trajectories/sec at 8-12 qubits under fake_toronto
#      noise x1 and x10 (x10 splits most deferred RZZ runs), carried-norm
#      trajectories with deferred diagonal work vs the
#      renormalize-every-step oracle (qsim::trajectory::reference),
#      distributions cross-checked within 1e-12, recorded without a gate;
#      per-core landscape scaling through the statevector arm gated at
#      >= 2x when cores > 1), and the depth smoke emits BENCH_depth.json
#      (interaction-scheduler rounds gated at <= d+1 for d-regular graphs,
#      two-qubit depth reduction vs naive emission gated at >= 2x, and the
#      compound node+depth noisy MSE gated at <= the node-only MSE; noisy
#      trajectories, no exact arm) so the
#      perf trajectory is recorded run-over-run.
#   5. bench targets resolve  — cargo bench --no-run
#   5b. examples run          — quickstart and engine_batch run in release,
#      so engine_batch's assertions execute: one anneal per distinct graph
#      across its 100-job batch, and each graph's ReduceJob and OptimizeJob
#      sharing one reduction bit for bit (step 2's clippy --all-targets
#      only compiles them).
#   6. figure binaries        — every fig*/table* binary answers --help,
#      and a fast subset's --json output must parse as JSON (jq)
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --quiet --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> tier-1 (serial: RED_QAOA_THREADS=1): cargo build --release && cargo test -q"
cargo build --release
RED_QAOA_THREADS=1 cargo test -q

echo "==> tier-1 (parallel: RED_QAOA_THREADS unset): cargo test -q"
env -u RED_QAOA_THREADS cargo test -q

echo "==> benchmark crate: cargo test -q --manifest-path perfbench/Cargo.toml"
cargo test -q --manifest-path perfbench/Cargo.toml

echo "==> perf smoke: landscape grid points/sec -> BENCH_landscape.json"
cargo run --quiet --release -p bench --bin landscape_smoke BENCH_landscape.json

echo "==> perf smoke: reduction moves/sec + graphs/sec -> BENCH_reduction.json"
cargo run --quiet --release -p bench --bin reduction_smoke BENCH_reduction.json

echo "==> perf smoke: engine batch cold vs warm cache -> BENCH_engine.json"
cargo run --quiet --release -p bench --bin engine_smoke BENCH_engine.json

echo "==> perf smoke: end-to-end optimization sessions -> BENCH_optimize.json"
cargo run --quiet --release -p bench --bin optimize_smoke BENCH_optimize.json

echo "==> perf smoke: statevector kernels scalar vs vectorized -> BENCH_qsim.json"
cargo run --quiet --release -p bench --bin qsim_smoke BENCH_qsim.json

echo "==> perf smoke: depth scheduling rounds + compound MSE -> BENCH_depth.json"
cargo run --quiet --release -p bench --bin depth_smoke BENCH_depth.json

echo "==> benches compile: cargo bench --no-run"
cargo bench --no-run --quiet

echo "==> examples run: quickstart, engine_batch"
cargo run --quiet --release --example quickstart >/dev/null
cargo run --quiet --release --example engine_batch

echo "==> figure binaries answer --help"
cargo build --release -p experiments --bins --quiet
for bin in target/release/fig* target/release/table1_datasets; do
    [ -x "$bin" ] || continue
    "$bin" --help >/dev/null
done

echo "==> --json output parses (fast subset)"
for bin in fig03_cycle_landscapes fig06_mse_threshold table1_datasets; do
    "target/release/$bin" --json | jq -es 'length > 0' >/dev/null \
        || { echo "FAIL: $bin --json is not parseable JSON"; exit 1; }
done

echo "CI OK"
