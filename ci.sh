#!/usr/bin/env bash
# Local CI for the Red-QAOA reproduction workspace.
#
# Gates, in order:
#   1. cargo fmt --check      — formatting (rustfmt.toml pins the style)
#   2. cargo clippy -D warnings — lints; the only allowed-by-policy lint is
#      clippy::needless_range_loop, granted workspace-wide in Cargo.toml
#      ([workspace.lints.clippy]) because index loops are the clearest form
#      for the dense-matrix and qubit kernels.
#      Steps 1 and 2 also run on the perfbench crate (--manifest-path
#      perfbench/Cargo.toml; it is its own workspace), so a public-API
#      change that leaves the benchmark with warnings fails here.
#   2b. cargo doc (warnings denied) — every crate carries
#      #![deny(missing_docs)], so missing rustdoc already fails the build;
#      this gate additionally fails on rustdoc-only rot (broken intra-doc
#      links, malformed doc fragments) that rustc cannot see.
#   3. tier-1 verify          — cargo build --release && cargo test -q,
#      run twice: once with RED_QAOA_THREADS=1 (forced-serial paths) and
#      once with RED_QAOA_THREADS=4 (parallel paths). The second pass pins
#      four workers rather than leaving the variable unset, because unset
#      resolves to available_parallelism, which is 1 on a one-core host and
#      would only repeat the serial pass.
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
#   3c. benchmark digests — each perfbench workload runs once at seed 1
#      with --seconds 0 (about 2 s in all), and the digest on its detail
#      line must equal the pin below, which is the digest in ROADMAP.md's
#      table. The digests hash every output the workload computes, so this
#      is the "same bits" check for a change that declares no output
#      change. A change that does declare one updates these pins and
#      ROADMAP.md's table in the same commit.
#   4. perf smoke             — every smoke binary runs, even after one of
#      them fails a gate; the step then fails, naming each binary whose
#      gates failed, so one host-sensitive gate cannot hide the others.
#      Each binary builds its record through experiments::cli's record
#      writer: the record carries available_cores and a "gates" object
#      (each performance gate true, false, or null where it is skipped,
#      e.g. thread scaling on one core), and it is written before a failed
#      gate makes the binary exit non-zero, so a failing run still records
#      its numbers. Bitwise and correctness checks abort at once. Every
#      record written must parse (jq -e .).
#      Each gate names the exact-energy arm it
#      measures: QaoaInstance::expectation_with is the chooser (the closed
#      form at p = 1, the half-state statevector at p >= 2), and
#      statevector_expectation_with is the statevector arm at every p.
#      The landscape smoke emits BENCH_landscape.json (points/sec for a
#      32x32 p = 1 grid on a 16-node graph through the statevector arm,
#      4-thread speedup gated at >= 2x when cores > 1; the chooser's serial
#      points/sec recorded without a gate; the closed form's points/sec
#      through the per-edge powi oracle and through the power-table kernel,
#      recorded without a gate and bitwise cross-checked at every grid
#      point, a mismatch failing the step), the reduction smoke emits
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
#   6. figure binaries        — every fig*/table* binary answers --help.
#      Each binary declares its tables once, and the TSV and --json outputs
#      are two views of the same rows; for every binary that runs in about
#      a second (README's table), each --json line must parse as JSON (jq)
#      and the JSON view must have as many rows as the TSV view has data
#      rows (lines that are not blank, not a "# title", and not the header
#      line after a title). fig26_depth_compound is on that list because it
#      is the only figure that prints DepthMetrics. Last, one figure binary
#      prints into `head -n 1`: a reader that closes the pipe early must end
#      the binary with status 0, not a broken-pipe panic.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check (workspace, perfbench)"
cargo fmt --check
cargo fmt --check --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --all-targets -- -D warnings (workspace, perfbench)"
cargo clippy --quiet --workspace --all-targets -- -D warnings
cargo clippy --quiet --all-targets --manifest-path perfbench/Cargo.toml -- -D warnings

echo "==> cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> tier-1 (serial: RED_QAOA_THREADS=1): cargo build --release && cargo test -q"
cargo build --release
RED_QAOA_THREADS=1 cargo test -q

echo "==> tier-1 (parallel: RED_QAOA_THREADS=4): cargo test -q"
RED_QAOA_THREADS=4 cargo test -q

echo "==> benchmark crate: cargo test -q --manifest-path perfbench/Cargo.toml"
cargo test -q --manifest-path perfbench/Cargo.toml

echo "==> benchmark digests: perfbench --seed 1 --seconds 0 per workload"
for pin in optimize=3250f10a39492398 landscape=a581a88171002e94 \
    noisy=9ba5e83c1c65c073 reduce-stream=ce053e8fcc11df06; do
    workload=${pin%%=*}
    digest=$(cargo run --quiet --release --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 0 | jq -r 'select(.detail) | .detail.digest')
    if [ "$digest" != "${pin#*=}" ]; then
        echo "FAIL: perfbench $workload digest $digest, pinned ${pin#*=}"
        exit 1
    fi
done

failed_smokes=()
smoke() {
    local bin=$1 record=$2 what=$3
    echo "==> perf smoke: $what -> $record"
    cargo run --quiet --release -p bench --bin "$bin" "$record" || failed_smokes+=("$bin")
    jq -e . "$record" >/dev/null || failed_smokes+=("$bin (unparseable $record)")
}
smoke landscape_smoke BENCH_landscape.json "landscape grid points/sec"
smoke reduction_smoke BENCH_reduction.json "reduction moves/sec + graphs/sec"
smoke engine_smoke BENCH_engine.json "engine batch cold vs warm cache"
smoke optimize_smoke BENCH_optimize.json "end-to-end optimization sessions"
smoke qsim_smoke BENCH_qsim.json "statevector kernels scalar vs vectorized"
smoke depth_smoke BENCH_depth.json "depth scheduling rounds + compound MSE"
if [ ${#failed_smokes[@]} -gt 0 ]; then
    echo "FAIL: perf smoke gates failed in: ${failed_smokes[*]}"
    exit 1
fi

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

echo "==> --json output parses and matches the TSV rows (fast binaries)"
for bin in fig03_cycle_landscapes fig05_and_correlation fig06_mse_threshold \
    fig07_optima_distance fig09_sa_effectiveness fig13_dataset_reduction \
    fig14_dataset_mse fig26_depth_compound table1_datasets; do
    json=$("target/release/$bin" --json)
    json_rows=$(printf '%s\n' "$json" | jq -c 'objects' | wc -l) \
        || { echo "FAIL: $bin --json is not parseable JSON"; exit 1; }
    [ "$json_rows" -eq "$(printf '%s\n' "$json" | wc -l)" ] \
        || { echo "FAIL: $bin --json is not one JSON object per line"; exit 1; }
    tsv_rows=$("target/release/$bin" | awk '/^#/ { title = 1; next } /^$/ { next }
        title { title = 0; next } { rows++ } END { print rows + 0 }')
    if [ "$json_rows" -eq 0 ] || [ "$json_rows" -ne "$tsv_rows" ]; then
        echo "FAIL: $bin prints $json_rows JSON rows and $tsv_rows TSV rows"
        exit 1
    fi
done

echo "==> a figure binary whose reader closes early exits 0"
# Under pipefail a failing pipeline runs the `||` branch, where PIPESTATUS
# still holds the pipeline's exit codes.
status=0
target/release/fig03_cycle_landscapes | head -n 1 >/dev/null || status=${PIPESTATUS[0]}
if [ "$status" -ne 0 ]; then
    echo "FAIL: fig03_cycle_landscapes exited $status when its reader closed"
    exit 1
fi

echo "CI OK"
