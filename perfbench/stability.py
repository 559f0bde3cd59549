#!/usr/bin/env python3
"""Stability mode: run one workload repeatedly and judge its spread.

Runs the benchmark command from BENCHMARK.json once per seed, then prints,
for every metric, the median, the quartiles, the quartile spread and the
largest deviation as shares of the median, against the metric's bound. It
names every metric that fails and exits 1 if any does.

End-to-end runs (the default) fail a metric, setup_s included, whose quartile
spread exceeds its bound, and warn above a third of it. They also re-check two
past failure modes: a setup_s median of only a few milliseconds, and a tail
percentile with fewer than ten samples beyond it. The first seed runs twice;
its output digest and quality metrics must agree exactly. A run whose
reference-kernel median lies more than one quartile spread outside the
quartiles of all runs' reference medians is flagged (not failed), so a shift
that the normalization, rather than the program, put into the timings shows.

Traced runs (--trace) report the per-layer metrics and fail unless every run's
replica matched the engine bitwise and trace.layer_sum_ratio stayed within
LAYER_SUM_TOLERANCE of 1.

Usage, from the repository root:
    python3 perfbench/stability.py --workload optimize --runs 5
    python3 perfbench/stability.py --workload noisy --first-seed 11 --runs 3 --trace

Every run measures BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# setup_s below this median is the few-millisecond set-up that swings
# tens of percent between identical runs.
MIN_SETUP_S = 0.1
# Samples a tail percentile must leave beyond it.
MIN_TAIL_BEYOND = 10
# trace.layer_sum_ratio must lie within this distance of 1.
LAYER_SUM_TOLERANCE = 0.1

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, trace):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "1" if trace else "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"run failed (seed {seed}, exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    return detail, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = {m["name"]: [] for m in group}
    failures = []
    details = []
    for seed in seeds:
        detail, result = run_once(spec, args.workload, seed, args.trace)
        details.append(detail)
        if not result["correct"] or result["failed"]:
            failures.append(f"outputs (seed {seed}: {result['failed']} failed)")
        for name in values:
            if name not in result["metrics"]:
                failures.append(f"{name} (missing)")
                continue
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={v['value']:.6g}" for n, v in result["metrics"].items()
            if not args.trace or n.startswith("trace.")), flush=True)

    if not args.trace:
        again, again_result = run_once(spec, args.workload, seeds[0], False)
        first = details[0]
        same = (again["digest"] == first["digest"]
                and again["quality"] == first["quality"])
        for name in ("node_reduction_pct", "edge_reduction_pct"):
            # Quality metrics repeat exactly for one seed; compare their bits.
            same &= again_result["metrics"][name]["value"] == values[name][0]
        print(f"digest seed {seeds[0]}: {first['digest']} then {again['digest']}: "
              + ("identical" if same else "DIFFERENT"))
        if not same:
            failures.append("digest (two runs of one seed disagree)")
        for detail, seed in zip(details, seeds):
            if detail["tail_samples_beyond"] < MIN_TAIL_BEYOND:
                failures.append(f"job_ms_tail (seed {seed}: p{detail['tail_percentile']} has "
                                f"{detail['tail_samples_beyond']} samples beyond)")

    print(f"\n{args.workload}: {len(seeds)} runs of {spec['run_seconds']} s, seeds {seeds}")
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
          f"{'maxdev':>8} {'bound':>6}  status")
    for metric in group:
        name, vals = metric["name"], values[metric["name"]]
        if not vals:
            continue
        med = statistics.median(vals)
        q1, q3 = quartiles(vals)
        spread = (q3 - q1) / med if med else 0.0
        maxdev = max(abs(v - med) for v in vals) / med if med else 0.0
        bound = metric.get("bound")
        status = ""
        if bound is not None:
            if spread > bound:
                status = "FAIL"
                failures.append(f"{name} (spread {spread:.4f} > bound {bound})")
            elif spread > bound / 3:
                status = "warn (> bound/3)"
            else:
                status = "ok"
            if name == "setup_s" and med < MIN_SETUP_S:
                status = "FAIL"
                failures.append(f"setup_s (median {med:.4f} s is a few-ms set-up)")
        if name == "trace.layer_sum_ratio":
            bad = [v for v in vals if abs(v - 1) > LAYER_SUM_TOLERANCE]
            status = "FAIL" if bad else f"ok (within {LAYER_SUM_TOLERANCE} of 1)"
            if bad:
                failures.append(f"{name} ({bad} outside 1 +- {LAYER_SUM_TOLERANCE})")
        if name == "trace.replica_match":
            status = "ok" if min(vals) == 1 else "FAIL"
            if min(vals) != 1:
                failures.append(f"{name} (a replica output differed)")
        print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {maxdev:8.4f} "
              f"{'' if bound is None else bound:>6}  {status}")

    if not args.trace:
        # Raw wall times, before the machine-speed normalization.
        print("\nraw (unnormalized) timings:")
        for name in details[0]["raw"]:
            vals = [d["raw"][name]["value"] for d in details]
            med = statistics.median(vals)
            q1, q3 = quartiles(vals)
            print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {(q3 - q1) / med:8.4f}")
        refs = [d["reference_ms_median"] for d in details]
        med = statistics.median(refs)
        q1, q3 = quartiles(refs)
        print(f"{'reference_ms_median':34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{(q3 - q1) / med:8.4f}")
        # The host's speed moves the reference as well; a run far outside
        # the others' spread is flagged so a program-made shift is visible.
        lo, hi = q1 - (q3 - q1), q3 + (q3 - q1)
        for ref, seed in zip(refs, seeds):
            if not lo <= ref <= hi:
                print(f"flag: seed {seed} reference_ms_median {ref:.6g} outside "
                      f"[{lo:.6g}, {hi:.6g}]")

    if failures:
        print("\nFAILED: " + "; ".join(failures))
        sys.exit(1)
    print("\nSTABLE")


if __name__ == "__main__":
    main()
