#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about two minutes).

    python3 perfbench/selftest.py

Checks that:
  * every workload runs correctly at tiny sizes with --trace 0 and --trace 1,
    and prints exactly the end-to-end (resp. per-layer) metrics named in
    BENCHMARK.json, each with its unit;
  * the layer map in perfbench/baseline.json names only those metrics;
  * the sanity gate rejects the canonical water's unequilibrated lattice
    start.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

import run

SPEC_PATH = os.path.join(run.ROOT, "BENCHMARK.json")
BASELINE_PATH = os.path.join(run.BENCH_DIR, "baseline.json")


def last_json_line(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def check_result(label, result, expected, failures):
    if result is None:
        failures.append(f"{label}: no result line")
        return
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        failures.append(f"{label}: result keys {sorted(result)}")
        return
    if result["correct"] is not True or result["failed"] != 0:
        failures.append(f"{label}: correct={result['correct']} "
                        f"failed={result['failed']}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        failures.append(f"{label}: attempted={result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        failures.append(f"{label}: metrics differ: missing "
                        f"{sorted(set(expected) - set(metrics))}, extra "
                        f"{sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is not None and m.get("unit") != unit:
            failures.append(f"{label}: {name} unit {m.get('unit')} != {unit}")
        if m is not None and not isinstance(m.get("value"), (int, float)):
            failures.append(f"{label}: {name} value {m.get('value')!r}")


def main():
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []

    with open(BASELINE_PATH) as f:
        baseline = json.load(f)
    workloads = {w["name"] for w in spec["workloads"]}
    for row in baseline["layer_map"]:
        for name in row["layers"]:
            if name not in layers:
                failures.append(f"layer map: unknown per-layer metric {name}")
        for name in row["moves"]:
            if name not in e2e:
                failures.append(f"layer map: unknown end-to-end metric {name}")
        for name in row["on"] + row["not_on"]:
            if name not in workloads:
                failures.append(f"layer map: unknown workload {name}")
    mapped = {n for row in baseline["layer_map"] for n in row["layers"]}
    if mapped != set(layers):
        failures.append(f"layer map misses {sorted(set(layers) - mapped)}")

    run.build()
    for workload in sorted(workloads):
        for trace, expected in (("0", e2e), ("1", layers)):
            label = f"{workload} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
                 "--workload", workload, "--seed", "7", "--seconds", "2",
                 "--trace", trace, "--tiny"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                failures.append(f"{label}: exit code {proc.returncode}")
            try:
                check_result(label, last_json_line(proc.stdout), expected,
                             failures)
            except json.JSONDecodeError as e:
                failures.append(f"{label}: last line is not JSON ({e})")
            print(f"ran {label}", flush=True)

    proc = subprocess.run([run.BINARY, "--gate-selftest"], cwd=run.ROOT,
                          capture_output=True, text=True, timeout=600)
    print(proc.stdout, end="")
    if proc.returncode != 0:
        failures.append("sanity gate did not reject the lattice start")

    for f in failures:
        print(f"FAIL {f}")
    print("selftest:", "all checks passed" if not failures else
          f"{len(failures)} failure(s)")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
