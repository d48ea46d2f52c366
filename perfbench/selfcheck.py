#!/usr/bin/env python3
"""Self-check of the repository benchmark: short runs, exact counts.

    python3 perfbench/selfcheck.py

Runs every workload once for one second untraced, and tenant_openloop
twice traced (seeds 1 and 2), through perfbench/run.py. It fails unless:

  * each result line has exactly the keys correct/attempted/failed/metrics,
    every output verified (correct, failed == 0);
  * every metric named in BENCHMARK.json is present with its unit, and
    no other; end-to-end values are finite and non-zero;
  * the exact counts repeat across runs: circuit.bootstraps_per_add (40),
    circuit.depth (17), the computed FFT and BSK-byte counts, the cycle
    model's cycles and bytes, and the simulated throughputs.

A later change can rest a claim on one of these counts only while this
check passes.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

EXACT_LAYER = ("circuit.bootstraps_per_add", "circuit.depth",
               "tfhe.ffts_per_bs", "tfhe.bsk_bytes_per_bs", "arch.cycles",
               "arch.fleet_cycles", "arch.bsk_bytes", "arch.hbm_bytes")
EXACT_E2E = ("sim_bs_per_s", "sim_fleet_bs_per_s", "sim_err_frac")
EXPECTED = {"circuit.bootstraps_per_add": 40, "circuit.depth": 17}


def run(workload, seed, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-4000:])
        raise SystemExit(f"FAIL: {' '.join(cmd[1:])} exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_result(label, result, spec):
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{label}: correct={result.get('correct')} "
                      f"failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{label}: attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in spec}
    if set(metrics) != set(want):
        errors.append(f"{label}: missing {sorted(set(want) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit:
            errors.append(f"{label}: {name} unit {got.get('unit')} != {unit}")
        if not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            errors.append(f"{label}: {name} value {got.get('value')}")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []

    e2e_runs = {}
    for w in bench["workloads"]:
        result = run(w["name"], 1, 0)
        errors += check_result(w["name"], result, bench["end_to_end"])
        for name, m in result["metrics"].items():
            if m["value"] == 0:
                errors.append(f"{w['name']}: end-to-end {name} is 0")
        e2e_runs[w["name"]] = result["metrics"]
        print(f"ok  {w['name']} --trace 0", flush=True)

    traced = [run("tenant_openloop", seed, 1) for seed in (1, 2)]
    for seed, result in zip((1, 2), traced):
        errors += check_result(f"tenant_openloop --trace 1 seed {seed}",
                               result, bench["per_layer"])
    print("ok  tenant_openloop --trace 1 (seeds 1, 2)", flush=True)

    for name in EXACT_LAYER:
        values = [r["metrics"].get(name, {}).get("value") for r in traced]
        if values[0] != values[1]:
            errors.append(f"{name} differs between runs: {values}")
        if name in EXPECTED and values[0] != EXPECTED[name]:
            errors.append(f"{name} = {values[0]}, expected {EXPECTED[name]}")
    for name in EXACT_E2E:
        values = {w: m[name]["value"] for w, m in e2e_runs.items()}
        if len(set(values.values())) != 1:
            errors.append(f"{name} differs between runs: {values}")

    for e in errors:
        print("FAIL", e)
    if errors:
        return 1
    print("selfcheck: all metrics present; exact counts repeat")
    return 0


if __name__ == "__main__":
    sys.exit(main())
