#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload pbs_burst --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (the library sources under src/ plus
the morphling_perfbench binary) into $CARGO_TARGET_DIR, default
.bench_build, then runs the binary. Build output goes to stderr. The
binary prints the metrics its workload produces; this script checks
them against BENCHMARK.json, the one list of metric names and units,
and prints the run's JSON result as the last line of stdout. Traced runs
(--trace 1) also write a Chrome trace to the build directory.
perfbench/README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def git_sha():
    """The checkout's commit, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(out_dir):
    """Configure (cheap when already configured) and build the binary."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", out_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out_dir, "--target", "morphling_perfbench",
         "-j", jobs],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build step failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: {' '.join(cmd)} exited {done.returncode}",
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no library sources under src/ next to perfbench/",
              file=sys.stderr)
        return 2
    out_dir = build_dir()
    if not build(out_dir):
        return 1

    binary = os.path.join(out_dir, "morphling_perfbench")
    trace_out = os.path.join(
        out_dir, f"trace_{args.workload}_seed{args.seed}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", trace_out, "--git-sha", git_sha()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = out.rstrip("\n").splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {binary} exited {proc.returncode}",
              file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
    result = complete(json.loads(lines[-1]), spec, args.trace)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


def complete(result, spec, traced):
    """The binary's result with its metrics in BENCHMARK.json order.

    A metric the binary prints that BENCHMARK.json does not name (or
    names with another unit) is an error. A per-layer metric the
    workload cannot produce (generator lateness on a closed loop, say)
    is reported as 0 and listed as n/a; a missing end-to-end metric is an
    error.
    """
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in spec}
    bad = [f"{n} [{m['unit']}]" for n, m in got.items()
           if want.get(n) != m["unit"]]
    missing = [n for n in want if n not in got]
    if bad or (missing and not traced):
        print(f"perfbench: metrics not in BENCHMARK.json: {bad}; "
              f"missing: {missing}", file=sys.stderr)
        return None
    if missing:
        print("  n/a on this workload (reported as 0): " + " ".join(missing))
    result["metrics"] = {
        n: got.get(n, {"value": 0, "unit": u}) for n, u in want.items()}
    return result


if __name__ == "__main__":
    sys.exit(main())
