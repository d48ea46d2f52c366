#!/usr/bin/env python3
"""Gate the BSK-stationary blind-rotation rows of BENCH_cpu_primitives.json.

Run by the perf-smoke CI leg after `bench_cpu_primitives --json` with a
filter covering BM_BlindRotateBatch/TEST. Checks:

  1. BM_BlindRotateBatch/TEST/{1,4,16} exist.
  2. The per-ciphertext time at G=16 beats G=1 by the lane-filling gain
     expected of the active FFT tier (context.fft_dispatch). This ratio
     is a property of the code, not of the host's speed: a group of 16
     fills every SIMD lane of the batched FFTs, a lone ciphertext at
     TEST (N=512, k=1, l=3) sends 6 forward and 2 inverse transforms
     through partly idle lanes. Measured on an AVX-512 host: ~1.7x at
     8 lanes, ~1.3x forced to the 4-lane avx2 tier. Tiers of 2 lanes or
     fewer fill their lanes without grouping, so they are reported but
     not gated.

Exits non-zero with a diagnostic on any failure.
"""

import json
import sys

# Tier lane widths, as in check_fft_dispatch_bench.py.
WIDTH = {"scalar": 1, "neon": 2, "avx2": 4, "avx512": 8}

# Minimum G=16 over G=1 per-ciphertext speedup per lane width.
MIN_GAIN = {8: 1.3, 4: 1.15}


def fail(msg):
    print(f"check_blind_rotate_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def per_ciphertext_ms(row, group):
    scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}
    unit = row.get("time_unit", "ns")
    if unit not in scale:
        fail(f"unknown time unit {unit!r} in {row['name']}")
    return row["real_time"] * scale[unit] / group


def main():
    if len(sys.argv) != 2:
        fail(f"usage: {sys.argv[0]} BENCH_cpu_primitives.json")
    with open(sys.argv[1]) as f:
        report = json.load(f)

    rows = {b["name"]: b for b in report.get("benchmarks", [])
            if b.get("run_type", "iteration") == "iteration"}
    per_ct = {}
    for group in (1, 4, 16):
        name = f"BM_BlindRotateBatch/TEST/{group}"
        if name not in rows:
            fail(f"no {name} row in report")
        per_ct[group] = per_ciphertext_ms(rows[name], group)
        print(f"ok: {name}: {per_ct[group]:.3f} ms per ciphertext")

    tier = report.get("context", {}).get("fft_dispatch")
    if not tier:
        fail("context.fft_dispatch missing from report")
    gain = per_ct[1] / per_ct[16]
    need = MIN_GAIN.get(WIDTH.get(tier, 0))
    if need is None:
        print(f"ok: G=16 vs G=1 gain {gain:.2f}x on the {tier} tier "
              f"(not gated: no idle lanes to fill)")
        return
    if gain < need:
        fail(f"G=16 blind rotation is only {gain:.2f}x faster per "
             f"ciphertext than G=1 on the {tier} tier (< {need}x): the "
             f"group no longer fills the FFT lanes")
    print(f"ok: G=16 vs G=1 gain {gain:.2f}x on the {tier} tier "
          f"(>= {need}x)")


if __name__ == "__main__":
    main()
