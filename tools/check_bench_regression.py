#!/usr/bin/env python3
"""Self-contained gates over the serving bench JSON.

Each gate compares numbers from one bench run against each other, never
against a checked-in snapshot: the contracts are scale-free, so no
cross-machine baseline is needed.

Serving gates (--serving bench_serving_load.json): the scheduler's
contract is "p50 must not collapse when workers are added", "admitted
p99 holds the SLO below saturation" and "overload sheds instead of
queueing". The queueing gates only bind when the runner reports >= 4
cores; on smaller boxes workers share cores, nominal load factors
overstate true capacity, and every serving number is printed as
informational instead.

The kernel-ratio gates (compiled plan vs SpikingNetwork::predict, AVX2
vs scalar spmm_t) and the streaming per-event p99 gate are ctest cases:
CompiledNetworkTest.SparsePlanBeatsInterpretedAtHighSparsity,
SimdTierTest.CsrSpmmTAvx2BeatsScalar and
StreamSessionTest.PerEventP99BeatsWholeWindow.

Usage: check_bench_regression.py --serving serving.json
Exit 0 = every gate passed, 1 = regression, malformed input or wrong
usage.
"""

import json
import sys

# Serving gates (see ISSUE acceptance): p50 with 4 workers at fixed
# offered load must stay within 1.5x of the 1-worker p50 (the bug this
# guards against inverted the curve to ~4x), and the admitted p99 at
# <= 80% of pool saturation must hold the SLO (1.25x headroom for
# runner jitter on the tail).
SERVING_P50_SCALING_MAX = 1.5
SERVING_P99_SLO_HEADROOM = 1.25
SERVING_MIN_CORES = 4


def check_serving(doc):
    """Self-contained queueing gates over a bench_serving_load.json.

    Returns True when everything gated passed (or the box is too small
    to gate and everything was downgraded to informational).
    """
    serving = doc.get("serving")
    if not serving:
        print("FAIL: 'serving' section missing/empty in serving JSON -- "
              "the serving bench schema changed; refusing to pass vacuously")
        return False

    cores = int(doc.get("cores", 0))
    gated = cores >= SERVING_MIN_CORES
    mode = "gated" if gated else f"informational: {cores} < {SERVING_MIN_CORES} cores"
    ok = True

    # Gate 1: adding workers at fixed offered load must not inflate p50.
    scaling = float(serving.get("p50_scaling", 0.0))
    status = "ok" if scaling <= SERVING_P50_SCALING_MAX else "REGRESSION"
    print(f"serving: p50@4w / p50@1w = {scaling:.2f}x "
          f"(max {SERVING_P50_SCALING_MAX}x) -> {status} ({mode})")
    if gated and scaling > SERVING_P50_SCALING_MAX:
        ok = False

    # Gate 2: below saturation the admitted tail holds the SLO; past
    # saturation the scheduler must shed rather than queue unboundedly.
    for point in serving.get("slo_sweep", []):
        load = float(point.get("load_factor", 0.0))
        slo_ms = float(point.get("slo_ms", 0.0))
        p99 = float(point.get("e2e_p99_ms", 0.0))
        shed_rate = float(point.get("shed_rate", 0.0))
        if load <= 0.8 and slo_ms > 0.0:
            ceiling = slo_ms * SERVING_P99_SLO_HEADROOM
            status = "ok" if p99 <= ceiling else "REGRESSION"
            print(f"serving: load {load}x admitted p99 {p99:.2f} ms vs "
                  f"SLO {slo_ms:.2f} ms (ceiling {ceiling:.2f}) -> {status} ({mode})")
            if gated and p99 > ceiling:
                ok = False
        if load >= 1.5:
            status = "ok" if shed_rate > 0.0 else "REGRESSION"
            print(f"serving: load {load}x shed rate {shed_rate:.3f} "
                  f"(must be > 0 in overload) -> {status} ({mode})")
            if gated and shed_rate <= 0.0:
                ok = False
    return ok


def main(argv):
    if len(argv) != 3 or argv[1] != "--serving":
        print(__doc__)
        print("error: give --serving with one JSON path")
        return 1
    with open(argv[2]) as f:
        passed = check_serving(json.load(f))
    if not passed:
        print("bench regression check FAILED")
        return 1
    print("bench regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
