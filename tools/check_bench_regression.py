#!/usr/bin/env python3
"""Self-contained gates over the serving and streaming bench JSON.

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

Streaming gates (--streaming bench_streaming_latency.json): three
things are gated on ANY core count (they hold structurally, not by
machine speed): the streamed outputs must match the whole-window pass
bitwise, the delta path must have fired on the bench's silent frames
(delta_skips > 0), and the streamed per-event p99 must beat the
whole-window latency (per-event latency is the point of streaming; a
single step can never legitimately take longer than the whole window).
The pipelining speedup over the serial session is informational below
SERVING_MIN_CORES cores.

The kernel-ratio gates (compiled plan vs SpikingNetwork::predict, AVX2
vs scalar spmm_t) are ctest cases:
CompiledNetworkTest.SparsePlanBeatsInterpretedAtHighSparsity and
SimdTierTest.CsrSpmmTAvx2BeatsScalar.

Usage: check_bench_regression.py [--serving serving.json]
                                 [--streaming streaming.json]
At least one of the two is required.
Exit 0 = every gate passed, 1 = regression, malformed input or no
document given.
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


def check_streaming(doc):
    """Self-contained streaming gates over a bench_streaming_latency.json.

    Bitwise equivalence, delta-path activity and the per-event latency
    advantage are structural properties and gate on every box; the
    pipelining speedup needs real cores and is informational below
    SERVING_MIN_CORES.
    """
    streaming = doc.get("streaming")
    if not streaming:
        print("FAIL: 'streaming' section missing/empty in streaming JSON -- "
              "the streaming bench schema changed; refusing to pass vacuously")
        return False

    cores = int(doc.get("cores", 0))
    ok = True

    bitwise = int(streaming.get("bitwise_ok", 0))
    status = "ok" if bitwise == 1 else "REGRESSION"
    print(f"streaming: streamed outputs bitwise == whole-window -> {status} (gated)")
    if bitwise != 1:
        ok = False

    skips = int(streaming.get("delta_skips", 0))
    status = "ok" if skips > 0 else "REGRESSION"
    print(f"streaming: delta_skips {skips} (must be > 0: silent frames must "
          f"skip weight ops) -> {status} (gated)")
    if skips <= 0:
        ok = False

    window_ms = float(streaming.get("whole_window_ms", 0.0))
    step_p99 = float(streaming.get("step_p99_ms", 0.0))
    status = "ok" if 0.0 < step_p99 < window_ms else "REGRESSION"
    print(f"streaming: per-event p99 {step_p99:.2f} ms vs whole-window "
          f"{window_ms:.2f} ms -> {status} (gated)")
    if not 0.0 < step_p99 < window_ms:
        ok = False

    piped_ms = float(streaming.get("pipelined_window_ms", 0.0))
    if piped_ms > 0.0 and window_ms > 0.0:
        mode = ("gated would need >= 4 cores; informational"
                if cores < SERVING_MIN_CORES else "informational")
        print(f"info: pipelined window {piped_ms:.2f} ms vs whole-window "
              f"{window_ms:.2f} ms ({window_ms / piped_ms:.2f}x, {mode})")
    return ok


CHECKS = {"--serving": check_serving, "--streaming": check_streaming}


def parse_args(args):
    """Map each gate flag to its JSON path; None when the usage is wrong."""
    paths = {}
    while args:
        flag = args.pop(0)
        if flag not in CHECKS or flag in paths or not args:
            return None
        paths[flag] = args.pop(0)
    return paths or None


def main(argv):
    paths = parse_args(argv[1:])
    if paths is None:
        print(__doc__)
        print("error: give --serving and/or --streaming, each with one JSON path")
        return 1
    failed = False
    for flag, path in paths.items():
        with open(path) as f:
            if not CHECKS[flag](json.load(f)):
                failed = True

    if failed:
        print("bench regression check FAILED")
        return 1
    print("bench regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
