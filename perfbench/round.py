"""One round of one workload in a fresh interpreter, so the library's caches
start cold as on every CLI call.  Prints one JSON line.

    python3 perfbench/round.py WORKLOAD --seed N [--small] [--plan JSON]
                               [--check] [--trace SPANS_PATH]
    python3 perfbench/round.py micro --seed N

The parent times this process from spawn to ``ready`` (set-up: interpreter
start, ``import tnncells``, inputs built).  The timed call runs with no
wrappers unless ``--trace`` is given.  ``micro`` times three single-layer
rows through the public API instead of a workload.

The timed region is the workload's steps (one suite call, or one request).
A fixed calibration loop is timed before, between and after them, and each
step's wall time is also reported scaled to the reference speed: the time
it would take if the loop ran at its reference pace.  The calibration
samples are outside the timed steps.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads


# Seconds one calibration unit (1000 loop iterations) takes at the
# reference speed: about its median on the 2-core machine the reference
# figures in README.md come from.
UNIT_REF_S = 0.00625
# Units timed before the first step and after the last (about 0.25 s), and
# between two steps (about 0.05 s).  Samples much shorter than the steps
# they scale were too noisy to follow the machine's speed.
EDGE_UNITS = 40
GAP_UNITS = 8


def calibrate(units: int) -> float:
    """Seconds per unit of a fixed pure-Python loop of dict, tuple, int and
    Fraction work, the same kinds of operation the library spends its time
    on.  The loop calls nothing in the library, so a change to the library
    cannot move it; a change in how fast the machine is running does."""
    t0 = time.perf_counter()
    table = {}
    total = Fraction(0)
    for i in range(units * 1000):
        key = (i % 7, i % 11, i % 5)
        table[key] = table.get(key, 0) + i * i
        term = Fraction(i % 13 + 1, i % 17 + 1) * Fraction(3, i % 5 + 2)
        total = term if i % 8 == 0 else total + term
    return (time.perf_counter() - t0) / units


def timed_steps(steps) -> tuple[float, float, float]:
    """Run the steps, timing each; a calibration sample sits before, between
    and after them.  Returns the summed wall time, the summed time at the
    reference speed (each step scaled by the mean of its two neighbouring
    samples) and the speed of the first sample."""
    samples = [calibrate(EDGE_UNITS)]
    wall = scaled = 0.0
    for k, step in enumerate(steps):
        t0 = time.perf_counter()
        step()
        took = time.perf_counter() - t0
        samples.append(calibrate(EDGE_UNITS if k == len(steps) - 1 else GAP_UNITS))
        wall += took
        scaled += took * 2 * UNIT_REF_S / (samples[-2] + samples[-1])
    return wall, scaled, UNIT_REF_S / samples[0]


def micro(seed: int) -> dict[str, float]:
    """Best-of-3 seconds for the three kernel rows, each through the public
    call that reaches it: ``LaurentPoly.__mul__`` on 40-term operands over 9
    variables (x50), ``det_exact`` on 10x10 integer matrices (x200) and
    ``all_minors`` on 6x6 integer matrices (x20)."""
    from tnncells import LaurentPoly, VarRegistry, all_minors, as_matrix, det_exact

    rng = random.Random(f"micro-{seed}")
    registry = VarRegistry.grid(3, 3)

    def poly():
        terms = {}
        while len(terms) < 40:
            e = tuple(rng.randint(-2, 3) for _ in range(9))
            terms[e] = rng.randint(-99, 99) or 1
        return LaurentPoly(registry, terms)

    def matrix(n):
        return as_matrix([[rng.randint(-10**6, 10**6) for _ in range(n)] for _ in range(n)])

    rows = {
        "micro.term_map_mul.s": (lambda a, b: a * b, [(poly(), poly()) for _ in range(50)]),
        "micro.det_bareiss_int.s": (det_exact, [(matrix(10),) for _ in range(200)]),
        "micro.all_minors_int.s": (all_minors, [(matrix(6),) for _ in range(20)]),
    }
    out = {}
    for name, (fn, calls) in rows.items():
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for args in calls:
                fn(*args)
            best = min(best, time.perf_counter() - t0)
        out[name] = best
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=[*workloads.WORKLOADS, "micro"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--plan", type=json.loads, default=None)
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--trace", type=Path, default=None)
    args = ap.parse_args()

    if args.workload == "micro":
        print(json.dumps({"metrics": micro(args.seed)}))
        return 0

    work = workloads.WORKLOADS[args.workload](args.seed, args.small, args.plan)
    work.build()
    out = {"ready": time.monotonic(), "attempted": work.attempted}

    tracer = None
    if args.trace is not None:
        import tracing

        tracer = tracing.Tracer()
        tracer.install([workloads])
    try:
        out["wall_run_s"], out["run_s"], out["setup_speed"] = timed_steps(work.steps())
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["digest"] = work.digest()

    if tracer is not None:
        out["metrics"] = tracer.metrics(tracing.LAYER_METRICS[args.workload])
        out["spans"] = len(tracer.start)
        tracer.write(args.trace)
    if args.check:
        out["failed"] = work.check()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
