"""Benchmark for tnncells: four workloads, end-to-end or layer-traced.

Run from the repository root:

    python3 perfbench/run.py --workload bijection --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one caller and no threads.  A run
spawns fresh-interpreter rounds back to back (``round.py``) until
``--seconds`` have passed, at least three of them, and reports the median
round.  The first round checks its outputs against the benchmark's own
oracles after its timed region; every later round must produce the same
outputs, or all of its operations count as failed.

``--trace 1`` instead runs one traced round of every workload, each in its
own fresh interpreter, plus the single-layer rows, and reports the
per-layer metrics.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 150
END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))


def spawn(argv: list[str], env: dict) -> tuple[float, dict]:
    """Run one round process; return its spawn time and its JSON line."""
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "round.py"), *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=ROUND_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"round {argv} exited with code {proc.returncode}")
    return t_spawn, json.loads(proc.stdout.strip().splitlines()[-1])


def timed_run(args, env, extra) -> dict:
    base = [args.workload, "--seed", str(args.seed), *extra]
    rounds, walls = [], []
    deadline = time.monotonic() + args.seconds
    # Start another round while it can end before the deadline, judged by
    # the median round so far; always run at least MIN_ROUNDS.
    while len(rounds) < MIN_ROUNDS or (
        time.monotonic() + statistics.median(walls) <= deadline
    ):
        t_spawn, out = spawn(base + ([] if rounds else ["--check"]), env)
        walls.append(time.monotonic() - t_spawn)
        out["wall_setup_s"] = out["ready"] - t_spawn
        out["setup_s"] = out["wall_setup_s"] * out["setup_speed"]
        rounds.append(out)
    first = rounds[0]
    failed = first["failed"] + sum(
        first["failed"] if r["digest"] == first["digest"] else r["attempted"]
        for r in rounds[1:]
    )
    attempted = sum(r["attempted"] for r in rounds)
    metrics = {
        name: {"value": statistics.median(r[name] for r in rounds), "unit": unit}
        for name, unit in END_TO_END
    }
    print(f"workload {args.workload}: {len(rounds)} rounds, medians reported")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name in ("wall_run_s", "wall_setup_s"):
        print(f"  ({name} = {statistics.median(r[name] for r in rounds):.6g})")
    print(f"  operations attempted = {attempted}, failed = {failed}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def traced_run(args, env, extra) -> dict:
    import tracing

    out_dir = Path("perfbench") / "out"
    metrics, attempted, failed = {}, 0, 0
    for name, more in extra.items():
        argv = [name, "--seed", str(args.seed), "--check", *more]
        argv += ["--trace", str(out_dir / f"spans-{name}")]
        _, out = spawn(argv, env)
        attempted += out["attempted"]
        failed += out["failed"]
        print(
            f"workload {name}: traced run_s = {out['run_s']:.6g} s "
            f"(wall {out['wall_run_s']:.6g} s), "
            f"{out['spans']} spans, attempted = {out['attempted']}, failed = {out['failed']}"
        )
        for metric, value in out["metrics"].items():
            metrics[f"{name}.{metric}"] = {"value": value, "unit": tracing.unit_of(metric)}
    _, out = spawn(["micro", "--seed", str(args.seed)], env)
    for metric, value in out["metrics"].items():
        metrics[metric] = {"value": value, "unit": "s"}
    for metric, m in metrics.items():
        print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    src = Path.cwd() / "src"
    if not (src / "tnncells" / "__init__.py").is_file():
        print(f"error: no tnncells package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="2-row grids: every check in seconds")
    args = ap.parse_args()

    env = dict(os.environ, PYTHONPATH=str(src))
    small = ["--small"] if args.small else []
    extra = {name: small for name in workloads.WORKLOADS}
    if args.trace or args.workload == "classify":
        plan = workloads.classify_plan(args.seed, args.small)
        extra["classify"] = small + ["--plan", json.dumps(plan)]
    if args.trace:
        result = traced_run(args, env, extra)
    else:
        result = timed_run(args, env, extra[args.workload])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
