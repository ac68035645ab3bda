"""Benchmark of dispersal-lab: one workload per call, in CPU seconds.

    python3 bench/run.py --workload race|thresholds|spectra --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Writes the workload's configs and the
lab's outputs under .bench_out/, then runs, one after another (a closed
loop of one caller):

- SETUP_PROBES fresh processes that only import the lab and load the
  workload's configs, for the median set-up time;
- one fresh workload process that warms up with one call, then runs
  whole rounds of the workload's operations for at least S seconds and
  checks every output against the oracles.

Every child gets one BLAS/OpenMP thread.  The last line of standard
output is one JSON object: correct, attempted, failed and the metrics
(end-to-end with --trace 0, per-layer with --trace 1).  Without the
lab's sources next to it the script exits with status 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from plan import WORKLOADS, write_plan  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

SETUP_PROBES = 6
DEADLINE_S = 170.0
ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in ONE_THREAD})
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], env: dict, deadline: float) -> dict:
    """Run a worker to completion and return its JSON line; raise on any failure."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")] + args,
        env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = HERE.parent
    if not (root / "src" / "dispersal_lab" / "__init__.py").is_file() or not (root / "configs").is_dir():
        print(f"error: no dispersal_lab sources or configs under {root}", file=sys.stderr)
        return 2
    # Byte-compile up front so that no set-up probe pays for compilation.
    compileall.compile_dir(str(root / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)

    out = root / ".bench_out" / args.workload
    plan = str(write_plan(args.workload, args.seed, root, out))
    env = child_env(root)
    try:
        setups = [run_child(["--plan", plan, "--setup-only"], env, deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        result = run_child(["--plan", plan, "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    rounds = len(result["round_cpu_s"])
    setups.append(result["setup_s"])
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for op_id, count in result["failures"].items():
        print(f"failed operation: {op_id} ({count} of {rounds} rounds)", file=sys.stderr)
    print(f"{args.workload}: {rounds} rounds of {result['ops_per_round']} operations, "
          f"round cpu_s {[round(x, 4) for x in result['round_cpu_s']]}, "
          f"setup_s {[round(x, 4) for x in setups]}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, (unit, _) in LAYER_METRICS.items()}
    else:
        metrics = {
            "cpu_s": {"value": statistics.median(result["round_cpu_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": rounds * result["ops_per_round"],
        "failed": sum(result["failures"].values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
