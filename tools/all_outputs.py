"""Run every CLI task on every shipped config and keep everything each run leaves.

Usage: python3 tools/all_outputs.py OUT

Runs each task of ``cli.TASKS`` on each ``configs/*.json``, and each
threshold of ``analysis.THRESHOLDS`` on ``configs/threshold_dc.json`` at
n = 401 and 801 (the ``mu_`` thresholds with a sign-changing growth rate
of negative mean, as they require), and two ``verify`` runs on
``configs/reference.json`` whose scenario changes make groups skip:
constant m = 3 (the growth hypothesis fails) and d3 = 2 (outside
(d1, d2), which the switching groups need), and ``eigen`` runs of
``configs/reference.json`` with one key the parser rejects: a misspelled
solver or params key, a fractional grid ``n``, a boolean seed, a
negative seed and ``solver.scan_points``, a key the schema does not
name, so the diff covers the exit code and message of a rejection.  Each run is a separate ``python -m dispersal_lab`` process
on the ``src/`` tree next to this script, and gets one directory under OUT
holding its output files in ``files/`` and its ``stdout``, ``stderr`` and
``exit`` code.  Run the script from two checkouts and compare them with
``diff -r OUT_A OUT_B``; no file records a path, a time or a version.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
from dispersal_lab import analysis, cli  # noqa: E402  (the lab of this checkout)

THRESHOLD_SIZES = (401, 801)
SIGN_CHANGING_M = {"kind": "cosine_profile", "mean": -0.1, "amplitude": 0.3, "frequency": 1}
SWITCHING_GROUPS = ["switching-thresholds", "switching-dynamics"]
# run name -> (params changes to configs/reference.json, verify groups that skip under them)
SKIP_RUNS = {
    "verify_skip_growth": ({"m": {"kind": "constant", "value": 3.0}},
                           ["invasion-brackets", "exclusion-dynamics", *SWITCHING_GROUPS]),
    "verify_skip_d3": ({"d3": 2.0}, SWITCHING_GROUPS),
}
# run name -> (section of configs/reference.json, None for the top level, key, value)
REJECT_RUNS = {
    "reject_solver_tmax": ("solver", "tmax", 1.0),
    "reject_params_D3": ("params", "D3", 9.0),
    "reject_grid_n_fraction": ("grid", "n", 201.5),
    "reject_seed_boolean": (None, "seed", True),
    "reject_seed_negative": (None, "seed", -3),
    "reject_solver_scan_points": ("solver", "scan_points", 64),
}


def runs(out: Path) -> list[tuple[str, str, Path]]:
    """(run name, task, config path) of every run, writing the generated configs under out."""
    plan = [(f"{cfg.stem}/{task}", task, cfg)
            for cfg in sorted((ROOT / "configs").glob("*.json")) for task in cli.TASKS]
    base = json.loads((ROOT / "configs" / "threshold_dc.json").read_text(encoding="utf-8"))
    generated = out / "configs"
    generated.mkdir(parents=True, exist_ok=True)
    for n in THRESHOLD_SIZES:
        for name in analysis.THRESHOLDS:
            config = copy.deepcopy(base)
            config["grid"]["n"] = n
            config["task"] = {"name": "threshold", "threshold_name": name}
            if name.startswith("mu_"):
                config["params"]["m"] = dict(SIGN_CHANGING_M)
            path = generated / f"threshold_{name}_{n}.json"
            path.write_text(json.dumps(config, indent=1), encoding="utf-8")
            plan.append((f"threshold_{name}_{n}", "threshold", path))
    reference = json.loads((ROOT / "configs" / "reference.json").read_text(encoding="utf-8"))
    for name, (changes, groups) in SKIP_RUNS.items():
        config = copy.deepcopy(reference)
        config["params"].update(changes)
        config["task"] = {"name": "verify", "groups": groups}
        path = generated / f"{name}.json"
        path.write_text(json.dumps(config, indent=1), encoding="utf-8")
        plan.append((name, "verify", path))
    for name, (section, key, value) in REJECT_RUNS.items():
        config = copy.deepcopy(reference)
        (config[section] if section else config)[key] = value
        path = generated / f"{name}.json"
        path.write_text(json.dumps(config, indent=1), encoding="utf-8")
        plan.append((name, "eigen", path))
    return plan


def run_one(out: Path, name: str, task: str, config: Path) -> str:
    run_dir = out / name
    run_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1")
    # Relative --out and cwd = run_dir, so no output can hold an absolute path.
    proc = subprocess.run([sys.executable, "-m", "dispersal_lab", task, "--config", str(config),
                           "--out", "files"], cwd=run_dir, env=env, capture_output=True)
    (run_dir / "stdout").write_bytes(proc.stdout)
    (run_dir / "stderr").write_bytes(proc.stderr)
    (run_dir / "exit").write_text(f"{proc.returncode}\n", encoding="utf-8")
    return f"{name}: exit {proc.returncode}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory for the runs; must not exist")
    out = parser.parse_args().out.resolve()
    out.mkdir(parents=True)
    for run in runs(out):
        print(run_one(out, *run), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
