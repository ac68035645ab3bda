"""Run every CLI task on every shipped config and keep everything each run leaves.

Usage: python3 tools/all_outputs.py OUT

Runs each task of ``cli.TASKS`` on each ``configs/*.json``, and each
threshold of ``analysis.THRESHOLDS`` on ``configs/threshold_dc.json`` at
n = 401 and 801 (the ``mu_`` thresholds with a sign-changing growth rate
of negative mean, as they require, and also at n = 1601, where the
largest diffusion rates of the ``mu_star`` scan make ||A|| about 1e10),
and two ``verify`` runs on ``configs/reference.json`` whose scenario
changes make groups skip: constant m = 3 (the growth hypothesis fails)
and d3 = 2 (outside (d1, d2), which the switching groups need), and
``eigen`` runs of
``configs/reference.json`` with one key the parser rejects: a misspelled
solver or params key, a fractional grid ``n``, a boolean seed, a
negative seed and ``solver.scan_points``, a key the schema does not
name, a ``samples`` growth rate of three values on its 201 nodes, and a
``sweep`` run of it with a negative d3 value, so the diff covers the
exit code and message of a rejection; an ``eigen`` run of it whose
output directory is taken by a file; a ``steady`` run at dt = 1 and a
``simulate`` run at dt = 2 of it, both to t_max = 200, whose explicit
stages overshoot so that the runs halve dt (once at step 191, then end
at t_max with exit 3; and at steps 3 and 87, then converge after 140
steps); and a ``three_component`` ``simulate`` run of it from the
constant state (1e308, 1e308, 0) at dt = 0.01 to t_max = 1, whose first
explicit stage is not finite (a numerical failure, exit 3); and two
``eigen`` runs of it whose eigensolve stalls and stops at the iteration
cap on a certified enclosure: at n = 1601 with alpha = 1 + 0.5 cos(pi x),
beta = 0.8 and m = cos(2 pi x), where the residual stays just above its
floor, and the ``logistic`` system at n = 401 with d3 = 984 and
m = 0.1 + 0.3 cos(3 pi x), where the residual is under its floor but the
eigenvalue estimate never settles.  Each run
is a separate ``python -m dispersal_lab`` process on the ``src/`` tree
next to this script, and gets one directory under OUT holding its
output files in ``files/`` and its ``stdout``, ``stderr`` and ``exit``
code.  OUT/openblas_core names the kernel family that numpy's bundled
OpenBLAS picked on this machine (``SkylakeX``, say), read once from its
``scipy_openblas_get_corename64_``; the outputs' bits can depend on it.
Run the script from two checkouts and compare them with
``diff -r OUT_A OUT_B``; no file records a path, a time or a version.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
import numpy as np  # noqa: E402
from dispersal_lab import analysis, cli, spectral  # noqa: E402  (the lab of this checkout)

THRESHOLD_SIZES = (401, 801)
MU_SIZES = (*THRESHOLD_SIZES, 1601)  # the mu_ thresholds are also run on a fine grid
SIGN_CHANGING_M = {"kind": "cosine_profile", "mean": -0.1, "amplitude": 0.3, "frequency": 1}
SWITCHING_GROUPS = ["switching-thresholds", "switching-dynamics"]
# run name -> (params changes to configs/reference.json, verify groups that skip under them)
SKIP_RUNS = {
    "verify_skip_growth": ({"m": {"kind": "constant", "value": 3.0}},
                           ["invasion-brackets", "exclusion-dynamics", *SWITCHING_GROUPS]),
    "verify_skip_d3": ({"d3": 2.0}, SWITCHING_GROUPS),
}
# run name -> (section of configs/reference.json, None for the top level, key, value); each runs
# the task its changed config names
REJECT_RUNS = {
    "reject_solver_tmax": ("solver", "tmax", 1.0),
    "reject_params_D3": ("params", "D3", 9.0),
    "reject_grid_n_fraction": ("grid", "n", 201.5),
    "reject_seed_boolean": (None, "seed", True),
    "reject_seed_negative": (None, "seed", -3),
    "reject_solver_scan_points": ("solver", "scan_points", 64),
    "reject_sweep_value_negative": (None, "task", {"name": "sweep", "parameter": "d3",
                                                   "values": [-0.5]}),
    "reject_samples_short": ("params", "m", {"kind": "samples", "values": [0.1, 0.2, 0.3]}),
}
OUTPUT_IS_FILE = "reject_output_is_file"  # an eigen run of configs/reference.json
# run name -> (task, solver changes to configs/reference.json, its other top-level changes)
STEPPING_RUNS = {
    "halve_steady_dt1": ("steady", {"dt": 1.0, "t_max": 200.0}, {}),
    "halve_simulate_dt2": ("simulate", {"dt": 2.0, "t_max": 200.0}, {}),
    "nonfinite_simulate": ("simulate", {"dt": 0.01, "t_max": 1.0}, {
        "system": "three_component", "initial": {"kind": "constant",
                                                 "values": [1e308, 1e308, 0.0]}}),
}

# run name -> (grid n, params changes, system) of the eigen runs of configs/reference.json
# that stop on an enclosure
STALLED_EIGENS = {
    "eigen_variable_1601": (1601, {
        "alpha": {"kind": "cosine_profile", "mean": 1.0, "amplitude": 0.5, "frequency": 1},
        "beta": {"kind": "constant", "value": 0.8},
        "m": {"kind": "cosine_profile", "mean": 0.0, "amplitude": 1.0, "frequency": 2}},
        "submodel"),
    "eigen_logistic_stall_401": (401, {
        "d3": 984.0,
        "m": {"kind": "cosine_profile", "mean": 0.1, "amplitude": 0.3, "frequency": 3}},
        "logistic"),
}


def runs(out: Path) -> list[tuple[str, str, Path]]:
    """(run name, task, config path) of every run, writing the generated configs under out."""
    plan = [(f"{cfg.stem}/{task}", task, cfg)
            for cfg in sorted((ROOT / "configs").glob("*.json")) for task in cli.TASKS]
    base = json.loads((ROOT / "configs" / "threshold_dc.json").read_text(encoding="utf-8"))
    generated = out / "configs"
    generated.mkdir(parents=True, exist_ok=True)
    for name in analysis.THRESHOLDS:
        for n in MU_SIZES if name.startswith("mu_") else THRESHOLD_SIZES:
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
        plan.append((name, config["task"]["name"], path))
    plan.append((OUTPUT_IS_FILE, "eigen", ROOT / "configs" / "reference.json"))
    for name, (task, solver, changes) in STEPPING_RUNS.items():
        config = copy.deepcopy(reference)
        config["solver"].update(solver)
        config.update(changes)
        config["task"] = {"name": task}
        path = generated / f"{name}.json"
        path.write_text(json.dumps(config, indent=1), encoding="utf-8")
        plan.append((name, task, path))
    for name, (n, changes, system) in STALLED_EIGENS.items():
        config = copy.deepcopy(reference)
        config["grid"]["n"] = n
        config["params"].update(changes)
        config["system"] = system
        path = generated / f"{name}.json"
        path.write_text(json.dumps(config, indent=1), encoding="utf-8")
        plan.append((name, "eigen", path))
    return plan


def openblas_core() -> str:
    """The core name of the OpenBLAS in numpy.libs/ that the lab binds, as that library
    reports it; the runs inherit this process's environment, so they pick the same one."""
    library = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(spectral._OPENBLAS))[0]
    corename = ctypes.CDLL(str(library)).scipy_openblas_get_corename64_
    corename.restype = ctypes.c_char_p
    return corename().decode()


def run_one(out: Path, name: str, task: str, config: Path) -> str:
    run_dir = out / name
    run_dir.mkdir(parents=True, exist_ok=True)
    if name == OUTPUT_IS_FILE:  # a file where the run's output directory goes
        (run_dir / "files").write_text("not a directory\n", encoding="utf-8")
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
    (out / "openblas_core").write_text(f"{openblas_core()}\n", encoding="utf-8")
    for run in runs(out):
        print(run_one(out, *run), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
