"""Workload plans: the configs each workload runs and the order of its operations.

A plan is plain data (stdlib only) so that the caller can write it
before any workload process starts.  Every operation names a JSON
config in the lab's own format; the workload process loads all of them
with ``cli.load_config`` during set-up.  ``kind`` says how the loaded
config is run: ``cli`` goes through ``cli.run_scenario``, the other
kinds call one library function on the config's grid and coefficients.

The seed only shuffles the order of the operations in a round.  The
values of the inputs do not depend on it, so every seed does the same
work and figures from different seeds are comparable.
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

WORKLOADS = ("race", "thresholds", "spectra")

THRESHOLD_NAMES = ("d_c", "d_0", "beta_c", "alpha_c", "mu_star", "mu_zero")
THRESHOLD_SIZES = (401, 801)
EIGEN_SIZES = (1601, 6401)
ADJOINT_SIZES = (201, 801)
SCAN_SIZES = (201, 401)
# Curve scans use the lab's own root-finding lattices: (lo, hi, points).
MU_LATTICE = (1e-2, 1e2, 64)  # lambda(mu) of the pair, as for mu_zero
D_LATTICE = (1e-3, 1e3, 64)  # lambda(d) of the scalar problem, as for mu_star

# Habitat profiles: switching rates alpha, beta and growth m.
HABITATS = {
    # The lab's reference scenario (configs/reference.json).
    "reference": {
        "alpha": {"kind": "constant", "value": 1.0},
        "beta": {"kind": "constant", "value": 1.0},
        "m": {"kind": "cosine_profile", "mean": 0.4, "amplitude": 0.3, "frequency": 1},
    },
    # Rates and growth all vary in space, on different wavelengths.
    "patchy": {
        "alpha": {"kind": "cosine_profile", "mean": 1.0, "amplitude": 0.5, "frequency": 2},
        "beta": {"kind": "cosine_profile", "mean": 0.8, "amplitude": 0.4, "frequency": 1},
        "m": {"kind": "cosine_profile", "mean": 0.2, "amplitude": 0.5, "frequency": 3},
    },
    # Every coefficient constant: the principal eigenvalue is m itself.
    "uniform": {
        "alpha": {"kind": "constant", "value": 1.0},
        "beta": {"kind": "constant", "value": 0.5},
        "m": {"kind": "constant", "value": 0.3},
    },
    # Growth changes sign and has a negative mean, as mu_star and mu_zero require.
    "sign_changing": {
        "alpha": {"kind": "constant", "value": 1.0},
        "beta": {"kind": "constant", "value": 1.0},
        "m": {"kind": "cosine_profile", "mean": -0.1, "amplitude": 0.3, "frequency": 1},
    },
}


def lattice(spec: tuple[float, float, int]) -> list[float]:
    """Log-spaced points from lo to hi."""
    lo, hi, points = spec
    return [lo * (hi / lo) ** (i / (points - 1)) for i in range(points)]


def _read(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _variant(base: dict, n: int, **changes) -> dict:
    config = copy.deepcopy(base)
    config["grid"]["n"] = n
    for key, value in changes.items():
        config[key] = value
    return config


def _race(configs: Path) -> tuple[dict, list[dict]]:
    warm = _read(configs / "sweep_d3.json")
    warm["grid"]["n"] = 21
    warm["solver"]["t_max"] = 10.0
    ops = [{"id": "sweep_d3", "kind": "cli", "config": str(configs / "sweep_d3.json")}]
    return {"id": "warmup", "kind": "cli", "config": warm}, ops


def _thresholds(configs: Path) -> tuple[dict, list[dict]]:
    base = _read(configs / "threshold_dc.json")
    ops = []
    for n in THRESHOLD_SIZES:
        for name in THRESHOLD_NAMES:
            config = _variant(base, n, task={"name": "threshold", "threshold_name": name})
            if name.startswith("mu_"):
                config["params"].update(copy.deepcopy(HABITATS["sign_changing"]))
            ops.append({"id": f"{name}@{n}", "kind": "cli", "config": config,
                        "threshold": name, "n": n})
    warm = _variant(base, 101, task={"name": "threshold", "threshold_name": "d_c"})
    return {"id": "warmup", "kind": "cli", "config": warm}, ops


def _spectra(configs: Path) -> tuple[dict, list[dict]]:
    base = _read(configs / "reference.json")

    def with_habitat(n: int, habitat: str, system: str, task: str = "eigen") -> dict:
        config = _variant(base, n, system=system, task={"name": task})
        config["params"].update(copy.deepcopy(HABITATS[habitat]))
        return config

    ops = []
    for habitat in ("reference", "patchy", "uniform"):
        for system in ("logistic", "submodel"):
            for n in EIGEN_SIZES:
                ops.append({"id": f"eigen/{habitat}/{system}@{n}", "kind": "cli",
                            "config": with_habitat(n, habitat, system),
                            "habitat": habitat, "system": system, "n": n})
    for n in ADJOINT_SIZES:
        ops.append({"id": f"adjoint/patchy@{n}", "kind": "adjoint",
                    "config": with_habitat(n, "patchy", "submodel"), "n": n})
    for n in SCAN_SIZES:
        for kind in ("scan_mu", "scan_d"):
            ops.append({"id": f"{kind}/sign_changing@{n}", "kind": kind,
                        "config": with_habitat(n, "sign_changing", "submodel"), "n": n})
    warm = with_habitat(201, "reference", "submodel")
    return {"id": "warmup", "kind": "cli", "config": warm}, ops


def write_plan(workload: str, seed: int, root: Path, out: Path) -> Path:
    """Write the workload's generated configs and plan.json under out; return the plan path."""
    configs = root / "configs"
    warm, ops = {"race": _race, "thresholds": _thresholds, "spectra": _spectra}[workload](configs)
    random.Random(seed).shuffle(ops)
    config_dir = out / "configs"
    config_dir.mkdir(parents=True, exist_ok=True)
    for op in [warm] + ops:
        op["out"] = str(out / "ops" / op["id"].replace("/", "_").replace("@", "_"))
        if isinstance(op["config"], dict):
            path = config_dir / (Path(op["out"]).name + ".json")
            path.write_text(json.dumps(op["config"], indent=1), encoding="utf-8")
            op["config"] = str(path)
    plan = {"workload": workload, "seed": seed, "warmup": warm, "ops": ops}
    path = out / "plan.json"
    path.write_text(json.dumps(plan, indent=1), encoding="utf-8")
    return path
