"""The benchmark's checks catch wrong outputs, shown at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q bench/oracle_selftest.py

The file name does not match pytest's test_*.py pattern, so the lab's
own test run does not collect it.
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import oracle as O  # noqa: E402
from dispersal_lab import analysis, cli, spectral  # noqa: E402
from dispersal_lab.model import sample_coefficients  # noqa: E402

BASE = json.loads((HERE.parent / "configs" / "threshold_dc.json").read_text(encoding="utf-8"))


def tiny(n: int) -> dict:
    config = copy.deepcopy(BASE)
    config["grid"]["n"] = n
    return config


def test_perturbed_root_is_caught():
    config = tiny(41)
    scenario = cli.parse_config(config)
    for name in ("d_c", "beta_c"):
        root = analysis.find_threshold(name, scenario.params, scenario.grid).root
        assert checks.check_root(name, root, config) == []
        assert checks.check_root(name, root * 1.01, config)
        assert checks.check_root(name, root * 0.99, config)


def test_swapped_sweep_outcome_is_caught():
    config = tiny(21)
    config["task"] = {"name": "sweep", "parameter": "d3", "values": [0.05, 1.5]}
    scenario = cli.parse_config(config)
    grid, coeffs = scenario.grid, sample_coefficients(scenario.params, scenario.grid)
    u, v = analysis.subsystem_steady(scenario.params, grid).state.components
    rows = []
    for d3 in config["task"]["values"]:
        local = replace(scenario.params, d3=d3)
        w = analysis.logistic_steady(local, grid).state.components[0]
        lam_uv0 = spectral.scalar_eigenvalue(grid, d3, coeffs.m - u - v).lam
        lam_00w = analysis.lambda2_eigenpair(local, grid, w).lam
        outcome = "w_wins" if lam_uv0 > 0 else "uv_wins"
        rows.append({"value": repr(d3), "lambda_uv0": repr(lam_uv0),
                     "lambda_00w": repr(lam_00w), "outcome": outcome})
    assert checks.check_sweep(rows, config) == []
    swapped = copy.deepcopy(rows)
    swapped[0]["outcome"], swapped[1]["outcome"] = rows[1]["outcome"], rows[0]["outcome"]
    assert len(checks.check_sweep(swapped, config)) == 2


def test_perturbed_eigenvalue_is_caught():
    config = tiny(41)
    s = checks.Setting(config)
    scenario = cli.parse_config(config)
    coeffs = sample_coefficients(scenario.params, scenario.grid)
    result = spectral.principal_eigen(spectral.switching_problem(
        scenario.grid, 0.1, 1.0, coeffs.alpha, coeffs.beta, coeffs.m))
    phi = np.concatenate(list(result.eigenfunctions))
    matrix = s.pair(s.m)
    assert checks.check_eigenpair(matrix, result.lam, phi, dense=True) == []
    assert checks.check_eigenpair(matrix, result.lam + 1e-6, phi, dense=True)
    assert checks.check_eigenpair(matrix, result.lam, -phi, dense=False)


def test_oracle_states_solve_their_equations():
    s = checks.Setting(tiny(41))
    u, v = s.pair_state()
    w = s.logistic_state(0.4)
    assert np.max(np.abs(0.4 * (s.lap @ w) + w * (s.m - w))) < 1e-12
    total = s.m - u - v
    assert np.max(np.abs(0.1 * (s.lap @ u) - s.alpha * u + s.beta * v + u * total)) < 1e-12
    assert np.min(u) > 0 and np.min(v) > 0 and np.min(w) > 0
    assert abs(O.rightmost(s.scalar(0.4, s.m - w))) < 1e-9
