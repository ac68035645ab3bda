"""Operation counts of a fixed small threshold workload, compared with a table.

Three thresholds of configs/threshold_dc.json at n = 101: d_0 (a 17-point
lattice, one Newton solve of w* per point), beta_c (a Brent bracket) and
mu_zero (a 64-point sign scan, with the growth rate of negative mean it
needs).  The test counts principal_eigen calls, their summed iterations
and the summed Newton iterations of the steady solves, from result fields
alone: it reads no clock.  A change to any iteration path (a stopping
test, a shift, a scan that solves more points cold) moves a count; such a
change updates the table and states the old and new counts.
"""

import json
from pathlib import Path

import pytest

import dispersal_lab.analysis as analysis
import dispersal_lab.spectral as spectral
from dispersal_lab.cli import parse_config

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "threshold_dc.json"
SIGN_CHANGING_M = {"kind": "cosine_profile", "mean": -0.1, "amplitude": 0.3, "frequency": 1}

# threshold -> (principal_eigen calls, summed EigenResult.iterations, summed Newton steps)
COUNTS = {
    "d_0": (22, 33, 142),
    "beta_c": (8, 57, 7),
    "mu_zero": (69, 69, 0),
}


def counted_threshold(monkeypatch, name):
    """(calls, iterations, Newton steps) of threshold_curve(name) at n = 101."""
    eigen, steps = [], []
    solve, newton = spectral.principal_eigen, analysis.newton_steady

    def counted_eigen(*args, **kwargs):
        result = solve(*args, **kwargs)
        eigen.append(result.iterations)
        return result

    def counted_newton(*args, **kwargs):
        result = newton(*args, **kwargs)
        steps.append(result.steps)
        return result

    # spectral's root finders call principal_eigen through its module, analysis through its own
    # import of the name.
    monkeypatch.setattr(spectral, "principal_eigen", counted_eigen)
    monkeypatch.setattr(analysis, "principal_eigen", counted_eigen)
    monkeypatch.setattr(analysis, "newton_steady", counted_newton)
    data = json.loads(CONFIG.read_text(encoding="utf-8"))
    data["grid"]["n"] = 101
    data["task"] = {"name": "threshold", "threshold_name": name}
    if name.startswith("mu_"):
        data["params"]["m"] = dict(SIGN_CHANGING_M)
    config = parse_config(data)
    analysis.threshold_curve(name, config.params, config.grid)
    return len(eigen), sum(eigen), sum(steps)


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_threshold_operation_counts_match_the_table(monkeypatch, name):
    assert counted_threshold(monkeypatch, name) == COUNTS[name]
