from dataclasses import replace
from types import SimpleNamespace

import pytest

import dispersal_lab.analysis as analysis
from dispersal_lab.mesh import build_grid
from dispersal_lab.model import CoefficientSpec
from dispersal_lab.verify import VerifyContext, reference_params, run_battery


def count_steady_solves(monkeypatch):
    calls = {"logistic_steady": 0, "subsystem_steady": 0}
    for name in calls:
        original = getattr(analysis, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(analysis, name, counted)
    return calls


def test_switching_thresholds_solve_w_star_once(monkeypatch):
    calls = count_steady_solves(monkeypatch)
    ctx = VerifyContext(grid=build_grid(0, 1, 101))
    results = run_battery(ctx, groups=["switching-thresholds"])
    assert [r for r in results if r.status != "PASS"] == []
    assert calls == {"logistic_steady": 1, "subsystem_steady": 0}


def test_invasion_brackets_solve_the_pair_once(monkeypatch):
    calls = count_steady_solves(monkeypatch)
    ctx = VerifyContext(grid=build_grid(0, 1, 101))
    results = run_battery(ctx, groups=["invasion-brackets"])
    assert [r for r in results if r.status != "PASS"] == []
    assert calls["subsystem_steady"] == 1


NO_SETTING = "needs the growth hypothesis and d1 < d3 < d2"
NOT_CONSTANT = "hypothesis violation: alpha must be spatially constant for this analysis"
# Scenario changes to reference_params() -> the SKIP detail of each group that skips.
SKIPS = {
    "growth-hypothesis-fails": (
        {"m": CoefficientSpec.constant(3.0)},
        {"invasion-brackets": "growth hypothesis fails for the configured scenario",
         "switching-thresholds": NO_SETTING, "switching-dynamics": NO_SETTING},
    ),
    "d3-outside-d1-d2": (
        {"d3": 2.0},
        {"switching-thresholds": NO_SETTING, "switching-dynamics": NO_SETTING},
    ),
    "max-m-above-the-rates": (
        {"alpha": CoefficientSpec.constant(0.5), "beta": CoefficientSpec.constant(0.5)},
        {"switching-thresholds": "needs max m <= alpha and max m <= beta",
         "switching-dynamics": "needs max m <= alpha and max m <= beta"},
    ),
    "non-constant-alpha": (
        {"alpha": CoefficientSpec.cosine(1.0, 0.2, 1)},
        {"invasion-brackets": NOT_CONSTANT, "switching-thresholds": NOT_CONSTANT,
         "switching-dynamics": NOT_CONSTANT},
    ),
}


@pytest.mark.parametrize("scenario", list(SKIPS))
def test_groups_skip_with_the_reason(scenario):
    changes, expected = SKIPS[scenario]
    ctx = VerifyContext(replace(reference_params(), **changes), build_grid(0, 1, 41))
    rows = run_battery(ctx, groups=list(expected))
    assert [(r.group, r.name, r.status, r.detail) for r in rows] == [
        (group, "all", "SKIP", detail) for group, detail in expected.items()
    ]


def test_switching_dynamics_reads_the_shared_thresholds(monkeypatch):
    grid_sizes = []
    original = analysis.logistic_steady

    def recorded(params, grid, *args, **kwargs):
        grid_sizes.append(grid.n)
        return original(params, grid, *args, **kwargs)

    swept = {}

    def without_time_stepping(params, grid, parameter, values, opts=None):
        swept[parameter] = values
        return SimpleNamespace(points=[
            SimpleNamespace(value=v, outcome="undetermined", lambda_uv0=0.0, lambda_00w=0.0)
            for v in values
        ])

    monkeypatch.setattr(analysis, "logistic_steady", recorded)
    monkeypatch.setattr(analysis, "sweep_outcomes", without_time_stepping)
    ctx = VerifyContext(grid=build_grid(0, 1, 101))
    assert (ctx.eigen_grid.a, ctx.eigen_grid.b, ctx.eigen_grid.n) == (0, 1, 201)
    assert (ctx.fine_grid.a, ctx.fine_grid.b, ctx.fine_grid.n) == (0, 1, 401)

    dynamics = run_battery(ctx, groups=["switching-dynamics"])
    checks = [r.name.rsplit("-", 1)[0] for r in dynamics]
    assert checks == ["outcome-at-beta"] * 2 + ["outcome-at-alpha"] * 2
    assert grid_sizes == [201]
    thresholds = run_battery(ctx, groups=["switching-thresholds"])
    assert [r for r in thresholds if r.status != "PASS"] == []
    assert grid_sizes == [201]
    for rate, name in (("beta", "beta_c"), ("alpha", "alpha_c")):
        root = analysis.find_threshold(name, ctx.params, ctx.eigen_grid).root
        assert ctx.rate_threshold(name).roots[0].root == root
        assert swept[rate][0] == 0.05 * root
