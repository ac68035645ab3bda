from dataclasses import replace
from types import SimpleNamespace

import pytest

import dispersal_lab.analysis as analysis
from dispersal_lab.mesh import build_grid
from dispersal_lab.model import CoefficientSpec
from dispersal_lab.verify import VerifyContext, reference_params, run_battery


NO_GROWTH = ("hypothesis violation: growth hypothesis fails: need m non-constant, "
             "nonnegative mean, and 0 < max m < alpha + beta")
D3_OUTSIDE = "hypothesis violation: need d1 < d3 < d2, got d1=0.1, d3=2.0, d2=1.0"
M_ABOVE = "hypothesis violation: need max m <= alpha, got max m=0.7 > alpha=0.5"
NOT_CONSTANT = "hypothesis violation: alpha must be spatially constant for this analysis"
# Scenario changes to reference_params() -> the SKIP detail of each group that skips.
SKIPS = {
    "growth-hypothesis-fails": (
        {"m": CoefficientSpec.constant(3.0)},
        {"invasion-brackets": NO_GROWTH, "exclusion-dynamics": NO_GROWTH,
         "switching-thresholds": NO_GROWTH, "switching-dynamics": NO_GROWTH},
    ),
    "d3-outside-d1-d2": (
        {"d3": 2.0},
        {"switching-thresholds": D3_OUTSIDE, "switching-dynamics": D3_OUTSIDE},
    ),
    "max-m-above-the-rates": (
        {"alpha": CoefficientSpec.constant(0.5), "beta": CoefficientSpec.constant(0.5)},
        {"switching-thresholds": M_ABOVE, "switching-dynamics": M_ABOVE},
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


def sweeps_without_time_stepping(monkeypatch):
    """Stub analysis.sweep_outcomes; return the values swept per parameter, latest call last."""
    swept = {}

    def without_time_stepping(params, grid, parameter, values, opts):
        swept[parameter] = values
        return SimpleNamespace(points=[
            SimpleNamespace(value=v, outcome="undetermined", lambda_uv0=0.0, lambda_00w=0.0)
            for v in values
        ])

    monkeypatch.setattr(analysis, "sweep_outcomes", without_time_stepping)
    return swept


def test_switching_dynamics_reads_the_shared_thresholds(monkeypatch):
    swept = sweeps_without_time_stepping(monkeypatch)
    ctx = VerifyContext(grid=build_grid(0, 1, 101))
    assert (ctx.eigen_grid.a, ctx.eigen_grid.b, ctx.eigen_grid.n) == (0, 1, 201)
    assert (ctx.fine_grid.a, ctx.fine_grid.b, ctx.fine_grid.n) == (0, 1, 401)

    dynamics = run_battery(ctx, groups=["switching-dynamics"])
    checks = [r.name.rsplit("-", 1)[0] for r in dynamics]
    assert checks == ["outcome-at-beta"] * 2 + ["outcome-at-alpha"] * 2
    thresholds = run_battery(ctx, groups=["switching-thresholds"])
    assert [r for r in thresholds if r.status != "PASS"] == []
    for rate, name in (("beta", "beta_c"), ("alpha", "alpha_c")):
        root = analysis.find_threshold(name, ctx.params, ctx.eigen_grid).root
        assert swept[rate][0] == 0.05 * root


def test_groups_share_no_state(monkeypatch):
    """Each group gives the same rows whatever ran before it in the same context."""
    swept = sweeps_without_time_stepping(monkeypatch)
    order = ["switching-dynamics", "switching-thresholds", "invasion-brackets"]
    runs = [run_battery(VerifyContext(grid=build_grid(0, 1, 41)), groups=groups)
            for groups in (order, order[::-1], *([g] for g in order))]
    rows = [{g: [r for r in run if r.group == g] for g in order} for run in runs]
    assert all(rows[0][g] for g in order)
    assert rows[1] == rows[0]
    assert [alone[g] for alone, g in zip(rows[2:], order)] == [rows[0][g] for g in order]
    ctx = VerifyContext(grid=build_grid(0, 1, 41))
    for rate, name in (("beta", "beta_c"), ("alpha", "alpha_c")):
        root = analysis.find_threshold(name, ctx.params, ctx.eigen_grid).root
        assert swept[rate][0] == 0.05 * root
