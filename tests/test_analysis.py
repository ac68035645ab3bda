import json
from pathlib import Path

import numpy as np
import pytest
from dataclasses import replace

from dispersal_lab.mesh import build_grid
from dispersal_lab import analysis, dynamics
from dispersal_lab.model import (
    CoefficientSpec,
    HypothesisError,
    ModelParams,
    SystemKind,
    reaction_jacobian,
    sample_coefficients,
)
from dispersal_lab.analysis import (
    classify_endpoint,
    find_threshold,
    lambda2_eigenpair,
    lambda2_sensitivity,
    logistic_steady,
    subsystem_steady,
    sweep_outcomes,
    weighted_average_diffusion,
)
from dispersal_lab.cli import EXIT_OK, parse_config, run_scenario
from dispersal_lab.dynamics import SolverOptions, StepOvershootError
from dispersal_lab.spectral import (
    assemble_banded,
    dense_rightmost,
    principal_eigen,
    scalar_eigenvalue,
    switching_problem,
)

# The race options of the exclusion-dynamics verify group.
RACE = SolverOptions(dt=0.02, sample_every=5.0)


@pytest.fixture(scope="module")
def grid():
    return build_grid(0, 1, 201)


@pytest.fixture(scope="module")
def params():
    return ModelParams(
        d1=0.1,
        d2=1.0,
        d3=0.4,
        alpha=CoefficientSpec.constant(1.0),
        beta=CoefficientSpec.constant(1.0),
        m=CoefficientSpec.cosine(0.4, 0.3, 1),
    )


@pytest.fixture(scope="module")
def pair(params, grid):
    return subsystem_steady(params, grid)


@pytest.fixture(scope="module")
def w_star(params, grid):
    return logistic_steady(params, grid)


# The invading principal eigenvalue decides the stability of an equilibrium;
# |lambda| > 1e-8 keeps each sign clear of rounding.


def test_pair_state_unstable_at_slow_rate(params, grid, pair):
    # w invades (u*, v*, 0) at d3 = d1: scalar eigenvalue with potential m - u* - v*.
    u, v = pair.state.components
    coeffs = sample_coefficients(params, grid)
    assert scalar_eigenvalue(grid, params.d1, coeffs.m - u - v).lam > 1e-8


def test_single_state_stable_at_slow_rate(params, grid):
    local = replace(params, d3=params.d1)
    w_slow = logistic_steady(local, grid).state.components[0]
    assert lambda2_eigenpair(local, grid, w_slow).lam < -1e-8


def test_positive_pair_stable_in_competitive_regime(grid):
    competitive = ModelParams(
        d1=0.1, d2=1.0, b=0.5, c=0.5,
        alpha=CoefficientSpec.constant(0.05),
        beta=CoefficientSpec.constant(0.05),
        m=CoefficientSpec.cosine(1.0, 0.2, 1),
    )
    from dispersal_lab.dynamics import SolverOptions, constant_state, integrate_to_steady
    from dispersal_lab.model import SystemKind

    steady = integrate_to_steady(
        SystemKind.TWO_SPECIES_GENERAL, competitive, grid,
        constant_state(SystemKind.TWO_SPECIES_GENERAL, grid, [0.5, 0.5]),
        SolverOptions(dt=0.02, sample_every=10.0, store_fields=False),
    )
    assert steady.converged
    u, v = steady.state.components
    assert np.min(u) > 0 and np.min(v) > 0
    jac = reaction_jacobian(SystemKind.TWO_SPECIES_GENERAL, competitive,
                            sample_coefficients(competitive, grid), steady.state.components)
    lam, _ = dense_rightmost(assemble_banded(grid.laplacian, (competitive.d1, competitive.d2),
                                             jac).to_dense())
    assert lam.real < -1e-8


def test_trivial_state_classification(params, grid):
    coeffs = sample_coefficients(params, grid)
    problem = switching_problem(grid, params.d1, params.d2, coeffs.alpha, coeffs.beta, coeffs.m)
    assert principal_eigen(problem).lam > 1e-8


def test_d_c_inside_proved_bracket(params, grid):
    result = find_threshold("d_c", params, grid)
    hi = weighted_average_diffusion(params, 1.0, 1.0)
    assert params.d1 < result.root < hi
    assert result.residual <= 1e-8
    assert result.sign_left == 1 and result.sign_right == -1


def test_beta_c_and_guard(params, grid):
    result = find_threshold("beta_c", params, grid)
    assert 0 < result.root < 2.0
    bad = replace(params, d3=1.5)
    with pytest.raises(HypothesisError):
        find_threshold("beta_c", bad, grid)


def test_d_0_matches_cli_first_root(tmp_path):
    # Halving on a 16-point lattice once stalled on this root at |f| = 1.05e-9
    # (see D0_SCAN_POINTS).
    path = Path(__file__).resolve().parents[1] / "configs" / "threshold_dc.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    data["task"] = {"name": "threshold", "threshold_name": "d_0"}
    data["output"] = str(tmp_path)
    config = parse_config(data)
    assert config.grid.n == 401
    assert run_scenario(config).exit_status == EXIT_OK
    row = (tmp_path / "threshold.csv").read_text().splitlines()[1].split(",")
    result = find_threshold("d_0", config.params, config.grid)
    assert format(result.root, ".17g") == row[3]


def test_d_0_family_is_pure(params, grid, monkeypatch):
    """The lambda2(d3) problem at a lattice point does not depend on the points built before it."""
    scans = []
    monkeypatch.setattr(analysis, "scan_roots", lambda *args: scans.append(args) or [])
    analysis.lambda2_sign_changes(params, grid, sample_coefficients(params, grid))
    (family, lattice, name), = scans
    assert name == "d_0"
    first = family(lattice[8]).coupling
    for d3 in lattice:
        family(d3)
    assert np.array_equal(family(lattice[8]).coupling, first)


@pytest.mark.parametrize("name", list(analysis.THRESHOLDS))
def test_thresholds_do_not_time_step(params, name, monkeypatch):
    """Every stepping path goes through ImexStepper.advance; no threshold may reach it."""
    def no_stepping(*args, **kwargs):
        raise AssertionError("a threshold time-stepped")

    monkeypatch.setattr(dynamics.ImexStepper, "advance", no_stepping)
    if name.startswith("mu_"):  # these need growth that changes sign with negative mean
        params = replace(params, m=CoefficientSpec.cosine(-0.1, 0.3, 1))
    assert np.isfinite(find_threshold(name, params, build_grid(0, 1, 51)).root)


def test_threshold_requires_growth_hypothesis(grid, params):
    bad = replace(params, m=CoefficientSpec.constant(3.0))
    with pytest.raises(HypothesisError):
        find_threshold("d_c", bad, grid)


def test_threshold_requires_constant_rates(grid, params):
    varying = replace(params, alpha=CoefficientSpec.cosine(1.0, 0.2, 1))
    with pytest.raises(HypothesisError):
        find_threshold("d_c", varying, grid)


def test_lambda2_sensitivity_matches_difference(params, grid, w_star):
    coeffs = sample_coefficients(params, grid)
    w_field = w_star.state.components[0]
    growth = coeffs.m - w_field

    def curve(beta_val):
        problem = switching_problem(
            grid, params.d1, params.d2, coeffs.alpha, np.full(grid.n, beta_val), growth
        )
        return principal_eigen(problem).lam

    h = 1e-3
    fd = (curve(1.0 + h) - curve(1.0 - h)) / (2 * h)
    slope = lambda2_sensitivity(params, grid, "beta", w_star=w_field)
    assert abs(slope - fd) <= 1e-4


def test_lambda2_eigenpair_positive(params, grid, w_star):
    eig = lambda2_eigenpair(params, grid, w_star.state.components[0])
    assert np.min(eig.eigenfunctions) > 0


def test_classify_endpoint():
    assert classify_endpoint(np.array([1e-8, 1e-7, 0.3])) == "w_wins"
    assert classify_endpoint(np.array([0.2, 0.1, 1e-9])) == "uv_wins"
    assert classify_endpoint(np.array([1e-5, 1e-5, 0.3])) == "undetermined"
    assert classify_endpoint(np.array([1e-8, 1e-8, 1e-8])) == "undetermined"


def test_sweep_validates_parameter(params, grid):
    with pytest.raises(ValueError):
        sweep_outcomes(params, grid, "d1", [0.1], RACE)


def test_sweep_end_members(params):
    coarse = build_grid(0, 1, 101)
    report = sweep_outcomes(params, coarse, "d3", [0.05, 1.5], RACE)
    outcomes = {p.value: p.outcome for p in report.points}
    assert outcomes[0.05] == "w_wins"
    assert outcomes[1.5] == "uv_wins"
    assert report.empirical_c1 == 0.05
    assert report.empirical_c2 == 1.5
    for p in report.points:
        if p.outcome == "w_wins":
            assert p.lambda_00w < 1e-6 and p.lambda_uv0 > -1e-6
        if p.outcome == "uv_wins":
            assert p.lambda_uv0 < 1e-6 and p.lambda_00w > -1e-6


def test_sweep_propagates_programming_errors(params, monkeypatch):
    """Only numerical failures become 'undetermined' rows; a TypeError escapes."""
    integrate = analysis.integrate_runs

    def broken_race(kind, *args, **kwargs):
        if kind is SystemKind.THREE_COMPONENT:
            raise TypeError("bug in the race simulation")
        return integrate(kind, *args, **kwargs)

    monkeypatch.setattr(analysis, "integrate_runs", broken_race)
    with pytest.raises(TypeError, match="bug in the race"):
        sweep_outcomes(params, build_grid(0, 1, 31), "d3", [0.05], RACE)


def test_sweep_records_a_run_past_the_dt_halvings(params):
    """dt = 50 overshoots at every halving down to 50/16: an undetermined row, not an error."""
    report = sweep_outcomes(params, build_grid(0, 1, 31), "d3", [0.05, 1.5],
                            SolverOptions(dt=50.0, sample_every=50.0, store_fields=False))
    for point in report.points:
        assert point.outcome == "undetermined" and not point.converged and point.steps == 0
        assert point.note.startswith("simulation failed: dt=3.125 too large: explicit stage")
        assert np.isnan(point.floors).all() and np.isnan(point.residual)


def test_sweep_raises_run_errors_in_point_order(params, monkeypatch):
    """Numerical failures become rows; the first other error, by point, is raised."""
    errors = [StepOvershootError("dt=0.02 too large"), ValueError("second point"),
              TypeError("third point")]
    monkeypatch.setattr(analysis, "integrate_runs", lambda *args, **kwargs: errors)
    with pytest.raises(ValueError, match="second point"):
        sweep_outcomes(params, build_grid(0, 1, 31), "d3", [0.05, 0.08, 1.5], RACE)
