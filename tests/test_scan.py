"""Lattice scans of problem families against a reference scan that solves every point.

`reference_scan_roots` is spectral.scan_roots as it was before its sign
mode: the cold principal_eigen at every lattice point, then Brent's
method in each cell whose values change sign, and the exact-zero rule.
The scan, which certifies most signs from Collatz-Wielandt enclosures,
must return the same ThresholdResult list.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dispersal_lab.mesh import build_grid
from dispersal_lab.spectral import (
    EIGEN_TOL,
    ConvergenceError,
    ThresholdResult,
    assemble_banded,
    bisect_curve,
    principal_eigen,
    scalar_problem,
    scan_roots,
    switching_problem,
)


def outcome(scan, family, lattice):
    """The roots a scan returns, or the type and message of the error it raises."""
    try:
        return scan(family, lattice, "x")
    except ConvergenceError as exc:
        return type(exc), str(exc)


def reference_scan_roots(family, lattice, name):
    curve = lambda x: principal_eigen(family(x)).lam
    values = [curve(x) for x in lattice]
    roots = []
    for i in range(len(lattice) - 1):
        f_lo, f_hi = values[i], values[i + 1]
        if f_lo * f_hi < 0:
            roots.append(bisect_curve(curve, lattice[i], lattice[i + 1], name=name))
        elif f_hi == 0.0 and i + 2 < len(lattice) and f_lo * values[i + 2] < 0:
            roots.append(ThresholdResult(name, (lattice[i], lattice[i + 2]), lattice[i + 1], 0.0,
                                         int(np.sign(f_lo)), int(np.sign(values[i + 2]))))
    return roots


def profile(draw, grid, lo, hi):
    """mean + amplitude*cos(k*pi*x), with mean and amplitude in [lo, hi]."""
    mean, amplitude = draw(st.floats(lo, hi)), draw(st.floats(lo, hi))
    return mean + amplitude * np.cos(draw(st.integers(0, 3)) * np.pi * grid.nodes)


# Switching rates from 1e-9 (nearly decoupled pairs) to 10.
rates = st.floats(-9.0, 1.0).map(lambda e: 10.0 ** e)


@st.composite
def families(draw):
    """(family, lattice) of a random cooperative K = 1 or K = 2 problem family."""
    grid = build_grid(0, 1, draw(st.integers(5, 41)))
    points = draw(st.integers(3, 24))
    kind = draw(st.sampled_from(["shift", "constant", "diffusion", "mu"]))
    if kind == "shift":  # K = 1, the potential shifted by x: lambda(e) + x
        d, e = draw(st.floats(1e-3, 10.0)), profile(draw, grid, -1.0, 1.0)
        return (lambda x: scalar_problem(grid, d, e + x)), np.linspace(-2.0, 2.0, points)
    if kind == "constant":  # K = 1, the constant potential x: exactly 0 at x = 0
        d, half = draw(st.floats(1e-3, 10.0)), draw(st.integers(1, 12))
        return (lambda x: scalar_problem(grid, d, np.full(grid.n, x))), \
            np.linspace(-1.0, 1.0, 2 * half + 1)
    if kind == "diffusion":  # K = 1, as mu_star scans
        e = profile(draw, grid, -1.0, 1.0)
        return (lambda d: scalar_problem(grid, d, e)), np.geomspace(1e-3, 1e3, points)
    # K = 2, growth scaled by mu, as mu_zero scans
    d1, d2 = draw(st.floats(1e-3, 10.0)), draw(st.floats(1e-3, 10.0))
    alpha = np.full(grid.n, draw(rates)) + draw(st.sampled_from([0.0, 0.5])) * grid.nodes
    beta = np.full(grid.n, draw(rates))
    m = profile(draw, grid, -1.0, 1.0)
    return (lambda mu: switching_problem(grid, d1, d2, alpha, beta, mu * m)), \
        np.geomspace(1e-2, 1e2, points)


GRID = build_grid(0, 1, 41)


def decoupled_family(mu):
    """A nearly decoupled pair.  Its sign mode, started from the previous point's
    iterate (entries down to 5e-9), finds no stable shift at mu = 7.2, so the
    scan solves that point from ones, as the reference does."""
    return switching_problem(GRID, 0.001, 7.867179555581274, np.full(GRID.n, 2.727255329474793),
                             np.full(GRID.n, 1.7799412358762107e-08),
                             mu * (-0.010415587111531677
                                   + 0.43572579910446607 * np.cos(3 * np.pi * GRID.nodes)))


def constant_family(x):
    """The constant potential x, whose eigenvalue is exactly 0 at x = 0."""
    return scalar_problem(GRID, 0.3, np.full(GRID.n, x))


@settings(max_examples=150, deadline=None)
@given(families())
@example(case=(decoupled_family, np.geomspace(1e-2, 1e2, 8)))
@example(case=(constant_family, np.linspace(-1.0, 1.0, 9)))
def test_scan_returns_the_roots_of_the_reference_scan(case):
    assert outcome(scan_roots, *case) == outcome(reference_scan_roots, *case)


@st.composite
def shifted_problems(draw):
    """(problem, start): a random cooperative problem shifted so that its eigenvalue
    is about delta, and a positive start vector."""
    grid = build_grid(0, 1, draw(st.integers(5, 41)))
    K = draw(st.sampled_from([1, 2]))
    growth = profile(draw, grid, -1.0, 1.0)
    if K == 1:
        d = draw(st.floats(1e-3, 10.0))
        build = lambda shift: scalar_problem(grid, d, growth + shift)
    else:
        d1, d2 = draw(st.floats(1e-3, 10.0)), draw(st.floats(1e-3, 10.0))
        alpha, beta = draw(rates), draw(rates)
        build = lambda shift: switching_problem(grid, d1, d2, np.full(grid.n, alpha),
                                                np.full(grid.n, beta), growth + shift)
    delta = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-16.0, 0.0))
    problem = build(delta - principal_eigen(build(0.0)).lam)
    start = draw(st.sampled_from(["ones", "unshifted", "perturbed"]))
    if start == "ones":
        return problem, np.ones(K * grid.n)
    v = principal_eigen(build(0.0)).eigenfunctions.T.ravel()
    if start == "perturbed":
        v = v * (1.0 + 0.5 * np.cos(3.0 * np.arange(v.size)))
    return problem, v


@settings(max_examples=200, deadline=None)
@given(shifted_problems())
@example(case=(scalar_problem(build_grid(0, 1, 11), 0.2, np.zeros(11)), np.ones(11)))
@example(case=(scalar_problem(build_grid(0, 1, 26), 0.015625, np.full(26, -1e-11)),
               1.0 + 0.5 * np.cos(3.0 * np.arange(26))))  # converges before it certifies
def test_certified_sign_is_the_sign_of_the_cold_eigenvalue(case):
    problem, start = case
    signed = principal_eigen(problem, sign_from=start)
    cold = principal_eigen(problem)
    if signed.certified_sign:
        assert signed.certified_sign == np.sign(cold.lam)
    # Far enough from 0, the sign is certified by the time the iteration would
    # stop: the enclosure is then about the residual floor over min v wide.
    anorm = assemble_banded(problem.grid.laplacian, problem.diffusions,
                            problem.coupling).inf_norm()
    floor = max(EIGEN_TOL, 1e3 * np.finfo(float).eps * anorm)
    if abs(cold.lam) > 4.0 * floor / np.min(cold.eigenfunctions):
        assert signed.certified_sign == np.sign(cold.lam)
