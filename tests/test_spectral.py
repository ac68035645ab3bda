import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from dispersal_lab.analysis import find_threshold
from dispersal_lab.cli import parse_config
from dispersal_lab.mesh import assemble_neumann_laplacian, build_grid
from dispersal_lab.spectral import (
    BISECT_MAX_ITER,
    RESIDUAL_TOL,
    BandedOperator,
    ConvergenceError,
    CooperativityError,
    ThresholdResult,
    adjoint_principal_eigen,
    assemble_banded,
    assemble_dense,
    bisect_curve,
    component_weights,
    dense_rightmost,
    find_mu_roots,
    lambda_of_mu,
    lambda_prime_at_zero,
    mu_star_scalar,
    principal_eigen,
    scalar_eigenvalue,
    scalar_problem,
    switching_problem,
)


@pytest.fixture(scope="module")
def grid():
    return build_grid(0, 1, 201)


def test_scalar_constant_potential(grid):
    res = scalar_eigenvalue(grid, 0.7, np.full(grid.n, 1.5))
    assert abs(res.lam - 1.5) < 1e-12
    phi = res.eigenfunctions[0]
    assert np.max(phi) - np.min(phi) < 1e-10


def test_constant_coefficients_coupled(grid):
    m0, a0, b0 = 0.8, 2.0, 0.5
    problem = switching_problem(
        grid, 0.1, 1.0, np.full(grid.n, a0), np.full(grid.n, b0), np.full(grid.n, m0)
    )
    res = principal_eigen(problem)
    assert abs(res.lam - m0) < 1e-9
    ratio = res.eigenfunctions[0] / res.eigenfunctions[1]
    assert np.allclose(ratio, b0 / a0, atol=1e-8)


def test_adjoint_matches_and_is_uniform_for_constants(grid):
    # The transposed coupling keeps row sums equal to m0, so its positive
    # eigenvector is spatially and componentwise constant.
    problem = switching_problem(
        grid, 0.1, 1.0, np.full(grid.n, 2.0), np.full(grid.n, 0.5), np.full(grid.n, 0.8)
    )
    primal = principal_eigen(problem)
    adj = adjoint_principal_eigen(problem, primal=primal)
    assert abs(adj.lam - primal.lam) <= 1e-8 * (1 + abs(primal.lam))
    assert np.max(np.abs(adj.eigenfunctions - 1.0)) < 1e-8


def test_adjoint_eigenvalue_matches_on_variable_problem(grid):
    x = grid.nodes
    problem = switching_problem(
        grid, 0.2, 0.9, 1.0 + 0.5 * np.cos(np.pi * x), np.full(grid.n, 0.8),
        np.cos(2 * np.pi * x),
    )
    primal = principal_eigen(problem)
    adj = adjoint_principal_eigen(problem, primal=primal)
    assert abs(adj.lam - primal.lam) <= 1e-8 * (1 + abs(primal.lam))
    assert np.min(adj.eigenfunctions) > 0


def test_adjoint_biorthogonal_to_secondary_eigenvector(grid):
    problem = switching_problem(
        grid, 0.1, 1.0, np.full(grid.n, 1.0), np.full(grid.n, 0.6), np.full(grid.n, 0.4)
    )
    adj = adjoint_principal_eigen(problem, principal_eigen(problem))
    dense = assemble_dense(problem)
    eigvals, eigvecs = np.linalg.eig(dense)
    order = np.argsort(-eigvals.real)
    secondary = eigvecs[:, order[1]].real
    w = component_weights(grid, 2)
    psi = adj.eigenfunctions.T.reshape(-1)
    pairing = float(np.sum(w * psi * secondary))
    scale = np.linalg.norm(psi) * np.linalg.norm(secondary) / grid.n
    assert abs(pairing) <= 1e-8 * scale * grid.n


def test_eigenfunctions_strictly_positive(grid):
    x = grid.nodes
    problem = switching_problem(
        grid, 0.05, 1.0, 0.5 + 0.4 * np.cos(np.pi * x), np.full(grid.n, 1.0),
        np.cos(2 * np.pi * x) - 0.3,
    )
    res = principal_eigen(problem)
    assert np.min(res.eigenfunctions) > 0


def test_strict_domination_over_single_rate_eigenvalues(grid):
    x = grid.nodes
    alpha = np.full(grid.n, 1.0)
    beta = np.full(grid.n, 1.0)
    m = np.cos(2 * np.pi * x)
    lam0 = principal_eigen(switching_problem(grid, 0.1, 1.0, alpha, beta, m)).lam
    lam1 = scalar_eigenvalue(grid, 0.1, m - alpha).lam
    lam2 = scalar_eigenvalue(grid, 1.0, m - beta).lam
    assert lam0 > max(lam1, lam2) + 1e-9


def test_monotone_decreasing_in_diffusion(grid):
    e = np.cos(2 * np.pi * grid.nodes) + 0.1
    lams = [scalar_eigenvalue(grid, d, e).lam for d in (0.1, 0.3, 1.0, 3.0)]
    assert all(lams[i] > lams[i + 1] + 1e-9 for i in range(3))
    const = np.full(grid.n, 0.3)
    lams_const = [scalar_eigenvalue(grid, d, const).lam for d in (0.1, 0.3, 1.0, 3.0)]
    assert max(abs(l - 0.3) for l in lams_const) < 1e-9


def test_monotone_in_potential(grid):
    base = np.cos(2 * np.pi * grid.nodes)
    for d in (0.1, 1.0):
        assert (
            scalar_eigenvalue(grid, d, base + 0.1).lam
            > scalar_eigenvalue(grid, d, base - 0.1).lam + 1e-9
        )


def test_iterative_matches_dense_oracle():
    g = build_grid(0, 1, 101)
    rng = np.random.default_rng(42)
    for case in range(6):
        if case % 2 == 0:
            problem = scalar_problem(g, float(rng.uniform(0.05, 1.5)), rng.uniform(-1, 1, g.n))
        else:
            problem = switching_problem(
                g,
                float(rng.uniform(0.05, 0.4)),
                float(rng.uniform(0.5, 1.5)),
                rng.uniform(0.2, 1.2, g.n),
                rng.uniform(0.2, 1.2, g.n),
                rng.uniform(-1, 1, g.n),
            )
        lam = principal_eigen(problem).lam
        lam_dense, _ = dense_rightmost(assemble_dense(problem))
        assert abs(lam - lam_dense.real) <= 1e-7 * (1 + abs(lam_dense.real))


def test_zero_growth_eigenvalue_is_zero(grid):
    x = grid.nodes
    res = principal_eigen(
        switching_problem(grid, 0.1, 1.0, 1.0 + 0.5 * np.cos(np.pi * x),
                          np.full(grid.n, 1.0), np.zeros(grid.n))
    )
    assert abs(res.lam) < 1e-10
    assert np.min(res.eigenfunctions) > 0


def test_lambda_of_mu_convex(grid):
    x = grid.nodes
    alpha = np.full(grid.n, 1.0)
    m = np.cos(2 * np.pi * x) - 0.15
    vals = [lambda_of_mu(grid, 0.1, 1.0, alpha, alpha, m, mu) for mu in (0.0, 0.5, 1.0)]
    assert abs(vals[0]) < 1e-10
    assert vals[1] <= 0.5 * (vals[0] + vals[2]) + 1e-9


def test_lambda_prime_at_zero_constant_ratio(grid):
    x = grid.nodes
    beta = 1.0 + 0.3 * np.cos(2 * np.pi * x)
    m = np.cos(2 * np.pi * x) - 0.2
    slope = lambda_prime_at_zero(grid, 0.1, 1.0, 2.0 * beta, beta, m)
    assert abs(slope - (-0.2)) < 1e-7


def test_lambda_prime_matches_central_difference(grid):
    x = grid.nodes
    alpha = 1.0 + 0.5 * np.cos(np.pi * x)
    beta = np.full(grid.n, 1.0)
    m = np.cos(2 * np.pi * x) - 0.2
    slope = lambda_prime_at_zero(grid, 0.1, 1.0, alpha, beta, m)
    h = 1e-4
    fd = (
        lambda_of_mu(grid, 0.1, 1.0, alpha, beta, m, h)
        - lambda_of_mu(grid, 0.1, 1.0, alpha, beta, m, -h)
    ) / (2 * h)
    assert abs(slope - fd) <= 1e-5


def test_scaling_identity(grid):
    x = grid.nodes
    alpha = np.full(grid.n, 1.0)
    beta = np.full(grid.n, 0.7)
    m = np.cos(2 * np.pi * x) - 0.1
    for mu in (0.5, 2.0, 10.0):
        # d*diag(L, d0*L) + mu*M, M the switching matrix, with d0 = 10
        scaled = switching_problem(grid, 1.0, 10.0, mu * alpha, mu * beta, mu * m)
        left = principal_eigen(scaled).lam
        d = 1.0 / mu
        right = mu * principal_eigen(switching_problem(grid, d, d * 10.0, alpha, beta, m)).lam
        assert abs(left - right) <= 1e-8 * (1 + abs(left))


def test_find_mu_roots_no_sign_change(grid):
    e = np.cos(2 * np.pi * grid.nodes) + 0.05  # nonnegative mean: always positive
    curve = lambda d: scalar_eigenvalue(grid, d, e).lam
    assert find_mu_roots(curve, (0.05, 20.0), "d_root", scan_points=16) == []


def test_find_mu_roots_keeps_root_on_lattice_point():
    lattice = np.geomspace(1e-2, 1e2, 64)
    roots = find_mu_roots(lambda x: x - lattice[20], (1e-2, 1e2), "mu_star")
    assert len(roots) == 1
    assert roots[0].root == lattice[20]
    assert roots[0].bracket == (lattice[19], lattice[21])
    assert roots[0].residual == 0.0
    assert (roots[0].sign_left, roots[0].sign_right) == (-1, 1)


def test_mu_star_sign_law():
    g = build_grid(0, 1, 401)
    e = np.cos(2 * np.pi * g.nodes) - 0.1
    result = mu_star_scalar(g, e)
    assert result.residual <= 1e-8
    assert scalar_eigenvalue(g, 0.5 / result.root, e).lam > 1e-9
    assert scalar_eigenvalue(g, 2.0 / result.root, e).lam < -1e-9


def test_mu_star_rejects_nonnegative_mean(grid):
    from dispersal_lab.model import HypothesisError

    with pytest.raises(HypothesisError):
        mu_star_scalar(grid, np.cos(2 * np.pi * grid.nodes) + 0.1)


def test_coupled_constant_ratio_unique_root(grid):
    x = grid.nodes
    beta = np.full(grid.n, 0.8)
    m = np.cos(2 * np.pi * x) - 0.15
    curve = lambda mu: lambda_of_mu(grid, 0.1, 1.0, 1.5 * beta, beta, m, mu)
    roots = find_mu_roots(curve, (1e-2, 1e2), name="mu_zero")
    assert len(roots) == 1
    assert roots[0].residual <= 1e-8


def test_cooperativity_violations(grid):
    with pytest.raises(CooperativityError):
        switching_problem(
            grid, 0.1, 1.0, np.full(grid.n, -0.5), np.full(grid.n, 1.0), np.zeros(grid.n)
        )
    with pytest.raises(CooperativityError):
        switching_problem(
            grid, 0.1, 1.0, np.zeros(grid.n), np.full(grid.n, 1.0), np.zeros(grid.n)
        )


def test_threshold_result_invariants():
    with pytest.raises(ValueError):
        ThresholdResult("d_c", (0.1, 0.5), 0.6, 1e-10, 1, -1)
    with pytest.raises(ValueError):
        ThresholdResult("d_c", (0.1, 0.5), 0.3, 1e-10, 1, 1)
    with pytest.raises(ValueError):
        ThresholdResult("d_c", (0.1, 0.5), 0.3, 1e-6, 1, -1)


def counted(curve):
    """curve, with the number of calls it has received in .calls."""
    def wrapped(x):
        wrapped.calls += 1
        return curve(x)
    wrapped.calls = 0
    return wrapped


def refine(curve, lo, hi):
    return bisect_curve(curve, lo, hi, curve(lo), curve(hi), name="t")


@settings(max_examples=80, deadline=None)
@given(r=st.floats(0.1, 10.0), a=st.floats(1e-2, 1e2), b=st.floats(0.0, 1e2),
       left=st.floats(1e-6, 10.0), right=st.floats(1e-6, 10.0))
def test_refinement_of_a_simple_root(r, a, b, left, right):
    lo, hi = r - left, r + right
    curve = counted(lambda x: a * (x - r) + b * (x - r) ** 3)
    result = refine(curve, lo, hi)
    assert result.evaluations == curve.calls - 2  # the endpoints are not counted
    assert lo < result.root < hi
    assert result.residual <= RESIDUAL_TOL
    assert abs(result.root - r) <= RESIDUAL_TOL / a


@pytest.mark.parametrize("curve", [
    lambda x: x - 0.3 if x > 0.3 else 3.0 * (x - 0.3),  # kink
    lambda x: np.tanh(5.0 * (x - 0.3)) ** 3,  # flat stretch about a triple root
], ids=["kink", "tanh_cubed"])
def test_refinement_ends_inside_the_bracket_on_awkward_curves(curve):
    result = refine(curve, 0.1, 0.9)
    assert 0.1 < result.root < 0.9
    assert result.residual <= RESIDUAL_TOL


def test_refinement_of_a_jump_stalls_after_the_evaluation_budget():
    curve = counted(lambda x: -1.0 if x < 0.3 else 1.0)
    f_lo, f_hi = curve(0.1), curve(0.9)
    with pytest.raises(ConvergenceError, match="stalled"):
        bisect_curve(curve, 0.1, 0.9, f_lo, f_hi, name="jump")
    assert curve.calls == 2 + BISECT_MAX_ITER


@pytest.mark.parametrize("hi", [0.9, 1.0, 3.7, 1e3])
def test_root_one_ulp_below_hi_comes_back_inside(hi):
    r = np.nextafter(hi, 0.0)
    result = refine(lambda x: 1e9 * (x - r), 0.1, hi)
    assert 0.1 < result.root < hi
    assert result.residual <= RESIDUAL_TOL


@pytest.mark.parametrize("name", ["d_c", "beta_c", "alpha_c"])
def test_bracketed_thresholds_take_few_evaluations(name):
    path = Path(__file__).resolve().parents[1] / "configs" / "threshold_dc.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    data["grid"]["n"] = 101
    config = parse_config(data)
    result = find_threshold(name, config.params, config.grid)
    assert 1 <= result.evaluations <= 8


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(K=st.sampled_from([1, 2]), n=st.integers(3, 40), seed=st.integers(0, 2**32 - 1),
       sigma=st.floats(-50.0, 50.0), negative=st.booleans())
def test_shifted_solve_is_bit_identical_to_solve_banded(K, n, seed, sigma, negative):
    # Couplings of any sign, as in the Newton Jacobian, as well as cooperative ones.
    rng = np.random.default_rng(seed)
    lap = assemble_neumann_laplacian(build_grid(0, 1, n))
    coupling = rng.uniform(-2.0 if negative else 0.0, 2.0, (K, K, n))
    op = assemble_banded(lap, tuple(rng.uniform(1e-3, 2.0, K)), coupling)
    band, rhs = op.ab.copy(), rng.normal(size=K * n)
    kept = rhs.copy()
    try:
        expected = solve_banded((K, K), op.shifted_bands(sigma), rhs)
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            op.solve_shifted(sigma, rhs)
    else:
        assert same_bits(op.solve_shifted(sigma, rhs), expected)
    assert same_bits(rhs, kept) and same_bits(op.ab, band)


def reference_matvec(ab, x):
    """A x band by band, one product array per band, into a zero accumulator."""
    u, size = (ab.shape[0] - 1) // 2, ab.shape[1]
    y = np.zeros_like(x)
    y += ab[u] * x
    for k in range(u, 0, -1):
        y[: size - k] += ab[u - k, k:] * x[k:]
        y[k:] += ab[u + k, : size - k] * x[: size - k]
    return y


@settings(max_examples=40, deadline=None)
@given(K=st.sampled_from([1, 2]), n=st.integers(3, 30), seed=st.integers(0, 2**32 - 1))
def test_matvec_is_bit_identical_to_the_band_loop(K, n, seed):
    rng = np.random.default_rng(seed)
    lap = assemble_neumann_laplacian(build_grid(0, 1, n))
    coupling = rng.uniform(-2.0, 2.0, (K, K, n))
    coupling[rng.uniform(size=coupling.shape) < 0.3] = -0.0
    op = assemble_banded(lap, tuple(rng.uniform(1e-3, 2.0, K)), coupling)
    x = rng.normal(size=K * n)
    # A run of signed zeros: a row whose products are all -0.0 sums to +0.0 in the loop.
    start, stop = sorted(rng.integers(0, K * n + 1, 2))
    x[start:stop] = np.where(rng.uniform(size=stop - start) < 0.5, 0.0, -0.0)
    assert same_bits(op.matvec(x), reference_matvec(op.ab, x))


@pytest.mark.parametrize("K", [1, 2])
def test_singular_shift_raises(K):
    # h = 1: the Laplacian's integer entries make sigma = 0 exactly singular (L kills constants).
    n = 9
    op = assemble_banded(assemble_neumann_laplacian(build_grid(0, n - 1, n)), (1.0,) * K,
                         np.zeros((K, K, n)))
    with pytest.raises(np.linalg.LinAlgError):
        op.solve_shifted(0.0, np.ones(K * n))


def sign_changing_problem():
    g = build_grid(0, 1, 41)
    return scalar_problem(g, 0.3, np.cos(2 * np.pi * g.nodes) - 0.1)


def test_inverse_iteration_flips_an_all_negative_iterate(monkeypatch):
    problem = sign_changing_problem()
    expected = principal_eigen(problem)
    solve = BandedOperator.solve_shifted
    monkeypatch.setattr(BandedOperator, "solve_shifted",
                        lambda self, sigma, rhs: -solve(self, sigma, rhs))
    result = principal_eigen(problem)
    assert result.lam == expected.lam and result.iterations == expected.iterations
    assert same_bits(result.eigenfunctions, expected.eigenfunctions)


def test_inverse_iteration_backs_off_on_singular_and_nan_solves(monkeypatch):
    problem = sign_changing_problem()
    expected = principal_eigen(problem)
    solve = BandedOperator.solve_shifted
    sigmas = []

    def stub(self, sigma, rhs):
        sigmas.append(sigma)
        if len(sigmas) == 1:
            raise np.linalg.LinAlgError("singular matrix")
        x = solve(self, sigma, rhs)
        if len(sigmas) == 2:
            x[3] = np.nan
        return x

    monkeypatch.setattr(BandedOperator, "solve_shifted", stub)
    result = principal_eigen(problem)
    # From v = ones: A v is the potential e, lambda its mean, and the back-off
    # starts at max e - min e and grows fourfold after each failure.
    e = problem.coupling[0, 0]
    w = problem.grid.quadrature_weights
    lam0, backoff = (w @ e) / w.sum(), np.max(e) - np.min(e)
    assert sigmas[1] == pytest.approx(lam0 + backoff, rel=1e-12)
    assert sigmas[2] == pytest.approx(lam0 + 4.0 * backoff, rel=1e-12)
    assert abs(result.lam - expected.lam) <= 1e-9 * (1.0 + abs(expected.lam))
    assert np.min(result.eigenfunctions) > 0


def test_nonfinite_operator_is_rejected():
    g = build_grid(0, 1, 21)
    e = np.zeros(g.n)
    e[4] = np.inf
    with pytest.raises(ValueError, match="infs or NaNs"):
        principal_eigen(scalar_problem(g, 0.3, e))
