import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from dispersal_lab.analysis import find_threshold, logistic_steady
from dispersal_lab.cli import parse_config
from dispersal_lab.mesh import assemble_neumann_laplacian, build_grid
from dispersal_lab.model import sample_coefficients
from dispersal_lab.spectral import (
    BISECT_MAX_ITER,
    EIGEN_MAX_ITER,
    EIGEN_TOL,
    RESIDUAL_TOL,
    SIGN_ROUNDING,
    BandedOperator,
    ConvergenceError,
    CooperativityError,
    ThresholdResult,
    adjoint_principal_eigen,
    assemble_banded,
    assemble_dense,
    bisect_curve,
    dense_rightmost,
    eigen_curve,
    find_mu_roots,
    lambda_prime_at_zero,
    mu_family,
    mu_star_scalar,
    principal_eigen,
    scalar_eigenvalue,
    scalar_problem,
    switching_problem,
    _finish,
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
    w = np.repeat(grid.quadrature_weights, 2)
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
    curve = eigen_curve(mu_family(grid, 0.1, 1.0, alpha, alpha, m))
    vals = [curve(mu) for mu in (0.0, 0.5, 1.0)]
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
    curve = eigen_curve(mu_family(grid, 0.1, 1.0, alpha, beta, m))
    fd = (curve(h) - curve(-h)) / (2 * h)
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
    family = lambda d: scalar_problem(grid, d, e)
    assert find_mu_roots(family, (0.05, 20.0), "d_root", scan_points=16) == []


def test_find_mu_roots_keeps_root_on_lattice_point():
    # A constant potential c is the eigenvalue, and exactly 0 at c = 0: the
    # Laplacian's rows sum to exactly 0, so A v = 0 at v = ones.
    g = build_grid(0, 1, 41)
    lattice = np.geomspace(1e-2, 1e2, 64)
    family = lambda x: scalar_problem(g, 0.5, np.full(g.n, x - lattice[20]))
    assert principal_eigen(family(lattice[20])).lam == 0.0
    roots = find_mu_roots(family, (1e-2, 1e2), "mu_star")
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


def test_mu_star_on_a_fine_grid_is_a_dense_oracle_root():
    # The scan's points at large d, where ||A|| is about 1e10, certify their sign;
    # solved to convergence they stall (the |delta lambda| test cannot pass there).
    g = build_grid(0, 1, 1601)
    e = 0.3 * np.cos(np.pi * g.nodes) - 0.1
    result = mu_star_scalar(g, e)
    sqrt_w = np.sqrt(g.quadrature_weights)

    def dense_lam(mu):
        # Rightmost eigenvalue of the dense operator, symmetric once scaled by the
        # square roots of the quadrature weights.
        matrix = assemble_dense(scalar_problem(g, 1.0 / mu, e))
        return np.linalg.eigvalsh(sqrt_w[:, None] * matrix / sqrt_w[None, :])[-1]

    assert abs(dense_lam(result.root)) <= 1e-9
    below, above = dense_lam(result.root * (1 - 1e-7)), dense_lam(result.root * (1 + 1e-7))
    assert below < 0 < above


def test_mu_star_rejects_nonnegative_mean(grid):
    from dispersal_lab.model import HypothesisError

    with pytest.raises(HypothesisError):
        mu_star_scalar(grid, np.cos(2 * np.pi * grid.nodes) + 0.1)


def test_coupled_constant_ratio_unique_root(grid):
    x = grid.nodes
    beta = np.full(grid.n, 0.8)
    m = np.cos(2 * np.pi * x) - 0.15
    roots = find_mu_roots(mu_family(grid, 0.1, 1.0, 1.5 * beta, beta, m), (1e-2, 1e2),
                          name="mu_zero")
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
    return bisect_curve(curve, lo, hi, name="t")


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
    with pytest.raises(ConvergenceError, match="stalled"):
        bisect_curve(curve, 0.1, 0.9, name="jump")
    assert curve.calls == 2 + BISECT_MAX_ITER


def test_refinement_on_a_memo_that_holds_the_ends_solves_only_its_evaluations(grid):
    e = np.cos(2 * np.pi * grid.nodes) - 0.1
    family = counted(lambda d: scalar_problem(grid, d, e))
    curve = eigen_curve(family)
    assert curve(0.01) > 0 > curve(10.0)
    family.calls = 0
    result = bisect_curve(curve, 0.01, 10.0, name="d")
    assert family.calls == result.evaluations > 0


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


def reference_principal_eigen(problem, sign_from=None):
    """spectral.principal_eigen as it was with iteration 0 in a pass of its own
    before the loop, and the sign test in reference_certified_sign."""
    A = assemble_banded(problem.grid.laplacian, problem.diffusions, problem.coupling)
    K = problem.n_components
    w_big = np.repeat(problem.grid.quadrature_weights, K)
    if not np.isfinite(A.ab).all():
        raise ValueError("array must not contain infs or NaNs")
    anorm = A.inf_norm()
    resid_floor = max(EIGEN_TOL, 40.0 * np.finfo(float).eps * anorm)
    sign_slack = SIGN_ROUNDING * (2 * K + 1) * anorm

    v = np.ones(A.size) if sign_from is None else np.asarray(sign_from, dtype=float)
    y = A.matvec(v)
    ratio = y if sign_from is None else y / v
    up = float(np.max(ratio))
    lo = float(np.min(ratio))
    lam = float((w_big @ (v * y)) / (w_big @ (v * v)))
    residual = float(np.max(np.abs(y - lam * v)))
    if sign_from is not None and (sign := reference_certified_sign(y, v, sign_slack)):
        return _finish(problem, v, lam, residual, 0, sign)
    if residual <= resid_floor:
        return _finish(problem, v, lam, residual, 0)

    sigma = up + max(0.25 * (up - lo), 1e-3 * (1.0 + abs(up)))
    backoff = max(up - lo, 1e-6 * (1.0 + abs(up)))
    failures = 0
    lam_prev = np.inf
    for it in range(1, EIGEN_MAX_ITER + 1):
        try:
            x = A.solve_shifted(sigma, v)
        except np.linalg.LinAlgError:
            x_min = x_max = np.nan
        else:
            x_min, x_max = x.min(), x.max()
            if x_max < 0:
                np.negative(x, out=x)
                x_min, x_max = -x_max, -x_min
        if not (x_min > 0 and x_max < np.inf):
            failures += 1
            if failures > 25:
                failure = f"inverse iteration could not find a stable shift after {it} steps"
                break
            sigma = lam + backoff
            backoff *= 4.0
            continue
        x /= x_max
        v = x
        y = A.matvec(v)
        lam = float((w_big @ (v * y)) / (w_big @ (v * v)))
        residual = float(np.abs(y - lam * v).max())
        if sign_from is not None and (sign := reference_certified_sign(y, v, sign_slack)):
            return _finish(problem, v, lam, residual, it, sign)
        if residual <= resid_floor and abs(lam - lam_prev) <= EIGEN_TOL * (1.0 + abs(lam)):
            return _finish(problem, v, lam, residual, it)
        lam_prev = lam
        backoff = max(10.0 * residual, 1e-12 * (1.0 + abs(lam)))
        sigma = lam + max(3.0 * residual, 1e-12 * (1.0 + abs(lam)))
    else:
        failure = (f"principal eigenvalue iteration did not converge in {EIGEN_MAX_ITER} steps "
                   f"(last residual {residual:.3e}, floor {resid_floor:.3e})")
    if sign_from is not None:
        return _finish(problem, v, lam, residual, it)
    raise ConvergenceError(failure)


def reference_certified_sign(y, v, slack):
    ratio = y / v
    margin = slack * float(v.max()) / float(v.min())
    if ratio.min() > margin:
        return 1
    if ratio.max() < -margin:
        return -1
    return 0


def eigen_outcome(solve, problem, start=None):
    """Every bit of what a solve returns, or the type and text of the error it raises."""
    try:
        r = solve(problem, sign_from=start)
    except ConvergenceError as exc:
        return type(exc), str(exc)
    return (np.float64(r.lam).tobytes(), r.eigenfunctions.shape, r.eigenfunctions.tobytes(),
            np.float64(r.residual).tobytes(), r.iterations, r.certified_sign)


@st.composite
def cooperative_problems(draw):
    """(problem, start): a random cooperative K = 1 or K = 2 problem, shifted so that its
    eigenvalue is about delta where the draw asks for it, and None (a cold solve) or a
    positive start vector (sign mode): a random one, or the eigenvector perturbed by a
    relative 1e-16 to 1e-2, from which the iteration may stop at iteration 0 or 1."""
    grid = build_grid(0, 1, draw(st.integers(3, 61)))
    K = draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    growth = draw(st.floats(-1.0, 1.0)) + draw(st.floats(0.0, 2.0)) * rng.uniform(-1.0, 1.0,
                                                                                  grid.n)
    rate = st.floats(-9.0, 1.0).map(lambda e: 10.0 ** e)
    if K == 1:
        d = draw(rate)
        build = lambda shift: scalar_problem(grid, d, growth + shift)
    else:
        d1, d2 = draw(rate), draw(rate)
        alpha = draw(rate) * rng.uniform(0.5, 1.5, grid.n)
        beta = draw(rate) * rng.uniform(0.5, 1.5, grid.n)
        build = lambda shift: switching_problem(grid, d1, d2, alpha, beta, growth + shift)
    shift = 0.0
    if draw(st.booleans()):  # near a sign change, where the sign mode works hardest
        delta = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-16.0, 0.0))
        shift = delta - principal_eigen(build(0.0)).lam
    start = draw(st.sampled_from([None, "random", "eigenvector"]))
    if start == "random":
        start = np.exp(draw(st.floats(0.0, 20.0)) * rng.uniform(-1.0, 0.0, K * grid.n))
    elif start == "eigenvector":
        start = principal_eigen(build(0.0)).eigenfunctions.T.ravel() * (
            1.0 + 10.0 ** draw(st.floats(-16.0, -2.0)) * rng.uniform(-1.0, 1.0, K * grid.n))
    return build(shift), start


def decoupled_chain():
    """The sign-mode starts of a scan of a nearly decoupled pair: each point starts from
    the previous point's iterate.  At mu = 7.2 no stable shift is found."""
    grid = build_grid(0, 1, 41)
    family = lambda mu: switching_problem(
        grid, 0.001, 7.867179555581274, np.full(grid.n, 2.727255329474793),
        np.full(grid.n, 1.7799412358762107e-08),
        mu * (-0.010415587111531677 + 0.43572579910446607 * np.cos(3 * np.pi * grid.nodes)))
    start, cases = np.ones(2 * grid.n), []
    for mu in np.geomspace(1e-2, 1e2, 8):
        cases.append((family(mu), start))
        start = principal_eigen(family(mu), sign_from=start).eigenfunctions.T.ravel()
    return cases


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cooperative_problems())
def test_principal_eigen_matches_the_reference_bit_for_bit(case):
    assert eigen_outcome(principal_eigen, *case) == eigen_outcome(reference_principal_eigen, *case)


def test_principal_eigen_matches_the_reference_where_it_stalls_or_slips():
    # At mu = 7.2 the sign mode slips its shift 26 times, so it ends uncertified before
    # EIGEN_MAX_ITER with its residual far above the floor.
    slipped = [eigen_outcome(reference_principal_eigen, *case) for case in decoupled_chain()]
    assert any(o[5] == 0 and o[4] < EIGEN_MAX_ITER and np.frombuffer(o[3])[0] > 1e-8
               for o in slipped)
    assert [eigen_outcome(principal_eigen, *case) for case in decoupled_chain()] == slipped
    # beta_c's lower bracket end on configs/threshold_dc.json at n = 801, whose residual
    # stays above its floor for all EIGEN_MAX_ITER iterations.
    path = Path(__file__).resolve().parents[1] / "configs" / "threshold_dc.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    data["grid"]["n"] = 801
    config = parse_config(data)
    grid, p = config.grid, config.params
    coeffs = sample_coefficients(p, grid)
    (w_star,) = logistic_steady(p, grid, coeffs).state.components
    problem = switching_problem(grid, p.d1, p.d2, coeffs.alpha, np.full(grid.n, 2e-4),
                                coeffs.m - w_star)
    stalled = eigen_outcome(reference_principal_eigen, problem)
    assert stalled[1].startswith(f"principal eigenvalue iteration did not converge in "
                                 f"{EIGEN_MAX_ITER} steps")
    # principal_eigen returns it at the cap instead, on an enclosure that holds lam.
    result = principal_eigen(problem)
    assert result.iterations == EIGEN_MAX_ITER
    lo, up = result.enclosure
    assert lo <= result.lam <= up
    # The rates are constant, so S = W^1/2 T^-1 A T W^-1/2 with T = diag(1, sqrt(alpha/beta))
    # is symmetric, and eigvalsh gives its eigenvalues to about eps*||S||.
    scale = np.repeat(np.sqrt(grid.quadrature_weights), 2) / np.tile(
        [1.0, np.sqrt(coeffs.alpha[0] / 2e-4)], grid.n)
    S = scale[:, None] * assemble_dense(problem) / scale[None, :]
    assert np.abs(S - S.T).max() <= 1e-12 * np.abs(S).max()
    assert abs(result.lam - np.linalg.eigvalsh(0.5 * (S + S.T))[-1]) <= 1e-9
    signed = eigen_outcome(reference_principal_eigen, problem, np.ones(2 * grid.n))
    assert eigen_outcome(principal_eigen, problem, np.ones(2 * grid.n)) == signed


def large_norm_problem(seed):
    """A random cooperative K = 1 or K = 2 problem on 11 to 801 nodes with diffusion rates
    1e-4 to 1e3, so that ||A||_inf reaches about 2.6e9 and the rounding floor
    40*eps*||A||_inf, not EIGEN_TOL, bounds the residual.  Every number is drawn from the
    seed, uniformly on its range (log-uniformly for rates)."""
    rng = np.random.default_rng(seed)
    grid = build_grid(0, 1, int(rng.integers(11, 802)))
    growth = rng.uniform(-1.0, 1.0) + rng.uniform(0.0, 2.0) * rng.uniform(-1.0, 1.0, grid.n)
    diffusion = lambda: 10.0 ** rng.uniform(-4.0, 3.0)
    if rng.integers(2):
        return scalar_problem(grid, diffusion(), growth)
    alpha, beta = (10.0 ** rng.uniform(-4.0, 1.0) * rng.uniform(0.5, 1.5, grid.n)
                   for _ in range(2))
    return switching_problem(grid, diffusion(), diffusion(), alpha, beta, growth)


# About one seed in 170 gives a problem on which the reference stalls: at 309 and 374 its
# last 64 residuals lie just above the floor, and at 385 under it (5.9e-8 against 1.7e-5).
@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1).map(large_norm_problem))
@example(large_norm_problem(309))
@example(large_norm_problem(374))
@example(large_norm_problem(385))
def test_principal_eigen_returns_an_enclosure_only_where_the_reference_stalls(problem):
    reference = eigen_outcome(reference_principal_eigen, problem)
    if eigen_outcome(principal_eigen, problem) != reference:
        assert reference[1].startswith(f"principal eigenvalue iteration did not converge in "
                                       f"{EIGEN_MAX_ITER} steps")
        result = principal_eigen(problem)
        lo, up = result.enclosure
        assert lo <= result.lam <= up


def logistic_stall_problem():
    """The eigen task's logistic problem at n = 401 with d3 = 984 and m = 0.1 + 0.3 cos(3 pi x):
    its residual lies under the floor, and lam jitters by more than EIGEN_TOL to the cap."""
    g = build_grid(0, 1, 401)
    return scalar_problem(g, 984.0, 0.1 + 0.3 * np.cos(3 * np.pi * g.nodes))


@pytest.mark.parametrize("problem", [large_norm_problem(385), logistic_stall_problem()],
                         ids=["seed_385", "logistic_401"])
def test_principal_eigen_returns_an_enclosure_where_the_residual_is_under_its_floor(problem):
    result = principal_eigen(problem)
    assert result.iterations == EIGEN_MAX_ITER
    lo, up = result.enclosure
    assert lo <= result.lam <= up


def test_the_enclosure_under_the_floor_holds_the_dense_eigenvalue():
    problem = logistic_stall_problem()
    lo, up = principal_eigen(problem).enclosure
    lam_dense, _ = dense_rightmost(assemble_dense(problem))
    assert lo <= lam_dense.real <= up
